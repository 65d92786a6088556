"""Exact classical oracle tests: subspace lattices, Hilbert dimensions,
inclusion-exclusion, and the shuffle decomposition."""

import ast
from math import comb
from pathlib import Path

import pytest

import ellr.classical
import ellr.linalg
from ellr.linalg import exact_nullspace, exact_rank
from ellr.classical import (
    lambda_rows,
    sigma_rows,
    i_rows,
    classical_w_dim,
    inclusion_exclusion_check,
    classical_hilbert,
    shuffle_identity_check,
    classical_dims,
)


def test_lambda_rows_dims():
    # L_pos has dim C(n,2) * n^(d-2)
    for n, d in ((2, 3), (3, 3), (3, 4)):
        for pos in range(1, d):
            assert exact_rank(lambda_rows(n, d, pos)) == comb(n, 2) * n ** (d - 2)


def test_sigma_boundaries():
    n, d = 3, 3
    assert exact_rank(sigma_rows(n, d, 0)) == n ** d  # ambient convention
    # Sig_{d-1} is the complement of the symmetric part
    assert exact_rank(sigma_rows(n, d, d - 1)) == n ** d - comb(n + d - 1, d)


def test_i_boundaries():
    n, d = 3, 3
    assert exact_rank(i_rows(n, d, 0)) == n ** d  # ambient convention
    # I_{d-1} is the intersection of all pair subspaces: the exterior part
    assert exact_rank(i_rows(n, d, d - 1)) == comb(n, d)


def test_classical_w_dim_tables():
    # pinned lattice dimension tables
    assert [classical_w_dim(3, 3, l, 2 - l) for l in range(3)] == [1, 1, 17]
    assert [classical_w_dim(3, 4, l, 3 - l) for l in range(4)] == [0, 0, 12, 66]
    assert [classical_w_dim(2, 5, l, 4 - l) for l in range(5)] == [0, 0, 0, 4, 26]


def exact_row_space_intersection(rows_a, rows_b, ncols: int):
    """Integer row basis of rowspace(A) ^ rowspace(B): the annihilator of
    the sum of the two annihilators.  The witness the flat spanning sets
    are intersected with."""
    return exact_nullspace(exact_nullspace(rows_a, ncols) + exact_nullspace(rows_b, ncols), ncols)


def test_exact_row_space_intersection():
    A = [[1, 0, 0], [0, 1, 0]]
    B = [[0, 1, 0], [0, 0, 1]]
    inter = exact_row_space_intersection(A, B, 3)
    assert exact_rank(inter) == 1
    v = inter[0]
    assert v[0] == 0 and v[2] == 0 and v[1] != 0


def test_exact_intersection_of_full_rank_sets_is_the_whole_space():
    # both annihilators are empty, so their sum is zero and its annihilator
    # is all of Q^2
    inter = exact_row_space_intersection([[1, 0], [0, 1]], [[1, 1], [1, -1]], 2)
    assert exact_rank(inter) == 2


def test_exact_intersection_with_empty_is_zero():
    # empty row list spans the zero space, so any intersection with it is zero
    A = [[1, 2, 3]]
    inter = exact_row_space_intersection(A, [], 3)
    assert exact_rank(inter) == 0


# sizes the graded oracle is compared with the flat spanning sets at
FLAT_SIZES = ((2, 3), (3, 3), (3, 4), (2, 4), (2, 5))


def _flat_w_dim(n, d, ell, r):
    inter = exact_row_space_intersection(sigma_rows(n, d, ell), i_rows(n, d, r), n ** d)
    return exact_rank(inter)


def test_graded_w_dim_matches_flat():
    for n, d in FLAT_SIZES:
        for ell in range(d):
            r = d - 1 - ell
            assert classical_w_dim(n, d, ell, r) == _flat_w_dim(n, d, ell, r), (n, d, ell)


def test_i_rows_span_the_chained_intersection():
    for n, d in FLAT_SIZES:
        for t in range(1, d):
            chained = lambda_rows(n, d, d - t)
            for pos in range(d - t + 1, d):
                chained = exact_row_space_intersection(chained, lambda_rows(n, d, pos), n ** d)
            rows = i_rows(n, d, t)
            rank = exact_rank(rows)
            assert rank == exact_rank(chained) == len(rows), (n, d, t)
            assert exact_rank(rows + chained) == rank, (n, d, t)


def test_graded_sigma_cap_ranks_match_flat():
    for n, d in FLAT_SIZES:
        dims = classical_dims(n, d)
        assert dims["sigma"] == {s: exact_rank(sigma_rows(n, d, s)) for s in range(d)}
        assert dims["cap"] == {t: exact_rank(i_rows(n, d, t)) for t in range(d)}


def test_graded_inclusion_exclusion_matches_flat():
    for n, d in ((2, 3), (3, 3), (2, 4)):
        dim = n ** d
        for ell in range(1, d):
            X = sigma_rows(n, d, ell - 1) if ell > 1 else []
            Z = i_rows(n, d, d - 1 - ell)
            YZ = exact_row_space_intersection(lambda_rows(n, d, ell), Z, dim)
            flat = {
                "dim_x_cap_z": exact_rank(exact_row_space_intersection(X, Z, dim)) if X else 0,
                "dim_y_cap_z": exact_rank(YZ),
                "dim_x_cap_y_cap_z": (
                    exact_rank(exact_row_space_intersection(X, YZ, dim)) if X else 0
                ),
            }
            out = inclusion_exclusion_check(n, d, ell)
            assert {key: out[key] for key in flat} == flat, (n, d, ell)
            assert out["lhs"] == _flat_w_dim(n, d, ell, d - 1 - ell)


def _closed_form_w_dim(n, d, ell):
    """dim(Sig_ell ^ I_{d-1-ell}) from the exactness of the Koszul complex
    of S(V): the kernel of S^ell (x) Lambda^m -> S^{ell+1} (x) Lambda^{m-1},
    m = d - ell, pulled back to V^{(x)ell} (x) Lambda^m."""
    if ell == 0:
        return comb(n, d)
    m = d - ell
    return n ** ell * comb(n, m) - sum(
        (-1) ** j * comb(n + ell - j - 1, ell - j) * comb(n, m + j) for j in range(ell + 1)
    )


def test_w_dim_matches_the_closed_form():
    for n in range(2, 6):
        for d in range(2, 6):
            dims = [classical_w_dim(n, d, ell, d - 1 - ell) for ell in range(d)]
            assert dims == [_closed_form_w_dim(n, d, ell) for ell in range(d)], (n, d)
            if (n, d) == (5, 5):
                assert dims == [1, 1, 124, 1026, 2999]


def test_dimensions_need_no_fraction_elimination(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a dimension went through a Fraction elimination")

    for module in (ellr.linalg, ellr.classical):
        for name in ("exact_nullspace", "exact_row_space_intersection"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    n, d = 3, 4
    assert [classical_w_dim(n, d, ell, d - 1 - ell) for ell in range(d)] == [0, 0, 12, 66]
    assert classical_dims(n, d)["w"] == {0: 0, 1: 0, 2: 12, 3: 66}
    assert all(inclusion_exclusion_check(n, d, ell)["equal"] for ell in range(1, d))
    assert classical_hilbert(n, d) == {"poly_dim": comb(n + d - 1, d), "ext_dim": 0}


def test_oracle_source_has_no_floats():
    tree = ast.parse(Path(ellr.classical.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "numpy" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert (node.module or "").split(".")[0] != "numpy"
        elif isinstance(node, ast.Constant):
            assert not isinstance(node.value, (float, complex)), node.value
        elif isinstance(node, (ast.BinOp, ast.AugAssign)):
            assert not isinstance(node.op, ast.Div), ast.unparse(node)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            assert node.func.id not in ("float", "complex"), ast.unparse(node)


def test_lattice_dims_n3_d5():
    assert [classical_w_dim(3, 5, l, 4 - l) for l in range(5)] == [0, 0, 3, 57, 222]


def test_w_dim_requires_complementary_indices():
    with pytest.raises(ValueError):
        classical_w_dim(3, 3, 1, 2)


def test_inclusion_exclusion_identity():
    for n, d in ((2, 3), (3, 3), (2, 4)):
        for ell in range(1, d):
            out = inclusion_exclusion_check(n, d, ell)
            assert out["equal"], (n, d, ell, out)


def test_classical_hilbert_cross_check():
    out = classical_hilbert(3, 3)
    assert out == {"poly_dim": comb(5, 3), "ext_dim": 1}
    out2 = classical_hilbert(2, 4)
    assert out2 == {"poly_dim": 5, "ext_dim": 0}
    # at d = 1 the quotient S^1 is by the zero space, not by Sig_0
    assert classical_hilbert(4, 1) == {"poly_dim": 4, "ext_dim": 4}


def test_classical_dims_consistency():
    dims = classical_dims(3, 3)
    assert dims["w"] == {0: 1, 1: 1, 2: 17}
    # Sig_ell ^ I_{d-1-ell} boundaries agree with the sigma/cap tables
    assert dims["w"][0] == dims["cap"][2]
    assert dims["w"][2] == dims["sigma"][2]


def test_shuffle_identity():
    for a in range(0, 4):
        for b in range(0, 4 - a):
            assert shuffle_identity_check(a, b)


def test_shuffle_size_guard():
    with pytest.raises(ValueError):
        shuffle_identity_check(4, 3)


def test_degree_guard():
    with pytest.raises(ValueError):
        lambda_rows(3, 6, 1)
    with pytest.raises(ValueError):
        classical_hilbert(1, 2)
