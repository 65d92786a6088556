"""Exact classical oracle tests: subspace lattices, Hilbert dimensions,
inclusion-exclusion, and the shuffle decomposition."""

import ast
import itertools
from math import comb
from pathlib import Path

import pytest

import ellr
import ellr.classical
from ellr.linalg import exact_rank
from ellr.classical import (
    _check,
    _graded,
    _orbit_rows,
    _w_dim,
    classical_w_dim,
    shuffle_identity_check,
)
from test_linalg import exact_nullspace


# ---------------------------------------------------------------------------
# Reference constructions: flat spanning sets of V^{(x)d} in the row-major
# multi-index basis, and the dimension tables built from the graded oracle
# ---------------------------------------------------------------------------


def _pair_rows(words, pos: int):
    """Rows w - swap_pos(w) of L_pos, one per word w with w[pos-1] < w[pos].

    Columns are indexed by the position of each word in `words`, which must
    contain every slot permutation of each of its words.
    """
    index = {w: c for c, w in enumerate(words)}
    rows = []
    for w in words:
        i, j = w[pos - 1], w[pos]
        if i < j:
            row = [0] * len(words)
            row[index[w]] = 1
            row[index[w[:pos - 1] + (j, i) + w[pos + 1:]]] = -1
            rows.append(row)
    return rows


def _all_words(n: int, d: int):
    return list(itertools.product(range(n), repeat=d))


def lambda_rows(n: int, d: int, pos: int):
    """Integer row span of L_pos: alternating pairs at slots (pos, pos+1).

    Rows are x_{..} (x) (x_i (x) x_j - x_j (x) x_i) (x) x_{..} for i < j.
    """
    _check(n, d)
    if not 1 <= pos <= d - 1:
        raise ValueError(f"pair position {pos} out of range for degree {d}")
    return _pair_rows(_all_words(n, d), pos)


def sigma_rows(n: int, d: int, s: int):
    """Integer row span of Sig_s = L_1 + ... + L_s; s = 0 gives the ambient space."""
    _check(n, d)
    if not 0 <= s <= d - 1:
        raise ValueError(f"sum index {s} out of range for degree {d}")
    if s == 0:
        return exact_nullspace([], n ** d)
    words = _all_words(n, d)
    return [row for pos in range(1, s + 1) for row in _pair_rows(words, pos)]


def i_rows(n: int, d: int, t: int):
    """Integer row basis of I_t = L_{d-t} ^ ... ^ L_{d-1}: the null space of
    the annihilator rows of L_{d-t}, ..., L_{d-1}; t = 0 gives the ambient space."""
    _check(n, d)
    if not 0 <= t <= d - 1:
        raise ValueError(f"intersection index {t} out of range for degree {d}")
    words = _all_words(n, d)
    ann = [row for pos in range(d - t, d) for row in _orbit_rows(words, pos, pos + 1)]
    return exact_nullspace(ann, len(words))


def inclusion_exclusion_check(n: int, d: int, ell: int) -> dict:
    """Exact verification of the three-term intersection identity

        dim((X + Y) ^ Z) = dim(X ^ Z) + dim(Y ^ Z) - dim(X ^ Y ^ Z)

    with X = L_1 + ... + L_{ell-1}, Y = L_{ell,ell+1}, and
    Z = L_{ell+1} ^ ... ^ L_{d-1}; requires 1 <= ell <= d-1.  Returns the
    four dimensions; the identity itself encodes the distributivity of the
    classical subspace lattice at this corner.
    """
    _check(n, d)
    if not 1 <= ell <= d - 1:
        raise ValueError("inclusion-exclusion check needs 1 <= ell <= d-1")
    # X ^ Z, Y ^ Z and X ^ Y ^ Z are lattice corners too: Y ^ Z = I_{r+1},
    # and X = Sig_{ell-1} is the zero space (not Sig_0) at ell = 1
    r = d - 1 - ell

    def dim(s: int, t: int) -> int:
        return _graded(n, d, lambda words: _w_dim(words, s, t))

    lhs, yz = dim(ell, r), dim(0, r + 1)
    xz, xyz = (dim(ell - 1, r), dim(ell - 1, r + 1)) if ell > 1 else (0, 0)
    rhs = xz + yz - xyz
    return {
        "lhs": lhs,
        "dim_x_cap_z": xz,
        "dim_y_cap_z": yz,
        "dim_x_cap_y_cap_z": xyz,
        "rhs": rhs,
        "equal": lhs == rhs,
    }


def classical_hilbert(n: int, d: int) -> dict:
    """Dimensions of degree-d symmetric and exterior powers of C^n.

    Returns {"poly_dim": C(n+d-1,d), "ext_dim": C(n,d)}, with the binomials
    verified against the oracle's own dimensions: S^d = V^{(x)d} / Sig_{d-1}
    and Lambda^d = I_{d-1}, summed over content classes.
    """
    _check(n, d)
    poly_dim = comb(n + d - 1, d)
    ext_dim = comb(n, d)
    if d >= 1:
        # dim S^d is the rank of ann(Sig_{d-1}), the S_d-orbit rows; at d = 1
        # these are the identity rows, since the quotient is by the empty sum,
        # the zero space, and not by the Sig_0 = ambient convention
        sym_dim = _graded(n, d, lambda words: exact_rank(_orbit_rows(words, 1, d)))
        anti_dim = _graded(n, d, lambda words: _w_dim(words, 0, d - 1))
        if sym_dim != poly_dim or anti_dim != ext_dim:
            raise AssertionError(
                f"oracle dimensions ({sym_dim}, {anti_dim}) of S^d and Lambda^d "
                f"disagree with binomials ({poly_dim}, {ext_dim})"
            )
    return {"poly_dim": poly_dim, "ext_dim": ext_dim}


def classical_dims(n: int, d: int) -> dict:
    """Full classical dimension table for degree d.

    Returns {"w": {ell: dim(Sig_ell ^ I_{d-1-ell})}, "sigma": {...},
    "cap": {...}} with the boundary conventions above.
    """
    _check(n, d)
    w = {ell: classical_w_dim(n, d, ell, d - 1 - ell) for ell in range(d)}
    sig = {s: _graded(n, d, lambda words, s=s: _w_dim(words, s, 0)) for s in range(d)}
    cap = {t: _graded(n, d, lambda words, t=t: _w_dim(words, 0, t)) for t in range(d)}
    return {"w": w, "sigma": sig, "cap": cap}


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


def test_dimensions_need_no_fraction_elimination():
    # the package holds no Fraction elimination: every dimension is an
    # exact_rank of integer rows
    for path in Path(ellr.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
                assert not any(name.split(".")[0] == "fractions" for name in names), path
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
