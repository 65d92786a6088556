"""Rank certification, subspace arithmetic, and exact integer elimination."""

import math
from fractions import Fraction

import numpy as np
import pytest

from ellr.linalg import (
    AmbiguousRankError,
    NonFiniteMatrixError,
    RankPolicy,
    Subspace,
    svd_rank,
    svd_ranks,
    singular_rank,
    spectrum,
    kernel,
    image,
    subspace_sum,
    complement_of_sum,
    principal_angles,
    subspace_equal,
    exact_rank,
)

RNG = np.random.default_rng(42)


def _projector(S):
    """The orthogonal projector onto S, from its orthonormal basis."""
    return S.basis @ S.basis.conj().T


def _random_rank(m, n, r):
    A = RNG.standard_normal((m, r)) + 1j * RNG.standard_normal((m, r))
    B = RNG.standard_normal((r, n)) + 1j * RNG.standard_normal((r, n))
    return A @ B


def test_svd_rank_exact():
    M = _random_rank(8, 6, 3)
    rank, gap = svd_rank(M)
    assert rank == 3 and gap > 1e4


def test_svd_rank_zero_and_full():
    assert svd_rank(np.zeros((4, 4))) == (0, math.inf)
    rank, gap = svd_rank(np.eye(5))
    assert rank == 5 and gap == math.inf


def test_svd_rank_ambiguous_raises():
    M = np.diag([1.0, 1e-8, 1e-10])
    with pytest.raises(AmbiguousRankError):
        svd_rank(M, RankPolicy(rel_threshold=1e-9, min_gap=1e4))


def test_svd_ranks_certifies_each_operator_as_singular_rank_does(monkeypatch):
    # ranks and gaps equal to singular_rank's of each block stack alone, bit
    # for bit, over a batch that mixes scales, ranks, ragged block ranks and
    # a zero operator; one values-only SVD call for the whole batch
    blocks, size = 3, 4
    stacks = [[1e3 ** (k % 7) * 2.0 ** g * _random_rank(size, size, (k + g) % (size + 1))
               for g in range(blocks)] for k in range(40)]
    stacks[1] = np.zeros((blocks, size, size))
    svd, calls = np.linalg.svd, []

    def recorded(a, *args, **kwargs):
        calls.append((np.shape(a), kwargs.get("compute_uv", True)))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    found = svd_ranks(np.array(stacks))
    assert calls == [((len(stacks), blocks, size, size), False)]
    monkeypatch.setattr(np.linalg, "svd", svd)
    assert found == [singular_rank(stack) for stack in stacks]


def test_svd_ranks_refuses_as_svd_rank_does():
    policy = RankPolicy(rel_threshold=1e-9, min_gap=1e4)
    with pytest.raises(AmbiguousRankError):
        svd_ranks(np.array([[np.eye(3)], [np.diag([1.0, 1e-8, 1e-10])]]), policy)
    with pytest.raises(NonFiniteMatrixError):
        svd_ranks(np.array([[np.eye(2)], [np.diag([1.0, np.nan])]]))


def _check_kernel_and_image(M, rank):
    K, I = kernel(M), image(M)
    nrows, ncols = M.shape
    assert (K.ambient_dim, I.ambient_dim) == (ncols, nrows)
    assert I.dim == rank and K.dim + rank == ncols
    assert np.allclose(K.basis.conj().T @ K.basis, np.eye(K.dim), atol=1e-12)
    assert np.allclose(I.basis.conj().T @ I.basis, np.eye(I.dim), atol=1e-12)
    assert np.max(np.abs(M @ K.basis)) < 1e-9 * np.max(np.abs(M))
    # the image basis spans the columns of M
    resid = M - _projector(I) @ M
    assert np.max(np.abs(resid)) < 1e-9 * np.max(np.abs(M))


def test_kernel_and_image_of_wide_matrix():
    # 3 x 7 of rank 2: the kernel (dim 5) needs rows of V^H beyond min(m, n)
    _check_kernel_and_image(_random_rank(3, 7, 2), 2)


def test_kernel_and_image_of_tall_matrix():
    _check_kernel_and_image(_random_rank(9, 4, 2), 2)


def test_spectrum_matches_its_readers():
    M = _random_rank(6, 8, 3)
    spec = spectrum(M)
    assert (spec.rank, spec.gap) == svd_rank(M)
    assert subspace_equal(spec.kernel, kernel(M))[0]
    assert subspace_equal(spec.image, image(M))[0]


@pytest.mark.parametrize("bad", (np.inf, np.nan))
def test_spectrum_refuses_a_non_finite_matrix(bad):
    M = np.eye(3, dtype=complex)
    M[1, 2] = bad
    with pytest.raises(NonFiniteMatrixError, match="overflow"):
        spectrum(M)


def test_rank_policy_validation():
    with pytest.raises(ValueError):
        RankPolicy(rel_threshold=2.0)
    with pytest.raises(ValueError):
        RankPolicy(min_gap=0.5)


def test_kernel_image_orthonormal_and_complementary():
    M = _random_rank(7, 7, 4)
    K, I = kernel(M), image(M)
    assert K.dim == 3 and I.dim == 4
    assert np.allclose(K.basis.conj().T @ K.basis, np.eye(3), atol=1e-12)
    assert np.max(np.abs(M @ K.basis)) < 1e-9 * np.max(np.abs(M))


def test_subspace_sum_and_intersect():
    e = np.eye(4, dtype=complex)
    A = Subspace((e[:, :2],))
    B = Subspace((e[:, 1:3],))
    assert subspace_sum([A, B]).dim == 3
    # the complement of span{x0, x1, x2} is the line of x3
    rest = complement_of_sum([A, B])
    assert rest.dim == 1 and abs(abs(rest.basis[3, 0]) - 1) < 1e-12
    # A ^ B is the complement of A^perp + B^perp
    C = complement_of_sum([Subspace((e[:, 2:],)), Subspace((e[:, [0, 3]],))])
    assert C.dim == 1
    assert abs(abs(C.basis[1, 0]) - 1) < 1e-12


def test_intersect_with_full_and_zero():
    # S ^ X is the complement of S^perp + X^perp; full^perp is zero and
    # zero^perp is full
    full, zero = Subspace.full(3), Subspace.zero(3)
    M = _random_rank(3, 3, 2)
    S, S_perp = image(M), kernel(M.conj().T)
    assert complement_of_sum([S_perp, zero]).dim == S.dim
    assert complement_of_sum([S_perp, full]).dim == 0
    assert subspace_equal(complement_of_sum([S_perp]), S)[0]
    assert complement_of_sum([zero]).dim == 3
    assert subspace_sum([S, zero]).dim == S.dim


def test_principal_angles_and_equality():
    M = _random_rank(6, 6, 3)
    S = image(M)
    Q = image(M @ (RNG.standard_normal((6, 6)) + 1j * RNG.standard_normal((6, 6))))
    # same column space under generic right multiplication... not guaranteed;
    # use an explicit change of basis instead
    T = Subspace((np.linalg.qr(S.basis @ _unitary(3))[0],))
    eq, worst = subspace_equal(S, T)
    assert eq and worst < 1e-6
    other = image(_random_rank(6, 6, 3))
    eq2, worst2 = subspace_equal(S, other)
    assert not eq2


def _unitary(k):
    Q, _ = np.linalg.qr(RNG.standard_normal((k, k)) + 1j * RNG.standard_normal((k, k)))
    return Q


def test_subspace_equal_dim_mismatch():
    A = image(_random_rank(5, 5, 2))
    B = image(_random_rank(5, 5, 3))
    eq, _ = subspace_equal(A, B)
    assert not eq


def _with_values(m, n, values):
    """A random m x n matrix with the given singular values."""
    U = np.linalg.qr(RNG.standard_normal((m, m)) + 1j * RNG.standard_normal((m, m)))[0]
    V = np.linalg.qr(RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n)))[0]
    return U[:, :len(values)] @ np.diag(values) @ V[:, :len(values)].conj().T


def _block_diag(blocks):
    out = np.zeros((sum(B.shape[0] for B in blocks), sum(B.shape[1] for B in blocks)),
                   dtype=complex)
    row = col = 0
    for B in blocks:
        out[row:row + B.shape[0], col:col + B.shape[1]] = B
        row, col = row + B.shape[0], col + B.shape[1]
    return out


def _ragged_stack():
    # ranks 3, 1, 2 and 0 under one cut; the dropped values are real, so the
    # gap (1e-3 / 1e-12) is reproducible to their rounding, about 1e-16 / 1e-12
    return [_with_values(5, 5, [2.0, 0.5, 1e-3, 1e-12]),
            _with_values(5, 5, [0.7, 1e-13]),
            _with_values(4, 6, [1.5, 0.01]),
            np.zeros((5, 5))]


def test_block_stack_is_certified_as_its_block_diagonal_matrix():
    blocks = _ragged_stack()
    stacked, dense = spectrum(blocks), spectrum(_block_diag(blocks))
    assert stacked.rank == dense.rank == 6
    assert abs(stacked.gap / dense.gap - 1) < 1e-3
    assert [B.shape[1] for B in stacked.image.blocks] == [3, 1, 2, 0]
    assert [B.shape[1] for B in stacked.kernel.blocks] == [2, 4, 4, 5]
    for part in ("image", "kernel"):
        P = _projector(getattr(stacked, part))
        assert np.max(np.abs(P - _projector(getattr(dense, part)))) < 1e-10, part
    for M in (blocks, _block_diag(blocks)):
        rank, gap = singular_rank(M)
        assert rank == 6 and abs(gap / dense.gap - 1) < 1e-3
    assert svd_rank(blocks) == (stacked.rank, stacked.gap)


def test_one_cut_is_shared_by_every_block():
    # a block of pure noise beside a large one is cut as noise: a cut
    # relative to each block's own largest value would count it full rank
    noise = 1e-14 * (RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4)))
    spec = spectrum([_random_rank(4, 4, 2), noise])
    assert spec.rank == 2 and [B.shape[1] for B in spec.image.blocks] == [2, 0]
    with pytest.raises(AmbiguousRankError):
        spectrum([np.diag([1.0, 1e-8]), np.diag([1e-10, 0.0])])
    with pytest.raises(NonFiniteMatrixError):
        spectrum([np.eye(2), np.diag([1.0, np.nan])])


def test_one_svd_call_per_block_shape(monkeypatch):
    svd, shapes = np.linalg.svd, []

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    spectrum(_ragged_stack())
    assert sorted(shapes) == [(1, 4, 6), (3, 5, 5)]


def _graded(*blocks):
    return Subspace(tuple(np.linalg.qr(B)[0] if B.shape[1] else B for B in blocks))


def test_graded_subspace_arithmetic_matches_the_block_diagonal_one():
    A = _graded(_random_rank(4, 2, 2), _random_rank(4, 1, 1), np.zeros((4, 0)))
    B = _graded(_random_rank(4, 3, 3), _random_rank(4, 2, 2), _random_rank(4, 1, 1))
    dense = [Subspace((S.basis,)) for S in (A, B)]
    assert (A.ambient_dim, A.dim) == (12, 3)
    for op in (subspace_sum, complement_of_sum):
        graded, flat = op([A, B]), op(dense)
        assert graded.dim == flat.dim
        assert subspace_equal(Subspace((graded.basis,)), flat)[0]
    assert complement_of_sum([A, Subspace.zero(12, 3)]).dim == 12 - A.dim
    assert [C.shape[1] for C in complement_of_sum([A]).blocks] == [2, 3, 4]
    assert subspace_sum([A, Subspace.zero(12, 3)]).dim == A.dim
    # equal total dims split differently over the grades differ by a right angle
    C = _graded(_random_rank(4, 1, 1), _random_rank(4, 1, 1), _random_rank(4, 1, 1))
    assert subspace_equal(A, C) == (False, math.pi / 2)
    # the angles of each grade, padded with right angles where a grade of
    # one space has no partner (grade 2 of A is zero)
    angles = principal_angles(A, C)
    assert len(angles) == 3 and np.all(np.diff(angles) >= 0) and angles[-1] == math.pi / 2
    assert subspace_equal(A, _graded(*(S @ _unitary(S.shape[1]) for S in A.blocks)))[0]
    with pytest.raises(ValueError, match="ambient"):
        subspace_sum([A, Subspace.full(12, 4)])


def test_exact_rank_small():
    assert exact_rank([[1, 2], [2, 4]]) == 1
    assert exact_rank([[1, 0], [0, 1]]) == 2
    assert exact_rank([]) == 0
    assert exact_rank([[0, 0], [0, 0]]) == 0


def test_exact_rank_matches_numpy():
    M = RNG.integers(-5, 6, size=(10, 8))
    assert exact_rank(M.tolist()) == np.linalg.matrix_rank(M.astype(float))


def exact_nullspace(rows, ncols: int):
    """Integer basis (as rows) of {v : M v = 0} for an integer matrix M with
    ``ncols`` columns; with no rows it is the whole of Q^ncols.

    Gaussian elimination over Fractions, denominators cleared afterwards.
    The reference the flat spanning sets of ``test_classical`` are built
    with; the oracle itself takes every dimension from ``exact_rank``.
    """
    mat = [[Fraction(int(x)) for x in row] for row in rows]
    pivots = []
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        inv = mat[row][col]
        mat[row] = [x / inv for x in mat[row]]
        for r in range(len(mat)):
            if r != row and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[row])]
        pivots.append(col)
        row += 1
        if row == len(mat):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for prow, pcol in enumerate(pivots):
            vec[pcol] = -mat[prow][fc]
        lcm = 1
        for x in vec:
            lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
        basis.append([int(x * lcm) for x in vec])
    return basis


def test_exact_nullspace():
    rows = [[1, 1, 0], [0, 1, 1]]
    basis = exact_nullspace(rows, 3)
    assert len(basis) == 1
    v = np.array(basis[0])
    assert np.all(np.array(rows) @ v == 0)


def test_exact_nullspace_of_no_rows_is_the_whole_space():
    assert exact_nullspace([], 2) == [[1, 0], [0, 1]]
