"""Rank certification, the kernel-equals-span rule, and exact integer
elimination."""

import math
from fractions import Fraction

import numpy as np
import pytest

from ellr.linalg import (
    AmbiguousRankError,
    NonFiniteMatrixError,
    RankPolicy,
    svd_rank,
    svd_ranks,
    singular_cut,
    kernel,
    image,
    kernel_span_bound,
    exact_rank,
)

RNG = np.random.default_rng(42)


def basis(blocks):
    """Orthonormal basis columns of a subspace given by one block per grade
    (as :func:`image` and :func:`kernel` give it), in grade-ordered
    coordinates (grade 0 first): its blocks placed block-diagonally."""
    return block_diag(blocks)


def dim(blocks) -> int:
    return sum(B.shape[1] for B in blocks)


def _projector(S):
    """The orthogonal projector onto S, from its orthonormal basis."""
    Q = basis(S)
    return Q @ Q.conj().T


def orth(X, tol=1e-10):
    """Orthonormal basis of the column span of X, cut at tol times its
    largest singular value."""
    U, s, _ = np.linalg.svd(X)
    return U[:, :int(np.count_nonzero(s > tol * s[0])) if s.size else 0]


def null(M, tol=1e-10):
    """Orthonormal basis of the kernel of M, cut at tol times its largest
    singular value."""
    _, s, Vh = np.linalg.svd(M)
    rank = int(np.count_nonzero(s > tol * s[0])) if s.size and s[0] > 0 else 0
    return Vh[rank:].conj().T


def dense_sine(X, Y):
    """The sine of the largest principal angle between the spans of the
    orthonormal columns X and Y, 1.0 when their dimensions differ: the
    2-norm of the part of X outside span Y, which keeps the digits of a
    small angle (an arccos of the cosines near 1 does not).  The dense
    reference the equality rule is tested against."""
    if X.shape[1] != Y.shape[1]:
        return 1.0
    if X.shape[1] == 0:
        return 0.0
    return float(np.linalg.norm(X - Y @ (Y.conj().T @ X), 2))


def kernel_span_sine(M, B):
    """The dense reference for :func:`kernel_span_bound`: the sine between
    ker M and span B, M and B dense matrices."""
    return dense_sine(null(M), orth(B))


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


def test_svd_ranks_certifies_each_operator_as_svd_rank_does(monkeypatch):
    # ranks and gaps equal to svd_rank's of each block stack alone, bit
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
    assert found == [svd_rank(stack) for stack in stacks]


def test_svd_ranks_refuses_as_svd_rank_does():
    policy = RankPolicy(rel_threshold=1e-9, min_gap=1e4)
    with pytest.raises(AmbiguousRankError):
        svd_ranks(np.array([[np.eye(3)], [np.diag([1.0, 1e-8, 1e-10])]]), policy)
    with pytest.raises(NonFiniteMatrixError):
        svd_ranks(np.array([[np.eye(2)], [np.diag([1.0, np.nan])]]))


def _check_kernel_and_image(M, rank):
    K, I = kernel(M), image(M)
    nrows, ncols = M.shape
    assert [B.shape for B in K] == [(ncols, ncols - rank)]
    assert [B.shape for B in I] == [(nrows, rank)]
    assert np.allclose(basis(K).conj().T @ basis(K), np.eye(dim(K)), atol=1e-12)
    assert np.allclose(basis(I).conj().T @ basis(I), np.eye(dim(I)), atol=1e-12)
    assert np.max(np.abs(M @ basis(K))) < 1e-9 * np.max(np.abs(M))
    # the image basis spans the columns of M
    resid = M - _projector(I) @ M
    assert np.max(np.abs(resid)) < 1e-9 * np.max(np.abs(M))


def test_kernel_and_image_of_wide_matrix():
    # 3 x 7 of rank 2: the kernel (dim 5) needs rows of V^H beyond min(m, n)
    _check_kernel_and_image(_random_rank(3, 7, 2), 2)


def test_kernel_and_image_of_tall_matrix():
    _check_kernel_and_image(_random_rank(9, 4, 2), 2)


def test_svd_rank_matches_a_dense_reference():
    # a stack's (rank, gap) are those of a dense SVD of its block-diagonal
    # matrix, cut at rel_threshold times the largest value, at any scale
    blocks = _ragged_stack()
    s = np.linalg.svd(block_diag(blocks), compute_uv=False)
    rank = int(np.count_nonzero(s > RankPolicy().rel_threshold * s[0]))
    for scale in (1.0, 1e-30, 1e30):
        found, gap = svd_rank([scale * B for B in blocks])
        assert found == rank == 6 and abs(gap / (s[rank - 1] / s[rank]) - 1) < 1e-3


@pytest.mark.parametrize("bad", (np.inf, np.nan))
def test_svd_rank_refuses_a_non_finite_matrix(bad):
    M = np.eye(3, dtype=complex)
    M[1, 2] = bad
    for certify in (svd_rank, image, kernel):
        with pytest.raises(NonFiniteMatrixError, match="overflow"):
            certify(M)


def test_rank_policy_validation():
    with pytest.raises(ValueError):
        RankPolicy(rel_threshold=2.0)
    with pytest.raises(ValueError):
        RankPolicy(min_gap=0.5)


def test_kernel_image_orthonormal_and_complementary():
    M = _random_rank(7, 7, 4)
    K, I = kernel(M), image(M)
    assert dim(K) == 3 and dim(I) == 4
    assert np.allclose(basis(K).conj().T @ basis(K), np.eye(3), atol=1e-12)
    assert np.max(np.abs(M @ basis(K))) < 1e-9 * np.max(np.abs(M))
    # block by block over a stack, im M and ker M^H, and ker M and im M^H,
    # together are orthonormal bases of the whole block's space
    stack = _ragged_stack()
    adjoint = [B.conj().T for B in stack]
    for left, right in ((image(stack), kernel(adjoint)), (kernel(stack), image(adjoint))):
        for B, X, Y in zip(stack, left, right):
            Q = np.hstack([X, Y])
            assert Q.shape[0] == Q.shape[1] in B.shape
            assert np.allclose(Q.conj().T @ Q, np.eye(Q.shape[1]), atol=1e-12)


def test_kernel_span_bound_at_the_zero_and_the_whole_space():
    # a zero M has the whole space as its kernel, and a B of rank 0 spans
    # the zero space: equal dimensions read 0.0, unequal ones 1.0
    M = _random_rank(3, 3, 2)
    whole, none = np.eye(3), np.zeros((3, 0))
    assert kernel_span_bound(np.zeros((3, 3)), whole) == 0.0
    assert kernel_span_bound(np.zeros((3, 3)), _random_rank(3, 3, 3)) == 0.0
    assert kernel_span_bound(_random_rank(3, 3, 3), none) == 0.0
    assert kernel_span_bound(_random_rank(3, 3, 3), np.zeros((3, 2))) == 0.0
    assert kernel_span_bound(np.zeros((3, 3)), basis(image(M))) == 1.0
    assert kernel_span_bound(M, none) == 1.0
    assert kernel_span_bound(M, basis(kernel(M))) < 1e-15
    with pytest.raises(ValueError, match="column counts"):
        kernel_span_bound(M, np.eye(4))


def test_principal_angles_and_equality():
    M = _random_rank(6, 6, 3)
    K = basis(kernel(M))
    # the same span under a change of basis, scaled, passes; another
    # 3-dimensional space fails, and the bound is never below the sine
    assert kernel_span_bound(M, 1e3 * K @ _unitary(3)) < 1e-14
    assert kernel_span_bound(1e-3 * M, K @ _with_values(3, 3, [2.0, 1.0, 0.5])) < 1e-13
    other = _random_rank(6, 3, 3)
    bound = kernel_span_bound(M, other)
    assert bound > 1e-2 and bound >= kernel_span_sine(M, other)


def _unitary(k):
    Q, _ = np.linalg.qr(RNG.standard_normal((k, k)) + 1j * RNG.standard_normal((k, k)))
    return Q


def test_subspace_equal_dim_mismatch():
    # a dimension mismatch reads 1.0, the sine of a right angle
    M = _random_rank(5, 5, 2)
    assert kernel_span_bound(M, _random_rank(5, 2, 2)) == 1.0
    assert kernel_span_bound(M, _random_rank(5, 4, 4)) == 1.0


@pytest.mark.parametrize("angle", (1e-12, 1e-9, 1e-5))
def test_a_known_angle_is_bounded_from_above_and_resolved(angle):
    # ker M is rotated by a known angle into its complement, and the
    # spanning set is a skewed, scaled copy: the bound reads at least the
    # angle's sine and stays within a small factor of it, far below the
    # 1e-8 that an arccos of the cosines can show
    m, k = 8, 3
    M = _with_values(m, m, [3.0, 2.0, 1.5, 1.0, 0.5])
    K, C = null(M), orth(M.conj().T)
    turned = K.copy()
    turned[:, 0] = math.cos(angle) * K[:, 0] + math.sin(angle) * C[:, 0]
    B = 7.0 * turned @ _with_values(k, k, [2.0, 1.0, 0.5])
    bound = kernel_span_bound(M, B)
    assert math.sin(angle) <= bound < 1e3 * angle
    assert bound >= kernel_span_sine(M, B)


def test_kernel_span_bound_takes_a_given_cut(monkeypatch):
    # M^H takes M's cut: only B is decomposed, one values-only SVD call
    M = _random_rank(6, 6, 4)
    cut = singular_cut(M)
    svd, calls = np.linalg.svd, []

    def recorded(a, *args, **kwargs):
        calls.append((np.shape(a), kwargs.get("compute_uv", True)))
        return svd(a, *args, **kwargs)

    B = basis(kernel(M.conj().T))
    monkeypatch.setattr(np.linalg, "svd", recorded)
    bound = kernel_span_bound(M.conj().T, B, m_cut=cut)
    monkeypatch.setattr(np.linalg, "svd", svd)
    assert bound < 1e-14
    assert calls == [((1, 6, 2), False)]
    assert singular_cut(M)[:2] == svd_rank(M)
    rank, _, kept = singular_cut(1e5 * M)
    assert rank == 4 and abs(kept / (1e5 * np.linalg.svd(M, compute_uv=False)[3]) - 1) < 1e-12


def _with_values(m, n, values):
    """A random m x n matrix with the given singular values."""
    U = np.linalg.qr(RNG.standard_normal((m, m)) + 1j * RNG.standard_normal((m, m)))[0]
    V = np.linalg.qr(RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n)))[0]
    return U[:, :len(values)] @ np.diag(values) @ V[:, :len(values)].conj().T


def block_diag(blocks):
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
    (rank, gap), (dense_rank, dense_gap) = svd_rank(blocks), svd_rank(block_diag(blocks))
    assert rank == dense_rank == 6
    assert abs(gap / dense_gap - 1) < 1e-3
    assert [B.shape[1] for B in image(blocks)] == [3, 1, 2, 0]
    assert [B.shape[1] for B in kernel(blocks)] == [2, 4, 4, 5]
    for part in (image, kernel):
        P = _projector(part(blocks))
        assert np.max(np.abs(P - _projector(part(block_diag(blocks))))) < 1e-10, part


def test_one_cut_is_shared_by_every_block():
    # a block of pure noise beside a large one is cut as noise: a cut
    # relative to each block's own largest value would count it full rank
    noise = 1e-14 * (RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4)))
    stack = [_random_rank(4, 4, 2), noise]
    assert svd_rank(stack)[0] == 2 and [B.shape[1] for B in image(stack)] == [2, 0]
    for certify in (svd_rank, image, kernel):
        with pytest.raises(AmbiguousRankError):
            certify([np.diag([1.0, 1e-8]), np.diag([1e-10, 0.0])])
        with pytest.raises(NonFiniteMatrixError):
            certify([np.eye(2), np.diag([1.0, np.nan])])


def test_one_svd_call_per_block_shape(monkeypatch):
    # and only image and kernel take U and V
    svd, calls = np.linalg.svd, []

    def recorded(a, *args, **kwargs):
        calls.append((np.shape(a), kwargs.get("compute_uv", True)))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    for certify, compute_uv in ((svd_rank, False), (image, True), (kernel, True)):
        calls.clear()
        certify(_ragged_stack())
        assert sorted(calls) == [((1, 4, 6), compute_uv), ((3, 5, 5), compute_uv)]


def _graded(*blocks):
    return tuple(np.linalg.qr(B)[0] if B.shape[1] else B for B in blocks)


def test_graded_subspace_arithmetic_matches_the_block_diagonal_one():
    # the rule over a grade stack is the rule over its block-diagonal
    # matrix: the same dimensions, and a bound equal up to rounding
    M = [_random_rank(4, 4, 2), _random_rank(4, 4, 3), np.zeros((4, 4))]
    K = [basis(kernel(X)) for X in M]
    A = _graded(*(X @ _unitary(X.shape[1]) for X in K))
    assert (basis(A).shape[0], dim(A)) == (12, 7)
    graded = kernel_span_bound(M, A)
    assert graded < 1e-14 and kernel_span_bound(block_diag(M), basis(A)) < 1e-14
    turned = [X + 1e-6 * _random_rank(4, X.shape[1], X.shape[1]) for X in A]
    graded = kernel_span_bound(M, turned)
    dense = block_diag(M), block_diag(turned)
    assert abs(graded / kernel_span_bound(*dense) - 1) < 1e-10
    assert graded >= kernel_span_sine(*dense)
    # equal total dims split differently over the grades are far apart
    C = [_random_rank(4, 3, 3), K[1], K[2][:, :3]]
    assert dim(C) == dim(A)
    assert kernel_span_bound(M, C) > 0.1
    with pytest.raises(ValueError, match="column counts"):
        kernel_span_bound(M, A[:2])


def test_copies_count_each_block_as_the_repeated_stack_does():
    # a stack of one block per orbit, each counted c times, is certified
    # as the stack with every block repeated c times
    c, blocks = 3, _ragged_stack()
    repeated = blocks * c
    assert singular_cut(blocks, copies=c) == singular_cut(repeated)
    assert svd_rank(blocks, copies=c) == svd_rank(repeated)
    stacks = np.array([[_random_rank(4, 4, 2), _random_rank(4, 4, 1)]] * 2)
    assert svd_ranks(stacks, copies=c) == svd_ranks(np.concatenate([stacks] * c, axis=1))
    M = [_random_rank(4, 4, 2), _random_rank(4, 4, 3)]
    B = [basis(kernel(X)) + 1e-7 * _random_rank(4, 4 - r, 4 - r) for X, r in zip(M, (2, 3))]
    assert abs(kernel_span_bound(M, B, copies=c) / kernel_span_bound(M * c, B * c) - 1) < 1e-12
    assert kernel_span_bound(M, B[:1] + [B[1][:, :0]], copies=c) == 1.0
    with pytest.raises(AmbiguousRankError) as exc:
        svd_rank([np.diag([1.0, 1e-8]), np.diag([1e-10, 0.0])], copies=c)
    assert exc.value.rank == 2 * c


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
