"""Dense complex linear algebra with tolerance-governed rank decisions,
subspace arithmetic, and exact integer elimination for the classical oracle.

Rank decisions are only accepted when the singular-value gap across the cut
exceeds ``RankPolicy.min_gap``; otherwise an :class:`AmbiguousRankError` is
raised so callers can move the sample point instead of silently reporting a
rank from a blurred spectrum.  Matrices are max-abs-normalized before the SVD.
One SVD per call: :func:`spectrum` returns the certified rank, the gap, the
image and the kernel together, and ``svd_rank``, ``kernel``, ``image``,
``subspace_sum`` and ``subspace_intersect`` read from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


class AmbiguousRankError(RuntimeError):
    """Singular-value gap too small to certify an integer rank."""

    def __init__(self, rank, gap, min_gap):
        super().__init__(
            f"ambiguous rank: candidate {rank} with gap {gap:.3e} < required {min_gap:.3e}"
        )
        self.rank = rank
        self.gap = gap


class NonFiniteMatrixError(ValueError):
    """A matrix handed to :func:`spectrum` has an inf or NaN entry: the
    computation that built it overflowed, so no rank can be read from it."""


@dataclass(frozen=True)
class RankPolicy:
    rel_threshold: float = 1e-9
    min_gap: float = 1e4

    def __post_init__(self):
        if not 0 < self.rel_threshold < 1:
            raise ValueError("rel_threshold must lie in (0, 1)")
        if not self.min_gap > 1:
            raise ValueError("min_gap must exceed 1")


@dataclass(frozen=True)
class Subspace:
    """A subspace of C^ambient_dim given by orthonormal basis columns."""

    ambient_dim: int
    basis: np.ndarray  # shape (ambient_dim, dim), orthonormal columns
    tol_used: float

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, np.eye(ambient_dim, dtype=complex), 0.0)

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, np.zeros((ambient_dim, 0), dtype=complex), 0.0)


@dataclass(frozen=True)
class Spectrum:
    """One certified SVD of a matrix: the rank at the gap-certified cut, the
    gap across it (inf when nothing is dropped), and orthonormal bases of the
    image and the kernel at that cut."""

    rank: int
    gap: float
    image: Subspace
    kernel: Subspace

    @staticmethod
    def zero(nrows: int, ncols: int) -> "Spectrum":
        return Spectrum(0, math.inf, Subspace.zero(nrows), Subspace.full(ncols))


def _svd(M: np.ndarray, compute_uv: bool = True):
    # the full V only for a wide matrix, where the kernel needs the rows of
    # Vh beyond min(m, n); a tall stack never builds a square U
    return np.linalg.svd(M, full_matrices=M.shape[0] < M.shape[1], compute_uv=compute_uv)


def spectrum(M: np.ndarray, policy: RankPolicy | None = None) -> Spectrum:
    """Rank, gap, image and kernel of M from a single SVD.

    M is max-abs-normalized first.  The rank counts singular values above
    ``policy.rel_threshold`` times the largest; the gap is the ratio of the
    smallest kept to the largest dropped one.  Raises AmbiguousRankError when
    gap < policy.min_gap, and NonFiniteMatrixError when M has an inf or NaN
    entry.
    """
    policy = policy or RankPolicy()
    M = np.asarray(M, dtype=complex)
    scale = np.max(np.abs(M)) if M.size else 0.0
    if not np.isfinite(scale):
        raise NonFiniteMatrixError(
            "matrix has inf or NaN entries: its construction overflowed complex128")
    if scale == 0.0:
        scale = 1.0
    U, s, Vh = _svd(M / scale)
    rank, gap = 0, math.inf
    if s.size and s[0] > 0.0:
        rank = int(np.sum(s > policy.rel_threshold * s[0]))
        if rank < s.size and s[rank] > 0.0:
            gap = float(s[rank - 1] / s[rank])
    if gap < policy.min_gap:
        raise AmbiguousRankError(rank, gap, policy.min_gap)
    tol = policy.rel_threshold
    return Spectrum(rank, gap, Subspace(M.shape[0], U[:, :rank], tol),
                    Subspace(M.shape[1], Vh[rank:].conj().T, tol))


def svd_rank(M: np.ndarray, policy: RankPolicy | None = None) -> tuple[int, float]:
    """Certified (rank, gap) of M; see :func:`spectrum`."""
    spec = spectrum(M, policy)
    return spec.rank, spec.gap


def kernel(M: np.ndarray, policy: RankPolicy | None = None) -> Subspace:
    """Orthonormal basis of the null space at the certified rank cut."""
    return spectrum(M, policy).kernel


def image(M: np.ndarray, policy: RankPolicy | None = None) -> Subspace:
    """Orthonormal basis of the column space at the certified rank cut."""
    return spectrum(M, policy).image


def _check_same_ambient(spaces):
    dims = {S.ambient_dim for S in spaces}
    if len(dims) != 1:
        raise ValueError("subspaces live in different ambient spaces")
    return dims.pop()


def subspace_sum(spaces, policy: RankPolicy | None = None) -> Subspace:
    """Sum of subspaces: concatenate bases and re-orthonormalize at the rank cut."""
    ambient = _check_same_ambient(spaces)
    stacked = np.hstack([S.basis for S in spaces])
    if stacked.shape[1] == 0:
        return Subspace.zero(ambient)
    return spectrum(stacked, policy).image


def subspace_intersect(spaces, policy: RankPolicy | None = None) -> Subspace:
    """Intersection via stacked orthogonal-projector complements.

    v lies in the intersection iff (I - P_i) v = 0 for every member, so the
    intersection is the kernel of the vertically stacked complements.
    """
    ambient = _check_same_ambient(spaces)
    eye = np.eye(ambient, dtype=complex)
    stacked = np.vstack([eye - S.projector() for S in spaces])
    return spectrum(stacked, policy).kernel


def principal_angles(S1: Subspace, S2: Subspace) -> np.ndarray:
    """Principal angles (radians) between two subspaces, ascending."""
    if S1.dim == 0 or S2.dim == 0:
        return np.zeros(0)
    s = _svd(S1.basis.conj().T @ S2.basis, compute_uv=False)
    return np.arccos(np.clip(s, 0.0, 1.0))[::-1][: min(S1.dim, S2.dim)]


def subspace_equal(S1: Subspace, S2: Subspace, tol: float = 1e-6):
    """Equality test: dims match and the largest principal angle is below tol."""
    if S1.ambient_dim != S2.ambient_dim:
        raise ValueError("subspaces live in different ambient spaces")
    if S1.dim != S2.dim:
        return False, math.pi / 2 if (S1.dim or S2.dim) else 0.0
    if S1.dim == 0:
        return True, 0.0
    angles = principal_angles(S1, S2)
    worst = float(np.max(angles))
    return worst < tol, worst


# ---------------------------------------------------------------------------
# Exact integer linear algebra (classical oracle support)
# ---------------------------------------------------------------------------


def exact_rank(rows) -> int:
    """Exact rank of an integer matrix (list of rows) by fraction-free
    Bareiss elimination over arbitrary-precision integers."""
    mat = [[int(x) for x in row] for row in rows]
    if not mat or not mat[0]:
        return 0
    nrows, ncols = len(mat), len(mat[0])
    rank = 0
    prev = 1
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, nrows) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        for r in range(row + 1, nrows):
            for c in range(col + 1, ncols):
                mat[r][c] = (mat[row][col] * mat[r][c] - mat[r][col] * mat[row][c]) // prev
            mat[r][col] = 0
        prev = mat[row][col]
        row += 1
        rank += 1
        if row == nrows:
            break
    return rank


def exact_nullspace(rows, ncols: int):
    """Integer basis (as rows) of {v : M v = 0} for an integer matrix M with
    ``ncols`` columns; with no rows it is the whole of Q^ncols.

    Gaussian elimination over Fractions, denominators cleared afterwards.
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


def exact_row_space_intersection(rows_a, rows_b, ncols: int):
    """Integer row basis of rowspace(A) ∩ rowspace(B).

    Uses annihilators: the intersection is the annihilator of the sum of the
    two annihilators.
    """
    ann_a = exact_nullspace(rows_a, ncols)
    ann_b = exact_nullspace(rows_b, ncols)
    return exact_nullspace(ann_a + ann_b, ncols)
