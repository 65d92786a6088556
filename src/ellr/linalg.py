"""Dense complex linear algebra with tolerance-governed rank decisions,
one subspace-equality rule, and exact integer elimination for the
classical oracle.

Rank decisions are only accepted when the singular-value gap across the cut
exceeds ``RankPolicy.min_gap``; otherwise an :class:`AmbiguousRankError` is
raised so callers can move the sample point instead of silently reporting a
rank from a blurred spectrum.

A matrix may be given as one array or as a stack of blocks: the diagonal
blocks of an operator that is block-diagonal in some grading (the total
grade of a tensor power, see ``tensorops.grade_index``).  A stack is
certified as the block-diagonal matrix it stands for: it is max-abs
normalized as a whole, its blocks are decomposed by one batched
``np.linalg.svd`` call per group of blocks of one shape, and one cut is
shared by every block, relative to the largest singular value of the stack,
with the gap taken between the smallest kept and the largest dropped value
over all blocks.  So a stack's certificate (rank, gap) is the dense one up
to rounding, and a block of pure noise beside a large one is cut as noise.

Every rank is read from singular values alone: :func:`svd_rank` certifies
(rank, gap), :func:`singular_cut` adds the smallest kept value, and
:func:`svd_ranks` certifies a batch of separate block stacks (the pair
blocks of many R-matrices), each on its own, from one SVD.  Only
:func:`image` and :func:`kernel` take U and V, for their orthonormal
blocks; they serve the small pair blocks of an R-matrix.

Subspaces of a tensor power are never compared through bases.  The one
equality rule, :func:`kernel_span_bound`, decides ker M = span B from two
values-only cuts and one product: the dimensions must agree, and
||M B||_F / (s_M s_B), s_M and s_B the smallest kept singular values,
bounds the sine of the largest principal angle from above.  An image
equality im F = X is the rule on F^H and a spanning set of X^perp, and
F^H takes F's cut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    """A matrix whose rank or basis is asked for has an inf or NaN entry:
    the computation that built it overflowed, so no rank can be read from
    it."""


@dataclass(frozen=True)
class RankPolicy:
    rel_threshold: float = 1e-9
    min_gap: float = 1e4

    def __post_init__(self):
        if not 0 < self.rel_threshold < 1:
            raise ValueError("rel_threshold must lie in (0, 1)")
        if not self.min_gap > 1:
            raise ValueError("min_gap must exceed 1")


def require_finite(values) -> None:
    """Raise NonFiniteMatrixError when an entry of ``values`` (matrices,
    or their max-abs entries) is inf or NaN: no rank or residual is read
    from an overflowed construction."""
    if not np.all(np.isfinite(values)):
        raise NonFiniteMatrixError(
            "matrix has inf or NaN entries: its construction overflowed complex128")


def _blocks(M) -> list:
    """The blocks of M: the members of a sequence of matrices or of a 3-D
    stack, else M itself."""
    if isinstance(M, (list, tuple)) and all(np.ndim(B) == 2 for B in M) or np.ndim(M) == 3:
        return [np.asarray(B, dtype=complex) for B in M]
    return [np.asarray(M, dtype=complex)]


def _max_abs(blocks) -> float:
    """The common max-abs entry of the blocks, by which a stack is
    normalized (1.0 when every block is zero or empty).  Raises
    NonFiniteMatrixError on an inf or NaN entry."""
    scales = [float(np.max(np.abs(B))) for B in blocks if B.size]
    require_finite(scales)
    return max(scales, default=0.0) or 1.0


def _svds(blocks, compute_uv: bool = True, scale: float = 1.0) -> list:
    """``np.linalg.svd`` of every block divided by ``scale``, one call per
    group of blocks of one shape, divided in place in the copy np.stack
    makes.  The full V only for a wide block (its kernel needs the rows of
    Vh beyond min(m, n)); a tall block never builds a square U."""
    out = [None] * len(blocks)
    groups = {}
    for i, B in enumerate(blocks):
        groups.setdefault(B.shape, []).append(i)
    for (rows, cols), members in groups.items():
        stack = np.stack([blocks[i] for i in members])
        stack /= scale
        res = np.linalg.svd(stack, full_matrices=rows < cols, compute_uv=compute_uv)
        for j, i in enumerate(members):
            out[i] = tuple(x[j] for x in res) if compute_uv else res[j]
    return out


def _cut(values, policy: RankPolicy) -> tuple[list, float, float]:
    """Ranks per block, the gap of one cut shared by every block, and the
    smallest kept value (0.0 when nothing is kept).

    A block's rank counts its singular values above ``policy.rel_threshold``
    times the largest of the whole stack; the gap is the ratio of the
    smallest kept to the largest dropped value over all blocks.  Raises
    AmbiguousRankError when gap < policy.min_gap."""
    top = max((float(s[0]) for s in values if s.size), default=0.0)
    if top == 0.0:
        return [0] * len(values), math.inf, 0.0
    ranks = [int(np.count_nonzero(s > policy.rel_threshold * top)) for s in values]
    kept = float(min(s[r - 1] for s, r in zip(values, ranks) if r))
    dropped = max((s[r] for s, r in zip(values, ranks) if r < s.size), default=0.0)
    gap = float(kept / dropped) if dropped > 0.0 else math.inf
    if gap < policy.min_gap:
        raise AmbiguousRankError(sum(ranks), gap, policy.min_gap)
    return ranks, gap, kept


def singular_cut(M, policy: RankPolicy | None = None) -> tuple[int, float, float]:
    """Certified (rank, gap, smallest kept singular value) of M, one matrix
    or a block stack, from its singular values alone: the stack at unit
    max-abs, cut by :func:`_cut`.  The smallest kept value is M's own (not
    of M at unit max-abs), and 0.0 at rank 0.  Raises AmbiguousRankError
    when the gap is below ``policy.min_gap``, and NonFiniteMatrixError when
    M has an inf or NaN entry."""
    policy = policy or RankPolicy()
    blocks = _blocks(M)
    scale = _max_abs(blocks)
    ranks, gap, kept = _cut(_svds(blocks, compute_uv=False, scale=scale), policy)
    return sum(ranks), gap, kept * scale


def svd_rank(M, policy: RankPolicy | None = None) -> tuple[int, float]:
    """Certified (rank, gap) of M; see :func:`singular_cut`."""
    return singular_cut(M, policy)[:2]


def svd_ranks(stacks, policy: RankPolicy | None = None) -> list:
    """Certified (rank, gap) of every operator of a (count, blocks, rows,
    cols) batch of block stacks, each normalized by its own max-abs and cut
    by :func:`_cut` over its own blocks, as :func:`svd_rank` certifies it
    alone, from one values-only ``np.linalg.svd``.  Raises
    AmbiguousRankError at the first operator whose gap is below
    ``policy.min_gap``, and NonFiniteMatrixError when an entry is inf or NaN."""
    policy = policy or RankPolicy()
    stacks = np.asarray(stacks, dtype=complex)
    scales = np.max(np.abs(stacks), axis=(1, 2, 3))
    require_finite(scales)
    values = np.linalg.svd(stacks / np.where(scales > 0, scales, 1.0)[:, None, None, None],
                           compute_uv=False)
    cuts = [_cut(list(blocks), policy) for blocks in values]
    return [(sum(ranks), gap) for ranks, gap, _ in cuts]


def _bases(M, policy: RankPolicy | None) -> tuple[list, list]:
    """The (U, s, Vh) of every block of M at unit max-abs and the ranks of
    the certified cut (:func:`_cut`): the one SVD that :func:`image` and
    :func:`kernel` read."""
    blocks = _blocks(M)
    svds = _svds(blocks, scale=_max_abs(blocks))
    ranks, _, _ = _cut([s for _, s, _ in svds], policy or RankPolicy())
    return svds, ranks


def image(M, policy: RankPolicy | None = None) -> tuple:
    """Orthonormal bases of the column space at the certified rank cut, one
    block per block of M."""
    svds, ranks = _bases(M, policy)
    return tuple(U[:, :r] for (U, _, _), r in zip(svds, ranks))


def kernel(M, policy: RankPolicy | None = None) -> tuple:
    """Orthonormal bases of the null space at the certified rank cut, one
    block per block of M."""
    svds, ranks = _bases(M, policy)
    return tuple(Vh[r:].conj().T for (_, _, Vh), r in zip(svds, ranks))


def kernel_span_bound(M, B, policy: RankPolicy | None = None, m_cut=None) -> float:
    """The equality rule ker M = span B: an upper bound on the sine of the
    largest principal angle between the two, or 1.0, the sine of a right
    angle, when their dimensions differ.

    M and B are matrices or block stacks with one block per grade, block g
    of B having block g of M's column count as rows.  The dimensions are
    cols(M) - rank M and rank B at their certified cuts
    (:func:`singular_cut`); when they agree the bound is
    ||M B||_F / (s_M s_B), s_M and s_B the smallest kept singular values,
    at most 1.  For a unit y = B x with x orthogonal to ker B,
    ||x|| <= 1/s_B, and ||M y|| >= s_M sin(y, ker M).  The bound does not
    change when M or B is scaled.  A zero M has the whole space as its
    kernel and a B of rank 0 spans the zero space, so equal dimensions
    there read 0.0.  ``m_cut`` is M's :func:`singular_cut` when the caller
    has it already (M^H takes M's, for its singular values are M's)."""
    Ms, Bs = _blocks(M), _blocks(B)
    if [X.shape[1] for X in Ms] != [Y.shape[0] for Y in Bs]:
        raise ValueError("B needs one block per grade of M, with M's column counts as rows")
    m_rank, _, s_m = m_cut or singular_cut(Ms, policy)
    b_rank, _, s_b = singular_cut(Bs, policy)
    if sum(X.shape[1] for X in Ms) - m_rank != b_rank:
        return 1.0
    if not (m_rank and b_rank):
        return 0.0
    norm = math.sqrt(sum(np.linalg.norm(X @ Y) ** 2 for X, Y in zip(Ms, Bs)))
    return min(1.0, norm / (s_m * s_b))


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
