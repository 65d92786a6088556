"""Operators on tensor powers of the base vector space.

Builds operators on V^{(x)d} (V = C^n, basis x_0..x_{n-1}, row-major
multi-index ordering): permutation operators, (anti)symmetrizers, the four
telescoping chains of R-matrices, the cumulative operators T_d and F_d, the
rectangular two-parameter arrays M_{a,b}; and, grade by grade, their
certified ranks and the embedded copies from which the relation spaces
of the associated quadratic algebra are built.

Chains are indexed by one-based tensorand positions.  For an ascending
chain from position i to position j the arguments are spectral parameters
t_i, ..., t_{j-1}; partial sums are written Sum(p,q) = t_p + ... + t_q.

    ascending        : R(Sum(i,j-1))_{i,i+1} R(Sum(i+1,j-1))_{i+1,i+2} ... R(t_{j-1})_{j-1,j}
    ascending-rev    : R(t_i)_{i,i+1} R(Sum(i,i+1))_{i+1,i+2} ... R(Sum(i,j-1))_{j-1,j}
    descending       : R(Sum(i,j-1))_{j-1,j} ... R(Sum(i,q))_{q,q+1} ... R(t_i)_{i,i+1}
    descending-rev   : R(t_{j-1})_{j-1,j} R(Sum(j-2,j-1))_{j-2,j-1} ... R(Sum(i,j-1))_{i,i+1}

Descending chains take their arguments in display order t_{j-1}, ..., t_i.
All chains degenerate to the identity when they span a single position.

R(z) keeps the pair grade i + j mod n of x_i (x) x_j (the S (x) S half of
the Z_n x Z_n symmetry), so every product of R's keeps the total grade,
the digit sum mod n, and is block-diagonal with n blocks of size n^(d-1).
``grade_index`` lists the indices of each grade: the first d-1 digits of
an index are its position in its block, and the grade fixes the last.

Every multi-site operator is one site product: an ordered list of
two-site factors (matrix, (p, q)), p < q, evaluated by ``site_product``
straight into the (..., n, n^(d-1), n^(d-1)) stack of its grade blocks,
with optional leading batch axes on the factors (a batch of Yang-Baxter
trials at once).  A factor at (p, q) with q < d acts on the
block coordinates, n^(p-1) GEMMs through a view of the rows.  A factor at
(p, d) moves digit p alone: the other digits of a row fix the pair grade s
of (digit p, last digit), and the pair block R^(s)[a, i] =
R[(a, s-a), (i, s-i)] (``pair_blocks``) acts on digit p, one batched n x n
matmul.  The chains, T_d, F_d and both assemblies of M_{a,b} are
(argument, position) lists of R(argument)_{position,position+1} factors,
whose distinct arguments are built in one ``r_matrices`` call
(``factor_mats``; ``f_factors`` and ``m_factors`` give the lists);
``r_product`` forms a list from R's built elsewhere, so a check that
multiplies several lists builds all their R's in one call.
``t_ranks`` certifies a batch of T_d of one degree from one such call,
one site product with the batch on a leading axis and one ``svd_ranks``
call.  The Yang-Baxter checks on V^{(x)3} use (1, 2), (2, 3) and (1, 3).
Each distinct factor is checked once: an entry between two pair grades,
or an inf or NaN entry, is refused.  No n^d x n^d array is formed on these
paths; n^d is still capped at MAX_TENSOR_DIM = 5^5 by one size rule,
``beyond_cap`` (read at call time): every builder past it raises
:class:`BeyondCapError`, whose message is the rule's note, and the checks
refuse that error, or consult the rule per degree.

Chain products can span an enormous dynamic range (individual R factors
reach 1e100 at desk scale), so every chain builder returns a
:class:`ScaledOp`: its grade stack, the only form an operator that keeps
the grade takes, each R factor entered at unit max-abs, and the natural
log of the removed scale, accumulated separately.  Rank questions only
need the stack's singular values, read block by block (``scaled_cut``,
``scaled_rank``) at a cost about n^2 below a dense SVD; products and
identities between chain products run block by block after matching the
log scales (F_a (x) F_b is itself one product, the factors of F_a and then
those of F_b moved by a); and ``.matrix()`` scatters the stack for the few
readers of a plain matrix.

The embedded relation spaces are built grade by grade from the copies
V^{(x)(p-1)} (x) W (x) V^{(x)(d-p-1)} of a subspace W of V^{(x)2} taken
from the n pair blocks of R(+-tau) or of R^H, whose images and kernels
(``linalg.image`` and ``linalg.kernel``, the only orthonormal bases
taken) give W and its complement W^perp; the degree-d relation space is
the sum of the copies of im R(tau).  Each copy is W's orthonormal pair
blocks embedded by the site product, so the only rank decision below the
copies is the one made on R(+-tau).  ``copy_stacks`` writes the copies side
by side grade by grade, each straight into its columns: the spanning sets
that ``linalg.kernel_span_bound`` compares with ker F_d and ker F_d^H, and
from whose certified ranks ``lattice_dims`` reads every dimension of the
lattice the copies generate.  No basis of a sum or an intersection is
formed.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .rmatrix import (
    AlgebraParams,
    r_matrices,
    r_matrix,  # noqa: F401  (bound here for ellrbench's tracer test)
)
from .linalg import (
    RankPolicy,
    image,  # noqa: F401  (bound here for ellrbench's tracer test)
    require_finite,
    singular_cut,
    svd_rank,
    svd_ranks,
)

MAX_TENSOR_DIM = 5 ** 5
T_BATCH_ENTRIES = 2 ** 20  # per batched product stack of t_ranks


class ScaledOp:
    """An operator on V^{(x)d} that keeps the total grade, as exp(log_scale)
    times ``mat``, its (n, n^(d-1), n^(d-1)) grade stack (see
    :func:`grade_index`).  mat is kept at unit max-abs so long products
    never overflow; products and residuals run block by block."""

    __slots__ = ("mat", "log_scale")

    def __init__(self, mat: np.ndarray, log_scale: float = 0.0):
        self.mat = np.asarray(mat, dtype=complex)
        if self.mat.ndim != 3:
            raise ValueError("a ScaledOp holds an (n, n^(d-1), n^(d-1)) grade stack")
        self.log_scale = float(log_scale)

    def __matmul__(self, other: "ScaledOp") -> "ScaledOp":
        # products are not renormalized: a tiny .mat after multiplying
        # unit-scale factors is real cancellation and must stay visible
        return ScaledOp(self.mat @ other.mat, self.log_scale + other.log_scale)

    def matrix(self) -> np.ndarray:
        """mat scattered through :func:`grade_index` into one matrix, every
        entry between two grades zero."""
        n, size = self.mat.shape[:2]
        idx = grade_index(n, round(math.log(size, n)) + 1)
        out = np.zeros((n * size,) * 2, dtype=complex)
        out[idx[:, :, None], idx[:, None, :]] = self.mat
        return out

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.mat))) if self.mat.size else 0.0


def scaled_residual(left: ScaledOp, right: ScaledOp, floor: float = 1.0) -> float:
    """Max-abs residual between two scaled operators on a common scale.

    The operands are brought onto the larger log scale before subtracting,
    so the comparison is meaningful even when exp(log_scale) itself would
    overflow.  The denominator never drops below ``floor`` (factors enter
    chains at unit max-abs, so 1.0 is the natural yardstick): two products
    that each cancel to numerical zero therefore compare as equal instead
    of as noise divided by noise.
    """
    base = max(left.log_scale, right.log_scale)
    lm = left.mat * math.exp(left.log_scale - base)
    rm = right.mat * math.exp(right.log_scale - base)
    denom = max(np.max(np.abs(lm)), np.max(np.abs(rm)), floor)
    return float(np.max(np.abs(lm - rm)) / denom)


class BeyondCapError(ValueError):
    """A tensor power past the dense cap; the message is the
    :func:`beyond_cap` note."""


def beyond_cap(n: int, d: int) -> str | None:
    """The refusal note when n^d exceeds the dense cap MAX_TENSOR_DIM (read
    at call time), else None: the one size rule of every builder."""
    over = n ** d > MAX_TENSOR_DIM
    return f"n^d = {n ** d} exceeds the dense cap {MAX_TENSOR_DIM}" if over else None


def _check_dim(n: int, d: int):
    if d < 0:
        raise ValueError("tensor degree must be non-negative")
    if note := beyond_cap(n, d):
        raise BeyondCapError(note)


def perm_op(sigma, n: int, d: int) -> np.ndarray:
    """Permutation operator: tensorand in slot s moves to slot sigma(s).

    sigma is a permutation of (0..d-1) in one-line notation (slot s -> sigma[s]).
    Acting on basis vectors, the slot-t factor of the output is the input
    factor from the unique slot s with sigma[s] = t.
    """
    _check_dim(n, d)
    sigma = list(sigma)
    if sorted(sigma) != list(range(d)):
        raise ValueError("sigma must be a permutation of 0..d-1")
    dim = n ** d
    # slot t of the output takes the input digit of slot inv(sigma)[t]: permute
    # the identity's row digits by inv(sigma)
    axes = list(np.argsort(sigma)) + [d]
    return np.eye(dim).reshape((n,) * d + (dim,)).transpose(axes).reshape(dim, dim)


def perm_sign(sigma) -> int:
    """Sign of a permutation in one-line notation."""
    sigma = list(sigma)
    inversions = sum(
        1
        for a in range(len(sigma))
        for b in range(a + 1, len(sigma))
        if sigma[a] > sigma[b]
    )
    return -1 if inversions & 1 else 1


def symmetrizer(n: int, d: int) -> np.ndarray:
    """Sum of all d! permutation operators (no 1/d! normalization)."""
    _check_dim(n, d)
    return sum(perm_op(s, n, d) for s in itertools.permutations(range(d)))


def antisymmetrizer(n: int, d: int) -> np.ndarray:
    """Signed sum of all d! permutation operators (no 1/d! normalization)."""
    _check_dim(n, d)
    return sum(perm_sign(s) * perm_op(s, n, d) for s in itertools.permutations(range(d)))


def _chain_factors(d: int, i: int, j: int, ts, descending: bool, reverse: bool) -> list:
    """The ordered (argument, position) factors of a chain from i to j.

    ts is in ascending index order [t_i..t_{j-1}].  Descending chains run
    their positions downwards; the argument at position p is the prefix sum
    Sum(i,p) when descending != reverse and the suffix sum Sum(p,j-1)
    otherwise.
    """
    if not 1 <= i <= j <= d:
        raise ValueError(f"chain endpoints ({i}, {j}) out of range for degree {d}")
    ts = list(ts)
    if len(ts) != j - i:
        raise ValueError(f"chain from {i} to {j} needs {j - i} arguments, got {len(ts)}")
    if descending != reverse:
        sums = list(itertools.accumulate(ts))
    else:
        sums = list(itertools.accumulate(ts[::-1]))[::-1]
    factors = list(zip(sums, range(i, j)))
    return factors[::-1] if descending else factors


def _sites(d: int, sites):
    p, q = sites
    if not 1 <= p < q <= d:
        raise ValueError(f"sites {sites} out of range for degree {d}")
    return p, q


@functools.lru_cache(maxsize=None)
def _pair_grade_table(n: int, d: int, p: int) -> np.ndarray:
    """The (n, n^(p-1), n^(d-1-p)) table of the pair grade s = g - |L| - |R|
    mod n of sites (p, d) in grade g, for the digits L before p and R
    between p and d (|.| the digit sum).  Read-only, built once."""
    table = (np.arange(n)[:, None, None] - _digit_sums(n, p - 1)[:, None]
             - _digit_sums(n, d - 1 - p)) % n
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=None)
def _pair_block_index(n: int) -> np.ndarray:
    """The (n, n, n) flat positions in an n^2 x n^2 matrix of its pair
    blocks.  Read-only, built once per n."""
    idx = grade_index(n, 2)
    flat = idx[:, :, None] * n * n + idx[:, None, :]
    flat.setflags(write=False)
    return flat


def pair_blocks(mats, n: int) -> np.ndarray:
    """The (..., n, n, n) pair-grade blocks R^(s)[a, i] = R[(a, s-a), (i, s-i)]
    of a stack (..., n^2, n^2) of operators on V (x) V that keep the pair
    grade i + j mod n, as R(z) and the weight operators do: the grade
    blocks of :func:`grade_index` at d = 2.

    Raises NonFiniteMatrixError when an entry is inf or NaN, and ValueError
    when an entry between two different pair grades is nonzero: the blocks
    would not hold the whole operator."""
    mats = np.asarray(mats)
    if mats.shape[-2:] != (n * n, n * n):
        raise ValueError(f"a {mats.shape[-2:]} matrix is no operator on V (x) V for n = {n}")
    require_finite(mats)
    blocks = mats.reshape(*mats.shape[:-2], -1)[..., _pair_block_index(n)]
    if np.count_nonzero(blocks) != np.count_nonzero(mats):
        raise ValueError("operator does not keep the pair grade")
    return blocks


@functools.lru_cache(maxsize=None)
def _embed_index(n: int, d: int, sites) -> tuple:
    """The flat positions in the grade stack of the entries of one factor at
    ``sites``, and the flat position in its (n, n, n) pair blocks that each
    one reads.  Read-only, built once."""
    p, q = sites
    size = n ** (d - 1)
    if q < d:
        # row (l, i, m, j, t) of every grade meets column (l, i', m, j', t)
        # with j' = s - i', s = i + j the pair grade
        lead, gap, trail = n ** (p - 1), n ** (q - p - 1), n ** (d - 1 - q)
        g, l, i, m, j, t, i2 = np.ogrid[:n, :lead, :n, :gap, :n, :trail, :n]
        s = (i + j) % n
        row = (((l * n + i) * gap + m) * n + j) * trail + t
        col = (((l * n + i2) * gap + m) * n + (s - i2) % n) * trail + t
        a = i
    else:
        # row (l, a, t) meets column (l, i, t): digit p moves by the pair
        # block of the grade s of (digit p, last digit)
        lead, trail = n ** (p - 1), n ** (d - 1 - p)
        g, l, t, a, i2 = np.ogrid[:n, :lead, :trail, :n, :n]
        s = _pair_grade_table(n, d, p)[..., None, None]
        row, col = (l * n + a) * trail + t, (l * n + i2) * trail + t
    target = (g * size + row) * size + col
    index = (target.ravel(), np.broadcast_to((s * n + a) * n + i2, target.shape).ravel())
    for arr in index:
        arr.setflags(write=False)
    return index


def _embed(n: int, d: int, blocks, sites) -> np.ndarray:
    """The grade stack (..., n, n^(d-1), n^(d-1)) of one two-site factor,
    written from its pair blocks into zeros."""
    target, source = _embed_index(n, d, _sites(d, sites))
    batch, size = blocks.shape[:-3], n ** (d - 1)
    out = np.zeros(batch + (n * size * size,), dtype=complex)
    out[..., target] = blocks.reshape(batch + (-1,))[..., source]
    return out.reshape(batch + (n, size, size))


def _apply(n: int, d: int, mat, blocks, sites, X: np.ndarray) -> np.ndarray:
    """One two-site factor (``blocks`` its pair blocks) times the grade stack
    X (..., n, n^(d-1), cols)."""
    p, q = _sites(d, sites)
    *head, size, cols = X.shape
    if q < d:
        # (l, i, m, j, rest) -> (l, (i, j), (m, rest)): one GEMM per l
        lead, gap, rest = n ** (p - 1), n ** (q - p - 1), n ** (d - 1 - q) * cols
        view = X.reshape(*head, lead, n, gap, n, rest).swapaxes(-2, -3)
        out = np.matmul(np.asarray(mat)[..., None, None, :, :],
                        view.reshape(*head, lead, n * n, gap * rest))
        out = out.reshape(*out.shape[:-2], n, n, gap, rest).swapaxes(-2, -3)
        return out.reshape(*out.shape[:-5], size, cols)
    # (l, a, t) -> (l, t, a): an n x n pair block per (grade, l, t)
    lead, trail = n ** (p - 1), n ** (d - 1 - p)
    view = X.reshape(*head, lead, n, trail, cols).swapaxes(-2, -3)
    out = np.matmul(blocks[..., _pair_grade_table(n, d, p), :, :], view).swapaxes(-2, -3)
    return out.reshape(*out.shape[:-4], size, cols)


def site_product(n: int, d: int, factors) -> np.ndarray:
    """The left-to-right product of two-site operators on V^{(x)d}, as its
    (..., n, n^(d-1), n^(d-1)) grade stack (see :func:`grade_index`).

    ``factors`` is an ordered list of (matrix, (p, q)): a (..., n^2, n^2)
    stack of operators that keep the pair grade, acting on tensorands
    p < q (one-based), first factor on p; leading batch axes broadcast.
    The last factor is embedded directly and each preceding one
    left-multiplies the running stack.  Sites with q < d act on the first
    d-1 digits, the block coordinates, through an (n^(p-1), n^2, rest) view
    of the rows.  Sites (p, d) move digit p alone: with the other digits of
    a row fixed, (digit p, last digit) lies in one pair grade s, and its
    pair block R^(s) (:func:`pair_blocks`) acts on digit p.  No factors
    give the identity.  Every distinct factor is checked once, so a factor
    that mixes pair grades raises ValueError and one with an inf or NaN
    entry NonFiniteMatrixError.
    """
    _check_dim(n, d)
    size = grade_index(n, d).shape[1]
    if not factors:
        return np.broadcast_to(np.eye(size, dtype=complex), (n, size, size)).copy()
    blocks = {id(mat): mat for mat, _ in factors}
    blocks = {key: pair_blocks(mat, n) for key, mat in blocks.items()}
    *rest, (mat, sites) = factors
    out = _embed(n, d, blocks[id(mat)], sites)
    for mat, sites in reversed(rest):
        out = _apply(n, d, mat, blocks[id(mat)], sites, out)
    return out


def factor_mats(params: AlgebraParams, *lists) -> dict:
    """R(arg) for each distinct argument of the (arg, pos) factor
    ``lists``, keyed by argument, all of them from one :func:`r_matrices`
    call."""
    args = list(dict.fromkeys(arg for factors in lists for arg, _ in factors))
    return dict(zip(args, r_matrices(params, args)))


def _unit(mat: np.ndarray) -> tuple[np.ndarray, float]:
    """An R at unit max-abs and the log of the scale removed; a zero or
    non-finite R is left as it is (log scale 0), for the product to treat
    as the zero operator or for :func:`pair_blocks` to refuse."""
    scale = float(np.max(np.abs(mat)))
    return (mat / scale, math.log(scale)) if 0.0 < scale < math.inf else (mat, 0.0)


def r_product(n: int, d: int, factors, mats: dict) -> ScaledOp:
    """The left-to-right product of R(arg)_{pos,pos+1} over (arg, pos)
    ``factors``, R(arg) given as ``mats[arg]``: one :func:`site_product` of
    the factors at unit max-abs (:func:`_unit`, once per distinct argument),
    with their log scales summed."""
    unit = {arg: _unit(mats[arg]) for arg in dict.fromkeys(arg for arg, _ in factors)}
    return ScaledOp(site_product(n, d, [(unit[arg][0], (pos, pos + 1)) for arg, pos in factors]),
                    sum(unit[arg][1] for arg, _ in factors))


def _t_factors(d: int, zs, shift: int = 0) -> list:
    """The (argument, position) factors of T_d(zs), positions moved by
    ``shift``: over m = 2..d, the descending chain from position m down to 1
    with display arguments (z_1, ..., z_{m-1})."""
    zs = list(zs)
    if len(zs) != max(d - 1, 0):
        raise ValueError(f"T_{d} needs {max(d - 1, 0)} arguments, got {len(zs)}")
    return [(arg, pos + shift) for m in range(2, d + 1)
            for arg, pos in _chain_factors(d, 1, m, zs[: m - 1][::-1], True, False)]


def t_op(params: AlgebraParams, d: int, zs) -> ScaledOp:
    """Cumulative chain product T_d(z_1, ..., z_{d-1}), formed as one running
    product (see :func:`_t_factors`).  T_0 and T_1 are the identity."""
    factors = _t_factors(d, zs)
    return r_product(params.n, d, factors, factor_mats(params, factors))


def f_factors(d: int, z, shift: int = 0) -> list:
    """The (argument, position) factors of F_d(z), positions moved by
    ``shift``; for :func:`r_product` over R's built elsewhere."""
    return _t_factors(d, [z] * max(d - 1, 0), shift)


def m_factors(a: int, b: int, z, xs=None, ys=None) -> tuple[list, list]:
    """The (argument, position) factors of both assemblies of the
    rectangular a-by-b array product M_{a,b}(z; x_1..x_{a-1}; y_1..y_{b-1}).

    Entry (row, col) of the array (rows top to bottom, columns left to
    right) is R(z + x_1+..+x_row + y_1+..+y_col) acting at positions
    (a - row + col, a - row + col + 1).  M is the product of the rows top to
    bottom, each left to right (the first list), and equally of the columns
    left to right, each top to bottom (the second).  Both are empty when
    a = 0 or b = 0, where M is the identity; omitted increments default to
    z (the one-argument shorthand M_{a,b}(z))."""
    d = a + b
    xs = list(xs) if xs is not None else [z] * max(a - 1, 0)
    ys = list(ys) if ys is not None else [z] * max(b - 1, 0)
    if len(xs) != max(a - 1, 0) or len(ys) != max(b - 1, 0):
        raise ValueError("M_{a,b} needs a-1 row increments and b-1 column increments")
    if a == 0 or b == 0:
        return [], []
    # row idx is the reversed ascending chain from a-idx to a+b-idx, column
    # idx the reversed descending chain from a+1+idx to 1+idx
    rows = [factor for idx in range(a)
            for factor in _chain_factors(d, a - idx, a + b - idx,
                                         [z + sum(xs[:idx])] + ys, False, True)]
    columns = [factor for idx in range(b)
               for factor in _chain_factors(d, 1 + idx, a + 1 + idx,
                                            ([z + sum(ys[:idx])] + xs)[::-1], True, True)]
    return rows, columns


ZERO_OPERATOR_TOL = 1e-10


def _digit_sums(n: int, k: int) -> np.ndarray:
    """The base-n digit sums of 0 .. n^k - 1 (k digits, most significant first)."""
    sums = np.zeros(1, dtype=int)
    for _ in range(k):
        sums = (sums[:, None] + np.arange(n)).ravel()
    return sums


@functools.lru_cache(maxsize=None)
def grade_index(n: int, d: int) -> np.ndarray:
    """The (n, n^(d-1)) table whose row g holds, ascending, the flat indices
    of V^{(x)d} whose digit sum (total grade) is g mod n.

    The first d-1 digits q of an index fix its last digit in each grade, so
    entry (g, q) is q*n + (g - digit sum of q) mod n, and the index f sits at
    position f // n of its row.  Read-only, built once per (n, d).
    """
    if d < 1:
        raise ValueError("grades need degree at least 1")
    prefix = np.arange(n ** (d - 1))
    idx = prefix * n + (np.arange(n)[:, None] - _digit_sums(n, d - 1)) % n
    idx.setflags(write=False)
    return idx


def scaled_cut(op: ScaledOp, policy: RankPolicy | None = None) -> tuple[int, float, float]:
    """Certified (rank, gap, smallest kept singular value) of a scaled chain
    product from the singular values of its grade blocks
    (:func:`linalg.singular_cut` of ``op.mat``).

    Factors enter chains at unit max-abs, so a product whose matrix part
    has cancelled below ``ZERO_OPERATOR_TOL`` is the zero operator, rank 0;
    an SVD of such pure cancellation noise would otherwise report a
    meaningless rank.
    """
    if op.max_abs() < ZERO_OPERATOR_TOL:
        return 0, math.inf, 0.0
    return singular_cut(op.mat, policy)


def scaled_rank(op: ScaledOp, policy: RankPolicy | None = None):
    """Certified (rank, gap) of a scaled chain product; see
    :func:`scaled_cut`."""
    return scaled_cut(op, policy)[:2]


def t_ranks(params: AlgebraParams, d: int, zss, policy: RankPolicy | None = None) -> list:
    """Certified (rank, gap) of T_d at each argument list of ``zss``, as
    :func:`scaled_rank` of :func:`t_op` certifies each alone.

    Every T_d has the factor positions of :func:`_t_factors`, so the lists
    run as one batch: their distinct arguments in one :func:`r_matrices`
    call, each R at unit max-abs (:func:`_unit`), one
    :func:`site_product` with the lists on a leading batch axis, a product
    below ZERO_OPERATOR_TOL the zero operator, and one :func:`svd_ranks`
    over the others.  The batch runs in slices of at most T_BATCH_ENTRIES
    product entries, which bounds its memory (13 lists a slice at n^d = 5^4)."""
    n, lists = params.n, [_t_factors(d, zs) for zs in zss]
    mats = factor_mats(params, *lists)
    unit = {arg: _unit(mat)[0] for arg, mat in mats.items()}
    step = max(1, T_BATCH_ENTRIES // n ** (2 * d - 1))
    out = []
    for start in range(0, len(lists), step):
        batch = lists[start:start + step]
        stack = site_product(n, d, [(np.stack([unit[factors[i][0]] for factors in batch]),
                                     (pos, pos + 1)) for i, (_, pos) in enumerate(batch[0])])
        live = np.max(np.abs(stack), axis=(-3, -2, -1)) >= ZERO_OPERATOR_TOL
        certified = iter(svd_ranks(stack[live], policy) if live.any() else [])
        out += [next(certified) if alive else (0, math.inf) for alive in live]
    return out


def copy_stacks(pair, n: int, d: int) -> tuple[list, np.ndarray]:
    """The d-1 copies V^{(x)(p-1)} (x) W (x) V^{(x)(d-p-1)}, p = 1..d-1, of
    a subspace W of V^{(x)2} side by side, grade by grade: per grade the
    copies' orthonormal columns in one matrix, and the (d, n) table of
    column starts, row p-1 where copy p starts in each grade and row d-1
    the widths.

    ``pair`` is the tuple of W's n pair-grade blocks, as :func:`image` or
    :func:`kernel` of the pair blocks of an R-matrix gives it.  Padded with
    zero columns to (n, n, n), they are the pair blocks of an operator on
    V^{(x)2} whose image is W, and copy p is the image of its site-product
    embedding at (p, p+1): the columns whose digit p, i, is below the width
    of W's block in the pair grade s of digits (p, p+1), for the others
    hold only padding.  So every width is known before anything is built,
    and each copy's kept columns are written straight into the stacks.
    Each copy is exactly orthonormal, so no SVD and no n^d basis is needed.
    """
    _check_dim(n, d)
    if d < 2:
        raise ValueError("embedded copies need degree at least 2")
    if [B.shape[0] for B in pair] != [n] * n:
        raise ValueError("the pair subspace must be given by its n pair-grade blocks")
    widths = np.array([B.shape[1] for B in pair])
    padded = np.zeros((n, n, n), dtype=complex)
    for s, B in enumerate(pair):
        padded[s, :, :B.shape[1]] = B
    idx = grade_index(n, d)
    digits = [idx // n ** (d - p) % n for p in range(1, d + 1)]  # digit p of each index
    keeps = [digits[p - 1] < widths[(digits[p - 1] + digits[p]) % n] for p in range(1, d)]
    starts = np.cumsum([[0] * n] + [keep.sum(axis=1) for keep in keeps], axis=0)
    out = [np.empty((idx.shape[1], width), dtype=complex) for width in starts[-1]]
    for p, keep in enumerate(keeps, start=1):
        for g, B in enumerate(_embed(n, d, padded, (p, p + 1))):
            out[g][:, starts[p - 1, g]:starts[p, g]] = B[:, keep[g]]
    return out, starts


def lattice_dims(pair, complement, n: int, d: int,
                 policy: RankPolicy | None = None) -> tuple[list, list]:
    """Dimensions of the lattice that the copies W_1..W_{d-1} of W = ``pair``
    (:func:`copy_stacks`) generate in V^{(x)d}, from certified ranks of
    grade stacks; ``complement`` is W^perp, both the tuples of their pair
    blocks.

    With B_ell the copies 1..ell of W and A_r the last r of W^perp side by
    side, Sig_ell = W_1 + ... + W_ell has dim rank B_ell, Cap_r =
    W_{d-r} ^ ... ^ W_{d-1} has dim n^d - rank A_r, and dim(Sig_ell ^ Cap_r)
    = dim Sig_ell - rank(A_r^H B_ell).  Returns the corners
    dim(Sig_ell ^ Cap_{d-1-ell}), ell = 0..d-1 (Sig_0 = Cap_0 the whole
    space), and for ell = 1..d-2 the dims (lhs, rhs) of the modular triple
    Sig_{ell-1} + Cap_{r+1} = Sig_ell ^ (Sig_{ell-1} + Cap_r), r = d-1-ell,
    with Sig_0 the zero space: by dim(X + Y) = dim X + dim Y - dim(X ^ Y),
    the right side being Sig_{ell-1} + (Sig_ell ^ Cap_r)."""
    (B, b_cols), (A, a_cols) = copy_stacks(pair, n, d), copy_stacks(complement, n, d)
    sig_sides = [[X[:, :end] for X, end in zip(B, b_cols[ell])] for ell in range(d)]
    cap_perps = [[X[:, start:] for X, start in zip(A, a_cols[d - 1 - r])] for r in range(d)]
    sig = [0] + [svd_rank(side, policy)[0] for side in sig_sides[1:]]
    cap = [n ** d] + [n ** d - svd_rank(side, policy)[0] for side in cap_perps[1:]]
    meets = {}

    def meet(ell, r):
        """dim(Sig_ell ^ Cap_r), with Sig_0 the zero space; each rank once."""
        if ell and r and (ell, r) not in meets:
            meets[ell, r] = sig[ell] - svd_rank(
                [a.conj().T @ b for a, b in zip(cap_perps[r], sig_sides[ell])], policy)[0]
        return meets.get((ell, r), sig[ell])

    corners = [cap[d - 1]] + [meet(ell, d - 1 - ell) for ell in range(1, d)]
    triples = [(sig[ell - 1] + cap[d - ell] - meet(ell - 1, d - ell),
                sig[ell - 1] + meet(ell, d - 1 - ell) - meet(ell - 1, d - 1 - ell))
               for ell in range(1, d - 1)]
    return corners, triples
