"""Operators on tensor powers of the base vector space.

Builds dense matrices on V^{(x)d} (V = C^n, basis x_0..x_{n-1}, row-major
multi-index ordering): permutation operators, (anti)symmetrizers, the four
telescoping chains of R-matrices, the cumulative operators T_d and F_d, the
rectangular two-parameter arrays M_{a,b}; and, grade by grade, their
certified spectra and the embedded copies from which the relation spaces
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

Every multi-site operator is one site product: an ordered list of
two-site factors (matrix, (p, q)), p < q, evaluated by ``site_product``.
It writes the last factor's embedding directly (no kron, no identity
multiplied) and left-multiplies the preceding factors, each through an
(n^(p-1), n^2, rest) view of the rows, so a factor costs n^(p-1) large
GEMMs.  A non-adjacent site such as (1, 3) swaps the axes between p and q
around the contraction.  The chains, T_d, F_d and both assemblies of
M_{a,b} are (argument, position) lists of R(argument)_{position,position+1}
factors, whose distinct arguments are built in one ``r_matrices`` call; the
Yang-Baxter checks on V^{(x)3} use (1, 2), (2, 3) and (1, 3).
No n^d x n^d embedding is formed on these paths.  The products themselves
are dense, and n^d is capped at MAX_TENSOR_DIM = 5^5 (read at call time).

Chain products can span an enormous dynamic range (individual R factors
reach 1e100 at desk scale), so every chain builder returns a
:class:`ScaledOp`: each R factor enters at unit max-abs and the natural log
of the removed scale is accumulated separately.  Rank/kernel/image
questions only need the matrix part, identities between chain products
compare matrix parts after matching the log scales, and ``.dense()`` gives
the plain matrix.

R(z) keeps the pair grade i + j mod n of x_i (x) x_j (the S (x) S half of
the Z_n x Z_n symmetry), so every chain product keeps the total grade, the
digit sum mod n, and is block-diagonal with n blocks of size n^(d-1):
``grade_index`` lists the indices of each grade, and ``grade_blocks``
gathers the blocks.  Ranks, images and kernels are certified from the
blocks (``scaled_spectrum``, ``scaled_rank``), at a cost about n^2 below a
dense SVD, and are given grade by grade.

The embedded relation spaces are sums and intersections (formed with
``linalg.subspace_sum`` / ``subspace_intersect``, grade by grade) of the
copies V^{(x)(p-1)} (x) W (x) V^{(x)(d-p-1)} of a subspace W of V^{(x)2}
(the image or the kernel of R(+-tau), from its n pair-grade blocks); the
degree-d relation space is the sum of the copies of im R(tau).  Each copy
is scattered into its grades from the orthonormal pair blocks, so the only
rank decision below the sum or intersection is the one made on R(+-tau)
itself.
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
    NonFiniteMatrixError,
    RankPolicy,
    Spectrum,
    Subspace,
    image,  # noqa: F401  (bound here for ellrbench's tracer test)
    singular_rank,
    spectrum,
)

MAX_TENSOR_DIM = 5 ** 5


class ScaledOp:
    """A matrix together with the natural log of a removed positive scale.

    Represents exp(log_scale) * mat; mat is kept at unit max-abs so long
    products never overflow.
    """

    __slots__ = ("mat", "log_scale")

    def __init__(self, mat: np.ndarray, log_scale: float = 0.0):
        self.mat = np.asarray(mat, dtype=complex)
        self.log_scale = float(log_scale)

    @staticmethod
    def wrap(mat: np.ndarray) -> "ScaledOp":
        mat = np.asarray(mat, dtype=complex)
        s = float(np.max(np.abs(mat))) if mat.size else 0.0
        if s == 0.0 or not math.isfinite(s):
            return ScaledOp(mat, 0.0)
        return ScaledOp(mat / s, math.log(s))

    def __matmul__(self, other: "ScaledOp") -> "ScaledOp":
        # products are not renormalized: a tiny .mat after multiplying
        # unit-scale factors is real cancellation and must stay visible
        return ScaledOp(self.mat @ other.mat, self.log_scale + other.log_scale)

    def kron(self, other: "ScaledOp") -> "ScaledOp":
        return ScaledOp(np.kron(self.mat, other.mat), self.log_scale + other.log_scale)

    def dense(self) -> np.ndarray:
        return math.exp(self.log_scale) * self.mat

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


def _check_dim(n: int, d: int):
    if d < 0:
        raise ValueError("tensor degree must be non-negative")
    if n ** d > MAX_TENSOR_DIM:
        raise ValueError(
            f"tensor space dimension n^d = {n**d} exceeds the dense cap {MAX_TENSOR_DIM}"
        )


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


def _site_shape(n: int, d: int, sites, cols: int):
    """Row axes (n^(p-1), n, n^(q-p-1), n, n^(d-q) * cols) of an n^d-row array."""
    p, q = sites
    if not 1 <= p < q <= d:
        raise ValueError(f"sites {sites} out of range for degree {d}")
    return n ** (p - 1), n, n ** (q - p - 1), n, n ** (d - q) * cols


def site_product(n: int, d: int, factors) -> np.ndarray:
    """The left-to-right product of two-site operators on V^{(x)d}.

    ``factors`` is an ordered list of (matrix, (p, q)): an n^2 x n^2 matrix
    acting on tensorands p < q (one-based), its first factor on p.  The last
    factor is embedded directly; each preceding one left-multiplies the
    running product through an (n^(p-1), n^2, rest) view of its rows, with
    the axes between p and q swapped out of the way, so no n^d x n^d
    embedding is formed.  No factors give the identity.
    """
    _check_dim(n, d)
    dim = n ** d
    if not factors:
        return np.eye(dim, dtype=complex)
    *rest, (mat, sites) = factors
    lead, _, gap, _, trail = _site_shape(n, d, sites, 1)
    # out[(l, i, g, j, t), (l, i', g, j', t)] = mat[(i, j), (i', j')]
    out = np.zeros((lead, n, gap, n, trail) * 2, dtype=complex)
    l, g, t = (np.arange(lead)[:, None, None], np.arange(gap)[:, None],
               np.arange(trail))
    out[l, :, g, :, t, l, :, g, :, t] = np.reshape(mat, (n,) * 4)
    out = out.reshape(dim, dim)
    for mat, sites in reversed(rest):
        lead, _, gap, _, trail = shape = _site_shape(n, d, sites, dim)
        view = out.reshape(shape).transpose(0, 1, 3, 2, 4).reshape(lead, n * n, gap * trail)
        out = np.matmul(mat, view).reshape(lead, n, n, gap, trail).transpose(0, 1, 3, 2, 4)
        out = out.reshape(dim, dim)
    return out


def _product(params: AlgebraParams, d: int, factors) -> ScaledOp:
    """The left-to-right product of R(arg)_{pos,pos+1} over (arg, pos)
    ``factors``: one :func:`site_product` of the factors at unit max-abs,
    with their log scales summed.  Each distinct argument is built once, all
    of them in one :func:`r_matrices` call, and wrapped once."""
    args = list(dict.fromkeys(arg for arg, _ in factors))
    scaled = dict(zip(args, map(ScaledOp.wrap, r_matrices(params, args))))
    return ScaledOp(site_product(params.n, d, [(scaled[arg].mat, (pos, pos + 1))
                                               for arg, pos in factors]),
                    sum(scaled[arg].log_scale for arg, _ in factors))


def chain_asc(params: AlgebraParams, d: int, i: int, j: int, ts) -> ScaledOp:
    """Ascending chain from position i to j with arguments ts = [t_i..t_{j-1}]."""
    return _product(params, d, _chain_factors(d, i, j, ts, False, False))


def chain_asc_rev(params: AlgebraParams, d: int, i: int, j: int, ts) -> ScaledOp:
    """Reversed ascending chain from i to j with ts = [t_i..t_{j-1}]."""
    return _product(params, d, _chain_factors(d, i, j, ts, False, True))


def chain_desc(params: AlgebraParams, d: int, j: int, i: int, ts) -> ScaledOp:
    """Descending chain from position j down to i, ts in display order [t_{j-1}..t_i]."""
    return _product(params, d, _chain_factors(d, i, j, list(ts)[::-1], True, False))


def chain_desc_rev(params: AlgebraParams, d: int, j: int, i: int, ts) -> ScaledOp:
    """Reversed descending chain from j down to i, ts in display order [t_{j-1}..t_i]."""
    return _product(params, d, _chain_factors(d, i, j, list(ts)[::-1], True, True))


def t_op(params: AlgebraParams, d: int, zs) -> ScaledOp:
    """Cumulative chain product T_d(z_1, ..., z_{d-1}).

    T_d is the left-to-right product over m = 2..d of the descending chain
    from position m down to 1 with display arguments (z_1, ..., z_{m-1}),
    formed as one running product.  T_0 and T_1 are the identity.
    """
    zs = list(zs)
    if len(zs) != max(d - 1, 0):
        raise ValueError(f"T_{d} needs {max(d - 1, 0)} arguments, got {len(zs)}")
    return _product(params, d, [
        factor for m in range(2, d + 1)
        for factor in _chain_factors(d, 1, m, zs[: m - 1][::-1], True, False)
    ])


def f_op(params: AlgebraParams, d: int, z) -> ScaledOp:
    """F_d(z) = T_d(z, ..., z)."""
    return t_op(params, d, [z] * max(d - 1, 0))


def m_op(params: AlgebraParams, a: int, b: int, z, xs=None, ys=None,
         validate: bool = False) -> ScaledOp:
    """Rectangular a-by-b array product M_{a,b}(z; x_1..x_{a-1}; y_1..y_{b-1}).

    Entry (row, col) of the array (rows top to bottom, columns left to
    right) is R(z + x_1+..+x_row + y_1+..+y_col) acting at positions
    (a - row + col, a - row + col + 1); the operator is the product of the
    rows top to bottom, each row multiplied left to right.  The same value
    arises as the product of the columns left to right, each column
    multiplied top to bottom; ``validate=True`` checks the two assemblies
    agree.  M with a = 0 or b = 0 is the identity on V^{(x)(a+b)}.

    When xs/ys are omitted every increment defaults to z itself (the
    one-argument shorthand M_{a,b}(z)).
    """
    d = a + b
    xs = list(xs) if xs is not None else [z] * max(a - 1, 0)
    ys = list(ys) if ys is not None else [z] * max(b - 1, 0)
    if len(xs) != max(a - 1, 0) or len(ys) != max(b - 1, 0):
        raise ValueError("M_{a,b} needs a-1 row increments and b-1 column increments")
    if a == 0 or b == 0:
        return _product(params, d, [])
    # row idx is the reversed ascending chain from a-idx to a+b-idx
    out = _product(params, d, [
        factor for idx in range(a)
        for factor in _chain_factors(d, a - idx, a + b - idx,
                                     [z + sum(xs[:idx])] + ys, False, True)
    ])
    if validate:
        # column idx is the reversed descending chain a+1+idx -> 1+idx
        alt = _product(params, d, [
            factor for idx in range(b)
            for factor in _chain_factors(d, 1 + idx, a + 1 + idx,
                                         ([z + sum(ys[:idx])] + xs)[::-1], True, True)
        ])
        if scaled_residual(out, alt) > 1e-8:
            raise AssertionError("row-wise and column-wise assemblies of M_{a,b} disagree")
    return out


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


def grade_blocks(mat: np.ndarray, n: int) -> np.ndarray:
    """The (n, n^(d-1), n^(d-1)) stack of grade blocks of an operator on
    V^{(x)d} that keeps the total grade, as every R-matrix product does.

    Raises ValueError when an entry between two different grades is nonzero
    (NonFiniteMatrixError when it is inf or NaN): the blocks would not hold
    the whole operator."""
    mat = np.asarray(mat)
    d = round(math.log(mat.shape[0], n))
    if mat.shape != (n ** d, n ** d):
        raise ValueError(f"a {mat.shape} matrix is no operator on a tensor power of C^{n}")
    idx = grade_index(n, d)
    blocks = mat[idx[:, :, None], idx[:, None, :]]
    if np.count_nonzero(blocks) != np.count_nonzero(mat):
        if not np.all(np.isfinite(mat)):
            raise NonFiniteMatrixError(
                "matrix has inf or NaN entries: its construction overflowed complex128")
        raise ValueError("operator does not keep the total grade")
    return blocks


def scaled_spectrum(op: ScaledOp, n: int, policy: RankPolicy | None = None) -> Spectrum:
    """Certified spectrum (rank, gap, image, kernel) of a scaled chain product
    on V^{(x)d}, from its n grade blocks: the image and kernel are given
    grade by grade (see :func:`grade_index`).

    Factors enter chains at unit max-abs, so a product whose matrix part
    has cancelled below ``ZERO_OPERATOR_TOL`` is the zero operator; an SVD
    of such pure cancellation noise would otherwise report a meaningless
    rank.
    """
    if op.max_abs() < ZERO_OPERATOR_TOL:
        return Spectrum.zero(*op.mat.shape, grades=n)
    return spectrum(grade_blocks(op.mat, n), policy)


def scaled_rank(op: ScaledOp, n: int, policy: RankPolicy | None = None):
    """Certified (rank, gap) of a scaled chain product from the singular
    values of its grade blocks; see :func:`scaled_spectrum`."""
    if op.max_abs() < ZERO_OPERATOR_TOL:
        return 0, math.inf
    return singular_rank(grade_blocks(op.mat, n), policy)


def embedded_copies(pair: Subspace, n: int, d: int) -> list:
    """The d-1 copies V^{(x)(p-1)} (x) W (x) V^{(x)(d-p-1)}, p = 1..d-1, of a
    subspace W = ``pair`` of V^{(x)2}, grade by grade.

    ``pair`` is given by its n pair-grade blocks, as the spectrum of the
    grade blocks of an R-matrix gives it; at d = 2 it is its own copy.  The
    grade-g block of copy p has a column e_L (x) w (x) e_R for every prefix
    L of p-1 digits, suffix R of d-p-1 digits and column w of the pair
    block of grade g - |L| - |R| mod n, with |.| the digit sum; its n
    entries sit at the positions f // n of their flat indices f.  Each
    block is exactly orthonormal, so no SVD and no n^d basis is needed.
    """
    _check_dim(n, d)
    if d < 2:
        raise ValueError("embedded copies need degree at least 2")
    if [B.shape[0] for B in pair.blocks] != [n] * n:
        raise ValueError("the pair subspace must be given by its n pair-grade blocks")
    if d == 2:
        return [pair]
    W = np.hstack(pair.blocks)
    # column c of W lies in pair grade s[c], on the pair indices support[c]
    s = np.repeat(np.arange(n), [B.shape[1] for B in pair.blocks])
    support = grade_index(n, 2)[s]
    copies = []
    for p in range(1, d):
        lead, trail = n ** (p - 1), n ** (d - p - 1)
        # one column per (L, c, R): its grade, and the positions of its entries
        grade = (_digit_sums(n, p - 1)[:, None, None] + s[:, None]
                 + _digit_sums(n, d - p - 1)) % n
        rows = ((np.arange(lead)[:, None, None, None] * n * n + support[:, None, :]) * trail
                + np.arange(trail)[:, None]) // n
        # the d-2 digits of (L, R) give every grade n^(d-3) columns per column of W
        order = np.argsort(grade, axis=None, kind="stable").reshape(n, -1)
        blocks = np.zeros((n, n ** (d - 1), order.shape[1]), dtype=complex)
        values = np.broadcast_to(W.T[:, None, :], rows.shape).reshape(-1, n)
        blocks[np.arange(n)[:, None, None], rows.reshape(-1, n)[order],
               np.arange(order.shape[1])[:, None]] = values[order]
        copies.append(Subspace(tuple(blocks), pair.tol_used))
    return copies
