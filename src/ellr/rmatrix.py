"""Construction of the elliptic R-matrix family R_{n,k,tau}(z) on V ⊗ V,
its half-period limits, symmetry operators, the weight-function operator family, and the
closed-form determinant.

Basis convention: V has basis x_0, ..., x_{n-1}; x_i ⊗ x_j maps to flat
index i*n + j (row-major).  All operators are dense complex matrices.

R-matrices are built in batches: ``r_matrices(params, zs)`` takes the theta
rows of every z in one series call and assembles the whole
(len(zs), n^2, n^2) stack along a leading axis, and ``r_matrix`` is its
one-point case.  Callers pass each statement's distinct arguments in one
call; nothing caches R itself.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import RankPolicy
from .theta import (
    LatticeParams,
    SingularParameterError,
    ThetaContext,
    e_fn,
    nearest_lattice_distance,
    theta_alpha_rows,
    w_fn,
)

DEFAULT_ETA = 0.31 + 1.37j
DEFAULT_TAU_OF_ETA = lambda eta: 0.1234 + 0.4321 * eta  # noqa: E731

TORSION_TOL = 1e-8


class TorsionParameterError(ValueError):
    """tau lies on (1/n)Lambda where the R-matrix formula degenerates."""


@dataclass(frozen=True)
class HalfPeriodPoint:
    """A point zeta = a/n + (b/n) eta of the n-torsion grid."""

    a: int
    b: int

    def value(self, n: int, eta: complex) -> complex:
        return self.a / n + (self.b / n) * eta


@dataclass(frozen=True)
class AlgebraParams:
    """The tuple (n, k, tau, eta) plus the rank policy.

    Requires n >= 2, 1 <= k < n, gcd(n, k) = 1.  k_prime is the inverse of k
    mod n with 1 <= k_prime < n.  Frozen, so the parameter-only parts of
    r_matrix can be cached on the instance; with_tau and with_k build new ones.
    """

    n: int
    k: int
    tau: complex
    theta: ThetaContext
    ranks: RankPolicy = field(default_factory=RankPolicy)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if not 1 <= self.k < self.n:
            raise ValueError("k must satisfy 1 <= k < n")
        if math.gcd(self.n, self.k) != 1:
            raise ValueError("n and k must be coprime")
        if self.theta.n != self.n:
            raise ValueError("theta context built for a different n")

    @property
    def k_prime(self) -> int:
        return pow(self.k, -1, self.n)

    @property
    def eta(self) -> complex:
        return self.theta.eta

    def with_tau(self, tau) -> "AlgebraParams":
        return AlgebraParams(self.n, self.k, tau, self.theta, self.ranks)

    def with_k(self, k) -> "AlgebraParams":
        return AlgebraParams(self.n, k, self.tau, self.theta, self.ranks)

    def tau_is_torsion(self) -> bool:
        """True when tau is within TORSION_TOL of (1/n)Lambda."""
        return nearest_lattice_distance(self.n * self.tau, self.eta) / self.n < TORSION_TOL

    @functools.cached_property
    def _r_denominators(self) -> np.ndarray:
        """[theta_alpha(tau) * prod_{beta>=1} theta_beta(0) for alpha in Z_n], the
        parameter-only denominators of r_matrix.  The first r_matrices call
        on these params fills it from its own series."""
        return self._denominators(theta_alpha_rows([self.tau, 0.0], self.theta))

    def _denominators(self, rows) -> np.ndarray:
        """The denominators from the theta rows at tau and 0, rows[-2:].
        Raises TorsionParameterError (and so caches nothing) when tau is
        torsion."""
        if self.tau_is_torsion():
            raise TorsionParameterError(
                "tau lies on (1/n)Lambda, where the R-matrix formula degenerates"
            )
        th_t, th_0 = rows[-2:]
        return th_t * np.prod(th_0[1:])


def make_params(
    n: int,
    k: int,
    eta: complex = DEFAULT_ETA,
    tau: complex | None = None,
    ranks: RankPolicy | None = None,
) -> AlgebraParams:
    """Convenience constructor with the documented generic defaults."""
    if tau is None:
        tau = DEFAULT_TAU_OF_ETA(eta)
    ctx = ThetaContext(n, LatticeParams(eta))
    return AlgebraParams(n, k, tau, ctx, ranks or RankPolicy())


# ---------------------------------------------------------------------------
# Symmetry operators
# ---------------------------------------------------------------------------


def basis_ops(params: AlgebraParams):
    """The operators S, T, N on V and the swap P on V ⊗ V.

    S x_a = e(a/n) x_a;  T x_a = x_{a+1};  N x_a = x_{-a};  P(u⊗v) = v⊗u.
    They satisfy S T = e(1/n) T S.
    """
    n = params.n
    S = np.diag([e_fn(a / n) for a in range(n)]).astype(complex)
    T = np.zeros((n, n), dtype=complex)
    N = np.zeros((n, n), dtype=complex)
    for a in range(n):
        T[(a + 1) % n, a] = 1.0
        N[(-a) % n, a] = 1.0
    return {"S": S, "T": T, "N": N, "P": _swap(n)}


def _swap(n: int) -> np.ndarray:
    """The flip P(x_i ⊗ x_j) = x_j ⊗ x_i on V ⊗ V."""
    flip = np.eye(n * n, dtype=complex).reshape(n, n, n, n).transpose(1, 0, 2, 3)
    return flip.reshape(n * n, n * n)


def torsion_op(params: AlgebraParams, a: int, b: int) -> np.ndarray:
    """The operator C = T^b S^{k a} attached to zeta = a/n + (b/n) eta."""
    ops = basis_ops(params)
    # matrix_power inverts first for a negative power
    return np.linalg.matrix_power(ops["T"], b) @ np.linalg.matrix_power(ops["S"], params.k * a)


# ---------------------------------------------------------------------------
# The R-matrix
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=32)
def _r_indices(n: int, k: int):
    """Index arrays of r_matrices for one (n, k).

    The summand for (i, j, r) depends on d = j - i and r only, through
    C[d, r] = front[d - r] * theta_{d + r(k-1)}(-z+tau) / den[k r].  Returns
    the three gathers (d - r, d + r(k-1), k r) over the (d, r) grid, and for
    every (i, j, r) its flat position in the n^2 x n^2 matrix and its (d, r)
    entry of C.
    """
    d, r = np.indices((n, n))
    i, j, rr = np.indices((n, n, n)).reshape(3, -1)
    pos = (((j - rr) % n) * n + (i + rr) % n) * n * n + i * n + j  # row-major (row, col)
    out = ((d - r) % n, (d + r * (k - 1)) % n, (k * r) % n, pos, ((j - i) % n) * n + rr)
    for a in out:  # shared by every call: read-only
        a.flags.writeable = False
    return out


def r_matrices(params: AlgebraParams, zs) -> np.ndarray:
    """The (len(zs), n^2, n^2) stack of the matrices of R_tau(z) on V ⊗ V,
    one for every z in zs.

    R(z)(x_i ⊗ x_j) = (prod_alpha theta_alpha(-z) / prod_{alpha>=1} theta_alpha(0))
        * sum_r theta_{j-i+r(k-1)}(-z+tau) / (theta_{j-i-r}(-z) theta_{kr}(tau))
        * x_{j-r} ⊗ x_{i+r}.

    The denominator factor theta_{j-i-r}(-z) also occurs once in the front
    product, so each summand is computed with that factor pair cancelled
    symbolically; this realizes the removable singularities exactly and makes
    the entries finite for every z.  At z = 0 every off-diagonal entry is
    exactly 0, since it carries the factor theta_0(0), an exact zero of the
    series; the diagonal is 1 to rounding (within 5e-16 for n <= 5).

    The theta rows of the whole stack come from one theta_alpha_rows call
    over [-zs, -zs + tau], with the rows at tau and 0 appended on the first
    build on params, which fill its cached denominators (or raise
    TorsionParameterError).  Each row of the stack equals r_matrix at its
    z exactly.  An entry that overflows complex128 is left inf or NaN
    without a warning: every rank and basis of ``linalg`` refuses such a
    matrix (NonFiniteMatrixError).
    """
    n = params.n
    z = np.asarray(zs, dtype=complex).reshape(-1)
    if not z.size:  # nothing to build: no denominators, so no torsion test
        return np.zeros((0, n * n, n * n), dtype=complex)
    fresh = "_r_denominators" not in vars(params)
    front_idx, mzt_idx, den_idx, pos, entry = _r_indices(n, params.k)
    with np.errstate(over="ignore", invalid="ignore"):
        extra = [params.tau, 0.0] if fresh else []
        th = theta_alpha_rows(np.concatenate((-z, -z + params.tau, extra)), params.theta)
        if fresh:
            vars(params)["_r_denominators"] = params._denominators(th)
        den = params._r_denominators
        th_mz, th_mzt = th[:z.size], th[z.size:2 * z.size]
        # front[:, s] = prod_{alpha != s} theta_alpha(-z), from prefix and
        # suffix products: theta_s(-z) may vanish, so it is never divided out
        ones = np.ones((z.size, 1))
        before = np.cumprod(np.concatenate((ones, th_mz[:, :-1]), axis=1), axis=1)
        after = np.cumprod(np.concatenate((ones, th_mz[:, :0:-1]), axis=1), axis=1)[:, ::-1]
        coef = (before * after)[:, front_idx] * th_mzt[:, mzt_idx] / den[den_idx]
    M = np.zeros((z.size, n ** 4), dtype=complex)
    M[:, pos] = coef.reshape(z.size, -1)[:, entry]
    return M.reshape(z.size, n * n, n * n)


def r_matrix(params: AlgebraParams, z) -> np.ndarray:
    """The matrix of R_tau(z) on V ⊗ V: the one-point stack of
    :func:`r_matrices`.  The result is a complex128 array."""
    return r_matrices(params, [z])[0]


def sym_op(m: int, n: int) -> np.ndarray:
    """sym_m(v ⊗ v') = v ⊗ v' - m v' ⊗ v, i.e. the matrix I - m P."""
    return np.eye(n * n, dtype=complex) - m * _swap(n)


def b_fn(params: AlgebraParams, z) -> complex:
    """b(z) = e(-n z + tau + 1/2 - (n+1) eta / 2)."""
    n = params.n
    return e_fn(-n * z + params.tau + 0.5 - (n + 1) * params.eta / 2)


def f_fn(params: AlgebraParams, z, zeta: HalfPeriodPoint) -> complex:
    """The scalar f(z, zeta, tau) in the general torsion-shift law
    R_tau(z + zeta) = f(z, zeta, tau) (I ⊗ T^b S^{ka})^{-1} R_tau(z) (T^b S^{ka} ⊗ I),
    zeta = a/n + (b/n) eta:

    f = e(-b n z) e(b tau + (b + a(n-1))/2 - b(n+b) eta / 2).
    """
    a, b = zeta.a, zeta.b
    n, eta = params.n, params.eta
    return e_fn(-b * n * z) * e_fn(
        b * params.tau + (b + a * (n - 1)) / 2 - b * (n + b) * eta / 2
    )


# ---------------------------------------------------------------------------
# Weight-function operator family
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=32)
def _weight_indices(n: int, step: int):
    """Index arrays of weight_ops for one (n, step mod n).

    With J = I_{(s a, b)}, (J ⊗ J^{-1})(x_i ⊗ x_j) = omega^{(i-j-s a) b}
    x_{i-s a} ⊗ x_{j+s a}.  Returns, for every (a, i, j), its flat position
    in the n^2 x n^2 matrix and the phase index (i - j - s a) mod n, and the
    phase table omega^{m b} indexed (b, m).
    """
    a, i, j = np.indices((n, n, n)).reshape(3, -1)
    sa = step * a
    pos = (((i - sa) % n) * n + (j + sa) % n) * n * n + i * n + j  # row-major (row, col)
    m = np.arange(n)
    out = (pos, a, (i - j - sa) % n, np.exp(2j * np.pi * (np.outer(m, m) % n) / n))
    for arr in out:  # shared by every call: read-only
        arr.flags.writeable = False
    return out


def weight_ops(params: AlgebraParams, zs, step: int = 1) -> np.ndarray:
    """The (len(zs), n^2, n^2) stack of sum_{(a,b) in Z_n^2} w_{(a,b)}(z) J ⊗ J^{-1}
    with J = I_{(step*a, b)}, I_{(a,b)} x_i = omega^{i b} x_{i - a},
    omega = e(1/n), for every z in zs: S(z) at step 1, S_k(z) at step -k'.

    The weights of every z come from one w_fn call, so one theta_char
    series.  Each a places its terms at its own n^2 positions (step is a
    unit mod n), and the sum over b there is (w @ phases)[a, i - j - step*a]:
    one gather and one scatter for the stack.
    """
    n = params.n
    z = np.asarray(zs, dtype=complex).reshape(-1)
    pos, a, m, phases = _weight_indices(n, step % n)
    idx = np.arange(n)
    w = w_fn(idx[:, None], idx, z, params.tau, params.theta)
    total = np.zeros((z.size, n ** 4), dtype=complex)
    total[:, pos] = (w @ phases)[:, a, m]
    return total.reshape(z.size, n * n, n * n)


# ---------------------------------------------------------------------------
# Determinants
# ---------------------------------------------------------------------------


def det_closed_form(params: AlgebraParams, z):
    """Closed form for det R_tau(z):

    (prod_alpha theta_alpha(-z-tau)/theta_alpha(-tau))^{n(n-1)/2}
      * (prod_alpha theta_alpha(-z+tau)/theta_alpha(tau))^{n(n+1)/2}.

    Independent of k; equals 1 at z = 0.  Elementwise over an array z, with
    every theta row, those at -tau and tau once, taken in one series.
    """
    n, tau = params.n, params.tau
    z = np.asarray(z, dtype=complex)
    w = z.ravel()
    rows = theta_alpha_rows(np.concatenate([-w - tau, -w + tau, [-tau, tau]]), params.theta)
    num1, num2, (den1, den2) = rows[:w.size], rows[w.size:-2], rows[-2:]
    p1 = np.prod(num1 / den1, axis=-1)
    p2 = np.prod(num2 / den2, axis=-1)
    # the powers are multiplied one scalar at a time: numpy's complex array
    # product may round differently from the scalar one
    out = np.array([a ** (n * (n - 1) // 2) * b ** (n * (n + 1) // 2)
                    for a, b in zip(p1, p2)]).reshape(z.shape)
    return complex(out) if out.ndim == 0 else out


def transpose_residual(n: int, zs, R, R_dual) -> float:
    """Worst relative residual over zs of R(z)^T = e(-n^2 z) R_dual(-z), the
    transpose taken in the x-basis, for stacks R over zs, R_dual over -zs."""
    residuals = []
    for z, Rz, Rz_dual in zip(zs, R, R_dual):
        lhs, rhs = Rz.T, e_fn(-n * n * z) * Rz_dual
        residuals.append(float(np.linalg.norm(lhs - rhs)
                               / max(np.linalg.norm(lhs), np.linalg.norm(rhs))))
    return max(residuals)
