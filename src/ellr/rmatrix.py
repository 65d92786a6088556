"""Construction of the elliptic R-matrix family R_{n,k,tau}(z) on V ⊗ V,
its half-period limits, symmetry operators, the weight-function operator family, and the
closed-form determinant.

Basis convention: V has basis x_0, ..., x_{n-1}; x_i ⊗ x_j maps to flat
index i*n + j (row-major).  All operators are dense complex matrices.
"""

from __future__ import annotations

import cmath
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
        parameter-only denominators of r_matrix.  Raises TorsionParameterError
        (and so caches nothing) when tau is torsion."""
        if self.tau_is_torsion():
            raise TorsionParameterError(
                "tau lies on (1/n)Lambda; use r_plus_limit for the limiting operators"
            )
        th_t, th_0 = theta_alpha_rows([self.tau, 0.0], self.theta)
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
    """Index arrays of r_matrix for one (n, k).

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


def r_matrix(params: AlgebraParams, z) -> np.ndarray:
    """The matrix of R_tau(z) on V ⊗ V.

    R(z)(x_i ⊗ x_j) = (prod_alpha theta_alpha(-z) / prod_{alpha>=1} theta_alpha(0))
        * sum_r theta_{j-i+r(k-1)}(-z+tau) / (theta_{j-i-r}(-z) theta_{kr}(tau))
        * x_{j-r} ⊗ x_{i+r}.

    The denominator factor theta_{j-i-r}(-z) also occurs once in the front
    product, so each summand is computed with that factor pair cancelled
    symbolically; this realizes the removable singularities exactly and makes
    the entries finite for every z.  R(0) = I ⊗ I exactly.

    The two z-dependent theta rows come from one theta_alpha_rows call; the
    rows at tau and 0 are cached on params.  The result is a complex128 array.
    """
    n = params.n
    den = params._r_denominators
    front_idx, mzt_idx, den_idx, pos, entry = _r_indices(n, params.k)
    th_mz, th_mzt = theta_alpha_rows([-z, -z + params.tau], params.theta)
    # front[s] = prod_{alpha != s} theta_alpha(-z), from prefix and suffix
    # products: theta_s(-z) may vanish, so it is never divided out
    before = np.cumprod(np.concatenate(([1.0], th_mz[:-1])))
    after = np.cumprod(np.concatenate(([1.0], th_mz[:0:-1])))[::-1]
    coef = (before * after)[front_idx] * th_mzt[mzt_idx] / den[den_idx]
    M = np.zeros(n ** 4, dtype=complex)
    M[pos] = coef.ravel()[entry]
    return M.reshape(n * n, n * n)


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


def r_plus_limit(params: AlgebraParams, zeta: HalfPeriodPoint, sign: int) -> np.ndarray:
    """The limit operators R_±(zeta) = lim_{tau→0} R_tau(±tau + zeta).

    Computed exactly via the conjugation formula
    R_±(zeta) = f(0, zeta, 0) (I ⊗ C^{-1}) sym_{±1} (C ⊗ I),  C = T^b S^{ka},
    never by epsilon-extrapolation.  R_+(0) = sym_1 and R_-(0) = sym_{-1}.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    n = params.n
    a, b = zeta.a, zeta.b
    eta = params.eta
    f0 = e_fn((b + a * (n - 1)) / 2 - b * (n + b) * eta / 2)  # f(0, zeta, 0)
    C = torsion_op(params, a, b)
    Cinv = np.linalg.inv(C)
    eye = np.eye(n, dtype=complex)
    return f0 * np.kron(eye, Cinv) @ sym_op(sign, n) @ np.kron(C, eye)


# ---------------------------------------------------------------------------
# Weight-function operator family
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=32)
def _weight_indices(n: int, step: int):
    """Index arrays of _weight_sum for one (n, step mod n).

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


def _weight_sum(params: AlgebraParams, z, step: int) -> np.ndarray:
    """sum_{(a,b) in Z_n^2} w_{(a,b)}(z) J ⊗ J^{-1} with J = I_{(step*a, b)},
    I_{(a,b)} x_i = omega^{i b} x_{i - a}, omega = e(1/n).

    The n^2 weights come from one array call of w_fn.  Each a places its
    terms at its own n^2 positions (step is a unit mod n), and the sum over
    b there is (w @ phases)[a, i - j - step*a]: one gather and one scatter.
    """
    n = params.n
    pos, a, m, phases = _weight_indices(n, step % n)
    idx = np.arange(n)
    w = w_fn(idx[:, None], idx, z, params.tau, params.theta)
    total = np.zeros(n ** 4, dtype=complex)
    total[pos] = (w @ phases)[a, m]
    return total.reshape(n * n, n * n)


def weight_op(params: AlgebraParams, z) -> np.ndarray:
    """S(z) = sum_{(a,b) in Z_n^2} w_{(a,b)}(z) I_{(a,b)} ⊗ I_{(a,b)}^{-1}."""
    return _weight_sum(params, z, 1)


def weight_op_k(params: AlgebraParams, z) -> np.ndarray:
    """S_k(z) = sum_{(a,b)} w_{(a,b)}(z) J ⊗ J^{-1} with J = I_{(-k' a, b)},
    i.e. J x_i = omega^{i b} x_{i + k' a}.  Satisfies
    S_k(-n z) = n e(n(n+1) z / 2) P R_{n,k,tau}(z).
    """
    return _weight_sum(params, z, -params.k_prime)


# ---------------------------------------------------------------------------
# Determinants
# ---------------------------------------------------------------------------


def det_closed_form(params: AlgebraParams, z):
    """Closed form for det R_tau(z):

    (prod_alpha theta_alpha(-z-tau)/theta_alpha(-tau))^{n(n-1)/2}
      * (prod_alpha theta_alpha(-z+tau)/theta_alpha(tau))^{n(n+1)/2}.

    Independent of k; equals 1 at z = 0.
    """
    n, tau = params.n, params.tau
    num1, den1, num2, den2 = theta_alpha_rows([-z - tau, -tau, -z + tau, tau], params.theta)
    p1 = np.prod(num1 / den1)
    p2 = np.prod(num2 / den2)
    return complex(p1 ** (n * (n - 1) // 2) * p2 ** (n * (n + 1) // 2))


def alt_norm_det_closed_form(params: AlgebraParams, z):
    """Closed form for the determinant of the alternative normalization
    R^alt(z) := R_tau(z) / prod_alpha (theta_alpha(-z+tau)/theta_alpha(tau)):

    (-1)^m e(m n^2 tau)
      * (prod_alpha theta_alpha(-z-tau) / prod_alpha theta_alpha(-z+tau))^m,  m = n(n-1)/2.

    The three factors are combined in the exponent, exp(m (2 pi i n^2 tau +
    log ratio)), since apart they underflow and overflow at n = 5.
    """
    n, tau = params.n, params.tau
    num, den = theta_alpha_rows([-z - tau, -z + tau], params.theta)
    ratio = complex(np.prod(num / den))
    m = n * (n - 1) // 2
    return (-1) ** m * cmath.exp(m * (2j * cmath.pi * n * n * tau + cmath.log(ratio)))


def alt_norm_prefactor(params: AlgebraParams, z):
    """prod_alpha theta_alpha(-z+tau)/theta_alpha(tau), the scalar relating
    R_tau(z) to the alternative normalization."""
    num, den = theta_alpha_rows([-z + params.tau, params.tau], params.theta)
    return complex(np.prod(num / den))


def dual_transpose_check(params: AlgebraParams, z) -> float:
    """Relative residual of R_{n,k,tau}(z)^T = e(-n^2 z) R_{n,n-k,-tau}(-z),
    the transpose taken in the x-basis."""
    n = params.n
    lhs = r_matrix(params, z).T
    dual = AlgebraParams(n, n - params.k, -params.tau, params.theta, params.ranks)
    rhs = e_fn(-n * n * z) * r_matrix(dual, -z)
    scale = max(np.linalg.norm(lhs), np.linalg.norm(rhs))
    return float(np.linalg.norm(lhs - rhs) / scale)
