"""Construction of the elliptic R-matrix family R_{n,k,tau}(z) on V ⊗ V,
its half-period limits, symmetry operators, the weight-function operator family, and the
closed-form determinant.

Basis convention: V has basis x_0, ..., x_{n-1}; x_i ⊗ x_j maps to flat
index i*n + j (row-major).  All operators are dense complex matrices.
"""

from __future__ import annotations

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
    theta_alpha,
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


@dataclass
class AlgebraParams:
    """The tuple (n, k, tau, eta) plus the rank policy.

    Requires n >= 2, 1 <= k < n, gcd(n, k) = 1.  k_prime is the inverse of k
    mod n with 1 <= k_prime < n.
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
        self.k_prime = pow(self.k, -1, self.n)

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
    P = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            P[j * n + i, i * n + j] = 1.0
    return {"S": S, "T": T, "N": N, "P": P}


def _int_matrix_power(M: np.ndarray, p: int) -> np.ndarray:
    if p >= 0:
        return np.linalg.matrix_power(M, p)
    return np.linalg.matrix_power(np.linalg.inv(M), -p)


def torsion_op(params: AlgebraParams, a: int, b: int) -> np.ndarray:
    """The operator C = T^b S^{k a} attached to zeta = a/n + (b/n) eta."""
    ops = basis_ops(params)
    return _int_matrix_power(ops["T"], b) @ _int_matrix_power(ops["S"], params.k * a)


# ---------------------------------------------------------------------------
# The R-matrix
# ---------------------------------------------------------------------------


def _theta_row(params: AlgebraParams, w):
    """[theta_alpha(w) for alpha in Z_n]."""
    ctx = params.theta
    return [theta_alpha(alpha, w, ctx) for alpha in range(ctx.n)]


def r_matrix(params: AlgebraParams, z) -> np.ndarray:
    """The matrix of R_tau(z) on V ⊗ V.

    R(z)(x_i ⊗ x_j) = (prod_alpha theta_alpha(-z) / prod_{alpha>=1} theta_alpha(0))
        * sum_r theta_{j-i+r(k-1)}(-z+tau) / (theta_{j-i-r}(-z) theta_{kr}(tau))
        * x_{j-r} ⊗ x_{i+r}.

    The denominator factor theta_{j-i-r}(-z) also occurs once in the front
    product, so each summand is computed with that factor pair cancelled
    symbolically; this realizes the removable singularities exactly and makes
    the entries finite for every z.  R(0) = I ⊗ I exactly.

    The result is a complex128 array.
    """
    n, k, tau = params.n, params.k, params.tau
    if params.tau_is_torsion():
        raise TorsionParameterError(
            "tau lies on (1/n)Lambda; use r_plus_limit for the limiting operators"
        )
    th_mz = _theta_row(params, -z)  # theta_alpha(-z)
    th_mzt = _theta_row(params, -z + tau)  # theta_alpha(-z + tau)
    th_t = _theta_row(params, tau)  # theta_alpha(tau)
    th_0 = _theta_row(params, 0.0)  # theta_alpha(0)
    denom0 = th_0[1]
    for alpha in range(2, n):
        denom0 = denom0 * th_0[alpha]
    # product over alpha != s of theta_alpha(-z)
    front_excl = []
    for s in range(n):
        prod = None
        for alpha in range(n):
            if alpha == s:
                continue
            prod = th_mz[alpha] if prod is None else prod * th_mz[alpha]
        front_excl.append(prod)

    M = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            col = i * n + j
            for r in range(n):
                row = ((j - r) % n) * n + (i + r) % n
                s = (j - i - r) % n
                coef = (
                    front_excl[s]
                    * th_mzt[(j - i + r * (k - 1)) % n]
                    / (denom0 * th_t[(k * r) % n])
                )
                M[row, col] += coef
    return M


def sym_op(m: int, n: int) -> np.ndarray:
    """sym_m(v ⊗ v') = v ⊗ v' - m v' ⊗ v, i.e. the matrix I - m P."""
    P = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            P[j * n + i, i * n + j] = 1.0
    return np.eye(n * n, dtype=complex) - m * P


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


def _heisenberg_i(n: int, a: int, b: int) -> np.ndarray:
    """I_{(a,b)} x_i = omega^{i b} x_{i - a}, omega = e(1/n)."""
    M = np.zeros((n, n), dtype=complex)
    for i in range(n):
        M[(i - a) % n, i] = e_fn(i * b / n)
    return M


def weight_op(params: AlgebraParams, z) -> np.ndarray:
    """S(z) = sum_{(a,b) in Z_n^2} w_{(a,b)}(z) I_{(a,b)} ⊗ I_{(a,b)}^{-1}."""
    n = params.n
    total = np.zeros((n * n, n * n), dtype=complex)
    for a in range(n):
        for b in range(n):
            w = w_fn(a, b, z, params.tau, params.theta)
            I_p = _heisenberg_i(n, a, b)
            total += w * np.kron(I_p, np.linalg.inv(I_p))
    return total


def weight_op_k(params: AlgebraParams, z) -> np.ndarray:
    """S_k(z) = sum_{(a,b)} w_{(a,b)}(z) J ⊗ J^{-1} with J = I_{(-k' a, b)},
    i.e. J x_i = omega^{i b} x_{i + k' a}.  Satisfies
    S_k(-n z) = n e(n(n+1) z / 2) P R_{n,k,tau}(z).
    """
    n, kp = params.n, params.k_prime
    total = np.zeros((n * n, n * n), dtype=complex)
    for a in range(n):
        for b in range(n):
            w = w_fn(a, b, z, params.tau, params.theta)
            J = _heisenberg_i(n, (-kp * a) % n, b)
            total += w * np.kron(J, np.linalg.inv(J))
    return total


# ---------------------------------------------------------------------------
# Determinants
# ---------------------------------------------------------------------------


def det_closed_form(params: AlgebraParams, z):
    """Closed form for det R_tau(z):

    (prod_alpha theta_alpha(-z-tau)/theta_alpha(-tau))^{n(n-1)/2}
      * (prod_alpha theta_alpha(-z+tau)/theta_alpha(tau))^{n(n+1)/2}.

    Independent of k; equals 1 at z = 0.
    """
    n = params.n
    tau = params.tau
    num1 = _theta_row(params, -z - tau)
    den1 = _theta_row(params, -tau)
    num2 = _theta_row(params, -z + tau)
    den2 = _theta_row(params, tau)
    p1 = num1[0] / den1[0]
    p2 = num2[0] / den2[0]
    for alpha in range(1, n):
        p1 = p1 * num1[alpha] / den1[alpha]
        p2 = p2 * num2[alpha] / den2[alpha]
    return p1 ** (n * (n - 1) // 2) * p2 ** (n * (n + 1) // 2)


def alt_norm_det_closed_form(params: AlgebraParams, z):
    """Closed form for the determinant of the alternative normalization
    R^alt(z) := R_tau(z) / prod_alpha (theta_alpha(-z+tau)/theta_alpha(tau)):

    (-1)^{n^2(n-1)/2} e(n^3(n-1) tau / 2)
      * (prod_alpha theta_alpha(-z-tau) / prod_alpha theta_alpha(-z+tau))^{n(n-1)/2}.
    """
    n = params.n
    tau = params.tau
    num = _theta_row(params, -z - tau)
    den = _theta_row(params, -z + tau)
    ratio = num[0] / den[0]
    for alpha in range(1, n):
        ratio = ratio * num[alpha] / den[alpha]
    sign = (-1) ** ((n * n * (n - 1) // 2) % 2)
    return sign * e_fn(n**3 * (n - 1) * tau / 2) * ratio ** (n * (n - 1) // 2)


def alt_norm_prefactor(params: AlgebraParams, z):
    """prod_alpha theta_alpha(-z+tau)/theta_alpha(tau), the scalar relating
    R_tau(z) to the alternative normalization."""
    n = params.n
    num = _theta_row(params, -z + params.tau)
    den = _theta_row(params, params.tau)
    p = num[0] / den[0]
    for alpha in range(1, n):
        p = p * num[alpha] / den[alpha]
    return p


def dual_transpose_check(params: AlgebraParams, z) -> float:
    """Relative residual of R_{n,k,tau}(z)^T = e(-n^2 z) R_{n,n-k,-tau}(-z),
    the transpose taken in the x-basis."""
    n = params.n
    lhs = r_matrix(params, z).T
    dual = AlgebraParams(n, n - params.k, -params.tau, params.theta, params.ranks)
    rhs = e_fn(-n * n * z) * r_matrix(dual, -z)
    scale = max(np.linalg.norm(lhs), np.linalg.norm(rhs))
    return float(np.linalg.norm(lhs - rhs) / scale)
