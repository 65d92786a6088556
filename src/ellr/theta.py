"""Theta function kernel.

Evaluates the order-1 theta function theta(z), the order-n family
theta_alpha(z) (alpha in Z_n), the Jacobi theta function with
characteristics, and the torsion-indexed weight functions w_{(a,b)}(z), all from
truncated exponential series.  Arguments are reduced toward the fundamental
parallelogram with the exact quasi-periodicity laws before summing, so the
series converges fast unless Im(eta) is tiny, and never overflows for
large |Im z|.

All series use a symmetric index window that grows until the terms drop
below ``REL_TOL`` times the largest term seen so far; a series that has not
converged within ``MAX_INDEX`` terms raises ``TruncationError``.  All
arithmetic is double-precision complex.
"""

from __future__ import annotations

import cmath
import threading
from dataclasses import dataclass, field

TWO_PI_I = 2j * cmath.pi

# truncation bounds shared by every theta series
REL_TOL = 1e-15
MAX_INDEX = 200


class TruncationError(ValueError):
    """Series failed to converge within MAX_INDEX terms (Im eta too small)."""


class SingularParameterError(ValueError):
    """A parameter lies on (or too close to) a singular locus."""


def e_fn(z):
    """e(z) = exp(2*pi*i*z)."""
    return cmath.exp(TWO_PI_I * complex(z))


def _e(w):
    """e(w) for a complex w: the series terms' exponential, without e_fn's coercion."""
    return cmath.exp(TWO_PI_I * w)


@dataclass(frozen=True)
class LatticeParams:
    """The lattice Z + Z*eta with Im(eta) > 0."""

    eta: complex

    def __post_init__(self):
        if not complex(self.eta).imag > 0:
            raise ValueError("lattice parameter must have positive imaginary part")


@dataclass
class ThetaContext:
    """Bundles n and the lattice; caches the factor constant."""

    n: int
    lattice: LatticeParams
    _factor_c: complex | None = field(default=None, repr=False, compare=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be at least 2")

    @property
    def eta(self):
        return self.lattice.eta


def _reduce(z, eta):
    """Write z = z0 + s*eta + t with s, t integers and z0 near the base cell.

    Returns (z0, s, t).
    """
    zc, ec = complex(z), complex(eta)
    s = round(zc.imag / ec.imag)
    t = round((zc - s * ec).real)
    z0 = zc - s * ec - t
    return z0, s, t


def _sym_series(term):
    """Sum term(m) over a symmetric window m in [-M, M] grown adaptively."""
    total = term(0)
    biggest = abs(total)
    quiet = 0
    for m in range(1, MAX_INDEX + 1):
        tp, tm = term(m), term(-m)
        total += tp + tm
        mag = max(abs(tp), abs(tm))
        biggest = max(biggest, mag, abs(total))
        if mag <= REL_TOL * max(biggest, 1e-300):
            quiet += 1
            if quiet >= 2:
                return total
        else:
            quiet = 0
    raise TruncationError(
        f"theta series did not converge within {MAX_INDEX} terms; Im(eta) is too small"
    )


def theta1(z, ctx: ThetaContext):
    """Order-1 theta function theta(z) = sum_m (-1)^m e(mz + m(m-1)eta/2).

    Satisfies theta(z+1) = theta(z) and theta(z+eta) = -e(-z) theta(z);
    vanishes exactly on the lattice.
    """
    eta = complex(ctx.eta)
    z0, s, t = _reduce(z, eta)

    def term(m):
        return (-1) ** (m & 1) * _e(m * z0 + 0.5 * m * (m - 1) * eta)

    base = _sym_series(term)
    # theta(z0 + s*eta) = (-1)^s e(-s z0 - s(s-1) eta / 2) theta(z0)
    factor = (-1) ** (s & 1) * _e(-s * z0 - 0.5 * s * (s - 1) * eta)
    return factor * base


def theta_alpha(alpha: int, z, ctx: ThetaContext):
    """theta_alpha(z), alpha in Z_n: order-n theta function.

    theta_alpha(z) = e(alpha z + alpha/2n + alpha(alpha-n) eta/2n)
                     * prod_{m=0}^{n-1} theta1(z + m/n + alpha eta/n).

    The family is periodic in alpha with period n; alpha is reduced mod n.
    Quasi-periodicity: theta_alpha(z + 1/n) = e(alpha/n) theta_alpha(z).
    Zero locus: -(alpha/n)eta + (1/n)Z + Z eta.
    """
    n = ctx.n
    alpha %= n
    z, eta = complex(z), complex(ctx.eta)
    prod = _e(alpha * z + alpha / (2 * n) + alpha * (alpha - n) * eta / (2 * n))
    for m in range(n):
        prod *= theta1(z + m / n + alpha * eta / n, ctx)
    return prod


def jacobi_theta(z, eta):
    """Jacobi theta: sum_m e(mz + m^2 eta / 2), with argument reduction."""
    z0, s, t = _reduce(z, eta)
    eta = complex(eta)

    def term(m):
        return _e(m * z0 + 0.5 * m * m * eta)

    base = _sym_series(term)
    # theta(z0 + s*eta + t) = e(-s z0 - s^2 eta / 2) theta(z0)
    return _e(-s * z0 - 0.5 * s * s * eta) * base


def theta_char(a: float, b: float, z, eta):
    """Theta function with characteristics a, b:

    sum_m e((a+m)(z+b) + (a+m)^2 eta / 2)
      = e(a(z+b) + a^2 eta / 2) * jacobi_theta(z + a*eta + b).

    Periodicity: [a+1; b] = [a; b] and [a; b+1] = e(a) [a; b].
    Vanishes iff z in (1+eta)/2 - (a*eta + b) + Lambda.
    """
    # shift a into [-1/2, 1/2) using the exact a -> a+1 periodicity
    sa = round(a)
    a = a - sa
    zw, etaw = complex(z), complex(eta)
    pref = _e(a * (zw + b) + 0.5 * a * a * etaw)
    return pref * jacobi_theta(zw + a * etaw + b, eta)


def theta_char_shift_check(a, b, s: int, t: int, z, eta) -> float:
    """Relative residual of
    theta_char(z + s*eta + t) = e(a t - s (z+b) - s^2 eta / 2) * theta_char(z).
    """
    lhs = theta_char(a, b, z + s * eta + t, eta)
    rhs = e_fn(a * t - s * (z + b) - 0.5 * s * s * eta) * theta_char(a, b, z, eta)
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return abs(lhs - rhs) / scale


_FACTOR_SAMPLES = [(0, 0.3 + 0.2j), (1, 0.7 + 0.1j), (0, 0.13 - 0.08j), (1, -0.41 + 0.27j)]


def factor_constant(ctx: ThetaContext):
    """The constant c with
    theta_char(alpha/n + 1/2, 1/2, z | n*eta) = c^{-1} e(-z/2) theta_alpha(z/n).

    Sampled at a generic point (resampling if degenerate) and cached.
    """
    if ctx._factor_c is not None:
        return ctx._factor_c
    with ctx._lock:
        if ctx._factor_c is not None:
            return ctx._factor_c
        n, eta = ctx.n, ctx.eta
        for alpha, z in _FACTOR_SAMPLES:
            denom = theta_char(alpha / n + 0.5, 0.5, z, n * eta)
            numer = e_fn(-0.5 * z) * theta_alpha(alpha, z / n, ctx)
            if abs(denom) > 1e-8 and abs(numer) > 1e-8:
                ctx._factor_c = numer / denom
                return ctx._factor_c
        raise SingularParameterError("all factor-constant sample points were degenerate")


def nearest_lattice_distance(z, eta) -> float:
    """Distance from z to the nearest point of Z + Z*eta."""
    zc, ec = complex(z), complex(eta)
    b = zc.imag / ec.imag
    a = (zc - b * ec).real
    best = min(
        abs((a - ra) + (b - rb) * ec + 0j)
        for ra in (int(a // 1), int(a // 1) + 1)
        for rb in (int(b // 1), int(b // 1) + 1)
    )
    # the rounded corner is among the four floor/ceil combinations
    return best


def w_fn(a: int, b: int, z, tau, ctx: ThetaContext):
    """Torsion-indexed weight w_{(a,b)}(z) = theta_char[a/n; b/n](z + xi) / theta_char[a/n; b/n](xi)
    with xi = tau + (1+eta)/2.  Depends on (a, b) only mod n; w_{(a,b)}(0) = 1.
    """
    n, eta = ctx.n, ctx.eta
    xi = tau + 0.5 * (1 + eta)
    denom = theta_char(a / n, b / n, xi, eta)
    if abs(denom) < 1e-12:
        raise SingularParameterError(
            "w_{(a,b)} denominator vanishes: tau lies on the singular locus"
        )
    return theta_char(a / n, b / n, z + xi, eta) / denom
