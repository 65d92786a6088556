"""Theta function kernel.

Evaluates the order-1 theta function theta(z), the order-n family
theta_alpha(z) (alpha in Z_n), the Jacobi theta function with
characteristics, and the torsion-indexed weight functions w_{(a,b)}(z), all from
truncated exponential series.  Every argument is first reduced with the
exact quasi-periodicity laws to z0 with |Im z0| <= Im(eta)/2, so the series
never overflows for large |Im z|.

Every series, scalar or array, is one private array sum ``_series`` over
a fixed index window m in [-M, M].  After the reduction the terms obey
|term_m| <= exp(-pi Im(eta) (m^2 - 2|m|)) (Mumford, Tata Lectures on
Theta I, ch. I), so M follows in O(1) from Im(eta): the smallest M whose
first omitted term is below ``REL_TOL``.  A lattice that needs
M > ``MAX_INDEX`` raises ``TruncationError`` when its ``ThetaContext`` is
built, not partway through a series.  All arithmetic is complex128.

Each entry costs one complex exponential, plus one for the factor that
carries the value at z0 back to z.  The terms are powers of one number
times constants of the lattice: term m is (-1)^(odd m) e(m (m-odd) Re(eta)/2)
* e(m Re z0) * exp(-pi m (m-odd) Im(eta) - 2 pi m Im z0).  The constants of
each (eta, M, odd) are cached read-only (``_term_weights``); the unit phases
e(m Re z0) are a running product of u = e(Re z0), with e(-m Re z0) as the
conjugate of e(m Re z0); and every modulus comes from one real exponential.
Splitting modulus from phase keeps every term finite where powers of
e(z0) itself would overflow (Im(eta) above about 75).  The terms m and
1 - m are added as a pair before the sum, so theta is exactly 0 wherever
the reduced z0 is exactly 0.

theta_alpha keeps its product definition over n shifted copies of theta(z)
rather than one series of its own, so the factorization constant and the
theta-property check compare two independent evaluations.
"""

from __future__ import annotations

import cmath
import functools
import math
import threading
from dataclasses import dataclass, field

import numpy as np

TWO_PI_I = 2j * cmath.pi

# truncation bounds shared by every theta series
REL_TOL = 1e-15
MAX_INDEX = 200


class TruncationError(ValueError):
    """The index window for Im(eta) exceeds MAX_INDEX (Im eta too small)."""


class SingularParameterError(ValueError):
    """A parameter lies on (or too close to) a singular locus."""


def e_fn(z):
    """e(z) = exp(2*pi*i*z)."""
    return cmath.exp(TWO_PI_I * complex(z))


def _window(eta) -> int:
    """Half-width M of the index window m in [-M, M] for the lattice eta:
    the smallest M with exp(-pi Im(eta) ((M+1)^2 - 2(M+1))) <= REL_TOL."""
    tail = math.log(1 / REL_TOL) / (math.pi * complex(eta).imag)
    if 1 + tail > MAX_INDEX ** 2:
        raise TruncationError(
            f"theta series did not converge within {MAX_INDEX} terms; Im(eta) is too small"
        )
    return math.ceil(math.sqrt(1 + tail))


@functools.lru_cache(maxsize=64)
def _term_weights(eta: complex, M: int, odd: int):
    """The constants of the terms m = 1, ..., M+1 and then m = 0, -1, ..., -M
    of the series for (eta, M, odd), so that term j of the first half and
    term j of the second are a pair m, 1 - m.

    Returns (coef, gauss, slope), read-only: coef = (-1)^(odd m)
    e(m (m - odd) Re(eta) / 2), gauss = -pi m (m - odd) Im(eta) and
    slope = -2 pi m, so that |term_m| = exp(gauss + slope Im(z0)).  Both
    members of a pair take m (m - odd) from the same integer, so for theta
    (odd = 1) their coef are exactly opposite and their gauss exactly equal.
    """
    m = np.concatenate((np.arange(1, M + 2), -np.arange(M + 1)))
    q = m * (m - odd)
    coef = (1 - 2 * (odd * m % 2)) * np.exp(1j * math.pi * q * eta.real)
    gauss = -math.pi * eta.imag * q
    slope = -2 * math.pi * m
    for a in (coef, gauss, slope):
        a.flags.writeable = False
    return coef, gauss, slope


def _series(z, eta: complex, M: int, odd: int):
    """sum_m (-1)^(odd m) e(m z + m (m - odd) eta / 2) for every entry of z.

    odd = 1 gives theta(z), odd = 0 the Jacobi theta function.  Each entry is
    written z = z0 + s*eta + t (s, t integers, |Im z0| <= Im(eta)/2), summed
    at z0 over m in [-M, M+1] (the window [-M, M] closed under m -> 1 - m),
    and carried back by (-1)^(odd s) e(-s z0 - s (s - odd) eta / 2).

    A term is coef_m * exp(gauss_m + slope_m Im z0) * u^m (``_term_weights``)
    with u = e(Re z0) (see the module docstring).
    """
    z = np.asarray(z, dtype=complex)
    shape = z.shape
    z = z.reshape(-1)
    s = np.rint(z.imag / eta.imag)
    z0 = z - s * eta
    z0.real -= np.rint(z0.real)
    coef, gauss, slope = _term_weights(eta, M, odd)
    modulus = np.multiply.outer(slope, z0.imag)
    modulus += gauss[:, None]
    terms = np.exp(modulus, out=modulus) * coef[:, None]
    # powers[j] = u^(j+1), u = e(Re z0); the terms of m = 1..M+1 take
    # powers, those of m = -1..-M their conjugates, and m = 0 takes u^0 = 1
    powers = np.empty((M + 1, z.size), dtype=complex)
    np.exp(TWO_PI_I * z0.real, out=powers[0])
    for j in range(1, M + 1):
        np.multiply(powers[j - 1], powers[0], out=powers[j])
    terms[:M + 1] *= powers
    terms[M + 2:] *= powers[:-1].conj()
    # the terms m and 1 - m are added first: for theta they cancel exactly
    # at z0 = 0, so theta vanishes on the lattice to rounding of z0 alone
    total = np.add(terms[:M + 1], terms[M + 1:], out=terms[:M + 1]).sum(axis=0)
    # the carry-back factor, with (-1)^(odd s) written as e(-odd s / 2)
    carry = -s * z0
    carry -= 0.5 * s * (s - odd) * eta
    if odd:
        carry.real -= 0.5 * s
    carry *= TWO_PI_I
    total *= np.exp(carry, out=carry)
    return total.reshape(shape)


def _out(x):
    """A 0-d result as a Python complex; arrays pass through."""
    return complex(x) if np.ndim(x) == 0 else x


@dataclass(frozen=True)
class LatticeParams:
    """The lattice Z + Z*eta with Im(eta) > 0."""

    eta: complex

    def __post_init__(self):
        if not complex(self.eta).imag > 0:
            raise ValueError("lattice parameter must have positive imaginary part")


@dataclass
class ThetaContext:
    """Bundles n and the lattice; fixes the series window (TruncationError
    past MAX_INDEX terms) and caches the factor constant."""

    n: int
    lattice: LatticeParams
    window: int = field(init=False, repr=False, compare=False)
    _shifts: np.ndarray = field(init=False, repr=False, compare=False)
    _phases: np.ndarray = field(init=False, repr=False, compare=False)
    _factor_c: complex | None = field(default=None, repr=False, compare=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be at least 2")
        n, eta = self.n, complex(self.eta)
        self.window = _window(eta)
        alpha = np.arange(n)
        # theta_alpha(w) = e(alpha w + _phases[alpha]) prod_m theta(w + _shifts[alpha, m])
        self._shifts = alpha / n + alpha[:, None] * eta / n
        self._phases = alpha / (2 * n) + alpha * (alpha - n) * eta / (2 * n)

    @property
    def eta(self):
        return self.lattice.eta


def theta1(z, ctx: ThetaContext):
    """Order-1 theta function theta(z) = sum_m (-1)^m e(mz + m(m-1)eta/2).

    Satisfies theta(z+1) = theta(z) and theta(z+eta) = -e(-z) theta(z);
    vanishes exactly on the lattice.  Elementwise over an array z.
    """
    return _out(_series(z, complex(ctx.eta), ctx.window, 1))


def theta_alpha_rows(ws, ctx: ThetaContext) -> np.ndarray:
    """The (len(ws), n) array of theta_alpha(w) for every w in ws and alpha in Z_n:

    theta_alpha(w) = e(alpha w + alpha/2n + alpha(alpha-n) eta/2n)
                     * prod_{m=0}^{n-1} theta1(w + m/n + alpha eta/n),

    all theta1 factors taken in one series call.
    """
    w = np.asarray(ws, dtype=complex)[:, None]
    pref = np.exp(TWO_PI_I * (np.arange(ctx.n) * w + ctx._phases))
    return pref * theta1(w[:, :, None] + ctx._shifts, ctx).prod(axis=-1)


def theta_alpha(alpha: int, z, ctx: ThetaContext):
    """theta_alpha(z), alpha in Z_n: order-n theta function (see theta_alpha_rows).

    The family is periodic in alpha with period n; alpha is reduced mod n.
    Quasi-periodicity: theta_alpha(z + 1/n) = e(alpha/n) theta_alpha(z).
    Zero locus: -(alpha/n)eta + (1/n)Z + Z eta.
    """
    return complex(theta_alpha_rows([z], ctx)[0, alpha % ctx.n])


def theta_char(a, b, z, eta):
    """Theta function with characteristics a, b:

    sum_m e((a+m)(z+b) + (a+m)^2 eta / 2)
      = e(a(z+b) + a^2 eta / 2) * theta(z + a*eta + b),

    theta(z) = sum_m e(mz + m^2 eta / 2) the Jacobi theta ([0; 0]).

    Periodicity: [a+1; b] = [a; b] and [a; b+1] = e(a) [a; b].
    Vanishes iff z in (1+eta)/2 - (a*eta + b) + Lambda.
    a, b and z broadcast against each other as numpy arrays.
    """
    # shift a into [-1/2, 1/2] using the exact a -> a+1 periodicity
    a = np.asarray(a, dtype=float)
    a = a - np.round(a)
    z, eta = np.asarray(z, dtype=complex), complex(eta)
    pref = np.exp(TWO_PI_I * (a * (z + b) + 0.5 * a * a * eta))
    return _out(pref * _series(z + a * eta + b, eta, _window(eta), 0))


def theta_char_shift_check(a, b, s: int, t: int, z, eta):
    """Relative residual of
    theta_char(z + s*eta + t) = e(a t - s (z+b) - s^2 eta / 2) * theta_char(z).

    Elementwise over an array z, both sides of every entry taken in one
    theta_char series; a float for a scalar z.  A scalar is computed as a
    one-entry array, since numpy's scalar arithmetic may round differently.
    """
    shape = np.shape(z)
    z = np.asarray(z, dtype=complex).reshape(-1)
    lhs, rhs = theta_char(a, b, np.stack([z + s * eta + t, z]), eta)
    rhs = np.exp(TWO_PI_I * (a * t - s * (z + b) - 0.5 * s * s * eta)) * rhs
    resid = np.abs(lhs - rhs) / np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)
    return float(resid[0]) if shape == () else resid.reshape(shape)


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


def w_fn(a, b, z, tau, ctx: ThetaContext):
    """Torsion-indexed weight w_{(a,b)}(z) = theta_char[a/n; b/n](z + xi) / theta_char[a/n; b/n](xi)
    with xi = tau + (1+eta)/2.  Depends on (a, b) only mod n; w_{(a,b)}(0) = 1.

    a and b may be integer arrays (broadcast together) and z an array: the
    result has shape z.shape + (the shape of a and b), the weights at every
    z.  Every numerator and the shared row of denominators are taken in one
    theta_char call.
    """
    n, eta = ctx.n, ctx.eta
    xi = tau + 0.5 * (1 + eta)
    z = np.asarray(z, dtype=complex)
    ndim = np.broadcast(a, b).ndim
    args = np.append(z.ravel() + xi, xi).reshape((-1,) + (1,) * ndim)
    vals = theta_char(np.divide(a, n), np.divide(b, n), args, eta)
    num, den = vals[:-1], vals[-1]
    if np.min(np.abs(den)) < 1e-12:
        raise SingularParameterError(
            "w_{(a,b)} denominator vanishes: tau lies on the singular locus"
        )
    return _out((num / den).reshape(z.shape + den.shape))
