"""Named verification checks.

Every quantitative claim the library implements is packaged as a named
check returning :class:`CheckResult` records: residual identities (the
Yang-Baxter equation, transformation laws, determinant formula, the
operator-array multiplication identity), integer invariants (nullity and
rank tables, Hilbert dimensions, Koszul lattice dimensions, Frobenius
pairing ranks), and convergence ladders for the degeneration limits.

Statuses: ``pass`` / ``fail`` by the check's tolerance, ``ambiguous`` when
a singular-value gap could not certify a rank, ``refused`` when the
deformation parameter sits on a locus the underlying statements exclude.
A refused or ambiguous check never silently counts as a pass.

Two verdict rules cover almost every result: :func:`_within` passes a
residual, angle or deviation iff it is strictly below its tolerance (a NaN
fails), recording the value as both observation and residual;
:func:`_equals` passes a rank, dimension or table iff it equals the
expected value.  The few results that follow neither rule build their
:class:`CheckResult` explicitly.

Every check takes the :class:`AlgebraParams` first (the shuffle
decomposition, which is parameter-free, takes none).  Wall times are taken
in one place, :func:`run_suite`, once per check group; a check called
directly reports 0.0.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field, asdict
from math import comb, factorial

import numpy as np

from .theta import (
    SingularParameterError,
    e_fn,
    theta1,
    theta_alpha,
    theta_char,
    theta_char_shift_check,
    factor_constant,
    nearest_lattice_distance,
)
from .linalg import (
    AmbiguousRankError,
    Subspace,
    svd_rank,
    spectrum,
    image,
    subspace_sum,
    subspace_intersect,
    subspace_equal,
)
from .rmatrix import (
    AlgebraParams,
    HalfPeriodPoint,
    TorsionParameterError,
    make_params,
    basis_ops,
    torsion_op,
    r_matrix,
    sym_op,
    b_fn,
    f_fn,
    weight_op,
    weight_op_k,
    det_closed_form,
    dual_transpose_check,
)
from . import tensorops
from .tensorops import (
    scaled_residual,
    scaled_rank,
    scaled_spectrum,
    site_product,
    symmetrizer,
    antisymmetrizer,
    t_op,
    f_op,
    m_op,
    embedded_copies,
)
from .classical import classical_w_dim, shuffle_identity_check

VERSION = "0.1.0"

TOL_RESIDUAL = 1e-8
TOL_TRANSFORM = 1e-9
TOL_DET = 1e-6
TOL_ANGLE = 1e-6
TOL_LIMIT = 1e-2
TOL_THETA = 1e-10
EXCLUSION_DISTANCE = 1e-8


@dataclass
class CheckResult:
    name: str
    params: dict
    expected: object
    observed: object
    residual: float | None
    status: str
    wall_time: float = 0.0

    def __post_init__(self):
        # numpy scalars leave a check as Python floats: the CSV column would
        # otherwise hold the numpy repr, np.float64(...)
        if self.residual is not None:
            self.residual = float(self.residual)
        if isinstance(self.observed, numbers.Real) and not isinstance(
            self.observed, numbers.Integral
        ):
            self.observed = float(self.observed)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class Report:
    version: str
    config: dict
    results: list = field(default_factory=list)

    def extend(self, results):
        self.results.extend(results)

    def finalize(self):
        self.results.sort(key=lambda r: (r.name, sorted(map(str, r.params.items()))))
        return self

    @property
    def summary(self) -> dict:
        counts = {"pass": 0, "fail": 0, "ambiguous": 0, "refused": 0}
        for r in self.results:
            counts[r.status] = counts.get(r.status, 0) + 1
        counts["total"] = len(self.results)
        return counts

    @property
    def ok(self) -> bool:
        return self.summary["fail"] == 0 and self.summary["ambiguous"] == 0

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "config": self.config,
            "results": [r.to_dict() for r in self.results],
            "summary": self.summary,
        }


def _status(residual, tol) -> str:
    return "pass" if residual < tol else "fail"


def _within(name, echo, value, tol, what="residual") -> CheckResult:
    """Pass iff value < tol; the value is both observation and residual."""
    return CheckResult(name, echo, f"{what} < {tol}", value, value, _status(value, tol))


def _equals(name, echo, expected, observed) -> CheckResult:
    """Pass iff the observation equals the expected value exactly."""
    return CheckResult(name, echo, expected, observed, None,
                       "pass" if observed == expected else "fail")


def _echo(params: AlgebraParams, **extra) -> dict:
    out = {
        "n": params.n,
        "k": params.k,
        "eta": [complex(params.eta).real, complex(params.eta).imag],
        "tau": [complex(params.tau).real, complex(params.tau).imag],
    }
    out.update(extra)
    return out


def _rel(diff: np.ndarray, *refs) -> float:
    scale = max([float(np.max(np.abs(r))) for r in refs] + [1e-300])
    return float(np.max(np.abs(diff)) / scale)


def _yb_residual(n: int, lhs, rhs) -> float:
    """Relative residual between two site products on V^{(x)3}."""
    lhs, rhs = site_product(n, 3, lhs), site_product(n, 3, rhs)
    return _rel(lhs - rhs, lhs, rhs)


def _braid_residual(n: int, Su, Sv, Suv) -> float:
    """Relative residual of the braid-form Yang-Baxter identity

        S(u)_12 S(u+v)_13 S(v)_23 = S(v)_23 S(u+v)_13 S(u)_12

    on V^{(x)3}."""
    return _yb_residual(n, [(Su, (1, 2)), (Suv, (1, 3)), (Sv, (2, 3))],
                        [(Sv, (2, 3)), (Suv, (1, 3)), (Su, (1, 2))])


def _random_z(rng, count, re_width=0.45, im_width=0.08):
    return [
        complex(rng.uniform(-re_width, re_width), rng.uniform(-im_width, im_width))
        for _ in range(count)
    ]


def tau_excluded(params: AlgebraParams, m_max: int = 1) -> bool:
    """True when m*n*tau lies within EXCLUSION_DISTANCE of the lattice for
    some 1 <= m <= m_max (the loci excluded by the generic-parameter
    statements)."""
    n, eta, tau = params.n, params.eta, params.tau
    return any(
        nearest_lattice_distance(m * n * tau, eta) < EXCLUSION_DISTANCE
        for m in range(1, m_max + 1)
    )


def _refused(name, params, note, **extra) -> CheckResult:
    return CheckResult(name, _echo(params, **extra), note, "not attempted", None, "refused")


def _beyond_cap(n: int, d: int) -> str | None:
    """The refusal note when n^d exceeds the dense cap (read from
    :mod:`ellr.tensorops` at call time), else None."""
    cap = tensorops.MAX_TENSOR_DIM
    return f"n^d = {n ** d} exceeds the dense cap {cap}" if n ** d > cap else None


def _guard(fn):
    """Turn an exception escaping a check into a single result: an
    AmbiguousRankError into an ambiguous status, a TorsionParameterError or
    SingularParameterError (tau on a locus the statements exclude) into a
    refused status."""

    def wrapper(params, *args, **kwargs):
        try:
            return fn(params, *args, **kwargs)
        except AmbiguousRankError as exc:
            return [CheckResult(fn.__name__, _echo(params), "certified rank",
                                f"gap {exc.gap:.3e}", None, "ambiguous")]
        except (TorsionParameterError, SingularParameterError) as exc:
            return [_refused(fn.__name__, params, str(exc))]

    wrapper.__name__ = fn.__name__
    return wrapper


# ---------------------------------------------------------------------------
# R-matrix identity checks
# ---------------------------------------------------------------------------


@_guard
def qybe_check(params: AlgebraParams, trials: int = 20, seed: int = 0):
    """Residuals of the two-parameter Yang-Baxter identity

        R(u)_12 R(u+v)_23 R(v)_12 = R(v)_23 R(u+v)_12 R(u)_23

    and of the braid-form identity for P.R(z) at random argument pairs."""
    rng = np.random.default_rng(seed)
    n = params.n
    P = basis_ops(params)["P"]
    worst2 = worst1 = 0.0
    for _ in range(trials):
        u, v = _random_z(rng, 2)
        Ru, Rv, Ruv = r_matrix(params, u), r_matrix(params, v), r_matrix(params, u + v)
        worst2 = max(worst2, _yb_residual(n, [(Ru, (1, 2)), (Ruv, (2, 3)), (Rv, (1, 2))],
                                          [(Rv, (2, 3)), (Ruv, (1, 2)), (Ru, (2, 3))]))
        worst1 = max(worst1, _braid_residual(n, P @ Ru, P @ Rv, P @ Ruv))
    echo = _echo(params, trials=trials, seed=seed)
    return [
        _within("qybe.two_parameter", echo, worst2, TOL_RESIDUAL),
        _within("qybe.braid_form", echo, worst1, TOL_RESIDUAL),
    ]


@_guard
def inverse_pair_check(params: AlgebraParams, trials: int = 5, seed: int = 0):
    """R(z)R(-z) is a scalar multiple of the identity; the scalar is 1 at
    z = 0 and vanishes at z = +-tau."""
    rng = np.random.default_rng(seed)
    dim = params.n ** 2
    worst = 0.0
    for z in _random_z(rng, trials):
        prod = r_matrix(params, z) @ r_matrix(params, -z)
        c = prod[0, 0]
        worst = max(worst, _rel(prod - c * np.eye(dim), prod))
    at_zero = float(np.max(np.abs(r_matrix(params, 0.0) - np.eye(dim))))
    Rt, Rmt = r_matrix(params, params.tau), r_matrix(params, -params.tau)
    vanish = float(
        np.max(np.abs(Rt @ Rmt)) / max(np.max(np.abs(Rt)) * np.max(np.abs(Rmt)), 1e-300)
    )
    return [
        _within("inverse.scalar_product", _echo(params, trials=trials, seed=seed),
                worst, TOL_TRANSFORM),
        _within("inverse.identity_at_zero", _echo(params), at_zero, 1e-10),
        _within("inverse.vanishing_at_tau", _echo(params), vanish, TOL_RESIDUAL),
    ]


@_guard
def transform_check(params: AlgebraParams, trials: int = 5, seed: int = 0):
    """The six quasi-periodicity / parameter-shift laws of R and the
    general torsion-shift conjugation with its scalar factor."""
    rng = np.random.default_rng(seed)
    n, eta, tau = params.n, params.eta, params.tau
    ops = basis_ops(params)
    S, T, N, P = ops["S"], ops["T"], ops["N"], ops["P"]
    eye = np.eye(n)
    Sinv, Tinv = np.linalg.inv(S), np.linalg.inv(T)
    Sk = np.linalg.matrix_power(S, params.k)
    Skinv = np.linalg.inv(Sk)
    Tkp = np.linalg.matrix_power(T, params.k_prime)
    Tkpinv = np.linalg.inv(Tkp)
    params_neg = params.with_tau(-tau)
    params_p1 = params.with_tau(tau + 1 / n)
    params_pe = params.with_tau(tau + eta / n)
    zeta = HalfPeriodPoint(2, 1)
    C = torsion_op(params, zeta.a, zeta.b)
    Cinv = np.linalg.inv(C)

    laws = {
        "shift_period_over_n": lambda z, R: (
            r_matrix(params, z + 1 / n),
            (-1) ** (n - 1) * np.kron(eye, Skinv) @ R @ np.kron(Sk, eye),
        ),
        "shift_eta_over_n": lambda z, R: (
            r_matrix(params, z + eta / n),
            b_fn(params, z) * np.kron(eye, Tinv) @ R @ np.kron(T, eye),
        ),
        "negation_swap": lambda z, R: (
            r_matrix(params, -z),
            e_fn(n * n * z) * P @ r_matrix(params_neg, z) @ P,
        ),
        "negation_index_reversal": lambda z, R: (
            r_matrix(params, -z),
            e_fn(n * n * z) * np.kron(N, N) @ r_matrix(params_neg, z) @ np.kron(N, N),
        ),
        "tau_shift_period_over_n": lambda z, R: (
            r_matrix(params_p1, z),
            np.kron(S, eye) @ R @ np.kron(Sinv, eye),
        ),
        "tau_shift_eta_over_n": lambda z, R: (
            r_matrix(params_pe, z),
            e_fn(z) * np.kron(eye, Tkpinv) @ R @ np.kron(eye, Tkp),
        ),
        "general_torsion_shift": lambda z, R: (
            r_matrix(params, z + zeta.value(n, eta)),
            f_fn(params, z, zeta) * np.kron(eye, Cinv) @ R @ np.kron(C, eye),
        ),
    }
    results = []
    zs = _random_z(rng, trials)
    for name, law in laws.items():
        worst = 0.0
        for z in zs:
            R = r_matrix(params, z)
            lhs, rhs = law(z, R)
            worst = max(worst, _rel(lhs - rhs, lhs, rhs))
        results.append(_within(f"transform.{name}", _echo(params, trials=trials, seed=seed),
                               worst, TOL_TRANSFORM))
    return results


@_guard
def det_check(params: AlgebraParams, trials: int = 5, seed: int = 0):
    """Closed-form determinant: ratio at generic points, value 1 at z = 0,
    independence of k, and the nullity-weighted count of determinant zeros
    (one torsion cell carries total nullity n^2)."""
    if tau_excluded(params):
        return [_refused("det.ratio", params, "tau on excluded torsion locus")]
    rng = np.random.default_rng(seed)
    n = params.n
    worst = 0.0
    for z in _random_z(rng, trials):
        ratio = np.linalg.det(r_matrix(params, z)) / det_closed_form(params, z)
        worst = max(worst, abs(ratio - 1))
    at_zero = abs(np.linalg.det(r_matrix(params, 0.0)) - 1.0)
    zk = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.05, 0.05))
    d1 = np.linalg.det(r_matrix(params, zk))
    d2 = np.linalg.det(r_matrix(params.with_k(n - params.k), zk))
    k_resid = abs(d1 - d2) / max(abs(d1), abs(d2))
    null_plus, _ = svd_rank(r_matrix(params, params.tau), params.ranks)
    null_minus, _ = svd_rank(r_matrix(params, -params.tau), params.ranks)
    zero_count = (n * n - null_plus) + (n * n - null_minus)
    return [
        _within("det.ratio", _echo(params, trials=trials, seed=seed), worst, TOL_DET,
                "|det/closed_form - 1|"),
        _within("det.normalized_at_zero", _echo(params), at_zero, TOL_DET, "|det R(0) - 1|"),
        _within("det.k_independence", _echo(params, other_k=n - params.k), k_resid, TOL_DET),
        CheckResult("det.zero_count_per_cell", _echo(params),
                    n * n, zero_count, float(abs(zero_count - n * n)),
                    "pass" if zero_count == n * n else "fail"),
    ]


def _cell_ranks(params: AlgebraParams, sign: int) -> list:
    """Certified (rank, gap) of R(sign*tau + zeta) for every zeta in one
    n x n torsion cell."""
    n, eta = params.n, params.eta
    return [svd_rank(r_matrix(params, sign * params.tau + HalfPeriodPoint(a, b).value(n, eta)),
                     params.ranks)
            for a in range(n) for b in range(n)]


@_guard
def nullity_table(params: AlgebraParams):
    """Nullities of R on the two torsion-translated loci of its
    determinant zeros, over one full torsion cell, plus full rank at
    generic probes."""
    n = params.n
    if tau_excluded(params, 2):
        # only an inequality is available on this locus; record, don't assert
        obs = {}
        try:
            r_plus, _ = svd_rank(r_matrix(params, params.tau), params.ranks)
            obs["nullity_at_tau"] = n * n - r_plus
        except AmbiguousRankError as exc:
            obs["nullity_at_tau"] = f"ambiguous (gap {exc.gap:.2e})"
        return [_refused("nullity.table", params,
                         "tau on half-torsion locus: only a lower bound holds",
                         observed_nullities=obs)]
    expected = {"at_tau_coset": comb(n + 1, 2), "at_minus_tau_coset": comb(n, 2)}
    cells = {"at_tau_coset": _cell_ranks(params, 1),
             "at_minus_tau_coset": _cell_ranks(params, -1)}
    generic = [svd_rank(r_matrix(params, z), params.ranks)
               for z in _random_z(np.random.default_rng(11), 5)]
    observed = {key: sorted({n * n - rank for rank, _ in cell}) for key, cell in cells.items()}
    observed["min_gap"] = min(gap for cell in [*cells.values(), generic] for _, gap in cell)
    ok = (all(observed[key] == [expected[key]] for key in cells)
          and all(rank == n * n for rank, _ in generic))
    return [CheckResult("nullity.table", _echo(params, cell=f"{n}x{n}"),
                        {**expected, "generic": 0}, observed, None,
                        "pass" if ok else "fail")]


@_guard
def twist_rank_check(params: AlgebraParams):
    """Rank invariance under torsion shifts: rank R(tau + zeta) = C(n,2)
    for every zeta in one torsion cell."""
    n = params.n
    if tau_excluded(params, 2):
        return [_refused("twist.rank_invariance", params, "tau on excluded torsion locus")]
    expected = comb(n, 2)
    observed = {rank for rank, _ in _cell_ranks(params, 1)}
    return [CheckResult("twist.rank_invariance", _echo(params, cell=f"{n}x{n}"),
                        expected, sorted(observed), None,
                        "pass" if observed == {expected} else "fail")]


# ---------------------------------------------------------------------------
# Tensor-power checks
# ---------------------------------------------------------------------------


def _f_structure(params: AlgebraParams, sign: int, top: int, label: str,
                 kernel_name: str, expected_rank):
    """Degree-d structure of F_d(-sign*tau) for d = 2..top against the
    relation spaces of R(sign*tau): rank ``expected_rank(d)``, kernel equal
    to the sum of the embedded images of R(sign*tau) (result
    ``kernel_name``), image equal to the intersection of its embedded
    kernels.  R(sign*tau) is decomposed once.  A degree past the dense cap
    is refused before anything is built, and a degree expected to vanish
    gets no angles.  Returns the results and the rank per degree (None
    where refused)."""
    n, policy = params.n, params.ranks
    pair = spectrum(r_matrix(params, sign * params.tau), policy)
    results, ranks = [], []
    for d in range(2, top + 1):
        if note := _beyond_cap(n, d):
            results.append(_refused(f"{label}.rank", params, note, d=d))
            ranks.append(None)
            continue
        spec = scaled_spectrum(f_op(params, d, -sign * params.tau), policy)
        expected = expected_rank(d)
        results.append(_equals(f"{label}.rank", _echo(params, d=d), expected, spec.rank))
        ranks.append(spec.rank)
        if expected == 0:
            continue
        for name, found, copies in (
            (kernel_name, spec.kernel, subspace_sum(embedded_copies(pair.image, n, d), policy)),
            (f"{label}.image_is_kernel_intersection", spec.image,
             subspace_intersect(embedded_copies(pair.kernel, n, d), policy)),
        ):
            _, angle = subspace_equal(found, copies, TOL_ANGLE)
            results.append(_within(name, _echo(params, d=d), angle, TOL_ANGLE,
                                   "principal angle"))
    return results, ranks


@_guard
def hilbert_check(params: AlgebraParams, d_max: int = 4):
    """Degree-d corank structure of F_d(-tau): rank C(n+d-1,d) (polynomial
    Hilbert series), kernel equal to the degree-d relation space (the image
    of R(tau) embedded at every position), image equal to the intersection
    of the embedded kernels of R(tau).  The series is refused when any
    degree was, and when d_max < 2 leaves no degree to check."""
    if d_max < 2:
        return [_refused("hilbert.series", params, "hilbert needs d >= 2", d_max=d_max)]
    if tau_excluded(params, d_max):
        return [_refused("hilbert.rank", params,
                         "tau on excluded torsion locus", d_max=d_max)]
    n = params.n
    results, ranks = _f_structure(params, 1, d_max, "hilbert",
                                  "hilbert.kernel_is_relation_space",
                                  lambda d: comb(n + d - 1, d))
    if None in ranks:
        results.append(_refused("hilbert.series", params, "a degree was refused",
                                d_max=d_max))
    else:
        results.append(_equals("hilbert.series", _echo(params, d_max=d_max),
                               [comb(n + d - 1, d) for d in range(d_max + 1)],
                               [1, n] + ranks))
    return results


@_guard
def dual_hilbert_check(params: AlgebraParams, d_max: int | None = None):
    """Degree-d structure of F_d(tau): rank C(n,d) (exterior Hilbert
    series of the Koszul dual), with total vanishing at d = n+1, and
    kernel/image described by R(-tau).  A degree past the dense cap (d = 6
    at n = 5) is refused before anything is built; the lower degrees still
    run."""
    n = params.n
    top = min(d_max or (n + 1), n + 1)
    if tau_excluded(params, top):
        return [_refused("dual.rank", params, "tau on excluded torsion locus")]
    results, _ = _f_structure(params, -1, top, "dual", "dual.kernel_is_image_sum",
                              lambda d: comb(n, d))
    return results


@_guard
def t_rank_table(params: AlgebraParams, d: int):
    """Rank of the cumulative chain operator with one free argument.

    T_d(z, -tau, ..., -tau) has four rank regimes in z; the mirrored table
    holds for T_d(tau, ..., tau, z)."""
    if tau_excluded(params, d):
        return [_refused("t_table.primary", params, "tau on excluded torsion locus", d=d)]
    n, eta, tau = params.n, params.eta, params.tau
    zgen = 0.171 - 0.083j
    primary = [
        ("generic", zgen, n * comb(n + d - 2, d - 1)),
        ("z=(d-1)tau", (d - 1) * tau, n * comb(n + d - 2, d - 1) - comb(n + d - 1, d)),
        ("z=(d-1)tau+torsion", (d - 1) * tau + 1 / n,
         n * comb(n + d - 2, d - 1) - comb(n + d - 1, d)),
        ("z=-tau", -tau, comb(n + d - 1, d)),
        ("z=-tau+torsion", -tau + eta / n, comb(n + d - 1, d)),
    ]
    for m in range(1, d - 1):
        primary.append((f"z={m}tau", m * tau, 0))
    mirror = [
        ("generic", zgen, n * comb(n, d - 1)),
        ("z=-(d-1)tau", -(d - 1) * tau, n * comb(n, d - 1) - comb(n, d)),
        ("z=tau", tau, comb(n, d)),
    ]
    for m in range(1, d - 1):
        mirror.append((f"z=-{m}tau", -m * tau, 0))
    results = []
    for table, args_of in (
        ("primary", lambda z: [z] + [-tau] * (d - 2)),
        ("mirror", lambda z: [tau] * (d - 2) + [z]),
    ):
        cases = primary if table == "primary" else mirror
        for name, z, expected in cases:
            rank, _ = scaled_rank(t_op(params, d, args_of(z)), params.ranks)
            results.append(_equals(f"t_table.{table}", _echo(params, d=d, case=name),
                                   expected, rank))
    return results


def _ladder(name, echo, pairs, exempt_decay=False) -> CheckResult:
    """The ladder rule over (operator, target) pairs, one per eps from the
    largest down: the raw relative deviation decays monotonically (unless
    ``exempt_decay``) and the scalar-free deviation, the distance to the
    target ray, is below TOL_LIMIT at the smallest eps."""
    raw, structural = [], []
    for A, B in pairs:
        raw.append(float(np.linalg.norm(A - B) / np.linalg.norm(B)))
        c = np.vdot(B, A) / np.vdot(B, B)
        structural.append(float(np.linalg.norm(A - c * B) / np.linalg.norm(B)))
    monotone = exempt_decay or all(raw[i + 1] < raw[i] for i in range(len(raw) - 1))
    return CheckResult(name, echo, f"monotone raw decay; scalar-free deviation < {TOL_LIMIT}",
                       {"raw": raw, "scalar_free": structural}, structural[-1],
                       "pass" if monotone and structural[-1] < TOL_LIMIT else "fail")


@_guard
def limit_check(params: AlgebraParams, d: int = 3, m_range=(-1, 0, 1, 2),
                ladder=(1e-2, 5e-3, 2.5e-3, 1.25e-3)):
    """Degeneration ladders.

    As the deformation parameter eps goes to 0, R_eps(m*eps) approaches
    the skew-symmetrization operator sym_m and F_d(-/+eps) approaches
    prod(m!) times the (anti)symmetrizer.  The raw Frobenius deviation is
    dominated by a scalar phase that itself vanishes linearly, so each
    ladder asserts (a) monotone decay of the raw deviation and (b) the
    scalar-free deviation (which isolates the structural error) below
    TOL_LIMIT at the smallest eps; see :func:`_ladder`.  The ladder
    replaces params.tau, so the results do not depend on it.
    """
    n, k = params.n, params.k
    results = [
        _ladder("limit.skew_symmetrization", {"n": n, "k": k, "m": m, "ladder": list(ladder)},
                ((r_matrix(params.with_tau(eps), m * eps), sym_op(m, n)) for eps in ladder),
                exempt_decay=m == 0)
        for m in m_range
    ]
    norm = float(np.prod([factorial(m) for m in range(1, d)]))
    for sign, target, label in ((-1, symmetrizer(n, d), "symmetrizer"),
                                (1, antisymmetrizer(n, d), "antisymmetrizer")):
        results.append(_ladder(
            f"limit.{label}", {"n": n, "k": k, "d": d, "ladder": list(ladder)},
            ((f_op(params.with_tau(eps), d, sign * eps).dense() / norm, target)
             for eps in ladder)))
    return results


@_guard
def mult_identity_check(params: AlgebraParams,
                        pairs=((1, 1), (1, 2), (2, 1), (2, 2)),
                        seed: int = 0):
    """The operator-array multiplication identity
    M_{b,a}(s*tau).(F_a(s*tau) (x) F_b(s*tau)) = F_{a+b}(s*tau) for both
    signs s, plus an associativity probe of the induced product on the
    images of F."""
    results = []
    tau = params.tau
    for (a, b) in pairs:
        worst = 0.0
        for s in (1, -1):
            M = m_op(params, b, a, s * tau, validate=True)
            FF = f_op(params, a, s * tau).kron(f_op(params, b, s * tau))
            resid = scaled_residual(M @ FF, f_op(params, a + b, s * tau))
            worst = max(worst, resid)
        results.append(_within("mult.identity", _echo(params, a=a, b=b),
                               worst, TOL_RESIDUAL))
    # associativity of the induced product u*v = M_{b,a}(-tau)(u (x) v)
    rng = np.random.default_rng(seed)
    n = params.n

    def rand_image(a):
        F = f_op(params, a, -tau)
        v = F.mat @ (rng.standard_normal(n ** a) + 1j * rng.standard_normal(n ** a))
        return v / np.linalg.norm(v)

    def product(u, a, v, b):
        M = m_op(params, b, a, -tau)
        return M.mat @ np.kron(u, v), M.log_scale

    a, b, c = 1, 2, 1
    u, v, w = rand_image(a), rand_image(b), rand_image(c)
    uv, l1 = product(u, a, v, b)
    lhs, l2 = product(uv, a + b, w, c)
    vw, r1 = product(v, b, w, c)
    rhs, r2 = product(u, a, vw, b + c)
    rhs = rhs * math.exp((r1 + r2) - (l1 + l2))
    assoc = float(np.linalg.norm(lhs - rhs) / max(np.linalg.norm(lhs), 1e-300))
    results.append(_within("mult.associativity_probe",
                           _echo(params, split=[a, b, c], seed=seed), assoc, TOL_RESIDUAL))
    return results


@_guard
def koszul_check(params: AlgebraParams, d: int):
    """Distributivity data of the relation lattice in degree d.

    For every corner ell the dimension of Sig_ell ^ I_{d-1-ell} (built from
    the embedded images of R(tau)) must equal the exact classical oracle
    value; the three-subspace modular condition is checked as a dimension
    equality."""
    if tau_excluded(params, d):
        return [_refused("koszul.corner_dim", params, "tau on excluded torsion locus", d=d)]
    n = params.n
    policy = params.ranks
    W = embedded_copies(spectrum(r_matrix(params, params.tau), policy).image, n, d)
    ambient = Subspace.full(n ** d)
    # Sig[ell] = W_1 + ... + W_ell and Cap[r] = W_{d-r} ^ ... ^ W_{d-1}, each
    # built once; Sig[0] = Cap[0] is the whole space
    Sig = [ambient] + [subspace_sum(W[:ell], policy) for ell in range(1, d)]
    Cap = [ambient] + [subspace_intersect(W[d - 1 - r:], policy) for r in range(1, d)]

    results = []
    for ell in range(d):
        r = d - 1 - ell
        # the two end corners are Cap[d-1] and Sig[d-1] themselves
        if ell == 0:
            corner = Cap[r]
        elif r == 0:
            corner = Sig[ell]
        else:
            corner = subspace_intersect([Sig[ell], Cap[r]], policy)
        if ell == 1:
            sig1_cap = corner
        results.append(_equals("koszul.corner_dim", _echo(params, d=d, ell=ell, r=r),
                               classical_w_dim(n, d, ell, r), corner.dim))
    # modular triple condition: Sig_{ell-1} + I_{r+1} = Sig_ell ^ (Sig_{ell-1} + I_r)
    # (inside this identity the empty sum Sig_0 is the zero space)
    for ell in range(1, d - 1):
        r = d - ell - 1
        if ell == 1:
            # with Sig_0 = 0 the right side is the corner Sig_1 ^ I_r
            lhs, rhs = Cap[r + 1], sig1_cap
        else:
            lhs = subspace_sum([Sig[ell - 1], Cap[r + 1]], policy)
            inner = subspace_sum([Sig[ell - 1], Cap[r]], policy)
            rhs = subspace_intersect([Sig[ell], inner], policy)
        results.append(_equals("koszul.modular_triple", _echo(params, d=d, ell=ell),
                               lhs.dim, rhs.dim))
    return results


@_guard
def frobenius_check(params: AlgebraParams):
    """Non-degenerate pairing structure of the top operator F_n(tau).

    F_n(tau) has rank one and F_{n+1}(tau) vanishes; writing
    F_n(tau)(v_j (x) w_k) = c_{jk} F_n(tau)(x) for a reference x, the
    coefficient matrix for the split i | n-i has rank C(n,i).  The
    vanishing is refused when n^(n+1) exceeds the dense cap."""
    n = params.n
    if tau_excluded(params, n + 1):
        return [_refused("frobenius.pairing_rank", params, "tau on excluded torsion locus")]
    results = []
    Fs = f_op(params, n, params.tau)
    rank, _ = scaled_rank(Fs, params.ranks)
    results.append(_equals("frobenius.top_rank_one", _echo(params), 1, rank))
    if note := _beyond_cap(n, n + 1):
        results.append(_refused("frobenius.vanishing_above_top", params, note, d=n + 1))
    else:
        rank1, _ = scaled_rank(f_op(params, n + 1, params.tau), params.ranks)
        results.append(_equals("frobenius.vanishing_above_top", _echo(params, d=n + 1),
                               0, rank1))
    F = Fs.mat
    xcol = int(np.argmax(np.linalg.norm(F, axis=0)))
    u = F[:, xcol]
    coeffs = (u.conj() @ F) / np.vdot(u, F[:, xcol])
    for i in range(n + 1):
        C = coeffs.reshape(n ** i, n ** (n - i))
        r, _ = svd_rank(C, params.ranks)
        results.append(_equals("frobenius.pairing_rank", _echo(params, split=f"{i}|{n - i}"),
                               comb(n, i), r))
    return results


@_guard
def dual_algebra_check(params: AlgebraParams, seed: int = 0):
    """Transpose duality: R_{n,k,tau}(z)^T = e(-n^2 z) R_{n,n-k,-tau}(-z),
    and the induced match of relation spaces between the (n,k) algebra and
    its (n, n-k) partner."""
    n = params.n
    rng = np.random.default_rng(seed)
    worst = max(dual_transpose_check(params, z) for z in _random_z(rng, 5))
    partner = make_params(n, n - params.k, eta=params.eta, tau=-params.tau,
                          ranks=params.ranks)
    # R(tau)^T has the rank of R(tau): one SVD gives the image and the nullity
    spec = spectrum(r_matrix(params, params.tau).T, params.ranks)
    partner_image = image(r_matrix(partner, -params.tau), params.ranks)
    _, angle = subspace_equal(spec.image, partner_image, TOL_ANGLE)
    return [
        _within("dual_algebra.transpose_law", _echo(params, seed=seed), worst, TOL_TRANSFORM),
        _within("dual_algebra.relation_space_match", _echo(params, partner_k=n - params.k),
                angle, TOL_ANGLE, "principal angle"),
        _equals("dual_algebra.kernel_dim_at_tau", _echo(params), comb(n + 1, 2),
                n * n - spec.rank),
    ]


@_guard
def weight_family_check(params: AlgebraParams, trials: int = 3, seed: int = 0):
    """Weight-function operator family: value 1 at z = 0, the braid-form
    Yang-Baxter identity for the one-parameter family, and the relation
    tying the generalized family back to R."""
    rng = np.random.default_rng(seed)
    n = params.n
    P = basis_ops(params)["P"]
    worst_rel = 0.0
    for z in _random_z(rng, trials):
        Sk = weight_op_k(params, -n * z)
        rhs = n * e_fn(0.5 * n * (n + 1) * z) * P @ r_matrix(params, z)
        worst_rel = max(worst_rel, _rel(Sk - rhs, Sk, rhs))
    worst_qybe1 = 0.0
    for _ in range(trials):
        u, v = _random_z(rng, 2)
        Su, Sv, Suv = weight_op(params, u), weight_op(params, v), weight_op(params, u + v)
        worst_qybe1 = max(worst_qybe1, _braid_residual(n, Su, Sv, Suv))
    at_zero = float(np.max(np.abs(weight_op(params, 0.0) - n * P))) / n
    return [
        _within("weights.relation_to_r", _echo(params, trials=trials, seed=seed),
                worst_rel, TOL_RESIDUAL),
        _within("weights.qybe_one_parameter", _echo(params, trials=trials),
                worst_qybe1, TOL_RESIDUAL),
        _within("weights.swap_at_zero", _echo(params), at_zero, 1e-10),
    ]


@_guard
def theta_property_check(params: AlgebraParams, seed: int = 0):
    """Quasi-periodicity of the theta kernel, the characteristic shift law,
    zero loci, and consistency of the order-n factorization constant."""
    n, eta, ctx = params.n, params.eta, params.theta
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(4):
        z = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.2, 0.2))
        tz = theta1(z, ctx)
        worst = max(worst, abs(theta1(z + 1, ctx) - tz) / abs(tz))
        worst = max(worst, abs(theta1(z + eta, ctx) + e_fn(-z) * tz) / abs(tz))
        for alpha in range(n):
            ta = theta_alpha(alpha, z, ctx)
            worst = max(worst,
                        abs(theta_alpha(alpha, z + 1 / n, ctx) - e_fn(alpha / n) * ta)
                        / abs(ta))
        worst = max(worst, theta_char_shift_check(0.3, 0.6, 2, -1, z, eta))
    zero = abs(theta1(0.0, ctx))
    alpha_zero = abs(theta_alpha(1, -eta / n + 1 / n, ctx))
    # factor constant agrees across its sample points
    c = factor_constant(ctx)
    worst_c = 0.0
    for alpha, z in ((0, 0.21 + 0.11j), (1, -0.17 + 0.23j)):
        lhs = theta_char(alpha / n + 0.5, 0.5, z, n * eta)
        rhs = e_fn(-0.5 * z) * theta_alpha(alpha, z / n, ctx) / c
        worst_c = max(worst_c, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    return [
        _within("theta.quasi_periodicity", {"n": n, "eta": [eta.real, eta.imag]},
                worst, TOL_THETA),
        _within("theta.zero_locus", {"n": n}, max(zero, alpha_zero), TOL_THETA,
                "|values at zeros|"),
        _within("theta.factorization_constant", {"n": n}, worst_c, TOL_THETA),
    ]


def shuffle_decomposition_check(max_total: int = 4):
    """Exact group-algebra shuffle decomposition for all a+b <= max_total."""
    return [
        _equals("shuffle.decomposition", {"a": a, "b": total - a}, True,
                shuffle_identity_check(a, total - a))
        for total in range(2, max_total + 1)
        for a in range(1, total)
    ]


# ---------------------------------------------------------------------------
# Suite assembly
# ---------------------------------------------------------------------------


def run_suite(params: AlgebraParams, checks, d_max: int = 4, seed: int = 0) -> list:
    """Run the named check groups against one parameter set.

    Each group is timed once; its wall time goes on its first result in run
    order and every other result keeps 0.0.  The lambdas look the check
    functions up at call time, so a check rebound on this module (a tracer,
    a recorder) is the one that runs.
    """
    dispatch = {
        "qybe": lambda: qybe_check(params, seed=seed),
        "transforms": lambda: transform_check(params, seed=seed),
        "det": lambda: det_check(params, seed=seed),
        "inverse": lambda: inverse_pair_check(params, seed=seed),
        "nullity": lambda: nullity_table(params),
        "hilbert": lambda: hilbert_check(params, d_max=d_max),
        "dual": lambda: dual_hilbert_check(params, d_max=d_max + 1),
        "koszul": lambda: (sum((koszul_check(params, d) for d in range(3, d_max + 1)), [])
                           or [_refused("koszul.corner_dim", params, "koszul needs d >= 3",
                                        d_max=d_max)]),
        "frobenius": lambda: frobenius_check(params),
        "limits": lambda: limit_check(params),
        "twist": lambda: twist_rank_check(params),
        "t_table": lambda: sum((t_rank_table(params, d) for d in (3, 4)), []),
        "mult": lambda: mult_identity_check(params, seed=seed),
        "dual_algebra": lambda: dual_algebra_check(params, seed=seed),
        "weights": lambda: weight_family_check(params, seed=seed),
        "theta": lambda: theta_property_check(params, seed=seed),
        "shuffle": lambda: shuffle_decomposition_check(),
    }
    unknown = [c for c in checks if c not in dispatch]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}")
    results = []
    for name in checks:
        t0 = time.perf_counter()
        group = dispatch[name]()
        if group:
            group[0].wall_time = time.perf_counter() - t0
        results.extend(group)
    return results


ALL_CHECKS = [
    "theta", "qybe", "transforms", "det", "inverse", "nullity", "twist",
    "hilbert", "dual", "t_table", "mult", "koszul", "frobenius",
    "dual_algebra", "weights", "limits", "shuffle",
]
