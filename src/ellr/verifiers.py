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
residual, sine bound or deviation iff it is strictly below its tolerance
(a NaN fails), recording the value as both observation and residual;
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
import sys
import time
from dataclasses import dataclass, field, fields
from math import comb, factorial

import numpy as np

from .theta import (
    TWO_PI_I,
    SingularParameterError,
    e_fn,
    theta1,
    theta_alpha_rows,
    theta_char,
    theta_char_shift_check,
    factor_constant,
    nearest_lattice_distance,
)
from .linalg import (
    AmbiguousRankError,
    NonFiniteMatrixError,
    require_finite,
    singular_cut,
    svd_rank,
    svd_ranks,
    image,
    kernel,
    kernel_span_bound,
)
from .rmatrix import (
    AlgebraParams,
    HalfPeriodPoint,
    TorsionParameterError,
    basis_ops,
    torsion_op,
    r_matrix,
    r_matrices,
    sym_op,
    b_fn,
    f_fn,
    weight_ops,
    det_closed_form,
    transpose_residual,
)
from .tensorops import (
    BeyondCapError,
    SymmetryError,
    beyond_cap,
    certify_shift,
    grade_orbits,
    scaled_residual,
    scaled_cut,
    scaled_rank,
    grade_index,
    pair_blocks,
    site_product,
    symmetrizer,
    antisymmetrizer,
    f_factors,
    factor_mats,
    r_product,
    m_factors,
    t_ranks,
    copy_stacks,
    lattice_dims,
)
from .classical import classical_w_dim, shuffle_identity_check

VERSION = "0.1.0"

TOL_RESIDUAL = 1e-8
TOL_TRANSFORM = 1e-9
TOL_DET = 1e-6
TOL_ANGLE = 1e-6
TOL_LIMIT = 1e-2
TOL_THETA = 1e-10
M_AGREEMENT_TOL = 1e-8  # row-wise against column-wise assembly of M_{a,b}
EXCLUSION_DISTANCE = 1e-8
YB_BATCH_ENTRIES = 2 ** 12  # per graded V^(x)3 product stack of a Yang-Baxter check


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
        # one string per distinct name, however many results carry it
        self.name = sys.intern(self.name)
        # numpy scalars leave a check as Python floats: the CSV column would
        # otherwise hold the numpy repr, np.float64(...)
        if self.residual is not None:
            self.residual = float(self.residual)
        if isinstance(self.observed, numbers.Real) and not isinstance(
            self.observed, numbers.Integral
        ):
            self.observed = float(self.observed)

    def to_dict(self) -> dict:
        # the field values themselves, not deep copies: a reader that
        # rewrites a row replaces its values, as emit does wall_time
        return {f.name: getattr(self, f.name) for f in fields(self)}


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
    """The largest over the trials (the leading axis) of the relative
    residual max|diff| / max(max|ref|), trial by trial."""
    axes = tuple(range(1, diff.ndim))
    scale = np.max([np.max(np.abs(r), axis=axes) for r in refs], axis=0)
    return float(np.max(np.max(np.abs(diff), axis=axes) / np.maximum(scale, 1e-300)))


def _trial_batches(n: int, trials: int) -> list:
    """Slices of the trials of a Yang-Baxter check, each at most
    YB_BATCH_ENTRIES entries (n^5 a trial) per V^{(x)3} product stack,
    which bounds the check's peak memory."""
    step = max(1, YB_BATCH_ENTRIES // n ** 5)
    return [slice(start, start + step) for start in range(0, trials, step)]


def _yb_residual(n: int, lhs, rhs) -> float:
    """The largest relative residual over the trials between two site
    products on V^{(x)3}, the trials the leading axis of every factor."""
    lhs, rhs = site_product(n, 3, lhs), site_product(n, 3, rhs)
    return _rel(lhs - rhs, lhs, rhs)


def _braid_residual(n: int, Su, Sv, Suv) -> float:
    """The largest relative residual over the trials of the braid-form
    Yang-Baxter identity

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


def _guard(fn):
    """Turn an exception escaping a check into a single result: an
    AmbiguousRankError into an ambiguous status, a TorsionParameterError or
    SingularParameterError (tau on a locus the statements exclude), a
    NonFiniteMatrixError (an overflowed matrix, no rank to read), a
    SymmetryError (a factor of a rank product that breaks the T (x) T
    symmetry its representative grades rest on), a BeyondCapError (a tensor
    power past the dense cap; its note names n^d, and its degree is echoed
    as d) or an OverflowError (a scalar factor such as e(z) past the float
    range) into a refused status.  So no check ends past the cap in a
    traceback; only a check that spans several degrees consults
    :func:`beyond_cap` itself, to refuse per degree and still run the lower
    ones."""

    def wrapper(params, *args, **kwargs):
        try:
            return fn(params, *args, **kwargs)
        except AmbiguousRankError as exc:
            return [CheckResult(fn.__name__, _echo(params), "certified rank",
                                f"gap {exc.gap:.3e}", None, "ambiguous")]
        except BeyondCapError as exc:
            return [_refused(fn.__name__, params, str(exc), d=exc.d)]
        except (TorsionParameterError, SingularParameterError, NonFiniteMatrixError,
                SymmetryError) as exc:
            return [_refused(fn.__name__, params, str(exc))]
        except OverflowError as exc:
            return [_refused(fn.__name__, params, f"overflow: {exc}")]

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
    u, v = np.reshape(_random_z(rng, 2 * trials), (trials, 2)).T
    worst2, worst1 = [], []
    for part in _trial_batches(n, trials):
        # R(u), R(v), R(u+v) over a batch of trials, in one build
        Ru, Rv, Ruv = r_matrices(params, np.concatenate((u[part], v[part], (u + v)[part]))
                                 ).reshape(3, -1, n * n, n * n)
        worst2.append(_yb_residual(n, [(Ru, (1, 2)), (Ruv, (2, 3)), (Rv, (1, 2))],
                                   [(Rv, (2, 3)), (Ruv, (1, 2)), (Ru, (2, 3))]))
        worst1.append(_braid_residual(n, P @ Ru, P @ Rv, P @ Ruv))
    worst2, worst1 = float(np.max(worst2)), float(np.max(worst1))
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
    zs = _random_z(rng, trials)
    mats = r_matrices(params, zs + [-z for z in zs] + [0.0, params.tau, -params.tau])
    require_finite(mats)
    Rz, Rmz = mats[:2 * trials].reshape(2, trials, dim, dim)
    R0, Rt, Rmt = mats[2 * trials:]
    prod = Rz @ Rmz
    worst = _rel(prod - prod[:, :1, :1] * np.eye(dim), prod)
    at_zero = float(np.max(np.abs(R0 - np.eye(dim))))
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

    # R(z) and the left-hand sides at params in one call over every trial,
    # and one call for each shifted params
    zs = _random_z(rng, trials)
    shift = zeta.value(n, eta)
    R, R_plus_1n, R_plus_eta_n, R_minus, R_zeta = r_matrices(params, [
        w for ws in (zs, [z + 1 / n for z in zs], [z + eta / n for z in zs],
                     [-z for z in zs], [z + shift for z in zs]) for w in ws
    ]).reshape(5, trials, n * n, n * n)
    R_neg, R_p1, R_pe = (r_matrices(p, zs) for p in (params_neg, params_p1, params_pe))

    def per_trial(fn):  # a scalar per trial, broadcast over the stacks
        return np.array([fn(z) for z in zs])[:, None, None]

    NN = np.kron(N, N)
    # law: (left-hand stack, right-hand stack), both over zs, the right-hand
    # stacks built one law at a time
    laws = {
        "shift_period_over_n": (R_plus_1n, lambda: (
            (-1) ** (n - 1) * np.kron(eye, Skinv) @ R @ np.kron(Sk, eye))),
        "shift_eta_over_n": (R_plus_eta_n, lambda: (
            per_trial(lambda z: b_fn(params, z)) * np.kron(eye, Tinv) @ R @ np.kron(T, eye))),
        "negation_swap": (R_minus, lambda: (
            per_trial(lambda z: e_fn(n * n * z)) * P @ R_neg @ P)),
        "negation_index_reversal": (R_minus, lambda: (
            per_trial(lambda z: e_fn(n * n * z)) * NN @ R_neg @ NN)),
        "tau_shift_period_over_n": (R_p1, lambda: (
            np.kron(S, eye) @ R @ np.kron(Sinv, eye))),
        "tau_shift_eta_over_n": (R_pe, lambda: (
            per_trial(e_fn) * np.kron(eye, Tkpinv) @ R @ np.kron(eye, Tkp))),
        "general_torsion_shift": (R_zeta, lambda: (
            per_trial(lambda z: f_fn(params, z, zeta)) * np.kron(eye, Cinv) @ R
            @ np.kron(C, eye))),
    }
    results = []
    for name, (lhs, rhs_of) in laws.items():
        rhs = rhs_of()
        results.append(_within(f"transform.{name}", _echo(params, trials=trials, seed=seed),
                               _rel(lhs - rhs, lhs, rhs), TOL_TRANSFORM))
    return results


@_guard
def det_check(params: AlgebraParams, trials: int = 5, seed: int = 0):
    """Closed-form determinant: ratio at generic points, value 1 at z = 0,
    independence of k, and the nullity-weighted count of determinant zeros
    (one torsion cell carries total nullity n^2).  The count is refused on
    the half-torsion locus, where R(tau) and R(-tau) share a torsion cell,
    as ``nullity`` and ``twist`` refuse theirs."""
    if tau_excluded(params):
        return [_refused("det.ratio", params, "tau on excluded torsion locus")]
    rng = np.random.default_rng(seed)
    n = params.n
    zs = _random_z(rng, trials)
    zk = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.05, 0.05))
    mats = r_matrices(params, zs + [0.0, zk, params.tau, -params.tau])
    dets = np.linalg.det(mats[:trials])
    worst = max(abs(det / complex(closed) - 1)
                for det, closed in zip(dets, det_closed_form(params, zs)))
    R0, Rk, Rt, Rmt = mats[trials:]
    at_zero = abs(np.linalg.det(R0) - 1.0)
    d1 = np.linalg.det(Rk)
    d2 = np.linalg.det(r_matrix(params.with_k(n - params.k), zk))
    k_resid = abs(d1 - d2) / max(abs(d1), abs(d2))
    results = [
        _within("det.ratio", _echo(params, trials=trials, seed=seed), worst, TOL_DET,
                "|det/closed_form - 1|"),
        _within("det.normalized_at_zero", _echo(params), at_zero, TOL_DET, "|det R(0) - 1|"),
        _within("det.k_independence", _echo(params, other_k=n - params.k), k_resid, TOL_DET),
    ]
    if tau_excluded(params, 2):
        return results + [_refused("det.zero_count_per_cell", params,
                                   "tau on half-torsion locus: R(tau) and R(-tau) share a cell")]
    (rank_plus, _), (rank_minus, _) = svd_ranks(pair_blocks(np.array([Rt, Rmt]), n),
                                                params.ranks)
    zero_count = (n * n - rank_plus) + (n * n - rank_minus)
    return results + [CheckResult("det.zero_count_per_cell", _echo(params),
                                  n * n, zero_count, float(abs(zero_count - n * n)),
                                  "pass" if zero_count == n * n else "fail")]


def _cell_ranks(params: AlgebraParams, sign: int) -> list:
    """Certified (rank, gap) of R(sign*tau + zeta) for every zeta in one
    n x n torsion cell, from the pair blocks of each."""
    n, eta = params.n, params.eta
    cell = r_matrices(params, [sign * params.tau + HalfPeriodPoint(a, b).value(n, eta)
                               for a in range(n) for b in range(n)])
    return svd_ranks(pair_blocks(cell, n), params.ranks)


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
            r_plus, _ = svd_rank(pair_blocks(r_matrix(params, params.tau), n), params.ranks)
            obs["nullity_at_tau"] = n * n - r_plus
        except AmbiguousRankError as exc:
            obs["nullity_at_tau"] = f"ambiguous (gap {exc.gap:.2e})"
        return [_refused("nullity.table", params,
                         "tau on half-torsion locus: only a lower bound holds",
                         observed_nullities=obs)]
    expected = {"at_tau_coset": comb(n + 1, 2), "at_minus_tau_coset": comb(n, 2)}
    cells = {"at_tau_coset": _cell_ranks(params, 1),
             "at_minus_tau_coset": _cell_ranks(params, -1)}
    probes = r_matrices(params, _random_z(np.random.default_rng(11), 5))
    generic = svd_ranks(pair_blocks(probes, n), params.ranks)
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
    kernels, that is ker F_d^H equal to the sum of the copies of
    im R(sign*tau)^H, both by :func:`kernel_span_bound` over the grade
    blocks, from the pair blocks of R(sign*tau) and R^H.  Every product,
    copy stack and rank holds the representative grades of
    :func:`grade_orbits` alone, R(sign*tau) and the factors of F_d certified
    to commute with T (x) T.  F_d takes one values-only SVD, shared by both
    sides.  A degree past the dense cap is refused before its product is
    built, and a degree expected to vanish is compared with nothing.
    R(sign*tau) and the R's of every F_d come from one build.  Returns the
    results and the rank per degree (None where refused)."""
    n, policy, tau = params.n, params.ranks, sign * params.tau
    factors = {d: f_factors(d, -tau) for d in range(2, top + 1)}
    mats = factor_mats(params, [(tau, 1)], *factors.values())
    blocks = pair_blocks(mats[tau], n)
    certify_shift(blocks)
    pair = image(blocks, policy)
    coimage = image(blocks.conj().swapaxes(-1, -2), policy)
    results, ranks = [], []
    for d in range(2, top + 1):
        if note := beyond_cap(n, d):
            results.append(_refused(f"{label}.rank", params, note, d=d))
            ranks.append(None)
            continue
        grades, copies = grade_orbits(n, d)
        F = r_product(n, d, factors[d], mats, grades)
        cut = scaled_cut(F, policy, copies)
        expected = expected_rank(d)
        results.append(_equals(f"{label}.rank", _echo(params, d=d), expected, cut[0]))
        ranks.append(cut[0])
        if expected == 0:
            continue
        # each side's copies are built when it is compared, so one is held at a time
        for name, adjoint, W in ((kernel_name, False, pair),
                                 (f"{label}.image_is_kernel_intersection", True, coimage)):
            M = F.mat.conj().swapaxes(-1, -2) if adjoint else F.mat
            bound = kernel_span_bound(M, copy_stacks(W, n, d, grades)[0], policy, cut, copies)
            results.append(_within(name, _echo(params, d=d), bound, TOL_ANGLE, "sine bound"))
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
    run.  d_max defaults to n+1, and a top degree below 2 leaves no degree
    to check: refused."""
    n = params.n
    top = n + 1 if d_max is None else min(d_max, n + 1)
    if top < 2:
        return [_refused("dual.rank", params, "dual needs d >= 2", d_max=d_max)]
    if tau_excluded(params, top):
        return [_refused("dual.rank", params, "tau on excluded torsion locus")]
    results, _ = _f_structure(params, -1, top, "dual", "dual.kernel_is_image_sum",
                              lambda d: comb(n, d))
    return results


@_guard
def t_rank_table(params: AlgebraParams, d: int):
    """Rank of the cumulative chain operator with one free argument.

    T_d(z, -tau, ..., -tau) has four rank regimes in z; the mirrored table
    holds for T_d(tau, ..., tau, z).  Every case of both tables is
    certified in one batch (:func:`t_ranks`)."""
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
    cases = [("primary", name, [z] + [-tau] * (d - 2), expected)
             for name, z, expected in primary] + [
        ("mirror", name, [tau] * (d - 2) + [z], expected) for name, z, expected in mirror]
    ranks = t_ranks(params, d, [zs for _, _, zs, _ in cases], params.ranks)
    return [_equals(f"t_table.{table}", _echo(params, d=d, case=name), expected, rank)
            for (table, name, _, expected), (rank, _) in zip(cases, ranks)]


def _deviation(A, B) -> tuple:
    """The raw relative deviation of A from the target B, and the
    scalar-free one, the distance to the target ray."""
    raw = float(np.linalg.norm(A - B) / np.linalg.norm(B))
    c = np.vdot(B, A) / np.vdot(B, B)
    return raw, float(np.linalg.norm(A - c * B) / np.linalg.norm(B))


def _ladder(name, echo, deviations, exempt_decay=False) -> CheckResult:
    """The ladder rule over the (raw, scalar-free) :func:`_deviation` at
    each eps from the largest down: the raw deviation decays monotonically
    (unless ``exempt_decay``) and the scalar-free one is below TOL_LIMIT at
    the smallest eps."""
    raw, structural = map(list, zip(*deviations))
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
    replaces params.tau, so the results do not depend on it.  Each rung
    builds all its R's, those of R_eps(m*eps) and of both F_d, in one call.
    """
    n, k = params.n, params.k
    norm = float(np.prod([factorial(m) for m in range(1, d)]))
    idx = grade_index(n, d)
    # F_d and its targets keep the total grade: compared grade block by block
    targets = {sign: target(n, d)[idx[:, :, None], idx[:, None, :]]
               for sign, target in ((-1, symmetrizer), (1, antisymmetrizer))}
    ladders = [("limit.skew_symmetrization", {"n": n, "k": k, "m": m, "ladder": list(ladder)},
                m == 0) for m in m_range] + [
        (f"limit.{label}", {"n": n, "k": k, "d": d, "ladder": list(ladder)}, False)
        for label in ("symmetrizer", "antisymmetrizer")]
    rungs = []  # per rung, the deviation on every ladder
    for eps in ladder:
        factors = {sign: f_factors(d, sign * eps) for sign in targets}
        args = [m * eps for m in m_range] + [arg for fs in factors.values() for arg, _ in fs]
        mats = r_matrices(params.with_tau(eps), args)
        Fs = {sign: r_product(n, d, fs, dict(zip(args, mats))) for sign, fs in factors.items()}
        rungs.append([_deviation(R, sym_op(m, n)) for R, m in zip(mats, m_range)] + [
            _deviation(math.exp(F.log_scale) * F.mat / norm, targets[sign])
            for sign, F in Fs.items()])
    return [_ladder(name, echo, [rung[i] for rung in rungs], exempt_decay)
            for i, (name, echo, exempt_decay) in enumerate(ladders)]


@_guard
def mult_identity_check(params: AlgebraParams,
                        pairs=((1, 1), (1, 2), (2, 1), (2, 2)),
                        seed: int = 0):
    """The operator-array multiplication identity
    M_{b,a}(s*tau).(F_a(s*tau) (x) F_b(s*tau)) = F_{a+b}(s*tau) for both
    signs s, plus an associativity probe of the induced product on the
    images of F.  Every R of the check comes from one build.  A pair whose
    row-wise and column-wise assemblies of M differ by more than
    M_AGREEMENT_TOL fails with that difference as its residual, and a pair
    whose degree a+b is past the dense cap is refused.  The probe
    multiplies over R(m*tau), m up to 3, in degree 4, each product applied
    to its vector's grade blocks, and is refused where some m*n*tau,
    m <= 3, is on the lattice or where degree 4 is past the cap; the other
    results still run."""
    n, tau = params.n, params.tau
    a, b, c = 1, 2, 1  # the probe's split
    # per pair and sign: both assemblies of M_{b,a}, F_a (x) F_b (the
    # factors of F_a, then those of F_b moved by a) and F_{a+b}
    identity = {(p, q, s): (*m_factors(q, p, s * tau),
                            f_factors(p, s * tau) + f_factors(q, s * tau, p),
                            f_factors(p + q, s * tau))
                for p, q in pairs for s in (1, -1)}
    probe_note = ("tau on excluded torsion locus" if tau_excluded(params, 3)
                  else beyond_cap(n, a + b + c))
    images = {} if probe_note else {x: f_factors(x, -tau) for x in (a, b, c)}
    products = {} if probe_note else {(x, y): m_factors(y, x, -tau)[0] for x, y in (
        (a, b), (a + b, c), (b, c), (a, b + c))}
    mats = factor_mats(params, *(fs for group in identity.values() for fs in group),
                       *images.values(), *products.values())
    results = []
    for p, q in pairs:
        if note := beyond_cap(n, p + q):
            results.append(_refused("mult.identity", params, note, a=p, b=q))
            continue
        worst = agree = 0.0
        for s in (1, -1):
            M, alt, pair, whole = (r_product(n, p + q, fs, mats) for fs in identity[p, q, s])
            agree = max(agree, scaled_residual(M, alt))
            worst = max(worst, scaled_residual(M @ pair, whole))
        results.append(_within("mult.identity", _echo(params, a=p, b=q),
                               agree if agree > M_AGREEMENT_TOL else worst, TOL_RESIDUAL))
    if probe_note:
        return results + [_refused("mult.associativity_probe", params, probe_note,
                                   split=[a, b, c])]
    # associativity of the induced product u*v = M_{b,a}(-tau)(u (x) v)
    rng = np.random.default_rng(seed)

    def apply(op, x, vec):
        """op's grade blocks on vec's: gathered through grade_index, one
        batched matvec, scattered back, with no n^x x n^x matrix."""
        idx, out = grade_index(n, x), np.empty(n ** x, dtype=complex)
        out[idx] = (op.mat @ vec[idx][..., None])[..., 0]
        return out

    def rand_image(x):
        v = apply(r_product(n, x, images[x], mats), x,
                  rng.standard_normal(n ** x) + 1j * rng.standard_normal(n ** x))
        return v / np.linalg.norm(v)

    def product(u, x, v, y):
        M = r_product(n, x + y, products[x, y], mats)
        return apply(M, x + y, np.kron(u, v)), M.log_scale

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
    value, and the two sides of each modular triple must have equal
    dimensions, every one read from certified ranks (:func:`lattice_dims`)
    with (im R)^perp = ker R^H from the pair blocks of R^H, over the
    representative grades of :func:`grade_orbits`, R(tau) certified to
    commute with T (x) T."""
    if tau_excluded(params, d):
        return [_refused("koszul.corner_dim", params, "tau on excluded torsion locus", d=d)]
    n, policy = params.n, params.ranks
    blocks = pair_blocks(r_matrix(params, params.tau), n)
    certify_shift(blocks)
    corners, triples = lattice_dims(image(blocks, policy),
                                    kernel(blocks.conj().swapaxes(-1, -2), policy), n, d, policy,
                                    grade_orbits(n, d)[0])
    return [_equals("koszul.corner_dim", _echo(params, d=d, ell=ell, r=d - 1 - ell),
                    classical_w_dim(n, d, ell, d - 1 - ell), dim)
            for ell, dim in enumerate(corners)] + [
        _equals("koszul.modular_triple", _echo(params, d=d, ell=ell), lhs, rhs)
        for ell, (lhs, rhs) in enumerate(triples, start=1)]


@_guard
def frobenius_check(params: AlgebraParams):
    """Non-degenerate pairing structure of the top operator F_n(tau).

    F_n(tau) has rank one and F_{n+1}(tau) vanishes; writing
    F_n(tau)(v_j (x) w_k) = c_{jk} F_n(tau)(x) for a reference x, the
    coefficient matrix for the split i | n-i has rank C(n,i).  Both F come
    from one build, F_{n+1} on its gcd(n, n+1) = 1 representative grade.
    The vanishing is refused when n^(n+1) is past the dense cap (n = 5),
    and the whole check when n^n is (n >= 6)."""
    n = params.n
    if tau_excluded(params, n + 1):
        return [_refused("frobenius.pairing_rank", params, "tau on excluded torsion locus")]
    results = []
    factors = {d: f_factors(d, params.tau) for d in (n, n + 1)}
    mats = factor_mats(params, *factors.values())
    # gcd(n, n) = n: every grade of F_n, which the pairing below reads
    Fs = r_product(n, n, factors[n], mats, n)
    rank, _ = scaled_rank(Fs, params.ranks)
    results.append(_equals("frobenius.top_rank_one", _echo(params), 1, rank))
    if note := beyond_cap(n, n + 1):
        results.append(_refused("frobenius.vanishing_above_top", params, note, d=n + 1))
    else:
        grades, copies = grade_orbits(n, n + 1)
        rank1, _ = scaled_rank(r_product(n, n + 1, factors[n + 1], mats, grades),
                               params.ranks, copies)
        results.append(_equals("frobenius.vanishing_above_top", _echo(params, d=n + 1),
                               0, rank1))
    # the reference u = F x is the column of largest norm, in grade block g;
    # F keeps the grade, so u^H F is exactly 0 on every other grade's columns
    norms = np.linalg.norm(Fs.mat, axis=1)
    g, xcol = np.unravel_index(np.argmax(norms), norms.shape)
    F = Fs.mat[g]
    u = F[:, xcol]
    coeffs = np.zeros(n ** n, dtype=complex)
    coeffs[grade_index(n, n)[g]] = (u.conj() @ F) / np.vdot(u, u)
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
    n, tau = params.n, params.tau
    zs = _random_z(np.random.default_rng(seed), 5)
    # the transpose partner (n, n-k, -tau) is also the relation-space
    # partner: one build on each side, R(zs) with R(tau), R'(-zs) with R'(-tau)
    partner = AlgebraParams(n, n - params.k, -tau, params.theta, params.ranks)
    *R, R_tau = r_matrices(params, zs + [tau])
    *R_dual, R_dual_tau = r_matrices(partner, [-z for z in zs] + [-tau])
    worst = transpose_residual(n, zs, R, R_dual)
    # im R(tau)^T = im R'(-tau) iff ker (R(tau)^T)^H = ker R'(-tau)^H, grade
    # by grade from the pair blocks; (R^T)^H = conj R has the rank of R(tau)
    conj_blocks = pair_blocks(R_tau.conj(), n)
    cut = singular_cut(conj_blocks, params.ranks)
    partner_kernel = kernel(pair_blocks(R_dual_tau, n).conj().swapaxes(-1, -2), params.ranks)
    bound = kernel_span_bound(conj_blocks, partner_kernel, params.ranks, cut)
    return [
        _within("dual_algebra.transpose_law", _echo(params, seed=seed), worst, TOL_TRANSFORM),
        _within("dual_algebra.relation_space_match", _echo(params, partner_k=n - params.k),
                bound, TOL_ANGLE, "sine bound"),
        _equals("dual_algebra.kernel_dim_at_tau", _echo(params), comb(n + 1, 2),
                n * n - cut[0]),
    ]


@_guard
def weight_family_check(params: AlgebraParams, trials: int = 3, seed: int = 0):
    """Weight-function operator family: value 1 at z = 0, the braid-form
    Yang-Baxter identity for the one-parameter family, and the relation
    tying the generalized family back to R."""
    rng = np.random.default_rng(seed)
    n = params.n
    P = basis_ops(params)["P"]
    zs = _random_z(rng, trials)
    Sk = weight_ops(params, [-n * z for z in zs], -params.k_prime)
    scalars = np.array([n * e_fn(0.5 * n * (n + 1) * z) for z in zs])[:, None, None]
    rhs = scalars * P @ r_matrices(params, zs)
    worst_rel = _rel(Sk - rhs, Sk, rhs)
    u, v = np.reshape(_random_z(rng, 2 * trials), (trials, 2)).T
    # S(u), S(v), S(u+v) over every trial and S(0) in one build; the
    # V^{(x)3} products still run over batches of trials
    S = weight_ops(params, np.concatenate((u, v, u + v, [0.0])))
    Su, Sv, Suv = S[:-1].reshape(3, trials, n * n, n * n)
    worst_qybe1 = float(np.max([_braid_residual(n, Su[part], Sv[part], Suv[part])
                                for part in _trial_batches(n, trials)]))
    at_zero = float(np.max(np.abs(S[-1] - n * P))) / n
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
    z = np.array([complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.2, 0.2)) for _ in range(4)])
    # the factorization probes (alpha, w)
    alpha, w = np.array([0, 1]), np.array([0.21 + 0.11j, -0.17 + 0.23j])
    # one series per function and lattice: theta1 at the samples, their
    # shifts by 1 and eta, and 0; theta_alpha at the samples, their shifts
    # by 1/n, the zero -eta/n + 1/n and the probes w/n
    t1 = theta1(np.concatenate((z, z + 1, z + eta, [0.0])), ctx)
    tz, tz_period, tz_eta = t1[:-1].reshape(3, -1)
    rows = theta_alpha_rows(np.concatenate((z, z + 1 / n, [-eta / n + 1 / n], w / n)), ctx)
    ta, shifted = rows[:2 * z.size].reshape(2, z.size, n)
    alpha_zero, probes = abs(rows[2 * z.size, 1]), rows[2 * z.size + 1:]
    worst = float(np.max([
        *(np.abs(tz_period - tz) / np.abs(tz)),
        *(np.abs(tz_eta + np.exp(TWO_PI_I * -z) * tz) / np.abs(tz)),
        *(np.abs(shifted - np.exp(TWO_PI_I * (np.arange(n) / n)) * ta) / np.abs(ta)).ravel(),
        *theta_char_shift_check(0.3, 0.6, 2, -1, z, eta),
    ]))
    zero = abs(t1[-1])
    # factor constant agrees across its sample points
    c = factor_constant(ctx)
    lhs = theta_char(alpha / n + 0.5, 0.5, w, n * eta)
    rhs = np.exp(TWO_PI_I * (-0.5 * w)) * probes[[0, 1], alpha] / c
    worst_c = float(np.max(np.abs(lhs - rhs) / np.maximum(np.abs(lhs), np.abs(rhs))))
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
