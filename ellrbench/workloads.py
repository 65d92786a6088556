"""The benchmark's four workloads: fixed lists of ``ellr`` check invocations.
``BENCHMARK.json`` runs ``report_n3`` and ``identities_grid``; ``NOTES.md``
says why ``tensor_n4`` and ``lattice_n3`` are kept for traced runs only.

Every workload is a closed loop with one client: the checks of a pass are
issued back to back from one thread, and the next pass starts when the
previous one has returned.  The benchmark seed is passed to each check's
``seed=`` argument; checks without one run the same inputs on every seed.

A *check invocation* is one call of a public check function of
``ellr.verifiers`` (see ``CHECK_FUNCTIONS``), whether the workload calls it
directly or ``run_suite`` / the CLI dispatches it.  ``CheckRecorder`` times
each invocation and keeps what it returned, so the golden gate can compare
verdicts and integer observations after the pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time

CHECK_FUNCTIONS = (
    "qybe_check", "inverse_pair_check", "transform_check", "det_check",
    "nullity_table", "twist_rank_check", "hilbert_check", "dual_hilbert_check",
    "t_rank_table", "limit_check", "mult_identity_check", "koszul_check",
    "frobenius_check", "dual_algebra_check", "weight_family_check",
    "theta_property_check", "shuffle_decomposition_check",
)

PARAM_GRID = ((2, 1), (3, 1), (3, 2), (4, 1), (5, 2))
GRID_CHECKS = ("theta", "qybe", "transforms", "det", "inverse", "nullity", "twist",
               "dual_algebra", "weights", "limits")


class CheckRecorder:
    """Wraps the check functions bound in ``ellr.verifiers`` (on top of any
    tracer already installed) and records one entry per invocation:
    ``(name, start, end, results, error)``, times read on ``clock``."""

    def __init__(self, verifiers, clock=time.perf_counter):
        self.verifiers = verifiers
        self.clock = clock
        self.calls = []
        self._saved = {}

    def install(self):
        for name in CHECK_FUNCTIONS:
            fn = getattr(self.verifiers, name)
            self._saved[name] = fn
            setattr(self.verifiers, name, self._timed(name, fn))

    def uninstall(self):
        for name, fn in self._saved.items():
            setattr(self.verifiers, name, fn)
        self._saved.clear()

    def _timed(self, name, fn):
        calls, clock = self.calls, self.clock

        def timed(*args, **kwargs):
            t0 = clock()
            try:
                results = fn(*args, **kwargs)
            except Exception as exc:
                calls.append((name, t0, clock(), None, type(exc).__name__))
                raise
            calls.append((name, t0, clock(), results, None))
            return results

        timed.__name__ = name
        return timed


def integer_part(obj):
    """The seed-independent integer content of an observation: ints (ranks,
    dims, nullities, series), kept inside their lists and dicts; floats and
    strings are dropped (residuals pass through the status instead)."""
    if isinstance(obj, int):
        return obj
    if isinstance(obj, (list, tuple)):
        kept = [integer_part(x) for x in obj]
        return [x for x in kept if x is not None] or None
    if isinstance(obj, dict):
        kept = {str(k): integer_part(v) for k, v in obj.items()}
        return {k: v for k, v in kept.items() if v is not None} or None
    return None


def result_record(r) -> list:
    """[name, status, integer observation] of one CheckResult (or its dict)."""
    if isinstance(r, dict):
        return [r["name"], r["status"], integer_part(r["observed"])]
    return [r.name, r.status, integer_part(r.observed)]


def invocation_record(call) -> dict:
    name, _, _, results, error = call
    if error is not None:
        return {"check": name, "error": error}
    return {"check": name, "results": [result_record(r) for r in results]}


def invocation_failed(record: dict, golden: dict) -> bool:
    """An invocation fails if it raised, returned a status other than pass,
    or differs from its golden record."""
    if "error" in record or record != golden:
        return True
    return any(status != "pass" for _, status, _ in record["results"])


class Workload:
    """One named workload: parameter sets built at set-up, and a pass."""

    def __init__(self, name, param_specs, tail_percentile, run, warm=None):
        self.name = name
        self.param_specs = param_specs
        self.tail_percentile = tail_percentile
        self._run = run
        self._warm = warm or run

    def setup(self, ellr):
        return [ellr.make_params(n, k) for n, k in self.param_specs]

    def warm(self, ellr, params, seed, tmpdir):
        """Run the code paths of a pass once before timing starts."""
        with contextlib.redirect_stdout(io.StringIO()):
            self._warm(ellr, params, seed, tmpdir)

    def run_pass(self, ellr, params, seed, tmpdir):
        """Run one pass; return the extra outputs to gate (report_n3 only)."""
        with contextlib.redirect_stdout(io.StringIO()):
            return self._run(ellr, params, seed, tmpdir)


def _report(ellr, params, seed, tmpdir):
    out = os.path.join(tmpdir, "report.json")
    rc = ellr.cli.main(["report", "all", "--n", "3", "--k", "1", "--d-max", "4",
                        "--seed", str(seed), "--out", out])
    return {"exit_code": rc, "report": out}


def _identities(ellr, params, seed, tmpdir):
    for p in params:
        for name in GRID_CHECKS:
            ellr.verifiers.run_suite(p, [name], seed=seed)


def _tensor(ellr, params, seed, tmpdir):
    V, (p,) = ellr.verifiers, params
    V.hilbert_check(p, d_max=4)
    V.dual_hilbert_check(p, d_max=5)
    V.t_rank_table(p, 4)
    V.frobenius_check(p)
    V.mult_identity_check(p, seed=seed)


def _lattice(ellr, params, seed, tmpdir):
    for p in params:
        ellr.verifiers.koszul_check(p, 5)


def _tensor_warm(ellr, params, seed, tmpdir):
    ellr.verifiers.hilbert_check(params[0], d_max=3)


def _lattice_warm(ellr, params, seed, tmpdir):
    for p in params:
        ellr.verifiers.koszul_check(p, 3)


WORKLOADS = {
    w.name: w for w in (
        Workload("report_n3", ((3, 1),), 75, _report),
        Workload("identities_grid", PARAM_GRID, 95, _identities),
        Workload("tensor_n4", ((4, 1),), 100, _tensor, warm=_tensor_warm),
        Workload("lattice_n3", ((3, 1), (2, 1)), 100, _lattice, warm=_lattice_warm),
    )
}


def gate_extra(extra, records) -> dict:
    """Golden-gate the CLI outputs of a report pass: the exit code, and the
    emitted JSON, which must parse and hold exactly the recorded results."""
    if extra is None:
        return {}
    with open(extra["report"]) as fh:
        data = json.load(fh)
    emitted = sorted(json.dumps(result_record(r), sort_keys=True) for r in data["results"])
    recorded = sorted(json.dumps(res, sort_keys=True)
                      for rec in records for res in rec.get("results", []))
    return {"exit_code": extra["exit_code"], "emitted_matches_checks": emitted == recorded,
            "summary": {k: data["summary"][k] for k in sorted(data["summary"])}}
