"""Verifier plumbing and CLI tests: statuses, refusal loci, report
determinism, serialization round-trip, and exit codes."""

import csv
import functools
import gc
import json
import math
import os
import pathlib
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from ellr.linalg import RankPolicy, kernel_span_bound
from ellr.rmatrix import HalfPeriodPoint, b_fn, basis_ops, f_fn, make_params, r_matrix, torsion_op
from ellr import verifiers as V
from ellr.cli import main, emit, build_report, resolve_config, UsageError
from test_rmatrix import weight_op, weight_op_k
from test_tensorops import f_op


P31 = make_params(3, 1)


# ---------------------------------------------------------------------------
# Verifier behavior
# ---------------------------------------------------------------------------


def test_all_checks_known():
    results = V.run_suite(P31, ["theta", "qybe"], seed=0)
    assert all(r.status == "pass" for r in results)


def test_unknown_check_rejected():
    with pytest.raises(ValueError):
        V.run_suite(P31, ["nonsense"])


def test_refusal_on_torsion_tau():
    pt = make_params(3, 1, tau=1 / 3)
    results = V.det_check(pt)
    assert results[0].status == "refused"
    results = V.hilbert_check(pt)
    assert results[0].status == "refused"
    for check in (V.qybe_check, V.transform_check, V.inverse_pair_check,
                  V.weight_family_check, V.mult_identity_check):
        assert [r.status for r in check(pt)] == ["refused"], check.__name__


@pytest.mark.parametrize("m", (2, 3))
@pytest.mark.parametrize("n", (2, 3, 4))
def test_zero_count_and_probe_are_refused_on_their_torsion_loci(n, m):
    # at tau = 1/(m n), m n tau is on the lattice: det's zero count is
    # refused at m = 2 (R(tau) and R(-tau) share a torsion cell) and mult's
    # associativity probe at m = 2 and 3; every other result still runs,
    # and none fails
    p = make_params(n, 1, tau=1 / (m * n))
    statuses = {r.name: r.status for r in V.det_check(p) + V.mult_identity_check(p)}
    refused = {"mult.associativity_probe"} | ({"det.zero_count_per_cell"} if m == 2 else set())
    assert {name for name, status in statuses.items() if status == "refused"} == refused
    assert set(statuses.values()) == {"pass", "refused"}
    assert len(statuses) == 6


def test_report_on_the_half_torsion_locus_exits_zero(tmp_path):
    # 2n tau = 3 at n = 3, tau = 0.5: the checks that exclude the locus
    # refuse, and nothing fails
    out = tmp_path / "r.json"
    assert main(["report", "all", "--n", "3", "--d-max", "2", "--tau", "0.5,0",
                 "--out", str(out)]) == 0
    summary = json.loads(out.read_text())["summary"]
    assert summary["fail"] == summary["ambiguous"] == 0 and summary["refused"] > 0


@pytest.mark.parametrize("n", (2, 3, 4))
def test_equalities_resolve_below_1e_9(n):
    # every kernel, image and relation-space equality reads its sine bound,
    # far below the 1e-8 floor an arccos of the cosines put under an angle
    p = make_params(n, 1)
    results = (V.hilbert_check(p, d_max=4) + V.dual_hilbert_check(p)
               + V.dual_algebra_check(p))
    equalities = [r for r in results
                  if "_is_" in r.name or r.name == "dual_algebra.relation_space_match"]
    assert len(equalities) >= 7
    for r in equalities:
        assert r.status == "pass" and r.residual < 1e-9, (r.name, r.params, r.residual)
        assert r.expected == f"sine bound < {V.TOL_ANGLE}"


@pytest.mark.parametrize("run", (
    lambda: V.hilbert_check(P31, d_max=4),
    lambda: V.dual_hilbert_check(P31),
    lambda: V.koszul_check(P31, 4),
), ids=("hilbert", "dual", "koszul"))
def test_no_matrix_is_decomposed_twice(monkeypatch, run):
    # every SVD input is keyed by its contents, and none may repeat
    svd = np.linalg.svd
    decomposed = Counter()

    def key(a):
        a = np.asarray(a, dtype=complex)
        return a.shape, a.tobytes()

    def counted_svd(a, *args, **kwargs):
        decomposed[key(a)] += 1
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    results = run()
    assert all(r.status == "pass" for r in results)
    assert decomposed
    repeated = {k: c for k, c in decomposed.items() if c > 1}
    assert not repeated, [(k[0], c) for k, c in repeated.items()]


def test_only_pair_blocks_take_u_and_v(monkeypatch):
    # every SVD that builds U and V decomposes pair blocks of an R-matrix,
    # both sides at most n; every other rank, the frobenius pairing rows of
    # n^n columns included, is read from singular values alone
    svd, sides = np.linalg.svd, []

    def recorded(a, *args, **kwargs):
        if kwargs.get("compute_uv", args[1] if len(args) > 1 else True):
            sides.append(np.shape(a)[-2:])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    for n, run in ((3, lambda: V.run_suite(make_params(3, 1), V.ALL_CHECKS, d_max=4)),
                   (4, lambda: V.frobenius_check(make_params(4, 1)))):
        sides.clear()
        assert {r.status for r in run()} <= {"pass", "fail"}
        assert all(max(shape) <= n for shape in sides), sorted(set(sides))
    assert not sides


def test_each_check_group_is_timed_once_on_its_first_result():
    groups = ["hilbert", "koszul", "t_table", "qybe", "shuffle"]
    results = V.run_suite(P31, groups, d_max=3)
    first = {}
    for i, r in enumerate(results):
        first.setdefault(r.name.split(".")[0], i)
    assert list(first) == groups
    for i, r in enumerate(results):
        if i in first.values():
            assert r.wall_time > 0, r.name
        else:
            assert r.wall_time == 0.0, (i, r.name)
    # a check called directly is not timed
    assert all(r.wall_time == 0.0 for r in V.hilbert_check(P31, 3))


def _line_and_plane():
    # the kernel of diag(0, 1, 1) is the line of x_0, against the plane of x_0, x_1
    return np.diag([0.0, 1.0, 1.0]), np.eye(3, dtype=complex)[:, :2]


@pytest.mark.parametrize("value, tol", (
    (1e-8, 1e-8),
    (math.nan, V.TOL_LIMIT),  # limit_check's ladders read NaN at n=2
    (kernel_span_bound(*_line_and_plane()), V.TOL_ANGLE),
), ids=("at_tolerance", "nan", "angle_across_dimensions"))
def test_value_not_strictly_below_tolerance_fails(value, tol):
    res = V._within("synthetic", {}, value, tol)
    assert res.status == "fail"
    assert res.expected == f"residual < {tol}"
    np.testing.assert_equal([res.observed, res.residual], [value, value])
    assert V._within("synthetic", {}, tol / 2, tol).status == "pass"


def test_degrees_past_the_dense_cap_are_refused_up_front(monkeypatch):
    # the cap is read at call time: at 27 = 3^3, d = 4 is refused and the
    # lower degrees still run; nothing raises
    import ellr.tensorops

    monkeypatch.setattr(ellr.tensorops, "MAX_TENSOR_DIM", 27)
    p = make_params(3, 1)
    dual = {r.params["d"]: r for r in V.dual_hilbert_check(p) if r.name == "dual.rank"}
    assert {d: r.status for d, r in dual.items()} == {2: "pass", 3: "pass", 4: "refused"}
    assert "dense cap 27" in dual[4].expected
    frob = {r.name: r for r in V.frobenius_check(p)}
    assert frob["frobenius.vanishing_above_top"].status == "refused"
    assert "dense cap 27" in frob["frobenius.vanishing_above_top"].expected
    assert frob["frobenius.top_rank_one"].status == "pass"
    assert frob["frobenius.pairing_rank"].status == "pass"
    hilbert = V.hilbert_check(p, d_max=4)
    ranks = {r.params["d"]: r.status for r in hilbert if r.name == "hilbert.rank"}
    assert ranks == {2: "pass", 3: "pass", 4: "refused"}
    (series,) = [r for r in hilbert if r.name == "hilbert.series"]
    assert series.status == "refused"
    assert {r.status for r in hilbert} == {"pass", "refused"}


CAP_NOTE_8_4 = "n^d = 4096 exceeds the dense cap 3125"


def test_frobenius_past_the_cap_is_refused():
    # F_6 at n = 6 is past the dense cap: the check is refused with the
    # cap's note, where it once read a missing F_n (KeyError)
    (res,) = V.frobenius_check(make_params(6, 1))
    assert (res.name, res.status) == ("frobenius_check", "refused")
    assert res.expected == "n^d = 46656 exceeds the dense cap 3125"


def test_single_degree_checks_past_the_cap_are_refused_with_its_note():
    # at (8, 3) degree 4 is past the cap and degree 3 is not
    p = make_params(8, 3)
    for check in (V.t_rank_table, V.koszul_check):
        (res,) = check(p, 4)
        assert (res.name, res.status, res.expected) == (check.__name__, "refused", CAP_NOTE_8_4)
    table = V.t_rank_table(p, 3)
    assert len(table) == 10 and {r.status for r in table} == {"pass"}


def test_mult_refuses_only_the_pairs_and_the_probe_past_the_cap():
    results = V.mult_identity_check(make_params(8, 3))
    pairs = {(r.params["a"], r.params["b"]): r for r in results if r.name == "mult.identity"}
    assert {pair: r.status for pair, r in pairs.items()} == {
        (1, 1): "pass", (1, 2): "pass", (2, 1): "pass", (2, 2): "refused"}
    (probe,) = [r for r in results if r.name == "mult.associativity_probe"]
    assert [r.expected for r in (pairs[2, 2], probe)] == [CAP_NOTE_8_4] * 2
    assert probe.status == "refused" and probe.params["split"] == [1, 2, 1]


def test_tensor_checks_refuse_torsion_tau_off_the_excluded_locus():
    # dist(3 tau) = 1.5e-8: tau is torsion (distance / n < 1e-8) but not on
    # the excluded locus (distance >= EXCLUSION_DISTANCE), so every check
    # reaching R(+-tau) is refused when it is evaluated
    pt = make_params(3, 1, tau=1 / 3 + 5e-9)
    assert pt.tau_is_torsion() and not V.tau_excluded(pt, 4)
    assert [(r.name, r.status) for r in V.koszul_check(pt, 4)] == [("koszul_check", "refused")]
    for check in (V.hilbert_check, V.dual_hilbert_check, V.nullity_table,
                  V.twist_rank_check):
        assert [r.status for r in check(pt)] == ["refused"], check.__name__


YB_CHECKS = (V.qybe_check, V.weight_family_check)


@pytest.mark.parametrize("nk", ((3, 1), (5, 2)))
def test_yang_baxter_checks_form_no_dense_embedding(monkeypatch, nk):
    # both sides of both identities are site products on V^(x)3: no
    # Kronecker product, so no dense embedding, is formed

    def refuse(*args, **kwargs):
        raise AssertionError("dense embedding formed in a Yang-Baxter check")

    monkeypatch.setattr(np, "kron", refuse)
    p = make_params(*nk)
    for check in YB_CHECKS:
        assert {r.status for r in check(p)} == {"pass"}, check.__name__


@pytest.mark.parametrize("check, limit_kib", zip(YB_CHECKS, (2414, 1895)),
                         ids=("qybe", "weights"))
def test_yang_baxter_checks_keep_a_small_peak(check, limit_kib):
    # per-trial work stays at a few n^6 temporaries at (5, 2): the traced
    # peak is at most what the dense V^(x)3 embeddings took
    import tracemalloc

    p = make_params(5, 2)
    check(p)  # the index and theta-row caches are filled once
    tracemalloc.start()
    try:
        check(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= limit_kib * 1024, peak // 1024


@pytest.mark.parametrize("check", (V.nullity_table, V.twist_rank_check),
                         ids=("nullity", "twist"))
def test_torsion_cells_are_built_one_at_a_time(check):
    # one cell is one r_matrices stack of n^2 matrices: at (5, 2) that stack
    # with its theta series peaks near 600 KiB, and stacking both cells, or
    # the generic probes with them, would pass the limit
    import tracemalloc

    p = make_params(5, 2)
    check(p)  # the index and theta-row caches are filled once
    tracemalloc.start()
    try:
        check(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 600 * 1024, peak // 1024


@pytest.mark.parametrize("nk", ((3, 1), (4, 1), (5, 2)))
def test_r_matrix_certificates_are_taken_from_pair_blocks(monkeypatch, nk):
    # every certificate of an R-matrix is taken from its n x n pair blocks:
    # no SVD operand has a side of n^2
    n, svd, shapes = nk[0], np.linalg.svd, []

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    p = make_params(*nk)
    for check in (V.nullity_table, V.twist_rank_check, V.det_check, V.dual_algebra_check):
        shapes.clear()
        assert all(r.status == "pass" for r in check(p)), check.__name__
        assert shapes and all(n * n not in shape[-2:] for shape in shapes), (
            check.__name__, shapes)


def test_mult_identity_reads_no_product_as_a_matrix(monkeypatch):
    # F_a (x) F_b is one graded product and M_{b,a} times it a blockwise
    # one: the identity pairs add no ScaledOp.matrix call to the
    # associativity probe's
    import ellr.tensorops

    matrix, calls = ellr.tensorops.ScaledOp.matrix, []

    def recorded(self):
        calls.append(self.mat.shape)
        return matrix(self)

    monkeypatch.setattr(ellr.tensorops.ScaledOp, "matrix", recorded)
    assert [r.status for r in V.mult_identity_check(P31, pairs=())] == ["pass"]
    probe = len(calls)
    assert [r.status for r in V.mult_identity_check(P31)] == ["pass"] * 5
    assert probe and len(calls) == 2 * probe


def test_each_statement_instance_assembles_its_matrices_once(monkeypatch):
    # the number of points of every theta_alpha_rows call in ellr.rmatrix:
    # one call per r_matrices call, its [-z, -z + tau] rows followed by
    # [tau, 0] when the denominators of its params are not yet cached
    import ellr.rmatrix

    p = make_params(3, 1)
    V.r_matrix(p, 0.1)  # caches the denominators of p
    points = []
    rows = ellr.rmatrix.theta_alpha_rows

    def counted(ws, ctx):
        points.append(len(ws))
        return rows(ws, ctx)

    monkeypatch.setattr(ellr.rmatrix, "theta_alpha_rows", counted)
    f_op(p, 4, 0.13 + 0.02j)  # six factors, three distinct arguments z, 2z, 3z
    assert points == [2 * 3]
    points.clear()
    V._cell_ranks(p, 1)
    V._cell_ranks(p, -1)
    assert points == [2 * 9, 2 * 9]
    points.clear()
    V.transform_check(p)
    # R(z) and four left-hand stacks at p over the five trials, then the
    # stack of each of params_neg, params_p1, params_pe with its denominators
    assert points == [2 * 25, 2 * 5 + 2, 2 * 5 + 2, 2 * 5 + 2]


# theta series (theta._series calls) per invocation of each identity check,
# its caches filled by a first invocation
SERIES_PER_CHECK = {
    (3, 1): {"theta": 4, "qybe": 2, "transforms": 4, "det": 3, "inverse": 1, "nullity": 3,
             "twist": 1, "dual_algebra": 2, "weights": 3, "limits": 4},
    (5, 2): {"theta": 4, "qybe": 20, "transforms": 4, "det": 3, "inverse": 1, "nullity": 3,
             "twist": 1, "dual_algebra": 2, "weights": 3, "limits": 4},
}


@pytest.mark.parametrize("nk", sorted(SERIES_PER_CHECK))
def test_each_identity_check_takes_few_theta_series(monkeypatch, nk):
    # theta, weights, limits and transforms build their theta rows, weight
    # operators and R's as stacks: one series per function, lattice or
    # parameter set; qybe's trial batches and the torsion cells stay apart
    import ellr.theta

    p = make_params(*nk)
    series, counts = ellr.theta._series, {}
    for name in SERIES_PER_CHECK[nk]:
        V.run_suite(p, [name])
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return series(*args, **kwargs)

        monkeypatch.setattr(ellr.theta, "_series", counted)
        V.run_suite(p, [name])
        monkeypatch.undo()
        counts[name] = len(calls)
    assert counts == SERIES_PER_CHECK[nk]


def _warm_builds(monkeypatch, p, name) -> Counter:
    """The r_matrices calls ("builds") and theta series ("series") of one
    invocation of check group ``name`` at d_max = 3, its caches filled by a
    first one.  The counts do not depend on the degree."""
    import ellr.rmatrix
    import ellr.tensorops
    import ellr.theta

    V.run_suite(p, [name], d_max=3)
    series, build, calls = ellr.theta._series, ellr.rmatrix.r_matrices, Counter()

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ellr.theta, "_series", counted(series, "series"))
    for module in (ellr.rmatrix, ellr.tensorops, V):
        monkeypatch.setattr(module, "r_matrices", counted(build, "builds"))
    V.run_suite(p, [name], d_max=3)
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("nk", ((3, 1), (5, 2)))
def test_t_table_builds_its_rs_once_per_degree(monkeypatch, nk):
    # one r_matrices call, so one theta series, per degree (3 and 4) of a
    # t_table invocation whose caches a first invocation filled
    assert _warm_builds(monkeypatch, make_params(*nk), "t_table") == {"series": 2, "builds": 2}


@pytest.mark.parametrize("nk", ((3, 1), (5, 2)))
@pytest.mark.parametrize("name", ("hilbert", "dual", "mult", "frobenius"))
def test_tau_multiple_checks_build_their_rs_once(monkeypatch, nk, name):
    # every R(m*tau) that hilbert, dual, mult or frobenius multiplies comes
    # from one r_matrices call, so one theta series, per warm invocation
    assert _warm_builds(monkeypatch, make_params(*nk), name) == {"series": 1, "builds": 1}


def test_mult_reads_fail_when_its_m_assemblies_disagree(monkeypatch):
    # a column list of M that is not the row list's operator makes each pair
    # fail with the disagreement as its residual, never an AssertionError;
    # the associativity probe reads rows only
    from ellr.tensorops import factor_mats, m_factors, r_product, scaled_residual

    def wrong(a, b, z, xs=None, ys=None):
        return m_factors(a, b, z, xs, ys)[0], m_factors(a, b, 2 * z)[1]

    monkeypatch.setattr(V, "m_factors", wrong)
    results = V.mult_identity_check(P31)
    assert [r.status for r in results] == ["fail"] * 4 + ["pass"]
    disagreement = []
    for s in (1, -1):
        rows, columns = wrong(1, 1, s * P31.tau)
        mats = factor_mats(P31, rows, columns)
        M, alt = (r_product(3, 2, fs, mats) for fs in (rows, columns))
        disagreement.append(scaled_residual(M, alt))
    assert results[0].residual == max(disagreement) > V.M_AGREEMENT_TOL


@pytest.mark.parametrize("nk", ((2, 1), (3, 1), (4, 1), (5, 2)))
def test_batched_t_table_certifies_each_case_as_alone(monkeypatch, nk):
    # the batch of each degree gives every case the rank scaled_rank(t_op)
    # gives it alone, the zero-rank z = m*tau cases included, in one slice
    # and in slices of one and of five cases
    import ellr.tensorops
    from ellr.tensorops import scaled_rank, t_op

    p = make_params(*nk)
    for d in (3, 4):
        batched = [V.t_rank_table(p, d)]
        for entries in (1, 5 * nk[0] ** (2 * d - 1)):
            monkeypatch.setattr(ellr.tensorops, "T_BATCH_ENTRIES", entries)
            batched.append(V.t_rank_table(p, d))
        monkeypatch.setattr(V, "t_ranks", lambda params, d, zss, policy: [
            scaled_rank(t_op(params, d, zs), policy) for zs in zss])
        alone = V.t_rank_table(p, d)
        monkeypatch.undo()
        assert all(repr(results) == repr(alone) for results in batched), d
        zero_cases = [r for r in alone if r.params["case"].endswith(f"{d - 2}tau")]
        assert len(zero_cases) == 2 and all(r.observed == 0 for r in zero_cases), d
        assert all(r.status == "pass" for r in alone), d


def test_tensor_checks_keep_their_failure_statuses(monkeypatch):
    # an uncertifiable gap gives one ambiguous result per t_table degree,
    # and a NaN entry in one R (an overflowed r_matrices gives NaN) one
    # refused result per invocation of t_table and of mult: never a traceback
    import ellr.tensorops

    strict = make_params(3, 1, ranks=RankPolicy(min_gap=1e300))
    assert [r.status for r in V.run_suite(strict, ["t_table"])] == ["ambiguous"] * 2
    build = ellr.tensorops.r_matrices

    def overflowed(params, zs):
        mats = build(params, zs).copy()
        mats[-1, 0, 0] = np.nan
        return mats

    monkeypatch.setattr(ellr.tensorops, "r_matrices", overflowed)
    for name, count in (("t_table", 2), ("mult", 1)):
        results = V.run_suite(P31, [name])
        assert [r.status for r in results] == ["refused"] * count, name
        assert all("inf or NaN" in r.expected for r in results), name


def test_an_infinite_r_factor_is_refused_without_a_warning(monkeypatch):
    # an R with an inf entry is left undivided by the unit scaling of its
    # products, so pair_blocks refuses it: dividing it would make inf+nanj
    # and a RuntimeWarning, which pytest turns into an error
    import warnings

    import ellr.rmatrix
    import ellr.tensorops

    build = ellr.rmatrix.r_matrices

    def overflowed(params, zs):
        mats = build(params, zs).copy()
        mats[-1, 0, 0] = np.inf
        return mats

    for module in (ellr.tensorops, V):
        monkeypatch.setattr(module, "r_matrices", overflowed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, count in (("t_table", 2), ("limits", 1)):
            results = V.run_suite(P31, [name])
            assert [r.status for r in results] == ["refused"] * count, name
            assert all("inf or NaN" in r.expected for r in results), name


def test_results_share_one_string_per_name():
    # a formatted name is interned, so results kept from many calls hold
    # one copy of it
    first, again = V.transform_check(P31), V.transform_check(P31)
    assert all(a.name is b.name for a, b in zip(first, again))


GRID_CHECKS = ("theta", "qybe", "transforms", "det", "inverse", "nullity", "twist",
               "dual_algebra", "weights", "limits")


@pytest.mark.parametrize("nk", ((3, 1), (5, 2)))
def test_batched_builds_leave_every_result_unchanged(monkeypatch, nk):
    # against one-point builds, every result is equal, residuals included
    import ellr.rmatrix
    import ellr.tensorops

    p = make_params(*nk)
    batched = V.run_suite(p, GRID_CHECKS)
    build = ellr.rmatrix.r_matrices

    def one_at_a_time(params, zs):
        dim = params.n ** 2
        return np.array([build(params, [z])[0] for z in zs]).reshape(-1, dim, dim)

    for module in (ellr.rmatrix, ellr.tensorops, V):
        monkeypatch.setattr(module, "r_matrices", one_at_a_time)
    single = V.run_suite(p, GRID_CHECKS)
    weights = ellr.rmatrix.weight_ops

    def one_weight_at_a_time(params, zs, step=1):
        dim = params.n ** 2
        return np.array([weights(params, [z], step)[0] for z in zs]).reshape(-1, dim, dim)

    for module in (ellr.rmatrix, V):
        monkeypatch.setattr(module, "weight_ops", one_weight_at_a_time)
    single_weights = V.run_suite(p, GRID_CHECKS)
    for r in batched + single + single_weights:
        r.wall_time = 0.0
    assert single == batched
    assert single_weights == batched


@pytest.mark.parametrize("check", (V.theta_property_check, V.weight_family_check,
                                   V.limit_check), ids=("theta", "weights", "limits"))
def test_batched_identity_checks_keep_a_small_peak(check):
    # a stack per check invocation stays below the traced peak of the
    # largest grid check at (5, 2), transform_check's 638 KiB
    import tracemalloc

    p = make_params(5, 2)
    check(p)  # the index and theta caches are filled once
    tracemalloc.start()
    try:
        check(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 640 * 1024, peak // 1024


def _dense3(A, sites, n):
    """The dense embedding of a two-site operator at ``sites`` of V^(x)3;
    (1, 3) is the (1, 2) embedding conjugated by the swap of tensorands 2
    and 3."""
    eye = np.eye(n)
    if sites == (2, 3):
        return np.kron(eye, A)
    if sites == (1, 3):
        P23 = np.kron(eye, basis_ops(make_params(n, 1))["P"])
        return P23 @ np.kron(A, eye) @ P23
    return np.kron(A, eye)


def _dense_rel(lhs, rhs):
    return float(np.max(np.abs(lhs - rhs)) / max(np.max(np.abs(lhs)), np.max(np.abs(rhs))))


def _dense_yb(n, lhs, rhs):
    """The relative residual of two products on V^(x)3, left to right over
    dense embeddings."""
    product = lambda factors: functools.reduce(np.matmul, [_dense3(A, s, n) for A, s in factors])
    return _dense_rel(product(lhs), product(rhs))


def _dense_braid(n, Su, Sv, Suv):
    return _dense_yb(n, [(Su, (1, 2)), (Suv, (1, 3)), (Sv, (2, 3))],
                     [(Sv, (2, 3)), (Suv, (1, 3)), (Su, (1, 2))])


def _qybe_reference(p, trials=20, seed=0):
    rng, n, P = np.random.default_rng(seed), p.n, basis_ops(p)["P"]
    two = braid = 0.0
    for _ in range(trials):
        u, v = V._random_z(rng, 2)
        Ru, Rv, Ruv = (r_matrix(p, z) for z in (u, v, u + v))
        two = max(two, _dense_yb(n, [(Ru, (1, 2)), (Ruv, (2, 3)), (Rv, (1, 2))],
                                 [(Rv, (2, 3)), (Ruv, (1, 2)), (Ru, (2, 3))]))
        braid = max(braid, _dense_braid(n, P @ Ru, P @ Rv, P @ Ruv))
    return {"qybe.two_parameter": two, "qybe.braid_form": braid}


def _weights_reference(p, trials=3, seed=0):
    rng, n, P = np.random.default_rng(seed), p.n, basis_ops(p)["P"]
    rel = 0.0
    for z in V._random_z(rng, trials):
        Sk = weight_op_k(p, -n * z)
        rhs = n * V.e_fn(0.5 * n * (n + 1) * z) * P @ r_matrix(p, z)
        rel = max(rel, _dense_rel(Sk, rhs))
    braid = 0.0
    for _ in range(trials):
        u, v = V._random_z(rng, 2)
        braid = max(braid, _dense_braid(n, *(weight_op(p, z) for z in (u, v, u + v))))
    return {"weights.relation_to_r": rel, "weights.qybe_one_parameter": braid}


def _transform_reference(p, trials=5, seed=0):
    """transform_check one trial at a time, each conjugation a dense kron."""
    rng, n, eta, tau = np.random.default_rng(seed), p.n, p.eta, p.tau
    ops = basis_ops(p)
    S, T, N, P, eye, inv = ops["S"], ops["T"], ops["N"], ops["P"], np.eye(p.n), np.linalg.inv
    Sk = np.linalg.matrix_power(S, p.k)
    Tkp = np.linalg.matrix_power(T, p.k_prime)
    zeta = HalfPeriodPoint(2, 1)
    C = torsion_op(p, zeta.a, zeta.b)

    def laws(z):
        R, R_neg = r_matrix(p, z), r_matrix(p.with_tau(-tau), z)
        return {
            "shift_period_over_n": (r_matrix(p, z + 1 / n), (
                (-1) ** (n - 1) * np.kron(eye, inv(Sk)) @ R @ np.kron(Sk, eye))),
            "shift_eta_over_n": (r_matrix(p, z + eta / n), (
                b_fn(p, z) * np.kron(eye, inv(T)) @ R @ np.kron(T, eye))),
            "negation_swap": (r_matrix(p, -z), V.e_fn(n * n * z) * P @ R_neg @ P),
            "negation_index_reversal": (r_matrix(p, -z), (
                V.e_fn(n * n * z) * np.kron(N, N) @ R_neg @ np.kron(N, N))),
            "tau_shift_period_over_n": (r_matrix(p.with_tau(tau + 1 / n), z), (
                np.kron(S, eye) @ R @ np.kron(inv(S), eye))),
            "tau_shift_eta_over_n": (r_matrix(p.with_tau(tau + eta / n), z), (
                V.e_fn(z) * np.kron(eye, inv(Tkp)) @ R @ np.kron(eye, Tkp))),
            "general_torsion_shift": (r_matrix(p, z + zeta.value(n, eta)), (
                f_fn(p, z, zeta) * np.kron(eye, inv(C)) @ R @ np.kron(C, eye))),
        }

    worst = {}
    for z in V._random_z(rng, trials):
        for name, (lhs, rhs) in laws(z).items():
            key = f"transform.{name}"
            worst[key] = max(worst.get(key, 0.0), _dense_rel(lhs, rhs))
    return worst


GRID = ((2, 1), (3, 1), (3, 2), (4, 1), (5, 2))


@pytest.mark.parametrize("nk", GRID)
@pytest.mark.parametrize("check, reference", (
    (V.qybe_check, _qybe_reference),
    (V.weight_family_check, _weights_reference),
    (V.transform_check, _transform_reference),
), ids=("qybe", "weights", "transforms"))
def test_batched_residuals_match_a_per_trial_dense_reference(nk, check, reference):
    # every trial at once in graded or stacked products, against one trial at
    # a time in dense V^(x)2 and V^(x)3 matrices: the largest residual over
    # the trials agrees to 1e-15
    p = make_params(*nk)
    expected = reference(p)
    found = {r.name: r.residual for r in check(p) if r.name in expected}
    assert found.keys() == expected.keys()
    for name, value in found.items():
        assert abs(value - expected[name]) <= 1e-15, (name, value, expected[name])


@pytest.mark.parametrize("nk, calls", (((2, 1), [3 * 20]), ((3, 1), [3 * 16, 3 * 4]),
                                       ((5, 2), [3] * 20)))
def test_qybe_builds_each_batch_of_trials_in_one_r_matrices_call(monkeypatch, nk, calls):
    # a batch holds at most YB_BATCH_ENTRIES // n^5 trials: all 20 at n = 2,
    # 16 at n = 3, one at n = 5
    found = []
    build = V.r_matrices

    def counted(params, zs):
        found.append(len(zs))
        return build(params, zs)

    monkeypatch.setattr(V, "r_matrices", counted)
    V.qybe_check(make_params(*nk), trials=20)
    assert found == calls


def test_hilbert_forms_no_dense_tensor_operator(monkeypatch):
    # at (4, 4) every product and certificate stays in the 4 grade blocks of
    # 64 x 64: no numpy constructor or product allocates n^(2d) = 65536 entries
    n, d = 4, 4

    def guarded(name, fn):
        def call(*args, **kwargs):
            out = fn(*args, **kwargs)
            assert np.size(out) < n ** (2 * d), (name, np.shape(out))
            return out
        return call

    for name in ("zeros", "empty", "eye", "matmul", "kron", "einsum", "stack", "vstack",
                 "hstack", "concatenate", "broadcast_to"):
        monkeypatch.setattr(np, name, guarded(name, getattr(np, name)))
    results = V.hilbert_check(make_params(n, 1), d_max=d)
    assert {r.status for r in results} == {"pass"}
    assert {r.params["d"] for r in results if r.name == "hilbert.rank"} == {2, 3, 4}


def test_half_torsion_nullity_recorded_not_asserted():
    ph = make_params(3, 1, tau=1 / 6)
    (res,) = V.nullity_table(ph)
    assert res.status == "refused"
    obs = res.params["observed_nullities"]["nullity_at_tau"]
    assert obs >= 6  # the only claim available on this locus is a lower bound


def test_report_summary_and_ok():
    results = V.run_suite(P31, ["qybe"], seed=0)
    rep = V.Report(V.VERSION, {"n": 3}, results).finalize()
    s = rep.summary
    assert s["fail"] == 0 and s["total"] == len(results)
    assert rep.ok


def test_failing_check_surfaces():
    # a deliberately wrong expectation must produce a fail, never a silent pass
    bad = V.CheckResult("synthetic", {}, 0, 1, 1.0, "fail", 0.0)
    rep = V.Report(V.VERSION, {}, [bad])
    assert not rep.ok and rep.summary["fail"] == 1


def test_results_deterministically_ordered():
    r1 = V.Report(V.VERSION, {}, V.run_suite(P31, ["transforms"], seed=0)).finalize()
    r2 = V.Report(V.VERSION, {}, V.run_suite(P31, ["transforms"], seed=0)).finalize()
    assert [r.name for r in r1.results] == [r.name for r in r2.results]


def test_empty_check_list_gives_zero_summary():
    rep = V.Report(V.VERSION, {}, []).finalize()
    assert rep.summary == {"pass": 0, "fail": 0, "ambiguous": 0, "refused": 0,
                           "total": 0}


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _small_report():
    cfg = resolve_config(_Args())
    return build_report(cfg, ["qybe"])


class _Args:
    n = 3
    k = 1
    eta = None
    tau = None
    d_max = None
    seed = None
    out = None
    format = None
    allow_ambiguous = None
    timings = None
    config = None
    command = "check"
    which = "qybe"


def parse_report(text: str) -> V.Report:
    """The inverse of emit(fmt='json')."""
    data = json.loads(text)
    results = [V.CheckResult(r["name"], r["params"], r["expected"], r["observed"],
                             r["residual"], r["status"], r["wall_time"])
               for r in data["results"]]
    return V.Report(data["version"], data["config"], results)


def test_json_round_trip():
    rep = _small_report()
    text = emit(rep, "json")
    back = parse_report(text)
    assert emit(back, "json") == text
    assert back.version == rep.version
    assert back.summary == rep.summary


def test_round_trip_with_timings_is_identity():
    rep = _small_report()
    text = emit(rep, "json", keep_times=True)
    assert parse_report(text) == rep


def test_emit_byte_stable():
    a = emit(build_report(resolve_config(_Args()), ["qybe"]), "json")
    b = emit(build_report(resolve_config(_Args()), ["qybe"]), "json")
    assert a == b


def test_csv_emission():
    text = emit(_small_report(), "csv")
    lines = text.strip().split("\n")
    assert lines[0].startswith("name,status,residual")
    assert len(lines) == 3  # header + two qybe rows


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_check_qybe_exit_zero(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["check", "qybe", "--n", "3", "--k", "1", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["version"] == V.VERSION
    assert data["summary"]["fail"] == 0
    header = capsys.readouterr().out
    assert "eta=0.31+1.37i" in header.replace(" ", "").replace("+0.31", "0.31") or "0.31" in header


def test_cli_hilbert_series(tmp_path, capsys):
    out = tmp_path / "h.json"
    assert main(["hilbert", "--n", "3", "--d-max", "4", "--out", str(out)]) == 0
    shown = capsys.readouterr().out
    assert "1,3,6,10,15" in shown


def test_cli_refuses_an_overflowed_r_instead_of_exit_2(tmp_path, capsys):
    # at Im(eta) = 4 and n = 4, R(4 tau) overflows complex128, so F_5(tau)
    # has inf and NaN entries: dual is refused with a note naming the
    # overflow, the report is written, and no RuntimeWarning is raised
    out = tmp_path / "d.json"
    assert main(["dual", "--n", "4", "--eta", "0.31,4.0", "--out", str(out)]) == 0
    (result,) = json.loads(out.read_text())["results"]
    assert result["status"] == "refused"
    assert "overflow" in result["expected"]


def test_cli_refuses_a_scalar_overflow_at_extreme_eta(tmp_path):
    # at Im(eta) = 200 the scalar b(z) = e(...) of transform_check is past
    # the float range and cmath raises OverflowError: the check is refused,
    # and the command ends with a report and the exit code of its verdicts
    out = tmp_path / "r.json"
    src = pathlib.Path(V.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "ellr.cli", "report", "all", "--n", "3", "--d-max", "3",
         "--eta", "0.31,200", "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120)
    assert proc.returncode == 0
    assert "Traceback" not in proc.stdout + proc.stderr
    results = json.loads(out.read_text())["results"]
    assert {r["status"] for r in results} == {"pass", "refused"}
    (transform,) = [r for r in results if r["name"] == "transform_check"]
    assert transform["status"] == "refused"
    assert "overflow" in transform["expected"]


def test_inverse_pair_check_refuses_an_overflowed_r():
    # at Im(eta) = 200, R(z)R(-z) is not finite at n = 3: one refused result
    # naming the overflow, not three NaN residuals that fail
    results = V.inverse_pair_check(make_params(3, 1, eta=0.31 + 200j))
    assert [r.status for r in results] == ["refused"]
    assert "inf or NaN" in results[0].expected


def test_cli_usage_errors():
    assert main(["check", "qybe", "--n", "4", "--k", "2"]) == 2  # not coprime
    assert main(["check", "qybe", "--eta", "bogus"]) == 2
    assert main(["check", "qybe", "--d-max", "9"]) == 2
    assert main(["bogus-subcommand"]) == 2


def test_cli_rejects_n_outside_the_desk_envelope(tmp_path, monkeypatch, capsys):
    # checked before any parameters are built, from the flag or the config
    def refuse(*args, **kwargs):
        raise AssertionError("parameters built for an out-of-range n")

    monkeypatch.setattr("ellr.cli.make_params", refuse)
    assert main(["check", "qybe", "--n", "9"]) == 2
    assert main(["check", "qybe", "--n", "1"]) == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 9}))
    assert main(["check", "qybe", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: n must lie in 2..8"] * 3


@pytest.mark.parametrize("n, k", ((6, 5), (7, 3), (8, 3)))
def test_cli_takes_every_n_up_to_8(n, k, monkeypatch):
    # the envelope's only n limit is at the CLI boundary: past it the checks
    # refuse what the dense cap excludes, one degree at a time
    built = []

    def record(params, checks, d_max, seed):
        built.append((params.n, params.k))
        return []

    monkeypatch.setattr("ellr.cli.run_suite", record)
    assert main(["report", "all", "--n", str(n), "--k", str(k)]) == 0
    assert built == [(n, k)]


def test_cli_bounds_d_max_by_the_oracle_degree(monkeypatch, capsys):
    # one degree limit: the exact oracle's, read at call time
    import ellr.classical

    def refuse(*args, **kwargs):
        raise AssertionError("parameters built for an out-of-range d_max")

    monkeypatch.setattr("ellr.cli.make_params", refuse)
    assert main(["check", "qybe", "--d-max", "6"]) == 2
    monkeypatch.setattr(ellr.classical, "MAX_CLASSICAL_DEGREE", 4)
    assert main(["check", "qybe", "--d-max", "5"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: d_max must lie in 1..5", "error: d_max must lie in 1..4"]


@pytest.mark.parametrize("config, message", [
    ({"k": "1"}, "k must be an integer"),
    ({"k": 1.5}, "k must be an integer"),
    ({"k": True}, "k must be an integer"),
    ({"seed": "x"}, "seed must be an integer"),
    ({"d_max": True}, "d_max must lie in 1..5"),
    ({"checks": 5}, 'checks must be "all" or a list of check names'),
    ({"checks": ["qybe", 5]}, 'checks must be "all" or a list of check names'),
    ({"out": 1}, "out must be a path string or null"),
    ({"format": "xml"}, 'format must be "json" or "csv"'),
    ({"timings": "no"}, "timings must be true or false"),
    ({"allow_ambiguous": 1}, "allow_ambiguous must be true or false"),
])
def test_cli_rejects_mistyped_config_values(config, message, tmp_path, monkeypatch, capsys):
    # every value is checked before any parameters are built or checks run
    def refuse(*args, **kwargs):
        raise AssertionError("parameters built or checks run from a mistyped config")

    monkeypatch.setattr("ellr.cli.make_params", refuse)
    monkeypatch.setattr("ellr.cli.run_suite", refuse)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["report", "all", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.strip().splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("key, value", (("tau", "nan,0"), ("eta", "inf,1"), ("tau", "0.3,nan")))
@pytest.mark.parametrize("source", ("flag", "config"))
def test_cli_rejects_a_non_finite_eta_or_tau(key, value, source, tmp_path, monkeypatch,
                                             capsys):
    # named and refused before any parameters are built or checks run
    def refuse(*args, **kwargs):
        raise AssertionError("parameters built or checks run from a non-finite value")

    monkeypatch.setattr("ellr.cli.make_params", refuse)
    monkeypatch.setattr("ellr.cli.run_suite", refuse)
    if source == "flag":
        argv = [f"--{key}", value]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: [float(x) for x in value.split(",")]}))
        argv = ["--config", str(cfg)]
    assert main(["report", "all", "--n", "3", *argv]) == 2
    (err,) = capsys.readouterr().err.strip().splitlines()
    assert err.startswith(f"error: {key} must be finite"), err


@pytest.mark.parametrize("key, pair", (("eta", [None, 1]), ("tau", [[1], 2])))
def test_cli_rejects_a_config_pair_holding_a_non_number(key, pair, tmp_path, monkeypatch,
                                                         capsys):
    # float() of None or of a list raises TypeError: still one usage error
    # line naming the key and exit 2, before any parameters are built
    def refuse(*args, **kwargs):
        raise AssertionError("parameters built or checks run from a non-number")

    monkeypatch.setattr("ellr.cli.make_params", refuse)
    monkeypatch.setattr("ellr.cli.run_suite", refuse)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: pair}))
    assert main(["report", "all", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: {key} must be a pair of numbers, got {pair!r}"]


def test_emit_matches_the_deep_copied_serialization():
    # to_dict shares the field values instead of deep-copying them: emit
    # still writes the bytes of the asdict-based rows, and zeroing the
    # emitted wall times leaves the results' own untouched
    import dataclasses

    results = V.run_suite(P31, ["nullity", "limits", "det", "theta"])
    report = V.Report(V.VERSION, {"n": 3, "k": 1}, results).finalize()
    times = [r.wall_time for r in report.results]
    assert any(times)
    for keep_times in (False, True):
        data = {"version": report.version, "config": report.config,
                "results": [dataclasses.asdict(r) for r in report.results],
                "summary": report.summary}
        if not keep_times:
            for row in data["results"]:
                row["wall_time"] = 0.0
        expected = json.dumps(data, indent=2, sort_keys=True) + "\n"
        assert emit(report, keep_times=keep_times) == expected
        assert [r.wall_time for r in report.results] == times


def test_cli_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 3, "k": 2, "seed": 5}))
    out = tmp_path / "rep.json"
    assert main(["check", "qybe", "--config", str(cfg), "--k", "1",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["config"]["k"] == 1  # flag wins
    assert data["config"]["seed"] == 5  # file value kept


def test_cli_rejects_unknown_config_keys(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 3, "bogus": 1}))
    assert main(["check", "qybe", "--config", str(cfg)]) == 2


def test_cli_io_error_exit_two():
    assert main(["check", "qybe", "--out", "/nonexistent-dir/x.json"]) == 2


def test_cli_report_all_byte_stable(tmp_path):
    o1, o2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["report", "all", "--n", "3", "--k", "1", "--out", str(o1)]) == 0
    assert main(["report", "all", "--n", "3", "--k", "1", "--out", str(o2)]) == 0
    assert o1.read_bytes() == o2.read_bytes()


def test_cli_csv_format(tmp_path):
    out = tmp_path / "r.csv"
    assert main(["check", "transforms", "--format", "csv", "--out", str(out)]) == 0
    assert out.read_text().startswith("name,status,residual")


def test_cli_csv_residuals_parse_as_floats(tmp_path):
    out = tmp_path / "det.csv"
    assert main(["check", "det", "--format", "csv", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    for row in rows:
        float(row["residual"])


def test_cli_rejects_removed_precision_flag(tmp_path, capsys):
    assert main(["report", "all", "--precision", "extended"]) == 2
    assert "unrecognized arguments: --precision" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"precision": "extended"}))
    assert main(["check", "qybe", "--config", str(cfg)]) == 2
    assert "unknown config keys: ['precision']" in capsys.readouterr().err


def test_cli_nonconverging_theta_series_is_usage_error(capsys):
    # Im eta = 1e-4 needs more than the series' index window: one error
    # line and exit 2, not a traceback
    assert main(["check", "qybe", "--eta", "0.3,0.0001"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: theta series did not converge")


def test_cli_torsion_tau_is_refused_not_usage_error(tmp_path):
    out = tmp_path / "q.json"
    assert main(["check", "qybe", "--tau", "0,0", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert [r["status"] for r in data["results"]] == ["refused"]


@pytest.mark.parametrize("d_max", ("1", "2"))
def test_cli_koszul_below_degree_three_is_refused(tmp_path, capsys, d_max):
    # koszul starts at d = 3: a smaller d_max must not read as a vacuous pass
    out = tmp_path / "k.json"
    assert main(["koszul", "--d-max", d_max, "--out", str(out)]) == 0
    assert "summary: 0 pass, 0 fail, 0 ambiguous, 1 refused" in capsys.readouterr().out
    (result,) = json.loads(out.read_text())["results"]
    assert result["status"] == "refused" and "d >= 3" in result["expected"]


@pytest.mark.parametrize("d_max", (0, 1))
def test_dual_below_degree_two_is_refused(d_max):
    # only None means the default top degree n+1: d_max 0 and 1 leave no
    # degree to check, and dual refuses rather than returning nothing
    for results, echoed in ((V.dual_hilbert_check(P31, d_max=d_max), d_max),
                            (V.run_suite(P31, ["dual"], d_max=d_max - 1), d_max)):
        (result,) = results
        assert (result.name, result.status) == ("dual.rank", "refused")
        assert result.expected == "dual needs d >= 2" and result.params["d_max"] == echoed


def test_cli_hilbert_below_degree_two_is_refused(tmp_path, capsys):
    # no F_d is built below d = 2: the series must not read as a vacuous pass
    out = tmp_path / "h.json"
    assert main(["hilbert", "--d-max", "1", "--out", str(out)]) == 0
    assert "summary: 0 pass, 0 fail, 0 ambiguous, 1 refused" in capsys.readouterr().out
    (result,) = json.loads(out.read_text())["results"]
    assert result["status"] == "refused" and "d >= 2" in result["expected"]


def test_repeated_cli_calls_leave_no_parser_garbage(tmp_path):
    # in-process callers run main() many times; the parser is built once, so
    # a call leaves none of argparse's reference cycles for the collector
    argv = ["check", "det", "--out", str(tmp_path / "d.json")]
    main(argv)
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        main(argv)
        gc.collect()
        kinds = {type(o).__name__ for o in gc.garbage}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert not kinds & {"ArgumentParser", "HelpFormatter", "_StoreAction"}, kinds


def test_config_validation():
    with pytest.raises(UsageError):
        args = _Args()
        args.d_max = 9
        resolve_config(args)
