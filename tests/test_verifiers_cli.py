"""Verifier plumbing and CLI tests: statuses, refusal loci, report
determinism, serialization round-trip, and exit codes."""

import csv
import gc
import json
import math
from collections import Counter

import numpy as np
import pytest

from ellr.linalg import Subspace, subspace_equal
from ellr.rmatrix import make_params
from ellr import verifiers as V
from ellr.cli import main, emit, parse_report, build_report, resolve_config, UsageError


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
    eye = np.eye(3, dtype=complex)
    return Subspace(3, eye[:, :1], 0.0), Subspace(3, eye[:, :2], 0.0)


@pytest.mark.parametrize("value, tol", (
    (1e-8, 1e-8),
    (math.nan, V.TOL_LIMIT),  # limit_check's ladders read NaN at n=2
    (subspace_equal(*_line_and_plane(), V.TOL_ANGLE)[1], V.TOL_ANGLE),
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
    # both sides of both identities are site products on V^(x)3: neither
    # the dense embedding nor any Kronecker product is formed
    import ellr.tensorops

    def refuse(*args, **kwargs):
        raise AssertionError("dense embedding formed in a Yang-Baxter check")

    monkeypatch.setattr(ellr.tensorops, "embed_pair", refuse)
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
    assert main(["check", "qybe", "--n", "6"]) == 2
    assert main(["check", "qybe", "--n", "1"]) == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 6}))
    assert main(["check", "qybe", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: n must lie in 2..5"] * 3


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
