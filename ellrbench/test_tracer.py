"""Self-test of the benchmark's tracer (about a minute on two cores):

    python3 -m pytest -q ellrbench/test_tracer.py

Checks that the tracer reaches every binding of a wrapped function, that
each layer records calls on the workload built to exercise it, and that on
every workload the layers' self times plus the untraced remainder add up to
the traced pass time.
"""

import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import worker  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import CHECK_FUNCTIONS, WORKLOADS, CheckRecorder  # noqa: E402

ellr = worker.import_ellr()

EXERCISED_ON = {
    "theta": "identities_grid", "rmatrix": "identities_grid",
    "tensorops": "tensor_n4", "linalg": "tensor_n4", "classical": "lattice_n3",
    "verifiers": "identities_grid", "cli": "report_n3",
}


@pytest.fixture
def traced():
    tracer = Tracer(CHECK_FUNCTIONS)
    recorder = CheckRecorder(ellr.verifiers)
    tracer.install()
    recorder.install()
    try:
        yield tracer, recorder
    finally:
        recorder.uninstall()
        tracer.uninstall()


def test_wrapper_bound_in_every_namespace(traced):
    r_matrix = ellr.rmatrix.r_matrix
    assert r_matrix is ellr.tensorops.r_matrix is ellr.verifiers.r_matrix is ellr.r_matrix
    assert ellr.linalg.svd_rank is ellr.verifiers.svd_rank is ellr.svd_rank
    assert r_matrix.__wrapped__.__module__ == "ellr.rmatrix"


def test_uninstall_restores_originals():
    originals = {name: getattr(ellr.tensorops, name) for name in ("r_matrix", "image", "t_op")}
    svd = __import__("numpy").linalg.svd
    tracer = Tracer(CHECK_FUNCTIONS)
    tracer.install()
    tracer.uninstall()
    assert {name: getattr(ellr.tensorops, name) for name in originals} == originals
    assert __import__("numpy").linalg.svd is svd


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_layers_account_for_the_traced_pass(name, traced, tmp_path):
    tracer, recorder = traced
    workload = WORKLOADS[name]
    params = workload.setup(ellr)
    (one,) = worker.run_passes(workload, ellr, params, 0, 0, recorder, str(tmp_path), tracer)

    for layer, exercised_on in EXERCISED_ON.items():
        if exercised_on == name:
            assert one["layer_calls"][layer] >= 1, f"{layer} recorded no call on {name}"

    wall = one["wall_s"]
    self_total = sum(one["layers"][f"{layer}.self_s"] for layer in LAYERS)
    remainder = wall - one["top_s"]
    assert math.isclose(self_total + remainder, wall, rel_tol=1e-9)
    assert all(one["layers"][f"{layer}.self_s"] >= 0 for layer in LAYERS)
    # the spans cover the pass: only the workload's own loop stays untraced
    assert 0 <= remainder < 0.02 * wall

    with open(os.path.join(HERE, "golden.json")) as fh:
        golden = json.load(fh)[name]
    assert one["records"] == golden["records"]
    assert one["extra"] == golden["extra"]


def test_result_lines_carry_the_metrics_benchmark_json_names():
    import run

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(run.PER_LAYER)
