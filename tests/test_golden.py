"""The benchmark's golden gate, run as a tier-1 test: one pass of the
``report_n3`` and ``identities_grid`` workloads (about 1 s) must reproduce
the verdicts and integer observations recorded in
``ellrbench/golden.json``.  Reads ``ellrbench/`` and writes nothing there."""

import json
import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "ellrbench")
sys.path.insert(0, BENCH)

import worker  # noqa: E402
from workloads import WORKLOADS, CheckRecorder  # noqa: E402

ellr = worker.import_ellr()

with open(os.path.join(BENCH, "golden.json")) as fh:
    GOLDEN = json.load(fh)


@pytest.mark.parametrize("name", ("report_n3", "identities_grid"))
def test_one_pass_matches_the_golden_records(name, tmp_path):
    workload = WORKLOADS[name]
    recorder = CheckRecorder(ellr.verifiers)
    recorder.install()
    try:
        (one,) = worker.run_passes(workload, ellr, workload.setup(ellr), 0, 0, recorder,
                                   str(tmp_path))
    finally:
        recorder.uninstall()
    assert one["records"] == GOLDEN[name]["records"]
    assert one["extra"] == GOLDEN[name]["extra"]
