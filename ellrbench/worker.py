"""Runs one workload in this (fresh) process and prints its raw measurements
as one JSON line.  Started by ``run.py``; not meant to be run by hand.

    python3 ellrbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

Passes run back to back for about ``--seconds`` (at least one).  Untraced
passes run under a ``SpeedSampler``: their pass and check times are given
both as measured (``raw_*``) and corrected to the reference speed.  With
``--trace 1`` the first half of the time runs untraced passes and the
second half traced ones, with the sampler stopped, so the tracing overhead
is measured in the same process and no sample falls inside a span.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from speed import SpeedSampler  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, CHECK_FUNCTIONS, CheckRecorder, gate_extra, invocation_record  # noqa: E402


def import_ellr():
    """Import ellr from this checkout's src/, never from anywhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import ellr
    import ellr.cli

    if not os.path.abspath(ellr.__file__).startswith(os.path.join(src, "ellr") + os.sep):
        raise ImportError(f"ellr imported from {ellr.__file__}, not from {src}")
    return ellr


def run_passes(workload, ellr, params, seed, seconds, recorder, tmpdir, tracer=None,
               sampler=None):
    """Back-to-back passes for about ``seconds``: at least one, and another
    only while it is expected to end less than half a pass past the deadline
    (so a run makes round(seconds / pass time) passes).  One dict per pass;
    its times are corrected to the reference speed when ``sampler`` runs."""
    clock = recorder.clock
    passes = []
    start = clock()
    while True:
        recorder.calls.clear()
        if tracer is not None:
            tracer.reset()
        t0 = clock()
        extra = workload.run_pass(ellr, params, seed, tmpdir)
        t1 = clock()
        records = [invocation_record(c) for c in recorder.calls]
        spans = [(t0, t1)] + [(c[1], c[2]) for c in recorder.calls]
        raw = [b - a for a, b in spans]
        fixed = [sampler.corrected(a, b) for a, b in spans] if sampler else raw
        one = {"wall_s": fixed[0], "check_s": fixed[1:], "raw_wall_s": raw[0],
               "raw_check_s": raw[1:], "records": records,
               "extra": gate_extra(extra, records)}
        if tracer is not None:
            one["layers"] = tracer.snapshot()
            one["layer_calls"] = tracer.layer_calls()
            one["top_s"] = tracer.top_s
        passes.append(one)
        elapsed = clock() - start
        if elapsed + elapsed / len(passes) / 2 >= seconds:
            return passes


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmpdir", required=True)
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    ellr = import_ellr()
    params = workload.setup(ellr)
    os.makedirs(args.tmpdir, exist_ok=True)
    sampler = SpeedSampler()
    recorder = CheckRecorder(ellr.verifiers, clock=sampler.clock)
    tracer = Tracer(CHECK_FUNCTIONS) if args.trace else None
    recorder.install()
    sampler.start()
    try:
        # warm-up: lazy imports, BLAS start-up, the theta contexts' caches
        workload.warm(ellr, params, args.seed, args.tmpdir)
        if tracer is None:
            out = {"passes": run_passes(workload, ellr, params, args.seed, args.seconds,
                                        recorder, args.tmpdir, sampler=sampler)}
        else:
            half = args.seconds / 2
            untraced = run_passes(workload, ellr, params, args.seed, half, recorder,
                                  args.tmpdir, sampler=sampler)
            sampler.stop()
            recorder.uninstall()
            tracer.install()
            recorder.install()
            traced = run_passes(workload, ellr, params, args.seed, half, recorder,
                                args.tmpdir, tracer)
            out = {"passes": traced, "untraced_passes": untraced}
    finally:
        sampler.stop()
        recorder.uninstall()
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(args.tmpdir, ignore_errors=True)
    out["reference_s"] = sampler.refs
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))


if __name__ == "__main__":
    main()
