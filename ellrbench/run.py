"""The ellr benchmark: one workload per run, gated against golden verdicts.

    python3 ellrbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 ellrbench/run.py --record-golden

Run it from anywhere inside a source checkout; it imports ``ellr`` only from
that checkout's ``src/``.  Each run

1. times ``SETUP_RUNS`` fresh interpreters that import ``ellr`` and build the
   workload's ``AlgebraParams`` (``setup_s`` is their median);
2. starts one fresh worker process (``worker.py``) with the BLAS thread
   count pinned, which warms up and then runs passes for ``--seconds``;
   every time is corrected to the reference speed (``speed.py``) for the
   host's speed drift, and reported as measured too (``raw_*``);
3. gates every check invocation against ``golden.json``: verdicts and
   integer observations (ranks, dims, nullities, series) must match;
4. writes everything, with machine provenance, to
   ``.ellrbench/results/<workload>-seed<N>-trace<T>.json`` in the checkout,
   prints a readable summary, and as its last line one JSON object with
   ``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
   metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``).

``attempted`` counts check invocations and ``failed`` those whose outputs
differ from the golden file.  ``check_fail_ratio`` (printed and written to
the result file) also counts invocations that match a golden non-pass
verdict: the known defects of ``limit_check`` at n=2 and n=5 make it 2/50
per pass on ``identities_grid``.

Exit codes: 0 when the gate holds, 1 when it does not, 2 when the run could
not be made (no ``src/ellr`` here, a worker crash or time-out).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(HERE, "golden.json")
OUT_DIR = os.path.join(ROOT, ".ellrbench")
sys.path.insert(0, HERE)

from workloads import WORKLOADS, invocation_failed  # noqa: E402
from speed import reference, scale_of  # noqa: E402
from tracer import PER_LAYER_METRICS  # noqa: E402

BLAS_THREADS = 1  # fixed on every machine, so runs on different core counts compare
SETUP_RUNS = 11
SETUP_REFS = 5  # reference-kernel runs just before and just after each set-up
TAIL_GRID = (99, 95, 90, 75, 50)
RUN_LIMIT_S = 170
END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("check_s_p50", "s"),
              ("check_s_tail", "s"), ("peak_rss_mib", "MiB"))
TRACED = PER_LAYER_METRICS + (("trace.overhead_s", "s"),)
# Self times of the layers identities_grid never calls (the exact oracle and
# the CLI) read exactly 0 there on every run.  The summary and the result
# file keep them; the result line, like BENCHMARK.json, leaves them out.
ZERO_ON_IDENTITIES = ("classical.self_s", "cli.self_s", "cli.build_report_s", "cli.emit_s")
PER_LAYER = tuple(m for m in TRACED if m[0] not in ZERO_ON_IDENTITIES)
SETUP_CODE = ("import json, sys; sys.path.insert(0, sys.argv[1]); import ellr, ellr.cli; "
              "[ellr.make_params(n, k) for n, k in json.loads(sys.argv[2])]")


class RunError(Exception):
    pass


def pinned_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"  # the same dict and set layouts in every process
    env.pop("PYTHONPATH", None)
    return env


def measure_setup(workload, env, deadline):
    """Wall times of fresh set-up interpreters, corrected to the reference
    speed by reference-kernel runs made in this process (on the same CPU)
    just before and just after each; and as measured."""
    specs = json.dumps([list(p) for p in workload.param_specs])
    times, raw = [], []
    for _ in range(SETUP_RUNS):
        refs = [reference() for _ in range(SETUP_REFS)]
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC, specs], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1))
        raw.append(time.perf_counter() - t0)
        refs += [reference() for _ in range(SETUP_REFS)]
        times.append(raw[-1] * scale_of(refs))
        if proc.returncode != 0:
            raise RunError(f"set-up interpreter failed:\n{proc.stderr}")
    return times, raw


def run_worker(name, seed, seconds, trace, env, deadline) -> dict:
    tmpdir = os.path.join(OUT_DIR, f"tmpdir-{os.getpid()}")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--tmpdir", tmpdir]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        raise RunError(f"worker for {name} exceeded the {RUN_LIMIT_S} s run limit")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RunError(f"worker for {name} failed (exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def nearest_rank(values, q):
    """Nearest-rank q-th percentile of values, with the count beyond it."""
    ordered = sorted(values)
    idx = max(math.ceil(q / 100 * len(ordered)) - 1, 0)
    return ordered[idx], len(ordered) - idx - 1


def tail(per_pass, target):
    """The highest percentile of the per-invocation times, no higher than the
    workload's target, that has at least ten samples beyond it.  When none
    has, the median over passes of each pass's slowest invocation
    (percentile 100)."""
    values = [t for one in per_pass for t in one]
    for q in (q for q in TAIL_GRID if q <= target):
        value, beyond = nearest_rank(values, q)
        if beyond >= 10:
            return value, q, beyond
    return statistics.median(max(one) for one in per_pass), 100, 0


def gate(passes, golden) -> dict:
    """Compare each pass with the golden pass; count invocations."""
    attempted = mismatched = not_passing = 0
    want = golden["records"]
    for one in passes:
        got = one["records"]
        attempted += len(got)
        if len(got) != len(want):
            mismatched += max(len(got), len(want))
            continue
        for rec, gold in zip(got, want):
            mismatched += rec != gold
            not_passing += invocation_failed(rec, gold)
        if one["extra"] != golden["extra"]:
            mismatched += 1
    return {"attempted": attempted, "mismatched": mismatched, "check_failed": not_passing}


def provenance() -> dict:
    import numpy as np
    from importlib.metadata import version

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": version("scipy"), "platform": platform.platform(),
    }


def pin_cpu() -> int:
    """Pin this process, and so every process it starts, to one CPU: the
    highest-numbered one it may use.  Runs then do not move between cores
    that neighbours load differently."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def measure(name, seed, seconds, trace) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    cpu = pin_cpu()
    workload = WORKLOADS[name]
    env = pinned_env()
    setup, raw_setup = measure_setup(workload, env, deadline)
    raw = run_worker(name, seed, seconds, trace, env, deadline)
    passes = raw["passes"]
    walls = [p["wall_s"] for p in passes]
    checks = [t for p in passes for t in p["check_s"]]
    raw_walls = [p["raw_wall_s"] for p in passes]
    raw_checks = [t for p in passes for t in p["raw_check_s"]]
    tail_s, tail_q, beyond = tail([p["check_s"] for p in passes], workload.tail_percentile)
    refs = statistics.quantiles(raw["reference_s"], n=4)
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "passes": len(passes), "pass_walls_s": walls, "setup_runs_s": setup,
        "raw_pass_walls_s": raw_walls, "raw_setup_runs_s": raw_setup,
        "check_samples": len(checks), "tail_percentile": tail_q, "tail_beyond": beyond,
        "reference_samples": len(raw["reference_s"]), "reference_quartiles_s": refs,
        "end_to_end": {
            "setup_s": statistics.median(setup), "pass_s": statistics.median(walls),
            "check_s_p50": statistics.median(checks), "check_s_tail": tail_s,
            "peak_rss_mib": raw["peak_rss_mib"],
        },
        "raw_end_to_end": {
            "setup_s": statistics.median(raw_setup), "pass_s": statistics.median(raw_walls),
            "check_s_p50": statistics.median(raw_checks),
            "check_s_tail": tail([p["raw_check_s"] for p in passes],
                                 workload.tail_percentile)[0],
        },
    }
    with open(GOLDEN) as fh:
        result.update(gate(passes, json.load(fh)[name]))
    result["check_fail_ratio"] = result["check_failed"] / result["attempted"]
    if trace:
        # traced passes run without the sampler, so compare times as measured
        untraced = [p["raw_wall_s"] for p in raw["untraced_passes"]]
        layers = {key: statistics.median(p["layers"][key] for p in passes)
                  for key, _ in PER_LAYER_METRICS}
        layers["trace.overhead_s"] = (statistics.median(raw_walls)
                                      - statistics.median(untraced))
        result["per_layer"] = layers
        result["untraced_pass_walls_s"] = untraced
        result["layer_calls"] = passes[0]["layer_calls"]
        result["untraced_remainder_s"] = [p["wall_s"] - p["top_s"] for p in passes]
    result["provenance"] = dict(provenance(), pinned_cpu=cpu)
    return result


def summary_lines(res) -> list:
    e, r = res["end_to_end"], res["raw_end_to_end"]
    lines = [
        f"ellrbench {res['workload']} seed={res['seed']} trace={res['trace']} "
        f"({res['provenance']['cpu_model']}, nproc={res['provenance']['nproc']}, "
        f"{res['provenance']['blas']}, BLAS threads={BLAS_THREADS}, "
        f"pinned to CPU {res['provenance']['pinned_cpu']})",
        "  times at the reference speed (as measured in brackets); reference kernel "
        f"quartiles {', '.join(f'{q * 1e3:.3f}' for q in res['reference_quartiles_s'])} ms "
        f"over {res['reference_samples']} samples",
        f"  setup_s          {e['setup_s']:.4f} s   ({r['setup_s']:.4f}; "
        f"median of {len(res['setup_runs_s'])})",
        f"  pass_s           {e['pass_s']:.4f} s   ({r['pass_s']:.4f}; "
        f"median of {res['passes']} passes)",
        f"  check_s_p50      {e['check_s_p50']:.4f} s   ({r['check_s_p50']:.4f}; "
        f"{res['check_samples']} invocations)",
        f"  check_s_tail     {e['check_s_tail']:.4f} s   ({r['check_s_tail']:.4f}; " + (
            f"p{res['tail_percentile']}, {res['tail_beyond']} of {res['check_samples']} beyond)"
            if res["tail_percentile"] < 100 else
            f"slowest invocation of a pass, median of {res['passes']} passes)"),
        f"  peak_rss_mib     {e['peak_rss_mib']:.1f} MiB",
        f"  check_fail_ratio {res['check_fail_ratio']:.4f} ratio "
        f"({res['check_failed']}/{res['attempted']} invocations not passing)",
        f"  golden gate      {'holds' if res['mismatched'] == 0 else 'BROKEN'} "
        f"({res['mismatched']} invocations differ)",
    ]
    for key, unit in TRACED if res["trace"] else ():
        lines.append(f"  {key:<26s} {res['per_layer'][key]:.6g} {unit}")
    return lines


def record_golden(seed):
    """Write golden.json from one pass of every workload at this checkout."""
    env, golden = pinned_env(), {}
    for name in WORKLOADS:
        raw = run_worker(name, seed, 0, 0, env, time.monotonic() + 600)
        first = raw["passes"][0]
        golden[name] = {"records": first["records"], "extra": first["extra"]}
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ellr", "__init__.py")):
        print(f"error: no ellr sources under {SRC}", file=sys.stderr)
        return 2
    if args.record_golden:
        record_golden(args.seed)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    try:
        res = measure(args.workload, args.seed % 2 ** 32, args.seconds, args.trace)
    except (RunError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    path = os.path.join(OUT_DIR, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(res, fh, indent=1, sort_keys=True)
    print("\n".join(summary_lines(res)))
    if args.trace:
        metrics = {key: {"value": res["per_layer"][key], "unit": unit} for key, unit in PER_LAYER}
    else:
        metrics = {key: {"value": res["end_to_end"][key], "unit": unit}
                   for key, unit in END_TO_END}
    correct = res["mismatched"] == 0
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["mismatched"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
