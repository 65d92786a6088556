"""Summarize the result files that ``run.py`` left in ``.ellrbench/results``.

    python3 ellrbench/summarize.py              # print a table
    python3 ellrbench/summarize.py --write FILE # also write it as JSON

For every workload: a baseline row in the form of the benchmark's result
line (medians over the untraced runs; the per-layer medians over the traced
runs; ``attempted`` is the median per run, ``failed`` the most in any run),
and each end-to-end metric's quartiles and spread (the distance between the
quartiles as a share of the median), also for the times as measured.
"""

import argparse
import glob
import json
import os
import statistics

from run import END_TO_END, OUT_DIR, TRACED


def load(results_dir):
    runs = {}
    for path in sorted(glob.glob(os.path.join(results_dir, "*.json"))):
        with open(path) as fh:
            res = json.load(fh)
        runs.setdefault((res["workload"], res["trace"]), []).append(res)
    return runs


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def result_row(group, metrics, units):
    return {
        "correct": all(r["mismatched"] == 0 for r in group),
        "attempted": round(statistics.median(r["attempted"] for r in group)),
        "failed": max(r["mismatched"] for r in group),
        "metrics": {key: {"value": statistics.median(m[key] for m in metrics),
                          "unit": units[key]} for key in units},
    }


def summarize(runs) -> dict:
    out = {}
    for (name, trace), group in sorted(runs.items()):
        entry = out.setdefault(name, {})
        if trace == 0:
            ends = [r["end_to_end"] for r in group]
            entry["baseline"] = result_row(group, ends, dict(END_TO_END))
            entry["steadiness"] = {key: spread([e[key] for e in ends]) for key, _ in END_TO_END}
            entry["raw_steadiness"] = {key: spread([r["raw_end_to_end"][key] for r in group])
                                       for key in group[0]["raw_end_to_end"]}
            entry["seeds"] = sorted(r["seed"] for r in group)
            entry["passes_per_run"] = sorted({r["passes"] for r in group})
            entry["tail_percentile"] = sorted({r["tail_percentile"] for r in group})
            entry["check_fail_ratio"] = sorted({f"{r['check_failed']}/{r['attempted']}"
                                                for r in group})
            entry["provenance"] = group[0]["provenance"]
        else:
            entry["traced"] = result_row(group, [r["per_layer"] for r in group],
                                         dict(TRACED))
            entry["traced_seeds"] = sorted(r["seed"] for r in group)
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--results", default=os.path.join(OUT_DIR, "results"))
    ap.add_argument("--write")
    args = ap.parse_args()
    summary = summarize(load(args.results))
    for name, entry in summary.items():
        print(name)
        raw = entry.get("raw_steadiness", {})
        for key, s in entry.get("steadiness", {}).items():
            print(f"  {key:<14s} median {s['median']:.5g}  spread {s['spread']:.3f}"
                  + (f"   as measured: {raw[key]['median']:.5g}, {raw[key]['spread']:.3f}"
                     if key in raw else ""))
        for key, m in entry.get("traced", {}).get("metrics", {}).items():
            print(f"  {key:<28s} {m['value']:.6g} {m['unit']}")
    if args.write:
        with open(args.write, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
