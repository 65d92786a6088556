"""Command-line front door.

Parses a flat JSON config and/or flags, dispatches the named verification
suites, and emits a versioned report as JSON or CSV.  Exit codes: 0 when
every executed check passed, 1 when any check failed (ambiguous results
count as failures unless ``--allow-ambiguous``), 2 on usage, config, or
I/O errors.

Serialized reports are byte-stable for a fixed (config, seed, version):
measured wall times are zeroed in the output unless ``--timings`` is given,
since they are the only non-deterministic field.  A kept time is the wall
time of one check group, on the group's first result in run order; the
other results of the group read 0.0.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

from .rmatrix import DEFAULT_ETA, DEFAULT_TAU_OF_ETA, make_params
from . import verifiers
from .verifiers import CheckResult, Report, run_suite, ALL_CHECKS, VERSION

MAX_N = 5
MAX_D = 5

# every config key with its default; a flag of the same name overrides both
DEFAULTS = {
    "n": 3, "k": 1, "eta": None, "tau": None, "d_max": 4, "seed": 0,
    "checks": None, "allow_ambiguous": False,
    "format": "json", "out": None, "timings": False,
}

SUBCOMMAND_CHECKS = {
    "hilbert": ["hilbert"],
    "dual": ["dual"],
    "koszul": ["koszul"],
    "frobenius": ["frobenius"],
    "limits": ["limits"],
    "twist": ["twist"],
}

CHECK_NAMES = {"qybe", "transforms", "det", "inverse"}


class UsageError(Exception):
    pass


def _parse_complex_pair(text) -> complex:
    """Accept 're,im' strings or [re, im] lists."""
    if isinstance(text, (list, tuple)) and len(text) == 2:
        return complex(float(text[0]), float(text[1]))
    if isinstance(text, str):
        parts = text.split(",")
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    raise UsageError(f"expected a 're,im' pair, got {text!r}")


@functools.cache  # one parser per process: each build leaves ~700 objects of cyclic garbage
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellr",
        description="Numerical verification suites for the elliptic R-matrix family.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--k", type=int, default=None)
        p.add_argument("--eta", type=str, default=None, metavar="RE,IM")
        p.add_argument("--tau", type=str, default=None, metavar="RE,IM")
        p.add_argument("--d-max", type=int, default=None, dest="d_max")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--format", choices=["json", "csv"], default=None)
        p.add_argument("--allow-ambiguous", action="store_true", default=None)
        p.add_argument("--timings", action="store_true", default=None,
                       help="serialize measured wall times (breaks byte-stability)")
        p.add_argument("--config", type=str, default=None)

    p_check = sub.add_parser("check", help="single R-matrix identity suites")
    p_check.add_argument("which", choices=sorted(CHECK_NAMES))
    add_common(p_check)
    for name in SUBCOMMAND_CHECKS:
        add_common(sub.add_parser(name, help=f"run the {name} suite"))
    p_report = sub.add_parser("report", help="run check collections")
    p_report.add_argument("which", choices=["all"])
    add_common(p_report)
    return parser


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}")
    if not isinstance(raw, dict):
        raise UsageError("config must be a flat JSON object")
    unknown = set(raw) - set(DEFAULTS)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    return raw


def resolve_config(args) -> dict:
    """Merge defaults, config file, and flags (flags win)."""
    cfg = dict(DEFAULTS)
    if getattr(args, "config", None):
        cfg.update(load_config(args.config))
    for key in DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    # the desk envelope and the config's types, checked before any
    # parameters are built; a bool is not an integer here
    for key, low, high in (("n", 2, MAX_N), ("d_max", 1, MAX_D)):
        if type(cfg[key]) is not int or not low <= cfg[key] <= high:
            raise UsageError(f"{key} must lie in {low}..{high}")
    for key in ("k", "seed"):
        if type(cfg[key]) is not int:
            raise UsageError(f"{key} must be an integer")
    for key in ("allow_ambiguous", "timings"):
        if type(cfg[key]) is not bool:
            raise UsageError(f"{key} must be true or false")
    if cfg["out"] is not None and not isinstance(cfg["out"], str):
        raise UsageError("out must be a path string or null")
    if cfg["format"] not in ("json", "csv"):
        raise UsageError('format must be "json" or "csv"')
    checks = cfg["checks"]
    if checks not in (None, "all") and not (
            isinstance(checks, list) and all(isinstance(c, str) for c in checks)):
        raise UsageError('checks must be "all" or a list of check names')
    eta = _parse_complex_pair(cfg["eta"]) if cfg["eta"] is not None else DEFAULT_ETA
    tau = (_parse_complex_pair(cfg["tau"]) if cfg["tau"] is not None
           else DEFAULT_TAU_OF_ETA(eta))
    cfg["eta"], cfg["tau"] = eta, tau
    return cfg


def checks_for(args, cfg) -> list:
    if args.command == "check":
        return [args.which]
    if args.command == "report":
        if cfg.get("checks"):
            requested = cfg["checks"]
            if requested == "all":
                return list(ALL_CHECKS)
            unknown = [c for c in requested if c not in ALL_CHECKS]
            if unknown:
                raise UsageError(f"unknown check names: {unknown}")
            return list(requested)
        return list(ALL_CHECKS)
    return list(SUBCOMMAND_CHECKS[args.command])


def build_report(cfg, checks) -> Report:
    params = make_params(cfg["n"], cfg["k"], eta=cfg["eta"], tau=cfg["tau"])
    results = run_suite(params, checks, d_max=cfg["d_max"], seed=cfg["seed"])
    config_echo = {
        "n": cfg["n"], "k": cfg["k"],
        "eta": [cfg["eta"].real, cfg["eta"].imag],
        "tau": [cfg["tau"].real, cfg["tau"].imag],
        "d_max": cfg["d_max"], "seed": cfg["seed"], "checks": checks,
    }
    return Report(VERSION, config_echo, results).finalize()


def emit(report: Report, fmt: str = "json", keep_times: bool = False) -> str:
    """Serialize a report; wall times are zeroed unless keep_times."""
    data = report.to_dict()
    if not keep_times:
        for row in data["results"]:
            row["wall_time"] = 0.0
    if fmt == "json":
        return json.dumps(data, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["name", "status", "residual", "expected", "observed",
                         "wall_time", "params"])
        for row in data["results"]:
            writer.writerow([
                row["name"], row["status"],
                "" if row["residual"] is None else repr(row["residual"]),
                json.dumps(row["expected"], sort_keys=True),
                json.dumps(row["observed"], sort_keys=True),
                repr(row["wall_time"]),
                json.dumps(row["params"], sort_keys=True),
            ])
        return buf.getvalue()
    raise UsageError(f"unknown format {fmt!r}")


def parse_report(text: str) -> Report:
    """Inverse of emit(fmt='json')."""
    data = json.loads(text)
    results = [
        CheckResult(r["name"], r["params"], r["expected"], r["observed"],
                    r["residual"], r["status"], r["wall_time"])
        for r in data["results"]
    ]
    return Report(data["version"], data["config"], results)


def _header(cfg, checks) -> str:
    eta, tau = cfg["eta"], cfg["tau"]
    return (
        f"ellr {VERSION} | n={cfg['n']} k={cfg['k']} "
        f"eta={eta.real:+.6g}{eta.imag:+.6g}i tau={tau.real:+.6g}{tau.imag:+.6g}i "
        f"d_max={cfg['d_max']} seed={cfg['seed']}\n"
        f"defaults: eta=0.31+1.37i, tau=0.1234+0.4321*eta (generic parameters "
        f"are a precondition of every asserted identity)\n"
        f"checks: {' '.join(checks)}"
    )


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = resolve_config(args)
        checks = checks_for(args, cfg)
        print(_header(cfg, checks))
        report = build_report(cfg, checks)
        payload = emit(report, cfg["format"], keep_times=cfg["timings"])
        if cfg["out"]:
            try:
                with open(cfg["out"], "w") as fh:
                    fh.write(payload)
            except OSError as exc:
                print(f"error: cannot write {cfg['out']}: {exc}", file=sys.stderr)
                return 2
        for r in report.results:
            resid = "" if r.residual is None else f" residual={r.residual:.3e}"
            extra = ""
            if r.name == "hilbert.series" and isinstance(r.observed, list):
                extra = " dims " + ",".join(map(str, r.observed))
            print(f"  [{r.status:^9s}] {r.name}{resid}{extra}")
        s = report.summary
        print(f"summary: {s['pass']} pass, {s['fail']} fail, "
              f"{s['ambiguous']} ambiguous, {s['refused']} refused")
        if not cfg["out"]:
            sys.stdout.write(payload)
        failed = s["fail"] > 0 or (s["ambiguous"] > 0 and not cfg["allow_ambiguous"])
        return 1 if failed else 0
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
