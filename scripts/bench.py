#!/usr/bin/env python3
"""The performance record of a checkout, written as BENCH_<pr>.json.

    python3 scripts/bench.py --pr N [--short] [--out PATH]
    python3 scripts/bench.py --compare OLD.json NEW.json

Run from anywhere; paths are taken from this file's checkout.  Timings
use time.perf_counter only.  The record holds:

* `cli`: the wall time of one fresh process per CLI subcommand (startup
  and import included), beside a bare interpreter.  Each subcommand runs
  the argv of its first golden case (`CASES` in tests/test_cli_golden.py)
  that exits 0, so no input is invented here;
* `tier1`: the wall time and the counts of the tier-1 test run (null
  under --short);
* `perfbench`: the last line of `perfbench/run.py --workload all`, with
  --trace 0 (end-to-end metrics) and with --trace 1 (per-layer metrics,
  and the accuracy figures beside them: dynamics.height_err_max,
  mahler.plus_err_max, bounds.energy_err_max, bounds.scan_err_max);
* `machine`: the CPU count and the Python and numpy versions.

perfbench is run as a program and read, never changed.  --compare prints
every numeric entry of two records side by side with NEW / OLD; compare
only records written on the same machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SEED = 1  # of the perfbench rounds


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def _wall_ms(cmd, repeats):
    """Median and least wall time of `repeats` runs of cmd, in ms; every
    run must exit with its golden code, checked by the caller."""
    times, codes = [], set()
    for _ in range(repeats):
        t0 = perf_counter()
        run = subprocess.run(cmd, cwd=ROOT, env=_env(),
                             stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL)
        times.append((perf_counter() - t0) * 1000.0)
        codes.add(run.returncode)
    return {"median_ms": statistics.median(times), "min_ms": min(times),
            "runs": repeats}, codes


def cli_times(repeats):
    """A bare interpreter, then one golden argv per subcommand."""
    sys.path.insert(0, os.path.join(ROOT, "tests"))
    sys.path.insert(0, SRC)
    from test_cli_golden import CASES, expected_code

    bare, _ = _wall_ms([sys.executable, "-c", "pass"], repeats)
    out = {"bare_interpreter": bare, "subcommands": {}}
    for name, argv in sorted(CASES.items()):
        if expected_code(name) or argv[0] in out["subcommands"]:
            continue
        stats, codes = _wall_ms(
            [sys.executable, "-m", "dynheights.cli", *argv], repeats)
        if codes != {0}:
            raise SystemExit(f"golden case {name} exited {sorted(codes)}")
        out["subcommands"][argv[0]] = {"case": name, "argv": argv, **stats}
    return out


def tier1_time():
    """Wall time and pass/fail counts of the tier-1 run."""
    t0 = perf_counter()
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True)
    wall = perf_counter() - t0
    last = run.stdout.strip().splitlines()[-1]
    counts = {k: int(n) for n, k in re.findall(r"(\d+) (\w+)", last)}
    return {"wall_s": wall, "exit_code": run.returncode,
            "passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0) + counts.get("errors", 0)}


def perfbench(seconds, trace):
    """The last stdout line of perfbench/run.py over every workload."""
    run = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", "all", "--seed", str(SEED), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(run.stdout.strip().splitlines()[-1])


def machine():
    import numpy

    return {"cpu_count": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def _leaves(obj, prefix=""):
    """(dotted key, number) for every numeric entry of a record."""
    if isinstance(obj, dict):
        for k in sorted(obj):
            yield from _leaves(obj[k], f"{prefix}{k}.")
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield prefix[:-1], obj


def compare(old_path, new_path):
    with open(old_path) as f:
        old = dict(_leaves(json.load(f)))
    with open(new_path) as f:
        new = dict(_leaves(json.load(f)))
    for key in sorted(old.keys() & new.keys()):
        a, b = old[key], new[key]
        ratio = f"{b / a:8.3f}" if a else "       -"
        print(f"{key:60s} {a:14.6g} {b:14.6g} {ratio}")
    for key in sorted(old.keys() ^ new.keys()):
        print(f"{key:60s} only in {'OLD' if key in old else 'NEW'}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", type=int, help="names the file BENCH_<pr>.json")
    ap.add_argument("--out", help="write here instead of BENCH_<pr>.json")
    ap.add_argument("--short", action="store_true",
                    help="skip the tier-1 run; 3 CLI runs, 1 s workloads "
                         "(else 7 runs, 10 s workloads)")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = ap.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if args.out is None and args.pr is None:
        ap.error("give --pr or --out")
    out = args.out or os.path.join(ROOT, f"BENCH_{args.pr}.json")
    seconds = 1.0 if args.short else 10.0
    repeats = 3 if args.short else 7
    record = {
        "args": {"pr": args.pr, "short": args.short, "seconds": seconds,
                 "seed": SEED, "cli_repeats": repeats},
        "machine": machine(),
        "cli": cli_times(repeats),
        "tier1": None if args.short else tier1_time(),
        "perfbench": {f"trace{t}": perfbench(seconds, t) for t in (0, 1)},
    }
    with open(out, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
