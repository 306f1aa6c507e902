#!/usr/bin/env python3
"""Closed-loop benchmark of the dynheights CLI, driven in-process.

    python3 perfbench/run.py --workload exact|potential|orbits|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One client in one process calls
`dynheights.cli.dispatch(argv)` for one item after another, captures the
JSON record, and checks it afterwards against an independent reference.
Items come in rounds of fixed composition (see workloads.py); the run
measures whole rounds until --seconds have passed.  Each item runs under
its own deadline, enforced with a SIGALRM interval timer.  Latencies are
scaled to a reference machine speed measured between items (see
run_round).

--trace 0 prints the end-to-end metrics; --trace 1 runs each round
untraced and then traced and prints the per-layer metrics.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.

After the measured part, the workload's known-defect probe (items that
fail through a known package defect, kept out of the rounds) runs once,
untimed; its outcomes are printed but not counted.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
from time import perf_counter

# one BLAS/OpenMP thread, before numpy is imported (and for the children)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CACHE = os.path.join(HERE, ".cache")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import layertrace  # noqa: E402

WORKLOADS = ("exact", "potential", "orbits")
# rounds generated per seed: several times what the baseline measures in
# a 20 s run; a faster program reuses them from the start
ROUNDS = {"exact": 40, "potential": 40, "orbits": 12}
# calibrate() takes about this long on the reference machine state
CAL_REF_S = 0.8e-3
SETUP_SPAWNS = 16
# the tail percentile of each workload: a whole one with at least ten
# samples beyond it in a baseline run (exact 2470-3230 samples, potential
# 288-396, orbits 117-156); fixed, so that a faster or slower program is
# compared at the same percentile.  Each lands inside one cluster of like
# items: on exact the medium-tier canheight items (10 of 190 a round), on
# potential the l = 4 energy items (p95 fell on their edge, next to the
# l = 3 ones), on orbits the level-7 equidist and scan items.
TAIL_Q = {"exact": 99.0, "potential": 96.0, "orbits": 90.0}


class ItemDeadline(BaseException):
    """Raised by the interval timer inside an item that ran too long; a
    BaseException so no handler of the package can swallow it."""


def _on_alarm(signum, frame):
    raise ItemDeadline()


# ---------------------------------------------------------------------------
# set-up

def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


class SetupProbe:
    """`setup_s`: wall time of a fresh interpreter importing dynheights.cli,
    at the reference machine speed.

    SETUP_SPAWNS spawns are spread evenly over the measured stretch of the
    run (`poll` between items); each is scaled like the item latencies
    (see run_round), by CAL_REF_S / (median of five calibration slices
    taken just before it), and the median is reported.  Spawn time is not
    item time: `paused` tells the loop how long spawns took, so the items
    still get their full --seconds."""

    def __init__(self, seconds):
        self.cmd = [sys.executable, "-c", "import dynheights.cli"]
        self.env = child_env()
        self.every = seconds / SETUP_SPAWNS
        self.times = []
        self.paused = 0.0
        self.spawn()                        # writes bytecode; not counted
        self.times.clear()
        self.paused = 0.0
        self.start = perf_counter()

    def spawn(self):
        t0 = perf_counter()
        cal = statistics.median(calibrate() for _ in range(5))
        t1 = perf_counter()
        subprocess.run(self.cmd, env=self.env, cwd=ROOT, check=True)
        t2 = perf_counter()
        self.times.append((t2 - t1) * CAL_REF_S / cal)
        self.paused += t2 - t0

    def poll(self):
        elapsed = perf_counter() - self.start - self.paused
        if (len(self.times) < SETUP_SPAWNS
                and elapsed >= len(self.times) * self.every):
            self.spawn()

    def result(self):
        while len(self.times) < SETUP_SPAWNS:
            self.spawn()
        return statistics.median(self.times)


def cache_dir(workload, seed):
    """Per-seed cache, keyed by the source of the generator and oracle."""
    h = hashlib.sha1()
    for name in ("workloads.py", "references.py", "oracle.py"):
        with open(os.path.join(HERE, name), "rb") as fh:
            h.update(fh.read())
    return os.path.join(CACHE, f"{workload}-{seed}-{h.hexdigest()[:12]}")


def oracle(*args):
    subprocess.run([sys.executable, os.path.join(HERE, "oracle.py"), *args],
                   cwd=ROOT, check=True)


def load_items(workload, seed):
    """(cache directory, rounds, known-defect probe items)."""
    d = cache_dir(workload, seed)
    path = os.path.join(d, "items.json")
    if not os.path.exists(path):
        oracle("items", "--workload", workload, "--seed", str(seed),
               "--rounds", str(ROUNDS[workload]), "--dir", d)
    with open(path, encoding="utf-8") as fh:
        items = json.load(fh)
    return d, items["rounds"], items["probe"]


def load_refs(d, keys):
    path = os.path.join(d, "refs.json")
    refs = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            refs = json.load(fh)
    missing = sorted(set(keys) - set(refs))
    if missing:
        ids = os.path.join(d, "ids.json")
        with open(ids, "w", encoding="utf-8") as fh:
            json.dump(missing, fh)
        oracle("refs", "--dir", d, "--ids", ids)
        with open(path, encoding="utf-8") as fh:
            refs = json.load(fh)
    return refs


# ---------------------------------------------------------------------------
# the closed loop

def run_item(dispatch, item):
    """(latency s, exit code or None, stdout, failure reason or None)."""
    buf = io.StringIO()
    rc, reason = None, None
    t0 = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, item["deadline_s"])
        try:
            with contextlib.redirect_stdout(buf):
                rc = dispatch(item["argv"])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except ItemDeadline:
        reason = "deadline"
    except Exception:           # a crash of the item, not of the benchmark
        reason = "raise"
    latency = perf_counter() - t0
    if reason is None and rc != 0:
        reason = "exit"
    return latency, rc, buf.getvalue(), reason


def calibrate():
    """Seconds taken by a fixed slice of interpreter work (integer
    arithmetic and list appends, like the package's own inner loops)."""
    t0 = perf_counter()
    acc, out = 0, []
    for i in range(6000):
        acc += i * i
        out.append(acc % 97)
    return perf_counter() - t0


def run_round(rnd, r, dispatch, tracer=None, probe=None):
    """Results (key, item, latency, stdout, reason) of one round; `probe`
    (a SetupProbe) gets a chance to spawn before each item.

    The machine this runs on is shared, and its speed drifts by 20-30%
    over seconds.  A calibration slice runs before every item, and the
    round's latencies are scaled by CAL_REF_S / (median calibration time
    of the round): latencies at a fixed reference speed of the machine.
    An item stopped at its deadline keeps its wall time, the deadline.
    """
    results, cal = [], []
    for i, item in enumerate(rnd):
        key = f"{r}:{i}"
        if probe is not None:
            probe.poll()
        if tracer is not None:
            # a deadline can land inside a span's bookkeeping
            tracer.item = key
            tracer.stack.clear()
        cal.append(calibrate())
        latency, _, out, reason = run_item(dispatch, item)
        results.append((key, item, latency, out, reason))
    scale = CAL_REF_S / statistics.median(cal)
    return [(k, it, lat if reason == "deadline" else lat * scale, out,
             reason) for k, it, lat, out, reason in results]


def run_rounds(rounds, seconds, dispatch, probe=None):
    """Whole rounds until `seconds` of item time (the wall time less the
    probe's spawns) have passed: (results, rounds, item time)."""
    results = []
    start = perf_counter()

    def busy():
        return perf_counter() - start - (probe.paused if probe else 0.0)

    n = 0
    while n == 0 or busy() < seconds:
        results += run_round(rounds[n % len(rounds)], n % len(rounds),
                             dispatch, probe=probe)
        n += 1
    return results, n, busy()


def run_traced(rounds, seconds, dispatch):
    """Each round once untraced and once traced, alternating so that drift
    of the machine cancels in the overhead; whole round pairs until
    `seconds` have passed.  Returns (untraced results, traced results,
    rounds, tracer)."""
    tracer = layertrace.Tracer()
    traced_dispatch = tracer.wrap("cli.dispatch", dispatch)
    plain, traced = [], []
    start = perf_counter()
    n = 0
    while n == 0 or perf_counter() - start < seconds:
        r = n % len(rounds)
        plain += run_round(rounds[r], r, dispatch)
        tracer.install()
        try:
            traced += run_round(rounds[r], r, traced_dispatch, tracer)
        finally:
            tracer.uninstall()
        n += 1
    return plain, traced, n, tracer


def check_results(results, refs):
    """[(key, item, latency, reason, error)] with every failure reason:
    deadline, raise, exit (an error exit a known defect explains), wrong
    or inaccurate."""
    out = []
    for key, item, latency, stdout, reason in results:
        err = None
        try:
            if reason is None:
                reason, err = checks.check(item, json.loads(stdout), refs[key])
            elif reason == "exit" and not checks.expected_exit(
                    item, json.loads(stdout)):
                reason = "wrong"
        except (ValueError, KeyError, TypeError, AttributeError):
            reason = "wrong"
        out.append((key, item, latency, reason, err))
    return out


# ---------------------------------------------------------------------------
# metrics

def percentile(xs, q):
    """The q-th percentile of xs by linear interpolation."""
    xs = sorted(xs)
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(checked, setup_s, q):
    lat = [c[2] for c in checked]
    ok = sum(1 for c in checked if c[3] is None)
    t = percentile(lat, q)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "items_per_s": (ok / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (t * 1e3, "ms"),
        "ok_frac": (ok / len(checked), "frac"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    beyond = sum(1 for x in lat if x > t)
    note = (f"latency_tail_ms is p{q:g} of {len(lat)} samples "
            f"({beyond} beyond it)")
    return metrics, note


def accuracy_metrics(checked, plus_est):
    """Largest measured errors, and the smallest ratio of the stated M+
    error estimate to the true error over items whose error is above
    1e-12 (below 1: the estimate is not honest; 0: no such item)."""
    worst = {"canheight": 0.0, "bound": 0.0, "energy": 0.0, "scan": 0.0}
    ratio = None
    for key, item, _, reason, err in checked:
        if err is None or item["kind"] not in worst:
            continue
        worst[item["kind"]] = max(worst[item["kind"]], err)
        if item["kind"] == "bound" and key in plus_est and err > 1e-12:
            r = plus_est[key][1] / err
            ratio = r if ratio is None else min(ratio, r)
    return {
        "dynamics.height_err_max": (worst["canheight"], "abs"),
        "mahler.plus_err_max": (worst["bound"], "abs"),
        "mahler.plus_estimate_ratio": (ratio or 0.0, "ratio"),
        "bounds.energy_err_max": (worst["energy"], "rel"),
        "bounds.scan_err_max": (worst["scan"], "abs"),
    }


def kind_summary(checked):
    """Per item kind (and tier): count and median latency in ms."""
    lat = {}
    for _, item, latency, _, _ in checked:
        lat.setdefault(item_label(item), []).append(latency)
    return {k: (len(v), statistics.median(v) * 1e3)
            for k, v in sorted(lat.items())}


def item_label(item):
    spec = item["spec"]
    extra = spec.get("tier") or spec.get("stratum") or spec.get("family")
    if item["kind"] == "equidist":
        extra = f"{extra} L{spec['level']}"
    elif item["kind"] == "energy":
        extra = f"l={spec['ell']} n={spec['nodes']}"
    return item["kind"] + (f"[{extra}]" if extra else "")


def failure_breakdown(checked):
    """{(item label, reason): (count, largest float error or None)}."""
    out = {}
    for _, item, _, reason, err in checked:
        if reason is not None:
            key = (item_label(item), reason)
            n, worst = out.get(key, (0, None))
            if err is not None:
                worst = err if worst is None else max(worst, err)
            out[key] = (n + 1, worst)
    return out


# ---------------------------------------------------------------------------

def run_workload(args):
    if not os.path.isdir(os.path.join(SRC, "dynheights")):
        sys.exit(f"no dynheights sources under {SRC}")
    os.chdir(ROOT)
    d, rounds, probe_items = load_items(args.workload, args.seed)
    sys.path.insert(0, SRC)
    from dynheights.cli import dispatch
    signal.signal(signal.SIGALRM, _on_alarm)

    if not args.trace:
        probe = SetupProbe(args.seconds)
        results, n_rounds, busy = run_rounds(rounds, args.seconds, dispatch,
                                             probe)
        setup_s = probe.result()
        checked = check_results(results, load_refs(d, [r[0] for r in results]))
        metrics, note = end_to_end(checked, setup_s, TAIL_Q[args.workload])
        notes = [f"{n_rounds} rounds, {len(checked)} items in {busy:.2f} s",
                 note]
    else:
        plain, traced, n_rounds, tracer = run_traced(rounds, args.seconds,
                                                     dispatch)
        common = [(a[2], b[2]) for a, b in zip(plain, traced)
                  if a[4] is None and b[4] is None]
        overhead = (sum(b for _, b in common) / sum(a for a, _ in common)
                    - 1.0) if common else 0.0
        checked = check_results(plain + traced, load_refs(
            d, [r[0] for r in plain + traced]))
        metrics = layertrace.layer_metrics(tracer.spans, n_rounds)
        metrics.update(accuracy_metrics(
            checked, layertrace.plus_estimates(tracer.spans)))
        metrics["trace.overhead_frac"] = (overhead, "frac")
        notes = [f"{n_rounds} rounds each untraced and traced; "
                 f"{len(tracer.spans)} spans"]

    probe = []
    for i, item in enumerate(probe_items):
        latency, _, out, reason = run_item(dispatch, item)
        probe.append((f"probe:{i}", item, latency, out, reason))
    probe = check_results(probe, load_refs(d, [p[0] for p in probe]))

    failures = failure_breakdown(checked)
    # a deadline stop is slow, so it shows in the timings; an item that a
    # known defect explains (inaccurate, exit) fails in ok_frac (checks.py)
    fatal = sum(n for (_, reason), (n, _) in failures.items()
                if reason in ("wrong", "raise"))
    print(f"workload {args.workload}, seed {args.seed}: " + "; ".join(notes))
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    for kind, (n, med) in kind_summary(checked).items():
        print(f"  items {kind}: {n}, median {med:.3g} ms")
    for (kind, reason), (n, worst) in sorted(failures.items()):
        extra = "" if worst is None else f", largest error {worst:.2g}"
        print(f"  failed {kind}: {reason} x{n}{extra}")
    for _, item, _, reason, err in probe:
        extra = "" if err is None else f", error {err:.2g}"
        print(f"  known defect, not counted: {item_label(item)} "
              f"{reason or 'passed'}{extra}")
    print(json.dumps({
        "correct": fatal == 0,
        "attempted": len(checked),
        "failed": sum(n for n, _ in failures.values()),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args):
    """Every workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", w,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        merged["correct"] &= last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        for k, v in last["metrics"].items():
            merged["metrics"][f"{w}.{k}"] = v
    print(json.dumps(merged))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
