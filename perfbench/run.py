#!/usr/bin/env python3
"""mgg benchmark: one workload, one closed loop, metrics as JSON.

Usage, from the repository root:

    python3 perfbench/run.py --workload search-deep --seed 0 --seconds 25 --trace 0

One process runs one item at a time (solve-files adds one child process at a
time).  `--trace 0` prints the end-to-end metrics; `--trace 1` installs the
layer wrappers of tracer.py, runs the traced loop for half the time, replays
the same items untraced to measure the tracing overhead, and prints the
per-layer metrics.  Every item's output is checked; the last line of stdout
is the result object, and the exit code is non-zero when any check failed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import ROOT, SRC, WORKLOADS  # noqa: E402

DEFAULT_SEED = 0
HELD_OUT_SEED = 1  # not to be looked at while a change is developed
SETUP_REPEATS = 3
TAIL_BEYOND = 10
WORK_DIR = os.path.join(ROOT, ".perfbench-work")
REFERENCE = os.path.join(HERE, "reference.json")

now = time.perf_counter


@dataclass
class Loop:
    latencies: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    elapsed: float = 0.0
    unattributed: float = 0.0


def run_loop(items, tracer=None, seconds=None, limit=None) -> Loop:
    """Closed loop: start the next item only once the previous one is done.

    Stops after `limit` items, or at the first item boundary past `seconds`.
    Time the tracer spent on out-of-span checks is not charged to items.
    """
    def excluded():
        return tracer.excluded if tracer else 0.0

    loop = Loop()
    start, start_ex = now(), excluded()
    deadline = None if seconds is None else start + seconds
    for item in items:
        n = len(loop.latencies)
        if (limit is not None and n >= limit) or (deadline and n and now() >= deadline):
            break
        top = tracer.top_level if tracer else 0.0
        t0, ex0 = now(), excluded()
        try:
            error = item()
        except Exception as exc:  # an item that raises is a failed item
            error = f"{type(exc).__name__}: {exc}"
        dt = now() - t0 - (excluded() - ex0)
        loop.latencies.append(dt)
        if tracer:
            loop.unattributed += dt - (tracer.top_level - top)
        if error:
            loop.errors.append(error)
    loop.elapsed = now() - start - (excluded() - start_ex)
    return loop


def fresh_import(modules):
    for name in [m for m in sys.modules if m == "mgg" or m.startswith("mgg.")]:
        del sys.modules[name]
    for name in modules:
        __import__(name)


def tail(latencies):
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def machine(seed, workload, params):
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                                capture_output=True, text=True).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "mgg")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": workload, "seed": seed, "params": params,
        "commit": commit, "source_sha256": digest.hexdigest(),
        "python": platform.python_version(), "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "mgg", "__init__.py")):
        print(f"error: no mgg package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    with open(REFERENCE, encoding="utf-8") as fh:
        table = json.load(fh).get(args.workload)  # None: the items check themselves
    expected = None if table is None else table.get(str(args.seed))
    os.makedirs(WORK_DIR, exist_ok=True)

    modules, setup = WORKLOADS[args.workload]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = now()
        fresh_import(modules)
        params, items = setup(args.seed, WORK_DIR, expected)
        setup_times.append(now() - t0)
    gc.collect()

    violations = []
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_loop(items(tracer), tracer, seconds=args.seconds / 2)
        finally:
            tracer.uninstall()
        done = len(traced.latencies)
        plain = run_loop(items(None), limit=done)
        tracer.measure_tables()
        if not tracer.import_ms:  # no traced child timed it: time it here, warm
            t0 = now()
            fresh_import(("mgg.cli",))
            tracer.import_ms.append((now() - t0) * 1000)
        violations = tracer.violations
        loops = [traced, plain]
        metrics = layer_metrics(tracer, done, traced.unattributed / done,
                                plain.elapsed / traced.elapsed)
    else:
        plain = run_loop(items(None), seconds=args.seconds)
        loops = [plain]
        who = resource.RUSAGE_CHILDREN if args.workload == "solve-files" else resource.RUSAGE_SELF
        lat = plain.latencies
        tail_s, tail_pct, beyond = tail(lat)
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "items_per_s": (len(lat) / plain.elapsed, "1/s"),
            "item_ms_p50": (statistics.median(lat) * 1000, "ms"),
            "item_ms_tail": (tail_s * 1000, "ms"),
            "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MiB"),
        }

    attempted = sum(len(loop.latencies) for loop in loops)
    errors = [e for loop in loops for e in loop.errors]
    for message in (errors + violations)[:10]:
        print(f"FAILED: {message}", file=sys.stderr)
    meta = machine(args.seed, args.workload, params)
    meta["reference"] = ("not needed" if table is None else
                         "recorded" if expected is not None else "none for this seed")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"items {attempted}  reference {meta['reference']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:>14.6g} {unit}")
    if not args.trace:
        print(f"    item_ms_tail is p{tail_pct:.3f}: {beyond} of {len(lat)} samples beyond it")
        print(f"    setup_s is the median of {SETUP_REPEATS} set-ups: "
              + ", ".join(f"{t:.4f}" for t in setup_times))
    print(f"  {'failed_frac':<32} {len(errors) / attempted:>14.6g} ratio "
          f"({len(errors)} of {attempted})")
    if violations:
        print(f"  {len(violations)} Hopcroft-Karp phase-bound violation(s)")
    print("meta " + json.dumps(meta, default=list))

    result = {
        "correct": not errors and not violations,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    out = os.path.join(WORK_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(dict(result, meta=meta), fh, indent=1, default=list)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
