"""Runs one workload in a fresh process and prints its measurements as JSON.

Started by ``run.py``; not meant to be called by hand.  The process imports
sigmaphi from the checkout's ``src``, builds the seeded inputs, makes one
warm-up body at smoke size and prints ``{"ready_at": <monotonic clock>}``.
Unless ``--setup-only`` is given it then repeats the timed body until
``--seconds`` of bodies have run, checks every result, and prints one JSON
object with the measurements as its last line.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_BODIES = 3  # untraced bodies per run, whatever --seconds says
MIN_TRACED_BODIES = 2


def _import_program():
    sys.path.insert(0, str(SRC))
    import sigmaphi

    if Path(sigmaphi.__file__).resolve().parent != SRC / "sigmaphi":
        raise SystemExit(f"error: imported sigmaphi from {sigmaphi.__file__}, not from {SRC}")


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def measure(workload, inputs: dict, expected: dict, seconds: float, trace: bool) -> dict:
    """Repeat the timed body for ``seconds``; with ``trace``, alternate untraced and traced bodies.

    Every body's results are checked: the first body's by the workload's
    gate, every later one's by equality with the first.  The workload's
    ``after`` checks run last, once peak RSS has been read.
    """
    from tracer import Tracer
    from workloads import stdout_bytes

    tracer = Tracer() if trace else None
    walls = {False: [], True: []}
    latencies: dict[str, list[float]] = defaultdict(list)
    snapshots: list[dict] = []
    first, first_bad, problems = None, set(), []
    attempted = failed = 0
    spent = 0.0
    while (
        spent < seconds
        or len(walls[False]) < MIN_BODIES
        or (trace and len(walls[True]) < MIN_TRACED_BODIES)
    ):
        traced = trace and len(walls[True]) < len(walls[False])
        calls = []

        def call(label, fn, *args):
            start = time.perf_counter()
            try:
                result = fn(*args)
            except Exception as exc:  # counted as a failed operation
                result = exc
            calls.append((label, args, result, time.perf_counter() - start))
            return None if isinstance(result, Exception) else result

        if traced:
            tracer.install()
        start = time.perf_counter()
        try:
            workload.body(inputs, call)
        finally:
            wall = time.perf_counter() - start
            if traced:
                tracer.uninstall()
        spent += wall
        walls[traced].append(wall)
        if traced:
            snapshots.append(tracer.snapshot())
            snapshots[-1]["cli.run.stdout_bytes"] = stdout_bytes(calls)
        else:
            for label, _, _, elapsed in calls:
                latencies[label].append(elapsed)

        if first is None:
            first = calls
            first_bad, problems = workload.check(inputs, calls, expected)
            bad = first_bad
        else:
            bad = first_bad | {
                i for i, c in enumerate(calls) if i >= len(first) or c[2] != first[i][2]
            }
            if len(calls) != len(first):
                problems.append(f"a body made {len(calls)} calls, the first made {len(first)}")
        attempted += len(calls)
        failed += len(bad)

    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if workload.after:
        after_bad, after_problems = workload.after(inputs, first)
        failed += len(after_bad - first_bad)
        problems += after_problems
    out = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "bodies": len(walls[False]),
        "wall_s": statistics.median(walls[False]),
        "peak_rss_mib": peak_rss_mib,
        "latency": {
            label: {
                "samples": len(v),
                "total_s": sum(v),
                "p50_ms": statistics.median(v) * 1e3,
                "p99_ms": _percentile(v, 0.99) * 1e3,
            }
            for label, v in latencies.items()
        },
        "first_calls": first,
    }
    if trace:
        out["traced_bodies"] = len(walls[True])
        out["layers"] = {k: statistics.median(s[k] for s in snapshots) for k in snapshots[0]}
        out["layers"]["trace.overhead_ratio"] = statistics.median(walls[True]) / out["wall_s"]
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--profile", choices=("full", "smoke"), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    _import_program()
    import numpy

    import workloads

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.setup(workloads.SIZES[args.profile][args.workload], args.seed)
    warm = workload.setup(workloads.SIZES["smoke"][args.workload], args.seed)
    workload.body(warm, lambda label, fn, *a: fn(*a))
    print(json.dumps({"ready_at": time.monotonic()}), flush=True)
    if args.setup_only:
        return 0

    expected = workloads.EXPECTED[args.profile][args.workload]
    result = measure(workload, inputs, expected, args.seconds, bool(args.trace))
    calls = result.pop("first_calls")
    if args.workload == "search-shift" and not result["failed"]:
        result["observable"] = workloads.sporadic_by_decade(inputs, calls)
    if args.workload == "scalar-classify":
        generate = result["latency"].get("generate")
        if generate:
            scanned = inputs["lmax"] * generate["samples"]
            result["generate_l_per_s"] = scanned / generate["total_s"]
    result["python"] = platform.python_version()
    result["numpy"] = numpy.__version__
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
