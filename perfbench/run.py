"""sigmaphi benchmark: one command, four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload search-shift --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 1 --trace 1 --smoke

Run from anywhere; the program is imported from ``src`` beside this directory.
Each workload runs in a fresh worker process (``worker.py``).  With
``--trace 0`` the worker measures untraced bodies and several more workers
measure set-up alone; with ``--trace 1`` the worker alternates untraced and
traced bodies and reports the per-layer metrics.  The lines before the last
give every metric with its unit, the host manifest and, for search-shift, the
sporadic-solution counts against ``bound_main``; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding the metrics
that ``BENCHMARK.json`` lists for the mode.  The exit code is 0 only when every
output passed the correctness gate, 1 when a check failed, and 2 when the
program or a worker could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Workers that only set up, besides the measuring worker, per untraced run;
# setup_s is the median of all of them.
SETUP_PROBES = 6
RUN_TIMEOUT_S = 170  # per workload, so a run ends well inside 180 s


class BenchError(Exception):
    """The benchmark could not run: no result is printed."""


def _spawn(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run one worker; returns (its last JSON line, seconds from spawn to ready)."""
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args], stdout=subprocess.PIPE, text=True
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {' '.join(args)} did not finish in time")
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    ready = json.loads(lines[0])["ready_at"] - spawned
    return json.loads(lines[-1]), ready


def run_workload(name: str, seed: int, seconds: float, trace: int, profile: str) -> dict:
    deadline = time.monotonic() + RUN_TIMEOUT_S
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    common += ["--trace", str(trace), "--profile", profile]
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setups.append(_spawn([*common, "--setup-only"], deadline)[1])
    result, ready = _spawn(common, deadline)
    setups.append(ready)
    result["setup_s"] = statistics.median(setups)
    result["setup_samples"] = len(setups)
    return result


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
    except OSError:
        return None
    return done.stdout.strip() or None


def host_manifest() -> dict:
    """Machine, toolchain and source identity for every result."""
    cpuinfo = _read(Path("/proc/cpuinfo")).splitlines()
    model = next((ln.split(":", 1)[1].strip() for ln in cpuinfo if ln.startswith("model name")), "")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size")
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def unit_of(metric: str) -> str:
    """Unit of a metric, read from its name."""
    for suffix, unit in (
        ("_ms", "ms"), ("per_s", "1/s"), ("_s", "s"), ("_mib", "MiB"),
        ("ratio", "ratio"), ("bytes", "B"), ("bytes_computed", "B"),
    ):
        if metric.endswith(suffix):
            return unit
    return "count"


def end_to_end(name: str, result: dict) -> dict[str, float]:
    """Every end-to-end metric of one untraced run."""
    metrics = {
        "setup_s": result["setup_s"],
        "wall_s": result["wall_s"],
        "peak_rss_mib": result["peak_rss_mib"],
        "fail_ratio": result["failed"] / result["attempted"],
    }
    if name == "scalar-classify":
        latency = result["latency"]
        metrics["classify_p50_ms"] = latency["classify"]["p50_ms"]
        metrics["classify_p99_ms"] = latency["classify"]["p99_ms"]
        metrics["factorize_p50_ms"] = latency["factorize"]["p50_ms"]
        metrics["generate_l_per_s"] = result["generate_l_per_s"]
    return metrics


def report(name: str, result: dict, trace: int, bench: dict) -> dict[str, dict]:
    """Print one workload's lines; return the metrics BENCHMARK.json lists for the mode.

    Traced runs print the listed per-layer metrics and every other per-function
    figure that is not zero.
    """
    print(f"# workload {name}: {result['bodies']} untraced bodies, "
          f"{result['setup_samples']} set-ups, "
          f"{result['attempted']} operations attempted, {result['failed']} failed")
    for problem in result["problems"]:
        print(f"# check failed: {problem}")
    listed = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
    if trace:
        measured = result["layers"]
    else:
        measured = end_to_end(name, result)
        for label, lat in sorted(result["latency"].items()):
            print(f"# latency {name} {label}: {lat['samples']} samples, "
                  f"p50 {lat['p50_ms']:.4f} ms, p99 {lat['p99_ms']:.4f} ms")
    for key, value in sorted(measured.items()):
        if value or key in listed or not trace:
            print(f"{name} {key} {value:.6g} {unit_of(key)}")
    for row in result.get("observable", ()):
        print(f"# sporadic {name} {row['fn']} x={row['x']} count={row['sporadic']} "
              f"bound_main={row['bound_main']:.6g} ratio={row['ratio']:.6g}")
    missing = [key for key in listed if key not in measured]
    if missing:
        raise BenchError(f"workload {name} did not measure {', '.join(missing)}")
    return {key: {"value": measured[key], "unit": unit_of(key)} for key in listed}


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)
    if not (SRC / "sigmaphi" / "__init__.py").is_file():
        print(f"error: no sigmaphi source at {SRC}", file=sys.stderr)
        return 2

    selected = names if args.workload == "all" else [args.workload]
    profile = "smoke" if args.smoke else "full"
    manifest = host_manifest()
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in selected:
            result = run_workload(name, args.seed, args.seconds, args.trace, profile)
            metrics = report(name, result, args.trace, bench)
            manifest.update(numpy=result["numpy"])
            print(json.dumps({"manifest": {**manifest, "workload": name, "seed": args.seed,
                                           "seconds": args.seconds, "trace": args.trace,
                                           "profile": profile}}))
            summary["correct"] &= not result["failed"] and not result["problems"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            prefix = "" if len(selected) == 1 else f"{name}."
            summary["metrics"].update({prefix + k: v for k, v in metrics.items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
