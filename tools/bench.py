"""Write one point of the bench trajectory: a JSON file of end-to-end measurements.

    python tools/bench.py --out BENCH_<n>.json

The file holds

- "perfbench": the last stdout line of ``perfbench/run.py --workload all --seed 7
  --seconds 8`` at ``--trace 0`` and at ``--trace 1``;
- "e2e": for each command in E2E, the CLI's manifest fields ``elapsed_ms``, ``rows``
  and ``stats`` (from its stderr) and the sha256 of its stdout.

The gate is the stdout digests: each must start with the one recorded in E2E, or the
script exits 1 after writing the file.  A digest of the CSV header alone checks no value
the program computes; those entries say so.  Wall time is recorded, not gated.  Every
command runs in its own process, on the checkout's ``src``, one after another.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SHIFT1 = ["--a1", "1", "--b1", "0", "--a2", "1", "--b2", "1"]
SMOOTH_1E7 = ["--x", "10000000", "--y", "100", "--bounds"]
MULTIPERFECT = ["multiperfect", "--max", "10000000", "--threads"]
HEADER_ONLY = "stdout is the CSV header alone: the digest checks no computed value"

# (name, CLI arguments, leading hex digits of the stdout sha256, note)
E2E = [
    ("search-sigma-shift1-1e7", ["search", "--fn", "sigma", *SHIFT1, "--max", "10000000"],
     "da01d2f46c25bab9", None),
    ("search-phi-shift1-1e7-classify",
     ["search", "--fn", "phi", *SHIFT1, "--max", "10000000", "--classify"],
     "9281f72a6a473f5e", None),
    ("search-phi-step1000-1e6",
     ["search", "--fn", "phi", "--a1", "1000", "--b1", "0", "--a2", "999", "--b2", "7",
      "--max", "1000000"], "3460b26b70a748cf", None),
    ("audit-phi-shift1-1e6", ["audit", "--fn", "phi", *SHIFT1, "--max", "1000000"],
     "4ae906603b8b9cff", None),
    ("audit-sigma-shift1-1e6", ["audit", "--fn", "sigma", *SHIFT1, "--max", "1000000"],
     "a9c91bb360f5aac0", None),
    ("multiperfect-1e7-threads1", [*MULTIPERFECT, "1"], "01a60e35df88d8b4", HEADER_ONLY),
    ("multiperfect-1e7-threads2", [*MULTIPERFECT, "2"], "01a60e35df88d8b4", HEADER_ONLY),
    ("smooth-sigma-1e7-bounds", ["smooth", "--which", "sigma", *SMOOTH_1E7],
     "37da8539457e92dc", None),
    ("smooth-phi-1e7-bounds", ["smooth", "--which", "phi", *SMOOTH_1E7], "9bfd31f1f66dd18d", None),
    ("smooth-psi-1e7-bounds", ["smooth", "--which", "psi", *SMOOTH_1E7], "413589deab54245c", None),
    ("smooth-sigma-1e7-y5000", ["smooth", "--which", "sigma", "--x", "10000000", "--y", "5000"],
     "0e0e93e1c857d1cb", None),
    ("smooth-phi-3e6-y2", ["smooth", "--which", "phi", "--x", "3000000", "--y", "2"],
     "f2ee9913fafed10d", None),
    ("smooth-sigma-3e6-y3", ["smooth", "--which", "sigma", "--x", "3000000", "--y", "3"],
     "0deaf484abfb86a1", None),
]


def _env() -> dict:
    return {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def perfbench(trace: int) -> dict:
    """The last stdout line of the benchmark over every workload, parsed."""
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "all"]
    argv += ["--seed", "7", "--seconds", "8", "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def e2e(args: list[str]) -> dict:
    """One CLI run: its manifest's elapsed_ms, rows and stats, and its stdout's sha256."""
    argv = [sys.executable, "-m", "sigmaphi.cli", *args]
    done = subprocess.run(argv, cwd=ROOT, env=_env(), capture_output=True, check=True)
    manifest = json.loads(done.stderr.decode().splitlines()[-1])
    out = {key: manifest[key] for key in ("elapsed_ms", "rows", "stats")}
    return {**out, "sha256": hashlib.sha256(done.stdout).hexdigest()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    result = {"perfbench": {f"trace{t}": perfbench(t) for t in (0, 1)}, "e2e": {}}
    bad = []
    for name, cli_args, digest, note in E2E:
        run = e2e(cli_args)
        run.update(command=" ".join(["sigmaphi", *cli_args]), expected_sha256=digest)
        if note:
            run["note"] = note
        if not run["sha256"].startswith(digest):
            bad.append(name)
        result["e2e"][name] = run
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    for name in bad:
        print(f"{name}: stdout sha256 {result['e2e'][name]['sha256'][:16]}, expected "
              f"{result['e2e'][name]['expected_sha256']}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
