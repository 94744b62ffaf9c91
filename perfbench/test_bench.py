"""Self-test of the benchmark at smoke size; takes about ten seconds.

    python3 -m pytest perfbench/test_bench.py -q

Checks that one command emits every workload and metric with its unit, that
a second seed passes the correctness gate, and that the gate fires when an
expected value is corrupted.
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCH["workloads"]]

# Every end-to-end metric the benchmark prints, per workload, with its unit.
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB", "fail_ratio": "ratio"}
SCALAR_ONLY = {
    "classify_p50_ms": "ms",
    "classify_p99_ms": "ms",
    "factorize_p50_ms": "ms",
    "generate_l_per_s": "1/s",
}


def bench(trace: int, seed: int) -> tuple[list[str], dict]:
    argv = ["--workload", "all", "--seed", str(seed), "--seconds", "0.2"]
    argv += ["--trace", str(trace), "--smoke"]
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *argv], capture_output=True, text=True, timeout=170
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    return lines, json.loads(lines[-1])


def test_benchmark_json_matches_what_runs():
    assert list(workloads.WORKLOADS) == NAMES
    for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert run.unit_of(metric["name"]) == metric["unit"], metric
    assert {m["name"] for m in BENCH["end_to_end"]} <= set(END_TO_END)


def test_untraced_run_prints_every_metric():
    lines, result = bench(trace=0, seed=2)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for name in NAMES:
        wanted = END_TO_END | (SCALAR_ONLY if name == "scalar-classify" else {})
        for metric, unit in wanted.items():
            assert any(
                ln.startswith(f"{name} {metric} ") and ln.endswith(f" {unit}") for ln in lines
            ), (name, metric)
        assert f"{name} fail_ratio 0 ratio" in lines
        for metric in BENCH["end_to_end"]:
            assert result["metrics"][f"{name}.{metric['name']}"]["value"] > 0
    manifests = [json.loads(ln)["manifest"] for ln in lines if ln.startswith('{"manifest"')]
    assert [m["workload"] for m in manifests] == NAMES
    for key in ("nproc", "cpu_model", "caches", "python", "numpy", "git_commit", "seed"):
        assert all(key in m for m in manifests)
    assert any(ln.startswith("# sporadic search-shift phi x=1000 ") for ln in lines)


def test_traced_run_prints_every_layer_metric():
    lines, result = bench(trace=1, seed=3)
    assert result["correct"]
    for name in NAMES:
        for metric in BENCH["per_layer"]:
            key = f"{name}.{metric['name']}"
            assert key in result["metrics"], key
            assert any(ln.startswith(f"{name} {metric['name']} ") for ln in lines), key
        assert result["metrics"][f"{name}.trace.overhead_ratio"]["value"] > 0
    metrics = result["metrics"]
    assert metrics["search-shift.arith.build_table.useful_ratio"]["value"] == pytest.approx(0.5, abs=0.01)
    assert metrics["search-shift.equations.search.calls"]["value"] == 2
    assert metrics["scalar-classify.arith.build_table.calls"]["value"] == 0
    assert metrics["scalar-classify.audit.assign_bucket.B1"]["value"] == 14
    assert metrics["smooth-multiperfect.arith.largest_factor_table.entries"]["value"] > 0


def corrupt(name: str, expected: dict) -> dict:
    bad = copy.deepcopy(expected)
    if name.startswith("search"):
        bad["phi"]["sha256"] = "0" * 64
    elif name == "scalar-classify":
        bad["buckets"]["B1"] += 1
    else:
        bad["psi"] += 1
    return bad


@pytest.mark.parametrize("name", NAMES)
def test_gate_fires_on_corrupted_expected_value(name):
    workload = workloads.WORKLOADS[name]
    inputs = workload.setup(workloads.SIZES["smoke"][name], 1)
    expected = workloads.EXPECTED["smoke"][name]
    clean = worker.measure(workload, inputs, expected, seconds=0, trace=False)
    assert clean["failed"] == 0 and not clean["problems"]
    broken = worker.measure(workload, inputs, corrupt(name, expected), seconds=0, trace=False)
    assert broken["failed"] > 0 and broken["problems"]


def test_gate_compares_search_affine_across_thread_counts():
    name = "search-affine"
    workload = workloads.WORKLOADS[name]
    inputs = workload.setup(workloads.SIZES["smoke"][name], 1)
    assert [argv[argv.index("--threads") + 1] for argv in inputs["gate_argvs"]] == ["2", "2"]
    phi = inputs["gate_argvs"][1]
    phi[phi.index("--max") + 1] = "9000"  # so the 2-thread output differs
    result = worker.measure(workload, inputs, workloads.EXPECTED["smoke"][name], 0, False)
    assert result["failed"] > 0
    assert result["problems"] == ["phi: --threads 2 output differs"]


def test_tracer_attributes_worker_thread_spans_to_search():
    from sigmaphi import equations
    from tracer import Tracer

    spec = equations.EquationSpec(equations.Kind.SIGMA, 2, 1, 3, 1)
    tracer = Tracer()
    tracer.install()
    try:
        equations.search(spec, 10_000, threads=2, block_size=1_000)
    finally:
        tracer.uninstall()
    layers = tracer.snapshot()
    assert layers["equations.search.blocks"] == 10
    assert layers["arith.build_table.calls"] == 20
    assert layers["equations.search.build_table_s"] > 0


def test_semiprimes_follow_the_seed():
    first = workloads.semiprimes(25, 20, seed=1)
    assert first == workloads.semiprimes(25, 20, seed=1)
    assert first != workloads.semiprimes(25, 20, seed=2)
    for p, q in first:
        assert (1 << 20) <= p < q < (1 << 21)


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCH))
    argv = ["--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), *argv],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert done.stdout == ""
