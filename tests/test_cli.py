import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from sigmaphi import arith, bound_bfps, parametric
from sigmaphi.cli import _build_parser, run

EQ_PHI1 = ["--fn", "phi", "--a1", "1", "--b1", "0", "--a2", "1", "--b2", "1"]
EQ_SIGMA22 = ["--fn", "sigma", "--a1", "1", "--b1", "0", "--a2", "1", "--b2", "22"]
EQ_SIGMA1 = ["--fn", "sigma", "--a1", "1", "--b1", "0", "--a2", "1", "--b2", "1"]


def invoke(argv, capsys):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def manifest_of(err: str) -> dict:
    lines = [line for line in err.strip().splitlines() if line.startswith("{")]
    assert len(lines) == 1
    return json.loads(lines[0])


def test_search_csv_golden(capsys):
    code, out, err = invoke(["search", *EQ_PHI1, "--max", "500"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,A1,A2,value,class"
    assert lines[1] == "1,1,2,1,unclassified"
    assert lines[-1] == "495,495,496,240,unclassified"
    assert len(lines) == 9
    manifest = manifest_of(err)
    assert set(manifest) == {"command", "params", "version", "elapsed_ms", "rows", "stats"}
    assert manifest["command"] == "search"
    assert manifest["rows"] == 8
    assert manifest["params"]["max"] == 500
    assert set(manifest["stats"]) == {"peak_rss_mib", "minor_faults"}
    # this process holds numpy and a sieved table: tens of MiB, not KiB or GiB
    assert 1 < manifest["stats"]["peak_rss_mib"] < 4096
    # and has faulted in at least those pages
    assert manifest["stats"]["minor_faults"] > 256


@pytest.mark.parametrize("platform,maxrss", [("linux", 48 * 1024), ("darwin", 48 * 2**20)])
def test_manifest_peak_rss_in_mib(capsys, monkeypatch, platform, maxrss):
    import resource

    class Usage:
        ru_maxrss = maxrss
        ru_minflt = 1234

    monkeypatch.setattr(resource, "getrusage", lambda who: Usage)
    monkeypatch.setattr(sys, "platform", platform)
    code, _, err = invoke(["search", *EQ_PHI1, "--max", "50"], capsys)
    assert code == 0
    assert manifest_of(err)["stats"] == {"peak_rss_mib": 48.0, "minor_faults": 1234}


# sha256 of the stdout of the benchmark's search-shift smoke workload, as
# recorded in perfbench/workloads.py (EXPECTED["smoke"]), so that any change
# to search's output bytes fails here too
SHIFT_DIGESTS = {
    "sigma": "c76c780eca6a3845926eb8e8d051b303606243c46517ab3d6b7c48650dd57ae2",
    "phi": "ce435ae9c150f3ef1644fe2beda5511c1a8ea6999a0fd071cf5585d88bd97125",
}


def test_search_stdout_bytes_pinned(capsys):
    for fn, digest in SHIFT_DIGESTS.items():
        argv = ["search", "--fn", fn, "--a1", "1", "--b1", "0", "--a2", "1", "--b2", "1",
                "--max", "20000", "--threads", "1", "--classify"]
        code, out, _ = invoke(argv, capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fn


# phi(1000n) = phi(999n + 7) to 10**6: step-1000 and step-999 tables in four blocks of
# one kernel segment (2**18 values of n), with 9 hits
STEP_1000 = ["search", "--fn", "phi", "--a1", "1000", "--b1", "0", "--a2", "999", "--b2", "7",
             "--max", "1000000"]
STEP_1000_DIGEST = "3460b26b70a748cf5327fa4b6add6529d1393342f0cce14c008384e4ff49bb85"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_step_1000_search_stdout_bytes_pinned(capsys, threads):
    code, out, _ = invoke([*STEP_1000, "--threads", threads], capsys)
    assert code == 0
    assert len(out.splitlines()) == 10
    assert hashlib.sha256(out.encode()).hexdigest() == STEP_1000_DIGEST


def test_search_classify_column(capsys):
    code, out, _ = invoke(
        ["search", *EQ_SIGMA22, "--max", "500", "--classify"], capsys
    )
    assert code == 0
    rows = dict(line.split(",", 1) for line in out.splitlines()[1:])
    assert rows["476"].endswith("parametric")


def test_search_json_keys(capsys):
    code, out, _ = invoke(["search", *EQ_PHI1, "--max", "500", "--json"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert [r["n"] for r in rows] == [1, 3, 15, 104, 164, 194, 255, 495]
    assert all(set(r) == {"n", "A1", "A2", "value", "class"} for r in rows)


def test_families_and_generate(capsys):
    code, out, _ = invoke(["families", *EQ_SIGMA22, "--kmax", "20"], capsys)
    assert code == 0
    assert "3,14,28,6" in out.splitlines()

    code, out, _ = invoke(
        ["generate", *EQ_SIGMA22, "--k1", "3", "--k2", "14", "--lmax", "10"], capsys
    )
    assert code == 0
    assert out.splitlines()[0] == "l,q1,q2,n,verified"
    assert "6,17,83,476,true" in out.splitlines()


def test_generate_without_family_is_usage_error(capsys):
    code, _, err = invoke(
        ["generate", *EQ_SIGMA22, "--k1", "3", "--k2", "2", "--lmax", "10"], capsys
    )
    assert code == 1
    assert "no family" in err


def test_classify_rows(capsys):
    code, out, _ = invoke(["classify", *EQ_SIGMA22, "--n", "476", "--json"], capsys)
    assert code == 0
    (row,) = json.loads(out)
    assert row == {
        "verdict": "parametric",
        "l": 6,
        "q1": 17,
        "q2": 83,
        "k1": 3,
        "k2": 14,
        "m1": 28,
        "m2": 6,
    }
    code, out, _ = invoke(["classify", *EQ_PHI1, "--n", "15"], capsys)
    assert code == 0
    assert out.splitlines()[1] == "sporadic,,,,,,,"


def test_smooth_output(capsys):
    code, out, _ = invoke(
        ["smooth", "--which", "psi", "--x", "100", "--y", "5"], capsys
    )
    assert code == 0
    assert out.splitlines() == ["x,y,count,bound,ratio", "100,5,34,,"]
    code, out, err = invoke(
        ["smooth", "--which", "s", "--x", "100", "--y", "10", "--bounds", "--json"],
        capsys,
    )
    assert code == 0
    (row,) = json.loads(out)
    assert set(row) == {"x", "y", "count", "bound", "ratio"}
    assert row["count"] == 15
    assert "leading-order" in err


def test_smooth_bfps_bounds(capsys):
    for which in ("phi", "sigma"):
        code, out, err = invoke(
            ["smooth", "--which", which, "--x", "100000", "--y", "10", "--bounds", "--json"],
            capsys,
        )
        assert code == 0, which
        (row,) = json.loads(out)
        assert row["bound"] == bound_bfps(100000, 10)
        assert row["ratio"] == row["count"] / row["bound"]
        assert "leading-order" in err
        # u = log x / log y = 2 <= e is outside bound_bfps's domain
        code, out, err = invoke(
            ["smooth", "--which", which, "--x", "100", "--y", "10", "--bounds"], capsys
        )
        assert code == 2 and out == "" and "u > e" in err


def test_multiperfect(capsys):
    code, out, _ = invoke(["multiperfect", "--max", "100000"], capsys)
    assert code == 0
    assert out == "m\n"


def test_bounds_row_and_domain(capsys):
    code, out, _ = invoke(["bounds", "--x", "1000000"], capsys)
    assert code == 0
    header, row = out.splitlines()
    assert header == "y,z,u,bound_main"
    assert row.split(",")[3].startswith("75594.757")
    code, _, err = invoke(["bounds", "--x", "10"], capsys)
    assert code == 2
    assert "out of asymptotic domain" in err


def test_audit_rows(capsys):
    code, out, err = invoke(
        ["audit", *EQ_SIGMA1, "--max", "300", "--y", "3", "--z", "2"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,bucket,p,m1,k1,m2,k2,overridden"
    assert "14,B3,3,7,1,3,2,true" in lines
    assert "206,B1,,,,,,true" in lines
    # P(sigma(14)) == 3 == y sits on the strict-B2 boundary and is flagged
    assert "boundary case" in err and "n=14" in err


def test_audit_integrity_exit_code(capsys):
    code, _, err = invoke(
        ["audit", *EQ_SIGMA1, "--max", "300", "--y", "10", "--z", "2"], capsys
    )
    assert code == 3
    assert "integrity error" in err


def test_audit_non_finite_y_exit_2(capsys):
    # without --z, y is checked before z = sqrt(y) is taken
    for args, y in (
        (["--y", "nan", "--z", "2"], "nan"),
        (["--y", "inf", "--z", "2"], "inf"),
        (["--y", "-5"], "-5.0"),
        (["--y=-inf"], "-inf"),
    ):
        code, out, err = invoke(["audit", *EQ_SIGMA1, "--max", "1000", *args], capsys)
        assert code == 2, args
        assert out == ""
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            f"error: y must be finite and > 1, got {y}"
        ]
        assert "Traceback" not in err


def test_generate_failed_reverification_exit_3(capsys, monkeypatch):
    # the verified column is written as true because generate checks every witness
    monkeypatch.setattr(parametric, "verify_witness", lambda w: False)
    code, out, err = invoke(
        ["generate", *EQ_SIGMA22, "--k1", "3", "--k2", "14", "--lmax", "10"], capsys
    )
    assert code == 3
    assert out == "" and "failed re-verification" in err


def test_module_entry_point_exit_codes():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    for argv, expected in (
        (["bounds", "--x", "1000000"], 0),
        (["nonsense"], 1),
        (["search", *EQ_SIGMA1, "--max", str(10**10 + 1)], 2),
        (["audit", *EQ_SIGMA1, "--max", "300", "--y", "10", "--z", "2"], 3),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "sigmaphi.cli", *argv], env=env, capture_output=True, text=True
        )
        assert proc.returncode == expected, (argv, proc.stderr)
        assert (proc.stdout == "") == (expected != 0), argv


def test_usage_errors_exit_1(capsys):
    code, _, err = invoke(
        ["search", "--fn", "phi", "--a1", "0", "--b1", "0", "--a2", "1", "--b2", "1",
         "--max", "10"],
        capsys,
    )
    assert code == 1
    assert "positive" in err
    code, _, _ = invoke(["nonsense"], capsys)
    assert code == 1
    code, _, err = invoke(["search", *EQ_PHI1, "--max", "10", "--threads", "0"], capsys)
    assert code == 1
    assert "threads must be >= 1" in err
    # ten blocks, so a missing cap would still start at most ten threads
    code, _, err = invoke(["search", *EQ_PHI1, "--max", "10", "--threads", "1000000"], capsys)
    assert code == 1
    assert "threads must be <=" in err
    # families scans on the caller's thread and takes no --threads
    code, out, err = invoke(["families", *EQ_SIGMA22, "--kmax", "10", "--threads", "2"], capsys)
    assert code == 1
    assert out == "" and "--threads" in err


def test_capacity_exit_2(capsys):
    code, _, _ = invoke(
        ["search", "--fn", "phi", "--a1", str(1 << 40), "--b1", "0", "--a2", "1",
         "--b2", "1", "--max", str(1 << 20)],
        capsys,
    )
    assert code == 2
    for which in ("psi", "s", "phi", "sigma"):
        code, _, err = invoke(
            ["smooth", "--which", which, "--x", str(1 << 48), "--y", "2"], capsys
        )
        assert code == 2
        assert "x must be <=" in err
    # refused before the ((x + 1) // 2 + 1) // 2-byte y-smooth table of sigma and phi (the
    # odd numbers up to (x + 1) // 2) passes the 1 GiB budget, which it does from
    # x = 2**32 + 1, and before psi sieves for about 40 days
    for which, x in (("psi", 1 << 47), ("phi", 10**10), ("sigma", 10**10), ("sigma", 2**32 + 1)):
        code, _, err = invoke(["smooth", "--which", which, "--x", str(x), "--y", "2"], capsys)
        assert code == 2, which
        assert "x must be <=" in err or "budget" in err
    # s allocates nothing of size O(x), so only the range limit refuses it
    code, out, err = invoke(["smooth", "--which", "s", "--x", str(10**10 + 1), "--y", "2"], capsys)
    assert code == 2 and out == "" and "x must be <=" in err
    code, out, _ = invoke(["smooth", "--which", "s", "--x", str(10**10), "--y", "2"], capsys)
    assert code == 0
    assert out == "x,y,count,bound,ratio\n10000000000,2,3920729058,,\n"


def test_bulk_ranges_refused_exit_2(capsys):
    # past 10**10 integers each command would sieve for hours; refused at once
    spans = "spans more than 10000000000 integers"
    threads = ["--threads", "2"]
    for argv, message in (
        (["search", *EQ_SIGMA1, *threads, "--max"], spans),
        (["audit", *EQ_SIGMA1, "--y", "3", "--z", "2", *threads, "--max"], spans),
        (["audit", *EQ_PHI1, *threads, "--max"], spans),
        (["multiperfect", *threads, "--max"], spans),
        # families is pure Python per (k1, k2) candidate, so it is capped far sooner
        (["families", *EQ_SIGMA22, "--kmax"], "candidates, over 30000000"),
    ):
        start = time.perf_counter()
        code, out, err = invoke([*argv, str(10**10 + 1)], capsys)
        assert time.perf_counter() - start < 1.0, argv
        assert code == 2, argv
        assert out == "" and message in err


def test_large_multiplier_search_refused_exit_2(capsys, monkeypatch):
    # inside the 10**10 range limit, but the work cap counts the ~2.3 * 10**5 base
    # primes below sqrt(10**13) twice for each kernel segment of 2**18 values of n
    # (~1.7 * 10**10), and at unit multipliers the ~7.9 * 10**4 below 10**6 twice
    # for each 2**20 values near 10**12 (~1.5 * 10**9), against a cap of ~2.5 * 10**8:
    # some 20 and 12 minutes of sieving (about 37 ms a 2**18-value block near
    # n = 10**10, and 78 ms a 2**20-value one): refused before any table is built
    monkeypatch.setattr(arith, "build_table", lambda *a, **k: pytest.fail("build_table ran"))
    for a1, b2 in ((1000, 1), (1, 10**12)):
        eq = ["--fn", "phi", "--a1", str(a1), "--b1", "0", "--a2", "1", "--b2", str(b2)]
        for argv in (["search", *eq], ["audit", *eq, "--y", "3", "--z", "2"]):
            start = time.perf_counter()
            code, out, err = invoke([*argv, "--max", str(10**10)], capsys)
            assert time.perf_counter() - start < 1.0, argv
            assert code == 2, argv
            assert out == "" and "base primes" in err


def test_large_multiplier_search_admitted_to_1e6(capsys):
    # phi(1000n) = phi(n + 1) near n = 10**10, in four 2**18-value blocks of two tables
    # (~1.8 * 10**6 base primes counted); it has no solutions, as phi(1000m) >= 400 phi(m)
    # and phi(m) > m / 7 near m = 10**10
    eq = ["--fn", "phi", "--a1", "1000", "--b1", str(10**13), "--a2", "1", "--b2", str(10**10 + 1)]
    for threads in ("1", "2"):
        code, out, err = invoke(["search", *eq, "--max", str(10**6), "--threads", threads], capsys)
        assert code == 0, err
        assert out == "n,A1,A2,value,class\n"


def test_x_past_float_range_exit_2(capsys):
    # x / z in the audit parameters overflows a float: one error line, no traceback
    x = str(10**400)
    for argv in (
        ["bounds", "--x", x],
        ["audit", *EQ_PHI1, "--max", x],
        ["audit", *EQ_PHI1, "--max", x, "--y", "3", "--z", "2"],
    ):
        code, out, err = invoke(argv, capsys)
        assert code == 2, argv
        assert out == "" and "Traceback" not in err
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err


def test_generate_negative_lmax_exit_1(capsys):
    code, out, err = invoke(
        ["generate", *EQ_SIGMA22, "--k1", "3", "--k2", "14", "--lmax", "-1"], capsys
    )
    assert code == 1
    assert out == "" and "lmax must be >= 0" in err


def test_generate_lmax_refused_exit_2(capsys):
    start = time.perf_counter()
    code, out, err = invoke(
        ["generate", *EQ_SIGMA22, "--k1", "3", "--k2", "14", "--lmax", str(3 * 10**7 + 1)], capsys
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == "" and "lmax must be <= 30000000" in err


def test_help_exits_0(capsys):
    code, out, _ = invoke(["--help"], capsys)
    assert code == 0
    assert out.startswith("usage: sigmaphi")


def test_parser_is_built_once_and_reused(capsys):
    # one parser serves every run in a process; a usage error between two equal
    # searches leaves it as it was, and --help still exits 0
    search = ["search", *EQ_PHI1, "--max", "500", "--classify"]
    first = invoke(search, capsys)
    code, out, err = invoke(["search", *EQ_PHI1, "--max", "many"], capsys)
    assert code == 1 and out == "" and "--max" in err
    again = invoke(search, capsys)
    assert first[0] == again[0] == 0
    assert first[1] == again[1] and first[1].count("\n") > 1
    assert invoke(["--help"], capsys)[0] == 0
    assert _build_parser() is _build_parser()


def test_classify_sigma_past_64_bits_exit_2(capsys):
    code, _, err = invoke(["classify", *EQ_SIGMA1, "--n", "5071080123293184000"], capsys)
    assert code == 2
    assert "does not fit in 64 bits" in err


def test_classify_hard_semiprime(capsys):
    # two 31-bit primes: sigma(n) != sigma(n + 1), found in well under a second
    n = 2147483647 * 2147483629
    start = time.perf_counter()
    code, _, err = invoke(["classify", *EQ_SIGMA1, "--n", str(n)], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert "not a solution" in err


def test_thread_count_does_not_change_output(capsys):
    base = invoke(["search", *EQ_SIGMA1, "--max", "5000", "--threads", "1"], capsys)
    multi = invoke(["search", *EQ_SIGMA1, "--max", "5000", "--threads", "4"], capsys)
    assert base[0] == multi[0] == 0
    assert base[1] == multi[1]


def test_audit_thread_count_does_not_change_output(capsys):
    argv = ["audit", *EQ_SIGMA1, "--max", "20000", "--y", "3", "--z", "2"]
    base = invoke([*argv, "--threads", "1"], capsys)
    multi = invoke([*argv, "--threads", "3"], capsys)
    assert base[0] == multi[0] == 0
    assert base[1] == multi[1] and base[1].count("\n") > 10

    def notes(err):
        return [line for line in err.splitlines() if not line.startswith("{")]

    assert notes(base[2]) == notes(multi[2]) != []
