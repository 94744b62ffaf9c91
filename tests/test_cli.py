import json
import time

from sigmaphi import bound_bfps
from sigmaphi.cli import run

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
    assert set(manifest) == {"command", "params", "version", "elapsed_ms", "rows"}
    assert manifest["command"] == "search"
    assert manifest["rows"] == 8
    assert manifest["params"]["max"] == 500


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
    # ten blocks each, so a missing cap would still start at most ten threads
    for argv in (["search", *EQ_PHI1, "--max", "10"], ["families", *EQ_SIGMA22, "--kmax", "10"]):
        code, _, err = invoke([*argv, "--threads", "1000000"], capsys)
        assert code == 1
        assert "threads must be <=" in err


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
        assert "x must be < 2**48" in err
    # refused before the 160 GB (sigma), 80 GB (phi) or 10 GB (s) table is
    # allocated, and before psi sieves for about 40 days
    for which, x in (("psi", 1 << 47), ("s", 10**10), ("phi", 10**10), ("sigma", 10**10)):
        code, _, err = invoke(["smooth", "--which", which, "--x", str(x), "--y", "2"], capsys)
        assert code == 2, which
        assert "x must be <=" in err or "budget" in err


def test_bulk_ranges_refused_exit_2(capsys):
    # past 10**10 integers each command would sieve for hours; refused at once
    for argv in (
        ["search", *EQ_SIGMA1, "--max"],
        ["audit", *EQ_SIGMA1, "--y", "3", "--z", "2", "--max"],
        ["audit", *EQ_PHI1, "--max"],
        ["multiperfect", "--max"],
        ["families", *EQ_SIGMA22, "--kmax"],
    ):
        start = time.perf_counter()
        code, out, err = invoke([*argv, str(10**10 + 1), "--threads", "2"], capsys)
        assert time.perf_counter() - start < 1.0, argv
        assert code == 2, argv
        assert out == "" and "spans more than 10000000000 integers" in err


def test_generate_lmax_refused_exit_2(capsys):
    start = time.perf_counter()
    code, out, err = invoke(
        ["generate", *EQ_SIGMA22, "--k1", "3", "--k2", "14", "--lmax", str(10**10 + 1)], capsys
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == "" and "lmax must be <= 10000000000" in err


def test_help_exits_0(capsys):
    code, out, _ = invoke(["--help"], capsys)
    assert code == 0
    assert out.startswith("usage: sigmaphi")


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
