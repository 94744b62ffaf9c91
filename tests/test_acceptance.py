"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criteria with stated runtime budgets assert them.
"""

import time

import numpy as np
import pytest

import brute
from sigmaphi import (
    EquationSpec,
    Kind,
    arith,
    audit_range,
    bound_main,
    check_p_divisibility,
    classify,
    consecutive_multiperfect_search,
    count_S,
    count_sporadic,
    derive_family,
    enumerate_families,
    generate,
    is_prime,
    phi,
    phi_smooth_count,
    psi,
    search,
    sigma,
    sigma_smooth_count,
    verify_witness,
)
from sigmaphi.cli import run

PHI_PLUS_1 = EquationSpec(Kind.PHI, 1, 0, 1, 1)
PHI_PLUS_2 = EquationSpec(Kind.PHI, 1, 0, 1, 2)
SIGMA_PLUS_1 = EquationSpec(Kind.SIGMA, 1, 0, 1, 1)
SIGMA_PLUS_22 = EquationSpec(Kind.SIGMA, 1, 0, 1, 22)

# documented desk-scale override for the bucket audit: y small enough that
# every argument surviving B1 is squarefree, which guarantees decompositions
AUDIT_Y, AUDIT_Z = 3.0, 2.0


def _report(num: int, detail: str) -> None:
    print(f"criterion {num}: PASS ({detail})")


def test_criterion_1_known_phi_solutions():
    started = time.perf_counter()
    ns = [rec.n for rec in search(PHI_PLUS_1, 500)]
    elapsed = time.perf_counter() - started
    assert ns == [1, 3, 15, 104, 164, 194, 255, 495]
    assert elapsed < 1.0
    _report(1, f"phi shift-1 solutions to 500 exact in {elapsed:.3f}s")


def test_criterion_2_moser_family_soundness():
    started = time.perf_counter()
    pairs = [
        p
        for p in arith._simple_primes(10_000).tolist()
        if p % 2 == 1 and is_prime(2 * p - 1)  # p and 2p-1 both odd primes
    ]
    assert pairs, "expected Moser prime pairs below 10^4"
    ns = [2 * (2 * p - 1) for p in pairs]
    found = {rec.n for rec in search(PHI_PLUS_2, max(ns))}
    for n in ns:
        assert phi(n) == phi(n + 2)
        assert n in found
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _report(2, f"{len(ns)} Moser instances verified and found in {elapsed:.2f}s")


def test_criterion_3_sigma_22_family():
    fams = enumerate_families(SIGMA_PLUS_22, 20)
    assert any((f.k1, f.k2, f.m1, f.m2) == (3, 14, 28, 6) for f in fams)
    family = derive_family(SIGMA_PLUS_22, 3, 14)
    witnesses = generate(family, 1000)
    assert witnesses
    by_l = {w.l: w for w in witnesses}
    assert (by_l[6].q1, by_l[6].q2, by_l[6].n) == (17, 83, 476)
    assert sigma(476) == sigma(498) == 1008
    assert all(verify_witness(w) for w in witnesses)
    found = {rec.n for rec in search(SIGMA_PLUS_22, max(w.n for w in witnesses))}
    assert all(w.n in found for w in witnesses)
    _report(3, f"{len(witnesses)} generated witnesses all verified and found by search")


def test_criterion_4_classifier_completeness():
    moser = derive_family(PHI_PLUS_2, 2, 1)
    sigma22 = derive_family(SIGMA_PLUS_22, 3, 14)
    witnesses = generate(moser, 10_000) + generate(sigma22, 1000)
    assert witnesses
    for w in witnesses:
        assert classify(w.family.spec, w.n) is not None
    sporadic_total = 0
    for k in (1, 3, 5):
        spec = EquationSpec(Kind.PHI, 1, 0, 1, k)
        for rec in search(spec, 100_000):
            assert classify(spec, rec.n) is None
            sporadic_total += 1
    _report(
        4,
        f"{len(witnesses)} witnesses all parametric; "
        f"{sporadic_total} odd-shift solutions all sporadic",
    )


def test_criterion_5_smooth_count_oracles():
    started = time.perf_counter()
    limit = 2000

    # per-n characteristic values, library path vs trial-division oracle;
    # every counter value for x <= 2000, y <= x is a prefix count of these,
    # so pointwise equality here settles the whole grid
    lpf = arith.largest_factor_table(limit)
    sig = arith.build_table(1, limit, Kind.SIGMA)
    tot = arith.build_table(1, limit, Kind.PHI)
    value_lpf = arith.largest_factor_table(int(sig.max()))
    for n in range(1, limit + 1):
        assert int(lpf[n]) == brute.largest_prime_factor(n)
        s_thr = max((p**e for p, e in arith.factorize(n) if e >= 2), default=0)
        assert s_thr == brute.s_threshold(n)
        assert int(value_lpf[tot[n - 1]]) == brute.largest_prime_factor(
            brute.phi_formula(n)
        )
        assert int(value_lpf[sig[n - 1]]) == brute.largest_prime_factor(
            brute.sigma(n)
        )

    # the counting rule itself: full y-sweeps at fixed x against the oracle
    for x in (1, 50, 613, 2000):
        brute_p = [brute.largest_prime_factor(n) for n in range(1, x + 1)]
        brute_thr = [brute.s_threshold(n) for n in range(1, x + 1)]
        for y in range(1, x + 1):
            assert psi(x, y) == sum(1 for v in brute_p if v <= y)
            assert count_S(x, y) == sum(1 for t in brute_thr if t > y)
    for x in (1, 400):
        for y in range(1, x + 1):
            assert phi_smooth_count(x, y) == brute.phi_smooth_count(x, y)
            assert sigma_smooth_count(x, y) == brute.sigma_smooth_count(x, y)
    rng = np.random.default_rng(20260810)
    for _ in range(40):
        x = int(rng.integers(2, limit + 1))
        y = int(rng.integers(1, x + 1))
        assert psi(x, y) == brute.psi(x, y)
        assert count_S(x, y) == brute.count_S(x, y)
        assert phi_smooth_count(x, y) == brute.phi_smooth_count(x, y)
        assert sigma_smooth_count(x, y) == brute.sigma_smooth_count(x, y)

    assert psi(100, 5) == 34
    assert count_S(100, 10) == 15
    assert phi_smooth_count(10, 2) == 8
    assert sigma_smooth_count(10, 3) == 7
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(5, f"oracle equivalence established for x <= {limit} in {elapsed:.1f}s")


def test_criterion_6_consecutive_multiperfect():
    started = time.perf_counter()
    assert consecutive_multiperfect_search(10**6) == []

    # reduction for the shift-1 sigma equation: a family from a coprime pair
    # exists iff the pair is (k, k+1) with both k | sigma(k) and
    # (k+1) | sigma(k+1); exhausted for k <= 10^4 (both sides always false)
    sig = arith.build_table(1, 10_001, Kind.SIGMA)
    hits = 0
    for k in range(1, 10_001):
        fam = derive_family(SIGMA_PLUS_1, k, k + 1)
        both_multiperfect = sig[k - 1] % k == 0 and sig[k] % (k + 1) == 0
        assert (fam is not None) == both_multiperfect
        if fam is not None:
            assert (fam.m1, fam.m2) == (k + 1, k)
            hits += 1
    assert hits == 0
    # non-consecutive coprime pairs never produce integral multipliers
    assert enumerate_families(SIGMA_PLUS_1, 10_000) == []
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(6, f"no consecutive multiperfect <= 10^6; reduction exhausted in {elapsed:.1f}s")


def test_criterion_7_audit_coherence():
    sporadics = [rec.n for rec in search(SIGMA_PLUS_1, 100_000)]
    assert 14 in sporadics and 206 in sporadics
    for n in sporadics:
        assert classify(SIGMA_PLUS_1, n) is None
    params, audited = audit_range(SIGMA_PLUS_1, 100_000, y=AUDIT_Y, z=AUDIT_Z)
    # total and single-valued over every sporadic solution
    assert [rec.n for rec, _ in audited] == sporadics
    checked_p = 0
    for rec, verdict in audited:
        dec = verdict.decomposition
        assert (dec is not None) == (verdict.bucket.value in ("B3", "B4"))
        if dec is None:
            continue
        assert sigma(dec.m1) * dec.k1 == sigma(dec.m2) * dec.k2
        assert rec.arg1 == dec.m1 * (dec.k1 * dec.p - 1)
        assert rec.arg2 == dec.m2 * (dec.k2 * dec.p - 1)
        if dec.m1 * dec.k1 != dec.m2 * dec.k2:  # a1 = a2 = 1 here
            assert check_p_divisibility(SIGMA_PLUS_1, verdict) is True
            checked_p += 1
    buckets = sorted({v.bucket.value for _, v in audited})
    _report(
        7,
        f"{len(audited)} sporadic solutions bucketed ({', '.join(buckets)}) "
        f"with y={AUDIT_Y}, z={AUDIT_Z}; {checked_p} divisibility checks passed",
    )


def test_criterion_8_bound_sanity():
    # independent high-precision evaluation of the closed form at x = 10^6,
    # frozen to 6 significant figures: 75594.8
    value = bound_main(10**6)
    assert f"{value:.6g}" == "75594.8"
    assert value == pytest.approx(75594.757175, rel=1e-9)

    phi_sporadic = count_sporadic(PHI_PLUS_1, 10**6)
    sigma_sporadic = count_sporadic(SIGMA_PLUS_1, 10**6)
    assert phi_sporadic >= 8 and sigma_sporadic >= 2
    assert phi_sporadic <= value
    assert sigma_sporadic <= value
    _report(
        8,
        f"bound_main(10^6) = {value:.6g}; sporadic counts to 10^6 "
        f"(phi: {phi_sporadic}, sigma: {sigma_sporadic}) are below it",
    )


def test_criterion_9_thread_determinism(capsys):
    # ranges past 2^20 span several sieve blocks, so threading really engages
    commands = [
        ["search", "--fn", "sigma", "--a1", "1", "--b1", "0", "--a2", "1", "--b2", "1",
         "--max", "2500000"],
        ["audit", "--fn", "sigma", "--a1", "1", "--b1", "0", "--a2", "1", "--b2", "1",
         "--max", "100000", "--y", "3", "--z", "2"],
        ["multiperfect", "--max", "2500000"],
    ]
    for argv in commands:
        outputs = []
        for threads in ("1", "4"):
            assert run(argv + ["--threads", threads]) == 0
            out = capsys.readouterr().out
            if argv[0] != "multiperfect":  # multiperfect is correctly empty
                assert out.count("\n") >= 2, f"{argv[0]} produced no data rows"
            outputs.append(out)
        assert outputs[0] == outputs[1], f"thread count changed output of {argv[0]}"
    _report(9, f"{len(commands)} commands byte-identical at 1 and 4 threads")
