import random
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from math import gcd, isqrt, prod

import numpy as np
import pytest

import brute
from sigmaphi import (
    CapacityError,
    EquationSpec,
    Kind,
    UsageError,
    arith,
    build_table,
    consecutive_multiperfect_search,
    factorize,
    is_prime,
    largest_factor_table,
    largest_prime_factor,
    phi,
    radical,
    search,
    sigma,
)
from sigmaphi.arith import DEFAULT_SEGMENT, _simple_primes


@pytest.mark.parametrize(
    "n,expected",
    [(1, []), (476, [(2, 2), (7, 1), (17, 1)]), (498, [(2, 1), (3, 1), (83, 1)])],
)
def test_factorize_examples(n, expected):
    assert factorize(n) == expected


def test_factorize_matches_brute():
    for n in range(1, 3000):
        assert factorize(n) == brute.factorize(n)


def test_factorize_reconstructs_and_orders():
    for n in (2**40 + 1, 10**12 + 39, 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19):
        fac = factorize(n)
        prod = 1
        for p, e in fac:
            assert is_prime(p)
            prod *= p**e
        assert prod == n
        assert [p for p, _ in fac] == sorted(p for p, _ in fac)


# primes above 2**30, and the two largest primes below 2**21 (2097143**3 is
# the largest prime cube below 2**63)
HARD_PRIMES = (2147483647, 2147483629, 2147483587, 3037000493, 3037000453, 4294967291)
CUBE_PRIMES = (2097143, 2097133)


def _hard_cases():
    products = [p * q for i, p in enumerate(HARD_PRIMES) for q in HARD_PRIMES[i:]]
    p, q = CUBE_PRIMES
    return [n for n in products if n < 1 << 63] + [p**3, p * p * q]


def test_hard_primes_are_prime():
    for p in HARD_PRIMES + CUBE_PRIMES:
        assert brute.is_prime(p) and is_prime(p)


@pytest.mark.parametrize("n", _hard_cases())
def test_factorize_hard_cases(n):
    start = time.perf_counter()
    fac = factorize(n)
    assert time.perf_counter() - start < 1.0
    assert prod(p**e for p, e in fac) == n
    assert all(is_prime(p) for p, _ in fac)
    assert [p for p, _ in fac] == sorted({p for p, _ in fac})


@pytest.mark.parametrize(
    "n",
    # the least strong pseudoprimes to the prime bases 2..3, 2..5, 2..7,
    # 2..11, 2..13, 2..17 and 2..23: a tier bound that is off by one admits
    # the pseudoprime at that bound
    [1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
     341550071728321, 3825123056546413051],
)
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)


def test_is_prime_matches_brute_at_first_tier_bound():
    for n in range(1373653 - 2000, 1373653 + 2001):
        assert is_prime(n) is brute.is_prime(n)


@pytest.mark.parametrize("n,expected", [(1, 1), (476, 1008), (498, 1008)])
def test_sigma_examples(n, expected):
    assert sigma(n) == expected


@pytest.mark.parametrize("n,expected", [(1, 1), (104, 48), (105, 48)])
def test_phi_examples(n, expected):
    assert phi(n) == expected


@pytest.mark.parametrize("n,expected", [(1, 1), (24, 3), (97, 97)])
def test_largest_prime_factor_examples(n, expected):
    assert largest_prime_factor(n) == expected


@pytest.mark.parametrize("n,expected", [(1, 1), (28, 14), (6, 6)])
def test_radical_examples(n, expected):
    assert radical(n) == expected


@pytest.mark.parametrize(
    "n,expected",
    [(0, False), (1, False), (2, True), (83, True), (55, False), (561, False), (2047, False)],
)
def test_is_prime_examples(n, expected):
    assert is_prime(n) is expected


def test_is_prime_matches_brute():
    for n in range(0, 10_000):
        assert is_prime(n) is brute.is_prime(n)


def test_is_prime_large_values():
    m61 = 2**61 - 1
    assert is_prime(m61)
    assert not is_prime(m61 * m61 % (2**62))  # even
    assert not is_prime((2**31 - 1) ** 2)
    assert is_prime(9223372036854775783)  # largest prime below 2**63


def test_scalar_oracles_to_1e4():
    for n in range(1, 10_001):
        assert sigma(n) == brute.sigma(n)
        assert phi(n) == brute.phi_formula(n)
        assert largest_prime_factor(n) == brute.largest_prime_factor(n)


def test_phi_definitional_count():
    for n in range(1, 2001):
        assert phi(n) == brute.phi_count(n)


def test_totient_divisor_sum_identity():
    for n in range(1, 10_001):
        assert sum(phi(d) for d in brute.divisors(n)) == n


def test_prime_value_boundaries():
    sig = build_table(2, 10_000, Kind.SIGMA)
    tot = build_table(2, 10_000, Kind.PHI)
    for n, s, t in zip(range(2, 10_001), sig.tolist(), tot.tolist()):
        prime = is_prime(n)
        assert s >= n + 1
        assert (s == n + 1) is prime
        assert t <= n - 1
        assert (t == n - 1) is prime
    for q in (2, 3, 5, 7919, (1 << 61) - 1):
        assert Kind.SIGMA.local(q) == q + Kind.SIGMA.shift == q + 1
        assert Kind.PHI.local(q) == q + Kind.PHI.shift == q - 1


def test_build_table_spot_values():
    sig = build_table(1, 10, Kind.SIGMA)
    assert sig.dtype == np.uint64 and sig.size == 10
    assert sig[6 - 1] == 12
    assert sig[9 - 1] == 13
    assert build_table(1, 10, Kind.PHI)[0] == 1


def test_build_table_matches_scalars():
    for lo, hi in ((1, 2000), (10**6 - 500, 10**6 + 500)):
        for kind in Kind:
            values = build_table(lo, hi, kind)
            assert values.tolist() == [kind.evaluate(n) for n in range(lo, hi + 1)]


def test_build_table_at_capacity():
    # the top of the table range, where the base primes reach 2**24, and the
    # square of the largest prime below 2**24, where p**3 exceeds 2**64
    q = (1 << 24) - 3
    for lo, hi in (((1 << 48) - 2001, (1 << 48) - 1), (q * q - 10, q * q + 10)):
        sig = build_table(lo, hi, Kind.SIGMA).tolist()
        tot = build_table(lo, hi, Kind.PHI).tolist()
        for n, s, t in zip(range(lo, hi + 1), sig, tot):
            fac = factorize(n)  # scalar sigma and phi from one factorization
            assert s == prod((p ** (e + 1) - 1) // (p - 1) for p, e in fac), n
            assert t == prod(p ** (e - 1) * (p - 1) for p, e in fac), n
    # the largest prime below 2**48 is its own cofactor: the kernel's float64
    # division returns it whole, at the top of the table range
    big = (1 << 48) - 59
    assert is_prime(big)
    lo = (1 << 48) - 2001
    assert build_table(lo, (1 << 48) - 1, Kind.SIGMA)[big - lo] == big + 1
    assert build_table(lo, (1 << 48) - 1, Kind.PHI)[big - lo] == big - 1


def test_local_rule_contract():
    # the kernel reads f(p) at every prime off one local(primes) call
    ps = [2, 3, 5, 7919, 65521, (1 << 32) - 5, (1 << 61) - 1]
    for kind in Kind:
        at_primes = kind.local(np.array(ps, dtype=np.uint64))
        assert at_primes.dtype == np.uint64
        pairs = [kind.local(np.array([p], dtype=np.uint64), p) for p in ps]
        assert at_primes.tolist() == [int(v[0]) for v in pairs] == [kind.evaluate(p) for p in ps]
    # and f(p**e) at powers of several primes off one call with p an array shaped like
    # pe, as the wheel and the hit tier's deep hits do
    powers = [(2, 1), (2, 40), (3, 2), (257, 3), (65521, 2), ((1 << 24) - 3, 2), (7, 22)]
    pe = np.array([[p**e for p, e in powers]] * 2, dtype=np.uint64)
    p = np.array([[p for p, _ in powers]] * 2, dtype=np.uint64)
    for kind in Kind:
        values = kind.local(pe, p)
        assert values.dtype == np.uint64 and values.shape == pe.shape
        expected = [arith._value(kind, p**e, [(p, e)]) for p, e in powers]
        assert values.tolist() == [expected, expected]


def _scalar_values(lo: int, hi: int) -> dict:
    facs = [factorize(n) for n in range(lo, hi + 1)]
    return {kind: [arith._value(kind, n, f) for n, f in zip(range(lo, hi + 1), facs)] for kind in Kind}


def test_table_matches_scalars_across_2_32(monkeypatch):
    # the kernel's scratch is 4 B per entry below 2**32 and 8 B above; segments
    # and cofactor chunks here fall on both sides of it and straddle it
    lo, hi = (1 << 32) - 1000, (1 << 32) + 1000
    expected = _scalar_values(lo, hi)
    for seg, chunk in ((7, 3), (1000, 64), (DEFAULT_SEGMENT, arith._TAIL_CHUNK)):
        monkeypatch.setattr(arith, "DEFAULT_SEGMENT", seg)
        monkeypatch.setattr(arith, "_TAIL_CHUNK", chunk)
        for kind in Kind:
            assert build_table(lo, hi, kind).tolist() == expected[kind], (seg, chunk, kind)


# A unit-step segment copies the wheel (2, 3, 5, 7, period 88200) from lo mod 88200,
# loops over the primes from 11 below 2**8 and applies the rest by their hits.
# DEFAULT_SEGMENT = 1 and 7 give 1-entry segments, which copy one wheel entry each and send
# every base prime past 2**8 to the hit tier on its own; 2**12 and 2**20 give 2**10- and
# 2**18-entry segments, which copy several periods and meet many primes in each tier.
SEGMENTS = (1, 7, 1 << 12, 1 << 20)
WHEEL = 88200


def test_wheel_pattern_and_values():
    # at each residue r mod 88200, the product of p**v_p(r) over the wheel primes p
    # whose top power does not divide r
    tops = {2: 3, 3: 2, 5: 2, 7: 2}
    r = np.arange(WHEEL)
    expected = np.ones(WHEEL, dtype=np.int64)
    for p, top in tops.items():
        part = np.gcd(r, p**top)  # p**min(v_p(r), top), and p**top at r = 0
        expected *= np.where(part == p**top, 1, part)
    assert arith._WHEEL_PERIOD == WHEEL
    assert arith._wheel_powers().dtype == np.uint16
    assert np.array_equal(arith._wheel_powers(), expected)
    # the rule's values along a progression, and a rule with local(1, p) != 1 (psi's at
    # y = 3), whose values stay bool
    psi3 = lambda pe, p=None: (pe if p is None else p) <= 3  # noqa: E731
    for lo, step, size, rule in ((5, 6, 1000, Kind.SIGMA.local), (10**9 + 1, 1, 500, psi3),
                                 (7, 1, 3 * WHEEL, psi3), (88199, 35, 5000, Kind.PHI.local)):
        wheel = arith._walk(lo, step, size, arith._wheel_lookup(rule), arith._base_primes(0))
        assert (wheel.values.dtype == bool) == (rule is psi3) and wheel.values.itemsize <= 2
        for j in range(0, size, 97):
            n = lo + step * j
            powers = [(p, e) for p, e in factorize(n) if p <= 7 and e < tops[p]]
            at = wheel.powers[(n - wheel.lo) // step % wheel.powers.size]
            assert at == prod(p**e for p, e in powers), (lo, step, n)
            value = wheel.values[(n - wheel.lo) // step % wheel.values.size]
            arrays = [np.array([[p**e], [p]], dtype=np.uint64) for p, e in powers]
            want = prod(int(rule(pe, p)[0]) for pe, p in arrays)
            assert value == want, (lo, step, n)


def test_unit_tables_match_scalars_at_any_threshold(monkeypatch):
    rng = random.Random(20100602)
    windows = [((1 << 32) - 700, (1 << 32) + 700), (1, 70_000)]
    windows += [(lo, lo + 600) for lo in (rng.randrange(1, 1 << 47) for _ in range(4))]
    # windows from residues 0, 1 and L - 1 of the wheel, and one across a period boundary
    for base in (WHEEL, 10**9 // WHEEL * WHEEL, (1 << 47) // WHEEL * WHEEL):
        windows += [(base + r, base + r + 300) for r in (0, 1, WHEEL - 1, WHEEL - 150)]
    # 2**40 * 127 ends the wheel's levels of 2 far past any segment
    windows.append(((1 << 47) - (1 << 40) - 300, (1 << 47) - (1 << 40) + 300))
    for lo, hi in windows:
        expected = _scalar_values(lo, hi)
        for seg in SEGMENTS:
            # a 1-entry segment reduces lo modulo every base prime, so those run on 8 terms
            top = hi if seg > 7 else lo + 7
            monkeypatch.setattr(arith, "DEFAULT_SEGMENT", seg)
            for kind in Kind:
                table = build_table(lo, top, kind).tolist()
                assert table == expected[kind][: top - lo + 1], (lo, seg, kind)
            monkeypatch.undo()


# n = prod(p**e) around which a window tests the hit tier
SHARED_TERMS = [
    # p*q*97 near 10**14 with p, q > 10**6: both primes hit n, once each
    ((1_000_003, 1), (1_000_033, 1), (97, 1)),
    # 257**3 divides n: one deep hit two levels down, near 10**12
    ((257, 3), (58_913, 1)),
    # the squares of two tier primes divide n: a deep hit of each on one term
    ((257, 2), (263, 2), (1009, 1)),
    # a square far past the segment, near 1.4 * 10**14
    ((1_000_003, 2), (139, 1)),
]


def test_vectorised_primes_share_a_term(monkeypatch):
    # every prime >= 2**8 goes in by its hits, the p**v exactly dividing each term with
    # it: in a 4096-entry window around n they all hit n, and in 2**10-entry segments too;
    # so they do along the progressions of steps 2 and 3 through n, read off the window
    for factors in SHARED_TERMS:
        n = prod(p**e for p, e in factors)
        lo, hi = n - 2048, n + 2047
        assert all(is_prime(p) for p, _ in factors)
        expected = _scalar_values(lo, hi)
        for seg in (DEFAULT_SEGMENT, 1 << 12):
            monkeypatch.setattr(arith, "DEFAULT_SEGMENT", seg)
            for kind in Kind:
                values = build_table(lo, hi, kind).tolist()
                assert values == expected[kind], (n, kind, seg)
                at_n = prod(arith._value(kind, p**e, [(p, e)]) for p, e in factors)
                assert values[n - lo] == at_n, (n, kind, seg)
                for step in (2, 3):
                    start = lo + (n - lo) % step
                    stepped = build_table(start, hi, kind, step=step).tolist()
                    assert stepped == values[start - lo :: step], (n, kind, seg, step)
            monkeypatch.undo()


# Steps that are the wheel's period 88200 and twice it, at the offsets of
# test_stepped_table_matches_dense: a dense table to compare them against would
# be millions of entries for 61 terms, so they are checked against scalars.
PERIOD_STEPS = [(lo, step) for step in (88200, 176400)
                for lo in (1, step, 2 * step + 1, step * step, 6 * step + 4, 720720 + 3)]


def test_stepped_tables_match_scalars_at_random_offsets(monkeypatch):
    rng = random.Random(20100601)
    # steps with small prime factors, so that some primes divide every term or none
    steps = [rng.choice((1, 2, 6, 30, 210)) * rng.randrange(1, 40) for _ in range(6)]
    cases = [(rng.randrange(1, 1 << 47), step, 100, [DEFAULT_SEGMENT]) for step in steps]
    # DEFAULT_SEGMENT = 28 gives 7-entry segments
    cases += [(lo, step, 60, [28, DEFAULT_SEGMENT]) for lo, step in PERIOD_STEPS]
    # steps with a prime factor f >= 2**8, which divides every term or none: lo near
    # 2**47 coprime to f, a multiple of f, and a multiple of f*f
    for step, f in ((257, 257), (2 * 263, 263), (3 * 1009, 1009)):
        lo = rng.randrange(1 << 46, 1 << 47)
        for start in (lo + (lo % f == 0), lo - lo % f, lo - lo % (f * f)):
            cases.append((start, step, 60, [28, DEFAULT_SEGMENT]))
    for lo, step, terms, segments in cases:
        hi = lo + terms * step
        facs = [factorize(n) for n in range(lo, hi + 1, step)]
        for kind in Kind:
            expected = [arith._value(kind, n, f) for n, f in zip(range(lo, hi + 1, step), facs)]
            for seg in segments:
                monkeypatch.setattr(arith, "DEFAULT_SEGMENT", seg)
                stepped = build_table(lo, hi, kind, step=step).tolist()
                monkeypatch.undo()
                assert stepped == expected, (lo, step, kind, seg)


def test_table_scratch_peak():
    # the 8 MiB output plus one 2**18-entry segment's scratch, at any step: 4 B per entry
    # below 2**32, and the level arrays of p = 2 and the cofactor chunks, come to about
    # 10.6 MiB
    for hi, step in ((2**20 + 1, 1), (2**21 + 1, 2)):
        build_table(1, 100, Kind.SIGMA, step=step)
        tracemalloc.start()
        try:
            build_table(1, hi, Kind.SIGMA, step=step)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 11 * 2**20, step


def test_block_scratch_peak():
    # a default unit-shift or multiperfect block is one 2**19-entry table, two
    # whole kernel segments: 4 MiB plus the kernel's scratch, 6.66 MiB in all
    # (blocks of 2**20 values of n, whose tables are 2**20 + h entries, read 10.66)
    calls = {
        "search": lambda x: search(EquationSpec(Kind.SIGMA, 1, 0, 1, 1), x),
        "multiperfect": consecutive_multiperfect_search,
    }
    for name, call in calls.items():
        call(100)
        tracemalloc.start()
        try:
            call(2**21)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7.5 * 2**20, name


# 49 shares factors with the wheel's period 88200 (see also PERIOD_STEPS)
STEPS = [*range(1, 41), 49, 64, 81, 210, 1024, 2310, 257, 2 * 263, 3 * 1009]


@pytest.mark.parametrize("step", STEPS)
def test_stepped_table_matches_dense(step, monkeypatch):
    # lo coprime to step, a multiple of it, and sharing only part of its
    # factors: each prime of step then divides no term in some progressions
    # and every term in others
    for lo in (1, step, 2 * step + 1, step * step, 6 * step + 4, 720720 + 3):
        hi = lo + 60 * step + step // 2
        for kind in Kind:
            dense = build_table(lo, hi, kind)[::step]
            # 1- and 7-entry segments, and the default
            for seg in (1, 28, DEFAULT_SEGMENT):
                monkeypatch.setattr(arith, "DEFAULT_SEGMENT", seg)
                stepped = build_table(lo, hi, kind, step=step)
                monkeypatch.undo()
                assert np.array_equal(stepped, dense), (lo, kind, seg)


@pytest.mark.parametrize("step", (2, 3, 6))
def test_stepped_table_at_capacity(step):
    lo = (1 << 48) - 1 - 300 * step
    sig = build_table(lo, (1 << 48) - 1, Kind.SIGMA, step=step).tolist()
    tot = build_table(lo, (1 << 48) - 1, Kind.PHI, step=step).tolist()
    assert len(sig) == len(tot) == 301
    for n, s, t in zip(range(lo, 1 << 48, step), sig, tot):
        fac = factorize(n)
        assert s == prod((p ** (e + 1) - 1) // (p - 1) for p, e in fac), n
        assert t == prod(p ** (e - 1) * (p - 1) for p, e in fac), n


def test_segment_size_independence(monkeypatch):
    for kind in Kind:
        base = build_table(1, 5000, kind)
        for seg in (1, 7, 64, 4096):
            monkeypatch.setattr(arith, "DEFAULT_SEGMENT", seg)
            assert np.array_equal(base, build_table(1, 5000, kind))
            monkeypatch.undo()


def test_table_validation():
    with pytest.raises(UsageError):
        build_table(0, 10, Kind.SIGMA)
    with pytest.raises(UsageError):
        build_table(10, 5, Kind.SIGMA)
    with pytest.raises(CapacityError):
        build_table(1, 1 << 48, Kind.PHI)
    with pytest.raises(UsageError):
        build_table(1, 10, "sigma")
    with pytest.raises(UsageError):
        build_table(1, 10, Kind.SIGMA, step=0)
    # outputs over the 1 GiB budget are refused before anything is allocated
    for kind in Kind:
        with pytest.raises(CapacityError, match="budget"):
            build_table(1, 1 << 38, kind)
    with pytest.raises(CapacityError, match="budget"):
        build_table(1, 1 << 40, Kind.PHI, step=2)
    # the budget counts the terms sieved, not the span they cover
    assert build_table(1, 1 << 40, Kind.PHI, step=1 << 38).size == 4
    with pytest.raises(CapacityError, match="budget"):
        largest_factor_table(1 << 38)
    with pytest.raises(UsageError):
        largest_factor_table(0)


def test_scalar_validation():
    with pytest.raises(UsageError):
        sigma(0)
    with pytest.raises(CapacityError):
        sigma(1 << 63)
    with pytest.raises(UsageError):
        is_prime(-1)


def test_sigma_result_capacity():
    # 2^4 * 3 * 5 * ... * 47 is below 2^63 but its divisor sum exceeds 2^64
    n = 4919118260707931280
    assert n < 1 << 63
    with pytest.raises(CapacityError):
        sigma(n)


def test_largest_factor_table():
    lpf = largest_factor_table(20_000)
    assert lpf[1] == 1
    for n in range(1, 20_001):
        assert int(lpf[n]) == brute.largest_prime_factor(n)
    # limits 1-3 have no base prime <= isqrt(limit): every n > 1 is read off as prime
    for limit in range(1, 65):
        assert largest_factor_table(limit).tolist() == lpf[: limit + 1].tolist()


def test_largest_factor_table_matches_strided_writes():
    # one strided write per prime, ascending, so the largest prime writes last
    limit = 200_000
    old = np.ones(limit + 1, dtype=np.uint64)
    for p in _simple_primes(limit).tolist():
        old[p::p] = p
    assert np.array_equal(largest_factor_table(limit), old)


def test_primes_upto():
    assert _simple_primes(0).tolist() == _simple_primes(1).tolist() == []
    assert _simple_primes(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(_simple_primes(10_000)) == 1229


def test_base_primes_memo(monkeypatch):
    monkeypatch.setattr(arith, "_base", (0, _simple_primes(0)))
    for limit, bound in ((10, 10), (100, 100), (150, 200), (199, 200), (2, 200), (1000, 1000)):
        assert np.array_equal(arith._base_primes(limit), _simple_primes(limit)), limit
        assert arith._base[0] == bound, limit
    # the cache's growth stops at isqrt(TABLE_LIMIT), except for a limit past it
    monkeypatch.setattr(arith, "TABLE_LIMIT", 1500**2)
    for limit, bound in ((1001, 1500), (1600, 1600)):
        assert np.array_equal(arith._base_primes(limit), _simple_primes(limit)), limit
        assert arith._base[0] == bound, limit
    with pytest.raises(ValueError):  # callers share the cached array
        arith._base_primes(10)[0] = 4


def test_base_primes_memo_under_threads(monkeypatch):
    # largest limit first, and a slow sieve: unlocked, the smaller limits would
    # sieve again, and a lost update would shrink the cache below the largest
    monkeypatch.setattr(arith, "_base", (0, _simple_primes(0)))
    calls = []

    def slow_primes(limit):
        calls.append(limit)
        time.sleep(0.02)
        return _simple_primes(limit)

    monkeypatch.setattr(arith, "_simple_primes", slow_primes)
    limits = list(range(5000, 0, -50))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(arith._base_primes, limits, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for limit, primes in zip(limits, got):
        assert np.array_equal(primes, _simple_primes(limit)), limit
    assert calls == [5000]
    assert arith._base[0] == 5000


def test_small_prime_tuples_come_from_the_sieve():
    assert arith._TRIAL_PRIMES == tuple(p for p in range(arith._TRIAL_BOUND) if brute.is_prime(p))
    # plain ints, so factorize and is_prime never do numpy scalar arithmetic
    assert all(type(p) is int for p in arith._TRIAL_PRIMES)
    assert arith._WITNESSES == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _pow_inverses(step: int, primes) -> list[int]:
    return [pow(step, -1, p) if step % p else 0 for p in primes.tolist()]


# prime factors below 11, from 11 below 2**8, and from 2**8 up; one past 2**40
INVERSE_STEPS = [2, 3, 8, 49, 210, 11, 13 * 17, 2 * 251, 257, 2 * 263, 3 * 1009, 65537, 2**40 + 15]


@pytest.mark.parametrize("step", INVERSE_STEPS)
def test_step_inverses_match_pow(step, monkeypatch):
    monkeypatch.setattr(arith, "_steps", {})
    primes = arith._base_primes(20_000)
    inverses = arith._step_inverses(step, primes)
    assert inverses.tolist() == _pow_inverses(step, primes)
    with pytest.raises(ValueError):  # walks on other threads share it
        inverses[0] = 1
    # and straight from the extended Euclid, on primes past 2**20
    large = _simple_primes(1 << 21)[-500:]
    assert arith._inverses_mod(step, large).tolist() == _pow_inverses(step, large)


def test_step_inverses_for_a_step_above_every_prime(monkeypatch):
    monkeypatch.setattr(arith, "_steps", {})
    primes = arith._base_primes(1000)
    for step in (10**12 + 39, 2**47 - 1, 1009 * 997 * 991):
        assert step > primes[-1]
        assert arith._step_inverses(step, primes).tolist() == _pow_inverses(step, primes)


def test_step_inverses_grow_with_the_base_primes(monkeypatch):
    monkeypatch.setattr(arith, "_base", (0, _simple_primes(0)))
    monkeypatch.setattr(arith, "_steps", {})
    calls = []
    real = arith._inverses_mod
    monkeypatch.setattr(arith, "_inverses_mod", lambda s, p: calls.append(p.size) or real(s, p))
    small = arith._step_inverses(3, arith._base_primes(100))
    assert small.tolist() == _pow_inverses(3, _simple_primes(100))
    # the base primes grow past the cached inverses, which grow with them, by the new primes only
    primes = arith._base_primes(50_000)
    assert arith._step_inverses(3, primes).tolist() == _pow_inverses(3, primes)
    assert calls == [25, primes.size - 25]
    assert small.tolist() == _pow_inverses(3, _simple_primes(100))  # the old view is untouched
    # a shorter request reads a prefix, and a table at step 3 builds nothing more
    assert arith._step_inverses(3, arith._base_primes(1000)).size == 168
    build_table(10**9 + 1, 10**9 + 3 * 5000, Kind.PHI, step=3)
    assert len(calls) == 2


def test_step_inverses_under_threads(monkeypatch):
    # a slow Euclid and many threads: unlocked, a step would be built more than once,
    # or a lost update would leave a short or mixed cache
    monkeypatch.setattr(arith, "_steps", {})
    calls = []
    real = arith._inverses_mod

    def slow(step, primes):
        calls.append(step)
        time.sleep(0.02)
        return real(step, primes)

    monkeypatch.setattr(arith, "_inverses_mod", slow)
    primes = arith._base_primes(30_000)
    steps = [3, 1000] * 16
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda s: arith._step_inverses(s, primes), steps, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for step, inverses in zip(steps, got):
        assert inverses.tolist() == _pow_inverses(step, primes), step
    assert sorted(calls) == [3, 1000]


def test_step_cache_holds_the_last_two_steps(monkeypatch):
    monkeypatch.setattr(arith, "_steps", {})
    for step in (2, 3, 5, 3, 7):
        build_table(10**6 + 1, 10**6 + 200 * step, Kind.SIGMA, step=step)
        assert len(arith._steps) <= arith._STEPS == 2
    assert list(arith._steps) == [3, 7]  # oldest first
    # unit-step walks read the wheel itself and leave the cache alone
    build_table(10**6, 10**6 + 10**5, Kind.PHI)
    assert list(arith._steps) == [3, 7]
    # what a step holds: inverses for the primes its walks asked for, and one wheel period
    entry = arith._steps[7]
    assert entry.inverses.size == arith._base_primes(isqrt(10**6 + 1400)).size
    assert entry.patterns.size == WHEEL


@pytest.mark.parametrize("step", [2, 3, 35, 49, 210, 2 * WHEEL + 6, WHEEL, 1009])
def test_step_patterns_serve_every_progression(step, monkeypatch):
    monkeypatch.setattr(arith, "_steps", {})
    wheel = arith._wheel_powers()
    for lo in (1, 2, step - 1, step, 10**9 + 7, 3 * WHEEL + 5, 2**47 + 1):
        if lo < 1:
            continue
        anchor, powers = arith._pattern(lo, step)
        assert (lo - anchor) % step == 0 and powers.size == WHEEL // gcd(step, WHEEL)
        for k in range(0, 3 * powers.size, max(1, powers.size // 7)):
            assert powers[k % powers.size] == wheel[(anchor + k * step) % WHEEL], (lo, k)
