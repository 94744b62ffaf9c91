import time
from math import prod

import numpy as np
import pytest

import brute
from sigmaphi import (
    CapacityError,
    Kind,
    UsageError,
    arith,
    build_table,
    factorize,
    is_prime,
    largest_factor_table,
    largest_prime_factor,
    phi,
    radical,
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


STEPS = [*range(1, 41), 64, 81, 210, 1024, 2310]


@pytest.mark.parametrize("step", STEPS)
def test_stepped_table_matches_dense(step, monkeypatch):
    # lo coprime to step, a multiple of it, and sharing only part of its
    # factors: each prime of step then divides no term in some progressions
    # and every term in others
    for lo in (1, step, 2 * step + 1, step * step, 6 * step + 4, 720720 + 3):
        hi = lo + 60 * step + step // 2
        for kind in Kind:
            dense = build_table(lo, hi, kind)[::step]
            for seg in (1, 7, DEFAULT_SEGMENT):
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
    for limit in (1, 2, 3, 4, 24, 25, 26):
        assert largest_factor_table(limit).tolist() == lpf[: limit + 1].tolist()


def test_largest_factor_table_matches_strided_writes():
    # one strided write per prime, ascending, so the largest prime writes last
    limit = 200_000
    old = np.ones(limit + 1, dtype=np.uint64)
    for p in _simple_primes(limit).tolist():
        old[p::p] = p
    assert np.array_equal(largest_factor_table(limit), old)


def test_primes_upto():
    assert _simple_primes(1).tolist() == []
    assert _simple_primes(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(_simple_primes(10_000)) == 1229
