import functools
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import brute
from sigmaphi import arith, smoothness
from sigmaphi import (
    CapacityError,
    DomainError,
    Kind,
    UsageError,
    bound_bfps,
    bound_debruijn,
    bound_main,
    build_table,
    count_S,
    is_in_S,
    largest_factor_table,
    phi_smooth_count,
    psi,
    sigma_smooth_count,
    smooth_report,
)


@pytest.mark.parametrize("x,y,expected", [(100, 5, 34), (10, 10, 10), (10, 1, 1)])
def test_psi_examples(x, y, expected):
    assert psi(x, y) == expected


@pytest.mark.parametrize(
    "n,y,expected", [(48, 10, True), (12, 10, False), (1, 10, False), (16, 10, True)]
)
def test_is_in_S_examples(n, y, expected):
    assert is_in_S(n, y) is expected


@pytest.mark.parametrize("x,y,expected", [(100, 10, 15), (10, 100, 0), (16, 10, 1)])
def test_count_S_examples(x, y, expected):
    assert count_S(x, y) == expected


def test_smooth_count_examples():
    assert phi_smooth_count(10, 2) == 8
    assert sigma_smooth_count(10, 3) == 7
    assert phi_smooth_count(1, 1) == 1


def test_psi_monotone_and_saturating():
    for x in (1, 17, 60, 121):
        for y in (1, 2, 3, 10, 50):
            assert psi(x, y) <= psi(x + 13, y)
            assert psi(x, y) <= psi(x, y + 7)
        assert psi(x, x) == x
        assert psi(x, x + 100) == x


def test_counters_match_brute_small_grid():
    # x = 121 and 300 reach sigma(p**e) > x + 1 (11**2, 17**2, 2**8), which the counters
    # test by factoring instead of by table lookup
    for x in (1, 2, 30, 121, 300):
        for y in (*range(1, x + 1, max(1, x // 9)), 2, x + 2):
            assert psi(x, y) == brute.psi(x, y)
            assert count_S(x, y) == brute.count_S(x, y)
            assert phi_smooth_count(x, y) == brute.phi_smooth_count(x, y)
            assert sigma_smooth_count(x, y) == brute.sigma_smooth_count(x, y)


def test_counters_span_segments():
    # x passes the first sieve segment (2**20 entries) and y = 1100 > sqrt(x).
    # The reference factors every value through one table up to max(sigma).
    x = 2**20 + 2000
    sigmas = build_table(1, x, Kind.SIGMA).astype(np.int64)
    phis = build_table(1, x, Kind.PHI).astype(np.int64)
    lpf = largest_factor_table(int(sigmas.max()))
    for y in (1, 2, 100, 1100, x + 2):
        assert psi(x, y) == np.count_nonzero(lpf[1 : x + 1] <= y)
        assert phi_smooth_count(x, y) == np.count_nonzero(lpf[phis] <= y)
        assert sigma_smooth_count(x, y) == np.count_nonzero(lpf[sigmas] <= y)


@functools.cache
def _oracle_factors(xmax):
    """(n, phi(n), sigma(n))'s largest prime factors at each n <= xmax, by trial division."""
    return np.array(
        [
            [brute.largest_prime_factor(v) for v in (n, brute.phi_formula(n), brute.sigma(n))]
            for n in range(1, xmax + 1)
        ]
    )


# one oracle table for every test below: the largest x they count is 12 * 1024 + 7
_ORACLE_MAX = 12 * 1024 + 7


def _oracle_counts(y):
    """[psi, phi_smooth_count, sigma_smooth_count] at every x <= _ORACLE_MAX (row x)."""
    counts = np.cumsum(_oracle_factors(_ORACLE_MAX) <= y, axis=0)
    return [[0, 0, 0], *counts.tolist()]


def _prefix_ends(x, size):
    """Where, in segments of size terms, the prefixes that the heads h = 2**a * 3**b <= x
    read of the step-6 walks from r = 1 and 5 end: the set of (r, place), place being
    "edge", "inside" or "last" (past the walk's last whole segment).  Empty prefixes, of
    the heads with x // h < r, are left out.
    """
    heads = [2**a * 3**b for a in range(x.bit_length()) for b in range(x.bit_length())]
    where = set()
    for r in (1, 5):
        terms = max(0, (x - r) // 6 + 1)
        for h in heads:
            end = (x // h - r) // 6 + 1 if h <= x else 0
            if end > 0:
                last = end > terms // size * size
                where.add((r, "edge" if end % size == 0 else "last" if last else "inside"))
    return where


def test_counters_at_small_segments(monkeypatch):
    # 1-entry segments each copy one entry of the kernel's wheel, here on bool outputs;
    # 7- and 1024-entry segments copy it across segment edges, and at x = 6 * size and
    # 6 * size + 5 the prefixes of both walks end on segment edges, inside segments and in
    # a last, partial one.  No x reaches the hit tier's primes (from 2**8); the 2**20 +
    # 2000 of test_counters_span_segments does
    for size, xs in ((1, [300]), (7, [42, 47, 300]), (1 << 10, [3000, 6144, 6149])):
        monkeypatch.setattr(arith, "SEGMENT", size)
        if size > 1:
            places = set().union(*(_prefix_ends(x, size) for x in xs))
            assert places == {(r, p) for r in (1, 5) for p in ("edge", "inside", "last")}
        for x in xs:
            for y in (1, 2, 2.5, 3, 10, 53, x + 2):
                got = [psi(x, y), phi_smooth_count(x, y), sigma_smooth_count(x, y)]
                assert got == _oracle_counts(y)[x], (size, x, y)
        monkeypatch.undo()


def test_counters_match_brute_at_every_small_x():
    # each count sums, over the heads 2**a * 3**b <= x that pass, the m <= x // (2**a * 3**b)
    # prime to 6 that pass; g(2) and g(3) flip at y = 2 or 3 (psi at 2 and 3, phi(4) =
    # phi(3) = 2, sigma(3) = 4 and sigma(2) = 3)
    for y in (1, 1.5, 2, 2.5, 3, 4, 10):
        oracle = _oracle_counts(y)
        for x in range(1, 301):
            got = [psi(x, y), phi_smooth_count(x, y), sigma_smooth_count(x, y)]
            assert got == oracle[x], (x, y)
    for x in range(1, 301):
        assert [psi(x, x + 2), phi_smooth_count(x, x + 2)] == [x, x], x
        assert sigma_smooth_count(x, x + 2) == brute.sigma_smooth_count(x, x + 2), x


def test_walk_from_5_is_empty_below_5():
    # below x = 5 only the walk from 1 has a term, m = 1; the counts at these x are
    # checked in test_counters_match_brute_at_every_small_x
    rule = smoothness._psi_rule(10)
    for x in range(1, 5):
        got = [(r, j, mask.tolist()) for r, j, mask in smoothness._segments((1, 5), 6, x, rule)]
        assert got == [(1, 0, [True])]


def test_kept_scratch_per_thread(monkeypatch):
    # each thread walks in its own kept segment buffer and kernel scratch: 4 threads
    # counting at once, in 7-entry segments with a short switch interval, read the
    # serial counts
    monkeypatch.setattr(arith, "SEGMENT", 7)
    counters = (psi, phi_smooth_count, sigma_smooth_count)  # the oracle's columns
    calls = [(i, x, y) for i in range(3) for x, y in ((3000, 10), (2999, 53))]
    serial = [counters[i](x, y) for i, x, y in calls]
    assert serial == [_oracle_counts(y)[x][i] for i, x, y in calls]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(lambda c: counters[c[0]](*c[1:]), calls * 4, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert got == serial * 4


def test_segment_size_is_read_per_call(monkeypatch):
    # the kept segment buffer is sized at every call: after a full-size count has grown
    # it to 2**18 entries or more, a count at SEGMENT = 7 still walks 7-entry segments
    psi(6 * 2**18 + 5, 10)
    assert smoothness._scratch.array("mask", 1, bool).base.size >= 2**18
    monkeypatch.setattr(arith, "SEGMENT", 7)
    rule = smoothness._psi_rule(10)
    sizes = [mask.size for _, _, mask in smoothness._segments((1, 5), 6, 300, rule)]
    assert sizes == ([7] * 7 + [1]) * 2  # 50 terms in each walk
    got = [psi(300, 10), phi_smooth_count(300, 10), sigma_smooth_count(300, 10)]
    assert got == _oracle_counts(10)[300]


@pytest.mark.parametrize("size", [1, 7, 28, 1 << 10])
def test_split_thresholds_across_segments(monkeypatch, size):
    # the prefixes of the step-6 walks from 1 and 5 that the heads read end inside a
    # segment, on a segment edge, or in a last, partial segment, in both walks
    monkeypatch.setattr(arith, "SEGMENT", size)
    if size == 1:  # every prefix ends on an edge
        xs, places = range(1, 65), {"edge"}
    else:
        xs = [*range(6 * size - 3, 6 * size + 9), 12 * size + 7]
        places = {"edge", "inside", "last"}
    where = set().union(*(_prefix_ends(x, size) for x in xs))
    assert where == {(r, p) for r in (1, 5) for p in places}
    for y in (1, 1.5, 2, 2.5, 3, 10):
        oracle = _oracle_counts(y)
        for x in xs:
            got = [psi(x, y), phi_smooth_count(x, y), sigma_smooth_count(x, y)]
            assert got == oracle[x], (size, x, y)


@pytest.mark.parametrize("y", [1, 1.5, 2, 3, 10, 100])
def test_smooth_lookup_by_odd_part(y):
    # the table of the odd numbers up to (x + 1) // 2 answers for every v whose odd part
    # is that small, which every even v <= x + 1 is, powers of 2 included; below y = 2
    # only v = 1 is y-smooth, though every power of 2 has odd part 1
    x = 1000
    half = (x + 1) // 2
    table = smoothness._smooth_table(half, y)
    assert table.size == (half + 1) // 2
    vs = [v for v in range(1, 4 * x) if v // (v & -v) <= half]
    got = smoothness._smooth_lookup(table, y, np.array(vs, dtype=np.uint64))
    assert got.tolist() == [brute.largest_prime_factor(v) <= y for v in vs]


def test_odd_index_matches_division():
    # v >> (k + 1), k read from the double 2**k = v & -v, is odd // 2 for the odd part
    # odd = v // (v & -v): at 1, at every power of 2 below 2**63, at random v, and at the
    # last index of the table at the counters' cap x = 2**32 (odd part 2**31 - 1) and the
    # first past it
    rng = np.random.default_rng(28)
    vs = [1, *(1 << k for k in range(63)), *rng.integers(1, 2**63, 2000).tolist()]
    vs += [v << k for v in rng.integers(1, 2**20, 200).tolist() for k in (1, 7, 40)]
    size = ((2**32 + 1) // 2 + 1) // 2  # the table's entries at x = 2**32
    vs += [odd << k for odd in (2 * size - 1, 2 * size + 1) for k in range(32)]
    got = smoothness._odd_index(np.array(vs, dtype=np.uint64)).tolist()
    assert got == [v // (v & -v) >> 1 for v in vs]
    assert got[-64] == size - 1 and got[-1] == size


def _count_S_marks(x, y):
    # the O(x) mark sieve count_S used before its inclusion-exclusion
    mark = np.zeros(x + 1, dtype=bool)
    for p in filter(brute.is_prime, range(2, math.isqrt(x) + 1)):
        q = p * p
        while q <= y:
            q *= p
        if q <= x:
            mark[q::q] = True
    return int(np.count_nonzero(mark))


def test_count_S_matches_mark_sieve():
    ys = (1, 2, 3, 3.99, 4, 10, 100, 1100, 10**6)
    for x in (*range(1, 301), 2**20 + 2000, 10**6, 10**7):
        for y in (*ys, x, x + 1):
            assert count_S(x, y) == _count_S_marks(x, y), (x, y)
    for y in (*ys, 2000, 2001):
        assert count_S(2000, y) == brute.count_S(2000, y), y


def test_count_S_at_range_limit_in_sqrt_memory():
    # every n is in S at y < 4 unless squarefree; Q(10**10) = 6079270942 (OEIS A071172)
    tracemalloc.start()
    try:
        assert count_S(10**10, 1) == 10**10 - 6079270942
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


def test_is_in_S_matches_brute():
    for n in range(1, 600):
        for y in (1, 3, 9, 25, 100):
            assert is_in_S(n, y) is brute.in_S(n, y)


def test_sigma_count_vs_squarefree_restriction():
    # restricting to integers outside S changes the count by at most |S|
    for x in (50, 200, 300):
        for y in (2, 5, 10, 30):
            full = sigma_smooth_count(x, y)
            restricted = sum(
                1
                for n in range(1, x + 1)
                if brute.largest_prime_factor(brute.sigma(n)) <= y and not brute.in_S(n, y)
            )
            assert 0 <= full - restricted <= count_S(x, y)


def test_bound_debruijn():
    assert bound_debruijn(100, 100) == pytest.approx(100.0)
    x, y = 10**6, 100
    u = math.log(x) / math.log(y)
    assert bound_debruijn(x, y) == pytest.approx(x * math.exp(-u * math.log(u)))
    with pytest.raises(DomainError):
        bound_debruijn(10, 20)  # u < 1
    with pytest.raises(DomainError):
        bound_debruijn(10, 1)


def test_bound_bfps():
    x, y = 10**9, 10
    u = math.log(x) / math.log(y)
    assert u > math.e
    assert bound_bfps(x, y) == pytest.approx(x * math.exp(-u * math.log(math.log(u))))
    with pytest.raises(DomainError):
        bound_bfps(100, 10)  # u = 2 <= e makes log log u nonpositive
    for x, y in ((1, 10), (10**9, 1)):
        with pytest.raises(DomainError):
            bound_bfps(x, y)


def test_bound_main():
    assert bound_main(10**6) == pytest.approx(75594.757175, rel=1e-9)
    with pytest.raises(DomainError):
        bound_main(15)
    assert bound_main(16) > 0


def test_smooth_report():
    rep = smooth_report("psi", 100, 5)
    assert (rep.x, rep.y, rep.count, rep.bound_value, rep.ratio) == (100, 5, 34, None, None)
    rep = smooth_report("s", 100, 10, include_bound=True)
    assert rep.bound_value == pytest.approx(100 / math.sqrt(10))
    # the reported ratio is count * sqrt(y) / x
    assert rep.ratio == pytest.approx(15 * math.sqrt(10) / 100)
    rep = smooth_report("psi", 100, 5, include_bound=True)
    assert rep.ratio == pytest.approx(rep.count / rep.bound_value)
    with pytest.raises(UsageError):
        smooth_report("nope", 10, 2)


def test_counter_validation():
    with pytest.raises(UsageError):
        psi(0, 5)
    with pytest.raises(UsageError):
        count_S(10, 0)
    with pytest.raises(UsageError):
        is_in_S(5, 0)
    # NaN passes a plain y < 1 test, and count_S never ends at y = inf
    for y in (math.nan, math.inf):
        for counter in (psi, count_S, phi_smooth_count, sigma_smooth_count):
            with pytest.raises(UsageError, match="finite"):
                counter(100, y)
        with pytest.raises(UsageError, match="finite"):
            is_in_S(12, y)


def test_smooth_counts_at_1e7():
    # the values of the largest_factor_table(2x) and (x) lookups these counters replaced
    assert sigma_smooth_count(10**7, 100) == 3826550
    assert phi_smooth_count(10**7, 100) == 3917490
    assert psi(10**7, 100) == 269882


def test_budgets_admit_target_sizes(monkeypatch):
    # with the sieves stubbed out, only the up-front limits run
    monkeypatch.setattr(smoothness, "_count", lambda x, local, bound=None: x)
    monkeypatch.setattr(smoothness, "_smooth_table", lambda limit, y: None)
    assert psi(10**9, 100) == 10**9
    # sigma and phi hold one y-smooth table of the odd numbers up to (x + 1) // 2, so
    # ((x + 1) // 2 + 1) // 2 bytes: at most 2**30 iff (x + 1) // 2 <= 2**31, that is iff
    # x <= 2**32
    for counter in (phi_smooth_count, sigma_smooth_count):
        assert counter(10**9, 100) == 10**9
        assert counter(2**32, 100) == 2**32
        with pytest.raises(CapacityError, match="budget"):
            counter(2**32 + 1, 100)
    # count_S is stubbed nowhere: it holds no O(x) array (a segmented mark sieve agrees)
    assert count_S(10**10, 100) == 522956440
