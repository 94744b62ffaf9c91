import gc
import sys
import threading
import time
import weakref
from math import isqrt

import numpy as np
import pytest

import brute
from sigmaphi import arith, equations, parametric
from sigmaphi import (
    CapacityError,
    EquationSpec,
    Kind,
    UsageError,
    classify,
    count_sporadic,
    phi,
    search,
    sigma,
)
from sigmaphi.equations import _check_work, _map_blocks

PHI_PLUS_1 = EquationSpec(Kind.PHI, 1, 0, 1, 1)
PHI_PLUS_2 = EquationSpec(Kind.PHI, 1, 0, 1, 2)
SIGMA_PLUS_1 = EquationSpec(Kind.SIGMA, 1, 0, 1, 1)
SIGMA_PLUS_22 = EquationSpec(Kind.SIGMA, 1, 0, 1, 22)


def test_equation_spec_validation():
    with pytest.raises(UsageError):
        EquationSpec(Kind.PHI, 0, 0, 1, 1)
    with pytest.raises(UsageError):
        EquationSpec(Kind.PHI, 1, 0, -2, 1)
    with pytest.raises(UsageError):
        EquationSpec(Kind.SIGMA, 2, 3, 4, 6)  # a1*b2 == a2*b1


def test_phi_plus_one_solutions_to_500():
    assert [r.n for r in search(PHI_PLUS_1, 500)] == [1, 3, 15, 104, 164, 194, 255, 495]


def test_sigma_plus_one_contains_known():
    ns = [r.n for r in search(SIGMA_PLUS_1, 300)]
    assert 14 in ns and 206 in ns


def test_phi_plus_two_matches_brute():
    ns = [r.n for r in search(PHI_PLUS_2, 30)]
    assert ns == brute.solutions("phi", 1, 0, 1, 2, 30)
    assert 10 in ns and 26 in ns


@pytest.mark.parametrize(
    "spec,xmax,expected",
    [(PHI_PLUS_1, 500, 8), (PHI_PLUS_1, 2, 1), (SIGMA_PLUS_1, 13, 0)],
)
def test_count_raw_examples(spec, xmax, expected):
    assert len(search(spec, xmax)) == expected


def test_count_sporadic_phi_plus_one():
    # no parametric family exists for odd shift, so every solution is sporadic
    assert count_sporadic(PHI_PLUS_1, 500) == 8


def test_count_sporadic_excludes_parametric():
    raw = len(search(SIGMA_PLUS_22, 500))
    sporadic = count_sporadic(SIGMA_PLUS_22, 500)
    assert classify(SIGMA_PLUS_22, 476) is not None
    assert sporadic <= raw
    parametric = sum(
        1 for r in search(SIGMA_PLUS_22, 500) if classify(SIGMA_PLUS_22, r.n) is not None
    )
    assert sporadic == raw - parametric
    assert parametric >= 1


def test_moser_subset_is_parametric():
    for n in (10, 26):
        assert classify(PHI_PLUS_2, n) is not None


def test_records_reverify():
    for spec in (PHI_PLUS_1, SIGMA_PLUS_22):
        for rec in search(spec, 600):
            assert rec.arg1 >= 1 and rec.arg2 >= 1
            assert rec.arg1 == spec.a1 * rec.n + spec.b1
            assert rec.arg2 == spec.a2 * rec.n + spec.b2
            f = sigma if spec.kind is Kind.SIGMA else phi
            assert f(rec.arg1) == f(rec.arg2) == rec.value


def test_partition_determinism():
    whole = search(PHI_PLUS_1, 600)
    pieces = []
    for lo, hi in ((1, 99), (100, 350), (351, 600)):
        pieces.extend(r for r in search(PHI_PLUS_1, hi) if lo <= r.n <= hi)
    assert whole == pieces
    # forced tiny blocks exercise a genuine multi-block threaded merge
    assert whole == search(PHI_PLUS_1, 600, threads=3, block_size=97)
    assert whole == search(PHI_PLUS_1, 600, block_size=1)


def test_negative_offsets_skip_nonpositive_arguments():
    spec = EquationSpec(Kind.PHI, 1, -5, 1, 5)
    ns = [r.n for r in search(spec, 200)]
    assert ns == brute.solutions("phi", 1, -5, 1, 5, 200)
    assert all(n >= 6 for n in ns)  # n <= 5 makes the first argument nonpositive


def test_multiplier_stride():
    spec = EquationSpec(Kind.SIGMA, 2, 1, 3, 5)
    ns = [r.n for r in search(spec, 400)]
    assert ns == brute.solutions("sigma", 2, 1, 3, 5, 400)


# a and b share factors, so some primes divide every term of a progression
AFFINE = [(4, 2, 6, 4), (8, 4, 9, 3), (6, 3, 10, -5)]


@pytest.mark.parametrize("kind", list(Kind))
@pytest.mark.parametrize("a1,b1,a2,b2", AFFINE)
def test_affine_search_matches_brute(kind, a1, b1, a2, b2):
    spec = EquationSpec(kind, a1, b1, a2, b2)
    ns = [r.n for r in search(spec, 3000)]
    assert ns == brute.solutions(kind.value, a1, b1, a2, b2, 3000)


def test_affine_search_ignores_threads_and_blocks():
    spec = EquationSpec(Kind.SIGMA, 8, 4, 9, 3)
    whole = search(spec, 5000)
    assert len(whole) > 10
    for threads, block_size in ((1, 7), (3, 97), (2, 1000), (4, None)):
        assert search(spec, 5000, threads=threads, block_size=block_size) == whole


def test_search_validation():
    with pytest.raises(UsageError):
        search(PHI_PLUS_1, 0)
    with pytest.raises(UsageError):
        search(PHI_PLUS_1, 10, threads=0)
    with pytest.raises(CapacityError):
        search(EquationSpec(Kind.PHI, 1 << 30, 0, 1, 1), 1 << 20)
    # the block map refuses any range of more than 10**10 integers
    with pytest.raises(CapacityError):
        search(PHI_PLUS_1, 10**10 + 1)
    assert _map_blocks(lambda block, scratch: [], 1, 10**10, 1 << 20, 1) == []
    with pytest.raises(CapacityError):
        _map_blocks(lambda block, scratch: [], 0, 10**10, 1 << 20, 1)


# a1 == a2 == a with both signs of d = b2 - b1 and a | d (one table per block
# once the halo h = |d| / a is shorter than the block), and a not dividing d
# (two tables per block); entries are (a, b1, b2).  The unit shifts 1, 2, 15
# and 16 are, at 64-entry segments, the halos 1, 2, 2**16 - 1 and 2**16 of
# the full-size default blocks.
ONE_PROGRESSION = [(1, 0, 5), (1, 7, 0), (2, 1, 9), (2, 11, 1), (3, 2, 14), (3, 10, -2),
                   (2, 0, 3), (3, 1, 5), (1, 0, 1), (1, 0, 2), (1, 0, 15), (1, 0, 16)]


@pytest.mark.parametrize("kind", list(Kind))
@pytest.mark.parametrize("a,b1,b2", ONE_PROGRESSION)
def test_one_progression_search_matches_brute(kind, a, b1, b2, monkeypatch):
    want = brute.solutions(kind.value, a, b1, a, b2, 600)
    h = abs(b2 - b1) // a
    # blocks of at most h values of n take two tables, longer ones one table
    for block_size in dict.fromkeys((1, max(1, h - 1), h, h + 1, 1000, None)):
        for threads in (1, 3):
            got = search(EquationSpec(kind, a, b1, a, b2), 600, threads, block_size)
            assert [r.n for r in got] == want, (block_size, threads)
    # 64-entry segments at any step: 600 values of n cross several default
    # blocks, 128 - h values of n each below a halo h of 16 and 256 // a from there on
    monkeypatch.setattr(arith, "SEGMENT", 64)
    for threads in (1, 3):
        got = search(EquationSpec(kind, a, b1, a, b2), 600, threads)
        assert [r.n for r in got] == want, threads


# default block spans: 2**19 - h values of n for f(a*n + b1) = f(a*n + b2) with a halo
# h = |b2 - b1| / a < 2**16, so that the one table is 2**19 entries, two whole kernel
# segments at any step; max(2**18, 2**20 // max(a1, a2)) for every other equation
DEFAULT_SPANS = {(1, 0, 1, 1): 2**19 - 1, (1, 0, 1, 2**16 - 1): 2**19 - 2**16 + 1,
                 (1, 0, 1, 2**16): 2**20, (2, 1, 2, 7): 2**19 - 3, (1000, 0, 1, 1): 2**18}


@pytest.mark.parametrize("h", [2**16 - 1, 2**16])
def test_default_blocks_at_the_halo_cutoff(h):
    # full size: at h = 2**16 - 1 the default blocks are 2**19 - h values of n,
    # at h = 2**16 they are 2**20; 3 * 2**19 crosses three block edges of the first
    spec = EquationSpec(Kind.PHI, 1, 0, 1, h)
    got = search(spec, 3 * 2**19)
    assert got == search(spec, 3 * 2**19, threads=2, block_size=100_003)
    assert len(got) > 10
    for rec in got:
        assert phi(rec.arg1) == phi(rec.arg2) == rec.value


def test_default_sizes_are_whole_segments(monkeypatch):
    # every default sieve size is stated in 2**18-entry kernel segments: the blocks of
    # DEFAULT_SPANS and of other multipliers, max(2**18, 2**20 // max(a1, a2)) values of n
    assert arith.SEGMENT == 2**18
    spans = []

    def map_blocks(scan, lo, hi, span, threads):
        spans.append(span)
        return []

    monkeypatch.setattr(equations, "_map_blocks", map_blocks)
    sizes = {**DEFAULT_SPANS, (2, 1, 3, 1): 2**20 // 3, (5, 0, 4, 1): 2**18}
    for coeffs, span in sizes.items():
        spans.clear()
        search(EquationSpec(Kind.SIGMA, *coeffs), 10**6)
        assert spans == [span], coeffs


def test_search_sieves_base_primes_once(monkeypatch):
    real = arith._simple_primes
    calls = []
    monkeypatch.setattr(arith, "_simple_primes", lambda n: calls.append(n) or real(n))
    searches = [(PHI_PLUS_1, 600, 3, 97), (SIGMA_PLUS_1, 2**20, 2, None),
                (EquationSpec(Kind.SIGMA, 2, 1, 3, 1), 5000, 3, 700)]
    for spec, xmax, threads, block_size in searches:
        monkeypatch.setattr(arith, "_base", (0, real(0)))
        calls.clear()
        search(spec, xmax, threads, block_size)
        assert calls == [isqrt(max(spec.arguments(xmax)))], spec


@pytest.mark.parametrize(
    "coeffs,block_size,tables",
    [
        ((1, 0, 1, 1), None, 1),
        ((1, 0, 1, 5), 6, 1),
        ((1, 0, 1, 5), 5, 2),  # the halo is as long as the block
        ((2, 11, 2, 1), 100, 1),
        ((2, 0, 2, 3), 100, 2),  # a does not divide b2 - b1
        ((2, 1, 3, 1), 100, 2),  # affine
        ((1, 0, 1, 2**16 - 1), None, 1),
        ((1, 0, 1, 2**16), None, 1),  # a quarter of a unit-step segment
        ((2, 1, 2, 7), None, 1),  # two segments at step 2
        ((1000, 0, 1, 1), None, 2),  # one segment, not 2**20 // 1000 values of n
    ],
)
def test_tables_per_block(monkeypatch, coeffs, block_size, tables):
    calls = []
    real = arith.build_table

    def build_table(lo, hi, kind, step=1, **internal):  # search passes its worker's scratch
        calls.append((lo, hi, step))
        return real(lo, hi, kind, step, **internal)

    monkeypatch.setattr(arith, "build_table", build_table)
    spec = EquationSpec(Kind.SIGMA, *coeffs)
    span = block_size or DEFAULT_SPANS[coeffs]
    # whole blocks only: a last block of at most h values would take two tables
    xmax = 3 * span if block_size is None else 600
    search(spec, xmax, block_size=block_size)
    blocks = len(range(1, xmax + 1, span))
    assert len(calls) == tables * blocks
    a, b1, _, b2 = coeffs
    if tables == 1:  # the union of both argument ranges of the block
        u, v = 1, min(xmax, span)
        assert calls[0] == (a * u + min(b1, b2), a * v + max(b1, b2), a)
        if block_size is None and abs(b2 - b1) // a < 2**16:  # two whole segments
            assert (calls[0][1] - calls[0][0]) // a + 1 == 2**19
    else:  # one table of span entries per argument
        assert {(hi - lo) // step + 1 for lo, hi, step in calls} == {span}


# at 64-entry kernel segments, 4 * 64 // a values of n is under one segment from a = 5 on,
# so these default blocks are one segment: two tables (affine), one table with a halo of
# 20 (a quarter segment or more) and two tables off one progression (a does not divide
# 3); with a halo of 3 the one table is two segments
def floored(a):
    return {(a, 0, a - 1, 7): 64, (a, 1, a, 1 + 20 * a): 64, (a, 0, a, 3): 64,
            (a, 2, a, 2 + 3 * a): 125}


@pytest.mark.parametrize("kind", list(Kind))
@pytest.mark.parametrize("a", [5, 7, 1000])
def test_floored_blocks_match_brute(kind, a, monkeypatch):
    monkeypatch.setattr(arith, "SEGMENT", 64)
    spans = []
    real = equations._map_blocks

    def map_blocks(scan, lo, hi, span, threads):
        spans.append(span)
        return real(scan, lo, hi, span, threads)

    monkeypatch.setattr(equations, "_map_blocks", map_blocks)
    for coeffs, span in floored(a).items():
        want = brute.solutions(kind.value, *coeffs, 700)
        for threads in (1, 3):
            spans.clear()
            got = search(EquationSpec(kind, *coeffs), 700, threads)
            assert spans == [span], coeffs
            assert [r.n for r in got] == want, (coeffs, threads)


# (coefficients, xmax, admitted): the work cap's verdict, which block_size must not change
CAPPED = [
    ((1, 0, 1, 1), 10**10, True),
    ((1, 0, 1, 10**12), 10**10, False),
    ((2, 0, 2, 2), 7 * 10**9, True),
    ((2, 0, 2, 3), 7 * 10**9, False),
    ((1000, 0, 1, 1), 10**10, False),
    # phi(1000n) = phi(n + 1) near n = 10**10: two tables of 2**18 values of n per unit
    ((1000, 10**13, 1, 10**10 + 1), 10**8, True),
    ((1000, 10**13, 1, 10**10 + 1), 2 * 10**8, False),
]


@pytest.mark.parametrize("coeffs,xmax,admitted", CAPPED)
def test_work_cap_ignores_block_size(monkeypatch, coeffs, xmax, admitted):
    monkeypatch.setattr(equations, "_map_blocks", lambda *args: [])
    for block_size in (1, 97, None):
        spec = EquationSpec(Kind.PHI, *coeffs)
        if admitted:
            assert search(spec, xmax, block_size=block_size) == []
        else:
            with pytest.raises(CapacityError, match="base primes"):
                search(spec, xmax, block_size=block_size)


def test_work_limit():
    blocks = -(-arith._SIEVE_LIMIT // (4 * arith.SEGMENT))
    primes = arith._simple_primes(isqrt(2 * arith._SIEVE_LIMIT)).size
    assert arith._WORK_LIMIT == 2 * blocks * primes == 250_479_768
    # ~4 * 10**12 base primes counted (some 11 hours of sieving), refused before any sieve
    with pytest.raises(CapacityError, match="base primes"):
        search(EquationSpec(Kind.PHI, 1000, 0, 1, 1), 10**10)
    # the benchmark's searches, and every unit shift up to 10**10 at the range
    # limit (one table per block below a halo of 2**20, two from there on);
    # the shift 10**10 is exactly at the cap
    for kind in Kind:
        _check_work(EquationSpec(kind, 1, 0, 1, 1), 1, 2 * 10**6)
        _check_work(EquationSpec(kind, 2, 1, 3, 1), 1, 10**6)
        for b2 in (1, 2**20 - 1, 2**20, 10**9, 10**10):
            _check_work(EquationSpec(kind, 1, 0, 1, b2), 1, 10**10)
    _check_work(EquationSpec(Kind.PHI, 1, 0, 1, 10**14), 1, 10**8)
    # to 7 * 10**9, one table per block is admitted and two are refused
    _check_work(EquationSpec(Kind.PHI, 2, 0, 2, 2), 1, 7 * 10**9)
    with pytest.raises(CapacityError):
        _check_work(EquationSpec(Kind.PHI, 2, 0, 2, 3), 1, 7 * 10**9)


def _no_sieve(monkeypatch):
    monkeypatch.setattr(arith, "build_table", lambda *a, **k: pytest.fail("build_table ran"))


@pytest.mark.parametrize("b2", [2 * 10**10, 10**12, 10**14])
def test_unit_offset_search_refused_before_sieving(monkeypatch, b2):
    # one 2**20-entry table near 10**14 takes ~1 s: hours for 9537 blocks
    _no_sieve(monkeypatch)
    with pytest.raises(CapacityError, match="base primes"):
        search(EquationSpec(Kind.PHI, 1, 0, 1, b2), 10**10)


def test_unit_search_with_no_valid_n(monkeypatch):
    # lo = 21 > xmax: the arguments at xmax are negative, so no isqrt is taken
    _no_sieve(monkeypatch)
    assert search(EquationSpec(Kind.PHI, 1, -10, 1, -20), 5) == []


@pytest.mark.parametrize(
    "coeffs,xmax", [((1 << 30, 0, 1, 1), 1 << 20), ((1, 0, 1, 1 << 48), 1)]
)
def test_table_cap_checked_before_base_primes(monkeypatch, coeffs, xmax):
    _no_sieve(monkeypatch)
    monkeypatch.setattr(arith, "_simple_primes", lambda n: pytest.fail("_simple_primes ran"))
    with pytest.raises(CapacityError, match="table capacity"):
        search(EquationSpec(Kind.SIGMA, *coeffs), xmax)


def test_tables_never_alias():
    # build_table returns a fresh array every call; only search's workers reuse buffers
    for step in (1, 3):
        first = arith.build_table(10**6, 10**6 + 5000, Kind.PHI, step=step)
        second = arith.build_table(10**6, 10**6 + 5000, Kind.PHI, step=step)
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, second)
    with pytest.raises(UsageError):  # out must fit the table exactly
        arith.build_table(1, 100, Kind.PHI, out=np.empty(99, dtype=np.uint64))


def test_each_worker_keeps_one_scratch():
    # one scratch per worker thread for all of its blocks, and none outlives the call
    seen = []

    def scan(block, scratch):
        seen.append((threading.get_ident(), scratch))
        time.sleep(0.001)
        return [block[0]]

    for threads in (1, 2, 3):
        seen.clear()
        assert _map_blocks(scan, 1, 1000, 10, threads) == list(range(1, 1001, 10))
        by_thread = {}
        for ident, scratch in seen:
            assert by_thread.setdefault(ident, scratch) is scratch, threads
        scratches = {id(s) for s in by_thread.values()}
        assert len(scratches) == len(by_thread) <= threads, threads
        refs = [weakref.ref(s) for s in by_thread.values()]
        seen.clear()
        del by_thread, scratch
        gc.collect()
        assert all(ref() is None for ref in refs), threads


# affine (two tables a block), and stepped on one progression (one table) and not (two)
REUSED = [(2, 1, 3, 1), (2, 11, 2, 1), (2, 0, 2, 3), (3, 2, 3, 14)]


@pytest.mark.parametrize("kind", list(Kind))
@pytest.mark.parametrize("coeffs", REUSED)
def test_reused_buffers_keep_records_exact(kind, coeffs):
    spec = EquationSpec(kind, *coeffs)
    want = brute.solutions(kind.value, *coeffs, 3000)
    whole = search(spec, 3000)
    assert [r.n for r in whole] == want
    # block sizes whose last block is shorter than the first, which sized the buffers,
    # or shorter than the halo (two tables where the others took one)
    for block_size in (700, 1000, 2999, 3):
        for threads in (1, 2):
            assert search(spec, 3000, threads, block_size) == whole, (block_size, threads)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux minor faults")
def test_search_faults_in_its_buffers_once():
    # Every block used to allocate its two tables (2.8 MB each) and glibc trimmed them
    # off the heap after it, so each block faulted them back in: ~11,500 minor page
    # faults per search.  Now the first search maps its buffers, the next keeps them
    # on the heap, and from then on a search reuses that memory.
    import resource

    spec = EquationSpec(Kind.PHI, 2, 1, 3, 1)
    faults = []
    for _ in range(3):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        search(spec, 2 * 10**6)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert faults[-1] < 1000, faults
