import math

import numpy as np
import pytest

import brute
from sigmaphi import smoothness
from sigmaphi import (
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
    for x in (1, 2, 30, 121, 300):
        for y in range(1, x + 1, max(1, x // 9)):
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
    for y in (1, 100, 1100):
        assert psi(x, y) == np.count_nonzero(lpf[1 : x + 1] <= y)
        assert phi_smooth_count(x, y) == np.count_nonzero(lpf[phis] <= y)
        assert sigma_smooth_count(x, y) == np.count_nonzero(lpf[sigmas] <= y)


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


def test_budgets_admit_target_sizes(monkeypatch):
    # with the sieves stubbed out, only the up-front limits run
    monkeypatch.setattr(smoothness, "_count", lambda x, local: x)
    monkeypatch.setattr(smoothness.arith, "largest_factor_table", lambda limit: np.ones(1))
    assert psi(10**9, 100) == 10**9
    assert phi_smooth_count(10**8, 100) == 10**8
    assert sigma_smooth_count(6 * 10**7, 100) == 6 * 10**7
