import pytest

import brute
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
from sigmaphi.equations import _map_blocks

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
    assert _map_blocks(lambda block: [], 1, 10**10, 1 << 20, 1) == []
    with pytest.raises(CapacityError):
        _map_blocks(lambda block: [], 0, 10**10, 1 << 20, 1)
