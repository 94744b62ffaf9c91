import dataclasses
from functools import partial
from math import gcd

import pytest

import brute
from sigmaphi import (
    CapacityError,
    EquationSpec,
    Family,
    Kind,
    UsageError,
    Witness,
    arith,
    classify,
    consecutive_multiperfect_search,
    derive_family,
    enumerate_families,
    generate,
    ghp_generate,
    phi,
    radical,
    search,
    sigma,
    verify_witness,
)

SIGMA_PLUS_22 = EquationSpec(Kind.SIGMA, 1, 0, 1, 22)
PHI_PLUS_2 = EquationSpec(Kind.PHI, 1, 0, 1, 2)
SIGMA_PLUS_1 = EquationSpec(Kind.SIGMA, 1, 0, 1, 1)

# a mixed bag of valid equation instances for property sweeps; the sigma
# shifts 120 and 360 carry families within kmax = 40, 360 carries two
GRID = [
    SIGMA_PLUS_22,
    PHI_PLUS_2,
    EquationSpec(Kind.PHI, 1, 0, 1, 4),
    EquationSpec(Kind.PHI, 1, 0, 1, 6),
    EquationSpec(Kind.SIGMA, 1, 0, 1, 120),
    EquationSpec(Kind.SIGMA, 1, 0, 1, 360),
    EquationSpec(Kind.SIGMA, 2, 1, 3, 5),
    EquationSpec(Kind.PHI, 2, 2, 2, 6),
    EquationSpec(Kind.SIGMA, 1, 3, 2, 1),
    EquationSpec(Kind.PHI, 3, 1, 1, 7),
]


def test_derive_family_examples():
    fam = derive_family(SIGMA_PLUS_22, 3, 14)
    assert (fam.m1, fam.m2) == (28, 6)
    fam = derive_family(PHI_PLUS_2, 2, 1)
    assert (fam.m1, fam.m2) == (2, 4)
    assert derive_family(PHI_PLUS_2, 3, 2) is None  # 3*phi(4) != 2*phi(6)


def test_derive_family_validation():
    with pytest.raises(UsageError):
        derive_family(SIGMA_PLUS_22, 3, 3)
    with pytest.raises(UsageError):
        derive_family(SIGMA_PLUS_22, 4, 14)
    with pytest.raises(UsageError):
        derive_family(SIGMA_PLUS_22, 0, 5)


def test_enumerate_families_examples():
    fams = enumerate_families(SIGMA_PLUS_22, 20)
    assert any((f.k1, f.k2, f.m1, f.m2) == (3, 14, 28, 6) for f in fams)
    fams = enumerate_families(PHI_PLUS_2, 10)
    assert [(f.k1, f.k2, f.m1, f.m2) for f in fams] == [(2, 1, 2, 4)]
    assert enumerate_families(SIGMA_PLUS_1, 1000) == []
    with pytest.raises(UsageError):
        enumerate_families(SIGMA_PLUS_22, 1)


def test_enumerate_families_sorted_and_coprime():
    spec = EquationSpec(Kind.SIGMA, 1, 0, 1, 360)
    fams = enumerate_families(spec, 60)
    keys = [(f.k1, f.k2) for f in fams]
    assert keys == [(2, 5), (12, 13)]  # two families, already sorted
    assert all(gcd(k1, k2) == 1 for k1, k2 in keys)
    for threads in (4, 61):  # 61 > kmax: one block per k1
        assert fams == enumerate_families(spec, 60, threads=threads)


def test_enumerate_matches_all_pairs_scan():
    # the divisor-of-cross-term shortcut must agree with the naive pair scan
    for spec in (SIGMA_PLUS_22, PHI_PLUS_2, EquationSpec(Kind.SIGMA, 2, 1, 3, 5)):
        fast = {(f.k1, f.k2) for f in enumerate_families(spec, 25)}
        slow = set()
        for k1 in range(1, 26):
            for k2 in range(1, 26):
                if k1 == k2 or gcd(k1, k2) != 1:
                    continue
                if derive_family(spec, k1, k2) is not None:
                    slow.add((k1, k2))
        assert fast == slow


def test_family_identities_hold():
    for spec in GRID:
        for fam in enumerate_families(spec, 40):
            det = spec.a1 * spec.b2 - spec.a2 * spec.b1
            if spec.kind is Kind.SIGMA:
                assert spec.a2 * fam.m1 - spec.a1 * fam.m2 == det
                assert fam.k1 * sigma(fam.m1) == fam.k2 * sigma(fam.m2)
            else:
                assert spec.a2 * fam.m1 - spec.a1 * fam.m2 == -det
                assert fam.k1 * phi(fam.m1) == fam.k2 * phi(fam.m2)
            assert spec.a2 * fam.m1 * fam.k1 == spec.a1 * fam.m2 * fam.k2
            assert gcd(fam.k1, fam.k2) == 1


def test_phi_families_with_equal_multipliers_share_radical():
    seen = 0
    for spec in GRID:
        if spec.kind is not Kind.PHI or spec.a1 != spec.a2:
            continue
        for fam in enumerate_families(spec, 60):
            assert radical(fam.m1) == radical(fam.m2)
            assert fam.m2 - fam.m1 == spec.b2 - spec.b1
            seen += 1
    assert seen > 0


def test_generate_moser_family():
    fam = derive_family(PHI_PLUS_2, 2, 1)
    witnesses = generate(fam, 10)
    assert [(w.l, w.q1, w.q2, w.n) for w in witnesses] == [(2, 5, 3, 10), (6, 13, 7, 26)]
    # l = 1 is rejected because q2 = 2 divides m2 = 4
    assert all(w.l != 1 for w in witnesses)


def test_generate_sigma_family():
    fam = derive_family(SIGMA_PLUS_22, 3, 14)
    witnesses = generate(fam, 10)
    assert [(w.l, w.q1, w.q2, w.n) for w in witnesses] == [(6, 17, 83, 476), (10, 29, 139, 812)]
    assert sigma(476) == sigma(498) == 1008
    assert generate(fam, 0) == []


@pytest.mark.parametrize(
    "spec,k1,k2",
    [
        # m1*q1 - b1 = 6*q1 + 7 is odd, so a1 = 2 divides it at no l
        (EquationSpec(Kind.SIGMA, 2, -7, 4, -3), 1, 12),
        # l = 1 gives q1 = 3, q2 = 2 and n = 0
        (EquationSpec(Kind.PHI, 2, 3, 3, 6), 2, 1),
    ],
)
def test_generate_affine_matches_brute_scan(spec, k1, k2):
    # the solutions of the family's shape, found by a brute scan over n
    fam = derive_family(spec, k1, k2)
    lmax, shift = 199, spec.kind.shift
    nmax = (fam.m1 * (k1 * lmax - shift) - spec.b1) // spec.a1
    expected = []
    for n in brute.solutions(spec.kind.value, spec.a1, spec.b1, spec.a2, spec.b2, nmax):
        arg1, arg2 = spec.arguments(n)
        q1, q2 = arg1 // fam.m1, arg2 // fam.m2
        l, r = divmod(q1 + shift, k1)
        if (q1 * fam.m1, q2 * fam.m2, r) != (arg1, arg2, 0) or q2 != k2 * l - shift:
            continue
        if 1 <= l <= lmax and brute.is_prime(q1) and brute.is_prime(q2):
            if fam.m1 % q1 and fam.m2 % q2:
                expected.append((l, q1, q2, n))
    assert [(w.l, w.q1, w.q2, w.n) for w in generate(fam, lmax)] == expected


def test_generate_refuses_q_past_scalar_range(monkeypatch):
    # refused before the loop, where is_prime would raise only once it got there
    monkeypatch.setattr(arith, "is_prime", lambda q: pytest.fail(f"is_prime({q}) ran"))
    with pytest.raises(CapacityError):
        generate(derive_family(SIGMA_PLUS_22, 3, 14), 10**10 + 1)
    for kind in Kind:
        spec = EquationSpec(kind, 1, 0, 1, 22)
        with pytest.raises(CapacityError, match="2\\*\\*63"):
            generate(Family(spec, 3, 1 << 62, 28, 6), 3)
    # the largest q is k2*lmax - 1 for sigma and k2*lmax + 1 for phi
    with pytest.raises(CapacityError):
        generate(Family(PHI_PLUS_2, 2, (1 << 63) - 1, 2, 4), 1)
    monkeypatch.setattr(arith, "is_prime", lambda q: False)
    assert generate(Family(PHI_PLUS_2, 2, (1 << 63) - 2, 2, 4), 1) == []
    assert generate(Family(SIGMA_PLUS_22, 3, 1 << 62, 28, 6), 2) == []


def test_verify_witness_and_tampering():
    fam = derive_family(SIGMA_PLUS_22, 3, 14)
    w = generate(fam, 10)[0]
    assert verify_witness(w)
    assert not verify_witness(dataclasses.replace(w, n=w.n + 1))
    assert not verify_witness(dataclasses.replace(w, q1=w.q1 + 2))
    assert not verify_witness(dataclasses.replace(w, n=-22))  # arg1 < 1


def test_classify_examples():
    w = classify(SIGMA_PLUS_22, 476)
    assert (w.q1, w.q2, w.l) == (17, 83, 6)
    assert (w.family.k1, w.family.k2, w.family.m1, w.family.m2) == (3, 14, 28, 6)
    assert classify(EquationSpec(Kind.PHI, 1, 0, 1, 1), 15) is None
    w = classify(PHI_PLUS_2, 10)
    assert (w.q1, w.q2) == (5, 3) and (w.family.k1, w.family.k2) == (2, 1)


def test_classify_rejects_non_solution():
    with pytest.raises(UsageError):
        classify(SIGMA_PLUS_22, 13)
    with pytest.raises(UsageError):
        classify(EquationSpec(Kind.PHI, 1, -5, 1, 5), 2)  # nonpositive argument


def test_classify_refuses_sigma_past_64_bits():
    # 2**12 * 3**8 * 5**3 * 7**2 * 11 * 13 * ... * 29 is below 2**63, but its
    # divisor sum is not below 2**64
    n = 5071080123293184000
    assert n < 1 << 63 and sigma(n // 2**12) * (2**13 - 1) >= 1 << 64
    with pytest.raises(CapacityError):
        classify(SIGMA_PLUS_1, n)


def test_generated_witnesses_classify_parametric():
    for spec in GRID:
        for fam in enumerate_families(spec, 30):
            for w in generate(fam, 60):
                assert verify_witness(w)
                back = classify(spec, w.n)
                assert back is not None
                assert verify_witness(back)


def test_classification_is_scale_invariant():
    # the same witness data must verify with l = 1 and the unreduced pair
    for spec in (SIGMA_PLUS_22, PHI_PLUS_2):
        for rec in search(spec, 900):
            w = classify(spec, rec.n)
            if w is None:
                continue
            assert gcd(w.family.k1, w.family.k2) == 1
            # q_i = k_i * l -+ 1 in reduced form
            delta = -1 if spec.kind is Kind.SIGMA else 1
            assert w.q1 == w.family.k1 * w.l + delta
            assert w.q2 == w.family.k2 * w.l + delta
            # unreduced variant: k_i' = k_i * l, l' = 1
            raw = dataclasses.replace(
                w,
                family=dataclasses.replace(
                    w.family, k1=w.family.k1 * w.l, k2=w.family.k2 * w.l
                ),
                l=1,
            )
            assert raw.q1 == raw.family.k1 * 1 + delta
            assert verify_witness(raw)


def test_no_phi_families_for_odd_shift():
    for k in (1, 3, 5):
        spec = EquationSpec(Kind.PHI, 1, 0, 1, k)
        assert enumerate_families(spec, 500) == []


@pytest.mark.parametrize(
    "j,k,r,expected", [(2, 2, 2, 10), (2, 2, 1, None), (12, 6, 2, 84)]
)
def test_ghp_examples(j, k, r, expected):
    assert ghp_generate(j, k, r) == expected


def test_ghp_solutions_verify():
    produced = 0
    for j in range(1, 40):
        for k in range(1, 20):
            for r in range(1, 12):
                n = ghp_generate(j, k, r)
                if n is None:
                    continue
                produced += 1
                assert phi(n) == phi(n + k)
                g = gcd(j, j + k)
                assert n == j * ((j + k) // g * r + 1)
    assert produced > 5


def test_ghp_validation():
    with pytest.raises(UsageError):
        ghp_generate(0, 2, 2)
    with pytest.raises(UsageError):
        ghp_generate(2, 2, 0)


def test_multiperfect_search_small():
    assert consecutive_multiperfect_search(1) == []
    assert consecutive_multiperfect_search(5) == []
    assert consecutive_multiperfect_search(10_000) == []


def test_multiperfect_search_validation():
    with pytest.raises(UsageError):
        consecutive_multiperfect_search(0)
    # the m + 1 lookahead would read sigma(2**48), past the table cap
    with pytest.raises(CapacityError):
        consecutive_multiperfect_search((1 << 48) - 1)


def test_multiperfect_search_blocks_match():
    # block boundaries must not lose the m+1 lookahead
    ms = []
    for m in range(1, 2000):
        if brute.sigma(m) % m == 0 and brute.sigma(m + 1) % (m + 1) == 0:
            ms.append(m)
    assert consecutive_multiperfect_search(1999) == ms
    assert consecutive_multiperfect_search(1999, threads=3, block_size=150) == ms
    # the perfect number 6 at a block edge still gets its m+1 lookahead
    assert consecutive_multiperfect_search(6, block_size=6) == []


def test_block_map_validation_is_shared():
    # search, enumerate_families and the multiperfect search share one block map
    calls = {
        "search": partial(search, PHI_PLUS_2, 100),
        "families": partial(enumerate_families, SIGMA_PLUS_22, 20),
        "multiperfect": partial(consecutive_multiperfect_search, 100),
    }
    for call in calls.values():
        with pytest.raises(UsageError):
            call(threads=0)
    for name in ("search", "multiperfect"):
        with pytest.raises(UsageError):
            calls[name](block_size=0)
