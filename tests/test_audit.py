import math

import pytest

from sigmaphi import (
    Bucket,
    BucketVerdict,
    Decomposition,
    DomainError,
    EquationSpec,
    IntegrityError,
    Kind,
    UsageError,
    arith,
    assign_bucket,
    audit_range,
    check_p_divisibility,
    default_params,
    override_params,
    search,
    sigma,
)

SIGMA_PLUS_1 = EquationSpec(Kind.SIGMA, 1, 0, 1, 1)
PHI_PLUS_1 = EquationSpec(Kind.PHI, 1, 0, 1, 1)


def test_default_params_formulas():
    p = default_params(10**6)
    lx = math.log(10**6)
    assert p.y == pytest.approx(math.exp(math.sqrt(2 * lx * math.log(math.log(lx)))))
    assert p.z == math.sqrt(p.y)
    assert p.z1 == pytest.approx(p.z / math.log(10**6 / p.z))
    assert p.z2 == pytest.approx(p.y * math.log(10**6 / p.z))
    assert p.u == pytest.approx(lx / math.log(p.y))
    assert abs(p.u - 2.676) < 2e-3
    assert p.overridden is False


def test_default_params_domain():
    with pytest.raises(DomainError):
        default_params(15)
    assert default_params(16).y > 1


def test_override_params():
    p = override_params(100, 3.0, 2.0)
    assert (p.x, p.y, p.z, p.overridden) == (100, 3.0, 2.0, True)
    assert p.u == pytest.approx(math.log(100) / math.log(3))
    # z defaults to sqrt(y)
    assert override_params(100, 9.0).z == 3.0
    with pytest.raises(DomainError):
        override_params(100, 1.0)
    with pytest.raises(DomainError):
        override_params(100, 3.0, 200.0)
    with pytest.raises(UsageError):
        override_params(0, 3.0)


def test_bucket_b3_decomposition_for_14():
    params = override_params(100, 3.0, 2.0)
    verdict = assign_bucket(SIGMA_PLUS_1, 14, params)
    assert verdict.bucket is Bucket.B3
    assert verdict.decomposition == Decomposition(p=3, m1=7, k1=1, m2=3, k2=2)
    assert verdict.boundary is True  # P(sigma(14)) == 3 == y, kept out of B2


def test_bucket_b2_with_larger_y():
    params = override_params(100, 5.0, 2.0)
    verdict = assign_bucket(SIGMA_PLUS_1, 14, params)
    assert verdict.bucket is Bucket.B2
    assert verdict.decomposition is None
    assert verdict.boundary is False


def test_bucket_b4_when_threshold_shrinks():
    # x/z = 20 < m1*m2 = 21 pushes the same decomposition into B4
    params = override_params(100, 3.0, 5.0)
    verdict = assign_bucket(SIGMA_PLUS_1, 14, params)
    assert verdict.bucket is Bucket.B4
    assert verdict.decomposition == Decomposition(p=3, m1=7, k1=1, m2=3, k2=2)


def test_bucket_b1_square_argument():
    # 207 = 9 * 23 and 9 > y puts n = 206 into B1
    params = override_params(100_000, 3.0, 2.0)
    verdict = assign_bucket(SIGMA_PLUS_1, 206, params)
    assert verdict.bucket is Bucket.B1
    assert verdict.decomposition is None


def test_integrity_error_is_surfaced():
    # with y = 10 the arguments of n = 206 escape B1/B2 but 207 = 3^2 * 23
    # has no unit-multiplicity prime divisor congruent to -1 mod 13
    params = override_params(100_000, 10.0, 2.0)
    with pytest.raises(IntegrityError):
        assign_bucket(SIGMA_PLUS_1, 206, params)


def test_assign_bucket_rejects_non_solution():
    params = override_params(100, 3.0, 2.0)
    with pytest.raises(UsageError):
        assign_bucket(SIGMA_PLUS_1, 13, params)
    with pytest.raises(UsageError):
        assign_bucket(SIGMA_PLUS_1, 0, params)
    with pytest.raises(UsageError):
        assign_bucket(EquationSpec(Kind.PHI, 1, -5, 1, 5), 2, params)  # nonpositive argument


def test_phi_kind_buckets():
    params = override_params(1000, 3.0, 2.0)
    assert assign_bucket(PHI_PLUS_1, 1, params).bucket is Bucket.B2  # phi(1) = 1
    assert assign_bucket(PHI_PLUS_1, 3, params).bucket is Bucket.B1  # 4 = 2^2 > y
    verdict = assign_bucket(PHI_PLUS_1, 104, params)
    assert verdict.bucket is Bucket.B1  # 104 = 2^3 * 13


def test_phi_kind_decomposition():
    _, audited = audit_range(PHI_PLUS_1, 3000, y=4.0, z=2.0)
    assert audited, "expected sporadic solutions below 3000"
    decomposed = 0
    for rec, verdict in audited:
        if verdict.decomposition is None:
            continue
        decomposed += 1
        dec = verdict.decomposition
        # reconstruction with q_i = k_i * p + 1 for the phi kind
        assert rec.arg1 == dec.m1 * (dec.k1 * dec.p + 1)
        assert rec.arg2 == dec.m2 * (dec.k2 * dec.p + 1)
    assert decomposed >= 1  # n = 164 decomposes with p = 5


def test_check_p_divisibility_example():
    params = override_params(100, 3.0, 2.0)
    verdict = assign_bucket(SIGMA_PLUS_1, 14, params)
    assert check_p_divisibility(SIGMA_PLUS_1, verdict) is True


def test_check_p_divisibility_contract():
    with pytest.raises(UsageError):
        check_p_divisibility(SIGMA_PLUS_1, BucketVerdict(Bucket.B1, None))
    degenerate = BucketVerdict(Bucket.B3, Decomposition(p=3, m1=2, k1=3, m2=3, k2=2))
    with pytest.raises(UsageError):
        check_p_divisibility(SIGMA_PLUS_1, degenerate)


def test_audit_range_is_exhaustive_under_override():
    params, audited = audit_range(SIGMA_PLUS_1, 5000, y=3.0, z=2.0)
    assert params.overridden is True
    ns = [rec.n for rec, _ in audited]
    assert 14 in ns and 206 in ns
    for rec, verdict in audited:
        assert verdict.bucket in Bucket
        again = assign_bucket(SIGMA_PLUS_1, rec.n, params)
        assert again == verdict  # single-valued
        dec = verdict.decomposition
        if dec is not None:
            assert (verdict.bucket is Bucket.B3) == (dec.m1 * dec.m2 <= params.x / params.z)
            assert sigma(dec.m1) * dec.k1 == sigma(dec.m2) * dec.k2
            assert rec.arg1 == dec.m1 * (dec.k1 * dec.p - 1)
            assert rec.arg2 == dec.m2 * (dec.k2 * dec.p - 1)


def test_audit_range_validation():
    with pytest.raises(UsageError):
        audit_range(SIGMA_PLUS_1, 100, z=2.0)  # z without y
    with pytest.raises(DomainError):
        audit_range(SIGMA_PLUS_1, 15)  # defaults need x >= 16


@pytest.mark.parametrize("spec", [SIGMA_PLUS_1, PHI_PLUS_1])
def test_audit_range_factors_each_argument_once(spec, monkeypatch):
    # two factorizations per hit (classifier and bucket share them), plus one
    # of f(arg1) for its largest prime factor when the solution is not in B1
    hits = len(search(spec, 10**5))
    calls = []
    factorize = arith.factorize
    monkeypatch.setattr(arith, "factorize", lambda n: calls.append(n) or factorize(n))
    _, audited = audit_range(spec, 10**5, y=3.0, z=2.0)
    not_b1 = sum(verdict.bucket is not Bucket.B1 for _, verdict in audited)
    assert hits > 0 and not_b1 > 0
    assert len(calls) == 2 * hits + not_b1
