"""Bucket audit of sporadic solutions.

Each sporadic solution n is assigned to exactly one of four buckets, tested
in order against parameters (x, y, z):

  B1  either argument is divisible by a prime power p**a > y with a >= 2;
  B2  the largest prime factor of f(arg1) is < y (strictly);
  otherwise f(arg1) has a prime factor p >= y, each argument must carry a
  unit-multiplicity prime divisor q_i = k_i*p - 1 (phi kind: k_i*p + 1), and
  the decomposition arg_i = m_i * q_i lands in
  B3  when m1*m2 <= x/z, else
  B4.

Explicit (y, z) overrides of the parameter formulas are accepted and recorded.
A solution past B1 has q**a <= y for every q**a || arg_i with a >= 2; past B2
it decomposes if each such q**a has P(f(q**a)) < y.  For phi that always
holds, as P(phi(q**a)) <= q < y.  For sigma it is guaranteed only for y < 4:
at y = 4, 2**2 survives B1 with sigma(4) = 7, and the default y (about 20.4
at x = 1000) meets sigma(2**4) = 31.
A missing decomposition is an integrity error: it would contradict the case
analysis the buckets implement, so it is surfaced, never swallowed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from . import arith, smoothness
from .equations import EquationSpec, SolutionRecord, search
from .errors import DomainError, IntegrityError, UsageError
from .parametric import _solve, _witness


@dataclass(frozen=True)
class AuditParams:
    x: int
    y: float
    z: float
    z1: float
    z2: float
    u: float
    overridden: bool


def _finish(x: int, y: float, z: float | None, overridden: bool) -> AuditParams:
    if not 1.0 < y < math.inf:  # NaN fails this too
        raise DomainError(f"y must be finite and > 1, got {y}")
    z = math.sqrt(y) if z is None else float(z)
    if not 0.0 < z < x:
        raise DomainError(f"z must be in (0, x), got {z}")
    log_xz = math.log(x / z)
    return AuditParams(x, y, z, z / log_xz, y * log_xz, math.log(x) / math.log(y), overridden)


def default_params(x: int) -> AuditParams:
    """Parameters y = exp(sqrt(2 log x log log log x)), z = sqrt(y), and friends."""
    if x < 16:
        raise DomainError(
            f"out of asymptotic domain: x must be >= 16 so log(log(log(x))) > 0, got {x}"
        )
    lx = math.log(x)
    lllx = math.log(math.log(lx))
    y = math.exp(math.sqrt(2.0 * lx * lllx))
    return _finish(x, y, None, overridden=False)


def override_params(x: int, y: float, z: float | None = None) -> AuditParams:
    """Explicit (y, z) for desk-scale runs; z defaults to sqrt(y)."""
    if x < 1:
        raise UsageError(f"x must be >= 1, got {x}")
    return _finish(x, float(y), z, overridden=True)


class Bucket(enum.Enum):
    B1 = "B1"
    B2 = "B2"
    B3 = "B3"
    B4 = "B4"


@dataclass(frozen=True)
class Decomposition:
    p: int
    m1: int
    k1: int
    m2: int
    k2: int


@dataclass(frozen=True)
class BucketVerdict:
    bucket: Bucket
    decomposition: Decomposition | None
    # P(f(arg1)) == y exactly; such n are kept out of B2 by the strict test
    boundary: bool = False


def _decompose(spec: EquationSpec, args: tuple, facs: tuple, p: int) -> Decomposition:
    shift = spec.kind.shift
    parts = []
    for arg, fac in zip(args, facs):
        q = next((q for q, e in fac if e == 1 and (q + shift) % p == 0), None)
        if q is None:
            raise IntegrityError(
                f"no unit-multiplicity prime divisor of {arg} is congruent to {-shift:+d} mod {p}"
            )
        # f(m) from the factorization of m = arg / q, which is fac without q
        f_m = arith._value(spec.kind, arg // q, [(r, e) for r, e in fac if r != q])
        parts.append((arg // q, (q + shift) // p, f_m))
    (m1, k1, f1), (m2, k2, f2) = parts
    if f1 * k1 != f2 * k2:
        raise IntegrityError(f"decomposition of n with p={p} violates f(m1)*k1 == f(m2)*k2")
    return Decomposition(p, m1, k1, m2, k2)


def _bucket(spec: EquationSpec, params: AuditParams, solution: tuple) -> BucketVerdict:
    """assign_bucket for a solution given as _solve(spec, n)."""
    args, facs, value = solution
    if any(smoothness._in_S(fac, params.y) for fac in facs):
        return BucketVerdict(Bucket.B1, None)
    p = arith.largest_prime_factor(value)
    if p < params.y:
        return BucketVerdict(Bucket.B2, None)
    dec = _decompose(spec, args, facs, p)
    bucket = Bucket.B3 if dec.m1 * dec.m2 <= params.x / params.z else Bucket.B4
    return BucketVerdict(bucket, dec, boundary=(p == params.y))


def assign_bucket(spec: EquationSpec, n: int, params: AuditParams) -> BucketVerdict:
    """Bucket for one sporadic solution; B1/B2 carry no decomposition.

    Precedence is B1, then B2, then the B3/B4 split on m1*m2 <= x/z.
    Raises UsageError if n is not a solution.
    """
    return _bucket(spec, params, _solve(spec, n))


def check_p_divisibility(spec: EquationSpec, verdict: BucketVerdict) -> bool:
    """True iff p divides a2*(b1 + m1) - a1*(b2 + m2) for the decomposition.

    Only defined away from the degenerate case a2*m1*k1 == a1*m2*k2, which
    raises UsageError.
    """
    dec = verdict.decomposition
    if dec is None:
        raise UsageError("verdict carries no decomposition")
    if spec.a2 * dec.m1 * dec.k1 == spec.a1 * dec.m2 * dec.k2:
        raise UsageError("degenerate decomposition: a2*m1*k1 == a1*m2*k2")
    return (spec.a2 * (spec.b1 + dec.m1) - spec.a1 * (spec.b2 + dec.m2)) % dec.p == 0


def audit_range(
    spec: EquationSpec,
    xmax: int,
    y: float | None = None,
    z: float | None = None,
    threads: int = 1,
) -> tuple[AuditParams, list[tuple[SolutionRecord, BucketVerdict]]]:
    """Classify all solutions n <= xmax and bucket the sporadic ones.

    Without overrides the parameters default to default_params(xmax).  Each
    argument is factored once, for both the classifier and the bucket.
    """
    if y is None and z is not None:
        raise UsageError("a z override requires a y override")
    params = default_params(xmax) if y is None else override_params(xmax, y, z)
    audited = []
    for rec in search(spec, xmax, threads=threads):
        solution = _solve(spec, rec.n)
        if _witness(spec, rec.n, solution) is None:
            audited.append((rec, _bucket(spec, params, solution)))
    return params, audited
