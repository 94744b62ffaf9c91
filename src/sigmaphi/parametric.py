"""Parametric solution families: derivation, generation, classification.

A family for f(a1*n + b1) = f(a2*n + b2) is a coprime pair (k1, k2) with
companion multipliers (m1, m2) given by the closed forms

    sigma kind:  m1 = k2*(a1*b2 - a2*b1) / (a2*(k2 - k1))
                 m2 = k1*(a1*b2 - a2*b1) / (a1*(k2 - k1))
                 with  k1*sigma(m1) == k2*sigma(m2)
    phi kind:    same with denominator factor (k1 - k2)
                 with  k1*phi(m1) == k2*phi(m2)

Whenever q1 = k1*l - 1 and q2 = k2*l - 1 are primes not dividing m1, m2
(sigma kind; the phi kind uses k_i*l + 1), n = (m1*q1 - b1)/a1 solves the
equation, because f(m_i*q_i) = f(m_i)*k_i*l on both sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from . import arith
from .equations import EquationSpec, Kind, _map_blocks, search
from .errors import CapacityError, IntegrityError, UsageError


# Most (k1, k2) candidates one enumerate_families call tests, and most l one
# generate call scans: both pure Python, at ~2 us per candidate and 1.0-1.4 us
# per l on a 2-vCPU Xeon, so about 1 min of either.
_CANDIDATE_LIMIT = 3 * 10**7


@dataclass(frozen=True)
class Family:
    spec: EquationSpec
    k1: int
    k2: int
    m1: int
    m2: int


@dataclass(frozen=True)
class Witness:
    """A generated solution n together with the family data that produced it."""

    family: Family
    l: int
    q1: int
    q2: int
    n: int


def _family_if_valid(spec: EquationSpec, k1: int, k2: int) -> Family | None:
    den = (k2 - k1) * spec.kind.shift
    m1, r1 = divmod(k2 * spec.det, spec.a2 * den)
    m2, r2 = divmod(k1 * spec.det, spec.a1 * den)
    if r1 or r2 or m1 < 1 or m2 < 1:
        return None
    if k1 * spec.kind.evaluate(m1) != k2 * spec.kind.evaluate(m2):
        return None
    return Family(spec, k1, k2, m1, m2)


def derive_family(spec: EquationSpec, k1: int, k2: int) -> Family | None:
    """Family for the coprime pair (k1, k2), or None if the closed forms fail.

    Fails (returns None) when either multiplier is non-integral or < 1, or
    when the divisor identity k1*f(m1) == k2*f(m2) does not hold.
    """
    if k1 < 1 or k2 < 1:
        raise UsageError("k1 and k2 must be positive")
    if k1 == k2:
        raise UsageError("k1 and k2 must differ")
    if gcd(k1, k2) != 1:
        raise UsageError("k1 and k2 must be coprime")
    return _family_if_valid(spec, k1, k2)


def _divisors(n: int) -> list[int]:
    out = [1]
    for p, e in arith.factorize(n):
        out = [d * p**i for d in out for i in range(e + 1)]
    return out


def enumerate_families(spec: EquationSpec, kmax: int) -> list[Family]:
    """All families with max(k1, k2) <= kmax, sorted by (k1, k2).

    Coprimality of (k1, k2) forces |k2 - k1| to divide a1*b2 - a2*b1, so only
    gaps dividing that cross term are scanned instead of all pairs.  A kmax
    with more than _CANDIDATE_LIMIT candidates is refused with CapacityError.
    The scan is pure Python, so it runs on the caller's thread.
    """
    if kmax < 2:
        raise UsageError(f"kmax must be >= 2, got {kmax}")
    gaps = _divisors(abs(spec.det))
    candidates = 2 * kmax * len(gaps)
    if candidates > _CANDIDATE_LIMIT:
        raise CapacityError(f"kmax={kmax} gives {candidates} candidates, over {_CANDIDATE_LIMIT}")
    families = []
    for k1 in range(1, kmax + 1):
        for gap in gaps:
            for k2 in (k1 - gap, k1 + gap):
                if not 1 <= k2 <= kmax or gcd(k1, k2) != 1:
                    continue
                fam = _family_if_valid(spec, k1, k2)
                if fam is not None:
                    families.append(fam)
    # within one k1 the candidates k1 -+ gap do not come out sorted
    families.sort(key=lambda f: (f.k1, f.k2))
    return families


def generate(family: Family, lmax: int) -> list[Witness]:
    """Witnesses for every l <= lmax whose shifted multiples are both prime.

    l is accepted when q_i = k_i*l -+ 1 are prime, q_i does not divide m_i,
    a1 divides m1*q1 - b1, and the resulting n is >= 1.  Every witness is
    re-verified by direct evaluation before being returned.  An lmax over
    _CANDIDATE_LIMIT, or one at which q_i reaches 2**63, is refused with
    CapacityError before the scan starts.
    """
    if lmax < 0:
        raise UsageError(f"lmax must be >= 0, got {lmax}")
    if lmax > _CANDIDATE_LIMIT:
        raise CapacityError(f"lmax must be <= {_CANDIDATE_LIMIT}, got {lmax}")
    spec = family.spec
    shift = spec.kind.shift
    # is_prime refuses q >= 2**63; refuse now rather than partway through the loop
    if max(family.k1, family.k2) * lmax - shift >= arith.SCALAR_LIMIT:
        raise CapacityError(f"q = k*l{-shift:+d} reaches 2**63 at l = lmax = {lmax}")
    out = []
    for l in range(1, lmax + 1):
        q1 = family.k1 * l - shift
        q2 = family.k2 * l - shift
        if not (arith.is_prime(q1) and arith.is_prime(q2)):
            continue
        if family.m1 % q1 == 0 or family.m2 % q2 == 0:
            continue
        num = family.m1 * q1 - spec.b1
        if num % spec.a1:
            continue
        n = num // spec.a1
        if n < 1:
            continue
        witness = Witness(family, l, q1, q2, n)
        if not verify_witness(witness):
            raise IntegrityError(f"generated witness failed re-verification: {witness}")
        out.append(witness)
    return out


def verify_witness(w: Witness) -> bool:
    """Check a witness by direct evaluation, independent of how it was built."""
    spec = w.family.spec
    arg1, arg2 = spec.arguments(w.n)
    if arg1 < 1 or arg2 < 1:
        return False
    if arg1 != w.family.m1 * w.q1 or arg2 != w.family.m2 * w.q2:
        return False
    return spec.kind.evaluate(arg1) == spec.kind.evaluate(arg2)


def _solve(spec: EquationSpec, n: int) -> tuple[tuple, tuple, int]:
    """((arg1, arg2), (fac1, fac2), f(arg1)) for the solution n, each argument factored once.

    Raises UsageError if n is not a solution.
    """
    if n < 1:
        raise UsageError(f"n must be >= 1, got {n}")
    args = spec.arguments(n)
    if min(args) < 1:
        raise UsageError(f"n={n} is not a solution of the equation")
    facs = tuple(arith.factorize(arg) for arg in args)
    value, other = (arith._value(spec.kind, arg, fac) for arg, fac in zip(args, facs))
    if value != other:
        raise UsageError(f"n={n} is not a solution of the equation")
    return args, facs, value


def _witness(spec: EquationSpec, n: int, solution: tuple) -> Witness | None:
    """classify's scan of the solution n, given as _solve(spec, n)."""
    (arg1, arg2), (fac1, fac2), _ = solution
    shift = spec.kind.shift
    q1s = [p for p, e in fac1 if e == 1]
    q2s = [p for p, e in fac2 if e == 1]
    for q1 in q1s:
        m1 = arg1 // q1
        for q2 in q2s:
            m2 = arg2 // q2
            if spec.a2 * (m1 + shift * spec.b1) != spec.a1 * (m2 + shift * spec.b2):
                continue
            t1, t2 = q1 + shift, q2 + shift
            l = gcd(t1, t2)
            family = Family(spec, t1 // l, t2 // l, m1, m2)
            return Witness(family, l, q1, q2, n)
    return None


def classify(spec: EquationSpec, n: int) -> Witness | None:
    """Witness proving the solution n is parametric, or None if it is sporadic.

    Scans unit-multiplicity prime divisors q1 | arg1, q2 | arg2 and accepts
    the first (ascending) pair satisfying the linear identity

      a2*(m1 + b1) == a1*(m2 + b2)      (phi kind: m_i - b_i)

    where m_i = arg_i / q_i.  It implies the family's ratio identity
    a2*m1*(q1+1) == a1*m2*(q2+1) (phi kind: q_i - 1), and conversely: with
    s = +1 (phi: -1) and m_i*q_i = a_i*n + b_i,

      a2*m1*(q1+s) - a1*m2*(q2+s) = s*(a2*(m1 + s*b1) - a1*(m2 + s*b2)).

    The family's divisor identity
    (q1+1)*sigma(m1) == (q2+1)*sigma(m2) (phi kind analogous) holds for every
    such pair: q_i || arg_i gives sigma(arg_i) = (q_i+1)*sigma(m_i), and
    sigma(arg1) == sigma(arg2) is checked first.  The returned witness uses
    the maximal scale l = gcd(q1+1, q2+1) (phi: gcd(q1-1, q2-1)), making k1,
    k2 coprime.

    Raises UsageError if n is not actually a solution.
    """
    return _witness(spec, n, _solve(spec, n))


def count_sporadic(spec: EquationSpec, xmax: int, threads: int = 1) -> int:
    """Number of solutions n <= xmax that the classifier rules non-parametric."""
    return sum(classify(spec, rec.n) is None for rec in search(spec, xmax, threads=threads))


def ghp_generate(j: int, k: int, r: int) -> int | None:
    """Totient-equation solution n = j*((j+k)*r/g + 1) from equal-radical pairs.

    Requires rad(j) == rad(j+k) with g = gcd(j, j+k), and both j*r/g + 1 and
    (j+k)*r/g + 1 prime, neither dividing j; then phi(n) == phi(n+k).
    Returns None when any condition fails.
    """
    for name, v in (("j", j), ("k", k), ("r", r)):
        if v < 1:
            raise UsageError(f"{name} must be >= 1, got {v}")
    g = gcd(j, j + k)
    if arith.radical(j) != arith.radical(j + k):
        return None
    q1 = (j // g) * r + 1
    q2 = ((j + k) // g) * r + 1
    if not (arith.is_prime(q1) and arith.is_prime(q2)):
        return None
    if j % q1 == 0 or j % q2 == 0:
        return None
    n = j * q2
    if arith.phi(n) != arith.phi(n + k):
        raise IntegrityError(f"ghp_generate({j}, {k}, {r}) produced a non-solution {n}")
    return n


def consecutive_multiperfect_search(xmax: int, threads: int = 1) -> list[int]:
    """All m <= xmax with m | sigma(m) and (m+1) | sigma(m+1), ascending."""
    if xmax < 1:
        raise UsageError(f"xmax must be >= 1, got {xmax}")

    def scan(block: tuple[int, int], scratch: arith._Scratch) -> list[int]:
        lo, hi = block
        # one past hi for the m+1 check
        values = scratch.array("tables", hi - lo + 2, np.uint64)
        arith.build_table(lo, hi + 1, Kind.SIGMA, out=values, scratch=scratch)
        # sigma(m) % m in place, in slices, so that no second block-size array is held
        for i in range(0, values.size, arith._TAIL_CHUNK):
            chunk = values[i : i + arith._TAIL_CHUNK]
            np.remainder(chunk, np.arange(lo + i, lo + i + chunk.size, dtype=np.uint64), out=chunk)
        divisible = values == 0
        both = divisible[:-1] & divisible[1:]
        return [lo + int(i) for i in np.nonzero(both)[0]]

    return _map_blocks(scan, 1, xmax, arith._unit_span(1), threads)
