"""Exact smooth-number counters plus leading-order bound evaluators.

The counters are exact (sieved).  The bound evaluators drop every o(.) and
(1+o(1)) factor from the displayed asymptotics, so they are reporting aids,
not certified inequalities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import arith
from .errors import CapacityError, DomainError, UsageError


@dataclass(frozen=True)
class SmoothReport:
    x: int
    y: int
    count: int
    bound_value: float | None
    ratio: float | None


def _check_xy(x: int, y) -> None:
    if x < 1:
        raise UsageError(f"x must be >= 1, got {x}")
    if y < 1:
        raise UsageError(f"y must be >= 1, got {y}")
    if x >= arith.TABLE_LIMIT:
        raise CapacityError(f"x must be < 2**48, got {x}")
    if x > arith._SIEVE_LIMIT:
        raise CapacityError(f"x must be <= {arith._SIEVE_LIMIT}, got {x}")


def _count(x: int, local) -> int:
    """Count of n <= x with g(n) != 0, for the multiplicative g with g(p**e) = local(p**e, p).

    For multiplicative f, f(n) is y-smooth iff f(p**e) is for every p**e || n.
    """
    primes = arith._simple_primes(math.isqrt(x))
    buffer = np.empty(arith.DEFAULT_SEGMENT, dtype=bool)
    total = 0
    for lo in range(1, x + 1, buffer.size):
        out = buffer[: x - lo + 1]
        arith._sieve_segment(lo, primes, local, out)
        total += int(np.count_nonzero(out))
    return total


def psi(x: int, y: int) -> int:
    """Count of n <= x all of whose prime factors are <= y (n = 1 counts)."""
    _check_xy(x, y)
    return _count(x, lambda pe, p=None: (pe if p is None else p) <= y)


def _in_S(fac: arith.Factorization, y) -> bool:
    """is_in_S for the n whose factorization is fac."""
    return any(e >= 2 and p**e > y for p, e in fac)


def is_in_S(n: int, y) -> bool:
    """True iff some prime power p**a with a >= 2 and p**a > y divides n."""
    if y < 1:
        raise UsageError(f"y must be >= 1, got {y}")
    return _in_S(arith.factorize(n), y)


def count_S(x: int, y) -> int:
    """Count of n <= x divisible by some prime power p**a > y with a >= 2."""
    _check_xy(x, y)
    arith._check_bytes(x + 1)  # the 1 B per entry marks
    mark = np.zeros(x + 1, dtype=bool)
    for p in arith._simple_primes(math.isqrt(x)).tolist():
        q = p * p  # smallest admissible power, then grow past y
        while q <= y:
            q *= p
        if q <= x:
            mark[q::q] = True
    return int(np.count_nonzero(mark))


def phi_smooth_count(x: int, y: int) -> int:
    """Count of n <= x whose totient has no prime factor > y."""
    _check_xy(x, y)
    rough = arith.largest_factor_table(x) > y  # phi(p**e) <= x
    return _count(x, lambda pe, p=None: ~rough[arith.Kind.PHI.local(pe, p)])


def sigma_smooth_count(x: int, y: int) -> int:
    """Count of n <= x whose divisor sum has no prime factor > y."""
    _check_xy(x, y)
    rough = arith.largest_factor_table(2 * x) > y  # sigma(p**e) < 2*p**e <= 2*x
    return _count(x, lambda pe, p=None: ~rough[arith.Kind.SIGMA.local(pe, p)])


def bound_debruijn(x, y) -> float:
    """Leading-order smooth-count bound x*exp(-u*log(u)) with u = log x/log y."""
    if x <= 1 or y <= 1:
        raise DomainError("bound_debruijn requires x > 1 and y > 1")
    u = math.log(x) / math.log(y)
    if u < 1:
        raise DomainError("bound_debruijn requires y <= x")
    return x * math.exp(-u * math.log(u))


def bound_bfps(x, y) -> float:
    """Leading-order bound x*exp(-u*log(log(u))) for the phi/sigma smooth counts."""
    if x <= 1 or y <= 1:
        raise DomainError("bound_bfps requires x > 1 and y > 1")
    u = math.log(x) / math.log(y)
    if u <= math.e:
        raise DomainError("bound_bfps requires u > e so that log(log(u)) > 0")
    return x * math.exp(-u * math.log(math.log(u)))


def bound_main(x) -> float:
    """Leading-order sporadic-solution bound x*exp(-sqrt(log x * log log log x / 2))."""
    if x <= math.exp(math.e):
        raise DomainError("bound_main requires x > e**e")
    lx = math.log(x)
    lllx = math.log(math.log(lx))
    return x * math.exp(-math.sqrt(0.5 * lx * lllx))


_COUNTERS = {
    "psi": psi,
    "s": count_S,
    "phi": phi_smooth_count,
    "sigma": sigma_smooth_count,
}


def smooth_report(which: str, x: int, y: int, include_bound: bool = False) -> SmoothReport:
    """Run one counter, optionally with its leading-order bound and count/bound ratio."""
    try:
        counter = _COUNTERS[which]
    except KeyError:
        raise UsageError(f"unknown counter {which!r}; pick one of {sorted(_COUNTERS)}")
    count = counter(x, y)
    bound = ratio = None
    if include_bound:
        if which == "psi":
            bound = bound_debruijn(x, y)
        elif which == "s":
            bound = x / math.sqrt(y)  # constant in front deliberately dropped
        else:
            bound = bound_bfps(x, y)
        ratio = count / bound
    return SmoothReport(x, y, count, bound, ratio)
