"""Exact smooth-number counters plus leading-order bound evaluators.

The counters are exact.  The bound evaluators drop every o(.) and
(1+o(1)) factor from the displayed asymptotics, so they are reporting aids,
not certified inequalities.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import count

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
    if not 1 <= y < math.inf:  # NaN fails this too
        raise UsageError(f"y must be finite and >= 1, got {y}")
    if x > arith._SIEVE_LIMIT:
        raise CapacityError(f"x must be <= {arith._SIEVE_LIMIT}, got {x}")


def _segments(x: int, local, bound: int | None = None):
    """Yield (lo, mask) with mask[i] = (g(lo + i) != 0) for 1 <= lo + i <= x, one kernel
    segment at a time, g multiplicative with g(p**e) = local(p**e, p).  The next segment
    overwrites mask.  The kernel sieves the wheel primes 2, 3, 5, 7 and the primes
    <= min(bound, isqrt(x)), and hands it the rest of each n as one cofactor, which bound
    is for the caller to make exact.  The walk (its wheel and primes) and the kernel's
    scratch are built once, for every segment.
    """
    top = math.isqrt(x) if bound is None else min(bound, math.isqrt(x))
    walk = arith._walk(1, 1, x, arith._wheel_lookup(local), arith._base_primes(top))
    buffer, scratch = np.empty(arith._segment(), dtype=bool), arith._Scratch()
    for lo in range(1, x + 1, buffer.size):
        out = buffer[: x - lo + 1]
        arith._sieve_segment(lo, local, walk, out, scratch)
        yield lo, out


def _count(x: int, local, bound: int | None = None) -> int:
    """Count of n <= x with g(n) != 0, for the multiplicative g with g(p**e) = local(p**e, p).

    For multiplicative f, f(n) is y-smooth iff f(p**e) is for every p**e || n.  bound caps
    the base primes, as in _segments.
    """
    return sum(int(np.count_nonzero(mask)) for _, mask in _segments(x, local, bound))


def _psi_rule(y):
    """The sieve rule of psi: p**e is y-smooth iff p <= y.

    It needs the primes <= min(y, isqrt(x)) only (bound int(y)).  If y <= isqrt(x), the
    cofactor left after the primes <= y and the kernel's wheel primes (2, 3, 5, 7, each
    tested by the rule) is a product of primes > y, so "cofactor <= y" holds iff it is 1,
    that is iff n is y-smooth.  Otherwise it is 1 or one prime, as with every base prime.
    """
    return lambda pe, p=None: (pe if p is None else p) <= y


def psi(x: int, y: int) -> int:
    """Count of n <= x all of whose prime factors are <= y (n = 1 counts)."""
    _check_xy(x, y)
    return _count(x, _psi_rule(y), int(y))


def _in_S(fac: arith.Factorization, y) -> bool:
    """is_in_S for the n whose factorization is fac."""
    return any(e >= 2 and p**e > y for p, e in fac)


def is_in_S(n: int, y) -> bool:
    """True iff some prime power p**a with a >= 2 and p**a > y divides n."""
    if not 1 <= y < math.inf:  # NaN fails this too
        raise UsageError(f"y must be finite and >= 1, got {y}")
    return _in_S(arith.factorize(n), y)


def count_S(x: int, y) -> int:
    """Count of n <= x divisible by some prime power p**a > y with a >= 2.

    Exact inclusion-exclusion over q_p, the least p**a > y with a >= 2.  (1) n <= x is in S
    iff some q_p divides n, as q_p divides every such p**a, and p*p <= q_p <= x.  (2) The q_p
    are pairwise coprime, so, sorted, the n <= t that some q_j with j >= i divides are, split by
    the largest such j, the q_j*m with m <= t // q_j that no q_k with k > j divides: free below.
    """
    _check_xy(x, y)
    primes = arith._base_primes(math.isqrt(x)).tolist()
    qs = sorted(next(p**a for a in count(2) if p**a > y) for p in primes)  # the q_p

    def free(t: int, i: int) -> int:  # the n <= t that no q_j with j >= i divides
        return t - sum(free(t // qs[j], j + 1) for j in range(i, bisect_right(qs, t)))

    return x - free(x, 0)


def _smooth_table(limit: int, y) -> np.ndarray:
    """bool array t with t[m] = (m is y-smooth) for 1 <= m <= limit; t[0] is unset."""
    table = np.empty(limit + 1, dtype=bool)
    for lo, mask in _segments(limit, _psi_rule(y), int(y)):
        table[lo : lo + mask.size] = mask
    return table


def _f_smooth_count(kind: arith.Kind, x: int, y) -> int:
    """Count of n <= x with f(n) y-smooth, f = sigma or phi.

    f(p**e) is looked up in a y-smooth table of 0..x+1 when it is at most x+1, which holds
    for f(q) = q +- 1 at every prime q <= x; the few sigma(p**e) above it are tested exactly.
    """
    _check_xy(x, y)
    arith._check_bytes(x + 2)
    smooth = _smooth_table(x + 1, y)

    def local(pe, p=None):
        values = kind.local(pe, p)
        if p is None or values.max() <= x + 1:  # f(q) = q +- 1 <= x + 1 at 1 and the primes q <= x
            return smooth[values]
        big = values > x + 1
        out = smooth[np.where(big, 1, values)]
        out[big] = [arith.largest_prime_factor(int(v)) <= y for v in values[big]]
        return out

    return _count(x, local)


def phi_smooth_count(x: int, y: int) -> int:
    """Count of n <= x whose totient has no prime factor > y."""
    return _f_smooth_count(arith.Kind.PHI, x, y)


def sigma_smooth_count(x: int, y: int) -> int:
    """Count of n <= x whose divisor sum has no prime factor > y."""
    return _f_smooth_count(arith.Kind.SIGMA, x, y)


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


# counter and leading-order bound of each `which`
_COUNTERS = {
    "psi": (psi, bound_debruijn),
    "s": (count_S, lambda x, y: x / math.sqrt(y)),  # constant in front deliberately dropped
    "phi": (phi_smooth_count, bound_bfps),
    "sigma": (sigma_smooth_count, bound_bfps),
}


def smooth_report(which: str, x: int, y: int, include_bound: bool = False) -> SmoothReport:
    """Run one counter, optionally with its leading-order bound and count/bound ratio."""
    try:
        counter, bound_of = _COUNTERS[which]
    except KeyError:
        raise UsageError(f"unknown counter {which!r}; pick one of {sorted(_COUNTERS)}")
    count = counter(x, y)
    bound = ratio = None
    if include_bound:
        bound = bound_of(x, y)
        ratio = count / bound
    return SmoothReport(x, y, count, bound, ratio)
