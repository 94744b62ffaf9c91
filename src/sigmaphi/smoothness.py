"""Exact smooth-number counters plus leading-order bound evaluators.

The counters are exact.  psi and the sigma/phi smooth counts are one count
(_count) of a multiplicative indicator g on the arith kernel: n counts iff
every p**e || n passes the counter's rule.  Each n is 2**a * 3**b * m with
gcd(m, 6) = 1 and g(n) = g(2**a) * g(3**b) * g(m), so the kernel sieves only
the m <= x prime to 6, as two step-6 walks from 1 and 5, and every head
2**a * 3**b <= x that passes adds the m <= x // (2**a * 3**b) that pass.  The
bound evaluators drop every o(.) and (1+o(1)) factor from the displayed
asymptotics, so they are reporting aids, not certified inequalities.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress, count, takewhile

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


class _ThreadScratch(threading.local, arith._Scratch):
    """An arith._Scratch of each thread's own, kept for the life of the thread."""


# The segment buffer and kernel scratch of _segments.  Built afresh per call,
# they were mapped and faulted in again at every call once glibc had trimmed
# the heap: the four counts and the multiperfect search at x = 2 * 10**6 and
# y = 100 took ~3,300 minor faults per round with them built per call, ~600
# with them kept (2-vCPU Xeon).
_scratch = _ThreadScratch()


def _segments(residues, step: int, x: int, local, bound: int | None = None):
    """Yield (r, j, mask) for the walk from each r in residues in turn, with mask[i] =
    (g(m) != 0) at the terms m = r + step*(j + i) <= x, one kernel segment at a time, g
    multiplicative with g(p**e) = local(p**e, p).  mask covers the index range [j, j +
    mask.size) of the walk's (x - r) // step + 1 terms (none if x < r); the next segment
    overwrites it.  The kernel sieves the wheel primes 2, 3, 5, 7 that divide a term and the
    primes <= min(bound, isqrt(x)), and hands it the rest of each m as one cofactor, which
    bound is for the caller to make exact.  The rule's wheel lookup and the base primes are
    built once, for every walk; each walk's primes and inverses of step once, for every
    segment.  The segment buffer, of SEGMENT entries, and the kernel's scratch come from
    the calling thread's _scratch, kept from call to call, so one thread walks one
    _segments at a time.
    """
    top = math.isqrt(x) if bound is None else min(bound, math.isqrt(x))
    lookup, primes = arith._wheel_lookup(local), arith._base_primes(top)
    buffer = _scratch.array("mask", arith.SEGMENT, bool)
    for r in residues:
        size = max(0, (x - r) // step + 1)
        walk = arith._walk(r, step, size, local, lookup, primes)
        for j in range(0, size, buffer.size):
            out = buffer[: size - j]
            arith._sieve_segment(r + step * j, walk, out, _scratch)
            yield r, j, out


def _count(x: int, local, bound: int | None = None) -> int:
    """Count of n <= x with g(n) != 0, for the multiplicative g with g(p**e) = local(p**e, p).

    For multiplicative f, f(n) is y-smooth iff f(p**e) is for every p**e || n.  Each n is
    h * m with h = 2**a * 3**b and gcd(m, 6) = 1 in exactly one way, g(n) = g(h) * g(m) as
    gcd(h, m) = 1, and h * m <= x iff m <= x // h.  So the count is the sum, over the heads
    h <= x with g(h) != 0, of the m <= x // h prime to 6 that pass.  Those m are 1 or 5 mod
    6: the first (x // h - r) // 6 + 1 terms of the step-6 walk from r (_segments), for r =
    1 and 5, a prefix whose count is read in the segment where it ends, so every term is
    sieved once, whatever the number of heads.  g(2**a) and g(3**b) come from the rule
    itself, with the rule's exact paths (2 or 3 > y for psi, sigma(p**e) past the y-smooth
    table).  bound caps the base primes, as in _segments.
    """

    def passing(p: int) -> list[int]:  # 1 and the p**e <= x with g(p**e) != 0
        powers = [*takewhile(x.__ge__, (p**e for e in count(1)))]
        at = np.array(powers, dtype=np.uint64)
        return [1, *compress(powers, local(at, np.full_like(at, p)).tolist())]

    threes = passing(3)
    heads = [a * b for a in passing(2) for b in threes if a * b <= x]
    ends = {r: sorted((x // h - r) // 6 + 1 for h in heads) for r in (1, 5)}
    total = 0
    for r, j, mask in _segments((1, 5), 6, x, local, bound):
        before = 0 if j == 0 else before  # the walk's passing terms before index j
        for end in ends[r][bisect_right(ends[r], j) : bisect_right(ends[r], j + mask.size)]:
            total += before + int(np.count_nonzero(mask[: end - j]))
        before += int(np.count_nonzero(mask))
    return total


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
    """bool array t with t[i] = (2*i + 1 is y-smooth) for the (limit + 1) // 2 odd numbers
    <= limit, (limit + 1) // 2 bytes, from the step-2 walk from 1 under psi's rule
    (_segments).  At y >= 2 the prime 2 is y-smooth, so a number is y-smooth iff its odd
    part is, and the table answers for every number whose odd part is <= limit
    (_smooth_lookup).
    """
    table = np.empty((limit + 1) // 2, dtype=bool)
    for _, j, mask in _segments((1,), 2, limit, _psi_rule(y), int(y)):
        table[j : j + mask.size] = mask
    return table


def _odd_index(values: np.ndarray) -> np.ndarray:
    """odd // 2 for the odd part odd = v // 2**k of each of the uint64 values v >= 1, where
    2**k = v & -v: v >> (k + 1), with k read from the exponent of 2**k as a double, which
    holds it exactly, all in one new array.  At 2**16 values a uint64 division took 460 us,
    this form with a new array at each step 330 and this one 94-109 (2-vCPU Xeon).
    """
    shift = np.negative(values)
    shift &= values  # 2**k
    np.copyto(shift.view(np.float64), shift, casting="unsafe")  # in place, entry by entry
    shift >>= np.uint64(52)  # the biased exponent, k + 1023
    shift -= np.uint64(1022)
    return np.right_shift(values, shift, out=shift)


def _smooth_lookup(table: np.ndarray, y, values: np.ndarray) -> np.ndarray:
    """Whether each of the uint64 values v >= 1, whose odd parts are at most limit, is
    y-smooth, from the table _smooth_table(limit, y): at y >= 2, its odd part looked up at
    index odd // 2 (_odd_index).  Below 2 only v = 1 is y-smooth, though every power of 2
    has odd part 1.
    """
    if y < 2:
        return values == 1
    return table.take(_odd_index(values).view(np.int64))  # an index, below 2**63


def _f_smooth_count(kind: arith.Kind, x: int, y) -> int:
    """Count of n <= x with f(n) y-smooth, f = sigma or phi.

    f(p**e) is looked up by its odd part in the y-smooth table of the odd numbers up to
    half = (x + 1) // 2.  The rule sees p None only at 1 and at primes 5 <= q <= x (the
    walks' terms are prime to 6), where f is 1 or q +- 1, even and <= x + 1, so its odd part
    is <= half.  At prime powers one max test sends values <= half to the table; past it,
    those whose odd part is above half (sigma(p**e) near x, some f(2**a), f(3**b)) are
    tested exactly.
    """
    _check_xy(x, y)
    half = (x + 1) // 2
    arith._check_bytes((half + 1) // 2)  # the table's bytes, one per odd number <= half
    smooth = _smooth_table(half, y)

    def local(pe, p=None):
        values = kind.local(pe, p)
        if p is None or values.max(initial=0) <= half:
            return _smooth_lookup(smooth, y, values)
        big = _odd_index(values) >= smooth.size  # an odd part above half
        out = _smooth_lookup(smooth, y, np.where(big, np.uint64(1), values))
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
