"""Exact arithmetic: primality, factorization, and sieves of multiplicative functions.

Scalar operations accept any positive integer below 2**63 and are exact
(Python integers throughout): primality is a deterministic Miller-Rabin
test, and factorize is small-prime trial division plus Brent's rho.  Bulk
operations are numpy-backed segmented sieves; table inputs are capped at
2**48 so every sigma value stays well below 2**64.  build_table sieves any
arithmetic progression lo, lo + step, ... <= hi, so a caller that reads
every a-th integer (search at a1, a2 > 1) sieves only the terms it reads.
"""

from __future__ import annotations

import enum
from itertools import count
from math import gcd, isqrt, prod

import numpy as np

from .errors import CapacityError, UsageError

SCALAR_LIMIT = 1 << 63
TABLE_LIMIT = 1 << 48
U64_MAX = (1 << 64) - 1

# Entries per sieve segment.  Tuning only: results must not depend on it.
DEFAULT_SEGMENT = 1 << 20

# Up-front limits, so that a request which would exhaust memory or sieve for
# days is refused with CapacityError instead.  _MEMORY_BUDGET caps, in bytes,
# the one O(range) array a table or a smooth counter allocates: 8 B per
# entry for build_table and largest_factor_table, 1 B per entry for
# count_S's marks.  _SIEVE_LIMIT caps how many integers one block map or one
# smooth counter walks.  The kernel walks ~4 * 10**7 entries per second
# (psi(10**7, 100) in 0.25 s on a 2-vCPU Xeon), so 10**9 takes ~25 s and
# the limit ~4 min.
_MEMORY_BUDGET = 1 << 30
_SIEVE_LIMIT = 10**10

# The first 12 primes: trial divisors of is_prime, and Miller-Rabin bases
# sufficient for every n < 3.18 * 10**23 (Sorenson & Webster, Math. Comp. 86,
# 2017), far beyond the scalar range.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# (bound, bases): Miller-Rabin to these bases is exact for every n < bound,
# the bound being exclusive, because it is the least composite that is a
# strong pseudoprime to all of them: psi_2 and psi_4 (Pomerance, Selfridge &
# Wagstaff, Math. Comp. 35, 1980), psi_6 and psi_7 (Jaeschke, Math. Comp. 61,
# 1993) and psi_9 (Jaeschke 1993; proven least by Jiang & Deng, Math. Comp.
# 83, 2014).  The last row covers the rest of the scalar range.
_MR_TIERS = (
    (1_373_653, _WITNESSES[:2]),
    (3_215_031_751, _WITNESSES[:4]),
    (3_474_749_660_383, _WITNESSES[:6]),
    (341_550_071_728_321, _WITNESSES[:7]),
    (3_825_123_056_546_413_051, _WITNESSES[:9]),
    (SCALAR_LIMIT, _WITNESSES),
)

# factorize trial-divides by the primes below this bound and hands the
# cofactor to rho; any cofactor below its square is 1 or a prime.
_TRIAL_BOUND = 1 << 10
_TRIAL_PRIMES = tuple(
    p for p in range(2, _TRIAL_BOUND) if all(p % d for d in range(2, isqrt(p) + 1))
)
# Products of |x - y| that Brent's rho accumulates between two gcds.
_RHO_BATCH = 128

Factorization = list[tuple[int, int]]


def _check_bytes(nbytes: int) -> None:
    """Refuse, with CapacityError, an array of nbytes over _MEMORY_BUDGET."""
    if nbytes > _MEMORY_BUDGET:
        raise CapacityError(f"an array of {nbytes} B is over the {_MEMORY_BUDGET} B budget")


def _check_scalar(n: int, name: str = "n", minimum: int = 1) -> None:
    if n < minimum:
        raise UsageError(f"{name} must be >= {minimum}, got {n}")
    if n >= SCALAR_LIMIT:
        raise CapacityError(f"{name} must be < 2**63, got {n}")


def is_prime(n: int) -> bool:
    """Deterministic primality verdict for 0 <= n < 2**63."""
    _check_scalar(n, minimum=0)
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    if n < 37 * 37:  # no prime factor <= 37
        return True
    bases = next(bases for bound, bases in _MR_TIERS if n < bound)
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    """A proper divisor of the odd composite n: Brent's variant of Pollard's rho.

    Iterates x -> x*x + c mod n for c = 1, 2, 3, ... (Brent, BIT 20, 1980),
    taking one gcd per _RHO_BATCH products of |x - y| and stepping back one
    product at a time when a batch's gcd reaches n.
    """
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def factorize(n: int) -> Factorization:
    """Prime factorization as an ascending list of (prime, exponent) pairs.

    Trial division by the primes below _TRIAL_BOUND, then Brent's rho on the
    cofactor; every factor rho splits off is certified by is_prime, so the
    result is exact.  factorize(1) is the empty list.
    """
    _check_scalar(n)
    out: Factorization = []
    rem = n
    for p in _TRIAL_PRIMES:
        if p * p > rem:
            break
        if rem % p == 0:
            e = 0
            while rem % p == 0:
                rem //= p
                e += 1
            out.append((p, e))
    # every prime factor of rem is >= _TRIAL_BOUND, or rem < p*p after the
    # break: either way a factor m > 1 of rem below _TRIAL_BOUND**2 is prime
    large, pending = [], [rem] if rem > 1 else []
    while pending:
        m = pending.pop()
        if m < _TRIAL_BOUND**2 or is_prime(m):
            large.append(m)
        else:
            d = _rho(m)
            pending += (d, m // d)
    out += [(q, large.count(q)) for q in sorted(set(large))]
    return out


def _value(kind: Kind, n: int, fac: Factorization) -> int:
    """f(n) from the factorization fac of n, exact on Python ints.

    The scalar evaluator: sigma(p**e) = (p**(e+1) - 1)/(p - 1) and
    phi(p**e) = p**(e-1)*(p - 1), closed forms kept apart from the sieve's
    rule Kind.local so that each checks the other.
    """
    if kind is Kind.SIGMA:
        value = prod((p ** (e + 1) - 1) // (p - 1) for p, e in fac)
    else:
        value = prod(p ** (e - 1) * (p - 1) for p, e in fac)
    if value > U64_MAX:
        raise CapacityError(f"{kind.value}({n}) does not fit in 64 bits")
    return value


def sigma(n: int) -> int:
    """Sum of all positive divisors of n."""
    return _value(Kind.SIGMA, n, factorize(n))


def phi(n: int) -> int:
    """Euler totient of n; phi(1) = 1."""
    return _value(Kind.PHI, n, factorize(n))


class Kind(enum.Enum):
    SIGMA = "sigma"
    PHI = "phi"

    def evaluate(self, n: int) -> int:
        return _value(self, n, factorize(n))

    @property
    def shift(self) -> int:
        """f(q) - q at every prime q: +1 for sigma, -1 for phi."""
        return 1 if self is Kind.SIGMA else -1

    def local(self, pe: np.ndarray, p: int | None = None) -> np.ndarray:
        """The sieve's rule: f at the uint64 array pe of powers of the prime p,
        or of 1 and primes if p is None.  Scalars go through _value instead.
        """
        if self is Kind.SIGMA:
            # 1 + p + ... + p**e, without forming p**(e+1), which can pass 2**64
            return pe + (pe > 1) if p is None else pe + (pe - 1) // (p - 1)
        return pe - (pe > 1) if p is None else pe - pe // p


def largest_prime_factor(n: int) -> int:
    """Largest prime dividing n, with the value 1 at n = 1."""
    fac = factorize(n)
    return fac[-1][0] if fac else 1


def radical(n: int) -> int:
    """Product of the distinct primes dividing n; rad(1) = 1."""
    total = 1
    for p, _ in factorize(n):
        total *= p
    return total


def _simple_primes(limit: int) -> np.ndarray:
    """Primes <= limit as an int64 array (plain boolean sieve)."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.nonzero(mask)[0].astype(np.int64)


def _progression_hits(lo: int, step: int, q: int) -> tuple[int, int] | None:
    """(j0, m) such that q divides lo + step*j exactly when j = j0 (mod m), or None."""
    g = gcd(step, q)
    if lo % g:
        return None
    m = q // g
    return (-lo // g) * pow(step // g, -1, m) % m, m


def _sieve_segment(
    lo: int, primes: np.ndarray, local, out: np.ndarray, step: int = 1
) -> None:
    """Write f(lo + step*j) for j in [0, out.size) into out, f multiplicative.

    Every prime power p**e <= hi that divides a term is visited through a
    strided view and contributes local(p**e, p); the cofactor q left after
    them is 1 or a single prime > sqrt(hi) and contributes local(q).  The
    terms divisible by p**e are those with j = j_e (mod m_e), a sub-progression
    of the terms divisible by p, since m_1 divides m_e.
    """
    size = out.size
    hi = lo + step * (size - 1)
    primes = primes[: np.searchsorted(primes, isqrt(hi), side="right")]
    starts = (-lo) % primes
    # p divides no term unless it divides some integer in [lo, hi]
    hit = starts <= hi - lo
    out[:] = 1
    factored = np.ones(size, dtype=np.uint64)  # product of the p**e found so far
    for p, start in zip(primes[hit].tolist(), starts[hit].tolist()):
        if step == 1:
            stride = p
        else:
            found = _progression_hits(lo, step, p)
            if found is None or found[0] >= size:
                continue
            start, stride = found
        # power[i] is the p**e exactly dividing the term j = start + i*stride
        power = np.full(len(range(start, size, stride)), p, dtype=np.uint64)
        pe = p * p
        while pe <= hi:
            found = ((-lo) % pe, pe) if step == 1 else _progression_hits(lo, step, pe)
            if found is None or found[0] >= size:
                break
            first, m = found
            power[(first - start) // stride :: m // stride] *= p
            pe *= p
        factored[start::stride] *= power
        out[start::stride] *= local(power, p)
    terms = np.arange(lo, hi + 1, step, dtype=np.uint64)
    np.floor_divide(terms, factored, out=factored)  # the cofactors
    out *= local(factored)


def build_table(lo: int, hi: int, kind: Kind, step: int = 1) -> np.ndarray:
    """uint64 array of f(lo), f(lo + step), ... up to hi, indexed by (n - lo) // step.

    f is sigma or phi.  Only the terms of the progression are sieved, so a
    table of every a-th integer costs about 1/a of the dense one.  Memory is
    O((hi - lo) / step) for the output plus O(sqrt(hi)) for base primes;
    construction walks the terms in segments of DEFAULT_SEGMENT entries.  An
    output over _MEMORY_BUDGET bytes is refused with CapacityError.
    """
    if lo < 1 or hi < lo:
        raise UsageError(f"need 1 <= lo <= hi, got lo={lo}, hi={hi}")
    if hi >= TABLE_LIMIT:
        raise CapacityError(f"hi must be < 2**48, got {hi}")
    if step < 1:
        raise UsageError(f"step must be >= 1, got {step}")
    if not isinstance(kind, Kind):
        raise UsageError(f"kind must be Kind.SIGMA or Kind.PHI, got {kind!r}")
    _check_bytes(8 * ((hi - lo) // step + 1))
    primes = _simple_primes(isqrt(hi))
    out = np.empty((hi - lo) // step + 1, dtype=np.uint64)
    for i in range(0, out.size, DEFAULT_SEGMENT):
        _sieve_segment(lo + i * step, primes, kind.local, out[i : i + DEFAULT_SEGMENT], step)
    return out


def largest_factor_table(limit: int) -> np.ndarray:
    """uint64 array t with t[n] = largest prime factor of n for 1 <= n <= limit.

    t[0] and t[1] are both 1 (index 0 is padding; the value at 1 is the
    convention used throughout).  An output over _MEMORY_BUDGET bytes is
    refused with CapacityError.
    """
    if limit < 1:
        raise UsageError(f"limit must be >= 1, got {limit}")
    _check_bytes(8 * (limit + 1))
    out = np.ones(limit + 1, dtype=np.uint64)
    primes = _simple_primes(limit)
    small = np.searchsorted(primes, isqrt(limit), side="right")
    for p in primes[:small].tolist():
        out[p::p] = p  # ascending primes: the last write wins
    # n <= limit has at most one prime factor above isqrt(limit), and it is
    # the largest: write each such p at its multiples p*m, one m at a time
    large = primes[small:]
    for m in count(1):
        ps = large[: np.searchsorted(large, limit // m, side="right")]
        if ps.size == 0:
            return out
        out[ps * m] = ps
