"""Exact arithmetic: primality, factorization, and sieves of multiplicative functions.

Scalar operations accept any positive integer below 2**63 and are exact
(Python integers throughout): primality is a deterministic Miller-Rabin
test, and factorize is small-prime trial division plus Brent's rho.  Bulk
operations are numpy-backed segmented sieves; table inputs are capped at
2**48 so every sigma value stays well below 2**64.  build_table sieves any
arithmetic progression lo, lo + step, ... <= hi, so a caller that reads
every a-th integer (search at a1, a2 > 1) sieves only the terms it reads;
search builds one such table per block when both of its arguments lie on
the same progression less than a block apart, and one per argument
otherwise.
"""

from __future__ import annotations

import enum
import threading
from itertools import count
from math import gcd, isqrt, prod

import numpy as np

from .errors import CapacityError, UsageError

SCALAR_LIMIT = 1 << 63
TABLE_LIMIT = 1 << 48
U64_MAX = (1 << 64) - 1

# Entries per sieve segment, and per chunk of a segment's cofactor pass.
# Tuning only: results must not depend on them.
DEFAULT_SEGMENT = 1 << 20
_TAIL_CHUNK = 1 << 16


def _simple_primes(limit: int) -> np.ndarray:
    """Primes <= limit as an int64 array (plain boolean sieve)."""
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.nonzero(mask)[0].astype(np.int64)


# The primes <= _base[0], as _base[1]: the sieve's base primes, kept across
# tables and grown by doubling, so that consecutive tables and blocks share
# one sieve of them.  Grown under _base_lock, so that blocks sieved on pool
# threads sieve them once.
_base = (0, _simple_primes(0))
_base_lock = threading.Lock()


def _base_primes(limit: int) -> np.ndarray:
    """Primes <= limit as an int64 array: a view of one cached array.

    The cache grows to max(limit, twice its bound), its bound capped at
    isqrt(TABLE_LIMIT), the most any table needs.
    """
    global _base
    with _base_lock:
        bound, primes = _base
        if limit > bound:
            bound = max(limit, min(2 * bound, isqrt(TABLE_LIMIT)))
            primes = _simple_primes(bound)
            primes.flags.writeable = False  # callers share it
            _base = (bound, primes)
    return primes[: np.searchsorted(primes, limit, side="right")]


# Up-front limits, so that a request which would exhaust memory or sieve for
# days is refused with CapacityError instead.  _MEMORY_BUDGET caps, in bytes,
# the 8 B per entry table that build_table or largest_factor_table allocates
# and the 1 B per entry y-smooth table of the sigma and phi smooth counters.
# _SIEVE_LIMIT caps how many integers one block map or one smooth counter
# walks: ~3-6 min for psi (2**20 integers of psi took 0.014 s near 10**9 and
# 0.019 s near 10**10 at y = 100, 0.033 s and 0.037 s at y = 10**5) and
# ~8 min for a one-table sigma search (9537 tables of 2**20 entries, 0.043 s
# each near 10**8 and 0.052 s near 10**10), in one process on a 2-vCPU Xeon.
# _WORK_LIMIT caps the base primes any search's kernel loops over, summed over
# tables and over units of 2**20 / a values of n (not blocks, which unit
# shifts make shorter): a two-table unit search over 10**10 n with arguments
# up to 2 * 10**10, 2 x ceil(10**10 / 2**20) units x pi(isqrt(2 * 10**10))
# primes, ~2.5 * 10**8.  Unit-step tables loop only over their primes below
# 2**10 and those whose square divides a term, and apply the rest on the
# kernel's vectorised path, so for them the count overstates the work: one
# 2**20-entry phi table took 0.042 s near 10**8, 0.051 s near 10**10,
# 0.077 s near 10**12 and 0.168 s near 10**14 on that Xeon (medians of 5;
# 2-3x drift by day).  Stepped tables loop over every base prime that hits.
_MEMORY_BUDGET = 1 << 30
_SIEVE_LIMIT = 10**10
_WORK_LIMIT = 2 * -(-_SIEVE_LIMIT // DEFAULT_SEGMENT) * _simple_primes(isqrt(2 * _SIEVE_LIMIT)).size

# factorize trial-divides by the primes below this bound and hands the
# cofactor to rho; any cofactor below its square is 1 or a prime.
_TRIAL_BOUND = 1 << 10
_TRIAL_PRIMES = tuple(_simple_primes(_TRIAL_BOUND - 1).tolist())
# The first 12 primes: trial divisors of is_prime, and Miller-Rabin bases
# sufficient for every n < 3.18 * 10**23 (Sorenson & Webster, Math. Comp. 86,
# 2017), far beyond the scalar range.
_WITNESSES = _TRIAL_PRIMES[:12]

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

# Products of |x - y| that Brent's rho accumulates between two gcds.
_RHO_BATCH = 128

Factorization = list[tuple[int, int]]


def _check_bytes(nbytes: int) -> None:
    """Refuse, with CapacityError, an array of nbytes over _MEMORY_BUDGET."""
    if nbytes > _MEMORY_BUDGET:
        raise CapacityError(f"an array of {nbytes} B is over the {_MEMORY_BUDGET} B budget")


def _check_scalar(n: int, minimum: int = 1) -> None:
    if n < minimum:
        raise UsageError(f"n must be >= {minimum}, got {n}")
    if n >= SCALAR_LIMIT:
        raise CapacityError(f"n must be < 2**63, got {n}")


def is_prime(n: int) -> bool:
    """Deterministic primality verdict for 0 <= n < 2**63."""
    _check_scalar(n, minimum=0)
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    if n < _WITNESSES[-1] ** 2:  # no prime factor <= 37
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
        or of 1 and primes if p is None, so local(p) == local(p, p) at every
        prime p as _sieve_segment requires.  Scalars go through _value instead.
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


def _progression_hits(lo: int, step: int, q: int) -> tuple[int, int] | None:
    """(j0, m) such that q divides lo + step*j exactly when j = j0 (mod m), or None."""
    g = gcd(step, q)
    if lo % g:
        return None
    m = q // g
    return (-lo // g) * pow(step // g, -1, m) % m, m


def _segment(step: int) -> int:
    """Entries per kernel segment of a table of every step-th integer.

    Unit-step tables sieve a quarter of DEFAULT_SEGMENT, which keeps the
    kernel's per-segment scratch small; their large primes cost no Python
    iteration, so more segments cost little.  Stepped tables keep
    DEFAULT_SEGMENT: split the same way, search f(2n+1) = f(3n+1) to 10**6
    ran 11% slower (3 wins in 20 alternating pairs), while the kernel alone
    was neutral there (139 vs 141 ms).
    """
    return DEFAULT_SEGMENT if step > 1 else max(1, DEFAULT_SEGMENT >> 2)


def _unit_span(halo: int) -> int:
    """Values per block of a unit-step table that reaches halo entries past its
    block, so that the table is two whole kernel segments (at least 1 value).

    One segment per table was tried: with no freed chunk over 2 MiB, glibc
    trims the heap after each block and the next block faults it back in
    (~15,900 minor page faults per search of f(n) = f(n + 1) to 2 * 10**6
    for both functions, against ~24).
    """
    return max(1, 2 * _segment(1) - halo)


def _sieve_segment(
    lo: int, primes: np.ndarray, local, out: np.ndarray, step: int = 1
) -> None:
    """Write g(lo + step*j) for j in [0, out.size) into out, g multiplicative.

    local is the caller's rule: local(pe, p) is g at the uint64 array pe of
    powers of the prime p, and local(q) is g at the uint64 array q of 1s and
    primes, so that local(p) == local(p, p) at every prime p.

    In a unit-step segment of size entries, the primes p >= size >> 8 whose
    square divides no term hit about 256 terms at most and contribute exactly
    p and g(p) to each: all their hits are applied at once, with
    np.multiply.at, which stays exact when two of them divide one term.
    Every other prime costs one Python iteration: a strided multiply by p of
    the product of the p**e found so far, one by g(p) unless g(p) == 1, and,
    if p**2 divides a term, one local(p**e, p) call on just those terms.  The
    terms divisible by p**e are those with j = j_e (mod m_e), a
    sub-progression of the terms divisible by p, since m_1 divides m_e.  The
    cofactor q left after every p <= sqrt(hi) is 1 or a single prime and
    contributes local(q).
    """
    size = out.size
    hi = lo + step * (size - 1)
    primes = primes[: np.searchsorted(primes, isqrt(hi), side="right")]
    starts = (-lo) % primes
    # p divides no term unless it divides some integer in [lo, hi]
    hit = starts <= hi - lo
    primes, starts = primes[hit], starts[hit]
    out[:] = 1
    # the product of the p**e found so far divides its term, so below 2**32 it fits in 4 bytes
    factored = np.ones(size, dtype=np.uint32 if hi < 1 << 32 else np.uint64)
    if step == 1:
        bulk = (primes >= size >> 8) & ((-lo) % (primes * primes) > hi - lo)
        large, large_starts = primes[bulk], starts[bulk]
        primes, starts = primes[~bulk], starts[~bulk]
        counts = (size - 1 - large_starts) // large + 1
        strides = np.repeat(large, counts)
        # hit k of a prime is its start plus k strides; k counts up from each run's head
        index = np.arange(strides.size) - np.repeat(np.cumsum(counts) - counts, counts)
        index *= strides
        index += np.repeat(large_starts, counts)
        np.multiply.at(factored, index, strides.astype(factored.dtype))
        del strides
        np.multiply.at(out, index, np.repeat(local(large.astype(np.uint64)), counts))
        del index
    at_primes = local(primes.astype(np.uint64)).tolist()
    for p, start, at_p in zip(primes.tolist(), starts.tolist(), at_primes):
        if step == 1:
            stride = p
        else:
            found = _progression_hits(lo, step, p)
            if found is None or found[0] >= size:
                continue
            start, stride = found
        factored[start::stride] *= p
        levels = []  # (j_e, m_e) for e >= 2
        pe = p * p
        while pe <= hi:
            found = ((-lo) % pe, pe) if step == 1 else _progression_hits(lo, step, pe)
            if found is None or found[0] >= size:
                break
            factored[found[0] :: found[1]] *= p
            levels.append(found)
            pe *= p
        if not levels:
            if at_p != 1:
                out[start::stride] *= at_p
            continue
        first, m = levels[0]
        # sub[i] is the p**e exactly dividing the term j = first + i*m, then g of it
        sub = np.full(len(range(first, size, m)), p * p, dtype=np.uint64)
        for first_e, m_e in levels[1:]:
            sub[(first_e - first) // m :: m_e // m] *= p
        sub = local(sub, p)
        if at_p == 1:
            out[first::m] *= sub
        else:
            # the level terms take g(p**e) in place of g(p)
            saved = out[first::m] * sub
            out[start::stride] *= at_p
            out[first::m] = saved
    # in chunks, so that the tail holds no second full-size uint64 array
    for i in range(0, size, _TAIL_CHUNK):
        j = min(i + _TAIL_CHUNK, size)
        terms = np.arange(lo + i * step, lo + j * step, step, dtype=np.uint64)
        out[i:j] *= local(terms // factored[i:j])


def build_table(lo: int, hi: int, kind: Kind, step: int = 1) -> np.ndarray:
    """uint64 array of f(lo), f(lo + step), ... up to hi, indexed by (n - lo) // step.

    f is sigma or phi.  Only the terms of the progression are sieved, so a
    table of every a-th integer costs about 1/a of the dense one.  Memory is
    O((hi - lo) / step) for the output plus O(sqrt(hi)) for base primes,
    which _base_primes sieves once for every table after it; construction
    walks the terms in segments of _segment(step) entries, DEFAULT_SEGMENT / 4
    at step 1 and DEFAULT_SEGMENT otherwise, so the kernel's scratch stays a
    fraction of the output.  An output over _MEMORY_BUDGET bytes is refused
    with CapacityError.
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
    primes = _base_primes(isqrt(hi))
    out = np.empty((hi - lo) // step + 1, dtype=np.uint64)
    segment = _segment(step)
    for i in range(0, out.size, segment):
        _sieve_segment(lo + i * step, primes, kind.local, out[i : i + segment], step)
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
    for p in _simple_primes(isqrt(limit)).tolist():
        out[p::p] = p  # ascending primes: the last write wins
    # the n > 1 still at 1 are the primes above isqrt(limit); n <= limit has at
    # most one such factor, its largest: write each at its multiples p*m, m by m
    large = np.flatnonzero(out[2:] == 1) + 2
    for m in count(1):
        ps = large[: np.searchsorted(large, limit // m, side="right")]
        if ps.size == 0:
            return out
        out[ps * m] = ps
