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
from collections.abc import Callable
from functools import cache, lru_cache
from itertools import count, product
from math import gcd, isqrt, log, prod
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, UsageError

SCALAR_LIMIT = 1 << 63
TABLE_LIMIT = 1 << 48
U64_MAX = (1 << 64) - 1

# Entries per kernel segment at every step, per chunk of a segment's cofactor
# pass, and (about) per chunk of its hit tier; and the least prime of the hit
# tier.  Tuning only: results must not depend on them.  Every block size and
# the work cap's unit are multiples of SEGMENT: one segment keeps the kernel's
# scratch small, and only the primes below _HIT_TIER cost a Python iteration
# per segment, so more segments cost little.
SEGMENT = 1 << 18
_TAIL_CHUNK = 1 << 16
_HIT_CHUNK = 1 << 14
_HIT_TIER = 1 << 8


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


class _Step:
    """What walks at one step > 1 share, its arrays read-only, so that a
    search's blocks, on any thread, and the calls that walk step while it
    stays among the last two steps (_step) build them once: patterns
    holds the wheel's pattern along every progression at step (176 KB; see
    _pattern), built with the _Step, and inverses[i] step⁻¹ mod the i-th
    prime from 2, or 0 where it divides step, for as many primes as walks
    have asked for (8.6 MB for the pi(2**24) primes of a table at 2**48),
    replaced when extended (_step_inverses).  Got through _step under
    _base_lock.
    """

    def __init__(self, step: int) -> None:
        self.inverses = np.zeros(0, dtype=np.int64)
        g = gcd(step, _WHEEL_PERIOD)
        index = np.arange(g)[:, None] + step % _WHEEL_PERIOD * np.arange(_WHEEL_PERIOD // g)
        self.patterns = _wheel_powers()[index % _WHEEL_PERIOD]
        self.patterns.flags.writeable = False  # walks on other threads share it


# The _Step of each of the two steps walked last: a search walks at most two,
# a1 and a2, and a smooth count two, 2 (the y-smooth table) and 6 (the
# counts), each _Step taking 1.3-2.2 ms to build.
_step = lru_cache(maxsize=2)(_Step)


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


def _inverses_mod(step: int, primes: np.ndarray) -> np.ndarray:
    """step⁻¹ mod each prime p of the int64 array primes, or 0 where p divides
    step: the extended Euclidean algorithm, run on all of them at once.

    Each p's pairs (r0, t0) and (r1, t1) keep t*step = r (mod p), from
    (p, 0) and (step mod p, 1); r1 reaches gcd(step, p) = 1 unless p divides
    step, and t1 is then the inverse, up to a multiple of p.  Every |t|
    stays at most p, so int64 holds them.  The runs that are done drop out,
    by integer index, which is cheaper than a boolean mask.
    """
    out = np.zeros_like(primes)
    live = np.flatnonzero(step % primes)
    r0 = primes[live]
    r1 = step % r0
    t0, t1 = np.zeros_like(live), np.ones_like(live)
    while live.size:
        done = r1 == 1
        if done.any():
            out[live[done]] = t1[done]
            more = np.flatnonzero(~done)
            live, r0, r1, t0, t1 = live[more], r0[more], r1[more], t0[more], t1[more]
        q, r = np.divmod(r0, r1)
        r0, r1, t0, t1 = r1, r, t1, t0 - q * t1
    return out % primes


def _step_inverses(step: int, primes: np.ndarray) -> np.ndarray:
    """step⁻¹ mod each prime of primes, the ascending primes from 2 up to some
    bound (a _base_primes result), or 0 where it divides step: a read-only
    view of step's cached array, extended by _inverses_mod when shorter.
    """
    with _base_lock:
        entry = _step(step)
        have = entry.inverses.size
        if have < primes.size:
            inverses = np.concatenate((entry.inverses, _inverses_mod(step, primes[have:])))
            inverses.flags.writeable = False  # walks on other threads share it
            entry.inverses = inverses
        return entry.inverses[: primes.size]


# Up-front limits, so that a request which would exhaust memory or sieve for
# days is refused with CapacityError instead.  _MEMORY_BUDGET caps, in bytes,
# the 8 B per entry table that build_table allocates, largest_factor_table's
# table with its prime sieve and primes, and the y-smooth table of the sigma
# and phi smooth counters, 1 B per odd number up to (x + 1) // 2.
# _SIEVE_LIMIT caps how many integers one block map or one smooth counter
# walks: ~0.3-1 min for psi, which sieves only the m prime to 6 (psi(10**8,
# 100) took 0.19 s and psi(10**8, 10**5) 0.53 s), and ~3.5 min for a one-table
# sigma search, in 19,074 blocks of 2**19 - 1 values of n (sigma(n) =
# sigma(n + 1) over 2**22 n near 10**10 took 0.086 s), in one process on a
# 2-vCPU Xeon (medians of 3).
# _WORK_LIMIT caps a search's sieve work, counted as the base primes of its
# tables, summed over tables and over units of 4 * SEGMENT / a values of n
# but at least one kernel segment (equations._span; not blocks, which a halo
# under a quarter segment makes shorter, nor a caller's block_size): a
# two-table unit search over 10**10 n with arguments up to 2 * 10**10, 2 x
# ceil(10**10 / 2**20) units x pi(isqrt(2 * 10**10)) primes, ~2.5 * 10**8.
# No table loops over its base primes: at every step the kernel loops only
# over the primes from 11 below 2**8, copies 2, 3, 5 and 7 from its wheel
# and applies every larger prime by its hits, all at once, so the count
# overstates the work: one 2**20-entry phi table took 0.020 s near 10**10,
# 0.027 s near 10**12 and 0.037 s near 10**14 on that Xeon (medians of 5;
# 2-3x drift by day).  The cap stays a count of base primes, which bounds
# that vectorised work loosely at every step.
_MEMORY_BUDGET = 1 << 30
_SIEVE_LIMIT = 10**10
_WORK_LIMIT = 2 * -(-_SIEVE_LIMIT // (4 * SEGMENT)) * _simple_primes(isqrt(2 * _SIEVE_LIMIT)).size

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
        or of the primes in the uint64 array p shaped like pe (elementwise),
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


def _runs(starts: np.ndarray, strides: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """starts[i] + k*strides[i] for k < counts[i] (each >= 1), run after run, as one array.

    A cumulative sum of the strides, each run's head jumping from the last
    hit of the run before it.
    """
    index = np.repeat(strides, counts)
    if index.size:
        ends = starts + (counts - 1) * strides
        index[np.cumsum(counts[:-1])] = starts[1:] - ends[:-1]
        index[0] = starts[0]
        np.cumsum(index, out=index)
    return index


# The kernel's wheel: primes p with their top levels, so that one pattern of
# period 2**3 * 3**2 * 5**2 * 7**2 = 88200 holds every p**v with v < top,
# and the loop meets a wheel prime only at the terms p**top divides.
_WHEEL = ((2, 3), (3, 2), (5, 2), (7, 2))
_WHEEL_PERIOD = prod(p**top for p, top in _WHEEL)


@cache
def _wheel_powers() -> np.ndarray:
    """The wheel's pattern: at each residue r mod _WHEEL_PERIOD, the product of
    p**v_p(r) over the wheel primes p with p**top not dividing r (at most
    4 * 3 * 5 * 7 = 420, so uint16).  Built by multiplying in each prime's
    p**top digits, the pattern viewed as rows of p**top entries, so that no
    temporary is as long as the period.  Built on first use, so that a
    process that never sieves does not hold it.
    """
    powers = np.ones(_WHEEL_PERIOD, dtype=np.uint16)
    for p, top in _WHEEL:
        # p**v_p(r) = gcd(r, p**(top - 1)) for 0 < r < p**top
        digits = [1] + [gcd(r, p ** (top - 1)) for r in range(1, p**top)]
        rows = powers.reshape(-1, p**top)  # a view, column r holding the residues r mod p**top
        rows *= np.array(digits, dtype=np.uint16)
    powers.flags.writeable = False  # unit-step walks share it
    return powers


def _pattern(lo: int, step: int) -> tuple[int, np.ndarray]:
    """(anchor, powers): the wheel's pattern along the progression of lo at
    step, powers[k] being that of the term anchor + k*step, over one period
    of it, m = _WHEEL_PERIOD / g terms (g = gcd(step, _WHEEL_PERIOD)).

    The pattern at residue c = lo mod g, powers[k] = _wheel_powers()[(c +
    k*step) mod _WHEEL_PERIOD], serves every lo with that residue: anchor is
    the term lo - k0*step that is c mod _WHEEL_PERIOD.  At step 1 it is the
    wheel's own pattern.  At any other step the g patterns, one period of
    the wheel in all, are the rows of the g x m array _step(step).patterns,
    built together on the step's first walk.
    """
    g = gcd(step, _WHEEL_PERIOD)
    c, m = lo % g, _WHEEL_PERIOD // g
    anchor = lo - step * ((lo - c) // g * pow(step // g, -1, m) % m)
    if step == 1:
        return anchor, _wheel_powers()
    with _base_lock:
        return anchor, _step(step).patterns[c]


# Each row of _WHEEL_ROWS is one set of the wheel's p**v with v < top, 24 in
# all, beside its primes; the product of the row indexes it in a rule's values.
_WHEEL_ROWS = np.array(
    list(product(*([p**v for v in range(top)] for p, top in _WHEEL))), dtype=np.uint64
)
_WHEEL_ROW_PRIMES = np.broadcast_to(
    np.array([p for p, _ in _WHEEL], dtype=np.uint64), _WHEEL_ROWS.shape
)
_WHEEL_PRODUCTS = np.multiply.reduce(_WHEEL_ROWS, axis=1).astype(np.intp)


def _wheel_lookup(local) -> np.ndarray:
    """local's values on the wheel, indexed by _WHEEL_PRODUCTS: at the product
    of each row of _WHEEL_ROWS, the product of local(p**v, p) over the row's
    powers past 1 (local(1, p) need not be 1), from one rule call.  uint16
    for sigma and phi (at most 7 * 4 * 6 * 8 = 1344), bool for the smooth
    rules.
    """
    at_rows = np.where(_WHEEL_ROWS > 1, local(_WHEEL_ROWS, _WHEEL_ROW_PRIMES), True)
    at_rows = np.multiply.reduce(at_rows, axis=1, dtype=at_rows.dtype)
    lookup = np.zeros(_WHEEL_PRODUCTS.max() + 1, dtype=np.min_scalar_type(at_rows.max()))
    lookup[_WHEEL_PRODUCTS] = at_rows
    return lookup


@cache
def _kind_lookup(kind: Kind) -> np.ndarray:
    """_wheel_lookup(kind.local), built once per Kind.  The smooth counters'
    rules are built per call and close over their tables, so their walks
    build their own lookups instead.
    """
    return _wheel_lookup(kind.local)


class _Walk(NamedTuple):
    """What every segment of one walk lo, lo + step, ... under the rule local
    reads, built once.

    At the walk's term j, read at j mod powers.size, powers holds the product
    of the wheel primes' p**v with v < top exactly dividing the term, and
    values that of local(p**v, p).  rows[0] holds the base primes from 11
    that do not divide step, ascending, and rows[1], present at step > 1
    only, step's inverse mod each.  deep lists (p, top) for the wheel primes
    and, with top 1, for the base primes from 11 that divide step, each of
    which divides every term or none.
    """

    lo: int
    step: int
    local: Callable
    powers: np.ndarray
    values: np.ndarray
    rows: np.ndarray
    deep: tuple


def _walk(lo: int, step: int, size: int, local, lookup: np.ndarray, primes: np.ndarray) -> _Walk:
    """The _Walk of the size terms lo, lo + step, ... with the ascending base
    primes primes from 2 (a _base_primes result), under the rule local, whose
    _wheel_lookup is lookup.

    Of the primes from 11 it keeps those with a multiple in [lo, hi].  It
    builds nothing that depends on step alone: step's inverses
    (_step_inverses) and the wheel's pattern along the progression
    (_pattern) are built once per step, and the walk compresses the
    inverses with the mask of its primes and looks the rule's values up on
    the pattern, or on the part of it that a walk shorter than a period
    reads.
    """
    base, primes = primes, primes[len(_WHEEL) :]
    # p divides no term unless it divides some integer in [lo, hi]
    keep = (-lo) % primes <= step * (size - 1)
    rows, deep = primes.compress(keep)[None], _WHEEL
    if step > 1 and rows.size:
        inverses = _step_inverses(step, base)[len(_WHEEL) :].compress(keep)
        deep += tuple((p, 1) for p in rows[0, inverses == 0].tolist())
        rows = np.stack((rows[0], inverses)).compress(inverses > 0, axis=1)
    anchor, powers = _pattern(lo, step)
    if size < powers.size:  # a walk shorter than a period reads only its own terms
        powers = np.take(powers, np.arange(size) + (lo - anchor) // step, mode="wrap")
        anchor = lo
    return _Walk(anchor, step, local, powers, np.take(lookup, powers), rows, deep)


def _first_hits(x, rows: np.ndarray) -> np.ndarray:
    """At each prime p of rows[0], the least j >= 0 with p dividing x + step*j:
    -x * step⁻¹ mod p, step⁻¹ mod p being rows[1] (a _Walk's rows), or 1 at
    step 1, where the multiply is skipped.
    """
    first = (-x) % rows[0]
    return first * rows[1] % rows[0] if len(rows) > 1 else first


def _tile(dst: np.ndarray, pattern: np.ndarray, first: int) -> None:
    """dst[k] = pattern[(first + k) % pattern.size] for every k."""
    head = min(dst.size, pattern.size - first)
    dst[:head] = pattern[first : first + head]
    for k in range(head, dst.size, pattern.size):
        dst[k : k + pattern.size] = pattern[: dst.size - k]


def _deep_terms(lo: int, step: int, size: int, p: int, e: int):
    """(first, m, sub) for the terms j of a segment that p**e divides, which are
    j = first (mod m); sub[i] is the power of p exactly dividing term
    first + i*m.  None if p**e divides no term.  The terms divisible by p**f,
    f > e, are a sub-progression of them, since m divides their modulus.
    """
    hi = lo + step * (size - 1)
    levels = []  # (j_f, m_f) for f >= e: p**f divides term j exactly when j = j_f (mod m_f)
    pe = p**e
    # p**f divides some term only if g = gcd(step, p**f) divides lo
    while pe <= hi and lo % (g := gcd(step, pe)) == 0:
        m = pe // g
        first = (-lo // g) * pow(step // g, -1, m) % m
        if first >= size:
            break
        levels.append((first, m))
        pe *= p
    if not levels:
        return None
    first, m = levels[0]
    sub = np.full(len(range(first, size, m)), p**e, dtype=np.uint64)
    for first_f, m_f in levels[1:]:
        sub[(first_f - first) // m :: m_f // m] *= p
    return first, m, sub


def _sieve_hits(lo: int, step: int, rows, starts, local, factored, out) -> None:
    """The kernel's hit tier: every hit of the primes rows[0] (a _Walk's rows)
    at their starts.

    Each hit multiplies the p**v exactly dividing its term into factored, and
    local(p) into out, or local(p**v, p) at the deep hits, where p*p divides
    the term.  Hit k of p's run is the term p*(q + k*step), q being its first
    term over p, so the deep hits are every p-th hit from k = -q * step⁻¹
    mod p; their exact powers come from dividing those few terms (each below
    2**48, so int64 holds them).  Runs of hits go in at once with
    np.multiply.at, which stays exact where two primes hit one term, in
    chunks of whole runs of about _HIT_CHUNK hits, so that the chunk's
    scratch stays small.
    """
    primes = rows[0]
    counts = (out.size - 1 - starts) // primes + 1
    ends = np.cumsum(counts)
    heads = ends - counts
    # the indices i of the primes whose square divides some integer in [lo, hi]:
    # only they can have deep hits
    i = np.flatnonzero((-lo) % (primes * primes) <= step * (out.size - 1))
    first = _first_hits((lo + step * starts[i]) // primes[i], rows[:, i])
    keep = first < counts[i]
    i, first = i[keep], first[keep]
    ps = primes[i]
    n = (counts[i] - 1 - first) // ps + 1
    # the hit numbers of the deep hits, ascending, and their terms over p*p
    deep = _runs(heads[i] + first, ps, n)
    deep_primes = np.repeat(ps, n)
    deep_powers = deep_primes * deep_primes
    rest = (lo + step * _runs(starts[i] + first * ps, ps * ps, n)) // deep_powers
    while (more := rest % deep_primes == 0).any():
        rest[more] //= deep_primes[more]
        deep_powers[more] *= deep_primes[more]
    if deep.size:
        deep_values = local(deep_powers.astype(np.uint64), deep_primes.astype(np.uint64))
    at_primes = local(primes.astype(np.uint64))
    cast = primes.astype(factored.dtype)
    cuts = np.searchsorted(ends, np.arange(_HIT_CHUNK, ends[-1], _HIT_CHUNK), side="right")
    for a, b in zip([0, *cuts.tolist()], [*cuts.tolist(), primes.size]):
        if a == b:
            continue
        base = int(heads[a])
        index = _runs(starts[a:b], primes[a:b], counts[a:b])
        powers = np.repeat(cast[a:b], counts[a:b])
        values = np.repeat(at_primes[a:b], counts[a:b])
        d0, d1 = np.searchsorted(deep, (base, base + index.size))
        if d0 < d1:
            powers[deep[d0:d1] - base] = deep_powers[d0:d1]
            values[deep[d0:d1] - base] = deep_values[d0:d1]
        np.multiply.at(factored, index, powers)
        np.multiply.at(out, index, values)


class _Scratch:
    """Arrays kept for reuse by one worker, from table to table and from
    segment to segment: the tables it sieves and the kernel's per-segment
    scratch.  A search gives each of its workers one for the whole call, so
    that no block allocates (or faults in) its tables and scratch afresh;
    build_table makes one per call otherwise.  Not for sharing between
    threads.
    """

    def __init__(self) -> None:
        self._arrays: dict = {}
        self._offsets = (0, np.zeros(0))

    def array(self, name, size: int, dtype) -> np.ndarray:
        """The first size entries of the array kept under name and dtype, their
        contents undefined, the array grown to size entries if shorter.
        """
        key = (name, np.dtype(dtype))
        kept = self._arrays.get(key)
        if kept is None or kept.size < size:
            kept = self._arrays[key] = np.empty(size, dtype=dtype)
        return kept[:size]

    def offsets(self, size: int, step: int) -> np.ndarray:
        """0, step, ..., (size - 1) * step as float64, exact below 2**53: a
        prefix of one kept array, rebuilt when step changes.
        """
        if self._offsets[0] != step or self._offsets[1].size < size:
            self._offsets = (step, np.arange(size, dtype=np.float64) * step)
        return self._offsets[1][:size]


def _sieve_segment(lo: int, walk: _Walk, out: np.ndarray, scratch: _Scratch) -> None:
    """Write g(lo + step*j) for j in [0, out.size) into out, g multiplicative,
    lo being a term of walk, which holds step and the caller's rule local.

    local(pe, p) is g at the uint64 array pe of powers of the prime p, or of
    the primes in the uint64 array p shaped like pe, and local(q) is g at the
    uint64 array q of 1s and primes, so that local(p) == local(p, p) at every
    prime p.  scratch is the _Scratch the kernel's scratch comes from.  The
    kernel takes its primes up to sqrt(hi).  They go in by size, in three
    tiers, the same at every step, each multiplying p**v into factored (the
    product of the prime powers found so far) and g(p**v) into out:

    - Wheel: 2, 3, 5 and 7 come from copying the wheel into factored and
      out.  The pattern leaves 1 at the terms p**top divides, which alone
      cost a strided multiply by the exact p**v and by local(p**v, p); so
      do the terms that a prime from 11 dividing step divides.
    - Loop: each other prime below _HIT_TIER costs one Python iteration: a
      strided multiply by p, one by g(p) unless g(p) == 1, and, if p**2
      divides a term, one local(p**e, p) call on just those terms.
    - Hits: the primes from _HIT_TIER up go in by their hits, all at once
      (_sieve_hits).

    Each such prime hits every p-th term from its first, -lo * step⁻¹ mod p
    (_first_hits).  The cofactor q = term / factored left after them is 1 or
    a single prime and contributes local(q).
    """
    size, step, local = out.size, walk.step, walk.local
    hi = lo + step * (size - 1)
    # the product of the p**e found so far divides its term, so below 2**32 it fits in 4 bytes
    factored = scratch.array("factored", size, np.uint32 if hi < 1 << 32 else np.uint64)
    first = (lo - walk.lo) // step % walk.powers.size
    _tile(factored, walk.powers, first)
    _tile(out, walk.values, first)
    for p, top in walk.deep:
        deep = _deep_terms(lo, step, size, p, top)
        if deep is not None:
            j, m, sub = deep
            # one dtype: the mixed in-place multiply took twice as long
            factored[j::m] *= sub.astype(factored.dtype)
            out[j::m] *= local(sub, p)
    rows = walk.rows[:, : walk.rows[0].searchsorted(isqrt(hi), side="right")]
    starts = _first_hits(lo, rows)
    # p divides no term unless its first hit is one
    rows, starts = rows.compress(starts < size, axis=1), starts.compress(starts < size)
    tier = rows[0].searchsorted(_HIT_TIER)
    if tier < starts.size:
        _sieve_hits(lo, step, rows[:, tier:], starts[tier:], local, factored, out)
    at_primes = local(rows[0, :tier].astype(np.uint64)).tolist()
    for p, start, at_p in zip(rows[0, :tier].tolist(), starts[:tier].tolist(), at_primes):
        factored[start::p] *= p
        deep = _deep_terms(lo, step, size, p, 2)
        if deep is None:
            if at_p != 1:
                out[start::p] *= at_p
            continue
        j, m, sub = deep
        factored[j::m] *= sub // p
        sub = local(sub, p)
        if at_p == 1:
            out[j::m] *= sub
        else:
            # the deep terms take g(p**e) in place of g(p)
            saved = out[j::m] * sub
            out[start::p] *= at_p
            out[j::m] = saved
    # The cofactor pass divides in float64, in chunks so that it holds no
    # second full-size array.  That is exact while hi < 2**53 (tables stop at
    # 2**48, the smooth counters at 10**10): each term, its divisor factored
    # and their integer quotient are then exact doubles, and IEEE division
    # rounds an exact quotient to itself.
    for i in range(0, size, _TAIL_CHUNK):
        j = min(i + _TAIL_CHUNK, size)
        terms = scratch.array("terms", j - i, np.float64)
        np.add(scratch.offsets(j - i, step), lo + i * step, out=terms)
        terms /= factored[i:j]
        cofactors = terms.view(np.int64)  # in place: each entry is read before it is written
        np.copyto(cofactors, terms, casting="unsafe")
        out[i:j] *= local(cofactors.view(np.uint64))


def build_table(
    lo: int,
    hi: int,
    kind: Kind,
    step: int = 1,
    *,
    out: np.ndarray | None = None,
    scratch: _Scratch | None = None,
) -> np.ndarray:
    """uint64 array of f(lo), f(lo + step), ... up to hi, indexed by (n - lo) // step.

    f is sigma or phi.  Only the terms of the progression are sieved, so a
    table of every a-th integer costs about 1/a of the dense one.  Memory is
    O((hi - lo) / step) for the output plus O(sqrt(hi)) for base primes,
    which _base_primes sieves once for every table after it.  The table's
    _Walk is built once per call, from a wheel lookup built once per Kind
    and, at step > 1, from step's inverses and wheel pattern, built once per
    step; then the kernel walks the terms in segments of SEGMENT entries at
    every step, so its scratch stays a fraction of the output, and every
    segment reuses it.  Each segment copies the wheel, loops over the primes
    from 11 below _HIT_TIER, applies the larger ones by their hits, and
    divides out the cofactor in float64.  An output over _MEMORY_BUDGET
    bytes is refused with CapacityError.

    The result is a fresh array.  out and scratch are internal, for the
    workers of search, which sieve every block into the same buffers: the
    table is written into out, a uint64 array of its (hi - lo) // step + 1
    entries, and the kernel takes its scratch from the _Scratch scratch
    instead of a fresh one.
    """
    if lo < 1 or hi < lo:
        raise UsageError(f"need 1 <= lo <= hi, got lo={lo}, hi={hi}")
    if hi >= TABLE_LIMIT:
        raise CapacityError(f"hi must be < 2**48, got {hi}")
    if step < 1:
        raise UsageError(f"step must be >= 1, got {step}")
    if not isinstance(kind, Kind):
        raise UsageError(f"kind must be Kind.SIGMA or Kind.PHI, got {kind!r}")
    size = (hi - lo) // step + 1
    _check_bytes(8 * size)
    if out is None:
        out = np.empty(size, dtype=np.uint64)
    elif out.shape != (size,) or out.dtype != np.uint64:
        raise UsageError(f"out must be {size} uint64 entries, got {out.shape} {out.dtype}")
    scratch = _Scratch() if scratch is None else scratch
    # any step past hi - lo gives the one term lo; one below 2**48 keeps the kernel's
    # int64 products exact
    step = min(step, hi - lo + 1)
    walk = _walk(lo, step, out.size, kind.local, _kind_lookup(kind), _base_primes(isqrt(hi)))
    for i in range(0, out.size, SEGMENT):
        _sieve_segment(lo + i * step, walk, out[i : i + SEGMENT], scratch)
    return out


def largest_factor_table(limit: int) -> np.ndarray:
    """uint64 array t with t[n] = largest prime factor of n for 1 <= n <= limit.

    t[0] and t[1] are both 1 (index 0 is padding; the value at 1 is the
    convention used throughout).  A call whose output, prime sieve and
    primes come to over _MEMORY_BUDGET bytes is refused with CapacityError.
    """
    if limit < 1:
        raise UsageError(f"limit must be >= 1, got {limit}")
    # the output, _simple_primes' (limit + 1)-byte mask and its int64 primes, at most
    # 1.25506 * limit / ln(limit) of them (Rosser and Schoenfeld, Illinois J. Math. 6,
    # 1962); the mask is freed before the output is made, and the primes become Python
    # ints 256 at a time, so the peak stays under the sum
    most = int(1.25506 * limit / log(limit)) + 1 if limit > 1 else 0
    _check_bytes(9 * (limit + 1) + 8 * most)
    primes = _simple_primes(limit)
    out = np.ones(limit + 1, dtype=np.uint64)
    chunk = 1 << 8
    for i in range(0, primes.size, chunk):
        for p in primes[i : i + chunk].tolist():
            out[p::p] = p  # ascending primes: the last write wins
    return out
