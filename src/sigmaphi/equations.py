"""Exhaustive search for solutions of f(a1*n + b1) = f(a2*n + b2), f in {sigma, phi}."""

from __future__ import annotations

import threading
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from math import isqrt

import numpy as np

from . import arith
from .arith import Kind
from .errors import CapacityError, UsageError

# Most threads one call may ask for (_check_threads).  The block map's pool
# may start one thread per block, and a request past this is a typo rather
# than a core count.
_MAX_THREADS = 256


@dataclass(frozen=True)
class EquationSpec:
    """One equation instance f(a1*n + b1) = f(a2*n + b2)."""

    kind: Kind
    a1: int
    b1: int
    a2: int
    b2: int

    def __post_init__(self) -> None:
        if self.a1 <= 0 or self.a2 <= 0:
            raise UsageError("a1 and a2 must be positive")
        if self.det == 0:
            raise UsageError("a1*b2 - a2*b1 must be nonzero")

    @property
    def det(self) -> int:
        return self.a1 * self.b2 - self.a2 * self.b1

    def arguments(self, n: int) -> tuple[int, int]:
        return self.a1 * n + self.b1, self.a2 * n + self.b2


@dataclass(frozen=True)
class SolutionRecord:
    n: int
    arg1: int
    arg2: int
    value: int


def _first_valid_n(spec: EquationSpec) -> int:
    # smallest n >= 1 keeping both arguments positive; n below it are skipped
    lo = 1
    for a, b in ((spec.a1, spec.b1), (spec.a2, spec.b2)):
        lo = max(lo, -((1 - b) // -a))
    return lo


def _check_threads(threads: int) -> None:
    """Refuse, with UsageError, a thread count outside 1.._MAX_THREADS."""
    if threads < 1:
        raise UsageError("threads must be >= 1")
    if threads > _MAX_THREADS:
        raise UsageError(f"threads must be <= {_MAX_THREADS}, got {threads}")


def _map_blocks(
    scan: Callable[[tuple[int, int], arith._Scratch], Sequence],
    lo: int,
    hi: int,
    span: int,
    threads: int,
) -> list:
    """Results of scan on each block of span integers in [lo, hi], in block order.

    With threads > 1 the blocks are scanned concurrently, and the result is the
    same for any thread count.  Each worker passes its own arith._Scratch to
    every block it scans, so that a call sieves into the same buffers from
    block to block; they are freed when the call returns.  A range of more
    than arith._SIEVE_LIMIT integers is refused up front.
    """
    if hi - lo + 1 > arith._SIEVE_LIMIT:
        raise CapacityError(f"[{lo}, {hi}] spans more than {arith._SIEVE_LIMIT} integers")
    _check_threads(threads)
    if span < 1:
        raise UsageError(f"block span must be >= 1, got {span}")
    blocks = [(u, min(hi, u + span - 1)) for u in range(lo, hi + 1, span)]
    if threads > 1 and len(blocks) > 1:
        workers = threading.local()

        def start() -> None:
            workers.scratch = arith._Scratch()

        with ThreadPoolExecutor(max_workers=threads, initializer=start) as pool:
            parts = list(pool.map(lambda block: scan(block, workers.scratch), blocks))
    else:
        # not pooled: a worker's own malloc arena took search-affine peak RSS 49.5 -> 57 MiB
        scratch = arith._Scratch()
        parts = [scan(block, scratch) for block in blocks]
    return [item for part in parts for item in part]


def _one_table(spec: EquationSpec, length: int) -> bool:
    """Whether one table serves a block of length values of n.

    It does when both arguments lie on one progression (a1 == a2 == a and a
    divides b2 - b1) and the halo |b2 - b1| / a is shorter than the block;
    with a longer halo the two ranges are disjoint, and their union would
    sieve more terms than two tables do.
    """
    d = spec.b2 - spec.b1
    return spec.a1 == spec.a2 and d % spec.a1 == 0 and abs(d) // spec.a1 < length


def _tables(
    spec: EquationSpec, u: int, v: int, scratch: arith._Scratch
) -> tuple[np.ndarray, np.ndarray]:
    """f(a1*n + b1) and f(a2*n + b2) for n in [u, v], as two uint64 arrays.

    Under _one_table they are two views, h = |b2 - b1| / a entries apart, of
    one table over the union of the two argument ranges.  The tables are
    sieved into one buffer of scratch, which the worker's next block
    overwrites: one allocation per worker rather than per table, so that
    glibc, which keeps a freed chunk on its heap while the heap's free top
    stays under twice the largest mapped chunk freed before, keeps a
    search's buffers for the next (~2 * 10**3 minor page faults fewer per
    search of f(2n + 1) = f(3n + 1) to 10**6 than with one buffer per table).
    """
    n = v - u + 1
    if _one_table(spec, n):
        a, b1, b2 = spec.a1, spec.b1, spec.b2
        h = abs(b2 - b1) // a
        lo, hi = a * u + min(b1, b2), a * v + max(b1, b2)
        table = scratch.array("tables", n + h, np.uint64)
        arith.build_table(lo, hi, spec.kind, step=a, out=table, scratch=scratch)
        low, high = table[: table.size - h], table[h:]
        return (low, high) if b1 < b2 else (high, low)
    tables = scratch.array("tables", 2 * n, np.uint64)
    return tuple(
        arith.build_table(a * u + b, a * v + b, spec.kind, step=a, out=out, scratch=scratch)
        for (a, b), out in zip(((spec.a1, spec.b1), (spec.a2, spec.b2)), (tables[:n], tables[n:]))
    )


def _scan_block(
    spec: EquationSpec, block: tuple[int, int], scratch: arith._Scratch
) -> list[SolutionRecord]:
    u, v = block
    f1, f2 = _tables(spec, u, v, scratch)
    out = []
    for i in np.nonzero(f1 == f2)[0]:
        n = u + int(i)
        out.append(SolutionRecord(n, *spec.arguments(n), int(f1[i])))
    return out


def _span(spec: EquationSpec) -> int:
    """4 * SEGMENT / max(a1, a2) values of n, but at least one kernel segment."""
    return max(arith.SEGMENT, 4 * arith.SEGMENT // max(spec.a1, spec.a2))


def _check_work(spec: EquationSpec, lo: int, hi: int) -> None:
    """Refuse, with CapacityError, a search past 2**48 or arith._WORK_LIMIT.

    search's one up-front check, for every spec and any block_size.  A
    table at any step holds one entry per n and pays a whole walk: it
    reduces its start modulo every base prime up to the square root of its
    largest argument, and its kernel segments take those that hit all at
    once, with no Python loop over them.  So no default block is shorter
    than one segment, and the work is counted as tables x units x
    pi(isqrt(largest argument)) in units of _span(spec) = max(SEGMENT,
    4 * SEGMENT / max(a1, a2)) values of n.
    """
    if hi < lo:
        return
    largest = max(spec.arguments(hi))
    if largest >= arith.TABLE_LIMIT:
        raise CapacityError(f"argument {largest} at n = {hi} exceeds table capacity")
    span = _span(spec)
    tables = 1 if _one_table(spec, span) else 2
    work = tables * -(-(hi - lo + 1) // span) * arith._base_primes(isqrt(largest)).size
    if work > arith._WORK_LIMIT:
        raise CapacityError(
            f"search would sieve with {work} base primes, over the {arith._WORK_LIMIT} limit"
        )


def search(
    spec: EquationSpec, xmax: int, threads: int = 1, block_size: int | None = None
) -> list[SolutionRecord]:
    """All n in [1, xmax] with both arguments >= 1 and f(arg1) == f(arg2), ascending.

    Block-sieved for throughput; with threads > 1 the blocks are sieved
    concurrently and merged in block order, so output is identical for any
    thread count and any block size (block_size is internal tuning).  Each
    block sieves one table when both arguments lie on one progression
    (a1 == a2 == a, a divides b2 - b1, and the halo |b2 - b1| / a is shorter
    than the block, as for f(n) = f(n + k)) and compares two views of it
    offset by the halo; otherwise it sieves one table per argument.  A
    search with an argument >= 2**48 or sieve work over arith._WORK_LIMIT
    is refused with CapacityError before any sieving, at any multipliers.

    A default block of f(a*n + b1) = f(a*n + b2) with a halo h = |b2 - b1|
    / a < SEGMENT / 4 holds 2 * SEGMENT - h values of n, so that its one
    table is two whole kernel segments, at any step; every other default
    block holds _span(spec) values of n.
    """
    if xmax < 1:
        raise UsageError(f"xmax must be >= 1, got {xmax}")
    lo = _first_valid_n(spec)
    _check_work(spec, lo, xmax)
    if block_size is None:
        # two-segment blocks only while the halo is under a quarter segment:
        # longer halos sieve more per n in them than in 4 * SEGMENT-value blocks
        # (phi(n) = phi(n + 2**18 - 1) to 4 * 10**6: 0.17 -> 0.26 s, 2-vCPU Xeon).
        # Not one segment per table: when every block allocated its own table,
        # glibc trimmed the heap after each block and the next block faulted it
        # back in (~15,900 minor page faults per search of f(n) = f(n + 1) to
        # 2 * 10**6 for both functions, against ~24).  With a search's workers
        # reusing their buffers from block to block it is still slower:
        # repeating that pair of searches (with --classify, through the CLI) for
        # 5 s in a fresh process, after a warm-up at 2 * 10**4, took 54.6-56.2 ms
        # per pair at one segment against 52.8-53.5 ms at two, and faulted 2,456
        # pages per pair against none after the first pair (medians of 89-95
        # pairs, 3 alternating processes each, 2-vCPU Xeon).
        two = _one_table(spec, arith.SEGMENT >> 2)
        block_size = 2 * arith.SEGMENT - abs(spec.b2 - spec.b1) // spec.a1 if two else _span(spec)
    return _map_blocks(partial(_scan_block, spec), lo, xmax, block_size, threads)
