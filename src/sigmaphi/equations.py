"""Exhaustive search for solutions of f(a1*n + b1) = f(a2*n + b2), f in {sigma, phi}."""

from __future__ import annotations

from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import arith
from .arith import Kind
from .errors import CapacityError, UsageError

# Most threads one block map may run.  The pool may start one thread per
# block, and a request past this is a typo rather than a core count.
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


def _map_blocks(
    scan: Callable[[tuple[int, int]], Sequence], lo: int, hi: int, span: int, threads: int
) -> list:
    """Results of scan on each block of span integers in [lo, hi], in block order.

    With threads > 1 the blocks are scanned concurrently, and the result is the
    same for any thread count.  A range of more than arith._SIEVE_LIMIT
    integers is refused up front.
    """
    if hi - lo + 1 > arith._SIEVE_LIMIT:
        raise CapacityError(f"[{lo}, {hi}] spans more than {arith._SIEVE_LIMIT} integers")
    if threads < 1:
        raise UsageError("threads must be >= 1")
    if threads > _MAX_THREADS:
        raise UsageError(f"threads must be <= {_MAX_THREADS}, got {threads}")
    if span < 1:
        raise UsageError(f"block span must be >= 1, got {span}")
    blocks = [(u, min(hi, u + span - 1)) for u in range(lo, hi + 1, span)]
    if threads > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(scan, blocks))
    else:
        # not pooled: a worker's own malloc arena took search-affine peak RSS 49.5 -> 57 MiB
        parts = map(scan, blocks)
    return [item for part in parts for item in part]


def _scan_block(spec: EquationSpec, block: tuple[int, int]) -> list[SolutionRecord]:
    u, v = block
    strided = [
        arith.build_table(a * u + b, a * v + b, spec.kind, step=a)
        for a, b in ((spec.a1, spec.b1), (spec.a2, spec.b2))
    ]
    hits = np.nonzero(strided[0] == strided[1])[0]
    out = []
    for i in hits:
        n = u + int(i)
        a1n, a2n = spec.arguments(n)
        out.append(SolutionRecord(n, a1n, a2n, int(strided[0][i])))
    return out


def search(
    spec: EquationSpec, xmax: int, threads: int = 1, block_size: int | None = None
) -> list[SolutionRecord]:
    """All n in [1, xmax] with both arguments >= 1 and f(arg1) == f(arg2), ascending.

    Block-sieved for throughput; with threads > 1 the blocks are sieved
    concurrently and merged in block order, so output is identical for any
    thread count and any block size (block_size is internal tuning).
    """
    if xmax < 1:
        raise UsageError(f"xmax must be >= 1, got {xmax}")
    for a, b in ((spec.a1, spec.b1), (spec.a2, spec.b2)):
        if a * xmax + b >= arith.TABLE_LIMIT:
            raise CapacityError(f"argument {a}*{xmax}{b:+d} exceeds table capacity")
    if block_size is None:
        block_size = max(1, arith.DEFAULT_SEGMENT // max(spec.a1, spec.a2))
    return _map_blocks(partial(_scan_block, spec), _first_valid_n(spec), xmax, block_size, threads)
