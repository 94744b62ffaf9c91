"""Span tracer that wraps sigmaphi's public functions from outside the package.

Every public function of the six layer modules is replaced, in every sigmaphi
module that holds a reference to it (``audit`` and ``cli`` import ``search``
and ``classify`` by name), by a wrapper that records one span per call.  The
current span travels in a ``contextvars`` variable, and the package's
``ThreadPoolExecutor`` is swapped for one that copies the caller's context into
each task, so ``build_table`` spans sieved on worker threads are children of
the enclosing ``search`` span.

Spans are folded into per-function statistics as they close; a span's self
time is its duration minus the union of its children's intervals.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import statistics
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

LAYERS = ("arith", "equations", "parametric", "smoothness", "audit", "cli")

# Functions whose work counts are read from their arguments.
_BOUND_ARGUMENTS = (
    "arith.build_table",
    "arith.largest_factor_table",
    "equations.search",
    "parametric.generate",
)

_COUNT_KEYS = (
    "arith.build_table.entries",
    "arith.largest_factor_table.entries",
    "equations.search.n_scanned",
    "equations.search.hits",
    "equations.search.tables",
    "equations.search.build_table_s",
    "equations.search.thread_span_s",
    "parametric.generate.l_scanned",
    "parametric.generate.witnesses",
    "parametric.classify.parametric",
    "audit.assign_bucket.B1",
    "audit.assign_bucket.B2",
    "audit.assign_bucket.B3",
    "audit.assign_bucket.B4",
)

_current: contextvars.ContextVar[_Span | None] = contextvars.ContextVar(
    "sigmaphi_span", default=None
)


class _ContextExecutor(ThreadPoolExecutor):
    """Runs each task in a copy of the submitting thread's context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


class _Span:
    __slots__ = ("id", "name", "children")

    def __init__(self, span_id: int, name: str):
        self.id = span_id
        self.name = name
        # (name, start, end) of each child; appended from worker threads too
        self.children: list[tuple[str, float, float]] = []


def _covered(intervals) -> float:
    """Length of the union of (name, start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for _, start, end in sorted(intervals, key=lambda iv: iv[1]):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


class _Stat:
    __slots__ = ("calls", "total_s", "self_s", "durations")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.durations: list[float] = []


class Tracer:
    """Wraps sigmaphi's public functions while installed and aggregates their spans.

    ``snapshot`` returns the per-layer metrics of everything traced since the
    previous snapshot and starts a fresh aggregation.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []
        self._signatures: dict[str, inspect.Signature] = {}
        self._names: list[str] = []
        self._ids = itertools.count(1)
        self._reset()

    def _reset(self) -> None:
        self._stats: dict[str, _Stat] = {}
        self._counts = dict.fromkeys(_COUNT_KEYS, 0)
        # (calling span id, lo, hi) for every build_table call
        self._tables: list[tuple[int | None, int, int]] = []
        # (span id, spec, xmax) for every search call
        self._searches: list[tuple[int, object, int]] = []

    def install(self) -> None:
        self._names = []
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"sigmaphi.{layer}"]
            for name, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    qualified = f"{layer}.{name}"
                    self._names.append(qualified)
                    wrappers[id(obj)] = self._wrap(qualified, obj)
                    if qualified in _BOUND_ARGUMENTS:
                        self._signatures[qualified] = inspect.signature(obj)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "sigmaphi":
                continue
            for name, obj in list(vars(module).items()):
                if obj is ThreadPoolExecutor:
                    replacement = _ContextExecutor
                else:
                    replacement = wrappers.get(id(obj))
                if replacement is not None:
                    self._patched.append((module, name, obj))
                    setattr(module, name, replacement)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = _current.get()
            span = _Span(next(self._ids), name)
            token = _current.set(span)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                _current.reset(token)
                self._close(span, parent, start, end, args, kwargs, result)

        return traced

    def _close(self, span, parent, start, end, args, kwargs, result) -> None:
        duration = end - start
        self_s = duration - _covered(span.children)
        if parent is not None:
            parent.children.append((span.name, start, end))
        with self._lock:
            stat = self._stats.get(span.name)
            if stat is None:
                stat = self._stats[span.name] = _Stat()
            stat.calls += 1
            stat.total_s += duration
            stat.self_s += self_s
            stat.durations.append(duration)
            self._count(span, parent, duration, args, kwargs, result)

    def _count(self, span, parent, duration, args, kwargs, result) -> None:
        """Work counts of the spans whose arguments or result carry them."""
        name, counts = span.name, self._counts
        signature = self._signatures.get(name)
        bound = signature.bind(*args, **kwargs).arguments if signature else {}
        if name == "arith.build_table":
            lo, hi = bound["lo"], bound["hi"]
            counts["arith.build_table.entries"] += hi - lo + 1
            self._tables.append((parent.id if parent else None, lo, hi))
        elif name == "arith.largest_factor_table":
            counts["arith.largest_factor_table.entries"] += bound["limit"] + 1
        elif name == "equations.search":
            tables = [c for c in span.children if c[0] == "arith.build_table"]
            spec, xmax = bound["spec"], bound["xmax"]
            counts["equations.search.tables"] += len(tables)
            counts["equations.search.build_table_s"] += sum(e - s for _, s, e in tables)
            counts["equations.search.thread_span_s"] += bound.get("threads", 1) * duration
            counts["equations.search.n_scanned"] += max(0, xmax - _first_n(spec) + 1)
            counts["equations.search.hits"] += len(result or ())
            self._searches.append((span.id, spec, xmax))
        elif name == "parametric.generate":
            counts["parametric.generate.l_scanned"] += bound["lmax"]
            counts["parametric.generate.witnesses"] += len(result or ())
        elif name == "parametric.classify":
            counts["parametric.classify.parametric"] += result is not None
        elif name == "audit.assign_bucket" and result is not None:
            counts[f"audit.assign_bucket.{result.bucket.value}"] += 1

    def _useful_entries(self) -> int:
        """Distinct integers whose sieved value a caller reads, once per calling span.

        ``search`` reads a1*n + b1 and a2*n + b2 for the n it scans; every
        other caller reads its whole table.
        """
        useful = sum(_distinct_arguments(spec, xmax) for _, spec, xmax in self._searches)
        search_ids = {sid for sid, _, _ in self._searches}
        by_caller: dict[int | None, list] = {}
        for caller, lo, hi in self._tables:
            if caller not in search_ids:
                by_caller.setdefault(caller, []).append(("", lo - 1, hi))
        return useful + sum(round(_covered(ranges)) for ranges in by_caller.values())

    def snapshot(self) -> dict[str, float]:
        """Per-layer metrics of everything traced since the last snapshot."""
        with self._lock:
            stats, counts = self._stats, self._counts
            useful = self._useful_entries()
            self._reset()
        out: dict[str, float] = {}
        for name in self._names:
            stat = stats.get(name, _Stat())
            out[f"{name}.calls"] = stat.calls
            out[f"{name}.self_s"] = stat.self_s
            out[f"{name}.total_s"] = stat.total_s
            out[f"{name}.p50_ms"] = (
                statistics.median(stat.durations) * 1e3 if stat.durations else 0.0
            )
        out.update(counts)

        entries = counts["arith.build_table.entries"]
        # sigma, phi and spf are uint64 arrays: computed bytes, not measured traffic
        out["arith.build_table.bytes_computed"] = entries * 3 * 8
        out["arith.build_table.entries_per_s"] = _ratio(
            entries, out["arith.build_table.total_s"]
        )
        out["arith.build_table.useful_ratio"] = _ratio(useful, entries)
        # search sieves one table per argument progression per block
        out["equations.search.blocks"] = counts["equations.search.tables"] // 2
        out["equations.search.busy_ratio"] = _ratio(
            counts["equations.search.build_table_s"], counts["equations.search.thread_span_s"]
        )
        out["parametric.generate.witness_ratio"] = _ratio(
            counts["parametric.generate.witnesses"], counts["parametric.generate.l_scanned"]
        )
        out["parametric.classify.parametric_ratio"] = _ratio(
            counts["parametric.classify.parametric"], out["parametric.classify.calls"]
        )
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _first_n(spec) -> int:
    """Smallest n >= 1 with both arguments >= 1: the first n that search scans."""
    lo = 1
    for a, b in ((spec.a1, spec.b1), (spec.a2, spec.b2)):
        lo = max(lo, -((1 - b) // -a))
    return lo


def _distinct_arguments(spec, xmax: int) -> int:
    """Size of {a1*n + b1} ∪ {a2*n + b2} over the n in [start, xmax] that search scans."""
    start = _first_n(spec)
    if start > xmax:
        return 0
    n = np.arange(start, xmax + 1, dtype=np.int64)
    t = spec.a1 * n + (spec.b1 - spec.b2)
    m = t // spec.a2
    shared = np.count_nonzero((t % spec.a2 == 0) & (m >= start) & (m <= xmax))
    return 2 * n.size - int(shared)
