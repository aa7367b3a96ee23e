"""Span tracing of sckf's public layers, installed from outside the library.

``Tracer.install`` replaces public functions of ``hashing``, ``bitmatch``,
``harness`` and ``planner`` and public methods of ``CuckooFilter`` with
wrappers that record one span each: name, start, end and the index of the
enclosing span.  Library code looks these names up at call time, so calls
made inside the library are traced too.  Spans live in flat arrays and are
written out by ``dump``; ``layer_metrics`` derives the per-layer numbers,
where a span's self time is its duration minus that of its child spans.

A name that a later version of the library no longer has is skipped, and
its metrics read zero.
"""

import contextlib
import functools
import importlib
from array import array
from collections import Counter

import numpy as np

from common import perf

TARGETS = {
    "sckf.hashing": ("hash_bytes", "hash_u64_many"),
    "sckf.bitmatch": ("match_bits", "find_in_words", "write_lane", "match_bits_many"),
    "sckf.filter.CuckooFilter": ("insert", "insert_hashed", "query", "query_many", "delete",
                                 "to_bytes", "from_bytes"),
    "sckf.harness": ("insert_members", "build_filter", "render"),
    "sckf.planner": ("plan",),
}

# name, unit, which way is better; every name layer_metrics reports
METRICS = [
    ("hashing.hash_bytes.calls_per_op", "count", "lower"),
    ("hashing.hash_bytes.self_us_per_op", "us", "lower"),
    ("hashing.hash_u64_many.self_ms", "ms", "lower"),
    ("bitmatch.match_bits.calls_per_query", "count", "lower"),
    ("bitmatch.match_bits.self_ms", "ms", "lower"),
    ("bitmatch.find_in_words.self_ms", "ms", "lower"),
    ("bitmatch.write_lane.calls_per_insert", "count", "lower"),
    ("bitmatch.match_bits_many.self_ms", "ms", "lower"),
    ("filter.insert.evicting_share", "ratio", "lower"),
    ("filter.insert.evicting_us_p50", "us", "lower"),
    ("filter.insert.direct_us_p50", "us", "lower"),
    ("filter.insert_outcome.stored", "count", "higher"),
    ("filter.insert_outcome.stashed", "count", "lower"),
    ("filter.insert_outcome.failed", "count", "lower"),
    ("filter.query_many.fixed_ms", "ms", "lower"),
    ("filter.query_many.self_ms", "ms", "lower"),
    ("filter.to_bytes.self_ms", "ms", "lower"),
    ("filter.from_bytes.self_ms", "ms", "lower"),
    ("filter.insert_hashed.self_ms", "ms", "lower"),
    ("harness.insert_members.self_ms", "ms", "lower"),
    ("harness.build_filter.self_ms", "ms", "lower"),
    ("harness.render.self_ms", "ms", "lower"),
    ("planner.plan.self_ms", "ms", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
]


def _resolve(path: str):
    """The module, or the class inside a module, that ``path`` names."""
    try:
        return importlib.import_module(path)
    except ImportError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outcomes = Counter()  # InsertOutcome values returned by insert_hashed
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._paused = 0
        self.mark = 0  # first span of the measurement phase

    def install(self) -> None:
        for path, attrs in TARGETS.items():
            owner = _resolve(path)
            for attr in attrs:
                raw = vars(owner).get(attr)
                if raw is None:
                    continue
                name = f"{path.split('.')[1]}.{attr}"
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                setattr(owner, attr, wrapped)
                self._restore.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    @contextlib.contextmanager
    def paused(self):
        """Run library calls without recording spans (the benchmark's checks)."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def start_measurement(self) -> None:
        self.mark = len(self.start)

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        stack = self._stack
        record_outcome = name == "filter.insert_hashed"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            index = len(self.start)
            self.name_id.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(index)
            self.start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = perf()
                stack.pop()
            if record_outcome:
                self.outcomes[result.value] += 1
            return result

        return traced

    def arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.int32), np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start), np.frombuffer(self.end))

    def dump(self, path) -> None:
        ids, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=ids, parent=parent, start=start, end=end)

    def layer_metrics(self) -> dict:
        """Per-layer numbers from the recorded spans.

        Self-time totals and insert outcome counts cover every traced span:
        the traced set-up and the traced measurement.  Per-call ratios and
        insert percentiles cover the measurement phase only, so they
        describe the workload's steady state rather than the fill.
        """
        ids, parent, start, end = self.arrays()
        count = len(ids)
        duration = end - start
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=count)
        self_time = duration - child_time[:count]
        measured = np.arange(count) >= self.mark
        lookup = {name: i for i, name in enumerate(self.names)}

        def mask(name):
            return ids == lookup[name] if name in lookup else np.zeros(count, dtype=bool)

        def self_ms(name):
            return float(self_time[mask(name)].sum() * 1e3)

        def under(child, parent_name):
            """Measured spans of ``child`` whose enclosing span is ``parent_name``."""
            inner = mask(child) & measured & has_parent
            return int(np.count_nonzero(mask(parent_name)[parent[inner]]))

        def ratio(numerator, denominator):
            return numerator / denominator if denominator else 0.0

        scalar_ops = int(np.count_nonzero(
            measured & (mask("filter.insert") | mask("filter.query") | mask("filter.delete"))))
        hash_bytes = mask("hashing.hash_bytes") & measured
        queries = int(np.count_nonzero(mask("filter.query") & measured))

        inserts = np.nonzero(mask("filter.insert_hashed") & measured)[0]
        lanes = mask("bitmatch.write_lane") & has_parent
        lanes_per_span = np.bincount(parent[lanes], minlength=count)[inserts]
        evicting = lanes_per_span > 1
        insert_us = duration[inserts] * 1e6

        return {
            "hashing.hash_bytes.calls_per_op": ratio(int(np.count_nonzero(hash_bytes)), scalar_ops),
            "hashing.hash_bytes.self_us_per_op": ratio(float(self_time[hash_bytes].sum() * 1e6), scalar_ops),
            "hashing.hash_u64_many.self_ms": self_ms("hashing.hash_u64_many"),
            "bitmatch.match_bits.calls_per_query": ratio(under("bitmatch.match_bits", "filter.query"), queries),
            "bitmatch.match_bits.self_ms": self_ms("bitmatch.match_bits"),
            "bitmatch.find_in_words.self_ms": self_ms("bitmatch.find_in_words"),
            "bitmatch.write_lane.calls_per_insert": ratio(int(lanes_per_span.sum()), len(inserts)),
            "bitmatch.match_bits_many.self_ms": self_ms("bitmatch.match_bits_many"),
            "filter.insert.evicting_share": ratio(int(np.count_nonzero(evicting)), len(inserts)),
            "filter.insert.evicting_us_p50": float(np.median(insert_us[evicting])) if evicting.any() else 0.0,
            "filter.insert.direct_us_p50": float(np.median(insert_us[~evicting])) if (~evicting).any() else 0.0,
            "filter.insert_outcome.stored": self.outcomes["stored"],
            "filter.insert_outcome.stashed": self.outcomes["stashed"],
            "filter.insert_outcome.failed": self.outcomes["failed"],
            "filter.query_many.self_ms": self_ms("filter.query_many"),
            "filter.to_bytes.self_ms": self_ms("filter.to_bytes"),
            "filter.from_bytes.self_ms": self_ms("filter.from_bytes"),
            "filter.insert_hashed.self_ms": self_ms("filter.insert_hashed"),
            "harness.insert_members.self_ms": self_ms("harness.insert_members"),
            "harness.build_filter.self_ms": self_ms("harness.build_filter"),
            "harness.render.self_ms": self_ms("harness.render"),
            "planner.plan.self_ms": self_ms("planner.plan"),
        }
