"""Shared pieces of the benchmark: timing samples, run records, host speed, key streams.

Every workload returns a ``Run``: latency samples per operation, the
busy time and unit count behind its throughput, and the correctness tally.
The runner turns runs into the reported metrics, scaled to the reference
speed that a ``Speedometer`` measures alongside the run.
"""

import contextlib
import time
from array import array
from dataclasses import dataclass, field

import numpy as np

MASK64 = (1 << 64) - 1

perf = time.perf_counter

# values kept per sample name: enough for a p99 of a run, bounded in memory
SAMPLE_CAP = 16384

# share of wall time the speedometer spends in its reference kernel
KERNEL_DUTY = 0.05
# the kernel converts a KERNEL_SLICE-int slice of a KERNEL_POOL-int list
KERNEL_POOL = 1 << 17
KERNEL_SLICE = 4096
# the kernel's time at the reference speed: about its fastest steady time on
# a shared 2-vCPU Intel Xeon (Sapphire Rapids) VM under CPython 3.11, where
# it took 145-155 us in quiet stretches and 210-270 us in busy ones
REFERENCE_KERNEL_S = 150e-6

_kernel_pool = [(i * 0x9E3779B97F4A7C15) & MASK64 for i in range(KERNEL_POOL)]
_kernel_next = 0


def reference_kernel() -> int:
    """Fixed work on Python ints and numpy: the yardstick of the host's speed.

    It copies the next slice of a pool of 131,072 64-bit ints (about 5 MiB
    of objects) and converts it to a numpy array: the same kind of work as
    the library's list-to-array copies and reads of Python ints, so it slows
    down with the library when other tenants load the host.  Of the kernels
    tried, it followed the library best from run to run; a pure integer
    loop under-corrected the library's list and array work.
    """
    global _kernel_next
    start = _kernel_next
    _kernel_next = (start + KERNEL_SLICE) % KERNEL_POOL
    return int(np.array(_kernel_pool[start:start + KERNEL_SLICE], dtype=np.uint64)[-1])


class Speedometer:
    """How fast the host runs fixed work, sampled through the whole run.

    On a shared host the same work runs up to 1.8x slower in bursts of a
    few milliseconds while other tenants load the machine, and the share of
    a run spent in such bursts differs from run to run.  ``settle`` is called between timed library calls; it runs
    the reference kernel until the kernel has taken ``KERNEL_DUTY`` of the
    wall time since the start, so kernel time is spread over the run like
    the library's own time.  ``scale`` is the reference kernel time over the
    mean measured kernel time: a duration times ``scale`` is the duration
    the same work takes at the reference speed.  Library code never runs
    the kernel, so a change to the library moves the scaled times as much
    as the raw ones.
    """

    def __init__(self):
        self.started = perf()
        self.kernel_s = 0.0
        self.calls = 0

    def settle(self) -> None:
        now = perf()
        while not self.calls or self.kernel_s < KERNEL_DUTY * (now - self.started):
            t0 = perf()
            reference_kernel()
            now = perf()
            self.kernel_s += now - t0
            self.calls += 1

    def scale(self) -> float:
        self.settle()
        return REFERENCE_KERNEL_S * self.calls / self.kernel_s

    def burst(self, seconds: float) -> float:
        """Run the kernel for ``seconds`` straight; its reference time over its mean time then."""
        calls, kernel_s = 0, 0.0
        while not calls or kernel_s < seconds:
            t0 = perf()
            reference_kernel()
            kernel_s += perf() - t0
            calls += 1
        self.kernel_s += kernel_s
        self.calls += calls
        return REFERENCE_KERNEL_S * calls / kernel_s

    def describe(self) -> dict:
        return {"kernel_mean_us": self.kernel_s / self.calls * 1e6 if self.calls else 0.0,
                "kernel_calls": self.calls, "kernel_duty": KERNEL_DUTY,
                "reference_kernel_us": REFERENCE_KERNEL_S * 1e6}


@dataclass
class Run:
    """What one measurement pass did, timed with tracing off or on.

    ``units`` of work took ``busy_s`` seconds inside library calls, and
    ``totals`` holds the seconds per call name.  Raw durations are kept;
    ``scale``, set once the pass is over, converts them to the reference
    speed.  ``settle`` lets the speedometer sample between timed calls.
    """

    speed: Speedometer = field(default_factory=Speedometer)
    scale: float = 1.0
    units: int = 0
    busy_s: float = 0.0
    totals: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    observed: dict = field(default_factory=dict)
    _stride: dict = field(default_factory=dict)

    def sample(self, name: str, value: float) -> None:
        """Keep every ``stride``-th value of a name, at most 2 * SAMPLE_CAP.

        Halving the kept values and doubling the stride when the cap is hit
        leaves an evenly spaced subsample of the whole run, so memory, and
        with it peak RSS, does not grow with how fast the library runs.
        """
        seen = self.observed.get(name, 0)
        self.observed[name] = seen + 1
        stride = self._stride.get(name, 1)
        if seen % stride:
            return
        kept = self.samples.setdefault(name, array("d"))
        kept.append(value)
        if len(kept) >= 2 * SAMPLE_CAP:
            self.samples[name] = kept[::2]
            self._stride[name] = stride * 2

    def record(self, name: str, seconds: float) -> None:
        """Record one duration under a name, without adding it to busy time."""
        self.sample(name, seconds)
        self.totals[name] = self.totals.get(name, 0.0) + seconds

    def timed(self, name: str, seconds: float) -> None:
        """Record the duration of one library call and add it to busy time."""
        self.record(name, seconds)
        self.busy_s += seconds

    def settle(self) -> None:
        self.speed.settle()

    def check(self, ok: bool, problem: str) -> None:
        """Count one checked operation, failed unless ok."""
        self.tally(1, 0 if ok else 1, problem)

    def tally(self, attempted: int, failed: int, problem: str) -> None:
        """Count checked operations; ``problem`` is kept when any failed."""
        self.attempted += attempted
        if failed:
            self.failed += failed
            if len(self.problems) < 20:
                self.problems.append(problem)

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile; 0.0 when there are no values."""
    if not len(values):
        return 0.0
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


def percentile(run: Run, name: str, q: float, scale: float, unit: str) -> tuple:
    """(quantile of the named samples at reference speed, times scale, unit, values observed)."""
    return quantile(run.samples.get(name, ()), q) * run.scale * scale, unit, run.observed.get(name, 0)


def mean(run: Run, name: str, scale: float, unit: str) -> tuple:
    """(mean of every named duration at reference speed, times scale, unit, values observed)."""
    seen = run.observed.get(name, 0)
    return (run.totals.get(name, 0.0) / seen * run.scale * scale if seen else 0.0), unit, seen


def fmix64(value: int) -> int:
    """A 64-bit bijection (the murmur3 finalizer), unrelated to sckf's own
    hashing, so generated keys carry no structure the filter could see."""
    value &= MASK64
    value = ((value ^ (value >> 33)) * 0xFF51AFD7ED558CCD) & MASK64
    value = ((value ^ (value >> 33)) * 0xC4CEB9FE1A85EC53) & MASK64
    return value ^ (value >> 33)


class KeyStream:
    """Distinct seeded 64-bit keys from two disjoint streams.

    ``member(i)`` and ``absent(j)`` pass disjoint counters through one
    bijection, so no absent key ever equals a member key and no key repeats,
    without keeping a set of every key drawn.
    """

    _ABSENT_BASE = 1 << 63

    def __init__(self, seed: int):
        self._offset = fmix64(seed ^ 0x5CCF_BE4C_0000_0001)

    def member(self, index: int) -> int:
        return fmix64(index + self._offset)

    def absent(self, index: int) -> int:
        return fmix64(self._ABSENT_BASE + index + self._offset)


def no_pause():
    return contextlib.nullcontext()
