"""batch_scan: read-only batch queries and snapshots at the planned geometry.

The filter has the geometry ``plan(PlanRequest(n=100_000, block_size=8))``
gives (f=16, one subtable of 65,536 cells, three words per block) and holds
the members ``[0, 100_000)`` inserted by ``harness.insert_members``, which
is load 0.19, so no insert evicts.  Each timed cycle loads the snapshot with
``from_bytes``, runs ``query_many`` over 1,024-probe batches and over
1,048,576-probe batches of absent values, and saves it with ``to_bytes``.
Small and large batches together separate the fixed cost of a call from
its cost per probe; the snapshot is the 1,048,610-byte v1 wire format.

Checks: each reload serializes back to the same bytes, a fixed sample of
every batch equals scalar ``query``, members are never reported absent, and
the false-positive rate over all absent probes stays within
``planner.false_positive_bound`` plus three standard errors.
"""

import math
from dataclasses import dataclass

import numpy as np

from common import Run, Speedometer, mean, no_pause, percentile, perf
from sckf import CuckooFilter, PlanRequest, harness, planner
from sckf.hashing import encode_u64

REQUEST = PlanRequest(n=100_000, block_size=8)
SMALL_BATCH = 1024
LARGE_BATCH = 1 << 20
SMALL_PER_CYCLE = 16
LARGE_PER_CYCLE = 1
SMALL_SAMPLE = 32  # probes of each small batch re-checked with scalar query
LARGE_SAMPLE = 256
MEMBER_SAMPLE = 1024

SETUP_REPS = 5
# cycles in one traced measurement
TRACE_UNITS = 3
# behind latency_ms_mean: the library time of one whole cycle, whose
# small batches show the fixed cost of a query_many call
LATENCY_SAMPLE = "cycle"


_PLAN = planner.plan(REQUEST)
GEOMETRY = {
    "n": _PLAN.n,
    "block_size": _PLAN.block_size,
    "fingerprint_bits": _PLAN.fingerprint_bits,
    "num_subtables": _PLAN.num_subtables,
    "num_cells": _PLAN.num_cells,
    "words_per_block": -(-_PLAN.block_size // (63 // _PLAN.fingerprint_bits)),
    "load": _PLAN.n / (_PLAN.num_cells * _PLAN.block_size),
    "false_positive_bound": planner.false_positive_bound(
        _PLAN.n, _PLAN.num_cells, _PLAN.block_size, _PLAN.fingerprint_bits),
    "small_batch": SMALL_BATCH,
    "large_batch": LARGE_BATCH,
    "small_per_cycle": SMALL_PER_CYCLE,
    "large_per_cycle": LARGE_PER_CYCLE,
}


@dataclass
class State:
    snapshot: bytes
    rng: np.random.Generator
    setup_inserted: int | None


def setup(seed: int) -> State:
    """Plan the geometry, insert the members, take the snapshot."""
    plan = planner.plan(REQUEST)
    filt = harness.build_filter(
        plan.n, plan.block_size, plan.fingerprint_bits, plan.num_subtables, seed
    )
    inserted = harness.insert_members(filt, plan.n)
    return State(filt.to_bytes(), np.random.default_rng(seed), inserted)


def measure(state: State, seconds: float | None = None, units: int | None = None, pause=no_pause,
            speed: Speedometer | None = None) -> Run:
    """Whole cycles until ``seconds`` have passed or ``units`` cycles are done."""
    run = Run(speed or Speedometer())
    members = GEOMETRY["n"]
    if state.setup_inserted is not None:
        run.tally(members, members - state.setup_inserted,
                  f"insert_members stored {state.setup_inserted} of {members}")
        state.setup_inserted = None
    started = perf()
    cycles = 0
    while (units is None or cycles < units) and (seconds is None or perf() - started < seconds):
        _cycle(state, run, pause)
        cycles += 1
    run.units = run.counts.get("probes", 0)
    absent = run.counts.get("absent_probes", 0)
    if absent:
        measured = run.counts.get("false_positives", 0) / absent
        bound = GEOMETRY["false_positive_bound"]
        limit = bound + 3.0 * math.sqrt(bound * (1.0 - bound) / absent)
        run.check(measured <= limit,
                  f"false-positive rate {measured:.3e} above {limit:.3e} over {absent} probes")
    return run


def _cycle(state: State, run: Run, pause) -> None:
    busy_before = run.busy_s
    t0 = perf()
    filt = CuckooFilter.from_bytes(state.snapshot)
    t1 = perf()
    run.timed("load_snapshot", t1 - t0)
    run.settle()
    with pause():
        members = np.linspace(0, GEOMETRY["n"] - 1, MEMBER_SAMPLE).astype(np.uint64)
        found = int(np.count_nonzero(filt.query_many(members)))
    run.tally(MEMBER_SAMPLE, MEMBER_SAMPLE - found,
              f"{MEMBER_SAMPLE - found} members reported absent after from_bytes")

    for size, count, sample, name in ((SMALL_BATCH, SMALL_PER_CYCLE, SMALL_SAMPLE, "batch1k"),
                                      (LARGE_BATCH, LARGE_PER_CYCLE, LARGE_SAMPLE, "batch1m")):
        positions = np.linspace(0, size - 1, sample).astype(np.int64)
        for _ in range(count):
            probes = state.rng.integers(GEOMETRY["n"], (1 << 64) - 1, size,
                                        dtype=np.uint64, endpoint=True)
            t0 = perf()
            answers = filt.query_many(probes)
            t1 = perf()
            run.timed(name, t1 - t0)
            run.settle()
            run.count("probes", size)
            run.count("absent_probes", size)
            run.count("false_positives", int(np.count_nonzero(answers)))
            with pause():
                wrong = sum(filt.query(encode_u64(int(probes[i]))) != bool(answers[i])
                            for i in positions)
            run.tally(sample, wrong, f"query_many differs from scalar query on {wrong} probes")

    t0 = perf()
    payload = filt.to_bytes()
    t1 = perf()
    run.timed("save_snapshot", t1 - t0)
    run.record("cycle", run.busy_s - busy_before)
    run.settle()
    run.counts["snapshot_bytes"] = len(payload)
    run.check(payload == state.snapshot, "to_bytes(from_bytes(snapshot)) differs from snapshot")


def zero_length_target(state: State) -> CuckooFilter:
    return CuckooFilter.from_bytes(state.snapshot)


def report(run: Run) -> dict:
    """The workload's own metrics: name -> (value, unit, sample count)."""
    absent = run.counts.get("absent_probes", 0)
    large_s, _, large_calls = mean(run, "batch1m", 1.0, "s")
    return {
        "cycle_ms_mean": mean(run, "cycle", 1e3, "ms"),
        "batch1k_ms_mean": mean(run, "batch1k", 1e3, "ms"),
        "batch1k_ms_p50": percentile(run, "batch1k", 0.5, 1e3, "ms"),
        "batch1k_ms_p99": percentile(run, "batch1k", 0.99, 1e3, "ms"),
        "batch1m_probes_per_s": (LARGE_BATCH / large_s if large_s else 0.0, "1/s", large_calls),
        "load_snapshot_ms": percentile(run, "load_snapshot", 0.5, 1e3, "ms"),
        "save_snapshot_ms": percentile(run, "save_snapshot", 0.5, 1e3, "ms"),
        "snapshot_bytes": (run.counts.get("snapshot_bytes", 0), "bytes", run.observed.get("save_snapshot", 0)),
        "false_positive_rate": (run.counts.get("false_positives", 0) / absent if absent else 0.0,
                                "ratio", absent),
    }
