"""point_churn: online scalar use of one filter at load 0.93.

One closed-loop caller keeps 106,659 distinct 8-byte keys live in a b=4,
f=12 filter of 7 subtables with a 4-entry stash each, which is load 0.93.
At this load most inserts run the breadth-first eviction search.  Each step
deletes the oldest live key, inserts a fresh one, queries a live key (hit)
and a never-inserted key (miss); every 64 steps one ``query_many`` probes
1,024 keys, half live and half absent, so any per-table cache or mirror
pays its invalidation cost between batches.

The load is 0.93 rather than 0.95 because at 0.95 some seeds overflow one
subtable's stash and inserts start to return FAILED (seed 10 on the third
churn step, seed 8 after 27,510 steps); with 7 subtables the fullest one
runs about 2.5 standard deviations above the mean load.  At 0.93 no stash
entry was needed in 28 seeds of 40,000 to 60,000 steps.

Every answer is checked against the exact set of live keys: no false
negative, every delete of a live key succeeds, no insert fails, and each
batch equals scalar ``query`` on the same keys.
"""

import random
from dataclasses import dataclass

import numpy as np

from common import KeyStream, Run, Speedometer, mean, no_pause, percentile, perf
from sckf import CuckooFilter, FilterParams, InsertOutcome
from sckf.hashing import encode_u64

BLOCK_SIZE = 4
FINGERPRINT_BITS = 12
NUM_SUBTABLES = 7
STASH_CAPACITY = 4
LOAD = 0.93
LIVE_KEYS = int(LOAD * NUM_SUBTABLES * (1 << FINGERPRINT_BITS) * BLOCK_SIZE)  # 106,659
BATCH_EVERY = 64
BATCH_PROBES = 1024

GEOMETRY = {
    "block_size": BLOCK_SIZE,
    "fingerprint_bits": FINGERPRINT_BITS,
    "num_subtables": NUM_SUBTABLES,
    "stash_capacity": STASH_CAPACITY,
    "variant": "simplified",
    "load": LOAD,
    "live_keys": LIVE_KEYS,
    "batch_every_steps": BATCH_EVERY,
    "batch_probes": BATCH_PROBES,
}

SETUP_REPS = 5
# churn steps in one traced measurement; a multiple of BATCH_EVERY
TRACE_UNITS = 4096
# the call behind latency_ms_mean
LATENCY_SAMPLE = "insert"


@dataclass
class State:
    filt: CuckooFilter
    ring: list  # live (value, encoded key) pairs; None where an insert failed
    keys: KeyStream
    rng: random.Random
    oldest: int = 0
    next_member: int = LIVE_KEYS
    next_absent: int = 0
    setup_inserts: int = LIVE_KEYS
    setup_failures: int = 0

    def absent_key(self) -> int:
        self.next_absent += 1
        return self.keys.absent(self.next_absent - 1)


def setup(seed: int) -> State:
    """Fill a fresh filter to load 0.93 with the scalar insert."""
    params = FilterParams(
        capacity=LIVE_KEYS,
        block_size=BLOCK_SIZE,
        fingerprint_bits=FINGERPRINT_BITS,
        num_subtables=NUM_SUBTABLES,
        stash_capacity=STASH_CAPACITY,
        seed=seed,
    )
    filt = CuckooFilter(params)
    keys = KeyStream(seed)
    ring = []
    failures = 0
    failed = InsertOutcome.FAILED
    for index in range(LIVE_KEYS):
        value = keys.member(index)
        encoded = encode_u64(value)
        if filt.insert(encoded) is failed:
            failures += 1
            ring.append(None)
        else:
            ring.append((value, encoded))
    return State(filt, ring, keys, random.Random(seed), setup_failures=failures)


def measure(state: State, seconds: float | None = None, units: int | None = None, pause=no_pause,
            speed: Speedometer | None = None) -> Run:
    """Churn until ``seconds`` have passed or ``units`` steps are done.

    Only library calls are timed; key generation and checks are not.
    ``pause`` suspends tracing around the checks; ``speed`` samples the
    host's speed between steps.
    """
    run = Run(speed or Speedometer())
    if state.setup_inserts:
        run.tally(state.setup_inserts, state.setup_failures,
                  f"{state.setup_failures} set-up inserts failed")
        state.setup_inserts = state.setup_failures = 0
    filt, ring, rng = state.filt, state.ring, state.rng
    failed_outcome = InsertOutcome.FAILED
    started = perf()
    step = 0
    while True:
        if units is not None and step >= units:
            break
        if seconds is not None and step % BATCH_EVERY == 0 and perf() - started >= seconds:
            break
        old = ring[state.oldest]
        value = state.keys.member(state.next_member)
        state.next_member += 1
        encoded = encode_u64(value)
        miss = encode_u64(state.absent_key())

        if old is not None:
            t0 = perf()
            deleted = filt.delete(old[1])
            t1 = perf()
            run.timed("delete", t1 - t0)
            run.check(deleted, f"delete of live key {old[0]} returned False")
        t0 = perf()
        outcome = filt.insert(encoded)
        t1 = perf()
        run.timed("insert", t1 - t0)
        run.check(outcome is not failed_outcome, f"insert of {value} failed")
        run.count(outcome.value)
        ring[state.oldest] = None if outcome is failed_outcome else (value, encoded)
        state.oldest = (state.oldest + 1) % LIVE_KEYS

        live = ring[rng.randrange(LIVE_KEYS)]
        if live is not None:
            t0 = perf()
            hit = filt.query(live[1])
            t1 = perf()
            run.timed("query_hit", t1 - t0)
            run.check(hit, f"false negative for live key {live[0]}")
        t0 = perf()
        false_positive = filt.query(miss)
        t1 = perf()
        run.timed("query_miss", t1 - t0)
        run.attempted += 1
        run.count("miss_false_positive", int(false_positive))

        step += 1
        if step % BATCH_EVERY == 0:
            _batch(state, run, pause)
        run.settle()
    run.units = step
    return run


def _batch(state: State, run: Run, pause) -> None:
    half = BATCH_PROBES // 2
    live = [entry[0] for entry in (state.ring[state.rng.randrange(LIVE_KEYS)] for _ in range(half))
            if entry is not None]
    absent = [state.absent_key() for _ in range(BATCH_PROBES - len(live))]
    values = np.array(live + absent, dtype=np.uint64)
    t0 = perf()
    answers = state.filt.query_many(values)
    t1 = perf()
    run.timed("batch1k", t1 - t0)
    with pause():
        scalar = [state.filt.query(encode_u64(v)) for v in live + absent]
    wrong = int(np.count_nonzero(answers != np.array(scalar, dtype=bool)))
    missed = len(live) - int(np.count_nonzero(answers[: len(live)]))
    run.tally(len(scalar), wrong, f"query_many differs from scalar query on {wrong} probes")
    run.tally(0, missed, f"query_many missed {missed} live keys")


def zero_length_target(state: State) -> CuckooFilter:
    """The filter a zero-length ``query_many`` is timed on."""
    return state.filt


def report(run: Run) -> dict:
    """The workload's own metrics: name -> (value, unit, sample count)."""
    return {
        "churn_steps_per_s": (run.units / (run.busy_s * run.scale) if run.busy_s else 0.0, "1/s", run.units),
        "insert_us_mean": mean(run, "insert", 1e6, "us"),
        "insert_us_p50": percentile(run, "insert", 0.5, 1e6, "us"),
        "insert_us_p99": percentile(run, "insert", 0.99, 1e6, "us"),
        "query_hit_us_mean": mean(run, "query_hit", 1e6, "us"),
        "query_miss_us_mean": mean(run, "query_miss", 1e6, "us"),
        "delete_us_mean": mean(run, "delete", 1e6, "us"),
        "query_hit_us_p50": percentile(run, "query_hit", 0.5, 1e6, "us"),
        "query_miss_us_p50": percentile(run, "query_miss", 0.5, 1e6, "us"),
        "delete_us_p50": percentile(run, "delete", 0.5, 1e6, "us"),
        "batch1k_ms_mean": mean(run, "batch1k", 1e3, "ms"),
        "batch1k_ms_p50": percentile(run, "batch1k", 0.5, 1e3, "ms"),
        "inserts_stashed": (run.counts.get("stashed", 0), "count", run.observed.get("insert", 0)),
        "miss_false_positives": (run.counts.get("miss_false_positive", 0), "count",
                                 run.observed.get("query_miss", 0)),
    }
