"""Monte-Carlo experiments over filter geometries, with CSV/JSON output.

Elements are 64-bit counters encoded as 8-byte little-endian strings:
members are ``[0, n)`` and negative probes are ``[n, n + queries)``, so
member and probe sets are disjoint by construction and identical for every
variant run under the same parameters.

Every experiment is a pure function of its parameters and seeds.  Trials
use one filter instance each and never share state, so callers are free to
fan trials out across processes; the built-in runners stay sequential.
Records report the measured rate next to the bound the analysis predicts
for the same geometry.

Wall-clock time is kept on the in-memory records for interactive use but
never written to CSV or JSON, which keeps file output byte-identical for
identical seeds.
"""

import csv
import io
import json
import math
import time
from dataclasses import dataclass, fields

import numpy as np

from . import bloom, hashing, planner
from .filter import CuckooFilter, FilterParams, InsertOutcome, Variant, check_count


@dataclass
class TrialRecord:
    """One experiment outcome: parameters, counts, rate, and bound."""

    experiment: str
    variant: str
    n: int
    b: int
    f: int
    num_subtables: int
    stash_capacity: int
    seed: int
    trials: int
    successes: int
    measured: float
    bound: float
    wall_time_s: float = 0.0

    def __post_init__(self):
        if not 0 <= self.successes <= self.trials:
            raise ValueError(f"successes {self.successes} outside [0, {self.trials}]")

    def sort_key(self):
        return (
            self.experiment,
            self.variant,
            self.n,
            self.b,
            self.f,
            self.num_subtables,
            self.stash_capacity,
            self.seed,
        )


# wall time is deliberately absent: output files must be reproducible
CSV_FIELDS = [col.name for col in fields(TrialRecord) if col.name != "wall_time_s"]


def sort_records(records) -> list[TrialRecord]:
    return sorted(records, key=TrialRecord.sort_key)


def write_csv(records, stream) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    for record in sort_records(records):
        writer.writerow([getattr(record, name) for name in CSV_FIELDS])


def write_json(records, stream) -> None:
    payload = [
        {name: getattr(record, name) for name in CSV_FIELDS}
        for record in sort_records(records)
    ]
    json.dump(payload, stream, indent=2)
    stream.write("\n")


def render(records, fmt: str) -> str:
    stream = io.StringIO()
    if fmt == "csv":
        write_csv(records, stream)
    elif fmt == "json":
        write_json(records, stream)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return stream.getvalue()


def member_values(n: int) -> np.ndarray:
    return np.arange(n, dtype=np.uint64)


def probe_values(n: int, queries: int) -> np.ndarray:
    return np.arange(n, n + queries, dtype=np.uint64)


def build_filter(
    n: int,
    block_size: int,
    fingerprint_bits: int,
    num_subtables: int,
    seed: int,
    variant: Variant = Variant.SIMPLIFIED,
    stash_capacity: int = 0,
) -> CuckooFilter:
    params = FilterParams(
        capacity=n,
        block_size=block_size,
        fingerprint_bits=fingerprint_bits,
        num_subtables=num_subtables,
        variant=variant,
        stash_capacity=stash_capacity,
        seed=seed,
    )
    return CuckooFilter(params)


def insert_members(filt: CuckooFilter, n: int) -> int:
    """Insert counters [0, n); returns how many were inserted before a
    failure (n means all landed, in table or stash)."""
    homes, fps = filt.hash_many(member_values(n))
    insert = filt.insert_hashed
    failed = InsertOutcome.FAILED
    done = 0
    for home, fp in zip(homes.tolist(), fps.tolist()):
        if insert(home, fp) is failed:
            return done
        done += 1
    return done


def check_load(load: float) -> None:
    """A target load lies in (0, 1]; NaN fails too."""
    if not 0.0 < load <= 1.0:
        raise ValueError(f"load must be in (0, 1], got {load}")


def subtables_for_load(n: int, block_size: int, fingerprint_bits: int, load: float) -> int:
    """Fewest subtables so that n elements sit at or below the target load."""
    check_load(load)
    per_subtable = (1 << fingerprint_bits) * block_size * load
    return max(1, math.ceil(n / per_subtable))


def _achievable_load(block_size: int) -> float:
    """The load the block-size analysis promises; 0 when it promises nothing."""
    slack = planner.max_load_slack(block_size)
    return max(0.0, 1.0 - slack - slack * slack)


def run_fp_experiment(
    n: int,
    block_size: int,
    fingerprint_bits: int,
    num_subtables: int,
    queries: int,
    seeds,
    variant: Variant = Variant.SIMPLIFIED,
    stash_capacity: int = 0,
) -> list[TrialRecord]:
    """Measured false-positive rate next to its bound, one record per seed.

    A construction failure at the requested load is recorded as a
    zero-trial record and the measurement is skipped.
    """
    check_count(queries, "queries")
    records = []
    for seed in seeds:
        start = time.perf_counter()
        filt = build_filter(
            n, block_size, fingerprint_bits, num_subtables, seed,
            variant=variant, stash_capacity=stash_capacity,
        )
        bound = planner.false_positive_bound(
            n, filt.params.num_cells, block_size, fingerprint_bits
        )
        inserted = insert_members(filt, n)
        if inserted < n:
            trials = successes = 0
            measured = 0.0
        else:
            hits = filt.query_many(probe_values(n, queries))
            trials = queries
            successes = int(hits.sum())
            measured = successes / queries
        records.append(
            TrialRecord(
                experiment="fprate",
                variant=variant.value,
                n=n,
                b=block_size,
                f=fingerprint_bits,
                num_subtables=num_subtables,
                stash_capacity=stash_capacity,
                seed=seed,
                trials=trials,
                successes=successes,
                measured=measured,
                bound=bound,
                wall_time_s=time.perf_counter() - start,
            )
        )
    return records


def _construction_record(
    experiment: str,
    variant: Variant,
    n: int,
    block_size: int,
    fingerprint_bits: int,
    num_subtables: int,
    trials: int,
    base_seed: int,
    bound: float,
) -> TrialRecord:
    """Build and fill one seeded filter per trial at a single geometry.

    successes counts the trials in which all n members landed; measured
    is their fraction.
    """
    check_count(trials, "trials")
    start = time.perf_counter()
    successes = 0
    for trial in range(trials):
        seed = hashing.hash_u64(trial, base_seed)
        filt = build_filter(n, block_size, fingerprint_bits, num_subtables, seed, variant)
        if insert_members(filt, n) == n:
            successes += 1
    return TrialRecord(
        experiment=experiment,
        variant=variant.value,
        n=n,
        b=block_size,
        f=fingerprint_bits,
        num_subtables=num_subtables,
        stash_capacity=0,
        seed=base_seed,
        trials=trials,
        successes=successes,
        measured=successes / trials,
        bound=bound,
        wall_time_s=time.perf_counter() - start,
    )


def run_load_sweep(
    n: int,
    block_size: int,
    fingerprint_bits: int,
    loads,
    trials: int,
    base_seed: int = 0,
    variant: Variant = Variant.SIMPLIFIED,
) -> list[TrialRecord]:
    """All-inserts-succeed fraction per target load.

    The table is resized per grid point so n elements land exactly at the
    target load (up to whole-subtable rounding); the bound column carries
    the load the block-size analysis guarantees.
    """
    records = []
    guaranteed = _achievable_load(block_size)
    for load in loads:
        subtables = subtables_for_load(n, block_size, fingerprint_bits, load)
        if variant is Variant.ORIGINAL:
            subtables = _next_power_of_two(subtables)
        records.append(
            _construction_record(
                f"loadsweep[{load:g}]", variant, n, block_size, fingerprint_bits,
                subtables, trials, base_seed, guaranteed,
            )
        )
    return records


def run_failure_sweep(
    n: int,
    block_size: int,
    load: float,
    fingerprint_grid,
    trials: int,
    base_seed: int = 0,
) -> list[TrialRecord]:
    """Construction-failure fraction per fingerprint width at fixed load.

    The bound column is the predicted failure probability at failure
    exponent s = 1: n**-1 once the width clears both planner bounds,
    vacuously 1 below them.
    """
    records = []
    slack = planner.max_load_slack(block_size)
    recommended = max(
        planner.subtable_fingerprint_bits(n, 1.0, block_size),
        planner.balance_fingerprint_bits(n, 1.0, slack, block_size),
        2,
    )
    for bits in fingerprint_grid:
        bound = n ** -1.0 if bits >= recommended else 1.0
        subtables = subtables_for_load(n, block_size, bits, load)
        record = _construction_record(
            "failsweep", Variant.SIMPLIFIED, n, block_size, bits,
            subtables, trials, base_seed, bound,
        )
        record.measured = (trials - record.successes) / trials
        records.append(record)
    return records


def run_variant_compare(
    n: int,
    block_size: int,
    fingerprint_bits: int,
    num_subtables: int,
    trials: int,
    base_seed: int = 0,
) -> list[TrialRecord]:
    """Construction success of both variants on identical member streams.

    num_subtables must be a power of two so the original variant's
    involution works on the same geometry.
    """
    if num_subtables & (num_subtables - 1):
        raise ValueError(
            f"variant comparison needs a power-of-two num_subtables, got {num_subtables}"
        )
    return [
        _construction_record(
            "compare", variant, n, block_size, fingerprint_bits,
            num_subtables, trials, base_seed, _achievable_load(block_size),
        )
        for variant in (Variant.SIMPLIFIED, Variant.ORIGINAL)
    ]


def bloom_baseline_rate(n: int, num_bits: int, queries: int, seed: int) -> TrialRecord:
    """False-positive rate of a size-matched Bloom filter, bound 2**-k."""
    check_count(queries, "queries")
    if num_bits <= n:
        raise ValueError(f"num_bits={num_bits} must exceed n={n} for a useful baseline")
    start = time.perf_counter()
    k = bloom.hash_count_for(num_bits, n)
    filt = bloom.BloomFilter(num_bits, k, seed)
    filt.add_many(member_values(n))
    hits = filt.contains_many(probe_values(n, queries))
    successes = int(hits.sum())
    return TrialRecord(
        experiment="bloom",
        variant="bloom",
        n=n,
        b=0,
        f=k,
        num_subtables=0,
        stash_capacity=0,
        seed=seed,
        trials=queries,
        successes=successes,
        measured=successes / queries,
        bound=2.0**-k,
        wall_time_s=time.perf_counter() - start,
    )


def _next_power_of_two(value: int) -> int:
    return 1 << (value - 1).bit_length() if value > 1 else 1
