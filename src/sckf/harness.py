"""Monte-Carlo experiments over filter geometries, with CSV/JSON output.

Elements are 64-bit counters encoded as 8-byte little-endian strings:
members are ``[0, n)`` and negative probes are ``[n, n + queries)``, so
member and probe sets are disjoint by construction and identical for every
variant run under the same parameters.

Every experiment is a pure function of its parameters and seeds, so
identical seeds give byte-identical CSV and JSON.  Each cuckoo trial runs
through ``_trial``, which builds, fills and probes one seeded filter; trials
never share state, so callers are free to fan them out across processes,
and the built-in runners stay sequential.  A trial hashes its members once
and skips the fill when pigeonhole already decides it: more members than
the table and stashes hold, or, in the simplified variant, more members
homed in one subtable than that subtable's slots and stash hold.  The
skipped fill would have failed, so every record is the same either way.
Records report the measured rate next to the bound the analysis predicts
for the same geometry.
"""

import csv
import io
import json
from dataclasses import dataclass, fields

import numpy as np

from . import bloom, hashing, planner
from .filter import CuckooFilter, FilterParams, Variant, check_count


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


CSV_FIELDS = [col.name for col in fields(TrialRecord)]


def render(records, fmt: str) -> str:
    """CSV or JSON text of the records, sorted by ``TrialRecord.sort_key``."""
    rows = [
        [getattr(record, name) for name in CSV_FIELDS]
        for record in sorted(records, key=TrialRecord.sort_key)
    ]
    if fmt == "json":
        return json.dumps([dict(zip(CSV_FIELDS, row)) for row in rows], indent=2) + "\n"
    if fmt != "csv":
        raise ValueError(f"unknown format {fmt!r}")
    stream = io.StringIO()
    csv.writer(stream, lineterminator="\n").writerows([CSV_FIELDS, *rows])
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
    return filt.insert_many(member_values(n))


def _achievable_load(block_size: int) -> float:
    """The load the block-size analysis promises; 0 when it promises nothing."""
    slack = planner.max_load_slack(block_size)
    return max(0.0, 1.0 - slack - slack * slack)


def _trial(n: int, block_size: int, fingerprint_bits: int, num_subtables: int, seed: int,
           variant: Variant, stash_capacity: int = 0, queries: int = 0) -> int | None:
    """Build one seeded filter and fill it with the n members: None when the
    fill failed, else the false-positive hits among ``queries`` probes.

    The members are hashed once, and the fill runs from those hashes.  Two
    pigeonhole checks return None without a fill, where the fill would
    fail for certain:

    * before hashing, when n exceeds the table slots plus every stash (or,
      for a probed trial, the table slots alone, which fprate's bound
      requires);
    * after hashing, in the simplified variant, when the members whose
      home lies in one subtable outnumber its ``b * 2**f`` slots plus its
      stash.  Both candidate cells of a member and its stash lie in its
      home's subtable, so those members cannot all land.  The original
      variant's alternate can leave the subtable, so it is always filled.
    """
    filt = build_filter(n, block_size, fingerprint_bits, num_subtables, seed, variant, stash_capacity)
    params = filt.params
    room = params.total_slots if queries else params.total_slots + params.num_subtables * params.stash_capacity
    if n > room:
        return None
    # the cell ints before the hashes, as insert_many builds them: built
    # after, construction's peak RSS read about 0.3 MiB higher
    filt._cells or filt._cell_ints()
    homes, fps = filt.hash_many(member_values(n))
    if params.variant is Variant.SIMPLIFIED:
        # homes < 2^63, so the int64 view bincount needs holds the same values
        demand = np.bincount(homes.view(np.int64) >> params.fingerprint_bits).max()
        if demand > (params.block_size << params.fingerprint_bits) + params.stash_capacity:
            return None
    if filt._fill(homes, fps) < n:
        return None
    return int(filt.query_many(probe_values(n, queries)).sum()) if queries else 0


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
        hits = _trial(n, block_size, fingerprint_bits, num_subtables, seed, variant,
                      stash_capacity, queries)
        # per seed after the build, so FilterParams names a bad geometry first
        bound = planner.false_positive_bound(
            n, num_subtables << fingerprint_bits, block_size, fingerprint_bits
        )
        trials = 0 if hits is None else queries
        successes = hits or 0
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
                measured=successes / queries,
                bound=bound,
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
    successes = sum(
        _trial(n, block_size, fingerprint_bits, num_subtables, hashing.hash_u64(trial, base_seed),
               variant) is not None
        for trial in range(trials)
    )
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
        subtables = planner.subtables_for_load(n, block_size, fingerprint_bits, load)
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
        subtables = planner.subtables_for_load(n, block_size, bits, load)
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
    k = bloom.hash_count_for(num_bits, n)
    filt = bloom.BloomFilter(num_bits, k, seed)
    filt.add_many(member_values(n))
    successes = int(filt.contains_many(probe_values(n, queries)).sum())
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
    )


def _next_power_of_two(value: int) -> int:
    return 1 << (value - 1).bit_length() if value > 1 else 1
