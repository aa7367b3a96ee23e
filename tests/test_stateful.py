"""Stateful fuzz of the filter against an exact multiset of live elements.

Small geometries (b=1-2, f=4-6, 1-2 subtables, stash 0-2, both variants)
fill up within a few steps, so deletes leave holes in cells, inserts run
the eviction search and overflow into the stash, and the snapshot round
trip carries all of that state.  The geometry b=13, f=5 has 65-bit blocks,
two wire words with slot 12 across the boundary; its 416-slot subtables
fill through the ``fill`` rule's runs of consecutive values, so batch
queries and round trips also meet holes and evictions in multi-word blocks.
The ``bulk_fill`` rule runs the same runs through ``insert_many`` and checks
it against a scalar insert loop on a copy, in whatever state the table is.
An invariant reads the wire-table view after every step, so every later
kind of write meets a view and must flag the cells it writes.  A filter
fresh from ``from_bytes`` has no cell ints until its first scalar call,
and the invariants build them; the ``reload_and_write`` rule writes to a
reloaded filter before any invariant runs, so that first call is a write.
"""

from collections import Counter

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from sckf.filter import CuckooFilter, FilterParams, InsertOutcome, Variant
from sckf.hashing import encode_u64

VALUES = st.integers(min_value=0, max_value=2**16)


class FilterMachine(RuleBasedStateMachine):
    @initialize(
        geometry=st.one_of(st.tuples(st.integers(1, 2), st.integers(4, 6)), st.just((13, 5))),
        num_subtables=st.integers(1, 2),
        stash_capacity=st.integers(0, 2),
        variant=st.sampled_from(Variant),
        seed=st.integers(0, 2**64 - 1),
    )
    def build(self, geometry, num_subtables, stash_capacity, variant, seed):
        block_size, fingerprint_bits = geometry
        if variant is Variant.ORIGINAL:
            stash_capacity = 0
        self.filt = CuckooFilter(
            FilterParams(
                capacity=16, block_size=block_size, fingerprint_bits=fingerprint_bits,
                num_subtables=num_subtables, variant=variant,
                stash_capacity=stash_capacity, seed=seed,
            )
        )
        self.live = Counter()

    @rule(values=st.lists(VALUES, min_size=1, max_size=16))
    def insert(self, values):
        for value in values:
            if self.filt.insert(encode_u64(value)) is not InsertOutcome.FAILED:
                self.live[value] += 1

    @rule(start=VALUES, count=st.integers(1, 128))
    def fill(self, start, count):
        self.insert(range(start, start + count))

    @rule(start=VALUES, count=st.integers(1, 128))
    def bulk_fill(self, start, count):
        scalar = CuckooFilter.from_bytes(self.filt.to_bytes())
        done = self.filt.insert_many(np.arange(start, start + count, dtype=np.uint64))
        landed = 0
        for value in range(start, start + count):
            if scalar.insert(encode_u64(value)) is InsertOutcome.FAILED:
                break
            landed += 1
        assert done == landed
        assert self.filt.to_bytes() == scalar.to_bytes()
        self.live.update(range(start, start + done))

    @precondition(lambda self: self.live)
    @rule(data=st.data(), count=st.integers(1, 8))
    def delete(self, data, count):
        for _ in range(min(count, len(self.live))):
            value = data.draw(st.sampled_from(sorted(self.live)))
            assert self.filt.delete(encode_u64(value))
            self.live[value] -= 1
            if not self.live[value]:
                del self.live[value]

    @rule(value=VALUES)
    def query(self, value):
        hit = self.filt.query(encode_u64(value))
        assert hit or value not in self.live

    @rule(values=st.lists(VALUES, max_size=30))
    def query_many(self, values):
        batch = self.filt.query_many(np.array(values, dtype=np.uint64))
        assert batch.tolist() == [self.filt.query(encode_u64(v)) for v in values]

    @rule()
    def round_trip(self):
        payload = self.filt.to_bytes()
        restored = CuckooFilter.from_bytes(payload)
        assert restored.to_bytes() == payload
        self.filt = restored

    @rule(data=st.data(), start=VALUES, count=st.integers(1, 64))
    def reload_and_write(self, data, start, count):
        self.round_trip()
        assert self.filt._cells is None
        if self.live and data.draw(st.booleans(), label="delete"):
            self.delete(data, count)
        else:
            self.bulk_fill(start, count)

    @invariant()
    def counts_match(self):
        assert self.filt.stored_count == sum(self.live.values())

    @invariant()
    def view_matches_cells(self):
        # builds the view on the first step, so every later write meets one
        filt = self.filt
        assert filt._wire_rows().tobytes() == filt._table_bytes(range(filt.params.num_cells))

    @invariant()
    def no_false_negatives(self):
        assert all(self.filt.query(encode_u64(value)) for value in self.live)


FilterMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestFilterMachine = FilterMachine.TestCase
