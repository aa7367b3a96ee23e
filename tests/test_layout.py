"""One dense block per cell: batch answers, round trips, padding, golden payloads.

Geometries where a block spans more than one 64-bit wire word are the ones
where a slot can straddle a word boundary: at b=7, f=10 slot 6 holds bits
60-69.  At b=8, f=16 a block is exactly two words with no padding, at
b=13, f=12 three words (156 bits), and at b=4, f=16 one word whose top bit
belongs to the last slot.

Batch queries and ``to_bytes`` read the wire table from a view kept beside
the cell ints.  The view tests check it after each kind of write against a
twin filter whose view is re-encoded from every cell int before each read,
count the cells each read re-encodes, and guard the list of methods that
write the cells.  Every filter builds its cell ints on its first scalar
read or write, from the view or, for an empty table, as zeros; the
lazy-state tests check that a new filter does so and that a loaded filter
serves batch reads and saves without them, and that each first scalar
call leaves it as a filter that was never serialized.
"""

import ast
import hashlib
import sys
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import wire_blocks
from sckf import filter as filter_module
from sckf import hashing
from sckf.filter import (
    CuckooFilter,
    FilterParams,
    InsertOutcome,
    SerializationError,
    Variant,
)
from sckf.hashing import encode_u64

HEADER_SIZE = 32
FILL_BASE = 10**9  # fill values stay clear of the values stash_one searches


def stash_one(filt: CuckooFilter) -> int:
    """Force one stash entry and return the value that went there.

    Fills both candidate cells of value 0 with values homed there, so with
    an eviction budget too small to search, value 0 lands in the stash.
    """
    p = filt.params
    values = np.arange(1, 32 * p.num_cells, dtype=np.uint64)
    homes, _ = filt.hash_many(values)
    target_home, target_fp = filt.hash_many(np.zeros(1, dtype=np.uint64))
    home = int(target_home[0])
    alt = home ^ int(target_fp[0])
    for cell in (home, alt):
        for value in values[homes == cell][: p.block_size].tolist():
            assert filt.insert(encode_u64(value)) is InsertOutcome.STORED
    assert filt.insert(encode_u64(0)) is InsertOutcome.STASHED
    return 0


def cell_ints(filt: CuckooFilter) -> list[int]:
    """The cell ints, built from the view if no scalar call has built them yet."""
    return filt._cells or filt._cell_ints()


def fill(filt: CuckooFilter, count: int) -> list[int]:
    members = list(range(FILL_BASE, FILL_BASE + count))
    for value in members:
        assert filt.insert(encode_u64(value)) is not InsertOutcome.FAILED
    return members


def stashed_filter(block_size: int, fingerprint_bits: int, count: int) -> tuple:
    filt = CuckooFilter(
        FilterParams(
            capacity=count,
            block_size=block_size,
            fingerprint_bits=fingerprint_bits,
            stash_capacity=64,
            max_evictions=1,
            seed=block_size * 100 + fingerprint_bits,
        )
    )
    members = [stash_one(filt)] + fill(filt, count)
    assert filt.stash_count >= 1
    return filt, members


WIDE_GEOMETRIES = [(7, 10, 5000), (8, 16, 20000), (4, 16, 20000), (13, 12, 20000)]


@pytest.mark.parametrize("block_size,fingerprint_bits,count", WIDE_GEOMETRIES)
def test_query_many_matches_scalar_on_wide_blocks(block_size, fingerprint_bits, count):
    filt, members = stashed_filter(block_size, fingerprint_bits, count)
    pool = np.arange(24 * filt.params.num_cells, dtype=np.uint64)
    homes, _ = filt.hash_many(pool)
    cells, first = np.unique(homes, return_index=True)
    assert cells.size == filt.params.num_cells
    first_with_home = dict(zip(cells.tolist(), first.tolist()))
    # a pool value homed in the alternate cell of a member: both probe that cell
    member = members[1]
    member_home, member_fp = filt.hash_many(np.array([member], dtype=np.uint64))
    sharer = first_with_home[int(member_home[0] ^ member_fp[0])]
    batches = {
        "members and others": members + list(range(1, 20000)),
        "empty": [],
        "one probe": [0],  # the stashed value
        "repeats": [member] * 3 + [0] * 3 + [7] * 2,
        "shared cells": [member, sharer, 0],
        "every cell": pool[first].tolist() + [0],
    }
    for name, values in batches.items():
        batch = filt.query_many(np.array(values, dtype=np.uint64))
        scalar = [filt.query(encode_u64(value)) for value in values]
        assert batch.tolist() == scalar, name
    assert filt.query_many(np.array(members, dtype=np.uint64)).all()


@pytest.mark.parametrize("block_size,fingerprint_bits,count", WIDE_GEOMETRIES)
def test_wide_block_round_trip_is_byte_identical(block_size, fingerprint_bits, count):
    filt, members = stashed_filter(block_size, fingerprint_bits, count)
    payload = filt.to_bytes()
    restored = CuckooFilter.from_bytes(payload)
    assert restored.to_bytes() == payload
    assert restored.stored_count == filt.stored_count
    assert restored.query_many(np.array(members, dtype=np.uint64)).all()


@pytest.mark.parametrize("block_size,fingerprint_bits", [(7, 10), (5, 13)])
def test_multiword_padding_bits_rejected(block_size, fingerprint_bits):
    filt = CuckooFilter(
        FilterParams(capacity=100, block_size=block_size, fingerprint_bits=fingerprint_bits)
    )
    fill(filt, 100)
    payload = bytearray(filt.to_bytes())
    assert CuckooFilter.from_bytes(bytes(payload)).stored_count == 100
    # top bit of the second wire word of block 0 lies above the last slot
    payload[HEADER_SIZE + 15] |= 0x80
    with pytest.raises(SerializationError, match="padding"):
        CuckooFilter.from_bytes(bytes(payload))


# (b, f, subtables): two words of 4 whole lanes at b=8, f=16; slots across
# two words at b=13, f=12; 32 lanes a word at b=255, f=2; 7 subtables at
# b=4, f=12; and at b=7, f=10 a last word that holds no whole lane (its lane
# constant is 0), as at b=3, f=30, whose 2^30 cells need about 28 GB
OCCUPANCY_GEOMETRIES = [(8, 16, 1), (13, 12, 1), (7, 10, 1), (255, 2, 1), (4, 12, 7)]


@pytest.mark.parametrize("block_size,fingerprint_bits,subtables", OCCUPANCY_GEOMETRIES)
def test_loaded_occupancy_equals_the_per_slot_count(block_size, fingerprint_bits, subtables):
    params = FilterParams(capacity=1000, block_size=block_size, fingerprint_bits=fingerprint_bits,
                          num_subtables=subtables, seed=block_size * 1000 + fingerprint_bits)
    filt = CuckooFilter(params)
    members = FILL_BASE + np.arange(int(0.6 * params.total_slots), dtype=np.uint64)
    landed = filt.insert_many(members)
    for value in members[:landed:3].tolist():
        assert filt.delete(encode_u64(value))
    blocks = wire_blocks(filt)
    # a hole: an empty slot below an occupied one
    assert any(sorted(block, key=lambda value: not value) != block for block in blocks)
    loaded = CuckooFilter.from_bytes(filt.to_bytes())
    per_slot = [sum(1 for value in block if value) for block in blocks]
    assert list(loaded._occupancy) == per_slot == list(filt._occupancy)
    assert loaded.stored_count == filt.stored_count == sum(per_slot)


def _golden_b4_f12_stash() -> CuckooFilter:
    filt = CuckooFilter(
        FilterParams(
            capacity=8000, block_size=4, fingerprint_bits=12, num_subtables=1,
            stash_capacity=64, max_evictions=1, seed=21,
        )
    )
    stash_one(filt)
    fill(filt, 8000)
    return filt


def _golden_b8_f16() -> CuckooFilter:
    filt = CuckooFilter(FilterParams(capacity=30000, block_size=8, fingerprint_bits=16, seed=22))
    fill(filt, 30000)
    return filt


def _golden_b7_f10() -> CuckooFilter:
    filt = CuckooFilter(
        FilterParams(capacity=11000, block_size=7, fingerprint_bits=10, num_subtables=2, seed=23)
    )
    fill(filt, 11000)
    return filt


def _golden_original() -> CuckooFilter:
    filt = CuckooFilter(
        FilterParams(
            capacity=3000, block_size=4, fingerprint_bits=8, num_subtables=4,
            variant=Variant.ORIGINAL, seed=24,
        )
    )
    fill(filt, 3000)
    return filt


# SHA-256 of to_bytes() recorded from the lane-per-word table layout that
# preceded the dense one; the wire format must not move
GOLDEN_PAYLOADS = {
    "b4-f12-stash": (
        _golden_b4_f12_stash,
        "a2858f3c28836a7bd830691fc68dc2106499552889a37e8aa709c02d7b07f56f",
    ),
    "b8-f16": (
        _golden_b8_f16,
        "b4200644310c8c33cfe021cf6990a365fe7dd61966f278509d0bf23c1a7a0378",
    ),
    "b7-f10": (
        _golden_b7_f10,
        "d89003bccfc34b9325e33ff5d48baebc4a079afc83b4ba03cda0fd77e4b72ff0",
    ),
    "original": (
        _golden_original,
        "2a227d812e3a6fa3e196dc9cba4595875cc06bdd74836c6a0f31a95cf785c097",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_PAYLOADS))
def test_payload_matches_recorded_digest(name):
    build, digest = GOLDEN_PAYLOADS[name]
    assert hashlib.sha256(build().to_bytes()).hexdigest() == digest


def _b4_f12() -> CuckooFilter:
    filt = CuckooFilter(FilterParams(capacity=8000, block_size=4, fingerprint_bits=12, seed=25))
    fill(filt, 8000)
    return filt


CHUNK_EDGE_FILTERS = {
    "b4-f12": (_b4_f12, 8000),
    "b8-f16": (_golden_b8_f16, 30000),
    "b7-f10": (_golden_b7_f10, 11000),
    "original": (_golden_original, 3000),
    "b4-f12-stash": (_golden_b4_f12_stash, 8000),
}


@pytest.mark.parametrize("name", sorted(CHUNK_EDGE_FILTERS))
def test_query_many_matches_scalar_across_chunk_edges(name):
    build, count = CHUNK_EDGE_FILTERS[name]
    filt = build()
    chunk = hashing._CHUNK
    # members and absent values alternate, so every chunk, the last partial
    # one included, holds probes that must answer True
    total = 2 * chunk + 3
    values = np.empty(total, dtype=np.uint64)
    values[0::2] = FILL_BASE + np.arange((total + 1) // 2, dtype=np.uint64) % np.uint64(count)
    values[1::2] = FILL_BASE + count + np.arange(total // 2, dtype=np.uint64)
    if filt.stash_count:
        values[-1] = 0  # the stashed value, in the last partial chunk
    scalar = [filt.query(encode_u64(value)) for value in values.tolist()]
    for size in (chunk - 1, chunk, chunk + 1, total):
        assert filt.query_many(values[:size]).tolist() == scalar[:size], size


def test_large_batch_holds_one_chunk_of_temporaries():
    # at batch_scan's geometry (b=8, f=16, 65,536 cells, 100,000 members) a
    # 2^20-probe batch needs its 1 MiB of answers and one chunk's buffers;
    # batch-sized home and fingerprint arrays would take 8 MiB each
    filt = CuckooFilter(FilterParams(capacity=100_000, block_size=8, fingerprint_bits=16))
    assert filt.insert_many(np.arange(100_000, dtype=np.uint64)) == 100_000
    loaded = CuckooFilter.from_bytes(filt.to_bytes())
    probes = np.random.default_rng(8).integers(0, hashing.MASK64, 1 << 20, dtype=np.uint64, endpoint=True)
    tracemalloc.start()
    try:
        hits = loaded.query_many(probes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, peak
    sample = probes[:: 1 << 12].tolist()
    assert hits[:: 1 << 12].tolist() == [filt.query(encode_u64(value)) for value in sample]


# -- adversarial lanes for the whole-word match ------------------------------

# (block size, fingerprint bits, variant): two words with no straddle,
# straddling slots 5 and 10, a last word holding only a straddle's top,
# eight words of 2-bit lanes, and the original variant's alternates
LANE_GEOMETRIES = [
    (8, 16, Variant.SIMPLIFIED),
    (13, 12, Variant.SIMPLIFIED),
    (7, 10, Variant.SIMPLIFIED),
    (255, 2, Variant.SIMPLIFIED),
    (13, 12, Variant.ORIGINAL),
]


def place(filt: CuckooFilter, cell: int, lanes: list[int]) -> None:
    """Store lanes (0 = empty) in an empty cell through insert_hashed.

    A zero lane below a stored one is left as a hole: a stand-in is
    inserted there, then removed, bottom hole first, so the removal finds
    the stand-in in no lower slot.
    """
    f = filt.params.fingerprint_bits
    top = max((slot for slot, value in enumerate(lanes) if value), default=-1)
    stand_ins = {}
    for slot, value in enumerate(lanes[: top + 1]):
        if not value:
            value = stand_ins[slot] = next(w for w in range(1, 1 << f) if w not in lanes[:slot])
        assert filt.insert_hashed(cell, value) is InsertOutcome.STORED
    for value in stand_ins.values():
        assert filt._remove_from_cell(cell, value)
    assert cell_ints(filt)[cell] == sum(value << slot * f for slot, value in enumerate(lanes))


def lane_positions(block_size: int, fingerprint_bits: int) -> list[int]:
    """Slots 1 and b - 1, and each slot at a wire word's edge: a word's
    first or last whole lane, or a lane that straddles two words."""
    f = fingerprint_bits
    return [
        slot for slot in range(block_size)
        if slot in (1, block_size - 1)
        or (slot - 1) * f // 64 != slot * f // 64  # the lane below starts in an earlier word
        or ((slot + 2) * f - 1) // 64 != slot * f // 64  # the lane above ends in a later word
    ]


@pytest.mark.parametrize("block_size,fingerprint_bits,variant", LANE_GEOMETRIES)
def test_query_many_matches_scalar_on_adversarial_lanes(block_size, fingerprint_bits, variant):
    f = fingerprint_bits
    params = FilterParams(capacity=block_size, block_size=block_size, fingerprint_bits=f,
                          variant=variant, seed=block_size * 100 + f)
    pool = np.arange(1 << min(f + 4, 20), dtype=np.uint64)
    empty = CuckooFilter(params)
    _, pool_fps = empty.hash_many(pool)
    # fingerprints 1 and 2^f - 1, and a third from the pool's first value
    probes = [int(np.flatnonzero(pool_fps == fp)[0]) for fp in (1, (1 << f) - 1)] + [0]
    for probe in probes:
        value = np.array([probe], dtype=np.uint64)
        homes, fps = empty.hash_many(value)
        home, fp, alt = int(homes[0]), int(fps[0]), int(empty._alt_many(homes, fps)[0])
        # lanes that differ from fp in the top bit only, in the lowest bit only
        # (a borrow out of a lane below ripples through them), and in every bit;
        # each is an empty lane when it is zero
        backgrounds = {fp ^ (1 << (f - 1)), fp ^ 1, fp ^ ((1 << f) - 1)}
        for background in backgrounds:
            for slot in lane_positions(block_size, f):
                for lane, matched in ((fp, True), (0, False)):
                    for cell, other in ((home, alt), (alt, home)):
                        lanes = [background] * block_size
                        lanes[slot] = lane
                        filt = CuckooFilter(params)
                        place(filt, cell, lanes)
                        place(filt, other, [background] * block_size)
                        scalar = filt.query(encode_u64(probe))
                        assert scalar is matched
                        assert filt.query_many(value).tolist() == [scalar], (probe, background, slot, cell)


# -- the wire-table view ------------------------------------------------------

VIEW_GEOMETRIES = [(4, 12), (8, 16), (13, 12)]  # one, two and three wire words


POOL_BASE = 2 * FILL_BASE


class Homes:
    """Fresh counters by home cell, for placing writes in chosen cells."""

    def __init__(self, filt: CuckooFilter):
        self.values = np.arange(POOL_BASE, POOL_BASE + 32 * filt.params.num_cells, dtype=np.uint64)
        self.homes, self.fps = filt.hash_many(self.values)
        self.taken: set[int] = set()

    def take(self, cell: int, count: int) -> list[int]:
        """count unused values whose home is cell."""
        found = [v for v in self.values[self.homes == cell].tolist() if v not in self.taken]
        assert len(found) >= count
        self.taken.update(found[:count])
        return found[:count]

    def alt(self, value: int) -> int:
        index = value - POOL_BASE
        return int(self.homes[index] ^ self.fps[index])


def afresh(filt: CuckooFilter) -> bytes:
    """to_bytes() through a view zeroed and re-encoded from every cell int."""
    cell_ints(filt)  # before the view they would be built from is zeroed
    filt._rows[:] = 0
    filt._stale[:] = b"\x01" * len(filt._stale)
    return filt.to_bytes()


def view_pair(block_size: int, fingerprint_bits: int, load: float = 0.3) -> tuple:
    """A filter restored by from_bytes that has served a batch, and its twin.

    Both hold the same members at the given load, one subtable, stash 4.
    The twin is read only through afresh.
    """
    params = FilterParams(
        capacity=1000, block_size=block_size, fingerprint_bits=fingerprint_bits,
        stash_capacity=4, seed=block_size * 1000 + fingerprint_bits,
    )
    twin = CuckooFilter(params)
    members = FILL_BASE + np.arange(int(load * params.total_slots), dtype=np.uint64)
    assert twin.insert_many(members) == members.size
    subject = CuckooFilter.from_bytes(afresh(twin))
    assert subject.query_many(members).all()
    return subject, twin, members


def fill_cell(filters, homes: Homes, cell: int) -> list[int]:
    """Fill one cell of every filter with values homed there."""
    values = homes.take(cell, filters[0].params.block_size - filters[0]._occupancy[cell])
    for filt in filters:
        for value in values:
            assert filt.insert(encode_u64(value)) is InsertOutcome.STORED
    return values


def empty_cell(filt: CuckooFilter, avoid) -> int:
    return next(cell for cell, occ in enumerate(filt._occupancy) if not occ and cell not in avoid)


@pytest.mark.parametrize("block_size,fingerprint_bits", VIEW_GEOMETRIES)
def test_view_stays_current_after_every_kind_of_write(block_size, fingerprint_bits):
    subject, twin, members = view_pair(block_size, fingerprint_bits)
    filters = (subject, twin)
    homes = Homes(subject)
    written: list[int] = []

    def check(step: str) -> None:
        probes = np.concatenate([members[:: members.size // 500], np.array(written, dtype=np.uint64),
                                 np.arange(5 * FILL_BASE, 5 * FILL_BASE + 500, dtype=np.uint64)])
        scalar = [subject.query(encode_u64(value)) for value in probes.tolist()]
        assert subject.query_many(probes).tolist() == scalar, step
        assert all(scalar[-len(written) - 500 : -500]), step
        assert subject.to_bytes() == afresh(twin), step

    def each(write):
        outcomes = [write(filt) for filt in filters]
        assert outcomes[0] == outcomes[1]
        return outcomes[0]

    # a direct insert into a cell with room
    direct = homes.take(empty_cell(subject, ()), 1)[0]
    assert each(lambda filt: filt.insert(encode_u64(direct))) is InsertOutcome.STORED
    written.append(direct)
    check("direct insert")

    # an evicting insert: both candidate cells full
    evicting = homes.take(empty_cell(subject, ()), 1)[0]
    candidates = {int(homes.homes[evicting - POOL_BASE]), homes.alt(evicting)}
    for cell in candidates:
        written += fill_cell(filters, homes, cell)
    check("candidate cells filled")
    before = list(cell_ints(subject))
    assert each(lambda filt: filt.insert(encode_u64(evicting))) is InsertOutcome.STORED
    moved = {cell for cell, old in enumerate(before) if cell_ints(subject)[cell] != old}
    assert len(moved) >= 2 and candidates & moved, "the insert did not evict"
    written.append(evicting)
    check("evicting insert")

    # a delete that leaves a hole: slot 0 of a full cell
    holed = empty_cell(subject, candidates)
    fillers = fill_cell(filters, homes, holed)
    written += fillers[1:]
    check("cell filled")
    assert each(lambda filt: filt.delete(encode_u64(fillers[0])))
    assert cell_ints(subject)[holed] >> subject._occupancy[holed] * fingerprint_bits, "no hole"
    check("delete leaving a hole")

    # a stash insert: with a budget of the two candidate cells alone there is no search
    stashed = homes.take(empty_cell(subject, candidates | {holed}), 1)[0]
    for cell in (int(homes.homes[stashed - POOL_BASE]), homes.alt(stashed)):
        written += fill_cell(filters, homes, cell)
    budget = subject.params.max_evictions
    for filt in filters:
        filt.params = replace(filt.params, max_evictions=2)
    assert each(lambda filt: filt.insert(encode_u64(stashed))) is InsertOutcome.STASHED
    for filt in filters:
        filt.params = replace(filt.params, max_evictions=budget)
    written.append(stashed)
    check("stash insert")

    # insert_many: appends, and the hole's cell through _place
    batch = np.array(homes.take(holed, 1) + list(range(3 * FILL_BASE, 3 * FILL_BASE + 200)),
                     dtype=np.uint64)
    assert each(lambda filt: filt.insert_many(batch)) == batch.size
    written += batch.tolist()
    check("insert_many")


class EncodeSpy:
    """Records the cells each call of a filter's _table_bytes encodes."""

    def __init__(self, filt: CuckooFilter):
        self.cells: list[int] = []

        def spy(cells):
            cells = list(cells)
            self.cells += cells
            return CuckooFilter._table_bytes(filt, cells)

        filt._table_bytes = spy

    def take(self) -> list[int]:
        cells, self.cells = self.cells, []
        return cells


def test_view_reencodes_only_the_cells_written():
    subject, _, members = view_pair(4, 12)
    homes = Homes(subject)
    encoded = EncodeSpy(subject)
    probes = members[:1000]

    subject.query_many(probes)
    subject.to_bytes()
    subject.query_many(probes)
    assert encoded.take() == [], "reads of an unchanged filter"

    cell = empty_cell(subject, ())
    value = homes.take(cell, 1)[0]
    subject.insert(encode_u64(value))
    subject.query_many(probes)
    assert encoded.take() == [cell], "direct insert"
    subject.to_bytes()
    assert encoded.take() == []

    subject.delete(encode_u64(value))
    subject.to_bytes()
    assert encoded.take() == [cell], "delete"

    evicting = homes.take(empty_cell(subject, ()), 1)[0]
    candidates = {int(homes.homes[evicting - POOL_BASE]), homes.alt(evicting)}
    for cell in candidates:
        fill_cell((subject,), homes, cell)
    subject.query_many(probes)
    assert set(encoded.take()) == candidates
    before = list(cell_ints(subject))
    subject.insert(encode_u64(evicting))
    path = {cell for cell, old in enumerate(before) if cell_ints(subject)[cell] != old}
    assert len(path) >= 2 and candidates & path, "the insert did not evict"
    subject.query_many(probes)
    assert sorted(encoded.take()) == sorted(path), "evicting insert"

    # insert_many flags each cell it appends to, and those it reaches through _place
    before = list(cell_ints(subject))
    subject.insert_many(np.arange(3 * FILL_BASE, 3 * FILL_BASE + 100, dtype=np.uint64))
    changed = [cell for cell, old in enumerate(before) if cell_ints(subject)[cell] != old]
    subject.to_bytes()
    assert sorted(encoded.take()) == changed, "insert_many"
    subject.to_bytes()
    assert encoded.take() == []


def test_first_read_clears_the_flags_of_emptied_cells():
    # cells written and then emptied before any read: the first read clears
    # their flags, so a second read encodes nothing
    params = FilterParams(capacity=200, block_size=4, fingerprint_bits=8, seed=16)
    filt = CuckooFilter(params)
    values = [encode_u64(value) for value in range(FILL_BASE, FILL_BASE + 50)]
    for value in values:
        assert filt.insert(value) is InsertOutcome.STORED
    for value in values:
        assert filt.delete(value)
    empty = CuckooFilter(params).to_bytes()
    encoded = EncodeSpy(filt)
    assert filt.to_bytes() == empty
    encoded.take()
    assert not any(filt._stale)
    assert filt.to_bytes() == empty
    assert encoded.take() == [], "the second read"


def test_reads_inside_insert_many_see_a_current_view():
    subject, twin, members = view_pair(4, 12)
    for value in members[::5].tolist():
        assert subject.delete(encode_u64(value)) and twin.delete(encode_u64(value))
    num_cells = subject.params.num_cells
    current = []

    def spy(home: int, fp: int) -> InsertOutcome:
        # reads from inside the bulk loop's slow path: the view, the counts, a round trip
        view = subject._wire_rows().tobytes()
        counted = subject.stored_count == sum(subject._occupancy) + subject.stash_count
        payload = subject.to_bytes()
        current.append((view == CuckooFilter._table_bytes(subject, range(num_cells)), counted,
                        CuckooFilter.from_bytes(payload).to_bytes() == payload))
        return CuckooFilter._place(subject, home, fp)

    subject._place = spy
    values = np.arange(3 * FILL_BASE, 3 * FILL_BASE + 2000, dtype=np.uint64)
    assert subject.insert_many(values) == twin.insert_many(values) == values.size
    assert len(current) >= 2 and current == [(True, True, True)] * len(current)
    assert subject.to_bytes() == afresh(twin)
    assert subject.query_many(values).all()


# -- cell ints built on first scalar use ------------------------------------

# one, two and three wire words; slot 6 straddles two words at b=7 and b=13
LOADED_GEOMETRIES = [(4, 10), (7, 10), (13, 10)]


@pytest.mark.parametrize("block_size,fingerprint_bits", LOADED_GEOMETRIES)
def test_load_query_save_leaves_the_cells_unbuilt(block_size, fingerprint_bits):
    filt, members = stashed_filter(block_size, fingerprint_bits, 2000)
    payload = filt.to_bytes()
    loaded = CuckooFilter.from_bytes(payload)
    absent = np.arange(5 * FILL_BASE, 5 * FILL_BASE + 2000, dtype=np.uint64)
    assert loaded.query_many(np.array(members, dtype=np.uint64)).all()  # the stashed member too
    assert loaded.query_many(absent).tolist() == filt.query_many(absent).tolist()
    assert loaded.to_bytes() == payload
    assert loaded._cells is None


def test_new_filter_builds_its_cell_ints_on_first_scalar_use():
    params = FilterParams(capacity=100, block_size=4, fingerprint_bits=10)
    filt = CuckooFilter(params)
    values = np.arange(FILL_BASE, FILL_BASE + 100, dtype=np.uint64)
    assert not filt.query_many(values).any()
    empty = filt.to_bytes()
    assert filt._cells is None
    assert not filt.query(encode_u64(FILL_BASE))
    assert filt._cells == [0] * params.num_cells
    assert filt.to_bytes() == empty
    # an empty table's ints are all zero: built without a pass over the view
    fresh = CuckooFilter(params)
    fresh._rows = None
    assert fresh.insert(encode_u64(FILL_BASE)) is InsertOutcome.STORED


FIRST_CALLS = {
    "query": lambda filt, members, new: [filt.query(encode_u64(v)) for v in (int(members[7]), int(new[0]))],
    "insert": lambda filt, members, new: [filt.insert(encode_u64(v)) for v in new.tolist()],
    "insert_many": lambda filt, members, new: filt.insert_many(new),
    "delete": lambda filt, members, new: [filt.delete(encode_u64(v)) for v in members[::9].tolist()],
}


@pytest.mark.parametrize("call", sorted(FIRST_CALLS))
# and four and sixteen words, whose cell ints are read a row at a time
@pytest.mark.parametrize("block_size,fingerprint_bits", LOADED_GEOMETRIES + [(32, 8), (255, 4)])
def test_first_scalar_call_on_a_loaded_filter(block_size, fingerprint_bits, call):
    # at load 0.85 some of the inserts evict
    loaded, twin, members = view_pair(block_size, fingerprint_bits, 0.85)
    assert loaded._cells is None
    new = np.arange(3 * FILL_BASE, 3 * FILL_BASE + 64, dtype=np.uint64)
    first = FIRST_CALLS[call]
    assert first(loaded, members, new) == first(twin, members, new)
    assert loaded._cells is not None
    assert loaded.stored_count == twin.stored_count
    assert loaded.to_bytes() == afresh(twin)


# every method that stores into the cell ints; each but _cell_ints, which
# builds them from the view, flags the cells it writes
CELL_WRITERS = {"_place", "_evict", "_fill", "_remove_from_cell", "_cell_ints"}
# every method that reads the cell ints, each through the accessor
CELL_READERS = {"_place", "_evict", "insert_many", "_fill", "query", "_remove_from_cell", "_table_bytes"}
ACCESSOR = ast.dump(ast.parse("self._cells or self._cell_ints()", mode="eval").body)
LIST_MUTATORS = {"append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse",
                 "__setitem__", "__delitem__", "__iadd__"}


def _cell_stores(function: ast.FunctionDef, attr: str = "_cells") -> bool:
    """Whether a function stores into (or rebinds) the list or buffer `attr`."""
    def is_attr(node: ast.expr) -> bool:
        if isinstance(node, ast.BoolOp):  # the accessor, `self._cells or self._cell_ints()`
            node = node.values[0]
        return isinstance(node, ast.Attribute) and node.attr == attr

    aliases = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            pairs = [(node.targets[0], node.value)]
            if isinstance(node.targets[0], ast.Tuple) and isinstance(node.value, ast.Tuple):
                pairs = zip(node.targets[0].elts, node.value.elts)
            for target, value in pairs:
                if isinstance(target, ast.Name) and is_attr(value):
                    aliases.add(target.id)
        elif isinstance(node, ast.NamedExpr) and is_attr(node.value):
            aliases.add(node.target.id)

    def is_cells(node: ast.expr) -> bool:
        return is_attr(node) or (isinstance(node, ast.Name) and node.id in aliases)

    for node in ast.walk(function):
        if isinstance(node, (ast.Subscript, ast.Attribute)) and isinstance(node.ctx, (ast.Store, ast.Del)):
            if isinstance(node, ast.Subscript) and is_cells(node.value):
                return True
            if isinstance(node, ast.Attribute) and node.attr == attr and function.name != "__init__":
                return True
        if isinstance(node, ast.AugAssign) and is_cells(node.target):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in LIST_MUTATORS and is_cells(node.func.value):
                return True
    return False


def _filter_functions() -> list[ast.FunctionDef]:
    tree = ast.parse(Path(filter_module.__file__).read_text())
    return [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]


def test_only_known_writers_store_into_the_cells():
    functions = _filter_functions()
    writers = {function.name for function in functions if _cell_stores(function)}
    assert writers == CELL_WRITERS
    flagging = {function.name for function in functions if _cell_stores(function, "_stale")}
    assert CELL_WRITERS - {"_cell_ints"} <= flagging


def test_cell_ints_are_read_only_through_the_accessor():
    # a direct read of self._cells would meet None on a loaded filter
    # before its first scalar call
    direct, through_accessor = set(), set()
    for function in _filter_functions():
        accessors = [node for node in ast.walk(function)
                     if isinstance(node, ast.BoolOp) and ast.dump(node) == ACCESSOR]
        if accessors:
            through_accessor.add(function.name)
        allowed = {id(node.values[0]) for node in accessors}
        for node in ast.walk(function):
            if (isinstance(node, ast.Attribute) and node.attr == "_cells"
                    and isinstance(node.ctx, ast.Load) and id(node) not in allowed):
                direct.add(function.name)
    assert direct == set()
    assert through_accessor == CELL_READERS


def test_concurrent_readers_see_a_current_view():
    # readers with no writer may race to refresh or build the view, or to
    # build the cell ints; each must still read the whole current table
    subject, twin, members = view_pair(4, 12)
    probes = members[:2000]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(20):
            values = np.arange(3 * FILL_BASE + 500 * round_, 3 * FILL_BASE + 500 * (round_ + 1),
                               dtype=np.uint64)
            if round_ == 16:
                # a subject never read: the readers race on a refresh of every
                # written cell, about ten chunks of them
                params = replace(twin.params, fingerprint_bits=14)
                subject, twin = CuckooFilter(params), CuckooFilter(params)
                values = probes = np.arange(4 * FILL_BASE, 4 * FILL_BASE + 16000, dtype=np.uint64)
            if round_ >= 17:
                # three times, a subject fresh from from_bytes at load ~0.5 with
                # slot 4 across the two words of a block and slots 5-7 in the
                # second: the readers race to build the cell ints on their first
                # scalar reads
                params = replace(twin.params, block_size=8)
                twin = CuckooFilter(params)
                probes = np.arange(4 * FILL_BASE, 4 * FILL_BASE + 64000, dtype=np.uint64)
                assert twin.insert_many(probes) == probes.size
                subject = CuckooFilter.from_bytes(twin.to_bytes())
                assert subject._cells is None
                absent = np.arange(5 * FILL_BASE, 5 * FILL_BASE + 200, dtype=np.uint64).tolist()
                expected_absent = [twin.query(encode_u64(value)) for value in absent]
            else:
                for filt in (subject, twin):
                    if round_ % 4 == 3:
                        filt.insert_many(values)  # flagged appends: the readers refresh them
                    else:
                        for value in values.tolist():  # flagged cells: the readers refresh them
                            filt.insert(encode_u64(value))
            expected = afresh(twin)
            reads = []
            start = threading.Barrier(6, timeout=60)

            def read(batch_first: bool):
                # a batch read hashes its probes first, so it reaches the view
                # while the other readers are inside theirs
                start.wait()
                if round_ >= 17:
                    hits = all([subject.query(encode_u64(value)) for value in probes[::32].tolist()])
                    scalar = [subject.query(encode_u64(value)) for value in absent]
                    reads.append((subject.to_bytes() == expected and scalar == expected_absent, hits))
                elif batch_first:
                    hits = bool(subject.query_many(probes).all())
                    reads.append((subject.to_bytes() == expected, hits))
                else:
                    payload = subject.to_bytes()
                    reads.append((payload == expected, bool(subject.query_many(probes).all())))

            threads = [threading.Thread(target=read, args=(index % 2,)) for index in range(start.parties)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert reads == [(True, True)] * len(threads), round_
        assert subject._cells == twin._cells
    finally:
        sys.setswitchinterval(interval)
