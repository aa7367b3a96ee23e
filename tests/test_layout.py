"""One dense block per cell: batch answers, round trips, padding, golden payloads.

Geometries where a block spans more than one 64-bit wire word are the ones
where a slot can straddle a word boundary: at b=7, f=10 slot 6 holds bits
60-69.  At b=8, f=16 a block is exactly two words with no padding, at
b=13, f=12 three words (156 bits), and at b=4, f=16 one word whose top bit
belongs to the last slot.
"""

import hashlib

import numpy as np
import pytest

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
