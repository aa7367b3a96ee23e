"""Wire format: round trips, and a distinct error for every way to break it."""

import pytest

from conftest import HEADER_SIZE, counters, wire_blocks
from sckf.filter import (
    BadMagicError,
    CuckooFilter,
    FilterParams,
    InsertOutcome,
    SerializationError,
    TruncatedError,
    UnsupportedVersionError,
    Variant,
    alt_location,
    hash_element,
)

def small_filter(**overrides) -> CuckooFilter:
    defaults = dict(capacity=64, block_size=3, fingerprint_bits=4, num_subtables=2)
    defaults.update(overrides)
    return CuckooFilter(FilterParams(**defaults))


def table_bytes(filt: CuckooFilter) -> int:
    p = filt.params
    dense_words = -(-(p.block_size * p.fingerprint_bits) // 64)
    return p.num_cells * dense_words * 8


def test_empty_round_trip_is_byte_identical():
    filt = small_filter(seed=11)
    payload = filt.to_bytes()
    restored = CuckooFilter.from_bytes(payload)
    assert restored.to_bytes() == payload
    assert restored.stored_count == 0
    p, q = filt.params, restored.params
    assert (p.block_size, p.fingerprint_bits, p.num_subtables, p.seed) == (
        q.block_size, q.fingerprint_bits, q.num_subtables, q.seed
    )
    assert q.capacity == q.total_slots  # planned capacity is not on the wire


def test_populated_round_trip_preserves_answers():
    filt = small_filter(capacity=300, fingerprint_bits=8, num_subtables=2, seed=5)
    elements = counters(0, 300)
    for element in elements:
        assert filt.insert(element) is InsertOutcome.STORED
    for element in elements[:40]:
        assert filt.delete(element)
    payload = filt.to_bytes()
    restored = CuckooFilter.from_bytes(payload)
    assert restored.stored_count == filt.stored_count
    probes = counters(0, 2000)
    assert [restored.query(e) for e in probes] == [filt.query(e) for e in probes]
    assert restored.to_bytes() == payload


def test_round_trip_keeps_stash_entries():
    filt = small_filter(
        capacity=16, block_size=1, fingerprint_bits=2, num_subtables=1, stash_capacity=2
    )
    stored = [e for e in counters(0, 60) if filt.insert(e) is not InsertOutcome.FAILED]
    assert filt.stash_count == 2
    restored = CuckooFilter.from_bytes(filt.to_bytes())
    assert restored.stash_count == 2
    assert all(restored.query(element) for element in stored)


def test_restored_filter_mutates_identically():
    filt = small_filter(capacity=200, fingerprint_bits=8, seed=3)
    for element in counters(0, 150):
        filt.insert(element)
    restored = CuckooFilter.from_bytes(filt.to_bytes())
    fresh = counters(150, 50)
    assert [restored.insert(e) for e in fresh] == [filt.insert(e) for e in fresh]
    assert [restored.delete(e) for e in fresh] == [filt.delete(e) for e in fresh]
    assert restored.to_bytes() == filt.to_bytes()


def test_original_variant_round_trip():
    filt = small_filter(
        capacity=500, fingerprint_bits=8, num_subtables=4, variant=Variant.ORIGINAL
    )
    for element in counters(0, 500):
        filt.insert(element)
    restored = CuckooFilter.from_bytes(filt.to_bytes())
    assert restored.params.variant is Variant.ORIGINAL
    assert all(restored.query(element) for element in counters(0, 500))


# -- error taxonomy -----------------------------------------------------------


def test_too_short_for_magic():
    with pytest.raises(TruncatedError):
        CuckooFilter.from_bytes(b"SC")


def test_bad_magic():
    payload = bytearray(small_filter().to_bytes())
    payload[0] ^= 0xFF
    with pytest.raises(BadMagicError):
        CuckooFilter.from_bytes(bytes(payload))
    with pytest.raises(BadMagicError):
        CuckooFilter.from_bytes(b"NOPE" + bytes(payload[4:]))


def test_non_bytes_payload_is_type_error():
    payload = small_filter(seed=3).to_bytes()
    with pytest.raises(TypeError, match="str"):
        CuckooFilter.from_bytes(payload.decode("latin-1"))
    for view in (bytearray(payload), memoryview(payload)):
        assert CuckooFilter.from_bytes(view).to_bytes() == payload


@pytest.mark.parametrize("item", ["H", "I", "Q"])
def test_cast_memoryview_payload_is_read_as_bytes(item):
    # 32 + 4 * 2^8 * 8 + 4 * 2 = 8,232 bytes, a whole number of each item size
    filt = small_filter(block_size=4, fingerprint_bits=8, num_subtables=4, capacity=4096, seed=5)
    assert filt.insert_many(range(2000)) == 2000
    payload = filt.to_bytes()
    assert len(payload) == 8232
    assert CuckooFilter.from_bytes(memoryview(payload).cast(item)).to_bytes() == payload
    with pytest.raises(BadMagicError, match=r"bad magic b'XCKF'"):
        CuckooFilter.from_bytes(memoryview(b"X" + payload[1:]).cast(item))


def test_strided_memoryview_payload_is_type_error():
    payload = small_filter(seed=3).to_bytes()
    with pytest.raises(TypeError, match="C-contiguous"):
        CuckooFilter.from_bytes(memoryview(payload + payload)[::2])


def test_missing_version_byte():
    payload = small_filter().to_bytes()
    with pytest.raises(TruncatedError):
        CuckooFilter.from_bytes(payload[:4])


def test_unsupported_version():
    payload = bytearray(small_filter().to_bytes())
    payload[4] = 99
    with pytest.raises(UnsupportedVersionError):
        CuckooFilter.from_bytes(bytes(payload))


def test_truncated_header():
    payload = small_filter().to_bytes()
    with pytest.raises(TruncatedError):
        CuckooFilter.from_bytes(payload[:20])


def test_truncated_table():
    filt = small_filter()
    payload = filt.to_bytes()
    cut = HEADER_SIZE + table_bytes(filt) - 8
    with pytest.raises(TruncatedError):
        CuckooFilter.from_bytes(payload[:cut])


def test_truncated_stash_section():
    payload = small_filter().to_bytes()
    with pytest.raises(TruncatedError):
        CuckooFilter.from_bytes(payload[:-1])


def test_trailing_bytes_rejected():
    payload = small_filter().to_bytes()
    with pytest.raises(SerializationError):
        CuckooFilter.from_bytes(payload + b"\x00")


def test_nonzero_padding_bits_rejected():
    filt = small_filter(block_size=4, fingerprint_bits=12)  # 48 payload bits per word
    payload = bytearray(filt.to_bytes())
    payload[HEADER_SIZE + 7] = 0x80
    with pytest.raises(SerializationError, match="padding"):
        CuckooFilter.from_bytes(bytes(payload))


def test_stored_count_mismatch_rejected():
    payload = bytearray(small_filter().to_bytes())
    payload[24] = 1  # claim one stored fingerprint in an empty table
    with pytest.raises(SerializationError, match="stored"):
        CuckooFilter.from_bytes(bytes(payload))


def test_invalid_geometry_rejected():
    payload = bytearray(small_filter().to_bytes())
    payload[6] = 1  # fingerprint width below the supported minimum
    with pytest.raises(SerializationError):
        CuckooFilter.from_bytes(bytes(payload))


def test_unknown_variant_code_rejected():
    payload = bytearray(small_filter().to_bytes())
    payload[5] = 7
    with pytest.raises(SerializationError):
        CuckooFilter.from_bytes(bytes(payload))


def test_stash_count_beyond_capacity_rejected():
    filt = small_filter(
        capacity=16, block_size=1, fingerprint_bits=2, num_subtables=1, stash_capacity=1
    )
    for element in counters(0, 60):
        filt.insert(element)
    assert filt.stash_count == 1
    payload = bytearray(filt.to_bytes())
    count_at = HEADER_SIZE + table_bytes(filt)
    payload[count_at] = 2
    with pytest.raises(SerializationError, match="capacity"):
        CuckooFilter.from_bytes(bytes(payload))


def test_stash_entry_out_of_range_rejected():
    filt = small_filter(
        capacity=16, block_size=1, fingerprint_bits=2, num_subtables=1, stash_capacity=1
    )
    for element in counters(0, 60):
        filt.insert(element)
    payload = bytearray(filt.to_bytes())
    entry_at = HEADER_SIZE + table_bytes(filt) + 2
    payload[entry_at + 4 : entry_at + 8] = b"\x00\x00\x00\x00"  # zero fingerprint
    with pytest.raises(SerializationError, match="out of range"):
        CuckooFilter.from_bytes(bytes(payload))


def test_stash_entry_off_its_canonical_local_rejected():
    # stash lookups go by min(local, local ^ fp); an entry stored under the
    # other local would load, count as stored, and never answer a query
    filt = small_filter(
        capacity=16, block_size=1, fingerprint_bits=4, num_subtables=1,
        stash_capacity=4, seed=3,
    )
    for element in counters(0, 40):
        filt.insert(element)
    payload = bytearray(filt.to_bytes())
    entry_at = HEADER_SIZE + table_bytes(filt) + 2
    assert payload[entry_at : entry_at + 8] == (6).to_bytes(4, "little") + (1).to_bytes(4, "little")
    payload[entry_at : entry_at + 4] = (7).to_bytes(4, "little")
    with pytest.raises(SerializationError, match="canonical"):
        CuckooFilter.from_bytes(bytes(payload))


# -- mutation fuzz --------------------------------------------------------------


# name: (filter params, members inserted, how many of them are then deleted)
MUTATED_PAYLOADS = {
    "simplified-stash": (
        dict(capacity=32, block_size=2, fingerprint_bits=4, num_subtables=1,
             stash_capacity=2, seed=1),
        36, 6,
    ),
    "original": (
        dict(capacity=96, block_size=3, fingerprint_bits=4, num_subtables=2,
             variant=Variant.ORIGINAL, seed=2),
        90, 10,
    ),
    # 68 slot bits, so each block spans two words
    "multi-word-block": (
        dict(capacity=16 * 17, block_size=17, fingerprint_bits=4, num_subtables=1, seed=3),
        200, 20,
    ),
}


def _mutated_payload(name: str) -> tuple[CuckooFilter, list[bytes]]:
    """A filled filter with deletes behind it, and the members it still holds."""
    overrides, inserts, deletes = MUTATED_PAYLOADS[name]
    filt = small_filter(**overrides)
    kept = [e for e in counters(0, inserts) if filt.insert(e) is not InsertOutcome.FAILED]
    for element in kept[:deletes]:
        assert filt.delete(element)
    return filt, kept[deletes:]


def _load_or_reject(payload: bytes):
    """The filter a payload loads as, or None when it raises SerializationError.

    A payload that loads must serialize back to exactly the same bytes.
    """
    try:
        restored = CuckooFilter.from_bytes(payload)
    except SerializationError:
        return None
    assert restored.to_bytes() == payload
    return restored


@pytest.mark.parametrize("name", list(MUTATED_PAYLOADS))
def test_mutated_payloads_are_rejected_or_round_trip(name):
    # every byte takes each one-bit flip, 0x00 and 0xFF; every prefix is tried
    filt, members = _mutated_payload(name)
    params = filt.params
    # a delete left an empty slot below an occupied one
    assert any(not low and high for block in wire_blocks(filt) for low, high in zip(block, block[1:]))
    assert (filt.stash_count > 0) == (params.stash_capacity > 0)
    payload = filt.to_bytes()
    block_bytes = table_bytes(filt) // params.num_cells
    table_end = HEADER_SIZE + table_bytes(filt)
    cells = []
    for element in members:
        home, fp = hash_element(element, params)
        alt = alt_location(home, fp, params)
        cells.append({c.subtable << params.fingerprint_bits | c.local for c in (home, alt)})

    for cut in range(len(payload)):
        assert _load_or_reject(payload[:cut]) is None
    loaded = 0
    for pos, original in enumerate(payload):
        for value in ({original ^ (1 << bit) for bit in range(8)} | {0x00, 0xFF}) - {original}:
            mutated = bytearray(payload)
            mutated[pos] = value
            restored = _load_or_reject(bytes(mutated))
            if restored is None:
                continue
            loaded += 1
            if HEADER_SIZE <= pos < table_end:
                # one block changed: members with neither cell there are still found
                block = (pos - HEADER_SIZE) // block_bytes
                for element, candidates in zip(members, cells):
                    assert block in candidates or restored.query(element), (pos, value)
    assert loaded > 0
