"""Filter behaviour: addressing, inserts, queries, deletes, and the stash."""

import dataclasses
import hashlib
import random
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import HEADER_SIZE, BlockedCuckooTable, counters, insert_each, reference_evict, wire_blocks
from sckf import filter as filter_module
from sckf import hashing, planner
from sckf.bloom import BloomFilter
from sckf.filter import (
    CellIndex,
    CuckooFilter,
    FilterParams,
    InsertOutcome,
    Variant,
    alt_location,
    hash_element,
)
from sckf.hashing import encode_u64


def make_filter(**overrides) -> CuckooFilter:
    defaults = dict(capacity=1000, block_size=4, fingerprint_bits=12, num_subtables=2)
    defaults.update(overrides)
    return CuckooFilter(FilterParams(**defaults))


# -- parameters ---------------------------------------------------------------


def test_params_validation():
    good = dict(capacity=10, block_size=4, fingerprint_bits=8)
    FilterParams(**good)
    FilterParams(np.int64(10), np.uint8(4), np.int32(8), num_subtables=np.int64(2))
    with pytest.raises(ValueError):
        FilterParams(**{**good, "capacity": 0})
    with pytest.raises(ValueError):
        FilterParams(**{**good, "block_size": 0})
    with pytest.raises(ValueError):
        FilterParams(**{**good, "block_size": 256})
    with pytest.raises(ValueError):
        FilterParams(**{**good, "fingerprint_bits": 1})
    with pytest.raises(ValueError):
        FilterParams(**{**good, "fingerprint_bits": 33})
    with pytest.raises(ValueError):
        FilterParams(**{**good, "num_subtables": 0})
    with pytest.raises(ValueError):
        FilterParams(**{**good, "stash_capacity": -1})
    with pytest.raises(ValueError):
        FilterParams(**{**good, "max_evictions": 0})


@pytest.mark.parametrize(
    "name, build",
    [
        ("stash_capacity", lambda: FilterParams(10, 4, 8, stash_capacity=1.5)),
        ("max_evictions", lambda: FilterParams(10, 4, 8, max_evictions=2.5)),
        ("block_size", lambda: FilterParams(10, 4.5, 8)),
        ("fingerprint width", lambda: FilterParams(10, 4, 8.0)),
        ("num_subtables", lambda: FilterParams(10, 4, 8, num_subtables=2.0)),
        ("capacity", lambda: FilterParams(10.5, 4, 8)),
        ("block_size", lambda: planner.PlanRequest(n=1000, block_size=8.5)),
        ("n", lambda: planner.PlanRequest(n=1000.5, block_size=8)),
        ("seed", lambda: FilterParams(10, 4, 8, seed=1.5)),
        ("seed", lambda: BloomFilter(64, 2, seed=1.5)),
        # operator.index takes a bool as 0 or 1: refused, not read as a count
        ("max_evictions", lambda: FilterParams(10, 4, 8, max_evictions=True)),
        ("capacity", lambda: FilterParams(True, 4, 8)),
        ("block_size", lambda: FilterParams(10, True, 8)),
        ("n", lambda: planner.false_positive_bound(1.5, 10, 4, 8)),
    ],
    ids=["stash", "evictions", "block", "width", "subtables", "capacity", "plan-block", "plan-n",
         "seed", "bloom-seed", "bool-evictions", "bool-capacity", "bool-block", "fp-bound-n"],
)
def test_non_integer_geometry_is_a_type_error_naming_it(name, build):
    with pytest.raises(TypeError, match=f"^{name} must be an integer"):
        build()


@pytest.mark.parametrize(
    "expected, call",
    [
        ("FilterParams", lambda: CuckooFilter("x")),
        ("FilterParams", lambda: hash_element(b"x", None)),
        ("FilterParams", lambda: alt_location(CellIndex(0, 0), 1, None)),
        ("PlanRequest", lambda: planner.plan("x")),
    ],
    ids=["filter", "hash-element", "alt-location", "plan"],
)
def test_wrong_argument_type_is_a_type_error_naming_the_expected_type(expected, call):
    with pytest.raises(TypeError, match=f"{expected}, not (str|NoneType)$"):
        call()


def test_stash_requires_simplified_variant():
    with pytest.raises(ValueError):
        FilterParams(
            capacity=10, block_size=4, fingerprint_bits=8,
            variant=Variant.ORIGINAL, stash_capacity=1,
        )


def test_variant_given_by_value_is_the_enum_and_keeps_its_checks():
    params = FilterParams(capacity=10, block_size=4, fingerprint_bits=8, variant="original")
    assert params.variant is Variant.ORIGINAL
    assert params == FilterParams(capacity=10, block_size=4, fingerprint_bits=8, variant=Variant.ORIGINAL)
    simplified = FilterParams(capacity=10, block_size=4, fingerprint_bits=8, variant="simplified")
    assert alt_location(CellIndex(0, 5), 3, simplified) == CellIndex(0, 5 ^ 3)
    filt = CuckooFilter(simplified)
    filt.insert(b"alpha")
    assert CuckooFilter.from_bytes(filt.to_bytes()).params.variant is Variant.SIMPLIFIED
    with pytest.raises(ValueError, match="power-of-two"):
        FilterParams(capacity=10, block_size=4, fingerprint_bits=8, num_subtables=3, variant="original")
    with pytest.raises(ValueError):
        FilterParams(capacity=10, block_size=4, fingerprint_bits=8, variant="blocked")


def test_original_variant_requires_power_of_two_subtables():
    FilterParams(
        capacity=10, block_size=4, fingerprint_bits=8,
        num_subtables=4, variant=Variant.ORIGINAL,
    )
    with pytest.raises(ValueError):
        FilterParams(
            capacity=10, block_size=4, fingerprint_bits=8,
            num_subtables=3, variant=Variant.ORIGINAL,
        )


def test_seed_is_reduced_to_64_bits():
    params = FilterParams(capacity=10, block_size=4, fingerprint_bits=8, seed=1 << 70)
    assert 0 <= params.seed < 1 << 64


# -- addressing ---------------------------------------------------------------


def test_hash_element_ranges_and_determinism():
    params = FilterParams(capacity=100, block_size=4, fingerprint_bits=9, num_subtables=5)
    seen_subtables = set()
    for element in counters(0, 3000):
        location, fp = hash_element(element, params)
        assert hash_element(element, params) == (location, fp)
        assert 0 <= location.subtable < 5
        assert 0 <= location.local < 1 << 9
        assert 1 <= fp < 1 << 9
        seen_subtables.add(location.subtable)
    assert seen_subtables == set(range(5))


@pytest.mark.parametrize("variant", list(Variant))
def test_each_scalar_operation_hashes_its_element_once(variant, monkeypatch):
    hashed = []
    two_lane_hash = hashing.hash_bytes

    def counted(data, seed_a, seed_b):
        hashed.append(data)
        return two_lane_hash(data, seed_a, seed_b)

    monkeypatch.setattr(hashing, "hash_bytes", counted)
    filt = make_filter(variant=variant)
    present, absent = encode_u64(7), encode_u64(8)
    operations = [
        (filt.insert, present), (filt.query, present), (filt.query, absent), (filt.delete, present),
        (filt.delete, absent), (lambda element: hash_element(element, filt.params), present),
    ]
    for operation, element in operations:
        hashed.clear()
        operation(element)
        assert hashed == [element], operation


def test_alt_location_is_involution_and_stays_in_subtable():
    params = FilterParams(capacity=100, block_size=4, fingerprint_bits=3, num_subtables=7)
    for subtable in range(7):
        for local in range(8):
            for fp in range(1, 8):
                location = CellIndex(subtable, local)
                other = alt_location(location, fp, params)
                assert other.subtable == subtable
                assert other.local == local ^ fp
                assert other != location
                assert alt_location(other, fp, params) == location


@settings(max_examples=200, deadline=None)
@given(
    fp_bits=st.integers(min_value=2, max_value=16),
    subtable=st.integers(min_value=0, max_value=7),
    local_seed=st.integers(min_value=0, max_value=2**32),
    fp_seed=st.integers(min_value=1, max_value=2**32),
)
def test_alt_location_involution_property(fp_bits, subtable, local_seed, fp_seed):
    params = FilterParams(capacity=10, block_size=2, fingerprint_bits=fp_bits, num_subtables=8)
    local = local_seed % (1 << fp_bits)
    fp = fp_seed % ((1 << fp_bits) - 1) + 1
    location = CellIndex(subtable, local)
    assert alt_location(alt_location(location, fp, params), fp, params) == location


def test_alt_location_original_variant_involution():
    params = FilterParams(
        capacity=100, block_size=4, fingerprint_bits=6,
        num_subtables=4, variant=Variant.ORIGINAL,
    )
    crossed = 0
    for subtable in range(4):
        for local in range(64):
            for fp in range(1, 64):
                location = CellIndex(subtable, local)
                other = alt_location(location, fp, params)
                assert other != location
                assert alt_location(other, fp, params) == location
                crossed += other.subtable != subtable
    assert crossed > 0, "original variant should reach other subtables"


def test_public_addressing_matches_the_filters_own():
    # hash_element and alt_location keep one addressing per FilterParams:
    # interleaved geometries, seeds and variants each get their own
    grid = [
        FilterParams(capacity=100, block_size=4, fingerprint_bits=f, num_subtables=subtables,
                     variant=variant, seed=seed)
        for variant in Variant
        for f, subtables in ((4, 1), (9, 2), (13, 4))
        for seed in (0, 3, 2**64 - 1)
    ]
    filters = [CuckooFilter(params) for params in grid]
    for element in counters(0, 40):
        for params, filt in zip(grid, filters):
            home, fp = filt._hash(element)
            location = CellIndex(*divmod(home, 1 << params.fingerprint_bits))
            assert hash_element(element, params) == (location, fp)
            alt = alt_location(location, fp, params)
            assert alt == CellIndex(*divmod(filt._alt(home, fp), 1 << params.fingerprint_bits))
    # an equal FilterParams finds the cached addressing
    assert filter_module._addressing(dataclasses.replace(grid[0])) is filter_module._addressing(grid[0])


def test_alt_location_rejects_bad_fingerprint():
    params = FilterParams(capacity=10, block_size=4, fingerprint_bits=8)
    with pytest.raises(ValueError):
        alt_location(CellIndex(0, 0), 0, params)
    with pytest.raises(ValueError):
        alt_location(CellIndex(0, 0), 256, params)
    # and cells outside the table, or not named by integers
    for location in (CellIndex(5, 3), CellIndex(1, 0), CellIndex(-1, 0), CellIndex(0, 300),
                     CellIndex(0, 256), CellIndex(0, -1)):
        with pytest.raises(ValueError):
            alt_location(location, 7, params)
    # a location that is not a (subtable, local) pair is named in the error
    for location in ((0,), (0, 1, 2), ()):
        message = r"^a cell is \(subtable, local\), got " + re.escape(repr(location))
        with pytest.raises(ValueError, match=message):
            alt_location(location, 7, params)
    for location, fp in ((CellIndex(0.0, 3), 7), (CellIndex(0, "3"), 7), (CellIndex(0, 3), 7.0)):
        with pytest.raises(TypeError):
            alt_location(location, fp, params)
    assert alt_location(CellIndex(np.int64(0), np.uint8(3)), np.uint64(7), params) == CellIndex(0, 4)


# -- membership ---------------------------------------------------------------


def test_insert_then_query_round_trip():
    filt = make_filter()
    elements = counters(0, 800)
    for element in elements:
        assert filt.insert(element) is InsertOutcome.STORED
    assert all(filt.query(element) for element in elements)
    assert filt.stored_count == 800
    assert len(filt) == 800
    assert elements[0] in filt


def test_query_on_empty_filter_is_false():
    filt = make_filter()
    assert not any(filt.query(element) for element in counters(0, 1000))


def test_no_false_negatives_across_seeds():
    for seed in range(5):
        filt = make_filter(capacity=3000, num_subtables=4, seed=seed)
        elements = counters(0, 3000)
        outcomes = {filt.insert(element) for element in elements}
        assert InsertOutcome.FAILED not in outcomes
        assert all(filt.query(element) for element in elements)


def test_duplicates_form_a_multiset():
    filt = make_filter()
    element = counters(7, 1)[0]
    for _ in range(5):
        assert filt.insert(element) is not InsertOutcome.FAILED
    assert filt.stored_count == 5
    for expected_left in (4, 3, 2, 1, 0):
        assert filt.delete(element)
        assert filt.stored_count == expected_left
        assert filt.query(element) == (expected_left > 0)
    assert not filt.delete(element)


def test_delete_absent_returns_false_and_changes_nothing():
    filt = make_filter()
    for element in counters(0, 100):
        filt.insert(element)
    before = filt.to_bytes()
    assert not filt.delete(b"never inserted")
    assert filt.to_bytes() == before


def test_delete_prefers_first_candidate_block():
    filt = make_filter(num_subtables=1)
    element = counters(0, 1)[0]
    filt.insert(element)
    filt.insert(element)
    assert filt.delete(element)
    assert filt.query(element)
    assert filt.delete(element)
    assert not filt.query(element)


def test_load_factor_counts_table_slots_only():
    filt = make_filter(capacity=100, num_subtables=1)
    assert filt.load_factor() == 0.0
    for element in counters(0, 100):
        assert filt.insert(element) is InsertOutcome.STORED
    assert filt.load_factor() == 100 / filt.params.total_slots
    # saturate a tiny filter so entries land in the stash
    tiny = make_filter(
        capacity=16, block_size=1, fingerprint_bits=2, num_subtables=1, stash_capacity=2
    )
    outcomes = [tiny.insert(element) for element in counters(0, 64)]
    assert InsertOutcome.STASHED in outcomes
    in_table = tiny.stored_count - tiny.stash_count
    assert tiny.load_factor() == in_table / tiny.params.total_slots


def test_failed_insert_is_a_no_op():
    # budgets 2 and 3 stop the search inside its first level, 17 and 512
    # let it run out of reachable cells
    for budget in (2, 3, 17, 512):
        filt = make_filter(
            capacity=16, block_size=1, fingerprint_bits=2, num_subtables=1,
            max_evictions=budget,
        )
        outcomes = []
        snapshots = []
        for element in counters(0, 40):
            before = filt.to_bytes()
            outcome = filt.insert(element)
            outcomes.append(outcome)
            if outcome is InsertOutcome.FAILED:
                snapshots.append((before, filt.to_bytes()))
        assert outcomes.count(InsertOutcome.FAILED) > 0
        for before, after in snapshots:
            assert before == after


def test_stash_saturation_example():
    # 4 one-slot cells and a stash of 2: four inserts land in the table,
    # two overflow into the stash, the rest fail
    filt = make_filter(
        capacity=16, block_size=1, fingerprint_bits=2, num_subtables=1, stash_capacity=2
    )
    outcomes = [filt.insert(element) for element in counters(0, 60)]
    assert outcomes.count(InsertOutcome.STORED) == 4
    assert outcomes.count(InsertOutcome.STASHED) == 2
    assert outcomes.count(InsertOutcome.FAILED) == 54
    assert filt.stash_count == 2
    stored = [e for e, o in zip(counters(0, 60), outcomes) if o is not InsertOutcome.FAILED]
    assert all(filt.query(element) for element in stored)


def test_stash_probe_from_other_candidate_cell():
    # an element whose home is the stashed element's other candidate and
    # whose fingerprint matches must hit the same stash entry
    params = FilterParams(
        capacity=64, block_size=1, fingerprint_bits=4, num_subtables=1,
        stash_capacity=4, seed=3,
    )
    filt = CuckooFilter(params)
    stashed = None
    for value in range(4000):
        element = encode_u64(value)
        if filt.insert(element) is InsertOutcome.STASHED:
            stashed = element
            break
    assert stashed is not None
    home, fp = hash_element(stashed, params)
    other = alt_location(home, fp, params)
    probe = None
    for value in range(10**6, 10**6 + 10**5):
        element = encode_u64(value)
        if hash_element(element, params) == (other, fp):
            probe = element
            break
    assert probe is not None
    assert filt.query(probe)


def test_delete_drains_stash_entries():
    filt = make_filter(
        capacity=16, block_size=1, fingerprint_bits=2, num_subtables=1, stash_capacity=2
    )
    stored = []
    for element in counters(0, 60):
        if filt.insert(element) is not InsertOutcome.FAILED:
            stored.append(element)
    assert filt.stash_count == 2
    # deleting every stored element must empty both the table and the stash
    for element in stored:
        assert filt.delete(element)
    assert filt.stored_count == 0
    assert filt.stash_count == 0
    assert not any(filt.query(element) for element in stored)


def test_insert_uses_stash_only_after_eviction_search():
    # with room anywhere in the subtable, inserts must not stash
    filt = make_filter(capacity=100, num_subtables=1, stash_capacity=8)
    for element in counters(0, 2000):
        outcome = filt.insert(element)
        if outcome is not InsertOutcome.STORED:
            break
    assert filt.stash_count == 0 or filt.load_factor() > 0.9


def test_high_load_fill_with_planned_geometry():
    # planner-approved block size and fingerprint width, filled to 0.90 of
    # the physical slots: every insert must land
    request = planner.PlanRequest(n=3000, block_size=8, load_slack=0.25)
    result = planner.plan(request)
    assert result.fingerprint_bits >= result.balance_bits
    failures = 0
    for seed in range(100):
        filt = CuckooFilter(
            FilterParams(
                capacity=result.n,
                block_size=result.block_size,
                fingerprint_bits=result.fingerprint_bits,
                num_subtables=result.num_subtables,
                seed=seed,
            )
        )
        target = int(0.90 * filt.params.total_slots)
        outcomes = {filt.insert(element) for element in counters(0, target)}
        if InsertOutcome.FAILED in outcomes:
            failures += 1
    assert failures <= 1, f"{failures} of 100 fills failed"


def test_query_many_matches_scalar_queries():
    filt = make_filter(capacity=2000, num_subtables=2, stash_capacity=4, seed=9)
    for element in counters(0, 2000):
        filt.insert(element)
    values = np.arange(6000, dtype=np.uint64)
    batch = filt.query_many(values)
    scalar = np.fromiter(
        (filt.query(encode_u64(int(value))) for value in values), dtype=bool, count=6000
    )
    assert np.array_equal(batch, scalar)
    assert batch[:2000].all()
    originals = [
        make_filter(capacity=2000, num_subtables=subtables, variant=Variant.ORIGINAL, seed=9)
        for subtables in (2, 4)
    ]
    # one addressing: scalar, batch and the public (subtable, local) view agree
    for hashed in [filt, *originals]:
        params = hashed.params
        subtable_cells = 1 << params.fingerprint_bits
        homes, fps = hashed.hash_many(values)
        alts = hashed._alt_many(homes, fps)
        for value, home, fp, alt in zip(values.tolist(), homes.tolist(), fps.tolist(), alts.tolist()):
            element = encode_u64(value)
            assert hashed._hash(element) == (home, fp)
            assert hashed._alt(home, fp) == alt
            location = CellIndex(*divmod(home, subtable_cells))
            assert hash_element(element, params) == (location, fp)
            assert alt_location(location, fp, params) == CellIndex(*divmod(alt, subtable_cells))


def test_query_many_memory_stays_blocked():
    # a 2^20-probe batch at b=8, f=16: chunked alternates and comparison
    # keep the batch-sized arrays to the hashes and answers (2.125x); the
    # view built here adds 1 MiB
    filt = make_filter(capacity=100_000, block_size=8, fingerprint_bits=16, num_subtables=1)
    assert filt.insert_many(np.arange(100_000, dtype=np.uint64)) == 100_000
    batch = np.arange(1 << 30, (1 << 30) + (1 << 20), dtype=np.uint64)
    tracemalloc.start()
    try:
        filt.query_many(batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * batch.nbytes, f"peak {peak / batch.nbytes:.2f}x the batch"


def test_table_past_sys_maxsize_is_a_memory_error():
    params = FilterParams(capacity=100, block_size=4, fingerprint_bits=32, num_subtables=2**32 - 1)
    assert params.num_cells > sys.maxsize
    with pytest.raises(MemoryError, match="num_cells"):
        CuckooFilter(params)


def test_table_past_physical_memory_is_a_memory_error(monkeypatch):
    # a 1 GiB machine: 2^27 cells at 8 + 8 + 2 bytes each do not fit, 2^16 do
    pages = {"SC_PHYS_PAGES": 1 << 18, "SC_PAGE_SIZE": 1 << 12}
    monkeypatch.setattr(filter_module.os, "sysconf", pages.__getitem__)
    params = FilterParams(capacity=100, block_size=4, fingerprint_bits=16, num_subtables=1 << 11)
    with pytest.raises(MemoryError, match="num_cells 134217728 needs .* physical memory"):
        CuckooFilter(params)
    assert CuckooFilter(FilterParams(capacity=100, block_size=4, fingerprint_bits=16)).stored_count == 0


def test_memory_refusal_counts_the_view_row(monkeypatch):
    # a 64 MiB machine: 2^20 cells of b=255, f=20 need 8 + 640 + 2 bytes
    # each, 650 MiB, though the list and the two byte arrays need only 10 MiB
    pages = {"SC_PHYS_PAGES": 1 << 14, "SC_PAGE_SIZE": 1 << 12}
    monkeypatch.setattr(filter_module.os, "sysconf", pages.__getitem__)
    params = FilterParams(capacity=100, block_size=255, fingerprint_bits=20)
    with pytest.raises(MemoryError, match=f"num_cells {1 << 20} needs {650 << 20} bytes"):
        CuckooFilter(params)


def _stashed_filter() -> CuckooFilter:
    filt = make_filter(
        capacity=16, block_size=1, fingerprint_bits=2, num_subtables=1, stash_capacity=2
    )
    for element in counters(0, 60):
        filt.insert(element)
    assert filt.stash_count > 0
    return filt


@pytest.mark.parametrize(
    "values,error",
    [
        ([1.5], TypeError),
        (["1"], TypeError),
        ([True], TypeError),
        (np.array([True, False]), TypeError),
        (np.array([1.0]), TypeError),
        (np.array([-1], dtype=np.int64), ValueError),
        ([-1], ValueError),
        ([3, -1], ValueError),
        ([2**64], ValueError),
        (np.uint64(5), ValueError),
        (np.arange(4, dtype=np.uint64).reshape(2, 2), ValueError),
    ],
    ids=[
        "float-list", "str-list", "bool-list", "bool-array", "float-array",
        "negative-int64", "negative-int", "negative-after-valid", "int-past-2^64", "0-d", "2-d",
    ],
)
def test_counter_batches_must_be_1d_integers_in_range(values, error):
    # a stash entry makes query_many look up single elements as well
    filt = _stashed_filter()
    before = filt.to_bytes()
    baseline = BloomFilter(num_bits=64, num_hashes=2)
    # -1 must not wrap to the member 2^64 - 1
    baseline.add_many(np.array([2**64 - 1], dtype=np.uint64))
    calls = (filt.hash_many, filt.query_many, filt.insert_many, baseline.add_many, baseline.contains_many)
    for call in calls:
        with pytest.raises(error):
            call(values)
    # insert_many refuses the batch before inserting any of it
    assert filt.to_bytes() == before


def test_counter_batches_take_integer_sequences():
    filt = _stashed_filter()
    values = [0, 7, 59, 2**63, 2**64 - 1]
    expected = filt.query_many(np.array(values, dtype=np.uint64))
    assert expected[:3].any()
    assert np.array_equal(filt.query_many(values), expected)
    assert np.array_equal(filt.query_many(np.array(values[:3], dtype=np.int64)), expected[:3])
    assert np.array_equal(filt.query_many(np.array(values[:3], dtype=np.uint8)), expected[:3])
    assert filt.query_many([]).shape == (0,)
    before = filt.to_bytes()
    assert filt.insert_many([]) == filt.insert_many(np.array([], dtype=np.uint64)) == 0
    assert filt.to_bytes() == before


@pytest.mark.parametrize("element", ["alpha", [1, 2, 3], range(5), 7, None])
def test_elements_must_be_bytes(element):
    filt = make_filter()
    calls = (
        filt.insert, filt.query, filt.delete, filt.__contains__,
        lambda e: hash_element(e, filt.params),
    )
    for call in calls:
        with pytest.raises(TypeError, match=type(element).__name__):
            call(element)
    assert filt.stored_count == 0
    assert filt.insert(bytearray(b"alpha")) is InsertOutcome.STORED
    assert b"alpha" in filt


def test_module_docstring_examples_run():
    import doctest

    import sckf.filter

    results = doctest.testmod(sckf.filter)
    assert results.attempted > 0
    assert results.failed == 0


def test_query_many_sees_stash_entries():
    filt = make_filter(
        capacity=16, block_size=1, fingerprint_bits=2, num_subtables=1, stash_capacity=2
    )
    stored = []
    for value in range(60):
        if filt.insert(encode_u64(value)) is not InsertOutcome.FAILED:
            stored.append(value)
    assert filt.stash_count == 2
    batch = filt.query_many(np.arange(60, dtype=np.uint64))
    assert all(batch[value] for value in stored)


def test_eviction_budget_bounds_the_search():
    # max_evictions=1 forbids any eviction, so full candidate blocks fail fast
    filt = make_filter(
        capacity=100, block_size=1, fingerprint_bits=8, num_subtables=1, max_evictions=1
    )
    outcomes = [filt.insert(element) for element in counters(0, 600)]
    assert InsertOutcome.FAILED in outcomes
    generous = make_filter(
        capacity=100, block_size=1, fingerprint_bits=8, num_subtables=1, max_evictions=512
    )
    generous_outcomes = [generous.insert(element) for element in counters(0, 600)]
    assert generous_outcomes.count(InsertOutcome.STORED) > outcomes.count(InsertOutcome.STORED)


# (variant, max_evictions): SHA-256 of to_bytes() and of the comma-joined
# InsertOutcome values after inserting counters up to 1.1x the 128 slots of
# a b=2, f=6 table, recorded from the eviction search before it kept its
# visited cells in one predecessor map.  Budgets 2, 3 and 17 cut searches
# off partway through a BFS level; 100 exceeds the 64 cells.  Budgets 5 and
# 6 (2b + 1 and 2b + 2), recorded before the depth-1 scan, pin its guard:
# only a budget that covers the roots and all 2b first-level visits runs it.
# Budgets 13, 14, 29 and 30, recorded before the scan went past depth 1, pin
# its level bound: level d is scanned only when 2(1 + b + ... + b^d) visits
# fit, 14 for level 2 and 30 for level 3.  Budgets 61 and 62, recorded
# before the level search stopped restarting from the roots, pin the bound
# at level 4.
GOLDEN_EVICTION_FILLS = {
    (Variant.SIMPLIFIED, 2): (
        "4f74fcc113232f5ef04756c96b09bc6bd606e424c3ed20710f815dcc6109b17f",
        "a6df898b7437c8e1a506766b359749cf17082f1048bb55bc4807ef8da0b15965",
    ),
    (Variant.SIMPLIFIED, 3): (
        "2b098a010124b7cbf62543d6d22e86d6f83a3f76ad1b3ed49c29dc3174edb2a3",
        "57390c20ec04418a9962c6d58ff6b353291707f3c43c4ca08344eceae2ff0715",
    ),
    (Variant.SIMPLIFIED, 17): (
        "985f440b561c158ba3d32a411e6f340ef42409c8bbb1736aa16aa55f3d5136e7",
        "ffbcaa9a9852d0cafcd1ff8b890eeb9fefcf0608fb192d9dd452d1201a4fc84a",
    ),
    (Variant.SIMPLIFIED, 100): (
        "71bb30ba8e37d478fcb80af53f3807ffe89704bd4784ed362d7604e64655edd0",
        "15bc08ccb7bcbaa6b2072dece9b11900e285b44a7f883f1c66331840e39f1794",
    ),
    (Variant.SIMPLIFIED, 5): (
        "892d0e7426f7d0648b63f4f11076664107620274401f33407dd94ce66b201004",
        "05cec5dbfbad777b2a383cb13af635b3cae6695720b5c34f0ee1c6c9b77ad6ae",
    ),
    (Variant.SIMPLIFIED, 6): (
        "207288bb482afe3f7e5ff64d4096009e45a20c7a43d247a4a1f1f224cb01278b",
        "9fe5f027261bbe0dce519c1053fc1dcd718cd5294b006544807fb0c89d05763f",
    ),
    (Variant.ORIGINAL, 5): (
        "ff55f1e04dd45a7ac11fa4ffe7e40d18593a9d4b00d165ed1c36db738e34af51",
        "6fa09a7f77b3cf80756dc1020744d82dc6572977c92f9c0aa4edf2e14a21ee5a",
    ),
    (Variant.ORIGINAL, 6): (
        "7f266b45852ed587d556f36e10e564963f8d2b2cd945c547aa52d64965d4cdfb",
        "a214df178d8e8bd8d37ff0a510e5d9b09fe49ae2b8408ce5b6de6c6fd98e29a2",
    ),
    (Variant.ORIGINAL, 17): (
        "a100451646bbaa13f8ba4c88a98b86c33ed71b98a8d848c5efa93af32bc23b70",
        "a56818d704b1936e9130ea77b9a6732c320025c42f43512b2b0e9bb5cbdf9d82",
    ),
    (Variant.SIMPLIFIED, 13): (
        "6449d913119c6a43c65e3d1d45c9fa9f822471660910d29abd21dadfc0d868d8",
        "6d75dfb55bd747f64553740e2a148d96908282247de6d30d7d1bc953f7ef92ab",
    ),
    (Variant.SIMPLIFIED, 14): (
        "6449d913119c6a43c65e3d1d45c9fa9f822471660910d29abd21dadfc0d868d8",
        "6d75dfb55bd747f64553740e2a148d96908282247de6d30d7d1bc953f7ef92ab",
    ),
    (Variant.SIMPLIFIED, 29): (
        "5ba5655d40cf488ae2b07f97f45d6e0ac79059213810fc84e946ecb0f006d719",
        "9b03425c16e7a2f93746ebbbe25ae4a3e1e0d3f05cca2109d57a4f3432c56102",
    ),
    (Variant.SIMPLIFIED, 30): (
        "5ba5655d40cf488ae2b07f97f45d6e0ac79059213810fc84e946ecb0f006d719",
        "9b03425c16e7a2f93746ebbbe25ae4a3e1e0d3f05cca2109d57a4f3432c56102",
    ),
    (Variant.ORIGINAL, 13): (
        "1771e2e1c28e0bc670e548f7c0d33a1192e2f701c72c5915f6ee9fd8ea422c07",
        "ed2cf5d61930c0a9278dabcb369076c918c9834e6ac7869a812f3147e0c13b26",
    ),
    (Variant.ORIGINAL, 14): (
        "1771e2e1c28e0bc670e548f7c0d33a1192e2f701c72c5915f6ee9fd8ea422c07",
        "ed2cf5d61930c0a9278dabcb369076c918c9834e6ac7869a812f3147e0c13b26",
    ),
    (Variant.ORIGINAL, 29): (
        "a100451646bbaa13f8ba4c88a98b86c33ed71b98a8d848c5efa93af32bc23b70",
        "a56818d704b1936e9130ea77b9a6732c320025c42f43512b2b0e9bb5cbdf9d82",
    ),
    (Variant.ORIGINAL, 30): (
        "a100451646bbaa13f8ba4c88a98b86c33ed71b98a8d848c5efa93af32bc23b70",
        "a56818d704b1936e9130ea77b9a6732c320025c42f43512b2b0e9bb5cbdf9d82",
    ),
    (Variant.SIMPLIFIED, 61): (
        "71bb30ba8e37d478fcb80af53f3807ffe89704bd4784ed362d7604e64655edd0",
        "15bc08ccb7bcbaa6b2072dece9b11900e285b44a7f883f1c66331840e39f1794",
    ),
    (Variant.SIMPLIFIED, 62): (
        "71bb30ba8e37d478fcb80af53f3807ffe89704bd4784ed362d7604e64655edd0",
        "15bc08ccb7bcbaa6b2072dece9b11900e285b44a7f883f1c66331840e39f1794",
    ),
    (Variant.ORIGINAL, 61): (
        "a100451646bbaa13f8ba4c88a98b86c33ed71b98a8d848c5efa93af32bc23b70",
        "a56818d704b1936e9130ea77b9a6732c320025c42f43512b2b0e9bb5cbdf9d82",
    ),
    (Variant.ORIGINAL, 62): (
        "a100451646bbaa13f8ba4c88a98b86c33ed71b98a8d848c5efa93af32bc23b70",
        "a56818d704b1936e9130ea77b9a6732c320025c42f43512b2b0e9bb5cbdf9d82",
    ),
}


@pytest.mark.parametrize("variant,budget", list(GOLDEN_EVICTION_FILLS))
def test_budget_edge_fill_matches_recorded_digest(variant, budget):
    filt = make_filter(
        capacity=128, block_size=2, fingerprint_bits=6, num_subtables=1,
        variant=variant, max_evictions=budget, seed=7,
    )
    elements = counters(0, filt.params.total_slots * 11 // 10)
    outcomes = [filt.insert(element) for element in elements]
    payload_digest, outcomes_digest = GOLDEN_EVICTION_FILLS[variant, budget]
    assert hashlib.sha256(filt.to_bytes()).hexdigest() == payload_digest
    joined = ",".join(outcome.value for outcome in outcomes)
    assert hashlib.sha256(joined.encode()).hexdigest() == outcomes_digest


# (block_size, fingerprint_bits, num_subtables): one and two wire words, and
# fingerprints narrow enough that neighbours of the two candidates often
# coincide, so the depth-1 tie rule decides
DEPTH1_GEOMETRIES = [(1, 6, 1), (2, 6, 1), (4, 5, 1), (8, 5, 1), (13, 5, 2)]


@pytest.mark.parametrize("levels", ["scanned", "cut", "level2", "below_level2", "level3", "below_level3"])
@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("block_size,fingerprint_bits,num_subtables", DEPTH1_GEOMETRIES)
def test_evict_places_like_the_reference_bfs(block_size, fingerprint_bits, num_subtables, variant, levels):
    # against a twin whose _evict is the reference search.  512 lets the
    # search keep duplicates at every level it can; 2b + 1 cuts the first
    # level, so it counts first visits from level 1 without the depth-1 scan;
    # 2 + 2b + 2b^2 keeps duplicates through level 2, and one less counts
    # first visits from level 2 on; likewise at level 3
    budget = {
        "scanned": 512,
        "cut": 2 * block_size + 1,
        "level2": 2 + 2 * block_size + 2 * block_size**2,
        "below_level2": 1 + 2 * block_size + 2 * block_size**2,
        "level3": 2 + 2 * block_size + 2 * block_size**2 + 2 * block_size**3,
        "below_level3": 1 + 2 * block_size + 2 * block_size**2 + 2 * block_size**3,
    }[levels]
    stash = 3 if variant is Variant.SIMPLIFIED else 0
    params = FilterParams(capacity=100, block_size=block_size, fingerprint_bits=fingerprint_bits,
                          num_subtables=num_subtables, variant=variant, stash_capacity=stash, seed=5,
                          max_evictions=budget)
    slots = params.total_slots
    depths = []  # per reference search: cells the path rewrote, 0 when it failed

    def pair(subject: CuckooFilter, twin: CuckooFilter) -> tuple[CuckooFilter, CuckooFilter]:
        for filt in (subject, twin):
            # the wire format drops the budget
            filt.params = dataclasses.replace(filt.params, max_evictions=budget)

        def reference(home: int, alt: int, fingerprint: int):
            before = list(twin._cells or twin._cell_ints())
            result = reference_evict(twin, home, alt, fingerprint)
            depths.append(sum(old != new for old, new in zip(before, twin._cells)) if result else 0)
            return result

        twin._evict = reference
        return subject, twin

    def each(call, *args):
        result = call(subject, *args)
        assert call(twin, *args) == result
        assert subject.to_bytes() == twin.to_bytes()
        return result

    subject, twin = pair(CuckooFilter(params), CuckooFilter(params))
    outcomes = [each(CuckooFilter.insert, element) for element in counters(0, slots * 6 // 5)]
    assert InsertOutcome.FAILED in outcomes
    assert subject.stash_count == stash * num_subtables
    # holes, then bulk batches that refill three quarters of them
    for element in counters(0, slots // 2)[::2]:
        each(CuckooFilter.delete, element)
    for start in range(2 * slots, 2 * slots + slots * 3 // 16, 4):
        each(CuckooFilter.insert_many, np.arange(start, start + 4, dtype=np.uint64))

    def both_full(element: bytes) -> bool:
        home, fp = subject._hash(element)
        return subject._occupancy[home] == subject._occupancy[subject._alt(home, fp)] == block_size

    # loaded: the first slow insert builds the cell ints in the search
    subject, twin = pair(*(CuckooFilter.from_bytes(filt.to_bytes()) for filt in (subject, twin)))
    evicting = next(element for element in counters(3 * slots, slots) if both_full(element))
    searched = len(depths)
    assert subject._cells is None
    each(CuckooFilter.insert, evicting)
    assert len(depths) == searched + 1
    for element in counters(4 * slots, slots // 4):
        each(CuckooFilter.insert, element)
    # moves at depth 1, failed searches and deeper paths; at b <= 2 the full
    # budget scans level 3 too
    assert 1 in depths and 0 in depths
    assert max(depths) >= 2 or levels == "cut"
    assert max(depths) >= 3 or levels != "scanned" or block_size > 2


class _CountingCells(list):
    """Cell ints that record the index of every read."""

    def __init__(self, cells):
        super().__init__(cells)
        self.reads = []

    def __getitem__(self, index):
        self.reads.append(index)
        return super().__getitem__(index)


@pytest.mark.parametrize("variant", list(Variant))
def test_deep_search_lists_each_level_once(variant):
    # b=2, budget 20: levels 1-2 keep duplicates (14 visits fit), and level
    # 3 would not, so level 2 is cut to its first visits before it is
    # listed.  A search whose leaf is on level 3 reads the two roots in the
    # depth-1 scan, then each entry of the roots, of level 1 and of level
    # 2's first visits once, in order, as it lists their neighbours, then
    # each of the 3 path cells twice as it rewrites it.  A search that
    # started over from the roots would read the levels again.
    block, budget = 2, 20
    params = FilterParams(capacity=128, block_size=block, fingerprint_bits=6, variant=variant,
                          seed=5, max_evictions=budget)
    filt = CuckooFilter(params)
    for element in counters(0, 110):
        filt.insert(element)
    blocks = wire_blocks(filt)

    def loaded() -> CuckooFilter:
        copy = CuckooFilter.from_bytes(filt.to_bytes())
        copy.params = params  # the wire format drops the budget
        return copy

    def rewritten(result, after: CuckooFilter) -> list[int]:
        return [cell for cell, slots in enumerate(wire_blocks(after)) if result and slots != blocks[cell]]

    for element in counters(1000, 1000):
        home, fp = filt._hash(element)
        alt = filt._alt(home, fp)
        if filt._occupancy[home] < block or filt._occupancy[alt] < block:
            continue
        twin = loaded()
        expected = reference_evict(twin, home, alt, fp)
        if len(path := rewritten(expected, twin)) == 3:
            break
    else:
        pytest.fail("no search with its leaf on level 3")

    def neighbours(level: list[int]) -> list[int]:
        return [filt._alt(cell, fp) for cell in level for fp in blocks[cell]]

    roots = sorted((home, alt))
    level1 = neighbours(roots)
    level2 = list(dict.fromkeys(cell for cell in neighbours(level1) if cell not in {*roots, *level1}))
    subject = loaded()
    subject._cells = cells = _CountingCells(subject._cell_ints())
    assert subject._evict(home, alt, fp) == expected
    head, tail = [*roots, *roots, *level1], len(cells.reads) - 2 * len(path)
    assert cells.reads[: len(head)] == head
    # as many of level 2's first visits as it takes to spend the budget
    assert len(head) < tail and cells.reads[len(head) : tail] == level2[: tail - len(head)]
    assert sorted(cells.reads[tail:]) == sorted(path * 2)
    assert subject.to_bytes() == twin.to_bytes()


@pytest.mark.parametrize("variant", list(Variant))
def test_failed_search_in_a_full_table_lists_each_cell_once(variant):
    # b=255 in 4 cells: level 1 keeps its 510 duplicate entries (512 visits
    # fit the default budget), so level 2 would not fit.  Cut to its first
    # visits, level 1 holds only the two cells that are not roots, and
    # listing their neighbours finds nothing new: after the depth-1 scan,
    # each cell is read once
    params = FilterParams(capacity=1020, block_size=255, fingerprint_bits=2, variant=variant, seed=3)
    filt = CuckooFilter(params)
    assert filt.insert_many(np.arange(4 * 255, dtype=np.uint64)) == 4 * 255
    filt._cells = cells = _CountingCells(filt._cells)
    home, fp = filt._hash(encode_u64(10**6))
    alt = filt._alt(home, fp)
    roots = sorted((home, alt))
    assert filt._evict(home, alt, fp) is None
    assert cells.reads[:4] == [*roots, *roots]
    assert sorted(cells.reads[4:]) == sorted({0, 1, 2, 3} - set(roots))


def test_behaves_like_direct_blocked_cuckoo_table():
    # a single subtable answers membership exactly like a plain blocked
    # cuckoo table fed the same cells and fingerprints
    for seed in range(3):
        params = FilterParams(
            capacity=700, block_size=4, fingerprint_bits=8, num_subtables=1, seed=seed
        )
        filt = CuckooFilter(params)
        rng = random.Random(seed)
        oracle = BlockedCuckooTable(params.num_cells, params.block_size, rng)
        live = []
        next_value = 0
        for _ in range(10**4):
            action = rng.random()
            if action < 0.6 and len(live) < 700:
                element = encode_u64(next_value)
                next_value += 1
                location, fp = hash_element(element, params)
                assert filt.insert(element) is InsertOutcome.STORED
                assert oracle.insert(location.local, fp)
                live.append(element)
            elif action < 0.85:
                element = encode_u64(rng.randrange(max(next_value, 1) + 1000))
                location, fp = hash_element(element, params)
                assert filt.query(element) == oracle.query(location.local, fp)
            elif live:
                element = live.pop(rng.randrange(len(live)))
                location, fp = hash_element(element, params)
                assert filt.delete(element)
                assert oracle.delete(location.local, fp)
        for element in live:
            location, fp = hash_element(element, params)
            assert filt.query(element) and oracle.query(location.local, fp)


def test_original_variant_round_trip():
    filt = make_filter(
        capacity=4000, num_subtables=4, variant=Variant.ORIGINAL, fingerprint_bits=10
    )
    elements = counters(0, 4000)
    outcomes = {filt.insert(element) for element in elements}
    assert outcomes == {InsertOutcome.STORED}
    assert all(filt.query(element) for element in elements)
    for element in elements[:500]:
        assert filt.delete(element)
    assert filt.stored_count == 3500


# -- placement after deletes ------------------------------------------------


def _block(filt: CuckooFilter, cell: int) -> list[int]:
    return wire_blocks(filt)[cell]


def test_insert_fills_the_lowest_hole_a_delete_left():
    filt = make_filter(capacity=64, block_size=4, fingerprint_bits=8, num_subtables=1, seed=3)
    homes, fps = filt.hash_many(np.arange(20000, dtype=np.uint64))
    cell = 5
    # values homed at the cell with distinct fingerprints, so each delete
    # finds exactly the copy it was aimed at
    picked = {}
    for value, home, fp in zip(range(20000), homes.tolist(), fps.tolist()):
        if home == cell and fp not in picked:
            picked[fp] = value
    values = list(picked.values())[:7]
    assert len(values) == 7
    fp_of = {value: fp for fp, value in picked.items()}
    for value in values[:4]:
        assert filt.insert(encode_u64(value)) is InsertOutcome.STORED
    assert _block(filt, cell) == [fp_of[v] for v in values[:4]]
    # slot 0, then slot b-2
    assert filt.delete(encode_u64(values[0]))
    assert filt.delete(encode_u64(values[2]))
    assert _block(filt, cell) == [0, fp_of[values[1]], 0, fp_of[values[3]]]
    assert filt.insert(encode_u64(values[4])) is InsertOutcome.STORED
    assert _block(filt, cell) == [fp_of[values[4]], fp_of[values[1]], 0, fp_of[values[3]]]
    assert filt.insert(encode_u64(values[5])) is InsertOutcome.STORED
    full = [fp_of[values[4]], fp_of[values[1]], fp_of[values[5]], fp_of[values[3]]]
    assert _block(filt, cell) == full
    # the cell is full again, so the next one goes elsewhere
    assert filt.insert(encode_u64(values[6])) is InsertOutcome.STORED
    assert _block(filt, cell) == full
    assert filt.query(encode_u64(values[6]))


def _occupied(blocks: list[list[int]]) -> int:
    return sum(1 for block in blocks for value in block if value)


# (variant, block size, fingerprint bits, max_evictions, inserts per slot):
# the budget-edge fills of test_budget_edge_fill_matches_recorded_digest,
# then b=4, f=8 tables near load 0.95
EVICTION_FILLS = [
    *((Variant.SIMPLIFIED, 2, 6, budget, 1.1) for budget in (2, 3, 17, 100)),
    (Variant.ORIGINAL, 2, 6, 17, 1.1),
    (Variant.SIMPLIFIED, 4, 8, 512, 0.95),
    (Variant.ORIGINAL, 4, 8, 512, 0.95),
]


@pytest.mark.parametrize("variant,block_size,bits,budget,per_slot", EVICTION_FILLS)
def test_eviction_never_leaves_a_hole(variant, block_size, bits, budget, per_slot):
    # insert-only, so a hole could come only from an eviction path; with
    # none, every insert appends at slot occupancy without a lane search
    params = FilterParams(
        capacity=block_size << bits, block_size=block_size, fingerprint_bits=bits,
        variant=variant, max_evictions=budget, seed=7,
    )
    filt = CuckooFilter(params)
    evicted = 0
    blocks = wire_blocks(filt)
    for element in counters(0, int(params.total_slots * per_slot)):
        location, fp = hash_element(element, params)
        alt = alt_location(location, fp, params)
        both_full = all(blocks[location.local]) and all(blocks[alt.local])
        outcome = filt.insert(element)
        if both_full and outcome is InsertOutcome.STORED:
            evicted += 1
            after = wire_blocks(filt)
            assert _occupied(after) == _occupied(blocks) + 1
            for block in after:
                occupancy = sum(1 for value in block if value)
                assert all(block[:occupancy]), block
            blocks = after
        elif outcome is InsertOutcome.STORED:
            blocks = wire_blocks(filt)
    # a budget of two cells is spent on the roots, so no path is ever found
    assert (evicted > 0) == (budget > 2)
    assert _occupied(blocks) == filt.stored_count


def _holed_filter() -> CuckooFilter:
    """b=4, f=8, one subtable; cell 5 holds [7, hole, 0x10, empty]."""
    empty = make_filter(capacity=64, block_size=4, fingerprint_bits=8, num_subtables=1)
    payload = bytearray(empty.to_bytes())
    payload[24:32] = (2).to_bytes(8, "little")  # header's stored count
    payload[HEADER_SIZE + 8 * 5] = 7
    payload[HEADER_SIZE + 8 * 5 + 2] = 0x10
    return CuckooFilter.from_bytes(bytes(payload))


@pytest.mark.parametrize(
    "home,fingerprint",
    [(5, 0), (5, 0x1FF), (-1, 3), (256, 3)],
    ids=["zero-fingerprint", "wide-fingerprint", "negative-home", "home-past-end"],
)
def test_insert_hashed_rejects_out_of_range_input(home, fingerprint):
    # a zero fingerprint would be counted but read as empty, a wide one
    # would spill into the next slot (0x10 -> 0x11 here), and a negative
    # home would index the last cell
    filt = _holed_filter()
    before = filt.to_bytes()
    with pytest.raises(ValueError, match="home"):
        filt.insert_hashed(home, fingerprint)
    assert filt.to_bytes() == before
    assert filt.insert_hashed(5, 0xFF) is InsertOutcome.STORED
    assert _block(filt, 5) == [7, 0xFF, 0x10, 0]


def test_insert_hashed_takes_numpy_integers():
    # b=8, f=16 blocks are 128 bits wide, so slots 4-7 sit above bit 63
    params = FilterParams(capacity=3000, block_size=8, fingerprint_bits=16)
    plain, numpy_fed = CuckooFilter(params), CuckooFilter(params)
    homes, fps = plain.hash_many(np.arange(3000, dtype=np.uint64))
    for home, fp in zip(homes.tolist(), fps.tolist()):
        plain.insert_hashed(home, fp)
    for home, fp in zip(homes, fps):
        numpy_fed.insert_hashed(home, fp)
    assert numpy_fed.to_bytes() == plain.to_bytes()
    with pytest.raises(TypeError):
        numpy_fed.insert_hashed(5, 3.0)


def _churn(variant: Variant) -> tuple[CuckooFilter, list[str], int]:
    """Seeded churn on a 512-slot table: fill to ~0.98 load, delete a third,
    reinsert it, then 3000 interleaved deletes and inserts.  Returns the
    filter, the outcome of every call and the highest stash count seen."""
    stash_capacity = 4 if variant is Variant.SIMPLIFIED else 0
    filt = make_filter(
        capacity=512, block_size=4, fingerprint_bits=7, num_subtables=1, variant=variant,
        stash_capacity=stash_capacity, max_evictions=24, seed=31,
    )
    rng = random.Random(32)
    live: list[bytes] = []
    log: list[str] = []
    stash_high = 0

    def insert(element: bytes) -> None:
        nonlocal stash_high
        outcome = filt.insert(element)
        log.append(outcome.value)
        if outcome is not InsertOutcome.FAILED:
            live.append(element)
        stash_high = max(stash_high, filt.stash_count)

    def delete_random() -> bytes:
        element = live.pop(rng.randrange(len(live)))
        assert filt.delete(element)
        log.append("deleted")
        return element

    for element in counters(0, 500):
        insert(element)
    removed = [delete_random() for _ in range(len(live) // 3)]
    for element in removed:
        insert(element)
    fresh = iter(counters(10**6, 3000))
    for _ in range(3000):
        if live and rng.random() < 0.5:
            delete_random()
        else:
            insert(next(fresh))
    assert filt.stored_count == len(live)
    assert all(filt.query(element) for element in live)
    return filt, log, stash_high


# variant: SHA-256 of to_bytes() and of the comma-joined call outcomes of
# _churn, recorded before inserts into hole-free cells skipped the lane
# search
GOLDEN_CHURN = {
    Variant.SIMPLIFIED: (
        "dbdb8d46322150eff2270dadd401ed8e373fd05f868a4071f3d55052b2911cdc",
        "0156f83ff42ef2260da30190cf2181dd868f655143d895b3cd70ea605b53ca08",
    ),
    Variant.ORIGINAL: (
        "e7444dd0885c557045182ed103d9b59ba3758be69f4fcfe40babc59f2dd3bc75",
        "954058ec326a1e907c5d27d1a664b47fe760c1d740e9f5b2d828d58b2d1d3aa8",
    ),
}


@pytest.mark.parametrize("variant", list(GOLDEN_CHURN))
def test_churn_placement_matches_recorded_digest(variant):
    filt, log, stash_high = _churn(variant)
    if variant is Variant.SIMPLIFIED:
        assert stash_high > 0
    payload_digest, log_digest = GOLDEN_CHURN[variant]
    got = (
        hashlib.sha256(filt.to_bytes()).hexdigest(),
        hashlib.sha256(",".join(log).encode()).hexdigest(),
    )
    assert got == (payload_digest, log_digest)


# -- bulk insert ----------------------------------------------------------------

# name: (filter parameters, counters inserted from 0, whether one fails)
BULK_FILLS = {
    "simplified": (dict(block_size=4, fingerprint_bits=8, num_subtables=2), 2000, False),
    "simplified-stash4": (
        dict(block_size=4, fingerprint_bits=6, num_subtables=2, stash_capacity=4, max_evictions=24),
        520, True,
    ),
    "original": (
        dict(block_size=4, fingerprint_bits=8, num_subtables=2, variant=Variant.ORIGINAL), 2000, False,
    ),
    "two-word-b13-f5": (dict(block_size=13, fingerprint_bits=5, num_subtables=2), 800, False),
    "stashless-fails": (dict(block_size=1, fingerprint_bits=4, num_subtables=1), 40, True),
}


def _assert_same_state(bulk: CuckooFilter, reference: CuckooFilter) -> None:
    assert bulk.stored_count == reference.stored_count
    assert bulk.stash_count == reference.stash_count
    assert bulk.to_bytes() == reference.to_bytes()


@pytest.mark.parametrize("name", list(BULK_FILLS))
def test_insert_many_matches_insert_hashed_loop(name):
    overrides, count, fails = BULK_FILLS[name]
    bulk, reference = make_filter(seed=11, **overrides), make_filter(seed=11, **overrides)
    values = np.arange(count, dtype=np.uint64)
    done = bulk.insert_many(values)
    assert done == insert_each(reference, values)
    _assert_same_state(bulk, reference)
    assert bulk.stored_count == done
    # the prefix count stops at the first failure, which changed nothing
    assert (0 < done < count) if fails else done == count
    if overrides.get("stash_capacity"):
        assert bulk.stash_count > 0


def _has_hole(block: list[int]) -> bool:
    return 0 in block[: sum(1 for value in block if value)]


def test_insert_many_defers_holes_to_place():
    params = dict(capacity=256, block_size=4, fingerprint_bits=6, num_subtables=1,
                  stash_capacity=4, seed=3)
    filt = make_filter(**params)
    assert filt.insert_many(np.arange(230, dtype=np.uint64)) == 230
    for value in range(0, 230, 5):
        assert filt.delete(encode_u64(value))
    reference = CuckooFilter.from_bytes(filt.to_bytes())
    slow = []

    def spy(home: int, fp: int) -> InsertOutcome:
        # why the bulk loop did not append this one itself
        blocks = wire_blocks(filt)
        alt = alt_location(CellIndex(0, home), fp, filt.params).local
        if 0 in blocks[home]:
            slow.append("home hole" if _has_hole(blocks[home]) else "append")
        elif 0 in blocks[alt]:
            slow.append("alternate hole" if _has_hole(blocks[alt]) else "append")
        else:
            slow.append("both full")
        return CuckooFilter._place(filt, home, fp)

    filt._place = spy
    values = np.arange(1000, 1040, dtype=np.uint64)
    assert filt.insert_many(values) == insert_each(reference, values) == 40
    _assert_same_state(filt, reference)
    assert {"home hole", "alternate hole", "both full"} <= set(slow)
    assert "append" not in slow
