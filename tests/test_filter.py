"""Filter behaviour: addressing, inserts, queries, deletes, and the stash."""

import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import HEADER_SIZE, BlockedCuckooTable, counters, wire_blocks
from sckf import planner
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
    ],
    ids=["stash", "evictions", "block", "width", "subtables", "capacity", "plan-block", "plan-n"],
)
def test_non_integer_geometry_is_a_type_error_naming_it(name, build):
    with pytest.raises(TypeError, match=f"^{name} must be an integer"):
        build()


def test_stash_requires_simplified_variant():
    with pytest.raises(ValueError):
        FilterParams(
            capacity=10, block_size=4, fingerprint_bits=8,
            variant=Variant.ORIGINAL, stash_capacity=1,
        )


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


def test_alt_location_rejects_bad_fingerprint():
    params = FilterParams(capacity=10, block_size=4, fingerprint_bits=8)
    with pytest.raises(ValueError):
        alt_location(CellIndex(0, 0), 0, params)
    with pytest.raises(ValueError):
        alt_location(CellIndex(0, 0), 256, params)


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
        ([2**64], ValueError),
        (np.uint64(5), ValueError),
        (np.arange(4, dtype=np.uint64).reshape(2, 2), ValueError),
    ],
    ids=[
        "float-list", "str-list", "bool-list", "bool-array", "float-array",
        "negative-int64", "negative-int", "int-past-2^64", "0-d", "2-d",
    ],
)
def test_counter_batches_must_be_1d_integers_in_range(values, error):
    # a stash entry makes query_many look up single elements as well
    filt = _stashed_filter()
    baseline = BloomFilter(num_bits=64, num_hashes=2)
    # -1 must not wrap to the member 2^64 - 1
    baseline.add_many(np.array([2**64 - 1], dtype=np.uint64))
    for call in (filt.hash_many, filt.query_many, baseline.add_many, baseline.contains_many):
        with pytest.raises(error):
            call(values)


def test_counter_batches_take_integer_sequences():
    filt = _stashed_filter()
    values = [0, 7, 59, 2**63, 2**64 - 1]
    expected = filt.query_many(np.array(values, dtype=np.uint64))
    assert expected[:3].any()
    assert np.array_equal(filt.query_many(values), expected)
    assert np.array_equal(filt.query_many(np.array(values[:3], dtype=np.int64)), expected[:3])
    assert np.array_equal(filt.query_many(np.array(values[:3], dtype=np.uint8)), expected[:3])
    assert filt.query_many([]).shape == (0,)


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
# off partway through a BFS level; 100 exceeds the 64 cells.
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
    (Variant.ORIGINAL, 17): (
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
