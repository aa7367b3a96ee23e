"""Filter behaviour: addressing, inserts, queries, deletes, and the stash."""

import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BlockedCuckooTable, counters
from sckf import planner
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
