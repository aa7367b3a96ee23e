"""Acceptance gate: the ten primary behavioural claims, one test per claim.

Each test prints one line with the measured quantities next to the bound or
tolerance it was held to. Geometries are fixed and seeds are explicit, so
every number below is reproducible.
"""

import math
import random
import time

import numpy as np

from conftest import (
    BlockedCuckooTable,
    find_fingerprint_many,
    naive_find,
    naive_find_many,
)
from sckf import bitmatch, harness, planner
from sckf.bloom import BloomFilter, hash_count_for
from sckf.filter import (
    BadMagicError,
    CuckooFilter,
    FilterParams,
    InsertOutcome,
    SerializationError,
    TruncatedError,
    UnsupportedVersionError,
    hash_element,
)
from sckf.hashing import encode_u64, hash_u64
from sckf.planner import PlanRequest, plan


def test_c01_lane_match_agrees_with_loop_oracle_everywhere():
    start = time.perf_counter()
    # exhaustive: every 3-lane word of 3-bit lanes against every fingerprint
    const3 = bitmatch.make_lane_constant(3, 3)
    exhaustive = 0
    for word in range(1 << 9):
        for fp in range(1, 8):
            got = bitmatch.find_fingerprint(word, fp, const3, 3)
            want = naive_find(word, fp, 3, 3)
            assert got == want, (word, fp, got, want)
            exhaustive += 1
    assert exhaustive == 3584

    randomized = 0
    rng = np.random.default_rng(20240901)
    for width in (4, 8, 12, 16, 31):
        # full uint64 words: at widths 4, 8 and 16 the top lane ends at bit 63
        lanes = 64 // width
        const = bitmatch.make_lane_constant(width, lanes)
        span_mask = np.uint64((1 << (lanes * width)) - 1)
        cases = 1_000_000
        words = rng.integers(0, 1 << 64, size=cases, dtype=np.uint64) & span_mask
        fps = rng.integers(1, 1 << width, size=cases, dtype=np.uint64)
        # plant the fingerprint into a random lane for a third of the cases,
        # otherwise wide lanes would produce almost no true matches
        planted = rng.random(cases) < (1 / 3)
        lane_at = rng.integers(0, lanes, size=cases, dtype=np.uint64)
        shift = lane_at * np.uint64(width)
        ones = np.uint64((1 << width) - 1)
        cleared = words & ~(ones << shift)
        words = np.where(planted, cleared | (fps << shift), words)

        # bitmatch.match_bits itself, run on the uint64 arrays
        got = find_fingerprint_many(words, fps, const, width)
        want = naive_find_many(words, fps, width, lanes)
        assert np.array_equal(got, want), f"width {width} diverged from the oracle"
        assert (got[planted] >= 0).all()
        randomized += cases

        for i in rng.integers(0, cases, size=400):
            scalar = bitmatch.find_fingerprint(int(words[i]), int(fps[i]), const, width)
            assert (scalar if scalar is not None else -1) == int(got[i])

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"lane-match validation took {elapsed:.1f}s, budget 10s"
    print(
        f"C01 PASS lane match: {exhaustive} exhaustive + {randomized} randomized "
        f"cases agree with the loop oracle in {elapsed:.1f}s"
    )


def test_c02_no_false_negatives_at_scale():
    n = 100_000
    failures = 0
    for seed in range(20):
        filt = harness.build_filter(
            n=n, block_size=4, fingerprint_bits=12, num_subtables=9, seed=seed
        )
        inserted = harness.insert_members(filt, n)
        assert inserted == n, f"seed {seed}: only {inserted} of {n} inserts landed"
        answers = filt.query_many(harness.member_values(n))
        failures += int(n - answers.sum())
    assert failures == 0
    print(f"C02 PASS no false negatives: 20 seeds x {n} members, {failures} misses")


def test_c03_false_positive_rate_stays_under_bound():
    n, queries = 15565, 1_000_000
    bound = planner.false_positive_bound(n, 4096, 4, 12)
    sigma = math.sqrt(bound * (1 - bound) / queries)
    ceiling = bound + 3 * sigma
    probes = harness.probe_values(n, queries)
    worst = {}
    for stash in (0, 8):
        rates = []
        for seed in range(10):
            filt = harness.build_filter(
                n=n, block_size=4, fingerprint_bits=12, num_subtables=1,
                seed=seed, stash_capacity=stash,
            )
            assert harness.insert_members(filt, n) == n
            rate = float(filt.query_many(probes).mean())
            rates.append(rate)
            assert rate <= ceiling, (
                f"stash={stash} seed={seed}: rate {rate:.3e} above {ceiling:.3e}"
            )
        worst[stash] = max(rates)
    print(
        f"C03 PASS fp bound: worst rate {worst[0]:.3e} (stash {worst[8]:.3e}) "
        f"vs bound+3sigma {ceiling:.3e} over 10 seeds x {queries} queries"
    )


def test_c04_planned_geometry_reaches_capacity():
    start = time.perf_counter()
    result = plan(PlanRequest(n=100_000, block_size=8))
    assert result.fingerprint_bits == 16 and result.num_subtables == 1
    trials, all_in = 100, 0
    for trial in range(trials):
        filt = harness.build_filter(
            n=result.n, block_size=result.block_size,
            fingerprint_bits=result.fingerprint_bits,
            num_subtables=result.num_subtables, seed=trial,
        )
        all_in += harness.insert_members(filt, result.n) == result.n
    elapsed = time.perf_counter() - start
    assert all_in >= 99, f"only {all_in}/{trials} trials stored every element"
    assert elapsed < 120.0, f"capacity check took {elapsed:.0f}s, budget 120s"
    print(
        f"C04 PASS planned capacity: {all_in}/{trials} trials stored all "
        f"{result.n} at b=8 f=16 in {elapsed:.0f}s"
    )


def test_c05_failure_rate_falls_with_fingerprint_width():
    trials = 50
    records = harness.run_failure_sweep(
        n=100_000, block_size=4, load=0.9,
        fingerprint_grid=range(2, 11), trials=trials, base_seed=7,
    )
    rates = [r.measured for r in records]
    assert rates[0] >= 0.5, f"f=2 failure rate {rates[0]:.2f}, expected >= 0.5"
    assert rates[-1] <= 0.01, f"f=10 failure rate {rates[-1]:.3f}, expected <= 0.01"
    for i in range(len(rates) - 1):
        var_i = rates[i] * (1 - rates[i]) / trials
        var_j = rates[i + 1] * (1 - rates[i + 1]) / trials
        slack = 2 * math.sqrt(var_i + var_j)
        assert rates[i + 1] <= rates[i] + slack, (
            f"failure rate rose from f={records[i].f} ({rates[i]:.2f}) "
            f"to f={records[i + 1].f} ({rates[i + 1]:.2f}) beyond noise"
        )
    curve = ", ".join(f"{r.f}:{r.measured:.2f}" for r in records)
    print(f"C05 PASS failure sweep: {curve} over {trials} trials per width")


def test_c06_deletes_restore_exact_multiset_counts():
    params = FilterParams(capacity=10_000, block_size=4, fingerprint_bits=20, num_subtables=1)
    filt = CuckooFilter(params)
    base_members = harness.member_values(10_000)
    for value in base_members.tolist():
        assert filt.insert(encode_u64(value)) is InsertOutcome.STORED
    base = filt.stored_count
    cases = 10_000
    for i in range(cases):
        element = encode_u64(10**9 + i)
        copies = i % 5 + 1
        for _ in range(copies):
            assert filt.insert(element) is not InsertOutcome.FAILED
        for _ in range(copies):
            assert filt.delete(element)
        assert not filt.delete(element), f"case {i}: extra delete removed a copy"
        assert filt.stored_count == base, f"case {i}: count {filt.stored_count} != {base}"
    print(f"C06 PASS multiset deletes: {cases} insert/delete cases left count at {base}")


def test_c07_matches_plain_blocked_cuckoo_oracle():
    ops_per_seed, checked = 10_000, 0
    for seed in range(10):
        params = FilterParams(
            capacity=3000, block_size=4, fingerprint_bits=10, num_subtables=1, seed=seed
        )
        filt = CuckooFilter(params)
        rng = random.Random(seed)
        oracle = BlockedCuckooTable(params.num_cells, params.block_size, rng)
        live, next_value = [], 0
        for _ in range(ops_per_seed):
            action = rng.random()
            if action < 0.55 and len(live) < 3000:
                element = encode_u64(next_value)
                next_value += 1
                location, fp = hash_element(element, params)
                assert filt.insert(element) is InsertOutcome.STORED
                assert oracle.insert(location.local, fp)
                live.append(element)
            elif action < 0.85:
                element = encode_u64(rng.randrange(next_value + 2000))
                location, fp = hash_element(element, params)
                assert filt.query(element) == oracle.query(location.local, fp)
                checked += 1
            elif live:
                element = live.pop(rng.randrange(len(live)))
                location, fp = hash_element(element, params)
                assert filt.delete(element) and oracle.delete(location.local, fp)
    print(
        f"C07 PASS oracle equivalence: 10 seeds x {ops_per_seed} ops, "
        f"{checked} membership answers identical"
    )


def test_c08_serialization_survives_mutation_and_rejects_corruption():
    params = FilterParams(
        capacity=10_000, block_size=4, fingerprint_bits=12, num_subtables=2,
        stash_capacity=4, seed=13,
    )
    filt = CuckooFilter(params)
    rng = random.Random(13)
    live, next_value, mutations = [], 0, 10_000
    for _ in range(mutations):
        if rng.random() < 0.7 or not live:
            element = encode_u64(next_value)
            next_value += 1
            filt.insert(element)
            live.append(element)
        else:
            filt.delete(live.pop(rng.randrange(len(live))))
    payload = filt.to_bytes()
    restored = CuckooFilter.from_bytes(payload)
    assert restored.stored_count == filt.stored_count
    probes = np.arange(next_value + 10_000, dtype=np.uint64)
    assert np.array_equal(restored.query_many(probes), filt.query_many(probes))
    assert restored.to_bytes() == payload

    taxonomy = []
    for mutate, expected in [
        (lambda p: p[:3], TruncatedError),
        (lambda p: b"XXXX" + p[4:], BadMagicError),
        (lambda p: p[:4] + b"\x09" + p[5:], UnsupportedVersionError),
        (lambda p: p[:-1], TruncatedError),
        (lambda p: p + b"\x00", SerializationError),
    ]:
        try:
            CuckooFilter.from_bytes(mutate(payload))
            raise AssertionError(f"{expected.__name__} not raised")
        except expected as exc:
            taxonomy.append(type(exc).__name__)
    assert len({BadMagicError, UnsupportedVersionError, TruncatedError}) == 3
    print(
        f"C08 PASS serialization: {mutations} mutations round-tripped "
        f"byte-identically; corruption raised {sorted(set(taxonomy))}"
    )


def test_c09_planner_reproduces_pinned_analysis_values():
    assert planner.min_block_size(0.05) == 11
    assert planner.max_load_slack(8) == 0.11672089159097804
    assert planner.subtable_fingerprint_bits(2**20, 1.0, 8) == 6
    assert planner.subtable_fingerprint_bits(2**20, 2.0, 8) == 8
    assert planner.balance_fingerprint_bits(2**20, 2.0, planner.max_load_slack(8), 8) == 17
    result = plan(PlanRequest(n=100_000, block_size=8))
    assert (result.fingerprint_bits, result.num_subtables) == (16, 1)

    worst = 0.0
    for n, cells, b, f in [
        (15565, 4096, 4, 12), (100_000, 65536, 8, 16),
        (700, 1024, 4, 10), (3, 4, 2, 3),
    ]:
        direct = planner.false_positive_bound(n, cells, b, f)
        via_load = 2.0 * b * (n / (cells * b)) / ((1 << f) - 1)
        worst = max(worst, abs(direct - via_load))
    assert worst <= 1e-12
    print(
        "C09 PASS planner pins: block 11, slack 0.11672089159097804, widths "
        f"6/8/17, plan (16, 1); bound forms differ by at most {worst:.1e}"
    )


def test_c10_bloom_baseline_matches_textbook_rate():
    n, num_bits, queries = 10_000, 100_000, 1_000_000
    k = hash_count_for(num_bits, n)
    assert k == 7
    target = 2.0**-k
    members = harness.member_values(n)
    probes = harness.probe_values(n, queries)
    rates, within = [], 0
    for seed in range(5):
        bloom = BloomFilter(num_bits, k, seed=hash_u64(seed, 99))
        bloom.add_many(members)
        assert bool(bloom.contains_many(members).all())
        rate = float(bloom.contains_many(probes).mean())
        rates.append(rate)
        within += 0.7 * target <= rate <= 1.3 * target
    assert within >= 3, f"only {within}/5 seeds within 30% of {target:.2e}: {rates}"
    print(
        f"C10 PASS bloom baseline: {within}/5 seeds within 30% of 2^-{k} "
        f"= {target:.2e}; rates {['%.2e' % r for r in rates]}"
    )
