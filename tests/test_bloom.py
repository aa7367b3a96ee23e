"""Bloom baseline: membership semantics and the hash-count heuristic.

The scalar add/contains below are the oracle for the batch path: the same
double-hashed probes, computed per element from its bytes."""

import math

import numpy as np
import pytest

from sckf.bloom import BloomFilter, hash_count_for
from sckf.hashing import MASK64, encode_u64, hash_bytes


def probe_indexes(bloom: BloomFilter, element: bytes) -> list[int]:
    a, b = hash_bytes(element, bloom._seed_a, bloom._seed_b)
    step = b % bloom.num_bits or 1
    return [((a + i * step) & MASK64) % bloom.num_bits for i in range(bloom.num_hashes)]


def add(bloom: BloomFilter, element: bytes) -> None:
    for index in probe_indexes(bloom, element):
        bloom._bits[index] = True


def contains(bloom: BloomFilter, element: bytes) -> bool:
    return all(bloom._bits[index] for index in probe_indexes(bloom, element))


def fill_fraction(bloom: BloomFilter) -> float:
    return float(bloom._bits.mean())


def test_validation():
    with pytest.raises(ValueError):
        BloomFilter(0, 1)
    with pytest.raises(ValueError):
        BloomFilter(100, 0)
    with pytest.raises(ValueError):
        hash_count_for(0, 10)


def test_hash_count_pins():
    assert hash_count_for(10**5, 10**4) == 7  # round(10 ln 2)
    assert hash_count_for(1000, 1000) == 1
    assert hash_count_for(10, 10**6) == 1  # never below one hash
    assert hash_count_for(2**20, 2**16) == round(16 * math.log(2))


def test_no_false_negatives():
    bloom = BloomFilter(5000, 4, seed=1)
    members = [encode_u64(v) for v in range(800)]
    for element in members:
        add(bloom, element)
    assert all(contains(bloom, element) for element in members)


def test_batch_matches_scalar():
    scalar = BloomFilter(4096, 5, seed=7)
    batch = BloomFilter(4096, 5, seed=7)
    values = np.arange(600, dtype=np.uint64)
    for value in values:
        add(scalar, encode_u64(int(value)))
    batch.add_many(values)
    assert fill_fraction(scalar) == fill_fraction(batch)
    probes = np.arange(5000, dtype=np.uint64)
    got = batch.contains_many(probes)
    want = np.fromiter(
        (contains(scalar, encode_u64(int(p))) for p in probes), dtype=bool, count=5000
    )
    assert np.array_equal(got, want)
    assert got[:600].all()


def test_single_hash_rate_tracks_fill():
    # k=1 and a sparse table: false-positive rate ~ n / num_bits
    bloom = BloomFilter(100_000, 1, seed=3)
    bloom.add_many(np.arange(1000, dtype=np.uint64))
    probes = np.arange(10**6, 10**6 + 50_000, dtype=np.uint64)
    rate = float(bloom.contains_many(probes).mean())
    assert 0.006 <= rate <= 0.014
    assert abs(rate - fill_fraction(bloom)) < 0.002


def test_fill_fraction():
    bloom = BloomFilter(1000, 3)
    assert fill_fraction(bloom) == 0.0
    bloom.add_many(np.arange(50, dtype=np.uint64))
    filled = fill_fraction(bloom)
    assert 0.0 < filled <= 150 / 1000


def test_seed_changes_false_positives():
    values = np.arange(500, dtype=np.uint64)
    probes = np.arange(10**6, 10**6 + 20_000, dtype=np.uint64)
    hits = []
    for seed in (0, 1):
        bloom = BloomFilter(8192, 3, seed=seed)
        bloom.add_many(values)
        hits.append(bloom.contains_many(probes))
    assert not np.array_equal(hits[0], hits[1])
