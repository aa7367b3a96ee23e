"""Hash primitive: determinism, encoding equivalence, and uniformity."""

import hashlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from conftest import hash_bytes_one_seed
from sckf import hashing


def test_mix64_is_deterministic_and_spreads():
    assert hashing.mix64(0) == hashing.mix64(0)
    outputs = {hashing.mix64(value) for value in range(1000)}
    assert len(outputs) == 1000
    assert all(0 <= value <= hashing.MASK64 for value in outputs)


def test_hash_bytes_distinguishes_length_and_content():
    # in both lanes: each pair differs under seed 7 whichever lane holds it
    for seeds in ((7, 3), (3, 7)):
        lane = seeds.index(7)
        assert hashing.hash_bytes(b"a", *seeds)[lane] != hashing.hash_bytes(b"a\x00", *seeds)[lane]
        assert hashing.hash_bytes(b"", *seeds)[lane] != hashing.hash_bytes(b"\x00", *seeds)[lane]
        assert (hashing.hash_bytes(b"abcdefgh1", *seeds)[lane]
                != hashing.hash_bytes(b"abcdefgh2", *seeds)[lane])
    a, b = hashing.hash_bytes(b"payload", 1, 2)
    assert a != b
    assert hashing.hash_bytes(b"payload", 2, 1) == (b, a)


def test_hash_u64_matches_byte_encoding():
    for seed in (0, 1, 2**63):
        for value in (0, 1, 255, 2**32, hashing.MASK64):
            data = hashing.encode_u64(value)
            expected = hashing.hash_u64(value, seed), hashing.hash_u64(value, 5)
            assert hashing.hash_bytes(data, seed, 5) == expected
            assert hashing.hash_bytes(data, 5, seed) == expected[::-1]


# hashed in pairs (PIN_SEEDS[i], PIN_SEEDS[-1 - i]), so each seed runs in
# both lanes: the edges 0, 1, 2^63 and 2^64 - 1 beside random ones
PIN_SEEDS = [0, 1, 1 << 63, hashing.MASK64, 0xB9096A04E7D80068, 0xC963CFE0AFAE5A3B, 0xE1454C40C439F34A]
PIN_DATA = bytes((151 * i + 89) & 0xFF for i in range(40))
# SHA-256 of the one-seed hashes of PIN_DATA[:n] for n in 0..40, per
# length each seed pair's two hashes as 8-byte LE, recorded with the
# one-seed hash_bytes before the two-lane form replaced it
PIN_DIGEST = "ed0a1693aa7e617d4a9bdcb8eec479360d670cc453120abad8f8b2e37108c716"


def test_hash_bytes_lanes_match_the_one_seed_hash():
    digest = hashlib.sha256()
    for length in range(len(PIN_DATA) + 1):
        data = PIN_DATA[:length]
        for seed_a, seed_b in zip(PIN_SEEDS, reversed(PIN_SEEDS)):
            a, b = hashing.hash_bytes(data, seed_a, seed_b)
            assert (a, b) == (hash_bytes_one_seed(data, seed_a), hash_bytes_one_seed(data, seed_b))
            digest.update(a.to_bytes(8, "little") + b.to_bytes(8, "little"))
    assert digest.hexdigest() == PIN_DIGEST
    # seeds past 64 bits, negative ones and bytearrays hash as the oracle does
    for seed_a, seed_b in ((1 << 64 | 5, -1), (-(1 << 70), 1 << 200)):
        data = bytearray(PIN_DATA[:17])
        assert hashing.hash_bytes(data, seed_a, seed_b) == (
            hash_bytes_one_seed(data, seed_a), hash_bytes_one_seed(data, seed_b))


@given(st.binary(min_size=8, max_size=8), st.integers(0, hashing.MASK64), st.integers(0, hashing.MASK64))
def test_eight_byte_hash_matches_the_one_seed_hash(data, seed_a, seed_b):
    # 8 bytes take hash_bytes' straight-line branch, whatever their type
    expected = hash_bytes_one_seed(data, seed_a), hash_bytes_one_seed(data, seed_b)
    assert hashing.hash_bytes(data, seed_a, seed_b) == expected
    assert hashing.hash_bytes(bytearray(data), seed_a, seed_b) == expected


def test_vectorized_hash_matches_scalar():
    values = np.arange(4096, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    batch = hashing.hash_u64_many(values, seed=42)
    scalar = [hashing.hash_u64(int(value), 42) for value in values]
    assert batch.tolist() == scalar
    # batches that end just before, on and just past a chunk edge
    chunk = hashing._CHUNK
    wide = np.arange(6 * chunk + 9, dtype=np.uint64) * np.uint64(0xD1B54A32D192ED03)
    for size in (0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk + 3):
        for batch_values in (wide[:size], wide[: 3 * size : 3]):  # a strided view as well
            batch = hashing.hash_u64_many(batch_values, seed=42)
            assert batch.tolist() == [hashing.hash_u64(v, 42) for v in batch_values.tolist()], size
    grid = wide[:12].reshape(3, 4).T  # element-wise in any shape, views included
    expected = [[hashing.hash_u64(v, 42) for v in row] for row in grid.tolist()]
    assert hashing.hash_u64_many(grid, seed=42).tolist() == expected


def test_derive_seed_streams_are_distinct():
    seeds = {hashing.derive_seed(99, index) for index in range(64)}
    assert len(seeds) == 64


@pytest.mark.parametrize("bits", [4, 8])
def test_fingerprint_bins_are_uniform(bits):
    # chi-square over the 2**bits - 1 nonzero fingerprint values
    bins = (1 << bits) - 1
    values = hashing.hash_u64_many(np.arange(10**6, dtype=np.uint64), seed=3)
    fingerprints = values % np.uint64(bins)
    counts = np.bincount(fingerprints.astype(np.int64), minlength=bins)
    result = stats.chisquare(counts)
    assert result.pvalue > 0.001, f"chi-square p={result.pvalue}"


def test_subtable_assignment_is_balanced():
    # each subtable within 5 sigma of its binomial expectation
    num_subtables, bits, n = 16, 8, 10**6
    num_cells = num_subtables << bits
    homes = hashing.hash_u64_many(np.arange(n, dtype=np.uint64), seed=5) % np.uint64(num_cells)
    counts = np.bincount((homes >> np.uint64(bits)).astype(np.int64), minlength=num_subtables)
    expected = n / num_subtables
    sigma = (n * (1 / num_subtables) * (1 - 1 / num_subtables)) ** 0.5
    assert np.all(np.abs(counts - expected) <= 5 * sigma)


def test_seed_changes_every_output():
    values = np.arange(1000, dtype=np.uint64)
    a = hashing.hash_u64_many(values, seed=1)
    b = hashing.hash_u64_many(values, seed=2)
    assert not np.any(a == b)


# powers of two take the mask path, every other divisor the divide path
REMAINDER_DIVISORS = [1, 2, 1 << 16, 1 << 63, 3, *((1 << f) - 1 for f in range(2, 33)), 7 << 12,
                      (1 << 16) + 1, (1 << 32) + 1, (1 << 63) + 1, hashing.MASK64]


@pytest.mark.parametrize("size", [hashing._CHUNK - 1, hashing._CHUNK, hashing._CHUNK + 1])
def test_remainder_in_place_equals_numpy_remainder(size):
    rng = np.random.default_rng(size)
    random = rng.integers(0, 1 << 64, size=size, dtype=np.uint64)
    for divisor in REMAINDER_DIVISORS:
        edges = [0, 1, divisor - 1, divisor, 1 << 63, hashing.MASK64 - divisor + 1, hashing.MASK64 - 1,
                 hashing.MASK64]
        values = random.copy()
        values[: len(edges)] = edges
        values[-len(edges) :] = edges  # in the last chunk too, partial or whole
        expected = values % np.uint64(divisor)
        assert hashing.remainder_in_place(values, divisor) is values
        assert np.array_equal(values, expected), divisor
