"""Plain Bloom filter used as the false-positive baseline in experiments.

Probes use double hashing: probe i lands at ``(h_a + i * h_b) mod bits``,
where h_b is reduced mod bits and a zero step becomes one.  Index
arithmetic wraps at 64 bits before the final modulo, so the scalar oracle
in the tests (the same probes over 8-byte LE elements) is bit-identical.
"""

import math

import numpy as np

from . import hashing
from .filter import check_count

_STREAM_A = 0
_STREAM_B = 1


def hash_count_for(num_bits: int, n: int) -> int:
    """Probe count minimizing the false-positive rate for n elements."""
    check_count(num_bits, "num_bits")
    check_count(n, "n")
    return max(1, round(num_bits * math.log(2.0) / n))


class BloomFilter:
    """Fixed-size bit array with k double-hashed probes per element."""

    def __init__(self, num_bits: int, num_hashes: int, seed: int = 0):
        check_count(num_bits, "num_bits")
        check_count(num_hashes, "num_hashes")
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self.seed = seed & hashing.MASK64
        self._seed_a = hashing.derive_seed(self.seed, _STREAM_A)
        self._seed_b = hashing.derive_seed(self.seed, _STREAM_B)
        self._bits = np.zeros(num_bits, dtype=bool)

    def add_many(self, values: np.ndarray) -> None:
        """Vectorized add of 64-bit counters, checked as hashing.counter_batch documents."""
        a, b = self._hash_many(values)
        for i in range(self.num_hashes):
            self._bits[(a + np.uint64(i) * b) % np.uint64(self.num_bits)] = True

    def contains_many(self, values: np.ndarray) -> np.ndarray:
        a, b = self._hash_many(values)
        out = np.ones(a.shape, dtype=bool)
        for i in range(self.num_hashes):
            out &= self._bits[(a + np.uint64(i) * b) % np.uint64(self.num_bits)]
        return out

    def _hash_many(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        values = hashing.counter_batch(values)
        a = hashing.hash_u64_many(values, self._seed_a)
        b = hashing.hash_u64_many(values, self._seed_b)
        step = b % np.uint64(self.num_bits)
        step = np.where(step == 0, np.uint64(1), step)
        return a, step
