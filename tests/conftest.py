"""Shared test helpers: element encoding, a numpy lane matcher with its
oracle pair, and an independent table oracle."""

import random

import numpy as np

from sckf.hashing import encode_u64


def lanes_per_word(width: int) -> int:
    """Most width-bit lanes match_bits_many can search in a uint64 word."""
    return 63 // width


def match_bits_many(
    words: np.ndarray, fingerprints: np.ndarray, lane_constant: int, width: int
) -> np.ndarray:
    """bitmatch.match_bits over parallel uint64 arrays of words and fingerprints.

    The top lane's carry bit must land inside the word, so lanes * width
    may not exceed 63 (which also keeps the addition from overflowing).
    """
    if lane_constant.bit_length() + width > 64:
        raise ValueError(
            f"{lane_constant.bit_count()} lanes of {width} bits exceed the 63-bit budget "
            "(the top lane's carry bit must stay inside the uint64 word)"
        )
    w = np.asarray(words, dtype=np.uint64)
    fp = np.asarray(fingerprints, dtype=np.uint64)
    ones = np.uint64((1 << width) - 1)
    lane_c = np.uint64(lane_constant)
    q = w ^ ((fp ^ ones) * lane_c)
    return ((q + lane_c) ^ q ^ lane_c) & np.uint64(lane_constant << width)


def find_fingerprint_many(
    words: np.ndarray, fingerprints: np.ndarray, lane_constant: int, width: int
) -> np.ndarray:
    """First matching lane per element as int64, -1 where absent, read off
    the match_bits_many carry bits."""
    r = match_bits_many(words, fingerprints, lane_constant, width)
    low = r & (~r + np.uint64(1))
    # lowest set bit is an exact power of two, so float64 log2 is exact
    safe = np.where(low == 0, np.uint64(1), low)
    position = np.log2(safe.astype(np.float64)).astype(np.int64)
    lane = position // width - 1
    return np.where(r == 0, np.int64(-1), lane)


def naive_find_many(
    words: np.ndarray, fingerprints: np.ndarray, width: int, lanes: int
) -> np.ndarray:
    """Vectorized per-lane reference for find_fingerprint_many."""
    w = np.asarray(words, dtype=np.uint64)
    fp = np.asarray(fingerprints, dtype=np.uint64)
    ones = np.uint64((1 << width) - 1)
    out = np.full(w.shape, -1, dtype=np.int64)
    for i in range(lanes - 1, -1, -1):
        lane_value = (w >> np.uint64(i * width)) & ones
        out = np.where(lane_value == fp, np.int64(i), out)
    return out


class BlockedCuckooTable:
    """Plain blocked cuckoo table storing fingerprints in Python lists.

    Independent implementation used as a membership oracle: same two
    candidate cells per element (cell and cell XOR fingerprint), same
    block capacity, but random-walk eviction instead of breadth-first
    search.  Any placement of the same multiset of (cell pair,
    fingerprint) entries answers membership identically, which is what
    the equivalence tests rely on.
    """

    def __init__(self, num_cells: int, block_size: int, rng: random.Random, max_kicks: int = 5000):
        assert num_cells & (num_cells - 1) == 0
        self.num_cells = num_cells
        self.block_size = block_size
        self.cells = [[] for _ in range(num_cells)]
        self.rng = rng
        self.max_kicks = max_kicks

    def insert(self, cell: int, fingerprint: int) -> bool:
        if len(self.cells[cell]) < self.block_size:
            self.cells[cell].append(fingerprint)
            return True
        alt = cell ^ fingerprint
        if len(self.cells[alt]) < self.block_size:
            self.cells[alt].append(fingerprint)
            return True
        current = self.rng.choice((cell, alt))
        for _ in range(self.max_kicks):
            victim_slot = self.rng.randrange(self.block_size)
            victim = self.cells[current][victim_slot]
            self.cells[current][victim_slot] = fingerprint
            fingerprint = victim
            current ^= fingerprint
            if len(self.cells[current]) < self.block_size:
                self.cells[current].append(fingerprint)
                return True
        return False

    def query(self, cell: int, fingerprint: int) -> bool:
        return fingerprint in self.cells[cell] or fingerprint in self.cells[cell ^ fingerprint]

    def delete(self, cell: int, fingerprint: int) -> bool:
        for candidate in (cell, cell ^ fingerprint):
            if fingerprint in self.cells[candidate]:
                self.cells[candidate].remove(fingerprint)
                return True
        return False


def counters(start: int, count: int) -> list[bytes]:
    return [encode_u64(value) for value in range(start, start + count)]


HEADER_SIZE = 32


def wire_blocks(filt) -> list[list[int]]:
    """Slot values of every cell, decoded from the wire table of to_bytes()."""
    b, f = filt.params.block_size, filt.params.fingerprint_bits
    size = 8 * ((b * f + 63) // 64)
    table = filt.to_bytes()[HEADER_SIZE : HEADER_SIZE + filt.params.num_cells * size]
    words = (int.from_bytes(table[start : start + size], "little") for start in range(0, len(table), size))
    return [[(word >> (slot * f)) & ((1 << f) - 1) for slot in range(b)] for word in words]
