"""Shared test helpers: element encoding, the one-seed byte hash, the
loop oracles for the lane matcher (scalar and numpy), the lane matcher's
first match on numpy arrays, an independent table oracle, the per-insert
reference for bulk fills, and the reference eviction search."""

import random

import numpy as np

from sckf import bitmatch
from sckf.filter import InsertOutcome
from sckf.hashing import MASK64, encode_u64, mix64


def hash_bytes_one_seed(data: bytes, seed: int) -> int:
    """Reference for each lane of hashing.hash_bytes: one seed, one chain."""
    h = seed & MASK64
    for i in range(0, len(data), 8):
        h = mix64(h ^ int.from_bytes(data[i : i + 8], "little"))
    return mix64(h ^ len(data))


def find_fingerprint_many(
    words: np.ndarray, fingerprints: np.ndarray, lane_constant: int, width: int
) -> np.ndarray:
    """bitmatch.find_fingerprint over parallel uint64 arrays of words and
    fingerprints: first matching lane per element as int64, -1 where absent,
    read off the lowest flag of bitmatch.match_bits run on the arrays."""
    r = bitmatch.match_bits(
        np.asarray(words, dtype=np.uint64), np.asarray(fingerprints, dtype=np.uint64),
        lane_constant, width,
    )
    low = r & (~r + np.uint64(1))
    # lowest set bit is an exact power of two, so float64 log2 is exact
    safe = np.where(low == 0, np.uint64(1), low)
    position = np.log2(safe.astype(np.float64)).astype(np.int64)
    return np.where(r == 0, np.int64(-1), position // width)


def naive_find(word: int, fingerprint: int, width: int, lanes: int) -> int | None:
    """Loop-based reference for find_fingerprint."""
    ones = (1 << width) - 1
    for i in range(lanes):
        if (word >> (i * width)) & ones == fingerprint:
            return i
    return None


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


def insert_each(filt, values) -> int:
    """Reference for CuckooFilter.insert_many: one insert_hashed call per
    counter; returns how many were inserted before a failure."""
    homes, fps = filt.hash_many(values)
    insert = filt.insert_hashed
    failed = InsertOutcome.FAILED
    done = 0
    for home, fp in zip(homes.tolist(), fps.tolist()):
        if insert(home, fp) is failed:
            return done
        done += 1
    return done


def reference_evict(filt, home: int, alt: int, fingerprint: int) -> tuple[int, int] | None:
    """Reference for CuckooFilter._evict: a predecessor map at every level.

    The breadth-first search visits the two sorted roots and then each
    level's cells slot by slot, counting visited cells (roots included)
    against max_evictions before each slot; the lowest-index free cell of
    the first level that has one is the leaf.  The path is written leaf
    first with plain lane writes: each fingerprint steps into the slot
    vacated after it, and ``fingerprint`` into the root's.  Returns the
    leaf and the fingerprint it takes, or None without a write.
    """
    cells = filt._cells or filt._cell_ints()
    block, f = filt.params.block_size, filt.params.fingerprint_bits
    mask = (1 << f) - 1

    def lane(cell: int, slot: int) -> int:
        return cells[cell] >> slot * f & mask

    def write(cell: int, slot: int, value: int) -> None:
        cells[cell] = cells[cell] & ~(mask << slot * f) | value << slot * f
        filt._stale[cell] = 1

    level = sorted((home, alt))
    came_from = dict.fromkeys(level)
    while level:
        free, next_level = [], []
        for cell in level:
            for slot in range(block):
                if len(came_from) >= filt.params.max_evictions:
                    break
                neighbor = filt._alt(cell, lane(cell, slot))
                if neighbor not in came_from:
                    came_from[neighbor] = (cell, slot)
                    (free if filt._occupancy[neighbor] < block else next_level).append(neighbor)
        if free:
            leaf = min(free)
            cell, slot = came_from[leaf]
            moved = lane(cell, slot)
            while (step := came_from[cell]) is not None:
                write(cell, slot, lane(*step))
                cell, slot = step
            write(cell, slot, fingerprint)
            return leaf, moved
        level = next_level
    return None


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
