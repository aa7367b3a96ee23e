"""Cuckoo filter with blocked cells, subtables, and an overflow stash.

The table is ``num_subtables`` subtables of ``2**fingerprint_bits`` cells;
each cell is a block of ``block_size`` fingerprint slots.  An element hashes
to a home cell and a nonzero fingerprint, and the fingerprint may live in
the home cell or its alternate:

* ``simplified`` variant: the alternate is the home cell with its low
  fingerprint-bits XORed with the fingerprint, so both candidates stay in
  the same subtable and any cell count works.
* ``original`` variant: the alternate is the home XORed with a second hash
  of the fingerprint, which requires the total cell count to be a power of
  two for the mapping to be an involution.

A cell is named by its global index ``subtable << f | local``; the filter
and ``hash_element`` / ``alt_location`` share one implementation of this
addressing.  Elements are ``bytes`` or ``bytearray``, else TypeError.

Each cell is one Python int that holds slot k at bits [k*f, (k+1)*f):
exactly the cell's block in the v1 wire format.  A block is probed for a
fingerprint, or for its lowest empty slot, with one bit-parallel lane match
over the whole int, whatever its width.  A cell's occupied slots are the
prefix [0, occupancy) unless a delete left a hole (an eviction path is
applied as slot overwrites, so only a delete can); an insert appends at
slot ``occupancy`` without a lane search when the bits from there up are
zero, and otherwise fills the lowest empty slot.  Both pick the same slot.

``insert_hashed`` takes a global home index in [0, num_cells) and a
fingerprint in [1, 2^fingerprint_bits - 1]; values out of range are a
ValueError and non-integers a TypeError.

Inserts that cannot be placed even after a bounded breadth-first eviction
search overflow into a small per-subtable stash (simplified variant only);
when the stash is full too, the insert fails and the filter is untouched.

Queries never report a stored element as absent.  False positives occur at
a rate bounded by ``2n / (num_cells * (2**fingerprint_bits - 1))``.

A filter instance is not thread-safe for writes; concurrent experiments
should use one instance per worker.  Instances are plain Python state and
move freely between threads or processes.
"""

import enum
import operator
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import bitmatch, hashing

# wire-format limits: block size one header byte, subtables a u32, stash a u16
MAX_BLOCK_SIZE = 0xFF
MAX_SUBTABLES = 0xFFFFFFFF
MAX_STASH_CAPACITY = 0xFFFF

SERIAL_MAGIC = b"SCKF"
SERIAL_VERSION = 1

_HEADER = struct.Struct("<4sBBBBIIQQ")
_STASH_COUNT = struct.Struct("<H")
_STASH_ENTRY = struct.Struct("<II")

# sub-seed stream indexes of the master seed
_STREAM_FP = 0
_STREAM_HOME = 1
_STREAM_ALT = 2


class Variant(enum.Enum):
    SIMPLIFIED = "simplified"
    ORIGINAL = "original"


_VARIANT_CODE = {Variant.SIMPLIFIED: 0, Variant.ORIGINAL: 1}
_VARIANT_FROM_CODE = {code: variant for variant, code in _VARIANT_CODE.items()}


class InsertOutcome(enum.Enum):
    STORED = "stored"
    STASHED = "stashed"
    FAILED = "failed"


class CellIndex(NamedTuple):
    """A cell named by (subtable, local index within the subtable)."""

    subtable: int
    local: int


class SerializationError(ValueError):
    """Base error for malformed serialized filters."""


class BadMagicError(SerializationError):
    pass


class UnsupportedVersionError(SerializationError):
    pass


class TruncatedError(SerializationError):
    pass


# range checks shared by FilterParams, the planner, the harness and the CLI:
# out of range is a ValueError, a non-integer a TypeError naming the parameter


def check_block_size(block_size: int) -> None:
    if not 1 <= bitmatch.as_integer(block_size, "block_size") <= MAX_BLOCK_SIZE:
        raise ValueError(f"block_size must be in [1, {MAX_BLOCK_SIZE}], got {block_size}")


def check_subtables(num_subtables: int) -> None:
    if not 1 <= bitmatch.as_integer(num_subtables, "num_subtables") <= MAX_SUBTABLES:
        raise ValueError(f"num_subtables must be in [1, 2^32), got {num_subtables}")


def check_stash_capacity(stash_capacity: int) -> None:
    if not 0 <= bitmatch.as_integer(stash_capacity, "stash_capacity") <= MAX_STASH_CAPACITY:
        raise ValueError(f"stash_capacity must be in [0, {MAX_STASH_CAPACITY}], got {stash_capacity}")


def check_count(value: int, name: str) -> None:
    """A count such as capacity, max_evictions or a number of trials: at least 1."""
    if bitmatch.as_integer(value, name) < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")


@dataclass(frozen=True)
class FilterParams:
    """Geometry and seeding of a filter.

    capacity is the number of elements the table was sized for; it is
    bookkeeping only and does not constrain inserts.
    """

    capacity: int
    block_size: int
    fingerprint_bits: int
    num_subtables: int = 1
    variant: Variant = Variant.SIMPLIFIED
    stash_capacity: int = 0
    seed: int = 0
    max_evictions: int = 512

    def __post_init__(self):
        check_count(self.capacity, "capacity")
        check_block_size(self.block_size)
        bitmatch.check_width(self.fingerprint_bits)
        check_subtables(self.num_subtables)
        check_stash_capacity(self.stash_capacity)
        check_count(self.max_evictions, "max_evictions")
        if self.stash_capacity > 0 and self.variant is not Variant.SIMPLIFIED:
            raise ValueError("the stash extension applies to the simplified variant only")
        if self.variant is Variant.ORIGINAL and self.num_subtables & (self.num_subtables - 1):
            raise ValueError(
                "the original variant needs a power-of-two cell count; "
                f"num_subtables={self.num_subtables} breaks that"
            )
        object.__setattr__(self, "seed", self.seed & hashing.MASK64)

    @property
    def num_cells(self) -> int:
        return self.num_subtables << self.fingerprint_bits

    @property
    def total_slots(self) -> int:
        return self.num_cells * self.block_size


def hash_element(element: bytes, params: FilterParams) -> tuple[CellIndex, int]:
    """Home cell and fingerprint of an element, as the filter computes them.

    The fingerprint is uniform over [1, 2^fingerprint_bits - 1]; zero is
    reserved to mean an empty slot.  Home cell and fingerprint come from
    independent sub-seeds of the filter seed.
    """
    home, fp = _Addressing(params)._hash(element)
    return CellIndex(*divmod(home, 1 << params.fingerprint_bits)), fp


def alt_location(location: CellIndex, fingerprint: int, params: FilterParams) -> CellIndex:
    """The other candidate cell for a fingerprint; an involution."""
    f = params.fingerprint_bits
    if not 1 <= fingerprint < (1 << f):
        raise ValueError(f"fingerprint out of range for {f} bits: {fingerprint}")
    index = (location.subtable << f) | location.local
    return CellIndex(*divmod(_Addressing(params)._alt(index, fingerprint), 1 << f))


class _Addressing:
    """Home cell, fingerprint and alternate cell, by global cell index."""

    def __init__(self, params: FilterParams):
        self.params = params
        f = params.fingerprint_bits
        self._f = f
        self._fp_mask = (1 << f) - 1
        self._n_cells = params.num_cells
        self._simplified = params.variant is Variant.SIMPLIFIED
        self._seed_fp = hashing.derive_seed(params.seed, _STREAM_FP)
        self._seed_home = hashing.derive_seed(params.seed, _STREAM_HOME)
        self._seed_alt = hashing.derive_seed(params.seed, _STREAM_ALT)
        # original-variant offsets per fingerprint: builds repeat each one ~10x
        self._alt_memo: dict[int, int] = {}

    def _hash(self, element: bytes) -> tuple[int, int]:
        if not isinstance(element, (bytes, bytearray)):
            raise TypeError(f"elements must be bytes or bytearray, not {type(element).__name__}")
        home = hashing.hash_bytes(element, self._seed_home) % self._n_cells
        fp = hashing.hash_bytes(element, self._seed_fp) % self._fp_mask + 1
        return home, fp

    def _alt(self, cell: int, fingerprint: int) -> int:
        if self._simplified:
            return cell ^ fingerprint
        offset = self._alt_memo.get(fingerprint)
        if offset is None:
            offset = hashing.hash_u64(fingerprint, self._seed_alt) % (self._n_cells - 1) + 1
            self._alt_memo[fingerprint] = offset
        return cell ^ offset

    def hash_many(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Global home cells and fingerprints of 64-bit counters.

        Element-wise equal to the hash of encode_u64(v), so insert_hashed
        on a pair behaves exactly like insert(encode_u64(v)).  values are
        checked as hashing.counter_batch documents.
        """
        values = hashing.counter_batch(values)
        homes = hashing.hash_u64_many(values, self._seed_home) % np.uint64(self._n_cells)
        fps = hashing.hash_u64_many(values, self._seed_fp) % np.uint64(self._fp_mask)
        fps += np.uint64(1)
        return homes, fps

    def _alt_many(self, homes: np.ndarray, fps: np.ndarray) -> np.ndarray:
        """Element-wise _alt over uint64 arrays."""
        if self._simplified:
            return homes ^ fps
        offsets = hashing.hash_u64_many(fps, self._seed_alt) % np.uint64(self._n_cells - 1)
        return homes ^ (offsets + np.uint64(1))


class CuckooFilter(_Addressing):
    """Approximate membership with insert, query, and delete.

    >>> params = FilterParams(capacity=1000, block_size=4, fingerprint_bits=12)
    >>> filt = CuckooFilter(params)
    >>> filt.insert(b"alpha")
    <InsertOutcome.STORED: 'stored'>
    >>> b"alpha" in filt
    True
    >>> filt.delete(b"alpha")
    True
    """

    def __init__(self, params: FilterParams):
        super().__init__(params)
        self._block_size = params.block_size
        self._block_words = _dense_words_per_block(params.block_size, self._f)
        self._lane_const = bitmatch.make_lane_constant(self._f, params.block_size)
        self._cells = [0] * self._n_cells
        self._occupancy = bytearray(self._n_cells)
        self._stashes: list[list[tuple[int, int]]] = [[] for _ in range(params.num_subtables)]
        self._table_count = 0
        self._stash_count = 0

    # -- membership ---------------------------------------------------------

    def insert(self, element: bytes) -> InsertOutcome:
        """Insert one copy of an element; duplicates accumulate."""
        home, fp = self._hash(element)
        return self.insert_hashed(home, fp)

    def insert_hashed(self, home: int, fingerprint: int) -> InsertOutcome:
        """Insert by precomputed global home cell and fingerprint.

        Exposed so bulk experiments can batch the hashing; behaves exactly
        like insert() for the element that hashed to these values.  home
        is a global cell index in [0, num_cells) and fingerprint lies in
        [1, 2^fingerprint_bits - 1], else ValueError.  numpy integers are
        taken as Python ints; other types raise TypeError.
        """
        if type(home) is not int or type(fingerprint) is not int:
            # a numpy fingerprint shifted past bit 63 would wrap to zero
            home, fingerprint = operator.index(home), operator.index(fingerprint)
        if not (0 <= home < self._n_cells and 1 <= fingerprint <= self._fp_mask):
            raise ValueError(
                f"need home in [0, {self._n_cells}) and fingerprint in "
                f"[1, {self._fp_mask}], got home={home}, fingerprint={fingerprint}"
            )
        occupancy = self._occupancy
        block = self._block_size
        cell = home
        came_from = None
        if occupancy[cell] == block:
            cell = alt = self._alt(home, fingerprint)
            if occupancy[cell] == block:
                cell, came_from = self._evict_path(home, alt)
        if cell is None:
            # FilterParams allows a stash only on the simplified variant
            stash = self._stashes[home >> self._f]
            if len(stash) < self.params.stash_capacity:
                stash.append((self._canonical_local(home, fingerprint), fingerprint))
                self._stash_count += 1
                return InsertOutcome.STASHED
            return InsertOutcome.FAILED
        cells = self._cells
        f = self._f
        stored = cells[cell]
        occ = occupancy[cell]
        slot = occ
        if stored >> occ * f:
            # a delete left a hole below slot occ: fill the lowest
            slot = self._find_slot(cell, 0)
        # else slots [0, occ) are full and the rest empty: append at occ
        occupancy[cell] = occ + 1
        self._table_count += 1
        if came_from is None:
            cells[cell] = stored | fingerprint << slot * f
            return InsertOutcome.STORED
        # leaf-first, each fingerprint on the path steps into the slot vacated
        # after it; every cell but the leaf was full, so nothing else changes
        while (step := came_from[cell]) is not None:
            source, source_slot = step
            moved = (cells[source] >> source_slot * f) & self._fp_mask
            cells[cell] = bitmatch.write_lane(cells[cell], slot, f, moved)
            cell, slot = step
        cells[cell] = bitmatch.write_lane(cells[cell], slot, f, fingerprint)
        return InsertOutcome.STORED

    def query(self, element: bytes) -> bool:
        """Membership check: never false for a stored element."""
        home, fp = self._hash(element)
        if self._cell_contains(home, fp) or self._cell_contains(self._alt(home, fp), fp):
            return True
        return self._stash_contains(home, fp)

    def query_many(self, values: np.ndarray) -> np.ndarray:
        """Vectorized query over 64-bit counters (8-byte LE elements).

        Equivalent to query(encode_u64(v)) for each v, evaluated with
        numpy over the whole array at once.
        """
        homes, fps = self.hash_many(values)
        alts = self._alt_many(homes, fps).view(np.int64)  # cells < 2^63: numpy indexes int64 uncast
        homes = homes.view(np.int64)
        # encode each probed cell once, into a table that is zero elsewhere
        mask = np.zeros(self._n_cells, dtype=bool)
        mask[homes] = mask[alts] = True
        probed = np.flatnonzero(mask)
        table = np.zeros((self._block_words, self._n_cells), dtype=np.uint64)
        table[:, probed] = self._wire_columns(self._table_bytes(probed.tolist()))
        hits = np.zeros(homes.shape, dtype=bool)
        # one side at a time keeps a single gathered copy of the blocks alive
        for cells in (homes, alts):
            columns = [column[cells] for column in table]
            for slot in range(self._block_size):
                hits |= self._slot_values(columns, slot) == fps
        if self._stash_count:
            hits |= self._stash_contains_many(homes, fps)
        return hits

    def delete(self, element: bytes) -> bool:
        """Remove exactly one stored copy; False when none is present."""
        home, fp = self._hash(element)
        if self._remove_from_cell(home, fp) or self._remove_from_cell(self._alt(home, fp), fp):
            return True
        if not self._stash_contains(home, fp):
            return False
        self._stashes[home >> self._f].remove((self._canonical_local(home, fp), fp))
        self._stash_count -= 1
        return True

    def __contains__(self, element: bytes) -> bool:
        return self.query(element)

    def __len__(self) -> int:
        return self.stored_count

    # -- accounting ----------------------------------------------------------

    @property
    def stored_count(self) -> int:
        """Fingerprints held, table slots plus stash entries."""
        return self._table_count + self._stash_count

    @property
    def stash_count(self) -> int:
        return self._stash_count

    def load_factor(self) -> float:
        """Occupied fraction of table slots; stash entries do not count."""
        return self._table_count / self.params.total_slots

    # -- internals -----------------------------------------------------------

    def _canonical_local(self, cell: int, fingerprint: int) -> int:
        local = cell & self._fp_mask
        return min(local, local ^ fingerprint)

    def _cell_contains(self, cell: int, fingerprint: int) -> bool:
        return bitmatch.match_bits(self._cells[cell], fingerprint, self._lane_const, self._f) != 0

    def _find_slot(self, cell: int, fingerprint: int) -> int | None:
        return bitmatch.find_fingerprint(self._cells[cell], fingerprint, self._lane_const, self._f)

    def _slot_values(self, columns: list[np.ndarray], slot: int) -> np.ndarray:
        """One slot of many blocks given as uint64 arrays of their wire words.

        ``columns[k]`` holds word k of each block; a slot that straddles a
        word boundary is joined from both words.
        """
        word, shift = divmod(slot * self._f, 64)
        values = columns[word] >> np.uint64(shift)
        if shift + self._f > 64:
            values |= columns[word + 1] << np.uint64(64 - shift)
        values &= np.uint64(self._fp_mask)
        return values

    def _remove_from_cell(self, cell: int, fingerprint: int) -> bool:
        slot = self._find_slot(cell, fingerprint)
        if slot is None:
            return False
        self._cells[cell] = bitmatch.write_lane(self._cells[cell], slot, self._f, 0)
        self._occupancy[cell] -= 1
        self._table_count -= 1
        return True

    def _stash_contains(self, home: int, fingerprint: int) -> bool:
        if not self._stash_count:
            return False
        entry = (self._canonical_local(home, fingerprint), fingerprint)
        return entry in self._stashes[home >> self._f]

    def _stash_contains_many(self, homes: np.ndarray, fps: np.ndarray) -> np.ndarray:
        stash_fps = np.fromiter({fp for stash in self._stashes for _, fp in stash}, dtype=np.uint64)
        hits = np.zeros(homes.shape, dtype=bool)
        for i in np.flatnonzero(np.isin(fps, stash_fps)):
            hits[i] = self._stash_contains(int(homes[i]), int(fps[i]))
        return hits

    def _evict_path(self, home: int, alt: int) -> tuple[int | None, dict]:
        """Breadth-first eviction search from two full candidate cells.

        ``came_from`` is the predecessor map: visited cell -> (cell, slot)
        whose fingerprint would move into it, each root -> None.  Its size
        is the budget count: max_evictions visited cells, roots included.
        Returns the free leaf cell (None when the search fails) and
        ``came_from``.  It never writes the table; insert_hashed applies
        the path.
        """
        block = self._block_size
        f = self._f
        mask = self._fp_mask
        cells = self._cells
        occupancy = self._occupancy
        budget = self.params.max_evictions
        level = sorted((home, alt))
        came_from = dict.fromkeys(level)
        while level:
            free = []
            next_level = []
            for cell in level:
                stored = cells[cell]
                for slot in range(block):
                    if len(came_from) >= budget:
                        break
                    neighbor = self._alt(cell, stored & mask)
                    stored >>= f
                    if neighbor in came_from:
                        continue
                    came_from[neighbor] = (cell, slot)
                    if occupancy[neighbor] < block:
                        free.append(neighbor)
                    else:
                        next_level.append(neighbor)
            if free:
                # ties between equal-depth free cells: lowest global index
                return min(free), came_from
            level = next_level
        return None, came_from

    # -- serialization --------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize to the versioned little-endian wire format.

        Layout: magic, version, variant code, fingerprint bits, block size,
        num_subtables (u32), stash_capacity (u32), seed (u64), stored count
        (u64); then every block as ceil(block_size * fingerprint_bits / 64)
        words of densely packed slots; then per subtable a u16 entry count
        followed by (canonical_local u32, fingerprint u32) stash entries.
        """
        p = self.params
        out = bytearray(
            _HEADER.pack(
                SERIAL_MAGIC,
                SERIAL_VERSION,
                _VARIANT_CODE[p.variant],
                p.fingerprint_bits,
                p.block_size,
                p.num_subtables,
                p.stash_capacity,
                p.seed,
                self.stored_count,
            )
        )
        out += self._table_bytes(range(self._n_cells))
        for stash in self._stashes:
            out += _STASH_COUNT.pack(len(stash))
            for local, fp in stash:
                out += _STASH_ENTRY.pack(local, fp)
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "CuckooFilter":
        """Rebuild a filter from to_bytes() output.

        The wire format carries no planned capacity or eviction budget;
        those come back as the physical slot count and the default.
        """
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise TypeError(f"payload must be bytes-like, not {type(data).__name__}")
        if len(data) < len(SERIAL_MAGIC):
            raise TruncatedError("payload shorter than the magic prefix")
        if data[: len(SERIAL_MAGIC)] != SERIAL_MAGIC:
            raise BadMagicError(f"bad magic {data[:4]!r}, expected {SERIAL_MAGIC!r}")
        if len(data) < len(SERIAL_MAGIC) + 1:
            raise TruncatedError("payload ends before the version byte")
        version = data[len(SERIAL_MAGIC)]
        if version != SERIAL_VERSION:
            raise UnsupportedVersionError(f"unsupported version {version}")
        if len(data) < _HEADER.size:
            raise TruncatedError(f"header needs {_HEADER.size} bytes, got {len(data)}")
        (_, _, variant_code, f, block, subtables, stash_capacity, seed, stored) = _HEADER.unpack_from(
            data
        )
        if variant_code not in _VARIANT_FROM_CODE:
            raise SerializationError(f"unknown variant code {variant_code}")
        try:
            params = FilterParams(
                capacity=max(1, (subtables << f) * block),
                block_size=block,
                fingerprint_bits=f,
                num_subtables=subtables,
                variant=_VARIANT_FROM_CODE[variant_code],
                stash_capacity=stash_capacity,
                seed=seed,
            )
        except ValueError as exc:
            raise SerializationError(f"invalid geometry in header: {exc}") from exc
        dense_words = _dense_words_per_block(block, f)
        table_bytes = params.num_cells * dense_words * 8
        offset = _HEADER.size
        if len(data) < offset + table_bytes:
            raise TruncatedError(
                f"table needs {table_bytes} bytes, got {len(data) - offset}"
            )
        filt = cls(params)
        filt._load_table(data[offset : offset + table_bytes])
        offset += table_bytes
        offset = filt._load_stashes(data, offset)
        if offset != len(data):
            raise SerializationError(f"{len(data) - offset} trailing bytes after the stash")
        if filt.stored_count != stored:
            raise SerializationError(
                f"header claims {stored} stored fingerprints, payload holds {filt.stored_count}"
            )
        return filt

    def _table_bytes(self, cells) -> bytes:
        """The wire blocks of the given cell indexes, in their order."""
        size = 8 * self._block_words
        return b"".join([self._cells[cell].to_bytes(size, "little") for cell in cells])

    def _wire_columns(self, table: bytes) -> list[np.ndarray]:
        """Views of wire-format blocks: word k of every block per array."""
        rows = np.frombuffer(table, dtype="<u8").reshape(-1, self._block_words)
        return [rows[:, word] for word in range(self._block_words)]

    def _load_table(self, table: bytes) -> None:
        columns = self._wire_columns(table)
        used = self._block_size * self._f - 64 * (self._block_words - 1)
        if used < 64:
            padded = np.flatnonzero(columns[-1] >> np.uint64(used))
            if padded.size:
                raise SerializationError(f"nonzero padding bits in block {padded[0]}")
        occupancy = np.zeros(self._n_cells, dtype=np.uint8)
        for slot in range(self._block_size):
            occupancy += self._slot_values(columns, slot) != 0
        size = 8 * self._block_words
        self._cells = [
            int.from_bytes(table[start : start + size], "little")
            for start in range(0, len(table), size)
        ]
        self._occupancy = bytearray(occupancy.tobytes())
        self._table_count = int(occupancy.sum())

    def _load_stashes(self, data: bytes, offset: int) -> int:
        capacity = self.params.stash_capacity
        for subtable in range(self.params.num_subtables):
            if len(data) < offset + _STASH_COUNT.size:
                raise TruncatedError(f"stash count missing for subtable {subtable}")
            (count,) = _STASH_COUNT.unpack_from(data, offset)
            offset += _STASH_COUNT.size
            if count > capacity:
                raise SerializationError(
                    f"subtable {subtable} stash holds {count} > capacity {capacity}"
                )
            if len(data) < offset + count * _STASH_ENTRY.size:
                raise TruncatedError(f"stash entries missing for subtable {subtable}")
            stash = self._stashes[subtable]
            for _ in range(count):
                local, fp = _STASH_ENTRY.unpack_from(data, offset)
                offset += _STASH_ENTRY.size
                if not 1 <= fp <= self._fp_mask or local > self._fp_mask:
                    raise SerializationError(
                        f"stash entry ({local}, {fp}) out of range for {self._f} bits"
                    )
                if self._canonical_local(local, fp) != local:
                    # query and delete look the entry up by its canonical local
                    raise SerializationError(
                        f"stash entry ({local}, {fp}) is not keyed by its canonical local"
                    )
                stash.append((local, fp))
                self._stash_count += 1
        return offset


def _dense_words_per_block(block_size: int, fingerprint_bits: int) -> int:
    return (block_size * fingerprint_bits + 63) // 64
