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
addressing.  Elements are ``bytes`` or ``bytearray``, else TypeError.  A
scalar insert, query or delete makes one hash call: ``hashing.hash_bytes``
returns the home and fingerprint hashes together, from two seeds.

Each cell is one Python int that holds slot k at bits [k*f, (k+1)*f):
exactly the cell's block in the v1 wire format.  A scalar query, a delete
and a hole fill probe a block for a fingerprint, or for its lowest empty
slot, with the "has zero lane" test of bitmatch.match_bits over the whole
int, whatever its width.  A cell's occupied slots are the prefix
[0, occupancy) unless a delete left a hole (an eviction rewrites full
slots, then inserts at its leaf, so only a delete can); an insert appends
at slot ``occupancy`` without a lane search when the bits from there up
are zero, and otherwise fills the lowest empty slot.  Both pick
the same slot.  ``insert_many`` runs that append in place for a whole
counter batch, in the home cell or, when the home is full, in the
alternate; a cell with a hole and a pair of full cells go to ``_place``,
which insert and insert_hashed call.

Batch queries and ``to_bytes`` read a view of the table beside the cell
ints: the v1 wire table as a ``(num_cells, words)`` uint64 array,
``8 * words`` bytes per cell, allocated zero with the table.  Every write
to a cell int sets the cell's stale flag, and each batch read re-encodes
the flagged cells.  ``from_bytes`` copies the payload's table into the
view and checks it there.  No filter builds its cell ints until its
first scalar read or write, which builds them from the view, so a filter
that is loaded, batch queried and saved never builds them.
``query_many`` hashes and probes a chunk of 2^15 probes at a time and
compares whole wire words: per word, the same test, spelled in place on
the gathered words, checks all the lanes lying wholly inside it, and only
a slot that straddles two words is extracted on its own.  A batch of more
than one chunk runs on up to one thread per usable CPU, each probing a
contiguous run of chunks in its own five chunk-sized uint64 rows and one
bool row (1.28 MiB per worker); the call returns only after every worker
is joined.

``insert_hashed`` takes a global home index in [0, num_cells) and a
fingerprint in [1, 2^fingerprint_bits - 1]; values out of range are a
ValueError and non-integers a TypeError.

When both candidates are full, ``_evict``'s bounded breadth-first search
(Li et al., EuroSys 2014) finds the nearest cell with room and writes the
path itself, root first, each slot swapping its fingerprint for the one
coming in.  It keeps no predecessor map: each level is a plain list of
the neighbours of the level above, with duplicates kept while the budget
cannot cut the level (2(1 + b + ... + b^d) visits through level d) and
first visits only from there on, and the path is read back by position.
Inserts that cannot be placed overflow into a small per-subtable stash
(simplified variant only); when the stash is full too, the insert fails
and the filter is untouched.

Queries never report a stored element as absent.  False positives occur at
a rate bounded by ``2n / (num_cells * (2**fingerprint_bits - 1))``.

A filter instance is not thread-safe for writes; concurrent experiments
should use one instance per worker.  Batch reads refresh the view, so they
write to the instance too, but concurrent readers with no writer stay
safe: a refresh writes the same bytes whoever runs it (see _wire_rows).
query_many's own worker threads only read the view, after the calling
thread has refreshed it.
Instances are plain Python state and move freely between threads or
processes.
"""

import enum
import functools
import os
import struct
import threading
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

# cells encoded per step of a view refresh: each step's per-cell bytes
# objects stay near 64 KiB (2^15-cell steps peaked at 4 MiB for a 224 KiB view)
_BUILD_CELLS = 1 << 10

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
        # a variant given by value is stored as the enum; an unknown one is a ValueError
        object.__setattr__(self, "variant", Variant(self.variant))
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
        object.__setattr__(self, "seed", bitmatch.as_integer(self.seed, "seed") & hashing.MASK64)

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
    home, fp = _addressing(params)._hash(element)
    return CellIndex(*divmod(home, 1 << params.fingerprint_bits)), fp


def alt_location(location: CellIndex, fingerprint: int, params: FilterParams) -> CellIndex:
    """The other candidate cell for a fingerprint; an involution.

    A location that is not a (subtable, local) pair, a cell outside the
    table or a fingerprint outside [1, 2^f - 1] is a ValueError, a
    non-integer a TypeError.
    """
    addressing = _addressing(params)
    f = params.fingerprint_bits
    if len(location) != 2:
        raise ValueError(f"a cell is (subtable, local), got {location!r}")
    subtable, local = (bitmatch.as_integer(value, "cell index") for value in location)
    if not (0 <= subtable < params.num_subtables and 0 <= local < 1 << f):
        raise ValueError(f"no cell {location} in {params.num_subtables} subtables of {1 << f} cells")
    if not 1 <= (fingerprint := bitmatch.as_integer(fingerprint, "fingerprint")) < (1 << f):
        raise ValueError(f"fingerprint out of range for {f} bits: {fingerprint}")
    index = (subtable << f) | local
    return CellIndex(*divmod(addressing._alt(index, fingerprint), 1 << f))


class _Addressing:
    """Home cell, fingerprint and alternate cell, by global cell index."""

    def __init__(self, params: FilterParams):
        if not isinstance(params, FilterParams):
            raise TypeError(f"params must be a FilterParams, not {type(params).__name__}")
        self.params = params
        f = params.fingerprint_bits
        self._f = f
        self._fp_mask = (1 << f) - 1
        self._n_cells = params.num_cells
        self._simplified = params.variant is Variant.SIMPLIFIED
        self._seed_fp = hashing.derive_seed(params.seed, _STREAM_FP)
        self._seed_home = hashing.derive_seed(params.seed, _STREAM_HOME)
        self._seed_alt = hashing.derive_seed(params.seed, _STREAM_ALT)
        # hash_many's seeds as a column, one per row of its (homes, fps) pass
        self._seeds = np.array([[self._seed_home], [self._seed_fp]], dtype=np.uint64)
        # original-variant offsets per fingerprint: builds repeat each one ~10x
        self._alt_memo: dict[int, int] = {}

    def _hash(self, element: bytes) -> tuple[int, int]:
        if not isinstance(element, (bytes, bytearray)):
            raise TypeError(f"elements must be bytes or bytearray, not {type(element).__name__}")
        home, fp = hashing.hash_bytes(element, self._seed_home, self._seed_fp)
        return home % self._n_cells, fp % self._fp_mask + 1

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
        pair = np.empty((2, values.size), dtype=np.uint64)
        scratch = np.empty((2, min(values.size, hashing._CHUNK)), dtype=np.uint64)
        for start in range(0, values.size, hashing._CHUNK):
            stop = min(start + hashing._CHUNK, values.size)
            self._hash_into(values[start:stop], pair[:, start:stop], scratch[:, : stop - start])
        return pair[0], pair[1]

    def _hash_into(self, values: np.ndarray, pair: np.ndarray, scratch: np.ndarray) -> None:
        """hash_many over a 1-D uint64 array, into the rows of pair (homes, then
        fingerprints); scratch is a buffer of pair's shape.  Both hashes run
        as the two rows of one pass, half the numpy calls of one per row."""
        hashing._hash_into(values, self._seeds, pair, scratch)
        homes, fps = pair
        hashing._remainder_into(homes, self._n_cells, scratch[0])
        hashing._remainder_into(fps, self._fp_mask, scratch[0])
        fps += np.uint64(1)

    def _alt_into(self, homes: np.ndarray, fps: np.ndarray, alts: np.ndarray, scratch: np.ndarray) -> None:
        """Element-wise _alt over uint64 arrays, into alts; scratch is a buffer of their size."""
        if self._simplified:
            np.bitwise_xor(homes, fps, out=alts)
            return
        hashing._hash_into(fps, self._seed_alt, alts, scratch)
        hashing._remainder_into(alts, self._n_cells - 1, scratch)
        alts += np.uint64(1)
        alts ^= homes


# hash_element and alt_location's addressing, derived once per FilterParams
_addressing = functools.lru_cache(maxsize=8)(_Addressing)


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
        # a list slot, a view row, an occupancy byte and a stale flag per
        # cell, refused before a table that size starts to fill the machine
        words = _dense_words_per_block(params.block_size, params.fingerprint_bits)
        need = params.num_cells * (struct.calcsize("P") + 8 * words + 2)
        if need > (memory := os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")):
            raise MemoryError(f"num_cells {params.num_cells} needs {need} bytes, "
                              f"above physical memory {memory}")
        self._block_size = params.block_size
        self._block_words = words
        self._lane_const = bitmatch.make_lane_constant(self._f, params.block_size)
        # query_many's per-word lane constants, and the slots they leave out
        lows = bitmatch.word_lane_constants(self._f, params.block_size)
        self._word_lows = [np.uint64(low) for low in lows]
        self._word_highs = [np.uint64(low << self._f - 1) for low in lows]
        # (word, bit) of each slot that straddles two words
        self._straddling = [divmod(slot * self._f, 64) for slot in range(params.block_size)
                            if slot * self._f % 64 + self._f > 64]
        # None until the first scalar read or write; see _cell_ints
        self._cells: list[int] | None = None
        # one byte per cell: a zero-lane fullness test on the cell int instead fills ~18% slower
        self._occupancy = bytearray(self._n_cells)
        # every write to a cell sets its flag; the next batch read clears it
        self._stale = bytearray(self._n_cells)
        # the wire-table view (see _wire_rows), zero like the empty cells:
        # zero pages cost nothing until a row is written
        self._rows = np.zeros((self._n_cells, words), dtype="<u8")
        self._stashes: list[list[tuple[int, int]]] = [[] for _ in range(params.num_subtables)]
        self._stash_count = 0

    # -- membership ---------------------------------------------------------

    def insert(self, element: bytes) -> InsertOutcome:
        """Insert one copy of an element; duplicates accumulate."""
        # _hash's pair is in range: skip insert_hashed's checks
        return self._place(*self._hash(element))

    def insert_hashed(self, home: int, fingerprint: int) -> InsertOutcome:
        """Insert by precomputed global home cell and fingerprint.

        Exposed so bulk experiments can batch the hashing; behaves exactly
        like insert() for the element that hashed to these values.  home
        is a global cell index in [0, num_cells) and fingerprint lies in
        [1, 2^fingerprint_bits - 1], else ValueError.  numpy integers are
        taken as Python ints; other types, bool too, raise TypeError.  The
        checked pair goes to _place, the slow path insert and insert_many call.
        """
        if type(home) is not int or type(fingerprint) is not int:
            # a numpy fingerprint shifted past bit 63 would wrap to zero
            home, fingerprint = bitmatch.as_integer(home, "home"), bitmatch.as_integer(fingerprint, "fingerprint")
        if not (0 <= home < self._n_cells and 1 <= fingerprint <= self._fp_mask):
            raise ValueError(
                f"need home in [0, {self._n_cells}) and fingerprint in "
                f"[1, {self._fp_mask}], got home={home}, fingerprint={fingerprint}"
            )
        return self._place(home, fingerprint)

    def _place(self, home: int, fingerprint: int) -> InsertOutcome:
        """insert_hashed on an in-range pair; one write, into the home, its alternate or _evict's leaf."""
        occupancy = self._occupancy
        block = self._block_size
        cell = home
        if occupancy[cell] == block:
            cell = alt = self._alt(home, fingerprint)
            if occupancy[cell] == block:
                cell, fingerprint = self._evict(home, alt, fingerprint) or (None, fingerprint)
        if cell is None:
            # FilterParams allows a stash only on the simplified variant
            stash = self._stashes[home >> self._f]
            if len(stash) < self.params.stash_capacity:
                stash.append((self._canonical_local(home, fingerprint), fingerprint))
                self._stash_count += 1
                return InsertOutcome.STASHED
            return InsertOutcome.FAILED
        cells = self._cells or self._cell_ints()
        f = self._f
        stored = cells[cell]
        occ = occupancy[cell]
        slot = occ
        if stored >> occ * f:
            # a delete left a hole below slot occ: fill the lowest
            slot = bitmatch.find_fingerprint(stored, 0, self._lane_const, f)
        # else slots [0, occ) are full and the rest empty: append at occ
        cells[cell] = stored | fingerprint << slot * f
        occupancy[cell] = occ + 1
        self._stale[cell] = 1
        return InsertOutcome.STORED

    def insert_many(self, values: np.ndarray) -> int:
        """Insert 64-bit counters (8-byte LE elements) in order; stop at a failure.

        Equivalent to insert_hashed on each home cell and fingerprint of
        hash_many(values), stopping at the first FAILED: returns how many
        landed, in table or stash, before it (len(values) when all did).
        values are checked as hashing.counter_batch documents, before any
        insert.
        """
        # the cell ints before the hashes: built after, they leave
        # construction's peak RSS 0.6 MiB higher (the allocator places the
        # blocks differently)
        self._cells or self._cell_ints()
        homes, fps = self.hash_many(values)
        # a batch built just for this call is freed here, not held through
        # the loop beside its hashes
        del values
        return self._fill(homes, fps)

    def _fill(self, homes: np.ndarray, fps: np.ndarray) -> int:
        """insert_many's loop over hash_many's home cells and fingerprints.

        Appends in place where it can; a pair the append cannot take goes
        to _place (a hole fill or the eviction search) without
        insert_hashed's checks, since hash_many's pairs are in range.
        Returns how many landed before the first FAILED.
        """
        cells = self._cells or self._cell_ints()
        occupancy = self._occupancy
        stale = self._stale
        block = self._block_size
        f = self._f
        # the simplified alternate inline; the original keeps _alt's offset memo
        simplified, alt = self._simplified, self._alt
        for done, (home, fp) in enumerate(zip(homes.tolist(), fps.tolist())):
            cell = home
            occ = occupancy[cell]
            if occ == block:
                cell = home ^ fp if simplified else alt(home, fp)
                occ = occupancy[cell]
            shift = occ * f
            stored = cells[cell]
            if occ < block and not stored >> shift:
                cells[cell] = stored | fp << shift
                occupancy[cell] = occ + 1
                stale[cell] = 1
                continue
            if self._place(home, fp) is InsertOutcome.FAILED:
                return done
        return len(homes)

    def query(self, element: bytes) -> bool:
        """Membership check: never false for a stored element."""
        home, fp = self._hash(element)
        cells = self._cells or self._cell_ints()
        lane_const, f = self._lane_const, self._f
        if (bitmatch.match_bits(cells[home], fp, lane_const, f)
                or bitmatch.match_bits(cells[self._alt(home, fp)], fp, lane_const, f)):
            return True
        return self._stash_contains(home, fp)

    def query_many(self, values: np.ndarray) -> np.ndarray:
        """Vectorized query over 64-bit counters (8-byte LE elements).

        Equivalent to query(encode_u64(v)) for each v, evaluated with
        numpy on the wire-table view one chunk of 2^15 probes at a time: a
        chunk is hashed, its alternates computed and both cells compared,
        in buffers allocated once per call, so each stays in cache.  Each
        wire word of a probed block is tested for the fingerprint in all
        of its whole lanes at once, with the lane match of bitmatch
        spelled in place; only a slot that straddles two words is extracted
        and compared on its own.

        A batch of more than one chunk is split into contiguous runs of
        chunks, one per usable CPU (``os.sched_getaffinity``) and at most
        one per chunk: the calling thread probes the first run and one
        thread each the others, since numpy's ufuncs and gathers release
        the GIL.  Each worker holds five chunk-sized uint64 rows and one
        bool row (1.28 MiB) and writes only its run's answers, so the
        answers do not depend on the worker count.  The call returns, or
        raises a worker's exception, only after every worker is joined.
        """
        values = hashing.counter_batch(values)
        rows = self._wire_rows()
        hits = np.zeros(values.shape, dtype=bool)
        stash_fps = None
        if self._stash_count:
            # the stashed fingerprints: only a probe with one of them looks in its stash
            stash_fps = np.fromiter({fp for stash in self._stashes for _, fp in stash}, dtype=np.uint64)
        chunk = hashing._CHUNK
        chunks = -(-values.size // chunk)
        workers = min(len(os.sched_getaffinity(0)), chunks) if chunks > 1 else 1
        size = min(values.size, chunk)
        buffers = np.empty((workers, 5, size), dtype=np.uint64)
        found = np.empty((workers, size), dtype=bool)
        # run i is chunks [i * chunks // workers, (i + 1) * chunks // workers)
        bounds = [run * chunks // workers * chunk for run in range(workers + 1)]
        errors = []

        def probe(run):
            start, stop = bounds[run], bounds[run + 1]
            try:
                self._probe(values[start:stop], hits[start:stop], rows, buffers[run], found[run], stash_fps)
            except BaseException as exc:  # re-raised by the calling thread after the join
                errors.append(exc)

        threads = [threading.Thread(target=probe, args=(run,)) for run in range(1, workers)]
        try:
            for thread in threads:
                thread.start()
            probe(0)
        finally:
            for thread in threads:
                if thread.ident is not None:
                    thread.join()
        if errors:
            raise errors[0]
        return hits

    def _probe(self, values: np.ndarray, hits: np.ndarray, rows: np.ndarray, buffers: np.ndarray,
               found: np.ndarray, stash_fps: np.ndarray | None) -> None:
        """query_many over one run of its chunks, ORing the answers into hits.

        buffers holds five uint64 rows and found is one bool row, each at
        least a chunk long; a chunk allocates nothing else unless a probe's
        fingerprint is stashed.  Calls no public function of the library, so
        a tracer that wraps those records no span from a worker thread.
        """
        words = self._block_words
        flat = rows.reshape(-1)
        # word k of cell c is table[k][c * words]: gathers from a contiguous
        # source, as np.take copies a strided column rows[:, k] on every call
        table = [flat[word:] for word in range(words)]
        stride = np.uint64(words)
        for start in range(0, values.size, hashing._CHUNK):
            chunk_values = values[start : start + hashing._CHUNK]
            n = chunk_values.size
            homes, fps, x, flags, alts = buffers[:, :n]
            chunk_hits, match = hits[start : start + n], found[:n]
            self._hash_into(chunk_values, buffers[:2, :n], buffers[2:4, :n])
            if stash_fps is not None:
                for i in np.flatnonzero(np.isin(fps, stash_fps)).tolist():
                    chunk_hits[i] |= self._stash_contains(int(homes[i]), int(fps[i]))
            self._alt_into(homes, fps, alts, x)
            for cells in (homes, alts):
                # cells * words < 2^63: np.take reads the uint64 rows as int64 uncast
                cells *= stride
                cells = cells.view(np.int64)
                for word, shift in self._straddling:
                    np.take(table[word], cells, out=x, mode="clip")
                    np.take(table[word + 1], cells, out=flags, mode="clip")
                    np.equal(self._join_straddle(x, flags, shift), fps, out=match)
                    chunk_hits |= match
                # then each gathered word in place: x = word ^ (fp * low), and
                # (x - low) & ~x & high flags its zero (matching) lanes
                for column, low, high in zip(table, self._word_lows, self._word_highs):
                    np.take(column, cells, out=x, mode="clip")
                    np.multiply(fps, low, out=flags)
                    x ^= flags
                    np.subtract(x, low, out=flags)
                    np.invert(x, out=x)
                    flags &= x
                    flags &= high
                    np.not_equal(flags, 0, out=match)
                    chunk_hits |= match

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
        """Fingerprints held, table slots plus stash entries; the table slots
        are summed off the occupancy bytes on each call, so this, len() and
        load_factor() cost O(num_cells), ~35 µs at 2^16 cells on a Xeon core.
        The sum accumulates in uint32 when the slot count fits, about half
        the time of uint64 (235 against 465 µs at 2^20 cells)."""
        dtype = np.uint32 if self.params.total_slots < 1 << 32 else np.uint64
        return int(np.frombuffer(self._occupancy, np.uint8).sum(dtype=dtype)) + self._stash_count

    @property
    def stash_count(self) -> int:
        return self._stash_count

    def load_factor(self) -> float:
        """Occupied fraction of table slots; stash entries do not count."""
        return (self.stored_count - self._stash_count) / self.params.total_slots

    # -- internals -----------------------------------------------------------

    def _canonical_local(self, cell: int, fingerprint: int) -> int:
        local = cell & self._fp_mask
        return min(local, local ^ fingerprint)

    def _join_straddle(self, low: np.ndarray, high: np.ndarray, shift: int) -> np.ndarray:
        """A slot that starts at bit ``shift`` of one wire word and ends in the next.

        low and high hold those two words of many blocks; the slot's values
        are computed in low, which is returned, and high is overwritten.
        """
        low >>= np.uint64(shift)
        high <<= np.uint64(64 - shift)
        low |= high
        low &= np.uint64(self._fp_mask)
        return low

    def _remove_from_cell(self, cell: int, fingerprint: int) -> bool:
        cells = self._cells or self._cell_ints()
        slot = bitmatch.find_fingerprint(cells[cell], fingerprint, self._lane_const, self._f)
        if slot is None:
            return False
        # the slot holds exactly this fingerprint
        cells[cell] ^= fingerprint << slot * self._f
        self._stale[cell] = 1
        self._occupancy[cell] -= 1
        return True

    def _stash_contains(self, home: int, fingerprint: int) -> bool:
        if not self._stash_count:
            return False
        entry = (self._canonical_local(home, fingerprint), fingerprint)
        return entry in self._stashes[home >> self._f]

    def _evict(self, home: int, alt: int, fingerprint: int) -> tuple[int, int] | None:
        """Bounded breadth-first eviction search from two full candidate cells.

        Finds the leaf, the nearest non-full cell within max_evictions
        visited cells (roots included; the lowest global index on a tie),
        shifts the path one step towards it with ``fingerprint`` taking the
        root's slot, and returns the leaf and the fingerprint it takes; None,
        writing nothing, when the search fails.

        Level d lists the neighbours of every entry of level d - 1 in slot
        order, so entry i came from entry i // b above through slot i % b.
        While the budget cannot cut a level, that is while 2(1 + b + ... +
        b^d) visits through level d fit in it (and in b visits per table
        cell, past which the lists would outgrow the search), a level keeps
        its duplicates: it is listed only when every level above it is full,
        so a duplicate, or a cell met at an earlier level, is full and never
        the leaf, and the first entry of each cell is its first visit.  Once
        the level below may not fit, the search keeps a set of the cells it
        has seen and cuts the level to its first visits.  From there on each
        level is listed ceil(r / b) cells at a time, r being the visits the
        budget has left, and keeps at most r first visits from each part, so
        a small r lists little.  Either way the lowest free entry is the
        leaf, and each step of its path is read back from the position of
        its cell in the neighbours listed from the level above.
        """
        block, f, mask = self._block_size, self._f, self._fp_mask
        cells = self._cells or self._cell_ints()
        occupancy, stale, budget = self._occupancy, self._stale, self.params.max_evictions
        # the simplified alternate inline; the original keeps _alt's offset memo
        simplified, alt_of = self._simplified, self._alt
        roots = sorted((home, alt))
        if budget >= 2 + 2 * block:
            # level 1 without a list: the lowest-index leaf by its first visit
            leaf = self._n_cells
            for root in roots:
                stored = cells[root]
                for slot in range(block):
                    fp = stored & mask
                    neighbor = root ^ fp if simplified else alt_of(root, fp)
                    stored >>= f
                    if neighbor < leaf and occupancy[neighbor] < block:
                        leaf, source, source_slot, moved = neighbor, root, slot, fp
            if leaf < self._n_cells:
                cells[source] ^= (moved ^ fingerprint) << source_slot * f
                stale[source] = 1
                return leaf, moved
            # every neighbour is full: go on level by level, level 1 again as a list
        shifts = range(0, block * f, f)
        bound = min(budget, block * self._n_cells)
        levels = []  # (level, the neighbours listed from it) per level expanded
        level, visits, seen = roots, 2, None
        while level:
            if seen is None and bound < (visits := visits + block * len(level)):
                # the budget may cut the level below: keep first visits only from here on
                seen = set().union(*(above for above, _ in levels))
                level = [cell for cell in level if cell not in seen and not seen.add(cell)]
            # the whole level while it keeps duplicates, then ceil(room / b)
            # cells at a time, so that a part gives at most room first visits
            found, below, start = [], [], 0
            while start < len(level) and (seen is None or (room := budget - len(seen)) > 0):
                part = level if seen is None else level[start : start + -(-room // block)]
                start += len(part)
                if simplified:
                    listed = [cell ^ stored >> shift & mask
                              for cell in part for stored in (cells[cell],) for shift in shifts]
                else:
                    listed = [alt_of(cell, stored >> shift & mask)
                              for cell in part for stored in (cells[cell],) for shift in shifts]
                if seen is None:
                    found = below = listed
                else:
                    found += listed
                    # past a cut the search ends, so seen may take cells beyond it
                    below += [cell for cell in listed if cell not in seen and not seen.add(cell)][:room]
            levels.append((level, found))
            level = below
            # level 1 keeps its duplicates only after the depth-1 scan, which found it full
            unscanned = len(levels) > 1 or seen is not None
            if unscanned and (free := [cell for cell in level if occupancy[cell] < block]):
                leaf = cell = min(free)
                path = []  # (cell, slot) per step, leaf end first
                for above, listed in reversed(levels):
                    index, slot = divmod(listed.index(cell), block)
                    cell = above[index]
                    path.append((cell, slot))
                # root first; the path's cells are distinct, so each read is the original
                for cell, slot in reversed(path):
                    moved = cells[cell] >> slot * f & mask
                    cells[cell] ^= (moved ^ fingerprint) << slot * f
                    stale[cell] = 1
                    fingerprint = moved
                return leaf, fingerprint
        return None

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
        header = _HEADER.pack(
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
        stashes = bytearray()
        for stash in self._stashes:
            stashes += _STASH_COUNT.pack(len(stash))
            for local, fp in stash:
                stashes += _STASH_ENTRY.pack(local, fp)
        # the view's buffer is the wire table, so the join copies it once
        return b"".join((header, self._wire_rows(), stashes))

    @classmethod
    def from_bytes(cls, data: bytes) -> "CuckooFilter":
        """Rebuild a filter from to_bytes() output.

        The wire format carries no planned capacity or eviction budget;
        those come back as the physical slot count and the default.
        """
        if isinstance(data, memoryview):
            if not data.c_contiguous:
                raise TypeError("payload memoryview must be C-contiguous; copy it with bytes() first")
            # lengths and offsets below count bytes, whatever the view's item format
            data = data.cast("B")
        elif not isinstance(data, (bytes, bytearray)):
            raise TypeError(f"payload must be bytes-like, not {type(data).__name__}")
        if len(data) < len(SERIAL_MAGIC):
            raise TruncatedError("payload shorter than the magic prefix")
        magic = bytes(data[: len(SERIAL_MAGIC)])
        if magic != SERIAL_MAGIC:
            raise BadMagicError(f"bad magic {magic!r}, expected {SERIAL_MAGIC!r}")
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
        table_bytes = params.num_cells * _dense_words_per_block(block, f) * 8
        offset = _HEADER.size
        if len(data) < offset + table_bytes:
            raise TruncatedError(
                f"table needs {table_bytes} bytes, got {len(data) - offset}"
            )
        filt = cls(params)
        # one copy of the payload's table, into the filter's view
        table = np.frombuffer(data, dtype="<u8", count=table_bytes // 8, offset=offset)
        filt._rows[:] = table.reshape(filt._rows.shape)
        filt._load_table()
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
        ints = self._cells or self._cell_ints()
        return b"".join([ints[cell].to_bytes(size, "little") for cell in cells])

    def _cell_ints(self) -> list[int]:
        """Build the cell ints from the wire-table view.

        A new filter, like one from ``from_bytes``, leaves them unbuilt, and
        every reader takes ``self._cells or self._cell_ints()``, so they are
        built on the first scalar read or write.  Until then no cell has been
        written, so the view holds the whole table, and racing first readers
        each build an equal list from it.  An empty table, as every new
        filter has (all occupancy bytes zero), needs no read of the view.

        Up to two words per block, one list pass per word joins the ints;
        wider blocks are read whole, one ``int.from_bytes`` per row, since
        the word passes grow with the width (61 against 15 ms at b=32,
        f=16 and 1,234 against 47 ms at b=255, f=16, 2^16 cells).
        """
        if not np.frombuffer(self._occupancy, np.uint8).any():
            cells = [0] * self._n_cells
        elif self._block_words <= 2:
            # word k of a block holds its bits [64k, 64k + 64)
            cells = self._rows[:, 0].tolist()
            for word in range(1, self._block_words):
                shift = 64 * word
                cells = [cell | high << shift for cell, high in zip(cells, self._rows[:, word].tolist())]
        else:
            # a row's little-endian words are the block's bytes, low first
            size = 8 * self._block_words
            table = self._rows.tobytes()
            cells = [int.from_bytes(table[start : start + size], "little")
                     for start in range(0, len(table), size)]
        self._cells = cells
        return cells

    def _wire_rows(self) -> np.ndarray:
        """The wire-table view, brought up to date with the cell ints.

        Re-encodes flagged cells a chunk at a time, writing rows before
        clearing flags, so a racing reader sees either the flag or the row.
        """
        rows = self._rows
        if 1 not in self._stale:
            return rows  # a memchr, ~12x faster than the numpy scan below
        flags = np.frombuffer(self._stale, dtype=np.uint8)
        cells = np.flatnonzero(flags != 0)  # a snapshot: racing readers clear flags as it is scanned
        for start in range(0, cells.size, _BUILD_CELLS):
            part = cells[start : start + _BUILD_CELLS]
            table = self._table_bytes(part.tolist())
            rows[part] = np.frombuffer(table, dtype="<u8").reshape(part.size, -1)
            flags[part] = 0
        return rows

    def _load_table(self) -> None:
        """Check the padding bits of the wire-table view; derive occupancy from it."""
        columns = [self._rows[:, word] for word in range(self._block_words)]
        used = self._block_size * self._f - 64 * (self._block_words - 1)
        if used < 64:
            padded = np.flatnonzero(columns[-1] >> np.uint64(used))
            if padded.size:
                raise SerializationError(f"nonzero padding bits in block {padded[0]}")
        occupancy = np.zeros(self._n_cells, dtype=np.uint8)
        # per word, the top bit of each nonzero whole lane: with L and H a
        # lane's bottom and top bits, its low bits plus H - L reach its top
        # bit iff they are nonzero, and | x adds the top bit itself
        for x, low, high in zip(columns, self._word_lows, self._word_highs):
            if low:
                t = x & ~high
                t += high - low
                t |= x
                t &= high
                occupancy += np.bitwise_count(t)
        for word, shift in self._straddling:
            occupancy += self._join_straddle(columns[word].copy(), columns[word + 1].copy(), shift) != 0
        self._occupancy = bytearray(occupancy.tobytes())

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
