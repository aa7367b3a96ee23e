"""Seeded 64-bit hashing used for cell addressing and fingerprints.

Everything here is built on a splitmix64-style finalizer: cheap, seedable,
and with full avalanche on all 64 output bits.  Byte strings are folded in
8-byte little-endian chunks, and the input length is mixed in last so that
trailing zero bytes change the hash.

``hash_bytes`` hashes a byte string under two seeds at once, as one scalar
operation needs a home cell and a fingerprint: the two chains run as the
128-bit lanes of one Python int, lane a at bits [0, 128) and lane b at
[128, 256), so each step of the chain is one big-int operation over both.
A lane keeps its 64-bit value in its low half, and no step lets one lane
reach the other's value.  A right shift (by at most 31) moves lane b's
low bits into lane a's high half, at bit 97 or above.  An addition to a
lane's value carries at most into bit 64 of the lane, which no shift
reaches.  The mask ``MASK64`` per lane clears both high halves after each
addition and before each multiply, and the product of a masked lane and a
64-bit constant stays below bit 128 of its lane.  So each lane equals the
one-seed chain bit for bit.  An 8-byte input, the encoding of every
64-bit counter (``encode_u64``), runs its one word and its length as
straight-line code, without the loop over words.

The ``*_many`` variants run the identical arithmetic on numpy uint64 arrays
(wrapping multiplication matches the scalar mod-2^64 behaviour bit for bit);
they exist so experiments can hash millions of elements without a Python
loop per element.  They work through a batch in chunks of ``_CHUNK``
values, in place: each chunk's arithmetic runs on vectors that stay in
cache, rather than streaming a batch-sized temporary through memory per
step.
"""

import numpy as np

MASK64 = (1 << 64) - 1

_GOLDEN = 0x9E3779B97F4A7C15
_MULT1 = 0xBF58476D1CE4E5B9
_MULT2 = 0x94D049BB133111EB

# hash_bytes' two-lane forms: a value times _LANES sits in both lanes
_LANES = 1 << 128 | 1
_MASK_LANES = MASK64 * _LANES
_GOLDEN_LANES = _GOLDEN * _LANES
_EIGHT_LANES = 8 * _LANES

_GOLDEN_U64 = np.uint64(_GOLDEN)
_MULT1_U64 = np.uint64(_MULT1)
_MULT2_U64 = np.uint64(_MULT2)

# values per chunk of the batch kernels (hash_u64_many, remainder_in_place
# and CuckooFilter.query_many): a chunk's few working vectors, 256 KiB each
# as uint64, stay in L2 cache
_CHUNK = 1 << 15


def mix64(value: int) -> int:
    """Bijective 64-bit scramble (splitmix64 increment + finalizer)."""
    z = (value + _GOLDEN) & MASK64
    z = ((z ^ (z >> 30)) * _MULT1) & MASK64
    z = ((z ^ (z >> 27)) * _MULT2) & MASK64
    return z ^ (z >> 31)


def hash_bytes(data: bytes, seed_a: int, seed_b: int) -> tuple[int, int]:
    """Hash an arbitrary byte string to two uniform 64-bit values, one per seed.

    Each value is the chain h = mix64(h ^ word) over the 8-byte LE words of
    data from h = seed, closed by mix64(h ^ len(data)); both chains run as
    the two lanes of one int (see the module docstring).
    """
    z = (seed_a & MASK64) | (seed_b & MASK64) << 128
    n = len(data)
    if n == 8:
        # encode_u64's length, the library's own elements: one word, then the length
        z = (z ^ int.from_bytes(data, "little") * _LANES) + _GOLDEN_LANES & _MASK_LANES
        z ^= z >> 30
        z = (z & _MASK_LANES) * _MULT1 & _MASK_LANES
        z ^= z >> 27
        z = (z & _MASK_LANES) * _MULT2 & _MASK_LANES
        z ^= z >> 31
        z = (z ^ _EIGHT_LANES) + _GOLDEN_LANES & _MASK_LANES
        z ^= z >> 30
        z = (z & _MASK_LANES) * _MULT1 & _MASK_LANES
        z ^= z >> 27
        z = (z & _MASK_LANES) * _MULT2 & _MASK_LANES
        z ^= z >> 31
        return z & MASK64, z >> 128
    for i in range(0, n + 8, 8):
        # the words of data, then its length as the closing word
        word = int.from_bytes(data[i : i + 8], "little") if i < n else n
        z = (z ^ word * _LANES) + _GOLDEN_LANES & _MASK_LANES
        z ^= z >> 30
        z = (z & _MASK_LANES) * _MULT1 & _MASK_LANES
        z ^= z >> 27
        z = (z & _MASK_LANES) * _MULT2 & _MASK_LANES
        z ^= z >> 31
    return z & MASK64, z >> 128


def hash_u64(value: int, seed: int) -> int:
    """Hash one 64-bit value; equals hash_bytes() of its 8-byte LE encoding under this seed."""
    return mix64(mix64((seed ^ value) & MASK64) ^ 8)


def hash_u64_many(values: np.ndarray, seed: int) -> np.ndarray:
    """Vectorized hash_u64 over a uint64 array, element-wise in its shape."""
    values = np.asarray(values, dtype=np.uint64)
    out = np.empty(values.shape, dtype=np.uint64)
    flat_values, flat_out = values.reshape(-1), out.reshape(-1)  # flat_out is a view of out
    scratch = np.empty(min(values.size, _CHUNK), dtype=np.uint64)
    seed = np.uint64(seed)
    for start in range(0, values.size, _CHUNK):
        z = flat_out[start : start + _CHUNK]
        np.bitwise_xor(flat_values[start : start + _CHUNK], seed, out=z)
        _mix64_in_place(z, scratch[: z.size])
        z ^= np.uint64(8)
        _mix64_in_place(z, scratch[: z.size])
    return out


def _mix64_in_place(z: np.ndarray, scratch: np.ndarray) -> None:
    """mix64 over z, overwriting it; scratch is a buffer of z's size."""
    z += _GOLDEN_U64
    np.right_shift(z, np.uint64(30), out=scratch)
    z ^= scratch
    z *= _MULT1_U64
    np.right_shift(z, np.uint64(27), out=scratch)
    z ^= scratch
    z *= _MULT2_U64
    np.right_shift(z, np.uint64(31), out=scratch)
    z ^= scratch


def remainder_in_place(values: np.ndarray, divisor: int) -> np.ndarray:
    """``values %= divisor`` over a 1-D uint64 array, in place; returns values.

    numpy's uint64 ``%`` runs a hardware division per element, while ``//``
    by one scalar divides by a precomputed multiply and shift, so the
    remainder is taken as ``v - (v // d) * d``: about a third of the time
    of ``%`` on a chunk.  The product never exceeds v, so this is exact for
    any divisor in [1, 2^64).  A power-of-two divisor, such as the cell
    count of a table with power-of-two subtables, is a mask instead.
    """
    if not divisor & (divisor - 1):
        values &= np.uint64(divisor - 1)
        return values
    divisor = np.uint64(divisor)
    quotient = np.empty(min(values.size, _CHUNK), dtype=np.uint64)
    for start in range(0, values.size, _CHUNK):
        v = values[start : start + _CHUNK]
        q = quotient[: v.size]
        np.floor_divide(v, divisor, out=q)
        q *= divisor
        v -= q
    return values


def derive_seed(seed: int, index: int) -> int:
    """Independent sub-seed for stream ``index`` of a master seed."""
    return hash_u64(index, seed)


def encode_u64(value: int) -> bytes:
    """Canonical 8-byte little-endian encoding of a 64-bit counter."""
    return value.to_bytes(8, "little")


def counter_batch(values) -> np.ndarray:
    """A batch of 64-bit counters, each standing for its encode_u64 bytes, as 1-D uint64.

    A uint64 array is checked in O(1) and used as is; other integer arrays
    and sequences of ints are range-checked and converted.  Another number
    of dimensions or a value outside [0, 2^64) is a ValueError; bools,
    floats and strings are a TypeError.
    """
    if not isinstance(values, np.ndarray):
        # object dtype keeps Python ints exact; numpy would make [1, 2**63] floats
        values = np.array(values, dtype=object)
    if values.ndim != 1:
        raise ValueError(f"counters must be a 1-D batch, got {values.ndim} dimensions")
    kind = values.dtype.kind
    if not (kind in "iu" or kind == "O" and all(type(v) is int or isinstance(v, np.integer) for v in values)):
        raise TypeError(f"counters must be integers, not {values.dtype} elements")
    if kind != "u" and values.size and not 0 <= values.min() <= values.max() <= MASK64:
        raise ValueError("counters must lie in [0, 2^64)")
    return values.astype(np.uint64, copy=False)
