"""Seeded 64-bit hashing used for cell addressing and fingerprints.

Everything here is built on a splitmix64-style finalizer: cheap, seedable,
and with full avalanche on all 64 output bits.  Byte strings are folded in
8-byte little-endian chunks, and the input length is mixed in last so that
trailing zero bytes change the hash.

The ``*_many`` variants run the identical arithmetic on numpy uint64 arrays
(wrapping multiplication matches the scalar mod-2^64 behaviour bit for bit);
they exist so experiments can hash millions of elements without a Python
loop per element.
"""

import numpy as np

MASK64 = (1 << 64) - 1

_GOLDEN = 0x9E3779B97F4A7C15
_MULT1 = 0xBF58476D1CE4E5B9
_MULT2 = 0x94D049BB133111EB

_GOLDEN_U64 = np.uint64(_GOLDEN)
_MULT1_U64 = np.uint64(_MULT1)
_MULT2_U64 = np.uint64(_MULT2)


def mix64(value: int) -> int:
    """Bijective 64-bit scramble (splitmix64 increment + finalizer)."""
    z = (value + _GOLDEN) & MASK64
    z = ((z ^ (z >> 30)) * _MULT1) & MASK64
    z = ((z ^ (z >> 27)) * _MULT2) & MASK64
    return z ^ (z >> 31)


def hash_bytes(data: bytes, seed: int) -> int:
    """Hash an arbitrary byte string to a uniform 64-bit value."""
    h = seed & MASK64
    for i in range(0, len(data), 8):
        h = mix64(h ^ int.from_bytes(data[i : i + 8], "little"))
    return mix64(h ^ len(data))


def hash_u64(value: int, seed: int) -> int:
    """Hash one 64-bit value; equals hash_bytes() of its 8-byte LE encoding."""
    return mix64(mix64((seed ^ value) & MASK64) ^ 8)


def hash_u64_many(values: np.ndarray, seed: int) -> np.ndarray:
    """Vectorized hash_u64 over a uint64 array."""
    v = np.asarray(values, dtype=np.uint64)
    h = _mix64_many(v ^ np.uint64(seed))
    return _mix64_many(h ^ np.uint64(8))


def _mix64_many(z: np.ndarray) -> np.ndarray:
    z = z + _GOLDEN_U64
    z = (z ^ (z >> np.uint64(30))) * _MULT1_U64
    z = (z ^ (z >> np.uint64(27))) * _MULT2_U64
    return z ^ (z >> np.uint64(31))


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
