"""Branch-free fingerprint search across the lanes of a packed block.

A block of small fingerprints is stored as contiguous ``width``-bit lanes,
lane i at bits [i * width, (i + 1) * width) of one integer.  Matching a
fingerprint against every lane at once uses a four-step carry trick
instead of a per-lane loop:

1. Broadcast the complement of the sought fingerprint to every lane by
   multiplying it with the lane constant F (one bit set per lane).  XOR
   with the word turns every matching lane into all-ones.
2. Add F.  Each all-ones lane overflows and sends a carry into the bit
   just above the lane.
3. ``(q + F) ^ q ^ F`` isolates the positions where the addition carried,
   i.e. the bits that differ from the carry-free sum.
4. Mask with ``F << width`` to keep only the carry bit above each lane;
   the lowest set bit then marks the first matching lane.

A carry out of a matching lane can ripple through a directly adjacent lane
whose value differs from the target only in its lowest bit, setting a
spurious carry bit *above* the true match.  The lowest set bit is always a
genuine match, so first-match semantics are unaffected.

The functions take Python ints, which have no word size, so a block of
any number of lanes is matched in one call: the top lane's carry bit
simply lands above it.
"""

import operator

MIN_WIDTH = 2
MAX_WIDTH = 32


def make_lane_constant(width: int, lanes: int) -> int:
    """Constant with a single 1 bit at the bottom of each of ``lanes`` lanes."""
    check_width(width)
    if lanes < 1:
        raise ValueError(f"need at least one lane, got {lanes}")
    return sum(1 << (i * width) for i in range(lanes))


def match_bits(word: int, fingerprint: int, lane_constant: int, width: int) -> int:
    """Carry bits of the lane-match addition, masked to lane boundaries.

    Bit ``(i + 1) * width`` is set when lane ``i`` matches ``fingerprint``
    (or received a carry rippling up from a lower matching lane).  Zero
    means no lane matches.
    """
    ones = (1 << width) - 1
    q = word ^ ((fingerprint ^ ones) * lane_constant)
    return ((q + lane_constant) ^ q ^ lane_constant) & (lane_constant << width)


def find_fingerprint(word: int, fingerprint: int, lane_constant: int, width: int) -> int | None:
    """Index of the lowest lane equal to ``fingerprint``, or None."""
    r = match_bits(word, fingerprint, lane_constant, width)
    if r == 0:
        return None
    low = r & -r
    return (low.bit_length() - 1) // width - 1


def naive_find(word: int, fingerprint: int, width: int, lanes: int) -> int | None:
    """Loop-based reference for find_fingerprint."""
    ones = (1 << width) - 1
    for i in range(lanes):
        if (word >> (i * width)) & ones == fingerprint:
            return i
    return None


def write_lane(word: int, lane: int, width: int, value: int) -> int:
    """``word`` with lane ``lane`` overwritten by ``value`` (0 empties it)."""
    shift = lane * width
    return (word & ~(((1 << width) - 1) << shift)) | (value << shift)


def check_width(width: int) -> None:
    """Refuse a fingerprint (lane) width outside [MIN_WIDTH, MAX_WIDTH]."""
    if not MIN_WIDTH <= as_integer(width, "fingerprint width") <= MAX_WIDTH:
        raise ValueError(f"fingerprint width must be in [{MIN_WIDTH}, {MAX_WIDTH}], got {width}")


def as_integer(value, name: str) -> int:
    """``value`` through ``operator.index`` (numpy integers pass), else a TypeError naming it."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, not {type(value).__name__}") from None
