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

The numpy batch path cannot do that: a uint64 loses the carry out of a
lane that ends at bit 63, so a full 64-bit word would hide a match in its
top lane.  It uses the borrow form of the same test instead, the "has zero
lane" trick of the reference cuckoo filter (Fan et al., CoNEXT 2014) and
of "Bit Twiddling Hacks".  With L the lane constant of one word
(``word_lane_constants``) and H = L << (width - 1) the top bit of each
lane:

1. ``x = word ^ (fingerprint * L)`` turns every matching lane into zero.
2. ``(x - L) & ~x & H`` is nonzero iff some lane of x is zero: lanes
   below the lowest zero lane are nonzero, so they absorb their
   subtracted 1 without a borrow, and the zero lane turns all-ones,
   flagging its top bit; a nonzero lane with no borrow coming in never
   flags, since ``~x`` clears any top bit that x itself set.

A borrow out of a zero lane can flag the lane above it spuriously, so
only "any flag" is meaningful, which is all a membership test needs.
A borrow out of the top lane lands in bits that no flag covers.
Empty lanes (zero) never match, because fingerprints are at least 1.
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


def word_lane_constants(width: int, lanes: int) -> list[int]:
    """Lane constant of each 64-bit word of ``lanes`` densely packed lanes.

    Word k holds bits [64k, 64k + 64) of the block.  Its constant has one
    bit at the bottom of each lane lying wholly inside the word, at that
    lane's offset within the word; a lane that straddles two words is in
    neither constant (zero for a word that holds only such lanes).
    """
    constants = [0] * ((lanes * width + 63) // 64)
    for lane in range(lanes):
        word, shift = divmod(lane * width, 64)
        if shift + width <= 64:
            constants[word] |= 1 << shift
    return constants


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
