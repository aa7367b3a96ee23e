"""Branch-free fingerprint search across the lanes of a packed block.

A block of small fingerprints is stored as contiguous ``width``-bit lanes,
lane i at bits [i * width, (i + 1) * width) of one integer.  Matching a
fingerprint against every lane at once uses the "has zero lane" test of
the reference cuckoo filter (Fan et al., CoNEXT 2014) and of "Bit
Twiddling Hacks" instead of a per-lane loop.  With L the lane constant
(one bit at the bottom of each lane) and H = L << (width - 1) the top bit
of each lane:

1. ``x = word ^ (fingerprint * L)`` turns every matching lane into zero.
2. ``(x - L) & ~x & H`` flags the top bit of each zero lane: lanes below
   the lowest zero lane are nonzero, so they absorb their subtracted 1
   without a borrow, and the zero lane turns all-ones; a nonzero lane with
   no borrow coming in never flags, since ``~x`` clears any top bit that
   x itself set.

A borrow out of a zero lane can flag the lane above it spuriously, but
never one below, so the lowest flag always marks the first matching lane.
A borrow out of the top lane lands in bits that no flag covers.  Empty
lanes (zero) never match a fingerprint, which is at least 1; searching
for 0 finds the lowest empty lane.

The same expression runs on Python ints, which have no word size, so a
block of any number of lanes is matched in one call, and on numpy uint64
arrays of full 64-bit words, where every wrap lands outside the flags
(``query_many`` takes each word's L from ``word_lane_constants``).
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
    """Top bit of each zero lane of ``word ^ fingerprint * lane_constant``.

    Bit ``(i + 1) * width - 1`` is set when lane ``i`` matches
    ``fingerprint`` (or, above a matching lane, took its borrow).  Zero
    means no lane matches.
    """
    x = word ^ fingerprint * lane_constant
    return (x - lane_constant) & ~x & lane_constant << width - 1


def find_fingerprint(word: int, fingerprint: int, lane_constant: int, width: int) -> int | None:
    """Index of the lowest lane equal to ``fingerprint``, or None."""
    r = match_bits(word, fingerprint, lane_constant, width)
    if r == 0:
        return None
    return ((r & -r).bit_length() - 1) // width


def check_width(width: int) -> None:
    """Refuse a fingerprint (lane) width outside [MIN_WIDTH, MAX_WIDTH]."""
    if not MIN_WIDTH <= as_integer(width, "fingerprint width") <= MAX_WIDTH:
        raise ValueError(f"fingerprint width must be in [{MIN_WIDTH}, {MAX_WIDTH}], got {width}")


def as_integer(value, name: str) -> int:
    """``value`` through ``operator.index`` (numpy integers pass), else a
    TypeError naming it; a bool, which ``operator.index`` reads as 0 or 1,
    is refused too."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{name} must be an integer, not {type(value).__name__}")
