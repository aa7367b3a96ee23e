"""Lane matching against the loop oracle, exhaustively and randomized."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import find_fingerprint_many, lanes_per_word, match_bits_many
from sckf import bitmatch


def pack_cell(values, width: int) -> int:
    """Pack a slot sequence densely into one int, slot k at bits k * width."""
    cell = 0
    for k, value in enumerate(values):
        cell |= value << (k * width)
    return cell


def test_lane_constant_examples():
    assert bitmatch.make_lane_constant(4, 4) == 0x1111
    assert bitmatch.make_lane_constant(8, 7) == 0x01010101010101
    assert bitmatch.make_lane_constant(16, 1) == 0x1
    assert bitmatch.make_lane_constant(2, 31) == int("01" * 31, 2)


def test_lane_constant_rejects_bad_geometry():
    with pytest.raises(ValueError):
        bitmatch.make_lane_constant(1, 1)
    with pytest.raises(ValueError):
        bitmatch.make_lane_constant(33, 1)
    with pytest.raises(ValueError):
        bitmatch.make_lane_constant(4, 0)


def test_worked_example_carry_bits():
    # word 0x3073 holds lanes [3, 7, 0, 3]; searching 0x3 carries out of
    # lanes 0 and 3, so bits 4 and 16 are set and the first match is lane 0
    constant = bitmatch.make_lane_constant(4, 4)
    assert bitmatch.match_bits(0x3073, 0x3, constant, 4) == (1 << 4) | (1 << 16)
    assert bitmatch.find_fingerprint(0x3073, 0x3, constant, 4) == 0


def test_empty_word_never_matches():
    for width in (2, 4, 8, 16, 31):
        lanes = lanes_per_word(width)
        constant = bitmatch.make_lane_constant(width, lanes)
        for fp in (1, (1 << width) - 1):
            assert bitmatch.find_fingerprint(0, fp, constant, width) is None


@pytest.mark.parametrize("width,max_lanes", [(2, 3), (3, 3), (4, 2)])
def test_exhaustive_small_geometries(width, max_lanes):
    for lanes in range(1, max_lanes + 1):
        constant = bitmatch.make_lane_constant(width, lanes)
        for word in range(1 << (lanes * width)):
            for fp in range(1, 1 << width):
                assert bitmatch.find_fingerprint(word, fp, constant, width) == bitmatch.naive_find(
                    word, fp, width, lanes
                )


def test_carry_bits_confined_to_lane_boundaries():
    rng = np.random.default_rng(11)
    for width in (3, 5, 8, 13):
        lanes = lanes_per_word(width)
        constant = bitmatch.make_lane_constant(width, lanes)
        boundary_mask = constant << width
        words = rng.integers(0, 1 << (lanes * width), size=2000, dtype=np.uint64)
        fps = rng.integers(1, 1 << width, size=2000, dtype=np.uint64)
        for word, fp in zip(words.tolist(), fps.tolist()):
            r = bitmatch.match_bits(word, fp, constant, width)
            assert r & ~boundary_mask == 0


@settings(max_examples=300, deadline=None)
@given(data=st.data(), width=st.sampled_from([2, 3, 4, 6, 8, 12, 16, 21, 31]))
def test_find_matches_naive_property(data, width):
    lanes = lanes_per_word(width)
    constant = bitmatch.make_lane_constant(width, lanes)
    word = data.draw(st.integers(min_value=0, max_value=(1 << (lanes * width)) - 1))
    fp = data.draw(st.integers(min_value=1, max_value=(1 << width) - 1))
    assert bitmatch.find_fingerprint(word, fp, constant, width) == bitmatch.naive_find(
        word, fp, width, lanes
    )


def test_find_in_words_returns_lowest_slot():
    # ten 8-bit slots span 80 bits of one int, past any 64-bit word
    width = 8
    constant = bitmatch.make_lane_constant(width, 10)
    slots = [0] * 10
    slots[9] = 0xAB
    cell = pack_cell(slots, width)
    assert cell.bit_length() > 64
    assert bitmatch.find_fingerprint(cell, 0xAB, constant, width) == 9
    assert bitmatch.find_fingerprint(cell, 0, constant, width) == 0
    slots[2] = 0xAB
    cell = pack_cell(slots, width)
    assert bitmatch.find_fingerprint(cell, 0xAB, constant, width) == 2
    assert bitmatch.find_fingerprint(cell, 0xCD, constant, width) is None


@settings(max_examples=300, deadline=None)
@given(data=st.data(), geometry=st.sampled_from([(8, 16), (7, 10)]))
def test_find_matches_naive_on_dense_multiword_cells(data, geometry):
    lanes, width = geometry
    constant = bitmatch.make_lane_constant(width, lanes)
    slots = data.draw(st.lists(st.integers(0, (1 << width) - 1), min_size=lanes, max_size=lanes))
    fp = data.draw(st.one_of(st.sampled_from(slots), st.integers(0, (1 << width) - 1)))
    cell = pack_cell(slots, width)
    assert bitmatch.find_fingerprint(cell, fp, constant, width) == bitmatch.naive_find(
        cell, fp, width, lanes
    )


def test_lane_read_write_clear():
    width = 6
    word = 0
    word = bitmatch.write_lane(word, 0, width, 9)
    word = bitmatch.write_lane(word, 3, width, 33)
    assert word == 9 | (33 << 18)
    word = bitmatch.write_lane(word, 3, width, 5)
    assert word == 9 | (5 << 18)
    word = bitmatch.write_lane(word, 0, width, 0)
    assert word == 5 << 18


# -- the numpy matcher and lane count in conftest (test-only oracles) --------

def test_lanes_per_word_leaves_carry_room():
    for width in range(2, 33):
        lanes = lanes_per_word(width)
        assert lanes * width <= 63
        assert (lanes + 1) * width > 63


def test_match_bits_many_keeps_carry_budget():
    with pytest.raises(ValueError):
        # 64 bits leave no carry room inside a uint64 word
        match_bits_many(
            np.zeros(1, dtype=np.uint64), np.ones(1, dtype=np.uint64),
            bitmatch.make_lane_constant(4, 16), 4,
        )


def test_vectorized_forms_match_scalar():
    rng = np.random.default_rng(7)
    for width in (4, 8, 12, 16, 31):
        lanes = lanes_per_word(width)
        constant = bitmatch.make_lane_constant(width, lanes)
        words = rng.integers(0, 1 << (lanes * width), size=5000, dtype=np.uint64)
        fps = rng.integers(1, 1 << width, size=5000, dtype=np.uint64)
        batch = find_fingerprint_many(words, fps, constant, width)
        for i in range(words.size):
            scalar = bitmatch.find_fingerprint(int(words[i]), int(fps[i]), constant, width)
            assert batch[i] == (-1 if scalar is None else scalar)
            scalar_bits = bitmatch.match_bits(int(words[i]), int(fps[i]), constant, width)
            assert (scalar_bits != 0) == (batch[i] >= 0)
