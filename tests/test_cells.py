import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddnsim import (
    ConfigError,
    RunConfig,
    gen_fill_word,
    gen_uniform_word,
    gen_upward_word,
    TraceError,
    max_level,
    parse_trace,
    synthetic_trace,
    word_from_hex,
)
from ddnsim.cells import _draws, hex_digits


def _upward(level, bits_per_cell, rng):
    """One cell's upward overwrite: a one-cell word."""
    return gen_upward_word(bytes((level,)), bits_per_cell, rng)[0]


def _reachable(level, bits_per_cell):
    """Every level an upward overwrite of a cell at ``level`` can draw."""
    first, n, _ = _draws(bits_per_cell)[0][level]
    return set(range(first, first + n))


def _aligned_cells(bits_per_cell):
    """The fewest cells whose width is a whole number of hex digits."""
    return 4 // math.gcd(4, bits_per_cell)


def _shift_mask_reference(value, cells, bits_per_cell):
    """Cell i is the i-th most significant bits_per_cell bits of the value."""
    mask = (1 << bits_per_cell) - 1
    return bytes(value >> (cells - 1 - i) * bits_per_cell & mask for i in range(cells))


@given(st.integers(1, 8).flatmap(lambda b: st.tuples(st.just(b), st.integers(0, 2**b - 1))))
def test_encode_decode_bijection(pair):
    """A level survives the hex codec in every cell of an aligned word."""
    b, level = pair
    cells = _aligned_cells(b)
    for position in range(cells):
        value = level << (cells - 1 - position) * b
        assert word_from_hex(f"0x{value:0{cells * b // 4}X}", cells, b) == bytes(
            level if i == position else 0 for i in range(cells))


def test_bijection_exhaustive_small_widths():
    for b in range(1, 5):
        cells = _aligned_cells(b)
        values = range(2 ** (cells * b))
        words = [word_from_hex(f"0x{value:0{cells * b // 4}X}", cells, b) for value in values]
        assert words == [_shift_mask_reference(value, cells, b) for value in values]
        assert len(set(words)) == len(words)


def test_available_levels_examples():
    assert _reachable(4, 3) == {5, 6, 7}
    assert _reachable(7, 3) == {7}  # the top level stays
    assert _reachable(0, 3) == {1, 2, 3, 4, 5, 6, 7}


@given(st.integers(1, 8).flatmap(lambda b: st.tuples(st.just(b), st.integers(0, 2**b - 1))))
def test_available_levels_cardinality(pair):
    b, level = pair
    top = max_level(b)
    assert _reachable(level, b) == (set(range(level + 1, top + 1)) or {top})


def test_upward_random_stays_within_available():
    rng = random.Random(1234)
    for _ in range(2000):
        assert _upward(4, 3, rng) in {5, 6, 7}


def test_upward_random_top_level_maintained():
    rng = random.Random(5)
    assert all(_upward(7, 3, rng) == 7 for _ in range(1000))


@given(
    st.integers(1, 6).flatmap(lambda b: st.tuples(st.just(b), st.integers(0, 2**b - 1))),
    st.integers(0, 2**32 - 1),
)
def test_upward_random_monotone(pair, seed):
    b, level = pair
    out = _upward(level, b, random.Random(seed))
    assert out >= level
    assert (out == level) == (level == max_level(b))


def test_upward_random_uniform_band():
    # each of the three available levels should appear ~1/3 of the time
    rng = random.Random(99)
    draws = 80_000
    counts = Counter(_upward(4, 3, rng) for _ in range(draws))
    assert set(counts) == {5, 6, 7}
    for level in (5, 6, 7):
        assert abs(counts[level] / draws - 1 / 3) < 0.02


@pytest.mark.parametrize(
    "original,critical",
    [(4, 9.210), (0, 16.812)],  # chi-square at p=0.01 for df=2 and df=6
)
def test_upward_random_chi_square(original, critical):
    rng = random.Random(4321)
    choices = range(original + 1, 8)
    draws = 10_000
    counts = Counter(_upward(original, 3, rng) for _ in range(draws))
    expected = draws / len(choices)
    stat = sum((counts[c] - expected) ** 2 / expected for c in choices)
    assert stat < critical


def test_upward_word_all_max_is_identity():
    word = bytes((7, 7, 7, 7))
    assert gen_upward_word(word, 3, random.Random(0)) == word


def test_upward_word_all_zero_strictly_raises():
    out = gen_upward_word(bytes((0, 0, 0, 0)), 3, random.Random(0))
    assert len(out) == 4
    assert all(1 <= level <= 7 for level in out)


@given(
    st.lists(st.integers(0, 7), min_size=1, max_size=32),
    st.integers(0, 2**32 - 1),
)
def test_upward_word_length_and_monotonicity(levels, seed):
    original = bytes(levels)
    out = gen_upward_word(original, 3, random.Random(seed))
    assert len(out) == len(original)
    for before, after in zip(original, out):
        assert after >= before
        assert (after == before) == (before == 7)


def test_upward_word_unchanged_fraction_matches_enumeration():
    # oracle: a uniform cell survives the overwrite iff it sits at the top
    b = 3
    expected = sum(1 for level in range(2**b) if level == max_level(b)) / 2**b
    rng = random.Random(7)
    cells = 100_000
    original = bytes(rng.randint(0, 7) for _ in range(cells))
    out = gen_upward_word(original, b, rng)
    unchanged = sum(1 for a, c in zip(original, out) if a == c)
    assert abs(unchanged / cells - expected) < 0.01


def test_uniform_word_covers_full_range():
    rng = random.Random(11)
    out = gen_uniform_word(10_000, 3, rng)
    assert set(out) == set(range(8))


def _randint_upward(word, bits_per_cell, rng):
    """The per-cell randint generator the getrandbits draws replaced."""
    top = max_level(bits_per_cell)
    return bytes(level if level == top else rng.randint(level + 1, top) for level in word)


def _randint_uniform(cells, bits_per_cell, rng):
    return bytes(rng.randint(0, max_level(bits_per_cell)) for _ in range(cells))


@settings(max_examples=400)
@given(
    st.integers(1, 8).flatmap(
        lambda b: st.tuples(
            st.just(b), st.lists(st.integers(0, 2**b - 1), min_size=1, max_size=24)
        )
    ),
    st.integers(0, 2**64 - 1),
)
def test_generators_draw_the_randint_stream(pair, seed):
    """Same words as a per-cell randint, and the same generator state after."""
    b, levels = pair
    word = bytes(levels)
    ours, reference = random.Random(seed), random.Random(seed)
    assert gen_upward_word(word, b, ours) == _randint_upward(word, b, reference)
    assert ours.getstate() == reference.getstate()
    assert gen_uniform_word(len(word), b, ours) == _randint_uniform(len(word), b, reference)
    assert ours.getstate() == reference.getstate()
    assert gen_upward_word(word[:1], b, ours) == _randint_upward(word[:1], b, reference)
    assert ours.getstate() == reference.getstate()


@pytest.mark.parametrize("b", [1, 3, 8])
def test_generators_reject_bad_input_before_drawing(b):
    rng = random.Random(3)
    state = rng.getstate()
    top = max_level(b)
    if b < 8:  # a byte cannot hold a level above 255
        with pytest.raises(ValueError, match=f"level {top + 1} out of range"):
            gen_upward_word(bytes((0, top, top + 1, 0)), b, rng)
        with pytest.raises(ValueError, match=f"level {top + 1} out of range"):
            gen_upward_word(bytes((top + 1,)), b, rng)
    with pytest.raises(ValueError, match="cells must be >= 1, got 0"):
        gen_uniform_word(0, b, rng)
    with pytest.raises(ValueError, match="bits_per_cell must be >= 1"):
        gen_upward_word(bytes((0,)), 0, rng)
    assert rng.getstate() == state


def test_fill_word_all_max():
    word = gen_fill_word(None, 4, 3)
    assert word == bytes((7, 7, 7, 7)) == word_from_hex("0xFFF", 4, 3)


def test_fill_word_constant_level():
    assert gen_fill_word(0, 2, 3) == bytes((0, 0))
    assert gen_fill_word(5, 3, 3) == bytes((5, 5, 5))


def test_fill_word_errors():
    with pytest.raises(ValueError):
        gen_fill_word(9, 2, 3)
    with pytest.raises(ValueError):
        gen_fill_word(None, 0, 3)


@given(
    st.integers(1, 8),
    st.integers(1, 32),
    st.integers(0, 2**32 - 1),
    st.one_of(st.none(), st.integers(0, 255)),
)
def test_generated_words_are_slot_long_bytes_in_range(bits_per_cell, cells, seed, fill):
    top = max_level(bits_per_cell)
    rng = random.Random(seed)
    original = bytes(rng.randint(0, top) for _ in range(cells))
    words = [
        gen_uniform_word(cells, bits_per_cell, rng),
        gen_upward_word(original, bits_per_cell, rng),
        gen_fill_word(None if fill is None else fill % (top + 1), cells, bits_per_cell),
    ]
    for word in words:
        assert type(word) is bytes
        assert len(word) == cells
        assert max(word) <= top


def test_word_from_hex_frozen_example():
    word = word_from_hex("0xDEADBE", 8, 3)
    assert word == bytes((6, 7, 5, 2, 6, 6, 7, 6)) == _shift_mask_reference(0xDEADBE, 8, 3)


def test_word_from_hex_errors():
    with pytest.raises(ValueError):
        word_from_hex("DEADBE", 8, 3)  # missing prefix
    with pytest.raises(ValueError):
        word_from_hex("0xDEAD", 8, 3)  # wrong width
    with pytest.raises(ValueError):
        word_from_hex("0xZZZZZZ", 8, 3)
    with pytest.raises(ValueError):
        word_from_hex("0xF", 3, 3)  # 9-bit slot is not hex-addressable
    for text in ("0xDEAD_E", "0x+DEADB", "0x DEADB"):  # int(..., 16) would take these
        with pytest.raises(ValueError, match="not a hex payload"):
            word_from_hex(text, 8, 3)


def test_word_from_hex_rejects_cells_wider_than_a_byte():
    # A 12-bit payload of one 12-bit cell is hex-aligned but cannot be stored.
    with pytest.raises(TraceError, match=r"line 1: bits_per_cell must be <= 8 .*got 12"):
        parse_trace("W 1 0xFFF", 1, 12)


def test_one_hex_width_check_for_config_codec_and_generator():
    message = "slot width 15 bits is not hex-addressable"
    with pytest.raises(ValueError, match=message):
        hex_digits(5, 3)
    with pytest.raises(ValueError, match=message):
        word_from_hex("0x1234", 5, 3)
    with pytest.raises(ValueError, match=message):
        synthetic_trace(3, 1.0, 1, 5, 3)
    cfg = RunConfig(seed=1, cells_per_page=15, cells_per_cache_slot=5)
    with pytest.raises(ConfigError, match=message):
        cfg.validate()
    assert hex_digits(8, 3) == 6


@st.composite
def aligned_words(draw):
    """(value, cells, bits_per_cell) for a nibble-aligned width."""
    bits_per_cell = draw(st.integers(1, 8))
    step = 4 // math.gcd(4, bits_per_cell)
    cells = step * draw(st.integers(1, 40 // step))
    return draw(st.integers(0, 2 ** (cells * bits_per_cell) - 1)), cells, bits_per_cell


@given(aligned_words(), st.sampled_from("_+- "), st.integers(0, 39))
def test_word_bits_width(word, junk, position):
    """Every nibble-aligned width up to 40 cells at 1-8 bits decodes to one
    byte per cell, each a level of the cell's width; one digit swapped for
    "_", a sign or a space, which int(..., 16) would take, is refused."""
    value, cells, bits_per_cell = word
    digits = f"{value:0{cells * bits_per_cell // 4}x}"
    decoded = word_from_hex("0x" + digits, cells, bits_per_cell)
    assert len(decoded) == cells
    assert max(decoded) < 2**bits_per_cell
    position %= len(digits)
    bad = "0x" + digits[:position] + junk + digits[position + 1 :]
    with pytest.raises(ValueError, match="not a hex payload"):
        word_from_hex(bad, cells, bits_per_cell)


@settings(max_examples=400)
@given(aligned_words(), st.booleans(), st.integers(0, 2**40 - 1))
def test_word_from_hex_matches_shift_and_mask(word, upper_prefix, upper_digits):
    """Every nibble-aligned width, with either prefix and any mix of digit
    cases, decodes as the shift-and-mask reference does."""
    value, cells, bits_per_cell = word
    digits = "".join(digit.upper() if upper_digits >> i & 1 else digit
                     for i, digit in enumerate(f"{value:0{cells * bits_per_cell // 4}x}"))
    prefix = "0X" if upper_prefix else "0x"
    assert word_from_hex(prefix + digits, cells, bits_per_cell) == _shift_mask_reference(
        value, cells, bits_per_cell
    )


@given(aligned_words(), st.integers(0, 39), st.sampled_from(["_", "+", "-", " ", "g", "Z", "٣"]))
def test_word_from_hex_rejections_keep_their_messages(word, position, junk):
    value, cells, bits_per_cell = word
    n = cells * bits_per_cell // 4
    digits = f"{value:0{n}X}"

    def rejects(text, message, bits=bits_per_cell):
        with pytest.raises(ValueError) as info:
            word_from_hex(text, cells, bits)
        assert str(info.value) == message

    rejects(digits, f"payload must be 0x-prefixed hex: {digits!r}")
    for wrong in (digits[1:], digits + "0"):
        rejects("0x" + wrong, f"payload {'0x' + wrong!r} is {len(wrong) * 4} bits, slot is {n * 4} bits")
    position %= n
    bad = "0x" + digits[:position] + junk + digits[position + 1 :]
    rejects(bad, f"not a hex payload: {bad!r}")
    rejects("0x" + digits, "bits_per_cell must be <= 8 (a level is stored in one byte), got 9", 9)
