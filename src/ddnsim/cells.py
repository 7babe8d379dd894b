"""Multi-level cell model: level encodings, hex word codec, overwrite words.

A cell stores one of ``2**bits_per_cell`` program levels; level 0 is the
erased state. A word is the ``bytes`` of one slot's cell levels, cell 0
first. NAND-like memory cannot lower a cell without erasing the whole
block, but it can always push a cell to a strictly higher level in place.
An in-place overwrite of a cell at level L therefore draws from
{L+1, ..., top}; a cell already at the top level keeps its value. Random
stream: a policy run draws from its own ``random.Random(seed)``, one
``getrandbits(k)`` per draw under ``randint``'s rejection rule (a draw from n
values takes ``k = n.bit_length()`` bits, redrawn while ``>= n``), so words
are a per-cell ``randint``'s and reports byte-identical across CPython 3.10-3.13.
"""

from random import Random
from functools import cache
from dataclasses import dataclass

__all__ = [
    "ALL_MAX",
    "FillKind",
    "available_levels",
    "decode_bits",
    "encode_level",
    "gen_fill_word",
    "gen_uniform_word",
    "gen_upward_random",
    "gen_upward_word",
    "hex_digits",
    "max_level",
    "word_from_hex",
    "word_to_hex",
]


def max_level(bits_per_cell: int) -> int:
    """Highest program level a cell of the given width can hold."""
    if bits_per_cell < 1:
        raise ValueError(f"bits_per_cell must be >= 1, got {bits_per_cell}")
    return (1 << bits_per_cell) - 1


def _check_level(level: int, bits_per_cell: int) -> int:
    top = max_level(bits_per_cell)
    if not 0 <= level <= top:
        raise ValueError(f"level {level} out of range [0, {top}]")
    return top


def encode_level(level: int, bits_per_cell: int) -> str:
    """Binary encoding of a level, most-significant bit first."""
    _check_level(level, bits_per_cell)
    return format(level, f"0{bits_per_cell}b")


def decode_bits(bits: str, bits_per_cell: int) -> int:
    """Inverse of encode_level. The bit string must be exactly one cell wide."""
    if len(bits) != bits_per_cell:
        raise ValueError(
            f"expected {bits_per_cell} bits, got {len(bits)} ({bits!r})"
        )
    if any(c not in "01" for c in bits):
        raise ValueError(f"not a binary string: {bits!r}")
    return int(bits, 2)


def available_levels(original: int, bits_per_cell: int) -> set:
    """Levels an in-place overwrite may move a cell to: everything strictly
    above the current level. Empty for a cell already at the top."""
    top = _check_level(original, bits_per_cell)
    return set(range(original + 1, top + 1))


def gen_upward_random(original: int, bits_per_cell: int, rng: Random) -> int:
    """Uniform random level strictly above ``original``; unchanged at the top."""
    _check_level(original, bits_per_cell)
    return gen_upward_word(bytes((original,)), bits_per_cell, rng)[0]


@cache
def _draws(bits_per_cell: int) -> tuple:
    """(first, n, k) per level: an upward move goes to first plus a draw from n values
    of k bits (none at the top: ``getrandbits(0)`` is 0); then a uniform level's."""
    top = max_level(bits_per_cell)
    upward = tuple((level + 1, top - level, (top - level).bit_length()) for level in range(top))
    return upward + ((top, 1, 0),), ((0, top + 1, (top + 1).bit_length()),)


def _redraw(levels: bytes, draws: tuple, rng: Random) -> bytes:
    getrandbits, word = rng.getrandbits, bytearray()
    for level in levels:
        first, n, k = draws[level]
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        word.append(first + r)
    return bytes(word)


_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def hex_digits(cells: int, bits_per_cell: int) -> int:
    """Hex digits in one slot's payload; traces write payloads in hex, one
    digit per 4 bits, so the slot width must be a multiple of four bits."""
    width = cells * bits_per_cell
    if width % 4:
        raise ValueError(f"slot width {width} bits is not hex-addressable")
    return width // 4


def word_from_hex(text: str, cells: int, bits_per_cell: int) -> bytes:
    """Parse a 0x-prefixed hex payload whose bit width is cells * bits_per_cell.

    The hex digit count must match the word width exactly (see
    ``hex_digits``). Cell 0 is the most significant ``bits_per_cell`` bits of
    the value.
    """
    if not text.lower().startswith("0x"):
        raise ValueError(f"payload must be 0x-prefixed hex: {text!r}")
    digits = text[2:]
    if bits_per_cell > 8:
        raise ValueError(
            f"bits_per_cell must be <= 8 (a level is stored in one byte), "
            f"got {bits_per_cell}"
        )
    width = hex_digits(cells, bits_per_cell) * 4
    if len(digits) * 4 != width:
        raise ValueError(
            f"payload {text!r} is {len(digits) * 4} bits, slot is {width} bits"
        )
    # int(..., 16) alone would also take "_", a sign or surrounding spaces.
    if not digits or not _HEX_DIGITS.issuperset(digits):
        raise ValueError(f"not a hex payload: {text!r}")
    value = int(digits, 16)
    mask = max_level(bits_per_cell)
    shifts = range(width - bits_per_cell, -1, -bits_per_cell)
    return bytes(value >> s & mask for s in shifts)


def word_to_hex(word: bytes, bits_per_cell: int) -> str:
    """Inverse of word_from_hex for nibble-aligned words."""
    width = len(word) * bits_per_cell
    if width % 4:
        raise ValueError(f"word width {width} bits is not hex-representable")
    value = 0
    for level in word:
        value = value << bits_per_cell | level
    return f"0x{value:0{width // 4}X}"


def gen_upward_word(original: bytes, bits_per_cell: int, rng: Random) -> bytes:
    """gen_upward_random of every cell, in cell order; levels above the top
    raise ``ValueError`` before anything is drawn."""
    upward = _draws(bits_per_cell)[0]
    if max(original, default=0) >= len(upward):
        _check_level(max(original), bits_per_cell)
    return _redraw(original, upward, rng)


def gen_uniform_word(cells: int, bits_per_cell: int, rng: Random) -> bytes:
    """Uniform word over the full level range, for freely rewritable memory."""
    uniform = _draws(bits_per_cell)[1]
    if cells < 1:
        raise ValueError(f"cells must be >= 1, got {cells}")
    return _redraw(bytes(cells), uniform, rng)


@dataclass(frozen=True)
class FillKind:
    """Fixed overwrite pattern needing no random source.

    ``level is None`` means every cell goes to the maximum level for the
    target word's width; otherwise every cell goes to the given level.
    """

    level: int | None = None

    @property
    def label(self) -> str:
        return "AllMax" if self.level is None else f"Level={self.level}"


ALL_MAX = FillKind()


def gen_fill_word(pattern: FillKind, cells: int, bits_per_cell: int) -> bytes:
    """Build the fixed word for a fill pattern."""
    if cells < 1:
        raise ValueError(f"cells must be >= 1, got {cells}")
    top = max_level(bits_per_cell)
    level = top if pattern.level is None else pattern.level
    _check_level(level, bits_per_cell)
    return bytes((level,)) * cells
