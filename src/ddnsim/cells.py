"""Multi-level cell model: levels, the hex word codec, overwrite words.

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


def max_level(bits_per_cell: int) -> int:
    """Highest program level a cell of the given width can hold."""
    if bits_per_cell < 1:
        raise ValueError(f"bits_per_cell must be >= 1, got {bits_per_cell}")
    if bits_per_cell > 8:
        raise ValueError(
            f"bits_per_cell must be <= 8 (a level is stored in one byte), "
            f"got {bits_per_cell}"
        )
    return (1 << bits_per_cell) - 1


def _check_level(level: int, bits_per_cell: int):
    top = max_level(bits_per_cell)
    if not 0 <= level <= top:
        raise ValueError(f"level {level} out of range [0, {top}]")


@cache
def _draws(bits_per_cell: int) -> tuple:
    """(first, n, k) per level: an upward move goes to first plus a draw from n values
    of k bits (none at the top: ``getrandbits(0)`` is 0); a uniform level's; all levels, as bytes."""
    top = max_level(bits_per_cell)
    upward = tuple((level + 1, top - level, (top - level).bit_length()) for level in range(top))
    return upward + ((top, 1, 0),), ((0, top + 1, (top + 1).bit_length()),), bytes(range(top + 1))


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


@cache
def _decoder(cells: int, bits_per_cell: int) -> tuple:
    """(digits, shifts, mask, table, pad) for decoding one slot's payload.

    The value is read in chunks of ``8 // bits_per_cell`` cells, most
    significant first; ``table[chunk]`` is the chunk's cell levels, so each
    table has at most 256 entries. When the chunks overhang the word, the
    first chunk holds ``pad`` leading zero cells, which are dropped.
    """
    top = max_level(bits_per_cell)
    digits = hex_digits(cells, bits_per_cell)
    per_chunk = 8 // bits_per_cell
    chunks = -(-cells // per_chunk)
    chunk_bits = per_chunk * bits_per_cell
    cell_shifts = range(chunk_bits - bits_per_cell, -1, -bits_per_cell)
    table = tuple(bytes(v >> s & top for s in cell_shifts) for v in range(1 << chunk_bits))
    shifts = tuple(range((chunks - 1) * chunk_bits, -1, -chunk_bits))
    return digits, shifts, (1 << chunk_bits) - 1, table, chunks * per_chunk - cells


def word_from_hex(text: str, cells: int, bits_per_cell: int) -> bytes:
    """Parse a 0x-prefixed hex payload whose bit width is cells * bits_per_cell.

    The hex digit count must match the word width exactly (see
    ``hex_digits``). Cell 0 is the most significant ``bits_per_cell`` bits of
    the value.
    """
    if text[:2] not in ("0x", "0X"):
        raise ValueError(f"payload must be 0x-prefixed hex: {text!r}")
    digits = text[2:]
    n, shifts, mask, table, pad = _decoder(cells, bits_per_cell)
    if len(digits) != n:
        raise ValueError(
            f"payload {text!r} is {len(digits) * 4} bits, slot is {n * 4} bits"
        )
    # int(..., 16) alone would also take "_", a sign or surrounding spaces.
    if not digits or not _HEX_DIGITS.issuperset(digits):
        raise ValueError(f"not a hex payload: {text!r}")
    value = int(digits, 16)
    return b"".join([table[value >> s & mask] for s in shifts])[pad:]


def gen_upward_word(original: bytes, bits_per_cell: int, rng: Random) -> bytes:
    """A uniform level strictly above each cell's, in cell order; a cell at the
    top keeps it. Levels above the top raise ``ValueError`` before anything
    is drawn."""
    upward, _, levels = _draws(bits_per_cell)
    if original.translate(None, levels):  # some level is above the top
        _check_level(max(original), bits_per_cell)
    return _redraw(original, upward, rng)


def gen_uniform_word(cells: int, bits_per_cell: int, rng: Random) -> bytes:
    """Uniform word over the full level range, for freely rewritable memory."""
    uniform = _draws(bits_per_cell)[1]
    if cells < 1:
        raise ValueError(f"cells must be >= 1, got {cells}")
    return _redraw(bytes(cells), uniform, rng)


def gen_fill_word(level: int | None, cells: int, bits_per_cell: int) -> bytes:
    """The fixed word that puts every cell at ``level``, or at the top level
    for the width when ``level`` is None (``AllMax``)."""
    if cells < 1:
        raise ValueError(f"cells must be >= 1, got {cells}")
    level = max_level(bits_per_cell) if level is None else level
    _check_level(level, bits_per_cell)
    return bytes((level,)) * cells
