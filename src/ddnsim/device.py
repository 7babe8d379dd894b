"""NVM array model: blocks of pages of multi-level cells, plus the cache table.

Two device kinds share one interface. Freely rewritable memory (PRAM-like)
accepts any new cell levels; NAND-like memory only moves cells upward between
erases and budgets how many times a page may be reprogrammed in place. Every
timed operation charges the device's latency ledger, so a run's cost is the
sum of the charges it caused.

Device state is flat. Pages are numbered ``block * pages_per_block + page``
and slots ``page_number * slots_per_page + slot``, and a slot's address is
that number, a plain ``int``. The per-cell, per-page and per-slot byte
arrays are private anonymous ``mmap``s, resident only where a run writes
them: every cell level (a level fits in a byte, so ``bits_per_cell <= 8``),
each page's status, each slot's occupancy, and, through a ``memoryview`` cast
to ``"Q"``, each page's partial-program count, which only NAND writes. A
slice of a mapping is ``bytes``, and ``find`` takes a ``bytes`` needle. An
erase is a slice assignment; GC moves runs of live pages into runs of free
pages, a slice per run. The cache table maps each id with a valid copy to
that copy's slot and, per slot, the one valid id it holds (see
``CacheTable``). That holder list starts empty and, before a copy is
registered at or moved into a slot past its end, doubles (capped at the slot
count), so it covers the slots a run has touched, at most twice over, rather
than the device. Reclaim allocation is one search of the table's holder mask,
upward from a low-water mark below which every slot is held.
"""

import math
import mmap
from enum import Enum
from itertools import repeat
from operator import lt

from .cells import max_level as _max_level
from .metrics import LatencyLedger
from .values import Value


class DeviceError(Exception):
    """Base class for device-level failures."""


class AddressError(DeviceError):
    """Block, page or slot number outside the device geometry."""


class MonotoneViolation(DeviceError):
    """A program would lower a cell, which needs an erase first."""


class NopExceeded(DeviceError):
    """The page's partial-reprogram budget is exhausted."""


class NoFreePages(DeviceError):
    """Garbage collection found no destination for a live page."""


class DeviceFull(DeviceError):
    """Slot allocation found no writable slot anywhere."""


class DeviceKind(Enum):
    OVERWRITABLE = "overwritable"
    NON_OVERWRITABLE = "non-overwritable"


class Geometry(Value):
    """Device shape; ``__init__`` checks it and sets the derived sizes."""

    __slots__ = ("blocks", "pages_per_block", "cells_per_page", "bits_per_cell",
                 "cells_per_cache_slot", "slots_per_page", "slots_per_block",
                 "total_slots", "max_level")

    def __init__(self, blocks: int = 256, pages_per_block: int = 64, cells_per_page: int = 16,
                 bits_per_cell: int = 3, cells_per_cache_slot: int = 8):
        self.blocks, self.pages_per_block, self.cells_per_page = (
            blocks, pages_per_block, cells_per_page)
        self.bits_per_cell, self.cells_per_cache_slot = bits_per_cell, cells_per_cache_slot
        for name in self.__slots__[:5]:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        self.max_level = _max_level(bits_per_cell)  # raises unless bits_per_cell <= 8
        if cells_per_page % cells_per_cache_slot:
            raise ValueError(
                f"cells_per_page ({cells_per_page}) must be a multiple of "
                f"cells_per_cache_slot ({cells_per_cache_slot})"
            )
        self.slots_per_page = cells_per_page // cells_per_cache_slot
        self.slots_per_block = pages_per_block * self.slots_per_page
        self.total_slots = blocks * self.slots_per_block

    def block_of(self, slot: int) -> int:
        """The block holding a slot."""
        return slot // self.slots_per_block


# A device time above this (11.6 days) is a config error: the ledger sums
# charges, and near the float limit they would overflow to inf and nan.
MAX_LATENCY_US = 1e12


class LatencyParams(Value):
    """Per-operation device times in microseconds."""

    __slots__ = ("t_read_us", "t_program_us", "t_gen_us", "t_erase_us")

    def __init__(self, t_read_us: float = 49.0, t_program_us: float = 600.0,
                 t_gen_us: float = 100.0, t_erase_us: float = 4000.0):
        self.t_read_us, self.t_program_us = t_read_us, t_program_us
        self.t_gen_us, self.t_erase_us = t_gen_us, t_erase_us
        for name in self.__slots__:
            us = getattr(self, name)
            if not (math.isfinite(us) and us >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {us}")
            if us > MAX_LATENCY_US:
                raise ValueError(f"{name} must be <= 1e12 us, got {us}")

    @property
    def gc_migration_per_page_us(self) -> float:
        """Moving one live page is one read plus one program."""
        return self.t_read_us + self.t_program_us


def _zeroed(size: int) -> mmap.mmap:
    """``size`` zero bytes in a private anonymous mapping, so a memory page of
    it is resident only once written (reading a hole of a shared one maps it in)."""
    return mmap.mmap(-1, size, access=mmap.ACCESS_COPY)


class CacheTable:
    """cache_id -> physical slot of the id's valid flushed copy.

    ``_slot`` maps exactly the ids that have a valid copy; invalidating a
    copy drops its id. ``_valid_at`` lists each slot's one valid cache_id or
    ``None``, and ``_held`` marks the same slots in a byte mapping searched
    at C speed. At most one valid copy holds a slot: ``register`` and
    ``move`` refuse a second, and the device erases no block a valid copy
    lies in. ``_low`` is a low-water mark for ``first_unheld``: every slot
    below it is held.

    ``_valid_at`` starts empty and may end before the last slot; every slot
    past its end holds no valid copy. ``register`` and ``move`` grow it, by
    ``_cover``, before they write past its end, since a list assignment past
    the end would land at the end instead.
    """

    def __init__(self, total_slots: int):
        self._slot = {}
        self._valid_at = []
        self._held = _zeroed(total_slots)
        self._low = 0

    def _cover(self, end: int):
        """Grow ``_valid_at`` to at least ``end`` slots, in one resize: to
        twice its length, capped at the slot count, so a run pays for at most
        twice the slots it reaches. A list that cannot grow is a ``DeviceError``."""
        size = min(len(self._held), max(end, 2 * len(self._valid_at)))
        try:
            self._valid_at.extend(repeat(None, size - len(self._valid_at)))
        except MemoryError as exc:
            raise DeviceError(f"cannot grow the cache table to {size} slots") from exc

    def slot(self, cache_id) -> int | None:
        """The slot of the id's valid copy; None if it has none."""
        return self._slot.get(cache_id)

    def is_valid(self, cache_id) -> bool:
        """Whether the id has a valid copy."""
        return cache_id in self._slot

    def _release(self, slot: int):
        """The valid copy at slot stops holding it."""
        self._valid_at[slot], self._held[slot] = None, 0
        if slot < self._low:
            self._low = slot

    def register(self, cache_id: int, addr: int):
        """Make addr the id's valid copy; an earlier copy is released."""
        try:
            holder = self._valid_at[addr]
        except IndexError:
            if addr >= len(self._held):
                raise
            self._cover(addr + 1)
            holder = None
        if holder is not None and holder != cache_id:
            raise DeviceError(f"slot {addr} already holds valid cache_id {holder}")
        old = self._slot.get(cache_id)
        if old is not None:
            self._release(old)
        self._slot[cache_id] = addr
        self._valid_at[addr] = cache_id
        self._held[addr] = 1

    def invalidate(self, cache_id: int) -> int | None:
        """Drop the id's valid copy and return its slot; an id with none is
        left alone (None)."""
        slot = self._slot.pop(cache_id, None)
        if slot is not None:  # _release, in place
            self._valid_at[slot], self._held[slot] = None, 0
            if slot < self._low:
                self._low = slot
        return slot

    def held(self, start: int, stop: int) -> bytes:
        """1 for each slot in [start, stop) a valid copy holds, else 0."""
        return self._held[start:stop]

    def first_unheld(self) -> int:
        """The lowest slot no valid copy holds, or -1 if every slot is held."""
        slot = self._held.find(b"\0", self._low)
        self._low = len(self._held) if slot == -1 else slot
        return slot

    def move(self, src: int, dst: int, n: int) -> bytes:
        """Repoint the valid copies in slots [src, src + n) to the same
        places in [dst, dst + n), which must hold none; returns ``held`` of
        the source. No release is reported: the caller erases the source."""
        if self._held.find(b"\1", dst, dst + n) != -1:
            raise DeviceError(f"slots {dst}..{dst + n - 1} already hold valid data")
        end = (src if src > dst else dst) + n
        if end > len(self._valid_at):
            self._cover(end)
        ids, mask = self._valid_at[src : src + n], self._held[src : src + n]
        self._valid_at[dst : dst + n], self._valid_at[src : src + n] = ids, [None] * n
        self._held[dst : dst + n], self._held[src : src + n] = mask, bytes(n)
        if src < self._low:
            self._low = src
        where = self._slot
        for slot, cid in enumerate(ids, dst):
            if cid is not None:
                where[cid] = slot
        return mask


class NvmDevice:
    """Single-owner mutable NVM state machine.

    Slot occupancy is tracked separately from the cache table: an allocated
    slot stays occupied (even after its data is invalidated) until the block
    is erased, unless ``reclaim_invalid_slots`` lets the allocator hand
    invalid slots back out. Reclaim needs an overwritable device, because a
    reclaimed slot keeps its old levels and NAND cannot program them down.
    """

    def __init__(
        self,
        geometry: Geometry = None,
        kind: DeviceKind = DeviceKind.NON_OVERWRITABLE,
        latency: LatencyParams = None,
        nop_limit: int = 4,
        reclaim_invalid_slots: bool = False,
    ):
        self.geometry = geometry if geometry is not None else Geometry()
        self.kind = kind
        self.latency = latency if latency is not None else LatencyParams()
        self.check_settings(kind, nop_limit, reclaim_invalid_slots)
        self.nop_limit = nop_limit
        self.ledger = LatencyLedger()
        self.reclaim_invalid_slots = reclaim_invalid_slots
        g = self.geometry
        pages = g.blocks * g.pages_per_block
        try:
            # A slice of a mapping is bytes, cheaper than a memoryview's; the counts
            # need the cast.
            self._cells = _zeroed(pages * g.cells_per_page)
            self._programmed = _zeroed(pages)  # page status: 0 free, 1 programmed
            self._program_counts = memoryview(_zeroed(8 * pages)).cast("Q")
            self._allocated = _zeroed(g.total_slots)
            self.erase_counts = [0] * g.blocks
            self.cache_table = CacheTable(g.total_slots)
            n = g.pages_per_block  # an erase copies in these states of an erased block
            self._erased = (bytearray(n * g.cells_per_page), bytearray(n),
                            memoryview(bytearray(8 * n)).cast("Q"),
                            bytearray(n * g.slots_per_page))
        except (MemoryError, OverflowError, OSError) as exc:  # a refused mapping: OSError
            raise DeviceError(
                f"cannot allocate a device of {pages * g.cells_per_page} cells "
                f"({type(exc).__name__})"
            ) from exc
        # Fixed for the run, read in place by the per-slot operations.
        self._width, self._per_page, self._total = (
            g.cells_per_cache_slot, g.slots_per_page, g.total_slots)
        self._top, self._nand = g.max_level, kind is DeviceKind.NON_OVERWRITABLE
        self._levels = bytes(range(g.max_level + 1))  # translate() deletes these levels
        self._t_program, self._t_read = self.latency.t_program_us, self.latency.t_read_us
        self._zero_word = bytes(g.cells_per_cache_slot)
        self._alloc_hint = 0
        self._dest_page_hint = 0

    @staticmethod
    def check_settings(kind: DeviceKind, nop_limit: int, reclaim_invalid_slots: bool):
        """Raise ``ValueError``, naming the config key, for settings no device can run."""
        if nop_limit < 0:
            raise ValueError(f"nop_limit must be >= 0, got {nop_limit}")
        if reclaim_invalid_slots and kind is not DeviceKind.OVERWRITABLE:
            raise ValueError("reclaim_invalid_slots needs device_kind = overwritable")

    # -- addressing ---------------------------------------------------------

    def _check_block(self, block: int):
        if not 0 <= block < self.geometry.blocks:
            raise AddressError(f"block {block} out of range")

    def is_programmed(self, addr: int) -> bool:
        """Whether the page holding a slot has been programmed since its last erase."""
        if not 0 <= addr < self._total:  # inline; a negative slot would index from the end
            raise AddressError(f"slot {addr} outside geometry")
        return self._programmed[addr // self._per_page] == 1

    # -- data path ----------------------------------------------------------

    def peek_slot(self, addr: int) -> bytes:
        """Slot contents without any latency charge (instrumentation only)."""
        if not 0 <= addr < self._total:
            raise AddressError(f"slot {addr} outside geometry")
        width = self._width
        return self._cells[addr * width : (addr + 1) * width]

    def read_slot(self, addr: int) -> bytes:
        """Read one slot; costs one page read. Free pages read as all zero."""
        if not 0 <= addr < self._total:
            raise AddressError(f"slot {addr} outside geometry")
        width = self._width
        self.ledger.rd_us += self._t_read
        return self._cells[addr * width : (addr + 1) * width]

    def program_slot(self, addr: int, data: bytes):
        """Write one slot, leaving the rest of the page untouched.

        The one gate for words entering the cell array: a word is one slot
        long with every level in range. Non-overwritable devices also require
        every cell to move upward (or stay) and, once the page is programmed,
        consume one unit of the page's partial-reprogram budget per call.
        """
        if not 0 <= addr < self._total:
            raise AddressError(f"slot {addr} outside geometry")
        index, width = addr // self._per_page, self._width
        if len(data) != width:
            raise ValueError(f"data is {len(data)} cells, slot is {width}")
        if data.translate(None, self._levels):  # some level is above the top
            raise ValueError(f"level {max(data)} out of range [0, {self._top}]")
        start, end = addr * width, (addr + 1) * width
        if self._nand:
            old = self._cells[start:end]
            # No level is below 0, so an erased slot (every flush) takes any word; the
            # comparison with zeros runs at C speed and spares it the per-cell walk.
            if old != self._zero_word and any(map(lt, data, old)):
                cell = list(map(lt, data, old)).index(True)
                raise MonotoneViolation(f"cell {cell} of slot {addr} would drop "
                                        f"{old[cell]} -> {data[cell]}")
            if self._programmed[index]:
                if self._program_counts[index] >= self.nop_limit:
                    raise NopExceeded(
                        f"page {index} used its {self.nop_limit} partial programs"
                    )
                self._program_counts[index] += 1
        self._cells[start:end] = data
        self._programmed[index] = 1
        self.ledger.wr_us += self._t_program

    def erase_block(self, block: int):
        """Reset the block to level 0 (the only downward path) unless valid data holds it."""
        self._check_block(block)
        g = self.geometry
        pages, slots, width = g.pages_per_block, g.slots_per_block, g.cells_per_page
        first, base = block * pages, block * slots
        if 1 in self.cache_table.held(base, base + slots):
            raise DeviceError(f"block {block} still holds valid data")
        cells, status, counts, occupancy = self._erased  # a bytearray copies in directly
        self._cells[first * width : (first + pages) * width] = cells
        self._programmed[first : first + pages] = status
        # Only NAND counts partial programs. Elsewhere every count stays 0, and
        # writing the zeros again would make the mapping's pages resident.
        if self._nand:
            self._program_counts[first : first + pages] = counts
        self._allocated[base : base + slots] = occupancy
        self.erase_counts[block] += 1
        self._alloc_hint = min(self._alloc_hint, base)
        self.ledger.erase_us += self.latency.t_erase_us

    def garbage_collect(self, block: int):
        """Move the block's live pages (those holding a valid slot) out, then erase it.
        Each stretch shared by a run of live pages and a run of free pages moves as one
        slice, slot places kept and stale slots zeroed; a read and a program per page."""
        self._check_block(block)
        g, table, cells = self.geometry, self.cache_table, self._cells
        per_page, width = g.slots_per_page, g.cells_per_cache_slot
        first_page = block * g.pages_per_block
        held = table.held(first_page * per_page, (first_page + g.pages_per_block) * per_page)
        folded, span = int.from_bytes(held, "little"), 1
        while span < per_page:  # OR each page's slots into its first byte, by shifts of
            shift = span if 2 * span <= per_page else per_page - span  # 1, 2, 4, ... slots
            folded |= folded >> 8 * shift  # and, if per_page is no power of 2, one that
            span += shift  # overlaps the slots already folded
        live = folded.to_bytes(len(held), "little")[::per_page] + b"\0"  # 0 ends a run
        count = live.count(1)
        src = end = 0  # the live run [src, end) being moved, in pages of the block
        for dst, room in self._find_free_pages(count, block):
            while room:
                if src == end:
                    src = live.find(1, end)
                    end = live.find(0, src)
                n = end - src if end - src < room else room
                s, d, k = (first_page + src) * per_page, dst * per_page, n * per_page
                mask = self._allocated[d : d + k] = table.move(s, d, k)
                # Copy the slots with the stale ones zeroed: AND with 0xff per held cell.
                keep = mask.replace(b"\0", bytes(width)).replace(b"\1", b"\xff" * width)
                run = int.from_bytes(cells[s * width : (s + k) * width], "little")
                run &= int.from_bytes(keep, "little")
                cells[d * width : (d + k) * width] = run.to_bytes(k * width, "little")
                self._programmed[dst : dst + n] = b"\x01" * n
                src, dst, room = src + n, dst + n, room - n
        charge, cost = self.ledger.charge_gc_migration, self.latency.gc_migration_per_page_us
        for _ in range(count):
            charge(cost)
        self.erase_block(block)

    def _find_free_pages(self, count: int, exclude_block: int) -> list:
        """``count`` erased pages with no allocated slot outside ``exclude_block``, as
        runs ``(first page, length)``. Rotating first-fit: it resumes after the last
        page taken and wraps around once, jumping with ``find`` and reading no
        further than the pages still needed. Raises ``NoFreePages`` before any change."""
        g, programmed, allocated = self.geometry, self._programmed, self._allocated
        per_page, skip = g.slots_per_page, exclude_block * g.pages_per_block
        skip_end, start = skip + g.pages_per_block, self._dest_page_hint
        runs, need, lo, hi = [], count, start, len(programmed)
        while need:
            lo = programmed.find(b"\0", lo, hi)
            if lo == -1:  # end of [start, total): wrap to [0, start), once
                if hi == start:
                    raise NoFreePages(f"need {count} destination pages, found {count - need}")
                lo, hi = 0, start
                continue
            stop = programmed.find(b"\1", lo, lo + need)
            if stop == -1 or stop > hi:
                stop = lo + need if lo + need < hi else hi
            if lo < skip_end and stop > skip:  # the run reaches into the victim block
                if lo >= skip:
                    lo = skip_end
                    continue
                stop = skip
            resume, taken = stop, allocated.find(b"\1", lo * per_page, stop * per_page)
            if taken != -1:  # a page holding an allocated slot is not free
                stop, resume = taken // per_page, taken // per_page + 1
            if stop > lo:
                runs.append((lo, stop - lo))
                need -= stop - lo
            lo = resume
        self._dest_page_hint = lo % len(programmed)
        return runs

    # -- slot allocation ----------------------------------------------------

    def allocate_slot(self) -> int:
        """First-fit allocation in page order.

        Occupied slots stay unavailable until their block is erased; with
        ``reclaim_invalid_slots`` the lowest slot that is unoccupied, or
        occupied with no valid copy in it, is handed out.
        """
        if self.reclaim_invalid_slots:
            return self._allocate_with_reclaim()
        slot = self._allocated.find(b"\0", self._alloc_hint)
        while slot != -1:  # a programmed NAND page is writable within its budget
            index = slot // self._per_page
            if (not self._programmed[index] or not self._nand
                    or self._program_counts[index] < self.nop_limit):
                self._allocated[slot] = 1
                self._alloc_hint = slot + 1
                return slot
            # The budget is the page's: skip the rest of its slots at once.
            slot = self._allocated.find(b"\0", (index + 1) * self._per_page)
        raise DeviceFull("no writable slot available")

    def _allocate_with_reclaim(self) -> int:
        # A held slot is always allocated (a flush allocates before it
        # registers, GC allocates what it moves in, and no held block is
        # erased), so the lowest unheld slot is the lowest one to hand out.
        slot = self.cache_table.first_unheld()
        if slot == -1:
            raise DeviceFull("no writable slot available")
        self._allocated[slot] = 1
        return slot
