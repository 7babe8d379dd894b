"""NVM array model: blocks of pages of multi-level cells, plus the cache table.

Two device kinds share one interface. Freely rewritable memory (PRAM-like)
accepts any new cell levels; NAND-like memory only moves cells upward between
erases and budgets how many times a page may be reprogrammed in place. Every
timed operation charges the device's latency ledger, so a run's cost is the
sum of the charges it caused.
"""

from enum import Enum
from dataclasses import dataclass

from .cells import DataWord
from .metrics import LatencyLedger


class DeviceError(Exception):
    """Base class for device-level failures."""


class AddressError(DeviceError):
    """Block/page/slot index outside the device geometry."""


class MonotoneViolation(DeviceError):
    """A program would lower a cell, which needs an erase first."""


class NopExceeded(DeviceError):
    """The page's partial-reprogram budget is exhausted."""


class NoFreePages(DeviceError):
    """Garbage collection found no destination for a live page."""


class DeviceFull(DeviceError):
    """Slot allocation found no writable slot anywhere."""


class UnknownCacheId(DeviceError):
    """Cache table lookup for an id that was never registered."""


class DeviceKind(Enum):
    OVERWRITABLE = "overwritable"
    NON_OVERWRITABLE = "non-overwritable"


class PageStatus(Enum):
    FREE = "free"
    PROGRAMMED = "programmed"


@dataclass(frozen=True)
class Geometry:
    blocks: int = 256
    pages_per_block: int = 64
    cells_per_page: int = 16
    bits_per_cell: int = 3
    cells_per_cache_slot: int = 8

    def __post_init__(self):
        for name in (
            "blocks",
            "pages_per_block",
            "cells_per_page",
            "bits_per_cell",
            "cells_per_cache_slot",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.cells_per_page % self.cells_per_cache_slot:
            raise ValueError(
                f"cells_per_page ({self.cells_per_page}) must be a multiple of "
                f"cells_per_cache_slot ({self.cells_per_cache_slot})"
            )

    @property
    def slots_per_page(self) -> int:
        return self.cells_per_page // self.cells_per_cache_slot

    @property
    def slots_per_block(self) -> int:
        return self.pages_per_block * self.slots_per_page

    @property
    def total_slots(self) -> int:
        return self.blocks * self.slots_per_block

    @property
    def max_level(self) -> int:
        return (1 << self.bits_per_cell) - 1

    @property
    def slot_bits(self) -> int:
        return self.cells_per_cache_slot * self.bits_per_cell


@dataclass(frozen=True)
class PhysAddr:
    """Physical location of one cache-slot-sized region."""

    block: int
    page: int
    slot: int


@dataclass(frozen=True)
class LatencyParams:
    """Per-operation device times in microseconds."""

    t_read_us: float = 49.0
    t_program_us: float = 600.0
    t_gen_us: float = 100.0
    t_erase_us: float = 4000.0

    def __post_init__(self):
        for name in ("t_read_us", "t_program_us", "t_gen_us", "t_erase_us"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    @property
    def gc_migration_per_page_us(self) -> float:
        """Moving one live page is one read plus one program."""
        return self.t_read_us + self.t_program_us


@dataclass
class Page:
    cells: list
    status: PageStatus = PageStatus.FREE
    partial_program_count: int = 0


@dataclass
class CacheEntry:
    addr: PhysAddr
    valid: bool
    written_at: int
    invalidated_at: int | None = None


class CacheTable:
    """cache_id -> physical slot, valid/invalid bit, timestamps.

    Keeps a per-block index of valid ids so garbage collection does not scan
    the whole table.
    """

    def __init__(self):
        self._entries = {}
        self._valid_by_block = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, cache_id) -> bool:
        return cache_id in self._entries

    def get(self, cache_id) -> CacheEntry | None:
        return self._entries.get(cache_id)

    def register(self, cache_id: int, addr: PhysAddr, now: int):
        """Insert or replace the entry for cache_id as valid at addr."""
        old = self._entries.get(cache_id)
        if old is not None and old.valid:
            self._valid_by_block[old.addr.block].discard(cache_id)
        self._entries[cache_id] = CacheEntry(addr, True, now)
        self._valid_by_block.setdefault(addr.block, set()).add(cache_id)

    def drop(self, cache_id: int):
        entry = self._entries.pop(cache_id, None)
        if entry is not None and entry.valid:
            self._valid_by_block[entry.addr.block].discard(cache_id)

    def set_valid(self, cache_id: int, valid: bool, now: int):
        entry = self._entries.get(cache_id)
        if entry is None:
            raise UnknownCacheId(f"cache_id {cache_id} not in cache table")
        if entry.valid and not valid:
            entry.invalidated_at = now
            self._valid_by_block[entry.addr.block].discard(cache_id)
        elif not entry.valid and valid:
            entry.invalidated_at = None
            self._valid_by_block.setdefault(entry.addr.block, set()).add(cache_id)
        entry.valid = valid

    def move(self, cache_id: int, addr: PhysAddr):
        """Point a valid entry at a new physical slot (GC migration)."""
        entry = self._entries[cache_id]
        if entry.valid:
            self._valid_by_block[entry.addr.block].discard(cache_id)
            self._valid_by_block.setdefault(addr.block, set()).add(cache_id)
        entry.addr = addr

    def valid_ids_in_block(self, block: int) -> set:
        return set(self._valid_by_block.get(block, ()))

    def valid_entries(self):
        """(cache_id, entry) pairs for valid entries, ascending cache_id."""
        return [
            (cid, e) for cid, e in sorted(self._entries.items()) if e.valid
        ]

    def items(self):
        return self._entries.items()


class NvmDevice:
    """Single-owner mutable NVM state machine.

    Slot occupancy is tracked separately from the cache table: an allocated
    slot stays occupied (even after its data is invalidated) until the block
    is erased, unless ``reclaim_invalid_slots`` lets the allocator hand
    invalid slots back out.
    """

    def __init__(
        self,
        geometry: Geometry = None,
        kind: DeviceKind = DeviceKind.NON_OVERWRITABLE,
        latency: LatencyParams = None,
        nop_limit: int = 4,
        ledger: LatencyLedger = None,
        reclaim_invalid_slots: bool = False,
    ):
        self.geometry = geometry if geometry is not None else Geometry()
        self.kind = kind
        self.latency = latency if latency is not None else LatencyParams()
        if nop_limit < 0:
            raise ValueError(f"nop_limit must be >= 0, got {nop_limit}")
        self.nop_limit = nop_limit
        self.ledger = ledger if ledger is not None else LatencyLedger()
        self.reclaim_invalid_slots = reclaim_invalid_slots
        self.cache_table = CacheTable()
        g = self.geometry
        self.blocks = [
            [Page([0] * g.cells_per_page) for _ in range(g.pages_per_block)]
            for _ in range(g.blocks)
        ]
        self.erase_counts = [0] * g.blocks
        self._allocated = [False] * g.total_slots
        self._alloc_hint = 0
        self._dest_page_hint = 0

    # -- addressing ---------------------------------------------------------

    def _check_block(self, block: int):
        if not 0 <= block < self.geometry.blocks:
            raise AddressError(f"block {block} out of range")

    def _check_addr(self, addr: PhysAddr) -> Page:
        g = self.geometry
        if not (
            0 <= addr.block < g.blocks
            and 0 <= addr.page < g.pages_per_block
            and 0 <= addr.slot < g.slots_per_page
        ):
            raise AddressError(f"{addr} outside geometry")
        return self.blocks[addr.block][addr.page]

    def _linear(self, addr: PhysAddr) -> int:
        g = self.geometry
        return (addr.block * g.pages_per_block + addr.page) * g.slots_per_page + addr.slot

    def _addr(self, linear: int) -> PhysAddr:
        g = self.geometry
        page_index, slot = divmod(linear, g.slots_per_page)
        block, page = divmod(page_index, g.pages_per_block)
        return PhysAddr(block, page, slot)

    def _slot_range(self, addr: PhysAddr):
        start = addr.slot * self.geometry.cells_per_cache_slot
        return start, start + self.geometry.cells_per_cache_slot

    def page_status(self, addr: PhysAddr) -> PageStatus:
        return self._check_addr(addr).status

    # -- data path ----------------------------------------------------------

    def peek_slot(self, addr: PhysAddr) -> DataWord:
        """Slot contents without any latency charge (instrumentation only)."""
        page = self._check_addr(addr)
        start, end = self._slot_range(addr)
        return DataWord(tuple(page.cells[start:end]), self.geometry.bits_per_cell)

    def read_slot(self, addr: PhysAddr) -> DataWord:
        """Read one slot; costs one page read. Free pages read as all zero."""
        word = self.peek_slot(addr)
        self.ledger.charge_read(self.latency.t_read_us)
        return word

    def program_slot(self, addr: PhysAddr, data: DataWord):
        """Write one slot, leaving the rest of the page untouched.

        Non-overwritable devices require every cell to move upward (or stay)
        and, once the page is programmed, consume one unit of the page's
        partial-reprogram budget per call.
        """
        page = self._check_addr(addr)
        g = self.geometry
        if len(data) != g.cells_per_cache_slot or data.bits_per_cell != g.bits_per_cell:
            raise ValueError(
                f"data is {len(data)} cells x {data.bits_per_cell} bits, slot is "
                f"{g.cells_per_cache_slot} x {g.bits_per_cell}"
            )
        start, end = self._slot_range(addr)
        if self.kind is DeviceKind.NON_OVERWRITABLE:
            for offset, (old, new) in enumerate(
                zip(page.cells[start:end], data.levels)
            ):
                if new < old:
                    raise MonotoneViolation(
                        f"cell {start + offset} of {addr} would drop {old} -> {new}"
                    )
            if (
                page.status is PageStatus.PROGRAMMED
                and page.partial_program_count >= self.nop_limit
            ):
                raise NopExceeded(
                    f"page ({addr.block},{addr.page}) used its {self.nop_limit} "
                    f"partial programs"
                )
            if page.status is PageStatus.PROGRAMMED:
                page.partial_program_count += 1
        page.cells[start:end] = list(data.levels)
        page.status = PageStatus.PROGRAMMED
        self.ledger.charge_program(self.latency.t_program_us)

    def erase_block(self, block: int):
        """Reset every cell of the block to level 0; the only downward path."""
        self._check_block(block)
        g = self.geometry
        for page in self.blocks[block]:
            page.cells = [0] * g.cells_per_page
            page.status = PageStatus.FREE
            page.partial_program_count = 0
        base = block * g.slots_per_block
        for i in range(base, base + g.slots_per_block):
            self._allocated[i] = False
        self.erase_counts[block] += 1
        self._alloc_hint = min(self._alloc_hint, base)
        self.ledger.charge_erase(self.latency.t_erase_us)

    def garbage_collect(self, block: int):
        """Move every page holding valid cache data out of the block, then
        erase it.

        Only the valid slots' cells are copied to the destination page; stale
        invalid data sharing a page with live data dies with the erase. Cost
        is one read plus one program per migrated page, plus the erase.
        """
        self._check_block(block)
        g = self.geometry
        by_page = {}
        for cid in sorted(self.cache_table.valid_ids_in_block(block)):
            entry = self.cache_table.get(cid)
            by_page.setdefault(entry.addr.page, []).append((cid, entry))
        if by_page:
            dests = self._find_free_pages(len(by_page), exclude_block=block)
            for (page_no, movers), (dst_block, dst_page) in zip(
                sorted(by_page.items()), dests
            ):
                src = self.blocks[block][page_no]
                dst = self.blocks[dst_block][dst_page]
                for cid, entry in movers:
                    start, end = self._slot_range(entry.addr)
                    dst.cells[start:end] = src.cells[start:end]
                    new_addr = PhysAddr(dst_block, dst_page, entry.addr.slot)
                    self._allocated[self._linear(new_addr)] = True
                    self.cache_table.move(cid, new_addr)
                dst.status = PageStatus.PROGRAMMED
                self.ledger.charge_gc_migration(self.latency.gc_migration_per_page_us)
        self.erase_block(block)

    def _find_free_pages(self, count: int, exclude_block: int) -> list:
        """``count`` erased pages with no allocated slots, for GC migration.

        Rotating first-fit: the search resumes where the previous one left
        off and wraps around once, so repeated collections stay O(1) per page
        over the life of the device.
        """
        g = self.geometry
        total_pages = g.blocks * g.pages_per_block
        found = []
        index = self._dest_page_hint
        for _ in range(total_pages):
            block, page_no = divmod(index, g.pages_per_block)
            if block != exclude_block:
                page = self.blocks[block][page_no]
                if page.status is PageStatus.FREE:
                    base = index * g.slots_per_page
                    if not any(self._allocated[base : base + g.slots_per_page]):
                        found.append((block, page_no))
            index += 1
            if index == total_pages:
                index = 0
            if len(found) == count:
                self._dest_page_hint = index
                return found
        raise NoFreePages(f"need {count} destination pages, found {len(found)}")

    # -- slot allocation ----------------------------------------------------

    def _slot_writable(self, linear: int) -> bool:
        g = self.geometry
        page_index = linear // g.slots_per_page
        block, page_no = divmod(page_index, g.pages_per_block)
        page = self.blocks[block][page_no]
        if page.status is PageStatus.FREE or self.kind is DeviceKind.OVERWRITABLE:
            return True
        return page.partial_program_count < self.nop_limit

    def allocate_slot(self) -> PhysAddr:
        """First-fit allocation in page order.

        Occupied slots stay unavailable until their block is erased; with
        ``reclaim_invalid_slots`` the allocator may also hand out slots whose
        cache entries went invalid (dropping those entries). Reclaimed NAND
        slots still hold their old levels, so reuse is only generally safe on
        overwritable devices.
        """
        if self.reclaim_invalid_slots:
            return self._allocate_with_reclaim()
        for linear in range(self._alloc_hint, self.geometry.total_slots):
            if self._allocated[linear]:
                continue
            if self._slot_writable(linear):
                self._allocated[linear] = True
                self._alloc_hint = linear + 1
                return self._addr(linear)
        raise DeviceFull("no writable slot available")

    def _allocate_with_reclaim(self) -> PhysAddr:
        holders = {}
        for cid, entry in self.cache_table.items():
            holders[self._linear(entry.addr)] = (cid, entry)
        for linear in range(self.geometry.total_slots):
            if self._allocated[linear]:
                held = holders.get(linear)
                if held is not None and held[1].valid:
                    continue
                if held is not None:
                    self.cache_table.drop(held[0])
                self._allocated[linear] = False
            if self._slot_writable(linear):
                self._allocated[linear] = True
                return self._addr(linear)
        raise DeviceFull("no writable slot available")

    # -- cache table --------------------------------------------------------

    def set_valid_bit(self, cache_id: int, valid: bool, now: int):
        self.cache_table.set_valid(cache_id, valid, now)

    # -- introspection ------------------------------------------------------

    @property
    def total_erases(self) -> int:
        return sum(self.erase_counts)

    def free_page_count(self) -> int:
        return sum(
            1
            for block in self.blocks
            for page in block
            if page.status is PageStatus.FREE
        )

    def valid_payloads(self) -> dict:
        """cache_id -> stored word for every valid entry (no latency charge)."""
        return {
            cid: self.peek_slot(entry.addr)
            for cid, entry in self.cache_table.valid_entries()
        }
