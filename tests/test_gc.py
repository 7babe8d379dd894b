"""Garbage collection in runs of pages.

The reference below is the collector as it was before the flat per-slot
holder index: sort the block's valid ids, group them by page, move each page
to the next free page and repoint each entry. It rebuilds the block's valid
ids from the whole cache table, and it moves an entry by dropping and
re-registering it, so it reads no index the device keeps. It also keeps its
own page-by-page free-page probe. The device, which finds live pages and
free pages as runs, must leave the same cells, page states, occupancy, cache
table and ledger, and raise the same errors.
"""

import hashlib
from typing import NamedTuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

import pytest

from ddnsim import (
    CacheTable,
    DeviceError,
    DeviceKind,
    Geometry,
    LatencyLedger,
    NoFreePages,
    NvmDevice,
    parse_config_text,
    parse_trace,
    run,
    synthetic_trace,
)
from ddnsim.metrics import ledger_costs


class ReferenceGcDevice(NvmDevice):
    """The device with the page-by-page collector it replaced."""

    def garbage_collect(self, block):
        self._check_block(block)
        g = self.geometry
        table = self.cache_table
        by_page = {}
        for cid, entry in sorted(table._entries.items()):
            if entry.valid and g.block_of(entry.addr) == block:
                by_page.setdefault(entry.addr // g.slots_per_page, []).append((cid, entry))
        if by_page:
            dests = self._find_free_pages(len(by_page), exclude_block=block)
            width = g.cells_per_cache_slot
            for (page, movers), dst_page in zip(sorted(by_page.items()), dests):
                shift = (dst_page - page) * g.slots_per_page
                for cid, entry in movers:
                    src, dst = entry.addr, entry.addr + shift
                    self._cells[dst * width : (dst + 1) * width] = self._cells[
                        src * width : (src + 1) * width
                    ]
                    self._allocated[dst] = 1
                    table.register(cid, dst, entry.written_at)
                self._programmed[dst_page] = 1
                self.ledger.charge_gc_migration(self.latency.gc_migration_per_page_us)
        self.erase_block(block)

    def _find_free_pages(self, count: int, exclude_block: int) -> list:
        """Numbers of ``count`` erased pages with no allocated slots, for GC
        migration.

        Rotating first-fit: the search resumes where the previous one left
        off and wraps around once, so repeated collections stay O(1) per page
        over the life of the device.
        """
        g = self.geometry
        total_pages = g.blocks * g.pages_per_block
        found = []
        index = self._dest_page_hint
        for _ in range(total_pages):
            if index // g.pages_per_block != exclude_block and not self._programmed[index]:
                base = index * g.slots_per_page
                if not any(self._allocated[base : base + g.slots_per_page]):
                    found.append(index)
            index += 1
            if index == total_pages:
                index = 0
            if len(found) == count:
                self._dest_page_hint = index
                return found
        raise NoFreePages(f"need {count} destination pages, found {len(found)}")


# Slots of two 2-bit cells, 2 slots per page, in blocks of 3 or 8 pages, so
# the collector moves runs of pages from short and long blocks alike.
TINY = Geometry(
    blocks=3, pages_per_block=3, cells_per_page=4, bits_per_cell=2,
    cells_per_cache_slot=2,
)
LONG = Geometry(
    blocks=3, pages_per_block=8, cells_per_page=4, bits_per_cell=2,
    cells_per_cache_slot=2,
)
DEVICES = {
    "nand": {"geometry": TINY, "nop_limit": 1},
    "overwritable-reclaim": {
        "geometry": TINY, "kind": DeviceKind.OVERWRITABLE, "reclaim_invalid_slots": True,
    },
    "nand-long-blocks": {"geometry": LONG, "nop_limit": 1},
}

programs = st.lists(
    st.tuples(
        st.sampled_from(["write", "rewrite", "invalidate", "gc"]),
        st.integers(0, 11),
        st.integers(0, 15),
    ),
    max_size=80,
)


def _apply(device, op, n, level_bits, now):
    """One step; returns what it returned or the error type it raised."""
    table = device.cache_table
    valid = sorted(cid for cid, e in table._entries.items() if e.valid)
    try:
        if op in ("write", "rewrite"):
            if op == "rewrite":
                if not valid:
                    return None
                n = valid[n % len(valid)]  # a W over a still-valid copy
            addr = device.allocate_slot()
            device.program_slot(addr, bytes((level_bits & 3, level_bits >> 2)))
            table.register(n, addr, now)
            return addr
        if op == "invalidate":
            if valid:
                table.invalidate(valid[n % len(valid)])
        else:
            device.garbage_collect(n % device.geometry.blocks)
    except DeviceError as exc:
        return type(exc), str(exc)
    return None


def _state(device):
    return (
        bytes(device._cells),
        bytes(device._programmed),
        bytes(device._allocated),
        list(device._program_counts),
        list(device.erase_counts),
        dict(device.cache_table._entries.items()),
        ledger_costs(device.ledger),
    )


@given(st.sampled_from(sorted(DEVICES)), programs)
# Fill the device, then collect a block whose pages have nowhere to go.
@example("nand", [("write", n, 5) for n in range(18)] + [("gc", 1, 0)])
# Collect a page holding one valid and one stale copy, then fill up.
@example(
    "overwritable-reclaim",
    [("write", 0, 1), ("write", 1, 2), ("invalidate", 1, 0), ("gc", 0, 0)]
    + [("write", n, 3) for n in range(2, 20)],
)
# Collect consecutive pages whose free destination pages are not consecutive.
@example(
    "nand",
    [("write", 0, 0)] * 8
    + [("write", 1, 0), ("gc", 1, 0), ("gc", 0, 0), ("write", 0, 0), ("write", 0, 0)]
    + [("write", 1, 0), ("gc", 0, 0)],
)
@settings(max_examples=300, deadline=None)
def test_indexed_gc_matches_the_page_by_page_reference(kind, program):
    device = NvmDevice(**DEVICES[kind])
    reference = ReferenceGcDevice(**DEVICES[kind])
    for now, (op, n, level_bits) in enumerate(program):
        got = _apply(device, op, n, level_bits, now)
        want = _apply(reference, op, n, level_bits, now)
        assert got == want, f"step {now}: {op} {n}"
        assert _state(device) == _state(reference), f"step {now}: {op} {n}"


def test_near_full_erase_based_run_is_pinned():
    """EraseBased on a 64-slot device filled by 32 W/F/U rounds: seven
    collections find no free destination page, and each of those deletions
    carries a ``NoFreePages`` error. The hashes were taken before the
    per-slot holder index replaced the per-block and per-address ones."""
    cfg = parse_config_text("seed = 5\npolicies = EraseBased\nblocks = 4\npages_per_block = 8\n")
    text = synthetic_trace(32, 1.0, cfg.seed, cfg.cells_per_cache_slot, cfg.bits_per_cell)
    report = run(cfg, parse_trace(text, cfg.cells_per_cache_slot, cfg.bits_per_cell))
    errors = [d.error for d in report.runs[0].collector.deletions if d.error]
    assert errors == [f"need {n} destination pages, found 0" for n in range(1, 8)]
    assert hashlib.sha256(report.csv_text.encode()).hexdigest() == (
        "cfe65e1bb0742d2fb91c5779b0be200caefb47e95d98bab5790174c4d9ba112e"
    )
    assert hashlib.sha256(report.jsonl_text.encode()).hexdigest() == (
        "1497872c67f5d31ef402ff5c696d556beb4c6cc81a4e34ac8b990f17636b7e8a"
    )


# -- the free-page search ---------------------------------------------------


class FreeSearch(NamedTuple):
    """A device state for ``_find_free_pages``: programmed pages, allocated
    slots (on programmed pages or not), the rotating hint, the victim block
    and the number of pages asked for."""

    blocks: int
    pages_per_block: int
    slots_per_page: int
    programmed: tuple
    allocated: tuple
    hint: int
    victim: int
    count: int

    def device(self, cls):
        geometry = Geometry(
            blocks=self.blocks, pages_per_block=self.pages_per_block,
            cells_per_page=self.slots_per_page, bits_per_cell=2, cells_per_cache_slot=1,
        )
        device = cls(geometry=geometry)
        for page in self.programmed:
            device._programmed[page] = 1
        for slot in self.allocated:
            device._allocated[slot] = 1
        device._dest_page_hint = self.hint
        return device


@st.composite
def free_searches(draw):
    blocks, pages_per_block = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    slots_per_page = draw(st.integers(1, 3))
    pages = blocks * pages_per_block
    programmed = draw(st.lists(st.integers(0, pages - 1), max_size=pages, unique=True))
    allocated = draw(
        st.lists(st.integers(0, pages * slots_per_page - 1), max_size=pages, unique=True)
    )
    return FreeSearch(
        blocks, pages_per_block, slots_per_page, tuple(programmed), tuple(allocated),
        draw(st.integers(0, pages - 1)), draw(st.integers(0, blocks - 1)),
        draw(st.integers(1, pages + 1)),
    )


def _search(case, cls):
    """The pages found in order (or the error text), the hint after, and
    the arrays the search must not change."""
    device = case.device(cls)
    arrays = (bytes(device._programmed), bytes(device._allocated))
    try:
        found = device._find_free_pages(case.count, case.victim)
    except NoFreePages as exc:
        found = str(exc)
    else:
        if cls is NvmDevice:
            assert all(n >= 1 for _, n in found)
            found = [page for first, n in found for page in range(first, first + n)]
    assert (bytes(device._programmed), bytes(device._allocated)) == arrays
    return found, device._dest_page_hint


# 3 blocks of 4 pages, 2 slots per page.
PINNED = {
    # Free pages 0, 1, 10, 11; searching from page 10 wraps to page 0.
    "wrap-around": (FreeSearch(3, 4, 2, tuple(range(2, 10)), (), 10, 1, 3),
                    [(10, 2), (0, 1)], 1),
    # Every page is free; the victim block 1 (pages 4-7) splits the run.
    "victim-inside-a-free-run": (FreeSearch(3, 4, 2, (), (), 2, 1, 4),
                                 [(2, 2), (8, 2)], 10),
    # Free: 1, 2, 3, 4, 7 (page 9 has an allocated slot, 8-11 are the victim).
    "all-free-pages": (FreeSearch(3, 4, 2, (0, 5, 6), (19,), 3, 2, 5),
                       [(3, 2), (7, 1), (1, 2)], 3),
    "one-above-all-free-pages": (FreeSearch(3, 4, 2, (0, 5, 6), (19,), 3, 2, 6),
                                 "need 6 destination pages, found 5", 3),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_free_page_search_pinned_cases(name):
    case, runs, hint = PINNED[name]
    device = case.device(NvmDevice)
    try:
        got = device._find_free_pages(case.count, case.victim)
    except NoFreePages as exc:
        got = str(exc)
    assert (got, device._dest_page_hint) == (runs, hint)
    assert _search(case, NvmDevice) == _search(case, ReferenceGcDevice)


@given(free_searches())
@settings(max_examples=500, deadline=None)
def test_free_page_search_matches_the_page_by_page_probe(case):
    assert _search(case, NvmDevice) == _search(case, ReferenceGcDevice)


# -- moves in runs ----------------------------------------------------------


@pytest.fixture
def calls(monkeypatch):
    """Record each ``CacheTable.move`` and count ``charge_gc_migration`` calls."""
    seen = {"move": [], "charge": 0}
    move, charge = CacheTable.move, LatencyLedger.charge_gc_migration

    def counting_move(self, src, dst, n):
        seen["move"].append((src, dst, n))
        return move(self, src, dst, n)

    def counting_charge(self, us):
        seen["charge"] += 1
        charge(self, us)

    monkeypatch.setattr(CacheTable, "move", counting_move)
    monkeypatch.setattr(LatencyLedger, "charge_gc_migration", counting_charge)
    return seen


def test_a_fully_live_block_moves_as_one_run(calls):
    device = NvmDevice()  # 64 pages per block, 2 slots per page
    words = {}
    for cid in range(device.geometry.slots_per_block):
        addr = device.allocate_slot()
        words[cid] = bytes((cid + k) % 8 for k in range(8))
        device.program_slot(addr, words[cid])
        device.cache_table.register(cid, addr, 0)
    device.garbage_collect(0)
    assert calls["move"] == [(0, 128, 128)]
    assert calls["charge"] == 64
    table = device.cache_table
    assert {cid: device.peek_slot(e.addr) for cid, e in table._entries.items() if e.valid} == words
    assert device.erase_counts[0] == 1


@pytest.mark.parametrize("split", ["allocated-page", "device-end"])
def test_a_split_free_run_takes_two_moves(calls, split):
    """Four live pages of block 0 go to free pages 8, 9 and 11, 12 (page 10
    has an allocated slot) or to 22, 23 and, past the device end and the
    victim block, 8, 9. The reference collector leaves the same state."""
    devices = [NvmDevice(**DEVICES["nand-long-blocks"]),
               ReferenceGcDevice(**DEVICES["nand-long-blocks"])]
    for device in devices:
        for cid in range(8):
            addr = device.allocate_slot()
            device.program_slot(addr, bytes((cid % 4, cid // 4)))
            device.cache_table.register(cid, addr, 0)
        if split == "allocated-page":
            device._allocated[10 * 2 + 1] = 1
        else:
            device._dest_page_hint = 22
        device.garbage_collect(0)
    want = {"allocated-page": [(0, 16, 4), (4, 22, 4)],
            "device-end": [(0, 44, 4), (4, 16, 4)]}
    assert calls["move"] == want[split]
    assert _state(devices[0]) == _state(devices[1])
