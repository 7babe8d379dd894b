"""Garbage collection in runs of pages, and its free-page search.

The device finds live pages and free pages as runs and moves a run per
slice. The tests here check whole collections on the NAND devices against
the page-by-page collector of ``reference.py``, check the free-page search
against the reference's probe and pin how runs split into moves.
"""

import hashlib
from typing import NamedTuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

import pytest

from ddnsim import (
    CacheTable,
    Geometry,
    LatencyLedger,
    NvmDevice,
    parse_config_text,
    parse_trace,
    run,
    synthetic_trace,
)

from reference import ReferenceDevice
from test_reference import ERRORS, check, device_state, pair, programs, step


@given(st.sampled_from(["nand", "nand-long-blocks", "nand-dense"]), programs)
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
@settings(max_examples=150, deadline=None)
def test_indexed_gc_matches_the_page_by_page_reference(kind, program):
    check(kind, program)


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

    def device(self):
        geometry = Geometry(
            blocks=self.blocks, pages_per_block=self.pages_per_block,
            cells_per_page=self.slots_per_page, bits_per_cell=2, cells_per_cache_slot=1,
        )
        device = NvmDevice(geometry=geometry)
        for page in self.programmed:
            device._programmed[page] = 1
        for slot in self.allocated:
            device._allocated[slot] = 1
        device._dest_page_hint = self.hint
        return device

    def reference(self):
        reference = ReferenceDevice(self.blocks, self.pages_per_block, self.slots_per_page, 2, 1)
        for page in self.programmed:
            reference.programmed[page] = True
        for slot in self.allocated:
            reference.allocated[slot] = True
        reference.probe = self.hint
        return reference


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


def _found(search, case):
    try:
        return search(case.count, case.victim)
    except ERRORS as exc:
        return type(exc).__name__, str(exc)


def _search(case):
    """The device's runs (or its error) and its hint after. The search
    changes no array, and finds the pages the reference probe finds and
    resumes where it resumes."""
    device, reference = case.device(), case.reference()
    arrays = (bytes(device._programmed), bytes(device._allocated))
    runs = pages = _found(device._find_free_pages, case)
    assert (bytes(device._programmed), bytes(device._allocated)) == arrays
    if isinstance(runs, list):
        assert all(n >= 1 for _, n in runs)
        pages = [page for first, n in runs for page in range(first, first + n)]
    assert (pages, device._dest_page_hint) == (
        _found(reference.free_pages, case), reference.probe)
    return runs, device._dest_page_hint


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
                                 ("NoFreePages", "need 6 destination pages, found 5"), 3),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_free_page_search_pinned_cases(name):
    case, runs, hint = PINNED[name]
    assert _search(case) == (runs, hint)


@given(free_searches())
@settings(max_examples=500, deadline=None)
def test_free_page_search_matches_the_page_by_page_probe(case):
    _search(case)


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
        device.cache_table.register(cid, addr)
    device.garbage_collect(0)
    assert calls["move"] == [(0, 128, 128)]
    assert calls["charge"] == 64
    table = device.cache_table
    assert {cid: device.peek_slot(slot) for cid, slot in table._slot.items()} == words
    assert device.erase_counts[0] == 1


@pytest.mark.parametrize("split", ["allocated-page", "device-end"])
def test_a_split_free_run_takes_two_moves(calls, split):
    """Four live pages of block 0 go to free pages 8, 9 and 11, 12 (page 10
    has an allocated slot) or to 22, 23 and, past the device end and the
    victim block, 8, 9. The reference leaves the same state."""
    device, reference = pair("nand-long-blocks")
    for side, table in ((device, device.cache_table), (reference, reference)):
        for cid in range(8):
            step(side, table, "write", cid, bytes((cid % 4, cid // 4)))
    if split == "allocated-page":
        device._allocated[10 * 2 + 1] = reference.allocated[10 * 2 + 1] = 1
    else:
        device._dest_page_hint = reference.probe = 22
    for side, table in ((device, device.cache_table), (reference, reference)):
        assert step(side, table, "gc", 0, None) is None
    want = {"allocated-page": [(0, 16, 4), (4, 22, 4)],
            "device-end": [(0, 44, 4), (4, 16, 4)]}
    assert calls["move"] == want[split]
    assert device_state(device) == reference.state()
