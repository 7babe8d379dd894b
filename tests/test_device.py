import errno
import random
import tracemalloc
from operator import sub
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddnsim import (
    AddressError,
    CacheTable,
    DeviceError,
    DeviceFull,
    DeviceKind,
    Geometry,
    Host,
    LatencyParams,
    MonotoneViolation,
    NoFreePages,
    NopExceeded,
    NvmController,
    NvmDevice,
    gen_upward_word,
    max_level,
    parse_policy,
    parse_trace,
    synthetic_trace,
)

from ddnsim.metrics import ledger_costs

from conftest import SMALL
from test_reference import device_state


def w(*levels):
    return bytes(levels)


def at(block, page, slot):
    """A slot's address on SMALL: its number in page order."""
    return (block * SMALL.pages_per_block + page) * SMALL.slots_per_page + slot


def test_geometry_validation():
    with pytest.raises(ValueError):
        Geometry(blocks=0)
    with pytest.raises(ValueError):
        Geometry(cells_per_page=10, cells_per_cache_slot=4)
    with pytest.raises(ValueError, match="bits_per_cell must be <= 8"):
        Geometry(bits_per_cell=9)
    assert Geometry(bits_per_cell=8).max_level == 255
    g = SMALL
    assert g.slots_per_page == 2
    assert g.total_slots == 32
    assert g.max_level == 7


def test_latency_defaults_and_derived():
    lat = LatencyParams()
    assert (lat.t_read_us, lat.t_program_us, lat.t_gen_us, lat.t_erase_us) == (
        49.0,
        600.0,
        100.0,
        4000.0,
    )
    assert lat.gc_migration_per_page_us == 649.0
    with pytest.raises(ValueError):
        LatencyParams(t_read_us=-1)


def test_address_errors(make_device):
    device = make_device()
    # -1 would otherwise index the flat arrays from the end.
    for addr in (-1, SMALL.total_slots):
        for call in (device.peek_slot, device.read_slot, device.is_programmed):
            with pytest.raises(AddressError):
                call(addr)
        with pytest.raises(AddressError):
            device.program_slot(addr, w(1, 1, 1, 1))
    assert device.ledger.total_us == 0
    assert bytes(device._programmed).count(0) == SMALL.blocks * SMALL.pages_per_block
    with pytest.raises(AddressError):
        device.erase_block(4)


def test_read_after_program(make_device):
    device = make_device()
    addr = at(0, 0, 0)
    device.program_slot(addr, w(1, 2, 3, 4))
    assert device.read_slot(addr) == w(1, 2, 3, 4)


def test_read_free_page_is_all_zero_and_charged(make_device):
    device = make_device()
    assert device.read_slot(at(1, 2, 1)) == w(0, 0, 0, 0)
    assert device.ledger.rd_us == 49.0


def test_program_charges_and_read_charges(make_device):
    device = make_device()
    addr = at(0, 0, 0)
    device.program_slot(addr, w(1, 1, 1, 1))
    assert device.ledger.wr_us == 600.0
    device.read_slot(addr)
    assert device.ledger.rd_us == 49.0
    assert device.ledger.total_us == 649.0


def test_nand_upward_program_ok(make_device):
    device = make_device()
    addr = at(0, 0, 0)
    device.program_slot(addr, w(4, 4, 4, 4))
    device.program_slot(addr, w(5, 7, 4, 6))
    assert device.peek_slot(addr) == w(5, 7, 4, 6)


def test_nand_downward_program_rejected_without_mutation(make_device):
    device = make_device()
    addr = at(0, 0, 0)
    device.program_slot(addr, w(5, 5, 5, 5))
    before_ledger = device.ledger.total_us
    with pytest.raises(MonotoneViolation):
        device.program_slot(addr, w(4, 6, 5, 5))
    assert device.peek_slot(addr) == w(5, 5, 5, 5)
    assert device.ledger.total_us == before_ledger


@pytest.mark.parametrize(
    "new, message",
    [
        (w(2, 5, 6, 7), "cell 0 of slot {addr} would drop 3 -> 2"),
        (w(3, 4, 2, 0), "cell 1 of slot {addr} would drop 5 -> 4"),
        (w(3, 5, 6, 5), "cell 3 of slot {addr} would drop 6 -> 5"),
    ],
    ids=["first-cell", "first-of-three-cells", "last-cell"],
)
def test_monotone_violation_names_the_first_dropping_cell(make_device, new, message):
    device = make_device(nop_limit=2)
    addr = at(1, 2, 1)
    device.program_slot(addr, w(3, 5, 6, 6))
    device.program_slot(at(1, 2, 0), w(1, 1, 1, 1))  # one partial program
    def state():
        return (bytes(device._cells), bytes(device._programmed), list(device._program_counts),
                ledger_costs(device.ledger))

    before = state()
    with pytest.raises(MonotoneViolation) as raised:
        device.program_slot(addr, new)
    assert str(raised.value) == message.format(addr=addr)
    assert state() == before


def test_overwritable_accepts_any_levels(make_device):
    device = make_device(kind=DeviceKind.OVERWRITABLE)
    addr = at(0, 0, 0)
    device.program_slot(addr, w(5, 5, 5, 5))
    device.program_slot(addr, w(0, 0, 0, 0))
    assert device.peek_slot(addr) == w(0, 0, 0, 0)


def test_partial_program_budget(make_device):
    device = make_device(nop_limit=2)
    addr = at(0, 0, 0)
    device.program_slot(addr, w(0, 0, 0, 0))  # full program of a free page
    assert device._program_counts[0] == 0
    device.program_slot(addr, w(1, 1, 1, 1))
    device.program_slot(addr, w(2, 2, 2, 2))
    assert device._program_counts[0] == 2
    with pytest.raises(NopExceeded):
        device.program_slot(addr, w(3, 3, 3, 3))
    assert device.peek_slot(addr) == w(2, 2, 2, 2)


def test_overwritable_ignores_nop_budget(make_device):
    device = make_device(kind=DeviceKind.OVERWRITABLE, nop_limit=0)
    addr = at(0, 0, 0)
    for level in range(5):
        device.program_slot(addr, w(level, level, level, level))
    assert device.peek_slot(addr) == w(4, 4, 4, 4)


def test_partial_program_leaves_other_slots_identical(make_device):
    device = make_device()
    a, b = at(0, 0, 0), at(0, 0, 1)
    device.program_slot(a, w(1, 2, 3, 4))
    device.program_slot(b, w(5, 6, 7, 0))
    snapshot = list(device._cells[: SMALL.cells_per_page])
    device.program_slot(a, w(2, 3, 4, 5))
    after = list(device._cells[: SMALL.cells_per_page])
    assert after[4:] == snapshot[4:]  # slot b untouched
    assert device.peek_slot(b) == w(5, 6, 7, 0)


def test_wrong_slot_width_rejected(make_device):
    device = make_device()
    for word in (w(), w(1, 2), w(1, 2, 3, 4, 5)):
        with pytest.raises(ValueError, match="cells, slot is 4"):
            device.program_slot(at(0, 0, 0), word)


def test_program_slot_rejects_level_above_top(make_device):
    """program_slot is the one gate for words entering the cell array: a
    level the cell width cannot hold is rejected before anything changes."""
    device = make_device()
    addr = at(0, 0, 0)
    for word in (w(1, 2, 3, 8), w(255, 0, 0, 0)):
        with pytest.raises(ValueError, match=r"out of range \[0, 7\]"):
            device.program_slot(addr, word)
    assert device.peek_slot(addr) == w(0, 0, 0, 0)
    assert not device.is_programmed(addr)
    assert device.ledger.total_us == 0
    device.program_slot(addr, w(7, 7, 7, 7))
    assert device.peek_slot(addr) == w(7, 7, 7, 7)


@given(st.integers(1, 8), st.binary(min_size=1, max_size=24))
# At 3 bits per cell: the top level itself, and a level one above it.
@example(3, bytes((7,)))
@example(3, bytes((0, 8, 1)))
@settings(max_examples=150, deadline=None)
def test_level_gates_refuse_exactly_a_level_above_the_top(bits, word):
    """``program_slot``'s and ``gen_upward_word``'s level checks against
    ``max``: each refuses a word exactly when a level is above the top, with
    the one message, before it changes a cell, the ledger or the random stream."""
    top = max_level(bits)
    refused, message = max(word) > top, f"level {max(word)} out of range [0, {top}]"
    geometry = Geometry(blocks=1, pages_per_block=1, cells_per_page=len(word),
                        bits_per_cell=bits, cells_per_cache_slot=len(word))
    for kind in DeviceKind:
        device = NvmDevice(geometry=geometry, kind=kind)
        before = device_state(device)
        if refused:
            with pytest.raises(ValueError) as info:
                device.program_slot(0, word)
            assert str(info.value) == message
            assert device_state(device) == before
        else:
            device.program_slot(0, word)
    rng = random.Random(bits)
    before = rng.getstate()
    if refused:
        with pytest.raises(ValueError) as info:
            gen_upward_word(word, bits, rng)
        assert str(info.value) == message
        assert rng.getstate() == before
    else:
        gen_upward_word(word, bits, rng)


def test_erase_block(make_device):
    device = make_device()
    addr = at(1, 0, 0)
    device.program_slot(addr, w(3, 3, 3, 3))
    device.program_slot(addr, w(4, 4, 4, 4))
    before = device.ledger.total_us
    device.erase_block(1)
    assert device.ledger.total_us - before == 4000.0
    assert device.erase_counts[1] == 1
    assert sum(device.erase_counts) == 1
    first, n, width = SMALL.pages_per_block, SMALL.pages_per_block, SMALL.cells_per_page
    assert bytes(device._programmed[first : first + n]) == bytes(n)
    assert device._program_counts[first : first + n].tolist() == [0] * n
    assert device._cells[first * width : (first + n) * width] == bytes(n * width)
    assert device.peek_slot(addr) == w(0, 0, 0, 0)


def test_erase_refuses_a_block_holding_valid_data(make_device):
    """At most one valid entry holds a slot: erasing a block a valid entry
    points into would let the allocator hand its slot out again."""
    device = make_device()
    addr = device.allocate_slot()
    device.program_slot(addr, w(1, 2, 3, 4))
    device.cache_table.register(7, addr)
    before = ledger_costs(device.ledger)
    with pytest.raises(DeviceError, match="^block 0 still holds valid data$"):
        device.erase_block(0)
    assert device.peek_slot(addr) == w(1, 2, 3, 4)
    assert device.erase_counts[0] == 0
    assert ledger_costs(device.ledger) == before
    assert device.allocate_slot() != addr
    device.cache_table.invalidate(7)
    device.erase_block(0)  # stale data is no obstacle
    assert device.peek_slot(addr) == w(0, 0, 0, 0)


def test_register_refuses_a_slot_another_valid_id_holds(make_device):
    device = make_device()
    addr = device.allocate_slot()
    table = device.cache_table
    table.register(7, addr)
    with pytest.raises(DeviceError, match=f"^slot {addr} already holds valid cache_id 7$"):
        table.register(8, addr)
    assert table.slot(8) is None
    assert table.slot(7) == addr and table.is_valid(7)
    table.register(7, addr)  # the holder itself may re-register
    table.invalidate(7)
    table.register(8, addr)  # a stale holder is no obstacle
    assert table._slot == {8: addr}


def test_move_repoints_valid_entries_and_refuses_a_held_destination(make_device):
    device = make_device()
    table = device.cache_table
    table.register(1, 0)
    table.register(2, 2)
    table.invalidate(2)
    table.register(3, 7)
    assert table.move(0, 4, 3) == bytearray([1, 0, 0])
    assert table.slot(1) == 4 and table.is_valid(1)
    assert table.slot(2) is None  # an invalid copy has no entry to move
    assert table.held(0, 8) == bytearray([0, 0, 0, 0, 1, 0, 0, 1])
    with pytest.raises(DeviceError, match="^slots 6..7 already hold valid data$"):
        table.move(4, 6, 2)
    assert table.slot(1) == 4 and table.slot(3) == 7


def test_set_valid_bit(make_device):
    device = make_device()
    addr = device.allocate_slot()
    device.program_slot(addr, w(1, 1, 1, 1))
    table = device.cache_table
    table.register(7, addr)  # the flush tick is the controller's (secure mode only)
    assert table.is_valid(7) and table.slot(7) == addr
    assert table.invalidate(7) == addr  # the slot of the copy dropped
    assert not table.is_valid(7) and table.slot(7) is None
    assert table.held(addr, addr + 1) == bytearray([0])
    assert table.invalidate(7) is None  # an id with no valid copy is left alone
    assert table.invalidate(8) is None  # as is one never registered
    assert table._slot == {} and table.held(0, SMALL.total_slots) == bytearray(SMALL.total_slots)


def test_allocate_first_fit_order(make_device):
    device = make_device()
    addrs = [device.allocate_slot() for _ in range(4)]
    assert addrs == [0, 1, 2, 3]
    device.erase_block(0)
    assert device.allocate_slot() == 0


def test_allocate_skips_pages_out_of_budget(make_device):
    device = make_device(nop_limit=0)
    first = device.allocate_slot()
    device.program_slot(first, w(1, 1, 1, 1))
    # the sibling slot's page has no reprogram budget left, so skip it
    assert device.allocate_slot() == at(0, 1, 0)


def test_allocate_until_full():
    geometry = Geometry(
        blocks=1, pages_per_block=1, cells_per_page=4, bits_per_cell=3,
        cells_per_cache_slot=4,
    )
    device = NvmDevice(geometry=geometry)
    device.allocate_slot()
    with pytest.raises(DeviceFull):
        device.allocate_slot()


def _stage_valid(device, cache_id, addr, word):
    device._allocated[addr] = True
    device.program_slot(addr, word)
    device.cache_table.register(cache_id, addr)


def test_gc_cost_empty_victim(make_device):
    device = make_device()
    before = ledger_costs(device.ledger)
    device.garbage_collect(2)
    spent = tuple(map(sub, ledger_costs(device.ledger), before))
    assert spent == (0.0, 0.0, 0.0, 4000.0, 0.0)


def test_gc_cost_three_valid_pages(make_device):
    # 3 migrated pages at (49 + 600) each, plus the erase: 5947 in total
    device = make_device()
    _stage_valid(device, 1, at(0, 0, 0), w(1, 2, 3, 4))
    _stage_valid(device, 2, at(0, 1, 1), w(2, 3, 4, 5))
    _stage_valid(device, 3, at(0, 3, 0), w(3, 4, 5, 6))
    before = ledger_costs(device.ledger)
    device.garbage_collect(0)
    spent = tuple(map(sub, ledger_costs(device.ledger), before))
    assert spent == (0.0, 0.0, 0.0, 4000.0, 3 * 649.0)
    assert sum(spent) == 5947.0


def test_gc_preserves_valid_payloads_and_drops_invalid(make_device):
    device = make_device()
    _stage_valid(device, 1, at(0, 0, 0), w(1, 2, 3, 4))
    _stage_valid(device, 2, at(0, 0, 1), w(5, 6, 7, 0))
    _stage_valid(device, 3, at(0, 2, 0), w(7, 7, 7, 7))
    stale_addr = at(0, 0, 1)
    device.cache_table.invalidate(2)

    def valid_words():
        return {cid: device.peek_slot(slot) for cid, slot in device.cache_table._slot.items()}

    payloads = valid_words()
    device.garbage_collect(0)
    assert valid_words() == payloads
    for cid in (1, 3):
        assert SMALL.block_of(device.cache_table.slot(cid)) != 0
    # the invalidated neighbor was not migrated; its old location is erased
    assert device.peek_slot(stale_addr) == w(0, 0, 0, 0)
    assert not device.is_programmed(stale_addr)


@pytest.mark.parametrize(
    "options",
    [{}, {"kind": DeviceKind.OVERWRITABLE, "reclaim_invalid_slots": True}],
    ids=["nand", "overwritable-reclaim"],
)
def test_gc_destination_slots_are_never_handed_out(make_device, options):
    device = make_device(**options)
    for cid, word in ((1, w(1, 2, 3, 4)), (2, w(4, 3, 2, 1))):
        addr = device.allocate_slot()
        device.program_slot(addr, word)
        device.cache_table.register(cid, addr)
    device.cache_table.invalidate(2)
    device.garbage_collect(0)
    moved = device.cache_table.slot(1)
    assert SMALL.block_of(moved) != 0
    handed_out = []
    while True:
        try:
            addr = device.allocate_slot()
        except DeviceFull:
            break
        device.cache_table.register(100 + len(handed_out), addr)
        handed_out.append(addr)
    assert moved not in handed_out
    assert len(set(handed_out)) == len(handed_out) == SMALL.total_slots - 1
    assert device.cache_table.slot(1) == moved
    assert device.peek_slot(moved) == w(1, 2, 3, 4)


def test_gc_no_free_pages_raises_before_mutation():
    geometry = Geometry(
        blocks=2, pages_per_block=1, cells_per_page=4, bits_per_cell=3,
        cells_per_cache_slot=4,
    )
    device = NvmDevice(geometry=geometry)
    _stage_valid(device, 1, 0, w(1, 2, 3, 4))  # one slot per block
    _stage_valid(device, 2, 1, w(4, 3, 2, 1))
    with pytest.raises(NoFreePages):
        device.garbage_collect(0)
    assert device.peek_slot(0) == w(1, 2, 3, 4)
    assert device.erase_counts == [0, 0]


def test_ledger_replay_identical(make_device):
    def replay(device):
        device.program_slot(at(0, 0, 0), w(1, 1, 1, 1))
        device.read_slot(at(0, 0, 0))
        device.program_slot(at(0, 0, 0), w(2, 2, 2, 2))
        device.erase_block(0)
        return (
            device.ledger.rd_us,
            device.ledger.wr_us,
            device.ledger.erase_us,
            device.ledger.total_us,
        )

    assert replay(make_device()) == replay(make_device())


def test_reclaim_reuses_invalid_slots(make_device):
    device = make_device(kind=DeviceKind.OVERWRITABLE, reclaim_invalid_slots=True)
    addr = device.allocate_slot()
    device.program_slot(addr, w(1, 2, 3, 4))
    device.cache_table.register(5, addr)
    device.cache_table.invalidate(5)
    assert device.allocate_slot() == addr
    assert device.cache_table.slot(5) is None and not device.cache_table.is_valid(5)


def test_no_reclaim_by_default(make_device):
    device = make_device(kind=DeviceKind.OVERWRITABLE)
    addr = device.allocate_slot()
    device.program_slot(addr, w(1, 2, 3, 4))
    device.cache_table.register(5, addr)
    device.cache_table.invalidate(5)
    assert device.allocate_slot() != addr


def test_reclaim_needs_overwritable_device(make_device):
    with pytest.raises(ValueError, match="reclaim_invalid_slots"):
        make_device(reclaim_invalid_slots=True)


def test_nop_limit_must_be_non_negative(make_device):
    with pytest.raises(ValueError, match="nop_limit must be >= 0, got -1"):
        make_device(nop_limit=-1)


def test_cache_table_that_cannot_be_allocated_is_a_device_error(monkeypatch):
    # Running out of memory while building the cache table must end as a
    # DeviceError (exit 4), not a MemoryError traceback. Raising it here
    # takes no memory.
    class NoMemoryTable:
        def __init__(self, total_slots):
            raise MemoryError

    monkeypatch.setattr("ddnsim.device.CacheTable", NoMemoryTable)
    with pytest.raises(DeviceError, match="cannot allocate"):
        NvmDevice(geometry=SMALL)


def test_refused_mapping_is_a_device_error(monkeypatch):
    # The cell array and reprogram counts are anonymous mappings, and a
    # mapping the kernel refuses raises OSError, which must also end as a
    # DeviceError (exit 4).
    def refuse(*args, **kwargs):
        raise OSError(errno.ENOMEM, "Cannot allocate memory")

    monkeypatch.setattr("ddnsim.device.mmap", SimpleNamespace(mmap=refuse, ACCESS_COPY=0))
    with pytest.raises(DeviceError, match="cannot allocate"):
        NvmDevice(geometry=SMALL)


def test_building_a_device_pays_for_no_slot_yet():
    """At 64 slots per page (1,048,576 slots) a new device traces under
    0.25 MB: its holder list starts empty, where a list of every slot alone
    took 8.4 MB, and its byte masks are mappings, not 1 MB bytearrays."""
    tracemalloc.start()
    try:
        NvmDevice(geometry=Geometry(cells_per_page=512))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25e6


@pytest.mark.parametrize("policy", ["MarkOnly", "EraseBased", "DdnRandom", "DdnNonRandom"])
def test_the_holder_list_covers_the_slots_a_run_touches(monkeypatch, policy):
    """After 20 W/F/U rounds on the default device (32,768 slots) the holder
    list reaches the highest slot a copy was registered at or moved into,
    and less than twice as far: one doubling step past it at most."""
    reached = [0]
    register, move = CacheTable.register, CacheTable.move

    def counted_register(self, cache_id, addr):
        reached[0] = max(reached[0], addr + 1)
        return register(self, cache_id, addr)

    def counted_move(self, src, dst, n):
        reached[0] = max(reached[0], src + n, dst + n)
        return move(self, src, dst, n)

    monkeypatch.setattr(CacheTable, "register", counted_register)
    monkeypatch.setattr(CacheTable, "move", counted_move)
    device = NvmDevice()
    host = Host(NvmController(device, parse_policy(policy), random.Random(1)))
    host.run_trace(parse_trace(synthetic_trace(20, 1.0, 1, 8, 3), 8, 3))
    assert len(host.controller.collector.deletions) == 20
    assert reached[0] <= len(device.cache_table._valid_at) < 2 * reached[0]


def test_moves_and_registers_past_the_holder_list_end_land_in_place():
    table = CacheTable(8192)
    table.register(1, 5)
    assert len(table._valid_at) == 6
    assert table.move(4, 600, 4) == bytearray([0, 1, 0, 0])
    assert len(table._valid_at) == 604  # the farther end, not twice the old length
    assert table.slot(1) == 601 and table._valid_at.index(1) == 601
    table.register(2, 900)
    assert len(table._valid_at) == 1208  # doubled
    table.register(3, 1400)  # 2,416 slots would be over a quarter of them: all
    assert len(table._valid_at) == 8192
    assert [i for i, cid in enumerate(table._valid_at) if cid is not None] == [601, 900, 1400]
    assert table.held(0, 8192).count(1) == 3
    with pytest.raises(IndexError):
        table.register(4, 8192)


def test_a_holder_list_that_cannot_grow_is_a_device_error(monkeypatch, capsys):
    """Running out of memory while the holder list grows ends the CLI with a
    device error (exit 4), as a table that cannot be built does, not with a
    MemoryError traceback. Raising it here takes no memory."""
    from ddnsim.cli import main

    class NoRoom(list):
        def extend(self, items):
            raise MemoryError

    build = CacheTable.__init__

    def without_room(self, total_slots):
        build(self, total_slots)
        self._valid_at = NoRoom()

    monkeypatch.setattr(CacheTable, "__init__", without_room)
    assert main(["--synthetic", "3", "--seed", "1"]) == 4
    assert capsys.readouterr() == ("", "ddnsim: device error: cannot grow the cache table "
                                       "to 1 slots\n")
