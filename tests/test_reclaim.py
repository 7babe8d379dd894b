"""Slot reclaim on an overwritable device (``reclaim_invalid_slots``).

A reclaimed slot is one whose cache entries have all gone invalid. Reuse
must never hand out a slot that a valid entry still points at, or two ids
would share one copy and one of them would read back the other's data.
``test_indexed_reclaim_matches_full_scan`` checks each reclaim allocation
against ``reference.py``'s scan for the lowest slot no valid copy holds.
"""

import gc
import random
import weakref

import pytest
from hypothesis import example, given, settings

from ddnsim import (
    DeviceKind,
    Host,
    NvmController,
    NvmDevice,
    parse_config_text,
    parse_policy,
    parse_trace,
)

from test_golden import CASES, _reclaim_trace
from test_reference import TINY, check, programs


@given(programs)
# GC moves two copies to page 3, above every slot handed out so far; reclaim
# must skip that page when it gets there.
@example([("write", 0, 1), ("write", 1, 2), ("gc", 0, 0)] + [("write", n, 3) for n in range(2, 9)])
# Fill all 18 slots, fail to allocate, then reclaim an invalidated slot.
@example([("write", n, n % 16) for n in range(18)]
         + [("write", 18, 0), ("gc", 0, 0), ("invalidate", 3, 0), ("write", 18, 5),
            ("write", 19, 1), ("allocate", 0, 0)])
@settings(max_examples=75, deadline=None)
def test_indexed_reclaim_matches_full_scan(program):
    check("overwritable-reclaim", program)


def test_erase_based_reclaim_never_clobbers_a_valid_copy():
    # After a GC erase, reclaim hands out slots of the erased block again; no
    # valid copy may read back another id's data.
    cfg = parse_config_text(CASES["overwritable-reclaim"][0])
    events = parse_trace(_reclaim_trace(cfg), cfg.cells_per_cache_slot, cfg.bits_per_cell)
    device = NvmDevice(geometry=cfg.geometry(), kind=cfg.device_kind, reclaim_invalid_slots=True)
    controller = NvmController(device, parse_policy("EraseBased"), random.Random(cfg.seed))
    host = Host(controller, cfg.dram_capacity, cfg.flush_idle_threshold)
    flushed = {}
    flush_write = controller.flush_write

    def recording_flush(cache_id, payload):
        flushed[cache_id] = payload
        return flush_write(cache_id, payload)

    controller.flush_write = recording_flush
    for index, event in enumerate(events):
        host.apply_event(event)
        table = controller.device.cache_table
        valid = [(cid, table.slot(cid)) for cid in flushed if table.is_valid(cid)]
        addrs = [slot for _, slot in valid]
        assert len(addrs) == len(set(addrs)), f"event {index}: valid copies share a slot"
        for cid, slot in valid:
            assert controller.device.peek_slot(slot) == flushed[cid], (
                f"event {index}: cache_id {cid} reads back another id's data"
            )
    assert controller.collector.deletions


def test_finished_reclaim_device_is_freed_without_the_cycle_collector():
    """The cache table holds no reference to the device, so a device goes
    with its last reference instead of waiting for the cyclic garbage
    collector."""
    device = NvmDevice(geometry=TINY, kind=DeviceKind.OVERWRITABLE, reclaim_invalid_slots=True)
    table = device.cache_table
    for cid in range(3):
        addr = device.allocate_slot()
        device.program_slot(addr, bytes((cid, 3)))
        table.register(cid, addr)
    table.invalidate(0)
    table.register(1, device.allocate_slot())
    freed = weakref.ref(device)
    gc.disable()
    try:
        del device, table
        assert freed() is None
    finally:
        gc.enable()


def test_reclaim_search_reads_each_slot_about_twice():
    """Each allocation searches the holder mask from the low-water mark, so
    registering n ids reads about 2n mask bytes in all; a search from slot 0
    every time would read about n * n / 2."""

    class CountingMask(bytearray):
        read = 0

        def find(self, sub, start=0, end=None):
            stop = len(self) if end is None else min(end, len(self))
            found = super().find(sub, start, stop)
            CountingMask.read += (stop if found == -1 else found + 1) - start
            return found

    device = NvmDevice(kind=DeviceKind.OVERWRITABLE, reclaim_invalid_slots=True)
    table = device.cache_table
    table._held = CountingMask(table._held)
    n = 4000
    for cid in range(n):
        table.register(cid, device.allocate_slot())
    assert CountingMask.read <= 2 * n + 8


def test_update_of_an_id_whose_slot_reclaim_reused(tmp_path, capsys):
    """Reusing slot 0 for id 1 leaves id 0 with no valid copy; ``U 0``
    updates a line written before, so the run matches the device without
    reclaim."""
    from ddnsim.cli import main

    trace = tmp_path / "update.trace"
    trace.write_text("W 0 0x000000\nF\nI 0\nW 1 0x000001\nF\nU 0 0x000002\n")
    conf = tmp_path / "reclaim.conf"
    conf.write_text(
        "device_kind = overwritable\nreclaim_invalid_slots = true\n"
        "dram_capacity = 1\npolicies = MarkOnly\n"
    )
    args = ["--trace", str(trace), "--seed", "1"]
    assert main(["--config", str(conf), *args]) == 0
    reclaimed = capsys.readouterr()
    assert main([*args, "--policy", "MarkOnly"]) == 0
    expected = "POLICY,RD,WR,GEN,ERASE,GC,TOTAL_US,REMANENCE\nMarkOnly,0,0,0,0,0,1200,1\n"
    assert reclaimed == capsys.readouterr() == (expected, "")


@pytest.mark.parametrize("reclaim", ["true", "false"])
def test_second_invalidate_of_an_id_whose_slot_reclaim_reused(tmp_path, capsys, reclaim):
    """Slot 0 goes to id 1 under reclaim, and id 0 has no valid copy either
    way, so a second ``I 0`` is refused as it is on a device without reclaim."""
    from ddnsim.cli import main

    trace = tmp_path / "twice.trace"
    trace.write_text("W 0 0x000000\nF\nI 0\nW 1 0x000001\nF\nI 0\n")
    conf = tmp_path / "reclaim.conf"
    conf.write_text(
        f"device_kind = overwritable\nreclaim_invalid_slots = {reclaim}\npolicies = MarkOnly\n"
    )
    assert main(["--config", str(conf), "--trace", str(trace), "--seed", "1"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "ddnsim: trace error: line 6: no valid flushed copy for cache id 0\n"
