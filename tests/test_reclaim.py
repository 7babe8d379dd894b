"""Slot reclaim on an overwritable device (``reclaim_invalid_slots``).

A reclaimed slot is one whose cache entries have all gone invalid. Reuse
must never hand out a slot that a valid entry still points at, or two ids
would share one copy and one of them would read back the other's data.

The reference below is the full scan: collect the slots that valid entries
name from the whole cache table and take the lowest slot that is unallocated, or
allocated with no valid entry pointing at it. The device's indexed
allocator must hand out the same slots and leave the same state.
"""

import gc
import random
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddnsim import (
    DeviceError,
    DeviceFull,
    DeviceKind,
    Geometry,
    Host,
    LatencyLedger,
    MetricsCollector,
    NvmController,
    NvmDevice,
    parse_config_text,
    parse_policy,
    parse_trace,
)

from test_golden import CASES, _reclaim_trace

def test_erase_based_reclaim_never_clobbers_a_valid_copy():
    # After a GC erase, invalid entries still point into the erased block; a
    # slot they name may meanwhile hold another id's valid copy.
    cfg = parse_config_text(CASES["overwritable-reclaim"][0])
    events = parse_trace(_reclaim_trace(cfg), cfg.cells_per_cache_slot, cfg.bits_per_cell)
    ledger = LatencyLedger()
    device = NvmDevice(
        geometry=cfg.geometry(), kind=cfg.device_kind, ledger=ledger, reclaim_invalid_slots=True
    )
    controller = NvmController(
        device, parse_policy("EraseBased"), random.Random(cfg.seed), MetricsCollector(ledger)
    )
    host = Host(controller, cfg.dram_capacity, cfg.flush_idle_threshold)
    flushed = {}
    flush_write = controller.flush_write

    def recording_flush(cache_id, payload, now):
        flushed[cache_id] = payload
        return flush_write(cache_id, payload, now)

    controller.flush_write = recording_flush
    for index, event in enumerate(events):
        host.apply_event(event)
        table = controller.device.cache_table
        entries = [(cid, table.get(cid)) for cid in flushed]
        valid = [(cid, entry) for cid, entry in entries if entry is not None and entry.valid]
        addrs = [entry.addr for _, entry in valid]
        assert len(addrs) == len(set(addrs)), f"event {index}: valid entries share a slot"
        for cid, entry in valid:
            assert controller.device.peek_slot(entry.addr) == flushed[cid], (
                f"event {index}: cache_id {cid} reads back another id's data"
            )
    assert controller.collector.deletions


class ScanDevice(NvmDevice):
    """The device with reclaim allocation by a scan of the whole table."""

    def _allocate_with_reclaim(self):
        held = {entry.addr for entry in self.cache_table._entries.values() if entry.valid}
        for slot in range(self.geometry.total_slots):
            if slot in held:
                continue
            self._allocated[slot] = True
            return slot
        raise DeviceFull("no writable slot available")


# 12 slots of two 2-bit cells, 2 slots per page
TINY = Geometry(
    blocks=3, pages_per_block=2, cells_per_page=4, bits_per_cell=2,
    cells_per_cache_slot=2,
)

steps = st.lists(
    st.tuples(
        st.sampled_from(["write", "rewrite", "allocate", "invalidate", "gc", "erase"]),
        st.integers(0, 15),  # more ids than TINY has slots, so the device can fill
        st.integers(0, 15),
    ),
    max_size=60,
)


def _apply(device, op, n, level_bits, now):
    """One step; returns what it returned or the error type it raised."""
    table = device.cache_table
    valid = sorted(cid for cid, entry in table._entries.items() if entry.valid)
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
        if op == "allocate":  # allocated, never registered
            return device.allocate_slot()
        if op == "invalidate":
            if not valid:
                return None
            table.invalidate(valid[n % len(valid)])
        elif op == "gc":
            device.garbage_collect(n % TINY.blocks)
        else:
            device.erase_block(n % TINY.blocks)
    except DeviceError as exc:
        return type(exc)
    return None


@given(steps)
# GC moves two copies to a page above every slot handed out so far; the
# allocator must skip that page when it gets there.
@example([("write", 0, 1), ("write", 1, 2), ("gc", 0, 0)] + [("write", n, 3) for n in range(2, 7)])
# Fill all 12 slots, fail to allocate, then reuse an invalidated slot.
@example([("write", n, n) for n in range(12)]
         + [("write", 12, 0), ("gc", 0, 0), ("invalidate", 3, 0), ("write", 12, 5),
            ("write", 13, 1), ("allocate", 0, 0)])
@settings(max_examples=300, deadline=None)
def test_indexed_reclaim_matches_full_scan(program):
    device = NvmDevice(geometry=TINY, kind=DeviceKind.OVERWRITABLE, reclaim_invalid_slots=True)
    reference = ScanDevice(geometry=TINY, kind=DeviceKind.OVERWRITABLE, reclaim_invalid_slots=True)
    for now, (op, n, level_bits) in enumerate(program):
        got = _apply(device, op, n, level_bits, now)
        want = _apply(reference, op, n, level_bits, now)
        assert got == want, f"step {now}: {op} {n}"
        assert device._allocated == reference._allocated
        assert dict(device.cache_table._entries.items()) == dict(reference.cache_table._entries.items())
        assert device._cells == reference._cells
        table = device.cache_table
        assert 0 not in table._held[: table._low], f"step {now}: unheld slot below the mark"


def test_finished_reclaim_device_is_freed_without_the_cycle_collector():
    """The cache table holds no reference to the device, so a device goes
    with its last reference instead of waiting for the cyclic garbage
    collector."""
    device = NvmDevice(geometry=TINY, kind=DeviceKind.OVERWRITABLE, reclaim_invalid_slots=True)
    table = device.cache_table
    for cid in range(3):
        addr = device.allocate_slot()
        device.program_slot(addr, bytes((cid, 3)))
        table.register(cid, addr, now=0)
    table.invalidate(0)
    table.register(1, device.allocate_slot(), now=2)
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
        table.register(cid, device.allocate_slot(), now=cid)
    assert CountingMask.read <= 2 * n + 8


def test_update_of_an_id_whose_slot_reclaim_reused(tmp_path, capsys):
    """Reusing slot 0 leaves id 0's invalid entry in the table; ``U 0``
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
    """Slot 0 goes to id 1 under reclaim, but id 0 keeps its invalid entry, so
    a second ``I 0`` is refused as it is on a device without reclaim."""
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
    assert err == "ddnsim: trace error: line 6: cache_id 0 is already invalid\n"
