"""Garbage collection from the flat per-slot holder index.

The reference below is the collector as it was before that index: sort the
block's valid ids, group them by page, move each page to the next free page
and repoint each entry. It rebuilds the block's valid ids from the whole
cache table, and it moves an entry by dropping and re-registering it, so it
reads no index the device keeps. The device must leave the same cells, page
states, occupancy, cache table and ledger, and raise the same errors.
"""

import hashlib

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddnsim import (
    DeviceError,
    DeviceKind,
    Geometry,
    NvmDevice,
    parse_config_text,
    parse_trace,
    run,
    synthetic_trace,
)


class ReferenceGcDevice(NvmDevice):
    """The device with the page-by-page collector it replaced."""

    def garbage_collect(self, block):
        self._check_block(block)
        g = self.geometry
        table = self.cache_table
        by_page = {}
        for cid, entry in sorted(table.items()):
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
                    table.drop(cid)
                    table.register(cid, dst, entry.written_at)
                self._programmed[dst_page] = 1
                self.ledger.charge_gc_migration(self.latency.gc_migration_per_page_us)
        self.erase_block(block)


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
    valid = [cid for cid, _ in table.valid_entries()]
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
                table.invalidate(valid[n % len(valid)], now)
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
        dict(device.cache_table.items()),
        device.ledger.snapshot(),
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
