"""``NvmDevice`` against the independent model in ``reference.py``.

One driver applies the same step to the device and to the reference.
Three Hypothesis tests run random programs of steps on six small devices:
``test_gc.py`` on the four NAND devices, ``test_reclaim.py`` on the
overwritable device with reclaim, and ``test_properties.py``'s
``DeviceModel`` machine on the plain overwritable device.
After every step the step's result, or its error as (class name, message),
and the whole device state must agree: cells, page states, reprogram
counts, slot occupancy, erase counts, the cache table with its per-slot
holders, the free-page search's resume point and the cost ledger.
"""

import ast
import sys
from pathlib import Path

from hypothesis import strategies as st

from ddnsim import DeviceError, DeviceKind, Geometry, NvmDevice
from ddnsim.metrics import ledger_costs
from reference import DeviceError as ReferenceDeviceError, ReferenceDevice

# Slots of two 2-bit cells, 2 slots per page, in blocks of 3 or 8 pages, so
# GC moves runs of pages from short and long blocks alike. DENSE pages hold 4
# slots, so allocation skips the spent page's last two slots at once.
TINY = Geometry(blocks=3, pages_per_block=3, cells_per_page=4, bits_per_cell=2,
                cells_per_cache_slot=2)
LONG = Geometry(blocks=3, pages_per_block=8, cells_per_page=4, bits_per_cell=2,
                cells_per_cache_slot=2)
DENSE = Geometry(blocks=3, pages_per_block=3, cells_per_page=8, bits_per_cell=2,
                 cells_per_cache_slot=2)
# TRIPLE pages hold 3 slots, not a power of two, so GC's fold of a page's slots
# into one liveness byte ends with an overlapping shift; a budget of 2 partial
# programs lets writes fill a page.
TRIPLE = Geometry(blocks=3, pages_per_block=3, cells_per_page=6, bits_per_cell=2,
                  cells_per_cache_slot=2)
OVERWRITABLE = DeviceKind.OVERWRITABLE
DEVICES = {
    "nand": (TINY, {"nop_limit": 1}),
    "nand-long-blocks": (LONG, {"nop_limit": 1}),
    "nand-dense": (DENSE, {"nop_limit": 1}),
    "nand-triple": (TRIPLE, {"nop_limit": 2}),
    "overwritable": (TINY, {"kind": OVERWRITABLE}),
    "overwritable-reclaim": (TINY, {"kind": OVERWRITABLE, "reclaim_invalid_slots": True}),
}
# What a step may raise on either side: a word the device refuses, or a
# device error of either model.
ERRORS = (ValueError, DeviceError, ReferenceDeviceError)


def pair(kind):
    """A fresh ``NvmDevice`` of one of ``DEVICES`` and its reference."""
    geometry, options = DEVICES[kind]
    device = NvmDevice(geometry=geometry, **options)
    reference = ReferenceDevice(
        geometry.blocks, geometry.pages_per_block, geometry.cells_per_page,
        geometry.bits_per_cell, geometry.cells_per_cache_slot,
        overwritable=device.kind is OVERWRITABLE, nop_limit=device.nop_limit,
        reclaim=device.reclaim_invalid_slots,
    )
    return device, reference


def device_state(device):
    """``ReferenceDevice.state()``, read from an ``NvmDevice``."""
    table = device.cache_table
    return (bytes(device._cells), bytes(device._programmed), list(device._program_counts),
            bytes(device._allocated), list(device.erase_counts), dict(table._slot),
            list(table._valid_at), bytes(table._held), device._dest_page_hint,
            ledger_costs(device.ledger))


def step(device, table, op, arg, word):
    """Apply one step to a device and its cache table (for the reference,
    itself). Returns what the step returned, or its error as (class name,
    message)."""
    try:
        if op == "write":  # allocate, program and register, as a flush does
            slot = device.allocate_slot()
            device.program_slot(slot, word)
            table.register(arg, slot)
            return slot
        if op == "allocate":  # allocated, never registered
            return device.allocate_slot()
        if op == "program":
            return device.program_slot(arg, word)
        if op == "read":
            return device.read_slot(arg)
        if op == "invalidate":
            return table.invalidate(arg)
        if op == "gc":
            return device.garbage_collect(arg)
        return device.erase_block(arg)
    except ERRORS as exc:
        return type(exc).__name__, str(exc)


def resolve(reference, op, n, bits):
    """A drawn step as ``(op, argument, word)``, or None. A rewrite (a write
    over a valid copy) and an invalidation pick among the valid ids; a
    program or a read takes slot ``n`` and a collection or an erase block
    ``n``, modulo the device's count."""
    word = bytes((bits & 3, bits >> 2))
    if op in ("rewrite", "invalidate"):
        valid = sorted(reference.valid)
        if not valid:
            return None
        return "write" if op == "rewrite" else op, valid[n % len(valid)], word
    if op in ("program", "read"):
        return op, n % reference.slots, word
    if op in ("gc", "erase"):
        return op, n % reference.blocks, word
    return op, n, word


def check_step(device, reference, drawn, i):
    """Apply one drawn step to both sides; the results and the whole state
    must agree."""
    call = resolve(reference, *drawn)
    if call is None:
        return
    got = step(device, device.cache_table, *call)
    assert got == step(reference, reference, *call), f"step {i}: {call}"
    assert device_state(device) == reference.state(), f"step {i}: {call}"


def check(kind, program):
    """Run a program of drawn steps on a fresh device of ``kind`` and its
    reference."""
    device, reference = pair(kind)
    for i, drawn in enumerate(program):
        check_step(device, reference, drawn, i)


# Writes and collections come twice as often as the other steps, and a
# program takes at least 20 steps, so a collection often has live pages to
# move and the free-page search reaches the device end and wraps.
steps = st.tuples(
    st.sampled_from(["write", "rewrite", "allocate", "program", "read", "invalidate",
                     "gc", "erase", "write", "gc"]),
    st.integers(0, 47),
    st.integers(0, 15),
)
programs = st.lists(steps, min_size=20, max_size=40)


def test_the_reference_imports_only_the_standard_library():
    """The reference must not reuse the code it checks: it may import no
    ``ddnsim`` module, and nothing outside the standard library, which
    also rules out a test module that imports ``ddnsim``."""
    tree = ast.parse(Path(__file__).with_name("reference.py").read_text(encoding="utf-8"))
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names]
    names += [node.module or "." for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    outside = [name for name in names if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []
