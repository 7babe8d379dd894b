import json
import random
from collections import Counter
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from ddnsim import (
    CacheTable,
    DeviceError,
    DeviceKind,
    Geometry,
    Host,
    MonotoneViolation,
    NopExceeded,
    NvmController,
    NvmDevice,
    RunConfig,
    TraceError,
    TraceEvent,
    parse_config_text,
    parse_policy,
    parse_trace,
    run,
    synthetic_trace,
)
from ddnsim.metrics import ledger_costs

from conftest import build_controller
from test_golden import CASES
from test_reference import check_step, pair, steps


@st.composite
def nand_programs(draw, old_erased):
    """A NAND device with one slot in a known state, and a word to program
    there: bits per cell 1-8, the slot's page programmed or not, its budget
    spent or not, and a new word that drops some cells or none."""
    bits, width = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    nop_limit, top = draw(st.integers(0, 3)), (1 << bits) - 1
    word = st.lists(st.integers(0, top), min_size=width, max_size=width).map(bytes)
    programmed = draw(st.booleans())
    old = bytes(width) if old_erased or not programmed else draw(word)
    spent = draw(st.integers(0, nop_limit)) if programmed else 0
    rise = st.lists(st.integers(0, top), min_size=width, max_size=width).map(
        lambda up: bytes(min(top, o + u) for o, u in zip(old, up)))
    new = draw(st.one_of(word, rise))
    geometry = Geometry(blocks=1, pages_per_block=2, cells_per_page=2 * width,
                        bits_per_cell=bits, cells_per_cache_slot=width)
    device = NvmDevice(geometry=geometry, nop_limit=nop_limit)
    addr = draw(st.integers(0, geometry.total_slots - 1))
    if programmed:
        device.program_slot(addr, old)
        for _ in range(spent):  # partial programs of the page's other slot
            device.program_slot(addr ^ 1, bytes(width))
    return device, addr, old, new, programmed and spent == nop_limit


# Half the runs program an all-zero (erased) slot, as every flush does.
@pytest.mark.parametrize("old_erased", [True, False], ids=["erased-slot", "any-slot"])
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_nand_program_matches_a_per_cell_reference(old_erased, data):
    device, addr, old, new, budget_spent = data.draw(nand_programs(old_erased))

    def state():
        return (bytes(device._cells), bytes(device._programmed),
                list(device._program_counts), ledger_costs(device.ledger))

    assert device.peek_slot(addr) == old
    drops = [cell for cell in range(len(old)) if new[cell] < old[cell]]
    before = state()
    try:
        device.program_slot(addr, new)
    except MonotoneViolation as exc:
        assert drops, "a program that lowers no cell was refused"
        cell = drops[0]
        assert str(exc) == f"cell {cell} of slot {addr} would drop {old[cell]} -> {new[cell]}"
        assert state() == before
        return
    except NopExceeded:
        assert not drops and budget_spent
        assert state() == before
        return
    assert not drops and not budget_spent
    assert device.peek_slot(addr) == new
    assert device.is_programmed(addr)
    page = addr // device.geometry.slots_per_page
    assert device._program_counts[page] == before[2][page] + before[1][page]
    assert device.ledger.wr_us == before[3][1] + device.latency.t_program_us


class DeviceModel(RuleBasedStateMachine):
    """The overwritable device against ``reference.py``'s model, one drawn
    step per rule: results and the whole state agree after every step."""

    def __init__(self):
        super().__init__()
        self.device, self.reference = pair("overwritable")
        self.steps = 0

    @rule(drawn=steps)
    def step(self, drawn):
        check_step(self.device, self.reference, drawn, self.steps)
        self.steps += 1


DeviceModelTest = DeviceModel.TestCase
DeviceModelTest.settings = settings(max_examples=60, stateful_step_count=40, deadline=None)


class CacheTableModel(RuleBasedStateMachine):
    """``CacheTable`` against a plain dict of valid cache_id -> slot: the
    valid copies, the held mask and the lowest unheld slot agree after every
    step."""

    SLOTS = 12
    ids = st.integers(0, 7)
    slots = st.integers(0, SLOTS - 1)

    def __init__(self):
        super().__init__()
        self.table = CacheTable(self.SLOTS)
        self.valid = {}

    def _register(self, cid, addr):
        holder = {slot: c for c, slot in self.valid.items()}.get(addr)
        if holder is not None and holder != cid:
            with pytest.raises(DeviceError, match=f"^slot {addr} already holds valid "
                                                  f"cache_id {holder}$"):
                self.table.register(cid, addr)
            return
        self.table.register(cid, addr)  # an earlier copy of cid is released
        self.valid[cid] = addr

    @rule(cid=ids, addr=slots)
    def register(self, cid, addr):
        self._register(cid, addr)

    @rule(pick=st.integers(0, 7), addr=slots)
    def register_over_a_valid_copy(self, pick, addr):
        valid = sorted(self.valid)
        if valid:
            self._register(valid[pick % len(valid)], addr)

    @rule(cid=ids)
    def invalidate(self, cid):
        self.table.invalidate(cid)  # an id with no valid copy is left alone
        self.valid.pop(cid, None)

    @rule(src=slots, dst=slots, n=st.integers(1, 4))
    def move(self, src, dst, n):
        n = min(n, self.SLOTS - src, self.SLOTS - dst)
        held = set(self.valid.values())
        if abs(src - dst) < n or held & set(range(dst, dst + n)):
            return  # the device moves only into unheld slots outside the source
        assert self.table.move(src, dst, n) == bytearray(s in held for s in range(src, src + n))
        for cid, slot in self.valid.items():
            if src <= slot < src + n:
                self.valid[cid] = slot - src + dst

    @rule(cid=ids)
    def reclaim(self, cid):
        slot = self.table.first_unheld()
        if slot != -1:
            self._register(cid, slot)

    @invariant()
    def agrees_with_the_dict(self):
        table, held = self.table, set(self.valid.values())
        assert table._slot == self.valid
        for cid in range(8):
            assert table.slot(cid) == self.valid.get(cid)
            assert table.is_valid(cid) == (cid in self.valid)
        assert table.held(0, self.SLOTS) == bytearray(s in held for s in range(self.SLOTS))
        unheld = [s for s in range(self.SLOTS) if s not in held]
        assert table.first_unheld() == (unheld[0] if unheld else -1)


CacheTableModelTest = CacheTableModel.TestCase
CacheTableModelTest.settings = settings(max_examples=100, stateful_step_count=40, deadline=None)


@given(
    st.lists(
        st.tuples(st.sampled_from("WUFTI"), st.integers(0, 3)),
        min_size=1,
        max_size=40,
    ),
    st.integers(0, 10**6),
)
@settings(max_examples=80, deadline=None)
def test_exactly_once_invalidation(actions, seed):
    """Each flushed copy yields exactly one invalidation, on the first update."""
    device = NvmDevice()  # default geometry: plenty of room
    controller = NvmController(device, parse_policy("DdnRandom"), random.Random(seed))
    # huge idle threshold so only F flushes, keeping the shadow model simple
    host = Host(controller, capacity=64, flush_idle_threshold=10**9)
    rng = random.Random(seed)
    payload = lambda: bytes(rng.randint(0, 7) for _ in range(8))
    deletions = controller.collector.deletions
    dram_known = set()
    dirty = set()
    nvm_valid = set()
    expected_requests = 0
    for op, cid in actions:
        if op == "W":
            host.apply_event(TraceEvent("W", cache_id=cid, payload=payload()))
            dram_known.add(cid)
            dirty.add(cid)
        elif op == "U":
            if cid not in dram_known:
                continue
            before = len(deletions)
            host.apply_event(TraceEvent("U", cache_id=cid, payload=payload()))
            emitted = len(deletions) - before
            assert emitted == (1 if cid in nvm_valid else 0)
            expected_requests += emitted
            nvm_valid.discard(cid)
            dirty.add(cid)
        elif op == "F":
            host.apply_event(TraceEvent("F"))
            nvm_valid |= dirty
            dirty.clear()
        elif op == "T":
            host.apply_event(TraceEvent("T", ticks=cid + 1))
        elif op == "I":
            if cid not in nvm_valid:
                continue
            before = len(deletions)
            host.apply_event(TraceEvent("I", cache_id=cid))
            assert [d.cache_id for d in deletions[before:]] == [cid]
            expected_requests += 1
            nvm_valid.discard(cid)
    assert len(deletions) == expected_requests
    assert set(device.cache_table._slot) == nvm_valid


# 64 slots: more than a 40-event trace can flush, so no device fills.
U_RULE_GEOMETRY = Geometry(
    blocks=8, pages_per_block=4, cells_per_page=4, bits_per_cell=2,
    cells_per_cache_slot=2,
)
U_RULE_DEVICES = {
    "nand": {},
    "overwritable-reclaim": {"kind": DeviceKind.OVERWRITABLE, "reclaim_invalid_slots": True},
}


@given(
    device=st.sampled_from(sorted(U_RULE_DEVICES)),
    policy=st.sampled_from(["MarkOnly", "EraseBased", "DdnRandom"]),
    capacity=st.integers(1, 3),
    threshold=st.integers(0, 3),
    steps=st.lists(
        st.tuples(st.sampled_from("WUIFT"), st.integers(0, 4), st.integers(0, 15)),
        min_size=1,
        max_size=40,
    ),
)
@settings(max_examples=150, deadline=None)
def test_update_is_refused_exactly_for_ids_never_written(
    device, policy, capacity, threshold, steps
):
    """``parse_trace`` refuses a ``U`` or ``I`` exactly when no earlier line
    wrote its id, and a trace it accepts replays with no ``U``-related error,
    whatever the DRAM has evicted and reclaim has reused. A ``mark-only``
    deletion charges nothing and leaves the whole slot, and no deletion leaves
    more cells than the slot has."""
    lines, written, refused = [], set(), []
    for op, cid, bits in steps:
        text = f"{op} {cid} 0x{bits:X}" if op in "WU" else "F" if op == "F" else f"{op} {cid}"
        if op in "UI" and cid not in written:
            refused.append((len(lines) + 1, text))
            continue
        lines.append(text)
        if op == "W":
            written.add(cid)
    if refused:  # put the first refused line back where it was drawn
        (line, text), *_ = refused
        op, cid = text.split()[:2]
        message = (f"U for cache id {cid} before any W" if op == "U"
                   else f"no valid flushed copy for cache id {cid}")
        with pytest.raises(TraceError, match=f"^line {line}: {message}$"):
            parse_trace("\n".join(lines[:line - 1] + [text] + lines[line - 1:]), 2, 2)
    nvm = NvmDevice(geometry=U_RULE_GEOMETRY, **U_RULE_DEVICES[device])
    host = Host(NvmController(nvm, parse_policy(policy), random.Random(0)),
                capacity=capacity, flush_idle_threshold=threshold)
    for event in parse_trace("\n".join(lines), 2, 2):
        try:
            host.apply_event(event)
        except TraceError as exc:
            assert event.kind == "I", exc
            assert str(exc) == (f"line {event.line}: no valid flushed copy "
                                f"for cache id {event.cache_id}")
    width = U_RULE_GEOMETRY.cells_per_cache_slot
    for deletion in host.controller.collector.deletions:
        assert deletion.slot_cells == width
        assert 0 <= deletion.residual_cells <= width
        if deletion.action == "mark-only":
            assert ledger_costs(deletion.cost) == (0.0,) * 5
            assert deletion.residual_cells == width


@given(
    slots_per_page=st.integers(2, 4),
    cells_per_slot=st.sampled_from([2, 4]),
    victim=st.integers(0, 3),
    policy_name=st.sampled_from(["DdnRandom", "DdnNonRandom"]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_ddn_never_touches_neighbor_slots(
    slots_per_page, cells_per_slot, victim, policy_name, seed
):
    victim %= slots_per_page
    geometry = Geometry(
        blocks=2,
        pages_per_block=2,
        cells_per_page=slots_per_page * cells_per_slot,
        bits_per_cell=3,
        cells_per_cache_slot=cells_per_slot,
    )
    rng = random.Random(seed)
    controller = build_controller(policy_name, seed, geometry, nop_limit=slots_per_page + 1)
    device = controller.device
    for cid in range(slots_per_page):
        word = bytes(rng.randint(0, 7) for _ in range(cells_per_slot))
        controller.flush_write(cid, word)
    lo = victim * cells_per_slot
    hi = lo + cells_per_slot
    before = list(device._cells[: geometry.cells_per_page])
    controller.handle_invalidation(victim, now=1)
    after = list(device._cells[: geometry.cells_per_page])
    assert after[:lo] == before[:lo]
    assert after[hi:] == before[hi:]


@given(
    count=st.integers(1, 25),
    ratio=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=15, deadline=None)
def test_full_run_replay_is_byte_identical(count, ratio, seed):
    cfg = RunConfig(seed=seed)
    text = synthetic_trace(count, ratio, seed, cfg.cells_per_cache_slot, cfg.bits_per_cell)
    events = parse_trace(text, cfg.cells_per_cache_slot, cfg.bits_per_cell)
    first = run(cfg, events)
    second = run(cfg, events)
    assert first.csv_text == second.csv_text
    assert first.jsonl_text == second.jsonl_text


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_ledger_additivity_over_a_run(seed):
    """Every charge belongs to a deletion or a flush: at the default
    (integer) latencies a run's ledger total is exactly its deletions' costs
    plus one program per flushed line, under every policy."""
    cfg = RunConfig(seed=seed)
    text = synthetic_trace(20, 1.0, seed, 8, 3)
    events = parse_trace(text, 8, 3)
    flushes = Counter()
    flush_write = NvmController.flush_write

    def counting_flush_write(controller, *args):
        flushes[controller.policy.label] += 1
        return flush_write(controller, *args)

    with patch.object(NvmController, "flush_write", counting_flush_write):
        runs = run(cfg, events).runs
    assert len(runs) == 4
    for policy_run in runs:
        ledger = policy_run.collector.ledger
        assert ledger.total_us == sum(ledger_costs(ledger))
        deletion_total = sum(d.cost.total_us for d in policy_run.collector.deletions)
        assert flushes[policy_run.label] >= 20
        assert ledger.total_us == deletion_total + flushes[policy_run.label] * cfg.t_program_us


def _records_by_policy(jsonl_text):
    groups = {}
    for line in jsonl_text.splitlines():
        groups.setdefault(json.loads(line)["policy"], []).append(line)
    return groups


@pytest.mark.parametrize("name", sorted(CASES))
def test_reports_do_not_depend_on_policy_order(name):
    config_text, build_trace, *_ = CASES[name]
    cfg = parse_config_text(config_text)
    events = parse_trace(build_trace(cfg), cfg.cells_per_cache_slot, cfg.bits_per_cell)
    forward = run(cfg, events)
    cfg.policies = cfg.policies[::-1]
    backward = run(cfg, events)
    header, *rows = forward.csv_text.splitlines()
    assert backward.csv_text.splitlines() == [header, *reversed(rows)]
    assert _records_by_policy(backward.jsonl_text) == _records_by_policy(forward.jsonl_text)


@st.composite
def tiny_runs(draw):
    """A valid tiny config and a trace of ``W U I D T F`` lines: 1-3 blocks of
    2 pages, both device kinds, reclaim on and off, ``t_secure`` on and off,
    DRAM of 1-4 lines, ``nop_limit`` 0-4 and 1-4 slots per page. A ``U`` is
    only of a written id, and an ``I`` or ``D`` mostly of an id with a valid
    copy, as a ``MarkOnly`` replay of the lines before it finds (an ``F``
    where none has one), until that replay refuses a line."""
    per_page, overwritable = draw(st.integers(1, 4)), draw(st.booleans())
    cfg = RunConfig(
        blocks=draw(st.integers(1, 3)), pages_per_block=2, cells_per_page=2 * per_page,
        bits_per_cell=2, cells_per_cache_slot=2,
        device_kind=DeviceKind.OVERWRITABLE if overwritable else DeviceKind.NON_OVERWRITABLE,
        reclaim_invalid_slots=overwritable and draw(st.booleans()),
        nop_limit=draw(st.integers(0, 4)), dram_capacity=draw(st.integers(1, 4)),
        flush_idle_threshold=draw(st.integers(0, 3)),
        t_secure=draw(st.none() | st.integers(1, 4)), seed=draw(st.integers(0, 99)),
    )
    cfg.validate()
    device = NvmDevice(cfg.geometry(), cfg.device_kind, cfg.latency(), cfg.nop_limit,
                       cfg.reclaim_invalid_slots)
    host = Host(NvmController(device, cfg.run_policies()[0], random.Random(0)),
                cfg.dram_capacity, cfg.flush_idle_threshold)
    steps = st.tuples(st.sampled_from("WUIDTF"), st.integers(0, 3), st.integers(0, 15))
    lines, written, replaying = [], set(), True
    for op, cid, value in draw(st.lists(steps, min_size=4, max_size=24)):
        if op == "U" and cid not in written:
            op = "W"
        elif op in "ID" and value and replaying:  # a value of 0 keeps a stray id
            valid = [c for c in range(4) if device.cache_table.is_valid(c)]
            if valid:
                cid = valid[cid % len(valid)]
            else:
                op = "F"
        if op in "WU":
            written.add(cid)
        lines.append({"W": f"W {cid} 0x{value:X}", "U": f"U {cid} 0x{value:X}", "I": f"I {cid}",
                      "D": f"D {cid}", "T": f"T {value}", "F": "F"}[op])
        if replaying:
            try:
                host.run_trace(parse_trace(lines[-1], cfg.cells_per_cache_slot, cfg.bits_per_cell))
            except (TraceError, DeviceError):
                replaying = False
    return cfg, lines


def _outcome(cfg, lines):
    """The CLI's exit class for a run of ``lines`` (0, 3 for a trace error, 4
    for a device error) and, when it is 0, the CSV and JSONL reports."""
    try:
        report = run(cfg, parse_trace("\n".join(lines), cfg.cells_per_cache_slot, cfg.bits_per_cell))
    except TraceError:
        return 3, None, None
    except DeviceError:
        return 4, None, None
    return 0, report.csv_text, report.jsonl_text


@given(tiny_runs(), st.data())
@settings(max_examples=60, deadline=None)
def test_metamorphic_relations(case, data):
    """``T a+b`` reports as ``T a`` then ``T b`` and a ``T 0`` anywhere changes
    nothing; an ``F`` right after an ``F`` changes nothing; and reordering the
    policies only reorders the CSV rows and JSONL groups, or, for a run that
    fails, ends in the class of the first policy that fails alone. Reports
    and exit classes are compared, not messages, which name shifted lines."""
    cfg, lines = case
    base = _outcome(cfg, lines)
    split = []
    for line in lines:
        if line[0] == "T":
            ticks = int(line[2:])
            first = data.draw(st.integers(0, ticks))
            split += [f"T {first}", f"T {ticks - first}"]
        else:
            split.append(line)
    split.insert(data.draw(st.integers(0, len(split))), "T 0")
    assert _outcome(cfg, split) == base
    assert _outcome(cfg, [f for line in lines for f in [line] + ["F"] * (line == "F")]) == base

    policies = cfg.policies
    order = data.draw(st.permutations(range(len(policies))))
    cfg.policies = tuple(policies[i] for i in order)
    permuted = _outcome(cfg, lines)
    if base[0] == 0:
        header, *rows = base[1].splitlines(keepends=True)
        assert permuted[1] == "".join([header, *(rows[i] for i in order)])
        assert _records_by_policy(permuted[2]) == _records_by_policy(base[2])
    else:
        alone = []
        for policy in policies:
            cfg.policies = (policy,)
            alone.append(_outcome(cfg, lines)[0])
        assert base[0] == next(filter(None, alone))
        assert permuted[0] == next(filter(None, (alone[i] for i in order)))
