import json
import random
from collections import Counter
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from ddnsim import (
    DeviceKind,
    Geometry,
    Host,
    LatencyLedger,
    MetricsCollector,
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

from test_golden import CASES

# 2-bit cells keep the state space small enough for good shrinking
TINY = Geometry(
    blocks=2, pages_per_block=2, cells_per_page=4, bits_per_cell=2,
    cells_per_cache_slot=2,
)

addrs = st.integers(0, TINY.total_slots - 1)
tiny_words = st.tuples(st.integers(0, 3), st.integers(0, 3)).map(bytes)


class DeviceModel(RuleBasedStateMachine):
    """Model-based check: the device must track a plain array shadow exactly.

    Failed programs must not mutate anything; erase is the only way down.
    """

    def _cells(self, addr):
        """The shadow page holding addr, and the slot's cell range in it."""
        page_number, slot = divmod(addr, 2)
        block, page = divmod(page_number, 2)
        return self.shadow[block][page], slice(slot * 2, slot * 2 + 2)

    def __init__(self):
        super().__init__()
        self.device = NvmDevice(geometry=TINY, nop_limit=2)
        self.shadow = [[[0] * 4 for _ in range(2)] for _ in range(2)]

    @rule(addr=addrs, word=tiny_words)
    def program(self, addr, word):
        try:
            self.device.program_slot(addr, word)
        except (MonotoneViolation, NopExceeded):
            return
        page, cells = self._cells(addr)
        page[cells] = list(word)

    @rule(block=st.integers(0, 1))
    def erase(self, block):
        self.device.erase_block(block)
        self.shadow[block] = [[0] * 4 for _ in range(2)]

    @rule(addr=addrs)
    def read(self, addr):
        page, cells = self._cells(addr)
        assert list(self.device.read_slot(addr)) == page[cells]

    @invariant()
    def cells_match_shadow(self):
        shadow = [level for block in self.shadow for page in block for level in page]
        assert self.device._cells.tolist() == shadow


DeviceModelTest = DeviceModel.TestCase
DeviceModelTest.settings = settings(max_examples=60, deadline=None)


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
    ledger = LatencyLedger()
    device = NvmDevice(ledger=ledger)  # default geometry: plenty of room
    controller = NvmController(
        device, parse_policy("DdnRandom"), random.Random(seed), MetricsCollector(ledger)
    )
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
    assert {cid for cid, e in device.cache_table._entries.items() if e.valid} == nvm_valid


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
    events=st.lists(
        st.tuples(st.sampled_from("WUIFT"), st.integers(0, 4), tiny_words),
        min_size=1,
        max_size=40,
    ),
)
@settings(max_examples=150, deadline=None)
def test_update_is_refused_exactly_for_ids_never_written(
    device, policy, capacity, threshold, events
):
    """A hand-built ``U`` names a line some ``W`` or ``U`` wrote before, or it
    is a trace error, whatever the DRAM has evicted and reclaim has reused."""
    ledger = LatencyLedger()
    nvm = NvmDevice(geometry=U_RULE_GEOMETRY, ledger=ledger, **U_RULE_DEVICES[device])
    controller = NvmController(
        nvm, parse_policy(policy), random.Random(0), MetricsCollector(ledger)
    )
    host = Host(controller, capacity=capacity, flush_idle_threshold=threshold)
    written = set()
    for line, (op, cid, word) in enumerate(events, start=1):
        if op in "WU":
            event = TraceEvent(op, cache_id=cid, payload=word, line=line)
        elif op == "I":
            event = TraceEvent("I", cache_id=cid, line=line)
        elif op == "T":
            event = TraceEvent("T", ticks=cid, line=line)
        else:
            event = TraceEvent("F", line=line)
        if op == "U" and cid not in written:
            with pytest.raises(TraceError, match=f"^line {line}: U for unknown cache id {cid}$"):
                host.apply_event(event)
            continue
        try:
            host.apply_event(event)
        except TraceError as exc:
            assert op == "I", exc  # no flushed copy, or already invalid
            assert "U for unknown cache id" not in str(exc)
        if op in "WU":
            written.add(cid)


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
    ledger = LatencyLedger()
    device = NvmDevice(geometry=geometry, nop_limit=slots_per_page + 1, ledger=ledger)
    controller = NvmController(
        device, parse_policy(policy_name), random.Random(seed), MetricsCollector(ledger)
    )
    for cid in range(slots_per_page):
        word = bytes(rng.randint(0, 7) for _ in range(cells_per_slot))
        controller.flush_write(cid, word, now=0)
    lo = victim * cells_per_slot
    hi = lo + cells_per_slot
    before = device._cells[: geometry.cells_per_page].tolist()
    controller.handle_invalidation(victim, now=1)
    after = device._cells[: geometry.cells_per_page].tolist()
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


def _records_by_policy(report):
    groups = {}
    for line in report.jsonl_text.splitlines():
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
    assert _records_by_policy(backward) == _records_by_policy(forward)
