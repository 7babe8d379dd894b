import gc
import tracemalloc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ddnsim import (
    DeletionPolicy,
    DeviceKind,
    Geometry,
    Host,
    NvmDevice,
    PolicyKind,
    ProtocolError,
    RunConfig,
    TraceEvent,
    format_config,
    parse_config_text,
    parse_policy,
    parse_trace,
    run,
    synthetic_trace,
)
from ddnsim.metrics import ledger_costs

from conftest import build_controller

# 3-cell slots, 2 slots per page
G3 = Geometry(
    blocks=4, pages_per_block=2, cells_per_page=6, bits_per_cell=3,
    cells_per_cache_slot=3,
)


def w(*levels):
    return bytes(levels)


def invalidate(controller, cache_id, now=0):
    return controller.handle_invalidation(cache_id, now)


def test_value_types_are_equal_and_hash_equal_by_value():
    pairs = [
        (DeletionPolicy(PolicyKind.DDN_NON_RANDOM, 2, 3),
         DeletionPolicy(PolicyKind.DDN_NON_RANDOM, parse_policy("DdnNonRandom(2)").fill, 3)),
        (DeletionPolicy(PolicyKind.DDN_NON_RANDOM), parse_policy("DdnNonRandom")),
        (Geometry(blocks=8), Geometry(blocks=8, bits_per_cell=3)),
    ]
    for a, b in pairs:
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
    assert len({a for pair in pairs for a in pair}) == len(pairs)
    random_policy = DeletionPolicy(PolicyKind.DDN_RANDOM)
    assert random_policy != DeletionPolicy(PolicyKind.DDN_RANDOM, t_secure=2)
    assert Geometry(blocks=8) != Geometry(blocks=16)
    assert DeletionPolicy(PolicyKind.DDN_NON_RANDOM, 2) != (PolicyKind.DDN_NON_RANDOM, 2, None)


def test_parse_policy_names_and_labels():
    assert parse_policy("MarkOnly").kind is PolicyKind.MARK_ONLY
    assert parse_policy("erase-based").kind is PolicyKind.ERASE_BASED
    assert parse_policy("ddn_random").label == "DdnRandom"
    assert parse_policy("DdnNonRandom").fill is None
    assert parse_policy("DdnNonRandom(AllMax)").label == "DdnNonRandom(AllMax)"
    assert parse_policy("DdnNonRandom(Level=3)").fill == 3
    assert parse_policy("ddnnonrandom:5").label == "DdnNonRandom(Level=5)"


def test_parse_policy_errors():
    with pytest.raises(ValueError):
        parse_policy("EraseAll")
    with pytest.raises(ValueError):
        parse_policy("MarkOnly(AllMax)")
    with pytest.raises(ValueError):
        parse_policy("DdnNonRandom(bogus)")


def test_policy_validation():
    with pytest.raises(ValueError):
        DeletionPolicy(PolicyKind.MARK_ONLY, fill=7)
    with pytest.raises(ValueError):
        DeletionPolicy(PolicyKind.DDN_RANDOM, t_secure=0)
    assert DeletionPolicy(PolicyKind.DDN_NON_RANDOM).fill is None


policies = st.one_of(
    st.sampled_from([k for k in PolicyKind if k is not PolicyKind.DDN_NON_RANDOM]).map(
        DeletionPolicy),
    st.builds(DeletionPolicy, st.just(PolicyKind.DDN_NON_RANDOM),
              st.one_of(st.none(), st.integers(0, 255))),
)


@example(policy=DeletionPolicy(PolicyKind.DDN_NON_RANDOM, 0), others=[],
         kind=PolicyKind.MARK_ONLY, level=0)
@given(policy=policies, others=st.lists(policies, max_size=3),
       kind=st.sampled_from(PolicyKind), level=st.integers(0, 255))
def test_policy_value_round_trips_through_its_label(policy, others, kind, level):
    """A policy is its kind and a fill level: its label parses back to an
    equal, equally hashed value, a ``policies`` tuple survives the config
    codec, and only DdnNonRandom takes a fill, level 0 included."""
    parsed = parse_policy(policy.label)
    assert parsed == policy and hash(parsed) == hash(policy)
    tup = (policy, *others)
    assert parse_config_text(format_config(RunConfig(policies=tup))).policies == tup
    if kind is PolicyKind.DDN_NON_RANDOM:
        assert DeletionPolicy(kind, level).label == f"DdnNonRandom(Level={level})"
    else:
        with pytest.raises(ValueError, match="takes no fill"):
            DeletionPolicy(kind, level)


def test_flush_write_registers_and_charges():
    controller = build_controller("MarkOnly", geometry=G3)
    addr = controller.flush_write(5, w(1, 2, 3))
    table = controller.device.cache_table
    assert table.is_valid(5) and table.slot(5) == addr
    assert controller.device.ledger.wr_us == 600.0
    assert controller.device.peek_slot(addr) == w(1, 2, 3)
    # In secure mode the host stamps each flushed copy with its flush tick.
    host = Host(build_controller("MarkOnly", geometry=G3, t_secure=10))
    host.apply_event(TraceEvent("T", ticks=4))
    host.apply_event(TraceEvent("W", cache_id=5, payload=w(1, 2, 3)))
    host.apply_event(TraceEvent("F"))
    assert host._resident == {5: 4}


def test_mark_only_leaves_data_in_place():
    controller = build_controller("MarkOnly", geometry=G3)
    addr = controller.flush_write(1, w(4, 7, 0))
    outcome = invalidate(controller, 1, now=2)
    assert not controller.device.cache_table.is_valid(1)
    assert outcome.action == "mark-only"
    assert outcome.cost.total_us == 0.0
    assert outcome.residual_cells == 3
    assert outcome.slot_cells == 3
    assert controller.device.peek_slot(addr) == w(4, 7, 0)


def test_erase_based_empty_victim_costs_one_erase():
    controller = build_controller("EraseBased", geometry=G3)
    addr = controller.flush_write(1, w(4, 7, 0))
    outcome = invalidate(controller, 1)
    assert outcome.action == "gc-erase"
    assert (outcome.cost.rd_us, outcome.cost.wr_us, outcome.cost.gen_us) == (0.0, 0.0, 0.0)
    assert outcome.cost.erase_us == 4000.0
    assert outcome.cost.gc_us == 0.0
    assert outcome.residual_cells == 0
    assert not controller.device.is_programmed(addr)


def test_erase_based_migrates_valid_neighbor():
    controller = build_controller("EraseBased", geometry=G3)
    controller.flush_write(1, w(4, 7, 0))
    controller.flush_write(2, w(1, 2, 3))  # same page, slot 1
    outcome = invalidate(controller, 1)
    assert outcome.cost.gc_us == 649.0
    assert outcome.cost.erase_us == 4000.0
    table = controller.device.cache_table
    moved = table.slot(2)
    assert table.is_valid(2) and G3.block_of(moved) != 0
    assert controller.device.peek_slot(moved) == w(1, 2, 3)


def test_ddn_random_on_nand_example_slot():
    controller = build_controller("DdnRandom", geometry=G3)
    addr = controller.flush_write(1, w(4, 7, 0))
    outcome = invalidate(controller, 1)
    post = controller.device.peek_slot(addr)
    assert post[0] in {5, 6, 7}
    assert post[1] == 7
    assert 1 <= post[2] <= 7
    assert outcome.residual_cells == 1  # only the already-max cell survives
    assert (outcome.cost.rd_us, outcome.cost.wr_us, outcome.cost.gen_us) == (49.0, 600.0, 100.0)
    assert outcome.cost.total_us == 749.0
    assert outcome.action == "ddn-overwrite"


def test_ddn_random_is_seed_deterministic():
    posts = []
    for _ in range(2):
        controller = build_controller("DdnRandom", geometry=G3, seed=123)
        addr = controller.flush_write(1, w(2, 5, 1))
        invalidate(controller, 1)
        posts.append(controller.device.peek_slot(addr))
    assert posts[0] == posts[1]


def test_ddn_process_fig_style_words():
    controller = build_controller("DdnRandom", geometry=G3)
    addr = controller.flush_write(1, w(4, 4, 4))
    word = controller.ddn_process(addr)
    assert all(lvl in {5, 6, 7} for lvl in word)
    assert controller.device.peek_slot(addr) == word


def test_ddn_non_random_all_max():
    controller = build_controller("DdnNonRandom", geometry=G3)
    addr = controller.flush_write(1, w(4, 7, 0))
    outcome = invalidate(controller, 1)
    assert controller.device.peek_slot(addr) == w(7, 7, 7)
    assert (outcome.cost.rd_us, outcome.cost.wr_us, outcome.cost.gen_us) == (0.0, 600.0, 0.0)
    assert outcome.cost.total_us == 600.0
    assert outcome.residual_cells == 1


def test_ddn_non_random_constant_level_can_violate_monotonicity():
    controller = build_controller("DdnNonRandom(Level=1)", geometry=G3)
    addr = controller.flush_write(1, w(2, 2, 2))
    outcome = invalidate(controller, 1)
    assert outcome.error is not None
    assert outcome.action == "ddn-overwrite"  # no erase fallback
    assert outcome.residual_cells == 3  # nothing was destroyed
    assert controller.device.peek_slot(addr) == w(2, 2, 2)
    assert not controller.device.cache_table.is_valid(1)  # the mark still happened


def test_ddn_non_random_constant_level_above_current_works():
    controller = build_controller("DdnNonRandom(Level=5)", geometry=G3)
    addr = controller.flush_write(1, w(2, 2, 2))
    outcome = invalidate(controller, 1)
    assert outcome.error is None
    assert controller.device.peek_slot(addr) == w(5, 5, 5)


def test_overwritable_ddn_random_full_range():
    controller = build_controller("DdnRandom", geometry=G3, kind=DeviceKind.OVERWRITABLE, seed=3)
    controller.flush_write(1, w(7, 7, 7))
    outcome = invalidate(controller, 1)
    assert (outcome.cost.rd_us, outcome.cost.wr_us, outcome.cost.gen_us) == (0.0, 600.0, 100.0)
    assert outcome.cost.total_us == 700.0


def test_overwritable_ddn_non_random():
    controller = build_controller("DdnNonRandom", geometry=G3, kind=DeviceKind.OVERWRITABLE)
    addr = controller.flush_write(1, w(3, 3, 3))
    outcome = invalidate(controller, 1)
    assert controller.device.peek_slot(addr) == w(7, 7, 7)
    assert outcome.cost.total_us == 600.0


def test_unknown_and_double_invalidation_rejected():
    controller = build_controller("DdnRandom", geometry=G3)
    with pytest.raises(ProtocolError, match="^no valid flushed copy for cache id 42$"):
        invalidate(controller, 42)
    controller.flush_write(1, w(1, 2, 3))
    invalidate(controller, 1)
    before = controller.device.ledger.total_us
    with pytest.raises(ProtocolError, match="^no valid flushed copy for cache id 1$"):
        invalidate(controller, 1)
    assert controller.device.ledger.total_us == before  # never double-charged
    assert len(controller.collector.deletions) == 1


def test_nop_exhaustion_falls_back_to_erase():
    controller = build_controller("DdnRandom", geometry=G3, nop_limit=0)
    addr = controller.flush_write(1, w(1, 2, 3))
    outcome = invalidate(controller, 1)
    assert outcome.action == "erase-fallback"
    assert outcome.cost.erase_us == 4000.0
    assert outcome.residual_cells == 0
    assert not controller.device.is_programmed(addr)


def test_ddn_process_requires_programmed_page():
    controller = build_controller("DdnRandom", geometry=G3)
    with pytest.raises(ProtocolError):
        controller.ddn_process(controller.device.allocate_slot())


def test_de_identify_is_handled_like_invalidate():
    outcomes = []
    for op in ("I", "D"):
        controller = build_controller("DdnRandom", geometry=G3, seed=11)
        host = Host(controller)
        host.apply_event(TraceEvent("W", cache_id=1, payload=w(2, 5, 1)))
        host.apply_event(TraceEvent("F"))
        addr = controller.device.cache_table.slot(1)  # the table drops it on deletion
        host.apply_event(TraceEvent(op, cache_id=1))
        (outcome,) = controller.collector.deletions
        post = controller.device.peek_slot(addr)
        outcomes.append((outcome.action, outcome.cost.total_us, post))
    assert outcomes[0] == outcomes[1]


def _run(host, trace):
    """Replay a trace of 4-cell (3 hex digit) payloads; the secure-mode hosts
    below flush only on F, their idle threshold of 1000 being out of reach."""
    host.run_trace(parse_trace(trace, 4, 3))
    return host.controller.collector.deletions


def test_secure_tick_threshold_and_ordering():
    host = Host(build_controller("DdnRandom", t_secure=10), flush_idle_threshold=1000)
    table = host.controller.device.cache_table
    # 3 is flushed before 1 in the same tick; the scrub still goes by id
    assert _run(host, "W 3 0x053\nF\nW 1 0x2EE\nF\nT 9") == []
    assert table.is_valid(1) and table.is_valid(3)
    outcomes = _run(host, "T 1")
    assert [(o.cache_id, o.tick) for o in outcomes] == [(1, 10), (3, 10)]  # ascending ids
    assert all(o.action == "secure-scrub" for o in outcomes)
    assert not table.is_valid(1) and not table.is_valid(3)
    assert _run(host, "T 100") == outcomes  # scrubbed exactly once
    assert host._resident == {}


def test_secure_tick_ages_from_write_time():
    # The age counts from each copy's flush tick, not from the first flush.
    host = Host(build_controller("DdnRandom", t_secure=10), flush_idle_threshold=1000)
    outcomes = _run(host, "W 1 0x053\nF\nT 5\nW 2 0x053\nF\nT 20")
    assert [(o.cache_id, o.tick) for o in outcomes] == [(1, 10), (2, 15)]


def test_secure_scrub_overwrites_even_under_mark_only():
    host = Host(build_controller("MarkOnly", t_secure=1), flush_idle_threshold=1000)
    _run(host, "W 1 0x000\nF")
    device = host.controller.device
    addr = device.cache_table.slot(1)  # the table drops it on deletion
    (outcome,) = _run(host, "T 1")
    assert outcome.action == "secure-scrub" and device.cache_table.slot(1) is None
    post = device.peek_slot(addr)
    assert all(level >= 1 for level in post)
    assert outcome.residual_cells == 0


def _synthetic_events(config_text, count):
    cfg = parse_config_text(config_text)
    text = synthetic_trace(count, 1.0, cfg.seed, cfg.cells_per_cache_slot, cfg.bits_per_cell)
    return cfg, parse_trace(text, cfg.cells_per_cache_slot, cfg.bits_per_cell)


def test_deletions_of_equal_cost_share_one_cost_object():
    """One cost object per distinct cost tuple within a run, even where the
    ledger differences of one action vary in the last bit."""
    cfg, events = _synthetic_events(
        "seed = 1\nt_read_us = 0.1\nt_program_us = 0.3\nt_gen_us = 0.7\n"
        "t_erase_us = 3.3\nnop_limit = 1\n", 300
    )
    report = run(cfg, events)
    for policy_run in report.runs:
        deletions = policy_run.collector.deletions
        shared = {}
        for d in deletions:
            assert shared.setdefault(ledger_costs(d.cost), d.cost) is d.cost
        assert len({id(d.cost) for d in deletions}) == len(shared)
    erase_based = report.runs[1].collector.deletions
    assert {d.action for d in erase_based} == {"gc-erase"}
    assert len({ledger_costs(d.cost) for d in erase_based}) > 1


def test_deletion_records_retain_little_memory():
    """With shared cost objects a deletion record keeps about its own slots
    (about 105 B on CPython 3.11); a fresh ledger per record kept about 297 B."""
    cfg, events = _synthetic_events("seed = 1\n", 1500)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = run(cfg, events)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    records = sum(len(r.collector.deletions) for r in report.runs)
    assert records == 4 * 1500
    assert retained / records <= 200


@pytest.mark.parametrize(
    "policy, options, action",
    [
        ("DdnRandom", {}, "ddn-overwrite"),
        ("DdnRandom", {"kind": DeviceKind.OVERWRITABLE}, "ddn-overwrite"),
        ("DdnNonRandom", {}, "ddn-overwrite"),
        ("DdnNonRandom(Level=1)", {}, "ddn-overwrite"),  # refused: it would lower cells
        ("DdnRandom", {"nop_limit": 0}, "erase-fallback"),
        ("EraseBased", {}, "gc-erase"),
        ("MarkOnly", {"t_secure": 2}, "secure-scrub"),
    ],
    ids=["nand", "overwritable", "all-max", "refused", "erase-fallback", "gc-erase",
         "secure-scrub"],
)
def test_a_deletion_reads_its_slot_at_most_once(monkeypatch, policy, options, action):
    """Besides the charged read and program, a deletion makes at most two
    uncharged device calls: one ``peek_slot`` for the cells before it, and
    ``ddn_process``'s ``is_programmed`` check. The residual comes from the
    word written (or the whole slot, when nothing was written), and it still
    counts the cells that kept their level."""
    calls = []
    for name in ("peek_slot", "is_programmed"):
        original = getattr(NvmDevice, name)

        def counted(self, addr, original=original, name=name):
            calls.append(name)
            return original(self, addr)

        monkeypatch.setattr(NvmDevice, name, counted)
    host = Host(build_controller(policy, **options), flush_idle_threshold=1000)
    device = host.controller.device
    _run(host, "W 1 0x2EE\nF\nT 1\nW 2 0x053\nF")  # 2 shares 1's page, a tick younger
    calls.clear()
    addr, width = device.cache_table.slot(1), device.geometry.cells_per_cache_slot
    pre = device._cells[addr * width : (addr + 1) * width]
    (outcome,) = _run(host, "T 1" if "t_secure" in options else "I 1")
    assert outcome.action == action
    assert len(calls) <= 2, calls
    post = device._cells[addr * width : (addr + 1) * width]
    assert outcome.residual_cells == sum(a == b for a, b in zip(pre, post))
    assert (outcome.error is not None) == (outcome.residual_cells == outcome.slot_cells == width)
