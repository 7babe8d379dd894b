import gc
import random
import tracemalloc

import pytest

from ddnsim import (
    ALL_MAX,
    DeletionPolicy,
    DeviceKind,
    FillKind,
    Geometry,
    Host,
    LatencyLedger,
    MetricsCollector,
    NvmController,
    NvmDevice,
    PolicyKind,
    ProtocolError,
    TraceEvent,
    parse_config_text,
    parse_policy,
    parse_trace,
    run,
    synthetic_trace,
)
from ddnsim.metrics import ledger_costs

# 3-cell slots, 2 slots per page
G3 = Geometry(
    blocks=4, pages_per_block=2, cells_per_page=6, bits_per_cell=3,
    cells_per_cache_slot=3,
)


def w(*levels):
    return bytes(levels)


def build(policy, seed=7, kind=DeviceKind.NON_OVERWRITABLE, nop_limit=4, t_secure=None):
    ledger = LatencyLedger()
    collector = MetricsCollector(ledger)
    device = NvmDevice(geometry=G3, kind=kind, nop_limit=nop_limit, ledger=ledger)
    pol = parse_policy(policy)
    if t_secure is not None:
        pol = DeletionPolicy(pol.kind, pol.fill, t_secure)
    return NvmController(device, pol, random.Random(seed), collector)


def invalidate(controller, cache_id, now=0):
    return controller.handle_invalidation(cache_id, now)


def test_value_types_are_equal_and_hash_equal_by_value():
    pairs = [
        (DeletionPolicy(PolicyKind.DDN_NON_RANDOM, FillKind(2), 3),
         DeletionPolicy(PolicyKind.DDN_NON_RANDOM, parse_policy("DdnNonRandom(2)").fill, 3)),
        (DeletionPolicy(PolicyKind.DDN_NON_RANDOM), parse_policy("DdnNonRandom")),
        (FillKind(2), FillKind(level=2)),
        (FillKind(), ALL_MAX),
        (Geometry(blocks=8), Geometry(blocks=8, bits_per_cell=3)),
    ]
    for a, b in pairs:
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
    assert len({a for pair in pairs for a in pair}) == len(pairs)
    random_policy = DeletionPolicy(PolicyKind.DDN_RANDOM)
    assert random_policy != DeletionPolicy(PolicyKind.DDN_RANDOM, t_secure=2)
    assert FillKind(2) != FillKind(3) != ALL_MAX
    assert Geometry(blocks=8) != Geometry(blocks=16)
    assert FillKind(2) != (2,)


def test_parse_policy_names_and_labels():
    assert parse_policy("MarkOnly").kind is PolicyKind.MARK_ONLY
    assert parse_policy("erase-based").kind is PolicyKind.ERASE_BASED
    assert parse_policy("ddn_random").label == "DdnRandom"
    assert parse_policy("DdnNonRandom").fill == ALL_MAX
    assert parse_policy("DdnNonRandom(AllMax)").label == "DdnNonRandom(AllMax)"
    assert parse_policy("DdnNonRandom(Level=3)").fill == FillKind(3)
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
        DeletionPolicy(PolicyKind.MARK_ONLY, fill=ALL_MAX)
    with pytest.raises(ValueError):
        DeletionPolicy(PolicyKind.DDN_RANDOM, t_secure=0)
    assert DeletionPolicy(PolicyKind.DDN_NON_RANDOM).fill == ALL_MAX


def test_flush_write_registers_and_charges():
    controller = build("MarkOnly")
    addr = controller.flush_write(5, w(1, 2, 3), now=4)
    entry = controller.entry(5)
    assert entry.valid and entry.addr == addr and entry.written_at == 4
    assert controller.device.ledger.wr_us == 600.0
    assert controller.device.peek_slot(addr) == w(1, 2, 3)


def test_mark_only_leaves_data_in_place():
    controller = build("MarkOnly")
    addr = controller.flush_write(1, w(4, 7, 0), now=0)
    outcome = invalidate(controller, 1, now=2)
    assert not controller.entry(1).valid
    assert outcome.action == "mark-only"
    assert outcome.cost.total_us == 0.0
    assert outcome.residual_cells == 3
    assert outcome.slot_cells == 3
    assert controller.device.peek_slot(addr) == w(4, 7, 0)


def test_erase_based_empty_victim_costs_one_erase():
    controller = build("EraseBased")
    addr = controller.flush_write(1, w(4, 7, 0), now=0)
    outcome = invalidate(controller, 1)
    assert outcome.action == "gc-erase"
    assert (outcome.cost.rd_us, outcome.cost.wr_us, outcome.cost.gen_us) == (0.0, 0.0, 0.0)
    assert outcome.cost.erase_us == 4000.0
    assert outcome.cost.gc_us == 0.0
    assert outcome.residual_cells == 0
    assert not controller.device.is_programmed(addr)


def test_erase_based_migrates_valid_neighbor():
    controller = build("EraseBased")
    controller.flush_write(1, w(4, 7, 0), now=0)
    controller.flush_write(2, w(1, 2, 3), now=0)  # same page, slot 1
    outcome = invalidate(controller, 1)
    assert outcome.cost.gc_us == 649.0
    assert outcome.cost.erase_us == 4000.0
    moved = controller.entry(2)
    assert moved.valid and G3.block_of(moved.addr) != 0
    assert controller.device.peek_slot(moved.addr) == w(1, 2, 3)


def test_ddn_random_on_nand_example_slot():
    controller = build("DdnRandom")
    addr = controller.flush_write(1, w(4, 7, 0), now=0)
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
        controller = build("DdnRandom", seed=123)
        addr = controller.flush_write(1, w(2, 5, 1), now=0)
        invalidate(controller, 1)
        posts.append(controller.device.peek_slot(addr))
    assert posts[0] == posts[1]


def test_ddn_process_fig_style_words():
    controller = build("DdnRandom")
    addr = controller.flush_write(1, w(4, 4, 4), now=0)
    word = controller.ddn_process(addr)
    assert all(lvl in {5, 6, 7} for lvl in word)
    assert controller.device.peek_slot(addr) == word


def test_ddn_non_random_all_max():
    controller = build("DdnNonRandom")
    addr = controller.flush_write(1, w(4, 7, 0), now=0)
    outcome = invalidate(controller, 1)
    assert controller.device.peek_slot(addr) == w(7, 7, 7)
    assert (outcome.cost.rd_us, outcome.cost.wr_us, outcome.cost.gen_us) == (0.0, 600.0, 0.0)
    assert outcome.cost.total_us == 600.0
    assert outcome.residual_cells == 1


def test_ddn_non_random_constant_level_can_violate_monotonicity():
    controller = build("DdnNonRandom(Level=1)")
    addr = controller.flush_write(1, w(2, 2, 2), now=0)
    outcome = invalidate(controller, 1)
    assert outcome.error is not None
    assert outcome.action == "ddn-overwrite"  # no erase fallback
    assert outcome.residual_cells == 3  # nothing was destroyed
    assert controller.device.peek_slot(addr) == w(2, 2, 2)
    assert not controller.entry(1).valid  # the mark still happened


def test_ddn_non_random_constant_level_above_current_works():
    controller = build("DdnNonRandom(Level=5)")
    addr = controller.flush_write(1, w(2, 2, 2), now=0)
    outcome = invalidate(controller, 1)
    assert outcome.error is None
    assert controller.device.peek_slot(addr) == w(5, 5, 5)


def test_overwritable_ddn_random_full_range():
    controller = build("DdnRandom", kind=DeviceKind.OVERWRITABLE, seed=3)
    controller.flush_write(1, w(7, 7, 7), now=0)
    outcome = invalidate(controller, 1)
    assert (outcome.cost.rd_us, outcome.cost.wr_us, outcome.cost.gen_us) == (0.0, 600.0, 100.0)
    assert outcome.cost.total_us == 700.0


def test_overwritable_ddn_non_random():
    controller = build("DdnNonRandom", kind=DeviceKind.OVERWRITABLE)
    addr = controller.flush_write(1, w(3, 3, 3), now=0)
    outcome = invalidate(controller, 1)
    assert controller.device.peek_slot(addr) == w(7, 7, 7)
    assert outcome.cost.total_us == 600.0


def test_unknown_and_double_invalidation_rejected():
    controller = build("DdnRandom")
    with pytest.raises(ProtocolError):
        invalidate(controller, 42)
    controller.flush_write(1, w(1, 2, 3), now=0)
    invalidate(controller, 1)
    before = controller.device.ledger.total_us
    with pytest.raises(ProtocolError):
        invalidate(controller, 1)
    assert controller.device.ledger.total_us == before  # never double-charged
    assert len(controller.collector.deletions) == 1


def test_nop_exhaustion_falls_back_to_erase():
    controller = build("DdnRandom", nop_limit=0)
    addr = controller.flush_write(1, w(1, 2, 3), now=0)
    outcome = invalidate(controller, 1)
    assert outcome.action == "erase-fallback"
    assert outcome.cost.erase_us == 4000.0
    assert outcome.residual_cells == 0
    assert not controller.device.is_programmed(addr)


def test_ddn_process_requires_programmed_page():
    controller = build("DdnRandom")
    with pytest.raises(ProtocolError):
        controller.ddn_process(controller.device.allocate_slot())


def test_de_identify_is_handled_like_invalidate():
    outcomes = []
    for op in ("I", "D"):
        controller = build("DdnRandom", seed=11)
        host = Host(controller)
        host.apply_event(TraceEvent("W", cache_id=1, payload=w(2, 5, 1)))
        host.apply_event(TraceEvent("F"))
        host.apply_event(TraceEvent(op, cache_id=1))
        (outcome,) = controller.collector.deletions
        post = controller.device.peek_slot(controller.entry(1).addr)
        outcomes.append((outcome.action, outcome.cost.total_us, post))
    assert outcomes[0] == outcomes[1]


def test_secure_tick_requires_configuration():
    controller = build("DdnRandom")
    with pytest.raises(ProtocolError):
        controller.secure_tick(5)


def test_secure_tick_threshold_and_ordering():
    controller = build("DdnRandom", t_secure=10)
    controller.flush_write(3, w(1, 2, 3), now=0)
    controller.flush_write(1, w(4, 5, 6), now=0)
    assert controller.secure_tick(9) == []
    assert controller.entry(1).valid and controller.entry(3).valid
    outcomes = controller.secure_tick(10)
    assert [o.cache_id for o in outcomes] == [1, 3]
    assert all(o.action == "secure-scrub" for o in outcomes)
    assert not controller.entry(1).valid and not controller.entry(3).valid
    assert controller.secure_tick(11) == []  # scrubbed exactly once
    assert len(controller.collector.deletions) == 2


def test_secure_tick_ages_from_write_time():
    controller = build("DdnRandom", t_secure=10)
    controller.flush_write(1, w(1, 2, 3), now=0)
    controller.flush_write(2, w(1, 2, 3), now=5)
    assert [o.cache_id for o in controller.secure_tick(10)] == [1]
    assert [o.cache_id for o in controller.secure_tick(15)] == [2]


def test_secure_scrub_overwrites_even_under_mark_only():
    controller = build("MarkOnly", t_secure=1)
    addr = controller.flush_write(1, w(0, 0, 0), now=0)
    (outcome,) = controller.secure_tick(1)
    assert outcome.action == "secure-scrub"
    post = controller.device.peek_slot(addr)
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
