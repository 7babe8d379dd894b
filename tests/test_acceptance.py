"""End-to-end acceptance criteria, each at its stated tolerance.

Every test prints one PASS line with the measured values, so
``pytest -v -s tests/test_acceptance.py`` doubles as a checklist.
"""

import random

from ddnsim import (
    Geometry,
    Host,
    LatencyParams,
    MonotoneViolation,
    NopExceeded,
    NvmDevice,
    RunConfig,
    TraceEvent,
    gen_upward_word,
    parse_policy,
    parse_trace,
    run,
    synthetic_trace,
)

from conftest import build_controller


def test_criterion_1_upward_overwrite_words_are_exact():
    # a cell at level 4 (bits '100') may only go to '101', '110' or '111'
    rng = random.Random(0xC0FFEE)
    seen = {gen_upward_word(b"\x04", 3, rng)[0] for _ in range(100_000)}
    assert seen == {5, 6, 7}
    assert {format(level, "03b") for level in seen} == {"101", "110", "111"}
    rng = random.Random(1)
    assert all(gen_upward_word(b"\x07", 3, rng) == b"\x07" for _ in range(100_000))
    print("PASS criterion 1: overwrite words for '100' are exactly "
          "{'101','110','111'}; '111' is always maintained")


def test_criterion_2_cost_comparison():
    cfg = RunConfig(seed=20260809)
    cfg.policies = (parse_policy("DdnRandom"), parse_policy("EraseBased"))
    text = synthetic_trace(100, 1.0, cfg.seed, cfg.cells_per_cache_slot, cfg.bits_per_cell)
    events = parse_trace(text, cfg.cells_per_cache_slot, cfg.bits_per_cell)
    report = run(cfg, events)
    by_label = {r.label: r.collector for r in report.runs}
    ddn = by_label["DdnRandom"]
    erase = by_label["EraseBased"]
    assert len(ddn.deletions) == 100 and len(erase.deletions) == 100

    mean_ddn = ddn.mean_costs()
    assert (mean_ddn.rd_us, mean_ddn.gen_us, mean_ddn.wr_us) == (49.0, 100.0, 600.0)
    assert mean_ddn.total_us == 749.0  # 49 + 100 + 600, exactly
    mean_erase = erase.mean_costs().total_us
    assert mean_erase >= 4000.0
    assert mean_ddn.total_us < mean_erase  # overwrite beats erase

    # equality case: invalidate without updating, so victim blocks never
    # hold valid pages and each deletion costs exactly one erase
    rng = random.Random(5)
    lines = []
    for i in range(100):
        lines.append(f"W {i} 0x{rng.getrandbits(24):06X}")
        lines.append("F")
        lines.append(f"I {i}")
    cfg_eq = RunConfig(seed=20260809)
    cfg_eq.policies = (parse_policy("EraseBased"),)
    events_eq = parse_trace("\n".join(lines), 8, 3)
    (erase_eq,) = run(cfg_eq, events_eq).runs
    assert erase_eq.collector.mean_costs().total_us == 4000.0
    print(f"PASS criterion 2: DdnRandom mean 749 us exactly; EraseBased mean "
          f"{mean_erase:.1f} us >= 4000 (4000 exactly on empty victims)")


def test_criterion_3_remanence_rates():
    cfg = RunConfig(seed=12345)  # all four default policies
    text = synthetic_trace(10_000, 1.0, cfg.seed, cfg.cells_per_cache_slot, cfg.bits_per_cell)
    events = parse_trace(text, cfg.cells_per_cache_slot, cfg.bits_per_cell)
    report = run(cfg, events)
    rates = {}
    for policy_run in report.runs:
        assert len(policy_run.collector.deletions) == 10_000
        assert not any(d.error for d in policy_run.collector.deletions)
        rates[policy_run.label] = policy_run.collector.final_remanence_rate
    analytic = 1 / 2**cfg.bits_per_cell  # P(uniform cell already at top level)
    assert abs(rates["DdnRandom"] - analytic) <= 0.01
    assert abs(rates["DdnNonRandom(AllMax)"] - analytic) <= 0.01
    assert rates["MarkOnly"] == 1.0
    assert rates["EraseBased"] == 0.0
    print(f"PASS criterion 3: remanence DdnRandom {rates['DdnRandom']:.4f}, "
          f"AllMax {rates['DdnNonRandom(AllMax)']:.4f} (analytic {analytic}); "
          f"MarkOnly 1.0; EraseBased 0.0")


def test_criterion_4_monotonicity_suite():
    # 10^4 random operation sequences; a level may only drop across an erase
    geometry = Geometry(
        blocks=2, pages_per_block=2, cells_per_page=4, bits_per_cell=3,
        cells_per_cache_slot=2,
    )
    rng = random.Random(777)

    def levels(device):
        n = geometry.cells_per_page
        return [list(device._cells[page * n : (page + 1) * n]) for page in range(4)]

    def slot(block, page, index):  # two pages per block, two slots per page
        return (block * 2 + page) * 2 + index

    sequences = 10_000
    for _ in range(sequences):
        device = NvmDevice(geometry=geometry, nop_limit=rng.randint(0, 3))
        previous = levels(device)
        for _ in range(rng.randint(1, 8)):
            roll = rng.random()
            erased_block = None
            if roll < 0.75:
                addr = slot(rng.randrange(2), rng.randrange(2), rng.randrange(2))
                word = bytes((rng.randrange(8), rng.randrange(8)))
                try:
                    device.program_slot(addr, word)
                except (MonotoneViolation, NopExceeded):
                    pass
            elif roll < 0.9:
                erased_block = rng.randrange(2)
                device.erase_block(erased_block)
            else:
                device.read_slot(slot(rng.randrange(2), rng.randrange(2), rng.randrange(2)))
            current = levels(device)
            for page_index, (before, after) in enumerate(zip(previous, current)):
                if erased_block is not None and page_index // 2 == erased_block:
                    assert after == [0, 0, 0, 0]
                    continue
                assert all(b >= a for a, b in zip(before, after)), (
                    f"cell level dropped without an erase: {before} -> {after}"
                )
            previous = current
    print(f"PASS criterion 4: no level decrease outside erase across "
          f"{sequences} random operation sequences")


def test_criterion_5_partial_overwrite_isolation():
    rng = random.Random(31337)
    cases = 1000
    for _ in range(cases):
        slots_per_page = rng.choice([2, 3, 4])
        cells_per_slot = rng.choice([2, 4])
        geometry = Geometry(
            blocks=2,
            pages_per_block=2,
            cells_per_page=slots_per_page * cells_per_slot,
            bits_per_cell=3,
            cells_per_cache_slot=cells_per_slot,
        )
        policy = rng.choice(["DdnRandom", "DdnNonRandom"])
        controller = build_controller(policy, rng.randrange(2**32), geometry, nop_limit=8)
        for cid in range(slots_per_page):
            word = bytes(rng.randrange(8) for _ in range(cells_per_slot))
            controller.flush_write(cid, word)
        victim = rng.randrange(slots_per_page)
        before = list(controller.device._cells[: geometry.cells_per_page])
        outcome = controller.handle_invalidation(victim, now=1)
        assert outcome.error is None
        after = list(controller.device._cells[: geometry.cells_per_page])
        lo = victim * cells_per_slot
        hi = lo + cells_per_slot
        assert after[:lo] == before[:lo]
        assert after[hi:] == before[hi:]
    print(f"PASS criterion 5: neighbor slots bit-identical across {cases} "
          f"randomized in-page deletions")


def test_criterion_6_secure_mode_boundary():
    geometry = Geometry(
        blocks=2, pages_per_block=2, cells_per_page=8, bits_per_cell=3,
        cells_per_cache_slot=4,
    )
    host = Host(build_controller("DdnRandom", geometry=geometry, nop_limit=8, t_secure=10))
    deletions, table = host.controller.collector.deletions, host.controller.device.cache_table
    host.run_trace(parse_trace("W 1 0x9C2\nF\n", 4, 3))  # levels 4, 7, 0, 2
    for _ in range(9):
        host.apply_event(TraceEvent("T", ticks=1))
        assert deletions == [] and table.is_valid(1)
    host.apply_event(TraceEvent("T", ticks=1))
    (outcome,) = deletions
    assert (outcome.tick, outcome.action) == (10, "secure-scrub")
    assert not table.is_valid(1)
    assert outcome.residual_cells < outcome.slot_cells  # data was destroyed
    host.apply_event(TraceEvent("T", ticks=100))
    assert deletions == [outcome]

    # an all-top-level payload has nowhere to move and is fully retained
    host = Host(build_controller("DdnRandom", geometry=geometry, nop_limit=8, t_secure=10))
    host.run_trace(parse_trace("W 2 0xFFF\nF\nT 10\n", 4, 3))
    (outcome,) = host.controller.collector.deletions
    assert outcome.residual_cells == outcome.slot_cells
    print("PASS criterion 6: valid through tick 9, scrubbed exactly at tick 10")


def test_criterion_7_byte_identical_reports():
    cfg = RunConfig(seed=777)
    text = synthetic_trace(300, 0.7, cfg.seed, cfg.cells_per_cache_slot, cfg.bits_per_cell)

    def render():
        events = parse_trace(text, cfg.cells_per_cache_slot, cfg.bits_per_cell)
        report = run(cfg, events)
        return report.csv_text.encode(), report.jsonl_text.encode()

    first = render()
    second = render()
    assert first == second
    print("PASS criterion 7: CSV and JSON-lines outputs byte-identical "
          "across two full runs")


def test_criterion_8_desk_scale_substitutes_are_pinned():
    # Field-population remanence percentages and real device electrical
    # timing are out of reach here; the analytic per-cell survival rate
    # (criterion 3) and the parameterized latency ledger (criterion 2) stand
    # in for them. Pin those substitutes.
    lat = LatencyParams()
    assert (lat.t_read_us, lat.t_program_us, lat.t_gen_us, lat.t_erase_us) == (
        49.0, 600.0, 100.0, 4000.0,
    )
    cfg = RunConfig()
    assert cfg.bits_per_cell == 3
    assert 1 / 2**cfg.bits_per_cell == 0.125
    print("PASS criterion 8: analytic remanence oracle and parameterized "
          "ledger stand in for field/hardware figures")
