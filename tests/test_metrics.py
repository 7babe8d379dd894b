import hashlib
import json
from operator import sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddnsim import (
    DeletionOutcome,
    LatencyLedger,
    MetricsCollector,
    PolicyRun,
    ReportError,
    comparison_rows,
    parse_policy,
    parse_trace,
    render_comparison_csv,
    render_deletions_jsonl,
    trace_fingerprint,
)
from ddnsim.metrics import COST_FIELDS, JSONL_CHUNK, _fmt, ledger_costs


def outcome(tick=0, cache_id=1, residual=8, slot=8, **costs):
    return DeletionOutcome(
        cache_id=cache_id,
        tick=tick,
        action="test",
        cost=LatencyLedger(**costs),
        residual_cells=residual,
        slot_cells=slot,
    )


def collector_with(outcomes, ledger=None):
    collector = MetricsCollector(ledger if ledger is not None else LatencyLedger())
    for o in outcomes:
        collector.record_deletion(o)
    return collector


def test_ledger_accumulates_by_category():
    ledger = LatencyLedger()
    ledger.charge_read(49)
    ledger.charge_program(600)
    ledger.charge_gen(100)
    ledger.charge_erase(4000)
    ledger.charge_gc_migration(649)
    assert ledger.total_us == 5398.0
    assert ledger == LatencyLedger(49, 600, 100, 4000, 649)
    assert ledger_costs(ledger) == (49, 600, 100, 4000, 649)


def test_snapshot_delta():
    ledger = LatencyLedger()
    ledger.charge_read(49)
    before = ledger_costs(ledger)
    ledger.charge_program(600)
    ledger.charge_read(49)
    spent = tuple(map(sub, ledger_costs(ledger), before))
    assert spent == ledger_costs(LatencyLedger(rd_us=49, wr_us=600))


def test_record_deletion_accumulates_residuals():
    collector = collector_with(
        [
            outcome(residual=8),
            outcome(residual=0),
            outcome(residual=1),
        ]
    )
    assert collector.final_remanence_rate == 9 / 24


def test_empty_collector():
    collector = collector_with([])
    assert collector.final_remanence_rate == 0.0
    assert collector.mean_costs() == LatencyLedger()


def test_mean_costs():
    collector = collector_with(
        [
            outcome(rd_us=49.0, wr_us=600.0, gen_us=100.0),
            outcome(rd_us=49.0, wr_us=600.0, gen_us=100.0),
        ]
    )
    mean = collector.mean_costs()
    assert (mean.rd_us, mean.wr_us, mean.gen_us) == (49.0, 600.0, 100.0)
    assert mean.total_us == 749.0


def _run(label, outcomes, fingerprint="f1"):
    return PolicyRun(label, collector_with(outcomes), fingerprint)


def _jsonl(runs):
    chunks = []
    render_deletions_jsonl(runs, chunks.append)
    return "".join(chunks)


def test_comparison_rows():
    ddn = _run("DdnRandom", [outcome(rd_us=49.0, wr_us=600.0, gen_us=100.0, residual=1)])
    ddn.collector.ledger.charge_read(49)
    rows = comparison_rows([ddn])
    assert rows[0]["policy"] == "DdnRandom"
    assert rows[0]["rd_us"] == 49.0
    assert rows[0]["total_us"] == 49.0  # whole-run ledger, not per deletion
    assert rows[0]["remanence"] == 1 / 8


def test_comparison_rejects_mismatched_traces():
    with pytest.raises(ReportError):
        comparison_rows([_run("A", [], "f1"), _run("B", [], "f2")])
    with pytest.raises(ReportError):
        comparison_rows([])
    # run() builds its runs from one events list and gives them no fingerprint.
    unkeyed = [PolicyRun(label, collector_with([])) for label in ("A", "B")]
    assert [r.trace_fingerprint for r in unkeyed] == [None, None]
    assert [row["policy"] for row in comparison_rows(unkeyed)] == ["A", "B"]
    # Runs from separate replays can still be keyed by trace_fingerprint.
    events = parse_trace("W 1 0xABC\nF\nT 3\nU 1 0x123\nI 1\nD 1\n", 4, 3)
    fingerprint = trace_fingerprint(events)
    canonical = "W 1 05020704\nF\nT 3\nU 1 00040403\nI 1\nD 1\n"
    assert fingerprint == hashlib.sha256(canonical.encode()).hexdigest()
    keyed = [PolicyRun(label, collector_with([]), fingerprint) for label in ("A", "B")]
    assert [row["policy"] for row in comparison_rows(keyed)] == ["A", "B"]


def test_csv_layout_and_formatting():
    ddn = _run("DdnRandom", [outcome(rd_us=49.0, wr_us=600.0, gen_us=100.0, residual=1)])
    text = render_comparison_csv([ddn])
    lines = text.splitlines()
    assert lines[0] == "POLICY,RD,WR,GEN,ERASE,GC,TOTAL_US,REMANENCE"
    assert lines[1] == "DdnRandom,49,600,100,0,0,0,0.125"
    assert render_comparison_csv([ddn]) == text  # deterministic


def test_fmt_numbers():
    assert _fmt(749.0) == "749"
    assert _fmt(0.125) == "0.125"
    assert _fmt(1.0) == "1"
    assert _fmt(0.0) == "0"
    assert _fmt(648.9351) == "648.9351"


def test_jsonl_keys_and_values():
    run = _run(
        "DdnRandom",
        [outcome(tick=3, cache_id=9, rd_us=49.0, wr_us=600.0, gen_us=100.0, residual=1)],
    )
    text = _jsonl([run])
    (line,) = text.strip().splitlines()
    record = json.loads(line)
    assert list(record) == [
        "tick",
        "cache_id",
        "policy",
        "rd_us",
        "wr_us",
        "gen_us",
        "erase_us",
        "gc_us",
        "residual_cells",
        "slot_cells",
    ]
    assert record["tick"] == 3
    assert record["cache_id"] == 9
    assert record["policy"] == "DdnRandom"
    assert record["rd_us"] == 49.0
    assert record["residual_cells"] == 1
    assert record["slot_cells"] == 8


def test_jsonl_empty():
    chunks = []
    render_deletions_jsonl([_run("MarkOnly", [])], chunks.append)
    assert chunks == []


def test_jsonl_is_written_in_chunks_of_whole_records_per_policy():
    runs = [
        _run("MarkOnly", [outcome(cache_id=i) for i in range(2 * JSONL_CHUNK + 1)]),
        _run("EraseBased", []),
        _run("DdnRandom", [outcome(cache_id=i) for i in range(JSONL_CHUNK)]),
    ]
    chunks = []
    render_deletions_jsonl(runs, chunks.append)
    assert [c.count("\n") for c in chunks] == [JSONL_CHUNK, JSONL_CHUNK, 1, JSONL_CHUNK]
    assert all(c.endswith("}\n") for c in chunks)
    ids = [json.loads(line)["cache_id"] for c in chunks[:3] for line in c.splitlines()]
    assert ids == list(range(2 * JSONL_CHUNK + 1))


def _reference_jsonl(runs):
    """One json.dumps per deletion record, in the documented key order."""
    lines = []
    for r in runs:
        for d in r.collector.deletions:
            record = {"tick": d.tick, "cache_id": d.cache_id, "policy": r.label}
            record.update((f, getattr(d.cost, f)) for f in COST_FIELDS)
            record.update(residual_cells=d.residual_cells, slot_cells=d.slot_cells)
            lines.append(json.dumps(record))
    return "\n".join(lines) + ("\n" if lines else "")


# Every label parse_policy can produce, out-of-range fill levels included.
_labels = st.one_of(
    st.sampled_from(["MarkOnly", "EraseBased", "DdnRandom", "DdnNonRandom", "DdnNonRandom(AllMax)"]),
    st.integers(-5, 300).map(lambda k: f"DdnNonRandom(Level={k})"),
).map(lambda text: parse_policy(text).label)
_costs = st.one_of(
    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1e18, 49.0, 0.1 + 0.2]),
    st.floats(0.0, 1e18, allow_nan=False, allow_infinity=False),
)
_counts = st.integers(0, 2**63)
_records = st.builds(
    lambda tick, cache_id, costs, residual, slot: DeletionOutcome(
        cache_id, tick, "test", LatencyLedger(*costs), residual, slot
    ),
    _counts, _counts, st.tuples(*[_costs] * len(COST_FIELDS)), _counts, _counts,
)


@settings(max_examples=300)
@given(st.lists(st.tuples(_labels, st.lists(_records, max_size=4)), max_size=4))
def test_jsonl_matches_json_dumps(policies):
    """The f-string renderer writes the bytes of json.dumps, record by record."""
    runs = [_run(label, records) for label, records in policies]
    assert _jsonl(runs) == _reference_jsonl(runs)
