"""Device-time accounting and remanence reporting for deletion-policy runs.

The ledger tracks microseconds per operation category. A collector owns one
ledger plus the per-deletion records a run produced, and the report helpers
turn a set of per-policy collectors into a comparison table (CSV) and a
deletion log (JSON lines). All rendering is deterministic byte-for-byte for
identical runs.
"""

from operator import attrgetter

from .values import Record


class ReportError(Exception):
    """Raised when report inputs are inconsistent (e.g. different traces)."""


# The five device-time categories, in report column order, and a ledger's as a tuple.
COST_FIELDS = ("rd_us", "wr_us", "gen_us", "erase_us", "gc_us")
ledger_costs = attrgetter(*COST_FIELDS)
_COST_GETTERS = tuple(map(attrgetter, COST_FIELDS))
_cost, _slot_cells, _residual_cells = map(attrgetter, ("cost", "slot_cells", "residual_cells"))
JSONL_CHUNK = 256  # records per write: about 45 kB; line by line is slower


class LatencyLedger(Record):
    """Device time in microseconds per operation category.

    The one cost type: device and controller add their times to a run's ledger
    in place, save GC's ``charge_gc_migration``, the one charge method left, as
    the benchmark counts its calls. A deletion's cost is the ledger's change
    across it, a mean cost is a ledger too, and equal costs share one, read-only.
    """

    __slots__ = COST_FIELDS

    def __init__(self, rd_us: float = 0.0, wr_us: float = 0.0, gen_us: float = 0.0,
                 erase_us: float = 0.0, gc_us: float = 0.0):
        self.rd_us, self.wr_us, self.gen_us = rd_us, wr_us, gen_us
        self.erase_us, self.gc_us = erase_us, gc_us

    def charge_gc_migration(self, us: float):
        self.gc_us += us

    @property
    def total_us(self) -> float:
        return self.rd_us + self.wr_us + self.gen_us + self.erase_us + self.gc_us


class MetricsCollector:
    """Accumulates one policy run: its ledger and its deletion records."""

    def __init__(self, ledger: LatencyLedger):
        self.ledger = ledger
        self.deletions = []

    def record_deletion(self, outcome):
        self.deletions.append(outcome)

    @property
    def final_remanence_rate(self) -> float:
        """Residual cells over deleted cells, each counted right after its deletion."""
        invalidated = sum(map(_slot_cells, self.deletions))
        if not invalidated:
            return 0.0
        return sum(map(_residual_cells, self.deletions)) / invalidated

    def mean_costs(self) -> LatencyLedger:
        """Mean per-deletion cost over the recorded deletions."""
        costs = list(map(_cost, self.deletions))
        if not costs:
            return LatencyLedger()
        n = len(costs)
        return LatencyLedger(*(sum(map(get, costs)) / n for get in _COST_GETTERS))


class PolicyRun:
    """One policy's finished run, optionally keyed by the trace it replayed:
    runs built from separate replays can carry ``runner.trace_fingerprint``
    so that ``comparison_rows`` refuses to compare different traces."""

    __slots__ = ("label", "collector", "trace_fingerprint")

    def __init__(self, label: str, collector: MetricsCollector,
                 trace_fingerprint: str | None = None):
        self.label, self.collector, self.trace_fingerprint = label, collector, trace_fingerprint


def _fmt(x: float) -> str:
    s = f"{x:.6f}".rstrip("0").rstrip(".")
    return s or "0"


def comparison_rows(runs) -> list:
    """One row per policy: mean per-deletion cost by category, run total,
    final remanence rate. All runs must have replayed the same trace."""
    runs = list(runs)
    if not runs:
        raise ReportError("no policy runs to compare")
    fingerprints = {r.trace_fingerprint for r in runs}
    if len(fingerprints) > 1:
        raise ReportError("policy runs replayed different traces")
    rows = []
    for r in runs:
        mean = r.collector.mean_costs()
        rows.append(
            {
                "policy": r.label,
                **{f: getattr(mean, f) for f in COST_FIELDS},
                "total_us": r.collector.ledger.total_us,
                "remanence": r.collector.final_remanence_rate,
            }
        )
    return rows


def render_comparison_csv(runs) -> str:
    lines = ["POLICY,RD,WR,GEN,ERASE,GC,TOTAL_US,REMANENCE"]
    columns = (*COST_FIELDS, "total_us", "remanence")
    for row in comparison_rows(runs):
        lines.append(",".join([row["policy"], *(_fmt(row[c]) for c in columns)]))
    return "\n".join(lines) + "\n"


def render_deletions_jsonl(runs, write) -> None:
    """Pass ``write`` one JSON line per deletion record, grouped by policy in
    run order, ``JSONL_CHUNK`` records per call.

    The keys are ``tick, cache_id, policy``, the cost fields and
    ``residual_cells, slot_cells``, with ``json.dumps``'s separators. Each
    record is one f-string: ``json.dumps`` writes an int as ``str`` and a
    finite float as its shortest ``repr``, and latencies are bounded, so the
    costs are finite. ``json`` is imported here, so a CSV run never loads it.
    """
    import json

    for r in runs:
        policy = json.dumps(r.label)
        for start in range(0, len(r.collector.deletions), JSONL_CHUNK):
            write("".join([
                f'{{"tick": {d.tick}, "cache_id": {d.cache_id}, "policy": {policy}, '
                f'"rd_us": {c.rd_us!r}, "wr_us": {c.wr_us!r}, "gen_us": {c.gen_us!r}, '
                f'"erase_us": {c.erase_us!r}, "gc_us": {c.gc_us!r}, '
                f'"residual_cells": {d.residual_cells}, "slot_cells": {d.slot_cells}}}\n'
                for d in r.collector.deletions[start:start + JSONL_CHUNK]
                for c in (d.cost,)
            ]))
