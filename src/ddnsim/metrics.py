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


class DeletionOutcome(Record):
    """What one deletion did: action taken, cost by category, residual data.

    ``cost`` is the device ledger's difference across the deletion.
    ``residual_cells`` counts cells of the deleted slot that still hold their
    pre-deletion level afterwards; a slot whose page was erased retains
    nothing.
    """

    __slots__ = ("cache_id", "tick", "action", "cost", "residual_cells", "slot_cells",
                 "error")

    def __init__(self, cache_id: int, tick: int, action: str, cost: LatencyLedger,
                 residual_cells: int = 0, slot_cells: int = 0, error: str | None = None):
        self.cache_id, self.tick, self.action, self.cost = cache_id, tick, action, cost
        self.residual_cells, self.slot_cells, self.error = residual_cells, slot_cells, error


class MetricsCollector:
    """Accumulates one policy run: its ledger and its deletion records, held
    as columns: ``log`` takes five entries per record (cache id, tick, action,
    cost, residual cells), ``errors`` maps a record's index to its error, and
    ``slot_cells``, the same in every record of a run, is held once.
    ``deletions`` reads the records back as ``DeletionOutcome``s."""

    def __init__(self, ledger: LatencyLedger, slot_cells: int):
        self.ledger, self.slot_cells = ledger, slot_cells
        self.log = []
        self.errors = {}

    def record_deletion(self, outcome: DeletionOutcome):
        """Add the outcome's fields, but its ``slot_cells``, which is the collector's."""
        if outcome.error is not None:
            self.errors[len(self.log) // 5] = outcome.error
        self.log.extend((outcome.cache_id, outcome.tick, outcome.action, outcome.cost,
                         outcome.residual_cells))

    @property
    def deletions(self) -> "Deletions":
        return Deletions(self)

    @property
    def final_remanence_rate(self) -> float:
        """Residual cells over deleted cells, each counted right after its deletion."""
        invalidated = len(self.log) // 5 * self.slot_cells
        if not invalidated:
            return 0.0
        return sum(self.log[4::5]) / invalidated

    def mean_costs(self) -> LatencyLedger:
        """Mean per-deletion cost over the recorded deletions."""
        costs = self.log[3::5]
        if not costs:
            return LatencyLedger()
        n = len(costs)
        return LatencyLedger(*(sum(map(get, costs)) / n for get in _COST_GETTERS))


class Deletions:
    """A collector's records as a read-only sequence of ``DeletionOutcome``s,
    built on read. It follows the collector as the run records more, and
    equals a list of equal outcomes."""

    __slots__ = ("_collector",)  # __eq__ without __hash__: unhashable, as a list is

    def __init__(self, collector: MetricsCollector):
        self._collector = collector

    def __len__(self) -> int:
        return len(self._collector.log) // 5

    def __getitem__(self, index):
        picked = range(len(self))[index]  # IndexError as for a list, ending iteration
        if type(picked) is range:
            return list(map(self.__getitem__, picked))
        c = self._collector
        return DeletionOutcome(*c.log[5 * picked:5 * picked + 5], c.slot_cells,
                               c.errors.get(picked))

    def __eq__(self, other):
        return list(self) == other


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

    step = 5 * JSONL_CHUNK
    for r in runs:
        policy = json.dumps(r.label)
        log, slot_cells = r.collector.log, r.collector.slot_cells
        for start in range(0, len(log), step):
            fields = iter(log[start:start + step])
            write("".join([
                f'{{"tick": {tick}, "cache_id": {cache_id}, "policy": {policy}, '
                f'"rd_us": {c.rd_us!r}, "wr_us": {c.wr_us!r}, "gen_us": {c.gen_us!r}, '
                f'"erase_us": {c.erase_us!r}, "gc_us": {c.gc_us!r}, '
                f'"residual_cells": {residual}, "slot_cells": {slot_cells}}}\n'
                for cache_id, tick, _, c, residual in zip(*[fields] * 5)
            ]))
