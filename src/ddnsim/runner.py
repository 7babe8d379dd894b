"""Composition root: replay one trace under each policy and render reports.

Each policy gets a fresh device, controller, host, and random stream built
from the same seed, so runs are independent and the whole report is a pure
function of (config, trace, seed).
"""

import random
from functools import cached_property

from .cells import hex_digits
from .config import RunConfig
from .controller import NvmController
from .device import NvmDevice
from .host import Host, Trace
from .metrics import (
    MetricsCollector,
    PolicyRun,
    comparison_rows,
    render_comparison_csv,
    render_deletions_jsonl,
)


class RunReport:
    """Every policy's run; the comparison rows and each report text are built
    on first access, so a run pays only for the format it reads."""

    def __init__(self, runs: list):
        self.runs = runs

    @cached_property
    def rows(self) -> list:
        return comparison_rows(self.runs)

    @cached_property
    def csv_text(self) -> str:
        return render_comparison_csv(self.runs)

    @cached_property
    def jsonl_text(self) -> str:
        chunks = []
        render_deletions_jsonl(self.runs, chunks.append)
        return "".join(chunks)

    def write(self, out_format: str, write) -> None:
        """Pass ``write`` the CSV text whole, or the JSONL log chunk by chunk."""
        if out_format == "csv":
            write(self.csv_text)
        else:
            render_deletions_jsonl(self.runs, write)


def trace_fingerprint(events) -> str:
    """sha256 of the canonical trace text: one line per event, the payload as
    the hex of its cell levels (``W 3 0207...``, ``I 3``, ``T 10``, ``F``).

    For callers that combine ``PolicyRun``s from separate replays. ``run``
    does not need it, so ``hashlib`` (and OpenSSL) is imported only here.
    """
    import hashlib

    lines = [
        f"{e.kind} {e.cache_id} {e.payload.hex()}" if e.kind in ("W", "U")
        else f"{e.kind} {e.cache_id}" if e.kind in ("I", "D")
        else f"T {e.ticks}" if e.kind == "T"
        else e.kind
        for e in events
    ]
    lines.append("")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def run_policy(config: RunConfig, policy, events) -> MetricsCollector:
    """Replay the events under one policy on fresh state; return its metrics."""
    device = NvmDevice(
        geometry=config.geometry(),
        kind=config.device_kind,
        latency=config.latency(),
        nop_limit=config.nop_limit,
        reclaim_invalid_slots=config.reclaim_invalid_slots,
    )
    controller = NvmController(device, policy, random.Random(config.seed))
    host = Host(
        controller,
        capacity=config.dram_capacity,
        flush_idle_threshold=config.flush_idle_threshold,
    )
    host.run_trace(events)
    return controller.collector


def run(config: RunConfig, events) -> RunReport:
    """Run every configured policy over the same events and build reports.

    The runs share one ``Trace``, built once from any other iterable of
    ``TraceEvent``s, so they replay the same trace by construction and carry
    no fingerprint."""
    config.validate()
    events = events if isinstance(events, Trace) else Trace(events)
    runs = [
        PolicyRun(policy.label, run_policy(config, policy, events))
        for policy in config.run_policies()
    ]
    return RunReport(runs)


def synthetic_trace(
    count: int,
    update_ratio: float,
    seed: int,
    cells_per_slot: int,
    bits_per_cell: int,
) -> str:
    """Generate a write/flush/update workload as trace text.

    Every line is written and flushed; a fraction ``update_ratio`` of them is
    then updated, which invalidates the flushed copy. Payloads are uniform
    random bits, so cell levels are uniform over the level range.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if not 0.0 <= update_ratio <= 1.0:
        raise ValueError(f"update_ratio must be in [0, 1], got {update_ratio}")
    digits = hex_digits(cells_per_slot, bits_per_cell)
    rng = random.Random(seed)
    lines = [f"# synthetic workload: {count} writes, update ratio {update_ratio}"]
    for i in range(count):
        lines.append(f"W {i} 0x{rng.getrandbits(digits * 4):0{digits}X}")
        lines.append("F")
        if rng.random() < update_ratio:
            lines.append(f"U {i} 0x{rng.getrandbits(digits * 4):0{digits}X}")
    return "\n".join(lines) + "\n"
