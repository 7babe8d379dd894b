"""Seeded workloads for the ddnsim benchmark.

Each workload is a pure function of its seed: the same seed gives the same
trace, config and command line. Sizes are fixed; the seed only picks
payloads and which ids are touched, so run time hardly depends on it.

The CLI sees only files and flags. ``Workload.load`` rebuilds in process
exactly what the CLI builds from them, for the reference report and for the
in-process replays.
"""

import random
from dataclasses import dataclass

NAMES = ("synthetic-update", "secure-idle", "reclaim-pressure")

# synthetic-update: rounds of "W i / F / U i" from the CLI's own generator.
SYNTHETIC_WRITES = 1500

# secure-idle: batches of fresh ids separated by long idle gaps.
SECURE_BATCHES = 20
SECURE_BATCH_SIZE = 25
SECURE_GAP = 150
SECURE_T_SECURE = 200
SECURE_IDLE_FLUSH = 5
SECURE_INVALIDATE_SHARE = 0.25

# reclaim-pressure: random updates over more ids than DRAM holds.
RECLAIM_IDS = 400
RECLAIM_UPDATES = 400
RECLAIM_DRAM = 64
RECLAIM_FLUSH_EVERY = 50


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    out_format: str
    config_text: str | None = None  # None: the CLI's built-in defaults
    trace_text: str | None = None  # None: the CLI synthesizes the trace
    synthetic: int | None = None
    deletions_per_policy: int | None = None  # known from the trace's construction

    def cli_args(self, config_path, trace_path, out_path) -> list:
        """ddnsim flags for one invocation, as a user would type them."""
        args = []
        if self.config_text is not None:
            args += ["--config", str(config_path)]
        if self.trace_text is not None:
            args += ["--trace", str(trace_path)]
        else:
            args += ["--synthetic", str(self.synthetic)]
        args += ["--seed", str(self.seed)]
        if self.out_format != "csv":
            args += ["--format", self.out_format]
        return args + ["--out", str(out_path)]

    def load(self):
        """(config, events) as the CLI builds them from this workload's flags."""
        from ddnsim import RunConfig, parse_config_text, parse_trace, synthetic_trace

        cfg = parse_config_text(self.config_text) if self.config_text else RunConfig()
        cfg.seed = self.seed
        cfg.out_format = self.out_format
        cfg.validate()
        text = self.trace_text
        if text is None:
            text = synthetic_trace(
                self.synthetic, 1.0, self.seed, cfg.cells_per_cache_slot, cfg.bits_per_cell
            )
        return cfg, parse_trace(text, cfg.cells_per_cache_slot, cfg.bits_per_cell)


def build(name: str, seed: int) -> Workload:
    from ddnsim import RunConfig

    defaults = RunConfig()
    slot_bits = defaults.cells_per_cache_slot * defaults.bits_per_cell
    if name == "synthetic-update":
        return Workload(
            name, seed, "csv", synthetic=SYNTHETIC_WRITES,
            deletions_per_policy=SYNTHETIC_WRITES,
        )
    if name == "secure-idle":
        trace, deletions = secure_idle_trace(seed, slot_bits)
        config = (
            f"t_secure = {SECURE_T_SECURE}\n"
            f"flush_idle_threshold = {SECURE_IDLE_FLUSH}\n"
        )
        return Workload(name, seed, "jsonl", config, trace, deletions_per_policy=deletions)
    if name == "reclaim-pressure":
        config = (
            "device_kind = overwritable\n"
            "reclaim_invalid_slots = true\n"
            f"dram_capacity = {RECLAIM_DRAM}\n"
        )
        return Workload(name, seed, "csv", config, reclaim_pressure_trace(seed, slot_bits))
    raise ValueError(f"unknown workload {name!r} (known: {', '.join(NAMES)})")


def _payload(rng: random.Random, slot_bits: int) -> str:
    return f"0x{rng.getrandbits(slot_bits):0{slot_bits // 4}X}"


def secure_idle_trace(seed: int, slot_bits: int):
    """Batches of writes separated by idle gaps, with I/D on still-valid ids.

    Batch j is written at tick j * gap. The idle flush stores it SECURE_IDLE_FLUSH
    ticks later and secure mode scrubs it SECURE_T_SECURE ticks after that.
    Before batch j + 1 is written, a random share of batch j gets ``I`` or ``D``:
    those copies were flushed gap - SECURE_IDLE_FLUSH < SECURE_T_SECURE ticks
    earlier, so they are still valid. A final gap long enough for every
    remaining copy to be scrubbed makes each written id deleted exactly once.

    Returns (trace text, deletions per policy).
    """
    if not SECURE_IDLE_FLUSH < SECURE_GAP < SECURE_IDLE_FLUSH + SECURE_T_SECURE:
        raise ValueError("I/D would target a copy that is not flushed or already scrubbed")
    rng = random.Random(seed)
    lines = [f"# secure-idle seed {seed}"]
    previous = []
    next_id = 0
    for _ in range(SECURE_BATCHES):
        share = int(len(previous) * SECURE_INVALIDATE_SHARE)
        for cache_id in sorted(rng.sample(previous, share)):
            lines.append(f"{rng.choice('ID')} {cache_id}")
        previous = list(range(next_id, next_id + SECURE_BATCH_SIZE))
        next_id += SECURE_BATCH_SIZE
        lines += [f"W {cache_id} {_payload(rng, slot_bits)}" for cache_id in previous]
        lines.append(f"T {SECURE_GAP}")
    lines.append(f"T {SECURE_IDLE_FLUSH + SECURE_T_SECURE}")
    return "\n".join(lines) + "\n", next_id


def reclaim_pressure_trace(seed: int, slot_bits: int) -> str:
    """Write RECLAIM_IDS ids, then update random ones; flush every so often.

    DRAM holds fewer lines than there are ids, so writes evict and flush, and
    most updates invalidate a valid flushed copy. ``T 1`` after each ``F``
    moves the clock so the LRU order is not a tie on every line.
    """
    rng = random.Random(seed)
    lines = [f"# reclaim-pressure seed {seed}"]
    lines += [f"W {cache_id} {_payload(rng, slot_bits)}" for cache_id in range(RECLAIM_IDS)]
    for update in range(RECLAIM_UPDATES):
        if update % RECLAIM_FLUSH_EVERY == 0:
            lines += ["F", "T 1"]
        lines.append(f"U {rng.randrange(RECLAIM_IDS)} {_payload(rng, slot_bits)}")
    return "\n".join(lines) + "\n"
