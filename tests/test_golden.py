"""Golden reports: the exact CSV and JSONL bytes of small runs, pinned by hash.

Each case exercises a different path of the simulator (plain W/F/U replay,
secure mode with idle flushes and I/D requests, flushes and scrubs on the
same tick across zero, one-tick and long time gaps, slot reclaim with LRU
eviction, NAND erase fallback, fractional latencies). A refactor that claims
to keep behaviour must keep these hashes; a deliberate change of report bytes
updates them.
"""

import random
import hashlib
from collections import Counter

import pytest

from ddnsim import parse_config_text, parse_trace, run, synthetic_trace
from ddnsim.cli import main


def _payload(rng, cfg):
    slot_bits = cfg.cells_per_cache_slot * cfg.bits_per_cell
    return f"0x{rng.getrandbits(slot_bits):0{slot_bits // 4}X}"


def _readme_synthetic(cfg):
    """The README's ``--synthetic`` command, shortened to 200 writes."""
    return synthetic_trace(200, 1.0, cfg.seed, cfg.cells_per_cache_slot, cfg.bits_per_cell)


def _synthetic_300(cfg):
    """``--synthetic 300`` at the config's seed."""
    return synthetic_trace(300, 1.0, cfg.seed, cfg.cells_per_cache_slot, cfg.bits_per_cell)


def _secure_trace(cfg):
    """Batches of writes, I/D on some still-valid ids, idle gaps that let the
    idle flush and the secure scrub fire."""
    rng = random.Random(5)
    lines, previous, next_id = [], [], 0
    for _ in range(6):
        for cache_id in sorted(rng.sample(previous, len(previous) // 3)):
            lines.append(f"{rng.choice('ID')} {cache_id}")
        previous = list(range(next_id, next_id + 8))
        next_id += 8
        lines += [f"W {cache_id} {_payload(rng, cfg)}" for cache_id in previous]
        lines.append("T 12")
    lines.append("T 40")
    return "\n".join(lines) + "\n"


def _same_tick_trace(cfg):
    """With threshold 0, t_secure 1 and 4 DRAM lines, each batch of 5 fresh
    ids evicts its smallest (dirty) id on the write tick. One tick later the
    idle flush writes the other 4 on the tick that scrubs the evicted one and
    the batch before. I/D/U then hit copies flushed on that tick, still
    valid; a U on the evicted, already scrubbed id evicts again. ``T 0``
    ticks nothing, and one ``T 100000`` gap drains everything."""
    rng = random.Random(21)
    lines, next_id = ["T 0"], 0
    for batch_no in range(10):
        batch = list(range(next_id, next_id + 5))
        next_id += 5
        lines += [f"W {cache_id} {_payload(rng, cfg)}" for cache_id in batch]
        lines.append("T 1")
        invalidated, deidentified, updated = rng.sample(batch[1:], 3)
        lines += [
            f"I {invalidated}",
            f"D {deidentified}",
            f"U {updated} {_payload(rng, cfg)}",
            f"U {batch[0]} {_payload(rng, cfg)}",
            "T 0",
        ]
        if batch_no == 5:
            lines.append("T 100000")
    lines.append("T 3")
    return "\n".join(lines) + "\n"


def _reclaim_trace(cfg):
    """More ids than DRAM lines, random updates, periodic flushes."""
    rng = random.Random(9)
    lines = [f"W {cache_id} {_payload(rng, cfg)}" for cache_id in range(40)]
    for update in range(80):
        if update % 20 == 0:
            lines += ["F", "T 1"]
        lines.append(f"U {rng.randrange(40)} {_payload(rng, cfg)}")
    return "\n".join(lines) + "\n"


def _update_trace(cfg):
    """W i / F / U i rounds with seeded payloads."""
    rng = random.Random(3)
    lines = []
    for cache_id in range(40):
        lines += [f"W {cache_id} {_payload(rng, cfg)}", "F"]
        lines.append(f"U {cache_id} {_payload(rng, cfg)}")
    return "\n".join(lines) + "\n"


# name -> (config text, trace builder, actions the case must produce,
#          sha256 of the CSV report, sha256 of the JSONL report)
CASES = {
    "readme-synthetic": (
        "seed = 12345\n",
        _readme_synthetic,
        {"mark-only", "gc-erase", "ddn-overwrite"},
        "f3ad85284509015dc68f804c1534f604d29a883482f5d7b589267d7f44ef4cb5",
        "bcecbe1b174b98c3cc45b7c6ca54e9e3e1488c280414da71bf3e94002ba8bfcb",
    ),
    "secure-mode": (
        "seed = 7\nt_secure = 20\nflush_idle_threshold = 3\n",
        _secure_trace,
        {"secure-scrub", "ddn-overwrite", "gc-erase", "mark-only"},
        "5b7997af4fd9595879191c5a1be2aa462135740f66e4b2ac587edf2a6dc0ab39",
        "b94bea5cc5f150b43cb5340dcd39b9fd38d0dcd19dd1bb21068ae07d11ace201",
    ),
    "same-tick-flush-scrub": (
        "seed = 17\nt_secure = 1\nflush_idle_threshold = 0\ndram_capacity = 4\n",
        _same_tick_trace,
        {"secure-scrub", "ddn-overwrite", "gc-erase", "mark-only"},
        "f55db867276d72193a8c50fd926cf906b386d25573b61f169bcc19d59f0047df",
        "c744e27dd069362646f81cf031cf6d3920ac8ee6afe665c71c17390ea1778552",
    ),
    "overwritable-reclaim": (
        "seed = 11\ndevice_kind = overwritable\nreclaim_invalid_slots = true\n"
        "dram_capacity = 8\nblocks = 16\n",
        _reclaim_trace,
        {"ddn-overwrite", "gc-erase"},
        "c99ca8334e9d6d340a5663e69ed0df74656a98fce892824dee2346ab95e0972f",
        "f1aa7af4c4709b472ec800200da460859c54f56e7a965bdd5a6166790c29818b",
    ),
    "nand-erase-fallback": (
        "seed = 13\nnop_limit = 1\npolicies = DdnRandom,DdnNonRandom,EraseBased\n",
        _update_trace,
        {"ddn-overwrite", "erase-fallback", "gc-erase"},
        "a2cb2c4020cf3e154a3ef415d682a0030c3236909aa39348915db578aeaf6c0e",
        "7a52e04b8295697aacd0f40afe24d52dd5bd3819ab5271c1f3d8ca9c4574b98c",
    ),
    # Fractional latencies: ledger differences of one action vary in the last
    # bit, so deletions share a cost object only when every bit agrees.
    "fractional-latency": (
        "seed = 1\nt_read_us = 0.1\nt_program_us = 0.3\nt_gen_us = 0.7\n"
        "t_erase_us = 3.3\nnop_limit = 1\n",
        _synthetic_300,
        {"mark-only", "gc-erase", "ddn-overwrite", "erase-fallback"},
        "65860e87f57e10c53b2508e55d23612ce41e6230451dabe843523b32331bfe77",
        "8f491dfca52175ce77856856a524af1ccf7eac9396d07b84075d21e88538285f",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name):
    config_text, build_trace, actions, csv_sha, jsonl_sha = CASES[name]
    cfg = parse_config_text(config_text)
    events = parse_trace(build_trace(cfg), cfg.cells_per_cache_slot, cfg.bits_per_cell)
    report = run(cfg, events)
    seen = Counter(d.action for r in report.runs for d in r.collector.deletions)
    assert actions <= set(seen), f"case no longer exercises {actions - set(seen)}"
    assert not [d.error for r in report.runs for d in r.collector.deletions if d.error]
    assert hashlib.sha256(report.csv_text.encode()).hexdigest() == csv_sha
    assert hashlib.sha256(report.jsonl_text.encode()).hexdigest() == jsonl_sha


# The golden cases' config and trace, plus a run that deletes nothing.
LOG_CASES = {name: case[:2] for name, case in CASES.items()}
LOG_CASES["empty-log"] = ("seed = 3\n", lambda cfg: "W 0 0x000001\nF\n")


@pytest.mark.parametrize("name", sorted(LOG_CASES))
def test_cli_streams_the_jsonl_log_of_jsonl_text(name, tmp_path, capsys):
    """The CLI writes the JSONL log in chunks; to a file and to stdout alike,
    the bytes are ``run(...).jsonl_text``."""
    config_text, build_trace = LOG_CASES[name]
    cfg = parse_config_text(config_text)
    trace_text = build_trace(cfg)
    events = parse_trace(trace_text, cfg.cells_per_cache_slot, cfg.bits_per_cell)
    expected = run(cfg, events).jsonl_text
    assert (expected == "") == (name == "empty-log")
    config, trace, out = tmp_path / "run.cfg", tmp_path / "run.trace", tmp_path / "log.jsonl"
    config.write_text(config_text)
    trace.write_text(trace_text)
    args = ["--config", str(config), "--trace", str(trace), "--format", "jsonl"]
    assert main([*args, "--out", str(out)]) == 0
    assert out.read_bytes() == expected.encode()
    assert main(args) == 0
    assert capsys.readouterr() == (expected, "")
