"""The names the benchmark under ``perfbench/`` drives, exercised the way it
drives them.

``perfbench/tracing.py`` wraps entry points by attribute name, ``run.py``
rebuilds every policy's run from ``run_policy`` and reads the collectors'
deletion records, and ``scaling.py`` builds hosts from ``RunConfig``. A
rename or deletion of any of them breaks the benchmark; these tests fail in
the fast suite instead. The workloads' report bytes are pinned by hash too,
as the golden cases are, since the benchmark checks speed on the same bytes.
"""

import hashlib
import sys
from pathlib import Path

import pytest

from ddnsim import PolicyRun, cli, render_comparison_csv, run, run_policy, trace_fingerprint

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import scaling  # noqa: E402
import workloads  # noqa: E402
from run import ACTIONS  # noqa: E402
from tracing import SpanRecorder, instrument  # noqa: E402


def test_traced_cli_run_reaches_every_wrapped_layer(tmp_path):
    out = tmp_path / "report.jsonl"
    recorder = SpanRecorder()
    with instrument(recorder):
        code = cli.main(["--synthetic", "20", "--seed", "1", "--format", "jsonl",
                         "--out", str(out)])
    assert code == 0
    assert recorder.nesting_errors() == []
    _, calls = recorder.totals()
    # Every span's call count, so that a hot path which bypasses a wrapped entry
    # point fails here instead of zeroing its per-layer metric. The run writes 20
    # ids, flushes each and updates it; each of the four policies deletes 20 copies.
    assert calls == {
        "runner.synthetic_trace": 1, "host.parse_trace": 1, "cells.word_from_hex": 40,
        "runner.replay.markonly": 1, "runner.replay.erasebased": 1,
        "runner.replay.ddnrandom": 1, "runner.replay.ddnnonrandom-allmax": 1,
        "device.construct": 4, "host.run_trace": 4, "controller.flush_write": 156,
        "device.allocate_slot": 156, "device.program_slot": 196,
        "controller.handle_invalidation": 80, "metrics.record_deletion": 4 * 20,
        "controller.ddn_process": 40, "device.read_slot": 20, "cells.gen_word": 21,
        "device.garbage_collect": 20, "device.erase_block": 20,
        "metrics.charge_gc_migration": 19, "metrics.render_jsonl": 1,
    }
    assert [len(h.controller.collector.deletions) for h in recorder.hosts] == [20] * 4
    assert len(out.read_text().splitlines()) == 4 * 20


@pytest.mark.parametrize("name", workloads.NAMES)
def test_per_policy_replays_render_the_reference_report(name):
    cfg, events = workloads.build(name, 1).load()
    reference = run(cfg, events)
    fingerprint = trace_fingerprint(events)
    runs = [PolicyRun(p.label, run_policy(cfg, p, events), fingerprint)
            for p in cfg.run_policies()]
    assert render_comparison_csv(runs) == reference.csv_text
    deletions = [d for r in reference.runs for d in r.collector.deletions]
    assert deletions and not any(d.error for d in deletions)
    assert {d.action for d in deletions} <= set(ACTIONS)  # traced runs count these by name
    assert [row["policy"] for row in reference.rows] == [r.label for r in runs]


def test_scaling_probes_run_and_their_hosts_keep_t_secure():
    assert scaling._host(t_secure=7).controller.policy.t_secure == 7
    for probe, _ in scaling.PROBES.values():
        assert probe(16) >= 0.0


# sha256 of the report each workload writes (CSV or JSONL), per seed.
WORKLOAD_REPORTS = {
    ("synthetic-update", 12345): "49230afd6073b94813e0e10e1d7ba14856f493eddf412d95b8b733192a3fe20f",
    ("synthetic-update", 777): "c230f804474589f62f887c50334f40524b930cb0cdac8fa55c516b4bacebd0ef",
    ("synthetic-update", 1): "b40bdf9bda0b65568145672bf0078c2ecfd3816fbdce4b4a7e5f4857d21b60a3",
    ("secure-idle", 12345): "3e34a97278f90963dc990887b046ca43b8593c0bb1b8cdc4ed87a4c37368468b",
    ("secure-idle", 777): "b998248a6291c6c8273ef86c11d5f911b9d550ea8979bd9d479d9df4424711a0",
    ("secure-idle", 1): "274705c8c6a60cd9f46ed1cddf6b625e7d634e11f32c4cd4ffae814ef41e3f86",
    ("reclaim-pressure", 12345): "c818003401acf89ea95ac054f6f073d1bd755e555aacafd93affd9dc90ee2a69",
    ("reclaim-pressure", 777): "161a55d95386446aa19f77d40e75e588fabd91bdd25f6b78286820f622a8c346",
    ("reclaim-pressure", 1): "f143db27f5decf2686ee5057f762ddb639f1cb37d7d68ed9d52332c54bdfe2b3",
}


@pytest.mark.parametrize("name, seed", sorted(WORKLOAD_REPORTS))
def test_workload_report_bytes_are_pinned(name, seed):
    workload = workloads.build(name, seed)
    chunks = []
    run(*workload.load()).write(workload.out_format, chunks.append)
    digest = hashlib.sha256("".join(chunks).encode()).hexdigest()
    assert digest == WORKLOAD_REPORTS[name, seed]
