"""The names the benchmark under ``perfbench/`` drives, exercised the way it
drives them.

``perfbench/tracing.py`` wraps entry points by attribute name, ``run.py``
rebuilds every policy's run from ``run_policy`` and reads the collectors'
deletion records, and ``scaling.py`` builds hosts from ``RunConfig``. A
rename or deletion of any of them breaks the benchmark; these tests fail in
the fast suite instead.
"""

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
    assert sum(n for name, n in calls.items() if name.startswith("runner.replay.")) == 4
    assert calls["metrics.record_deletion"] == 4 * 20
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
