"""ddnsim benchmark: one seeded workload, measured end to end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload synthetic-update --seed 12345 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing instrumented. It
repeats rounds until ``--seconds`` have passed; a round is one ``ddnsim`` CLI
invocation in a child process (``wall_s``, ``peak_rss_mb``), one in-process
replay of every policy (``events_per_s``) and three fresh-interpreter
set-ups (``setup_s``). Each time is scaled to a reference machine speed
(see calibration.py), and each metric is the median over its samples. The
kinds of sample are interleaved so that a burst of load on the machine hits
all of them alike.

``--trace 1`` measures the per-layer metrics: set-up steps, the scaling
probes, and repeated in-process CLI invocations with a span around every
layer's entry points (see tracing.py), until ``--seconds`` have passed.

One client, one invocation at a time. Every invocation's output is checked
against the in-process reference run. The last line of stdout is one JSON
object with keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from contextlib import suppress
from pathlib import Path

import calibration
import scaling
import workloads
from tracing import SpanRecorder, instrument, policy_slug

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

CHILD_TIMEOUT_S = 120
SETUPS_PER_ROUND = 3
SETUP_SAMPLES_TRACED = 5
MIN_TRACED_RUNS = 2

CSV_HEADER = "POLICY,RD,WR,GEN,ERASE,GC,TOTAL_US,REMANENCE"
ACTIONS = ("mark-only", "gc-erase", "ddn-overwrite", "erase-fallback", "secure-scrub")
# The paper's per-deletion costs at the default timings, and how far the
# DdnRandom remanence may sit from 2^-bits_per_cell, in binomial standard
# deviations.
PAPER_DDN_RANDOM_US = (49.0, 600.0, 100.0)
PAPER_DDN_ALLMAX_WR_US = 600.0
PAPER_ERASE_MIN_US = 4000.0
REMANENCE_SIGMAS = 5.0

# Spans whose summed self time is reported as <name>_s, and whose count is
# reported as <name>_calls.
SELF_TIMED = (
    "runner.synthetic_trace", "host.parse_trace", "cells.word_from_hex",
    "runner.trace_fingerprint", "metrics.render_csv", "metrics.render_jsonl",
    "host.flush_idle", "controller.secure_tick", "device.allocate_slot",
    "controller.flush_write", "controller.handle_invalidation",
    "controller.ddn_process", "cells.gen_word", "device.program_slot",
    "device.garbage_collect", "metrics.record_deletion",
)
CALL_COUNTED = (
    "host.flush_idle", "controller.secure_tick", "device.allocate_slot",
    "device.read_slot", "device.erase_block",
)
SETUP_STEPS = ("cli.import_s", "config.load_validate_s", "device.construct_s")


class Tally:
    """Attempted and failed invocations; every failure is reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problems: list):
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"perfbench: {what}: {problem}", file=sys.stderr)


class Spawner:
    """The helper process that starts CLI invocations (spawner.py)."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")], cwd=ROOT, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list, stderr_path: Path) -> dict:
        request = {"argv": argv, "stderr": str(stderr_path), "timeout": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class Bench:
    """One workload's files, its in-process reference report, and the checked
    ways of running it."""

    def __init__(self, workload: workloads.Workload, work: Path, spawner, env: dict):
        from ddnsim import run, trace_fingerprint

        self.workload = workload
        self.spawner = spawner
        self.env = env
        self.tally = Tally()
        self.config_path = work / "workload.conf"
        self.trace_path = work / "workload.trace"
        self.out_path = work / f"report.{workload.out_format}"
        self.err_path = work / "stderr.txt"
        if workload.config_text is not None:
            self.config_path.write_text(workload.config_text, encoding="utf-8")
        if workload.trace_text is not None:
            self.trace_path.write_text(workload.trace_text, encoding="utf-8")
        self.cli_args = workload.cli_args(self.config_path, self.trace_path, self.out_path)

        self.cfg, self.events = workload.load()
        self.fingerprint = trace_fingerprint(self.events)
        # Keep only what the checks need, so the heap the garbage collector
        # scans during in-process timing is about what a CLI process holds.
        report = run(self.cfg, self.events)
        self.rows = report.rows
        self.reference_csv = report.csv_text
        text = report.csv_text if workload.out_format == "csv" else report.jsonl_text
        self.expected = text.encode()
        self.deletions = sum(len(r.collector.deletions) for r in report.runs)
        self.actions = Counter(d.action for r in report.runs for d in r.collector.deletions)
        self.tally.record("reference run", self._check_reference(report))
        self.traced_counts = None  # counts from the first traced run

    # -- correctness ---------------------------------------------------------

    def _check_reference(self, report) -> list:
        problems = []
        errors = [d for r in report.runs for d in r.collector.deletions if d.error]
        if errors:
            problems.append(f"{len(errors)} deletions failed, first: {errors[0].error}")
        per_policy = self.workload.deletions_per_policy
        for r in report.runs:
            if per_policy is not None and len(r.collector.deletions) != per_policy:
                problems.append(
                    f"{r.label}: {len(r.collector.deletions)} deletions, "
                    f"trace implies {per_policy}"
                )
        if self.workload.synthetic is not None:
            problems += self._check_paper_numbers(report)
        return problems

    def _check_paper_numbers(self, report) -> list:
        problems = []
        rows = {row["policy"]: row for row in report.rows}
        ddn = rows["DdnRandom"]
        if (ddn["rd_us"], ddn["wr_us"], ddn["gen_us"]) != PAPER_DDN_RANDOM_US:
            problems.append(f"DdnRandom RD/WR/GEN {ddn['rd_us']}/{ddn['wr_us']}/{ddn['gen_us']}")
        if rows["DdnNonRandom(AllMax)"]["wr_us"] != PAPER_DDN_ALLMAX_WR_US:
            problems.append(f"DdnNonRandom(AllMax) WR {rows['DdnNonRandom(AllMax)']['wr_us']}")
        if rows["EraseBased"]["erase_us"] < PAPER_ERASE_MIN_US:
            problems.append(f"EraseBased ERASE {rows['EraseBased']['erase_us']}")
        run = next(r for r in report.runs if r.label == "DdnRandom")
        cells = sum(d.slot_cells for d in run.collector.deletions)
        p = 2.0 ** -self.cfg.bits_per_cell
        bound = REMANENCE_SIGMAS * math.sqrt(p * (1 - p) / cells)
        if abs(ddn["remanence"] - p) > bound:
            problems.append(
                f"DdnRandom REMANENCE {ddn['remanence']} not within {bound:.4f} of {p}"
            )
        return problems

    def check_report(self, payload: bytes) -> list:
        """Checks on one invocation's report bytes."""
        problems = []
        if payload != self.expected:
            problems.append("report differs from the in-process runner.run output")
        lines = payload.decode("utf-8", "replace").splitlines()
        if self.workload.out_format == "csv":
            if not lines or lines[0] != CSV_HEADER:
                problems.append("CSV header missing")
            if len(lines) - 1 != len(self.cfg.policies):
                problems.append(f"{len(lines) - 1} CSV rows for {len(self.cfg.policies)} policies")
        elif len(lines) != self.deletions:
            problems.append(f"{len(lines)} JSONL lines for {self.deletions} deletions")
        return problems

    def _read_report(self) -> list:
        try:
            return self.check_report(self.out_path.read_bytes())
        except OSError as exc:
            return [f"no report: {exc}"]

    # -- the ways of running it ----------------------------------------------

    def invoke_cli(self):
        """One ddnsim CLI invocation in a child process: (wall s, peak RSS MB)."""
        self.out_path.unlink(missing_ok=True)
        argv = [sys.executable, "-m", "ddnsim", *self.cli_args]
        reply = self.spawner.run(argv, self.err_path)
        if reply["status"] != 0:
            problems = [f"exit {reply['status']}: {self.err_path.read_text().strip()}"]
        else:
            problems = self._read_report()
        self.tally.record("cli", problems)
        return reply["wall_s"], reply["maxrss_kb"] / 1024

    def replay(self) -> float:
        """Replay every policy in process, untraced; seconds spent replaying."""
        from ddnsim import PolicyRun, render_comparison_csv, run_policy

        runs, seconds = [], 0.0
        for policy in self.cfg.run_policies():
            start = time.perf_counter()
            collector = run_policy(self.cfg, policy, self.events)
            seconds += time.perf_counter() - start
            runs.append(PolicyRun(policy.label, collector, self.fingerprint))
        same = render_comparison_csv(runs) == self.reference_csv
        self.tally.record("replay", [] if same else ["replay differs from the reference"])
        return seconds

    def setup(self):
        """Set-up in a fresh interpreter (setup_probe.py): its step times, or
        None if it failed."""
        argv = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(self.workload.seed)]
        if self.workload.config_text is not None:
            argv.append(str(self.config_path))
        try:
            proc = subprocess.run(
                argv, cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            self.tally.record("setup", [f"timed out after {CHILD_TIMEOUT_S} s"])
            return None
        if proc.returncode != 0:
            self.tally.record("setup", [f"exit {proc.returncode}: {proc.stderr.strip()}"])
            return None
        times = json.loads(proc.stdout.splitlines()[-1])
        wrong = Path(times.pop("module")).resolve().parent != SRC / "ddnsim"
        self.tally.record("setup", ["imported ddnsim from outside src/"] if wrong else [])
        return None if wrong else times

    def scaling_ratios(self) -> dict:
        """The scaling probes' ratios, from a fresh interpreter (scaling.py)."""
        argv = [sys.executable, str(HERE / "scaling.py"), str(SRC)]
        proc = subprocess.run(
            argv, cwd=ROOT, env=self.env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            self.tally.record("scaling", [f"exit {proc.returncode}: {proc.stderr.strip()}"])
            return {f"scale.{name}.ratio": 0.0 for name in scaling.PROBES}
        self.tally.record("scaling", [])
        return json.loads(proc.stdout.splitlines()[-1])

    def traced_cli(self):
        """One in-process CLI invocation with spans on. Returns its per-layer
        values, the replay spans' self time by layer, their summed duration,
        and the self time by span name. The spans are dropped on return."""
        from ddnsim import cli

        recorder = SpanRecorder()
        self.out_path.unlink(missing_ok=True)
        with instrument(recorder):
            code = cli.main(self.cli_args)
        problems = self._read_report() if code == 0 else [f"exit {code}"]
        problems += recorder.nesting_errors()
        values = self._layer_values(recorder)
        actions = Counter({a: values[f"controller.deletions.{a}"] for a in ACTIONS})
        if +actions != self.actions:
            problems.append(
                f"deletions by action {dict(actions)} != reference {dict(self.actions)}"
            )
        layers, replay_total = recorder.subtree_layers("runner.replay.")
        gap = abs(sum(layers.values()) - replay_total)
        if gap > 1e-6:
            problems.append(f"layer self times miss the replay spans by {gap} s")
        counts = {k: v for k, v in values.items() if isinstance(v, int)}
        if self.traced_counts is None:
            self.traced_counts = counts
        problems += [
            f"{k} changed between runs" for k in counts if counts[k] != self.traced_counts[k]
        ]
        self.tally.record("traced cli", problems)
        return values, layers, replay_total, recorder.totals()[0]

    def _layer_values(self, recorder: SpanRecorder) -> dict:
        seconds, calls = recorder.totals()
        values = {f"{name}_s": seconds.get(name, 0.0) for name in SELF_TIMED}
        values.update({f"{name}_calls": calls.get(name, 0) for name in CALL_COUNTED})
        for i, name in enumerate(recorder.names):
            if name.startswith("runner.replay."):
                key = "runner.replay_s." + name.removeprefix("runner.replay.")
                values[key] = values.get(key, 0.0) + recorder.duration(i)
        values["host.self_s"] = seconds.get("host.run_trace", 0.0)
        values["host.evictions"] = calls.get("host.evict", 0)
        values["device.gc_pages_migrated"] = calls.get("metrics.charge_gc_migration", 0)
        hosts = recorder.hosts
        values["host.events"] = len(self.events) * len(hosts)
        values["host.ticks"] = sum(h.now for h in hosts)
        # DRAM lines leave only when evicted to make room for another, so the
        # final line count is the high-water mark.
        values["host.dram_high_water"] = max(len(h.slots) for h in hosts)
        deletions = [d for h in hosts for d in h.controller.collector.deletions]
        actions = Counter(d.action for d in deletions)
        values.update({f"controller.deletions.{a}": actions[a] for a in ACTIONS})
        values["controller.deletion_errors"] = sum(1 for d in deletions if d.error)
        return values


def median(samples):
    return statistics.median(samples) if samples else 0.0


def measure_end_to_end(bench: Bench, seconds: float) -> dict:
    # Warm-up: writes the bytecode cache and fills the file cache. Checked,
    # not timed.
    bench.invoke_cli()
    bench.setup()
    n_events = len(bench.events) * len(bench.cfg.policies)
    samples = {"wall_s": [], "peak_rss_mb": [], "events_per_s": [], "setup_s": []}
    raw = {"wall_s": [], "replay_s": [], "setup_s": []}
    calibrator = calibration.Calibrator()
    deadline = time.perf_counter() + seconds
    while True:
        wall, rss = bench.invoke_cli()
        samples["wall_s"].append(wall * calibrator.factor())
        samples["peak_rss_mb"].append(rss)
        raw["wall_s"].append(wall)
        replay = bench.replay()
        samples["events_per_s"].append(n_events / (replay * calibrator.factor()))
        raw["replay_s"].append(replay)
        setups = [bench.setup() for _ in range(SETUPS_PER_ROUND)]
        factor = calibrator.factor()
        for times in filter(None, setups):
            samples["setup_s"].append(times["setup_s"] * factor)
            raw["setup_s"].append(times["setup_s"])
        if time.perf_counter() >= deadline:
            break
    for name, values in samples.items():
        print(f"samples {name} n={len(values)} min={min(values, default=0):.6g} "
              f"max={max(values, default=0):.6g}")
    print("uncalibrated medians (s): " + ", ".join(
        f"{name} {median(values):.6g}" for name, values in raw.items()
    ) + f"; calibration kernel median {median(calibrator.kernels):.6g} s "
        f"(reference {calibration.REFERENCE_S} s)")
    return {name: median(values) for name, values in samples.items()}


def measure_layers(bench: Bench, seconds: float) -> dict:
    deadline = time.perf_counter() + seconds
    metrics = {}
    # The first set-up writes the bytecode cache; only the later ones count.
    setups = [bench.setup() for _ in range(1 + SETUP_SAMPLES_TRACED)][1:]
    for step in SETUP_STEPS:
        metrics[step] = median([t[step] for t in setups if t is not None])
    metrics.update(bench.scaling_ratios())

    # Each traced invocation is paired with an untraced replay right before
    # it, so both sides of the overhead ratio see the same machine speed.
    runs, overheads = [], []
    while len(runs) < MIN_TRACED_RUNS or time.perf_counter() < deadline:
        untraced = bench.replay()
        runs.append(bench.traced_cli())
        overheads.append(runs[-1][2] / untraced - 1.0)
    for key, value in runs[0][0].items():
        metrics[key] = value if isinstance(value, int) else median([r[0][key] for r in runs])
    metrics["trace.overhead_frac"] = median(overheads)

    _, layers, replay_total, self_times = runs[-1]
    shares = ", ".join(f"{k} {v:.4f}" for k, v in sorted(layers.items(), key=lambda kv: -kv[1]))
    print(f"replay self time by layer (s): {shares}; sum {sum(layers.values()):.6f}, "
          f"replay spans {replay_total:.6f}")
    top = sorted(self_times.items(), key=lambda kv: -kv[1])[:5]
    print("largest self times (s): " + ", ".join(f"{k} {v:.4f}" for k, v in top))

    for row in bench.rows:
        slug = policy_slug(row["policy"])
        metrics[f"sim.{slug}.total_us"] = row["total_us"]
        metrics[f"sim.{slug}.remanence"] = row["remanence"]
    return metrics


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ddnsim" / "__init__.py").is_file():
        print(f"perfbench: no ddnsim sources at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]

    # Children import ddnsim from src/ and keep its bytecode cache, as an
    # installed package would, whatever the caller's environment says.
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    work_root = ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    spawner = None
    try:
        # Started before anything is built, while this process is small.
        spawner = Spawner(env)
        bench = Bench(workloads.build(args.workload, args.seed), work, spawner, env)
        measure = measure_layers if args.trace else measure_end_to_end
        metrics = measure(bench, args.seconds)
    finally:
        if spawner is not None:
            spawner.close()
        shutil.rmtree(work, ignore_errors=True)
        with suppress(OSError):
            work_root.rmdir()

    names = [m["name"] for m in declared]
    if set(metrics) != set(names):
        mismatch = sorted(set(metrics) ^ set(names))
        raise RuntimeError(f"metrics {mismatch} do not match BENCHMARK.json")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    digest = hashlib.sha256(bench.expected).hexdigest()
    print(f"report sha256 {digest} ({len(bench.expected)} bytes)")
    for m in declared:
        print(f"{m['name']} {metrics[m['name']]} {m['unit']}")
    result = {
        "correct": bench.tally.failed == 0,
        "attempted": bench.tally.attempted,
        "failed": bench.tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
