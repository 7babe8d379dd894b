"""``T n`` advances the clock by next events, not tick by tick.

The reference below is the per-tick loop with full scans: every tick runs
the idle flush over all dirty lines and the secure scrub over all valid
entries, and eviction takes the minimum over all of DRAM. A replay through
``Host`` must end in the same state and make the same deletions.
"""

import json
import os
import random
import subprocess
import sys
import types
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddnsim import (
    DeletionPolicy,
    DeviceError,
    Geometry,
    Host,
    LatencyLedger,
    MetricsCollector,
    NvmController,
    NvmDevice,
    TraceEvent,
    parse_policy,
    word_from_hex,
)

# 128 slots of 4 three-bit cells (3 hex digits)
GEOMETRY = Geometry(
    blocks=16, pages_per_block=4, cells_per_page=8, bits_per_cell=3,
    cells_per_cache_slot=4,
)


def _host(policy, t_secure, threshold, capacity, seed):
    pol = parse_policy(policy)
    if t_secure is not None:
        pol = DeletionPolicy(pol.kind, pol.fill, t_secure)
    ledger = LatencyLedger()
    device = NvmDevice(geometry=GEOMETRY, ledger=ledger)
    controller = NvmController(device, pol, random.Random(seed), MetricsCollector(ledger))
    return Host(controller, capacity=capacity, flush_idle_threshold=threshold)


def _evict_by_scan(host):
    victim = min(host.slots.items(), key=lambda kv: (kv[1].last_used, kv[0]))[0]
    if victim in host._dirty:
        host._flush(victim, host.now)
    del host.slots[victim]


def _reference_apply(host, event):
    """Apply one event the way the per-tick loop did."""
    if event.kind != "T":
        host.apply_event(event)
        return
    controller = host.controller
    t_secure = controller.policy.t_secure
    for _ in range(event.ticks):
        host.now += 1
        now = host.now
        for cid in sorted(
            cid for cid, slot in host.slots.items()
            if cid in host._dirty and now - slot.last_used >= host.flush_idle_threshold
        ):
            host._flush(cid, now)
        if t_secure is not None:
            due = [
                (cid, entry)
                for cid, entry in sorted(controller.device.cache_table._entries.items())
                if entry.valid and now - entry.written_at >= t_secure
            ]
            for cid, entry in due:
                controller._scrub(cid, entry, now, secure=True)
    return []


def _payload(bits):
    return word_from_hex(f"0x{bits:03X}", 4, 3)


def _event(ref, kind, pick, bits, ticks):
    """Turn a drawn step into an event the reference host accepts. U, I and
    D pick their id among the ids it knows or holds valid, or are dropped;
    half of the W steps rewrite an id whose flushed copy is still valid."""
    if kind == "F":
        return TraceEvent("F")
    if kind == "T":
        return TraceEvent("T", ticks=ticks)
    table = ref.controller.device.cache_table
    valid = sorted(cid for cid, e in table._entries.items() if e.valid)
    if kind == "W":
        cache_id = valid[pick % len(valid)] if pick % 2 and valid else pick % 10
        return TraceEvent("W", cache_id=cache_id, payload=_payload(bits))
    if kind == "U":
        ids = sorted(set(ref.slots) | {cid for cid, _ in table._entries.items()})
    else:
        ids = valid
    if not ids:
        return None
    cache_id = ids[pick % len(ids)]
    if kind == "U":
        return TraceEvent("U", cache_id=cache_id, payload=_payload(bits))
    return TraceEvent(kind, cache_id=cache_id)


steps = st.lists(
    st.tuples(
        st.sampled_from("WWWWUUUIDFTTT"),
        st.integers(0, 63),
        st.integers(0, 0xFFF),
        st.one_of(st.integers(0, 4), st.integers(0, 10**4)),
    ),
    min_size=5,
    max_size=40,
)


@given(
    trace=steps,
    policy=st.sampled_from(["MarkOnly", "EraseBased", "DdnRandom", "DdnNonRandom"]),
    threshold=st.integers(0, 3),
    t_secure=st.one_of(st.none(), st.integers(1, 5)),
    capacity=st.integers(1, 8),
    seed=st.integers(0, 2**31 - 1),
)
# a dirty line written again after a younger one: the dirty order must follow
# the latest write, so line 1 is flushed at tick 3 and line 0 at tick 4
@example(
    trace=[("W", 0, 1, 0), ("W", 1, 2, 0), ("T", 0, 0, 1), ("W", 0, 3, 0), ("T", 0, 0, 5)],
    policy="DdnRandom", threshold=3, t_secure=None, capacity=8, seed=1,
)
# a W over a still-valid copy replaces its entry without invalidating it; the
# replaced entry must not be scrubbed at its own due tick
@example(
    trace=[("W", 0, 1, 0), ("F", 0, 0, 0), ("T", 0, 0, 1), ("W", 0, 2, 0), ("F", 0, 0, 0),
           ("T", 0, 0, 9)],
    policy="DdnRandom", threshold=3, t_secure=2, capacity=8, seed=1,
)
# a re-flushed copy goes to the back of the secure queue: line 2 (flushed at
# tick 1) is due at tick 4, before line 0's second copy (tick 2) at tick 5
@example(
    trace=[("W", 0, 1, 0), ("F", 0, 0, 0), ("T", 0, 0, 1), ("W", 2, 2, 0), ("F", 0, 0, 0),
           ("T", 0, 0, 1), ("W", 0, 3, 0), ("F", 0, 0, 0), ("T", 0, 0, 5)],
    policy="DdnRandom", threshold=3, t_secure=3, capacity=8, seed=1,
)
@settings(max_examples=200, deadline=None)
def test_next_event_clock_matches_per_tick_loop(
    trace, policy, threshold, t_secure, capacity, seed
):
    host = _host(policy, t_secure, threshold, capacity, seed)
    ref = _host(policy, t_secure, threshold, capacity, seed)
    ref._evict_one = types.MethodType(_evict_by_scan, ref)
    for step in trace:
        event = _event(ref, *step)
        if event is None:
            continue
        outcomes = []
        for side, apply in ((host, Host.apply_event), (ref, _reference_apply)):
            try:
                apply(side, event)
                outcomes.append(None)
            except DeviceError as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1]
        if outcomes[0] is not None:
            break
        assert host.now == ref.now
    assert host.slots == ref.slots

    def deletions(h):
        return [
            (d.cache_id, d.tick, d.action, d.cost, d.residual_cells)
            for d in h.controller.collector.deletions
        ]

    assert deletions(host) == deletions(ref)
    assert dict(host.controller.device.cache_table._entries.items()) == dict(
        ref.controller.device.cache_table._entries.items()
    )


BIG_T = 1_000_000_000
BIG_TRACE = "W 1 0x000001\nW 2 0x000002\nW 3 0x000003\n" + f"T {BIG_T}\n" * 2


def test_idle_time_costs_one_step_per_due_tick(monkeypatch):
    calls = {"flush_idle": 0, "secure_tick": 0}
    for owner, name in ((Host, "flush_idle"), (NvmController, "secure_tick")):
        original = getattr(owner, name)

        def counted(self, now, original=original, name=name):
            calls[name] += 1
            return original(self, now)

        monkeypatch.setattr(owner, name, counted)
    host = _host("DdnRandom", t_secure=5, threshold=10, capacity=8, seed=1)
    trace = [
        TraceEvent("W", cache_id=cid, payload=_payload(cid)) for cid in (1, 2, 3)
    ] + [TraceEvent("T", ticks=BIG_T)] * 2
    host.run_trace(trace)
    assert host.now == 2 * BIG_T
    table = host.controller.device.cache_table
    deletions = host.controller.collector.deletions
    assert [d.action for d in deletions] == ["secure-scrub"] * 3
    due_ticks = {entry.written_at for _, entry in table._entries.items()} | {d.tick for d in deletions}
    assert due_ticks == {10, 15}
    # one step per due tick, plus one step to the end of each T event
    assert calls["flush_idle"] <= len(due_ticks) + 2
    assert calls["secure_tick"] <= len(due_ticks) + 2


def test_cli_huge_idle_gap_ends(tmp_path):
    (tmp_path / "run.cfg").write_text("t_secure = 5\n")
    (tmp_path / "big.trace").write_text(BIG_TRACE)
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run(
        [
            sys.executable, "-m", "ddnsim", "--config", str(tmp_path / "run.cfg"),
            "--trace", str(tmp_path / "big.trace"), "--seed", "1", "--format", "jsonl",
        ],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert result.returncode == 0, result.stderr
    records = [json.loads(line) for line in result.stdout.splitlines()]
    assert len(records) == 3 * 4  # 3 ids scrubbed under each of the 4 default policies
