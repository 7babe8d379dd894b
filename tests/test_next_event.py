"""``T n`` advances the clock by next events, not tick by tick.

The reference below is the per-tick loop with full scans: every tick runs
the idle flush over all dirty lines and the secure scrub over all valid
copies, by flush ticks it records itself, and eviction takes the minimum
over all of DRAM. A replay through
``Host`` must end in the same state and make the same deletions.
"""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddnsim import DeviceError, Geometry, Host, NvmController, TraceEvent, word_from_hex

from conftest import build_controller
from test_reference import holders

# 128 slots of 4 three-bit cells (3 hex digits)
GEOMETRY = Geometry(
    blocks=16, pages_per_block=4, cells_per_page=8, bits_per_cell=3,
    cells_per_cache_slot=4,
)


def _record_flush_ticks(host):
    """Keep the reference's own cache_id -> flush tick, apart from the host's
    secure queue: every flush happens at the host's current tick."""
    controller, host.flushed_at = host.controller, {}
    flush_write = controller.flush_write

    def recording(cache_id, payload):
        host.flushed_at[cache_id] = host.now
        return flush_write(cache_id, payload)

    controller.flush_write = recording


def _evict_by_scan(host):
    victim = min(host.slots.items(), key=lambda kv: (kv[1].last_used, kv[0]))[0]
    if victim in host._dirty:
        host._flush(victim)
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
            host._flush(cid)
        if t_secure is not None:
            table = controller.device.cache_table
            due = [
                cid for cid, flushed_at in sorted(host.flushed_at.items())
                if table.is_valid(cid) and now - flushed_at >= t_secure
            ]
            controller.secure_tick(now, due)
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
    valid = sorted(ref.controller.device.cache_table._slot)
    if kind == "W":
        cache_id = valid[pick % len(valid)] if pick % 2 and valid else pick % 10
        return TraceEvent("W", cache_id=cache_id, payload=_payload(bits))
    if kind == "U":  # written before: in DRAM, or flushed at its eviction
        ids = sorted(set(ref.slots) | set(ref.flushed_at))
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
    host, ref = (
        Host(build_controller(policy, seed, GEOMETRY, t_secure=t_secure), capacity=capacity,
             flush_idle_threshold=threshold)
        for _ in range(2)
    )
    ref._evict_one = types.MethodType(_evict_by_scan, ref)
    _record_flush_ticks(ref)
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
    table, ref_table = host.controller.device.cache_table, ref.controller.device.cache_table
    assert dict(table._slot) == dict(ref_table._slot)
    assert holders(host.controller.device) == holders(ref.controller.device)
    if t_secure is not None:
        assert dict(host._resident) == {
            cid: tick for cid, tick in ref.flushed_at.items() if ref_table.is_valid(cid)
        }


BIG_T = 1_000_000_000
BIG_TRACE = "W 1 0x000001\nW 2 0x000002\nW 3 0x000003\n" + f"T {BIG_T}\n" * 2


def test_idle_time_costs_one_step_per_due_tick(monkeypatch):
    calls = {"flush_idle": 0, "secure_tick": 0}
    for owner, name in ((Host, "flush_idle"), (NvmController, "secure_tick")):
        original = getattr(owner, name)

        def counted(self, *args, original=original, name=name):
            calls[name] += 1
            return original(self, *args)

        monkeypatch.setattr(owner, name, counted)
    host = Host(build_controller("DdnRandom", 1, GEOMETRY, t_secure=5), capacity=8,
                flush_idle_threshold=10)
    _record_flush_ticks(host)
    trace = [
        TraceEvent("W", cache_id=cid, payload=_payload(cid)) for cid in (1, 2, 3)
    ] + [TraceEvent("T", ticks=BIG_T)] * 2
    host.run_trace(trace)
    assert host.now == 2 * BIG_T
    deletions = host.controller.collector.deletions
    assert [d.action for d in deletions] == ["secure-scrub"] * 3
    due_ticks = set(host.flushed_at.values()) | {d.tick for d in deletions}
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
