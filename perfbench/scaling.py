"""Five scaling probes, each timed at size n and 2n.

A probe's ratio is time(2n) / time(n): about 2 for a linear path, about 4
for a quadratic one. Each size is timed a few times and the fastest time
kept, so a burst of load on the machine does not fake a super-linear ratio.
Sizes are small so that all five pairs together take a few seconds.

Usage: python3 scaling.py SRC_DIR  (prints the ratios as one JSON object)

The probes run in a fresh interpreter, so the heap the caller built up does
not slow the garbage collector during the probes.
"""

import json
import random
import sys
import time

REPEATS = 5


def _host(**overrides):
    """A MarkOnly host on a fresh device, built from RunConfig like the runner."""
    from ddnsim import Host, NvmController, NvmDevice, RunConfig, parse_policy

    cfg = RunConfig(seed=1, policies=(parse_policy("MarkOnly"),), **overrides)
    device = NvmDevice(
        geometry=cfg.geometry(),
        kind=cfg.device_kind,
        nop_limit=cfg.nop_limit,
        reclaim_invalid_slots=cfg.reclaim_invalid_slots,
    )
    controller = NvmController(device, cfg.run_policies()[0], random.Random(cfg.seed))
    return Host(
        controller, capacity=cfg.dram_capacity, flush_idle_threshold=cfg.flush_idle_threshold
    )


def _events(lines):
    """Parse trace lines for the default slot: 8 cells of 3 bits, 6 hex digits."""
    from ddnsim import parse_trace

    return parse_trace("\n".join(lines) + "\n", 8, 3)


def _writes(n):
    return [f"W {i} 0x{(i * 2654435761) & 0xFFFFFF:06X}" for i in range(n)]


def _time_last(host, events):
    """Apply all but the last event, then time the last one."""
    host.run_trace(events[:-1])
    start = time.perf_counter()
    host.apply_event(events[-1])
    return time.perf_counter() - start


def secure_scan(n):
    """n valid flushed lines, then ``T 200`` with no scrub falling due."""
    events = _events(_writes(n) + ["F", "T 200"])
    return _time_last(_host(t_secure=10_000), events)


def idle_flush(n):
    """n dirty lines, then ``T 200`` with no flush falling due."""
    events = _events(_writes(n) + ["T 200"])
    return _time_last(_host(flush_idle_threshold=10_000), events)


def reclaim(n):
    """n "W i / F / U i" rounds on an overwritable device that reclaims."""
    from ddnsim import DeviceKind

    lines = []
    for i, w in enumerate(_writes(n)):
        lines += [w, "F", f"U {i} 0x{i & 0xFFFFFF:06X}"]
    events = _events(lines)
    host = _host(device_kind=DeviceKind.OVERWRITABLE, reclaim_invalid_slots=True)
    start = time.perf_counter()
    host.run_trace(events)
    return time.perf_counter() - start


def lru_evict(n):
    """n writes into a DRAM that holds n / 4 lines."""
    events = _events(_writes(n))
    host = _host(dram_capacity=n // 4)
    start = time.perf_counter()
    host.run_trace(events)
    return time.perf_counter() - start


def device_construct(n):
    """Build an n-block device."""
    from ddnsim import Geometry, NvmDevice

    start = time.perf_counter()
    NvmDevice(geometry=Geometry(blocks=n))
    return time.perf_counter() - start


PROBES = {
    "secure_scan": (secure_scan, 800),
    "idle_flush": (idle_flush, 2000),
    "reclaim": (reclaim, 400),
    "lru_evict": (lru_evict, 1000),
    "device_construct": (device_construct, 512),
}


def ratios() -> dict:
    """``scale.<probe>.ratio`` for every probe."""
    out = {}
    for name, (probe, n) in PROBES.items():
        small = min(probe(n) for _ in range(REPEATS))
        large = min(probe(2 * n) for _ in range(REPEATS))
        out[f"scale.{name}.ratio"] = large / small
    return out


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    print(json.dumps(ratios()))
