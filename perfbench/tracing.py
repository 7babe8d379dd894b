"""Span recorder for the traced run.

Spans are recorded from the benchmark's side only: ``instrument`` replaces
each layer's public entry points with a wrapper, in the namespace where the
caller looks the name up (``controller`` imports the ``gen_*_word``
functions by name, ``cli`` imports ``parse_trace`` by name, and so on),
and puts the originals back afterwards. Nothing under ``src/`` changes.

Span i has a name, a start and an end time, and the index of the
enclosing span (-1 at top level), kept in four parallel arrays. The numeric
arrays hold no Python objects, so however many spans pile up, the garbage
collector has no more to scan than in an untraced run. Spans stay in memory
until the run ends. A span's self time is its duration minus the durations
of its children, so the self times of a subtree add up to the duration of
its root.
"""

import re
import time
import functools
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager


def policy_slug(label: str) -> str:
    """``DdnNonRandom(AllMax)`` -> ``ddnnonrandom-allmax``."""
    return re.sub(r"[^a-z0-9]+", "-", label.lower()).strip("-")


class SpanRecorder:
    def __init__(self):
        self.names = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.hosts = []  # every Host built while instrumented, in build order
        self._stack = []

    def wrap(self, name, fn):
        """Wrap fn in a span; ``name`` is a string or a function of the call's
        arguments."""
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(name if isinstance(name, str) else name(*args))
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def duration(self, i: int) -> float:
        return self.ends[i] - self.starts[i]

    def self_times(self) -> list:
        """Self time of every span, by span index."""
        own = [self.duration(i) for i in range(len(self.names))]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.duration(i)
        return own

    def totals(self):
        """(self seconds by span name, span count by name)."""
        seconds = defaultdict(float)
        for name, own in zip(self.names, self.self_times()):
            seconds[name] += own
        return seconds, Counter(self.names)

    def nesting_errors(self) -> list:
        """Spans that do not lie inside their parent's interval."""
        errors = []
        for i, p in enumerate(self.parents):
            if p >= 0 and not self.starts[p] <= self.starts[i] <= self.ends[i] <= self.ends[p]:
                errors.append(f"span {i} {self.names[i]} escapes parent {self.names[p]}")
        return errors

    def subtree_layers(self, root_prefix: str):
        """Self time by layer (span-name prefix) under the root spans whose
        name starts with root_prefix, and the roots' summed duration."""
        own = self.self_times()
        roots = {i for i, name in enumerate(self.names) if name.startswith(root_prefix)}
        layers = defaultdict(float)
        for i, name in enumerate(self.names):
            j = i
            while j >= 0 and j not in roots:
                j = self.parents[j]
            if j >= 0:
                layers[name.split(".", 1)[0]] += own[i]
        return layers, sum(self.duration(i) for i in roots)


@contextmanager
def instrument(recorder: SpanRecorder):
    """Install span wrappers on every layer's entry points for the block."""
    from ddnsim import cli, controller, host, runner
    from ddnsim.controller import NvmController
    from ddnsim.device import NvmDevice
    from ddnsim.host import Host
    from ddnsim.metrics import LatencyLedger, MetricsCollector

    def replay_name(config, policy, events):
        return f"runner.replay.{policy_slug(policy.label)}"

    targets = [
        # ingest and rendering, looked up by name in cli and runner
        (cli, "synthetic_trace", "runner.synthetic_trace"),
        (cli, "parse_trace", "host.parse_trace"),
        (host, "word_from_hex", "cells.word_from_hex"),
        (runner, "trace_fingerprint", "runner.trace_fingerprint"),
        (runner, "run_policy", replay_name),
        (runner, "render_comparison_csv", "metrics.render_csv"),
        (runner, "render_deletions_jsonl", "metrics.render_jsonl"),
        # replay: host -> controller -> device / cells / metrics
        (Host, "run_trace", "host.run_trace"),
        (Host, "flush_idle", "host.flush_idle"),
        (Host, "_evict_one", "host.evict"),
        (NvmController, "flush_write", "controller.flush_write"),
        (NvmController, "handle_invalidation", "controller.handle_invalidation"),
        (NvmController, "secure_tick", "controller.secure_tick"),
        (NvmController, "ddn_process", "controller.ddn_process"),
        (controller, "gen_upward_word", "cells.gen_word"),
        (controller, "gen_uniform_word", "cells.gen_word"),
        (controller, "gen_fill_word", "cells.gen_word"),
        (NvmDevice, "__init__", "device.construct"),
        (NvmDevice, "allocate_slot", "device.allocate_slot"),
        (NvmDevice, "program_slot", "device.program_slot"),
        (NvmDevice, "read_slot", "device.read_slot"),
        (NvmDevice, "garbage_collect", "device.garbage_collect"),
        (NvmDevice, "erase_block", "device.erase_block"),
        (LatencyLedger, "charge_gc_migration", "metrics.charge_gc_migration"),
        (MetricsCollector, "record_deletion", "metrics.record_deletion"),
    ]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
    saved.append((Host, "__init__", Host.__init__))
    host_init = Host.__init__

    def keep_host(self, *args, **kwargs):
        host_init(self, *args, **kwargs)
        recorder.hosts.append(self)

    try:
        for owner, attr, name in targets:
            setattr(owner, attr, recorder.wrap(name, owner.__dict__[attr]))
        Host.__init__ = keep_host
        yield recorder
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
