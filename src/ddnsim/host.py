"""CPU/DRAM front-end: applies trace events and talks to the NVM controller.

Writes land in DRAM. Dirty lines that sit unused for the idle threshold are
flushed to NVM; updating a line whose flushed copy is still valid sends the
controller an invalidation request for that copy. The host owns the tick
clock and both queues it keeps: the dirty lines by last use and, in secure
mode, the valid flushed copies by flush tick. ``T n`` advances the clock by
next-event steps, visiting only the ticks where an idle flush or a
secure-mode scrub falls due, and the last tick; each visited tick runs the
idle flush, then sends the controller the copies due for a secure scrub.

Trace grammar, one event per line (``#`` starts a comment):

    W <id> <hexpayload>   write a cache line into DRAM
    U <id> <hexpayload>   update a line; invalidates a valid flushed copy
    I <id>                invalidate the flushed copy
    D <id>                de-identification request for the flushed copy
    T <n>                 advance time n ticks
    F                     flush all dirty lines now

``<id>`` and ``<n>`` are ASCII decimal digits, the ``<n>`` adding up to no more
digits than ``int`` takes; ``<hexpayload>`` is 0x-prefixed hex exactly one cache slot wide.
A ``U``, ``I`` or ``D`` needs an earlier ``W`` of its id. ``parse_trace`` gives
a ``Trace``, which holds the events as columns, not one object per event.
"""

import sys
from collections import OrderedDict

from .cells import word_from_hex
from .controller import NvmController, ProtocolError
from .values import Record

heapq = None  # bound by Host._rebuild_lru, so a run whose DRAM never fills never imports it


class TraceError(Exception):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


class TraceEvent:
    """One trace event: its kind letter, the fields that kind takes (None for
    the others) and its 1-based line number (0 if built by hand)."""

    __slots__ = ("kind", "cache_id", "payload", "ticks", "line")

    def __init__(self, kind: str, cache_id: int | None = None, payload: bytes | None = None,
                 ticks: int | None = None, line: int = 0):
        self.kind = kind
        self.cache_id = cache_id
        self.payload = payload
        self.ticks = ticks
        self.line = line


class Trace:
    """A trace held as columns, one entry per event: ``kinds``, the event
    letters; ``args``, the cache id, or the tick count of a ``T`` (None for
    ``F``); ``payloads``, the word of a ``W`` or ``U`` (else None); and
    ``line_map``, a ``(first event index, line)`` pair wherever comment or
    blank lines break the line count. ``len``, iteration and int indexing give
    ``TraceEvent``s, a slice gives a ``Trace``, and ``Trace(events)`` converts
    any iterable of ``TraceEvent``s."""

    __slots__ = ("kinds", "args", "payloads", "line_map")

    def __init__(self, events=()):
        self.kinds, self.args, self.payloads, self.line_map = bytearray(), [], [], []
        for event in events:
            kind, index = event.kind, len(self.kinds)
            if kind not in ("W", "U", "I", "D", "T", "F"):
                raise TraceError(f"unhandled event kind {kind!r}", event.line)
            if event.line != self.line(index):
                self.line_map.append((index, event.line))
            self.kinds.append(ord(kind))
            self.args.append(event.ticks if kind == "T" else event.cache_id)
            self.payloads.append(event.payload)

    def __len__(self) -> int:
        return len(self.kinds)

    def __getitem__(self, index):
        picked = range(len(self.kinds))[index]  # IndexError as for a list, ending iteration
        if type(picked) is range:
            return Trace(map(self.__getitem__, picked))
        kind, arg = chr(self.kinds[picked]), self.args[picked]
        return TraceEvent(kind, None if kind == "T" else arg, self.payloads[picked],
                          arg if kind == "T" else None, self.line(picked))

    def line(self, index: int) -> int:
        """The line number of event ``index`` (not negative)."""
        from bisect import bisect_right

        pair = bisect_right(self.line_map, (index + 1,))  # after the pairs of first <= index
        first, line = self.line_map[pair - 1] if pair else (0, 1)
        return line + index - first


def _parse_decimal(token: str, lineno: int,
                   error: str = "cache id must be a decimal integer, got {!r}") -> int:
    """A token of ASCII digits as an int, else ``TraceError(error.format(token))``:
    ``str.isdigit`` alone also takes ``²``, which ``int`` rejects, and ``٣``."""
    if not (token.isascii() and token.isdigit()):
        raise TraceError(error.format(token), lineno)
    try:
        return int(token)
    except ValueError:  # longer than sys.get_int_max_str_digits()
        raise TraceError(f"{len(token)}-digit number exceeds Python's integer string "
                         "limit", lineno) from None


def parse_trace(text: str, cells_per_slot: int, bits_per_cell: int) -> Trace:
    """Parse trace text into a ``Trace``, rejecting malformed lines by number,
    and a ``U``, ``I`` or ``D`` of an id that no earlier ``W`` wrote.

    Every event of an id carries the ``int`` its first ``W`` parsed, so the
    DRAM, the queues, the cache table and the deletion records of a run share
    one object per id."""
    trace = Trace()
    kinds, args, payloads, line_map = trace.kinds, trace.args, trace.payloads, trace.line_map
    written = {}  # id -> the int its first W parsed
    next_line = 1
    # The clock sums the T counts; past the int digit limit (0: none) no report
    # could write a tick. Compare to 10 ** limit: len(str(end)) is quadratic.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    end, end_bound = 0, 10 ** limit if limit else float("inf")
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts or parts[0][0] == "#":
            continue
        op, payload = parts[0], None
        if op == "W" or op == "U":
            if len(parts) != 3:
                raise TraceError(f"{op} needs <id> <hexpayload>", lineno)
            cache_id = _parse_decimal(parts[1], lineno)
            try:
                payload = word_from_hex(parts[2], cells_per_slot, bits_per_cell)
            except ValueError as exc:
                raise TraceError(str(exc), lineno) from exc
            if op == "U" and cache_id not in written:
                raise TraceError(f"U for cache id {cache_id} before any W", lineno)
            arg = written.setdefault(cache_id, cache_id)
        elif op == "F":
            if len(parts) != 1:
                raise TraceError("F takes no arguments", lineno)
            arg = None
        elif op == "I" or op == "D":
            if len(parts) != 2:
                raise TraceError(f"{op} needs <id>", lineno)
            cache_id = _parse_decimal(parts[1], lineno)
            arg = written.get(cache_id)
            if arg is None:  # the message the replay gives an id with no valid copy
                raise TraceError(f"no valid flushed copy for cache id {cache_id}", lineno)
        elif op == "T":
            token = parts[1] if len(parts) == 2 else ""
            arg = _parse_decimal(token, lineno, "T needs a non-negative tick count")
            end += arg
            if end >= end_bound:
                raise TraceError("T counts add up past Python's integer string limit", lineno)
        else:
            raise TraceError(f"unknown event {op!r}", lineno)
        if lineno != next_line:
            line_map.append((len(kinds), lineno))
        next_line = lineno + 1
        kinds.append(ord(op))
        args.append(arg)
        payloads.append(payload)
    return trace


def _due(queue, now: int, age: int) -> list:
    """The ids of an oldest-first ``id -> tick`` queue whose tick is at least
    ``age`` ticks before ``now``, ascending."""
    due = []
    for cid, tick in queue.items():
        if now - tick < age:
            break
        due.append(cid)
    due.sort()
    return due


class DramSlot(Record):
    __slots__ = ("payload", "last_used")

    def __init__(self, payload: bytes, last_used: int):
        self.payload, self.last_used = payload, last_used


class Host:
    """Single-threaded event applier owning the DRAM cache and tick clock."""

    def __init__(
        self,
        controller: NvmController,
        capacity: int = 65536,
        flush_idle_threshold: int = 10,
    ):
        self.check_settings(capacity, flush_idle_threshold)
        self.controller = controller
        self.capacity = capacity
        self.flush_idle_threshold = flush_idle_threshold
        self.slots = {}
        # id -> last_used for dirty slots, oldest first: writes stamp the
        # never-decreasing clock and move the id to the end.
        self._dirty = OrderedDict()
        # In secure mode, id -> flush tick for every valid flushed copy, oldest
        # flush first: a flush stamps the clock and moves the id to the end, and
        # an invalidation or a scrub drops it.
        self._t_secure = controller.policy.t_secure
        self._resident = OrderedDict()
        # (last_used, id) for every slot, plus stale items skipped lazily;
        # built at the first eviction, so a DRAM that never fills keeps none.
        self._lru = None
        self.now = 0

    @staticmethod
    def check_settings(capacity: int, flush_idle_threshold: int):
        """Raise ``ValueError``, naming the config key, for settings no host can run."""
        if capacity < 1:
            raise ValueError(f"dram_capacity must be >= 1, got {capacity}")
        if flush_idle_threshold < 0:
            raise ValueError(f"flush_idle_threshold must be >= 0, got {flush_idle_threshold}")

    # -- trace replay -------------------------------------------------------

    def run_trace(self, events):
        """Apply a ``Trace``, or any iterable of ``TraceEvent``s, in order."""
        trace = events if isinstance(events, Trace) else Trace(events)
        controller, resident = self.controller, self._resident
        is_valid = controller.device.cache_table.is_valid
        W, U, T, F = b"WUTF"  # the ints that iterating the letters gives
        try:
            for index, (kind, arg, payload) in enumerate(zip(trace.kinds, trace.args,
                                                             trace.payloads)):
                if kind == W:
                    self._write(arg, payload)
                elif kind == U:
                    # parse_trace refuses a U before any W of its id; here U is a W that
                    # also deletes a valid flushed copy, which the write leaves as it is.
                    self._write(arg, payload)
                    if is_valid(arg):
                        controller.handle_invalidation(arg, self.now)
                        resident.pop(arg, None)
                elif kind == T:
                    self._advance(self.now + arg)
                elif kind == F:
                    self.flush_all()
                else:  # I or D
                    controller.handle_invalidation(arg, self.now)
                    resident.pop(arg, None)
        except ProtocolError as exc:
            raise TraceError(str(exc), trace.line(index)) from exc

    def apply_event(self, event: TraceEvent):
        """Apply one event."""
        self.run_trace((event,))

    def _advance(self, end: int):
        """Move the clock to ``end``, stopping only at ticks where a dirty line
        reaches the idle threshold or a flushed copy reaches ``t_secure``.

        Nothing happens on the ticks skipped, so the result is that of running
        the idle flush and the secure scrub on every tick.
        """
        resident, t_secure = self._resident, self._t_secure
        while self.now < end:
            due = end
            if self._dirty:
                due = min(due, next(iter(self._dirty.values())) + self.flush_idle_threshold)
            if resident:
                due = min(due, next(iter(resident.values())) + t_secure)
            self.now = now = max(due, self.now + 1)
            self.flush_idle()
            if t_secure is not None:
                scrub = _due(resident, now, t_secure)
                for cid in scrub:
                    del resident[cid]
                self.controller.secure_tick(now, scrub)

    # -- DRAM side ----------------------------------------------------------

    def _write(self, cache_id: int, payload: bytes):
        slot = self.slots.get(cache_id)
        if slot is None:
            if len(self.slots) >= self.capacity:
                self._evict_one()
            self.slots[cache_id] = DramSlot(payload, self.now)
        else:
            slot.payload = payload
            slot.last_used = self.now
        self._dirty[cache_id] = self.now
        self._dirty.move_to_end(cache_id)
        lru = self._lru
        if lru is not None:
            heapq.heappush(lru, (self.now, cache_id))
            if len(lru) > 2 * len(self.slots):
                self._rebuild_lru()

    def _rebuild_lru(self):
        global heapq
        if heapq is None:
            import heapq
        self._lru = [(slot.last_used, cid) for cid, slot in self.slots.items()]
        heapq.heapify(self._lru)

    def _evict_one(self):
        # LRU victim; ties go to the smallest id for determinism. An item is
        # stale once its id left DRAM or was used again.
        if self._lru is None:
            self._rebuild_lru()
        lru, slots = self._lru, self.slots
        while True:
            last_used, victim = heapq.heappop(lru)
            slot = slots.get(victim)
            if slot is not None and slot.last_used == last_used:
                break
        if victim in self._dirty:
            self._flush(victim)
        del slots[victim]

    def _flush(self, cache_id: int):
        self.controller.flush_write(cache_id, self.slots[cache_id].payload)
        del self._dirty[cache_id]
        if self._t_secure is not None:
            self._resident[cache_id] = self.now
            self._resident.move_to_end(cache_id)

    def flush_idle(self) -> list:
        """Flush dirty lines idle for at least the threshold, ascending id."""
        due = _due(self._dirty, self.now, self.flush_idle_threshold)
        for cid in due:
            self._flush(cid)
        return due

    def flush_all(self) -> list:
        """Flush every dirty line immediately, ascending id."""
        due = sorted(self._dirty)
        for cid in due:
            self._flush(cid)
        return due
