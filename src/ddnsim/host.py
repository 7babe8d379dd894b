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


def parse_trace(text: str, cells_per_slot: int, bits_per_cell: int) -> list:
    """Parse trace text into events, rejecting malformed lines by number."""
    events = []
    append = events.append
    written = set()
    # The clock sums the T counts; past the int digit limit (0: none) no report
    # could write a tick. Compare to 10 ** limit: len(str(end)) is quadratic.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    end, end_bound = 0, 10 ** limit if limit else float("inf")
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts or parts[0][0] == "#":
            continue
        op = parts[0]
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
            written.add(cache_id)
            append(TraceEvent(op, cache_id, payload, None, lineno))
        elif op == "F":
            if len(parts) != 1:
                raise TraceError("F takes no arguments", lineno)
            append(TraceEvent("F", None, None, None, lineno))
        elif op == "I" or op == "D":
            if len(parts) != 2:
                raise TraceError(f"{op} needs <id>", lineno)
            append(TraceEvent(op, _parse_decimal(parts[1], lineno), None, None, lineno))
        elif op == "T":
            token = parts[1] if len(parts) == 2 else ""
            ticks = _parse_decimal(token, lineno, "T needs a non-negative tick count")
            end += ticks
            if end >= end_bound:
                raise TraceError("T counts add up past Python's integer string limit", lineno)
            append(TraceEvent("T", None, None, ticks, lineno))
        else:
            raise TraceError(f"unknown event {op!r}", lineno)
    return events


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
        """Apply the events in order."""
        controller, resident = self.controller, self._resident
        is_valid = controller.device.cache_table.is_valid
        try:
            for event in events:
                kind = event.kind
                if kind == "W":
                    self._write(event.cache_id, event.payload)
                elif kind == "U":
                    # parse_trace refuses a U before any W of its id; here U is a W that
                    # also deletes a valid flushed copy, which the write leaves as it is.
                    cache_id = event.cache_id
                    self._write(cache_id, event.payload)
                    if is_valid(cache_id):
                        controller.handle_invalidation(cache_id, self.now)
                        resident.pop(cache_id, None)
                elif kind == "I" or kind == "D":
                    controller.handle_invalidation(event.cache_id, self.now)
                    resident.pop(event.cache_id, None)
                elif kind == "T":
                    self._advance(self.now + event.ticks)
                elif kind == "F":
                    self.flush_all()
                else:
                    raise TraceError(f"unhandled event kind {kind!r}", event.line)
        except ProtocolError as exc:
            raise TraceError(str(exc), event.line) from exc

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
