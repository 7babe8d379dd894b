"""NVM-side deletion controller: invalidation handling and overwrite scrubs.

The controller owns one device and one deletion policy. An invalidation
request always clears the target's valid bit; what happens to the physical
data depends on the policy:

* ``MarkOnly``      - nothing, the data stays put.
* ``EraseBased``    - garbage-collect and erase the containing block.
* ``DdnRandom``     - overwrite the slot with generated random data.
* ``DdnNonRandom``  - overwrite the slot with a fixed fill pattern.

With a secure-mode residence limit configured, even valid data is scrubbed
once it has sat in NVM for that many ticks.
"""

from enum import Enum
from operator import eq
from collections import OrderedDict

from .cells import (
    ALL_MAX,
    FillKind,
    gen_fill_word,
    gen_uniform_word,
    gen_upward_word,
)
from .device import (
    DeviceKind,
    MonotoneViolation,
    NoFreePages,
    NopExceeded,
    NvmDevice,
)
from .metrics import LatencyLedger, ledger_costs
from .values import Value, ascii_number

# Looked up once: an enum member lookup through the class costs ~0.2 us on 3.11.
_OVERWRITABLE = DeviceKind.OVERWRITABLE


class ProtocolError(Exception):
    """Request the controller cannot honor (unknown id, double invalidate...)."""


class PolicyKind(Enum):
    MARK_ONLY = "MarkOnly"
    ERASE_BASED = "EraseBased"
    DDN_RANDOM = "DdnRandom"
    DDN_NON_RANDOM = "DdnNonRandom"


class DeletionPolicy(Value):
    """Base deletion policy plus optional secure-mode residence limit."""

    __slots__ = ("kind", "fill", "t_secure")

    def __init__(self, kind: PolicyKind, fill: FillKind | None = None,
                 t_secure: int | None = None):
        if kind is PolicyKind.DDN_NON_RANDOM:
            if fill is None:
                fill = ALL_MAX
        elif fill is not None:
            raise ValueError(f"{kind.value} takes no fill pattern")
        if t_secure is not None and t_secure < 1:
            raise ValueError(f"t_secure must be >= 1, got {t_secure}")
        self.kind, self.fill, self.t_secure = kind, fill, t_secure

    @property
    def label(self) -> str:
        if self.kind is PolicyKind.DDN_NON_RANDOM:
            return f"{self.kind.value}({self.fill.label})"
        return self.kind.value


_POLICY_NAMES = {
    "markonly": PolicyKind.MARK_ONLY,
    "erasebased": PolicyKind.ERASE_BASED,
    "ddnrandom": PolicyKind.DDN_RANDOM,
    "ddnnonrandom": PolicyKind.DDN_NON_RANDOM,
}


def parse_policy(text: str) -> DeletionPolicy:
    """Parse a policy name like ``MarkOnly`` or ``DdnNonRandom(Level=3)``.

    Case, spaces, hyphens and underscores in the name are ignored. The
    optional fill argument (``(...)`` or ``:...``) is ``AllMax`` or a level.
    ``re`` is imported here, so importing the package never loads it.
    """
    import re

    m = re.fullmatch(
        r"\s*([A-Za-z _\-]+?)\s*(?:[:(]\s*([^()]*?)\s*\)?)?\s*", text
    )
    if not m:
        raise ValueError(f"unparseable policy: {text!r}")
    name, fill_spec = m.groups()
    key = re.sub(r"[\s_\-]", "", name).lower()
    kind = _POLICY_NAMES.get(key)
    if kind is None:
        known = ", ".join(sorted(_POLICY_NAMES))
        raise ValueError(f"unknown policy {name!r} (known: {known})")
    if kind is not PolicyKind.DDN_NON_RANDOM:
        if fill_spec:
            raise ValueError(f"policy {name!r} takes no argument")
        return DeletionPolicy(kind)
    fill = ALL_MAX
    if fill_spec:
        spec = fill_spec.replace(" ", "").lower()
        if spec in ("", "allmax"):
            fill = ALL_MAX
        elif spec.startswith("level="):
            fill = FillKind(ascii_number(spec[len("level="):]))
        elif spec.lstrip("-").isdigit():
            fill = FillKind(ascii_number(spec))
        else:
            raise ValueError(f"unknown fill pattern {fill_spec!r}")
    return DeletionPolicy(kind, fill)


class DeletionOutcome:
    """What one deletion did: action taken, cost by category, residual data.

    ``cost`` is the device ledger's difference across the deletion.
    ``residual_cells`` counts cells of the deleted slot that still hold their
    pre-deletion level afterwards; a slot whose page was erased retains
    nothing.
    """

    __slots__ = ("cache_id", "tick", "action", "cost", "residual_cells", "slot_cells",
                 "error")

    def __init__(self, cache_id: int, tick: int, action: str, cost: LatencyLedger,
                 residual_cells: int = 0, slot_cells: int = 0, error: str | None = None):
        self.cache_id, self.tick, self.action, self.cost = cache_id, tick, action, cost
        self.residual_cells, self.slot_cells, self.error = residual_cells, slot_cells, error


class NvmController:
    """Handles invalidation requests and secure-mode scrubs, one at a time."""

    def __init__(self, device: NvmDevice, policy: DeletionPolicy, rng, collector=None):
        self.device = device
        self.policy = policy
        self.rng = rng
        self.collector = collector
        # Fixed for the run: deletion action, DdnNonRandom fill word.
        kind, g = policy.kind, device.geometry
        self._overwrites = kind in (PolicyKind.DDN_RANDOM, PolicyKind.DDN_NON_RANDOM)
        self._erases = kind is PolicyKind.ERASE_BASED
        self._fill_word = None
        if kind is PolicyKind.DDN_NON_RANDOM:
            self._fill_word = gen_fill_word(policy.fill, g.cells_per_cache_slot, g.bits_per_cell)
        # cache_id -> entry for every valid copy while secure mode is on, oldest
        # flush first: flushes stamp the never-decreasing clock and move the id
        # to the end, and a scrub removes it.
        self._resident = OrderedDict()
        self._costs = {}  # spent-cost tuple -> the ledger all such deletions share

    # -- host-facing --------------------------------------------------------

    def entry(self, cache_id: int):
        return self.device.cache_table.get(cache_id)

    def flush_write(self, cache_id: int, payload: bytes, now: int) -> int:
        """Store a flushed cache line: allocate, program, register as valid.

        ``now`` never decreases from one call to the next, as the host's
        clock does not, so secure mode keeps copies in due order.
        """
        addr = self.device.allocate_slot()
        self.device.program_slot(addr, payload)
        entry = self.device.cache_table.register(cache_id, addr, now)
        if self.policy.t_secure is not None:
            self._resident[cache_id] = entry
            self._resident.move_to_end(cache_id)
        return addr

    def handle_invalidation(self, cache_id: int, now: int) -> DeletionOutcome:
        """Clear the valid bit, then apply the configured deletion policy.

        De-identification requests carry no data transform here; the host
        sends them exactly like plain invalidations.
        """
        entry = self.device.cache_table.get(cache_id)
        if entry is None:
            raise ProtocolError(f"no flushed copy for cache id {cache_id}")
        if not entry.valid:
            raise ProtocolError(f"cache_id {cache_id} is already invalid")
        return self._scrub(cache_id, entry, now, secure=False)

    def secure_tick(self, now: int) -> list:
        """Scrub every valid copy stored by ``flush_write`` that has resided
        at least t_secure ticks.

        Scrubbed entries go invalid, so each is scrubbed exactly once.
        Outcomes come back in ascending cache_id order.
        """
        t_secure = self.policy.t_secure
        if t_secure is None:
            raise ProtocolError("secure mode not configured")
        due = []
        for cid, entry in self._resident.items():
            if now - entry.written_at < t_secure:
                break
            due.append((cid, entry))
        due.sort()  # by cache_id: ids are unique, so entries are never compared
        return [self._scrub(cid, entry, now, secure=True) for cid, entry in due]

    def next_scrub_due(self) -> int | None:
        """Earliest tick at which ``secure_tick`` scrubs something, if any."""
        resident, t_secure = self._resident, self.policy.t_secure
        return next(iter(resident.values())).written_at + t_secure if resident else None

    # -- deletion machinery -------------------------------------------------

    def ddn_process(self, addr: int) -> bytes:
        """Overwrite the slot at addr with generated data; return what was
        written.

        Overwritable devices take a full-range uniform random word. NAND-like
        devices are read first so the replacement can be drawn upward from the
        current levels. A fixed fill pattern skips both the read and the
        generation.
        """
        dev = self.device
        if not dev.is_programmed(addr):
            raise ProtocolError(f"ddn_process on unprogrammed page at slot {addr}")
        g, word = dev.geometry, self._fill_word
        if word is None and dev.kind is _OVERWRITABLE:
            dev.ledger.charge_gen(dev.latency.t_gen_us)
            word = gen_uniform_word(g.cells_per_cache_slot, g.bits_per_cell, self.rng)
        elif word is None:
            current = dev.read_slot(addr)
            dev.ledger.charge_gen(dev.latency.t_gen_us)
            word = gen_upward_word(current, g.bits_per_cell, self.rng)
        dev.program_slot(addr, word)
        return word

    def _scrub(self, cache_id: int, entry, now: int, secure: bool) -> DeletionOutcome:
        dev = self.device
        addr = entry.addr
        pre = dev.peek_slot(addr)
        dev.cache_table.invalidate(cache_id)
        self._resident.pop(cache_id, None)
        ledger = dev.ledger
        rd, wr, gen, erase, gc = ledger_costs(ledger)
        error = None
        if secure or self._overwrites:
            action = "secure-scrub" if secure else "ddn-overwrite"
            try:
                self.ddn_process(addr)
            except NopExceeded:
                # Out of in-place reprogram budget: physically delete instead.
                action = "erase-fallback"
            except MonotoneViolation as exc:
                error = str(exc)
        elif self._erases:
            action = "gc-erase"
        else:
            action = "mark-only"
        if action in ("gc-erase", "erase-fallback"):
            try:
                dev.garbage_collect(dev.geometry.block_of(addr))
            except NoFreePages as exc:
                error = str(exc)
        # Float == would merge 0.0 with -0.0, but the ledger never decreases,
        # so x - x is +0.0, and latencies are finite: sharing moves no byte.
        spent = (ledger.rd_us - rd, ledger.wr_us - wr, ledger.gen_us - gen,
                 ledger.erase_us - erase, ledger.gc_us - gc)
        cost = self._costs.get(spent)
        if cost is None:
            cost = self._costs[spent] = LatencyLedger(*spent)
        if dev.is_programmed(addr):
            residual = sum(map(eq, pre, dev.peek_slot(addr)))
        else:
            residual = 0
        # Positional: keyword arguments would cost about 0.5 us per deletion.
        outcome = DeletionOutcome(
            cache_id, now, action, cost, residual, len(pre), error
        )
        if self.collector is not None:
            self.collector.record_deletion(outcome)
        return outcome
