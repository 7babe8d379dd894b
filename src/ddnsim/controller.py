"""NVM-side deletion controller: invalidation handling and overwrite scrubs.

The controller owns one device and one deletion policy. An invalidation
request always clears the target's valid bit; what happens to the physical
data depends on the policy:

* ``MarkOnly``      - nothing, the data stays put.
* ``EraseBased``    - garbage-collect and erase the containing block.
* ``DdnRandom``     - overwrite the slot with generated random data.
* ``DdnNonRandom``  - overwrite the slot with a fixed fill pattern.

In secure mode the host also sends ``secure_tick`` the valid copies that
have sat in NVM for ``t_secure`` ticks, and each is overwritten under every
policy. The controller keeps no clock: when anything falls due is the host's
to know.
"""

from enum import Enum
from operator import eq

from .cells import (
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
from .metrics import DeletionOutcome, LatencyLedger, MetricsCollector, ledger_costs
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
    """Base deletion policy plus optional secure-mode residence limit.

    ``fill`` is DdnNonRandom's fill level: an ``int``, or None for AllMax,
    the top level of the slot's width. Every other kind takes no fill, not
    even level 0.
    """

    __slots__ = ("kind", "fill", "t_secure")

    def __init__(self, kind: PolicyKind, fill: int | None = None,
                 t_secure: int | None = None):
        if fill is not None and kind is not PolicyKind.DDN_NON_RANDOM:
            raise ValueError(f"{kind.value} takes no fill pattern")
        if t_secure is not None and t_secure < 1:
            raise ValueError(f"t_secure must be >= 1, got {t_secure}")
        self.kind, self.fill, self.t_secure = kind, fill, t_secure

    @property
    def label(self) -> str:
        if self.kind is PolicyKind.DDN_NON_RANDOM:
            fill = "AllMax" if self.fill is None else f"Level={self.fill}"
            return f"{self.kind.value}({fill})"
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

    m = re.fullmatch(  # "(" needs its ")", and ":" takes none: (?(2)...) tests "("
        r"\s*([A-Za-z _\-]+?)\s*(?:(?:(\()|:)\s*([^()]*?)\s*(?(2)\)))?\s*", text
    )
    if not m:
        raise ValueError(f"unparseable policy: {text!r}")
    name, _, fill_spec = m.groups()
    key = re.sub(r"[\s_\-]", "", name).lower()
    kind = _POLICY_NAMES.get(key)
    if kind is None:
        known = ", ".join(sorted(_POLICY_NAMES))
        raise ValueError(f"unknown policy {name!r} (known: {known})")
    if kind is not PolicyKind.DDN_NON_RANDOM:
        if fill_spec:
            raise ValueError(f"policy {name!r} takes no argument")
        return DeletionPolicy(kind)
    fill = None
    spec = (fill_spec or "").replace(" ", "").lower()
    if spec not in ("", "allmax"):
        level = ascii_number(spec.removeprefix("level="), str)  # ASCII, no '_'
        try:
            fill = int(level)
        except ValueError:
            raise ValueError(f"unknown fill pattern {fill_spec!r}") from None
    return DeletionPolicy(kind, fill)


def _overwrite(controller, addr: int, action: str) -> tuple:
    """Overwrite the slot in place; a page out of reprogram budget is erased
    instead. Returns (the action taken, its error or None, the residual cells).
    The slot is read once: a refused program leaves every cell as it was."""
    pre = controller.device.peek_slot(addr)
    try:
        word = controller.ddn_process(addr)
    except NopExceeded:
        return _collect(controller, addr, "erase-fallback")
    except MonotoneViolation as exc:
        return action, str(exc), controller._width
    return action, None, sum(map(eq, pre, word))


def _collect(controller, addr: int, action: str) -> tuple:
    """Garbage-collect and erase the slot's block. Returns (action, error or
    None, residual cells): an erased slot keeps none, and a collection that
    finds no room changes nothing."""
    device = controller.device
    try:
        device.garbage_collect(device.geometry.block_of(addr))
    except NoFreePages as exc:
        return action, str(exc), controller._width
    return action, None, 0


# What a deletion under each policy does, when secure mode does not scrub: its
# action, and how it deletes (None: it leaves every cell and charges nothing).
_DELETIONS = {
    PolicyKind.MARK_ONLY: ("mark-only", None),
    PolicyKind.ERASE_BASED: ("gc-erase", _collect),
    PolicyKind.DDN_RANDOM: ("ddn-overwrite", _overwrite),
    PolicyKind.DDN_NON_RANDOM: ("ddn-overwrite", _overwrite),
}


class NvmController:
    """Handles invalidation requests and secure-mode scrubs, one at a time,
    and records each deletion in ``collector``, which reads the device's ledger."""

    def __init__(self, device: NvmDevice, policy: DeletionPolicy, rng):
        self.device = device
        self.policy = policy
        self.rng = rng
        # Fixed for the run: deletion, slot width, DdnNonRandom fill word.
        g = device.geometry
        self.collector = MetricsCollector(device.ledger, g.cells_per_cache_slot)
        self._deletion, self._width = _DELETIONS[policy.kind], g.cells_per_cache_slot
        self._fill_word = None
        if policy.kind is PolicyKind.DDN_NON_RANDOM:
            self._fill_word = gen_fill_word(policy.fill, g.cells_per_cache_slot, g.bits_per_cell)
        self._free = LatencyLedger()
        # spent-cost tuple -> the ledger all such deletions share
        self._costs = {ledger_costs(self._free): self._free}

    # -- host-facing --------------------------------------------------------

    def flush_write(self, cache_id: int, payload: bytes) -> int:
        """Store a flushed cache line: allocate, program, register as valid."""
        addr = self.device.allocate_slot()
        self.device.program_slot(addr, payload)
        self.device.cache_table.register(cache_id, addr)
        return addr

    def handle_invalidation(self, cache_id: int, now: int) -> DeletionOutcome:
        """Clear the valid bit, then apply the configured deletion policy.

        De-identification requests carry no data transform here; the host
        sends them exactly like plain invalidations.
        """
        addr = self.device.cache_table.invalidate(cache_id)
        if addr is None:
            raise ProtocolError(f"no valid flushed copy for cache id {cache_id}")
        return self._scrub(cache_id, addr, now, False)

    def secure_tick(self, now: int, cache_ids) -> list:
        """Secure-scrub the valid copy of each id in ``cache_ids``, in the
        order given: overwrite it under every policy, and invalidate it."""
        invalidate = self.device.cache_table.invalidate
        return [self._scrub(cid, invalidate(cid), now, True) for cid in cache_ids]

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
            dev.ledger.gen_us += dev.latency.t_gen_us
            word = gen_uniform_word(g.cells_per_cache_slot, g.bits_per_cell, self.rng)
        elif word is None:
            current = dev.read_slot(addr)
            dev.ledger.gen_us += dev.latency.t_gen_us
            word = gen_upward_word(current, g.bits_per_cell, self.rng)
        dev.program_slot(addr, word)
        return word

    def _scrub(self, cache_id: int, addr: int, now: int, secure: bool) -> DeletionOutcome:
        """Delete the copy of cache_id at addr, which the cache table has just invalidated."""
        action, delete = ("secure-scrub", _overwrite) if secure else self._deletion
        if delete is None:
            # No cell moves and nothing is charged; a valid copy's page is programmed.
            outcome = DeletionOutcome(cache_id, now, action, self._free, self._width, self._width)
        else:
            ledger = self.device.ledger
            rd, wr, gen, erase, gc = ledger_costs(ledger)
            action, error, residual = delete(self, addr, action)
            # Float == would merge 0.0 with -0.0, but the ledger never decreases,
            # so x - x is +0.0, and latencies are finite: sharing moves no byte.
            spent = (ledger.rd_us - rd, ledger.wr_us - wr, ledger.gen_us - gen,
                     ledger.erase_us - erase, ledger.gc_us - gc)
            cost = self._costs.get(spent)
            if cost is None:
                cost = self._costs[spent] = LatencyLedger(*spent)
            # Positional: keyword arguments would cost about 0.5 us per deletion.
            outcome = DeletionOutcome(cache_id, now, action, cost, residual, self._width, error)
        self.collector.record_deletion(outcome)
        return outcome
