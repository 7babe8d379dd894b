"""An independent model of the NVM device, for differential tests.

It encodes the device rules that README states (allocation, programs and
their reprogram budget, erase, and garbage collection with its rotating
free-page search) and that the ``ddnsim.device`` docstrings state, as plain
lists and one dict searched by plain loops. It imports no ``ddnsim`` module,
which ``test_reference.py`` checks. That test drives it and ``NvmDevice``
through the same calls and compares every result, every error (class name
and message) and the whole state after each step.
"""


class DeviceError(Exception):
    """Each error is raised under the name ``ddnsim.device`` gives it."""


AddressError, MonotoneViolation, NopExceeded, NoFreePages, DeviceFull = (
    type(name, (DeviceError,), {})
    for name in ("AddressError", "MonotoneViolation", "NopExceeded", "NoFreePages", "DeviceFull")
)


class ReferenceDevice:
    """Cells, page states and slot occupancy as lists; the cache table as a
    dict of valid id -> slot; costs as five running sums."""

    def __init__(self, blocks, pages_per_block, cells_per_page, bits_per_cell,
                 cells_per_cache_slot, overwritable=False, nop_limit=4, reclaim=False,
                 latency=(49.0, 600.0, 100.0, 4000.0)):
        self.blocks, self.pages_per_block = blocks, pages_per_block
        self.width = cells_per_cache_slot
        self.slots_per_page = cells_per_page // cells_per_cache_slot
        self.pages = blocks * pages_per_block
        self.slots = self.pages * self.slots_per_page
        self.top = 2**bits_per_cell - 1
        self.overwritable, self.nop_limit, self.reclaim = overwritable, nop_limit, reclaim
        self.t_read, self.t_program, _, self.t_erase = latency
        self.cells = [0] * (self.slots * self.width)
        self.programmed = [False] * self.pages
        self.reprograms = [0] * self.pages
        self.allocated = [False] * self.slots
        self.valid = {}
        self.erase_counts = [0] * blocks
        self.rd_us = self.wr_us = self.gen_us = self.erase_us = self.gc_us = 0.0
        self.probe = 0  # the page the next free-page search starts at

    def state(self):
        holders = [None] * self.slots
        for cache_id, slot in self.valid.items():
            holders[slot] = cache_id
        return (bytes(self.cells), bytes(self.programmed), list(self.reprograms),
                bytes(self.allocated), list(self.erase_counts), dict(self.valid), holders,
                bytes(cache_id is not None for cache_id in holders), self.probe,
                (self.rd_us, self.wr_us, self.gen_us, self.erase_us, self.gc_us))

    def _word(self, slot):
        return self.cells[slot * self.width : (slot + 1) * self.width]

    def _check_slot(self, slot):
        if not 0 <= slot < self.slots:
            raise AddressError(f"slot {slot} outside geometry")

    def _check_block(self, block):
        if not 0 <= block < self.blocks:
            raise AddressError(f"block {block} out of range")

    def _block_slots(self, block):
        per_block = self.pages_per_block * self.slots_per_page
        return range(block * per_block, (block + 1) * per_block)

    # -- the cache table --------------------------------------------------

    def register(self, cache_id, slot):
        for holder, held in self.valid.items():
            if held == slot and holder != cache_id:
                raise DeviceError(f"slot {slot} already holds valid cache_id {holder}")
        self.valid[cache_id] = slot

    def invalidate(self, cache_id):
        return self.valid.pop(cache_id, None)

    # -- the device -------------------------------------------------------

    def read_slot(self, slot):
        self._check_slot(slot)
        self.rd_us += self.t_read
        return bytes(self._word(slot))

    def program_slot(self, slot, word):
        self._check_slot(slot)
        if len(word) != self.width:
            raise ValueError(f"data is {len(word)} cells, slot is {self.width}")
        if max(word) > self.top:
            raise ValueError(f"level {max(word)} out of range [0, {self.top}]")
        page = slot // self.slots_per_page
        if not self.overwritable:
            for cell, (old, new) in enumerate(zip(self._word(slot), word)):
                if new < old:
                    raise MonotoneViolation(
                        f"cell {cell} of slot {slot} would drop {old} -> {new}")
            if self.programmed[page]:
                if self.reprograms[page] >= self.nop_limit:
                    raise NopExceeded(f"page {page} used its {self.nop_limit} partial programs")
                self.reprograms[page] += 1
        self.cells[slot * self.width : (slot + 1) * self.width] = word
        self.programmed[page] = True
        self.wr_us += self.t_program

    def erase_block(self, block):
        self._check_block(block)
        slots = self._block_slots(block)
        if any(slot in slots for slot in self.valid.values()):
            raise DeviceError(f"block {block} still holds valid data")
        for slot in slots:
            self.allocated[slot] = False
            self.cells[slot * self.width : (slot + 1) * self.width] = [0] * self.width
        for page in range(block * self.pages_per_block, (block + 1) * self.pages_per_block):
            self.programmed[page], self.reprograms[page] = False, 0
        self.erase_counts[block] += 1
        self.erase_us += self.t_erase

    def allocate_slot(self):
        held = set(self.valid.values())
        for slot in range(self.slots):
            page = slot // self.slots_per_page
            if self.reclaim:
                free = slot not in held
            else:
                free = not self.allocated[slot] and (
                    self.overwritable or not self.programmed[page]
                    or self.reprograms[page] < self.nop_limit)
            if free:
                self.allocated[slot] = True
                return slot
        raise DeviceFull("no writable slot available")

    def free_pages(self, count, victim):
        """The next ``count`` free pages, probing one page at a time from
        ``probe`` and wrapping once; ``probe`` moves past the last one."""
        per_page, found, page = self.slots_per_page, [], self.probe
        for _ in range(self.pages):
            if len(found) == count:
                break
            if (page // self.pages_per_block != victim and not self.programmed[page]
                    and not any(self.allocated[page * per_page : (page + 1) * per_page])):
                found.append(page)
            page = (page + 1) % self.pages
        if len(found) < count:
            raise NoFreePages(f"need {count} destination pages, found {len(found)}")
        self.probe = page
        return found

    def garbage_collect(self, block):
        self._check_block(block)
        per_page, slots = self.slots_per_page, self._block_slots(block)
        holder = {slot: cache_id for cache_id, slot in self.valid.items()}
        live = sorted({slot // per_page for slot in holder if slot in slots})
        for page, dest in zip(live, self.free_pages(len(live), block)):
            for k in range(per_page):
                src, dst = page * per_page + k, dest * per_page + k
                if src in holder:
                    word = self._word(src)
                    self.allocated[dst] = True
                    self.valid[holder[src]] = dst
                else:
                    word = [0] * self.width
                self.cells[dst * self.width : (dst + 1) * self.width] = word
            self.programmed[dest] = True
            self.gc_us += self.t_read + self.t_program
        self.erase_block(block)
