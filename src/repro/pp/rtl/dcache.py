"""The PP data cache: 2-way set associative, fill-before-spill,
critical-word-first restart, and split stores.

The three cooperating machines of Fig. 3.2 live here:

- **Refill FSM** (IDLE / SPILL / REQ / FILL_CRIT / FILL_REST): on a miss
  whose victim is dirty, the victim is first copied to the *spill buffer*
  (one cycle) so the fill can start immediately ("fill-before-spill");
  the fill delivers the missed word first and the stalled processor
  restarts on its arrival ("critical-word-first") while the rest of the
  line streams in.
- **Fill/Spill FSM** (EMPTY / HELD / WB): the spill buffer holds the dirty
  victim until the fill completes, then writes it back through the shared
  memory controller.
- **Split-store unit**: a store probes the tag in one cycle and performs
  the data write in a later idle cycle from the *pending-store buffer*.
  A following load to the same line, or a second store, takes a
  *conflict stall* while the pending store drains.

``force_hit`` / ``force_dirty_victim`` are the vector harness's
force/release hooks.  Forced outcomes stay architecturally silent: a
forced hit on a non-resident address reads/writes the backing memory
directly, and a forced miss on a resident line flushes it first.

Set index, tag and the split store's same-line test are shifts and masks
of the word-masked address (``num_sets`` is a power of two).
"""

from __future__ import annotations

import enum
from typing import List, Optional, Tuple

from repro.pp.isa import WORD_MASK
from repro.pp.rtl.memctrl import MemoryController, MemRequest, Requester, WordDelivery
from repro.pp.rtl.memory import LINE_SHIFT, LINE_WORDS, MainMemory, word_in_line


class DRefillState(enum.Enum):
    IDLE = "IDLE"
    SPILL = "SPILL"          # copying dirty victim into the spill buffer
    REQ = "REQ"              # waiting for the memory-controller grant
    FILL_CRIT = "FILL_CRIT"  # waiting for the critical word
    FILL_REST = "FILL_REST"  # remaining words streaming in


class SpillState(enum.Enum):
    EMPTY = "EMPTY"
    HELD = "HELD"    # victim parked, fill still in progress
    WB = "WB"        # write-back transaction issued, waiting completion


class _Line:
    __slots__ = ("tag", "valid", "dirty", "words")

    def __init__(self):
        self.tag = 0
        self.valid = False
        self.dirty = False
        self.words: List[int] = [0] * LINE_WORDS


class DCache:
    WAYS = 2

    def __init__(self, memory: MainMemory, memctrl: MemoryController, num_sets: int = 4):
        if num_sets < 1 or num_sets & (num_sets - 1):
            raise ValueError("num_sets must be a power of two")
        self.memory = memory
        self.memctrl = memctrl
        self.num_sets = num_sets
        self._set_mask = num_sets - 1
        self._tag_shift = LINE_SHIFT + num_sets.bit_length() - 1
        self._sets = [[_Line() for _ in range(self.WAYS)] for _ in range(num_sets)]
        self._lru = [0] * num_sets  # way to evict next

        self.refill_state = DRefillState.IDLE
        self.spill_state = SpillState.EMPTY
        self._refill_address = 0
        self._refill_for_store = False
        self._line_buffer: List[Optional[int]] = [None] * LINE_WORDS
        self._requested = False
        self._spill_buffer: Optional[Tuple[int, List[int]]] = None
        self._wb_requested = False

        # Split-store unit: (address, value) awaiting its data-write cycle.
        self.pending_store: Optional[Tuple[int, int]] = None

        self.hits = 0
        self.misses = 0
        self.spills = 0

    # -- address helpers -----------------------------------------------------

    def _set_index(self, address: int) -> int:
        return ((address & WORD_MASK) >> LINE_SHIFT) & self._set_mask

    def _tag(self, address: int) -> int:
        return (address & WORD_MASK) >> self._tag_shift

    def _find(self, address: int) -> Optional[_Line]:
        address &= WORD_MASK
        tag = address >> self._tag_shift
        for line in self._sets[(address >> LINE_SHIFT) & self._set_mask]:
            if line.valid and line.tag == tag:
                return line
        return None

    def resident(self, address: int) -> bool:
        return self._find(address) is not None

    # -- tag probe ------------------------------------------------------------

    def probe(self, address: int, force_hit: Optional[bool] = None) -> bool:
        """Tag-compare for a load or the probe cycle of a split store."""
        resident = self.resident(address)
        hit = resident if force_hit is None else force_hit
        if hit:
            self.hits += 1
        else:
            self.misses += 1
            if force_hit is False and resident:
                self._flush_line(address)
        return hit

    def _flush_line(self, address: int) -> None:
        """Invalidate a resident line (write back if dirty) so a forced
        miss is architecturally silent."""
        line = self._find(address)
        if line is None:
            return
        if line.dirty:
            base = line.tag * self.num_sets * LINE_WORDS * 4
            base += self._set_index(address) * LINE_WORDS * 4
            self.memory.write_line(base, line.words)
        line.valid = False
        line.dirty = False

    # -- hit-path data access ---------------------------------------------------

    def read_hit(self, address: int) -> int:
        """Data for an access that (actually or forcibly) hit."""
        line = self._find(address)
        if line is not None:
            return line.words[word_in_line(address)]
        return self.memory.read_word(address)

    def write_hit(self, address: int, value: int) -> None:
        """Commit a store's data into a line that (actually or forcibly) hit."""
        line = self._find(address)
        if line is not None:
            line.words[word_in_line(address)] = value & WORD_MASK
            line.dirty = True
        else:
            # Forced hit on a non-resident address: write through so the
            # architectural state stays correct.
            self.memory.write_word(address, value)

    # -- split-store unit ----------------------------------------------------------

    def post_store(self, address: int, value: int) -> None:
        """Park a store (after its tag probe) for a later data-write cycle."""
        if self.pending_store is not None:
            raise RuntimeError("pending-store buffer already occupied")
        self.pending_store = (address & WORD_MASK, value & WORD_MASK)

    def conflicts_with_pending(self, address: int) -> bool:
        """A following load to the pending store's line conflicts."""
        if self.pending_store is None:
            return False
        # The pending address is word-masked already (see post_store).
        return (address & WORD_MASK) >> LINE_SHIFT == self.pending_store[0] >> LINE_SHIFT

    def drain_pending_store(self) -> None:
        """The data-write cycle of the split store."""
        if self.pending_store is None:
            return
        address, value = self.pending_store
        self.write_hit(address, value)
        self.pending_store = None

    # -- refill FSM --------------------------------------------------------------

    @property
    def busy(self) -> bool:
        """The cache cannot accept a new miss (refill or write-back active).

        A HELD spill buffer also blocks: starting a second dirty-victim
        refill before the write-back drains would overwrite the parked
        victim and lose its data.
        """
        return (
            self.refill_state is not DRefillState.IDLE
            or self.spill_state is not SpillState.EMPTY
        )

    @property
    def filling_rest(self) -> bool:
        return self.refill_state is DRefillState.FILL_REST

    def start_refill(
        self,
        address: int,
        for_store: bool,
        force_dirty_victim: Optional[bool] = None,
    ) -> None:
        if self.busy:
            raise RuntimeError("D-refill started while cache busy")
        self._refill_address = address & WORD_MASK
        self._refill_for_store = for_store
        self._line_buffer = [None] * LINE_WORDS
        self._requested = False
        victim = self._victim_line(address)
        actually_dirty = victim.valid and victim.dirty
        victim_dirty = actually_dirty
        if force_dirty_victim is not None and victim.valid:
            victim_dirty = force_dirty_victim
        if victim_dirty:
            # Fill-before-spill: one cycle to park the victim, then fill.
            # (A clean victim forced dirty just writes back its unchanged
            # data -- architecturally silent.)
            self.refill_state = DRefillState.SPILL
        else:
            if actually_dirty:
                # Forced-clean eviction of a genuinely dirty victim must
                # still preserve the data: write it back directly so the
                # forced control outcome stays architecturally silent.
                set_index = self._set_index(address)
                base = victim.tag * self.num_sets * LINE_WORDS * 4
                base += set_index * LINE_WORDS * 4
                self.memory.write_line(base, victim.words)
            victim.valid = False
            victim.dirty = False
            self.refill_state = DRefillState.REQ

    def _victim_line(self, address: int) -> _Line:
        ways = self._sets[self._set_index(address)]
        for line in ways:
            if not line.valid:
                return line
        return ways[self._lru[self._set_index(address)]]

    def tick(self) -> None:
        """Advance the refill / spill machines one cycle."""
        if self.refill_state is DRefillState.SPILL:
            self._park_victim()
            self.refill_state = DRefillState.REQ
        if self.refill_state is DRefillState.REQ and not self._requested:
            self.memctrl.request(
                MemRequest(
                    requester=Requester.DCACHE,
                    address=self._refill_address,
                    critical_first=True,
                )
            )
            self._requested = True
            self.refill_state = DRefillState.FILL_CRIT
        if (
            self.spill_state is SpillState.HELD
            and self.refill_state is DRefillState.IDLE
            and not self._wb_requested
        ):
            address, words = self._spill_buffer
            self.memctrl.request(
                MemRequest(requester=Requester.SPILL_WB, address=address, write_words=words)
            )
            self._wb_requested = True
            self.spill_state = SpillState.WB

    def _park_victim(self) -> None:
        victim = self._victim_line(self._refill_address)
        set_index = self._set_index(self._refill_address)
        victim_base = victim.tag * self.num_sets * LINE_WORDS * 4 + set_index * LINE_WORDS * 4
        self._spill_buffer = (victim_base, list(victim.words))
        self.spill_state = SpillState.HELD
        self.spills += 1
        victim.valid = False
        victim.dirty = False

    def accept(self, delivery: WordDelivery) -> Optional[int]:
        """Route a word delivery; returns the critical word's value when it
        arrives (the restart trigger), else None."""
        if delivery.requester is Requester.SPILL_WB:
            self.spill_state = SpillState.EMPTY
            self._spill_buffer = None
            self._wb_requested = False
            return None
        if self.refill_state not in (DRefillState.FILL_CRIT, DRefillState.FILL_REST):
            raise RuntimeError(f"unexpected D-refill delivery in state {self.refill_state}")
        self._line_buffer[delivery.word_offset] = delivery.value
        critical_value: Optional[int] = None
        if delivery.word_index == 0:
            critical_value = delivery.value
            self.refill_state = DRefillState.FILL_REST
        if delivery.is_last:
            self._install()
            self.refill_state = DRefillState.IDLE
        return critical_value

    def _install(self) -> None:
        set_index = self._set_index(self._refill_address)
        line = self._victim_line(self._refill_address)
        line.tag = self._tag(self._refill_address)
        line.valid = True
        line.dirty = False
        line.words = [w if w is not None else 0 for w in self._line_buffer]
        self._lru[set_index] = (self._lru[set_index] + 1) % self.WAYS
        # The fill is done: issue the parked victim's write-back in the same
        # cycle (as the control FSM does), so HELD never lingers into a
        # cycle where a new miss could clobber the spill buffer.
        if self.spill_state is SpillState.HELD and not self._wb_requested:
            address, words = self._spill_buffer
            self.memctrl.request(
                MemRequest(requester=Requester.SPILL_WB, address=address, write_words=words)
            )
            self._wb_requested = True
            self.spill_state = SpillState.WB

    # -- architectural flush --------------------------------------------------------

    def flush_all(self) -> None:
        """Write every dirty line (and any parked spill buffer or pending
        store) back to memory, for end-of-run architectural comparison."""
        self.drain_pending_store()
        if self._spill_buffer is not None:
            address, words = self._spill_buffer
            self.memory.write_line(address, words)
            self._spill_buffer = None
            self.spill_state = SpillState.EMPTY
            self._wb_requested = False
        for set_index, ways in enumerate(self._sets):
            for line in ways:
                if line.valid and line.dirty:
                    base = line.tag * self.num_sets * LINE_WORDS * 4
                    base += set_index * LINE_WORDS * 4
                    self.memory.write_line(base, line.words)
                    line.dirty = False
