"""The PP instruction cache and its refill state machine.

Direct-mapped, line-oriented.  A miss raises IStall; the refill FSM
requests the line through the shared memory controller (waiting its turn
behind any data-cache transaction), fills a line buffer one word per
cycle, installs the line, and then spends one *fix-up* cycle restoring the
instruction registers before fetch resumes -- the cycle whose missing
MemStall qualification is Bug #4.

``force_hit`` on :meth:`lookup` is the vector harness's force/release hook
on the tag-compare result.  To keep forced control outcomes
architecturally silent, data always comes from a coherent source: a forced
hit on a non-resident address reads the backing memory directly, and a
forced miss on a resident line invalidates it first and refetches.

Set index and tag come from shifts and masks of the word-masked address
(``num_sets`` is a power of two), so a fetch-port lookup costs no helper
calls.
"""

from __future__ import annotations

import enum
from typing import List, Optional

from repro.pp.isa import WORD_MASK
from repro.pp.rtl.memctrl import MemoryController, MemRequest, Requester, WordDelivery
from repro.pp.rtl.memory import LINE_SHIFT, LINE_WORDS, MainMemory, line_base, word_in_line


class IRefillState(enum.Enum):
    IDLE = "IDLE"
    REQ = "REQ"      # waiting for the memory controller grant
    FILL = "FILL"    # words streaming into the line buffer
    FIXUP = "FIXUP"  # restoring instruction registers after the stall


class _Line:
    __slots__ = ("tag", "valid", "words")

    def __init__(self):
        self.tag = 0
        self.valid = False
        self.words: List[int] = [0] * LINE_WORDS


class ICache:
    def __init__(self, memory: MainMemory, memctrl: MemoryController, num_sets: int = 8):
        if num_sets < 1 or num_sets & (num_sets - 1):
            raise ValueError("num_sets must be a power of two")
        self.memory = memory
        self.memctrl = memctrl
        self.num_sets = num_sets
        self._set_mask = num_sets - 1
        self._tag_shift = LINE_SHIFT + num_sets.bit_length() - 1
        self._sets = [_Line() for _ in range(num_sets)]
        self.state = IRefillState.IDLE
        self._refill_address = 0
        self._line_buffer: List[Optional[int]] = [None] * LINE_WORDS
        self._requested = False
        self.misses = 0
        self.hits = 0

    # -- address helpers -----------------------------------------------------

    def _set_index(self, address: int) -> int:
        return ((address & WORD_MASK) >> LINE_SHIFT) & self._set_mask

    def _tag(self, address: int) -> int:
        return (address & WORD_MASK) >> self._tag_shift

    # -- fetch port --------------------------------------------------------------

    def lookup(self, address: int, force_hit: Optional[bool] = None) -> Optional[int]:
        """Fetch the instruction word at ``address``.

        Returns the word on a hit, or ``None`` on a miss (the caller must
        then start a refill).  ``force_hit`` overrides the tag compare.
        """
        if self.state is not IRefillState.IDLE:
            return None  # port busy refilling
        address &= WORD_MASK
        line = self._sets[(address >> LINE_SHIFT) & self._set_mask]
        resident = line.valid and line.tag == address >> self._tag_shift
        hit = resident if force_hit is None else force_hit
        if not hit:
            self.misses += 1
            if force_hit is False and resident:
                # Forced miss on a resident line: invalidate so the refill
                # is a genuine one (instructions are read-only, no spill).
                line.valid = False
            return None
        self.hits += 1
        if resident:
            return line.words[word_in_line(address)]
        # Forced hit on a non-resident address: serve from backing memory
        # so forcing the control outcome never corrupts the data path.
        return self.memory.read_word(address)

    # -- refill FSM ----------------------------------------------------------------

    def begin_refill(self, address: int) -> None:
        if self.state is not IRefillState.IDLE:
            raise RuntimeError("I-refill already in progress")
        self.state = IRefillState.REQ
        self._refill_address = line_base(address)
        self._line_buffer = [None] * LINE_WORDS
        self._requested = False

    def tick(self) -> None:
        """Advance the refill FSM one cycle (request issue only; word
        arrivals come through :meth:`accept`)."""
        if self.state is IRefillState.REQ and not self._requested:
            self.memctrl.request(
                MemRequest(requester=Requester.ICACHE, address=self._refill_address)
            )
            self._requested = True

    def accept(self, delivery: WordDelivery) -> None:
        """Route a memory-controller word delivery into the line buffer."""
        if self.state is IRefillState.REQ:
            self.state = IRefillState.FILL
        if self.state is not IRefillState.FILL:
            raise RuntimeError(f"unexpected I-refill delivery in state {self.state}")
        self._line_buffer[delivery.word_offset] = delivery.value
        if delivery.is_last:
            self._install()
            self.state = IRefillState.FIXUP

    def corrupt_line_buffer(self, words: List[int]) -> None:
        """Bug #1 hook: overwrite the incoming line with foreign data (the
        unqualified interface signal latched another unit's transfer)."""
        for i, word in enumerate(words[:LINE_WORDS]):
            self._line_buffer[i] = word
        line = self._sets[self._set_index(self._refill_address)]
        if line.valid and line.tag == self._tag(self._refill_address):
            line.words = [w if w is not None else 0 for w in self._line_buffer]

    def finish_fixup(self) -> None:
        if self.state is not IRefillState.FIXUP:
            raise RuntimeError("finish_fixup outside FIXUP state")
        self.state = IRefillState.IDLE

    def _install(self) -> None:
        index = self._set_index(self._refill_address)
        line = self._sets[index]
        line.tag = self._tag(self._refill_address)
        line.valid = True
        line.words = [w if w is not None else 0 for w in self._line_buffer]

    @property
    def stalling(self) -> bool:
        """IStall: the fetch stage cannot supply instructions."""
        return self.state is not IRefillState.IDLE
