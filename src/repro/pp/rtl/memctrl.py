"""The on-chip memory controller: one shared port to main memory.

Both cache refill machines and the spill-buffer write-back share this
single port, which is the structural interlock the paper credits for
keeping the control state space manageable: once a data-cache refill
starts, the instruction-cache refill machine must wait.

Timing model: a granted line-read request waits ``latency`` cycles for the
first word, then delivers one word per cycle.  Data-cache reads deliver
critical-word-first.  Per-cycle delivery can be paused by the vector
harness via ``pace_override`` (the abstract model's nondeterministic
"memory not done yet" choice).

Since the port moves at most one word per cycle, :meth:`MemoryController.tick`
returns that word's :class:`WordDelivery` or ``None``.  ``busy`` is a plain
attribute, kept current by the request/grant/finish paths, so the core can
skip the tick of an idle controller for the price of one attribute read.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.pp.rtl.memory import LINE_WORDS, MainMemory, line_base


class Requester(enum.Enum):
    """Who owns the memory port."""

    ICACHE = "ICACHE"
    DCACHE = "DCACHE"
    SPILL_WB = "SPILL_WB"


@dataclass
class MemRequest:
    """One line-granularity transaction."""

    requester: Requester
    address: int
    write_words: Optional[List[int]] = None  # None for reads
    critical_first: bool = False


class WordDelivery:
    """One word handed back to a requester this cycle."""

    __slots__ = (
        "requester", "line_address", "word_index", "word_offset", "value", "is_last",
    )

    def __init__(
        self,
        requester: Requester,
        line_address: int,
        word_index: int,
        word_offset: int,
        value: int,
        is_last: bool,
    ):
        self.requester = requester
        self.line_address = line_address
        self.word_index = word_index  # index in delivery order (0 = first/critical word)
        self.word_offset = word_offset  # index of the word within its line
        self.value = value
        self.is_last = is_last


class MemoryController:
    """Single-ported, in-order memory controller with D-cache priority."""

    def __init__(self, memory: MainMemory, latency: int = 2):
        if latency < 0:
            raise ValueError("latency must be non-negative")
        self.memory = memory
        self.latency = latency
        self._queue: List[MemRequest] = []
        self._current: Optional[MemRequest] = None
        self._line_address = 0
        self._countdown = 0
        self._words: List[Tuple[int, int]] = []  # (word_offset, value) in order
        self._delivered = 0
        #: A transaction is granted or waiting (kept current on every change).
        self.busy = False
        #: When set to False for a cycle, no word is delivered (vector pacing).
        self.pace_override: Optional[bool] = None
        #: Total transactions completed (for stats / tests).
        self.transactions_completed = 0

    # -- request side ----------------------------------------------------------

    def request(self, req: MemRequest) -> None:
        """Enqueue a transaction; D-cache requests jump ahead of I-cache
        requests still waiting in the queue (but never preempt a granted
        transaction)."""
        if req.requester is Requester.DCACHE:
            insert_at = 0
            while insert_at < len(self._queue) and (
                self._queue[insert_at].requester is Requester.DCACHE
            ):
                insert_at += 1
            self._queue.insert(insert_at, req)
        else:
            self._queue.append(req)
        self.busy = True

    @property
    def owner(self) -> Optional[Requester]:
        return self._current.requester if self._current else None

    def serving(self, requester: Requester) -> bool:
        return self._current is not None and self._current.requester is requester

    # -- clock ----------------------------------------------------------------

    def tick(self) -> Optional[WordDelivery]:
        """Advance one cycle; return this cycle's word delivery, if any."""
        current = self._current
        if current is None:
            if self._queue:
                self._grant(self._queue.pop(0))  # the grant cycle delivers nothing
            return None
        if self.pace_override is False:
            return None  # harness held the memory system this cycle
        if self._countdown > 0:
            self._countdown -= 1
            return None
        if current.write_words is not None:
            # Line write (spill-buffer write-back) completes as a unit once
            # the latency has elapsed.
            self.memory.write_line(current.address, current.write_words)
            delivery = WordDelivery(
                current.requester, self._line_address, 0, 0, 0, True
            )
            self._finish()
            return delivery
        index = self._delivered
        word_offset, value = self._words[index]
        is_last = index == LINE_WORDS - 1
        delivery = WordDelivery(
            current.requester, self._line_address, index, word_offset, value, is_last
        )
        self._delivered = index + 1
        if is_last:
            self._finish()
        return delivery

    def _grant(self, req: MemRequest) -> None:
        self._current = req
        self._line_address = line_base(req.address)
        self._countdown = self.latency
        self._delivered = 0
        if req.write_words is None:
            base = self._line_address
            if req.critical_first:
                critical = (req.address >> 2) % LINE_WORDS
                order = [(critical + i) % LINE_WORDS for i in range(LINE_WORDS)]
            else:
                order = list(range(LINE_WORDS))
            self._words = [
                (offset, self.memory.read_word(base + 4 * offset)) for offset in order
            ]
        else:
            self._words = []

    def _finish(self) -> None:
        self._current = None
        self._words = []
        self._delivered = 0
        self.busy = bool(self._queue)
        self.transactions_completed += 1
