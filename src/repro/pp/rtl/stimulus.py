"""Stimulus sources: how test vectors force the PP's interface signals.

The paper converts a transition tour into simulator stimuli by forcing the
signals that interface to the control logic (Verilog ``force``/``release``)
so they match the abstract blocks' choices.  Here the same role is played
by a :class:`StimulusSource` the core consults at each *event*:

- one I-cache hit/miss outcome per fetch attempt,
- one D-cache hit/miss outcome per tag probe,
- one Inbox/Outbox readiness answer per query cycle,
- one dirty-victim outcome per D-refill,
- one pacing answer per memory-controller busy cycle.

Consuming by event rather than by absolute cycle keeps vector replay
robust to small timing skews between the abstract FSM model and the RTL.

Three sources cover the three validation strategies compared in the
benchmarks: :class:`QueueStimulus` (replaying generated vectors),
:class:`RandomStimulus` (the biased-random baseline), and
:class:`NaturalStimulus` (no forcing; the design's own behaviour).
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, Iterable, Optional


class StimulusSource:
    """Base: answer ``None`` everywhere (no forcing)."""

    def fetch_hit(self) -> Optional[bool]:
        return None

    def dcache_hit(self) -> Optional[bool]:
        return None

    def inbox_ready(self) -> Optional[bool]:
        return None

    def outbox_ready(self) -> Optional[bool]:
        return None

    def victim_dirty(self) -> Optional[bool]:
        return None

    def mem_pace(self) -> Optional[bool]:
        return None


class NaturalStimulus(StimulusSource):
    """No forcing at all: every unit uses its own tag compares and queues."""


class QueueStimulus(StimulusSource):
    """Replays per-event queues produced by the test-vector generator.

    When a queue runs dry the design falls back to natural behaviour,
    which lets a trace end gracefully even if the RTL spends a cycle or
    two more than the abstract model predicted.
    """

    def __init__(
        self,
        fetch_hits: Iterable[bool] = (),
        dcache_hits: Iterable[bool] = (),
        inbox_ready: Iterable[bool] = (),
        outbox_ready: Iterable[bool] = (),
        victim_dirty: Iterable[bool] = (),
        mem_pace: Iterable[bool] = (),
    ):
        self._fetch: Deque[bool] = deque(fetch_hits)
        self._dcache: Deque[bool] = deque(dcache_hits)
        self._inbox: Deque[bool] = deque(inbox_ready)
        self._outbox: Deque[bool] = deque(outbox_ready)
        self._victim: Deque[bool] = deque(victim_dirty)
        self._pace: Deque[bool] = deque(mem_pace)

    # One pop per event; each accessor is written out (no shared helper)
    # because ``mem_pace`` alone runs on most simulated cycles.

    def fetch_hit(self) -> Optional[bool]:
        queue = self._fetch
        return queue.popleft() if queue else None

    def dcache_hit(self) -> Optional[bool]:
        queue = self._dcache
        return queue.popleft() if queue else None

    def inbox_ready(self) -> Optional[bool]:
        queue = self._inbox
        return queue.popleft() if queue else None

    def outbox_ready(self) -> Optional[bool]:
        queue = self._outbox
        return queue.popleft() if queue else None

    def victim_dirty(self) -> Optional[bool]:
        queue = self._victim
        return queue.popleft() if queue else None

    def mem_pace(self) -> Optional[bool]:
        queue = self._pace
        return queue.popleft() if queue else None

    @property
    def exhausted(self) -> bool:
        return not (
            self._fetch or self._dcache or self._inbox or self._outbox
            or self._victim or self._pace
        )


class RandomStimulus(StimulusSource):
    """Biased-random forcing: the probabilistic baseline of section 1.

    Each event outcome is drawn independently with realistic probabilities
    (cache hits likely, external units usually ready), which is exactly why
    random testing struggles to reach conjunctions of improbable events.
    """

    def __init__(
        self,
        rng: random.Random,
        p_fetch_hit: float = 0.95,
        p_dcache_hit: float = 0.90,
        p_inbox_ready: float = 0.90,
        p_outbox_ready: float = 0.90,
        p_victim_dirty: float = 0.30,
        p_mem_advance: float = 0.90,
    ):
        self._rng = rng
        self.p_fetch_hit = p_fetch_hit
        self.p_dcache_hit = p_dcache_hit
        self.p_inbox_ready = p_inbox_ready
        self.p_outbox_ready = p_outbox_ready
        self.p_victim_dirty = p_victim_dirty
        self.p_mem_advance = p_mem_advance

    def fetch_hit(self) -> Optional[bool]:
        return self._rng.random() < self.p_fetch_hit

    def dcache_hit(self) -> Optional[bool]:
        return self._rng.random() < self.p_dcache_hit

    def inbox_ready(self) -> Optional[bool]:
        return self._rng.random() < self.p_inbox_ready

    def outbox_ready(self) -> Optional[bool]:
        return self._rng.random() < self.p_outbox_ready

    def victim_dirty(self) -> Optional[bool]:
        return self._rng.random() < self.p_victim_dirty

    def mem_pace(self) -> Optional[bool]:
        return self._rng.random() < self.p_mem_advance
