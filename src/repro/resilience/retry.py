"""Retry policy for shard expansion on a crashed or wedged worker pool."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class RetryPolicy:
    """How the worker pool reacts to a failed task (a wave's packed span).

    A shard *fails* when its worker dies (the pool turns up broken) or
    when its result does not arrive within ``shard_timeout`` seconds (a
    wedged or poisoned worker).  Every failure event retires the current
    pool, waits an exponentially growing backoff, respawns the pool, and
    resubmits every not-yet-collected shard of the wave.  A shard that
    fails more than ``max_retries`` times tips the whole run into
    *degraded mode*: the remaining shards and waves are expanded
    in-process by the coordinator, which is slower but cannot crash-loop
    -- and, because expansion is pure, produces identical results.
    """

    #: Retries per shard after its first attempt, before degrading.
    max_retries: int = 2
    #: First backoff delay; doubles per retry (``backoff_multiplier``).
    backoff_seconds: float = 0.05
    backoff_multiplier: float = 2.0
    backoff_max: float = 2.0
    #: Per-shard result deadline; ``None`` waits forever (not recommended).
    shard_timeout: Optional[float] = 60.0

    def backoff(self, retry_number: int) -> float:
        """Delay before retry ``retry_number`` (1-based)."""
        delay = self.backoff_seconds * (
            self.backoff_multiplier ** max(0, retry_number - 1)
        )
        return min(delay, self.backoff_max)
