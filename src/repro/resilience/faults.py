"""Deterministic fault injection for the enumeration harness itself.

A :class:`FaultPlan` scripts failures at exact, reproducible points so the
chaos suite (``tests/test_resilience.py``) can prove every recovery path:

- **kill a worker** expanding packed span S of wave W (``os._exit``
  inside the forked worker -- indistinguishable from an OOM kill);
- **stall a span** past the coordinator's per-span timeout;
- **deliver SIGINT** to the coordinator at a wave boundary, after the
  checkpoint for that boundary is written (a scripted Ctrl-C);
- **corrupt on-disk artifacts** (cache pickles, manifests, checkpoints)
  with a seeded byte-flip or truncation via :func:`corrupt_file`.

Worker-side hooks fire inside
:func:`~repro.enumeration.frontier._expand_span_packed`, and only in
forked pool workers (guarded by a flag the pool initializer sets), so
in-process and degraded expansion can never kill the coordinator.  A
``(wave, span)`` target therefore only fires on a wave large enough to
be dispatched (:data:`~repro.enumeration.frontier.DISPATCH_MIN_STATES`)
in a run with ``jobs > 1``; a fault plan never changes how a wave is
expanded.  All of this is test machinery: production runs
simply pass ``faults=None`` everywhere.
"""

from __future__ import annotations

import os
import random
import signal
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple, Union


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, scripted set of failures for one enumeration run."""

    seed: int = 0
    #: Kill the worker expanding ``(wave, span)``; ``kill_attempts`` is how
    #: many successive attempts die (large values force retry exhaustion
    #: and the degraded-to-in-process path).
    kill_shard: Optional[Tuple[int, int]] = None
    kill_attempts: int = 1
    #: Stall the worker expanding ``(wave, span)`` for ``slow_seconds`` on
    #: its first ``slow_attempts`` attempts (trips the span timeout).
    slow_shard: Optional[Tuple[int, int]] = None
    slow_seconds: float = 0.0
    slow_attempts: int = 1
    #: Deliver SIGINT to the coordinator once this many waves completed
    #: (fires after that boundary's checkpoint, if any, is written).
    sigint_after_wave: Optional[int] = None
    #: Same, but SIGTERM -- a scripted ``kill``.  Only meaningful when a
    #: handler is installed (see :mod:`repro.resilience.signals`); the
    #: default disposition would terminate the process outright.
    sigterm_after_wave: Optional[int] = None
    #: Sleep this long at every wave boundary.  The serve chaos tests use
    #: it to stretch an otherwise-fast enumeration so a daemon can be
    #: killed deterministically *mid-job*, with checkpoints on disk.
    slow_every_wave: float = 0.0

    def worker_hook(self, wave: int, span: int, attempt: int) -> None:
        """Run inside a pool worker at the start of a packed span."""
        if self.slow_shard == (wave, span) and attempt < self.slow_attempts:
            time.sleep(self.slow_seconds)
        if self.kill_shard == (wave, span) and attempt < self.kill_attempts:
            os._exit(3)

    def boundary_hook(self, waves_completed: int) -> None:
        """Run by the coordinator after each wave boundary's bookkeeping."""
        if self.slow_every_wave > 0.0:
            time.sleep(self.slow_every_wave)
        if self.sigint_after_wave == waves_completed:
            if threading.current_thread() is threading.main_thread():
                # A real signal: exercises the interpreter's KeyboardInterrupt
                # delivery exactly like an operator's Ctrl-C.
                os.kill(os.getpid(), signal.SIGINT)
            else:  # pragma: no cover - signal semantics need the main thread
                raise KeyboardInterrupt
        if self.sigterm_after_wave == waves_completed:
            # A real kill: only survivable with the SIGTERM-to-interrupt
            # handler installed, which is exactly what the test asserts.
            os.kill(os.getpid(), signal.SIGTERM)


def corrupt_file(
    path: Union[str, Path],
    seed: int = 0,
    mode: str = "flip",
) -> Path:
    """Deterministically damage a file: ``flip`` a byte or ``truncate`` it.

    The seeded RNG picks the byte to flip (and the value XORed into it),
    so a chaos test corrupts the same offset on every run.
    """
    path = Path(path)
    data = bytearray(path.read_bytes())
    rng = random.Random(seed)
    if mode == "truncate":
        path.write_bytes(bytes(data[: len(data) // 2]))
    elif mode == "flip":
        if not data:
            raise ValueError(f"cannot byte-flip empty file {path}")
        index = rng.randrange(len(data))
        data[index] ^= rng.randrange(1, 256)
        path.write_bytes(bytes(data))
    else:
        raise ValueError(f"unknown corruption mode {mode!r}")
    return path
