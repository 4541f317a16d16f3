"""Route SIGTERM into the SIGINT-at-wave checkpoint/interrupt logic.

The enumeration engine already survives Ctrl-C: checkpoints are written
at wave boundaries *before* a ``KeyboardInterrupt`` can propagate, so an
interrupted run always leaves a resumable snapshot behind (the chaos
suite byte-compares the resumed graph against an uninterrupted one).
But ``kill <pid>`` delivers SIGTERM, whose default disposition is
immediate termination -- no ``KeyboardInterrupt``, no graceful unwind,
and (worse) no guarantee the current wave's checkpoint manifest was
written.

:func:`install_term_to_interrupt` collapses the two paths: SIGTERM is
re-raised in the main thread as ``KeyboardInterrupt``, so everything
built for Ctrl-C -- wave-boundary checkpoints, atomic artifact writers,
the CLI's "interrupted; resume with --resume" exit path -- works
identically under ``kill``.  The one-shot CLI commands and the
``repro serve`` job-runner children both install it; the daemon itself
does *not* (it owns SIGTERM for graceful drain).
"""

from __future__ import annotations

import signal
import threading
from typing import Optional


def install_term_to_interrupt() -> Optional[object]:
    """Make SIGTERM raise ``KeyboardInterrupt``, like Ctrl-C.

    Returns the previous handler (pass it to :func:`restore_term_handler`)
    or ``None`` when installation is impossible -- signal handlers can
    only be installed from the main thread, and only where SIGTERM
    exists.  Callers treat ``None`` as "nothing to undo".
    """
    if threading.current_thread() is not threading.main_thread():
        return None
    if not hasattr(signal, "SIGTERM"):  # pragma: no cover - POSIX-only repo
        return None

    def _handler(signum, frame):
        raise KeyboardInterrupt(f"terminated by signal {signum}")

    try:
        return signal.signal(signal.SIGTERM, _handler)
    except (ValueError, OSError):  # pragma: no cover - exotic embeddings
        return None


def restore_term_handler(previous: Optional[object]) -> None:
    """Undo :func:`install_term_to_interrupt` (no-op on ``None``)."""
    if previous is None:
        return
    if threading.current_thread() is not threading.main_thread():
        return
    try:
        signal.signal(signal.SIGTERM, previous)
    except (ValueError, OSError):  # pragma: no cover
        pass
