"""Resilience layer: checkpoint/resume, crash recovery, budgets, fault injection.

The methodology's long breadth-first enumerations (the PP control model
explores hundreds of thousands of states) and multi-hour comparison
campaigns must survive worker crashes, OOM kills and Ctrl-C.  This
package supplies the pieces the enumeration engine and the pipeline
thread together:

- :mod:`repro.resilience.checkpoint` -- atomic on-disk snapshots of the
  BFS coordinator state (:class:`CheckpointStore`), written at wave
  boundaries and resumable to a bit-identical final graph;
- :mod:`repro.resilience.budget` -- :class:`Budget` limits (wall clock,
  memory, states) enforced at wave boundaries, degrading to a usable
  *partial* graph flagged ``truncated`` instead of losing the run;
- :mod:`repro.resilience.retry` -- :class:`RetryPolicy` for dead or
  wedged pool workers: per-shard timeouts, exponential backoff, pool
  respawn, and graceful degradation to in-process expansion;
- :mod:`repro.resilience.faults` -- a deterministic, seeded
  :class:`FaultPlan` that can kill a worker, stall a shard, deliver
  SIGINT at a wave boundary, or corrupt on-disk artifacts -- the chaos
  harness ``tests/test_resilience.py`` uses to prove every recovery path;
- :mod:`repro.resilience.atomic` -- temp-file + ``os.replace`` writers so
  an interrupted run never leaves a truncated JSON artifact behind.
"""

from repro.resilience.atomic import atomic_write_bytes, atomic_write_text
from repro.resilience.budget import Budget, BudgetMeter
from repro.resilience.checkpoint import (
    CHECKPOINT_SCHEMA,
    CheckpointConfig,
    CheckpointError,
    CheckpointStore,
    build_payload,
    model_digest,
    resolve_resume,
)
from repro.resilience.faults import FaultPlan, corrupt_file
from repro.resilience.retry import RetryPolicy
from repro.resilience.signals import install_term_to_interrupt, restore_term_handler

__all__ = [
    "atomic_write_bytes",
    "atomic_write_text",
    "Budget",
    "BudgetMeter",
    "CHECKPOINT_SCHEMA",
    "CheckpointConfig",
    "CheckpointError",
    "CheckpointStore",
    "build_payload",
    "model_digest",
    "resolve_resume",
    "FaultPlan",
    "corrupt_file",
    "RetryPolicy",
    "install_term_to_interrupt",
    "restore_term_handler",
]
