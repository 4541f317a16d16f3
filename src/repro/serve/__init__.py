"""Validation-as-a-service: the crash-tolerant ``repro serve`` daemon.

The CLI is one-shot; this package exposes the validation pipeline as a
long-running HTTP/JSON service (stdlib only: asyncio + a handwritten
HTTP/1.1 layer) whose headline property is **robustness**.  The daemon
is maintained but not grown.  Its modules:

- :mod:`repro.serve.jobs` -- the job model: kinds (enumerate / validate
  / campaign), canonical parameter normalization, content-addressed job
  ids (identical submissions collapse to one job), and the child-process
  job runner that executes a job with heartbeats, checkpoints and
  budgets;
- :mod:`repro.serve.journal` -- the durable JSONL job journal
  (``repro.job-journal/1``): every state transition is an fsync'd
  append, so a daemon killed with SIGKILL replays the journal on restart
  and resumes running jobs from their checkpoints;
- :mod:`repro.serve.queue` -- the bounded priority queue with admission
  control: saturation sheds load (HTTP 429 + ``Retry-After``) instead of
  growing without bound;
- :mod:`repro.serve.workers` -- the bounded worker pool: jobs run in
  child processes, worker crashes retry per
  :class:`~repro.resilience.RetryPolicy` then degrade to in-daemon
  execution, and SIGTERM drains gracefully (checkpoint, requeue, flush);
- :mod:`repro.serve.sse` -- Server-Sent Events streaming of the
  per-job heartbeat channel (:mod:`repro.obs.progress`);
- :mod:`repro.serve.app` -- the asyncio HTTP server tying it together,
  plus the ``repro serve`` entry point.
"""

from repro.serve.app import ServeConfig, ValidationServer, run_server
from repro.serve.jobs import (
    EXIT_CHECKPOINTED,
    JOB_KINDS,
    Job,
    JobSpecError,
    job_key,
    normalize_params,
)
from repro.serve.journal import (
    JOURNAL_SCHEMA,
    JobJournal,
    read_journal,
    recover_jobs,
    replay_journal,
    validate_journal,
)
from repro.serve.queue import AdmissionQueue, QueueFull
from repro.serve.sse import format_event, parse_sse
from repro.serve.workers import WorkerPool

__all__ = [
    "ServeConfig",
    "ValidationServer",
    "run_server",
    "EXIT_CHECKPOINTED",
    "JOB_KINDS",
    "Job",
    "JobSpecError",
    "job_key",
    "normalize_params",
    "JOURNAL_SCHEMA",
    "JobJournal",
    "read_journal",
    "recover_jobs",
    "replay_journal",
    "validate_journal",
    "AdmissionQueue",
    "QueueFull",
    "format_event",
    "parse_sse",
    "WorkerPool",
]
