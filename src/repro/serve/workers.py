"""The bounded worker pool: out-of-process jobs, retries, degrade, drain.

Each worker is an asyncio task that pulls one job at a time off the
:class:`~repro.serve.queue.AdmissionQueue` and runs it in a forked child
process (:func:`~repro.serve.jobs.spawn_job_process`).  The failure
handling mirrors the enumeration worker pool's, one level up:

- a child that dies (SIGKILL, OOM, a crash) is **retried** with
  exponential backoff per :class:`~repro.resilience.RetryPolicy`; every
  retry resumes from the job's wave checkpoints, so work done before the
  kill is never repeated;
- a job whose retries are exhausted **degrades** to in-daemon execution
  (a thread), which is slower and unprotected but cannot crash-loop --
  the same ladder the enumeration worker pool uses;
- a **drain** (SIGTERM to the daemon) SIGTERMs running children, whose
  own handler checkpoints and exits ``EXIT_CHECKPOINTED``; the job is
  journalled back to ``queued`` *resumable* and the next daemon start
  picks it up where it stopped.

The per-job wall budget is measured **from first dequeue**: a job that
waited in the queue has spent none of its budget, and a retried job
resumes with only the *remaining* wall time -- crash-looping cannot
extend a budget.
"""

from __future__ import annotations

import asyncio
import logging
import time
from typing import List, Optional, Set

from repro.serve.jobs import (
    EXIT_CHECKPOINTED,
    Job,
    JobPaths,
    execute_job,
    spawn_job_process,
)

logger = logging.getLogger("repro.serve")

#: How often a worker polls its child process (and the drain flag).
_CHILD_POLL = 0.05


class WorkerPool:
    """N asyncio workers sharing the server's queue, journal and stats."""

    def __init__(self, server):
        self.server = server
        self.config = server.config
        self._tasks: List[asyncio.Task] = []
        self._drain_event = asyncio.Event()
        self._children: Set[object] = set()

    @property
    def draining(self) -> bool:
        return self._drain_event.is_set()

    def start(self) -> None:
        for index in range(self.config.workers):
            self._tasks.append(
                asyncio.create_task(self._worker(index), name=f"worker-{index}")
            )

    async def drain(self) -> None:
        """Stop taking work, checkpoint running children, wait for workers."""
        self._drain_event.set()
        for process in list(self._children):
            if process.is_alive():
                process.terminate()  # SIGTERM -> child checkpoints + exit 75
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks.clear()

    # -- the worker loop -----------------------------------------------------

    async def _worker(self, index: int) -> None:
        queue = self.server.queue
        while not self.draining:
            get_task = asyncio.ensure_future(queue.get())
            drain_task = asyncio.ensure_future(self._drain_event.wait())
            done, _ = await asyncio.wait(
                {get_task, drain_task}, return_when=asyncio.FIRST_COMPLETED
            )
            if get_task not in done:
                get_task.cancel()
                drain_task.cancel()
                break
            drain_task.cancel()
            job = get_task.result()
            if self.draining:
                # Grabbed at the drain edge: leave it queued (the journal
                # still says so) for the next daemon start.
                break
            try:
                await self._run_job(job, index)
            except Exception:  # noqa: BLE001 - a worker must never die
                logger.exception("worker %d: unexpected error on job %s",
                                 index, job.id)
                self.server.fail_job(job, "internal worker error")

    async def _run_job(self, job: Job, index: int) -> None:
        server = self.server
        retry = self.config.retry
        max_attempts = retry.max_retries + 1
        job.state = "running"
        if job.dequeued_at is None:
            job.dequeued_at = time.time()
        paths = server.paths_for(job.id).ensure()
        attempt_here = 0
        while True:
            attempt_here += 1
            job.attempts += 1
            resume = job.resumable or attempt_here > 1
            wall_remaining = job.wall_remaining()
            if self.config.execution == "process":
                exitcode = await self._attempt_in_process(
                    job, paths, wall_remaining, resume
                )
            else:
                exitcode = await self._attempt_inline(
                    job, paths, wall_remaining, resume
                )
            if exitcode == 0:
                result = paths.load_result()
                if result is not None:
                    server.complete_job(job, result)
                    return
                exitcode = -1  # clean exit but no result: treat as a crash
            if exitcode == EXIT_CHECKPOINTED:
                # Drain interruption: checkpointed, back to the queue (on
                # disk only -- the daemon is exiting).
                server.requeue_job(job, reason="drain")
                return
            error = paths.load_error() or f"worker process exited {exitcode}"
            if attempt_here < max_attempts:
                server.note_retry(job, attempt_here, error)
                job.resumable = paths.has_resumable_checkpoint()
                await asyncio.sleep(retry.backoff(attempt_here))
                if self.draining:
                    server.requeue_job(job, reason="drain")
                    return
                continue
            # Retries exhausted: degrade to in-daemon execution, the
            # attempt of last resort (slower, but SIGKILL-proof).
            if self.config.execution == "process" and self.config.degrade_inline:
                server.note_degraded(job)
                exitcode = await self._attempt_inline(
                    job, paths, job.wall_remaining(),
                    paths.has_resumable_checkpoint(),
                )
                if exitcode == 0:
                    result = paths.load_result()
                    if result is not None:
                        server.complete_job(job, result)
                        return
                error = paths.load_error() or error
            server.fail_job(job, error)
            return

    async def _attempt_in_process(
        self, job: Job, paths: JobPaths,
        wall_remaining: Optional[float], resume: bool,
    ) -> int:
        process = spawn_job_process(
            job, paths, self.config.cache_dir, wall_remaining, resume
        )
        self._children.add(process)
        job.worker_pid = process.pid
        self.server.note_started(job, mode="process")
        started = time.monotonic()
        terminated = False
        killed = False
        try:
            while process.is_alive():
                if self.draining and not terminated:
                    process.terminate()
                    terminated = True
                timeout = self.config.job_timeout
                if (timeout is not None and not killed
                        and time.monotonic() - started > timeout):
                    logger.warning("job %s attempt timed out after %.1fs; "
                                   "killing worker", job.id, timeout)
                    process.kill()
                    killed = True
                await asyncio.sleep(_CHILD_POLL)
            process.join()
            return process.exitcode if process.exitcode is not None else -1
        finally:
            self._children.discard(process)
            job.worker_pid = None

    async def _attempt_inline(
        self, job: Job, paths: JobPaths,
        wall_remaining: Optional[float], resume: bool,
    ) -> int:
        self.server.note_started(job, mode="inline")

        def _run() -> int:
            try:
                execute_job(
                    job.to_dict(), paths, self.config.cache_dir,
                    wall_remaining, resume,
                )
                return 0
            except BaseException as exc:  # noqa: BLE001
                import json

                from repro.resilience.atomic import atomic_write_text

                try:
                    atomic_write_text(
                        paths.error,
                        json.dumps({"error": f"{type(exc).__name__}: {exc}"}),
                    )
                except OSError:
                    pass
                return 1

        return await asyncio.to_thread(_run)
