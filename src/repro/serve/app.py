"""The ``repro serve`` daemon: asyncio HTTP server over the job machinery.

Stdlib only -- a deliberately small, handwritten HTTP/1.1 layer on
``asyncio.start_server`` (every response is ``Connection: close``; the
service's unit of work is a job, not a connection).  The server owns the
in-memory job table and wires the durable pieces together:

- every externally visible transition goes **journal first**
  (:class:`~repro.serve.journal.JobJournal` fsyncs before the HTTP
  response leaves), so a SIGKILLed daemon replays to exactly the state
  clients were told about;
- on startup the journal is replayed and interrupted jobs re-enter the
  queue *resumable* (:func:`~repro.serve.journal.recover_jobs`);
- admission control maps a full queue -- or an RSS above the configured
  memory budget -- to ``429`` + ``Retry-After``;
- ``SIGTERM`` / ``POST /drain`` triggers the graceful sequence: stop
  admitting (``503``), SIGTERM running children (they checkpoint and
  exit), journal ``drain_complete``, exit ``0``.

HTTP surface
------------
- ``POST /jobs``            submit (``202``; ``200`` on dedup; ``429`` shed;
  ``503`` draining; ``400`` bad spec)
- ``GET /jobs``             job summaries + queue stats
- ``GET /jobs/<id>``        full job document
- ``GET /jobs/<id>/result`` the result (``409`` until terminal)
- ``GET /jobs/<id>/events`` live SSE: heartbeats + state transitions
- ``DELETE /jobs/<id>``     cancel a *queued* job (``409`` if running)
- ``GET /healthz``, ``GET /stats``, ``POST /drain``
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
import re
import signal
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Set, Tuple

from repro.resilience import RetryPolicy
from repro.resilience.atomic import atomic_write_text
from repro.obs.progress import tail_heartbeats
from repro.obs.resource import current_rss_mb
from repro.serve.jobs import Job, JobPaths, JobSpecError
from repro.serve.journal import (
    JobJournal,
    read_journal,
    recover_jobs,
    replay_journal,
)
from repro.serve.queue import AdmissionQueue, QueueFull
from repro.serve.sse import POLL_INTERVAL, SSE_CONTENT_TYPE, format_event
from repro.serve.workers import WorkerPool

logger = logging.getLogger("repro.serve")

#: Largest request body the server will read (a job spec is ~1 KB).
MAX_BODY_BYTES = 1 << 20

_STATUS_TEXT = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}

_JOB_PATH = re.compile(r"^/jobs/([0-9a-f]{16})(/result|/events)?$")


@dataclass
class ServeConfig:
    """Everything ``repro serve`` needs to run (CLI flags map 1:1)."""

    host: str = "127.0.0.1"
    port: int = 0
    state_dir: str = ".repro-serve"
    workers: int = 2
    max_pending: int = 64
    #: Shed new work (429) while daemon RSS exceeds this many MiB.
    memory_budget_mb: Optional[float] = None
    #: "process" forks a child per attempt (the real daemon); "inline"
    #: runs jobs in a thread (benchmarks, platforms without fork).
    execution: str = "process"
    #: Per-attempt hard timeout; a child exceeding it is killed and the
    #: attempt counts as a crash (then retry policy applies).
    job_timeout: Optional[float] = None
    retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(max_retries=2, backoff_seconds=0.2)
    )
    #: After retries are exhausted, run one last attempt in-daemon.
    degrade_inline: bool = True
    cache_dir: Optional[str] = None
    #: Where to write the bound port (for --port 0 orchestration).
    port_file: Optional[str] = None

    def __post_init__(self) -> None:
        if self.execution not in ("process", "inline"):
            raise ValueError(f"unknown execution mode {self.execution!r}")
        if self.cache_dir is None:
            self.cache_dir = str(Path(self.state_dir) / "cache")


class ValidationServer:
    """The daemon: job table + queue + worker pool + journal + HTTP."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self.state_dir = Path(config.state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.draining = False
        self.started_at = time.time()
        self.stats: Dict[str, int] = {
            "submitted": 0, "deduplicated": 0, "completed": 0, "failed": 0,
            "retried": 0, "degraded": 0, "shed": 0, "cancelled": 0,
            "recovered": 0,
        }
        # A restarted daemon may hold code digests memoized by a parent
        # process from *before* the deploy that restarted it (fork-based
        # supervisors re-exec nothing).  Refresh them before replaying the
        # journal so every recovered job keys against the code actually
        # on disk -- a stale digest would silently serve pre-deploy
        # artifacts to post-deploy jobs.
        from repro.core.cache import refresh_phase_code_versions

        refresh_phase_code_versions()
        # Crash recovery: fold the journal back into the job table, then
        # requeue whatever was queued or running when the last daemon
        # died.  Running jobs come back *resumable* -- their wave
        # checkpoints are on disk.
        records, dropped = read_journal(self.journal_path)
        self.jobs: Dict[str, Job] = replay_journal(records)
        requeue = recover_jobs(self.jobs)
        self.journal = JobJournal(self.journal_path)
        self.journal.append(
            "serve_start", pid=os.getpid(),
            recovered=len(requeue), dropped_tail_lines=dropped,
        )
        self.queue = AdmissionQueue(config.max_pending)
        for job in requeue:
            if job.resumable:
                self.journal.append("requeued", job.id, reason="recovery",
                                    resumable=True)
                self.stats["recovered"] += 1
            self.queue.push(job, force=True)
        if requeue:
            self.journal.append("recovered", count=len(requeue))
        self.pool = WorkerPool(self)
        self._server: Optional[asyncio.AbstractServer] = None
        self._sse_tasks: Set[asyncio.Task] = set()
        self._drain_task: Optional[asyncio.Task] = None
        self.port: Optional[int] = None

    # -- paths ---------------------------------------------------------------

    @property
    def journal_path(self) -> Path:
        return self.state_dir / "journal.jsonl"

    def paths_for(self, job_id: str) -> JobPaths:
        return JobPaths.for_job(self.state_dir, job_id)

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.config.port_file:
            atomic_write_text(Path(self.config.port_file), f"{self.port}\n")
        self.pool.start()

    def begin_drain(self) -> asyncio.Task:
        """Idempotent drain kick-off; every caller awaits the same task."""
        if self._drain_task is None:
            self._drain_task = asyncio.get_running_loop().create_task(
                self._drain()
            )
        return self._drain_task

    async def drain(self) -> None:
        await self.begin_drain()

    async def _drain(self) -> None:
        """Graceful shutdown: stop admitting, checkpoint, flush, close."""
        self.draining = True
        self.journal.append("drain_begin", pid=os.getpid())
        await self.pool.drain()
        if self._sse_tasks:
            # SSE loops notice ``draining`` within one poll; give them
            # a bounded window to say goodbye, then cut them off.
            try:
                await asyncio.wait_for(
                    asyncio.gather(*self._sse_tasks, return_exceptions=True),
                    timeout=3 * POLL_INTERVAL + 1.0,
                )
            except asyncio.TimeoutError:
                for task in self._sse_tasks:
                    task.cancel()
        self.journal.append("drain_complete", pid=os.getpid())
        self.journal.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    # -- transitions the worker pool drives (journal first, then memory) -----

    def note_started(self, job: Job, mode: str) -> None:
        self.journal.append(
            "started", job.id, attempt=job.attempts, worker_pid=job.worker_pid,
            mode=mode, dequeued_at=job.dequeued_at, resume=job.resumable,
        )

    def note_retry(self, job: Job, attempt: int, error: str) -> None:
        self.stats["retried"] += 1
        self.journal.append("requeued", job.id, reason="retry",
                            attempt=attempt, error=error, resumable=True)

    def note_degraded(self, job: Job) -> None:
        job.degraded = True
        self.stats["degraded"] += 1
        self.journal.append("degraded", job.id, attempt=job.attempts)

    def complete_job(self, job: Job, result: Dict[str, Any]) -> None:
        job.result = result
        job.error = None
        job.finished_at = time.time()
        self.journal.append("completed", job.id, result=result,
                            attempts=job.attempts)
        job.state = "done"
        self.stats["completed"] += 1
        if job.dequeued_at is not None:
            self.queue.record_duration(job.finished_at - job.dequeued_at)

    def fail_job(self, job: Job, error: str) -> None:
        job.error = error
        job.finished_at = time.time()
        self.journal.append("failed", job.id, error=error,
                            attempts=job.attempts)
        job.state = "failed"
        self.stats["failed"] += 1
        if job.dequeued_at is not None:
            self.queue.record_duration(job.finished_at - job.dequeued_at)

    def requeue_job(self, job: Job, reason: str) -> None:
        job.resumable = True
        job.worker_pid = None
        self.journal.append("requeued", job.id, reason=reason, resumable=True)
        job.state = "queued"
        if reason != "drain":
            self.queue.push(job, force=True)

    # -- HTTP plumbing -------------------------------------------------------

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        try:
            try:
                request = await asyncio.wait_for(self._read_request(reader),
                                                 timeout=10.0)
            except (asyncio.IncompleteReadError, asyncio.LimitOverrunError,
                    asyncio.TimeoutError, ValueError):
                return
            if request is None:
                return
            method, path, body = request
            if method == "GET" and _JOB_PATH.match(path) and \
                    path.endswith("/events"):
                await self._handle_sse(writer, path)
                return
            status, doc, headers = self._route(method, path, body)
            self._write_response(writer, status, doc, headers)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        except Exception:  # noqa: BLE001 - one bad connection, not the daemon
            logger.exception("error handling request")
            try:
                self._write_response(writer, 500, {"error": "internal error"})
                await writer.drain()
            except OSError:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, bytes]]:
        header_blob = await reader.readuntil(b"\r\n\r\n")
        head, _, _ = header_blob.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3:
            return None
        method, target = parts[0].upper(), parts[1]
        path = target.split("?", 1)[0]
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or 0)
        if length > MAX_BODY_BYTES:
            raise ValueError("body too large")
        body = await reader.readexactly(length) if length else b""
        return method, path, body

    def _write_response(self, writer: asyncio.StreamWriter, status: int,
                        doc: Dict[str, Any],
                        headers: Optional[Dict[str, str]] = None) -> None:
        payload = json.dumps(doc, default=repr).encode()
        head = [
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(payload)}",
            "Connection: close",
        ]
        for name, value in (headers or {}).items():
            head.append(f"{name}: {value}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + payload)

    # -- routing -------------------------------------------------------------

    def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, Any], Optional[Dict[str, str]]]:
        if path == "/jobs" and method == "POST":
            return self._submit(body)
        if path == "/jobs" and method == "GET":
            return 200, {
                "jobs": [job.summary() for job in self.jobs.values()],
                "queue": self._queue_stats(),
            }, None
        if path == "/healthz" and method == "GET":
            return 200, {"ok": True, "draining": self.draining,
                         "pid": os.getpid(), "port": self.port}, None
        if path == "/stats" and method == "GET":
            return 200, self._stats_doc(), None
        if path == "/drain" and method == "POST":
            self.begin_drain()
            return 202, {"draining": True}, None
        match = _JOB_PATH.match(path)
        if match:
            job = self.jobs.get(match.group(1))
            if job is None:
                return 404, {"error": f"unknown job {match.group(1)!r}"}, None
            suffix = match.group(2)
            if suffix is None and method == "GET":
                return 200, job.to_dict(), None
            if suffix is None and method == "DELETE":
                return self._cancel(job)
            if suffix == "/result" and method == "GET":
                return self._result(job)
        return 405, {"error": f"no route for {method} {path}"}, None

    def _submit(
        self, body: bytes
    ) -> Tuple[int, Dict[str, Any], Optional[Dict[str, str]]]:
        if self.draining:
            return 503, {"error": "draining; resubmit to the next daemon"}, None
        try:
            job = Job.from_submission(json.loads(body.decode() or "{}"))
        except ValueError as exc:
            # JobSpecError and plain JSON decode errors both land here.
            kind = "invalid job spec" if isinstance(exc, JobSpecError) \
                else "invalid JSON"
            return 400, {"error": f"{kind}: {exc}"}, None
        existing = self.jobs.get(job.id)
        if existing is not None and existing.state not in ("failed", "cancelled"):
            # Content-addressed dedup: same kind+params+budget IS the
            # same job.  (failed/cancelled jobs may be resubmitted.)
            self.stats["deduplicated"] += 1
            return 200, {"job_id": existing.id, "state": existing.state,
                         "deduplicated": True}, None
        if self.config.memory_budget_mb is not None:
            rss = current_rss_mb()
            if rss is not None and rss > self.config.memory_budget_mb:
                self.stats["shed"] += 1
                retry_after = self.queue.retry_after(self.config.workers)
                return 429, {
                    "error": f"memory budget exceeded (rss={rss:.0f} MiB)",
                    "retry_after": retry_after,
                }, {"Retry-After": str(retry_after)}
        try:
            position = self.queue.push(job, workers=self.config.workers)
        except QueueFull as exc:
            self.stats["shed"] += 1
            return 429, {
                "error": str(exc), "pending": exc.pending,
                "retry_after": exc.retry_after,
            }, {"Retry-After": str(exc.retry_after)}
        # Journal before the 202 leaves: once a client has been told
        # "accepted", a crash must not forget the job.
        self.jobs[job.id] = job
        self.stats["submitted"] += 1
        self.journal.append(
            "submitted", job.id,
            job={"id": job.id, "kind": job.kind, "params": job.params,
                 "priority": job.priority, "budget": job.budget,
                 "submitted_at": job.submitted_at},
        )
        return 202, {"job_id": job.id, "state": "queued",
                     "position": position, "deduplicated": False}, None

    def _cancel(
        self, job: Job
    ) -> Tuple[int, Dict[str, Any], Optional[Dict[str, str]]]:
        if job.terminal:
            return 200, {"job_id": job.id, "state": job.state}, None
        if not self.queue.cancel(job.id):
            return 409, {"error": f"job {job.id} is {job.state}; only queued "
                                  "jobs can be cancelled"}, None
        job.finished_at = time.time()
        self.journal.append("cancelled", job.id)
        job.state = "cancelled"
        self.stats["cancelled"] += 1
        return 200, {"job_id": job.id, "state": "cancelled"}, None

    def _result(
        self, job: Job
    ) -> Tuple[int, Dict[str, Any], Optional[Dict[str, str]]]:
        if job.state == "done":
            result = job.result or self.paths_for(job.id).load_result()
            return 200, {"job_id": job.id, "result": result}, None
        if job.state == "failed":
            return 200, {"job_id": job.id, "state": "failed",
                         "error": job.error}, None
        return 409, {"job_id": job.id, "state": job.state,
                     "error": "job not finished"}, None

    def _queue_stats(self) -> Dict[str, Any]:
        return {
            "pending": len(self.queue),
            "max_pending": self.queue.max_pending,
            "shed": self.queue.shed_count,
            "retry_after": self.queue.retry_after(self.config.workers),
        }

    def _stats_doc(self) -> Dict[str, Any]:
        rss = current_rss_mb()
        return {
            "pid": os.getpid(),
            "uptime_seconds": time.time() - self.started_at,
            "draining": self.draining,
            "workers": self.config.workers,
            "jobs": len(self.jobs),
            "rss_mb": rss,
            "queue": self._queue_stats(),
            "counters": dict(self.stats),
        }

    # -- SSE -----------------------------------------------------------------

    async def _handle_sse(self, writer: asyncio.StreamWriter,
                          path: str) -> None:
        job = self.jobs.get(_JOB_PATH.match(path).group(1))
        if job is None:
            self._write_response(writer, 404, {"error": "unknown job"})
            await writer.drain()
            return
        head = (
            "HTTP/1.1 200 OK\r\n"
            f"Content-Type: {SSE_CONTENT_TYPE}\r\n"
            "Cache-Control: no-cache\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode())
        task = asyncio.current_task()
        self._sse_tasks.add(task)
        try:
            await self._stream_events(writer, job)
        finally:
            self._sse_tasks.discard(task)

    async def _stream_events(self, writer: asyncio.StreamWriter,
                             job: Job) -> None:
        heartbeat_path = str(self.paths_for(job.id).heartbeats)
        offset = 0
        last_state: Optional[str] = None
        while True:
            if job.state != last_state:
                writer.write(format_event("state", job.summary()))
                last_state = job.state
            records, offset = tail_heartbeats(heartbeat_path, offset)
            for record in records:
                writer.write(format_event("heartbeat", record))
            await writer.drain()
            if job.terminal:
                writer.write(format_event("done", job.summary()))
                await writer.drain()
                return
            if self.draining:
                writer.write(format_event(
                    "drain", {"job_id": job.id, "state": job.state}
                ))
                await writer.drain()
                return
            await asyncio.sleep(POLL_INTERVAL)


def run_server(config: ServeConfig) -> int:
    """Run the daemon until SIGTERM/SIGINT, then drain; the CLI entry."""

    async def _main() -> None:
        server = ValidationServer(config)
        await server.start()
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, ValueError):  # pragma: no cover
                signal.signal(signum, lambda *_: stop.set())
        print(f"repro serve: listening on {config.host}:{server.port} "
              f"(pid {os.getpid()}, state {config.state_dir})", flush=True)
        drain_watch = asyncio.ensure_future(stop.wait())
        # /drain can also initiate shutdown; wake up when either happens.
        while not stop.is_set() and not server.draining:
            await asyncio.wait({drain_watch}, timeout=0.2)
        drain_watch.cancel()
        print("repro serve: draining", file=sys.stderr, flush=True)
        await server.drain()

    asyncio.run(_main())
    return 0
