"""A persistent, crash-recovering worker pool shared across pipeline phases.

:class:`WorkerPool` is the shared substrate of every batch phase: one
pool object per pipeline, living across BFS waves *and* across phases
(enumeration's span executor, vector generation, trace comparison), with
one retry/respawn/degrade policy so every phase gets crash recovery.
Paying spawn once per pipeline, not per call or per wave, is what keeps
small runs from inverting the speedup.

It is also each phase's only dispatch path: a pool that cannot fork
(``WorkerPool(1)``, closed, degraded) runs :meth:`WorkerPool.imap_tasks`
in-process, in payload order, as the caller consumes the results, so a
phase keeps one loop whatever the job count (see :func:`batch_pool`).

Process model: **fork inheritance with context generations.**  Models,
kernels and vector generators hold closures that do not pickle, so
workers inherit them through fork copy-on-write from module globals the
coordinator publishes before dispatch (comparison needs none: its small
core config travels in every chunk).  Each such phase publishes its
globals and declares a *context tag* (:meth:`WorkerPool.set_context`);
while the tag is unchanged, dispatches reuse the live workers (warm
kernel tables and transition memos, zero spawn cost -- the common case:
every wave of an enumeration, every chunk of a vector phase, repeated
runs against the same model).  When the tag changes, the pool
retires its workers and lazily re-forks on the next dispatch, so the new
generation inherits the new phase's globals without pickling a byte --
re-forking from the live coordinator is strictly cheaper than
broadcasting a multi-hundred-megabyte state graph through pipes.

Crash recovery (same contract the chaos suite has always enforced): a
dead worker (``BrokenProcessPool``), a wedged one (no completion within
the policy timeout) or a torn result pipe retires the generation, backs
off, re-forks, and resubmits every uncollected task.  Tasks are pure,
so retries cannot change results.  Past the retry budget the pool
*degrades*: every remaining task of every phase runs in-process in the
coordinator -- slower, never wrong, cannot crash-loop.

Lifecycle observability: ``enum.pool.spawns`` / ``enum.pool.reuse_hits``
/ ``enum.pool.dispatch_bytes`` counters and a ``pool`` span around each
worker-generation spawn make the dispatch overhead visible in
``repro report``.

Test seam: workers are built by this module's ``ProcessPoolExecutor``
(looked up at call time), so tests intercept pool creation by
monkeypatching ``repro.enumeration.pool.ProcessPoolExecutor``.
"""

from __future__ import annotations

import concurrent.futures
import logging
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from repro.obs.observer import Observer, resolve
from repro.resilience.retry import RetryPolicy

logger = logging.getLogger("repro.enumeration")

#: Exceptions that mean "the task did not come back, retry it" -- a dead
#: worker (BrokenProcessPool, raised immediately), a wedged one (timeout),
#: or a torn result pipe.  Anything else is a genuine error and propagates.
TASK_FAILURES = (
    BrokenProcessPool,
    concurrent.futures.TimeoutError,
    TimeoutError,
    EOFError,
    OSError,
)

#: True only inside forked pool workers; lets worker-targeted fault hooks
#: (and worker-only bookkeeping) stay inert during in-process execution.
_IN_POOL_WORKER = False


def _init_pool_worker() -> None:
    global _IN_POOL_WORKER
    _IN_POOL_WORKER = True


def in_worker() -> bool:
    """Whether the calling process is a forked pool worker."""
    return _IN_POOL_WORKER


def _default_executor_factory(**kwargs: Any):
    # Looked up at call time so this module's ``ProcessPoolExecutor``
    # stays the single interception point for pool creation.
    return ProcessPoolExecutor(**kwargs)


def batch_pool(pool: Optional["WorkerPool"], tasks: int) -> "WorkerPool":
    """``pool`` when it can spread ``tasks`` tasks across workers, else a
    ``WorkerPool(1)``, which runs them in-process and never forks."""
    if pool is not None and pool.available and tasks > 1:
        return pool
    return WorkerPool(1)


class WorkerPool:
    """Long-lived fork-worker pool with context generations.

    Parameters
    ----------
    jobs:
        Worker process count.  ``jobs <= 1`` (or a platform without the
        ``fork`` start method) makes the pool permanently unavailable:
        every dispatch runs in-process, so callers never need a
        separate sequential code path.
    policy:
        :class:`~repro.resilience.RetryPolicy` governing retry counts,
        backoff and the per-dispatch stall timeout.
    executor_factory:
        Callable building the underlying executor (tests inject
        tripwires/stubs); defaults to ``ProcessPoolExecutor``.
    """

    def __init__(
        self,
        jobs: int,
        policy: Optional[RetryPolicy] = None,
        executor_factory: Optional[Callable[..., Any]] = None,
        obs: Optional[Observer] = None,
    ):
        self.jobs = max(1, int(jobs))
        self.policy = policy or RetryPolicy()
        self.obs = resolve(obs)
        self._factory = executor_factory or _default_executor_factory
        self._executor = None
        self._context_tag: Any = None
        self._closed = False
        #: Worker generations forked (first spawn and every respawn).
        self.spawns = 0
        #: Dispatch rounds served by an already-live generation.
        self.reuse_hits = 0
        #: Coordinator->worker bytes shipped (shared-memory + payloads),
        #: as reported by callers via :meth:`note_dispatch`.
        self.dispatch_bytes = 0
        #: Task retries after worker failures (all phases).
        self.tasks_retried = 0
        #: Generation respawns forced by worker failures.
        self.respawns = 0
        #: Sticky: retry budget was spent; everything now runs in-process.
        self.degraded = False

    # -- lifecycle ---------------------------------------------------------

    @property
    def closed(self) -> bool:
        """Whether :meth:`shutdown` has been called."""
        return self._closed

    @property
    def available(self) -> bool:
        """Whether dispatching to worker processes is possible at all."""
        return (
            not self._closed
            and not self.degraded
            and self.jobs > 1
            and "fork" in multiprocessing.get_all_start_methods()
        )

    def set_context(self, tag: Any) -> None:
        """Declare the phase context for subsequent dispatches.

        Callers publish their fork-inherited module globals *first*,
        then set the tag.  An unchanged tag keeps the live workers (they
        already inherited equivalent globals); a changed tag retires the
        generation so the next dispatch re-forks and inherits the new
        globals.
        """
        if tag != self._context_tag:
            self.retire()
            self._context_tag = tag

    def _ensure(self):
        if self._executor is None:
            with self.obs.span(
                "pool", event="spawn", jobs=self.jobs,
                generation=self.spawns + 1,
            ):
                self._executor = self._factory(
                    max_workers=self.jobs,
                    mp_context=multiprocessing.get_context("fork"),
                    initializer=_init_pool_worker,
                )
            self.spawns += 1
            self.obs.inc("enum.pool.spawns")
        else:
            self.reuse_hits += 1
            self.obs.inc("enum.pool.reuse_hits")
        return self._executor

    def note_dispatch(self, nbytes: int) -> None:
        """Record coordinator->worker payload bytes for this dispatch."""
        self.dispatch_bytes += int(nbytes)
        self.obs.inc("enum.pool.dispatch_bytes", int(nbytes))

    def retire(self) -> None:
        """Kill the current worker generation (if any), keeping the pool.

        Used on context switches, failure recovery, early stops and
        shutdown; any still-running (wedged) workers are terminated.
        The next dispatch re-forks lazily.
        """
        executor, self._executor = self._executor, None
        if executor is None:
            return
        try:
            executor.shutdown(wait=False, cancel_futures=True)
        except Exception:  # a broken pool can throw during teardown
            pass
        procs = list((getattr(executor, "_processes", None) or {}).values())
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            proc.join(timeout=1.0)

    def shutdown(self) -> None:
        """Retire the workers and refuse further worker dispatch."""
        self._closed = True
        self.retire()

    def recovery_snapshot(self) -> Tuple[int, int]:
        """(tasks_retried, respawns) -- diff around a run for its stats."""
        return self.tasks_retried, self.respawns

    # -- dispatch ----------------------------------------------------------

    def run_tasks(
        self,
        fn: Callable[[Any, int], Any],
        payloads: Sequence[Any],
        timeout: Optional[float] = None,
    ) -> List[Any]:
        """Run ``fn(payload, attempt)`` for every payload; ordered results.

        Blocks until the whole batch is complete (the wave barrier).
        Failure handling is per :meth:`imap_tasks`.
        """
        results: List[Any] = [None] * len(payloads)
        for index, result in self.imap_tasks(fn, payloads, timeout=timeout):
            results[index] = result
        return results

    def imap_tasks(
        self,
        fn: Callable[[Any, int], Any],
        payloads: Sequence[Any],
        timeout: Optional[float] = None,
    ) -> Iterator[Tuple[int, Any]]:
        """Run ``fn(payload, attempt)`` across the pool; yield unordered.

        Yields ``(payload_index, result)`` as completions arrive.  Every
        failure event (:data:`TASK_FAILURES`) retires the generation,
        backs off, re-forks and resubmits the uncollected payloads; past
        ``policy.max_retries`` the pool degrades and runs the remainder
        in-process.  Genuine task exceptions propagate unretried.

        ``timeout`` bounds the wait for *some* completion (stall
        detection); ``None`` waits forever -- right for phases whose
        task duration is unbounded, which still get dead-worker
        recovery because ``BrokenProcessPool`` is raised immediately.
        """
        payloads = list(payloads)
        if not payloads:
            return
        if not self.available:
            for index, payload in enumerate(payloads):
                yield index, fn(payload, 0)
            return
        retries = [0] * len(payloads)
        collected = set()
        while len(collected) < len(payloads):
            pending = [i for i in range(len(payloads)) if i not in collected]
            futures = {}
            failure: Optional[BaseException] = None
            try:
                executor = self._ensure()
                for i in pending:
                    futures[executor.submit(fn, payloads[i], retries[i])] = i
                remaining = set(futures)
                while remaining:
                    done, remaining = concurrent.futures.wait(
                        remaining,
                        timeout=timeout,
                        return_when=concurrent.futures.FIRST_COMPLETED,
                    )
                    if not done:
                        raise concurrent.futures.TimeoutError(
                            f"no task completed within {timeout}s"
                        )
                    for future in done:
                        index = futures[future]
                        result = future.result()
                        collected.add(index)
                        yield index, result
            except TASK_FAILURES as exc:
                failure = exc
            finally:
                for future in futures:
                    future.cancel()
            if failure is None:
                break
            uncollected = [i for i in range(len(payloads)) if i not in collected]
            for i in uncollected:
                retries[i] += 1
            self.tasks_retried += len(uncollected)
            self.obs.inc("enum.shards_retried", len(uncollected))
            self.retire()
            worst = max(retries[i] for i in uncollected)
            if worst > self.policy.max_retries:
                self.degraded = True
                self.obs.inc("enum.degraded_waves")
                logger.warning(
                    "task failed %d times (%s: %s); retry budget spent -- "
                    "degrading to in-process execution",
                    worst, type(failure).__name__, failure,
                )
                for i in uncollected:
                    collected.add(i)
                    yield i, fn(payloads[i], retries[i])
                break
            delay = self.policy.backoff(worst)
            logger.warning(
                "worker task failed (%s: %s); respawning pool and retrying "
                "%d task(s) in %.2fs",
                type(failure).__name__, failure, len(uncollected), delay,
            )
            time.sleep(delay)
            self.respawns += 1
            self.obs.inc("enum.pool_respawns")
