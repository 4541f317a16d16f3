"""Unit tests for the persistent cross-phase worker pool.

The pool's contract: one fork-worker generation serves every dispatch
under an unchanged context tag (warm reuse), a changed tag retires and
lazily re-forks, failures retry against a fresh generation, a spent
retry budget degrades to in-process execution, and all of it is
observable through the ``enum.pool.*`` counters.
"""

import os
import signal
import time

import pytest

from repro.enumeration import WorkerPool
from repro.enumeration.pool import TASK_FAILURES, in_worker
from repro.obs import Observer
from repro.resilience import RetryPolicy

FAST_RETRY = RetryPolicy(max_retries=2, backoff_seconds=0.01,
                         shard_timeout=30.0)


def _double(payload, attempt):
    return payload * 2


def _pid_task(payload, attempt):
    return os.getpid()


def _suicide_first_attempt(payload, attempt):
    if attempt == 0 and in_worker():
        os.kill(os.getpid(), signal.SIGKILL)
    return payload + attempt


def _suicide_always(payload, attempt):
    if in_worker():
        os.kill(os.getpid(), signal.SIGKILL)
    return ("inline", payload, attempt)


def _boom(payload, attempt):
    raise ValueError(f"bad payload {payload}")


class TestLifecycle:
    def test_unavailable_below_two_jobs(self):
        pool = WorkerPool(1, policy=FAST_RETRY)
        assert not pool.available
        # Dispatch still works -- in-process, zero workers.
        assert pool.run_tasks(_double, [1, 2, 3]) == [2, 4, 6]
        assert pool.spawns == 0

    def test_jobs_floor(self):
        assert WorkerPool(0).jobs == 1
        assert WorkerPool(-3).jobs == 1

    def test_shutdown_refuses_worker_dispatch(self):
        pool = WorkerPool(2, policy=FAST_RETRY)
        pool.shutdown()
        assert pool.closed
        assert not pool.available
        assert pool.run_tasks(_double, [5]) == [10]  # in-process fallback

    def test_ordered_results_any_completion_order(self):
        pool = WorkerPool(2, policy=FAST_RETRY)
        try:
            pool.set_context("t")
            assert pool.run_tasks(_double, list(range(20))) == \
                [2 * i for i in range(20)]
        finally:
            pool.shutdown()


class TestContextGenerations:
    def test_same_tag_reuses_workers(self):
        pool = WorkerPool(2, policy=FAST_RETRY)
        try:
            pool.set_context(("phase", 1))
            first = set(pool.run_tasks(_pid_task, range(8)))
            spawns_after_first = pool.spawns
            pool.set_context(("phase", 1))  # unchanged: no retire
            second = set(pool.run_tasks(_pid_task, range(8)))
            assert pool.spawns == spawns_after_first == 1
            assert pool.reuse_hits >= 1
            assert first & second, "expected the same worker processes"
        finally:
            pool.shutdown()

    def test_changed_tag_reforks(self):
        pool = WorkerPool(2, policy=FAST_RETRY)
        try:
            pool.set_context(("phase", 1))
            first = set(pool.run_tasks(_pid_task, range(8)))
            pool.set_context(("phase", 2))
            second = set(pool.run_tasks(_pid_task, range(8)))
            assert pool.spawns == 2
            assert not (first & second), "retired workers must not survive"
        finally:
            pool.shutdown()

    def test_retire_then_dispatch_reforks_lazily(self):
        pool = WorkerPool(2, policy=FAST_RETRY)
        try:
            pool.set_context("t")
            pool.run_tasks(_double, [1])
            pool.retire()
            assert pool.run_tasks(_double, [2]) == [4]
            assert pool.spawns == 2
        finally:
            pool.shutdown()


class TestRecovery:
    def test_killed_worker_respawns_and_retries(self):
        obs = Observer()
        pool = WorkerPool(2, policy=FAST_RETRY, obs=obs)
        try:
            pool.set_context("t")
            results = pool.run_tasks(_suicide_first_attempt, [10, 20, 30, 40])
            # No attempt-0 task can return, so every payload completed on
            # a retry (attempt >= 1), in payload order.
            assert results == [p + 1 for p in [10, 20, 30, 40]]
            assert pool.respawns >= 1
            assert pool.tasks_retried >= 1
            assert not pool.degraded
        finally:
            pool.shutdown()

    def test_budget_exhaustion_degrades_to_in_process(self):
        pool = WorkerPool(2, policy=FAST_RETRY)
        try:
            pool.set_context("t")
            results = pool.run_tasks(_suicide_always, [7, 8])
            # Degraded execution runs in the coordinator: in_worker() is
            # False there, so the suicide branch is inert.
            assert [r[0] for r in results] == ["inline", "inline"]
            assert pool.degraded
            assert not pool.available  # sticky
            # Later dispatches stay in-process and still work.
            assert pool.run_tasks(_double, [3]) == [6]
        finally:
            pool.shutdown()

    def test_genuine_task_exception_propagates_unretried(self):
        pool = WorkerPool(2, policy=FAST_RETRY)
        try:
            pool.set_context("t")
            retried_before = pool.tasks_retried
            with pytest.raises(ValueError, match="bad payload"):
                pool.run_tasks(_boom, [1])
            assert pool.tasks_retried == retried_before
        finally:
            pool.shutdown()

    def test_recovery_snapshot_diffs(self):
        pool = WorkerPool(2, policy=FAST_RETRY)
        try:
            pool.set_context("t")
            before = pool.recovery_snapshot()
            pool.run_tasks(_suicide_first_attempt, [1, 2])
            retried, respawns = (
                after - b for after, b in
                zip(pool.recovery_snapshot(), before)
            )
            assert retried >= 1
            assert respawns >= 1
        finally:
            pool.shutdown()


class TestMetrics:
    def test_lifecycle_counters(self):
        obs = Observer()
        pool = WorkerPool(2, policy=FAST_RETRY, obs=obs)
        try:
            pool.set_context("a")
            pool.run_tasks(_double, [1])
            pool.run_tasks(_double, [2])
            pool.set_context("b")
            pool.run_tasks(_double, [3])
            pool.note_dispatch(1024)
            counters = {
                row["name"]: row["value"]
                for row in obs.metrics.snapshot()["counters"]
            }
            assert counters["enum.pool.spawns"] == 2
            assert counters["enum.pool.reuse_hits"] == 1
            assert counters["enum.pool.dispatch_bytes"] == 1024
            assert pool.dispatch_bytes == 1024
        finally:
            pool.shutdown()

    def test_spawn_emits_pool_span(self):
        obs = Observer()
        pool = WorkerPool(2, policy=FAST_RETRY, obs=obs)
        try:
            pool.set_context("t")
            pool.run_tasks(_double, [1])
            spans = [p for p in obs.phases if p.name == "pool"]
            assert spans, "expected a 'pool' span around the spawn"
            assert spans[0].attrs["event"] == "spawn"
            assert spans[0].attrs["jobs"] == 2
        finally:
            pool.shutdown()


class TestExecutorFactorySeam:
    def test_factory_injection(self):
        created = []

        class _Stub:
            def __init__(self, **kwargs):
                created.append(kwargs)

            def submit(self, fn, *args):
                import concurrent.futures

                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

            def shutdown(self, **kwargs):
                pass

        pool = WorkerPool(3, policy=FAST_RETRY,
                          executor_factory=lambda **kw: _Stub(**kw))
        try:
            pool.set_context("t")
            assert pool.run_tasks(_double, [4]) == [8]
            assert created and created[0]["max_workers"] == 3
        finally:
            pool.shutdown()


class TestCampaignPoolRouting:
    def test_campaign_compare_reuses_pipeline_pool(self, monkeypatch):
        """Campaign comparison must go through the pipeline's persistent
        pool -- the one pool every phase shares -- rather than a pool of
        its own."""
        from repro.core import pipeline as pipeline_mod
        from repro.harness.campaign import ValidationCampaign
        from repro.pp.fsm_model import PPModelConfig
        from repro.pp.rtl import CoreConfig

        campaign = ValidationCampaign(pipeline_mod.ValidationPipeline(
            model_config=PPModelConfig(fill_words=1),
            max_instructions_per_trace=300,
            jobs=2,
        ))
        try:
            seen = {}
            real = pipeline_mod.run_vector_traces

            def spy(traces, **kwargs):
                seen["pool"] = kwargs.get("pool")
                return real(traces, **kwargs)

            monkeypatch.setattr(pipeline_mod, "run_vector_traces", spy)
            campaign.run_generated(CoreConfig(mem_latency=0))
            assert seen["pool"] is campaign.pipeline.worker_pool()
            assert seen["pool"] is not None
        finally:
            campaign.pipeline.shutdown()
