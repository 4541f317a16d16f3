"""Chaos suite for the ``repro serve`` daemon.

The matrix the ISSUE demands, with *real* processes and *real* signals:

- SIGKILL a worker child mid-job: the job retries (resuming from its
  wave checkpoints) and the final artifact byte-compares against an
  undisturbed run; with retries exhausted it degrades to in-daemon
  execution instead of failing.
- SIGKILL the daemon itself, restart on the same state dir: the journal
  replays, the interrupted job resumes from its checkpoints, and the
  final graph is byte-identical.
- N concurrent submissions of the same pipeline configuration: the
  content-addressed dedup collapses identical jobs, and the artifact
  cache's single-flight lock holds distinct jobs that share a cache key
  to exactly one build.
- Saturation: a full queue sheds with 429 + ``Retry-After`` while the
  daemon keeps answering, then drains cleanly -- no hung futures, no
  unbounded queue.

Fast unit coverage of the parts (spec normalization, journal replay,
admission queue) rides along at the top.
"""

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.core.cache import ArtifactCache
from repro.enumeration import enumerate_states
from repro.pp.fsm_model import PPModelConfig, build_pp_control_model
from repro.serve import (
    AdmissionQueue,
    Job,
    JobJournal,
    JobSpecError,
    QueueFull,
    ServeConfig,
    ValidationServer,
    job_key,
    parse_sse,
    read_journal,
    recover_jobs,
    replay_journal,
    validate_journal,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Chaos knob: per-wave sleep that stretches a small-model enumeration
#: (~11 waves) long enough to kill things mid-flight, deterministically.
SLOW = {"slow_every_wave": 0.25}


@pytest.fixture(scope="module")
def golden_json():
    """What every surviving enumerate job must byte-reproduce."""
    graph, _ = enumerate_states(
        build_pp_control_model(PPModelConfig(fill_words=1))
    )
    return graph.to_json()


# ---------------------------------------------------------------------------
# Unit: job specs and identity
# ---------------------------------------------------------------------------


class TestJobSpec:
    def test_defaults_normalize_to_the_same_id(self):
        a = Job.from_submission({"kind": "enumerate"})
        b = Job.from_submission({"kind": "enumerate",
                                 "params": {"fill_words": 1}})
        assert a.id == b.id

    def test_different_params_different_id(self):
        a = Job.from_submission({"kind": "enumerate"})
        b = Job.from_submission({"kind": "enumerate",
                                 "params": {"fill_words": 2}})
        c = Job.from_submission({"kind": "enumerate",
                                 "params": {"tag": "other"}})
        assert len({a.id, b.id, c.id}) == 3

    def test_budget_is_part_of_identity(self):
        a = Job.from_submission({"kind": "campaign"})
        b = Job.from_submission({"kind": "campaign",
                                 "budget": {"wall_seconds": 60}})
        assert a.id != b.id
        assert job_key("campaign", a.params, None) == a.id

    @pytest.mark.parametrize("payload", [
        {"kind": "mystery"},
        {"kind": "enumerate", "params": {"bogus": 1}},
        {"kind": "enumerate", "params": {"kernel": "quantum"}},
        {"kind": "validate", "budget": {"cpu_seconds": 1}},
        {"kind": "enumerate", "priority": "high"},
        {"kind": "enumerate", "chaos_monkey": True},
        {"kind": "enumerate", "params": {"chaos": {"not_a_fault": 1}}},
        [1, 2, 3],
    ])
    def test_bad_specs_are_rejected(self, payload):
        with pytest.raises(JobSpecError):
            Job.from_submission(payload)

    def test_wall_budget_counts_from_dequeue_not_submit(self):
        job = Job.from_submission({"kind": "enumerate",
                                   "budget": {"wall_seconds": 10}})
        job.submitted_at = time.time() - 3600  # an hour in the queue
        assert job.wall_remaining() == 10.0
        job.dequeued_at = time.time() - 4
        assert 5.5 < job.wall_remaining() < 6.5


class TestChaosPlanReachesBuild:
    @pytest.mark.parametrize("kind", ["validate", "campaign"])
    def test_sigint_plan_interrupts_job(self, tmp_path, kind):
        """Every pipeline-building kind hands its ``chaos`` plan to the
        build: a SIGINT after wave 1 interrupts the job, it does not run
        to completion."""
        from repro.serve.jobs import JobPaths, execute_job

        job = Job.from_submission({
            "kind": kind,
            "params": {"limit": 300, "chaos": {"sigint_after_wave": 1}},
        })
        paths = JobPaths.for_job(tmp_path, job.id)
        with pytest.raises(KeyboardInterrupt):
            execute_job(job.to_dict(), paths, None, None, False)
        assert paths.load_result() is None


# ---------------------------------------------------------------------------
# Unit: journal replay
# ---------------------------------------------------------------------------


class TestJournal:
    def _submit_record(self, journal, job_id, priority=0):
        journal.append("submitted", job_id, job={
            "id": job_id, "kind": "enumerate", "params": {},
            "priority": priority, "budget": None, "submitted_at": time.time(),
        })

    def test_replay_rebuilds_the_job_table(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl")
        journal.append("serve_start", pid=1)
        self._submit_record(journal, "a" * 16)
        self._submit_record(journal, "b" * 16)
        journal.append("started", "a" * 16, attempt=1, worker_pid=9)
        journal.append("completed", "a" * 16, result={"num_states": 5})
        journal.append("started", "b" * 16, attempt=1, worker_pid=10)
        journal.close()
        records, dropped = read_journal(tmp_path / "j.jsonl")
        assert dropped == 0
        assert validate_journal(records) == []
        jobs = replay_journal(records)
        assert jobs["a" * 16].state == "done"
        assert jobs["a" * 16].result == {"num_states": 5}
        assert jobs["b" * 16].state == "running"
        requeue = recover_jobs(jobs)
        assert [j.id for j in requeue] == ["b" * 16]
        assert jobs["b" * 16].state == "queued"
        assert jobs["b" * 16].resumable

    def test_recovery_order_is_priority_then_fifo(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl")
        self._submit_record(journal, "a" * 16, priority=0)
        self._submit_record(journal, "b" * 16, priority=5)
        self._submit_record(journal, "c" * 16, priority=0)
        journal.close()
        records, _ = read_journal(tmp_path / "j.jsonl")
        requeue = recover_jobs(replay_journal(records))
        assert [j.id for j in requeue] == ["b" * 16, "a" * 16, "c" * 16]

    def test_torn_tail_is_dropped_not_fatal(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl")
        self._submit_record(journal, "a" * 16)
        journal.close()
        with open(tmp_path / "j.jsonl", "a") as handle:
            handle.write('{"schema": "repro.job-journal/1", "seq": 99, "ev')
        records, dropped = read_journal(tmp_path / "j.jsonl")
        assert dropped == 1
        assert validate_journal(records) == []
        assert "a" * 16 in replay_journal(records)

    def test_seq_resumes_across_reopen(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl")
        journal.append("serve_start", pid=1)
        journal.close()
        journal = JobJournal(tmp_path / "j.jsonl")
        record = journal.append("serve_start", pid=2)
        journal.close()
        assert record["seq"] == 1
        records, _ = read_journal(tmp_path / "j.jsonl")
        assert validate_journal(records) == []


# ---------------------------------------------------------------------------
# Unit: admission queue
# ---------------------------------------------------------------------------


def _job(tag, priority=0):
    return Job.from_submission({
        "kind": "enumerate", "params": {"tag": tag}, "priority": priority,
    })


class TestAdmissionQueue:
    def test_priority_then_fifo(self):
        queue = AdmissionQueue(max_pending=8)
        queue.push(_job("a"))
        queue.push(_job("b", priority=2))
        queue.push(_job("c"))
        order = [queue.pop_ready().params["tag"] for _ in range(3)]
        assert order == ["b", "a", "c"]

    def test_bound_is_hard_and_shed_is_counted(self):
        queue = AdmissionQueue(max_pending=2)
        queue.push(_job("a"))
        queue.push(_job("b"))
        with pytest.raises(QueueFull) as excinfo:
            queue.push(_job("c"))
        assert queue.shed_count == 1
        assert excinfo.value.retry_after >= 1
        assert len(queue) == 2

    def test_force_push_bypasses_bound_for_recovery(self):
        queue = AdmissionQueue(max_pending=1)
        queue.push(_job("a"))
        queue.push(_job("b"), force=True)
        assert len(queue) == 2

    def test_retry_after_tracks_observed_service_time(self):
        queue = AdmissionQueue(max_pending=4)
        for _ in range(4):
            queue.record_duration(10.0)
        queue.push(_job("a"))
        assert queue.retry_after(workers=1) == 20
        assert queue.retry_after(workers=2) == 10

    def test_cancel_removes_pending(self):
        queue = AdmissionQueue(max_pending=4)
        job = _job("a")
        queue.push(job)
        assert queue.cancel(job.id)
        assert queue.pop_ready() is None
        assert not queue.cancel(job.id)


# ---------------------------------------------------------------------------
# Subprocess daemon harness
# ---------------------------------------------------------------------------


class Daemon:
    """A real ``repro serve`` process plus a tiny HTTP client."""

    def __init__(self, state_dir: Path, *extra_args: str):
        self.state_dir = state_dir
        port_file = state_dir / "port"
        port_file.unlink(missing_ok=True)
        env = dict(os.environ, PYTHONPATH=SRC)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--port-file", str(port_file), "--state-dir", str(state_dir),
             "--retry-backoff", "0.05", *extra_args],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env,
        )
        deadline = time.time() + 30
        while time.time() < deadline:
            if port_file.exists() and port_file.read_text().strip():
                self.port = int(port_file.read_text())
                return
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon died on startup:\n{self.proc.stdout.read()}"
                )
            time.sleep(0.05)
        raise RuntimeError("daemon did not publish its port")

    def request(self, method, path, body=None):
        data = json.dumps(body).encode() if body is not None else None
        request = urllib.request.Request(
            f"http://127.0.0.1:{self.port}{path}", data=data, method=method
        )
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                return response.status, json.loads(response.read()), \
                    dict(response.headers)
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read()), dict(error.headers)

    def wait_job(self, job_id, timeout=120):
        deadline = time.time() + timeout
        while time.time() < deadline:
            _, doc, _ = self.request("GET", f"/jobs/{job_id}")
            if doc.get("state") in ("done", "failed", "cancelled"):
                return doc
            time.sleep(0.1)
        raise AssertionError(f"job {job_id} did not finish: {doc}")

    def sigkill(self):
        self.proc.kill()
        self.proc.wait(timeout=10)

    def sigterm_and_wait(self, timeout=60):
        self.proc.send_signal(signal.SIGTERM)
        return self.proc.wait(timeout=timeout)

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=10)


@pytest.fixture
def daemon_dir(tmp_path):
    return tmp_path / "serve"


# ---------------------------------------------------------------------------
# HTTP surface (one real daemon)
# ---------------------------------------------------------------------------


class TestServeHTTP:
    def test_submit_dedup_result_sse_and_drain(self, daemon_dir, golden_json):
        daemon = Daemon(daemon_dir)
        try:
            status, doc, _ = daemon.request("GET", "/healthz")
            assert (status, doc["ok"]) == (200, True)

            spec = {"kind": "enumerate", "params": {"chaos": SLOW}}
            status, doc, _ = daemon.request("POST", "/jobs", spec)
            assert status == 202 and doc["state"] == "queued"
            job_id = doc["job_id"]

            status, doc, _ = daemon.request("POST", "/jobs", spec)
            assert status == 200 and doc["deduplicated"]

            # SSE: raw socket, read until the done event.
            sock = socket.create_connection(("127.0.0.1", daemon.port),
                                            timeout=60)
            sock.sendall(f"GET /jobs/{job_id}/events HTTP/1.1\r\n"
                         "Host: t\r\n\r\n".encode())
            blob = b""
            while b"event: done" not in blob:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                blob += chunk
            sock.close()
            frames = parse_sse(blob.decode().split("\r\n\r\n", 1)[1])
            kinds = [k for k, _ in frames]
            assert kinds[0] == "state"
            assert kinds.count("heartbeat") >= 2
            assert kinds[-1] == "done"
            hb = [d for k, d in frames if k == "heartbeat"][0]
            assert hb["schema"] == "repro.heartbeat/1"

            final = daemon.wait_job(job_id)
            assert final["state"] == "done"
            status, doc, _ = daemon.request("GET", f"/jobs/{job_id}/result")
            assert status == 200
            assert doc["result"]["num_states"] == 1509
            graph = Path(doc["result"]["graph_path"]).read_text()
            assert graph == golden_json

            assert daemon.request("POST", "/jobs", {"kind": "x"})[0] == 400
            assert daemon.request("GET", "/jobs/" + "0" * 16)[0] == 404

            assert daemon.sigterm_and_wait() == 0
            records, dropped = read_journal(daemon_dir / "journal.jsonl")
            assert dropped == 0
            assert validate_journal(records) == []
            events = [r["event"] for r in records]
            assert events[-1] == "drain_complete"
            assert "drain_begin" in events
        finally:
            daemon.stop()

    def test_draining_daemon_refuses_submissions(self, daemon_dir):
        daemon = Daemon(daemon_dir, "--workers", "1")
        try:
            spec = {"kind": "enumerate", "params": {"chaos": SLOW}}
            assert daemon.request("POST", "/jobs", spec)[0] == 202
            assert daemon.request("POST", "/drain")[0] == 202
            status, doc, _ = daemon.request(
                "POST", "/jobs", {"kind": "enumerate",
                                  "params": {"tag": "late"}})
            assert status == 503
            assert daemon.proc.wait(timeout=60) == 0
        finally:
            daemon.stop()


# ---------------------------------------------------------------------------
# Chaos: kill the worker, kill the daemon
# ---------------------------------------------------------------------------


def _run(coro):
    return asyncio.run(coro)


async def _submit(server, payload):
    status, doc, headers = server._submit(json.dumps(payload).encode())
    return status, doc, headers


async def _wait_terminal(server, job_id, timeout=120):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = server.jobs[job_id]
        if job.terminal:
            return job
        await asyncio.sleep(0.05)
    raise AssertionError(f"job {job_id} stuck in {server.jobs[job_id].state}")


class TestChaosWorkerKill:
    def test_sigkilled_worker_retries_and_resumes(self, tmp_path, golden_json):
        """SIGKILL mid-job -> retry resumes from checkpoints, bytes equal."""

        async def scenario():
            server = ValidationServer(ServeConfig(
                state_dir=str(tmp_path), workers=1,
            ))
            await server.start()
            _, doc, _ = await _submit(server, {
                "kind": "enumerate", "params": {"chaos": SLOW},
            })
            job_id = doc["job_id"]
            # Wait for the child, let it checkpoint a few waves, kill it.
            deadline = time.monotonic() + 30
            while server.jobs[job_id].worker_pid is None:
                assert time.monotonic() < deadline, "worker never spawned"
                await asyncio.sleep(0.02)
            checkpoints = server.paths_for(job_id).checkpoints
            while not (checkpoints.is_dir() and
                       list(checkpoints.glob("wave*.json"))):
                assert time.monotonic() < deadline, "no checkpoint appeared"
                await asyncio.sleep(0.02)
            os.kill(server.jobs[job_id].worker_pid, signal.SIGKILL)
            job = await _wait_terminal(server, job_id)
            await server.drain()
            return server, job

        server, job = _run(scenario())
        assert job.state == "done"
        assert job.attempts >= 2
        assert server.stats["retried"] >= 1
        assert job.result["resumed"] is True
        graph = Path(job.result["graph_path"]).read_text()
        assert graph == golden_json

    def test_retry_exhaustion_degrades_to_inline(self, tmp_path, golden_json):
        """A crash-looping child ends up in-daemon, not failed."""

        async def scenario():
            from repro.resilience import RetryPolicy

            server = ValidationServer(ServeConfig(
                state_dir=str(tmp_path), workers=1,
                retry=RetryPolicy(max_retries=0, backoff_seconds=0.01),
            ))
            await server.start()
            _, doc, _ = await _submit(server, {
                "kind": "enumerate", "params": {"chaos": SLOW},
            })
            job_id = doc["job_id"]
            deadline = time.monotonic() + 30
            while server.jobs[job_id].worker_pid is None:
                assert time.monotonic() < deadline
                await asyncio.sleep(0.02)
            os.kill(server.jobs[job_id].worker_pid, signal.SIGKILL)
            job = await _wait_terminal(server, job_id)
            await server.drain()
            return server, job

        server, job = _run(scenario())
        assert job.state == "done"
        assert job.degraded
        assert server.stats["degraded"] == 1
        graph = Path(job.result["graph_path"]).read_text()
        assert graph == golden_json


    def test_orphan_checkpoint_payload_is_not_resumable(self, tmp_path):
        """A worker killed between a checkpoint's payload and manifest
        writes leaves an orphan payload: the retry must start fresh, not
        ask to resume from a store with nothing verifiable in it."""
        from repro.serve.jobs import JobPaths

        paths = JobPaths.for_job(tmp_path, "orphan").ensure()
        paths.checkpoints.mkdir(exist_ok=True)
        (paths.checkpoints / "wave000001.ckpt").write_text("{}")
        assert not paths.has_resumable_checkpoint()


class TestChaosDaemonKill:
    def test_sigkill_daemon_restart_replays_and_resumes(
        self, daemon_dir, golden_json
    ):
        """The ISSUE's durability acceptance, end to end."""
        first = Daemon(daemon_dir, "--workers", "1")
        try:
            _, doc, _ = first.request("POST", "/jobs", {
                "kind": "enumerate", "params": {"chaos": SLOW},
            })
            job_id = doc["job_id"]
            checkpoints = daemon_dir / "jobs" / job_id / "checkpoints"
            deadline = time.time() + 30
            while not list(checkpoints.glob("wave*.json")):
                assert time.time() < deadline, "no checkpoint before kill"
                time.sleep(0.05)
            first.sigkill()  # no drain, no flush -- the hard way down
        finally:
            first.stop()

        second = Daemon(daemon_dir, "--workers", "1")
        try:
            final = second.wait_job(job_id)
            assert final["state"] == "done"
            assert final["result"]["resumed"] is True
            graph = Path(final["result"]["graph_path"]).read_text()
            assert graph == golden_json
            records, _ = read_journal(daemon_dir / "journal.jsonl")
            assert validate_journal(records) == []
            events = [r["event"] for r in records]
            assert events.count("serve_start") == 2
            assert "recovered" in events
            requeues = [r for r in records if r["event"] == "requeued"
                        and r.get("reason") == "recovery"]
            assert len(requeues) == 1 and requeues[0]["job_id"] == job_id
            assert second.sigterm_and_wait() == 0
        finally:
            second.stop()


class TestChaosDedup:
    def test_concurrent_identical_submissions_build_once(self, daemon_dir):
        """4 clients, same config -> one job, one artifact-cache build."""
        daemon = Daemon(daemon_dir, "--workers", "2")
        try:
            import concurrent.futures

            spec = {"kind": "validate", "params": {"limit": 100}}
            with concurrent.futures.ThreadPoolExecutor(4) as pool:
                responses = list(pool.map(
                    lambda _: daemon.request("POST", "/jobs", spec), range(4)
                ))
            statuses = sorted(status for status, _, _ in responses)
            assert statuses == [200, 200, 200, 202]
            job_ids = {doc["job_id"] for _, doc, _ in responses}
            assert len(job_ids) == 1
            final = daemon.wait_job(job_ids.pop())
            assert final["state"] == "done"
            assert final["result"]["clean"] is True
            _, stats, _ = daemon.request("GET", "/stats")
            assert stats["counters"]["deduplicated"] == 3
            assert stats["counters"]["submitted"] == 1
        finally:
            daemon.stop()

    def test_distinct_jobs_sharing_a_cache_key_build_once(self, daemon_dir):
        """Single-flight across child processes: 3 tagged twins, 1 build."""
        daemon = Daemon(daemon_dir, "--workers", "3")
        try:
            ids = []
            for tag in ("a", "b", "c"):
                status, doc, _ = daemon.request("POST", "/jobs", {
                    "kind": "validate",
                    "params": {"limit": 100, "tag": tag},
                })
                assert status == 202
                ids.append(doc["job_id"])
            assert len(set(ids)) == 3
            for job_id in ids:
                assert daemon.wait_job(job_id)["state"] == "done"
            cache = ArtifactCache(daemon_dir / "cache")
            built = [key for key in
                     (p.stem for p in Path(daemon_dir / "cache")
                      .glob("*.builds"))
                     if cache.build_count(key) > 0]
            # One pipeline build persists one entry per phase (model/
            # graph/tours/splice/traces); single-flight means the twins
            # still produced exactly one build of each.
            assert len(built) == 5
            for key in built:
                assert cache.build_count(key) == 1
        finally:
            daemon.stop()


class TestIncrementalResubmit:
    def test_edit_resubmit_served_incrementally_with_identical_artifacts(
            self, daemon_dir):
        """Submit, edit the model, resubmit: the rerun splices, not rebuilds.

        ``noop-touch`` is a catalog edit whose scope matches no state, so
        the edited model is semantically distinct (new job, new cache keys)
        but produces byte-identical artifacts -- the strongest check that
        the localized path adopted rather than recomputed.
        """
        daemon = Daemon(daemon_dir, "--workers", "1")
        try:
            status, doc, _ = daemon.request("POST", "/jobs", {
                "kind": "validate", "params": {"limit": 100},
            })
            assert status == 202
            first = daemon.wait_job(doc["job_id"])
            assert first["state"] == "done"
            cache_a = first["result"]["cache"]
            assert cache_a["incremental"]["enabled"] is True
            assert cache_a["phase_hits"] == {
                "model": False, "graph": False, "tours": False,
                "traces": False,
            }
            graph_a = Path(first["result"]["graph_path"]).read_text()

            status, doc, _ = daemon.request("POST", "/jobs", {
                "kind": "validate",
                "params": {"limit": 100, "edits": ["noop-touch"]},
            })
            assert status == 202, "edited params must be a distinct job"
            job_id = doc["job_id"]
            second = daemon.wait_job(job_id)
            assert second["state"] == "done"
            assert second["result"]["edits"] == ["noop-touch"]
            cache_b = second["result"]["cache"]
            incremental = cache_b["incremental"]
            assert incremental["classification"] == "localized"
            assert incremental["base_key"] == cache_a["key"]
            assert incremental["region_states"] == 0
            assert incremental["spliced_tours"] > 0
            assert incremental["regenerated_traces"] == 0
            assert cache_b["phase_hits"] == {
                "model": False, "graph": True, "tours": True, "traces": True,
            }
            graph_b = Path(second["result"]["graph_path"]).read_text()
            assert graph_b == graph_a

            # The per-phase hits also ride the SSE heartbeat stream.
            sock = socket.create_connection(("127.0.0.1", daemon.port),
                                            timeout=60)
            sock.sendall(f"GET /jobs/{job_id}/events HTTP/1.1\r\n"
                         "Host: t\r\n\r\n".encode())
            blob = b""
            while b"event: done" not in blob:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                blob += chunk
            sock.close()
            frames = parse_sse(blob.decode().split("\r\n\r\n", 1)[1])
            cache_beats = [data for kind, data in frames
                           if kind == "heartbeat"
                           and data["phase"] == "cache"]
            assert cache_beats
            assert cache_beats[-1]["fields"]["phase_hits"] == {
                "model": False, "graph": True, "tours": True, "traces": True,
            }

            # Unknown edit names are rejected at submission time.
            status, doc, _ = daemon.request("POST", "/jobs", {
                "kind": "validate", "params": {"edits": ["no-such-edit"]},
            })
            assert status == 400
            assert "no-such-edit" in doc["error"]
        finally:
            daemon.stop()


class TestChaosSaturation:
    def test_full_queue_sheds_429_then_drains_clean(self, daemon_dir):
        daemon = Daemon(daemon_dir, "--workers", "1", "--max-pending", "2")
        try:
            responses = []
            for index in range(8):
                responses.append(daemon.request("POST", "/jobs", {
                    "kind": "enumerate",
                    "params": {"chaos": SLOW, "tag": f"sat-{index}"},
                }))
            accepted = [doc for status, doc, _ in responses if status == 202]
            shed = [(doc, headers) for status, doc, headers in responses
                    if status == 429]
            assert shed, "saturation never shed"
            assert len(accepted) <= 3  # 1 running + max_pending queued
            for doc, headers in shed:
                assert int(headers["Retry-After"]) >= 1
                assert doc["retry_after"] >= 1
            _, stats, _ = daemon.request("GET", "/stats")
            assert stats["queue"]["pending"] <= 2
            assert stats["counters"]["shed"] == len(shed)
            for doc in accepted:
                assert daemon.wait_job(doc["job_id"])["state"] == "done"
            # Clean drain with nothing wedged: exit 0, journal closed.
            assert daemon.sigterm_and_wait() == 0
            records, _ = read_journal(daemon_dir / "journal.jsonl")
            assert validate_journal(records) == []
            assert [r["event"] for r in records][-1] == "drain_complete"
            done = {r["job_id"] for r in records if r["event"] == "completed"}
            assert done == {doc["job_id"] for doc in accepted}
        finally:
            daemon.stop()

    def test_memory_budget_sheds(self, daemon_dir):
        daemon = Daemon(daemon_dir, "--memory-budget", "1")  # 1 MiB: always over
        try:
            status, doc, headers = daemon.request(
                "POST", "/jobs", {"kind": "enumerate"})
            assert status == 429
            assert "memory budget" in doc["error"]
            assert int(headers["Retry-After"]) >= 1
        finally:
            daemon.stop()
