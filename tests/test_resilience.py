"""Chaos suite for the resilience layer.

Every recovery path is exercised with *deterministic* fault injection
(:class:`repro.resilience.FaultPlan`): scripted worker kills, stalled
shards, scripted SIGINT at wave boundaries, and seeded file corruption.
The golden property throughout: whatever the enumeration survives --
crashes, retries, degradation, interruption + resume -- the final state
graph serializes byte-identically to an undisturbed run.
"""

import json
import logging
import multiprocessing
import os
import threading

import pytest

from repro.core.cache import ArtifactCache
from repro.core.pipeline import ValidationPipeline
from repro.enumeration import enumerate_states, enumerate_states_parallel
from repro.incremental.recent import RecentBuilds
from repro.obs import Observer, RunReport
from repro.pp.fsm_model import PPModelConfig, build_pp_control_model
from repro.resilience import (
    Budget,
    CheckpointConfig,
    CheckpointError,
    CheckpointStore,
    FaultPlan,
    RetryPolicy,
    atomic_write_text,
    corrupt_file,
    resolve_resume,
)
from repro.smurphi import BoolType, ChoicePoint, RangeType, StateVar, SyncModel

SMALL = PPModelConfig(fill_words=1)

#: Fast retries so the chaos tests don't sit in backoff sleeps.
FAST_RETRY = RetryPolicy(max_retries=2, backoff_seconds=0.01, shard_timeout=30.0)


def small_model():
    return build_pp_control_model(SMALL)


@pytest.fixture(scope="module")
def golden_json():
    """The undisturbed graph every chaos scenario must reproduce."""
    graph, _ = enumerate_states(small_model())
    return graph.to_json()


# ---------------------------------------------------------------------------
# CheckpointStore mechanics
# ---------------------------------------------------------------------------


class TestCheckpointStore:
    def _payload(self, waves=3):
        graph, stats = enumerate_states(small_model())
        from repro.resilience.checkpoint import build_payload, model_digest

        return build_payload(
            graph, [5, 6, 7], stats.transitions_explored, waves,
            model_digest(small_model()), "pp_control",
        )

    def test_save_load_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        name = store.save(self._payload())
        assert name == "wave000003"
        assert store.names() == ["wave000003"]
        assert store.latest() == "wave000003"
        loaded = store.load(name)
        assert loaded == self._payload()

    def test_manifest_records_integrity_metadata(self, tmp_path):
        store = CheckpointStore(tmp_path)
        name = store.save(self._payload())
        manifest = store.manifest(name)
        assert manifest["frontier"] == 3
        assert manifest["waves_completed"] == 3
        assert manifest["size"] == store.payload_path(name).stat().st_size
        assert store.verify(name) is None

    def test_corrupt_payload_is_refused(self, tmp_path):
        store = CheckpointStore(tmp_path)
        name = store.save(self._payload())
        corrupt_file(store.payload_path(name), seed=7)
        assert store.verify(name) is not None
        with pytest.raises(CheckpointError, match="failed verification"):
            store.load(name)

    def test_truncated_payload_is_refused(self, tmp_path):
        store = CheckpointStore(tmp_path)
        name = store.save(self._payload())
        corrupt_file(store.payload_path(name), mode="truncate")
        with pytest.raises(CheckpointError):
            store.load(name)

    def test_load_latest_skips_corrupt_newest(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(self._payload(waves=2))
        newest = store.save(self._payload(waves=5))
        corrupt_file(store.payload_path(newest), seed=1)
        recovered = store.load_latest()
        assert recovered is not None
        assert recovered["waves_completed"] == 2

    def test_load_latest_empty_store(self, tmp_path):
        assert CheckpointStore(tmp_path).load_latest() is None

    def test_prune_keeps_newest(self, tmp_path):
        store = CheckpointStore(tmp_path)
        for waves in (1, 2, 3, 4):
            store.save(self._payload(waves=waves))
        assert store.prune(keep=2) == 2
        assert store.names() == ["wave000003", "wave000004"]

    def test_resume_refuses_other_configs(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(self._payload())
        config = CheckpointConfig(store)
        with pytest.raises(CheckpointError, match="different model/config"):
            resolve_resume(True, config, "0" * 64)

    def test_resume_true_without_store_is_an_error(self, tmp_path):
        with pytest.raises(CheckpointError, match="needs a checkpoint"):
            resolve_resume(True, None, "0" * 64)
        with pytest.raises(CheckpointError, match="no resumable checkpoint"):
            enumerate_states(
                small_model(),
                checkpoint=CheckpointConfig(tmp_path / "empty"),
                resume=True,
            )


# ---------------------------------------------------------------------------
# Golden interrupted-then-resumed enumeration
# ---------------------------------------------------------------------------


class TestGoldenResume:
    """ISSUE acceptance: interrupt at a wave boundary, resume, compare bytes."""

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_sigint_then_resume_is_bit_identical(self, tmp_path, golden_json, jobs):
        checkpoint = CheckpointConfig(tmp_path, every_waves=1)
        with pytest.raises(KeyboardInterrupt):
            enumerate_states_parallel(
                small_model(), jobs=jobs, checkpoint=checkpoint,
                retry=FAST_RETRY, faults=FaultPlan(sigint_after_wave=3),
            )
        assert checkpoint.store.latest() == "wave000003"
        graph, stats = enumerate_states_parallel(
            small_model(), jobs=jobs, checkpoint=checkpoint, resume=True,
            retry=FAST_RETRY,
        )
        assert graph.to_json() == golden_json
        assert stats.resumed
        assert stats.checkpoints_written > 0

    def test_cross_engine_resume(self, tmp_path, golden_json):
        """A jobs=1 checkpoint resumes at jobs=2 and back: checkpoints move
        between the engine's in-process and packed-span executors."""
        checkpoint = CheckpointConfig(tmp_path, every_waves=1)
        with pytest.raises(KeyboardInterrupt):
            enumerate_states(
                small_model(), jobs=1, checkpoint=checkpoint,
                faults=FaultPlan(sigint_after_wave=4),
            )
        # The resumed wave 4 (297 states) crosses DISPATCH_MIN_STATES, so
        # the jobs=2 run really expands it on the pool.
        obs = Observer()
        spans, _ = enumerate_states(
            small_model(), jobs=2, checkpoint=checkpoint, resume=True,
            retry=FAST_RETRY, obs=obs,
        )
        assert spans.to_json() == golden_json
        assert obs.metrics.total("enum.pool.spawns") >= 1

        other = CheckpointConfig(tmp_path / "jobs2", every_waves=1)
        with pytest.raises(KeyboardInterrupt):
            enumerate_states(
                small_model(), jobs=2, checkpoint=other, retry=FAST_RETRY,
                faults=FaultPlan(sigint_after_wave=5),
            )
        in_process, _ = enumerate_states(
            small_model(), jobs=1, checkpoint=other, resume=True,
        )
        assert in_process.to_json() == golden_json

    def test_resume_from_explicit_payload(self, tmp_path, golden_json):
        checkpoint = CheckpointConfig(tmp_path, every_waves=2)
        with pytest.raises(KeyboardInterrupt):
            enumerate_states(
                small_model(), checkpoint=checkpoint,
                faults=FaultPlan(sigint_after_wave=6),
            )
        payload = checkpoint.store.load("wave000006")
        graph, _ = enumerate_states(small_model(), resume=payload)
        assert graph.to_json() == golden_json

    def test_resume_all_conditions_matches_cold(self, tmp_path, golden_json):
        # Arc dedup under record_all_conditions keys each row's arcs by
        # (dst, condition); a resumed run must rebuild nothing to agree.
        cold, _ = enumerate_states(small_model(), record_all_conditions=True)
        assert cold.num_edges > len(json.loads(golden_json)["edges"])
        checkpoint = CheckpointConfig(tmp_path, every_waves=2)
        with pytest.raises(KeyboardInterrupt):
            enumerate_states(
                small_model(), record_all_conditions=True,
                checkpoint=checkpoint, faults=FaultPlan(sigint_after_wave=6),
            )
        payload = checkpoint.store.load("wave000006")
        assert 0 < len(payload["frontier"])
        resumed, stats = enumerate_states(
            small_model(), record_all_conditions=True, resume=payload,
        )
        assert stats.resumed
        assert resumed.to_json() == cold.to_json()


# ---------------------------------------------------------------------------
# Worker-crash recovery
# ---------------------------------------------------------------------------


#: (wave, span) the kill/stall hooks target: wave 4 of the fill_words=1
#: model has 297 states, past DISPATCH_MIN_STATES, so at jobs=2 it is
#: dispatched as four packed spans.
PACKED_SPAN = (4, 1)


class TestWorkerCrashRecovery:
    def test_killed_worker_is_retried(self, golden_json):
        graph, stats = enumerate_states_parallel(
            small_model(), jobs=2, retry=FAST_RETRY,
            faults=FaultPlan(kill_shard=PACKED_SPAN, kill_attempts=1),
        )
        assert graph.to_json() == golden_json
        assert stats.shards_retried > 0
        assert stats.pool_respawns > 0
        assert not stats.degraded

    def test_retry_exhaustion_degrades_not_hangs(self, golden_json):
        graph, stats = enumerate_states_parallel(
            small_model(), jobs=2,
            retry=RetryPolicy(max_retries=1, backoff_seconds=0.01,
                              shard_timeout=30.0),
            faults=FaultPlan(kill_shard=PACKED_SPAN, kill_attempts=99),
        )
        assert graph.to_json() == golden_json
        assert stats.degraded

    def test_wedged_worker_trips_timeout(self, golden_json):
        """A stalled shard is detected by the per-shard timeout, not waited on."""
        graph, stats = enumerate_states_parallel(
            small_model(), jobs=2,
            retry=RetryPolicy(max_retries=2, backoff_seconds=0.01,
                              shard_timeout=0.5),
            faults=FaultPlan(slow_shard=PACKED_SPAN, slow_seconds=30.0,
                             slow_attempts=1),
        )
        assert graph.to_json() == golden_json
        assert stats.shards_retried > 0

    def test_fault_plan_never_picks_the_executor(self, golden_json):
        """Wave 2 (31 states) is below DISPATCH_MIN_STATES, so it runs
        in-process and a kill aimed at it never fires."""
        graph, stats = enumerate_states_parallel(
            small_model(), jobs=2, retry=FAST_RETRY,
            faults=FaultPlan(kill_shard=(2, 0), kill_attempts=99),
        )
        assert graph.to_json() == golden_json
        assert stats.shards_retried == 0
        assert not stats.degraded

    def test_genuine_model_errors_are_not_retried(self):
        """Only crash/timeout failures retry; model bugs propagate at once."""
        def exploding(s, c):
            if s["n"] == 2:
                raise RuntimeError("model bug")
            return {"n": min(s["n"] + 1, 3) if c["en"] else s["n"]}

        model = SyncModel(
            "exploding",
            state_vars=[StateVar("n", RangeType(0, 3), 0)],
            choices=[ChoicePoint("en", BoolType())],
            next_state=exploding,
        )
        with pytest.raises(RuntimeError, match="model bug"):
            enumerate_states_parallel(model, jobs=2, retry=FAST_RETRY)

    def test_fork_unavailable_falls_back_to_sequential(self, monkeypatch,
                                                       golden_json):
        import repro.enumeration.pool as pool_mod

        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"],
        )

        def no_pool(*args, **kwargs):  # pragma: no cover - fails the test
            raise AssertionError("pool must not be created without fork")

        monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", no_pool)
        graph, stats = enumerate_states_parallel(small_model(), jobs=4)
        assert graph.to_json() == golden_json
        assert stats.pool_respawns == 0


# ---------------------------------------------------------------------------
# Resource budgets
# ---------------------------------------------------------------------------


class TestBudgets:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_state_budget_truncates_gracefully(self, jobs):
        graph, stats = enumerate_states_parallel(
            small_model(), jobs=jobs, budget=Budget(max_states=300),
            retry=FAST_RETRY,
        )
        assert stats.truncated
        assert stats.budget_outcome == "max_states"
        assert stats.frontier_remaining > 0
        assert 0.0 < stats.explored_fraction < 1.0
        assert graph.num_states >= 300
        # Every expanded state's successors are in the partial graph.
        assert graph.num_edges > 0

    def test_wall_budget_zero_truncates_at_first_boundary(self):
        _, stats = enumerate_states(
            small_model(), budget=Budget(wall_seconds=0.0),
        )
        assert stats.truncated
        assert stats.budget_outcome == "wall_seconds"

    def test_truncated_run_is_resumable(self, tmp_path, golden_json):
        checkpoint = CheckpointConfig(tmp_path, every_waves=1)
        _, stats = enumerate_states(
            small_model(), checkpoint=checkpoint,
            budget=Budget(max_states=300),
        )
        assert stats.truncated
        graph, resumed_stats = enumerate_states(
            small_model(), checkpoint=checkpoint, resume=True,
        )
        assert graph.to_json() == golden_json
        assert resumed_stats.resumed
        assert not resumed_stats.truncated

    def test_unbudgeted_run_never_truncates(self, golden_json):
        graph, stats = enumerate_states(small_model())
        assert not stats.truncated
        assert stats.budget_outcome is None
        assert stats.frontier_remaining == 0
        assert stats.explored_fraction == 1.0


# ---------------------------------------------------------------------------
# Pipeline / report / campaign propagation
# ---------------------------------------------------------------------------


class TestPipelinePropagation:
    def test_truncated_build_flagged_and_not_cached(self, tmp_path):
        cache_dir = tmp_path / "cache"
        pipeline = ValidationPipeline(
            model_config=SMALL, max_instructions_per_trace=300,
            cache_dir=str(cache_dir), budget=Budget(max_states=300),
        )
        artifacts = pipeline.build()
        assert artifacts.enumeration.truncated
        assert pipeline.artifacts.enumeration.truncated
        # The partial build must not poison the artifact cache: only the
        # model entry is stored, and no journal record names the build.
        cache = ArtifactCache(cache_dir)
        assert not cache.has(pipeline.cache_key)
        keys = pipeline.phase_keys
        assert [phase for phase in keys if cache.has(keys[phase])] == ["model"]
        assert RecentBuilds(cache_dir).entries() == []

    def test_truncation_logs_one_warning(self, tmp_path, caplog):
        pipeline = ValidationPipeline(
            model_config=SMALL, cache_dir=str(tmp_path / "cache"),
            budget=Budget(max_states=300),
        )
        with caplog.at_level(logging.WARNING):
            _, stats = pipeline.build_graph()
        assert stats.truncated
        warnings = [r.getMessage() for r in caplog.records
                    if r.levelno >= logging.WARNING]
        assert len(warnings) == 1, warnings
        assert warnings[0].startswith("budget exhausted (max_states)")

    def test_truncation_reaches_the_run_report(self):
        observer = Observer()
        pipeline = ValidationPipeline(
            model_config=SMALL, max_instructions_per_trace=300,
            budget=Budget(max_states=300), observer=observer,
        )
        report = pipeline.validate()
        run_report = RunReport.from_validation(report, pipeline)
        assert run_report.resilience["truncated"]
        assert run_report.resilience["budget_outcome"] == "max_states"
        assert 0.0 < run_report.resilience["explored_fraction"] < 1.0
        rendered = run_report.render()
        assert "TRUNCATED" in rendered
        # The document survives a JSON roundtrip with the new section.
        reloaded = RunReport.from_json(run_report.to_json())
        assert reloaded.resilience == run_report.resilience

    def test_pipeline_checkpoint_resume(self, tmp_path):
        ckpt_dir = tmp_path / "ckpts"
        truncated = ValidationPipeline(
            model_config=SMALL, max_instructions_per_trace=300,
            checkpoint_dir=str(ckpt_dir), budget=Budget(max_states=300),
        )
        truncated.build()
        assert truncated.artifacts.enumeration.checkpoints_written > 0

        resumed = ValidationPipeline(
            model_config=SMALL, max_instructions_per_trace=300,
            checkpoint_dir=str(ckpt_dir),
        )
        artifacts = resumed.build(resume=True)
        assert artifacts.enumeration.resumed
        assert not artifacts.enumeration.truncated

        full = ValidationPipeline(
            model_config=SMALL, max_instructions_per_trace=300,
        ).build()
        assert artifacts.graph.to_json() == full.graph.to_json()


# ---------------------------------------------------------------------------
# Artifact-cache integrity
# ---------------------------------------------------------------------------


class TestCacheQuarantine:
    def test_corrupt_pickle_is_quarantined_with_warning(self, tmp_path, caplog):
        cache = ArtifactCache(tmp_path)
        key = "a" * 64
        cache.store(key, {"payload": list(range(100))})
        corrupt_file(cache.pickle_path(key), seed=3)
        with caplog.at_level("WARNING", logger="repro.cache"):
            assert cache.load(key) is None
        assert "quarantined corrupt cache entry" in caplog.text
        assert cache.quarantine_path(key).exists()
        assert not cache.pickle_path(key).exists()

    def test_quarantined_entry_rebuilds_cleanly(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = "b" * 64
        cache.store(key, {"v": 1})
        corrupt_file(cache.pickle_path(key), mode="truncate")
        assert cache.load(key) is None
        cache.store(key, {"v": 2})
        assert cache.load(key) == {"v": 2}

    def test_digest_check_beats_lucky_unpickle(self, tmp_path):
        """Even a corrupt file that still unpickles is caught by the digest."""
        import pickle

        cache = ArtifactCache(tmp_path)
        key = "c" * 64
        cache.store(key, {"v": 1})
        # Overwrite with a *valid* pickle of the wrong object.
        cache.pickle_path(key).write_bytes(pickle.dumps({"v": "tampered"}))
        assert cache.load(key) is None
        assert cache.quarantine_path(key).exists()

    def test_prune_removes_quarantined_entries(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = "d" * 64
        cache.store(key, {"v": 1})
        corrupt_file(cache.pickle_path(key), seed=1)
        cache.load(key)
        assert cache.quarantine_path(key).exists()
        cache.prune()
        assert not cache.quarantine_path(key).exists()

    def test_prune_racing_concurrent_store(self, tmp_path):
        """prune() and store() interleave without exceptions or torn state."""
        cache = ArtifactCache(tmp_path)
        errors = []

        def writer():
            try:
                for i in range(50):
                    cache.store(f"{i % 5:064d}", {"i": i})
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(50):
                cache.prune()
        finally:
            thread.join()
        assert not errors
        key = "e" * 64
        cache.store(key, {"final": True})
        assert cache.load(key) == {"final": True}


# ---------------------------------------------------------------------------
# Atomic writes
# ---------------------------------------------------------------------------


class TestAtomicWrites:
    def test_failed_write_preserves_previous_file(self, tmp_path, monkeypatch):
        target = tmp_path / "report.json"
        atomic_write_text(target, "original")

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            atomic_write_text(target, "replacement")
        monkeypatch.undo()
        assert target.read_text() == "original"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_run_report_write_is_atomic(self, tmp_path, monkeypatch):
        target = tmp_path / "run.json"
        RunReport(command="x").write(str(target))
        original = target.read_text()
        monkeypatch.setattr(
            os, "replace",
            lambda src, dst: (_ for _ in ()).throw(OSError("boom")),
        )
        with pytest.raises(OSError):
            RunReport(command="y").write(str(target))
        monkeypatch.undo()
        assert target.read_text() == original


# ---------------------------------------------------------------------------
# CLI exit codes and flows
# ---------------------------------------------------------------------------


class TestCliResilience:
    def test_budget_truncation_exits_4(self, tmp_path, capsys):
        from repro.cli import main

        graph_out = tmp_path / "partial.json"
        code = main([
            "enumerate", "--fill-words", "1", "--state-budget", "300",
            "--checkpoint-dir", str(tmp_path / "ckpts"),
            "--graph-out", str(graph_out),
        ])
        assert code == 4
        out = capsys.readouterr().out
        assert "TRUNCATED" in out
        # The partial graph was still written (atomically) and loads.
        from repro.enumeration import StateGraph

        partial = StateGraph.from_json(graph_out.read_text())
        assert partial.num_states >= 300

    def test_cli_resume_completes_to_identical_graph(self, tmp_path, capsys,
                                                     golden_json):
        from repro.cli import main

        ckpts = str(tmp_path / "ckpts")
        assert main([
            "enumerate", "--fill-words", "1", "--state-budget", "300",
            "--checkpoint-dir", ckpts,
        ]) == 4
        resumed_out = tmp_path / "resumed.json"
        assert main([
            "enumerate", "--fill-words", "1", "--checkpoint-dir", ckpts,
            "--resume", "--graph-out", str(resumed_out),
        ]) == 0
        assert resumed_out.read_text() == golden_json
        out = capsys.readouterr().out
        assert "resumed from checkpoint" in out

    def test_resume_without_checkpoint_dir_is_usage_error(self, capsys):
        from repro.cli import main

        assert main(["enumerate", "--fill-words", "1", "--resume"]) == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_resume_from_empty_store_is_usage_error(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "enumerate", "--fill-words", "1",
            "--checkpoint-dir", str(tmp_path / "empty"), "--resume",
        ])
        assert code == 2
        assert "no resumable checkpoint" in capsys.readouterr().err

    def test_invariant_violation_exits_3(self, monkeypatch, capsys):
        from repro import cli
        from repro.pp.fsm_model import PPControlModel

        bad_model = SyncModel(
            "bad",
            state_vars=[StateVar("n", RangeType(0, 3), 0)],
            choices=[ChoicePoint("en", BoolType())],
            next_state=lambda s, c: {
                "n": min(s["n"] + 1, 3) if c["en"] else s["n"]
            },
            invariants={"n_small": lambda s: s["n"] < 2},
        )

        # The pipeline's model build (``control.build()``) is the one
        # place `repro enumerate` turns its flags into a model.
        monkeypatch.setattr(PPControlModel, "build", lambda self: bad_model)
        assert cli.main(["enumerate", "--fill-words", "1"]) == 3
        assert "invariant violation" in capsys.readouterr().err

    def test_checkpoints_subcommand_lists_and_prunes(self, tmp_path, capsys):
        from repro.cli import main

        ckpts = str(tmp_path / "ckpts")
        main(["enumerate", "--fill-words", "1", "--state-budget", "300",
              "--checkpoint-dir", ckpts])
        capsys.readouterr()

        assert main(["checkpoints", ckpts]) == 0
        listing = capsys.readouterr().out
        assert "wave000004" in listing
        assert "ok" in listing

        assert main(["checkpoints", ckpts, "--inspect", "wave000004"]) == 0
        inspect = capsys.readouterr().out
        assert "frontier pending" in inspect

        assert main(["checkpoints", ckpts, "--prune", "--keep", "1"]) == 0
        capsys.readouterr()
        assert CheckpointStore(ckpts).names() == ["wave000004"]

    def test_checkpoints_flags_corruption(self, tmp_path, capsys):
        from repro.cli import main

        ckpts = str(tmp_path / "ckpts")
        main(["enumerate", "--fill-words", "1", "--state-budget", "300",
              "--checkpoint-dir", ckpts])
        capsys.readouterr()
        store = CheckpointStore(ckpts)
        corrupt_file(store.payload_path("wave000002"), seed=2)
        assert main(["checkpoints", ckpts]) == 0
        listing = capsys.readouterr().out
        assert "CORRUPT" in listing

    def test_metrics_out_carries_resilience_section(self, tmp_path, capsys):
        from repro.cli import main

        metrics = tmp_path / "run.json"
        code = main([
            "enumerate", "--fill-words", "1", "--state-budget", "300",
            "--metrics-out", str(metrics),
        ])
        assert code == 4
        payload = json.loads(metrics.read_text())
        assert payload["resilience"]["truncated"]
        assert payload["resilience"]["budget_outcome"] == "max_states"


# ---------------------------------------------------------------------------
# SIGTERM routing: `kill` behaves exactly like Ctrl-C
# ---------------------------------------------------------------------------


class TestSigtermRouting:
    """Both interruption signals land in the same checkpoint/resume path."""

    @pytest.mark.parametrize("plan", [
        FaultPlan(sigint_after_wave=3),
        FaultPlan(sigterm_after_wave=3),
    ], ids=["sigint", "sigterm"])
    def test_both_signals_checkpoint_then_resume_bit_identical(
        self, tmp_path, golden_json, plan
    ):
        from repro.resilience import (
            install_term_to_interrupt,
            restore_term_handler,
        )

        previous = install_term_to_interrupt()
        checkpoint = CheckpointConfig(tmp_path, every_waves=1)
        try:
            with pytest.raises(KeyboardInterrupt):
                enumerate_states(
                    small_model(), checkpoint=checkpoint, faults=plan,
                )
        finally:
            restore_term_handler(previous)
        assert checkpoint.store.latest() == "wave000003"
        graph, stats = enumerate_states(
            small_model(), checkpoint=checkpoint, resume=True,
        )
        assert graph.to_json() == golden_json
        assert stats.resumed

    def test_install_returns_previous_handler(self):
        import signal as signal_module

        from repro.resilience import (
            install_term_to_interrupt,
            restore_term_handler,
        )

        before = signal_module.getsignal(signal_module.SIGTERM)
        previous = install_term_to_interrupt()
        assert signal_module.getsignal(signal_module.SIGTERM) is not before
        restore_term_handler(previous)
        assert signal_module.getsignal(signal_module.SIGTERM) is before

    def test_install_from_worker_thread_is_a_safe_noop(self):
        from repro.resilience import install_term_to_interrupt

        results = []
        thread = threading.Thread(
            target=lambda: results.append(install_term_to_interrupt())
        )
        thread.start()
        thread.join()
        assert results == [None]


class TestCliSigterm:
    """`kill <pid>` of a one-shot command exits 130 with a resume hint."""

    def _run_cli(self, tmp_path, extra_args, inject_sigterm):
        import subprocess
        import sys

        # `repro enumerate` runs the pipeline's graph step, so the fault
        # plan goes in through that step's own ``faults`` hook.
        script = (
            "import sys\n"
            "import repro.cli as cli\n"
            "from repro.core import ValidationPipeline\n"
            "from repro.resilience import FaultPlan\n"
            "real = ValidationPipeline.build_graph\n"
            "def patched(self, resume=False, faults=None):\n"
            "    return real(self, resume, FaultPlan(sigterm_after_wave=3))\n"
        )
        if inject_sigterm:
            script += "ValidationPipeline.build_graph = patched\n"
        script += "sys.exit(cli.main(sys.argv[1:]))\n"
        env = dict(os.environ)
        root = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(root)
        return subprocess.run(
            [sys.executable, "-c", script, "enumerate", "--fill-words", "1",
             "--jobs", "1", "--checkpoint-dir", str(tmp_path / "ckpt"),
             *extra_args],
            capture_output=True, text=True, env=env, timeout=120,
        )

    def test_sigterm_exit_130_then_cli_resume_bit_identical(
        self, tmp_path, golden_json
    ):
        interrupted = self._run_cli(tmp_path, [], inject_sigterm=True)
        assert interrupted.returncode == 130, interrupted.stderr
        assert "interrupted" in interrupted.stderr
        assert "--resume" in interrupted.stderr
        graph_out = tmp_path / "resumed.graph.json"
        resumed = self._run_cli(
            tmp_path, ["--resume", "--graph-out", str(graph_out)],
            inject_sigterm=False,
        )
        assert resumed.returncode == 0, resumed.stderr
        assert graph_out.read_text() == golden_json
