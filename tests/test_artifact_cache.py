"""Tests for the persistent artifact cache and its pipeline wiring."""

import contextlib
import hashlib
import json
import pickle
import shutil

import pytest

import repro.core.cache as cache_mod
import repro.core.pipeline as pipeline_mod
from repro.bugs import BUGS
from repro.cli import main
from repro.core import ArtifactCache, ValidationPipeline, phase_code_version
from repro.core.cache import (
    load_verdicts,
    pipeline_phase_keys,
    store_verdicts,
    verdict_key,
)
from repro.harness.compare import DEFAULT_INBOX, DEFAULT_MAX_CYCLES, trace_digests
from repro.incremental.edits import resolve_edits
from repro.incremental.splice import edge_costs
from repro.obs import MetricsRegistry, Observer, validate_run_report
from repro.pp.fsm_model import PPModelConfig
from repro.pp.rtl.core import CoreConfig
from repro.vectors import TransitionEventMemo

SMALL = dict(model_config=PPModelConfig(fill_words=1), max_instructions_per_trace=300)


@pytest.fixture(scope="module")
def warm_cache_dir(tmp_path_factory):
    """A cache directory with the small config already built into it."""
    cache_dir = tmp_path_factory.mktemp("artifact-cache")
    ValidationPipeline(cache_dir=str(cache_dir), **SMALL).build()
    return cache_dir


def _verdict_key(config):
    return verdict_key(
        config, inbox_tasks=DEFAULT_INBOX, strict_writes=True,
        max_cycles=DEFAULT_MAX_CYCLES,
    )


def build_key(model_config, **flags):
    """The end of a build's key chain: it covers every input."""
    return pipeline_phase_keys(model_config, **flags)["traces"]


class TestKeying:
    def test_key_is_stable(self):
        assert build_key(PPModelConfig(), seed=3) == build_key(
            PPModelConfig(), seed=3
        )

    def test_key_changes_with_config(self):
        base = build_key(PPModelConfig(fill_words=2))
        assert build_key(PPModelConfig(fill_words=3)) != base
        assert build_key(PPModelConfig(fill_words=2, extra_pipe_stages=1)) != base

    def test_key_changes_with_flags_and_seed(self):
        base = build_key(PPModelConfig(), seed=0)
        assert build_key(PPModelConfig(), seed=1) != base
        assert build_key(PPModelConfig(), record_all_conditions=True) != base
        assert build_key(PPModelConfig(), max_instructions_per_trace=100) != base

        # Each input re-keys its own phase and every phase downstream of
        # it, and leaves the upstream entries live.
        phases = pipeline_phase_keys(PPModelConfig(), max_instructions_per_trace=400)

        def changed(model_config=PPModelConfig(), **flags):
            keys = pipeline_phase_keys(model_config, **flags)
            return {phase for phase in phases if keys[phase] != phases[phase]}

        assert changed(max_instructions_per_trace=400, seed=1) == {"traces"}
        assert changed(max_instructions_per_trace=100) == {
            "tours", "splice", "traces",
        }
        assert changed(max_instructions_per_trace=400, record_all_conditions=True) \
            == {"graph", "tours", "splice", "traces"}
        assert changed(PPModelConfig(fill_words=1), max_instructions_per_trace=400) \
            == set(phases)

    def test_keys_are_pinned(self):
        # Fixed code digests keep this pin still when sources change; the
        # hex values are the keys the chain has always produced, so any
        # change to the key layout shows up here.
        keys = pipeline_phase_keys(
            PPModelConfig(fill_words=1),
            record_all_conditions=True,
            max_instructions_per_trace=300,
            seed=7,
            code_digests={
                "model": "m" * 64, "graph": "g" * 64,
                "tours": "t" * 64, "traces": "v" * 64,
            },
        )
        assert keys == {
            "model": "ec284b4e045a9e108d45b167f5226364f928fd9bb699f2cc414c3f35bf83b5f8",
            "graph": "2fb035afebd1bde41842bda7c0a405c0900de2f44b8375a3064379572edfb076",
            "tours": "d78cfd8fea948eafe89969364c127aabf95864d0eec62b8c789bf8be90dc5850",
            "traces": "ca090cd29b235db9d6d57dd2dd563dd5613425ae474394db45c55655dd3e972b",
            "splice": "d01dbea05dbf98f373983811fae1867877272f689a20e0c25614eebb96daef0a",
        }

    def test_phase_flags_follow_the_artifact_phases(self):
        assert tuple(cache_mod.PHASE_FLAGS) == cache_mod.PHASES[1:]
        pipeline = ValidationPipeline(seed=5, **SMALL)
        assert pipeline._build_flags() == {
            "record_all_conditions": False,
            "max_instructions_per_trace": 300,
            "seed": 5,
        }

    def test_code_version_is_memoized_hex(self):
        for phase in ("model", "graph", "tours", "traces"):
            first = phase_code_version(phase)
            assert first == phase_code_version(phase)
            assert len(first) == 64
            int(first, 16)


class TestArtifactCache:
    def test_miss_returns_none(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.load("0" * 64) is None
        assert not cache.has("0" * 64)

    def test_store_then_load_roundtrip(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        payload = {"graph": [1, 2, 3], "nested": ("a", True)}
        cache.store("k" * 64, payload, manifest={"why": "test"})
        assert cache.has("k" * 64)
        assert cache.load("k" * 64) == payload
        manifest = json.loads(cache.manifest_path("k" * 64).read_text())
        assert manifest["why"] == "test"
        # store() stamps integrity metadata alongside the caller's fields.
        assert manifest["sha256"] == hashlib.sha256(
            cache.pickle_path("k" * 64).read_bytes()
        ).hexdigest()
        assert manifest["size"] == cache.pickle_path("k" * 64).stat().st_size

    @pytest.mark.parametrize(
        "garbage",
        [b"not a pickle", b"garbage\n", b"\x80", b"\xff\xfe\x00junk"],
        ids=["opcode-soup", "get-opcode-valueerror", "truncated-proto", "binary"],
    )
    def test_corrupt_entry_is_a_miss(self, tmp_path, garbage):
        # Unpickling corrupt bytes raises all sorts of exceptions (the
        # b"garbage" case is a ValueError, not UnpicklingError); every one
        # must read as a miss, never crash the caller.
        cache = ArtifactCache(tmp_path)
        cache.store("c" * 64, [1, 2])
        cache.pickle_path("c" * 64).write_bytes(garbage)
        assert cache.load("c" * 64) is None

    def test_truncated_entry_is_a_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store("t" * 64, list(range(1000)))
        blob = cache.pickle_path("t" * 64).read_bytes()
        cache.pickle_path("t" * 64).write_bytes(blob[: len(blob) // 2])
        assert cache.load("t" * 64) is None

    def test_unusable_cache_dir_fails_fast(self, tmp_path):
        # A cache path that collides with an existing file must fail at
        # construction, before any expensive build is attempted.
        blocker = tmp_path / "afile"
        blocker.write_text("")
        with pytest.raises(ValueError, match="unusable"):
            ArtifactCache(blocker)

    def test_prune_empties_the_cache(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store("p" * 64, [1], manifest={})
        assert cache.prune() == 1
        assert not cache.has("p" * 64)


def _small_phase_keys():
    from repro.core.cache import pipeline_phase_keys

    return pipeline_phase_keys(
        SMALL["model_config"],
        max_instructions_per_trace=SMALL["max_instructions_per_trace"],
    )


class TestPipelineCaching:
    def test_cold_build_stores_and_reports_built(self, warm_cache_dir):
        # The module fixture performed the cold build; every phase entry
        # (plus the tours' splice sidecar) must exist under its own key.
        cache = ArtifactCache(warm_cache_dir)
        keys = _small_phase_keys()
        for phase in ("model", "graph", "tours", "splice", "traces"):
            assert cache.has(keys[phase]), phase

    def test_warm_hit_skips_enumeration_and_matches(self, warm_cache_dir):
        pipeline = ValidationPipeline(cache_dir=str(warm_cache_dir), **SMALL)
        artifacts = pipeline.build()
        assert pipeline.artifacts_from_cache
        rebuilt = ValidationPipeline(**SMALL).build()
        assert artifacts.graph.to_json() == rebuilt.graph.to_json()
        assert [t.program for t in artifacts.traces] == [
            t.program for t in rebuilt.traces
        ]
        assert [t.edge_indices for t in artifacts.tours] == [
            t.edge_indices for t in rebuilt.tours
        ]

    def test_no_cache_forces_rebuild_but_still_stores(self, warm_cache_dir):
        pipeline = ValidationPipeline(
            cache_dir=str(warm_cache_dir), use_cache=False, **SMALL
        )
        pipeline.build()
        assert not pipeline.artifacts_from_cache
        assert ArtifactCache(warm_cache_dir).has(pipeline.cache_key)

    def test_partial_builds_stop_after_their_phase(self, tmp_path, warm_cache_dir):
        cache_dir = str(tmp_path / "cache")
        cache = ArtifactCache(cache_dir)
        keys = _small_phase_keys()
        graph_only = ValidationPipeline(cache_dir=cache_dir, **SMALL)
        graph, _ = graph_only.build_graph()
        assert graph_only.cache_key == keys["graph"]
        assert [p for p in keys if cache.has(keys[p])] == ["model", "graph"]

        # A whole hit on the graph phase builds no model.
        warm = ValidationPipeline(cache_dir=cache_dir, **SMALL)

        def no_model_build():
            raise AssertionError("a whole hit built the model")

        warm.control.build = no_model_build
        assert warm.build_graph()[0].to_json() == graph.to_json()
        assert warm.artifacts_from_cache

        tours_only = ValidationPipeline(cache_dir=cache_dir, **SMALL)
        tours = tours_only.build_tours()
        assert tours_only.phase_hits == {
            "model": True, "graph": True, "tours": False,
        }
        assert not cache.has(keys["traces"])

        # The full build reuses both and makes the same traces as a build
        # that never stopped early.
        full = ValidationPipeline(cache_dir=cache_dir, **SMALL)
        artifacts = full.build()
        assert full.phase_hits == {
            "model": True, "graph": True, "tours": True, "traces": False,
        }
        assert [t.edge_indices for t in artifacts.tours] == [
            t.edge_indices for t in tours
        ]
        reference = ValidationPipeline(cache_dir=str(warm_cache_dir), **SMALL)
        assert [t.program for t in artifacts.traces] == [
            t.program for t in reference.build().traces
        ]

    def test_seed_change_builds_no_model_and_loads_each_entry_once(
        self, warm_cache_dir, monkeypatch
    ):
        loads = []
        real_load = ArtifactCache.load

        def counting_load(cache, key):
            loads.append(key)
            return real_load(cache, key)

        def no_fingerprint(model):
            raise AssertionError("a graph hit fingerprinted the model")

        monkeypatch.setattr(ArtifactCache, "load", counting_load)
        monkeypatch.setattr(pipeline_mod, "fingerprint_model", no_fingerprint)
        observer = Observer()
        pipeline = ValidationPipeline(
            cache_dir=str(warm_cache_dir), seed=98, observer=observer, **SMALL
        )

        def no_model_build():
            raise AssertionError("a graph hit built the model")

        pipeline.control.build = no_model_build
        artifacts = pipeline.build()
        keys = pipeline.phase_keys
        assert sorted(loads) == sorted(
            keys[phase] for phase in ("graph", "tours", "traces", "splice")
        )
        assert pipeline.phase_hits == {
            "model": True, "graph": True, "tours": True, "traces": False,
        }
        assert not pipeline.artifacts_from_cache
        metrics = observer.metrics
        assert metrics.total("cache.misses") == 1
        assert metrics.total("cache.hits") == 0
        assert metrics.total("cache.stores") == 1
        assert ArtifactCache(warm_cache_dir).has(keys["traces"])
        cold = ValidationPipeline(seed=98, **SMALL).build()
        assert artifacts.traces.to_json() == cold.traces.to_json()

    def test_single_flight_wait_loads_the_other_build(
        self, tmp_path, warm_cache_dir, monkeypatch
    ):
        # Another process holds the lock and stores every entry before
        # this run gets it: the run waits, loads those entries and builds
        # nothing.
        cache_dir = tmp_path / "cache"
        real_single_flight = ArtifactCache.single_flight

        @contextlib.contextmanager
        def contended(cache, key, **kwargs):
            shutil.copytree(warm_cache_dir, cache_dir, dirs_exist_ok=True)
            with real_single_flight(cache, key, **kwargs):
                yield True

        monkeypatch.setattr(ArtifactCache, "single_flight", contended)
        observer = Observer()
        pipeline = ValidationPipeline(
            cache_dir=str(cache_dir), observer=observer, **SMALL
        )

        def no_model_build():
            raise AssertionError("a run that waited built the model")

        pipeline.control.build = no_model_build
        artifacts = pipeline.build()
        assert pipeline.artifacts_from_cache
        assert pipeline.phase_hits == {
            "model": True, "graph": True, "tours": True, "traces": True,
        }
        metrics = observer.metrics
        assert metrics.total("cache.single_flight_waits") == 1
        assert metrics.total("cache.misses") == 1
        assert metrics.total("cache.hits") == 1
        assert metrics.total("cache.stores") == 0
        reference = ValidationPipeline(cache_dir=str(warm_cache_dir), **SMALL)
        assert artifacts.traces.to_json() == reference.build().traces.to_json()

    def test_seed_change_misses(self, warm_cache_dir):
        pipeline = ValidationPipeline(cache_dir=str(warm_cache_dir), seed=99, **SMALL)
        pipeline.build()
        assert not pipeline.artifacts_from_cache

    def test_validate_reports_cache_provenance(self, warm_cache_dir):
        pipeline = ValidationPipeline(cache_dir=str(warm_cache_dir), **SMALL)
        report = pipeline.validate()
        assert report.from_cache
        assert report.clean

    def test_validate_parallel_matches_sequential(self, warm_cache_dir):
        sequential = ValidationPipeline(
            cache_dir=str(warm_cache_dir), jobs=1, **SMALL
        ).validate()
        pipeline = ValidationPipeline(cache_dir=str(warm_cache_dir), jobs=2, **SMALL)
        try:
            parallel = pipeline.validate()
        finally:
            pipeline.shutdown()
        assert parallel.traces_run == sequential.traces_run
        assert parallel.diverging_traces == sequential.diverging_traces
        assert [r.cycles for r in parallel.results] == [
            r.cycles for r in sequential.results
        ]


class TestSingleFlight:
    """flock-based per-key build locking: N racers, exactly one build."""

    def test_uncontended_lock_does_not_wait(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        with cache.single_flight("s" * 64) as waited:
            assert waited is False
        # Released: an immediate re-acquire sees no contention.  (The
        # lock *file* stays behind as cheap debris; prune() removes it.)
        with cache.single_flight("s" * 64) as waited:
            assert waited is False
        assert cache.prune() >= 0
        assert not cache.lock_path("s" * 64).exists()

    def test_build_counter_tracks_stores(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.build_count("c" * 64) == 0
        cache.store("c" * 64, [1], manifest={})
        assert cache.build_count("c" * 64) == 1
        cache.store("c" * 64, [2], manifest={})
        assert cache.build_count("c" * 64) == 2

    def test_second_holder_waits_and_learns_it_waited(self, tmp_path):
        import threading
        import time

        cache = ArtifactCache(tmp_path)
        key = "w" * 64
        order = []
        first_in = threading.Event()
        release = threading.Event()

        def holder():
            with cache.single_flight(key) as waited:
                order.append(("holder", waited))
                first_in.set()
                release.wait(timeout=10)

        def waiter():
            first_in.wait(timeout=10)
            with cache.single_flight(key, poll_interval=0.01) as waited:
                order.append(("waiter", waited))

        threads = [threading.Thread(target=holder),
                   threading.Thread(target=waiter)]
        threads[0].start()
        threads[1].start()
        first_in.wait(timeout=10)
        time.sleep(0.05)  # let the waiter reach the poll loop
        release.set()
        for thread in threads:
            thread.join(timeout=10)
        assert order == [("holder", False), ("waiter", True)]

    def test_stale_lock_is_broken(self, tmp_path):
        import os
        import time

        cache = ArtifactCache(tmp_path)
        key = "z" * 64
        cache.lock_path(key).write_text("")
        old = time.time() - 3600
        os.utime(cache.lock_path(key), (old, old))
        # An abandoned lock (holder SIGKILLed an hour ago, nothing
        # holding the flock) must not wedge every future build.
        with cache.single_flight(key, stale_after=600.0) as waited:
            assert waited is False

    def test_lock_timeout_raises(self, tmp_path):
        import threading

        cache = ArtifactCache(tmp_path)
        key = "t" * 64
        acquired = threading.Event()
        release = threading.Event()

        def holder():
            with cache.single_flight(key):
                acquired.set()
                release.wait(timeout=10)

        thread = threading.Thread(target=holder)
        thread.start()
        acquired.wait(timeout=10)
        try:
            with pytest.raises(TimeoutError):
                with cache.single_flight(key, poll_interval=0.01, timeout=0.1):
                    pass
        finally:
            release.set()
            thread.join(timeout=10)

    def test_concurrent_pipelines_build_exactly_once(self, tmp_path):
        """ISSUE acceptance: N concurrent identical builds, one real build."""
        import multiprocessing

        context = multiprocessing.get_context("fork")
        barrier = context.Barrier(4)
        processes = [
            context.Process(
                target=_racing_build, args=(str(tmp_path), barrier)
            )
            for _ in range(4)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=180)
            assert process.exitcode == 0
        cache = ArtifactCache(tmp_path)
        key = _small_phase_keys()["traces"]
        assert cache.has(key)
        assert cache.build_count(key) == 1


def _racing_build(cache_dir, barrier):
    barrier.wait(timeout=60)
    pipeline = ValidationPipeline(cache_dir=cache_dir, **SMALL)
    pipeline.build()


class TestArtifactKeyEdgeCases:
    """The corners of the keying scheme (ISSUE: PR 10, satellite c)."""

    def test_non_dataclass_configs_with_colliding_reprs_get_distinct_keys(self):
        # Two *distinct* config classes whose reprs collide must not share
        # a cache entry: config_payload tags the payload with the concrete
        # type's qualified name, so the repr fallback cannot alias.
        class ConfigA:
            def __repr__(self):
                return "Config(n=1)"

        class ConfigB:
            def __repr__(self):
                return "Config(n=1)"

        from repro.core.cache import config_payload

        assert repr(ConfigA()) == repr(ConfigB())
        assert build_key(ConfigA()) != build_key(ConfigB())
        assert config_payload(ConfigA())["type"] != config_payload(ConfigB())["type"]

    def test_same_non_dataclass_type_keys_by_repr(self):
        class Config:
            def __init__(self, n):
                self.n = n

            def __repr__(self):
                return f"Config(n={self.n})"

        assert build_key(Config(1)) == build_key(Config(1))
        assert build_key(Config(1)) != build_key(Config(2))


class TestPhaseCodeDigests:
    """Per-phase code digests: the invalidation matrix (PR 10 tentpole)."""

    def _tree(self, tmp_path, **files):
        for rel, content in files.items():
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(content)
        return tmp_path

    def test_obs_only_edit_invalidates_no_phase(self, tmp_path):
        from repro.core.cache import PHASES, phase_code_version

        root = self._tree(
            tmp_path,
            **{
                "smurphi/model.py": "A = 1\n",
                "enumeration/bfs.py": "B = 1\n",
                "tour/gen.py": "C = 1\n",
                "vectors/gen.py": "D = 1\n",
                "pp/model.py": "E = 1\n",
                "incremental/replay.py": "F = 1\n",
                "obs/observer.py": "OBS = 1\n",
            },
        )
        before = {p: phase_code_version(p, package_root=root) for p in PHASES}
        (root / "obs/observer.py").write_text("OBS = 2  # edited\n")
        after = {p: phase_code_version(p, package_root=root) for p in PHASES}
        assert before == after

    def test_tour_edit_keeps_model_and_graph(self, tmp_path):
        from repro.core.cache import phase_code_version

        root = self._tree(
            tmp_path,
            **{
                "smurphi/model.py": "A = 1\n",
                "enumeration/bfs.py": "B = 1\n",
                "tour/gen.py": "C = 1\n",
                "vectors/gen.py": "D = 1\n",
                "pp/model.py": "E = 1\n",
                "incremental/replay.py": "F = 1\n",
            },
        )
        before = {
            p: phase_code_version(p, package_root=root)
            for p in ("model", "graph", "tours", "traces")
        }
        (root / "tour/gen.py").write_text("C = 2\n")
        after = {
            p: phase_code_version(p, package_root=root)
            for p in ("model", "graph", "tours", "traces")
        }
        assert after["model"] == before["model"]
        assert after["graph"] == before["graph"]
        assert after["tours"] != before["tours"]
        # traces only sees tour edits through the key *chain*, not its
        # own digest (tour/ is not in the traces module set).
        assert after["traces"] == before["traces"]

    def test_incremental_edit_invalidates_produced_phases(self, tmp_path):
        # The incremental layer can *write* graph/tours/traces entries, so
        # a bug fix to it must re-key them -- but never the model phase.
        from repro.core.cache import phase_code_version

        root = self._tree(
            tmp_path,
            **{
                "smurphi/model.py": "A = 1\n",
                "enumeration/bfs.py": "B = 1\n",
                "incremental/replay.py": "F = 1\n",
            },
        )
        before = {
            p: phase_code_version(p, package_root=root)
            for p in ("model", "graph", "tours", "traces")
        }
        (root / "incremental/replay.py").write_text("F = 2\n")
        after = {
            p: phase_code_version(p, package_root=root)
            for p in ("model", "graph", "tours", "traces")
        }
        assert after["model"] == before["model"]
        assert after["graph"] != before["graph"]
        assert after["tours"] != before["tours"]
        assert after["traces"] != before["traces"]

    def test_obs_only_edit_leaves_every_pipeline_phase_key_unchanged(self, tmp_path):
        # End to end over the key chain: phase keys derived from digests of
        # a tree with only an obs/ edit are identical, so *nothing* rebuilds.
        from repro.core.cache import PHASES, phase_code_version, pipeline_phase_keys

        root = self._tree(
            tmp_path,
            **{
                "smurphi/model.py": "A = 1\n",
                "enumeration/bfs.py": "B = 1\n",
                "obs/observer.py": "OBS = 1\n",
            },
        )

        def keys():
            digests = {
                p: phase_code_version(p, package_root=root) for p in PHASES
            }
            return pipeline_phase_keys(
                PPModelConfig(fill_words=1), code_digests=digests
            )

        before = keys()
        (root / "obs/observer.py").write_text("OBS = 99\n")
        assert keys() == before

    #: A tree with the real ``pp/rtl`` layout: the simulator-only units plus
    #: the modules the vector generator reads.
    PP_TREE = {
        "smurphi/model.py": "A = 1\n",
        "enumeration/bfs.py": "B = 1\n",
        "tour/gen.py": "C = 1\n",
        "vectors/generator.py": "D = 1\n",
        "incremental/replay.py": "F = 1\n",
        "pp/isa.py": "ISA = 1\n",
        "pp/rtl/__init__.py": "from repro.pp.rtl.core import PPCore\n",
        "pp/rtl/memory.py": "LINE_WORDS = 4\n",
        "pp/rtl/stimulus.py": "S = 1\n",
        **{
            f"pp/rtl/{unit}.py": f"{unit.upper()} = 1\n"
            for unit in ("core", "icache", "dcache", "memctrl", "inbox", "outbox", "regfile")
        },
    }

    @staticmethod
    def _digests(root):
        from repro.core.cache import PHASES, phase_code_version

        return {p: phase_code_version(p, package_root=root) for p in PHASES}

    def test_pp_tree_names_every_excluded_file(self):
        from repro.core.cache import PHASE_EXCLUDED

        assert PHASE_EXCLUDED <= set(self.PP_TREE)

    @pytest.mark.parametrize("edited", [
        "pp/rtl/core.py", "pp/rtl/icache.py", "pp/rtl/dcache.py", "pp/rtl/memctrl.py",
        "pp/rtl/inbox.py", "pp/rtl/outbox.py", "pp/rtl/regfile.py",
    ])
    def test_simulator_only_edit_changes_no_phase_digest(self, tmp_path, edited):
        # The comparison simulator feeds no artifact bytes: editing it must
        # not re-key model -> graph -> tours -> traces.
        root = self._tree(tmp_path, **self.PP_TREE)
        before = self._digests(root)
        (root / edited).write_text("EDITED = 2  # a faster cycle loop\n")
        assert self._digests(root) == before

    @pytest.mark.parametrize("edited", [
        "pp/rtl/core.py", "pp/rtl/icache.py", "pp/rtl/dcache.py", "pp/rtl/memctrl.py",
        "pp/rtl/inbox.py", "pp/rtl/outbox.py", "pp/rtl/regfile.py",
        "harness/compare.py",
    ])
    def test_simulator_edit_rekeys_verdicts_and_no_phase(self, tmp_path, edited):
        # The verdict digest hashes the simulator units the phases skip:
        # an RTL edit invalidates verdicts, never artifacts.
        from repro.core.cache import VERDICTS, phase_code_version

        root = self._tree(
            tmp_path, **self.PP_TREE, **{"harness/compare.py": "H = 1\n"}
        )
        before = self._digests(root)
        verdicts = phase_code_version(VERDICTS, package_root=root)
        (root / edited).write_text("EDITED = 2\n")
        assert self._digests(root) == before
        assert phase_code_version(VERDICTS, package_root=root) != verdicts

    @pytest.mark.parametrize("edited", [
        "pp/rtl/memory.py", "pp/rtl/stimulus.py", "pp/rtl/__init__.py", "pp/isa.py",
    ])
    def test_artifact_feeding_pp_edit_still_changes_traces(self, tmp_path, edited):
        root = self._tree(tmp_path, **self.PP_TREE)
        before = self._digests(root)
        (root / edited).write_text("EDITED = 2\n")
        after = self._digests(root)
        assert after["traces"] != before["traces"]
        assert after["model"] != before["model"]

    def test_new_pp_module_is_hashed(self, tmp_path):
        # The exclusion is a list of files, not of directories: anything
        # new under pp/ (even next to the simulator units) stays hashed.
        root = self._tree(tmp_path, **self.PP_TREE)
        before = self._digests(root)
        (root / "pp/rtl/new_unit.py").write_text("NEW = 1\n")
        after = self._digests(root)
        assert after["traces"] != before["traces"]
        assert after["model"] != before["model"]

    def test_no_hashed_phase_module_imports_a_simulator_only_module(self):
        # The exclusion is sound only while no hashed module of a phase
        # subtree can reach the simulator units: by a direct import, a
        # ``from <package> import <unit>`` or a name re-exported from one by
        # ``pp/rtl/__init__.py`` (the one module allowed to import them).
        import ast
        from pathlib import Path

        import repro
        from repro.core.cache import PHASE_EXCLUDED, PHASE_MODULES

        root = Path(repro.__file__).resolve().parent

        def module_of(rel):
            parts = ("repro",) + rel.with_suffix("").parts
            return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)

        def imports(rel):
            package = module_of(rel).split(".")
            if rel.name != "__init__.py":
                package = package[:-1]
            for node in ast.walk(ast.parse((root / rel).read_text())):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        yield alias.name, ()
                elif isinstance(node, ast.ImportFrom):
                    base = package[: len(package) - node.level + 1] if node.level else []
                    module = ".".join(base + ([node.module] if node.module else []))
                    yield module, tuple(alias.name for alias in node.names)

        excluded = {module_of(Path(rel)) for rel in PHASE_EXCLUDED}
        rtl_init = Path("pp/rtl/__init__.py")
        reexported = {
            name
            for module, names in imports(rtl_init) if module in excluded
            for name in names
        }
        assert "PPCore" in reexported  # the check below is not vacuous

        offenders = []
        subtrees = {sub for subs in PHASE_MODULES.values() for sub in subs}
        for sub in sorted(subtrees):
            for path in sorted((root / sub).rglob("*.py")):
                rel = path.relative_to(root)
                if rel.as_posix() in PHASE_EXCLUDED or rel == rtl_init:
                    continue
                for module, names in imports(rel):
                    if (
                        module in excluded
                        or any(f"{module}.{name}" in excluded for name in names)
                        or (module == "repro.pp.rtl" and set(names) & reexported)
                    ):
                        offenders.append(f"{rel}: {module} {names}")
        assert offenders == []


class TestCodeVersionRefresh:
    """The staleness escape hatch for long-lived processes."""

    def test_refresh_recomputes_after_an_edit(self, tmp_path, monkeypatch):
        import repro.core.cache as cache_mod

        root = tmp_path / "pkg"
        (root / "tour").mkdir(parents=True)
        (root / "tour" / "mod.py").write_text("X = 1\n")
        monkeypatch.setattr(cache_mod, "_package_root", lambda: root)
        monkeypatch.setattr(cache_mod, "_PHASE_CODE_VERSIONS", {})
        monkeypatch.setattr(cache_mod, "_PHASE_CODE_COMPUTED_AT", {})

        first = cache_mod.phase_code_version("tours")
        (root / "tour" / "mod.py").write_text("X = 2\n")
        # The memo hides the edit until a refresh -- this is exactly the
        # long-lived-daemon staleness the serve startup path guards against.
        assert cache_mod.phase_code_version("tours") == first
        assert cache_mod.phase_code_version("tours", refresh=True) != first

    def test_refresh_drops_phase_memos(self, tmp_path, monkeypatch):
        import repro.core.cache as cache_mod

        root = tmp_path / "pkg"
        (root / "smurphi").mkdir(parents=True)
        (root / "smurphi" / "m.py").write_text("A = 1\n")
        monkeypatch.setattr(cache_mod, "_package_root", lambda: root)
        monkeypatch.setattr(cache_mod, "_PHASE_CODE_VERSIONS", {})
        monkeypatch.setattr(cache_mod, "_PHASE_CODE_COMPUTED_AT", {})

        first = cache_mod.phase_code_version("model")
        (root / "smurphi" / "m.py").write_text("A = 2\n")
        assert cache_mod.phase_code_version("model") == first  # memoized
        cache_mod.refresh_phase_code_versions()
        assert cache_mod.phase_code_version("model") != first

    def test_refresh_rekeys_the_verdicts(self, tmp_path, monkeypatch):
        root = tmp_path / "pkg"
        (root / "pp" / "rtl").mkdir(parents=True)
        (root / "pp" / "rtl" / "core.py").write_text("CYCLE = 1\n")
        monkeypatch.setattr(cache_mod, "_package_root", lambda: root)
        monkeypatch.setattr(cache_mod, "_PHASE_CODE_VERSIONS", {})
        monkeypatch.setattr(cache_mod, "_PHASE_CODE_COMPUTED_AT", {})

        first = _verdict_key(CoreConfig(mem_latency=0))
        (root / "pp" / "rtl" / "core.py").write_text("CYCLE = 2\n")
        assert _verdict_key(CoreConfig(mem_latency=0)) == first  # memoized
        cache_mod.refresh_phase_code_versions()
        assert _verdict_key(CoreConfig(mem_latency=0)) != first

    def test_manifests_record_digest_provenance(self, tmp_path):
        import repro.core.cache as cache_mod

        pipeline = ValidationPipeline(PPModelConfig(fill_words=1))
        cache = ArtifactCache(tmp_path)
        # Each entry records its own phase's digest; the splice sidecar
        # is keyed with the tours digest.
        for index, (phase, code_phase) in enumerate((
            ("model", "model"), ("graph", "graph"), ("tours", "tours"),
            ("splice", "tours"), ("traces", "traces"),
        )):
            key = str(index) * 64
            cache.store(key, [1], manifest=pipeline._phase_manifest(phase))
            manifest = json.loads(cache.manifest_path(key).read_text())
            assert manifest["phase"] == phase
            assert manifest["code_version"] == phase_code_version(code_phase)
            assert manifest["code_computed_at"] == pytest.approx(
                cache_mod._PHASE_CODE_COMPUTED_AT[code_phase]
            )


class TestSpliceSidecar:
    """The sidecar stores the cost list the tours were generated with; it
    must equal a fresh per-arc cost pass over the memo."""

    @staticmethod
    def _sidecar_matches_a_fresh_cost_pass(cache_dir, pipeline):
        sidecar = ArtifactCache(cache_dir).load(pipeline.phase_keys["splice"])
        graph = pipeline.artifacts.graph
        memo = TransitionEventMemo(pipeline.control, graph)
        assert sidecar["edge_costs"] == edge_costs(memo, graph)

    def test_cold_build(self, warm_cache_dir):
        pipeline = ValidationPipeline(cache_dir=str(warm_cache_dir), **SMALL)
        pipeline.build()
        self._sidecar_matches_a_fresh_cost_pass(warm_cache_dir, pipeline)

    def test_localized_splice(self, tmp_path):
        ValidationPipeline(cache_dir=str(tmp_path), **SMALL).build()
        pipeline = ValidationPipeline(
            cache_dir=str(tmp_path), edits=resolve_edits(["inbox-flip-refill"]),
            **SMALL,
        )
        pipeline.build()
        assert "tours" in pipeline.incremental_report.adopted_phases
        self._sidecar_matches_a_fresh_cost_pass(tmp_path, pipeline)


# -- verdict reuse ----------------------------------------------------------

DESIGNS = [None] + sorted(BUGS)


def _core_config(bug):
    config = CoreConfig(mem_latency=0)
    return config if bug is None else config.with_bugs(bug)


@pytest.fixture(scope="module")
def verdict_base(tmp_path_factory):
    """A cache directory holding the small build and no verdict table."""
    base = tmp_path_factory.mktemp("verdict-base")
    ValidationPipeline(cache_dir=str(base), **SMALL).build()
    return base


@pytest.fixture(scope="module")
def cold_reports():
    """``cold_reports(bug, stop)``: the cache-free validation of a design."""
    pipeline = ValidationPipeline(**SMALL)
    reports = {}

    def get(bug, stop):
        if (bug, stop) not in reports:
            reports[bug, stop] = pipeline.validate(
                _core_config(bug), stop_on_divergence=stop
            )
        return reports[bug, stop]

    return get


def _assert_same_verdict(report, cold):
    assert report.results == cold.results
    assert report.diverging_traces == cold.diverging_traces
    assert report.traces_run == cold.traces_run
    assert report.total_traces == cold.total_traces


class TestVerdictReuse:
    """A validate served from the verdict table returns what simulating
    every trace returns, and reuses exactly the traces the table holds."""

    @staticmethod
    def _cache(verdict_base, tmp_path):
        cache_dir = tmp_path / "cache"
        shutil.copytree(verdict_base, cache_dir)
        return str(cache_dir)

    @staticmethod
    def _validate(cache_dir, bug, stop, jobs=1, **kwargs):
        pipeline = ValidationPipeline(cache_dir=cache_dir, jobs=jobs, **SMALL, **kwargs)
        try:
            return pipeline.validate(_core_config(bug), stop_on_divergence=stop)
        finally:
            pipeline.shutdown()

    @staticmethod
    def _digests(cache_dir):
        traces = ValidationPipeline(cache_dir=cache_dir, **SMALL).build().traces
        return trace_digests(traces.traces)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("stop", [True, False], ids=["stop", "all"])
    @pytest.mark.parametrize("bug", DESIGNS)
    def test_warm_table_equals_cold_run(
        self, verdict_base, cold_reports, tmp_path, bug, stop, jobs
    ):
        cold = cold_reports(bug, stop)
        cache_dir = self._cache(verdict_base, tmp_path)
        first = self._validate(cache_dir, bug, stop, jobs)
        assert first.reused_traces == 0
        _assert_same_verdict(first, cold)
        warm = self._validate(cache_dir, bug, stop, jobs)
        assert warm.reused_traces == warm.traces_run
        _assert_same_verdict(warm, cold)

    def test_some_cut_lands_after_a_reused_trace(self, cold_reports):
        # The seeded test below knows the even traces: a first divergence
        # at an odd index is a cut on a simulated trace after reused ones.
        assert any(
            cold_reports(bug, True).diverging_traces[0] % 2 == 1 for bug in BUGS
        )

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("bug", DESIGNS)
    def test_reused_and_fresh_traces_mix(
        self, verdict_base, cold_reports, tmp_path, bug, jobs
    ):
        cache_dir = self._cache(verdict_base, tmp_path)
        digests = self._digests(cache_dir)
        every = cold_reports(bug, False)
        seeded = range(0, len(digests), 2)
        store_verdicts(
            ArtifactCache(cache_dir), _verdict_key(_core_config(bug)),
            {digests[i]: every.results[i].to_row() for i in seeded},
        )
        known = set(seeded)
        for stop in (True, False):
            report = self._validate(cache_dir, bug, stop, jobs)
            _assert_same_verdict(report, cold_reports(bug, stop))
            assert report.reused_traces == len(known & set(range(report.traces_run)))
            known |= set(range(report.traces_run))

    def test_corrupt_table_is_a_miss(self, verdict_base, cold_reports, tmp_path):
        cache_dir = self._cache(verdict_base, tmp_path)
        cache = ArtifactCache(cache_dir)
        key = _verdict_key(_core_config(None))
        self._validate(cache_dir, None, True)
        cache.pickle_path(key).write_bytes(b"garbage")
        report = self._validate(cache_dir, None, True)
        assert report.reused_traces == 0
        _assert_same_verdict(report, cold_reports(None, True))
        assert cache.quarantine_path(key).exists()
        # A payload of the wrong shape is no table either.
        cache.store(key, ["not", "a", "table"])
        assert self._validate(cache_dir, None, True).reused_traces == 0
        assert self._validate(cache_dir, None, True).reused_traces \
            == report.traces_run

    def test_row_cap_evicts_least_recently_used_row(
        self, verdict_base, cold_reports, tmp_path, monkeypatch
    ):
        cache_dir = self._cache(verdict_base, tmp_path)
        cache = ArtifactCache(cache_dir)
        key = _verdict_key(_core_config(None))
        digests = self._digests(cache_dir)
        row = cold_reports(None, False).results[0].to_row()
        stale = b"\0" * 16
        # Trace 0's row is older than the stale one, but the run uses it.
        store_verdicts(cache, key, {digests[0]: row, stale: row})
        unique = list(dict.fromkeys(digests))
        monkeypatch.setattr(cache_mod, "VERDICT_TABLE_ROWS", len(unique))
        report = self._validate(cache_dir, None, False)
        assert report.reused_traces == digests.count(digests[0])
        assert list(load_verdicts(cache, key)) == unique

    def test_store_keeps_the_most_recent_rows(self, tmp_path, monkeypatch):
        cache = ArtifactCache(tmp_path)
        monkeypatch.setattr(cache_mod, "VERDICT_TABLE_ROWS", 3)
        table = {bytes([i]) * 16: (False, (), None, i, i, False) for i in range(5)}
        store_verdicts(cache, "k" * 64, table)
        assert list(load_verdicts(cache, "k" * 64)) == list(table)[2:]
        manifest = json.loads(cache.manifest_path("k" * 64).read_text())
        assert manifest["phase"] == "verdicts"
        assert manifest["rows"] == 3

    def test_no_cache_simulates_every_trace_and_still_stores(
        self, verdict_base, cold_reports, tmp_path
    ):
        cache_dir = self._cache(verdict_base, tmp_path)
        self._validate(cache_dir, None, False)
        report = self._validate(cache_dir, None, False, use_cache=False)
        assert report.reused_traces == 0
        _assert_same_verdict(report, cold_reports(None, False))
        assert self._validate(cache_dir, None, False).reused_traces \
            == report.traces_run

    def test_key_ignores_scheduling_and_sorts_bugs(self):
        config = _core_config(None)
        assert _verdict_key(config.with_bugs(3, 1)) \
            == _verdict_key(config.with_bugs(1).with_bugs(3))
        assert _verdict_key(config) != _verdict_key(config.with_bugs(1))
        assert verdict_key(
            config, inbox_tasks=DEFAULT_INBOX, strict_writes=False,
            max_cycles=DEFAULT_MAX_CYCLES,
        ) != _verdict_key(config)

    def test_without_a_cache_no_digest_is_taken(self, monkeypatch):
        def forbidden(traces):
            raise AssertionError("trace_digests ran without a cache")

        monkeypatch.setattr(pipeline_mod, "trace_digests", forbidden)
        metrics = MetricsRegistry()
        report = ValidationPipeline(
            observer=Observer(metrics=metrics), **SMALL
        ).validate()
        assert report.reused_traces == 0
        assert metrics.counter_value("compare.verdicts_reused") == 0

    def test_cli_reports_reuse(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        base = ["validate", "--fill-words", "1", "--limit", "300",
                "--cache-dir", cache_dir]

        def verdict_lines(*extra):
            assert main(base + list(extra)) == 0
            out = capsys.readouterr().out.splitlines()
            return ([line for line in out if line.startswith("Validation of")],
                    [line for line in out if line.startswith("verdicts:")])

        cold_summary, cold_reuse = verdict_lines()
        assert cold_reuse == ["verdicts: reused 0/47 from the cache's verdict table"]
        metrics_out = str(tmp_path / "run.json")
        warm_summary, warm_reuse = verdict_lines("--metrics-out", metrics_out)
        assert warm_summary == cold_summary
        assert warm_reuse == ["verdicts: reused 47/47 from the cache's verdict table"]
        assert verdict_lines("--no-cache")[1] == cold_reuse

        payload = json.loads(open(metrics_out).read())
        assert validate_run_report(payload) == []
        assert payload["comparison"]["reused_traces"] == 47
        payload["comparison"]["reused_traces"] = 48
        assert validate_run_report(payload) == [
            "comparison.reused_traces is 48"
        ]
        payload["comparison"]["reused_traces"] = 47
        counters = {row["name"]: row["value"] for row in payload["metrics"]["counters"]}
        assert counters["compare.verdicts_reused"] == 47
        assert counters["compare.traces_run"] == 47
        assert main(["report", metrics_out]) == 0
        assert "reused verdicts:   47/47" in capsys.readouterr().out
