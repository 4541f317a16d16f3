"""Tests for the persistent artifact cache and its pipeline wiring."""

import hashlib
import json
import pickle

import pytest

from repro.core import ArtifactCache, ValidationPipeline, code_version
from repro.core.cache import pipeline_phase_keys
from repro.pp.fsm_model import PPModelConfig

SMALL = dict(model_config=PPModelConfig(fill_words=1), max_instructions_per_trace=300)


@pytest.fixture(scope="module")
def warm_cache_dir(tmp_path_factory):
    """A cache directory with the small config already built into it."""
    cache_dir = tmp_path_factory.mktemp("artifact-cache")
    ValidationPipeline(cache_dir=str(cache_dir), **SMALL).build()
    return cache_dir


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

    def test_code_version_is_memoized_hex(self):
        first = code_version()
        assert first == code_version()
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
    """The staleness escape hatch (ISSUE: PR 10, satellite a)."""

    def test_refresh_recomputes_after_an_edit(self, tmp_path, monkeypatch):
        import repro.core.cache as cache_mod

        root = tmp_path / "pkg"
        root.mkdir()
        (root / "mod.py").write_text("X = 1\n")
        monkeypatch.setattr(cache_mod, "_package_root", lambda: root)
        monkeypatch.setattr(cache_mod, "_CODE_VERSION", None)
        monkeypatch.setattr(cache_mod, "_PHASE_CODE_VERSIONS", {})

        first = cache_mod.code_version()
        (root / "mod.py").write_text("X = 2\n")
        # The memo hides the edit until a refresh -- this is exactly the
        # long-lived-daemon staleness the serve startup path guards against.
        assert cache_mod.code_version() == first
        assert cache_mod.code_version(refresh=True) != first

    def test_refresh_drops_phase_memos(self, tmp_path, monkeypatch):
        import repro.core.cache as cache_mod

        root = tmp_path / "pkg"
        (root / "smurphi").mkdir(parents=True)
        (root / "smurphi" / "m.py").write_text("A = 1\n")
        monkeypatch.setattr(cache_mod, "_package_root", lambda: root)
        monkeypatch.setattr(cache_mod, "_CODE_VERSION", None)
        monkeypatch.setattr(cache_mod, "_PHASE_CODE_VERSIONS", {})

        first = cache_mod.phase_code_version("model")
        (root / "smurphi" / "m.py").write_text("A = 2\n")
        assert cache_mod.phase_code_version("model") == first  # memoized
        cache_mod.code_version(refresh=True)
        assert cache_mod.phase_code_version("model") != first

    def test_manifests_record_digest_provenance(self, tmp_path):
        from repro.core.cache import code_version_info

        cache = ArtifactCache(tmp_path)
        cache.store("m" * 64, [1], manifest={})
        manifest = json.loads(cache.manifest_path("m" * 64).read_text())
        info = code_version_info()
        assert manifest["code_version"] == info["code_version"]
        assert manifest["code_computed_at"] == pytest.approx(
            info["code_computed_at"]
        )
