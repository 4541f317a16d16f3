"""The incremental recomputation layer (PR 10 tentpole).

The correctness bar is absolute: an incrementally served build must be
byte-identical to a cold build of the same (edited) model, in every
classification and under every fall-back.  These tests drive the layer
through the public pipeline surface and compare the three serialized
artifacts (graph / tours / traces) byte for byte.
"""

import dataclasses
import pickle
import random

import pytest

from repro.core import ValidationPipeline
from repro.core import cache as cache_mod
from repro.core import pipeline as pipeline_mod
from repro.enumeration import compile_model, enumerate_states
from repro.incremental.diff import LOCALIZED, NO_OP, STRUCTURAL, diff_models
from repro.incremental.edits import (
    EDIT_CATALOG,
    EditedPPControl,
    resolve_edits,
)
from repro.incremental.recent import RecentBuilds
from repro.incremental.replay import incremental_enumerate
from repro.incremental.splice import (
    clean_flags_for,
    dirty_flags,
    edge_costs,
    export_memo,
    import_memo,
)
from repro.obs import Observer, ProgressReporter, read_heartbeats
from repro.pp.fsm_model import PPModelConfig, pp_control_model
from repro.smurphi.fingerprint import fingerprint_model
from repro.vectors.generator import UNSET, TransitionEventMemo

SMALL = PPModelConfig(fill_words=1)
LIMIT = 100  # short traces keep each build around a second


def _fingerprint(edits=(), config=SMALL):
    control = pp_control_model(config)
    if edits:
        control = EditedPPControl(control, edits)
    return fingerprint_model(control.build())


def _pipeline(cache_dir=None, edits=(), incremental=True, jobs=1, **kw):
    return ValidationPipeline(
        model_config=SMALL,
        max_instructions_per_trace=LIMIT,
        cache_dir=cache_dir,
        edits=edits,
        incremental=incremental,
        jobs=jobs,
        **kw,
    )


def _artifact_bytes(pipeline):
    artifacts = pipeline.artifacts
    return (
        artifacts.graph.to_json(),
        artifacts.tours.to_json(),
        artifacts.traces.to_json(),
    )


def _cold_bytes(edits=(), jobs=1):
    cold = _pipeline(edits=edits, incremental=False, jobs=jobs)
    cold.build()
    return _artifact_bytes(cold)


# ---------------------------------------------------------------------------
# Diff taxonomy
# ---------------------------------------------------------------------------


class TestDiffClassification:
    def test_identical_models_are_no_op(self):
        assert diff_models(_fingerprint(), _fingerprint()).classification \
            == NO_OP

    def test_inserted_rule_is_localized_with_its_digest(self):
        edits = resolve_edits(["inbox-flip-refill"])
        diff = diff_models(_fingerprint(), _fingerprint(edits))
        assert diff.classification == LOCALIZED
        assert diff.added_rules == (edits[0].digest(),)

    def test_insertions_into_an_existing_stack_are_localized(self):
        old = resolve_edits(["inbox-flip-refill"])
        new = resolve_edits(
            ["noop-touch", "inbox-flip-refill", "send-clears-stpend"]
        )
        diff = diff_models(_fingerprint(old), _fingerprint(new))
        assert diff.classification == LOCALIZED
        assert set(diff.added_rules) == {
            EDIT_CATALOG["noop-touch"].digest(),
            EDIT_CATALOG["send-clears-stpend"].digest(),
        }

    def test_rule_removal_is_structural(self):
        edits = resolve_edits(["inbox-flip-refill"])
        diff = diff_models(_fingerprint(edits), _fingerprint())
        assert diff.classification == STRUCTURAL

    def test_rule_reorder_is_structural(self):
        ab = resolve_edits(["inbox-flip-refill", "send-clears-stpend"])
        ba = resolve_edits(["send-clears-stpend", "inbox-flip-refill"])
        diff = diff_models(_fingerprint(ab), _fingerprint(ba))
        assert diff.classification == STRUCTURAL

    def test_config_change_is_structural(self):
        bigger = _fingerprint(config=PPModelConfig(fill_words=2))
        assert diff_models(_fingerprint(), bigger).classification \
            == STRUCTURAL

    def test_unstable_fingerprint_is_structural(self):
        fp = _fingerprint()
        wobbly = dataclasses.replace(fp, stable=False)
        assert diff_models(wobbly, fp).classification == STRUCTURAL
        assert diff_models(fp, wobbly).classification == STRUCTURAL


# ---------------------------------------------------------------------------
# Adoption and splice through the pipeline
# ---------------------------------------------------------------------------


class TestAdoptionAndSplice:
    def test_noop_source_edit_adopts_every_phase(self, tmp_path, monkeypatch):
        """Salting the model phase digest simulates a comment-only edit to
        a model source file: new keys, identical semantics -- the diff is
        a no-op and every downstream entry is adopted by byte copy."""
        cache_dir = str(tmp_path / "cache")
        _pipeline(cache_dir).build()

        real = cache_mod.phase_code_version

        def salted(phase, *args, **kwargs):
            if phase == "model":
                return "salted-model-digest"
            return real(phase, *args, **kwargs)

        monkeypatch.setattr(cache_mod, "phase_code_version", salted)
        monkeypatch.setattr(pipeline_mod, "phase_code_version", salted)
        observer = Observer()
        edited = _pipeline(cache_dir, observer=observer)
        edited.build()
        report = edited.incremental_report
        assert report.classification == NO_OP
        assert report.adopted_phases == ("graph", "tours", "traces")
        assert edited.phase_hits == {
            "model": False, "graph": True, "tours": True, "traces": True,
        }
        assert observer.metrics.total("cache.phase_hits") == 3
        assert _artifact_bytes(edited) == _cold_bytes()

    def test_events_only_edit_reuses_graph_and_splices_traces(self, tmp_path):
        """inbox-flip-refill rewrites events only: the replayed graph is
        content-equal to the cached one, tours come over wholesale, and
        only the traces through the dirty region regenerate."""
        cache_dir = str(tmp_path / "cache")
        _pipeline(cache_dir).build()

        edits = resolve_edits(["inbox-flip-refill"])
        observer = Observer()
        warm = _pipeline(cache_dir, edits=edits, observer=observer)
        warm.build()
        report = warm.incremental_report
        assert report.classification == LOCALIZED
        assert report.dirty_states > 0
        # Dirty states always expand through the kernel (their *events*
        # changed even though next states did not); everything else replays.
        assert report.region_states == report.dirty_states
        assert report.replayed_states > 0
        assert report.reused_graph is True
        assert report.spliced_tours > 0
        assert observer.metrics.total("incremental.region_states") \
            == report.region_states
        assert _artifact_bytes(warm) == _cold_bytes(edits)

    def test_next_state_edit_reenumerates_only_the_region(self, tmp_path):
        """send-clears-stpend changes successors: the dirty region expands
        through the kernel, clean states replay, and the graft is
        byte-identical to a cold enumeration of the edited model."""
        cache_dir = str(tmp_path / "cache")
        _pipeline(cache_dir).build()

        edits = resolve_edits(["send-clears-stpend"])
        observer = Observer()
        warm = _pipeline(cache_dir, edits=edits, observer=observer)
        warm.build()
        report = warm.incremental_report
        assert report.classification == LOCALIZED
        assert report.dirty_states > 0
        assert report.region_states > 0
        assert report.replayed_states > 0
        assert warm.phase_hits["graph"] is False  # kernel ran: a rebuild
        assert observer.metrics.total("incremental.region_states") \
            == report.region_states
        assert _artifact_bytes(warm) == _cold_bytes(edits)

    def test_empty_scope_edit_splices_everything(self, tmp_path):
        """noop-touch has an empty scope: zero dirty states, every cached
        trace splices verbatim, nothing regenerates."""
        cache_dir = str(tmp_path / "cache")
        _pipeline(cache_dir).build()

        edits = resolve_edits(["noop-touch"])
        warm = _pipeline(cache_dir, edits=edits)
        warm.build()
        report = warm.incremental_report
        assert report.classification == LOCALIZED
        assert report.dirty_states == 0
        assert report.region_states == 0
        assert report.spliced_tours > 0
        assert report.regenerated_traces == 0
        assert warm.phase_hits == {
            "model": False, "graph": True, "tours": True, "traces": True,
        }
        assert _artifact_bytes(warm) == _cold_bytes(edits)

    def test_incremental_build_is_itself_a_reusable_base(self, tmp_path):
        """Chained edits: build base, splice edit A, then splice A+B on
        top of the *incrementally produced* A build."""
        cache_dir = str(tmp_path / "cache")
        _pipeline(cache_dir).build()
        first = resolve_edits(["noop-touch"])
        _pipeline(cache_dir, edits=first).build()

        stacked = resolve_edits(["noop-touch", "inbox-flip-refill"])
        warm = _pipeline(cache_dir, edits=stacked)
        warm.build()
        report = warm.incremental_report
        assert report.classification == LOCALIZED
        assert _artifact_bytes(warm) == _cold_bytes(stacked)


    def test_sidecar_not_imported_when_the_tours_code_changed(
        self, tmp_path, monkeypatch
    ):
        """The memo's outcome code is hashed into the tours digest, not the
        graph's: a candidate whose recorded tours digest differs still
        lends its graph, but its transition outcomes are never imported."""
        cache_dir = tmp_path / "cache"
        _pipeline(str(cache_dir)).build()
        journal = RecentBuilds(cache_dir)
        (entry,) = journal.entries()
        journal.record(
            flags=entry["flags"], keys=entry["keys"], config=entry["config"],
            digests={**entry["digests"], "tours": "another tours digest"},
        )
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return import_memo(*args, **kwargs)

        monkeypatch.setattr(pipeline_mod, "import_memo", spy)
        edits = resolve_edits(["inbox-flip-refill"])
        warm = _pipeline(str(cache_dir), edits=edits)
        warm.build()
        report = warm.incremental_report
        assert report.classification == LOCALIZED
        assert report.adopted_phases == ("graph",)
        assert calls == []
        assert _artifact_bytes(warm) == _cold_bytes(edits)


class TestMemoSidecar:
    """``export_memo``/``import_memo``: the outcome table plus one row per
    computed arc, pickled and transplanted by packed state key."""

    @staticmethod
    def _warm_memo(control, graph):
        memo = TransitionEventMemo(control, graph)
        edge_costs(memo, graph)
        return memo

    @pytest.mark.parametrize("fill_words", [1, 2])
    def test_round_trip_matches_a_fresh_memo(self, fill_words):
        control = pp_control_model(PPModelConfig(fill_words=fill_words))
        graph, _ = enumerate_states(control.build())
        memo = self._warm_memo(control, graph)
        exported = pickle.loads(pickle.dumps(export_memo(memo, graph)))
        assert len(exported["rows"]) == graph.num_edges
        # Distinct outcomes are few; the pickle keeps each one once.
        assert len(exported["outcomes"]) < graph.num_edges // 20

        imported = TransitionEventMemo(control, graph)
        assert import_memo(imported, graph, exported) == graph.num_edges
        assert len(imported) == graph.num_edges
        fresh = TransitionEventMemo(control, graph)
        for index in range(graph.num_edges):
            assert imported.lookup_edge(index) == fresh.lookup_edge(index)
        assert imported.computed == 0

        # Dirty states import nothing; clean ones import every arc.
        clean = [state % 3 != 0 for state in range(graph.num_states)]
        partial = TransitionEventMemo(control, graph)
        src = graph.edge_src
        assert import_memo(partial, graph, exported, clean=clean) == sum(
            clean[s] for s in src
        )
        assert [o != UNSET for o in partial.edge_outcome] == [clean[s] for s in src]

    def test_transplant_into_an_edited_graph(self):
        """Rows exported from the base graph land on the edited graph's
        clean arcs with the outcome the edited model computes there."""
        base = pp_control_model(SMALL)
        old_graph, _ = enumerate_states(base.build())
        exported = export_memo(self._warm_memo(base, old_graph), old_graph)
        edits = resolve_edits(["send-clears-stpend"])
        control = EditedPPControl(base, edits)
        model = control.build()
        dirty = dirty_flags(model, old_graph, [e.scope for e in edits])
        graph, _, _ = incremental_enumerate(model, old_graph, dirty)
        clean = clean_flags_for(graph, old_graph, dirty)

        memo = TransitionEventMemo(control, graph)
        imported = import_memo(memo, graph, exported, clean=clean)
        assert 0 < imported < graph.num_edges
        fresh = TransitionEventMemo(control, graph)
        for index, outcome_id in enumerate(memo.edge_outcome):
            if outcome_id != UNSET:
                assert clean[graph.edge_src[index]]
                assert memo.outcomes[outcome_id] == fresh.lookup_edge(index)


class TestReplayAccounting:
    """Region replay runs through the engine's one BFS loop; its stats,
    counters and heartbeats are pinned for one localized edit."""

    def test_localized_edit_accounting(self, tmp_path):
        base = pp_control_model(SMALL)
        old_graph, _ = enumerate_states(base.build())
        edits = resolve_edits(["send-clears-stpend"])
        model = EditedPPControl(base, edits).build()
        dirty = dirty_flags(model, old_graph, [e.scope for e in edits])
        path = str(tmp_path / "hb.jsonl")
        observer = Observer(progress=ProgressReporter(path=path, min_interval=0.0))
        graph, stats, counts = incremental_enumerate(
            model, old_graph, dirty, obs=observer
        )
        observer.close()

        fields = dataclasses.asdict(stats)
        fields.pop("elapsed_seconds")
        assert fields == {
            "model_name": "pp_control(fill_words=1)",
            "num_states": 1493, "bits_per_state": 21, "num_edges": 8683,
            # Only kernel expansions count as explored; replayed arcs don't.
            "transitions_explored": 1906, "approx_memory_bytes": 236759,
            "truncated": False, "budget_outcome": None,
            "frontier_remaining": 0, "resumed": False,
            "checkpoints_written": 0, "shards_retried": 0,
            "pool_respawns": 0, "degraded": False,
        }
        assert counts == {"replayed": 1416, "expanded": 77, "region_states": 77}
        metrics = observer.metrics
        assert {name: metrics.total(name) for name in metrics.counter_names()} \
            == {"incremental.region_states": 77,
                "incremental.replayed_states": 1416,
                # The replay's own kernel work: one expansion per
                # expanded state, nothing for the replayed ones.
                "enum.kernel.expansions": counts["expanded"],
                "enum.kernel.next_state_calls": 1096,
                "enum.kernel.sampled_validations": 5}
        # One heartbeat per wave boundary (completed waves, states so
        # far, replayed/expanded so far), then a final one.
        beats = [(r["phase"], r["fields"]) for r in read_heartbeats(path)]
        expected = [
            (1, 7, 1, 0), (2, 38, 7, 0), (3, 194, 38, 0), (4, 491, 194, 0),
            (5, 662, 460, 31), (6, 840, 631, 31), (7, 1435, 807, 33),
            (8, 1451, 1359, 76), (9, 1464, 1374, 77), (10, 1476, 1387, 77),
            (11, 1493, 1399, 77), (11, 1493, 1416, 77),
        ]
        assert beats == [
            ("incremental", {"wave": w, "states": n, "replayed": r, "expanded": e})
            for w, n, r, e in expected
        ]
        assert graph.to_json() == enumerate_states(model)[0].to_json()

    def test_replay_validates_its_first_expanded_state_in_full(self):
        """A replay is a run of its own: even on a model whose kernel
        has already enumerated, the first state it expands is checked
        against ``step()`` in full, and no other is."""
        base = pp_control_model(SMALL)
        old_graph, _ = enumerate_states(base.build())
        edits = resolve_edits(["send-clears-stpend"])
        model = EditedPPControl(base, edits).build()
        enumerate_states(model)
        kern = compile_model(model)
        # Sampling off: every step() call is then part of a full check.
        kern.sample_every = 1 << 30
        expanded, stepped = [], []

        def expand_masked(key, _expand_masked=kern.expand_masked):
            expanded.append(key)
            return _expand_masked(key)

        def step(state, choice, _step=model.step):
            stepped.append(kern.codec.pack(state))
            return _step(state, choice)

        kern.expand_masked, model.step = expand_masked, step
        dirty = dirty_flags(model, old_graph, [e.scope for e in edits])
        _, _, counts = incremental_enumerate(model, old_graph, dirty)
        assert len(expanded) == counts["expanded"] > 1
        first_rows = kern.tables.select(kern.unpack(expanded[0]))[1]
        assert stepped == expanded[:1] * len(first_rows)

    def test_all_conditions_replay_matches_cold(self):
        base = pp_control_model(SMALL)
        old_graph, _ = enumerate_states(base.build(), record_all_conditions=True)
        edits = resolve_edits(["send-clears-stpend"])
        model = EditedPPControl(base, edits).build()
        dirty = dirty_flags(model, old_graph, [e.scope for e in edits])
        graph, stats, _ = incremental_enumerate(
            model, old_graph, dirty, record_all_conditions=True
        )
        cold, cold_stats = enumerate_states(model, record_all_conditions=True)
        assert graph.to_json() == cold.to_json()
        assert stats.num_edges == cold_stats.num_edges


# ---------------------------------------------------------------------------
# Fall-backs: every "don't know" must collapse to a correct full rebuild
# ---------------------------------------------------------------------------


class TestFallbacks:
    def test_incremental_disabled_never_attempts(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        _pipeline(cache_dir).build()
        off = _pipeline(cache_dir, edits=resolve_edits(["noop-touch"]),
                        incremental=False)
        off.build()
        report = off.incremental_report
        assert report.enabled is False
        assert report.attempted is False
        assert _artifact_bytes(off) == _cold_bytes(
            resolve_edits(["noop-touch"])
        )

    def test_rule_removal_falls_back_to_full_rebuild(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        _pipeline(cache_dir, edits=resolve_edits(["inbox-flip-refill"])).build()
        warm = _pipeline(cache_dir)
        warm.build()
        report = warm.incremental_report
        assert report.attempted is False
        assert "structural" in (report.fallback_reason or "")
        assert _artifact_bytes(warm) == _cold_bytes()

    def test_preparer_crash_falls_back_and_matches_cold(
        self, tmp_path, monkeypatch
    ):
        import repro.core.pipeline as pipeline_mod

        cache_dir = str(tmp_path / "cache")
        _pipeline(cache_dir).build()

        def boom(old, new):
            raise RuntimeError("injected diff failure")

        monkeypatch.setattr(pipeline_mod, "diff_models", boom)
        edits = resolve_edits(["noop-touch"])
        observer = Observer()
        warm = _pipeline(cache_dir, edits=edits, observer=observer)
        warm.build()
        report = warm.incremental_report
        assert (report.fallback_reason or "").startswith("error:")
        assert observer.metrics.total("incremental.fallbacks") == 1
        assert _artifact_bytes(warm) == _cold_bytes(edits)

    def test_empty_journal_reports_why(self, tmp_path):
        # A cold cache has no candidates; the report says so rather than
        # silently doing nothing.
        pipeline = _pipeline(str(tmp_path / "cache"),
                             edits=resolve_edits(["noop-touch"]))
        pipeline.build()
        report = pipeline.incremental_report
        assert report.attempted is False
        assert report.fallback_reason == "no prior builds in journal"


# ---------------------------------------------------------------------------
# The acceptance property: incremental == cold, byte for byte, always
# ---------------------------------------------------------------------------


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_random_edit_sequences_match_cold(self, tmp_path, jobs):
        rng = random.Random(20260808 + jobs)
        cache_dir = str(tmp_path / "cache")
        _pipeline(cache_dir, jobs=jobs).build()  # seed the journal
        names = sorted(EDIT_CATALOG)
        for _ in range(3):
            sequence = rng.sample(names, rng.randint(1, len(names)))
            edits = resolve_edits(sequence)
            warm = _pipeline(cache_dir, edits=edits, jobs=jobs)
            warm.build()
            assert _artifact_bytes(warm) == _cold_bytes(edits, jobs=jobs), \
                sequence


# ---------------------------------------------------------------------------
# The recent-builds journal
# ---------------------------------------------------------------------------


class TestRecentBuilds:
    def _entry(self, tag):
        return dict(
            flags={"seed": 0},
            keys={phase: f"{phase}-{tag}" for phase in
                  ("model", "graph", "tours", "splice", "traces")},
            digests={"model": "d"},
            config="cfg",
        )

    def test_newest_first_and_dedup_on_traces_key(self, tmp_path):
        journal = RecentBuilds(tmp_path)
        journal.record(**self._entry("a"))
        journal.record(**self._entry("b"))
        journal.record(**self._entry("a"))  # refreshes, never duplicates
        keys = [e["keys"]["traces"] for e in journal.entries()]
        assert keys == ["traces-a", "traces-b"]

    def test_limit_trims_oldest(self, tmp_path):
        journal = RecentBuilds(tmp_path, limit=2)
        for tag in "abc":
            journal.record(**self._entry(tag))
        keys = [e["keys"]["traces"] for e in journal.entries()]
        assert keys == ["traces-c", "traces-b"]

    def test_corrupt_lines_are_skipped(self, tmp_path):
        journal = RecentBuilds(tmp_path)
        journal.record(**self._entry("a"))
        with open(journal.path, "a") as handle:
            handle.write("{not json\n")
        journal.record(**self._entry("b"))
        keys = [e["keys"]["traces"] for e in journal.entries()]
        assert keys == ["traces-b", "traces-a"]

    def test_pipeline_build_records_itself(self, tmp_path):
        cache_dir = tmp_path / "cache"
        pipeline = _pipeline(str(cache_dir))
        pipeline.build()
        entries = RecentBuilds(cache_dir).entries()
        assert len(entries) == 1
        assert entries[0]["keys"] == pipeline.phase_keys
        assert entries[0]["config"] == repr(SMALL)
