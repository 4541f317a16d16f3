"""End-to-end validation pipeline (Fig. 3.1).

A :class:`ValidationPipeline` fixes its worker count (``jobs``) at
construction; enumeration, vector generation and trace comparison all
reach worker processes through its one
:class:`~repro.enumeration.pool.WorkerPool`.
"""

from __future__ import annotations

import logging
import os
import weakref
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.core.cache import (
    ArtifactCache,
    phase_code_version,
    pipeline_phase_keys,
)
from repro.enumeration import (
    EnumerationStats,
    StateGraph,
    WorkerPool,
    enumerate_states,
)
from repro.harness.compare import ComparisonResult, run_vector_traces
from repro.incremental.diff import LOCALIZED, NO_OP, diff_models
from repro.incremental.edits import EditedPPControl, ModelEdit
from repro.incremental.recent import RecentBuilds
from repro.incremental.replay import incremental_enumerate
from repro.incremental.report import IncrementalReport
from repro.incremental.splice import (
    clean_flags_for,
    dirty_flags,
    edge_costs,
    export_memo,
    graphs_equal,
    import_memo,
    splice_traces,
    tour_clean_flags,
)
from repro.obs.observer import Observer, resolve
from repro.pp.fsm_model import PPModelConfig, pp_control_model
from repro.pp.rtl.core import CoreConfig
from repro.resilience import Budget, CheckpointConfig, RetryPolicy
from repro.smurphi.fingerprint import fingerprint_model
from repro.tour import IndexedTourGenerator, TourSet
from repro.tour.fig33 import Tour
from repro.vectors import (
    TraceSet,
    TransitionEventMemo,
    VectorGenerator,
    pack_trace_set,
    pp_instruction_cost,
    unpack_trace_set,
)

logger = logging.getLogger("repro.pipeline")


@dataclass
class PipelineArtifacts:
    """Everything the pipeline produces along the way.

    Useful both for inspection and for reusing expensive intermediates
    (the state graph and tours are design-dependent but bug-independent,
    so one pipeline run can evaluate many candidate designs).
    """

    graph: StateGraph
    enumeration: EnumerationStats
    tours: TourSet
    traces: TraceSet


class ValidationPipeline:
    """The four-step methodology for the Protocol Processor.

    >>> pipeline = ValidationPipeline()
    >>> artifacts = pipeline.build()          # steps 1-3  # doctest: +SKIP
    >>> report = pipeline.validate()          # step 4     # doctest: +SKIP

    Parameters
    ----------
    model_config:
        Scaling of the control model (step 1's abstraction choices).
    max_instructions_per_trace:
        The Fig. 3.3 per-trace split limit; ``None`` disables splitting.
    seed:
        Seed for the biased-random parts of vector generation.
    record_all_conditions:
        Enumerate with one arc per unique transition condition -- the
        paper's proposed fix for the fewer-behaviours blind spot (Fig 4.2).
    jobs:
        Worker processes, decided once for the pipeline's life: ``1``
        keeps everything in-process, ``None`` uses every CPU.  Above one,
        enumeration, vector generation and trace comparison all dispatch
        through the same :class:`~repro.enumeration.pool.WorkerPool`
        (:meth:`worker_pool`).
    cache_dir:
        Directory for the persistent artifact cache; ``None`` disables
        caching.  Entries are keyed by config + flags + seed + code version
        (see :mod:`repro.core.cache`), so a warm hit is exactly the build
        this pipeline would have produced.
    use_cache:
        When false, ``cache_dir`` is still *written* after a build but
        never read -- i.e. ``--no-cache`` forces a rebuild that refreshes
        the entry.
    observer:
        Observability sink (:class:`repro.obs.Observer`): every phase of
        the pipeline runs inside a ``span()`` and flushes counters /
        histograms to it.  ``None`` resolves to the shared no-op observer
        (near-zero overhead).
    checkpoint_dir:
        Directory for enumeration checkpoints
        (:class:`~repro.resilience.CheckpointStore`); ``None`` disables
        checkpointing.  Snapshots are written every ``checkpoint_every``
        wave boundaries and an interrupted build can be continued with
        ``resume=True`` to a bit-identical graph.
    budget:
        :class:`~repro.resilience.Budget` for the enumeration phase.  On
        exhaustion the build completes with a *partial* graph
        (``artifacts.enumeration.truncated``); the tours/vectors cover the
        expanded portion, and the build is **not** cached -- a truncated
        artifact must never masquerade as the full one.
    retry:
        :class:`~repro.resilience.RetryPolicy` for the worker pool's
        worker-crash recovery (``jobs > 1`` only).
    edits:
        Ordered :class:`~repro.incremental.ModelEdit` rewrites layered on
        the control model (see :mod:`repro.incremental.edits`).  Their
        semantic digests join the model cache key.
    incremental:
        When a cached build of a *different* (but related) model exists,
        try to serve this build by model-diffing against it: adopt its
        entries wholesale on a no-op diff, re-enumerate only the dirty
        region and splice tours/traces on a localized diff.  The result
        is byte-identical to a cold build either way -- disabling this
        only ever costs time (kept as an escape hatch / A-B switch).
    """

    def __init__(
        self,
        model_config: Optional[PPModelConfig] = None,
        max_instructions_per_trace: Optional[int] = 400,
        seed: int = 0,
        record_all_conditions: bool = False,
        jobs: Optional[int] = 1,
        cache_dir: Optional[str] = None,
        use_cache: bool = True,
        observer: Optional[Observer] = None,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every: int = 1,
        budget: Optional[Budget] = None,
        retry: Optional[RetryPolicy] = None,
        edits: Sequence[ModelEdit] = (),
        incremental: bool = True,
    ):
        self.model_config = model_config or PPModelConfig(fill_words=2)
        self.max_instructions_per_trace = max_instructions_per_trace
        self.seed = seed
        self.record_all_conditions = record_all_conditions
        self.jobs = jobs
        self.cache_dir = cache_dir
        self.use_cache = use_cache
        self.obs = resolve(observer)
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = checkpoint_every
        self.budget = budget
        self.retry = retry
        self.edits = tuple(edits)
        self.incremental = incremental
        base = pp_control_model(self.model_config)
        self.control = EditedPPControl(base, self.edits) if self.edits else base
        self._pool: Optional[WorkerPool] = None
        self._artifacts: Optional[PipelineArtifacts] = None
        #: True when the last :meth:`build` was served entirely from cache.
        self.artifacts_from_cache = False
        #: Content address of the last build (the traces phase key -- the
        #: end of the chain, so it covers every input; set when caching on).
        self.cache_key: Optional[str] = None
        #: Per-phase cache keys of the last build (see ``pipeline_phase_keys``).
        self.phase_keys: Optional[Dict[str, str]] = None
        #: Per-phase cache outcome of the last build.
        self.phase_hits: Dict[str, bool] = {}
        #: What the incremental layer did for the last build.
        self.incremental_report: Optional[IncrementalReport] = None

    @property
    def cache_info(self) -> Dict[str, Any]:
        """Cache provenance of the last build, for run reports."""
        return {
            "enabled": self.cache_dir is not None,
            "hit": self.artifacts_from_cache,
            "key": self.cache_key,
            "phase_keys": self.phase_keys,
            "phase_hits": dict(self.phase_hits),
            "incremental": (
                self.incremental_report.to_dict()
                if self.incremental_report is not None
                else None
            ),
        }

    @property
    def resilience_info(self) -> Dict[str, Any]:
        """Resilience outcome of the last build, for run reports."""
        if self._artifacts is None:
            return {}
        stats = self._artifacts.enumeration
        return {
            "truncated": stats.truncated,
            "budget_outcome": stats.budget_outcome,
            "frontier_remaining": stats.frontier_remaining,
            "explored_fraction": stats.explored_fraction,
            "resumed": stats.resumed,
            "checkpoints_written": stats.checkpoints_written,
            "shards_retried": stats.shards_retried,
            "pool_respawns": stats.pool_respawns,
            "degraded": stats.degraded,
            "checkpoint_dir": self.checkpoint_dir,
        }

    def worker_pool(self) -> Optional[WorkerPool]:
        """The pipeline-wide persistent :class:`WorkerPool` (lazily built).

        One pool of ``jobs`` workers serves enumeration, vector generation
        *and* trace comparison, so workers are forked once per pipeline
        rather than once per phase (or per BFS wave).  ``None`` when
        ``jobs`` keeps everything in-process.  A finalizer reaps the
        workers when the pipeline itself is garbage collected.
        """
        jobs = (os.cpu_count() or 1) if self.jobs is None else self.jobs
        if jobs <= 1:
            return None
        if self._pool is None or self._pool.closed:
            self._pool = WorkerPool(jobs, policy=self.retry, obs=self.obs)
            weakref.finalize(self, WorkerPool.shutdown, self._pool)
        return self._pool

    def shutdown(self) -> None:
        """Release the pipeline's worker pool (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()

    def _phase_digests(self) -> Dict[str, str]:
        """The per-phase code digests this pipeline keys with."""
        return {
            phase: phase_code_version(phase)
            for phase in ("model", "graph", "tours", "traces")
        }

    def _compute_phase_keys(self) -> Dict[str, str]:
        return pipeline_phase_keys(
            self.model_config,
            record_all_conditions=self.record_all_conditions,
            max_instructions_per_trace=self.max_instructions_per_trace,
            seed=self.seed,
            edits=self.edits,
        )

    def _build_flags(self) -> Dict[str, Any]:
        return {
            "record_all_conditions": self.record_all_conditions,
            "max_instructions_per_trace": self.max_instructions_per_trace,
            "seed": self.seed,
        }

    def _phase_manifest(self, phase: str, **extra: Any) -> Dict[str, Any]:
        manifest = {"phase": phase, "model_config": self.model_config}
        manifest.update(self._build_flags())
        manifest.update(extra)
        return manifest

    def _record_phase(self, phase: str, hit: bool, obs: Observer) -> None:
        self.phase_hits[phase] = hit
        if hit:
            obs.inc("cache.phase_hits", phase=phase)
        else:
            obs.inc("cache.phase_misses", phase=phase)

    def _load_artifacts_from_phases(
        self, cache: ArtifactCache, keys: Dict[str, str]
    ) -> Optional[PipelineArtifacts]:
        """Assemble a full build from the per-phase entries, or ``None``."""
        graph_entry = cache.load(keys["graph"])
        if graph_entry is None:
            return None
        tours_entry = cache.load(keys["tours"])
        if tours_entry is None:
            return None
        traces_entry = cache.load(keys["traces"])
        if traces_entry is None:
            return None
        graph = graph_entry["graph"]
        tours = TourSet(
            graph,
            [Tour(list(e), n) for e, n in tours_entry["tours"]],
            tours_entry["generation_seconds"],
        )
        return PipelineArtifacts(
            graph=graph,
            enumeration=graph_entry["stats"],
            tours=tours,
            traces=unpack_trace_set(traces_entry["traces"]),
        )

    def build(self, resume: bool = False, faults=None) -> PipelineArtifacts:
        """Run steps 1-3 (model, enumerate, tour, vectors) or load them.

        With a cache directory configured, a warm hit skips enumeration,
        tour generation and vector generation entirely; a miss builds and
        persists the artifacts for the next run.

        ``resume=True`` continues enumeration from the newest checkpoint
        in ``checkpoint_dir`` (and skips the cache read -- the caller
        explicitly asked to finish a partial run, not load a prior one).
        A build whose enumeration was budget-truncated is returned but
        never cached.  ``faults`` is the chaos-test hook
        (:class:`~repro.resilience.FaultPlan`).
        """
        obs = self.obs
        checkpoint = (
            CheckpointConfig(self.checkpoint_dir, every_waves=self.checkpoint_every)
            if self.checkpoint_dir
            else None
        )
        read_cache = self.use_cache and not resume

        with obs.span("pipeline.build", jobs=self.jobs or 0):
            cache = ArtifactCache(self.cache_dir) if self.cache_dir else None
            self.phase_hits = {}
            self.incremental_report = IncrementalReport(enabled=self.incremental)
            lock = nullcontext(False)
            if cache is not None:
                self.phase_keys = self._compute_phase_keys()
                self.cache_key = self.phase_keys["traces"]
                if read_cache:
                    cached = self._load_cached_build(cache, obs)
                    if cached is not None:
                        return cached
                    obs.inc("cache.misses")
                    obs.event("cache.miss", key=self.cache_key)
                    logger.info("artifact cache miss (%s)", self.cache_key[:12])
                # Single-flight: only one process builds a given key at a
                # time; concurrent missers block on the per-key flock and
                # (usually) find the entry stored when they get it.
                lock = cache.single_flight(self.cache_key)
            with lock as waited:
                if waited and read_cache:
                    obs.inc("cache.single_flight_waits")
                    cached = self._load_cached_build(cache, obs, single_flight=True)
                    if cached is not None:
                        return cached
                return self._build_locked(cache, resume, faults, checkpoint, obs)

    def _load_cached_build(
        self, cache: ArtifactCache, obs: Observer, single_flight: bool = False
    ) -> Optional[PipelineArtifacts]:
        """Serve the whole build from its per-phase entries, or ``None``.

        On a hit, records it (counters, event, log line, per-phase hits)
        and makes it the pipeline's artifacts.  ``single_flight`` marks a
        hit found after waiting on another process's build.
        """
        with obs.span("phase.cache_load"):
            cached = self._load_artifacts_from_phases(cache, self.phase_keys)
        if cached is None:
            return None
        obs.inc("cache.hits")
        if single_flight:
            obs.event("cache.hit", key=self.cache_key, single_flight=True)
        else:
            obs.event("cache.hit", key=self.cache_key)
        logger.info(
            "artifact cache hit%s (%s)",
            " after single-flight wait" if single_flight else "",
            self.cache_key[:12],
        )
        for phase in ("model", "graph", "tours", "traces"):
            self._record_phase(phase, True, obs)
        obs.heartbeat("cache", phase_hits=dict(self.phase_hits))
        self._artifacts = cached
        self.artifacts_from_cache = True
        return cached

    def _build_locked(
        self, cache, resume, faults, checkpoint, obs
    ) -> PipelineArtifacts:
        """Steps 1-3 as per-phase load-or-build, under the single-flight lock.

        Each phase first tries its own cache entry (so a seed change reuses
        the graph and tours, a tour-code edit reuses the graph, ...); a
        phase that builds persists its entry immediately.  Before the graph
        phase, the incremental preparer may satisfy the missing keys from a
        *related* prior build via model diffing (see
        :meth:`_incremental_prepare`).
        """
        keys = self.phase_keys
        report = self.incremental_report
        read_ok = cache is not None and self.use_cache and not resume
        # Incremental reuse needs a plain build: resume/budget/faults runs
        # have their own semantics (partial graphs, injected failures)
        # that the replay engine deliberately does not reproduce.
        plain = read_ok and self.budget is None and faults is None

        with obs.span("phase.model_build"):
            model = self.control.build()

        fingerprint = None
        if cache is not None:
            with obs.span("phase.fingerprint"):
                fingerprint = fingerprint_model(model)
            model_hit = read_ok and cache.has(keys["model"])
            self._record_phase("model", model_hit, obs)
            if not model_hit:
                cache.store(
                    keys["model"],
                    {"fingerprint": fingerprint},
                    manifest=self._phase_manifest(
                        "model", stable=fingerprint.stable
                    ),
                )

        prepared: Dict[str, Any] = {}
        if plain and self.incremental and not cache.has(keys["graph"]):
            prepared = self._incremental_prepare(
                cache, keys, model, fingerprint, obs, report
            )

        # -- graph ----------------------------------------------------------
        graph = prepared.get("graph")
        stats = prepared.get("stats")
        if graph is None and read_ok:
            entry = cache.load(keys["graph"])
            if entry is not None:
                graph, stats = entry["graph"], entry["stats"]
                self._record_phase("graph", True, obs)
        if graph is None:
            if cache is not None and "graph" not in self.phase_hits:
                self._record_phase("graph", False, obs)
            with obs.span("phase.enumerate", jobs=self.jobs or 0):
                graph, stats = enumerate_states(
                    model,
                    record_all_conditions=self.record_all_conditions,
                    obs=obs,
                    checkpoint=checkpoint,
                    resume=resume,
                    budget=self.budget,
                    faults=faults,
                    jobs=self.jobs,
                    pool=self.worker_pool(),
                    retry=self.retry,
                )
            if cache is not None and not stats.truncated:
                cache.store(
                    keys["graph"],
                    {"graph": graph, "stats": stats},
                    manifest=self._phase_manifest(
                        "graph",
                        num_states=graph.num_states,
                        num_edges=graph.num_edges,
                    ),
                )
                obs.inc("cache.stores")
        if stats.truncated:
            logger.warning(
                "enumeration truncated by budget (%s): building tours/"
                "vectors over the partial graph; result will not be cached",
                stats.budget_outcome,
            )

        # One transition-event memo spans both back-half phases: the
        # tour cost function touches every arc, so vector generation
        # finds it fully warm and replays no transition twice.  The
        # incremental preparer may hand over a memo already warmed by
        # transplanting clean entries from the prior build's sidecar.
        memo = prepared.get("memo") or TransitionEventMemo(self.control, graph)

        # -- tours ----------------------------------------------------------
        tours = prepared.get("tours")
        if tours is None and read_ok:
            entry = cache.load(keys["tours"])
            if entry is not None:
                tours = TourSet(
                    graph,
                    [Tour(list(e), n) for e, n in entry["tours"]],
                    entry["generation_seconds"],
                )
                self._record_phase("tours", True, obs)
                # Warm the memo from the tours sidecar: the key chain
                # guarantees the entries were computed for exactly this
                # model and graph, so every row imports.  Pointless when
                # the traces entry is also present -- nothing downstream
                # will touch the memo -- so only pay for it on a miss.
                if not cache.has(keys["traces"]):
                    sidecar = cache.load(keys["splice"])
                    if sidecar is not None:
                        import_memo(memo, graph, sidecar["memo"])
        if tours is None:
            if cache is not None and "tours" not in self.phase_hits:
                self._record_phase("tours", False, obs)
            with obs.span("phase.tours"):
                cost = pp_instruction_cost(self.control, graph, memo=memo)
                tours = IndexedTourGenerator(
                    graph,
                    instruction_cost=cost,
                    max_instructions_per_trace=self.max_instructions_per_trace,
                ).generate(obs=obs)
            if cache is not None and not stats.truncated:
                self._store_tours(cache, keys, tours, memo, graph, obs)

        # -- traces ---------------------------------------------------------
        traces = prepared.get("traces")
        if traces is None and read_ok:
            entry = cache.load(keys["traces"])
            if entry is not None:
                traces = unpack_trace_set(entry["traces"])
                self._record_phase("traces", True, obs)
        if traces is None:
            if cache is not None and "traces" not in self.phase_hits:
                self._record_phase("traces", False, obs)
            with obs.span("phase.vectors", jobs=self.jobs or 0):
                traces = VectorGenerator(
                    self.control, graph, seed=self.seed, memo=memo
                ).generate(list(tours), obs=obs, pool=self.worker_pool())
            if cache is not None and not stats.truncated:
                with obs.span("phase.cache_store"):
                    cache.store(
                        keys["traces"],
                        {"traces": pack_trace_set(traces)},
                        manifest=self._phase_manifest(
                            "traces", num_traces=traces.num_traces
                        ),
                    )
                obs.inc("cache.stores")

        self._artifacts = PipelineArtifacts(
            graph=graph, enumeration=stats, tours=tours, traces=traces
        )
        self.artifacts_from_cache = False
        if cache is not None:
            obs.heartbeat("cache", phase_hits=dict(self.phase_hits))
            if not stats.truncated:
                RecentBuilds(cache.cache_dir).record(
                    flags=self._build_flags(),
                    keys=keys,
                    digests=self._phase_digests(),
                    config=repr(self.model_config),
                )
        return self._artifacts

    def _store_tours(self, cache, keys, tours, memo, graph, obs) -> None:
        """Persist the tours entry plus its splice sidecar.

        The sidecar (per-edge instruction costs + the memo's transition
        outcomes, keyed by packed state) is what lets a *later* build
        splice against this one without replaying transitions.  Tour
        generation just touched every arc, so the memo is fully warm and
        exporting it costs only the pickle.
        """
        cache.store(
            keys["tours"],
            {
                "tours": [(list(t.edge_indices), t.instructions) for t in tours],
                "generation_seconds": tours.stats.generation_seconds,
            },
            manifest=self._phase_manifest("tours", num_tours=len(tours)),
        )
        cache.store(
            keys["splice"],
            {
                "edge_costs": edge_costs(memo, graph),
                "memo": export_memo(memo, graph),
            },
            manifest=self._phase_manifest("splice"),
        )
        obs.inc("cache.stores")

    def _incremental_prepare(
        self,
        cache: ArtifactCache,
        keys: Dict[str, str],
        model,
        fingerprint,
        obs: Observer,
        report: IncrementalReport,
    ) -> Dict[str, Any]:
        """Try to satisfy this build's phase keys from a *related* build.

        Scans the recent-builds journal newest-first for a candidate whose
        cached model fingerprint diffs as no-op or localized against the
        current model.  On a no-op the candidate's entries are adopted by
        byte-copy under this build's keys (the normal load path then finds
        them); on a localized diff the dirty region is re-enumerated, the
        graph grafted, and cached tours/traces spliced where sound.

        Returns a (possibly empty) dict of prepared artifacts for
        :meth:`_build_locked` -- ``graph``/``stats``/``memo`` and,
        when splicing succeeded, ``tours``/``traces``.  Any exception
        falls back to the cold path: incremental reuse is an
        optimization, never a correctness dependency.
        """
        try:
            return self._incremental_prepare_inner(
                cache, keys, model, fingerprint, obs, report
            )
        except Exception as exc:  # noqa: BLE001 -- fall back to full rebuild
            logger.warning(
                "incremental preparation failed (%s); falling back to a "
                "full rebuild", exc,
            )
            report.fallback_reason = f"error: {exc}"
            obs.inc("incremental.fallbacks")
            return {}

    def _incremental_prepare_inner(
        self, cache, keys, model, fingerprint, obs, report
    ) -> Dict[str, Any]:
        journal = RecentBuilds(cache.cache_dir).entries()
        if not journal:
            report.fallback_reason = "no prior builds in journal"
            return {}
        if not fingerprint.stable:
            report.fallback_reason = "current model fingerprint unstable"
            return {}
        digests = self._phase_digests()
        flags = self._build_flags()
        edit_by_digest = {edit.digest(): edit for edit in self.edits}
        last_reason = "no candidate survived diffing"

        for cand in journal:
            ckeys = cand.get("keys", {})
            cflags = cand.get("flags", {})
            cdigests = cand.get("digests", {})
            if ckeys.get("traces") == keys["traces"]:
                continue  # that *is* this build; its entries were pruned
            if cand.get("config") != repr(self.model_config):
                continue  # different scaling: structural by construction
            model_entry = cache.load(ckeys.get("model", ""))
            if model_entry is None:
                last_reason = "candidate model entry pruned"
                continue
            diff = diff_models(model_entry["fingerprint"], fingerprint)
            if diff.classification not in (NO_OP, LOCALIZED):
                last_reason = f"structural diff: {diff.reason}"
                continue

            # Phase adoptability: the candidate's entry is byte-identical
            # to what we would build only if the *code* that phase runs
            # and the flags it keys on are unchanged.  Chained: a phase
            # is only adoptable if everything upstream of it is.
            graph_ok = (
                cdigests.get("graph") == digests["graph"]
                and cflags.get("record_all_conditions")
                == flags["record_all_conditions"]
            )
            tours_ok = (
                graph_ok
                and cdigests.get("tours") == digests["tours"]
                and cflags.get("max_instructions_per_trace")
                == flags["max_instructions_per_trace"]
            )
            traces_ok = (
                tours_ok
                and cdigests.get("traces") == digests["traces"]
                and cflags.get("seed") == flags["seed"]
            )
            if not graph_ok:
                last_reason = "graph phase code/flags changed"
                continue

            report.attempted = True
            report.classification = diff.classification
            report.base_key = ckeys.get("traces")

            if diff.classification == NO_OP:
                return self._adopt_no_op(
                    cache, keys, ckeys, tours_ok, traces_ok, obs, report
                )

            # Localized: every added rule must be one of *our* edits so we
            # hold its scope predicate; otherwise the dirty region is
            # unknowable and the diff is structural for our purposes.
            try:
                scopes = [edit_by_digest[d].scope for d in diff.added_rules]
            except KeyError:
                report.attempted = False
                last_reason = "added rule not among this pipeline's edits"
                continue
            prepared = self._splice_localized(
                cache, keys, ckeys, model, scopes,
                tours_ok, traces_ok, obs, report,
            )
            if prepared:
                return prepared
            report.attempted = False
            last_reason = report.fallback_reason or last_reason

        report.fallback_reason = last_reason
        return {}

    def _adopt_no_op(
        self, cache, keys, ckeys, tours_ok, traces_ok, obs, report
    ) -> Dict[str, Any]:
        """Byte-copy a no-op candidate's entries under this build's keys.

        The diff proved the models semantically identical, so each
        adoptable phase's cached bytes *are* what a cold build would
        store.  The normal per-phase load path then hits on our keys.
        """
        adopted = []
        if cache.copy_entry(ckeys["graph"], keys["graph"]):
            adopted.append("graph")
            if tours_ok and cache.copy_entry(ckeys["tours"], keys["tours"]):
                adopted.append("tours")
                cache.copy_entry(ckeys["splice"], keys["splice"])
                if traces_ok and cache.copy_entry(
                    ckeys["traces"], keys["traces"]
                ):
                    adopted.append("traces")
        report.adopted_phases = tuple(adopted)
        if not adopted:
            report.fallback_reason = "candidate entries pruned"
        obs.inc("incremental.adoptions", len(adopted))
        obs.event(
            "incremental.adopt", base=report.base_key, phases=adopted
        )
        logger.info(
            "incremental: no-op diff vs %s; adopted %s",
            (report.base_key or "")[:12], adopted or "nothing",
        )
        return {}

    def _splice_localized(
        self, cache, keys, ckeys, model, scopes, tours_ok, traces_ok,
        obs, report,
    ) -> Dict[str, Any]:
        """Region re-enumeration + graft + tour/trace splice (localized)."""
        graph_entry = cache.load(ckeys["graph"])
        if graph_entry is None:
            report.fallback_reason = "candidate graph entry pruned"
            return {}
        old_graph = graph_entry["graph"]
        dirty = dirty_flags(model, old_graph, scopes)
        report.dirty_states = sum(dirty)

        with obs.span("phase.incremental_replay"):
            graph, stats, counts = incremental_enumerate(
                model, old_graph, dirty,
                record_all_conditions=self.record_all_conditions,
                obs=obs,
            )
        report.region_states = counts["region_states"]
        report.replayed_states = counts["replayed"]
        # A zero-state region is a pure replay -- effectively a cache hit;
        # any kernel expansion makes the phase an (incremental) rebuild.
        self._record_phase("graph", counts["region_states"] == 0, obs)
        cache.store(
            keys["graph"],
            {"graph": graph, "stats": stats},
            manifest=self._phase_manifest(
                "graph",
                num_states=graph.num_states,
                num_edges=graph.num_edges,
                incremental_base=ckeys.get("traces"),
            ),
        )
        obs.inc("cache.stores")
        adopted = ["graph"]
        prepared: Dict[str, Any] = {"graph": graph, "stats": stats}

        # Warm the memo with the candidate's transition outcomes for
        # clean states; dirty states recompute under the edited model.
        memo = TransitionEventMemo(self.control, graph)
        clean = clean_flags_for(graph, old_graph, dirty)
        sidecar = cache.load(ckeys.get("splice", ""))
        if sidecar is not None:
            import_memo(memo, graph, sidecar["memo"], clean=clean)
        prepared["memo"] = memo

        # Tours are adopted wholesale only when provably identical:
        # same graph content and same per-edge costs (tour generation
        # is a deterministic function of exactly those inputs).
        report.reused_graph = graphs_equal(graph, old_graph)
        if not (tours_ok and report.reused_graph and sidecar is not None):
            report.adopted_phases = tuple(adopted)
            return prepared
        costs = edge_costs(memo, graph)
        if costs != sidecar["edge_costs"]:
            report.adopted_phases = tuple(adopted)
            return prepared
        tours_entry = cache.load(ckeys["tours"])
        if tours_entry is None:
            report.adopted_phases = tuple(adopted)
            return prepared
        tours = TourSet(
            graph,
            [Tour(list(e), n) for e, n in tours_entry["tours"]],
            tours_entry["generation_seconds"],
        )
        # Store under *our* keys -- but export our own memo, not the
        # candidate's sidecar: its dirty-state rows reflect the old model.
        self._store_tours(cache, keys, tours, memo, graph, obs)
        adopted.append("tours")
        prepared["tours"] = tours
        self._record_phase("tours", True, obs)

        if traces_ok:
            traces_entry = cache.load(ckeys["traces"])
            if traces_entry is not None:
                old_traces = unpack_trace_set(traces_entry["traces"])
                tour_clean = tour_clean_flags(graph, list(tours), clean)
                generator = VectorGenerator(
                    self.control, graph, seed=self.seed, memo=memo
                )
                with obs.span("phase.incremental_splice"):
                    spliced, reused, regenerated = splice_traces(
                        generator, list(tours), old_traces.traces, tour_clean
                    )
                traces = TraceSet(traces=spliced)
                cache.store(
                    keys["traces"],
                    {"traces": pack_trace_set(traces)},
                    manifest=self._phase_manifest(
                        "traces",
                        num_traces=traces.num_traces,
                        incremental_base=ckeys.get("traces"),
                    ),
                )
                obs.inc("cache.stores")
                adopted.append("traces")
                prepared["traces"] = traces
                report.spliced_tours = reused
                report.regenerated_traces = regenerated
                obs.inc("incremental.spliced_tours", reused)
                self._record_phase("traces", reused > 0 and regenerated == 0, obs)

        report.adopted_phases = tuple(adopted)
        obs.event(
            "incremental.splice", base=report.base_key, phases=adopted,
            region=report.region_states, spliced=report.spliced_tours,
        )
        logger.info(
            "incremental: localized diff vs %s; region=%d replayed=%d "
            "spliced=%d regenerated=%d",
            (report.base_key or "")[:12], report.region_states,
            report.replayed_states, report.spliced_tours,
            report.regenerated_traces,
        )
        return prepared

    @property
    def artifacts(self) -> PipelineArtifacts:
        if self._artifacts is None:
            self.build()
        return self._artifacts

    def validate(
        self,
        config: Optional[CoreConfig] = None,
        stop_on_divergence: bool = True,
    ) -> "ValidationReport":
        """Step 4: run every trace against the spec; collect divergences.

        With ``jobs > 1`` the independent trace simulations fan across
        the pipeline's :meth:`worker_pool`; results and the
        stop-on-divergence cut point match the sequential run exactly.
        """
        from repro.core.report import ValidationReport

        config = config or CoreConfig(mem_latency=0)
        with self.obs.span("pipeline.validate", jobs=self.jobs or 0):
            results, diverging = run_vector_traces(
                self.artifacts.traces,
                config=config,
                stop_on_divergence=stop_on_divergence,
                obs=self.obs,
                pool=self.worker_pool(),
            )
        return ValidationReport(
            config=config,
            traces_run=len(results),
            total_traces=self.artifacts.traces.num_traces,
            diverging_traces=diverging,
            results=results,
            enumeration=self.artifacts.enumeration,
            tour_stats=self.artifacts.tours.stats,
            from_cache=self.artifacts_from_cache,
        )
