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
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.cache import (
    PHASE_FLAGS,
    PHASES,
    ArtifactCache,
    load_verdicts,
    phase_code_info,
    phase_code_version,
    pipeline_phase_keys,
    store_verdicts,
    verdict_key,
)
from repro.enumeration import (
    EnumerationStats,
    StateGraph,
    WorkerPool,
    enumerate_states,
)
from repro.harness.compare import (
    DEFAULT_INBOX,
    DEFAULT_MAX_CYCLES,
    ComparisonResult,
    run_vector_traces,
    trace_digests,
)
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
        this pipeline would have produced.  Each phase loads its own entry
        (a seed change reuses the graph and tours); the model is built
        only when the graph phase misses.
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
        #: Content address of the last build (the key of the last phase it
        #: ran -- the end of its chain, so it covers every input that phase
        #: reads; set when caching on).
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
        return {phase: phase_code_version(phase) for phase in PHASES}

    def _compute_phase_keys(self) -> Dict[str, str]:
        return pipeline_phase_keys(
            self.model_config,
            record_all_conditions=self.record_all_conditions,
            max_instructions_per_trace=self.max_instructions_per_trace,
            seed=self.seed,
            edits=self.edits,
        )

    def _build_flags(self) -> Dict[str, Any]:
        return {flag: getattr(self, flag) for flag in PHASE_FLAGS.values()}

    def _phase_manifest(self, phase: str, **extra: Any) -> Dict[str, Any]:
        manifest = {"phase": phase, "model_config": self.model_config}
        manifest.update(self._build_flags())
        manifest.update(phase_code_info(phase))
        manifest.update(extra)
        return manifest

    def _record_phase(self, phase: str, hit: bool, obs: Observer) -> None:
        self.phase_hits[phase] = hit
        if hit:
            obs.inc("cache.phase_hits", phase=phase)
        else:
            obs.inc("cache.phase_misses", phase=phase)

    def build(self, resume: bool = False, faults=None) -> PipelineArtifacts:
        """Run steps 1-3 (model, enumerate, tour, vectors) or load them.

        With a cache directory configured, a warm hit skips enumeration,
        tour generation and vector generation entirely; a phase that
        misses is built and persisted for the next run (see :meth:`_run`).

        ``resume=True`` continues enumeration from the newest checkpoint
        in ``checkpoint_dir`` (and skips the cache read -- the caller
        explicitly asked to finish a partial run, not load a prior one).
        A build whose enumeration was budget-truncated is returned but
        never cached.  ``faults`` is the chaos-test hook
        (:class:`~repro.resilience.FaultPlan`).
        """
        self._artifacts = PipelineArtifacts(**self._run("traces", resume, faults))
        return self._artifacts

    def build_graph(
        self, resume: bool = False, faults=None
    ) -> Tuple[StateGraph, EnumerationStats]:
        """:meth:`build` stopped after the graph phase: no tours, no vectors."""
        built = self._run("graph", resume, faults)
        return built["graph"], built["enumeration"]

    def build_tours(self) -> TourSet:
        """:meth:`build` stopped after the tours phase: no vectors."""
        return self._run("tours", False, None)["tours"]

    def _run(self, through: str, resume: bool, faults) -> Dict[str, Any]:
        """Load or build every phase up to ``through``; returns their
        outputs by :class:`PipelineArtifacts` field name.

        One loop over the artifact phases.  Each phase takes the first of:
        the incremental preparer's artifact, its own cache entry (loaded
        once), a fresh build (stored once, unless the enumeration was
        budget-truncated).  The first miss takes the single-flight lock on
        :attr:`cache_key`; a run that waited on another process's build
        loads the entry again.  The model is built and fingerprinted only
        when the graph phase misses, which is also the only time the
        incremental preparer runs, so neither a whole nor a partial hit
        builds a model.
        """
        obs = self.obs
        cache = ArtifactCache(self.cache_dir) if self.cache_dir else None
        read = cache is not None and self.use_cache and not resume
        # Incremental reuse needs a plain build: resume/budget/faults runs
        # have their own semantics (partial graphs, injected failures)
        # that the replay engine deliberately does not reproduce.
        plain = read and self.incremental and self.budget is None and faults is None
        built: Dict[str, Any] = {}
        prepared: Dict[str, Any] = {}
        sources: Dict[str, str] = {}
        model = memo = waited = None
        storable = False

        def obtain(phase: str) -> Tuple[Any, str]:
            if phase in prepared:
                return prepared[phase], "prepared"
            return (self._load_phase(cache, phase, built) if read else None), "entry"

        with obs.span("pipeline.build", jobs=self.jobs or 0), ExitStack() as held:
            self.phase_hits = {}
            self.incremental_report = IncrementalReport(enabled=self.incremental)
            if cache is not None:
                self.phase_keys = self._compute_phase_keys()
                self.cache_key = self.phase_keys[through]
            for phase in PHASES[1 : PHASES.index(through) + 1]:
                value, source = obtain(phase)
                if value is None and cache is not None and waited is None:
                    waited = self._first_miss(cache, read, held)
                    if waited and read:
                        value, source = obtain(phase)
                if value is None and phase == "graph":
                    model, fingerprint = self._build_model(cache, read)
                    if plain:
                        prepared = self._incremental_prepare(cache, model, fingerprint)
                        memo = prepared.get("memo")
                        if self.incremental_report.adopted_phases:
                            # The splice's graph, or the no-op adoption's copy.
                            value, source = obtain(phase)
                costs = prepared.get("costs") if phase == "tours" else None
                if value is None:
                    if phase != "graph" and memo is None:
                        # One transition-event memo spans both back-half
                        # phases: the tour cost function touches every arc,
                        # so vector generation finds it fully warm.  (The
                        # preparer's memo is already warmed from the prior
                        # build's sidecar.)
                        memo = TransitionEventMemo(self.control, built["graph"])
                    if phase == "traces" and sources["tours"] == "entry":
                        # No cost function warmed the memo: import the
                        # tours sidecar.  The key chain guarantees its rows
                        # were computed for exactly this model and graph,
                        # so every row imports.
                        rows = self._load_phase(cache, "splice", built)
                        if rows is not None:
                            import_memo(memo, built["graph"], rows)
                    value, costs = self._build_phase(
                        phase, built, model, memo, resume, faults
                    )
                    source = "built"
                sources[phase] = source
                if phase == "graph":
                    built["graph"], built["enumeration"] = value
                    storable = cache is not None and not built["enumeration"].truncated
                else:
                    built[phase] = value
                if source == "entry":
                    if model is None and phase == "graph":
                        self._record_phase("model", True, obs)
                    self._record_phase(phase, True, obs)
                elif cache is not None:
                    spliced = source == "prepared"
                    self._record_phase(
                        phase, spliced and prepared["hits"][phase], obs
                    )
                    if storable:
                        self._store_phase(
                            cache, phase, built, memo, costs,
                            **({"incremental_base": prepared["base"]}
                               if spliced else {}),
                        )

            whole = read and model is None and set(sources.values()) == {"entry"}
            self.artifacts_from_cache = whole
            if cache is not None:
                if whole:
                    self._record_hit(obs, waited)
                obs.heartbeat("cache", phase_hits=dict(self.phase_hits))
                if storable and not whole:
                    RecentBuilds(cache.cache_dir).record(
                        flags=self._build_flags(),
                        keys=self.phase_keys,
                        digests=self._phase_digests(),
                        config=repr(self.model_config),
                    )
        return built

    def _first_miss(self, cache: ArtifactCache, read: bool, held: ExitStack) -> bool:
        """Record the run's first miss and take the single-flight lock.

        Only one process builds a given key at a time; concurrent missers
        block on the per-key flock and (usually) find the entries stored
        when they get it.  Returns whether this run waited.
        """
        obs = self.obs
        if read:
            obs.inc("cache.misses")
            obs.event("cache.miss", key=self.cache_key)
            logger.info("artifact cache miss (%s)", self.cache_key[:12])
        waited = held.enter_context(cache.single_flight(self.cache_key))
        if waited and read:
            obs.inc("cache.single_flight_waits")
        return waited

    def _record_hit(self, obs: Observer, waited: Optional[bool]) -> None:
        """Record a whole hit; ``waited`` marks one found after waiting on
        another process's build."""
        obs.inc("cache.hits")
        if waited:
            obs.event("cache.hit", key=self.cache_key, single_flight=True)
        else:
            obs.event("cache.hit", key=self.cache_key)
        logger.info(
            "artifact cache hit%s (%s)",
            " after single-flight wait" if waited else "",
            self.cache_key[:12],
        )

    def _build_model(self, cache: Optional[ArtifactCache], read: bool):
        """Step 1: the model, plus (with a cache) its fingerprint and the
        model phase's entry."""
        obs = self.obs
        with obs.span("phase.model_build"):
            model = self.control.build()
        fingerprint = None
        if cache is not None:
            with obs.span("phase.fingerprint"):
                fingerprint = fingerprint_model(model)
            model_hit = read and cache.has(self.phase_keys["model"])
            self._record_phase("model", model_hit, obs)
            if not model_hit:
                self._store_entry(
                    cache, "model", {"fingerprint": fingerprint},
                    stable=fingerprint.stable,
                )
        return model, fingerprint

    def _build_phase(self, phase, built, model, memo, resume, faults):
        """A fresh build of ``phase`` over the phases in ``built``: its
        artifact, plus the per-edge instruction costs tours were made with
        (``None`` for the other phases)."""
        obs = self.obs
        if phase == "graph":
            checkpoint = (
                CheckpointConfig(self.checkpoint_dir, every_waves=self.checkpoint_every)
                if self.checkpoint_dir
                else None
            )
            with obs.span("phase.enumerate", jobs=self.jobs or 0):
                return enumerate_states(
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
                ), None
        graph = built["graph"]
        if phase == "tours":
            # The generator (and its index) dies on return, before vector
            # generation.
            with obs.span("phase.tours"):
                generator = IndexedTourGenerator(
                    graph,
                    instruction_cost=pp_instruction_cost(
                        self.control, graph, memo=memo
                    ),
                    max_instructions_per_trace=self.max_instructions_per_trace,
                )
                return generator.generate(obs=obs), generator.costs
        with obs.span("phase.vectors", jobs=self.jobs or 0):
            return VectorGenerator(
                self.control, graph, seed=self.seed, memo=memo
            ).generate(list(built["tours"]), obs=obs, pool=self.worker_pool()), None

    def _load_phase(self, cache: ArtifactCache, phase: str, built) -> Any:
        """``phase``'s artifact from this build's own entry, over the
        phases in ``built``; ``None`` on a miss.  The ``splice`` sidecar
        yields its transition-memo rows."""
        with self.obs.span("phase.cache_load"):
            entry = cache.load(self.phase_keys[phase])
            if entry is None:
                return None
            if phase == "graph":
                return entry["graph"], entry["stats"]
            if phase == "tours":
                return self._tours_from_entry(entry, built["graph"])
            if phase == "splice":
                return entry["memo"]
            return unpack_trace_set(entry["traces"])

    def _store_phase(self, cache, phase, built, memo, costs, **fields) -> None:
        """Persist ``phase``'s artifact from ``built`` under this build's
        key; one ``cache.stores`` each.

        The tours carry their splice sidecar: per-edge instruction costs
        (``costs``, the list the tours were made or checked with) and the
        memo's transition outcomes, keyed by packed state.  It lets a
        *later* build splice against this one without replaying
        transitions; the memo is fully warm here, so exporting it costs
        only the pickle.
        """
        graph = built["graph"]
        with self.obs.span("phase.cache_store"):
            if phase == "graph":
                self._store_entry(
                    cache, "graph", {"graph": graph, "stats": built["enumeration"]},
                    num_states=graph.num_states, num_edges=graph.num_edges,
                    **fields,
                )
            elif phase == "tours":
                tours = built["tours"]
                self._store_entry(
                    cache, "tours",
                    {
                        "tours": [
                            (list(t.edge_indices), t.instructions) for t in tours
                        ],
                        "generation_seconds": tours.stats.generation_seconds,
                    },
                    num_tours=len(tours), **fields,
                )
                self._store_entry(
                    cache, "splice",
                    {"edge_costs": costs, "memo": export_memo(memo, graph)},
                    **fields,
                )
            else:
                traces = built["traces"]
                self._store_entry(
                    cache, "traces", {"traces": pack_trace_set(traces)},
                    num_traces=traces.num_traces, **fields,
                )
        self.obs.inc("cache.stores")

    def _store_entry(self, cache, name: str, entry: Any, **fields: Any) -> None:
        """``cache.store`` one entry under this build's ``name`` key."""
        cache.store(
            self.phase_keys[name], entry,
            manifest=self._phase_manifest(name, **fields),
        )

    @staticmethod
    def _tours_from_entry(entry: Dict[str, Any], graph: StateGraph) -> TourSet:
        """The :class:`TourSet` a tours entry written by :meth:`_store_phase`
        holds, over ``graph``."""
        return TourSet(
            graph,
            [Tour(list(e), n) for e, n in entry["tours"]],
            entry["generation_seconds"],
        )

    def _incremental_prepare(
        self, cache: ArtifactCache, model, fingerprint
    ) -> Dict[str, Any]:
        """Try to satisfy this build's phase keys from a *related* build.

        Scans the recent-builds journal newest-first for a candidate whose
        cached model fingerprint diffs as no-op or localized against the
        current model.  On a no-op the candidate's entries are adopted by
        byte-copy under this build's keys (:meth:`_run` then loads them);
        on a localized diff the dirty region is re-enumerated, the graph
        grafted, and cached tours/traces spliced where sound.

        Returns a (possibly empty) dict of prepared artifacts for
        :meth:`_run` to take and store (see :meth:`_splice_localized`).
        Any exception falls back to the cold path: incremental reuse is an
        optimization, never a correctness dependency.
        """
        report = self.incremental_report
        try:
            return self._incremental_prepare_inner(cache, model, fingerprint, report)
        except Exception as exc:  # noqa: BLE001 -- fall back to full rebuild
            logger.warning(
                "incremental preparation failed (%s); falling back to a "
                "full rebuild", exc,
            )
            report.fallback_reason = f"error: {exc}"
            self.obs.inc("incremental.fallbacks")
            return {}

    def _incremental_prepare_inner(
        self, cache, model, fingerprint, report
    ) -> Dict[str, Any]:
        keys = self.phase_keys
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
            # and the flag it keys on are unchanged.  Chained: a phase
            # is only adoptable if everything upstream of it is.
            adoptable: Dict[str, bool] = {}
            upstream = True
            for phase, flag in PHASE_FLAGS.items():
                upstream = adoptable[phase] = (
                    upstream
                    and cdigests.get(phase) == digests[phase]
                    and cflags.get(flag) == flags[flag]
                )
            if not adoptable["graph"]:
                last_reason = "graph phase code/flags changed"
                continue

            report.attempted = True
            report.classification = diff.classification
            report.base_key = ckeys.get("traces")

            if diff.classification == NO_OP:
                return self._adopt_no_op(cache, ckeys, adoptable, report)

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
                cache, ckeys, model, scopes, adoptable, report
            )
            if prepared:
                return prepared
            report.attempted = False
            last_reason = report.fallback_reason or last_reason

        report.fallback_reason = last_reason
        return {}

    def _adopt_no_op(self, cache, ckeys, adoptable, report) -> Dict[str, Any]:
        """Byte-copy a no-op candidate's entries under this build's keys.

        The diff proved the models semantically identical, so each
        adoptable phase's cached bytes *are* what a cold build would
        store.  :meth:`_run` then loads them from our keys.
        """
        keys = self.phase_keys
        adopted = []
        for phase in PHASE_FLAGS:
            if not (adoptable[phase] and cache.copy_entry(ckeys[phase], keys[phase])):
                break
            adopted.append(phase)
            if phase == "tours":
                cache.copy_entry(ckeys["splice"], keys["splice"])
        report.adopted_phases = tuple(adopted)
        if not adopted:
            report.fallback_reason = "candidate entries pruned"
        obs = self.obs
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
        self, cache, ckeys, model, scopes, adoptable, report
    ) -> Dict[str, Any]:
        """Region re-enumeration + graft + tour/trace splice (localized).

        Returns what :meth:`_run` takes and stores in place of a build:
        ``graph`` (with its stats) and, where splicing was sound,
        ``tours`` (with the per-edge ``costs`` that checked them) and
        ``traces``; the warmed ``memo``; each phase's cache outcome in
        ``hits``; and the candidate's key as ``base`` for the manifests.
        """
        obs = self.obs
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
        hits = {"graph": counts["region_states"] == 0}
        prepared: Dict[str, Any] = {
            "graph": (graph, stats), "hits": hits, "base": ckeys.get("traces"),
        }
        report.adopted_phases = ("graph",)

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
        if not (adoptable["tours"] and report.reused_graph and sidecar is not None):
            return prepared
        costs = edge_costs(memo, graph)
        if costs != sidecar["edge_costs"]:
            return prepared
        tours_entry = cache.load(ckeys["tours"])
        if tours_entry is None:
            return prepared
        # Stored under *our* keys with our own memo and costs, not the
        # candidate's sidecar: its dirty-state rows reflect the old model.
        tours = self._tours_from_entry(tours_entry, graph)
        prepared.update(tours=tours, costs=costs)
        hits["tours"] = True

        if adoptable["traces"]:
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
                prepared["traces"] = TraceSet(traces=spliced)
                hits["traces"] = reused > 0 and regenerated == 0
                report.spliced_tours = reused
                report.regenerated_traces = regenerated
                obs.inc("incremental.spliced_tours", reused)

        adopted = [phase for phase in PHASE_FLAGS if phase in prepared]
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

        With a cache directory, traces whose verdict under ``config`` the
        cache's verdict table already holds are not simulated again (see
        :mod:`repro.core.cache`); ``ValidationReport.reused_traces``
        counts them.  ``use_cache=False`` simulates every trace and still
        stores the table.
        """
        from repro.core.report import ValidationReport

        config = config or CoreConfig(mem_latency=0)
        traces = self.artifacts.traces
        with self.obs.span("pipeline.validate", jobs=self.jobs or 0):
            known: Dict[int, ComparisonResult] = {}
            if self.cache_dir is not None:
                cache = ArtifactCache(self.cache_dir)
                key = verdict_key(
                    config,
                    inbox_tasks=DEFAULT_INBOX,
                    strict_writes=True,
                    max_cycles=DEFAULT_MAX_CYCLES,
                )
                table = load_verdicts(cache, key) if self.use_cache else {}
                digests = trace_digests(traces.traces)
                known = {
                    index: ComparisonResult.from_row(table[digest])
                    for index, digest in enumerate(digests)
                    if digest in table
                }
            results, diverging = run_vector_traces(
                traces,
                config=config,
                stop_on_divergence=stop_on_divergence,
                obs=self.obs,
                pool=self.worker_pool(),
                known=known,
            )
            if self.cache_dir is not None:
                store_verdicts(cache, key, table, (
                    (digest, result.to_row())
                    for digest, result in zip(digests, results)
                ))
        return ValidationReport(
            config=config,
            traces_run=len(results),
            total_traces=traces.num_traces,
            diverging_traces=diverging,
            results=results,
            enumeration=self.artifacts.enumeration,
            tour_stats=self.artifacts.tours.stats,
            from_cache=self.artifacts_from_cache,
            reused_traces=sum(1 for index in known if index < len(results)),
        )
