"""The unified benchmark registry, history timeline and regression gate.

The repo's benchmark scripts grew three incompatible ad-hoc JSON shapes
(``repro.bench-kernel/1``, ``repro.bench-backhalf/1``, and bare dicts),
and none of them accumulated: every run overwrote the last, so the perf
*trajectory* -- the thing a paper whose results are throughput tables
lives on -- was invisible.  This module is the shared substrate:

- **One result schema**, :data:`BENCH_RESULT_SCHEMA`
  (``repro.bench-result/1``): a named benchmark run carrying typed
  metrics (value + unit + direction), free-form context (scale, jobs,
  kernel), a git SHA and a UTC timestamp.
- **A registry** of runnable benchmarks (:func:`register_benchmark`);
  ``repro bench`` discovers and runs them.  The built-ins at the bottom
  of this module cover the pipeline's four hot phases at a CI-friendly
  scale.
- **A history timeline**: every run appends one JSONL line to
  ``BENCH_history.jsonl`` keyed by git SHA -- the same file the legacy
  ``bench_kernel.py`` / ``bench_back_half.py`` scripts now feed too.
  Runs from a tree with uncommitted tracked changes are stamped
  ``<sha>-dirty`` (:func:`provenance_sha`), so a measurement can never
  silently masquerade as the clean HEAD commit's performance.
- **A regression detector** (:func:`detect_regressions`): the newest
  entry of every (benchmark, metric) series is compared against the
  median of a trailing baseline window; a slowdown past the threshold
  fails the gate (or warns, in report-only mode).  A companion check
  (:func:`parallel_efficiency_warnings`) compares sibling jobs=1 /
  jobs>1 entries so facts like "jobs=4 is *slower* than jobs=1" surface
  automatically instead of by manual inspection of two JSON files.
"""

from __future__ import annotations

import datetime
import json
import os
import subprocess
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional

#: Benchmark result format version.
BENCH_RESULT_SCHEMA = "repro.bench-result/1"

#: Default history file name (repo-root relative by convention).
DEFAULT_HISTORY = "BENCH_history.jsonl"

#: Default regression threshold: latest > baseline by more than this
#: fraction fails the gate.  Generous because shared CI runners are
#: noisy; tighten locally via ``repro bench --threshold``.
DEFAULT_THRESHOLD = 0.25

#: Default trailing-window size for the baseline median.
DEFAULT_WINDOW = 5


def metric(
    value: float, unit: str = "seconds", higher_is_better: bool = False
) -> Dict[str, Any]:
    """One typed metric cell for :class:`BenchResult.metrics`."""
    return {
        "value": float(value),
        "unit": unit,
        "higher_is_better": bool(higher_is_better),
    }


@dataclass
class BenchResult:
    """One benchmark run in the shared ``repro.bench-result/1`` schema."""

    name: str
    metrics: Dict[str, Dict[str, Any]]
    context: Dict[str, Any] = field(default_factory=dict)
    git_sha: str = "unknown"
    timestamp: str = ""
    schema: str = BENCH_RESULT_SCHEMA

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": self.schema,
            "name": self.name,
            "git_sha": self.git_sha,
            "timestamp": self.timestamp,
            "context": self.context,
            "metrics": self.metrics,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "BenchResult":
        problems = validate_bench_result(payload)
        if problems:
            raise ValueError(f"invalid bench result: {problems}")
        return cls(
            name=payload["name"],
            metrics=dict(payload["metrics"]),
            context=dict(payload.get("context", {})),
            git_sha=payload.get("git_sha", "unknown"),
            timestamp=payload.get("timestamp", ""),
        )


def validate_bench_result(payload: Mapping[str, Any]) -> List[str]:
    """Structural validation of one result document; returns problems."""
    problems: List[str] = []
    if payload.get("schema") != BENCH_RESULT_SCHEMA:
        problems.append(f"schema is {payload.get('schema')!r}")
    if not isinstance(payload.get("name"), str) or not payload.get("name"):
        problems.append("name missing")
    if not isinstance(payload.get("git_sha"), str):
        problems.append("git_sha missing")
    if not isinstance(payload.get("timestamp"), str):
        problems.append("timestamp missing")
    if not isinstance(payload.get("context"), dict):
        problems.append("context is not a dict")
    metrics = payload.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        problems.append("metrics missing or empty")
        return problems
    for name, cell in metrics.items():
        if not isinstance(cell, dict):
            problems.append(f"metric {name!r} is not a dict")
            continue
        if not isinstance(cell.get("value"), (int, float)):
            problems.append(f"metric {name!r} without numeric value")
        if not isinstance(cell.get("unit"), str):
            problems.append(f"metric {name!r} without unit")
        if not isinstance(cell.get("higher_is_better"), bool):
            problems.append(f"metric {name!r} without direction")
    return problems


def git_sha(cwd: Optional[str] = None) -> str:
    """The current commit SHA, or ``"unknown"`` outside a git checkout."""
    override = os.environ.get("REPRO_GIT_SHA")
    if override:
        return override
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


#: Per-cwd cache for the dirty-tree probe.  The answer is stable for the
#: life of a benchmark process, and ``append_history`` itself modifies
#: the (tracked) history file mid-run -- re-probing after the first
#: append would stamp every subsequent entry of a clean run as dirty.
_DIRTY_CACHE: Dict[Optional[str], Optional[bool]] = {}


def git_dirty(cwd: Optional[str] = None) -> Optional[bool]:
    """Whether tracked files carry uncommitted changes (None if unknown).

    Untracked files are ignored (the ``git describe --dirty``
    convention): the failure mode this guards against is benchmarking
    *modified* code while attributing the numbers to the unmodified
    HEAD commit.  Benchmark artifacts (tracked ``BENCH_*`` files) are
    ignored too -- the benchmarks rewrite them mid-run, before their
    history entries are stamped, and a run's own outputs are not code.
    """
    if cwd not in _DIRTY_CACHE:
        try:
            out = subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=cwd,
                capture_output=True,
                text=True,
                timeout=10,
            )
        except (OSError, subprocess.SubprocessError):
            out = None
        if out is None or out.returncode != 0:
            _DIRTY_CACHE[cwd] = None
        else:
            code_changes = [
                line for line in out.stdout.splitlines()
                if line.strip() and not os.path.basename(
                    line[3:].split(" -> ")[-1].strip().strip('"')
                ).startswith("BENCH_")
            ]
            _DIRTY_CACHE[cwd] = bool(code_changes)
    return _DIRTY_CACHE[cwd]


def provenance_sha(cwd: Optional[str] = None) -> str:
    """:func:`git_sha`, suffixed ``-dirty`` for an unclean working tree.

    History entries once attributed dirty-tree measurements to the bare
    parent commit -- code the commit did not contain.  Stamping the
    suffix makes that impossible to do silently.  A ``REPRO_GIT_SHA``
    override is taken verbatim: the caller is asserting provenance
    explicitly.
    """
    if os.environ.get("REPRO_GIT_SHA"):
        return git_sha(cwd)
    sha = git_sha(cwd)
    if sha != "unknown" and git_dirty(cwd):
        sha += "-dirty"
    return sha


def short_sha(sha: str, length: int = 12) -> str:
    """Abbreviate a provenance SHA without losing the ``-dirty`` marker."""
    if sha.endswith("-dirty"):
        return sha[: -len("-dirty")][:length] + "-dirty"
    return sha[:length]


def stamp(result: BenchResult, cwd: Optional[str] = None) -> BenchResult:
    """Fill in the provenance fields (git SHA, UTC timestamp) in place."""
    if result.git_sha == "unknown":
        result.git_sha = provenance_sha(cwd)
    if not result.timestamp:
        result.timestamp = (
            datetime.datetime.now(datetime.timezone.utc)
            .isoformat(timespec="seconds")
        )
    return result


# -- the history timeline ------------------------------------------------------


def append_history(path: str, result: BenchResult) -> None:
    """Append one validated result line to the history timeline."""
    payload = stamp(result).to_dict()
    problems = validate_bench_result(payload)
    if problems:
        raise ValueError(f"refusing to append invalid result: {problems}")
    with open(path, "a") as handle:
        handle.write(json.dumps(payload, sort_keys=True) + "\n")


def load_history(path: str) -> List[Dict[str, Any]]:
    """Load the timeline; entries stay in append (chronological) order.

    Unparseable or schema-invalid lines are skipped (a half-written line
    from a crashed run must not poison every future gate evaluation).
    """
    entries: List[Dict[str, Any]] = []
    if not os.path.exists(path):
        return entries
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not validate_bench_result(payload):
                entries.append(payload)
    return entries


# -- the regression gate -------------------------------------------------------


@dataclass
class Regression:
    """One (benchmark, metric) series whose latest entry crossed the gate."""

    name: str
    metric: str
    unit: str
    latest: float
    baseline: float
    change: float  # fractional regression: +0.30 == 30% worse
    baseline_entries: int

    def describe(self) -> str:
        return (
            f"{self.name} :: {self.metric}: {self.latest:.4g} {self.unit} vs "
            f"baseline {self.baseline:.4g} (median of "
            f"{self.baseline_entries}) -- {100.0 * self.change:+.1f}% worse"
        )


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def detect_regressions(
    entries: Iterable[Mapping[str, Any]],
    threshold: float = DEFAULT_THRESHOLD,
    window: int = DEFAULT_WINDOW,
) -> List[Regression]:
    """Compare each series' newest entry against its trailing baseline.

    For every (benchmark name, metric) series the *latest* entry is
    measured against the median of up to ``window`` immediately
    preceding entries.  Lower-is-better metrics regress when
    ``latest > baseline * (1 + threshold)``; higher-is-better ones when
    ``latest < baseline * (1 - threshold)``.  A series with no history
    before its latest entry has no baseline and cannot regress.
    """
    series: Dict[tuple, List[Dict[str, Any]]] = {}
    for entry in entries:
        for metric_name, cell in entry.get("metrics", {}).items():
            series.setdefault((entry["name"], metric_name), []).append(cell)
    regressions: List[Regression] = []
    for (name, metric_name), cells in series.items():
        if len(cells) < 2:
            continue
        latest = cells[-1]
        baseline_cells = cells[max(0, len(cells) - 1 - window):-1]
        baseline = _median([c["value"] for c in baseline_cells])
        value = latest["value"]
        if baseline <= 0:
            continue  # degenerate baseline: nothing meaningful to gate on
        if latest.get("higher_is_better"):
            change = (baseline - value) / baseline
        else:
            change = (value - baseline) / baseline
        if change > threshold:
            regressions.append(Regression(
                name=name,
                metric=metric_name,
                unit=latest.get("unit", ""),
                latest=value,
                baseline=baseline,
                change=change,
                baseline_entries=len(baseline_cells),
            ))
    regressions.sort(key=lambda r: -r.change)
    return regressions


def latest_by_name(
    entries: Iterable[Mapping[str, Any]]
) -> Dict[str, Dict[str, Any]]:
    """The newest entry of every benchmark name in the timeline."""
    latest: Dict[str, Dict[str, Any]] = {}
    for entry in entries:
        latest[entry["name"]] = dict(entry)
    return latest


def parallel_efficiency_warnings(
    entries: Iterable[Mapping[str, Any]],
    metric_name: str = "wall_seconds",
) -> List[str]:
    """Warn when a family's jobs>1 wall time does not beat its jobs=1.

    Benchmarks that set ``context.family`` and ``context.jobs`` opt into
    the check; within a family, every latest jobs>1 entry is compared
    against the latest jobs=1 entry.  This is the automated version of
    the ROADMAP observation that at small scale jobs=4 *loses* to
    jobs=1.
    """
    families: Dict[str, Dict[int, Dict[str, Any]]] = {}
    for entry in latest_by_name(entries).values():
        context = entry.get("context", {})
        family = context.get("family")
        jobs = context.get("jobs")
        if family is None or not isinstance(jobs, int):
            continue
        if metric_name not in entry.get("metrics", {}):
            continue
        families.setdefault(family, {})[jobs] = entry
    warnings: List[str] = []
    for family, by_jobs in sorted(families.items()):
        base = by_jobs.get(1)
        if base is None:
            continue
        base_wall = base["metrics"][metric_name]["value"]
        for jobs, entry in sorted(by_jobs.items()):
            if jobs <= 1:
                continue
            wall = entry["metrics"][metric_name]["value"]
            if wall >= base_wall and base_wall > 0:
                speedup = base_wall / wall
                states = entry.get("context", {}).get(
                    "states", base.get("context", {}).get("states")
                )
                scale = (
                    f" at {states:,} states"
                    if isinstance(states, int) and states > 0 else ""
                )
                warnings.append(
                    f"parallel efficiency: {family} at jobs={jobs} took "
                    f"{wall:.3f}s vs {base_wall:.3f}s at jobs=1 "
                    f"({speedup:.2f}x speedup, {speedup / jobs:.0%} "
                    f"efficiency{scale}) -- parallelism is "
                    f"not paying off at this scale"
                )
    return warnings


# -- the registry --------------------------------------------------------------

_REGISTRY: Dict[str, Callable[[], BenchResult]] = {}


def register_benchmark(name: str):
    """Decorator: register a zero-arg callable returning a BenchResult."""

    def decorator(fn: Callable[[], BenchResult]) -> Callable[[], BenchResult]:
        _REGISTRY[name] = fn
        return fn

    return decorator


def registered_benchmarks() -> List[str]:
    return sorted(_REGISTRY)


def run_benchmark(name: str) -> BenchResult:
    """Run one registered benchmark and stamp its provenance."""
    if name not in _REGISTRY:
        raise KeyError(
            f"unknown benchmark {name!r}; registered: {registered_benchmarks()}"
        )
    result = _REGISTRY[name]()
    if result.name != name:
        raise ValueError(
            f"benchmark {name!r} returned a result named {result.name!r}"
        )
    return stamp(result)


# -- built-in benchmarks -------------------------------------------------------
#
# One per hot phase, at a scale (fill_words=1 by default) where the whole
# suite finishes in a few seconds -- these are trajectory probes for the
# history timeline, not the paper-scale assertions (those stay in
# benchmarks/bench_*.py).  Scale and repeats are env-tunable so CI and
# local runs can differ without code changes.

_FILL_WORDS = int(os.environ.get("REPRO_BENCH_FILL_WORDS", "1"))
_REPEATS = max(1, int(os.environ.get("REPRO_BENCH_REPEATS", "2")))
_PARALLEL_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "4"))

_SHARED: Dict[str, Any] = {}


def _best_of(fn: Callable[[], Any]) -> tuple:
    best = None
    result = None
    for _ in range(_REPEATS):
        started = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def _shared_pipeline() -> Dict[str, Any]:
    """Control model + graph + cost/tours, built once per process."""
    if not _SHARED:
        from repro.enumeration import enumerate_states
        from repro.pp.fsm_model import PPControlModel, PPModelConfig
        from repro.tour import IndexedTourGenerator
        from repro.vectors import (
            TransitionEventMemo,
            pp_instruction_cost,
        )

        control = PPControlModel(PPModelConfig(fill_words=_FILL_WORDS))
        graph, _ = enumerate_states(control.build())
        memo = TransitionEventMemo(control, graph)
        cost = pp_instruction_cost(control, graph, memo=memo)
        tours = IndexedTourGenerator(
            graph, instruction_cost=cost, max_instructions_per_trace=400
        ).generate()
        _SHARED.update(
            control=control, graph=graph, memo=memo, cost=cost, tours=tours
        )
    return _SHARED


def _context(**extra: Any) -> Dict[str, Any]:
    context = {"fill_words": _FILL_WORDS, "repeats": _REPEATS}
    context.update(extra)
    return context


@register_benchmark("enum.sequential")
def _bench_enum_sequential() -> BenchResult:
    from repro.enumeration import enumerate_states
    from repro.pp.fsm_model import PPControlModel, PPModelConfig

    def run():
        # Fresh model each repeat: kernels (and their successor memos)
        # cache per model object, so reuse would time a warm memo.
        model = PPControlModel(PPModelConfig(fill_words=_FILL_WORDS)).build()
        return enumerate_states(model)

    wall, (_, stats) = _best_of(run)
    return BenchResult(
        name="enum.sequential",
        context=_context(family="enum", jobs=1, kernel="compiled",
                         states=stats.num_states),
        metrics={
            "wall_seconds": metric(wall),
            "states_per_second": metric(
                stats.num_states / wall, "states/s", higher_is_better=True
            ),
        },
    )


@register_benchmark("enum.parallel")
def _bench_enum_parallel() -> BenchResult:
    from repro.enumeration import enumerate_states
    from repro.pp.fsm_model import PPControlModel, PPModelConfig

    def run():
        model = PPControlModel(PPModelConfig(fill_words=_FILL_WORDS)).build()
        return enumerate_states(model, jobs=_PARALLEL_JOBS)

    wall, (_, stats) = _best_of(run)
    return BenchResult(
        name="enum.parallel",
        context=_context(
            family="enum", jobs=_PARALLEL_JOBS, kernel="compiled",
            cpus=os.cpu_count(), states=stats.num_states,
        ),
        metrics={
            "wall_seconds": metric(wall),
            "states_per_second": metric(
                stats.num_states / wall, "states/s", higher_is_better=True
            ),
        },
    )


@register_benchmark("enum.parallel.full")
def _bench_enum_parallel_full() -> BenchResult:
    """Scaled-up parallel enumeration through the persistent worker pool.

    Probes the regime the small-scale ``enum.parallel`` benchmark cannot:
    enough states per wave for packed shared-memory dispatch to engage.
    The scale is env-selected (``REPRO_BENCH_FULL_SCALE``) because the
    paper-scale ``full`` model takes ~a minute sequentially; the default
    ``branch`` scale (~11K states) keeps the registry suite quick while
    still crossing the dispatch threshold every wave.  The exhaustive
    Table 3.2 sweep lives in ``benchmarks/bench_table_3_2.py``.
    """
    from repro.enumeration import WorkerPool, enumerate_states
    from repro.pp.fsm_model import PPModelConfig, build_pp_control_model

    scale = os.environ.get("REPRO_BENCH_FULL_SCALE", "branch")
    configs = {
        "branch": PPModelConfig(fill_words=2, extra_pipe_stages=1,
                                model_branches=True),
        "mid": PPModelConfig(fill_words=2, extra_pipe_stages=2),
        "full": PPModelConfig.full(),
    }
    config = configs[scale]
    pool = WorkerPool(_PARALLEL_JOBS)

    def run():
        model = build_pp_control_model(config)
        return enumerate_states(model, jobs=_PARALLEL_JOBS, pool=pool)

    try:
        wall, (_, stats) = _best_of(run)
    finally:
        pool.shutdown()
    return BenchResult(
        name="enum.parallel.full",
        context=_context(
            family="enum-full", jobs=_PARALLEL_JOBS, kernel="compiled",
            cpus=os.cpu_count(), scale=scale, states=stats.num_states,
        ),
        metrics={
            "wall_seconds": metric(wall),
            "states_per_second": metric(
                stats.num_states / wall, "states/s", higher_is_better=True
            ),
        },
    )


@register_benchmark("tours.indexed")
def _bench_tours_indexed() -> BenchResult:
    from repro.tour import IndexedTourGenerator

    shared = _shared_pipeline()
    wall, tours = _best_of(
        lambda: IndexedTourGenerator(
            shared["graph"],
            instruction_cost=shared["cost"],
            max_instructions_per_trace=400,
        ).generate()
    )
    arcs = sum(len(t) for t in tours)
    return BenchResult(
        name="tours.indexed",
        context=_context(family="tours", jobs=1, limit=400),
        metrics={
            "wall_seconds": metric(wall),
            "arc_traversals_per_second": metric(
                arcs / wall, "arcs/s", higher_is_better=True
            ),
        },
    )


@register_benchmark("vectors.warm-memo")
def _bench_vectors_warm() -> BenchResult:
    from repro.vectors import VectorGenerator

    shared = _shared_pipeline()
    generator = VectorGenerator(
        shared["control"], shared["graph"], seed=0, memo=shared["memo"]
    )
    tours = list(shared["tours"])
    wall, traces = _best_of(lambda: generator.generate(tours))
    return BenchResult(
        name="vectors.warm-memo",
        context=_context(family="vectors", jobs=1, seed=0),
        metrics={
            "wall_seconds": metric(wall),
            "instructions_per_second": metric(
                traces.total_instructions / wall, "instr/s",
                higher_is_better=True,
            ),
        },
    )


@register_benchmark("serve.throughput")
def _bench_serve_throughput() -> BenchResult:
    """Jobs/second through a saturated ``repro serve`` daemon.

    An in-process server (inline execution, 2 workers, a deliberately
    tiny queue) is flooded with distinct enumerate jobs; shed
    submissions (429) are retried until everything completes, exactly
    like a well-behaved client.  The jobs/second figure tracks the whole
    service path -- admission, journal fsyncs, worker dispatch, result
    persistence -- and ``shed_jobs`` confirms admission control engaged.
    """
    import asyncio
    import json
    import tempfile

    from repro.serve.app import ServeConfig, ValidationServer

    total_jobs = int(os.environ.get("REPRO_BENCH_SERVE_JOBS", "6"))

    async def _flood() -> tuple:
        with tempfile.TemporaryDirectory() as tmp:
            server = ValidationServer(ServeConfig(
                state_dir=tmp, workers=2, max_pending=2, execution="inline",
            ))
            await server.start()
            started = time.perf_counter()
            pending = [
                json.dumps({"kind": "enumerate",
                            "params": {"tag": f"load-{i}"}}).encode()
                for i in range(total_jobs)
            ]
            while pending:
                retry = []
                for body in pending:
                    status, _, _ = server._submit(body)
                    if status == 429:
                        retry.append(body)
                pending = retry
                await asyncio.sleep(0.02)
            while server.stats["completed"] + server.stats["failed"] < total_jobs:
                await asyncio.sleep(0.02)
            wall = time.perf_counter() - started
            shed = server.stats["shed"]
            await server.drain()
            return wall, shed

    def run():
        return asyncio.run(_flood())

    wall, (service_wall, shed) = _best_of(run)
    return BenchResult(
        name="serve.throughput",
        context=_context(family="serve", jobs=total_jobs, workers=2,
                         max_pending=2, execution="inline"),
        metrics={
            "wall_seconds": metric(wall),
            "jobs_per_second": metric(
                total_jobs / service_wall, "jobs/s", higher_is_better=True
            ),
            "shed_submissions": metric(float(shed), "submissions"),
        },
    )
