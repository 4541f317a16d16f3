"""The serve job model and the child-process job runner.

A *job* is one pipeline run (enumerate, validate, or campaign) requested
over HTTP.  Two design decisions carry the robustness story:

**Content-addressed identity.**  A job's id is the SHA-256 of its
canonical ``(kind, normalized params, budget)`` payload.  Two clients
submitting the same configuration therefore name the *same* job -- the
daemon's dedup is a dictionary lookup, not a heuristic -- and the
underlying artifact-cache single-flight lock
(:meth:`repro.core.cache.ArtifactCache.single_flight`) guarantees one
build even across unrelated processes (a concurrent CLI run, a second
daemon).

**Out-of-process execution.**  Jobs run in forked child processes
(:func:`spawn_job_process`), so an OOM kill or a chaos-test SIGKILL
takes down one job attempt, never the daemon.  The child installs the
SIGTERM-to-KeyboardInterrupt handler
(:mod:`repro.resilience.signals`), checkpoints enumeration every wave,
streams heartbeats to a per-job JSONL file (the SSE source), and writes
its result atomically.  Exit codes are the contract with the worker
pool:

- ``0``   -- result written (possibly budget-truncated; the result says so);
- ``75``  -- interrupted by drain (SIGTERM): a resumable checkpoint is on
  disk (``EX_TEMPFAIL``, following sendmail convention);
- ``1``   -- the job raised; ``error.json`` holds the details;
- killed  -- anything with a signal: the worker retries per policy.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import os
import signal
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.resilience import Budget, FaultPlan
from repro.resilience.atomic import atomic_write_text

#: Job kinds the daemon accepts, mirroring the one-shot CLI commands.
JOB_KINDS = ("enumerate", "validate", "campaign")

#: Job lifecycle states (journalled on every transition).
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: Child exit code meaning "interrupted but checkpointed; requeue me".
EXIT_CHECKPOINTED = 75

#: Parameters accepted for every kind, with their defaults.  The service
#: defaults to the small model (fill_words=1): a shared daemon should be
#: cheap by default and explicit about expensive work.
_COMMON_DEFAULTS: Dict[str, Any] = {
    "fill_words": 1,
    "extra_pipe_stages": 0,
    # Namespacing knob: a tag is part of the job identity, so campaigns
    # that must NOT dedupe against each other (load tests, A/B reruns)
    # submit distinct tags.
    "tag": None,
    # Test machinery, mirroring the pipeline's faults= plumbing: a dict
    # of FaultPlan fields (e.g. {"slow_every_wave": 0.05}) the chaos
    # suite uses to stretch or interrupt jobs deterministically.
    "chaos": None,
}

_KIND_DEFAULTS: Dict[str, Dict[str, Any]] = {
    "enumerate": {"record_all_conditions": False},
    "validate": {
        "limit": 400,
        "seed": 0,
        "bugs": [],
        "run_all": False,
        # Named model edits from repro.incremental.EDIT_CATALOG, applied
        # in order.  Jobs name edits; they never ship code.
        "edits": [],
        # Allow serving this job by diff-and-splice against a cached
        # build of a related model (byte-identical either way).
        "incremental": True,
    },
    "campaign": {"limit": 400, "seed": 0},
}

_BUDGET_FIELDS = ("wall_seconds", "max_memory_mb", "max_states")


class JobSpecError(ValueError):
    """A submission payload that cannot become a job (HTTP 400)."""


def normalize_params(kind: str, params: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """Apply defaults and reject unknown keys; the canonical param dict.

    Normalization runs *before* hashing, so ``{}`` and an explicit
    ``{"fill_words": 1}`` are the same job.
    """
    if kind not in JOB_KINDS:
        raise JobSpecError(f"unknown job kind {kind!r}; known: {list(JOB_KINDS)}")
    allowed = dict(_COMMON_DEFAULTS)
    allowed.update(_KIND_DEFAULTS[kind])
    params = dict(params or {})
    unknown = sorted(set(params) - set(allowed))
    if unknown:
        raise JobSpecError(
            f"unknown parameter(s) {unknown} for kind {kind!r}; "
            f"accepted: {sorted(allowed)}"
        )
    normalized = dict(allowed)
    normalized.update(params)
    if kind == "validate":
        normalized["bugs"] = sorted(int(b) for b in normalized["bugs"] or [])
        from repro.incremental.edits import EDIT_CATALOG

        edits = list(normalized["edits"] or [])
        unknown_edits = sorted(set(edits) - set(EDIT_CATALOG))
        if unknown_edits:
            raise JobSpecError(
                f"unknown model edit(s) {unknown_edits}; catalog: "
                f"{sorted(EDIT_CATALOG)}"
            )
        # Order is semantic (rewrites compose), so it is preserved.
        normalized["edits"] = edits
        if not isinstance(normalized["incremental"], bool):
            raise JobSpecError("incremental must be a boolean")
    chaos = normalized.get("chaos")
    if chaos is not None:
        if not isinstance(chaos, dict):
            raise JobSpecError("chaos must be a dict of FaultPlan fields")
        valid = {f.name for f in dataclasses.fields(FaultPlan)}
        bad = sorted(set(chaos) - valid)
        if bad:
            raise JobSpecError(f"unknown chaos field(s) {bad}")
    return normalized


def normalize_budget(budget: Optional[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    """Canonical per-job budget dict (or ``None`` for unbounded)."""
    if not budget:
        return None
    unknown = sorted(set(budget) - set(_BUDGET_FIELDS))
    if unknown:
        raise JobSpecError(
            f"unknown budget field(s) {unknown}; accepted: {list(_BUDGET_FIELDS)}"
        )
    normalized = {name: budget.get(name) for name in _BUDGET_FIELDS}
    if all(value is None for value in normalized.values()):
        return None
    return normalized


def job_key(kind: str, params: Dict[str, Any],
            budget: Optional[Dict[str, Any]] = None) -> str:
    """Content address of a job: same config, same id, one build."""
    payload = {"kind": kind, "params": params, "budget": budget}
    blob = json.dumps(payload, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class Job:
    """One submitted job and its full lifecycle state."""

    id: str
    kind: str
    params: Dict[str, Any]
    priority: int = 0
    budget: Optional[Dict[str, Any]] = None
    state: str = "queued"
    submitted_at: float = field(default_factory=time.time)
    #: First dequeue time: the wall budget clock starts *here*, not at
    #: submission -- time spent waiting in the queue is the operator's
    #: capacity problem, not the client's budget.
    dequeued_at: Optional[float] = None
    finished_at: Optional[float] = None
    attempts: int = 0
    worker_pid: Optional[int] = None
    #: True once a resumable checkpoint is known to exist (set on retry,
    #: drain and crash recovery); the next attempt resumes instead of
    #: restarting.
    resumable: bool = False
    degraded: bool = False
    error: Optional[str] = None
    result: Optional[Dict[str, Any]] = None

    @classmethod
    def from_submission(cls, payload: Dict[str, Any]) -> "Job":
        """Build a job from a ``POST /jobs`` body; raises :class:`JobSpecError`."""
        if not isinstance(payload, dict):
            raise JobSpecError("submission body must be a JSON object")
        kind = payload.get("kind")
        params = normalize_params(kind, payload.get("params"))
        budget = normalize_budget(payload.get("budget"))
        priority = payload.get("priority", 0)
        if not isinstance(priority, int):
            raise JobSpecError("priority must be an integer")
        extra = sorted(set(payload) - {"kind", "params", "budget", "priority"})
        if extra:
            raise JobSpecError(f"unknown submission field(s) {extra}")
        return cls(
            id=job_key(kind, params, budget),
            kind=kind,
            params=params,
            budget=budget,
            priority=priority,
        )

    def to_dict(self) -> Dict[str, Any]:
        doc = dataclasses.asdict(self)
        doc["wall_remaining"] = self.wall_remaining()
        return doc

    def summary(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "kind": self.kind,
            "state": self.state,
            "priority": self.priority,
            "attempts": self.attempts,
            "submitted_at": self.submitted_at,
        }

    @property
    def terminal(self) -> bool:
        return self.state in ("done", "failed", "cancelled")

    def wall_remaining(self, now: Optional[float] = None) -> Optional[float]:
        """Seconds left in the wall budget, measured from first dequeue."""
        if not self.budget or self.budget.get("wall_seconds") is None:
            return None
        if self.dequeued_at is None:
            return float(self.budget["wall_seconds"])
        now = time.time() if now is None else now
        return max(0.0, float(self.budget["wall_seconds"]) - (now - self.dequeued_at))


# ---------------------------------------------------------------------------
# On-disk layout for one job
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JobPaths:
    """Where one job keeps its durable state under the daemon state dir."""

    root: Path

    @classmethod
    def for_job(cls, state_dir: Path, job_id: str) -> "JobPaths":
        return cls(root=Path(state_dir) / "jobs" / job_id)

    @property
    def result(self) -> Path:
        return self.root / "result.json"

    @property
    def error(self) -> Path:
        return self.root / "error.json"

    @property
    def heartbeats(self) -> Path:
        return self.root / "heartbeats.jsonl"

    @property
    def checkpoints(self) -> Path:
        return self.root / "checkpoints"

    @property
    def graph(self) -> Path:
        return self.root / "graph.json"

    def ensure(self) -> "JobPaths":
        self.root.mkdir(parents=True, exist_ok=True)
        return self

    def load_result(self) -> Optional[Dict[str, Any]]:
        try:
            return json.loads(self.result.read_text())
        except (OSError, ValueError):
            return None

    def load_error(self) -> Optional[str]:
        try:
            return json.loads(self.error.read_text()).get("error")
        except (OSError, ValueError):
            return None

    def has_resumable_checkpoint(self) -> bool:
        """Whether some checkpoint on disk verifies.  A worker killed
        between writing a payload and its manifest leaves one that does
        not, and resuming from nothing but that fails the job."""
        from repro.resilience import CheckpointStore

        if not self.checkpoints.is_dir():
            return False
        try:
            store = CheckpointStore(self.checkpoints)
            return any(store.verify(name) is None for name in store.names())
        except Exception:
            return False


# ---------------------------------------------------------------------------
# Job execution (runs in a child process, or inline under a thread)
# ---------------------------------------------------------------------------


def _chaos_plan(params: Dict[str, Any]) -> Optional[FaultPlan]:
    chaos = params.get("chaos")
    return FaultPlan(**chaos) if chaos else None


def _budget_for_attempt(job_budget: Optional[Dict[str, Any]],
                        wall_remaining: Optional[float]) -> Optional[Budget]:
    if job_budget is None:
        return None
    return Budget(
        wall_seconds=wall_remaining,
        max_memory_mb=job_budget.get("max_memory_mb"),
        max_states=job_budget.get("max_states"),
    )


def execute_job(
    job_doc: Dict[str, Any],
    paths: JobPaths,
    cache_dir: Optional[str],
    wall_remaining: Optional[float],
    resume: bool,
) -> Dict[str, Any]:
    """Run one job attempt to completion; returns (and persists) the result.

    Heartbeats stream to ``paths.heartbeats`` for the SSE endpoint;
    enumeration checkpoints land in ``paths.checkpoints`` every wave so
    any interruption -- drain, crash, SIGKILL -- resumes instead of
    restarting.  The result JSON is written atomically as the last step:
    a result file on disk *means* the job finished.
    """
    from repro.obs import Observer, ProgressReporter
    from repro.pp.fsm_model import PPModelConfig

    kind = job_doc["kind"]
    params = job_doc["params"]
    paths.ensure()
    model_config = PPModelConfig(
        fill_words=params["fill_words"],
        extra_pipe_stages=params["extra_pipe_stages"],
    )
    budget = _budget_for_attempt(job_doc.get("budget"), wall_remaining)
    faults = _chaos_plan(params)
    resume = resume and paths.has_resumable_checkpoint()
    observer = Observer(progress=ProgressReporter(path=str(paths.heartbeats)))
    started = time.perf_counter()
    try:
        if kind == "enumerate":
            result = _run_enumerate(
                model_config, params, paths, budget, faults, resume, observer
            )
        elif kind == "validate":
            result = _run_validate(
                model_config, params, paths, cache_dir, budget, faults,
                resume, observer,
            )
        else:
            result = _run_campaign(
                model_config, params, paths, cache_dir, budget, faults,
                resume, observer,
            )
    finally:
        observer.close()
    result.update(
        kind=kind,
        job_id=job_doc["id"],
        elapsed_seconds=time.perf_counter() - started,
        resumed=resume,
    )
    atomic_write_text(paths.result, json.dumps(result, indent=2, sort_keys=True))
    return result


def _run_enumerate(model_config, params, paths, budget, faults, resume,
                   observer) -> Dict[str, Any]:
    from repro.core.pipeline import ValidationPipeline

    graph, stats = ValidationPipeline(
        model_config=model_config,
        record_all_conditions=params["record_all_conditions"],
        jobs=1,
        observer=observer,
        checkpoint_dir=str(paths.checkpoints),
        budget=budget,
    ).build_graph(resume=resume, faults=faults)
    # The graph JSON is the job's byte-comparable artifact: the chaos
    # suite diffs it against an uninterrupted run after kill/resume.
    atomic_write_text(paths.graph, graph.to_json())
    return {
        "num_states": graph.num_states,
        "num_edges": graph.num_edges,
        "truncated": stats.truncated,
        "budget_outcome": stats.budget_outcome,
        "checkpoints_written": stats.checkpoints_written,
        "graph_path": str(paths.graph),
    }


def _build_pipeline(model_config, params, paths, cache_dir, budget, faults,
                    resume, observer):
    """The built :class:`ValidationPipeline` a validate or campaign job
    runs; only validate jobs name ``edits`` or switch ``incremental``."""
    from repro.core.pipeline import ValidationPipeline
    from repro.incremental.edits import resolve_edits

    pipeline = ValidationPipeline(
        model_config=model_config,
        max_instructions_per_trace=params["limit"] or None,
        seed=params["seed"],
        jobs=1,
        cache_dir=cache_dir,
        observer=observer,
        checkpoint_dir=str(paths.checkpoints),
        budget=budget,
        edits=resolve_edits(params.get("edits", [])),
        incremental=params.get("incremental", True),
    )
    pipeline.build(resume=resume, faults=faults)
    return pipeline


def _run_validate(model_config, params, paths, cache_dir, budget, faults,
                  resume, observer) -> Dict[str, Any]:
    from repro.pp.rtl.core import CoreConfig

    pipeline = _build_pipeline(model_config, params, paths, cache_dir,
                               budget, faults, resume, observer)
    config = CoreConfig(mem_latency=0)
    if params["bugs"]:
        config = config.with_bugs(*params["bugs"])
    report = pipeline.validate(config=config,
                               stop_on_divergence=not params["run_all"])
    atomic_write_text(paths.graph, pipeline.artifacts.graph.to_json())
    return {
        "clean": report.clean,
        "traces_run": report.traces_run,
        "total_traces": report.total_traces,
        "diverging_traces": len(report.diverging_traces),
        "bugs": params["bugs"],
        "edits": params["edits"],
        "truncated": pipeline.artifacts.enumeration.truncated,
        "cache": pipeline.cache_info,
        "graph_path": str(paths.graph),
    }


def _run_campaign(model_config, params, paths, cache_dir, budget, faults,
                  resume, observer) -> Dict[str, Any]:
    from repro.harness.campaign import ValidationCampaign

    pipeline = _build_pipeline(model_config, params, paths, cache_dir,
                               budget, faults, resume, observer)
    results = ValidationCampaign(pipeline).evaluate_all_bugs()
    found = sum(r.outcomes["generated"].detected for r in results)
    atomic_write_text(paths.graph, pipeline.artifacts.graph.to_json())
    return {
        "bugs_evaluated": len(results),
        "bugs_detected_by_generated": found,
        "truncated": pipeline.artifacts.enumeration.truncated,
        "cache": pipeline.cache_info,
        "graph_path": str(paths.graph),
        "table": [
            {
                "bug": r.bug_id,
                "detected": {
                    method: outcome.detected
                    for method, outcome in r.outcomes.items()
                },
            }
            for r in results
        ],
    }


def _die_with_parent() -> None:
    """Linux ``PR_SET_PDEATHSIG``: a SIGKILLed daemon takes its job
    children down with it.

    Without this an orphaned child would keep running after the daemon
    is killed, finish, and tidy away the very checkpoints the restarted
    daemon needs to resume from -- and journal recovery assumes a
    ``running`` job's attempt died with the daemon.  Best-effort: on
    platforms without ``prctl`` the orphan merely wastes some CPU.
    """
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(1, signal.SIGKILL, 0, 0, 0)  # 1 == PR_SET_PDEATHSIG
        if os.getppid() == 1:  # parent died before prctl took effect
            os.kill(os.getpid(), signal.SIGKILL)
    except (OSError, AttributeError, ValueError):  # pragma: no cover
        pass


def _child_main(job_doc: Dict[str, Any], root: str, cache_dir: Optional[str],
                wall_remaining: Optional[float], resume: bool) -> None:
    """Entry point inside the forked job process."""
    from repro.resilience.signals import install_term_to_interrupt

    _die_with_parent()
    # Drain protocol: the daemon SIGTERMs us; the handler turns that
    # into KeyboardInterrupt, enumeration stops at the next wave boundary
    # (checkpoint already written), and we exit EXIT_CHECKPOINTED.
    install_term_to_interrupt()
    paths = JobPaths(root=Path(root))
    try:
        execute_job(job_doc, paths, cache_dir, wall_remaining, resume)
    except KeyboardInterrupt:
        sys.exit(EXIT_CHECKPOINTED)
    except BaseException as exc:  # noqa: BLE001 - report, then die
        paths.ensure()
        try:
            atomic_write_text(
                paths.error,
                json.dumps({"error": f"{type(exc).__name__}: {exc}"}),
            )
        except OSError:
            pass
        sys.exit(1)
    sys.exit(0)


def spawn_job_process(
    job: Job,
    paths: JobPaths,
    cache_dir: Optional[str],
    wall_remaining: Optional[float],
    resume: bool,
) -> multiprocessing.Process:
    """Fork a child running ``job``; the caller owns wait/kill/retry.

    Fork (not spawn) keeps attempt startup at milliseconds -- the child
    inherits the daemon's imported modules -- and matches the parallel
    enumeration engine's choice.  Platforms without fork fall back to
    the default start method.
    """
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platform
        context = multiprocessing.get_context()
    process = context.Process(
        target=_child_main,
        args=(job.to_dict(), str(paths.root), cache_dir, wall_remaining, resume),
        daemon=False,
    )
    process.start()
    return process
