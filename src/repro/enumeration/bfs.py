"""Breadth-first state enumeration (paper section 3.2).

Starting from the reset state, every combination of abstract-model choices
is tried at every state.  As a new state is found, the choice of actions
that caused the transition becomes an edge of the state graph.  Following
the paper, when more than one permutation of actions causes the same
transition between two states, only the *first* is recorded ("first
condition leading to a new state") -- this keeps the graph small but can
mask implementations with *fewer* behaviours (Fig. 4.2).  The fix the
paper proposes, recording every unique transition condition, is available
via ``record_all_conditions=True`` and is benchmarked as an ablation.

One loop, one executor
----------------------
:func:`bfs_waves` is the only BFS loop: it runs the bookkeeping --
interning, the ``max_states`` cap, invariant checks, arc dedup -- once
per wave of the frontier, in (source id, choice order), which is exactly
the order a FIFO one-state-at-a-time search observes.  Each wave's rows
come from the one executor,
:class:`~repro.enumeration.frontier.SpanExecutor`, over a worker pool
(at ``jobs=1`` a private one that never forks).  It streams a wave
in-process, one ``kern.expand(key)`` at a time, when the pool cannot
dispatch, the kernel has no guard mask, or the wave is small; otherwise
it sends packed spans to the workers.  Span results are replayed in
submission order, so the graph, the cap point and the first
:class:`InvariantViolation` are identical at every job count.  The
expansion itself is the one transition kernel,
:class:`~repro.enumeration.kernel.CompiledKernel`; tests inject the fully
validated reference through ``kernel=``.

Resilience: ``checkpoint=`` snapshots the coordinator state at wave
boundaries and ``resume=`` continues from a snapshot to a
**bit-identical** graph, whatever job count wrote or reads it;
``budget=`` truncates at a wave boundary (``stats.truncated=True``)
instead of raising; ``faults=`` injects deterministic failures for the
chaos suite.
"""

from __future__ import annotations

import functools
import logging
import os
import time
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.enumeration.frontier import SpanExecutor
from repro.enumeration.graph import StateGraph
from repro.enumeration.kernel import (
    CompiledKernel,
    Transition,
    flush_kernel_metrics,
    resolve_kernel,
)
from repro.enumeration.pool import WorkerPool
from repro.enumeration.stats import EnumerationStats
from repro.obs.observer import Observer, resolve
from repro.resilience.budget import Budget, BudgetMeter
from repro.resilience.checkpoint import (
    CheckpointConfig,
    build_payload,
    model_digest,
    resolve_resume,
)
from repro.resilience.faults import FaultPlan
from repro.resilience.retry import RetryPolicy
from repro.smurphi.model import SyncModel

logger = logging.getLogger("repro.enumeration")


class EnumerationError(Exception):
    """Raised when enumeration cannot proceed (e.g. state-count cap hit)."""


class InvariantViolation(EnumerationError):
    """Raised when a model invariant fails on a reachable state."""

    def __init__(self, state_id: int, state: Dict, violated: Tuple[str, ...]):
        self.state_id = state_id
        self.state = state
        self.violated = violated
        super().__init__(
            f"invariants {list(violated)} violated in reachable state #{state_id}: {state}"
        )


def rebuild_seen_arcs(graph: StateGraph, record_all_conditions: bool) -> Set[Tuple]:
    """Reconstruct the arc-dedup set a checkpointed graph implies.

    The recorded edges *are* the dedup set (one edge per key, inserted in
    first-seen order), so resuming needs no separate serialization of it.
    """
    if record_all_conditions:
        return {(e.src, e.dst, e.condition) for e in graph.edges()}
    return {(e.src, e.dst) for e in graph.edges()}


def reset_graph(
    model: SyncModel, kern: CompiledKernel, check_invariants: bool
) -> StateGraph:
    """A fresh graph holding only the (validated) reset state, id 0."""
    graph = StateGraph(model.choice_names)
    reset = model.reset_state()
    model.validate_state(reset)
    reset_id, _ = graph.intern_state(kern.reset_key())
    assert reset_id == StateGraph.RESET
    if check_invariants:
        violated = model.check_invariants(reset)
        if violated:
            raise InvariantViolation(reset_id, dict(reset), tuple(violated))
    return graph


#: A wave's row source: ``rows(wave, index)`` yields ``(state id,
#: successor row)`` for every state of BFS wave number ``index``, in wave
#: order; a row is an iterable of ``(condition, packed successor)``.
RowSource = Callable[[List[int], int], Iterable[Tuple[int, Iterable[Transition]]]]


def bfs_waves(
    model: SyncModel,
    graph: StateGraph,
    wave: List[int],
    rows: RowSource,
    unpack: Callable[[int], Dict],
    seen_arcs: Set[Tuple],
    record_all_conditions: bool = False,
    max_states: Optional[int] = None,
    needs_check: Optional[Callable[[int], bool]] = None,
    waves: int = 0,
    transitions: int = 0,
) -> Iterator[Tuple[int, List[int], List[int], int]]:
    """The BFS loop: expand ``wave`` after wave, interning into ``graph``.

    Every successor is interned (new ids in discovery order), new states
    are checked against the ``max_states`` cap and -- when
    ``needs_check(packed key)`` says so -- the model's invariants, and an
    arc is recorded the first time its dedup key (``(src, dst)``, plus
    the condition under ``record_all_conditions``) is seen.  After each
    wave yields ``(waves completed, wave, next wave, transitions)``; the
    caller runs its wave-boundary work there and stops by breaking out.
    """
    while wave:
        next_wave: List[int] = []
        for src_id, row in rows(wave, waves):
            for condition, packed_dst in row:
                transitions += 1
                dst_id, is_new = graph.intern_state(packed_dst)
                if is_new:
                    if max_states is not None and graph.num_states > max_states:
                        raise EnumerationError(
                            f"state count exceeded cap of {max_states} "
                            f"while enumerating {model.name!r}"
                        )
                    if needs_check is not None and needs_check(packed_dst):
                        nxt = unpack(packed_dst)
                        violated = model.check_invariants(nxt)
                        if violated:
                            raise InvariantViolation(dst_id, nxt, tuple(violated))
                    next_wave.append(dst_id)
                arc_key: Tuple
                if record_all_conditions:
                    arc_key = (src_id, dst_id, condition)
                else:
                    arc_key = (src_id, dst_id)
                if arc_key not in seen_arcs:
                    seen_arcs.add(arc_key)
                    graph.add_edge(src_id, dst_id, condition)
        waves += 1
        yield waves, wave, next_wave, transitions
        wave = next_wave


def _always(_key: int) -> bool:
    return True


def enumerate_states(
    model: SyncModel,
    max_states: Optional[int] = None,
    record_all_conditions: bool = False,
    check_invariants: bool = True,
    obs: Optional[Observer] = None,
    checkpoint: Optional[CheckpointConfig] = None,
    resume=None,
    budget: Optional[Budget] = None,
    faults: Optional[FaultPlan] = None,
    kernel: Optional[CompiledKernel] = None,
    *,
    jobs: Optional[int] = 1,
    pool: Optional[WorkerPool] = None,
    retry: Optional[RetryPolicy] = None,
) -> Tuple[StateGraph, EnumerationStats]:
    """Fully enumerate ``model`` from reset; return its state graph and stats.

    Parameters
    ----------
    model:
        The synchronous FSM model to enumerate.
    max_states:
        Safety cap; exceeding it raises :class:`EnumerationError` rather
        than silently truncating the graph (a truncated graph would make
        tour coverage claims meaningless).
    record_all_conditions:
        If true, record one edge per *unique transition condition* instead
        of one edge per (src, dst) pair -- the paper's proposed fix for the
        fewer-behaviours failure mode of Fig. 4.2.
    check_invariants:
        Evaluate the model's invariants on every reachable state.
    obs:
        Observability sink (:class:`repro.obs.Observer`); receives per-wave
        frontier sizes plus end-of-run ``enum.*`` counters, identical
        whatever ``jobs``, and ``enum.shard.*`` counters labeled by worker
        pid (one coordinator shard per in-process wave).  Runs with a
        worker pool add recovery and ``enum.pool.*`` counters.  ``None``
        is the no-op fast path.
    checkpoint / resume:
        :class:`~repro.resilience.CheckpointConfig` snapshots every
        ``every_waves`` wave boundaries; ``resume`` is ``True`` (newest
        checkpoint in ``checkpoint.store``) or a payload dict, and the
        resumed graph is byte-identical to an uninterrupted one.
    budget:
        :class:`~repro.resilience.Budget` checked at wave boundaries; on
        exhaustion the partial graph is returned with
        ``stats.truncated=True`` (plus a final checkpoint when
        checkpointing is on).
    faults:
        Deterministic :class:`~repro.resilience.FaultPlan`: signals and
        stalls at wave boundaries, worker kills and stalls at a
        ``(wave, span)`` of the packed dispatch.
    kernel:
        ``None`` (the model's cached :func:`compile_model` kernel) or a
        kernel object -- the seam through which the kernel tests inject a
        kernel with its own validation schedule, or the fully validated
        reference oracle.  All produce bit-identical graphs.
    jobs / pool / retry:
        Worker processes (``None``: ``pool.jobs`` or every CPU), a shared
        :class:`~repro.enumeration.pool.WorkerPool` (without one, the run
        owns a private pool, which never forks at ``jobs=1``), and the
        :class:`~repro.resilience.RetryPolicy` for worker crashes.
    """
    obs = resolve(obs)
    kern = resolve_kernel(model, kernel)
    kern.start_run()
    kernel_before = kern.counters()
    started = time.perf_counter()
    digest = model_digest(model, record_all_conditions)
    resume_payload = resolve_resume(resume, checkpoint, digest)
    meter = BudgetMeter(budget)
    if jobs is None:
        jobs = pool.jobs if pool is not None else (os.cpu_count() or 1)
    checkpoints_written = 0
    truncated = False
    budget_outcome: Optional[str] = None

    if resume_payload is not None:
        graph = StateGraph.from_json(resume_payload["graph_json"])
        seen_arcs = rebuild_seen_arcs(graph, record_all_conditions)
        transitions = int(resume_payload["transitions_explored"])
        frontier: List[int] = list(resume_payload["frontier"])
        waves = int(resume_payload["waves_completed"])
        resumed = True
        logger.info(
            "resuming %s from checkpoint: %d states, %d edges, "
            "%d frontier states, %d waves completed",
            model.name, graph.num_states, graph.num_edges, len(frontier), waves,
        )
    else:
        graph = reset_graph(model, kern, check_invariants)
        seen_arcs = set()
        transitions = 0
        frontier = [StateGraph.RESET]
        waves = 0
        resumed = False

    spans = SpanExecutor(kern, jobs, obs, ("enumerate", digest, obs.enabled),
                         pool=pool, retry=retry, faults=faults)
    try:
        for waves, done, frontier, transitions in bfs_waves(
            model, graph, frontier, functools.partial(spans.rows, graph),
            kern.unpack, seen_arcs,
            record_all_conditions=record_all_conditions,
            max_states=max_states,
            needs_check=_always if check_invariants else None,
            waves=waves,
            transitions=transitions,
        ):
            obs.observe("enum.wave.frontier_states", len(done))
            obs.event("enum.wave", wave=waves - 1, frontier=len(done),
                      states=graph.num_states, transitions=transitions)
            obs.heartbeat("enumerate", wave=waves - 1, frontier=len(done),
                          states=graph.num_states, transitions=transitions)
            if not frontier:
                break
            # Wave boundary: the coordinator state (graph + the untouched
            # next wave) is consistent here, so this is where budgets bite,
            # checkpoints land (always on truncation, so the run resumes
            # with a larger budget) and scripted signals fire (after the
            # checkpoint, like a real Ctrl-C).
            budget_outcome = meter.exhausted(graph.num_states)
            truncated = budget_outcome is not None
            if checkpoint is not None and (
                truncated or waves % checkpoint.every_waves == 0
            ):
                checkpoint.store.save(build_payload(
                    graph, frontier, transitions, waves, digest, model.name,
                ))
                checkpoints_written += 1
                obs.event("enum.checkpoint", wave=waves, states=graph.num_states)
            if truncated:
                logger.warning(
                    "budget exhausted (%s) after %d waves: returning partial "
                    "graph with %d states (%d unexpanded)",
                    budget_outcome, waves, graph.num_states, len(frontier),
                )
                break
            if faults is not None:
                faults.boundary_hook(waves)
    finally:
        spans.close()

    elapsed = time.perf_counter() - started
    obs.heartbeat("enumerate", wave=waves - 1, frontier=0,
                  states=graph.num_states, transitions=transitions)
    obs.inc("enum.states", graph.num_states)
    obs.inc("enum.transitions_explored", transitions)
    obs.inc("enum.edges", graph.num_edges)
    obs.inc("enum.waves", waves)
    obs.gauge("enum.bits_per_state", model.state_bits())
    obs.observe("enum.seconds", elapsed)
    # Coordinator-side kernel deltas (in-process expansions land here;
    # worker-side ones arrive through the merged span registries).
    flush_kernel_metrics(obs, kern, kernel_before)
    logger.info(
        "enumerated %s (jobs=%d): %d states, %d edges, %d transitions, "
        "%d waves in %.3fs",
        model.name, jobs, graph.num_states, graph.num_edges,
        transitions, waves, elapsed,
    )
    retried, respawns = spans.recovery()
    stats = EnumerationStats(
        model_name=model.name,
        num_states=graph.num_states,
        bits_per_state=model.state_bits(),
        num_edges=graph.num_edges,
        transitions_explored=transitions,
        elapsed_seconds=elapsed,
        approx_memory_bytes=_approx_memory(graph, model.state_bits()),
        truncated=truncated,
        budget_outcome=budget_outcome,
        frontier_remaining=len(frontier) if truncated else 0,
        resumed=resumed,
        checkpoints_written=checkpoints_written,
        shards_retried=retried,
        pool_respawns=respawns,
        degraded=spans.pool.degraded,
    )
    return graph, stats


def enumerate_states_parallel(
    model: SyncModel, jobs: Optional[int] = None, **kwargs
) -> Tuple[StateGraph, EnumerationStats]:
    """:func:`enumerate_states` with ``jobs`` defaulting to every CPU."""
    return enumerate_states(model, jobs=jobs, **kwargs)


def _approx_memory(graph: StateGraph, bits_per_state: int) -> int:
    """Rough memory accounting comparable to the paper's Table 3.2 row.

    States are charged their packed width (rounded to bytes) plus hash-table
    overhead; edges are charged a fixed record size.
    """
    state_bytes = graph.num_states * (max(1, (bits_per_state + 7) // 8) + 16)
    edge_bytes = graph.num_edges * 24
    return state_bytes + edge_bytes
