"""Region re-enumeration: replay the cached graph, expand only the dirty.

:func:`incremental_enumerate` runs the engine's one BFS loop
(:func:`~repro.enumeration.bfs.bfs_waves`) -- same waves, same id
assignment, same arc dedup as a cold
:func:`~repro.enumeration.bfs.enumerate_states` run -- with a different
row source: when a state exists in the cached graph and the diff proved
it *clean* (no added rule's scope covers it), its cached out-edge list is
**replayed** as its row instead of calling the transition kernel.

Why replaying is sound (the graft argument, DESIGN.md §14): the recorded
out-edges of a state are a function of that state's expansion alone --
they are the deduped ``(condition, dst)`` pairs in first-occurrence order.
For a clean state the edited model's expansion is identical to the cached
model's by the definition of the dirty region, so the cached edge list
*is* the expansion result.  Replaying it interns the same dst keys in the
same order, appends the same new states to the next wave, and records the
same arcs -- by induction over BFS steps the whole run is byte-identical
to cold.  Dirty states (and states absent from the cache) go through the
kernel exactly as a cold run would; only their transitions count as
explored.

Invariants are only re-checked on states *absent* from the cached graph:
cached states were validated when first enumerated, and a localized diff
guarantees the invariants themselves are unchanged.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from repro.enumeration.bfs import _approx_memory, bfs_waves, reset_graph
from repro.enumeration.graph import StateGraph
from repro.enumeration.kernel import compile_model, flush_kernel_metrics
from repro.enumeration.stats import EnumerationStats
from repro.obs.observer import Observer, resolve
from repro.smurphi.model import SyncModel


def incremental_enumerate(
    model: SyncModel,
    old_graph: StateGraph,
    dirty_old: List[bool],
    record_all_conditions: bool = False,
    obs: Optional[Observer] = None,
) -> Tuple[StateGraph, EnumerationStats, Dict[str, int]]:
    """Enumerate ``model`` reusing ``old_graph`` for clean states.

    ``dirty_old[i]`` marks old-graph state ``i`` as inside the dirty
    region (must be expanded through the kernel).  Returns the new graph,
    cold-compatible stats, and ``{"replayed", "expanded", "region_states"}``
    counters.  The result is byte-identical to a cold enumeration of
    ``model`` (see module docstring).
    """
    obs = resolve(obs)
    kern = compile_model(model)
    kern.start_run()
    kernel_before = kern.counters()
    started = time.perf_counter()
    graph = reset_graph(model, kern, check_invariants=True)
    old_id_of = old_graph.state_id_of_key
    old_key = old_graph.state_key
    old_edges = old_graph.edges()
    replayed = expanded = replayed_arcs = 0

    def rows(wave: List[int], index: int):
        nonlocal replayed, expanded, replayed_arcs
        for src_id in wave:
            key = graph.state_key(src_id)
            old_id = old_id_of(key)
            if old_id is not None and not dirty_old[old_id]:
                # Replay: the cached out-edge list is this state's expansion.
                replayed += 1
                out = old_graph.out_edge_indices(old_id)
                replayed_arcs += len(out)
                yield src_id, [
                    (old_edges[i].condition, old_key(old_edges[i].dst))
                    for i in out
                ]
            else:
                # Expand: dirty or previously unreachable -- the cold path.
                expanded += 1
                yield src_id, kern.expand(key)

    for waves, _, frontier, transitions in bfs_waves(
        model, graph, [StateGraph.RESET], rows, kern.unpack, set(),
        record_all_conditions=record_all_conditions,
        needs_check=lambda key: old_id_of(key) is None,
    ):
        if frontier:
            obs.heartbeat(
                "incremental", wave=waves, states=graph.num_states,
                replayed=replayed, expanded=expanded,
            )

    elapsed = time.perf_counter() - started
    counts = {
        "replayed": replayed,
        "expanded": expanded,
        "region_states": expanded,
    }
    obs.inc("incremental.region_states", expanded)
    obs.inc("incremental.replayed_states", replayed)
    flush_kernel_metrics(obs, kern, kernel_before)
    obs.heartbeat(
        "incremental", wave=waves - 1, states=graph.num_states,
        replayed=replayed, expanded=expanded,
    )
    stats = EnumerationStats(
        model_name=model.name,
        num_states=graph.num_states,
        bits_per_state=model.state_bits(),
        num_edges=graph.num_edges,
        transitions_explored=transitions - replayed_arcs,
        elapsed_seconds=elapsed,
        approx_memory_bytes=_approx_memory(graph, model.state_bits()),
    )
    return graph, stats, counts
