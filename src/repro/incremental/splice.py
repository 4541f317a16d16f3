"""Tour/trace splicing: reuse cached downstream artifacts outside the
dirty region.

After a localized re-enumeration, most of the graph -- and therefore most
tours and vector traces -- is untouched.  This module decides, edge by
edge and tour by tour, what can be kept:

- a **memo entry** ``(src_state, condition) -> transition outcome`` is
  valid for the new model iff the source state is clean (no added rule's
  scope covers it);
- a cached **tour set** is reusable wholesale iff the new graph is
  content-equal to the cached one *and* every edge's instruction cost is
  unchanged (tour generation is a deterministic function of graph + costs
  + the split limit);
- a cached **trace** is reusable iff its tour is unchanged and every edge
  it traverses leaves a clean state (each trace owns an independent
  ``random.Random(f"{seed}:{index}")``, so per-index reuse never perturbs
  a regenerated neighbour's randomness).

Everything here is pure bookkeeping over primitives, so the memo sidecar
(``export_memo``) pickles small and transplants across graphs via packed
state keys.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.enumeration.graph import StateGraph
from repro.smurphi.model import SyncModel
from repro.smurphi.state import StateCodec
from repro.tour.fig33 import Tour
from repro.vectors.generator import (
    TestVectorTrace,
    TransitionEventMemo,
    VectorGenerator,
)


def graphs_equal(a: StateGraph, b: StateGraph) -> bool:
    """Content equality: same choices, same interned keys, same edges."""
    return (
        a.choice_names == b.choice_names
        and a._state_keys == b._state_keys
        and a._edges == b._edges
    )


def dirty_flags(
    model: SyncModel,
    graph: StateGraph,
    scopes: Sequence[Callable[[Mapping], bool]],
) -> List[bool]:
    """``flags[i]``: some added rule's scope covers graph state ``i``."""
    codec = StateCodec(model.state_vars)
    flags = []
    for state_id in range(graph.num_states):
        state = codec.unpack(graph.state_key(state_id))
        flags.append(any(scope(state) for scope in scopes))
    return flags


def clean_flags_for(
    new_graph: StateGraph, old_graph: StateGraph, dirty_old: Sequence[bool]
) -> List[bool]:
    """Per-new-graph-state cleanliness, mapped through packed keys.

    A new state is clean iff it existed in the cached graph and was
    outside the dirty region; genuinely new states are never clean.
    """
    flags = []
    for state_id in range(new_graph.num_states):
        old_id = old_graph.state_id_of_key(new_graph.state_key(state_id))
        flags.append(old_id is not None and not dirty_old[old_id])
    return flags


# -- memo sidecar --------------------------------------------------------------


def export_memo(
    memo: TransitionEventMemo, graph: StateGraph
) -> List[Tuple[int, Tuple, Tuple]]:
    """Flatten a memo to ``(packed_src_key, condition, entry)`` rows.

    Packed keys (not graph ids) make the export graph-independent: a
    later build interns its own ids and imports whatever keys it knows.
    """
    return [
        (graph.state_key(src), condition, entry)
        for (src, condition), entry in memo._entries.items()
    ]


def import_memo(
    memo: TransitionEventMemo,
    graph: StateGraph,
    rows: Sequence[Tuple[int, Tuple, Tuple]],
    clean: Optional[Sequence[bool]] = None,
) -> int:
    """Transplant exported rows whose source state exists (and is clean).

    ``clean=None`` trusts every row (key-chain-equal builds: same model,
    same graph); otherwise only rows landing on a clean state import --
    a dirty state's cached outcome was computed under the old model and
    must be recomputed.  Returns the number of rows imported.
    """
    imported = 0
    for packed_key, condition, entry in rows:
        state_id = graph.state_id_of_key(packed_key)
        if state_id is None:
            continue
        if clean is not None and not clean[state_id]:
            continue
        memo._entries[(state_id, tuple(condition))] = tuple(entry)
        imported += 1
    return imported


def edge_costs(memo: TransitionEventMemo, graph: StateGraph) -> List[int]:
    """Per-edge instruction costs via the memo (warm entries are free)."""
    return [memo.lookup_edge(i)[3] for i in range(graph.num_edges)]


# -- trace splicing ------------------------------------------------------------


def tour_clean_flags(
    graph: StateGraph, tours: Sequence[Tour], state_clean: Sequence[bool]
) -> List[bool]:
    """``flags[i]``: tour ``i`` never leaves a dirty state."""
    flags = []
    for tour in tours:
        flags.append(
            all(state_clean[graph.edge(ei).src] for ei in tour.edge_indices)
        )
    return flags


def splice_traces(
    generator: VectorGenerator,
    tours: Sequence[Tour],
    old_traces: Sequence[TestVectorTrace],
    tour_clean: Sequence[bool],
) -> Tuple[List[TestVectorTrace], int, int]:
    """Keep clean tours' cached traces; regenerate the rest.

    Requires ``tours`` to be the *same sequence* the cached traces were
    generated from (the caller only gets here after adopting the cached
    tour set wholesale).  Returns ``(traces, reused, regenerated)``.
    """
    traces: List[TestVectorTrace] = []
    reused = 0
    regenerated = 0
    for index, tour in enumerate(tours):
        if tour_clean[index]:
            traces.append(old_traces[index])
            reused += 1
        else:
            rng = random.Random(f"{generator.seed}:{index}")
            traces.append(generator._trace_from_tour(tour, rng))
            regenerated += 1
    return traces, reused, regenerated
