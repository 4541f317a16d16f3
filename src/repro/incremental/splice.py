"""Tour/trace splicing: reuse cached downstream artifacts outside the
dirty region.

After a localized re-enumeration, most of the graph -- and therefore most
tours and vector traces -- is untouched.  This module decides, edge by
edge and tour by tour, what can be kept:

- a **memo row** ``(src_state, condition) -> transition outcome`` is
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
    UNSET,
    PPInstructionCost,
    TestVectorTrace,
    TransitionEventMemo,
    VectorGenerator,
)


def graphs_equal(a: StateGraph, b: StateGraph) -> bool:
    """Content equality: same choices, same interned keys, same edges.

    Equal edge sequences have equal condition tables (both list the
    distinct conditions in first-seen order), so comparing the columns
    and the tables compares the edges.
    """
    return (
        a.choice_names == b.choice_names
        and a._state_keys == b._state_keys
        and a.edge_src == b.edge_src
        and a.edge_dst == b.edge_dst
        and a.edge_cond == b.edge_cond
        and a.conditions == b.conditions
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


def export_memo(memo: TransitionEventMemo, graph: StateGraph) -> Dict[str, List]:
    """Flatten a memo to its outcome table plus one
    ``(packed_src_key, condition, outcome_id)`` row per computed arc.

    Packed keys (not graph ids) make the export graph-independent: a
    later build interns its own ids and imports whatever keys it knows.
    The rows hold ids into the shared table, so the pickle stores each
    distinct outcome once.
    """
    key = graph.state_key
    src = graph.edge_src
    conditions = graph.conditions
    edge_cond = graph.edge_cond
    return {
        "outcomes": memo.outcomes,
        "rows": [
            (key(src[index]), conditions[edge_cond[index]], outcome_id)
            for index, outcome_id in enumerate(memo.edge_outcome)
            if outcome_id != UNSET
        ],
    }


def import_memo(
    memo: TransitionEventMemo,
    graph: StateGraph,
    exported: Mapping[str, List],
    clean: Optional[Sequence[bool]] = None,
) -> int:
    """Fill ``memo``'s column from :func:`export_memo` rows whose arc
    exists in ``graph`` (and whose source state is clean).

    ``clean=None`` trusts every row (key-chain-equal builds: same model,
    same graph); otherwise only rows leaving a clean state import -- a
    dirty state's cached outcome was computed under the old model and
    must be recomputed.  Each source state's arcs are read once from
    ``graph``'s CSR, and each table outcome a row uses is interned once.
    Returns the number of rows imported.
    """
    outcomes = exported["outcomes"]
    ids: List[Optional[int]] = [None] * len(outcomes)
    cond_ids: Dict[Tuple, int] = {}
    for cond_id, condition in enumerate(graph.conditions):
        cond_ids.setdefault(condition, cond_id)
    indptr, order = graph.out_csr()
    edge_cond = graph.edge_cond
    column = memo.edge_outcome
    imported = 0
    last_key = arcs = None
    for packed_key, condition, outcome in exported["rows"]:
        if packed_key != last_key:
            # Rows come grouped by source state: read its CSR row once.
            last_key = packed_key
            state_id = graph.state_id_of_key(packed_key)
            arcs = None
            if state_id is not None and (clean is None or clean[state_id]):
                arcs = {
                    edge_cond[index]: index
                    for index in order[indptr[state_id]:indptr[state_id + 1]]
                }
        if arcs is None:
            continue
        index = arcs.get(cond_ids.get(condition))
        if index is None:
            continue
        outcome_id = ids[outcome]
        if outcome_id is None:
            outcome_id = ids[outcome] = memo.intern(outcomes[outcome])
        column[index] = outcome_id
        imported += 1
    return imported


def edge_costs(memo: TransitionEventMemo, graph: StateGraph) -> List[int]:
    """Per-edge instruction costs via the memo (warm entries are free)."""
    return PPInstructionCost(memo).edge_costs(graph)


# -- trace splicing ------------------------------------------------------------


def tour_clean_flags(
    graph: StateGraph, tours: Sequence[Tour], state_clean: Sequence[bool]
) -> List[bool]:
    """``flags[i]``: tour ``i`` never leaves a dirty state."""
    src = graph.edge_src
    return [
        all(state_clean[src[ei]] for ei in tour.edge_indices) for tour in tours
    ]


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
