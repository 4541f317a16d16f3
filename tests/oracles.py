"""Reference implementations kept as test oracles.

Production has one path per layer: the compiled transition kernel, the
indexed tour generator and the closure state codec.  The literal,
obviously-correct versions they are checked against live here, so the
golden and property tests can compare the fast path with them:

- :class:`InterpretedKernel`: expansion through the fully validated
  :meth:`SyncModel.step` on every transition, injected into
  ``enumerate_states(kernel=...)``;
- :class:`TourGenerator`: Fig. 3.3 transcribed literally, with a fresh
  breadth-first explore at every stuck point;
- :class:`ReferenceStateCodec`: the field-by-field state codec, one
  ``FiniteType`` method call per variable.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.enumeration.graph import StateGraph
from repro.obs.observer import Observer, resolve
from repro.smurphi.model import StateVar, SyncModel
from repro.tour.fig33 import InstructionCost, Tour, TourSet, _unit_cost


class ReferenceStateCodec:
    """Field-by-field state codec with the layout of
    :class:`~repro.smurphi.state.StateCodec`: variable ``i`` occupies
    ``bit_width`` bits at the cumulative offset of the variables before
    it, in declaration order."""

    def __init__(self, state_vars: Sequence[StateVar]):
        self.state_vars = list(state_vars)
        self._offsets: List[int] = []
        self._widths: List[int] = []
        offset = 0
        for var in self.state_vars:
            width = var.type.bit_width()
            self._offsets.append(offset)
            self._widths.append(width)
            offset += width
        self.total_bits = offset

    def pack(self, state: Mapping) -> int:
        key = 0
        for var, offset, width in zip(self.state_vars, self._offsets, self._widths):
            value = state[var.name]
            try:
                index = var.type.index_of(value)
            except KeyError:
                raise ValueError(
                    f"value {value!r} of state var {var.name!r} "
                    f"is outside its domain {var.type!r}"
                ) from None
            if index >> width:
                raise ValueError(
                    f"index {index} of state var {var.name!r} does not fit "
                    f"in its {width}-bit field"
                )
            key |= index << offset
        return key

    def unpack(self, key: int) -> Dict[str, object]:
        state: Dict[str, object] = {}
        for var, offset, width in zip(self.state_vars, self._offsets, self._widths):
            index = (key >> offset) & ((1 << width) - 1) if width else 0
            state[var.name] = var.type.value_at(index)
        return state


class InterpretedKernel:
    """The reference expansion path: unpack the state dict, re-enumerate
    choices through :meth:`SyncModel.enumerate_choices`, step through
    :meth:`SyncModel.step` (full per-transition domain and completeness
    validation), pack through :class:`ReferenceStateCodec`.  It produces
    no guard mask, so the engine always runs it in-process, and as a
    kernel of another ``kind`` it reports no ``enum.kernel.*`` metrics."""

    kind = "interpreted"

    def __init__(self, model: SyncModel):
        self.model = model
        self.codec = ReferenceStateCodec(model.state_vars)

    def reset_key(self) -> int:
        return self.codec.pack(self.model.reset_state())

    def unpack(self, key: int) -> Dict[str, object]:
        return self.codec.unpack(key)

    def start_run(self) -> None:
        pass  # every transition is validated; there is no schedule

    def expand(self, key: int) -> Tuple[Tuple[Tuple, int], ...]:
        model, codec = self.model, self.codec
        state = codec.unpack(key)
        names = model.choice_names
        return tuple(
            (tuple(choice[n] for n in names), codec.pack(model.step(state, choice)))
            for choice in model.enumerate_choices(state)
        )

    def counters(self) -> Dict[str, int]:
        return {}


class TourGenerator:
    """Implements ``GenerateTours`` of Fig. 3.3.

    Parameters
    ----------
    graph:
        The enumerated state graph (every state reachable from reset).
    instruction_cost:
        Instructions contributed by an arc traversal; defaults to one per
        arc.  The PP mapping charges one instruction per issued class.
    max_instructions_per_trace:
        The per-output-file limit of Fig. 3.3 (the paper evaluates both no
        limit and a 10,000-instruction limit in Table 3.3).  ``None``
        disables the limit.
    """

    def __init__(
        self,
        graph: StateGraph,
        instruction_cost: InstructionCost = _unit_cost,
        max_instructions_per_trace: Optional[int] = None,
    ):
        if max_instructions_per_trace is not None and max_instructions_per_trace <= 0:
            raise ValueError("max_instructions_per_trace must be positive")
        self.graph = graph
        self.instruction_cost = instruction_cost
        self.max_instructions = max_instructions_per_trace

    # -- public API ------------------------------------------------------------

    def generate(self, obs: Optional[Observer] = None) -> TourSet:
        """Run the full Fig. 3.3 loop until every arc has been traversed.

        ``obs`` receives one ``tour.trace`` event per closed tour with
        cumulative arcs-covered / instructions (the raw Fig 4.1 coverage
        curve), plus end-of-run counters: ``tour.traces``,
        ``tour.arc_traversals``, ``tour.instructions``,
        ``tour.limit_restarts`` (tours closed by the per-trace limit) and
        ``tour.explore_splices`` (BFS paths spliced in when the greedy
        DFS got stuck).
        """
        obs = resolve(obs)
        started = time.perf_counter()
        graph = self.graph
        # One shared (edge_index, dst) adjacency view for every DFS walk
        # and explore restart of this run (the graph is frozen by now).
        adjacency = graph.out_adjacency()
        traversed = [False] * graph.num_edges
        # Per-state cursor into the out-edge list: edges before the cursor
        # are all traversed, so the DFS scan restarts where it left off.
        cursors = [0] * graph.num_states
        untraversed_out = [len(out) for out in adjacency]
        # Maintained decrementally by _take (an O(V) sum per outer
        # iteration is measurable on large graphs with many tours).
        self._remaining = graph.num_edges

        tours: List[Tour] = []
        limit_restarts = 0
        explore_splices = 0
        cumulative_instructions = 0
        while self._remaining:
            tour = Tour()
            state = StateGraph.RESET
            limit_hit = False
            while True:
                state = self._traverse_dfs(
                    state, tour, traversed, cursors, untraversed_out, adjacency
                )
                if self.max_instructions is not None and tour.instructions >= self.max_instructions:
                    limit_hit = True
                    break
                path = self._explore_bfs(state, untraversed_out, adjacency)
                if path is None:
                    break  # nothing else reachable: close this tour
                if path:
                    explore_splices += 1
                for index in path:
                    self._take(index, tour, traversed, untraversed_out)
                state = graph.edge(path[-1]).dst if path else state
            remaining = self._remaining
            if tour.edge_indices:
                tours.append(tour)
                limit_restarts += limit_hit
                cumulative_instructions += tour.instructions
                obs.observe("tour.trace_instructions", tour.instructions)
                obs.observe("tour.trace_edges", len(tour))
                obs.event(
                    "tour.trace",
                    index=len(tours) - 1,
                    edges=len(tour),
                    instructions=tour.instructions,
                    cumulative_instructions=cumulative_instructions,
                    covered_arcs=graph.num_edges - remaining,
                    graph_arcs=graph.num_edges,
                    limit_hit=limit_hit,
                )
            elif not limit_hit and remaining:
                # Defensive: reset has no untraversed reachable arc yet arcs
                # remain -- impossible for graphs enumerated from reset.
                raise RuntimeError(
                    "unreachable untraversed arcs remain; graph is not "
                    "reset-reachable"
                )
        elapsed = time.perf_counter() - started
        obs.inc("tour.traces", len(tours))
        obs.inc("tour.arc_traversals", sum(len(t) for t in tours))
        obs.inc("tour.instructions", cumulative_instructions)
        obs.inc("tour.limit_restarts", limit_restarts)
        obs.inc("tour.explore_splices", explore_splices)
        obs.observe("tour.seconds", elapsed)
        return TourSet(self.graph, tours, elapsed)

    # -- phases of Fig. 3.3 -------------------------------------------------------

    def _traverse_dfs(
        self,
        state: int,
        tour: Tour,
        traversed: List[bool],
        cursors: List[int],
        untraversed_out: List[int],
        adjacency: Sequence[Sequence[tuple]],
    ) -> int:
        """Greedy depth-first phase: follow untraversed arcs until stuck.

        States can be visited multiple times as long as an untraversed arc
        leaves them; a vector is generated for every arc taken.
        """
        while untraversed_out[state]:
            out = adjacency[state]
            cursor = cursors[state]
            while cursor < len(out) and traversed[out[cursor][0]]:
                cursor += 1
            cursors[state] = cursor
            if cursor >= len(out):
                break  # stale counter; nothing actually untraversed here
            index, dst = out[cursor]
            self._take(index, tour, traversed, untraversed_out)
            state = dst
            # Limit check comes *after* taking an arc: every DFS round makes
            # at least one arc of progress, so a long explore path can never
            # starve the trace into repeating itself forever.
            if self.max_instructions is not None and tour.instructions >= self.max_instructions:
                break
        return state

    def _explore_bfs(
        self,
        state: int,
        untraversed_out: List[int],
        adjacency: Sequence[Sequence[tuple]],
    ) -> Optional[List[int]]:
        """Explore phase: shortest path (over *all* arcs) from ``state`` to
        any state with an untraversed out-arc, or ``None`` if unreachable.

        The path's arcs are appended to the tour even though they are
        already traversed -- re-traversal is cheap, backtracking is not.
        """
        if untraversed_out[state]:
            return []
        parent_edge: dict = {state: None}
        queue = deque([state])
        while queue:
            current = queue.popleft()
            for index, dst in adjacency[current]:
                if dst in parent_edge:
                    continue
                parent_edge[dst] = index
                if untraversed_out[dst]:
                    return self._reconstruct(parent_edge, dst)
                queue.append(dst)
        return None

    def _reconstruct(self, parent_edge: dict, target: int) -> List[int]:
        path: List[int] = []
        node = target
        while parent_edge[node] is not None:
            index = parent_edge[node]
            path.append(index)
            node = self.graph.edge(index).src
        path.reverse()
        return path

    def _take(
        self,
        index: int,
        tour: Tour,
        traversed: List[bool],
        untraversed_out: List[int],
    ) -> None:
        edge = self.graph.edge(index)
        tour.edge_indices.append(index)
        tour.instructions += self.instruction_cost(edge)
        if not traversed[index]:
            traversed[index] = True
            untraversed_out[edge.src] -= 1
            self._remaining -= 1
