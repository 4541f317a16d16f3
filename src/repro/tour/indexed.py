"""Indexed tour generation: Fig. 3.3 on a CSR graph with a distance index.

:class:`IndexedTourGenerator` is the one tour generator.  Its output is
**bit-identical** to a literal transcription of Fig. 3.3 -- a greedy DFS
over per-state out-edge rows plus a fresh breadth-first explore at every
stuck point, which the test suite keeps as its reference oracle (same
tours, same edge order, same splits -- golden- and property-tested).  It
replaces that transcription's scaling bottlenecks:

1. **Flat CSR adjacency.**  The graph is frozen into flat integer arrays
   (``indptr``/``out_edge``/``out_dst`` plus a reverse CSR for the index)
   so the greedy DFS and the explore walk plain ``list[int]`` lookups
   instead of per-state tuple rows.

2. **An exact nearest-untraversed-arc index.**  The literal algorithm
   re-runs a full O(V+E) breadth-first *explore* from scratch at every
   stuck point (~90% of generation time at paper scale).  Here one
   reverse multi-source BFS per :meth:`~IndexedTourGenerator.generate`
   computes, for every state, the distance to the nearest *target* -- a
   state that still has an untraversed out-arc.  Targets only ever
   retire, and each retirement is repaired by *decremental upkeep*
   (Ramalingam--Reps for unit weights): only the states whose every
   shortest route ran through the retired target are re-settled, so the
   field equals a fresh reverse BFS at every step.  The explore is then
   no search at all but a descent along the field.

3. **One cost per arc.**  The instruction cost of every arc is computed
   once into a flat list at the start of a run; a traversal reads it by
   edge index instead of calling the cost function again.

The explore returns exactly the reference BFS's path because the field
is exact (a lower bound would not do):

- ``dist[s] == INF`` means no untraversed arc is reachable from ``s``, so
  the explore returns "unreachable" without touching the graph (this is
  every tour close and the end-of-run check).
- Otherwise the descent takes, from each state, the first out-arc in CSR
  order whose head is one step closer to a target, until it reaches a
  target.  Every state the reference BFS dequeues at depth ``k`` on a
  shortest route has ``dist == dist[s] - k``; the first such state's first
  downhill head is the first such state discovered at depth ``k + 1``,
  over that same arc.  By induction the target the BFS discovers first,
  and its parent chain, are the descent's path (see DESIGN.md).
- A descent that finds no downhill arc, or ends on a state without an
  untraversed out-arc, would mean the field is wrong; it is counted
  (``tour.explore_fallbacks``) and answered by the unpruned reference
  BFS on the CSR arrays.
"""

from __future__ import annotations

import logging
import time
from collections import deque
from typing import Dict, List, Optional

from repro.enumeration.graph import StateGraph
from repro.obs.observer import Observer, resolve
from repro.tour.fig33 import InstructionCost, Tour, TourSet, _unit_cost

logger = logging.getLogger("repro.tour")


class IndexedTourGenerator:
    """``GenerateTours`` of Fig. 3.3.

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
        self._build_csr()

    # -- CSR construction -------------------------------------------------------

    def _build_csr(self) -> None:
        """Freeze the graph into flat integer arrays (forward + reverse)."""
        graph = self.graph
        num_states = graph.num_states
        edges = graph.edges()
        self._edge_src = [e.src for e in edges]
        self._edge_dst = [e.dst for e in edges]

        indptr = [0] * (num_states + 1)
        out_edge: List[int] = []
        out_dst: List[int] = []
        for state in range(num_states):
            for index in graph.out_edge_indices(state):
                out_edge.append(index)
                out_dst.append(self._edge_dst[index])
            indptr[state + 1] = len(out_edge)
        self._indptr = indptr
        self._out_edge = out_edge
        self._out_dst = out_dst

        # Reverse CSR (in-edges by destination) for the distance index;
        # only source ids are needed -- the index never reconstructs paths.
        rcounts = [0] * num_states
        for dst in self._edge_dst:
            rcounts[dst] += 1
        rindptr = [0] * (num_states + 1)
        for state in range(num_states):
            rindptr[state + 1] = rindptr[state] + rcounts[state]
        rin_src = [0] * len(edges)
        cursor = list(rindptr[:num_states])
        for index, dst in enumerate(self._edge_dst):
            rin_src[cursor[dst]] = self._edge_src[index]
            cursor[dst] += 1
        self._rindptr = rindptr
        self._rin_src = rin_src

    # -- public API ------------------------------------------------------------

    def generate(self, obs: Optional[Observer] = None) -> TourSet:
        """Run the Fig. 3.3 loop until every arc has been traversed.

        ``obs`` receives one ``tour.trace`` event per closed tour with
        cumulative arcs-covered / instructions (the raw Fig 4.1 coverage
        curve), plus end-of-run counters: ``tour.traces``,
        ``tour.arc_traversals``, ``tour.instructions``,
        ``tour.limit_restarts`` (tours closed by the per-trace limit),
        ``tour.explore_splices`` (explore paths spliced in when the
        greedy DFS got stuck), ``tour.explore_pruned`` (out-arcs the descent scanned and
        rejected before each downhill arc it took, counted from that
        arc's offset in its row), ``tour.explore_short_circuits``
        (explores answered straight from the distance field),
        ``tour.explore_fallbacks`` (descents that missed; 0 unless the
        field is wrong), ``tour.index_rebuilds`` (full builds of the
        field: 1 per run) and ``tour.index_resettled`` (states whose
        distance the upkeep re-settled)."""
        obs = resolve(obs)
        started = time.perf_counter()
        graph = self.graph
        num_states = graph.num_states
        num_edges = graph.num_edges

        self._cost = [self.instruction_cost(e) for e in graph.edges()]
        self._traversed = bytearray(num_edges)
        self._cursors = list(self._indptr[:num_states])
        self._untraversed_out = [
            self._indptr[s + 1] - self._indptr[s] for s in range(num_states)
        ]
        self._remaining = num_edges
        # Upkeep scratch: ``_upkeep_mark[s]`` is the epoch if ``s`` is in
        # the current affected set, minus the epoch if it was examined and
        # kept its distance.
        self._upkeep_mark = [0] * num_states
        self._upkeep_epoch = 0
        # Run counters (flushed once at the end, observability style).
        self._explore_pruned = 0
        self._short_circuits = 0
        self._fallbacks = 0
        self._rebuilds = 0
        self._resettled = 0
        # Distance index.  INF exceeds any possible BFS depth.
        self._inf = num_states + 1
        self._build_index()

        tours: List[Tour] = []
        limit_restarts = 0
        explore_splices = 0
        cumulative_instructions = 0
        while self._remaining:
            tour = Tour()
            state = StateGraph.RESET
            limit_hit = False
            while True:
                state = self._traverse_dfs(state, tour)
                if self.max_instructions is not None and tour.instructions >= self.max_instructions:
                    limit_hit = True
                    break
                path = self._explore(state)
                if path is None:
                    break  # nothing else reachable: close this tour
                if path:
                    explore_splices += 1
                for index in path:
                    self._take(index, tour)
                state = self._edge_dst[path[-1]] if path else state
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
                    covered_arcs=num_edges - self._remaining,
                    graph_arcs=num_edges,
                    limit_hit=limit_hit,
                )
                obs.heartbeat(
                    "tours",
                    traces=len(tours),
                    instructions=cumulative_instructions,
                    covered_arcs=num_edges - self._remaining,
                    graph_arcs=num_edges,
                )
            elif not limit_hit and self._remaining:
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
        obs.inc("tour.explore_pruned", self._explore_pruned)
        obs.inc("tour.explore_short_circuits", self._short_circuits)
        obs.inc("tour.explore_fallbacks", self._fallbacks)
        obs.inc("tour.index_rebuilds", self._rebuilds)
        obs.inc("tour.index_resettled", self._resettled)
        obs.observe("tour.seconds", elapsed)
        logger.info(
            "generated %d tours covering %d arcs (%d instructions, "
            "%d limit restarts, %d explore splices; %d rejected arcs, "
            "%d short circuits, %d explore fallbacks, %d index rebuilds, "
            "%d states re-settled) in %.3fs",
            len(tours), num_edges, cumulative_instructions,
            limit_restarts, explore_splices, self._explore_pruned,
            self._short_circuits, self._fallbacks, self._rebuilds,
            self._resettled, elapsed,
        )
        return TourSet(self.graph, tours, elapsed)

    # -- phases of Fig. 3.3 ------------------------------------------------------

    def _traverse_dfs(self, state: int, tour: Tour) -> int:
        """Greedy depth-first phase over the CSR rows (reference order)."""
        indptr = self._indptr
        out_edge = self._out_edge
        out_dst = self._out_dst
        traversed = self._traversed
        cursors = self._cursors
        untraversed_out = self._untraversed_out
        while untraversed_out[state]:
            end = indptr[state + 1]
            cursor = cursors[state]
            while cursor < end and traversed[out_edge[cursor]]:
                cursor += 1
            cursors[state] = cursor
            if cursor >= end:
                break  # stale counter; nothing actually untraversed here
            index = out_edge[cursor]
            self._take(index, tour)
            state = out_dst[cursor]
            if self.max_instructions is not None and tour.instructions >= self.max_instructions:
                break
        return state

    def _take(self, index: int, tour: Tour) -> None:
        tour.edge_indices.append(index)
        tour.instructions += self._cost[index]
        if not self._traversed[index]:
            self._traversed[index] = 1
            src = self._edge_src[index]
            self._untraversed_out[src] -= 1
            self._remaining -= 1
            if not self._untraversed_out[src]:
                self._retire_target(src)

    # -- the distance index -----------------------------------------------------

    def _build_index(self) -> None:
        """Reverse multi-source BFS: distance to the nearest state that
        still has an untraversed out-arc, for every state at once.

        Level-synchronous over the reverse CSR; the resulting distances
        are source-order independent, so nothing here affects tours.
        """
        self._rebuilds += 1
        inf = self._inf
        num_states = self.graph.num_states
        untraversed_out = self._untraversed_out
        self._dist = dist = [inf] * num_states
        frontier = [s for s in range(num_states) if untraversed_out[s]]
        for state in frontier:
            dist[state] = 0
        rindptr = self._rindptr
        rin_src = self._rin_src
        next_depth = 0
        while frontier:
            next_depth += 1
            level: List[int] = []
            push = level.append
            for node in frontier:
                for src in rin_src[rindptr[node]:rindptr[node + 1]]:
                    if dist[src] > next_depth:
                        dist[src] = next_depth
                        push(src)
            frontier = level

    def _retire_target(self, target: int) -> None:
        """Repair the field after ``target`` lost its last untraversed arc.

        Decremental BFS for unit weights (Ramalingam--Reps): a state's
        distance can only grow, and only if *every* out-neighbour one step
        closer to a target is itself affected.  Collect that affected set
        level by level from ``target`` (old distances are exact, so the
        levels are the old distances), seed each affected state from its
        unaffected out-neighbours, then settle the set in distance order
        with a bucket queue over the reverse CSR.  INF entries and the
        remaining targets are never touched.
        """
        dist = self._dist
        indptr = self._indptr
        out_dst = self._out_dst
        rindptr = self._rindptr
        rin_src = self._rin_src
        mark = self._upkeep_mark
        self._upkeep_epoch += 1
        epoch = self._upkeep_epoch
        kept = -epoch

        # 1. The affected set: states whose every shortest route to a
        # target ran through ``target``.
        mark[target] = epoch
        affected = [target]
        level = [target]
        depth = 0  # == dist of every state in ``level``
        while level:
            parent_depth = depth + 1
            next_level: List[int] = []
            for node in level:
                for src in rin_src[rindptr[node]:rindptr[node + 1]]:
                    if dist[src] != parent_depth:
                        continue
                    seen = mark[src]
                    if seen == epoch or seen == kept:
                        continue
                    for dst in out_dst[indptr[src]:indptr[src + 1]]:
                        if dist[dst] == depth and mark[dst] != epoch:
                            mark[src] = kept  # has a route avoiding the set
                            break
                    else:
                        mark[src] = epoch
                        next_level.append(src)
            affected.extend(next_level)
            level = next_level
            depth = parent_depth

        # 2. Seed each affected state from its unaffected out-neighbours,
        # whose distances are final.
        inf = self._inf
        buckets: Dict[int, List[int]] = {}
        for node in affected:
            best = inf
            for dst in out_dst[indptr[node]:indptr[node + 1]]:
                if mark[dst] != epoch and dist[dst] < best:
                    best = dist[dst]
            if best < inf:
                best += 1
                buckets.setdefault(best, []).append(node)
            dist[node] = best

        # 3. Settle in distance order; relaxations stay inside the set.
        while buckets:
            settled = min(buckets)
            via = settled + 1
            for node in buckets.pop(settled):
                if dist[node] != settled:
                    continue  # re-queued at a smaller distance already
                for src in rin_src[rindptr[node]:rindptr[node + 1]]:
                    if mark[src] == epoch and dist[src] > via:
                        dist[src] = via
                        buckets.setdefault(via, []).append(src)
        self._resettled += len(affected)

    def _explore(self, state: int) -> Optional[List[int]]:
        """Explore phase: identical result to a fresh breadth-first explore.

        With the field exact, the descent is the BFS's path.  A descent
        that misses would mean the field is wrong; the miss is counted and
        answered by the unpruned sweep.
        """
        if self._untraversed_out[state]:
            return []
        if self._dist[state] >= self._inf:
            self._short_circuits += 1
            return None
        path = self._descend(state)
        if path is None:
            self._fallbacks += 1
            path = self._sweep(state)
        return path

    def _descend(self, state: int) -> Optional[List[int]]:
        """Walk down the field: from each state take the first out-arc in
        CSR order whose head is one step closer to a target, until a
        target.  ``None`` if some state has no downhill arc or the walk
        ends on a state without an untraversed out-arc."""
        dist = self._dist
        indptr = self._indptr
        out_dst = self._out_dst
        out_edge = self._out_edge
        path: List[int] = []
        rejected = 0
        node = state
        height = dist[state]
        while height:
            height -= 1
            start = indptr[node]
            end = indptr[node + 1]
            pos = start
            while pos < end and dist[out_dst[pos]] != height:
                pos += 1
            rejected += pos - start
            if pos == end:
                self._explore_pruned += rejected
                return None
            path.append(out_edge[pos])
            node = out_dst[pos]
        self._explore_pruned += rejected
        return path if self._untraversed_out[node] else None

    def _sweep(self, state: int) -> Optional[List[int]]:
        """The reference BFS on the CSR arrays, unpruned: the first state
        discovered with an untraversed out-arc, and its parent chain."""
        indptr = self._indptr
        out_dst = self._out_dst
        out_edge = self._out_edge
        untraversed_out = self._untraversed_out
        parent = {state: -1}
        queue = deque([state])
        while queue:
            current = queue.popleft()
            for pos in range(indptr[current], indptr[current + 1]):
                dst = out_dst[pos]
                if dst in parent:
                    continue
                parent[dst] = out_edge[pos]
                if untraversed_out[dst]:
                    path: List[int] = []
                    while dst != state:
                        path.append(parent[dst])
                        dst = self._edge_src[parent[dst]]
                    path.reverse()
                    return path
                queue.append(dst)
        return None
