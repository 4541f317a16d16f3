"""Tours of the paper's tour-generation algorithm (Fig. 3.3).

Fig. 3.3 produces a *set* of tour components, all starting from the
reset state, whose union covers every arc of the state graph.  Within a
tour it proceeds greedily depth-first over untraversed arcs; when stuck it
*explores* the whole graph (traversed arcs included) for the shortest
path to the nearest state that still has an untraversed out-arc, and
splices that path in.  Traversing an arc multiple times is cheap in
simulation whereas backtracking/checkpointing is not, so re-traversal is
always preferred.  When no untraversed arc is reachable from the current
point -- or the per-file instruction limit is hit -- the tour is closed and
a new one starts from reset.

This module holds what a generation run produces -- :class:`Tour`,
:class:`TourSet` and its Table 3.3 :class:`TourStats` -- and the
instruction-cost type.  The generator is
:class:`~repro.tour.indexed.IndexedTourGenerator`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List

from repro.enumeration.graph import Edge, StateGraph

#: Cost function: instructions contributed by traversing one arc.  A cost
#: object may also define ``edge_costs(graph)``, every arc's cost by edge
#: index read off the graph's columns (see :func:`arc_costs`).
InstructionCost = Callable[[Edge], int]


def _unit_cost(edge: Edge) -> int:
    return 1


def arc_costs(graph: StateGraph, instruction_cost: InstructionCost) -> List[int]:
    """Every arc's cost, by edge index: through the cost's own
    ``edge_costs(graph)`` when it has one, else one :class:`Edge` per arc."""
    columnar = getattr(instruction_cost, "edge_costs", None)
    if columnar is not None:
        return columnar(graph)
    return [instruction_cost(edge) for edge in graph.edges()]


@dataclass
class Tour:
    """One tour component: a walk from reset given as edge indices."""

    edge_indices: List[int] = field(default_factory=list)
    instructions: int = 0

    def __len__(self) -> int:
        return len(self.edge_indices)


@dataclass(frozen=True)
class TourStats:
    """The quantities Table 3.3 reports for a generation run."""

    num_traces: int
    total_edge_traversals: int
    total_instructions: int
    generation_seconds: float
    longest_trace_edges: int
    covered_edges: int
    graph_edges: int

    @property
    def instructions_per_arc(self) -> float:
        """Average instructions needed to test each arc (paper: ~7)."""
        if not self.graph_edges:
            return 0.0
        return self.total_instructions / self.graph_edges

    def estimated_simulation_hours(self, cycles_per_second: float = 100.0) -> float:
        """Paper's 'estimated simulation time @ 100Hz' row (1 arc = 1 cycle)."""
        return self.total_edge_traversals / cycles_per_second / 3600.0

    def estimated_longest_trace_hours(self, cycles_per_second: float = 100.0) -> float:
        return self.longest_trace_edges / cycles_per_second / 3600.0


class TourSet:
    """The result of a generation run: tours plus Table 3.3 statistics."""

    def __init__(self, graph: StateGraph, tours: List[Tour], generation_seconds: float):
        self.graph = graph
        self.tours = tours
        covered = set()
        for tour in tours:
            covered.update(tour.edge_indices)
        self.stats = TourStats(
            num_traces=len(tours),
            total_edge_traversals=sum(len(t) for t in tours),
            total_instructions=sum(t.instructions for t in tours),
            generation_seconds=generation_seconds,
            longest_trace_edges=max((len(t) for t in tours), default=0),
            covered_edges=len(covered),
            graph_edges=graph.num_edges,
        )

    @property
    def complete(self) -> bool:
        """True when the union of tours covers every arc in the graph."""
        return self.stats.covered_edges == self.graph.num_edges

    def to_json(self) -> str:
        """Canonical serialization of the tour *content*.

        Deliberately excludes ``generation_seconds`` (and the graph, which
        has its own ``to_json``): two runs that produced the same tours
        must serialize identically, which is how the incremental layer's
        byte-for-byte equivalence with cold builds is asserted.
        """
        import json

        return json.dumps(
            {
                "tours": [
                    {"edge_indices": list(t.edge_indices), "instructions": t.instructions}
                    for t in self.tours
                ],
            }
        )

    def __iter__(self):
        return iter(self.tours)

    def __len__(self) -> int:
        return len(self.tours)
