"""Arc-coverage accounting for tour sets and arbitrary walks.

The whole point of the methodology is the coverage guarantee: the union of
all tour components traverses every control transition arc at least once.
This module verifies that claim for any collection of walks and reports
per-arc traversal counts (useful for spotting hot arcs that dominate
simulation time).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

from repro.enumeration.graph import StateGraph
from repro.tour.fig33 import Tour


@dataclass(frozen=True)
class CoverageReport:
    """Coverage of a set of walks over a state graph."""

    graph_edges: int
    covered_edges: int
    total_traversals: int
    max_traversals_of_one_arc: int
    uncovered_edge_indices: tuple

    @property
    def complete(self) -> bool:
        return self.covered_edges == self.graph_edges

    @property
    def coverage_fraction(self) -> float:
        if not self.graph_edges:
            return 1.0
        return self.covered_edges / self.graph_edges

    @property
    def redundancy(self) -> float:
        """Traversals per covered arc; 1.0 would be an exact Euler tour."""
        if not self.covered_edges:
            return 0.0
        return self.total_traversals / self.covered_edges


def arc_coverage(graph: StateGraph, walks: Iterable[Sequence[int]]) -> CoverageReport:
    """Compute coverage of ``walks`` (sequences of edge indices) over ``graph``.

    Also validates that each walk is a genuine path: consecutive arcs must
    chain dst -> src, catching malformed tours before they reach the
    simulator.
    """
    counts = [0] * graph.num_edges
    total = 0
    edge_src, edge_dst = graph.edge_src, graph.edge_dst
    for walk in walks:
        previous_dst = None
        for index in walk:
            src = edge_src[index]
            if previous_dst is not None and src != previous_dst:
                raise ValueError(
                    f"walk is not a path: arc {index} starts at {src}, "
                    f"previous arc ended at {previous_dst}"
                )
            previous_dst = edge_dst[index]
            counts[index] += 1
            total += 1
    uncovered = tuple(i for i, c in enumerate(counts) if c == 0)
    return CoverageReport(
        graph_edges=graph.num_edges,
        covered_edges=graph.num_edges - len(uncovered),
        total_traversals=total,
        max_traversals_of_one_arc=max(counts, default=0),
        uncovered_edge_indices=uncovered,
    )


@dataclass(frozen=True)
class CoveragePoint:
    """One point of the Fig 4.1-style coverage curve: cumulative coverage
    after simulating everything up to and including one trace."""

    trace_index: int
    cumulative_instructions: int
    cumulative_covered_edges: int
    coverage_fraction: float


def coverage_curve(graph: StateGraph, tours: Iterable[Tour]) -> List[CoveragePoint]:
    """Cumulative arcs-covered vs instructions-simulated, per trace.

    This is the data behind the paper's Fig 4.1/4.2 coverage-vs-test-length
    curves: traces are consumed in generation order, and each point gives
    the unique arcs covered so far against the instruction budget spent.
    """
    covered: set = set()
    instructions = 0
    points: List[CoveragePoint] = []
    for index, tour in enumerate(tours):
        covered.update(tour.edge_indices)
        instructions += tour.instructions
        points.append(CoveragePoint(
            trace_index=index,
            cumulative_instructions=instructions,
            cumulative_covered_edges=len(covered),
            coverage_fraction=(
                len(covered) / graph.num_edges if graph.num_edges else 1.0
            ),
        ))
    return points
