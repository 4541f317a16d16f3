"""Analysis utilities over enumerated state graphs.

Post-enumeration questions a validation engineer asks: how deep is the
graph (how long until a bug at depth *d* can first manifest)?  Is it
strongly connected, or do reset-only regions force extra tours?  Which
states are hot?  Plus Graphviz export for small graphs.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.enumeration.graph import StateGraph


@dataclass(frozen=True)
class GraphProfile:
    """Structural profile of a state graph."""

    num_states: int
    num_edges: int
    max_depth_from_reset: int
    mean_depth_from_reset: float
    num_sccs: int
    largest_scc_size: int
    reset_in_largest_scc: bool
    states_unreturnable_to_reset: int
    max_out_degree: int
    mean_out_degree: float

    def summary(self) -> str:
        return (
            f"{self.num_states:,} states / {self.num_edges:,} arcs; depth "
            f"max {self.max_depth_from_reset} mean "
            f"{self.mean_depth_from_reset:.1f}; {self.num_sccs} SCCs "
            f"(largest {self.largest_scc_size:,}"
            f"{', contains reset' if self.reset_in_largest_scc else ''}); "
            f"{self.states_unreturnable_to_reset:,} states cannot return "
            f"to reset"
        )


def depths_from_reset(graph: StateGraph) -> List[int]:
    """BFS depth of every state from reset (every state is reachable by
    construction)."""
    depths = [-1] * graph.num_states
    depths[StateGraph.RESET] = 0
    queue = deque([StateGraph.RESET])
    while queue:
        current = queue.popleft()
        for successor in graph.successors(current):
            if depths[successor] < 0:
                depths[successor] = depths[current] + 1
                queue.append(successor)
    return depths


def depth_histogram(graph: StateGraph) -> Dict[int, int]:
    """How many states first become reachable at each cycle count --
    roughly, how long a trace must run before a depth-d bug can show."""
    return dict(sorted(Counter(depths_from_reset(graph)).items()))


def profile(graph: StateGraph) -> GraphProfile:
    import networkx as nx

    depths = depths_from_reset(graph)
    digraph = nx.DiGraph()
    digraph.add_nodes_from(range(graph.num_states))
    digraph.add_edges_from(zip(graph.edge_src, graph.edge_dst))
    sccs = list(nx.strongly_connected_components(digraph))
    largest = max(sccs, key=len) if sccs else set()
    # States that cannot get back to reset need a fresh trace per visit.
    can_reach_reset = set(nx.ancestors(digraph, StateGraph.RESET))
    can_reach_reset.add(StateGraph.RESET)
    out_degrees = [len(graph.out_edge_indices(i)) for i in range(graph.num_states)]
    return GraphProfile(
        num_states=graph.num_states,
        num_edges=graph.num_edges,
        max_depth_from_reset=max(depths) if depths else 0,
        mean_depth_from_reset=sum(depths) / len(depths) if depths else 0.0,
        num_sccs=len(sccs),
        largest_scc_size=len(largest),
        reset_in_largest_scc=StateGraph.RESET in largest,
        states_unreturnable_to_reset=graph.num_states - len(can_reach_reset),
        max_out_degree=max(out_degrees, default=0),
        mean_out_degree=(sum(out_degrees) / len(out_degrees)) if out_degrees else 0.0,
    )


def to_dot(
    graph: StateGraph,
    labeler: Optional[callable] = None,
    max_states: int = 200,
) -> str:
    """Graphviz rendering for small graphs (refuses huge ones)."""
    if graph.num_states > max_states:
        raise ValueError(
            f"graph has {graph.num_states} states; raise max_states to "
            "render anyway"
        )
    lines = ["digraph control {", "  rankdir=LR;", '  0 [shape=doublecircle];']
    if labeler:
        for state_id in range(graph.num_states):
            lines.append(f'  {state_id} [label="{labeler(state_id)}"];')
    for edge in graph.edges():
        condition = ",".join(str(v) for v in edge.condition)
        lines.append(f'  {edge.src} -> {edge.dst} [label="{condition}"];')
    lines.append("}")
    return "\n".join(lines)
