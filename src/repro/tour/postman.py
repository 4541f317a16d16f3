"""Chinese Postman / Euler tours: the optimal-traversal baseline.

The general problem of covering every arc of a (non-symmetric) strongly
connected directed graph with a minimum-length closed walk is the directed
Chinese Postman Problem [EJ72], solvable in polynomial time via min-cost
flow: arcs are duplicated to balance each vertex's in/out degree at minimum
total shortest-path cost, after which the multigraph is Eulerian and an
Euler tour covers every arc exactly once (duplicates excepted).

The paper deliberately does *not* use a single optimal tour (section 3.3):
tours must restart from reset for concurrency and debug-time reasons.  This
module provides the optimum as a lower bound so the benchmark suite can
quantify the overhead of the greedy Fig. 3.3 generator.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.enumeration.graph import StateGraph

if TYPE_CHECKING:
    import networkx as nx


class PostmanError(Exception):
    """Raised when the graph does not admit the requested tour."""


def _to_multidigraph(graph: StateGraph) -> nx.MultiDiGraph:
    import networkx as nx

    g = nx.MultiDiGraph()
    g.add_nodes_from(range(graph.num_states))
    for index, edge in enumerate(graph.edges()):
        g.add_edge(edge.src, edge.dst, index=index)
    return g


def is_eulerian(graph: StateGraph) -> bool:
    """True when every vertex has in-degree == out-degree and the graph is
    connected on its non-isolated vertices (a closed Euler tour exists)."""
    import networkx as nx

    g = _to_multidigraph(graph)
    active = [n for n in g.nodes if g.in_degree(n) + g.out_degree(n) > 0]
    if not active:
        return True
    sub = g.subgraph(active)
    return nx.is_eulerian(sub)


def euler_tour(graph: StateGraph, start: int = StateGraph.RESET) -> List[int]:
    """Closed Euler tour as a list of edge indices, traversing each arc
    exactly once.  Raises :class:`PostmanError` if the graph is not Eulerian.
    """
    import networkx as nx

    g = _to_multidigraph(graph)
    active = [n for n in g.nodes if g.in_degree(n) + g.out_degree(n) > 0]
    sub = g.subgraph(active).copy()
    if not active:
        return []
    if not nx.is_eulerian(sub):
        raise PostmanError("graph is not Eulerian; use chinese_postman_tour")
    circuit = nx.eulerian_circuit(sub, source=start, keys=True)
    return [sub.edges[u, v, k]["index"] for u, v, k in circuit]


def _imbalances(graph: StateGraph) -> Dict[int, int]:
    """out-degree minus in-degree per vertex."""
    delta = {n: 0 for n in range(graph.num_states)}
    for edge in graph.edges():
        delta[edge.src] += 1
        delta[edge.dst] -= 1
    return delta


def postman_lower_bound(graph: StateGraph) -> int:
    """Minimum number of arc traversals of any closed covering walk.

    Equal to ``num_edges`` plus the min-cost degree-balancing duplications.
    Requires strong connectivity over the arc-active vertices.
    """
    _, extra = _balancing_duplications(graph)
    return graph.num_edges + extra


def _balancing_duplications(graph: StateGraph) -> Tuple[Dict[Tuple[int, int], int], int]:
    """Solve the min-cost flow that balances vertex degrees.

    Returns a map from (src, dst) *graph-arc* endpoints to the number of
    extra traversals assigned along the shortest path between them, plus
    the total number of duplicated traversals.
    """
    import networkx as nx

    g = _to_multidigraph(graph)
    active = [n for n in g.nodes if g.in_degree(n) + g.out_degree(n) > 0]
    if not active:
        return {}, 0
    sub = g.subgraph(active)
    if not nx.is_strongly_connected(nx.DiGraph(sub)):
        raise PostmanError(
            "directed Chinese Postman requires a strongly connected graph"
        )
    delta = _imbalances(graph)
    surplus = [n for n in active if delta[n] > 0]   # need extra in-arcs? no:
    deficit = [n for n in active if delta[n] < 0]
    if not surplus and not deficit:
        return {}, 0

    # Min-cost flow: route delta>0 units from surplus-out vertices to
    # deficit vertices along graph arcs; each unit of flow on an arc is one
    # extra traversal of that arc.
    flow_graph = nx.DiGraph()
    for n in active:
        flow_graph.add_node(n, demand=delta[n])
    for u, v, _ in sub.edges(keys=True):
        if not flow_graph.has_edge(u, v):
            flow_graph.add_edge(u, v, weight=1)
    try:
        flow = nx.min_cost_flow(flow_graph)
    except nx.NetworkXUnfeasible as exc:  # pragma: no cover - guarded above
        raise PostmanError("degree balancing infeasible") from exc
    duplications: Dict[Tuple[int, int], int] = {}
    total = 0
    for u, targets in flow.items():
        for v, amount in targets.items():
            if amount:
                duplications[(u, v)] = duplications.get((u, v), 0) + amount
                total += amount
    return duplications, total


def chinese_postman_tour(graph: StateGraph, start: int = StateGraph.RESET) -> List[int]:
    """Optimal closed covering walk (directed CPP) as edge indices.

    Duplicated traversals reuse an arbitrary parallel arc between the same
    endpoints (any is equivalent for coverage purposes).
    """
    import networkx as nx

    duplications, _ = _balancing_duplications(graph)
    g = _to_multidigraph(graph)
    # Add duplicate arcs carrying the same original edge index.
    arc_by_endpoints: Dict[Tuple[int, int], int] = {}
    for index, edge in enumerate(graph.edges()):
        arc_by_endpoints.setdefault((edge.src, edge.dst), index)
    for (u, v), amount in duplications.items():
        index = arc_by_endpoints.get((u, v))
        if index is None:  # pragma: no cover - flow uses only existing arcs
            raise PostmanError(f"flow used nonexistent arc {u}->{v}")
        for _ in range(amount):
            g.add_edge(u, v, index=index)
    active = [n for n in g.nodes if g.in_degree(n) + g.out_degree(n) > 0]
    if not active:
        return []
    sub = g.subgraph(active).copy()
    if not nx.is_eulerian(sub):
        raise PostmanError("balanced graph unexpectedly not Eulerian")
    if start not in sub:
        start = active[0]
    circuit = nx.eulerian_circuit(sub, source=start, keys=True)
    return [sub.edges[u, v, k]["index"] for u, v, k in circuit]
