"""Ablation: the greedy Fig. 3.3 tour generator vs the Chinese-Postman
optimum, and the cost of restart-from-reset tours.

The paper deliberately rejects a single optimal transition tour (section
3.3): tours must restart from reset for concurrent simulation and short
re-runs, and re-traversing arcs is cheap while backtracking is not.  This
benchmark quantifies what that buys and what it costs:

- on strongly-connected graphs, greedy traversal count vs the CPP
  lower bound (the price of greediness);
- on the PP graph, total traversals vs arc count (the price of restarts
  and splicing, since the optimum is not defined for reset-only arcs).
"""

import random

import pytest

from repro.enumeration import StateGraph, enumerate_states
from repro.pp.fsm_model import PPControlModel, PPModelConfig
from repro.tour import (
    IndexedTourGenerator,
    arc_coverage,
    chinese_postman_tour,
    postman_lower_bound,
)


def random_strongly_connected(n, extra, seed):
    rng = random.Random(seed)
    graph = StateGraph(["c"])
    for key in range(n):
        graph.intern_state(key)
    for i in range(n):  # a ring guarantees strong connectivity
        graph.add_edge(i, (i + 1) % n, (i,))
    for j in range(extra):
        graph.add_edge(rng.randrange(n), rng.randrange(n), (n + j,))
    return graph


@pytest.mark.parametrize("n,extra,seed", [(20, 30, 1), (50, 100, 2), (100, 300, 3)])
def test_greedy_vs_postman_optimum(benchmark, n, extra, seed):
    graph = random_strongly_connected(n, extra, seed)
    optimum = postman_lower_bound(graph)
    tours = benchmark.pedantic(
        IndexedTourGenerator(graph).generate, rounds=1, iterations=1
    )
    assert tours.complete
    ratio = tours.stats.total_edge_traversals / optimum
    print(f"\nn={n} arcs={graph.num_edges}: greedy "
          f"{tours.stats.total_edge_traversals} vs CPP optimum {optimum} "
          f"({ratio:.2f}x)")
    assert ratio >= 1.0
    # Greedy-with-splicing stays within a small constant of optimal.
    assert ratio < 4.0


def test_postman_walk_is_valid_cover(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    graph = random_strongly_connected(30, 60, 4)
    walk = chinese_postman_tour(graph)
    report = arc_coverage(graph, [walk])
    assert report.complete
    assert report.total_traversals == postman_lower_bound(graph)


def test_pp_graph_redundancy(benchmark):
    control = PPControlModel(PPModelConfig(fill_words=1))
    graph, _ = enumerate_states(control.build())
    tours = benchmark.pedantic(
        IndexedTourGenerator(graph).generate, rounds=1, iterations=1
    )
    assert tours.complete
    redundancy = tours.stats.total_edge_traversals / graph.num_edges
    print(f"\nPP graph: {graph.num_edges:,} arcs covered with "
          f"{tours.stats.total_edge_traversals:,} traversals "
          f"({redundancy:.2f}x redundancy, {tours.stats.num_traces} traces)")
    # The paper's PP numbers give ~18x (21.2M traversals / 1.17M arcs);
    # ours should be the same order of magnitude.
    assert redundancy < 40
