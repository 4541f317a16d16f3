"""Tests for Fig. 3.3 tour generation, coverage, and the postman baseline."""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.enumeration import StateGraph, enumerate_states
from repro.smurphi import BoolType, ChoicePoint, RangeType, StateVar, SyncModel
import repro
from repro.tour import (
    IndexedTourGenerator,
    PostmanError,
    arc_coverage,
    chinese_postman_tour,
    euler_tour,
    is_eulerian,
    postman_lower_bound,
)


def build_graph(edges, num_states):
    """Hand-build a StateGraph with the given (src, dst) arcs."""
    graph = StateGraph(["c"])
    for key in range(num_states):
        graph.intern_state(key)
    for i, (src, dst) in enumerate(edges):
        graph.add_edge(src, dst, (i,))
    return graph


def ring(n):
    return build_graph([(i, (i + 1) % n) for i in range(n)], n)


def counter_graph(limit=4):
    model = SyncModel(
        "counter",
        state_vars=[StateVar("n", RangeType(0, limit), 0)],
        choices=[ChoicePoint("en", BoolType())],
        next_state=lambda s, c: {"n": min(s["n"] + 1, limit) if c["en"] else s["n"]},
    )
    graph, _ = enumerate_states(model)
    return graph


class TestOutAdjacency:
    def test_matches_out_edge_indices(self):
        graph = counter_graph()
        adjacency = graph.out_adjacency()
        assert len(adjacency) == graph.num_states
        for state in range(graph.num_states):
            assert adjacency[state] == tuple(
                (i, graph.edge(i).dst) for i in graph.out_edge_indices(state)
            )

    def test_cached_until_graph_mutates(self):
        graph = ring(4)
        first = graph.out_adjacency()
        assert graph.out_adjacency() is first
        graph.add_edge(0, 2, (99,))
        rebuilt = graph.out_adjacency()
        assert rebuilt is not first
        assert (4, 2) in rebuilt[0]

    def test_rebuilt_after_new_state(self):
        graph = ring(3)
        first = graph.out_adjacency()
        graph.intern_state(100)
        second = graph.out_adjacency()
        assert second is not first
        assert len(second) == 4
        assert second[3] == ()


class TestTourGenerator:
    def test_ring_single_tour(self):
        graph = ring(5)
        tours = IndexedTourGenerator(graph).generate()
        assert tours.complete
        assert len(tours) == 1
        assert tours.stats.total_edge_traversals == 5

    def test_counter_covers_all_arcs(self):
        graph = counter_graph()
        tours = IndexedTourGenerator(graph).generate()
        assert tours.complete
        report = arc_coverage(graph, (t.edge_indices for t in tours))
        assert report.complete

    def test_tours_start_at_reset(self):
        graph = counter_graph()
        tours = IndexedTourGenerator(graph).generate()
        for tour in tours:
            first = graph.edge(tour.edge_indices[0])
            assert first.src == StateGraph.RESET

    def test_tours_are_paths(self):
        graph = counter_graph()
        tours = IndexedTourGenerator(graph).generate()
        for tour in tours:
            for a, b in zip(tour.edge_indices, tour.edge_indices[1:]):
                assert graph.edge(a).dst == graph.edge(b).src

    def test_dead_end_forces_multiple_tours(self):
        # Two arcs out of reset into absorbing states with self-loops:
        # reset->1, reset->2; the second arc is only reachable from reset.
        graph = build_graph([(0, 1), (0, 2), (1, 1), (2, 2)], 3)
        tours = IndexedTourGenerator(graph).generate()
        assert tours.complete
        assert len(tours) == 2  # lower bound: reset-only initial conditions

    def test_instruction_limit_splits_traces(self):
        graph = counter_graph(limit=6)
        unlimited = IndexedTourGenerator(graph).generate()
        limited = IndexedTourGenerator(graph, max_instructions_per_trace=3).generate()
        assert limited.complete
        assert limited.stats.longest_trace_edges <= unlimited.stats.longest_trace_edges
        assert limited.stats.num_traces >= unlimited.stats.num_traces
        # Paper: splitting adds only modest traversal overhead.
        assert limited.stats.total_edge_traversals >= unlimited.stats.total_edge_traversals

    def test_limit_bounds_trace_length(self):
        graph = counter_graph(limit=6)
        limited = IndexedTourGenerator(graph, max_instructions_per_trace=3).generate()
        for tour in limited:
            # A trace may overshoot the limit by one explore path (bounded
            # by the state count) plus the single DFS arc that guarantees
            # forward progress.
            assert tour.instructions <= 3 + graph.num_states + 1

    def test_zero_limit_rejected(self):
        with pytest.raises(ValueError):
            IndexedTourGenerator(counter_graph(), max_instructions_per_trace=0)

    def test_custom_instruction_cost(self):
        graph = ring(4)
        tours = IndexedTourGenerator(graph, instruction_cost=lambda e: 5).generate()
        assert tours.stats.total_instructions == 20

    def test_stats_instructions_per_arc(self):
        graph = ring(4)
        tours = IndexedTourGenerator(graph).generate()
        assert tours.stats.instructions_per_arc == 1.0

    def test_empty_graph(self):
        graph = build_graph([], 1)
        tours = IndexedTourGenerator(graph).generate()
        assert tours.complete
        assert len(tours) == 0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 30), st.data())
    def test_random_reachable_graphs_fully_covered(self, n, data):
        # Random graph where every state i>0 has an in-arc from some j<i
        # (guaranteeing reset-reachability), plus random extra arcs.
        edges = []
        for i in range(1, n):
            j = data.draw(st.integers(0, i - 1))
            edges.append((j, i))
        extra = data.draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                max_size=2 * n,
            )
        )
        edges.extend(extra)
        graph = build_graph(edges, n)
        tours = IndexedTourGenerator(graph).generate()
        assert tours.complete
        report = arc_coverage(graph, (t.edge_indices for t in tours))
        assert report.complete


class TestCoverage:
    def test_partial_coverage_reported(self):
        graph = ring(4)
        report = arc_coverage(graph, [[0, 1]])
        assert not report.complete
        assert report.covered_edges == 2
        assert report.uncovered_edge_indices == (2, 3)

    def test_non_path_walk_rejected(self):
        graph = ring(4)
        with pytest.raises(ValueError, match="not a path"):
            arc_coverage(graph, [[0, 2]])

    def test_redundancy(self):
        graph = ring(2)
        report = arc_coverage(graph, [[0, 1, 0, 1]])
        assert report.redundancy == 2.0


class TestPostman:
    def test_ring_is_eulerian(self):
        assert is_eulerian(ring(5))

    def test_euler_tour_exact_cover(self):
        graph = ring(5)
        tour = euler_tour(graph)
        assert sorted(tour) == list(range(5))

    def test_euler_tour_rejects_unbalanced(self):
        graph = build_graph([(0, 1), (1, 0), (0, 1)], 2)
        with pytest.raises(PostmanError):
            euler_tour(graph)

    def test_postman_on_unbalanced_graph(self):
        # 0->1 twice, 1->0 once: optimum duplicates 1->0, length 4.
        graph = build_graph([(0, 1), (1, 0), (0, 1)], 2)
        assert postman_lower_bound(graph) == 4
        walk = chinese_postman_tour(graph)
        assert len(walk) == 4
        report = arc_coverage(graph, [walk])
        assert report.complete

    def test_postman_requires_strong_connectivity(self):
        graph = build_graph([(0, 1)], 2)
        with pytest.raises(PostmanError):
            postman_lower_bound(graph)

    def test_greedy_never_beats_postman(self):
        graph = build_graph(
            [(0, 1), (1, 2), (2, 0), (1, 0), (0, 2), (2, 1)], 3
        )
        optimum = postman_lower_bound(graph)
        tours = IndexedTourGenerator(graph).generate()
        assert tours.stats.total_edge_traversals >= optimum

    def test_networkx_loaded_lazily(self):
        # Only the postman baseline and graph profiling use networkx; the
        # pipeline, the CLI and the tour package must not import it.
        src = os.path.dirname(os.path.dirname(repro.__file__))
        code = (
            "import sys, repro.core, repro.cli, repro.tour; "
            "assert 'networkx' not in sys.modules, 'networkx imported'"
        )
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
