"""Tests for the indexed tour generator.

The load-bearing property is *bit-identity*: `IndexedTourGenerator` must
produce exactly the tours the reference Fig. 3.3 `TourGenerator` (the
oracle in `tests/oracles.py`) does -- same components, same edge order,
same instruction counts -- on any reset-reachable graph, with and without
instruction limits.  Everything
else (CSR layout, the distance index and its upkeep) is internal machinery
that only exists to get there faster -- but the index must also stay
*exact*: equal to a from-scratch reverse BFS after every retired target,
and every explore's descent along it must be the path the unpruned BFS
returns.
"""

from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.enumeration import StateGraph, enumerate_states
from repro.obs import MetricsRegistry, Observer
from repro.pp.fsm_model import PPControlModel, PPModelConfig
from repro.tour import IndexedTourGenerator, arc_coverage
from repro.vectors import pp_instruction_cost

from tests.oracles import TourGenerator
from tests.test_tour import build_graph, counter_graph, ring


def reverse_bfs(gen):
    """From-scratch distance field for ``gen``'s current traversal state.

    A reverse multi-source BFS over the graph itself (not the generator's
    CSR) from every state that still has an untraversed out-arc; ``gen._inf``
    where none is reachable.
    """
    graph = gen.graph
    preds = [[] for _ in range(graph.num_states)]
    for edge in graph.edges():
        preds[edge.dst].append(edge.src)
    dist = [gen._inf] * graph.num_states
    queue = deque()
    for state in range(graph.num_states):
        if any(not gen._traversed[i] for i in graph.out_edge_indices(state)):
            dist[state] = 0
            queue.append(state)
    while queue:
        node = queue.popleft()
        for src in preds[node]:
            if dist[src] > dist[node] + 1:
                dist[src] = dist[node] + 1
                queue.append(src)
    return dist


class CheckedTourGenerator(IndexedTourGenerator):
    """Asserts after every retired target that the maintained field is
    exactly the from-scratch one."""

    retired = 0

    def _retire_target(self, target):
        super()._retire_target(target)
        self.retired += 1
        assert self._dist == reverse_bfs(self), f"field wrong after retiring {target}"


def assert_exact_field(graph, limit=None, instruction_cost=None):
    """Run the checked generator; return its tours and metrics."""
    kwargs = {"max_instructions_per_trace": limit}
    if instruction_cost is not None:
        kwargs["instruction_cost"] = instruction_cost
    metrics = MetricsRegistry()
    gen = CheckedTourGenerator(graph, **kwargs)
    tours = gen.generate(obs=Observer(metrics=metrics))
    # Every state with out-arcs retires exactly once.
    assert gen.retired == sum(
        1 for s in range(graph.num_states) if graph.out_edge_indices(s)
    )
    assert metrics.counter_value("tour.index_rebuilds") == 1
    assert metrics.counter_value("tour.explore_fallbacks") == 0
    return tours, metrics


def random_reachable_graph(n, data):
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
    return build_graph(edges, n)


def tour_dump(tour_set):
    """Canonical bit-comparable form of a TourSet."""
    return [(t.edge_indices, t.instructions) for t in tour_set]


def assert_identical(
    graph, limit=None, instruction_cost=None,
    generator_cls=IndexedTourGenerator, metrics=None,
):
    kwargs = {"max_instructions_per_trace": limit}
    if instruction_cost is not None:
        kwargs["instruction_cost"] = instruction_cost
    reference = TourGenerator(graph, **kwargs).generate()
    indexed = generator_cls(graph, **kwargs).generate(obs=Observer(metrics=metrics))
    assert tour_dump(indexed) == tour_dump(reference)
    return indexed


class TestBitIdentity:
    def test_ring(self):
        tours = assert_identical(ring(7))
        assert tours.complete
        assert len(tours) == 1

    def test_counter(self):
        assert_identical(counter_graph())

    def test_dead_end_multiple_tours(self):
        graph = build_graph([(0, 1), (0, 2), (1, 1), (2, 2)], 3)
        tours = assert_identical(graph)
        assert len(tours) == 2

    def test_empty_graph(self):
        tours = assert_identical(build_graph([], 1))
        assert tours.complete
        assert len(tours) == 0

    def test_instruction_limits(self):
        graph = counter_graph(limit=6)
        for limit in (1, 2, 3, 7, 50):
            assert_identical(graph, limit=limit)

    def test_custom_cost(self):
        assert_identical(ring(4), instruction_cost=lambda e: 5)

    def test_pp_graph_golden(self):
        control = PPControlModel(PPModelConfig(fill_words=1))
        graph, _ = enumerate_states(control.build())
        cost = pp_instruction_cost(control, graph)
        for limit in (None, 200):
            assert_identical(graph, limit=limit, instruction_cost=cost)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 30), st.data())
    def test_random_reachable_graphs(self, n, data):
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
        tours = assert_identical(graph)
        assert tours.complete
        assert arc_coverage(graph, (t.edge_indices for t in tours)).complete

    @settings(max_examples=15, deadline=None)
    @given(st.integers(3, 20), st.integers(1, 12), st.data())
    def test_random_graphs_with_limits(self, n, limit, data):
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
        tours = assert_identical(graph, limit=limit)
        assert tours.complete


class TestGeneratorBehaviour:
    """The reference generator's documented behaviours, re-asserted on the
    indexed one directly (not just via identity)."""

    def test_covers_all_arcs(self):
        graph = counter_graph()
        tours = IndexedTourGenerator(graph).generate()
        assert tours.complete
        assert arc_coverage(graph, (t.edge_indices for t in tours)).complete

    def test_tours_start_at_reset_and_are_paths(self):
        graph = counter_graph()
        tours = IndexedTourGenerator(graph).generate()
        for tour in tours:
            assert graph.edge(tour.edge_indices[0]).src == StateGraph.RESET
            for a, b in zip(tour.edge_indices, tour.edge_indices[1:]):
                assert graph.edge(a).dst == graph.edge(b).src

    def test_zero_limit_rejected(self):
        with pytest.raises(ValueError):
            IndexedTourGenerator(counter_graph(), max_instructions_per_trace=0)

    def test_limit_bounds_trace_length(self):
        graph = counter_graph(limit=6)
        limited = IndexedTourGenerator(graph, max_instructions_per_trace=3).generate()
        for tour in limited:
            assert tour.instructions <= 3 + graph.num_states + 1


class TestCSRIndex:
    def test_csr_matches_out_edge_indices(self):
        graph = counter_graph()
        gen = IndexedTourGenerator(graph)
        for state in range(graph.num_states):
            row = gen._out_edge[gen._indptr[state]:gen._indptr[state + 1]]
            assert row == list(graph.out_edge_indices(state))
            dsts = gen._out_dst[gen._indptr[state]:gen._indptr[state + 1]]
            assert dsts == [graph.edge(i).dst for i in row]

    def test_reverse_csr_matches_in_edges(self):
        graph = counter_graph()
        gen = IndexedTourGenerator(graph)
        for state in range(graph.num_states):
            srcs = sorted(gen._rin_src[gen._rindptr[state]:gen._rindptr[state + 1]])
            expected = sorted(
                e.src for e in graph.edges() if e.dst == state
            )
            assert srcs == expected

    def test_distance_field_is_exact_after_run(self):
        graph = build_graph([(0, 1), (1, 2), (2, 0)], 3)
        gen = IndexedTourGenerator(graph)
        gen.generate()
        # After the run every arc is traversed: the maintained field is
        # all-INF, exactly what a from-scratch BFS gives.
        assert gen._dist == reverse_bfs(gen)
        assert all(d >= gen._inf for d in gen._dist)


class TestExactField:
    """The maintained distance field equals a fresh reverse BFS after every
    retired target, so one build per run suffices and no explore misses."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 30), st.data())
    def test_random_reachable_graphs(self, n, data):
        graph = random_reachable_graph(n, data)
        tours, _ = assert_exact_field(graph)
        assert tours.complete

    @settings(max_examples=15, deadline=None)
    @given(st.integers(3, 20), st.integers(1, 12), st.data())
    def test_random_graphs_with_limits(self, n, limit, data):
        graph = random_reachable_graph(n, data)
        tours, _ = assert_exact_field(graph, limit=limit)
        assert tours.complete

    def test_pp_graph_with_pipeline_cost(self):
        control = PPControlModel(PPModelConfig(fill_words=1))
        graph, _ = enumerate_states(control.build())
        cost = pp_instruction_cost(control, graph)
        tours, metrics = assert_exact_field(graph, limit=300, instruction_cost=cost)
        reference = TourGenerator(
            graph, instruction_cost=cost, max_instructions_per_trace=300
        ).generate()
        assert tour_dump(tours) == tour_dump(reference)
        assert metrics.counter_value("tour.index_resettled") >= graph.num_states - 1

    def test_cost_function_called_once_per_arc(self):
        graph = counter_graph(limit=6)
        calls = []

        def cost(edge):
            calls.append(edge)
            return 2

        tours = IndexedTourGenerator(
            graph, instruction_cost=cost, max_instructions_per_trace=3
        ).generate()
        assert len(calls) == graph.num_edges
        assert sum(len(t) for t in tours) > graph.num_edges
        assert all(t.instructions == 2 * len(t) for t in tours)


class DescentCheckedGenerator(IndexedTourGenerator):
    """Asserts that every descent path equals the unpruned reference
    sweep's path from the same state."""

    def _descend(self, state):
        path = super()._descend(state)
        assert path is not None, f"descent missed from {state}"
        assert path == self._sweep(state), f"descent from {state} left the BFS path"
        return path


class MissingDescentGenerator(IndexedTourGenerator):
    """A descent that always misses, so every explore takes the sweep."""

    def _descend(self, state):
        return None


def assert_descents_exact(graph, **kwargs):
    """Every explore of a run descends to the reference BFS's path."""
    metrics = MetricsRegistry()
    assert_identical(
        graph, generator_cls=DescentCheckedGenerator, metrics=metrics, **kwargs
    )
    assert metrics.counter_value("tour.explore_fallbacks") == 0
    return metrics


def assert_misses_take_the_sweep(graph, **kwargs):
    """A descent that always misses still yields the reference tours."""
    metrics = MetricsRegistry()
    assert_identical(
        graph, generator_cls=MissingDescentGenerator, metrics=metrics, **kwargs
    )
    fallbacks = metrics.counter_value("tour.explore_fallbacks")
    assert fallbacks == metrics.counter_value("tour.explore_splices") > 0


class TestDescent:
    """Every explore's descent is the path the unpruned BFS would return,
    and a descent that misses is answered by that BFS."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 30), st.data())
    def test_random_reachable_graphs(self, n, data):
        assert_descents_exact(random_reachable_graph(n, data))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(3, 20), st.integers(1, 12), st.data())
    def test_random_graphs_with_limits(self, n, limit, data):
        assert_descents_exact(random_reachable_graph(n, data), limit=limit)

    def test_pp_graph_with_pipeline_cost(self):
        control = PPControlModel(PPModelConfig(fill_words=1))
        graph, _ = enumerate_states(control.build())
        cost = pp_instruction_cost(control, graph)
        for limit in (None, 300):
            metrics = assert_descents_exact(graph, limit=limit, instruction_cost=cost)
            assert metrics.counter_value("tour.explore_splices") > 0

    def test_pruned_counts_rejected_arcs(self):
        # From 0 the first arc leads to 1, which has no route to the
        # remaining target 3; the descent rejects it and takes 0 -> 2.
        graph = build_graph([(0, 1), (0, 2), (1, 1), (2, 3), (3, 0), (3, 3)], 4)
        gen = IndexedTourGenerator(graph)
        gen.generate()
        gen._untraversed_out = [0, 0, 0, 1]
        gen._build_index()
        gen._explore_pruned = 0
        assert gen._descend(0) == [1, 3]
        assert gen._explore_pruned == 1

    @pytest.mark.parametrize("limit", [None, 2])
    def test_forced_miss_takes_the_sweep(self, limit):
        # Stuck at 0 after 0 -> 1 -> 0: the explore splices back to 1.
        graph = build_graph([(0, 1), (1, 0), (1, 2), (2, 1), (2, 2)], 3)
        assert_misses_take_the_sweep(graph, limit=limit)

    def test_forced_miss_on_pp_graph(self):
        control = PPControlModel(PPModelConfig(fill_words=1))
        graph, _ = enumerate_states(control.build())
        cost = pp_instruction_cost(control, graph)
        assert_misses_take_the_sweep(graph, limit=300, instruction_cost=cost)


class TestObservability:
    def metrics_for(self, generator_cls, graph, **kwargs):
        metrics = MetricsRegistry()
        generator_cls(graph, **kwargs).generate(obs=Observer(metrics=metrics))
        return metrics

    def test_reference_counters_match(self):
        graph = counter_graph(limit=6)
        ref = self.metrics_for(TourGenerator, graph, max_instructions_per_trace=3)
        idx = self.metrics_for(
            IndexedTourGenerator, graph, max_instructions_per_trace=3
        )
        for name in (
            "tour.traces", "tour.arc_traversals", "tour.instructions",
            "tour.limit_restarts", "tour.explore_splices",
        ):
            assert idx.counter_value(name) == ref.counter_value(name), name

    def test_new_counters_present(self):
        graph = counter_graph()
        idx = self.metrics_for(IndexedTourGenerator, graph)
        # Flushed unconditionally so dashboards always see the series.
        names = idx.counter_names()
        assert "tour.explore_pruned" in names
        assert "tour.explore_short_circuits" in names
        assert "tour.explore_fallbacks" in names
        assert "tour.index_rebuilds" in names
        assert "tour.index_resettled" in names
        assert idx.counter_value("tour.index_rebuilds") == 1
        assert idx.counter_value("tour.explore_fallbacks") == 0


class TestUnreachable:
    def test_unreachable_arc_raises_like_reference(self):
        # State 2 is not reachable from reset, but has an out-arc.
        graph = build_graph([(0, 1), (2, 0)], 3)
        with pytest.raises(RuntimeError, match="reset-reachable"):
            TourGenerator(graph).generate()
        with pytest.raises(RuntimeError, match="reset-reachable"):
            IndexedTourGenerator(graph).generate()
