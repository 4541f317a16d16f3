"""The columnar :class:`StateGraph` against a list-of-``Edge`` reference.

The graph keeps its arcs in ``array('I')`` columns plus a table of
distinct condition tuples and serves out-edges from a lazily built CSR.
The reference here is the obvious layout -- one :class:`Edge` per arc in
a list -- driven through random interleavings of ``intern_state``,
``add_edge`` and queries, with sources in arbitrary order.
"""

import json
import pickle
import tracemalloc

from hypothesis import given, settings, strategies as st

from repro.enumeration import StateGraph, enumerate_states
from repro.enumeration import graph as graph_module
from repro.enumeration.graph import Edge
from repro.incremental.splice import graphs_equal
from repro.pp.fsm_model import PPModelConfig, build_pp_control_model

#: Choice values that collide under ``==`` across types (``True == 1``,
#: ``False == 0``) next to ``None`` and a string, so equal-but-differently
#: typed conditions meet in one table.
VALUES = st.sampled_from([None, True, False, 0, 1, 2, "x"])

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("state")),
        st.tuples(st.just("edge"), st.integers(0, 50), st.integers(0, 50),
                  st.tuples(VALUES, VALUES)),
        st.tuples(st.just("query"), st.integers(0, 50)),
    ),
    max_size=60,
)


class Reference:
    """One ``Edge`` per arc, out-edges found by scanning."""

    def __init__(self):
        self.keys = []
        self.edges = []

    def out(self, state):
        return [i for i, e in enumerate(self.edges) if e.src == state]

    def to_json(self):
        return json.dumps({
            "choice_names": ["a", "b"],
            "state_keys": self.keys,
            "edges": [[e.src, e.dst, list(e.condition)] for e in self.edges],
        })


def exact(edges):
    """Edges with their conditions' element types (``Edge`` equality
    alone cannot tell ``(True,)`` from ``(1,)``)."""
    return [(e, tuple(map(type, e.condition))) for e in edges]


def assert_out_edges(graph, ref, state):
    expected = ref.out(state)
    assert list(graph.out_edge_indices(state)) == expected
    assert exact(graph.out_edges(state)) == exact(ref.edges[i] for i in expected)
    assert list(graph.successors(state)) == [ref.edges[i].dst for i in expected]


def build(ops):
    graph = StateGraph(["a", "b"])
    ref = Reference()
    graph.intern_state(1000)
    ref.keys.append(1000)
    for op in ops:
        if op[0] == "state":
            key = 1000 + len(ref.keys)
            assert graph.intern_state(key) == (len(ref.keys), True)
            ref.keys.append(key)
        elif op[0] == "edge":
            src, dst = op[1] % len(ref.keys), op[2] % len(ref.keys)
            assert graph.add_edge(src, dst, op[3]) == len(ref.edges)
            ref.edges.append(Edge(src, dst, op[3]))
        else:
            # A query between additions: the next add_edge or new state
            # must drop the CSR this builds.
            assert_out_edges(graph, ref, op[1] % len(ref.keys))
    return graph, ref


@given(OPS)
@settings(max_examples=150, deadline=None)
def test_matches_edge_list_reference(ops):
    graph, ref = build(ops)
    n = len(ref.edges)
    assert graph.num_edges == n and graph.num_states == len(ref.keys)

    edges = graph.edges()
    assert len(edges) == n
    assert exact(edges) == exact(ref.edges)
    for i in range(-n, n):
        assert exact([edges[i], graph.edge(i)]) == exact([ref.edges[i]] * 2)
    for state in range(graph.num_states):
        assert_out_edges(graph, ref, state)
    assert graph.in_degrees() == [
        sum(e.dst == s for e in ref.edges) for s in range(len(ref.keys))
    ]

    text = graph.to_json()
    assert text == ref.to_json()
    loaded = StateGraph.from_json(text)
    assert loaded.to_json() == text
    assert graphs_equal(graph, loaded)

    restored = pickle.loads(pickle.dumps(graph))
    assert restored.to_json() == text
    assert graphs_equal(graph, restored)
    assert not {"_csr", "_cond_ids", "_typed_ids"} & set(graph.__getstate__())
    # The condition ids rebuilt on load must agree with the originals.
    for condition in [(None, True), (1, 1), (True, True), (0, "x")]:
        graph.add_edge(0, 0, condition)
        restored.add_edge(0, 0, condition)
    assert restored.to_json() == graph.to_json()
    assert restored.edge_cond == graph.edge_cond
    assert not graphs_equal(graph, loaded)


@given(OPS, st.integers(-70, 70), st.integers(-70, 70), st.integers(-4, 4))
@settings(max_examples=100, deadline=None)
def test_slices_match_reference(ops, start, stop, step):
    graph, ref = build(ops)
    window = slice(start, stop, step or None)
    assert exact(graph.edges()[window]) == exact(ref.edges[window])


def test_conditions_table_is_first_seen_and_type_exact():
    graph = StateGraph(["c"])
    graph.intern_state(0)
    for condition in [(True,), (1,), (True,), (None,), (1,), (1.0,)]:
        graph.add_edge(0, 0, condition)
    assert graph.conditions == [(True,), (1,), (None,), (1.0,)]
    assert list(graph.edge_cond) == [0, 1, 0, 2, 1, 3]
    assert graph.to_json().endswith(
        '[[0, 0, [true]], [0, 0, [1]], [0, 0, [true]], [0, 0, [null]], '
        '[0, 0, [1]], [0, 0, [1.0]]]}'
    )


def test_bfs_graph_csr_is_row_pointers_only():
    graph, _ = enumerate_states(build_pp_control_model(PPModelConfig(fill_words=1)))
    indptr, order = graph.out_csr()
    assert order == range(graph.num_edges)
    assert len(indptr) == graph.num_states + 1 and indptr[-1] == graph.num_edges


def test_retained_bytes_per_edge():
    """The enumerated graph costs a few bytes per arc, not an object.

    Counts the allocations made in ``graph.py`` that are still alive once
    fw=2 is enumerated (13,329 arcs): the columns, the state table and the
    condition table.  One object per arc (48 B or more, plus an index
    slot) cannot come in under the bound; the columns take about 23 B.
    """
    model = build_pp_control_model(PPModelConfig(fill_words=2))
    tracemalloc.start()
    try:
        graph, _ = enumerate_states(model)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert graph.num_edges == 13_329
    retained = sum(
        stat.size for stat in snapshot.filter_traces(
            [tracemalloc.Filter(True, graph_module.__file__)]
        ).statistics("filename")
    )
    assert retained / graph.num_edges < 32
