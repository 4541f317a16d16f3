"""Fig. 4.2 -- Erroneous implementation with FEWER behaviours (merged
transitions), and the paper's proposed fix.

The spec takes a: A->B and c: A->C; the faulty implementation performs the
same transition for both inputs (a, c: A->B).  With the paper's default
enumeration, each arc is labeled with the *first* condition that led to
the new state, so either "a" or "c" labels the merged arc -- and the wrong
"c" transition may never be exercised, hiding the bug (the methodology's
acknowledged blind spot).

The paper proposes capturing all unique transition conditions; our
enumerator implements that as ``record_all_conditions=True``.  This
benchmark demonstrates the miss and measures the fix.
"""

import pytest

from repro.enumeration import enumerate_states
from repro.smurphi import ChoicePoint, EnumType, StateVar, SyncModel
from repro.tour import IndexedTourGenerator

INPUTS = EnumType("inp", ["a", "b", "c"])


def spec_model():
    def nxt(s, ch):
        state, inp = s["s"], ch["inp"]
        if state == "A" and inp == "a":
            return {"s": "B"}
        if state == "A" and inp == "c":
            return {"s": "C"}
        if state in ("B", "C") and inp == "b":
            return {"s": "A"}
        return {"s": state}

    return SyncModel(
        "fig42_spec",
        state_vars=[StateVar("s", EnumType("st", ["A", "B", "C"]), "A")],
        choices=[ChoicePoint("inp", INPUTS)],
        next_state=nxt,
    )


def impl_model():
    def nxt(s, ch):
        state, inp = s["s"], ch["inp"]
        if state == "A" and inp in ("a", "c"):
            return {"s": "B"}  # ERROR: "c" should go to C
        if state in ("B", "C") and inp == "b":
            return {"s": "A"}
        return {"s": state}

    return SyncModel(
        "fig42_impl",
        state_vars=[StateVar("s", EnumType("st", ["A", "B", "C"]), "A")],
        choices=[ChoicePoint("inp", INPUTS)],
        next_state=nxt,
    )


def _count_divergences(graph, model, tours, impl, spec):
    divergences = 0
    for tour in tours:
        impl_state, spec_state = impl.reset_state(), spec.reset_state()
        for index in tour.edge_indices:
            edge = graph.edge(index)
            choice = dict(zip(model.choice_names, edge.condition))
            impl_state = impl.step(impl_state, choice)
            spec_state = spec.step(spec_state, choice)
            if impl_state != spec_state:
                divergences += 1
    return divergences


def test_fig_4_2_first_condition_misses_the_bug(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    impl, spec = impl_model(), spec_model()
    graph, stats = enumerate_states(impl)  # default: first condition only
    tours = IndexedTourGenerator(graph).generate()
    divergences = _count_divergences(graph, impl, list(tours), impl, spec)
    conditions = {
        edge.condition for edge in graph.edges()
        if graph.state_key(edge.src) != graph.state_key(edge.dst)
    }
    print(f"\nfirst-condition enumeration: {stats.num_edges} arcs; "
          f"A->B labeled with {sorted(c[0] for c in conditions)}; "
          f"divergences: {divergences}")
    # 'a' is tried before 'c', so the merged arc carries 'a' and the wrong
    # 'c' transition is never exercised: the bug escapes.
    assert divergences == 0


def test_fig_4_2_all_conditions_catches_the_bug(benchmark):
    impl, spec = impl_model(), spec_model()

    def enumerate_fixed():
        return enumerate_states(impl, record_all_conditions=True)

    graph, stats = benchmark.pedantic(enumerate_fixed, rounds=1, iterations=1)
    tours = IndexedTourGenerator(graph).generate()
    divergences = _count_divergences(graph, impl, list(tours), impl, spec)
    print(f"\nall-conditions enumeration: {stats.num_edges} arcs; "
          f"divergences: {divergences}")
    # Both (A->B, a) and (A->B, c) are arcs now; the tour drives 'c' and
    # the comparison exposes the merged transition.
    assert divergences > 0


def test_fix_cost_is_bounded(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    """The fix multiplies arcs by at most the choice-domain size."""
    impl = impl_model()
    first, base_stats = enumerate_states(impl)
    full, fixed_stats = enumerate_states(impl, record_all_conditions=True)
    ratio = fixed_stats.num_edges / base_stats.num_edges
    print(f"\narc inflation from recording all conditions: {ratio:.2f}x")
    assert base_stats.num_states == fixed_stats.num_states
    assert 1.0 <= ratio <= len(INPUTS.values())
