"""Cross-module property-based tests (hypothesis)."""

import random

from hypothesis import given, settings, strategies as st

from repro.enumeration import StateGraph, enumerate_states
from repro.pp.isa import Instruction, InstructionClass, Opcode, random_instruction
from repro.pp.rtl import CoreConfig, PPCore, RandomStimulus
from repro.pp.spec import SpecSimulator
from repro.smurphi import BoolType, ChoicePoint, RangeType, StateVar, SyncModel
from repro.smurphi.lang import parse_model
from repro.tour import IndexedTourGenerator, arc_coverage


# ---------------------------------------------------------------- state graph

@st.composite
def reachable_graphs(draw):
    n = draw(st.integers(2, 25))
    edges = []
    for i in range(1, n):
        edges.append((draw(st.integers(0, i - 1)), i))
    extra = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40
        )
    )
    graph = StateGraph(["c"])
    for key in range(n):
        graph.intern_state(key)
    for index, (src, dst) in enumerate(edges + extra):
        graph.add_edge(src, dst, (index,))
    return graph


@given(reachable_graphs())
@settings(max_examples=30, deadline=None)
def test_graph_json_roundtrip(graph):
    clone = StateGraph.from_json(graph.to_json())
    assert clone.num_states == graph.num_states
    assert [(e.src, e.dst, e.condition) for e in clone.edges()] == [
        (e.src, e.dst, e.condition) for e in graph.edges()
    ]


@given(reachable_graphs(), st.integers(1, 20))
@settings(max_examples=25, deadline=None)
def test_tour_limit_never_breaks_coverage(graph, limit):
    tours = IndexedTourGenerator(graph, max_instructions_per_trace=limit).generate()
    assert tours.complete
    report = arc_coverage(graph, (t.edge_indices for t in tours))
    assert report.complete
    assert report.total_traversals == tours.stats.total_edge_traversals


# ---------------------------------------------------------------- enumeration

@given(st.integers(1, 6), st.integers(1, 4))
@settings(max_examples=20, deadline=None)
def test_counter_state_count_exact(limit, step):
    model = SyncModel(
        "ctr",
        state_vars=[StateVar("n", RangeType(0, limit * step), 0)],
        choices=[ChoicePoint("en", BoolType())],
        next_state=lambda s, c: {
            "n": min(s["n"] + step, limit * step) if c["en"] else s["n"]
        },
    )
    graph, stats = enumerate_states(model)
    # Reachable values: 0, step, 2*step, ..., then saturation at limit*step.
    expected = {min(i * step, limit * step) for i in range(limit + 2)}
    assert stats.num_states == len(expected)


@given(st.integers(0, 5))
@settings(max_examples=10, deadline=None)
def test_all_conditions_mode_is_superset(depth):
    model = SyncModel(
        "m",
        state_vars=[StateVar("n", RangeType(0, 5 + depth), 0)],
        choices=[ChoicePoint("a", BoolType()), ChoicePoint("b", BoolType())],
        next_state=lambda s, c: {
            "n": min(s["n"] + int(c["a"]) + int(c["b"]), 5 + depth)
        },
    )
    first, f_stats = enumerate_states(model)
    full, a_stats = enumerate_states(model, record_all_conditions=True)
    assert a_stats.num_states == f_stats.num_states
    assert a_stats.num_edges >= f_stats.num_edges
    first_pairs = {(e.src, e.dst) for e in first.edges()}
    full_pairs = {(e.src, e.dst) for e in full.edges()}
    assert first_pairs == full_pairs


# ---------------------------------------------------------------- murphi lang

@given(st.integers(1, 7), st.integers(0, 7))
@settings(max_examples=20, deadline=None)
def test_murphi_counter_matches_python_model(limit, start):
    start = min(start, limit)
    text = (
        f"var n : 0..{limit} reset {start};\n"
        "choice en : boolean;\n"
        f"rule begin if en & n < {limit} then n' := n + 1; endif; end\n"
    )
    model = parse_model(text)
    graph, stats = enumerate_states(model)
    assert stats.num_states == limit - start + 1


# ---------------------------------------------------------------- RTL vs spec

@given(st.integers(0, 200))
@settings(max_examples=15, deadline=None)
def test_rtl_always_matches_spec_under_random_everything(seed):
    rng = random.Random(seed)
    program = []
    for _ in range(50):
        klass = rng.choice(list(InstructionClass))
        ins = random_instruction(klass, rng)
        if ins.opcode in (Opcode.LW, Opcode.SW):
            ins = Instruction(
                ins.opcode, rd=ins.rd, rs=0, imm=rng.choice(range(0, 256, 16))
            )
        program.append(ins)
    inbox = list(range(40))
    core = PPCore(
        program, CoreConfig(mem_latency=rng.randrange(0, 3)),
        RandomStimulus(random.Random(seed + 10_000)), inbox_tasks=inbox,
    )
    core.run()
    spec = SpecSimulator(inbox=inbox)
    spec.run(program)
    assert spec.state.differences(core.architectural_state()) == []
    assert spec.write_log == core.regfile.write_log
