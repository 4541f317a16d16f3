"""Tests for test-vector generation (transition condition mapping)."""

import pytest

from repro.enumeration import enumerate_states
from repro.pp.fsm_model import PPControlModel, PPModelConfig
from repro.pp.isa import InstructionClass, Opcode
from repro.tour import IndexedTourGenerator, arc_coverage
from repro.vectors import VectorGenerator, force_script, pp_instruction_cost


@pytest.fixture(scope="module")
def pipeline():
    control = PPControlModel(PPModelConfig(fill_words=1))
    model = control.build()
    graph, _ = enumerate_states(model)
    cost = pp_instruction_cost(control, graph)
    tours = IndexedTourGenerator(graph, instruction_cost=cost,
                          max_instructions_per_trace=200).generate()
    generator = VectorGenerator(control, graph, seed=11)
    traces = generator.generate(list(tours))
    return control, graph, tours, generator, traces


class TestGeneration:
    def test_tours_cover_all_arcs(self, pipeline):
        _, graph, tours, _, _ = pipeline
        report = arc_coverage(graph, (t.edge_indices for t in tours))
        assert report.complete

    def test_one_trace_per_tour(self, pipeline):
        _, _, tours, _, traces = pipeline
        assert traces.num_traces == tours.stats.num_traces

    def test_instruction_counts_match_cost_function(self, pipeline):
        _, _, tours, _, traces = pipeline
        assert traces.total_instructions == tours.stats.total_instructions

    def test_edge_traversal_accounting(self, pipeline):
        _, _, tours, _, traces = pipeline
        assert traces.total_edge_traversals == tours.stats.total_edge_traversals
        assert traces.longest_trace_edges == tours.stats.longest_trace_edges

    def test_programs_use_only_valid_classes(self, pipeline):
        _, _, _, _, traces = pipeline
        for trace in traces:
            for ins in trace.program:
                assert ins.klass in InstructionClass

    def test_memory_operands_stay_in_pool(self, pipeline):
        _, _, _, generator, traces = pipeline
        pool = set(generator.address_pool)
        for trace in traces:
            for ins in trace.program:
                if ins.opcode in (Opcode.LW, Opcode.SW):
                    assert ins.imm in pool
                    assert ins.rs == 0

    def test_queue_lengths_are_consistent(self, pipeline):
        # Every trace with instructions must have fetch outcomes; hit count
        # in the fetch queue equals the number of fetch events that issued.
        _, _, _, _, traces = pipeline
        for trace in traces:
            assert len(trace.fetch_hits) >= trace.num_instructions > 0 or (
                trace.num_instructions == 0
            )

    def test_deterministic_for_seed(self, pipeline):
        control, graph, tours, _, traces = pipeline
        again = VectorGenerator(control, graph, seed=11).generate(list(tours))
        assert [t.program for t in again] == [t.program for t in traces]

    def test_different_seed_different_fill(self, pipeline):
        control, graph, tours, _, traces = pipeline
        other = VectorGenerator(control, graph, seed=12).generate(list(tours))
        assert [t.program for t in other] != [t.program for t in traces]

    def test_trace_from_edges_single_walk(self, pipeline):
        control, graph, _, generator, _ = pipeline
        walk = [graph.out_edge_indices(0)[0]]
        trace = generator.trace_from_edges(walk)
        assert trace.edges_traversed == 1


class TestConflictRealization:
    def test_conflict_loads_alias_pending_store(self, pipeline):
        # Wherever the tour chose conflict=True, the generated load must
        # target the pending store's line; conflict=False loads must not.
        control, graph, tours, generator, traces = pipeline
        # Validated indirectly: replaying traces through the RTL (done in
        # test_integration) matches the spec, which would break if conflict
        # realization produced incoherent data.  Here check the static
        # property that at least one trace contains a store followed by a
        # load to the same immediate (the conflict scenario exists).
        found = False
        for trace in traces:
            stores = {}
            for ins in trace.program:
                if ins.opcode is Opcode.SW:
                    stores[ins.imm] = True
                elif ins.opcode is Opcode.LW and ins.imm in stores:
                    found = True
        assert found


class TestInstructionCost:
    def test_cost_counts_fetched_instructions_only(self, pipeline):
        control, graph, _, _, _ = pipeline
        cost = pp_instruction_cost(control, graph)
        costs = {cost(e) for e in graph.edges()}
        assert costs <= {0, 1, 2}
        assert 0 in costs  # stall arcs fetch nothing
        assert 1 in costs

    def test_cost_cached(self, pipeline):
        control, graph, _, _, _ = pipeline
        cost = pp_instruction_cost(control, graph)
        edge = graph.edge(0)
        assert cost(edge) == cost(edge)


class TestForceScript:
    def test_script_contains_signals_and_instructions(self, pipeline):
        _, _, _, _, traces = pipeline
        trace = max(traces, key=lambda t: t.num_instructions)
        script = force_script(trace, title="t0")
        assert "force tb.pp.icache.tag_match" in script
        assert "release" in script
        assert f"{trace.num_instructions} instructions" in script

    def test_script_is_textual_verilog_flavour(self, pipeline):
        _, _, _, _, traces = pipeline
        script = force_script(traces.traces[0])
        assert script.startswith("//")
        assert "initial begin" in script
