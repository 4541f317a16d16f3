"""Tests for the squashing-branch extension (paper section 4 future work)."""

import pytest

from repro.enumeration import enumerate_states
from repro.harness.compare import run_trace, run_vector_trace
from repro.pp.asm import assemble
from repro.pp.branches import (
    BR_FETCH_CLASSES,
    BranchPPControlModel,
    BranchVectorGenerator,
)
from repro.pp.fsm_model import PPModelConfig, build_pp_control_model
from repro.pp.rtl import CoreConfig, NaturalStimulus, PPCore
from repro.tour import IndexedTourGenerator
from repro.vectors import pp_instruction_cost

SQUASH_CFG = CoreConfig(mem_latency=0, squashing_branches=True)


class TestRtlSquashing:
    def test_taken_branch_squashes_fall_through(self):
        program = assemble(
            """
            beq r0, r0, skip
            addi r2, r0, 2
            skip: addi r3, r0, 3
            """
        )
        core = PPCore(program, SQUASH_CFG, NaturalStimulus(), trace=True)
        core.run()
        rtl = core.architectural_state()
        assert rtl.regs[2] == 0  # squashed
        assert rtl.regs[3] == 3
        assert any(e.name == "branch_squash" for e in core.events)

    def test_not_taken_branch_keeps_fall_through(self):
        program = assemble(
            """
            addi r1, r0, 1
            beq r1, r0, skip
            addi r2, r0, 2
            skip: addi r3, r0, 3
            """
        )
        result = run_trace(program, NaturalStimulus(), config=SQUASH_CFG)
        assert result.clean

    def test_squashing_matches_non_squashing_architecturally(self):
        program = assemble(
            """
            addi r1, r0, 3
            loop: addi r2, r2, 10
            addi r1, r1, -1
            bne r1, r0, loop
            addi r3, r2, 1
            """
        )
        squash = PPCore(program, SQUASH_CFG, NaturalStimulus())
        squash.run()
        stall = PPCore(
            program, CoreConfig(mem_latency=0, squashing_branches=False),
            NaturalStimulus(),
        )
        stall.run()
        assert squash.architectural_state().regs == stall.architectural_state().regs
        assert squash.architectural_state().regs[2] == 30

    def test_squashing_against_spec(self):
        program = assemble(
            """
            addi r1, r0, 2
            loop: sw r1, 0x10(r0)
            lw r2, 0x10(r0)
            addi r1, r1, -1
            bne r1, r0, loop
            send r2
            """
        )
        result = run_trace(program, NaturalStimulus(), config=SQUASH_CFG)
        assert result.clean, result.describe()


@pytest.fixture(scope="module")
def branch_pipeline():
    control = BranchPPControlModel(PPModelConfig(fill_words=1))
    model = control.build()
    graph, stats = enumerate_states(model)
    cost = pp_instruction_cost(control, graph)
    tours = IndexedTourGenerator(
        graph, instruction_cost=cost, max_instructions_per_trace=300
    ).generate()
    traces = BranchVectorGenerator(control, graph, seed=3).generate(list(tours))
    return control, graph, stats, tours, traces


class TestBranchModel:
    def test_br_class_added(self, branch_pipeline):
        control, _, _, _, _ = branch_pipeline
        assert "BR" in BR_FETCH_CLASSES
        assert "branch_taken" in control.choice_names

    def test_more_states_than_base_model(self, branch_pipeline):
        _, _, stats, _, _ = branch_pipeline
        _, base = enumerate_states(build_pp_control_model(PPModelConfig(fill_words=1)))
        assert stats.num_states > base.num_states
        assert stats.num_edges > base.num_edges

    def test_tours_complete(self, branch_pipeline):
        _, _, _, tours, _ = branch_pipeline
        assert tours.complete

    def test_branch_vectors_replay_cleanly(self, branch_pipeline):
        # The extension's soundness check: every generated trace, with the
        # abstract branch outcomes realized as real beq/bne instructions,
        # matches the specification on the squashing-branch RTL.
        _, _, _, _, traces = branch_pipeline
        for index, trace in enumerate(traces):
            result = run_vector_trace(trace, config=SQUASH_CFG)
            assert result.clean, f"trace {index}: {result.describe()}"

    def test_traces_contain_real_branches(self, branch_pipeline):
        _, _, _, _, traces = branch_pipeline
        from repro.pp.isa import Opcode

        opcodes = {
            ins.opcode for trace in traces for ins in trace.program
        }
        assert Opcode.BEQ in opcodes  # taken outcomes realized
        assert Opcode.BNE in opcodes  # not-taken outcomes realized


class TestModelRouting:
    """``model_branches`` must route to the branch model everywhere.

    Constructing ``PPControlModel`` directly silently drops the flag, so
    every consumer that takes an arbitrary config goes through
    ``pp_control_model`` / ``build_pp_control_model``.
    """

    def test_factory_routes_branch_configs(self):
        from repro.pp.fsm_model import PPControlModel, pp_control_model

        branch_cfg = PPModelConfig(fill_words=1, model_branches=True)
        assert isinstance(pp_control_model(branch_cfg), BranchPPControlModel)
        plain = pp_control_model(PPModelConfig(fill_words=1))
        assert type(plain) is PPControlModel

    def test_build_includes_branch_choices(self):
        model = build_pp_control_model(
            PPModelConfig(fill_words=1, model_branches=True)
        )
        assert "branch_taken" in model.choice_names

    def test_pipeline_uses_branch_model(self):
        from repro.core.pipeline import ValidationPipeline

        pipeline = ValidationPipeline(
            model_config=PPModelConfig(fill_words=1, model_branches=True)
        )
        assert isinstance(pipeline.control, BranchPPControlModel)
