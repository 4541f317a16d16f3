"""Section 4 extension: squashing branches, measured.

The paper's stated next step ("adding new instruction classes and an
abstract model of the branch outcome determination") and its stated worry
("this situation will worsen when we include squashing branches into the
model, but we are still hopeful that the total number of control states
will remain manageable").  This benchmark measures exactly that: the
state/arc growth from the BR class and branch-outcome choice, tour
coverage of the extended graph, and divergence-free replay of the branch
vectors against the squashing-branch RTL.
"""

import pytest

from repro.enumeration import enumerate_states
from repro.harness.compare import run_vector_trace
from repro.pp.branches import BranchPPControlModel, BranchVectorGenerator
from repro.pp.fsm_model import PPModelConfig, build_pp_control_model
from repro.pp.rtl import CoreConfig
from repro.tour import IndexedTourGenerator
from repro.vectors import pp_instruction_cost


@pytest.fixture(scope="module")
def branch_artifacts():
    control = BranchPPControlModel(PPModelConfig(fill_words=1))
    graph, stats = enumerate_states(control.build())
    cost = pp_instruction_cost(control, graph)
    tours = IndexedTourGenerator(
        graph, instruction_cost=cost, max_instructions_per_trace=300
    ).generate()
    traces = BranchVectorGenerator(control, graph, seed=3).generate(list(tours))
    return control, graph, stats, tours, traces


def test_branch_model_growth(branch_artifacts, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    _, _, stats, tours, _ = branch_artifacts
    _, base = enumerate_states(build_pp_control_model(PPModelConfig(fill_words=1)))
    state_growth = stats.num_states / base.num_states
    edge_growth = stats.num_edges / base.num_edges
    print(
        f"\nsquashing branches: {base.num_states:,} -> {stats.num_states:,} "
        f"states ({state_growth:.2f}x), {base.num_edges:,} -> "
        f"{stats.num_edges:,} arcs ({edge_growth:.2f}x); tours complete: "
        f"{tours.complete}"
    )
    # The paper's hope: growth stays manageable (well under the naive
    # |classes+1|^3 multiplier).
    assert 1.0 < state_growth < 3.0
    assert tours.complete


def test_branch_vectors_sound(branch_artifacts, benchmark):
    control, graph, _, _, traces = branch_artifacts

    def replay_all():
        config = CoreConfig(mem_latency=0, squashing_branches=True)
        return [run_vector_trace(t, config=config) for t in traces]

    results = benchmark.pedantic(replay_all, rounds=1, iterations=1)
    diverged = [i for i, r in enumerate(results) if r.diverged]
    print(f"\nbranch traces replayed: {len(results)}, diverging: {len(diverged)}")
    assert not diverged  # abstract outcomes realized correctly as beq/bne
