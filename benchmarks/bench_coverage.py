"""Control-coverage experiment: the "measurable degree of confidence".

Section 1 of the paper: hand-written and random tests "fail to provide a
measurable degree of confidence that a complex design is adequately
tested".  The enumerated state graph *is* the measure.  This benchmark
scores the two stimulus strategies by the fraction of enumerated control
states and transition arcs their simulations actually visit, at a
matching instruction budget.

Expected shape: the transition-tour vectors -- constructed to traverse
every arc of the model -- visit a far larger fraction of the RTL's control
space than biased-random testing, whose visits cluster in the
high-probability core.  (Coverage is below 100% because the observer maps
RTL state through the same abstraction the model uses, and cycle-level
skew between the two leaves some arcs unmatched; the unmatched count
quantifies that skew honestly.)
"""

import random

import pytest

from repro.enumeration import enumerate_states
from repro.harness.coverage import ControlStateObserver, run_with_coverage
from repro.harness.random_testing import random_program
from repro.pp.fsm_model import PPControlModel, PPModelConfig
from repro.pp.rtl import CoreConfig, PPCore, RandomStimulus
from repro.pp.rtl.memory import LINE_WORDS
from repro.tour import IndexedTourGenerator
from repro.vectors import VectorGenerator, pp_instruction_cost


@pytest.fixture(scope="module")
def aligned_pipeline():
    # fill_words must equal the RTL line size for counter alignment.
    control = PPControlModel(PPModelConfig(fill_words=LINE_WORDS))
    graph, _ = enumerate_states(control.build())
    cost = pp_instruction_cost(control, graph)
    tours = IndexedTourGenerator(
        graph, instruction_cost=cost, max_instructions_per_trace=400
    ).generate()
    traces = VectorGenerator(control, graph, seed=7).generate(list(tours))
    return control, graph, traces


def _generated_coverage(control, graph, traces):
    observer = ControlStateObserver(control, graph)
    for trace in traces:
        core = PPCore(
            trace.program, CoreConfig(mem_latency=0), trace.stimulus(),
            inbox_tasks=list(range(64)),
        )
        run_with_coverage(core, observer)
    return observer.measurement()


def _random_coverage(control, graph, instruction_budget):
    observer = ControlStateObserver(control, graph)
    for seed in range(max(1, instruction_budget // 1000)):
        program = random_program(random.Random(seed), 1000)
        core = PPCore(
            program, CoreConfig(mem_latency=0),
            RandomStimulus(random.Random(seed + 999)),
            inbox_tasks=list(range(64)),
        )
        run_with_coverage(core, observer)
    return observer.measurement()


def test_generated_vs_random_coverage(aligned_pipeline, benchmark):
    control, graph, traces = aligned_pipeline
    generated = benchmark.pedantic(
        _generated_coverage, args=(control, graph, traces), rounds=1, iterations=1
    )
    randomized = _random_coverage(control, graph, traces.total_instructions)
    print(f"\ngenerated vectors: {generated.summary()}")
    print(f"random vectors:    {randomized.summary()}")
    print(f"abstraction skew (unmatched transitions): generated "
          f"{generated.unmatched_transitions}, random "
          f"{randomized.unmatched_transitions}")
    # Shape: generated coverage dominates on both axes, decisively.
    assert generated.state_coverage > randomized.state_coverage * 1.3
    assert generated.arc_coverage > randomized.arc_coverage * 1.8
    # And it reaches the majority of the enumerated control space.
    assert generated.state_coverage > 0.6


def test_coverage_is_monotone_in_traces(aligned_pipeline, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    control, graph, traces = aligned_pipeline
    observer = ControlStateObserver(control, graph)
    seen = []
    for trace in list(traces)[:10]:
        core = PPCore(
            trace.program, CoreConfig(mem_latency=0), trace.stimulus(),
            inbox_tasks=list(range(64)),
        )
        run_with_coverage(core, observer)
        seen.append(observer.measurement().visited_states)
    assert seen == sorted(seen)
    assert seen[-1] > seen[0]
