"""Pins and oracles for biased-random instruction emission.

- Absolute SHA-256 pins of the generated vectors (base model through the
  pipeline, branch-extended model in process and on a worker pool) and
  of the Table 2.1 random baseline program: the other identity tests
  compare generation paths against each other, so only these notice a
  change to the RNG stream itself.
- The emission oracle: the straightforward ``random_instruction`` plus
  memory-operand re-draw, kept here verbatim, against the single-build
  emission the generator uses.
- Address-pool validation.
"""

import hashlib
import json
import pickle
import random

import pytest

from repro.core.pipeline import ValidationPipeline
from repro.enumeration import WorkerPool, enumerate_states
from repro.harness.random_testing import random_program
from repro.obs import MetricsRegistry, Observer
from repro.pp.branches import BranchPPControlModel, BranchVectorGenerator
from repro.pp.fsm_model import PPModelConfig
from repro.pp.isa import (
    NUM_REGS,
    OPCODES_BY_CLASS,
    R_FORMAT,
    X_FORMAT,
    Instruction,
    InstructionClass,
    Opcode,
    random_instruction,
)
from repro.tour import IndexedTourGenerator
from repro.vectors.generator import (
    DEFAULT_ADDRESS_POOL,
    VectorGenerator,
    pp_instruction_cost,
    vector_instruction,
)

#: ``TraceSet.to_json()`` of the seed-0 pipeline at fill_words=1.
TRACES_FW1_SHA256 = "c6b136c2eec3b38a490ec5c00890017b9393f304950368b0f2075054db97b1b8"
#: Same at fill_words=2, limit 400 (``bench/golden.json`` cold-verdict).
TRACES_FW2_SHA256 = "9ad680e7694ad20b7b3e61ed45fd57e77a817e34bb4047940ccb6645c2b6003d"
#: ``BranchVectorGenerator(seed=3)`` over the fill_words=1 branch model's
#: indexed tours (limit 300): 113 traces, 33,936 instructions.
BRANCH_TRACES_FW1_SHA256 = "3bf2fe0fb21d4322094e8abcff560be63fe1b1fa998c5d5ab2061e6a32831fb4"
#: ``random_program(random.Random(0), 1000)`` flattened to field lists.
RANDOM_PROGRAM_SHA256 = "9a28299881267023659e5281aada551d6802803b290752f9dd7a72b08abdde81"


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def fields(program):
    return [[int(i.opcode), i.rd, i.rs, i.rt, i.imm] for i in program]


@pytest.fixture(scope="module")
def branch_tours():
    control = BranchPPControlModel(PPModelConfig(fill_words=1))
    graph, _ = enumerate_states(control.build())
    tours = IndexedTourGenerator(
        graph, instruction_cost=pp_instruction_cost(control, graph),
        max_instructions_per_trace=300,
    ).generate()
    return control, graph, list(tours)


class TestPinnedDigests:
    @pytest.mark.parametrize("fill_words, expected", [
        (1, TRACES_FW1_SHA256),
        (2, TRACES_FW2_SHA256),
    ])
    def test_pipeline_traces(self, fill_words, expected):
        pipeline = ValidationPipeline(
            PPModelConfig(fill_words=fill_words), max_instructions_per_trace=400,
            seed=0, jobs=1, use_cache=False,
        )
        assert sha256(pipeline.build().traces.to_json()) == expected

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_branch_traces(self, branch_tours, jobs):
        control, graph, tours = branch_tours
        metrics = MetricsRegistry()
        pool = WorkerPool(jobs) if jobs > 1 else None
        try:
            traces = BranchVectorGenerator(control, graph, seed=3).generate(
                tours, obs=Observer(metrics=metrics), pool=pool
            )
        finally:
            if pool is not None:
                pool.shutdown()
        assert metrics.gauge_value("vectors.workers") == jobs
        assert traces.num_traces == 113
        assert traces.total_instructions == 33936
        assert sha256(traces.to_json()) == BRANCH_TRACES_FW1_SHA256

    def test_random_baseline_program(self):
        program = random_program(random.Random(0), 1000)
        assert sha256(json.dumps(fields(program))) == RANDOM_PROGRAM_SHA256


# -- the emission oracle -------------------------------------------------------


def oracle_random_instruction(klass, rng, address_pool=None):
    """``random_instruction`` as it was, building through the validated
    constructor."""
    opcode = rng.choice(OPCODES_BY_CLASS[klass])
    rd = rng.randrange(1, NUM_REGS)
    rs = rng.randrange(0, NUM_REGS)
    if opcode in R_FORMAT:
        return Instruction(opcode, rd=rd, rs=rs, rt=rng.randrange(0, NUM_REGS))
    if opcode in X_FORMAT:
        return Instruction(opcode, rd=rd, rs=rs)
    if opcode in (Opcode.LW, Opcode.SW):
        if address_pool:
            offset = rng.choice(address_pool)
        else:
            offset = rng.randrange(0, 1 << 8) & ~0x3  # word-aligned
        return Instruction(opcode, rd=rd, rs=0, imm=offset)
    return Instruction(opcode, rd=rd, rs=rs, imm=rng.randrange(-(1 << 15), 1 << 15))


def oracle_vector_instruction(klass, rng, address_pool):
    """The generator's emission as it was: a random instruction, then a
    rebuilt load/store with rs=r0 and a second pool draw."""
    instruction = oracle_random_instruction(klass, rng, address_pool=address_pool)
    if klass in (InstructionClass.LD, InstructionClass.SD):
        instruction = Instruction(
            instruction.opcode,
            rd=instruction.rd,
            rs=0,
            imm=rng.choice(address_pool),
        )
    return instruction


POOL = list(DEFAULT_ADDRESS_POOL)
DRAWS = 1000


def draw(emit, klass, *args):
    rng = random.Random(2024)
    return [emit(klass, rng, *args) for _ in range(DRAWS)], rng.getstate()


def assert_same_instructions(got, expected):
    assert got == expected
    assert [hash(i) for i in got] == [hash(i) for i in expected]
    assert pickle.dumps(got) == pickle.dumps(expected)


@pytest.mark.parametrize("klass", list(InstructionClass))
class TestEmissionOracle:
    def test_vector_instruction(self, klass):
        got, got_state = draw(vector_instruction, klass, POOL)
        expected, expected_state = draw(oracle_vector_instruction, klass, POOL)
        assert_same_instructions(got, expected)
        assert got_state == expected_state

    @pytest.mark.parametrize("pool", [None, POOL], ids=["no-pool", "pool"])
    def test_random_instruction(self, klass, pool):
        got, got_state = draw(random_instruction, klass, pool)
        expected, expected_state = draw(oracle_random_instruction, klass, pool)
        assert_same_instructions(got, expected)
        assert got_state == expected_state

    def test_emitted_behave_like_constructed(self, klass):
        emitted, _ = draw(vector_instruction, klass, POOL)
        constructed = [Instruction(i.opcode, i.rd, i.rs, i.rt, i.imm) for i in emitted]
        assert_same_instructions(emitted, constructed)
        # The trusted constructor sets the fields in the same order.
        assert [list(vars(i)) for i in emitted] == [list(vars(i)) for i in constructed]

    def test_decode_behaves_like_constructed(self, klass):
        emitted, _ = draw(vector_instruction, klass, POOL)
        decoded = [Instruction.decode(i.encode()) for i in emitted]
        assert_same_instructions(decoded, emitted)


# -- address pools -------------------------------------------------------------

DEGENERATE_POOLS = [(), (0,), (64, 64), (0, 1 << 15), (-(1 << 15) - 1, 0)]


@pytest.fixture(scope="module")
def fw1():
    pipeline = ValidationPipeline(PPModelConfig(fill_words=1), seed=0, jobs=1,
                                  use_cache=False)
    artifacts = pipeline.build()
    return pipeline.control, artifacts.graph, list(artifacts.tours)


class TestAddressPool:
    @pytest.mark.parametrize("pool", DEGENERATE_POOLS)
    def test_generator_rejects_degenerate_pool(self, fw1, pool):
        control, graph, _ = fw1
        with pytest.raises(ValueError, match="address_pool"):
            VectorGenerator(control, graph, address_pool=pool)

    @pytest.mark.parametrize("pool", DEGENERATE_POOLS)
    def test_random_program_rejects_degenerate_pool(self, pool):
        with pytest.raises(ValueError, match="address_pool"):
            random_program(random.Random(0), 10, address_pool=pool)

    def test_two_addresses_are_enough(self, fw1):
        control, graph, tours = fw1
        pool = (0, 64)
        traces = VectorGenerator(control, graph, address_pool=pool).generate(tours)
        memory_ops = [ins for trace in traces for ins in trace.program
                      if ins.opcode in (Opcode.LW, Opcode.SW)]
        assert memory_ops
        assert {ins.imm for ins in memory_ops} <= set(pool)
        program = random_program(random.Random(0), 200, address_pool=pool)
        assert {ins.imm for ins in program
                if ins.opcode in (Opcode.LW, Opcode.SW)} <= set(pool)
