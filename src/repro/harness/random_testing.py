"""The biased-random testing baseline (section 1's status quo).

Random instruction streams with realistic event probabilities: cache hits
common, external units usually ready.  The point of the Table 2.1
experiment is that the conjunction of improbable events each Table 2.1 bug
needs almost never occurs under this distribution, so random vectors burn
enormous simulation budgets without reaching the corner cases.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from repro.pp.isa import Instruction, InstructionClass
from repro.pp.rtl.core import CoreConfig
from repro.pp.rtl.stimulus import RandomStimulus
from repro.harness.compare import ComparisonResult, run_trace
from repro.vectors.generator import (
    DEFAULT_ADDRESS_POOL,
    check_address_pool,
    vector_instruction,
)

#: Instruction-class mix of typical protocol code: mostly ALU work, some
#: memory traffic, occasional task switching / message sends.
DEFAULT_CLASS_WEIGHTS = {
    InstructionClass.ALU: 0.55,
    InstructionClass.LD: 0.20,
    InstructionClass.SD: 0.15,
    InstructionClass.SWITCH: 0.05,
    InstructionClass.SEND: 0.05,
}


def random_program(
    rng: random.Random,
    length: int,
    class_weights=None,
    address_pool: Sequence[int] = DEFAULT_ADDRESS_POOL,
) -> List[Instruction]:
    """A random instruction stream with the given class mix.

    Instructions are filled exactly as generated vectors are
    (:func:`~repro.vectors.generator.vector_instruction`), so the two
    methods of Table 2.1 differ only in which classes and forcing they
    pick.  ``address_pool`` is checked the same way too.
    """
    weights = class_weights or DEFAULT_CLASS_WEIGHTS
    pool = check_address_pool(address_pool)
    classes = list(weights)
    probabilities = [weights[c] for c in classes]
    return [
        vector_instruction(rng.choices(classes, probabilities)[0], rng, pool)
        for _ in range(length)
    ]


def random_trace(
    seed: int,
    length: int = 1000,
    config: Optional[CoreConfig] = None,
    stimulus_probabilities: Optional[dict] = None,
) -> ComparisonResult:
    """Run one random test: random program + biased-random forcing."""
    rng = random.Random(seed)
    program = random_program(rng, length)
    stimulus = RandomStimulus(random.Random(seed ^ 0x5EED), **(stimulus_probabilities or {}))
    return run_trace(program, stimulus, config=config)


def random_campaign(
    config: CoreConfig,
    num_traces: int,
    trace_length: int = 1000,
    seed: int = 0,
    stop_on_detection: bool = True,
) -> "RandomCampaignOutcome":
    """Run random traces until a divergence is found or the budget ends."""
    instructions = 0
    for index in range(num_traces):
        result = random_trace(seed + index, trace_length, config=config)
        instructions += trace_length
        if result.diverged:
            return RandomCampaignOutcome(
                detected=True,
                traces_run=index + 1,
                instructions_run=instructions,
                first_divergence=result,
            )
    return RandomCampaignOutcome(
        detected=False, traces_run=num_traces, instructions_run=instructions,
        first_divergence=None,
    )


class RandomCampaignOutcome:
    """Result of a random-testing budget run."""

    def __init__(self, detected, traces_run, instructions_run, first_divergence):
        self.detected = detected
        self.traces_run = traces_run
        self.instructions_run = instructions_run
        self.first_divergence = first_divergence

    def __repr__(self) -> str:
        status = "detected" if self.detected else "missed"
        return (
            f"RandomCampaignOutcome({status} after {self.traces_run} traces, "
            f"{self.instructions_run} instructions)"
        )
