#!/usr/bin/env python
"""Bug hunt: inject a Table 2.1 bug and watch the three methods compete.

Reproduces one row of the Table 2.1 experiment interactively: pick a bug
(1-6), inject it into the RTL model, and compare how the generated
transition-tour vectors, biased-random testing, and the hand-written
directed suite fare against it.

Usage::

    python examples/bug_hunt.py          # hunts bug 5 (the paper's example)
    python examples/bug_hunt.py 3        # hunts bug 3
"""

import sys

from repro.bugs import BUGS
from repro.bugs.scenarios import bug_scenarios
from repro.core import ValidationPipeline
from repro.harness.campaign import ValidationCampaign
from repro.pp.fsm_model import PPModelConfig
from repro.pp.rtl.core import CoreConfig


def main() -> None:
    bug_id = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    bug = BUGS[bug_id]
    print(f"hunting bug #{bug_id}: {bug.title}")
    print(f"  requires: {bug.trigger}\n")

    print("building the methodology pipeline (enumerate, tour, vectors)...")
    pipeline = ValidationPipeline(
        model_config=PPModelConfig(fill_words=2),
        seed=7,
        max_instructions_per_trace=400,
    )
    artifacts = pipeline.build()
    print(f"  {artifacts.enumeration.num_states:,} control states, "
          f"{artifacts.enumeration.num_edges:,} arcs, "
          f"{artifacts.traces.num_traces} traces, "
          f"{artifacts.traces.total_instructions:,} instructions\n")

    campaign = ValidationCampaign(pipeline)

    config = CoreConfig(mem_latency=0).with_bugs(bug_id)
    for method in ("generated", "random", "directed"):
        if method == "generated":
            outcome = campaign.run_generated(config)
        elif method == "random":
            outcome = campaign.run_random(config, instruction_budget=20_000)
        else:
            outcome = campaign.run_directed(config)
        verdict = "FOUND" if outcome.detected else "missed"
        print(f"{method:>10}: {verdict:>6} after {outcome.traces_run} traces / "
              f"{outcome.instructions_run:,} instructions")
        if outcome.detected and outcome.first_divergence:
            print(f"{'':>12}{outcome.first_divergence.describe()}")

    scenario = bug_scenarios()[bug_id]
    print(f"\nminimal distilled trigger ({scenario.name}):")
    print(f"  {scenario.events}")


if __name__ == "__main__":
    main()
