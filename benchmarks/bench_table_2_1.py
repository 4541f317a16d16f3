"""Table 2.1 -- Synopsis of discovered bugs.

The paper reports six "multiple event" bugs found in the mature PP design
by the generated vectors but not (yet) by hand-written or random testing.
The reproduction injects each catalog bug and compares three strategies:

- **generated**: the transition-tour vectors (the paper's method),
- **random**: biased-random programs + realistic event probabilities, at
  a matching instruction budget,
- **directed**: the hand-written feature-at-a-time suite.

Shape to reproduce: generated finds 6/6; random and directed find strictly
fewer within the same budget.
"""

from repro.bugs import ALL_BUG_IDS, BUGS
from repro.core.report import format_campaign_table
from repro.harness.campaign import CampaignResult
from repro.pp.rtl.core import CoreConfig


def _evaluate_all(campaign, random_budget):
    results = []
    for bug_id in ALL_BUG_IDS:
        config = CoreConfig(mem_latency=0).with_bugs(bug_id)
        result = CampaignResult(bug_id=bug_id)
        result.outcomes["generated"] = campaign.run_generated(config)
        result.outcomes["random"] = campaign.run_random(
            config, instruction_budget=random_budget
        )
        result.outcomes["directed"] = campaign.run_directed(config)
        results.append(result)
    return results


def test_table_2_1(campaign, benchmark):
    random_budget = min(
        20_000, campaign.pipeline.artifacts.traces.total_instructions
    )
    results = benchmark.pedantic(
        _evaluate_all, args=(campaign, random_budget), rounds=1, iterations=1
    )
    print("\nTable 2.1 reproduction -- bug detection by method")
    print(format_campaign_table(results))
    for result in results:
        bug = BUGS[result.bug_id]
        print(f"  #{result.bug_id}: {bug.title}")

    generated_found = sum(r.outcomes["generated"].detected for r in results)
    random_found = sum(r.outcomes["random"].detected for r in results)
    directed_found = sum(r.outcomes["directed"].detected for r in results)
    print(
        f"\ngenerated {generated_found}/6, random {random_found}/6, "
        f"directed {directed_found}/6 (budget {random_budget} instructions)"
    )
    # Paper shape: the generated vectors find every multiple-event bug...
    assert generated_found == len(ALL_BUG_IDS)
    # ...while the status-quo methods find strictly fewer.
    assert random_found < generated_found
    assert directed_found < generated_found


def test_clean_design_no_false_positives(campaign, benchmark):
    outcome = benchmark.pedantic(
        campaign.run_generated, args=(CoreConfig(mem_latency=0),),
        kwargs={"stop_on_detection": False}, rounds=1, iterations=1,
    )
    assert not outcome.detected
    assert outcome.traces_run == campaign.pipeline.artifacts.traces.num_traces
