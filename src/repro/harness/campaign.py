"""Full validation campaigns: generated vs random vs directed (Table 2.1).

A :class:`ValidationCampaign` evaluates any injected-bug configuration
under the three strategies over one
:class:`~repro.core.pipeline.ValidationPipeline` the caller built
(control model -> state graph -> transition tours -> vector traces),
reporting which method finds which bug and at what simulation cost.
The generated strategy is ``pipeline.validate``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.bugs.catalog import BUGS
from repro.harness.compare import ComparisonResult
from repro.harness.directed import directed_tests
from repro.harness.random_testing import random_campaign
from repro.pp.rtl.core import CoreConfig

if TYPE_CHECKING:
    from repro.core.pipeline import ValidationPipeline

logger = logging.getLogger("repro.harness")


@dataclass
class MethodOutcome:
    """One method's result against one configuration."""

    method: str
    detected: bool
    traces_run: int
    instructions_run: int
    detecting_trace: Optional[int] = None
    first_divergence: Optional[ComparisonResult] = None


@dataclass
class CampaignResult:
    """All methods' outcomes for one (possibly bug-injected) design."""

    bug_id: Optional[int]
    outcomes: Dict[str, MethodOutcome] = field(default_factory=dict)

    @property
    def title(self) -> str:
        if self.bug_id is None:
            return "bug-free design"
        return f"bug #{self.bug_id}: {BUGS[self.bug_id].title}"


class ValidationCampaign:
    """Evaluates designs under the three strategies over one built pipeline.

    Parameters
    ----------
    pipeline:
        A :class:`~repro.core.pipeline.ValidationPipeline` that owns every
        option of the run (model scaling, trace limit, seed, worker pool,
        cache, observer, resilience settings).  Call ``pipeline.build()``
        first to pass build-time arguments (``resume``, ``faults``);
        otherwise the first strategy builds it with the defaults.  A
        budget-truncated build still runs the campaign -- over the partial
        trace set -- and ``pipeline.artifacts.enumeration.truncated`` flags
        that the bug-detection numbers cover only the explored fraction.
        The pipeline's observer wraps every bug x method evaluation.
    """

    def __init__(self, pipeline: ValidationPipeline):
        self.pipeline = pipeline
        self.obs = pipeline.obs

    # -- strategies ----------------------------------------------------------------

    def run_generated(
        self, config: CoreConfig, stop_on_detection: bool = True
    ) -> MethodOutcome:
        """Replay every generated trace; detect on first divergence.

        Runs :meth:`~repro.core.pipeline.ValidationPipeline.validate`, so
        trace simulations fan across the pipeline's worker pool with the
        sequential stop-on-detection semantics preserved.
        """
        report = self.pipeline.validate(config, stop_on_detection)
        detecting = report.diverging_traces[0] if report.diverging_traces else None
        return MethodOutcome(
            method="generated",
            detected=not report.clean,
            traces_run=report.traces_run,
            instructions_run=sum(r.instructions for r in report.results),
            detecting_trace=detecting,
            first_divergence=(
                report.results[detecting] if detecting is not None else None
            ),
        )

    def run_random(
        self,
        config: CoreConfig,
        instruction_budget: Optional[int] = None,
        trace_length: int = 1000,
    ) -> MethodOutcome:
        """Random testing with the same instruction budget as generated."""
        if instruction_budget is None:
            instruction_budget = self.pipeline.artifacts.traces.total_instructions
        num_traces = max(1, instruction_budget // trace_length)
        outcome = random_campaign(
            config, num_traces=num_traces, trace_length=trace_length,
            seed=self.pipeline.seed,
        )
        return MethodOutcome(
            method="random",
            detected=outcome.detected,
            traces_run=outcome.traces_run,
            instructions_run=outcome.instructions_run,
            detecting_trace=outcome.traces_run - 1 if outcome.detected else None,
            first_divergence=outcome.first_divergence,
        )

    def run_directed(self, config: CoreConfig) -> MethodOutcome:
        """The hand-written suite."""
        instructions = 0
        for index, test in enumerate(directed_tests()):
            result = test.run(config)
            instructions += len(test.program)
            if result.diverged:
                return MethodOutcome(
                    method="directed",
                    detected=True,
                    traces_run=index + 1,
                    instructions_run=instructions,
                    detecting_trace=index,
                    first_divergence=result,
                )
        return MethodOutcome(
            method="directed",
            detected=False,
            traces_run=len(directed_tests()),
            instructions_run=instructions,
        )

    # -- the Table 2.1 experiment ---------------------------------------------------

    def evaluate_bug(
        self,
        bug_id: Optional[int],
        methods: Sequence[str] = ("generated", "random", "directed"),
        base_config: Optional[CoreConfig] = None,
    ) -> CampaignResult:
        config = base_config or CoreConfig(mem_latency=0)
        if bug_id is not None:
            config = config.with_bugs(bug_id)
        bug_label = "clean" if bug_id is None else str(bug_id)
        runners = {
            "generated": self.run_generated,
            "random": self.run_random,
            "directed": self.run_directed,
        }
        result = CampaignResult(bug_id=bug_id)
        with self.obs.span("campaign.bug", bug=bug_label):
            for method in ("generated", "random", "directed"):
                if method not in methods:
                    continue
                self.obs.heartbeat("campaign", bug=bug_label, method=method)
                with self.obs.span("campaign.method", method=method, bug=bug_label):
                    outcome = runners[method](config)
                result.outcomes[method] = outcome
                self.obs.heartbeat(
                    "campaign", bug=bug_label, method=method,
                    detected=outcome.detected,
                    instructions=outcome.instructions_run,
                )
                self.obs.inc("campaign.evaluations", method=method)
                self.obs.observe(
                    "campaign.instructions_run",
                    outcome.instructions_run,
                    method=method,
                )
                if outcome.detected:
                    self.obs.inc("campaign.detections", method=method)
                logger.info(
                    "campaign bug=%s method=%s: %s after %d traces / %d instructions",
                    bug_label, method,
                    "detected" if outcome.detected else "missed",
                    outcome.traces_run, outcome.instructions_run,
                )
        return result

    def evaluate_all_bugs(
        self, methods: Sequence[str] = ("generated", "random", "directed")
    ) -> List[CampaignResult]:
        return [self.evaluate_bug(bug_id, methods=methods) for bug_id in sorted(BUGS)]
