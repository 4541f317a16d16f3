"""Full validation campaigns: generated vs random vs directed (Table 2.1).

A :class:`ValidationCampaign` builds the whole methodology pipeline once
(control model -> state graph -> transition tours -> vector traces) and
then evaluates any injected-bug configuration under the three strategies,
reporting which method finds which bug and at what simulation cost.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.bugs.catalog import BUGS
from repro.harness.compare import ComparisonResult, run_vector_traces
from repro.harness.directed import directed_tests
from repro.harness.random_testing import random_campaign
from repro.obs.observer import Observer, resolve
from repro.pp.fsm_model import PPModelConfig
from repro.pp.rtl.core import CoreConfig

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
    """Builds the methodology pipeline once; evaluates designs repeatedly.

    Parameters
    ----------
    model_config:
        Control-model scaling (fill words, pipeline depth).
    seed:
        Seed for the biased-random vector fill.
    max_instructions_per_trace:
        The Fig. 3.3 per-trace limit.
    jobs:
        Worker processes, forwarded to the pipeline, whose one worker pool
        serves enumeration, vector generation and trace simulation (``1``
        keeps everything in-process, ``None`` uses every CPU).
    cache_dir / use_cache:
        Persistent artifact cache settings, forwarded to
        :class:`~repro.core.pipeline.ValidationPipeline`.
    observer:
        Observability sink (:class:`repro.obs.Observer`), forwarded to the
        pipeline and wrapped around every bug x method evaluation.
    checkpoint_dir / checkpoint_every / budget / resume:
        Resilience settings forwarded to the pipeline build: enumeration
        checkpoints, resource budgets, and continuing an interrupted
        enumeration.  A budget-truncated build still runs the campaign --
        over the partial trace set -- and ``enum_stats.truncated`` flags
        that the bug-detection numbers cover only the explored fraction.
    """

    def __init__(
        self,
        model_config: Optional[PPModelConfig] = None,
        seed: int = 0,
        max_instructions_per_trace: Optional[int] = 400,
        jobs: Optional[int] = 1,
        cache_dir: Optional[str] = None,
        use_cache: bool = True,
        observer: Optional[Observer] = None,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every: int = 1,
        budget=None,
        resume: bool = False,
        incremental: bool = True,
    ):
        from repro.core.pipeline import ValidationPipeline

        self.model_config = model_config or PPModelConfig(fill_words=2)
        self.seed = seed
        self.obs = resolve(observer)
        self.pipeline = ValidationPipeline(
            model_config=self.model_config,
            max_instructions_per_trace=max_instructions_per_trace,
            seed=seed,
            jobs=jobs,
            cache_dir=cache_dir,
            use_cache=use_cache,
            observer=observer,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every,
            budget=budget,
            incremental=incremental,
        )
        artifacts = self.pipeline.build(resume=resume)
        if artifacts.enumeration.truncated:
            logger.warning(
                "campaign running over a budget-truncated build "
                "(%s exhausted; %.1f%% of discovered states expanded)",
                artifacts.enumeration.budget_outcome,
                100 * artifacts.enumeration.explored_fraction,
            )
        self.control = self.pipeline.control
        self.model = self.control.build()
        self.graph = artifacts.graph
        self.enum_stats = artifacts.enumeration
        self.tours = artifacts.tours
        self.traces = artifacts.traces

    # -- strategies ----------------------------------------------------------------

    def run_generated(
        self, config: CoreConfig, stop_on_detection: bool = True
    ) -> MethodOutcome:
        """Replay every generated trace; detect on first divergence.

        Trace simulations fan across the pipeline's worker pool (when its
        ``jobs`` exceeds one) with the sequential stop-on-detection
        semantics preserved.
        """
        results, diverging = run_vector_traces(
            self.traces, config=config,
            stop_on_divergence=stop_on_detection,
            obs=self.obs,
            pool=self.pipeline.worker_pool(),
        )
        traces = list(self.traces)
        instructions = sum(t.num_instructions for t in traces[: len(results)])
        detecting = diverging[0] if diverging else None
        first: Optional[ComparisonResult] = (
            results[detecting] if detecting is not None else None
        )
        return MethodOutcome(
            method="generated",
            detected=bool(diverging),
            traces_run=len(results),
            instructions_run=instructions,
            detecting_trace=detecting,
            first_divergence=first,
        )

    def run_random(
        self,
        config: CoreConfig,
        instruction_budget: Optional[int] = None,
        trace_length: int = 1000,
    ) -> MethodOutcome:
        """Random testing with the same instruction budget as generated."""
        if instruction_budget is None:
            instruction_budget = self.traces.total_instructions
        num_traces = max(1, instruction_budget // trace_length)
        outcome = random_campaign(
            config, num_traces=num_traces, trace_length=trace_length, seed=self.seed
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
