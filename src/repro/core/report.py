"""Reporting for validation runs and Table 2.1-style method comparisons."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.enumeration import EnumerationStats
from repro.harness.campaign import CampaignResult
from repro.harness.compare import ComparisonResult
from repro.pp.rtl.core import CoreConfig
from repro.tour.fig33 import TourStats


@dataclass
class ValidationReport:
    """Outcome of a full validation run against one design configuration."""

    config: CoreConfig
    traces_run: int
    total_traces: int
    diverging_traces: List[int]
    results: List[ComparisonResult]
    enumeration: EnumerationStats
    tour_stats: TourStats
    #: True when the pipeline artifacts were loaded from the on-disk cache
    #: rather than rebuilt (enumeration + tours + vectors skipped).
    from_cache: bool = False
    #: Traces among the ``traces_run`` whose result came from the cache's
    #: verdict table instead of a simulation.
    reused_traces: int = 0

    @property
    def clean(self) -> bool:
        return not self.diverging_traces

    def summary(self) -> str:
        header = (
            f"Validation of design (bugs={sorted(self.config.bugs) or 'none'}): "
            f"{self.traces_run}/{self.total_traces} traces run"
        )
        if self.clean:
            return header + " -- no divergence (design matches specification)"
        lines = [header + f" -- {len(self.diverging_traces)} diverging trace(s)"]
        for index in self.diverging_traces[:5]:
            lines.append(f"  trace {index}: {self.results[index].describe()}")
        if len(self.diverging_traces) > 5:
            lines.append(f"  ... and {len(self.diverging_traces) - 5} more")
        return "\n".join(lines)


def format_campaign_table(results: Sequence[CampaignResult]) -> str:
    """Render a Table 2.1-style matrix: bug x method -> found / missed.

    Method columns are derived from the results (first-seen order), so a
    campaign run with a new or restricted method set renders its actual
    outcomes instead of silently showing ``-`` under hardcoded columns.
    """
    methods: List[str] = []
    for result in results:
        for method in result.outcomes:
            if method not in methods:
                methods.append(method)
    if not methods:
        methods = ["generated", "random", "directed"]
    lines = [
        f"{'Bug':<6}" + "".join(f"{m:>22}" for m in methods),
    ]
    for result in results:
        cells = []
        for method in methods:
            outcome = result.outcomes.get(method)
            if outcome is None:
                cells.append(f"{'-':>22}")
            elif outcome.detected:
                cells.append(f"{'FOUND (%d instr)' % outcome.instructions_run:>22}")
            else:
                cells.append(f"{'missed (%d instr)' % outcome.instructions_run:>22}")
        label = "clean" if result.bug_id is None else f"#{result.bug_id}"
        lines.append(f"{label:<6}" + "".join(cells))
    return "\n".join(lines)
