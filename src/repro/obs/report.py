"""The unified machine-readable run report.

A validation run's observable outputs were scattered -- Table 3.2 stats
on stdout, divergences in a :class:`~repro.core.report.ValidationReport`,
cache provenance in pipeline attributes, timings nowhere.  A
:class:`RunReport` gathers all of it into one JSON document (schema
:data:`RUN_REPORT_SCHEMA`) that ``--metrics-out`` writes and the
``repro report`` CLI subcommand renders back into the human tables,
including Fig 4.1-style coverage-curve data (cumulative arcs covered vs
instructions simulated, one point per generated trace).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from repro.enumeration.stats import EnumerationStats
from repro.obs.observer import Observer, PhaseTiming
from repro.resilience.atomic import atomic_write_text

#: Report format version; embedded in every document.
RUN_REPORT_SCHEMA = "repro.run-report/1"


@dataclass
class RunReport:
    """Everything one pipeline run produced, as one JSON-able document."""

    command: str
    config: Dict[str, Any] = field(default_factory=dict)
    enumeration: Optional[Dict[str, Any]] = None
    tour_stats: Optional[Dict[str, Any]] = None
    comparison: Optional[Dict[str, Any]] = None
    campaign: Optional[List[Dict[str, Any]]] = None
    cache: Dict[str, Any] = field(default_factory=dict)
    phases: List[Dict[str, Any]] = field(default_factory=list)
    coverage_curve: List[Dict[str, Any]] = field(default_factory=list)
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: Resilience outcome of the run: budget truncation (with coverage of
    #: the discovered state space), checkpoint/resume provenance, and what
    #: worker-crash recovery had to do.  Derived from the enumeration stats
    #: when not supplied explicitly.
    resilience: Dict[str, Any] = field(default_factory=dict)
    #: Performance observability: resource-sampler timeline summary
    #: (peak/mean RSS and CPU), sampling-profiler facts, and heartbeat
    #: channel provenance.  Populated from
    #: :meth:`Observer.perf_summary` when those sinks were attached.
    perf: Dict[str, Any] = field(default_factory=dict)
    schema: str = RUN_REPORT_SCHEMA

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_observer(
        cls, command: str, observer: Observer, **fields: Any
    ) -> "RunReport":
        """A report carrying the observer's phases + metrics plus ``fields``."""
        if fields.get("enumeration") and "resilience" not in fields:
            fields["resilience"] = _derive_resilience(fields["enumeration"])
        fields.setdefault("perf", observer.perf_summary())
        return cls(
            command=command,
            phases=_phase_rows(observer),
            metrics=observer.metrics.snapshot(),
            **fields,
        )

    @classmethod
    def from_validation(
        cls,
        validation,  # repro.core.report.ValidationReport
        pipeline,  # repro.core.pipeline.ValidationPipeline
        config: Optional[Dict[str, Any]] = None,
    ) -> "RunReport":
        """The ``validate`` document: ``validation`` plus what ``pipeline``
        built and observed (phases, metrics, coverage curve, cache)."""
        from repro.tour.coverage import coverage_curve

        comparison = {
            "traces_run": validation.traces_run,
            "total_traces": validation.total_traces,
            "reused_traces": validation.reused_traces,
            "diverging_traces": list(validation.diverging_traces),
            "clean": validation.clean,
            "per_trace": [
                {
                    "instructions": r.instructions,
                    "cycles": r.cycles,
                    "diverged": r.diverged,
                    "deadlocked": r.deadlocked,
                }
                for r in validation.results
            ],
            "divergence_sites": [
                {"trace": index, "detail": validation.results[index].describe()}
                for index in validation.diverging_traces
            ],
        }
        artifacts = pipeline.artifacts
        curve = [
            dataclasses.asdict(point)
            for point in coverage_curve(artifacts.graph, artifacts.tours)
        ]
        return cls._from_pipeline(
            "validate", pipeline, config,
            enumeration=dataclasses.asdict(validation.enumeration),
            tour_stats=dataclasses.asdict(validation.tour_stats),
            comparison=comparison,
            coverage_curve=curve,
        )

    @classmethod
    def from_campaign(
        cls,
        results,  # Sequence[repro.harness.campaign.CampaignResult]
        pipeline,  # repro.core.pipeline.ValidationPipeline
        config: Optional[Dict[str, Any]] = None,
    ) -> "RunReport":
        """The ``campaign`` document: Table 2.1 ``results`` plus what
        ``pipeline`` built and observed."""
        campaign = [
            {
                "bug_id": result.bug_id,
                "outcomes": {
                    method: {
                        "detected": outcome.detected,
                        "traces_run": outcome.traces_run,
                        "instructions_run": outcome.instructions_run,
                        "detecting_trace": outcome.detecting_trace,
                    }
                    for method, outcome in result.outcomes.items()
                },
            }
            for result in results
        ]
        artifacts = pipeline.artifacts
        return cls._from_pipeline(
            "campaign", pipeline, config,
            enumeration=dataclasses.asdict(artifacts.enumeration),
            tour_stats=dataclasses.asdict(artifacts.tours.stats),
            campaign=campaign,
        )

    @classmethod
    def _from_pipeline(
        cls, command: str, pipeline, config: Optional[Dict[str, Any]],
        **fields: Any,
    ) -> "RunReport":
        """The sections every pipeline run shares: cache provenance,
        resilience, and -- when the pipeline has a real observer -- its
        phases, metrics and perf summary."""
        observer = pipeline.obs if pipeline.obs.enabled else None
        return cls(
            command=command,
            config=dict(config or {}),
            cache=pipeline.cache_info,
            phases=_phase_rows(observer),
            metrics=observer.metrics.snapshot() if observer is not None else {},
            resilience=_derive_resilience(fields["enumeration"]),
            perf=observer.perf_summary() if observer is not None else {},
            **fields,
        )

    # -- (de)serialization -----------------------------------------------------

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(dataclasses.asdict(self), indent=indent, sort_keys=True)

    def write(self, path: str) -> None:
        # Atomic so an interrupted run never leaves a truncated report --
        # downstream tooling either sees the old document or the new one.
        atomic_write_text(path, self.to_json())

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        payload = json.loads(text)
        if payload.get("schema") != RUN_REPORT_SCHEMA:
            raise ValueError(
                f"not a run report (schema {payload.get('schema')!r}, "
                f"expected {RUN_REPORT_SCHEMA!r})"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in known})

    @classmethod
    def load(cls, path: str) -> "RunReport":
        with open(path) as handle:
            return cls.from_json(handle.read())

    # -- analysis --------------------------------------------------------------

    def phase_coverage(self) -> float:
        """Fraction of root-span wall time covered by depth-1 child spans."""
        roots = [p for p in self.phases if p["depth"] == 0]
        children = [p for p in self.phases if p["depth"] == 1]
        total = sum(p["wall"] for p in roots)
        if not total or not children:
            return 1.0 if not children else 0.0
        return min(1.0, sum(p["wall"] for p in children) / total)

    def total_wall_seconds(self) -> float:
        return sum(p["wall"] for p in self.phases if p["depth"] == 0)

    # -- human rendering -------------------------------------------------------

    def render(self) -> str:
        """The human tables the JSON document subsumes."""
        sections: List[str] = [f"Run report -- repro {self.command}"]
        if self.config:
            pairs = ", ".join(f"{k}={v}" for k, v in sorted(self.config.items()))
            sections.append(f"  config: {pairs}")
        if self.cache:
            sections.append(f"  cache: {_render_cache(self.cache)}")
        if self.enumeration:
            sections.append("")
            sections.append(EnumerationStats(**self.enumeration).format_table())
            kernel = _render_kernel(self.enumeration, self.metrics)
            if kernel:
                sections.append(kernel)
        if self.tour_stats:
            sections.append("")
            sections.append(_render_tours(self.tour_stats, self.metrics))
        if self.comparison:
            sections.append("")
            sections.append(_render_comparison(self.comparison))
        if self.campaign:
            sections.append("")
            sections.append(_render_campaign(self.campaign))
        if self.resilience:
            sections.append("")
            sections.append(_render_resilience(self.resilience))
        pool = _render_pool(self.metrics)
        if pool:
            sections.append("")
            sections.append(pool)
        if self.coverage_curve:
            sections.append("")
            sections.append(_render_curve(self.coverage_curve))
        if self.perf:
            sections.append("")
            sections.append(_render_perf(self.perf))
        if self.phases:
            sections.append("")
            sections.append(self._render_phases())
        return "\n".join(sections)

    def _render_phases(self) -> str:
        total = self.total_wall_seconds() or 1.0
        lines = ["Per-phase timing"]
        lines.append(f"  {'phase':<44} {'wall (s)':>10} {'cpu (s)':>10} {'%':>6}")
        for row in self.phases:
            indent = "  " * row["depth"]
            name = indent + row["name"]
            attrs = row.get("attrs")
            if attrs:
                pairs = ",".join(f"{k}={v}" for k, v in sorted(attrs.items()))
                name = f"{name}({pairs})"
            name = name[:44]
            lines.append(
                f"  {name:<44} {row['wall']:>10.3f} {row['cpu']:>10.3f} "
                f"{100.0 * row['wall'] / total:>5.1f}%"
            )
        lines.append(f"  span coverage of root wall time: "
                     f"{100.0 * self.phase_coverage():.1f}%")
        return "\n".join(lines)


def _phase_rows(observer: Optional[Observer]) -> List[Dict[str, Any]]:
    if observer is None:
        return []
    # Completion order is children-before-parents; start order reads better.
    ordered = sorted(observer.phases, key=lambda p: (p.start, -p.depth))
    return [
        {
            "name": p.name,
            "depth": p.depth,
            "start": p.start,
            "wall": p.wall,
            "cpu": p.cpu,
            "attrs": dict(p.attrs),
        }
        for p in ordered
    ]


def _derive_resilience(enumeration: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """The report's resilience section, computed from enumeration stats.

    Tolerates pre-resilience enumeration dicts (the new stats fields all
    default) and returns ``{}`` when there is nothing to report.
    """
    if not enumeration:
        return {}
    try:
        stats = EnumerationStats(**enumeration)
    except TypeError:
        return {}
    return {
        "truncated": stats.truncated,
        "budget_outcome": stats.budget_outcome,
        "frontier_remaining": stats.frontier_remaining,
        "explored_fraction": stats.explored_fraction,
        "resumed": stats.resumed,
        "checkpoints_written": stats.checkpoints_written,
        "shards_retried": stats.shards_retried,
        "pool_respawns": stats.pool_respawns,
        "degraded": stats.degraded,
    }


def _render_resilience(resilience: Mapping[str, Any]) -> str:
    lines = ["Resilience"]
    if resilience.get("truncated"):
        lines.append(f"  budget:            TRUNCATED "
                     f"({resilience.get('budget_outcome')} exhausted); "
                     f"{resilience.get('explored_fraction', 0):.1%} of "
                     f"discovered states expanded, "
                     f"{resilience.get('frontier_remaining', 0):,} pending")
    else:
        lines.append("  budget:            complete run (no truncation)")
    lines.append(f"  checkpoints:       {resilience.get('checkpoints_written', 0)} "
                 f"written{', resumed from checkpoint' if resilience.get('resumed') else ''}")
    retried = resilience.get("shards_retried", 0)
    if retried or resilience.get("degraded"):
        lines.append(f"  worker recovery:   {retried} shard retries, "
                     f"{resilience.get('pool_respawns', 0)} pool respawns"
                     f"{', DEGRADED to in-process expansion' if resilience.get('degraded') else ''}")
    else:
        lines.append("  worker recovery:   no failures")
    return "\n".join(lines)


def _counters(metrics: Optional[Mapping[str, Any]]) -> Dict[str, Any]:
    """A metrics snapshot's counters by name, summed over their labels
    (pool workers label theirs)."""
    totals: Dict[str, Any] = {}
    for row in (metrics or {}).get("counters", []):
        if isinstance(row, Mapping):
            totals[row["name"]] = totals.get(row["name"], 0) + row["value"]
    return totals


def _render_kernel(enumeration: Mapping[str, Any],
                   metrics: Optional[Mapping[str, Any]]) -> Optional[str]:
    """The compiled kernel's work for the run, when it expanded states."""
    counters = _counters(metrics)
    if "enum.kernel.expansions" not in counters:
        return None
    transitions = int(enumeration.get("transitions_explored", 0))
    calls = int(counters.get("enum.kernel.next_state_calls", 0))
    elided = 1.0 - calls / transitions if transitions else 0.0
    generated = any(
        row.get("name") == "enum.kernel.generated" and row.get("value")
        for row in (metrics or {}).get("gauges", [])
    )
    return (f"  kernel: {transitions:,} transitions, {calls:,} next_state "
            f"calls ({elided:.1%} elided), "
            f"{int(counters.get('enum.kernel.sampled_validations', 0)):,} "
            f"checked against step(), generated expand: "
            f"{'yes' if generated else 'no'}")


def _render_pool(metrics: Mapping[str, Any]) -> Optional[str]:
    """The persistent worker pool's lifecycle counters, when it ran."""
    counters = _counters(metrics)
    spawns = counters.get("enum.pool.spawns")
    if not spawns:
        return None
    lines = ["Worker pool"]
    lines.append(f"  generations:       {int(spawns)} forked, "
                 f"{int(counters.get('enum.pool.reuse_hits', 0))} warm "
                 f"dispatches to live workers")
    lines.append(f"  dispatch payload:  "
                 f"{int(counters.get('enum.pool.dispatch_bytes', 0)):,} bytes "
                 f"coordinator -> workers")
    respawns = int(counters.get("enum.pool_respawns", 0))
    if respawns:
        lines.append(f"  respawns:          {respawns} after worker failures")
    return "\n".join(lines)


def _render_perf(perf: Mapping[str, Any]) -> str:
    lines = ["Performance observability"]
    resources = perf.get("resources")
    if resources:
        peak = resources.get("peak_rss_mb")
        peak_text = f"{peak:.1f} MB" if isinstance(peak, (int, float)) else "n/a"
        lines.append(
            f"  resources:         peak RSS {peak_text}, "
            f"mean CPU {resources.get('mean_cpu_percent', 0.0):.0f}% "
            f"(max {resources.get('max_cpu_percent', 0.0):.0f}%) over "
            f"{resources.get('samples', 0)} samples at "
            f"{resources.get('interval_seconds', 0.0):.2f}s"
        )
    profile = perf.get("profile")
    if profile:
        lines.append(
            f"  profile:           {profile.get('samples', 0):,} samples, "
            f"{profile.get('unique_stacks', 0):,} unique stacks "
            f"({profile.get('timer')} timer, "
            f"{1000.0 * profile.get('interval_seconds', 0.0):.1f} ms tick)"
        )
    heartbeats = perf.get("heartbeats")
    if heartbeats:
        path = heartbeats.get("path")
        lines.append(
            f"  heartbeats:        {heartbeats.get('emitted', 0)} emitted"
            + (f" -> {path}" if path else "")
        )
    if len(lines) == 1:
        lines.append("  (no perf sinks were attached)")
    return "\n".join(lines)


#: The artifact cache's phases in build order.
_CACHE_PHASES = ("model", "graph", "tours", "traces")


def _render_cache(cache: Mapping[str, Any]) -> str:
    """A whole hit, a miss, or the phases a partial hit loaded and built;
    then what the incremental engine did."""
    if not cache.get("enabled"):
        return "disabled"
    key = (cache.get("key") or "")[:12]
    hits = cache.get("phase_hits") or {}
    loaded = [phase for phase in _CACHE_PHASES if hits.get(phase)]
    built = [phase for phase in _CACHE_PHASES if hits.get(phase) is False]
    if cache.get("hit"):
        line = f"hit ({key})"
    elif loaded:
        line = (f"partial hit ({key}): loaded {', '.join(loaded)}; "
                f"built and stored {', '.join(built)}")
    else:
        line = f"miss (built and stored) ({key})"
    incremental = render_incremental(cache.get("incremental") or {})
    return f"{line}\n  {incremental}" if incremental else line


def render_incremental(incremental: Mapping[str, Any]) -> Optional[str]:
    """What the incremental engine did with the prior build it diffed
    (an :class:`IncrementalReport` as a dict), or why it fell back;
    ``None`` if it did neither."""
    if not incremental.get("attempted"):
        reason = incremental.get("fallback_reason")
        return f"incremental: fell back ({reason})" if reason else None
    base = (incremental.get("base_key") or "")[:12]
    if incremental.get("classification") == "no-op":
        adopted = ", ".join(incremental.get("adopted_phases") or ()) or "nothing"
        return f"incremental: no-op diff vs {base}; adopted {adopted}"
    return (f"incremental: localized diff vs {base}; re-enumerated "
            f"{incremental['region_states']} state(s), replayed "
            f"{incremental['replayed_states']}, spliced "
            f"{incremental['spliced_tours']} trace(s)")


def _render_tours(stats: Mapping[str, Any],
                  metrics: Optional[Mapping[str, Any]] = None) -> str:
    lines = ["Tour generation (Table 3.3)"]
    lines.append(f"  traces:            {stats['num_traces']:,}")
    lines.append(f"  arc traversals:    {stats['total_edge_traversals']:,} "
                 f"over {stats['graph_edges']:,} arcs")
    lines.append(f"  instructions:      {stats['total_instructions']:,}")
    lines.append(f"  longest trace:     {stats['longest_trace_edges']:,} arcs")
    lines.append(f"  generation time:   {stats['generation_seconds']:.3f} s")
    counters = _counters(metrics)
    if "tour.index_rebuilds" in counters:
        lines.append(
            f"  distance index:    {int(counters['tour.index_rebuilds'])} "
            f"build(s), {int(counters.get('tour.index_resettled', 0)):,} "
            f"states re-settled, "
            f"{int(counters.get('tour.explore_short_circuits', 0)):,} short "
            f"circuits, {int(counters.get('tour.explore_fallbacks', 0))} "
            f"explore fallbacks")
    return "\n".join(lines)


def _render_comparison(comparison: Mapping[str, Any]) -> str:
    lines = ["Comparison simulation"]
    lines.append(f"  traces run:        {comparison['traces_run']}/"
                 f"{comparison['total_traces']}")
    if "reused_traces" in comparison:
        lines.append(f"  reused verdicts:   {comparison['reused_traces']}/"
                     f"{comparison['traces_run']}")
    per_trace = comparison.get("per_trace", [])
    lines.append(f"  instructions:      "
                 f"{sum(t['instructions'] for t in per_trace):,}")
    lines.append(f"  cycles:            {sum(t['cycles'] for t in per_trace):,}")
    if comparison.get("clean"):
        lines.append("  result:            no divergence "
                     "(design matches specification)")
    else:
        lines.append(f"  diverging traces:  {comparison['diverging_traces']}")
        for site in comparison.get("divergence_sites", []):
            lines.append(f"    trace {site['trace']}: {site['detail']}")
    return "\n".join(lines)


def _render_campaign(campaign: List[Mapping[str, Any]]) -> str:
    lines = ["Campaign (Table 2.1)"]
    for row in campaign:
        label = "clean" if row["bug_id"] is None else f"bug #{row['bug_id']}"
        outcomes = ", ".join(
            f"{method}={'FOUND' if o['detected'] else 'missed'}"
            f" ({o['instructions_run']} instr)"
            for method, o in sorted(row["outcomes"].items())
        )
        lines.append(f"  {label:<8} {outcomes}")
    return "\n".join(lines)


def _render_curve(curve: List[Mapping[str, Any]]) -> str:
    lines = ["Coverage curve (Fig 4.1: arcs covered vs instructions simulated)"]
    lines.append(f"  {'trace':>6} {'instructions':>14} {'arcs covered':>14} "
                 f"{'fraction':>9}")
    # Print at most ~20 evenly spaced points so huge runs stay readable.
    step = max(1, len(curve) // 20)
    shown = list(curve[::step])
    if shown[-1] is not curve[-1]:
        shown.append(curve[-1])
    for point in shown:
        lines.append(
            f"  {point['trace_index']:>6} {point['cumulative_instructions']:>14,} "
            f"{point['cumulative_covered_edges']:>14,} "
            f"{point['coverage_fraction']:>8.1%}"
        )
    return "\n".join(lines)


def validate_run_report(payload: Mapping[str, Any]) -> List[str]:
    """Structural validation of a run-report document (for the CI smoke)."""
    from repro.obs.metrics import validate_metrics_snapshot

    problems: List[str] = []
    if payload.get("schema") != RUN_REPORT_SCHEMA:
        problems.append(f"schema is {payload.get('schema')!r}")
    if not isinstance(payload.get("command"), str):
        problems.append("command missing")
    phases = payload.get("phases")
    if not isinstance(phases, list):
        problems.append("phases is not a list")
    else:
        for row in phases:
            for key in ("name", "depth", "start", "wall", "cpu"):
                if key not in row:
                    problems.append(f"phase row missing {key!r}: {row!r}")
                    break
    if payload.get("metrics"):
        problems.extend(validate_metrics_snapshot(payload["metrics"]))
    if "perf" in payload and not isinstance(payload["perf"], dict):
        problems.append("perf is not a dict")
    comparison = payload.get("comparison") or {}
    if "reused_traces" in comparison:  # absent from reports of older runs
        reused = comparison["reused_traces"]
        if not isinstance(reused, int) or not 0 <= reused <= comparison.get(
            "traces_run", -1
        ):
            problems.append(f"comparison.reused_traces is {reused!r}")
    return problems
