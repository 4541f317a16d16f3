"""Observability wired through the pipeline: worker metric merging,
coverage curves, and the reporting satellites."""

import pytest

from repro.core.report import ValidationReport, format_campaign_table
from repro.enumeration import (
    EnumerationStats,
    enumerate_states,
    enumerate_states_parallel,
)
from repro.harness.campaign import CampaignResult, MethodOutcome
from repro.harness.compare import ComparisonResult
from repro.obs import Observer, RunReport
from repro.pp.fsm_model import PPModelConfig, build_pp_control_model
from repro.pp.rtl.core import CoreConfig
from repro.tour.coverage import arc_coverage, coverage_curve
from repro.tour import IndexedTourGenerator, TourStats


@pytest.fixture(scope="module")
def pp_model():
    return build_pp_control_model(PPModelConfig(fill_words=1))


def _counter_totals(observer):
    metrics = observer.metrics
    return {name: metrics.total(name) for name in metrics.counter_names()}


class TestWorkerMetricsMerge:
    """Satellite: forked-worker metrics merge losslessly -- jobs=1 and
    jobs=4 report identical totals for states, transitions, and waves."""

    @pytest.fixture(scope="class")
    def observers(self, pp_model):
        sequential, parallel = Observer(), Observer()
        enumerate_states(pp_model, obs=sequential)
        enumerate_states_parallel(pp_model, jobs=4, obs=parallel)
        return sequential, parallel

    @pytest.mark.parametrize(
        "name", ["enum.states", "enum.transitions_explored",
                 "enum.edges", "enum.waves"],
    )
    def test_counter_totals_identical(self, observers, name):
        sequential, parallel = observers
        assert (
            parallel.metrics.total(name)
            == sequential.metrics.total(name)
            > 0
        )

    def test_shard_counters_sum_to_coordinator_totals(self, observers):
        # jobs=1 reports every wave as a coordinator shard.
        for observer in observers:
            metrics = observer.metrics
            assert metrics.total("enum.shard.states") == metrics.total("enum.states")
            assert metrics.total("enum.shard.transitions") == metrics.total(
                "enum.transitions_explored"
            )

    def test_shard_counters_carry_worker_labels(self, observers):
        _, parallel = observers
        labeled = [
            row for row in parallel.metrics.snapshot()["counters"]
            if row["name"] == "enum.shard.states"
        ]
        assert labeled
        assert all("worker" in row["labels"] for row in labeled)

    def test_frontier_histograms_identical(self, observers):
        sequential, parallel = observers
        seq = sequential.metrics.histogram_stats("enum.wave.frontier_states")
        par = parallel.metrics.histogram_stats("enum.wave.frontier_states")
        assert seq == par
        assert seq["count"] == sequential.metrics.total("enum.waves")

    def test_kernel_line_sums_worker_counters(self, pp_model):
        """The report's kernel line totals the workers' labelled kernel
        counters: jobs=1 and jobs=4 report the same work.  Sampled checks
        restart with every worker span, so they differ between job counts
        but repeat exactly between two jobs=4 runs."""
        import dataclasses

        checks_at = {}
        for jobs in (1, 4, 4):
            observer = Observer()
            _, stats = enumerate_states(pp_model, jobs=jobs, obs=observer)
            report = RunReport.from_observer(
                "enumerate", observer, enumeration=dataclasses.asdict(stats)
            )
            line, = [line for line in report.render().splitlines()
                     if line.startswith("  kernel: ")]
            work, _, checks = line.partition(" elided), ")
            assert work == ("  kernel: 52,844 transitions, 13,209 "
                            "next_state calls (75.0%")
            assert checks.endswith(" checked against step(), "
                                   "generated expand: no")
            assert checks_at.setdefault(jobs, checks) == checks

    def test_jobs1_dispatch_matches_sequential(self, pp_model):
        # enumerate_states_parallel(jobs=1) runs in-process like the
        # default and must produce the same metrics under the same names.
        direct, dispatched = Observer(), Observer()
        enumerate_states(pp_model, obs=direct)
        enumerate_states_parallel(pp_model, jobs=1, obs=dispatched)
        assert _counter_totals(dispatched) == _counter_totals(direct)


class TestCoverageCurve:
    @pytest.fixture(scope="class")
    def graph_and_tours(self, pp_model):
        graph, _ = enumerate_states(pp_model)
        tours = IndexedTourGenerator(graph, max_instructions_per_trace=300).generate()
        return graph, tours

    def test_curve_is_monotonic_and_complete(self, graph_and_tours):
        graph, tours = graph_and_tours
        curve = coverage_curve(graph, tours)
        assert len(curve) == len(tours.tours)
        covered = [p.cumulative_covered_edges for p in curve]
        instructions = [p.cumulative_instructions for p in curve]
        assert covered == sorted(covered)
        assert instructions == sorted(instructions)
        # The tour set guarantees full arc coverage, so the curve must
        # end at 100%.
        assert curve[-1].cumulative_covered_edges == graph.num_edges
        assert curve[-1].coverage_fraction == 1.0

    def test_final_point_matches_arc_coverage(self, graph_and_tours):
        graph, tours = graph_and_tours
        curve = coverage_curve(graph, tours)
        report = arc_coverage(graph, [t.edge_indices for t in tours.tours])
        assert curve[-1].cumulative_covered_edges == report.covered_edges
        assert curve[-1].cumulative_instructions == sum(
            t.instructions for t in tours.tours
        )

    def test_empty_tour_set(self, graph_and_tours):
        graph, _ = graph_and_tours
        assert coverage_curve(graph, []) == []


def _stats(num_states=1509, bits=21, edges=8777):
    return EnumerationStats(
        model_name="pp_control(fill_words=1)",
        num_states=num_states,
        bits_per_state=bits,
        num_edges=edges,
        transitions_explored=52844,
        elapsed_seconds=0.8,
        approx_memory_bytes=200_000,
    )


class TestEnumerationStatsTable:
    """Satellite: Table 3.2 gained transitions-explored and
    reachable-fraction rows."""

    def test_new_rows_present(self):
        table = _stats().format_table()
        assert "Transitions Explored            52,844" in table
        assert "Reachable Fraction of 2^bits" in table

    def test_fraction_in_scientific_notation(self):
        table = _stats().format_table()
        # 1509 / 2^21 = 7.20e-04
        assert "7.20e-04" in table

    def test_fraction_property(self):
        assert _stats().reachable_fraction == pytest.approx(1509 / 2 ** 21)


class TestValidationSummaryTruncation:
    """Satellite: summaries list at most 5 divergences plus a count."""

    def _report(self, diverging):
        results = [
            ComparisonResult(diverged=True, differences=[f"diff {i}"])
            for i in range(max(diverging) + 1)
        ]
        return ValidationReport(
            config=CoreConfig(),
            traces_run=len(results),
            total_traces=len(results),
            diverging_traces=list(diverging),
            results=results,
            enumeration=_stats(),
            tour_stats=TourStats(1, 1, 1, 0.0, 1, 1, 1),
        )

    def test_five_or_fewer_listed_in_full(self):
        summary = self._report(range(5)).summary()
        assert summary.count("trace ") == 5
        assert "more" not in summary

    def test_more_than_five_truncated_with_count(self):
        summary = self._report(range(9)).summary()
        assert summary.count("DIVERGED") == 5
        assert "... and 4 more" in summary


class TestCampaignTableColumns:
    """Satellite: method columns come from the results, not a hardcoded list."""

    def _result(self, bug_id, methods):
        return CampaignResult(
            bug_id=bug_id,
            outcomes={
                method: MethodOutcome(
                    method=method,
                    detected=(method == "generated"),
                    traces_run=3,
                    instructions_run=100,
                )
                for method in methods
            },
        )

    def test_columns_follow_first_seen_order(self):
        table = format_campaign_table([
            self._result(None, ["generated", "exhaustive"]),
            self._result(1, ["exhaustive", "random"]),
        ])
        header = table.splitlines()[0]
        assert header.index("generated") < header.index("exhaustive")
        assert header.index("exhaustive") < header.index("random")
        assert "directed" not in header

    def test_missing_method_rendered_as_dash(self):
        table = format_campaign_table([
            self._result(None, ["generated", "random"]),
            self._result(1, ["generated"]),
        ])
        bug_row = table.splitlines()[2]
        assert bug_row.startswith("#1")
        assert bug_row.rstrip().endswith("-")

    def test_empty_results_fall_back_to_paper_columns(self):
        header = format_campaign_table([]).splitlines()[0]
        for method in ("generated", "random", "directed"):
            assert method in header


class TestPipelineObserver:
    def test_validate_phases_cover_wall_time(self):
        from repro.core.pipeline import ValidationPipeline

        observer = Observer()
        pipeline = ValidationPipeline(
            model_config=PPModelConfig(fill_words=1),
            max_instructions_per_trace=300,
            observer=observer,
        )
        # The CLI wraps the whole run in a root span; do the same so
        # depth-1 children (pipeline.build / pipeline.validate) exist.
        with observer.span("cli.validate"):
            validation = pipeline.validate()
        report = RunReport.from_validation(validation, pipeline)
        assert validation.clean
        assert report.phase_coverage() >= 0.95
        names = {p["name"] for p in report.phases}
        assert {"pipeline.build", "pipeline.validate",
                "phase.enumerate", "phase.tours", "phase.vectors"} <= names
        assert observer.metrics.total("compare.traces_run") == len(
            validation.results
        )
        assert report.coverage_curve
        assert report.coverage_curve[-1]["coverage_fraction"] == 1.0
        rendered = report.render()
        assert "Coverage curve" in rendered
        assert "Per-phase timing" in rendered
        # The tour generator's index counters: one build, then upkeep.
        assert observer.metrics.total("tour.index_rebuilds") == 1
        assert observer.metrics.total("tour.explore_fallbacks") == 0
        assert observer.metrics.total("tour.index_resettled") > 0
        assert "distance index:    1 build(s)" in rendered
        # The kernel's work, under the enumeration table.
        assert ("  kernel: 52,844 transitions, 13,209 next_state calls "
                "(75.0% elided)") in rendered

    def test_unobserved_pipeline_reports_without_observer_sections(self):
        """A pipeline built without an observer still yields a report:
        the run's sections, but no phases, metrics or perf summary."""
        from repro.core.pipeline import ValidationPipeline
        from repro.harness.campaign import ValidationCampaign

        pipeline = ValidationPipeline(
            model_config=PPModelConfig(fill_words=1),
            max_instructions_per_trace=300,
        )
        validation = pipeline.validate()
        results = [ValidationCampaign(pipeline).evaluate_bug(
            3, methods=("generated",))]
        reports = [
            RunReport.from_validation(validation, pipeline),
            RunReport.from_campaign(results, pipeline),
        ]
        for report in reports:
            assert (report.phases, report.metrics, report.perf) == ([], {}, {})
            assert report.cache == pipeline.cache_info
            assert report.cache["enabled"] is False
            assert report.resilience["truncated"] is False
        assert [r.command for r in reports] == ["validate", "campaign"]
        assert reports[0].coverage_curve[-1]["coverage_fraction"] == 1.0
        outcome = reports[1].campaign[0]["outcomes"]["generated"]
        assert outcome["detected"] and outcome["instructions_run"] == 601
