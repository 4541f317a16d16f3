"""Tests for the observability layer: metrics, tracing, observers, reports."""

import json

import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    METRICS_SCHEMA,
    NULL_OBSERVER,
    RUN_REPORT_SCHEMA,
    TRACE_SCHEMA,
    MetricsRegistry,
    NullObserver,
    Observer,
    RunReport,
    Tracer,
    chrome_trace_from_events,
    read_jsonl_trace,
    resolve,
    validate_metrics_snapshot,
    validate_run_report,
    validate_trace_events,
)


class TestMetricsRegistry:
    def test_counters_accumulate(self):
        registry = MetricsRegistry()
        registry.inc("enum.states")
        registry.inc("enum.states", 41)
        assert registry.counter_value("enum.states") == 42

    def test_labels_partition_counters(self):
        registry = MetricsRegistry()
        registry.inc("campaign.detections", 2, method="generated")
        registry.inc("campaign.detections", 3, method="random")
        assert registry.counter_value("campaign.detections", method="generated") == 2
        assert registry.counter_value("campaign.detections", method="random") == 3
        assert registry.counter_value("campaign.detections") == 0
        assert registry.total("campaign.detections") == 5

    def test_label_order_is_irrelevant(self):
        registry = MetricsRegistry()
        registry.inc("x", 1, a="1", b="2")
        registry.inc("x", 1, b="2", a="1")
        assert registry.counter_value("x", b="2", a="1") == 2

    def test_gauge_is_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("enum.bits_per_state", 21)
        registry.gauge("enum.bits_per_state", 23)
        assert registry.gauge_value("enum.bits_per_state") == 23
        assert registry.gauge_value("missing") is None

    def test_histogram_stats(self):
        registry = MetricsRegistry()
        for value in (1, 2, 3, 1000):
            registry.observe("enum.wave.frontier_states", value)
        stats = registry.histogram_stats("enum.wave.frontier_states")
        assert stats["count"] == 4
        assert stats["sum"] == 1006
        assert stats["min"] == 1
        assert stats["max"] == 1000
        assert stats["mean"] == pytest.approx(251.5)
        assert registry.histogram_stats("missing") is None

    def test_histogram_buckets_are_cumulative_per_bound(self):
        registry = MetricsRegistry()
        registry.observe("t", 0.0005)           # <= 0.001
        registry.observe("t", 10 ** 9)          # above every bound -> +inf
        row = registry.snapshot()["histograms"][0]
        assert row["bounds"] == list(DEFAULT_BUCKETS)
        assert len(row["buckets"]) == len(DEFAULT_BUCKETS) + 1
        assert row["buckets"][0] == 1
        assert row["buckets"][-1] == 1
        assert sum(row["buckets"]) == row["count"] == 2

    def test_snapshot_roundtrip(self):
        registry = MetricsRegistry()
        registry.inc("a", 7, worker="1")
        registry.gauge("g", 3.5)
        registry.observe("h", 12)
        snapshot = registry.snapshot()
        assert snapshot["schema"] == METRICS_SCHEMA
        assert validate_metrics_snapshot(snapshot) == []
        # JSON-able as-is.
        rebuilt = MetricsRegistry.from_snapshot(json.loads(json.dumps(snapshot)))
        assert rebuilt.snapshot() == snapshot

    def test_merge_sums_counters_and_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("n", 10)
        b.inc("n", 32)
        a.observe("h", 1)
        b.observe("h", 5)
        b.gauge("g", 2)
        a.merge(b.snapshot())
        assert a.counter_value("n") == 42
        assert a.gauge_value("g") == 2
        stats = a.histogram_stats("h")
        assert stats["count"] == 2
        assert stats["sum"] == 6
        assert stats["min"] == 1
        assert stats["max"] == 5

    def test_merge_rejects_unknown_schema(self):
        with pytest.raises(ValueError, match="schema"):
            MetricsRegistry().merge({"schema": "other/9"})

    def test_validate_flags_malformed_rows(self):
        problems = validate_metrics_snapshot({
            "schema": METRICS_SCHEMA,
            "counters": [{"name": "ok", "labels": {}, "value": "not-a-number"}],
            "gauges": "nope",
            "histograms": [{"name": "h", "labels": {},
                            "bounds": [1, 2], "buckets": [0, 0]}],
        })
        assert any("numeric value" in p for p in problems)
        assert any("gauges" in p for p in problems)
        assert any("bucket/bound mismatch" in p for p in problems)


class TestTracer:
    def test_span_nesting_and_event_order(self):
        tracer = Tracer()
        with tracer.span("outer", top="pp"):
            tracer.instant("tick", n=1)
            with tracer.span("inner"):
                pass
        kinds = [(e["kind"], e["name"]) for e in tracer.events]
        assert kinds == [
            ("instant", "trace.start"),
            ("begin", "outer"),
            ("instant", "tick"),
            ("begin", "inner"),
            ("end", "inner"),
            ("end", "outer"),
        ]
        end = tracer.events[-1]
        assert end["wall"] >= 0 and end["cpu"] >= 0
        assert validate_trace_events(tracer.events) == []

    def test_depth_tracks_nesting(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                tracer.instant("deep")
        by_name = {e["name"]: e for e in tracer.events if e["kind"] != "end"}
        assert by_name["a"]["depth"] == 0
        assert by_name["b"]["depth"] == 1
        assert by_name["deep"]["depth"] == 2

    def test_jsonl_streaming_roundtrip(self, tmp_path):
        path = str(tmp_path / "run.trace.jsonl")
        tracer = Tracer(path=path)
        with tracer.span("phase.enumerate", states=3):
            tracer.instant("enum.wave", wave=0)
        tracer.close()
        events = read_jsonl_trace(path)
        assert events == tracer.events
        assert validate_trace_events(events) == []

    def test_jsonl_survives_missing_close(self, tmp_path):
        # A crashed run should still leave every flushed line readable.
        path = str(tmp_path / "partial.jsonl")
        tracer = Tracer(path=path)
        tracer.instant("last.words")
        events = read_jsonl_trace(path)
        assert [e["name"] for e in events] == ["trace.start", "last.words"]
        tracer.close()

    def test_chrome_export_shape(self, tmp_path):
        tracer = Tracer()
        with tracer.span("phase.tours"):
            tracer.instant("tour.trace", index=0)
        chrome = tracer.chrome_trace()
        assert set(chrome) == {"traceEvents", "displayTimeUnit"}
        phases = [e["ph"] for e in chrome["traceEvents"]]
        assert phases == ["i", "B", "i", "E"]
        end = chrome["traceEvents"][-1]
        assert "wall_s" in end["args"] and "cpu_s" in end["args"]
        # Timestamps are microseconds, monotonic non-decreasing.
        ts = [e["ts"] for e in chrome["traceEvents"]]
        assert ts == sorted(ts)
        path = tmp_path / "run.trace"
        tracer.write_chrome_trace(str(path))
        assert json.loads(path.read_text())["traceEvents"]

    def test_header_carries_schema(self):
        header = Tracer().events[0]
        assert header["name"] == "trace.start"
        assert header["attrs"]["schema"] == TRACE_SCHEMA

    def test_validator_catches_unbalanced_spans(self):
        tracer = Tracer()
        cm = tracer.span("dangling")
        cm.__enter__()
        assert any("unclosed" in p for p in validate_trace_events(tracer.events))
        problems = validate_trace_events([
            {"ts": 0, "kind": "end", "name": "x", "depth": 0, "pid": 1,
             "attrs": {}, "wall": 0, "cpu": 0},
        ])
        assert any("end without begin" in p for p in problems)
        assert any("trace.start" in p for p in problems)


class TestObserver:
    def test_spans_record_phase_timings(self):
        observer = Observer()
        with observer.span("root"):
            with observer.span("child", jobs=2):
                pass
        names = [(p.name, p.depth) for p in observer.phases]
        # Completion order: children close before parents.
        assert names == [("child", 1), ("root", 0)]
        assert observer.phases[0].attrs == {"jobs": 2}
        assert observer.metrics.histogram_stats(
            "phase.wall_seconds", phase="root")["count"] == 1

    def test_phase_coverage(self):
        from repro.obs.observer import PhaseTiming

        observer = Observer()
        # 10s root with 9.6s of children -> 96%.
        observer.phases = [
            PhaseTiming("root", 0, 0.0, 10.0, 9.0),
            PhaseTiming("a", 1, 0.0, 6.0, 5.0),
            PhaseTiming("b", 1, 6.0, 3.6, 3.0),
        ]
        assert observer.phase_coverage() == pytest.approx(0.96)

    def test_coverage_without_nesting_is_one(self):
        assert Observer().phase_coverage() == 1.0

    def test_tracer_mirroring(self):
        tracer = Tracer()
        observer = Observer(tracer=tracer)
        with observer.span("phase.enumerate"):
            observer.event("enum.wave", wave=0)
        assert [e["name"] for e in tracer.events] == [
            "trace.start", "phase.enumerate", "enum.wave", "phase.enumerate",
        ]

    def test_resolve(self):
        assert resolve(None) is NULL_OBSERVER
        observer = Observer()
        assert resolve(observer) is observer

    def test_null_observer_is_inert(self):
        null = NullObserver()
        assert null.enabled is False
        with null.span("anything", k=1):
            null.inc("n", 5)
            null.observe("h", 1)
            null.gauge("g", 1)
            null.event("e")
            null.merge({"schema": "garbage"})
        null.close()
        assert null.phases == []
        assert null.metrics.snapshot()["counters"] == []

    def test_null_observer_span_is_shared_constant(self):
        # The fast path must not allocate per call.
        assert NULL_OBSERVER.span("a") is NULL_OBSERVER.span("b")


class TestRunReport:
    def _sample(self):
        observer = Observer()
        with observer.span("cli.validate"):
            with observer.span("pipeline.build"):
                observer.inc("enum.states", 1509)
        return RunReport.from_observer(
            "validate", observer, config={"fill_words": 1})

    def test_roundtrip_and_validation(self, tmp_path):
        report = self._sample()
        assert report.schema == RUN_REPORT_SCHEMA
        path = tmp_path / "run.json"
        report.write(str(path))
        loaded = RunReport.load(str(path))
        assert loaded.command == "validate"
        assert loaded.config == {"fill_words": 1}
        assert loaded.phases == report.phases
        assert validate_run_report(json.loads(path.read_text())) == []

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"schema": "nope", "command": "x"}))
        with pytest.raises(ValueError, match="not a run report"):
            RunReport.load(str(path))

    def test_phase_coverage_and_total(self):
        report = RunReport(command="validate", phases=[
            {"name": "root", "depth": 0, "start": 0.0, "wall": 2.0, "cpu": 1.0},
            {"name": "a", "depth": 1, "start": 0.0, "wall": 1.9, "cpu": 0.9},
        ])
        assert report.phase_coverage() == pytest.approx(0.95)
        assert report.total_wall_seconds() == pytest.approx(2.0)

    def test_render_mentions_phases_and_config(self):
        text = self._sample().render()
        assert "Run report -- repro validate" in text
        assert "fill_words=1" in text
        assert "pipeline.build" in text
        assert "span coverage of root wall time" in text

    @staticmethod
    def _cache(hits, **incremental):
        return {
            "enabled": True,
            "hit": all(hits.values()),
            "key": "14a581b1e9a172a4c612",
            "phase_hits": hits,
            "incremental": {"enabled": True, "attempted": False, **incremental},
        }

    def test_render_cache_partial_hit(self, tmp_path):
        """A seed change over a warm cache loads the graph and tours and
        builds only the traces; the JSON round trip sorts the phases."""
        hits = {"model": True, "graph": True, "tours": True, "traces": False}
        path = tmp_path / "partial.json"
        RunReport(command="validate", cache=self._cache(hits)).write(str(path))
        assert RunReport.load(str(path)).render().splitlines()[1] == (
            "  cache: partial hit (14a581b1e9a1): loaded model, graph, tours; "
            "built and stored traces"
        )

    def test_render_cache_whole_hit_miss_and_incremental(self):
        def cache_lines(hits, **incremental):
            text = RunReport(command="v", cache=self._cache(hits, **incremental)).render()
            return text.splitlines()[1:]

        phases = ("model", "graph", "tours", "traces")
        assert cache_lines(dict.fromkeys(phases, True)) == [
            "  cache: hit (14a581b1e9a1)"
        ]
        assert cache_lines(
            dict.fromkeys(phases, False), fallback_reason="no prior builds in journal"
        ) == [
            "  cache: miss (built and stored) (14a581b1e9a1)",
            "  incremental: fell back (no prior builds in journal)",
        ]
        assert cache_lines(
            dict.fromkeys(phases, False),
            fallback_reason="structural diff: state variable added",
        )[1] == "  incremental: fell back (structural diff: state variable added)"
        assert cache_lines(
            dict.fromkeys(phases, False), attempted=True, classification="no-op",
            base_key="0123456789abcdef", adopted_phases=["graph", "tours"],
        )[1] == "  incremental: no-op diff vs 0123456789ab; adopted graph, tours"
        assert cache_lines(
            dict.fromkeys(phases, False), attempted=True,
            classification="localized", base_key="0123456789abcdef",
            region_states=12, replayed_states=1497, spliced_tours=30,
        )[1] == (
            "  incremental: localized diff vs 0123456789ab; re-enumerated 12 "
            "state(s), replayed 1497, spliced 30 trace(s)"
        )

    def test_validate_flags_missing_fields(self):
        problems = validate_run_report({
            "schema": RUN_REPORT_SCHEMA,
            "phases": [{"name": "x", "depth": 0}],
        })
        assert any("command" in p for p in problems)
        assert any("phase row missing" in p for p in problems)
