"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestEnumerate:
    def test_prints_stats(self, capsys):
        assert main(["enumerate", "--fill-words", "1"]) == 0
        out = capsys.readouterr().out
        assert "Number of States" in out
        assert "1,509" in out

    def test_graph_out(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        assert main(["enumerate", "--fill-words", "1", "--graph-out", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert len(payload["state_keys"]) == 1509

    def test_warm_cache_hit_writes_same_graph(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        cold, warm = tmp_path / "cold.json", tmp_path / "warm.json"
        assert main(["enumerate", "--fill-words", "1", "--cache-dir", cache,
                     "--graph-out", str(cold)]) == 0
        assert "artifacts: built and cached (" in capsys.readouterr().out
        assert main(["enumerate", "--fill-words", "1", "--cache-dir", cache,
                     "--graph-out", str(warm)]) == 0
        out = capsys.readouterr().out
        assert "artifacts: cache hit (" in out
        assert "1,509" in out
        assert warm.read_bytes() == cold.read_bytes()


class TestTours:
    def test_from_fresh_enumeration(self, capsys):
        assert main(["tours", "--fill-words", "1", "--limit", "300"]) == 0
        out = capsys.readouterr().out
        assert "coverage complete: True" in out

    def test_graph_reused_from_cache(self, tmp_path, capsys):
        # enumerate --cache-dir stores the graph phase; tours with the
        # same model flags finds it through the phase-key chain and prints
        # exactly what a cache-free run prints.
        cache = str(tmp_path / "cache")
        assert main(["tours", "--fill-words", "1", "--limit", "0"]) == 0
        fresh = capsys.readouterr().out
        assert main(["enumerate", "--fill-words", "1",
                     "--cache-dir", cache]) == 0
        capsys.readouterr()
        assert main(["tours", "--fill-words", "1", "--limit", "0",
                     "--cache-dir", cache]) == 0
        lines = capsys.readouterr().out.splitlines()
        status = [line for line in lines if line.startswith("artifacts:")]
        assert len(status) == 1
        assert status[0].endswith("phase hits: model, graph")
        assert [line for line in lines if line not in status] == \
            fresh.splitlines()

    def test_cached_graph_of_other_model_not_reused(self, tmp_path, capsys):
        # Other model flags key another graph: the cached one is not
        # costed with the wrong model, it is simply not found.
        cache = str(tmp_path / "cache")
        assert main(["enumerate", "--fill-words", "1",
                     "--cache-dir", cache]) == 0
        capsys.readouterr()
        assert main(["tours", "--fill-words", "1", "--branches",
                     "--limit", "0", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "artifacts: built and cached (" in out
        assert "phase hits" not in out
        assert "coverage complete: True" in out

    def test_limit_counts_pipeline_instructions(self, capsys):
        # --limit is instructions per trace, costed as the pipeline costs
        # them, so the CLI reports the pipeline's tours.
        from repro.core import ValidationPipeline
        from repro.pp.fsm_model import PPModelConfig

        assert main(["tours", "--fill-words", "2", "--limit", "400"]) == 0
        out = capsys.readouterr().out
        stats = ValidationPipeline(
            model_config=PPModelConfig(fill_words=2),
            max_instructions_per_trace=400,
        ).build().tours.stats
        assert stats.num_traces == 53
        assert f"traces: {stats.num_traces}\n" in out
        assert f"arc traversals: {stats.total_edge_traversals:,} over" in out
        assert f"instructions: {stats.total_instructions:,}\n" in out


class TestJobsFlag:
    def test_enumerate_jobs_matches_sequential(self, tmp_path, capsys):
        seq = tmp_path / "seq.json"
        par = tmp_path / "par.json"
        assert main(["enumerate", "--fill-words", "1",
                     "--graph-out", str(seq)]) == 0
        assert main(["enumerate", "--fill-words", "1", "--jobs", "2",
                     "--graph-out", str(par)]) == 0
        assert seq.read_text() == par.read_text()
        assert "1,509" in capsys.readouterr().out

    def test_validate_jobs_round_trip(self, capsys):
        assert main(["validate", "--fill-words", "1", "--limit", "300",
                     "--jobs", "2"]) == 0
        assert "no divergence" in capsys.readouterr().out


class TestKernelFlag:
    """The transition kernel is not a CLI knob (compiled == interpreted
    is covered in test_kernel.py)."""

    def test_unknown_kernel_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["enumerate", "--kernel", "vectorized"])
        assert "--kernel" in capsys.readouterr().err


class TestCacheFlags:
    def test_cold_then_warm_then_no_cache(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        base = ["validate", "--fill-words", "1", "--limit", "300",
                "--cache-dir", cache]

        assert main(base) == 0
        out = capsys.readouterr().out
        assert "artifacts: built and cached" in out

        # Warm run: the pipeline loads the artifacts and skips enumeration.
        assert main(base) == 0
        out = capsys.readouterr().out
        assert "artifacts: cache hit" in out
        assert "enumeration skipped" in out
        assert "no divergence" in out

        # --no-cache forces a rebuild even though the entry exists.
        assert main(base + ["--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "artifacts: built and cached" in out

    def test_cache_invalidated_by_seed(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        base = ["validate", "--fill-words", "1", "--limit", "300",
                "--cache-dir", cache]
        assert main(base + ["--seed", "0"]) == 0
        capsys.readouterr()
        assert main(base + ["--seed", "1"]) == 0
        assert "artifacts: built and cached" in capsys.readouterr().out

    def test_warm_hit_detects_injected_bug(self, tmp_path, capsys):
        # The cached artifacts are bug-independent: a warm hit must still
        # drive the bug-injected design to divergence.
        cache = str(tmp_path / "cache")
        base = ["validate", "--fill-words", "1", "--limit", "300",
                "--cache-dir", cache]
        assert main(base) == 0
        capsys.readouterr()
        assert main(base + ["--bug", "3"]) == 0
        out = capsys.readouterr().out
        assert "artifacts: cache hit" in out
        assert "DIVERGED" in out


class TestValidate:
    def test_clean_design_exit_zero(self, capsys):
        assert main(["validate", "--fill-words", "1", "--limit", "300"]) == 0
        assert "no divergence" in capsys.readouterr().out

    def test_injected_bug_detected_exit_zero(self, capsys):
        # Exit 0 means the run matched expectations: bug injected AND found.
        assert main(
            ["validate", "--fill-words", "1", "--limit", "300", "--bug", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "injected bug #3" in out
        assert "DIVERGED" in out

    def test_unknown_bug_rejected(self, capsys):
        assert main(["validate", "--bug", "99"]) == 2


class TestCampaign:
    def test_campaign_finds_every_bug_and_reports(self, tmp_path, capsys):
        from repro.obs import validate_run_report

        path = tmp_path / "campaign.json"
        assert main(["campaign", "--fill-words", "1", "--limit", "300",
                     "--metrics-out", str(path)]) == 0
        assert "generated vectors found 6/6" in capsys.readouterr().out
        payload = json.loads(path.read_text())
        assert validate_run_report(payload) == []
        assert payload["command"] == "campaign"
        assert [row["bug_id"] for row in payload["campaign"]] == [
            1, 2, 3, 4, 5, 6]
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Run report -- repro campaign" in out
        assert "Campaign (Table 2.1)" in out
        assert "bug #1   directed=missed (27 instr), generated=FOUND" in out
        assert "State Enumeration Statistics" in out


class TestMisc:
    def test_errata(self, capsys):
        assert main(["errata"]) == 0
        assert "56.5%" in capsys.readouterr().out

    def test_sigterm_handler_restored_on_return(self, capsys):
        """An in-process caller keeps its SIGTERM disposition: fork
        children inheriting the CLI's raise-in-main-thread handler cannot
        be terminated while blocked on a lock."""
        import signal

        before = signal.getsignal(signal.SIGTERM)
        assert main(["errata"]) == 0
        assert signal.getsignal(signal.SIGTERM) is before

    def test_translate(self, tmp_path, capsys):
        source = tmp_path / "d.v"
        source.write_text(
            "module m (input clk, input go, output wire busy);\n"
            "  reg [1:0] n;\n"
            "  assign busy = n != 0;\n"
            "  always @(posedge clk) begin\n"
            "    if (go && n != 3) n <= n + 1;\n"
            "  end\n"
            "endmodule\n"
        )
        assert main(
            ["translate", str(source), "--top", "m", "--enumerate"]
        ) == 0
        out = capsys.readouterr().out
        assert "state variables" in out
        assert "Number of States" in out

    def test_murphi(self, tmp_path, capsys):
        source = tmp_path / "m.m"
        source.write_text(
            "var n : 0..3;\nchoice en : boolean;\n"
            "rule begin if en & n < 3 then n' := n + 1; endif; end\n"
        )
        assert main(["murphi", str(source)]) == 0
        assert "Number of States" in capsys.readouterr().out


class TestObservabilityFlags:
    BASE = ["validate", "--fill-words", "1", "--limit", "300"]

    def test_trace_out_chrome_format(self, tmp_path, capsys):
        path = tmp_path / "run.trace"
        assert main(self.BASE + ["--trace-out", str(path)]) == 0
        chrome = json.loads(path.read_text())
        assert chrome["displayTimeUnit"] == "ms"
        events = chrome["traceEvents"]
        # "C" events are the resource sampler's Perfetto counter tracks.
        assert {e["ph"] for e in events} <= {"B", "E", "i", "C"}
        names = {e["name"] for e in events}
        assert {"cli.validate", "pipeline.build", "phase.enumerate"} <= names
        assert "chrome trace written" in capsys.readouterr().out

    def test_trace_out_jsonl_streams_valid_events(self, tmp_path, capsys):
        from repro.obs import read_jsonl_trace, validate_trace_events

        path = tmp_path / "run.trace.jsonl"
        assert main(self.BASE + ["--trace-out", str(path)]) == 0
        events = read_jsonl_trace(str(path))
        assert validate_trace_events(events) == []
        assert "JSONL event trace written" in capsys.readouterr().out

    def test_metrics_out_is_a_valid_run_report(self, tmp_path, capsys):
        from repro.obs import RunReport, validate_run_report

        path = tmp_path / "run.json"
        assert main(self.BASE + ["--metrics-out", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert validate_run_report(payload) == []
        report = RunReport.load(str(path))
        assert report.command == "validate"
        assert report.phase_coverage() >= 0.95
        assert report.comparison["clean"] is True
        counters = {c["name"] for c in report.metrics["counters"]}
        assert {"enum.states", "tour.traces", "compare.traces_run"} <= counters

    def test_report_subcommand_renders_saved_run(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        assert main(self.BASE + ["--metrics-out", str(path)]) == 0
        capsys.readouterr()
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Run report -- repro validate" in out
        assert "State Enumeration Statistics" in out
        assert "kernel: 52,844 transitions, 13,209 next_state calls" in out
        assert "Per-phase timing" in out

    def test_report_curve_csv_export(self, tmp_path, capsys):
        run = tmp_path / "run.json"
        curve = tmp_path / "curve.csv"
        assert main(self.BASE + ["--metrics-out", str(run)]) == 0
        assert main(["report", str(run), "--curve", str(curve)]) == 0
        lines = curve.read_text().splitlines()
        assert lines[0] == ("trace_index,cumulative_instructions,"
                            "cumulative_covered_edges,coverage_fraction")
        assert len(lines) > 1
        assert lines[-1].endswith("1.000000")

    def test_report_rejects_non_report_json(self, tmp_path, capsys):
        path = tmp_path / "not-a-report.json"
        path.write_text(json.dumps({"schema": "something/else"}))
        assert main(["report", str(path)]) == 2

    def test_enumerate_metrics_out(self, tmp_path, capsys):
        from repro.obs import RunReport

        path = tmp_path / "enum.json"
        assert main(["enumerate", "--fill-words", "1",
                     "--metrics-out", str(path)]) == 0
        report = RunReport.load(str(path))
        assert report.command == "enumerate"
        assert report.enumeration["num_states"] == 1509
