"""Tests for the bug catalog/injector, comparison harness, and baselines."""

import dataclasses

import pytest

from repro.bugs import ALL_BUG_IDS, BUGS, bug_table, inject, injected_config
from repro.harness import (
    DirectedTest,
    directed_tests,
    random_trace,
)
from repro.harness.compare import run_trace
from repro.harness.directed import run_directed_suite
from repro.pp.asm import assemble
from repro.pp.rtl import CoreConfig, DCache, NaturalStimulus, QueueStimulus


class TestCatalog:
    def test_six_bugs(self):
        assert ALL_BUG_IDS == (1, 2, 3, 4, 5, 6)

    def test_every_bug_documented(self):
        for bug in BUGS.values():
            assert bug.title
            assert bug.explanation
            assert bug.trigger
            assert len(bug.units) >= 2  # all are multiple-event bugs

    def test_bug_table_renders(self):
        text = bug_table()
        for bug_id in ALL_BUG_IDS:
            assert f"{bug_id}  " in text

    def test_inject_builds_config(self):
        config = injected_config(3, 5)
        assert config.bugs == frozenset({3, 5})

    def test_inject_rejects_unknown(self):
        with pytest.raises(KeyError):
            inject(CoreConfig(), 99)

    def test_with_bugs_accumulates(self):
        config = CoreConfig().with_bugs(1).with_bugs(2)
        assert config.bugs == frozenset({1, 2})

    def test_with_bugs_keeps_every_other_field(self):
        base = CoreConfig(
            dual_issue=False, icache_sets=2, dcache_sets=8, mem_latency=5,
            text_base=0x0020_0000, squashing_branches=True, bugs=frozenset({4}),
        )
        armed = base.with_bugs(6)
        assert armed.bugs == frozenset({4, 6})
        for field in dataclasses.fields(CoreConfig):
            if field.name != "bugs":
                assert getattr(armed, field.name) == getattr(base, field.name)
                # Every field was set away from its default above.
                assert getattr(base, field.name) != field.default, field.name


class TestCompare:
    def test_clean_run_reports_match(self):
        result = run_trace(assemble("addi r1, r0, 1"), NaturalStimulus())
        assert result.clean
        assert "match" in result.describe()

    def test_deadlock_reported(self):
        result = run_trace(
            assemble("switch r1"),
            QueueStimulus(inbox_ready=[False] * 10_000),
            max_cycles=2_000,
        )
        assert result.deadlocked
        assert result.diverged
        assert not result.clean
        assert "DEADLOCK" in result.describe()

    def test_simulator_invariant_failure_is_a_divergence_not_a_deadlock(
        self, monkeypatch
    ):
        def broken_refill(self, *args, **kwargs):
            raise RuntimeError("D-refill started while cache busy")

        monkeypatch.setattr(DCache, "start_refill", broken_refill)
        result = run_trace(
            assemble("lw r1, 0x40(r0)"), QueueStimulus(dcache_hits=[False])
        )
        assert not result.deadlocked
        assert result.diverged
        assert not result.clean
        assert result.differences == [
            "implementation error: D-refill started while cache busy"
        ]
        assert "D-refill started while cache busy" in result.describe()

    def test_strict_write_comparison_catches_extra_write(self):
        # Bug 5's garbage write is post-retirement; strict mode flags the
        # write-count mismatch even if the final state happened to match.
        result = run_trace(assemble("addi r1, r0, 1"), NaturalStimulus(),
                           strict_writes=True)
        assert result.write_mismatch is None


class TestDirectedSuite:
    def test_suite_passes_on_clean_design(self):
        results = run_directed_suite()
        for name, result in results.items():
            assert result.clean, f"directed test {name}: {result.describe()}"

    def test_suite_has_feature_coverage(self):
        names = {t.name for t in directed_tests()}
        assert {
            "alu_pipeline", "dmiss_dirty_victim", "split_store_conflict",
            "switch_stall", "send_stall", "imiss_refill", "store_miss",
        } <= names

    def test_directed_misses_multiple_event_bugs(self):
        # The paper's point: feature-at-a-time tests don't reach the
        # multiple-event conjunctions.  At most one of the six injected
        # bugs may fall to the directed suite.
        caught = 0
        for bug_id in ALL_BUG_IDS:
            config = injected_config(bug_id)
            if any(t.run(config).diverged for t in directed_tests()):
                caught += 1
        assert caught <= 1, f"directed suite caught {caught} multi-event bugs"


class TestRandomBaseline:
    def test_random_trace_clean_on_clean_design(self):
        for seed in range(3):
            result = random_trace(seed, length=300)
            assert result.clean, result.describe()

    def test_random_misses_most_bugs_in_small_budget(self):
        # With a modest budget and realistic probabilities, random testing
        # finds strictly fewer bugs than the generated vectors (which find
        # all six -- see test_integration).
        from repro.harness.random_testing import random_campaign

        caught = 0
        for bug_id in ALL_BUG_IDS:
            outcome = random_campaign(
                injected_config(bug_id), num_traces=3, trace_length=300, seed=123
            )
            if outcome.detected:
                caught += 1
        assert caught < len(ALL_BUG_IDS)
