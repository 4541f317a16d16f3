"""Determinism golden tests for the parallel enumeration engine.

The parallel refactor is only safe because these tests pin the contract:
whatever the worker count, the produced :class:`StateGraph` serializes
byte-identically to the sequential enumerator's -- same state ids in
canonical BFS order, same edge list, same conditions -- in both
``record_all_conditions`` modes.
"""

import pytest

from repro.enumeration import (
    EnumerationError,
    InvariantViolation,
    enumerate_states,
    enumerate_states_parallel,
)
from repro.enumeration.pool import WorkerPool
from repro.obs import Observer
from repro.pp.fsm_model import PPModelConfig, build_pp_control_model
from repro.smurphi import BoolType, ChoicePoint, RangeType, StateVar, SyncModel


def counter_model(limit=3):
    return SyncModel(
        "counter",
        state_vars=[StateVar("n", RangeType(0, limit), 0)],
        choices=[ChoicePoint("en", BoolType())],
        next_state=lambda s, c: {"n": min(s["n"] + 1, limit) if c["en"] else s["n"]},
    )


class TestGoldenDeterminism:
    """Satellite: byte-identical serialization across runs and job counts."""

    @pytest.fixture(scope="class")
    def pp_model(self):
        return build_pp_control_model(PPModelConfig(fill_words=1))

    @pytest.fixture(scope="class")
    def sequential_json(self, pp_model):
        graph, _ = enumerate_states(pp_model)
        return graph.to_json()

    def test_sequential_twice_byte_identical(self, pp_model, sequential_json):
        graph, _ = enumerate_states(pp_model)
        assert graph.to_json() == sequential_json

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_parallel_matches_sequential(self, pp_model, sequential_json, jobs):
        graph, _ = enumerate_states_parallel(pp_model, jobs=jobs)
        assert graph.to_json() == sequential_json

    def test_parallel_all_conditions_byte_identical(self, pp_model):
        sequential, _ = enumerate_states(pp_model, record_all_conditions=True)
        parallel, _ = enumerate_states_parallel(
            pp_model, jobs=4, record_all_conditions=True
        )
        assert parallel.to_json() == sequential.to_json()

    def test_parallel_stats_match_sequential(self, pp_model):
        _, seq = enumerate_states(pp_model)
        _, par = enumerate_states_parallel(pp_model, jobs=2)
        assert par.num_states == seq.num_states
        assert par.num_edges == seq.num_edges
        assert par.transitions_explored == seq.transitions_explored
        assert par.bits_per_state == seq.bits_per_state


class TestDefaultConfigIdentity:
    """Acceptance: jobs=4 identical on the default PPModelConfig, both modes."""

    @pytest.mark.parametrize("record_all", [False, True])
    def test_jobs4_identical_to_sequential(self, record_all):
        model = build_pp_control_model(PPModelConfig())
        sequential, _ = enumerate_states(model, record_all_conditions=record_all)
        parallel, _ = enumerate_states_parallel(
            model, jobs=4, record_all_conditions=record_all
        )
        assert parallel.num_states == sequential.num_states
        assert [parallel.state_key(i) for i in range(parallel.num_states)] == [
            sequential.state_key(i) for i in range(sequential.num_states)
        ]
        assert [(e.src, e.dst, e.condition) for e in parallel.edges()] == [
            (e.src, e.dst, e.condition) for e in sequential.edges()
        ]
        assert parallel.to_json() == sequential.to_json()


class TestParallelErrorParity:
    """The cap and invariant semantics survive the parallel path unchanged."""

    def test_max_states_cap_raises_not_truncates(self):
        with pytest.raises(EnumerationError):
            enumerate_states_parallel(counter_model(10), jobs=2, max_states=3)

    def test_cap_at_exact_reachable_count_passes(self):
        graph, _ = enumerate_states_parallel(counter_model(3), jobs=2, max_states=4)
        assert graph.num_states == 4

    def test_invariant_violation_carries_same_state(self):
        def make():
            return SyncModel(
                "inv",
                state_vars=[StateVar("n", RangeType(0, 3), 0)],
                choices=[ChoicePoint("en", BoolType())],
                next_state=lambda s, c: {"n": min(s["n"] + 1, 3) if c["en"] else s["n"]},
                invariants={"bounded": lambda s: s["n"] < 2},
            )

        with pytest.raises(InvariantViolation) as sequential:
            enumerate_states(make())
        with pytest.raises(InvariantViolation) as parallel:
            enumerate_states_parallel(make(), jobs=2)
        assert parallel.value.state_id == sequential.value.state_id
        assert parallel.value.state == sequential.value.state
        assert parallel.value.violated == sequential.value.violated

    def test_jobs_zero_or_one_uses_sequential_path(self):
        g1, _ = enumerate_states(counter_model(3))
        g2, _ = enumerate_states_parallel(counter_model(3), jobs=1)
        assert g2.to_json() == g1.to_json()


class TestDeterministicChecks:
    """Every worker span restarts the kernel's validation schedule, so the
    sampled checks a run makes are a function of the model and the job
    count only -- not of how spans land on workers, nor of the runs a
    shared pool's workers served before."""

    @staticmethod
    def sampled(model, **kwargs):
        observer = Observer()
        enumerate_states(model, obs=observer, **kwargs)
        return observer.metrics.total("enum.kernel.sampled_validations")

    def test_sampled_validations_repeat_on_private_and_shared_pools(self):
        model = build_pp_control_model(PPModelConfig(fill_words=2))
        private = [self.sampled(model, jobs=2) for _ in range(3)]
        pool = WorkerPool(2)
        try:
            shared = [self.sampled(model, jobs=2, pool=pool) for _ in range(3)]
        finally:
            pool.shutdown()
        assert private[0] > 0
        assert private == shared == [private[0]] * 3
