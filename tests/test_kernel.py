"""The compiled transition kernel: bit-identity, soundness, metrics.

The golden property: ``kernel="compiled"`` and ``kernel="interpreted"``
produce byte-identical state graphs -- same states, same ids, same edges,
same condition tuples -- on every model, at every job count, in both
condition-recording modes, and across checkpoint/resume (a checkpoint
written by one kernel resumes under the other).  The property tests
drive randomly generated models through both kernels; the soundness
tests pin down exactly which validation the fast path is allowed to
skip and prove the escape hatches (``strict=True``, pack-failure
fallback) restore the interpreted diagnostics.
"""

import gc
import json
import os
import random
import weakref
import zlib

import pytest

from repro.enumeration import (
    KERNEL_MODES,
    CompiledKernel,
    InterpretedKernel,
    compile_model,
    enumerate_states,
    enumerate_states_parallel,
    resolve_kernel,
)
from repro.obs import Observer
from repro.pp.fsm_model import PPModelConfig, build_pp_control_model
from repro.pp.verilog_src import build_pp_control_model_from_verilog
from repro.resilience import CheckpointConfig, FaultPlan
from repro.smurphi import (
    BoolType,
    ChoicePoint,
    EnumType,
    ModelError,
    RangeType,
    StateVar,
    SyncModel,
)

SMALL = PPModelConfig(fill_words=1)


def small_model():
    return build_pp_control_model(SMALL)


def translated_model(fill_words: int = 1) -> SyncModel:
    """The PP control translated from Verilog: it has a generated expand."""
    return build_pp_control_model_from_verilog(PPModelConfig(fill_words=fill_words))[0]


def dict_twin(model: SyncModel) -> SyncModel:
    """``model`` without its generated expand: expansion takes the dict path."""
    return SyncModel(model.name, model.state_vars, model.choices, model._next_state)


# ---------------------------------------------------------------------------
# Random model generator for the property tests
# ---------------------------------------------------------------------------


def _stable_hash(*parts) -> int:
    """Deterministic across processes and Python versions (unlike hash())."""
    return zlib.crc32(repr(parts).encode())


def random_model(seed: int, guard_heavy: bool = False) -> SyncModel:
    """A small random SyncModel with mixed var types and guarded choices.

    ``next_state`` hashes (state, choice) into each variable's domain, so
    transition structure is arbitrary but fully deterministic.  With
    ``guard_heavy`` every choice is guarded, which makes zero-active-choice
    states (every guard false -> exactly one pinned combination) common.
    """
    rng = random.Random(seed)
    type_makers = [
        lambda: BoolType(),
        lambda: EnumType("rand_enum", [f"e{i}" for i in range(rng.randint(2, 4))]),
        lambda: RangeType(0, rng.randint(1, 4)),
    ]
    state_vars = []
    for i in range(rng.randint(2, 4)):
        var_type = rng.choice(type_makers)()
        reset = rng.choice(var_type.values())
        state_vars.append(StateVar(f"v{i}", var_type, reset))

    def make_guard(var_name, value):
        return lambda state, _n=var_name, _v=value: state[_n] == _v

    choices = []
    for i in range(rng.randint(1, 3)):
        choice_type = rng.choice(type_makers)()
        guarded = guard_heavy or rng.random() < 0.5
        guard = None
        if guarded:
            watched = rng.choice(state_vars)
            guard = make_guard(watched.name, rng.choice(watched.type.values()))
        choices.append(ChoicePoint(f"c{i}", choice_type, guard=guard))

    domains = {v.name: v.type.values() for v in state_vars}

    def next_state(state, choice, _domains=domains):
        items = tuple(sorted(state.items())) + tuple(sorted(choice.items()))
        return {
            name: values[_stable_hash(name, items) % len(values)]
            for name, values in _domains.items()
        }

    return SyncModel(f"random{seed}", state_vars, choices, next_state)


# ---------------------------------------------------------------------------
# Property tests: compiled == interpreted, expansion by expansion
# ---------------------------------------------------------------------------


class TestRandomModelBitIdentity:
    @pytest.mark.parametrize("seed", range(12))
    def test_graphs_identical(self, seed):
        model = random_model(seed)
        interpreted, _ = enumerate_states(model, kernel="interpreted")
        compiled, _ = enumerate_states(model, kernel="compiled")
        assert compiled.to_json() == interpreted.to_json()

    @pytest.mark.parametrize("seed", range(12))
    def test_guard_heavy_graphs_identical(self, seed):
        model = random_model(seed, guard_heavy=True)
        interpreted, _ = enumerate_states(model, kernel="interpreted")
        compiled, _ = enumerate_states(model, kernel="compiled")
        assert compiled.to_json() == interpreted.to_json()

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_per_state_expansions_identical(self, seed):
        """Not just the final graph: every expansion row matches exactly
        (successor keys, condition tuples, and their order)."""
        model = random_model(seed, guard_heavy=True)
        graph, _ = enumerate_states(model, kernel="interpreted")
        interp = InterpretedKernel(model)
        comp = compile_model(model)
        for state_id in range(graph.num_states):
            key = graph.state_key(state_id)
            assert tuple(interp.expand(key)) == comp.expand(key)

    def test_zero_active_choice_state_yields_single_pinned_combo(self):
        model = SyncModel(
            "all_guards_false",
            state_vars=[StateVar("q", BoolType(), False)],
            choices=[
                ChoicePoint("a", BoolType(), guard=lambda s: s["q"]),
                ChoicePoint("b", EnumType("xy", ["x", "y"]),
                            guard=lambda s: s["q"], inactive_value="y"),
            ],
            next_state=lambda s, c: {"q": s["q"]},
        )
        kern = compile_model(model)
        row = kern.expand(kern.reset_key())
        # Both guards false at reset: one combination, choices pinned to
        # their inactive values, in declaration order.
        assert row == (((False, "y"), kern.reset_key()),)
        assert tuple(InterpretedKernel(model).expand(kern.reset_key())) == row

    @pytest.mark.parametrize("record_all", [False, True])
    def test_record_modes_identical(self, record_all):
        model = random_model(99)
        interpreted, _ = enumerate_states(
            model, record_all_conditions=record_all, kernel="interpreted"
        )
        compiled, _ = enumerate_states(
            model, record_all_conditions=record_all, kernel="compiled"
        )
        assert compiled.to_json() == interpreted.to_json()


# ---------------------------------------------------------------------------
# Golden tests on the PP model
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def pp_golden():
    graph, _ = enumerate_states(small_model(), kernel="interpreted")
    return graph.to_json()


class TestPPGolden:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_compiled_matches_interpreted(self, pp_golden, jobs):
        graph, _ = enumerate_states_parallel(
            small_model(), jobs=jobs, kernel="compiled"
        )
        assert graph.to_json() == pp_golden

    def test_interpreted_at_jobs2_runs_in_process(self, pp_golden, monkeypatch):
        """An interpreted kernel cannot produce a guard mask, so jobs=2
        selects the in-process executor: golden graph, no worker forked."""
        import repro.enumeration.pool as pool_mod

        def no_pool(*args, **kwargs):  # pragma: no cover - fails the test
            raise AssertionError("the in-process executor must not fork")

        monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", no_pool)
        obs = Observer()
        graph, stats = enumerate_states(
            small_model(), jobs=2, kernel="interpreted", obs=obs
        )
        assert graph.to_json() == pp_golden
        assert obs.metrics.total("enum.pool.spawns") == 0
        assert stats.pool_respawns == 0

    @pytest.mark.parametrize("record_all", [False, True])
    def test_record_modes(self, record_all):
        interpreted, _ = enumerate_states(
            small_model(), record_all_conditions=record_all,
            kernel="interpreted",
        )
        compiled, _ = enumerate_states(
            small_model(), record_all_conditions=record_all, kernel="compiled"
        )
        assert compiled.to_json() == interpreted.to_json()

    def test_interpreted_checkpoint_resumes_under_compiled(
        self, tmp_path, pp_golden
    ):
        """Checkpoints are kernel-interchangeable: interrupt an interpreted
        run, resume compiled (and the reverse), byte-compare."""
        checkpoint = CheckpointConfig(tmp_path, every_waves=1)
        with pytest.raises(KeyboardInterrupt):
            enumerate_states(
                small_model(), checkpoint=checkpoint,
                faults=FaultPlan(sigint_after_wave=3), kernel="interpreted",
            )
        graph, stats = enumerate_states(
            small_model(), checkpoint=checkpoint, resume=True,
            kernel="compiled",
        )
        assert graph.to_json() == pp_golden
        assert stats.resumed

    def test_compiled_checkpoint_resumes_under_interpreted(
        self, tmp_path, pp_golden
    ):
        checkpoint = CheckpointConfig(tmp_path, every_waves=1)
        with pytest.raises(KeyboardInterrupt):
            enumerate_states(
                small_model(), checkpoint=checkpoint,
                faults=FaultPlan(sigint_after_wave=3), kernel="compiled",
            )
        graph, _ = enumerate_states(
            small_model(), checkpoint=checkpoint, resume=True,
            kernel="interpreted",
        )
        assert graph.to_json() == pp_golden


# ---------------------------------------------------------------------------
# Kernel mechanics: resolution, caching, memo
# ---------------------------------------------------------------------------


class TestKernelResolution:
    def test_unknown_kernel_string_raises(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            resolve_kernel(small_model(), "vectorized")
        with pytest.raises(ValueError, match="unknown kernel"):
            enumerate_states(small_model(), kernel="bogus")

    def test_default_and_none_compile(self):
        model = small_model()
        assert resolve_kernel(model).kind == "compiled"
        assert resolve_kernel(model, None).kind == "compiled"
        assert resolve_kernel(model, "interpreted").kind == "interpreted"
        assert tuple(KERNEL_MODES) == ("compiled", "interpreted")

    def test_kernel_instances_pass_through(self):
        model = small_model()
        kern = CompiledKernel(model, strict=True)
        assert resolve_kernel(model, kern) is kern

    def test_compile_model_caches_per_options(self):
        model = small_model()
        assert compile_model(model) is compile_model(model)
        assert compile_model(model) is not compile_model(model, strict=True)
        # A different model instance gets its own kernel (and memo).
        assert compile_model(model) is not compile_model(small_model())

    def test_memo_reused_across_runs_and_record_modes(self):
        model = small_model()
        first, _ = enumerate_states(model, kernel="compiled")
        kern = compile_model(model)
        assert kern.memo_hits == 0
        assert kern.memo_entries == first.num_states
        enumerate_states(model, record_all_conditions=True, kernel="compiled")
        assert kern.memo_hits >= first.num_states

    def test_memo_can_be_disabled(self):
        model = random_model(5)
        kern = CompiledKernel(model, memo=False)
        graph, _ = enumerate_states(model, kernel=kern)
        assert kern.memo_entries == 0
        reference, _ = enumerate_states(model, kernel="interpreted")
        assert graph.to_json() == reference.to_json()

    def test_choice_tables_are_few(self):
        # The whole point: table count is bounded by guard signatures
        # (<= 2^guarded), not by state count.
        model = small_model()
        enumerate_states(model, kernel="compiled")
        kern = compile_model(model)
        guarded = sum(1 for c in model.choices if c.guard is not None)
        assert 0 < kern.tables.num_tables <= 2 ** guarded


# ---------------------------------------------------------------------------
# Soundness: what the fast path may and may not skip
# ---------------------------------------------------------------------------


def _model_with_bug(next_state):
    return SyncModel(
        "buggy",
        state_vars=[StateVar("q", BoolType(), False),
                    StateVar("n", RangeType(0, 3), 0)],
        choices=[ChoicePoint("en", BoolType())],
        next_state=next_state,
    )


class TestReducedValidationSoundness:
    def test_out_of_domain_raises_model_error(self):
        model = _model_with_bug(lambda s, c: {"q": s["q"], "n": 99})
        with pytest.raises(ModelError, match="out-of-domain"):
            enumerate_states(model, kernel="compiled")

    def test_missing_variable_raises_model_error(self):
        model = _model_with_bug(lambda s, c: {"q": s["q"]})
        with pytest.raises(ModelError, match="did not assign"):
            enumerate_states(model, kernel="compiled")

    def test_first_sight_catches_systematic_extra_variable(self):
        # An undeclared extra var on *every* transition is caught by the
        # validate-on-first-sight expansion of the reset state.
        model = _model_with_bug(
            lambda s, c: {"q": s["q"], "n": s["n"], "oops": 1}
        )
        with pytest.raises(ModelError, match="undeclared"):
            enumerate_states(model, kernel="compiled")

    def test_strict_mode_catches_conditional_extra_variable(self):
        # The one genuinely relaxed class: an extra var emitted only from
        # later states.  The fast path may miss it between samples; a
        # strict kernel must always raise, the interpreted path already
        # does.
        def next_state(s, c):
            nxt = {"q": not s["q"], "n": (s["n"] + 1) % 4}
            if s["n"] == 2:
                nxt["oops"] = 1
            return nxt

        with pytest.raises(ModelError, match="undeclared"):
            enumerate_states(_model_with_bug(next_state), kernel="interpreted")
        strict = CompiledKernel(_model_with_bug(next_state), strict=True)
        with pytest.raises(ModelError, match="undeclared"):
            enumerate_states(strict.model, kernel=strict)

    def test_sampled_validation_catches_conditional_extra_variable(self):
        def next_state(s, c):
            nxt = {"q": not s["q"], "n": (s["n"] + 1) % 4}
            if s["n"] == 2:
                nxt["oops"] = 1
            return nxt

        # sample_every=1 re-validates every transition: equivalent to
        # strict for detection, exercising the sampling branch itself.
        kern = CompiledKernel(_model_with_bug(next_state), sample_every=1)
        with pytest.raises(ModelError, match="undeclared"):
            enumerate_states(kern.model, kernel=kern)

    def test_strict_graphs_still_identical(self):
        model = random_model(42)
        strict = CompiledKernel(model, strict=True)
        graph, _ = enumerate_states(model, kernel=strict)
        reference, _ = enumerate_states(model, kernel="interpreted")
        assert graph.to_json() == reference.to_json()


# ---------------------------------------------------------------------------
# The generated expand of translated models
# ---------------------------------------------------------------------------


def _corrupt_successor(generated, bad_key):
    """``generated`` with the first successor of state ``bad_key`` off by
    one bit."""
    def expand(key, select):
        mask, row = generated(key, select)
        if key == bad_key:
            (condition, successor), *rest = row
            row = ((condition, successor ^ 1), *rest)
        return mask, row
    return expand


class TestGeneratedExpand:
    @pytest.mark.parametrize("fill_words", [1, 2, 3, 4])
    def test_every_state_matches_the_dict_path(self, fill_words):
        model = translated_model(fill_words)
        graph, _ = enumerate_states(model)
        generated = CompiledKernel(model, memo=False)
        reference = CompiledKernel(dict_twin(model), memo=False)
        assert generated.generated and not reference.generated
        for key in map(graph.state_key, range(graph.num_states)):
            assert generated.expand_masked(key) == reference.expand_masked(key)
        assert generated.sampled_validations == reference.sampled_validations

    def test_graph_matches_the_dict_path(self):
        model = translated_model(2)
        graph, _ = enumerate_states(model)
        reference, _ = enumerate_states(dict_twin(model))
        assert graph.to_json() == reference.to_json()

    def test_jobs2_is_byte_identical_to_jobs1(self):
        obs = Observer()
        parallel, _ = enumerate_states(translated_model(2), jobs=2, obs=obs)
        sequential, _ = enumerate_states(translated_model(2), jobs=1)
        assert parallel.to_json() == sequential.to_json()
        assert obs.metrics.gauge_value("enum.kernel.generated") == 1
        shard_workers = {
            row["labels"]["worker"] for row in obs.metrics.snapshot()["counters"]
            if row["name"] == "enum.shard.states"
        }
        assert shard_workers - {str(os.getpid())}, "no wave reached a worker"

    def test_strict_takes_the_dict_path(self):
        model = translated_model()
        calls = []

        def counting(key, select, _generated=model.generated_expand):
            calls.append(key)
            return _generated(key, select)

        model.generated_expand = counting
        strict = CompiledKernel(model, strict=True)
        assert not strict.generated
        graph, _ = enumerate_states(model, kernel=strict)
        assert calls == []
        fast = CompiledKernel(model)
        assert graph.to_json() == enumerate_states(model, kernel=fast)[0].to_json()
        assert len(calls) == graph.num_states

    def test_first_sight_catches_a_corrupt_successor(self):
        model = translated_model()
        reset = compile_model(model).reset_key()
        model.generated_expand = _corrupt_successor(model.generated_expand, reset)
        with pytest.raises(ModelError, match="disagrees with its next_state"):
            enumerate_states(model, kernel=CompiledKernel(model))

    def test_sampled_check_catches_a_corrupt_successor(self):
        model = translated_model()
        graph, _ = enumerate_states(model)
        model.generated_expand = _corrupt_successor(
            model.generated_expand, graph.state_key(graph.num_states - 1)
        )
        # The first state expanded is sound; re-validating every
        # transition reaches the bad one.
        with pytest.raises(ModelError, match="disagrees with its next_state"):
            enumerate_states(model, kernel=CompiledKernel(model, sample_every=1))

    def test_an_error_in_generated_code_reruns_the_dict_path(self):
        model = translated_model()

        def broken(key, select):
            raise ZeroDivisionError("generated code failed")

        model.generated_expand = broken
        kern = CompiledKernel(model)
        graph, _ = enumerate_states(model, kernel=kern)
        reference, _ = enumerate_states(dict_twin(model))
        assert graph.to_json() == reference.to_json()


# ---------------------------------------------------------------------------
# Lifetime: a dropped model is freed without the cycle collector
# ---------------------------------------------------------------------------


class TestModelLifetime:
    @pytest.mark.parametrize("build", [small_model, translated_model])
    def test_enumerated_model_is_freed_by_reference_counting(self, build):
        gc.collect()
        gc.disable()
        try:
            model = build()
            graph, _ = enumerate_states(model)
            assert compile_model(model).memo_entries == graph.num_states
            ref = weakref.ref(model)
            del model, graph
            assert ref() is None
        finally:
            gc.enable()


# ---------------------------------------------------------------------------
# Observability: identical enum.* totals, new enum.kernel.* counters
# ---------------------------------------------------------------------------


def _counter_totals(observer, prefix="enum."):
    metrics = observer.metrics
    return {
        name: metrics.total(name)
        for name in metrics.counter_names()
        if name.startswith(prefix) and not name.startswith("enum.kernel.")
        and not name.startswith("enum.shard.")
    }


class TestKernelMetrics:
    def test_enum_totals_identical_across_kernels(self):
        interpreted_obs, compiled_obs = Observer(), Observer()
        enumerate_states(small_model(), obs=interpreted_obs,
                         kernel="interpreted")
        enumerate_states(small_model(), obs=compiled_obs, kernel="compiled")
        totals = _counter_totals(interpreted_obs)
        assert totals
        assert _counter_totals(compiled_obs) == totals

    def test_kernel_counters_emitted(self):
        obs = Observer()
        model = small_model()
        graph, _ = enumerate_states(model, obs=obs, kernel="compiled")
        metrics = obs.metrics
        assert metrics.total("enum.kernel.expansions") == graph.num_states
        stats = metrics.histogram_stats("enum.kernel.compile_seconds")
        assert stats["count"] == 1

    def test_kernel_counters_are_per_run_deltas(self):
        # Kernels are cached across runs; each run must report only its
        # own delta, or aggregated reports double-count.
        model = small_model()
        enumerate_states(model, kernel="compiled")  # warm the memo
        obs = Observer()
        graph, _ = enumerate_states(model, obs=obs, kernel="compiled")
        assert obs.metrics.total("enum.kernel.memo_hits") == graph.num_states
        assert obs.metrics.total("enum.kernel.expansions") == 0

    def test_interpreted_emits_no_kernel_counters(self):
        obs = Observer()
        enumerate_states(small_model(), obs=obs, kernel="interpreted")
        kernel_counters = [
            name for name in obs.metrics.counter_names()
            if name.startswith("enum.kernel.")
        ]
        assert kernel_counters == []

    @pytest.mark.parametrize("build, strict, generated", [
        (small_model, False, 0),
        (translated_model, False, 1),
        (translated_model, True, 0),
    ])
    def test_generated_gauge_names_the_expansion_path(self, build, strict, generated):
        obs = Observer()
        model = build()
        enumerate_states(model, obs=obs, kernel=compile_model(model, strict=strict))
        assert obs.metrics.gauge_value("enum.kernel.generated") == generated

    def test_parallel_workers_report_kernel_counters(self):
        obs = Observer()
        graph, _ = enumerate_states_parallel(
            small_model(), jobs=4, obs=obs, kernel="compiled"
        )
        assert obs.metrics.total("enum.kernel.expansions") == graph.num_states
