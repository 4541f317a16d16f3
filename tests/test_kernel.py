"""The compiled transition kernel: bit-identity, soundness, metrics.

The golden property: the compiled kernel and the fully validated
reference oracle (:class:`tests.oracles.InterpretedKernel`, injected
through ``kernel=``) produce byte-identical state graphs -- same states,
same ids, same edges, same condition tuples -- on every model, at every
job count, in both condition-recording modes, and across
checkpoint/resume (a checkpoint written by one kernel resumes under the
other).  The property tests drive randomly generated models through
both kernels; the soundness tests pin down exactly which validation the
fast path is allowed to skip and prove the escape hatches (sampled
re-validation, pack-failure fallback) restore the oracle's diagnostics.
"""

import copy
import gc
import json
import os
import random
import weakref
import zlib

import pytest

from repro.enumeration import (
    CompiledKernel,
    WorkerPool,
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
from repro.smurphi.state import StateCodec
from tests.oracles import InterpretedKernel

SMALL = PPModelConfig(fill_words=1)


def small_model():
    return build_pp_control_model(SMALL)


def translated_model(fill_words: int = 1) -> SyncModel:
    """The PP control translated from Verilog: it has a generated expand."""
    return build_pp_control_model_from_verilog(PPModelConfig(fill_words=fill_words))[0]


def dict_twin(model: SyncModel) -> SyncModel:
    """``model`` without its generated expand: expansion takes the dict path."""
    return SyncModel(model.name, model.state_vars, model.choices, model._next_state)


def oracle_enumerate(model: SyncModel, **kwargs):
    """``enumerate_states`` through the reference oracle."""
    return enumerate_states(model, kernel=InterpretedKernel(model), **kwargs)


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
        interpreted, _ = oracle_enumerate(model)
        compiled, _ = enumerate_states(model)
        assert compiled.to_json() == interpreted.to_json()

    @pytest.mark.parametrize("seed", range(12))
    def test_guard_heavy_graphs_identical(self, seed):
        model = random_model(seed, guard_heavy=True)
        interpreted, _ = oracle_enumerate(model)
        compiled, _ = enumerate_states(model)
        assert compiled.to_json() == interpreted.to_json()

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_per_state_expansions_identical(self, seed):
        """Not just the final graph: every expansion row matches exactly
        (successor keys, condition tuples, and their order)."""
        model = random_model(seed, guard_heavy=True)
        graph, _ = oracle_enumerate(model)
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
        interpreted, _ = oracle_enumerate(
            model, record_all_conditions=record_all
        )
        compiled, _ = enumerate_states(
            model, record_all_conditions=record_all
        )
        assert compiled.to_json() == interpreted.to_json()


# ---------------------------------------------------------------------------
# Read-set elision: models whose next_state reads choices selectively
# ---------------------------------------------------------------------------


#: One full choice row of :func:`selective_model`, for the ``==`` read.
SELECTIVE_ROW = {"c0": False, "c1": False, "c2": False, "c3": "e0"}

#: Each whole-mapping read the elision must treat as reading every
#: choice, as a function of the choice that next_state folds into its
#: result.
WHOLE_READS = {
    "iteration": lambda c: tuple(name for name in c),
    "keys": lambda c: tuple(c.keys()),
    "items": lambda c: tuple(sorted(c.items())),
    "values": lambda c: tuple(map(repr, c.values())),
    "len": lambda c: len(c),
    "in": lambda c: "c0" in c,
    "copy": lambda c: tuple(sorted(c.copy().items())),
    "copy.copy": lambda c: tuple(sorted(copy.copy(c).items())),
    "copy.deepcopy": lambda c: tuple(sorted(copy.deepcopy(c).items())),
    "dict": lambda c: tuple(sorted(dict(c).items())),
    "eq": lambda c: c == SELECTIVE_ROW,
    "or": lambda c: tuple(sorted((c | {}).items())),
    "update": lambda c: tuple(sorted(_updated(c).items())),
}


def _updated(choice):
    env = {}
    env.update(choice)
    return env


def selective_model(seed: int, whole_read=None) -> SyncModel:
    """``random_model(seed)``'s state variables, the choices of
    :data:`SELECTIVE_ROW` (``c2`` guarded), and a ``next_state`` that
    walks a state-dependent path of choice reads.

    Each step reads one choice through ``c[name]`` or ``c.get(name,
    default)`` (sometimes a name twice, sometimes a name the model does
    not declare), and which name it reads next depends on the values read
    so far; the successor hashes the state and that read path.  With
    ``whole_read`` (a :data:`WHOLE_READS` key) every third state instead
    folds that one whole-mapping read into its successor.
    """
    state_vars = random_model(seed).state_vars
    watched = random.Random(seed).choice(state_vars)
    guard_value = watched.type.values()[0]
    choices = [
        ChoicePoint("c0", BoolType()),
        ChoicePoint("c1", BoolType()),
        ChoicePoint("c2", BoolType(),
                    guard=lambda s: s[watched.name] == guard_value),
        ChoicePoint("c3", EnumType("sel", ["e0", "e1", "e2"])),
    ]
    names = [c.name for c in choices] + ["undeclared"]
    domains = {v.name: v.type.values() for v in state_vars}
    whole = WHOLE_READS[whole_read] if whole_read else None

    def next_state(state, choice):
        here = tuple(sorted(state.items()))
        path = []
        if whole is not None and _stable_hash(here) % 3 == 0:
            path.append(("whole", whole(choice)))
            steps = 0
        else:
            steps = 4
        for step in range(steps):
            pick = _stable_hash(here, tuple(path), step)
            if pick % 5 == 0:
                break
            name = names[pick // 5 % len(names)]
            if pick % 2:
                path.append((name, choice.get(name, "absent")))
            elif name != "undeclared":
                path.append((name, choice[name]))
        return {
            name: values[_stable_hash(name, here, tuple(path)) % len(values)]
            for name, values in domains.items()
        }

    return SyncModel(f"selective{seed}", state_vars, choices, next_state)


def _assert_kernels_agree(model: SyncModel, jobs=(1,)) -> int:
    """Compiled == interpreted: the graph at each of ``jobs`` and every
    expansion row.  Returns the compiled kernel's ``next_state`` calls,
    which must not depend on ``jobs``."""
    interpreted, _ = oracle_enumerate(model)
    calls = set()
    for count in jobs:
        obs = Observer()
        compiled, _ = enumerate_states(model, jobs=count, obs=obs)
        assert compiled.to_json() == interpreted.to_json()
        calls.add(obs.metrics.total("enum.kernel.next_state_calls"))
    interp, comp = InterpretedKernel(model), compile_model(model)
    comp.start_run()
    for key in map(interpreted.state_key, range(interpreted.num_states)):
        assert tuple(interp.expand(key)) == comp.expand(key)
    (total,) = calls
    return total


class TestReadSetElision:
    @pytest.mark.parametrize("seed", range(16))
    def test_selective_reads_match_interpreted(self, seed):
        model = selective_model(seed)
        calls = _assert_kernels_agree(model)
        graph, stats = oracle_enumerate(model)
        assert 0 < calls <= stats.transitions_explored

    def test_selective_reads_elide(self):
        """The family really exercises elision: across the seeds, far
        fewer next_state calls than transitions."""
        calls = transitions = 0
        for seed in range(16):
            obs = Observer()
            _, stats = enumerate_states(selective_model(seed), obs=obs)
            calls += obs.metrics.total("enum.kernel.next_state_calls")
            transitions += stats.transitions_explored
        assert calls < transitions / 2

    @pytest.mark.parametrize("whole_read", sorted(WHOLE_READS))
    @pytest.mark.parametrize("seed", [1, 2, 5])
    def test_whole_mapping_reads_match_interpreted(self, whole_read, seed):
        _assert_kernels_agree(selective_model(seed, whole_read))

    @pytest.mark.parametrize("whole_read", sorted(WHOLE_READS))
    def test_whole_mapping_read_fills_only_its_row(self, whole_read):
        """A row whose next_state read the whole choice shares its
        successor with no other row: one call per row."""
        model = SyncModel(
            "whole",
            state_vars=[StateVar("q", BoolType(), False)],
            choices=[ChoicePoint("c0", BoolType()), ChoicePoint("c1", BoolType())],
            next_state=lambda s, c, _read=WHOLE_READS[whole_read]: (
                _read(c), {"q": not s["q"]})[1],
        )
        kern = compile_model(model)
        kern.start_run()
        kern.expand(kern.reset_key())
        assert kern.next_state_calls == 4

    @pytest.mark.parametrize("sample_every, silent_calls", [(1024, 0), (1, 3)])
    def test_hidden_state_raises_model_error(self, sample_every, silent_calls):
        """A next_state that reads a hidden counter instead of its choice
        is no function of its reads: the first-sight check refuses it,
        or, when the counter starts to matter only after the first state
        (one elided call and two checked rows), the sampled check."""
        calls = [0]

        def next_state(s, c):
            calls[0] += 1
            flip = calls[0] > silent_calls and calls[0] % 2 == 1
            return {"q": flip, "n": (s["n"] + 1) % 4}

        kern = CompiledKernel(_model_with_bug(next_state),
                              sample_every=sample_every)
        with pytest.raises(ModelError, match="disagrees with its next_state"):
            enumerate_states(kern.model, kernel=kern)


class _PathRecorder(dict):
    """The test's own log of the choice values a PP step reads."""

    def __init__(self, choice, path):
        super().__init__(choice)
        self.path = path

    def __getitem__(self, name):
        value = super().__getitem__(name)
        self.path.append((name, value))
        return value

    def get(self, name, default=None):
        return self[name] if name in self else default


def _distinct_read_paths(model, graph) -> int:
    """Distinct (state, read path) pairs over every state of ``graph``."""
    codec, total = StateCodec(model.state_vars), 0
    for key in map(graph.state_key, range(graph.num_states)):
        state = codec.unpack(key)
        paths = set()
        for choice in model.enumerate_choices(state):
            path = []
            model._next_state(state, _PathRecorder(choice, path))
            paths.add(tuple(path))
        total += len(paths)
    return total


class TestPPElision:
    def test_branch_model_matches_interpreted(self):
        """The branch model's step reads ``c["fetch_class"]`` twice on
        one path and hands the base step a BR-as-ALU view of the choice;
        jobs=2 expands its large waves on workers."""
        model = build_pp_control_model(PPModelConfig(fill_words=1,
                                                     model_branches=True))
        calls = _assert_kernels_agree(model, jobs=(1, 2))
        assert calls < enumerate_states(model)[1].transitions_explored / 2

    def test_next_state_calls_are_distinct_read_paths(self):
        """One next_state call per distinct (state, read path), counted
        by an independent recorder; the first state's full check runs
        through step() and is not counted.  Workers on a pool report the
        same total."""
        model = small_model()
        obs = Observer()
        graph, stats = enumerate_states(model, obs=obs)
        calls = obs.metrics.total("enum.kernel.next_state_calls")
        assert stats.transitions_explored == 52844
        assert calls == _distinct_read_paths(model, graph) == 13209
        pool, pooled = WorkerPool(2), Observer()
        try:
            parallel, _ = enumerate_states(small_model(), jobs=2, pool=pool,
                                           obs=pooled)
        finally:
            pool.shutdown()
        assert parallel.to_json() == graph.to_json()
        assert pooled.metrics.total("enum.kernel.next_state_calls") == calls
        workers = {
            row["labels"].get("worker") for row in pooled.metrics.snapshot()["counters"]
            if row["name"] == "enum.kernel.next_state_calls"
        }
        assert workers - {None}, "no wave reached a worker"


# ---------------------------------------------------------------------------
# Golden tests on the PP model
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def pp_golden():
    graph, _ = oracle_enumerate(small_model())
    return graph.to_json()


class TestPPGolden:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_compiled_matches_interpreted(self, pp_golden, jobs):
        graph, _ = enumerate_states_parallel(small_model(), jobs=jobs)
        assert graph.to_json() == pp_golden

    def test_interpreted_at_jobs2_runs_in_process(self, pp_golden, monkeypatch):
        """An interpreted kernel cannot produce a guard mask, so jobs=2
        selects the in-process executor: golden graph, no worker forked."""
        import repro.enumeration.pool as pool_mod

        def no_pool(*args, **kwargs):  # pragma: no cover - fails the test
            raise AssertionError("the in-process executor must not fork")

        monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", no_pool)
        obs = Observer()
        graph, stats = oracle_enumerate(small_model(), jobs=2, obs=obs)
        assert graph.to_json() == pp_golden
        assert obs.metrics.total("enum.pool.spawns") == 0
        assert stats.pool_respawns == 0

    @pytest.mark.parametrize("record_all", [False, True])
    def test_record_modes(self, record_all):
        interpreted, _ = oracle_enumerate(
            small_model(), record_all_conditions=record_all
        )
        compiled, _ = enumerate_states(
            small_model(), record_all_conditions=record_all
        )
        assert compiled.to_json() == interpreted.to_json()

    def test_interpreted_checkpoint_resumes_under_compiled(
        self, tmp_path, pp_golden
    ):
        """Checkpoints are kernel-interchangeable: interrupt an interpreted
        run, resume compiled (and the reverse), byte-compare."""
        checkpoint = CheckpointConfig(tmp_path, every_waves=1)
        with pytest.raises(KeyboardInterrupt):
            oracle_enumerate(
                small_model(), checkpoint=checkpoint,
                faults=FaultPlan(sigint_after_wave=3),
            )
        graph, stats = enumerate_states(
            small_model(), checkpoint=checkpoint, resume=True
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
                faults=FaultPlan(sigint_after_wave=3),
            )
        graph, _ = oracle_enumerate(
            small_model(), checkpoint=checkpoint, resume=True
        )
        assert graph.to_json() == pp_golden


# ---------------------------------------------------------------------------
# Kernel mechanics: resolution, caching
# ---------------------------------------------------------------------------


class TestKernelResolution:
    def test_default_and_none_compile(self):
        model = small_model()
        assert resolve_kernel(model) is compile_model(model)
        assert resolve_kernel(model, None) is compile_model(model)

    def test_kernel_instances_pass_through(self):
        model = small_model()
        kern = CompiledKernel(model, sample_every=1)
        assert resolve_kernel(model, kern) is kern
        oracle = InterpretedKernel(model)
        assert resolve_kernel(model, oracle) is oracle

    def test_compile_model_caches_per_model(self):
        model = small_model()
        assert compile_model(model) is compile_model(model)
        # A different model instance gets its own kernel.
        assert compile_model(model) is not compile_model(small_model())

    def test_choice_tables_are_few(self):
        # The whole point: table count is bounded by guard signatures
        # (<= 2^guarded), not by state count.
        model = small_model()
        enumerate_states(model)
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
            enumerate_states(model)

    def test_missing_variable_raises_model_error(self):
        model = _model_with_bug(lambda s, c: {"q": s["q"]})
        with pytest.raises(ModelError, match="did not assign"):
            enumerate_states(model)

    def test_first_sight_catches_systematic_extra_variable(self):
        # An undeclared extra var on *every* transition is caught by the
        # validate-on-first-sight expansion of the reset state.
        model = _model_with_bug(
            lambda s, c: {"q": s["q"], "n": s["n"], "oops": 1}
        )
        with pytest.raises(ModelError, match="undeclared"):
            enumerate_states(model)

    def test_strict_mode_catches_conditional_extra_variable(self):
        # The one genuinely relaxed class: an extra var emitted only from
        # later states.  The fast path may miss it between samples; the
        # fully validated oracle always raises, and so does a compiled
        # kernel that checks every transition (next test).
        def next_state(s, c):
            nxt = {"q": not s["q"], "n": (s["n"] + 1) % 4}
            if s["n"] == 2:
                nxt["oops"] = 1
            return nxt

        with pytest.raises(ModelError, match="undeclared"):
            oracle_enumerate(_model_with_bug(next_state))
        kern = CompiledKernel(_model_with_bug(next_state), sample_every=1)
        with pytest.raises(ModelError, match="undeclared"):
            enumerate_states(kern.model, kernel=kern)

    def test_sampled_validation_catches_conditional_extra_variable(self):
        def next_state(s, c):
            nxt = {"q": not s["q"], "n": (s["n"] + 1) % 4}
            if s["n"] == 2:
                nxt["oops"] = 1
            return nxt

        # sample_every=1 re-validates every transition: as thorough as
        # the oracle for detection, exercising the sampling branch itself.
        kern = CompiledKernel(_model_with_bug(next_state), sample_every=1)
        with pytest.raises(ModelError, match="undeclared"):
            enumerate_states(kern.model, kernel=kern)

    def test_strict_graphs_still_identical(self):
        model = random_model(42)
        graph, _ = enumerate_states(model)
        reference, _ = oracle_enumerate(model)
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
        generated = CompiledKernel(model)
        reference = CompiledKernel(dict_twin(model))
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
        twin = dict_twin(model)
        assert not compile_model(twin).generated
        graph, _ = enumerate_states(twin)
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
            assert compile_model(model).expansions == graph.num_states
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
        oracle_enumerate(small_model(), obs=interpreted_obs)
        enumerate_states(small_model(), obs=compiled_obs)
        totals = _counter_totals(interpreted_obs)
        assert totals
        assert _counter_totals(compiled_obs) == totals
        # In-process waves are coordinator shards under either kernel.
        for observer in (interpreted_obs, compiled_obs):
            metrics = observer.metrics
            assert (metrics.total("enum.shard.transitions")
                    == metrics.total("enum.transitions_explored") > 0)
            assert (metrics.total("enum.shard.states")
                    == metrics.total("enum.states"))

    def test_kernel_counters_emitted(self):
        obs = Observer()
        model = small_model()
        graph, _ = enumerate_states(model, obs=obs)
        metrics = obs.metrics
        assert metrics.total("enum.kernel.expansions") == graph.num_states
        stats = metrics.histogram_stats("enum.kernel.compile_seconds")
        assert stats["count"] == 1

    def test_kernel_counters_are_per_run_deltas(self):
        # Kernels are cached across runs; each run must report only its
        # own delta, or aggregated reports double-count.
        model = small_model()
        first, second = Observer(), Observer()
        enumerate_states(model, obs=first)
        graph, _ = enumerate_states(model, obs=second)
        assert compile_model(model).expansions == 2 * graph.num_states
        assert second.metrics.total("enum.kernel.expansions") == graph.num_states
        # Each run restarts the validation schedule, so both do the same
        # checks.
        validations = "enum.kernel.sampled_validations"
        assert (second.metrics.total(validations)
                == first.metrics.total(validations) > 0)

    def test_interpreted_emits_no_kernel_counters(self):
        obs = Observer()
        oracle_enumerate(small_model(), obs=obs)
        kernel_counters = [
            name for name in obs.metrics.counter_names()
            if name.startswith("enum.kernel.")
        ]
        assert kernel_counters == []

    @pytest.mark.parametrize("build, twin, generated", [
        (small_model, False, 0),
        (translated_model, False, 1),
        (translated_model, True, 0),
    ])
    def test_generated_gauge_names_the_expansion_path(self, build, twin, generated):
        obs = Observer()
        model = dict_twin(build()) if twin else build()
        enumerate_states(model, obs=obs)
        assert obs.metrics.gauge_value("enum.kernel.generated") == generated

    def test_parallel_workers_report_kernel_counters(self):
        obs = Observer()
        graph, _ = enumerate_states_parallel(small_model(), jobs=4, obs=obs)
        assert obs.metrics.total("enum.kernel.expansions") == graph.num_states
