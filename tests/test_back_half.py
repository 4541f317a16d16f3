"""Tests for the accelerated pipeline back half.

Covers the three tentpole pieces end to end at small (fill_words=1)
scale:

- the shared :class:`TransitionEventMemo` (transitions computed exactly
  once per unique ``(src, condition)`` pair across the tour cost function
  AND vector generation, for the base and the branch-extended model);
- parallel vector generation on a :class:`WorkerPool` (byte-identical
  TraceSets in-process vs on ``WorkerPool(2)``/``WorkerPool(4)``, all
  equal to a memo-free replay of every arc);
- load-balanced comparison scheduling (results, divergence cut point and
  metrics identical to the sequential contract at any pool size or
  chunksize; a degraded or closed pool runs exactly the sequential loop;
  results already known for some traces fill their places unsimulated);
- the comparison run's shared decode table (results identical to
  per-trace runs with private tables, under the clean and every bug
  config, in process and on a pool).
"""

import pickle
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.bugs import BUGS, injected_config
from repro.core.pipeline import ValidationPipeline
from repro.enumeration import WorkerPool, enumerate_states
from repro.harness import compare as compare_mod
from repro.harness.compare import run_vector_trace, run_vector_traces
from repro.obs import MetricsRegistry, Observer
from repro.pp import fsm_model as fsm_model_mod
from repro.pp.branches import BranchPPControlModel, BranchVectorGenerator
from repro.pp.fsm_model import PPControlModel, PPModelConfig
from repro.pp.rtl.core import CoreConfig, PPCore, predecode
from repro.smurphi.state import StateCodec
from repro.tour import IndexedTourGenerator
from repro.vectors import generator as generator_mod
from repro.vectors import (
    TransitionEventMemo,
    VectorGenerator,
    pp_instruction_cost,
)
from tests.oracles import ReferenceStateCodec


@pytest.fixture(scope="module")
def model_setup():
    """``model_setup(cls)``: a fill_words=1 ``cls`` control model, its
    graph and its indexed tours (limit 200), built once per class."""
    built = {}

    def get(cls):
        if cls not in built:
            control = cls(PPModelConfig(fill_words=1))
            graph, _ = enumerate_states(control.build())
            memo = TransitionEventMemo(control, graph)
            cost = pp_instruction_cost(control, graph, memo=memo)
            tour_set = IndexedTourGenerator(
                graph, instruction_cost=cost, max_instructions_per_trace=200
            ).generate()
            built[cls] = control, graph, list(tour_set)
        return built[cls]

    return get


@pytest.fixture(scope="module")
def control(model_setup):
    return model_setup(PPControlModel)[0]


@pytest.fixture(scope="module")
def graph(model_setup):
    return model_setup(PPControlModel)[1]


@pytest.fixture(scope="module")
def tours(model_setup):
    return model_setup(PPControlModel)[2]


class ReplayVectorGenerator(VectorGenerator):
    """Reference generator: replays every traversed arc through the model
    (``transition_events`` then ``step``) instead of reading the memo."""

    def __init__(self, model, graph, seed):
        super().__init__(model, graph, seed=seed)
        self.codec = StateCodec(model.state_vars)

    def _transition(self, edge_index):
        edge = self.graph.edge(edge_index)
        state = self.codec.unpack(self.graph.state_key(edge.src))
        choice = dict(zip(self.model.choice_names, edge.condition))
        events = self.model.transition_events(state, choice)
        next_state = self.model.step(state, choice)
        advanced = any(e[0] == "pipe_advance" for e in events)
        return events, state["mem"], bool(next_state["st_pend"]), advanced


@pytest.fixture(scope="module")
def baseline_traces(control, graph, tours):
    """The memo-free sequential replay, used as the identity reference."""
    return ReplayVectorGenerator(control, graph, seed=11).generate(tours)


def dumps(trace_set):
    return pickle.dumps(trace_set.traces)


def run_concurrently(*calls, rounds=3):
    """Run each zero-argument call ``rounds`` times, every call on its own
    thread, all threads released together; return each call's results."""
    barrier = threading.Barrier(len(calls))

    def repeat(call):
        barrier.wait()
        return [call() for _ in range(rounds)]

    with ThreadPoolExecutor(len(calls)) as threads:
        return [f.result() for f in [threads.submit(repeat, c) for c in calls]]


@pytest.fixture(scope="class")
def worker_pool():
    """``worker_pool(n)``: one ``WorkerPool(n)`` per size for the class,
    shut down at class teardown."""
    pools = {}

    def get(jobs):
        if jobs not in pools:
            pools[jobs] = WorkerPool(jobs)
        return pools[jobs]

    yield get
    for pool in pools.values():
        pool.shutdown()


class TestTransitionEventMemo:
    @pytest.mark.parametrize("model_cls, generator_cls", [
        (PPControlModel, VectorGenerator),
        (BranchPPControlModel, BranchVectorGenerator),
    ], ids=["base", "branch"])
    def test_events_computed_once_per_unique_pair(
        self, model_setup, model_cls, generator_cls
    ):
        control, graph, tours = model_setup(model_cls)
        memo = TransitionEventMemo(control, graph)
        calls = []
        original_step = control._step

        def counting_step(state, choice):
            calls.append(1)
            return original_step(state, choice)

        control._step = counting_step
        try:
            cost = pp_instruction_cost(control, graph, memo=memo)
            for edge in graph.edges():
                cost(edge)
            generator_cls(control, graph, seed=11, memo=memo).generate(tours)
        finally:
            control._step = original_step

        unique_pairs = {(e.src, e.condition) for e in graph.edges()}
        assert len(calls) == len(unique_pairs)
        assert memo.computed == len(unique_pairs)
        assert len(memo) == len(unique_pairs)
        # Every arc the tours traverse beyond the first visit was a hit.
        assert memo.hits > 0

    def test_memo_agrees_with_direct_replay(self, control, graph):
        memo = TransitionEventMemo(control, graph)
        codec = memo.codec
        for edge in list(graph.edges())[:50]:
            events, src_mem, st_pend_after, instructions, advanced = memo.lookup(
                edge.src, edge.condition
            )
            state = codec.unpack(graph.state_key(edge.src))
            choice = dict(zip(control.choice_names, edge.condition))
            assert list(events) == control.transition_events(state, choice)
            assert src_mem == state["mem"]
            assert st_pend_after == bool(control.step(state, choice)["st_pend"])
            assert advanced == any(e[0] == "pipe_advance" for e in events)

    def test_unpack_matches_state_codec(self, control, graph):
        """The memo's codec gives the same dicts, in the same key order,
        as the field-by-field reference codec."""
        reference = ReferenceStateCodec(control.state_vars)
        codec = TransitionEventMemo(control, graph).codec
        for state_id in range(graph.num_states):
            key = graph.state_key(state_id)
            expected = reference.unpack(key)
            got = codec.unpack(key)
            assert got == expected
            assert list(got) == list(expected)

    def test_lookup_edge_shares_entries(self, control, graph):
        memo = TransitionEventMemo(control, graph)
        entry = memo.lookup_edge(0)
        edge = graph.edge(0)
        assert memo.lookup(edge.src, edge.condition) is entry
        assert memo.lookup_edge(0) is entry
        with pytest.raises(KeyError):
            memo.lookup(edge.src, (None,) * len(edge.condition))

    def test_memo_retains_under_32_bytes_per_arc(self):
        """Bytes still alive after a full cost pass at fw=2 that were
        allocated by the memo or the model's step: an outcome-id column
        plus a table of the few hundred distinct outcomes.  One event list
        and outcome tuple per arc (about 410 B) cannot come in under the
        bound; the columnar memo takes about 20 B."""
        control = PPControlModel(PPModelConfig(fill_words=2))
        graph, _ = enumerate_states(control.build())
        tracemalloc.start()
        try:
            memo = TransitionEventMemo(control, graph)
            pp_instruction_cost(control, graph, memo=memo).edge_costs(graph)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        assert graph.num_edges == 13_329
        assert len(memo) == graph.num_edges
        retained = sum(
            stat.size for stat in snapshot.filter_traces([
                tracemalloc.Filter(True, generator_mod.__file__),
                tracemalloc.Filter(True, fsm_model_mod.__file__),
            ]).statistics("filename")
        )
        assert retained / graph.num_edges <= 32

    def test_cost_function_matches_pre_memo_semantics(self, control, graph):
        cost = pp_instruction_cost(control, graph)
        for edge in list(graph.edges())[:50]:
            state = TransitionEventMemo(control, graph).codec.unpack(
                graph.state_key(edge.src)
            )
            choice = dict(zip(control.choice_names, edge.condition))
            expected = 0
            for event in control.transition_events(state, choice):
                if event[0] == "fetch" and event[2]:
                    expected += 2 if event[3] else 1
            assert cost(edge) == expected


class TestVectorIdentity:
    def test_memoized_matches_baseline(self, control, graph, tours, baseline_traces):
        memoized = VectorGenerator(control, graph, seed=11).generate(tours)
        assert dumps(memoized) == dumps(baseline_traces)

    def test_shared_warm_memo_matches_baseline(
        self, control, graph, tours, baseline_traces
    ):
        memo = TransitionEventMemo(control, graph)
        cost = pp_instruction_cost(control, graph, memo=memo)
        for edge in graph.edges():
            cost(edge)  # warm exactly the way the tour phase does
        warm = VectorGenerator(control, graph, seed=11, memo=memo).generate(tours)
        assert dumps(warm) == dumps(baseline_traces)

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_parallel_matches_baseline(
        self, control, graph, tours, baseline_traces, worker_pool, jobs
    ):
        parallel = VectorGenerator(control, graph, seed=11).generate(
            tours, pool=worker_pool(jobs)
        )
        assert dumps(parallel) == dumps(baseline_traces)

    def test_jobs_exceeding_tours_ok(
        self, control, graph, tours, baseline_traces, worker_pool
    ):
        metrics = MetricsRegistry()
        parallel = VectorGenerator(control, graph, seed=11).generate(
            tours, obs=Observer(metrics=metrics),
            pool=worker_pool(len(tours) + 8),
        )
        assert dumps(parallel) == dumps(baseline_traces)
        assert metrics.gauge_value("vectors.workers") == len(tours)

    def test_generator_is_published_only_during_a_call(
        self, control, graph, tours, baseline_traces
    ):
        """No module global keeps a finished build alive, and a repeat
        call of one generator on a shared pool reuses its warm workers."""
        generator = VectorGenerator(control, graph, seed=11)
        generator.generate(tours)
        assert generator_mod._TASK_GENERATOR is None
        pool = WorkerPool(2)
        try:
            for _ in range(2):
                traces = generator.generate(tours, pool=pool)
                assert generator_mod._TASK_GENERATOR is None
                assert dumps(traces) == dumps(baseline_traces)
            assert pool.spawns == 1
        finally:
            pool.shutdown()

    def test_concurrent_in_process_calls_do_not_mix(
        self, model_setup, baseline_traces
    ):
        """Two generators over different models, generating in-process on
        concurrent threads (as inline serve jobs do), each produce exactly
        their own single-threaded traces."""
        control, graph, tours = model_setup(PPControlModel)
        b_control, b_graph, b_tours = model_setup(BranchPPControlModel)
        branch = BranchVectorGenerator(b_control, b_graph, seed=11)
        branch_baseline = dumps(branch.generate(b_tours))
        base = VectorGenerator(control, graph, seed=11)
        base_runs, branch_runs = run_concurrently(
            lambda: dumps(base.generate(tours)),
            lambda: dumps(branch.generate(b_tours)),
        )
        assert base_runs == [dumps(baseline_traces)] * 3
        assert branch_runs == [branch_baseline] * 3
        assert generator_mod._TASK_GENERATOR is None

    def test_different_seed_differs(self, control, graph, tours, baseline_traces):
        other = VectorGenerator(control, graph, seed=12).generate(tours)
        assert dumps(other) != dumps(baseline_traces)

    def test_worker_gauges_identical_across_jobs(
        self, control, graph, tours, worker_pool
    ):
        def gauges(pool):
            metrics = MetricsRegistry()
            VectorGenerator(control, graph, seed=11).generate(
                tours, obs=Observer(metrics=metrics), pool=pool
            )
            return metrics

        seq = gauges(None)
        par = gauges(worker_pool(4))
        # memo_entries is sampled before generation, so sequential and
        # parallel runs agree (worker-side fills are invisible).
        assert (seq.gauge_value("vectors.memo_entries")
                == par.gauge_value("vectors.memo_entries") == 0)
        assert seq.gauge_value("vectors.workers") == 1
        assert par.gauge_value("vectors.workers") == 4
        assert (seq.counter_value("vectors.traces")
                == par.counter_value("vectors.traces") == len(tours))


class TestComparisonScheduling:
    @pytest.fixture(scope="class")
    def trace_list(self, control, graph, tours):
        return list(VectorGenerator(control, graph, seed=11).generate(tours))

    def run(self, traces, **kwargs):
        return run_vector_traces(traces, **kwargs)

    def results_dump(self, results):
        return [
            (r.diverged, r.differences, r.write_mismatch, r.cycles,
             r.instructions, r.deadlocked)
            for r in results
        ]

    def test_clean_run_identical_across_jobs(self, trace_list, worker_pool):
        seq_results, seq_div = self.run(trace_list)
        par_results, par_div = self.run(trace_list, pool=worker_pool(4))
        assert self.results_dump(par_results) == self.results_dump(seq_results)
        assert par_div == seq_div == []
        assert len(seq_results) == len(trace_list)

    def test_divergence_cut_point_identical(self, trace_list, worker_pool):
        config = injected_config(2)
        seq_results, seq_div = self.run(trace_list, config=config)
        par_results, par_div = self.run(
            trace_list, pool=worker_pool(4), config=config
        )
        assert seq_div, "bug 2 must diverge for this test to bite"
        assert par_div == seq_div
        # The parallel result list must cut at the first diverging trace
        # even though workers raced ahead on later in-flight traces.
        assert len(par_results) == len(seq_results) == seq_div[0] + 1
        assert self.results_dump(par_results) == self.results_dump(seq_results)

    def test_no_leak_past_cut_point(self, trace_list, worker_pool):
        config = injected_config(2)
        _, seq_div = self.run(trace_list, config=config)
        first = seq_div[0]
        assert first < len(trace_list) - 1, (
            "divergence must not be on the last trace for the leak test"
        )
        # Tiny chunks maximize the number of in-flight later traces when
        # the coordinator terminates the pool.
        par_results, par_div = self.run(
            trace_list, pool=worker_pool(4), config=config, chunksize=1
        )
        assert par_div == [first]
        assert len(par_results) == first + 1

    def test_continue_past_divergences(self, trace_list, worker_pool):
        config = injected_config(2)
        seq_results, seq_div = self.run(
            trace_list, config=config, stop_on_divergence=False
        )
        par_results, par_div = self.run(
            trace_list, pool=worker_pool(4), config=config,
            stop_on_divergence=False,
        )
        assert len(seq_results) == len(trace_list)
        assert par_div == seq_div
        assert self.results_dump(par_results) == self.results_dump(seq_results)

    @pytest.mark.parametrize("chunksize", [1, 2, 100])
    def test_chunksize_does_not_change_results(
        self, trace_list, worker_pool, chunksize
    ):
        seq_results, seq_div = self.run(trace_list)
        par_results, par_div = self.run(
            trace_list, pool=worker_pool(4), chunksize=chunksize
        )
        assert self.results_dump(par_results) == self.results_dump(seq_results)
        assert par_div == seq_div

    def test_metrics_identical_across_jobs(self, trace_list, worker_pool):
        def metrics_for(pool):
            metrics = MetricsRegistry()
            self.run(trace_list, pool=pool, obs=Observer(metrics=metrics))
            return metrics

        seq = metrics_for(None)
        par = metrics_for(worker_pool(4))
        for name in ("compare.traces_run", "compare.instructions_run",
                     "compare.cycles_run"):
            assert seq.counter_value(name) == par.counter_value(name), name
        assert seq.gauge_value("compare.workers") == 1
        assert par.gauge_value("compare.workers") == 4
        assert par.gauge_value("compare.chunksize") >= 1

    @pytest.mark.parametrize("state", ["degraded", "closed"])
    def test_unavailable_pool_runs_sequential_loop(
        self, trace_list, monkeypatch, state
    ):
        """A pool that cannot dispatch must not simulate past the cut:
        exactly the sequential loop's ``diverging[0] + 1`` traces."""
        config = injected_config(2)
        seq_results, seq_div = self.run(trace_list, config=config)
        calls = []
        real = compare_mod.run_vector_trace

        def spy(trace, **kwargs):
            calls.append(trace)
            return real(trace, **kwargs)

        monkeypatch.setattr(compare_mod, "run_vector_trace", spy)
        pool = WorkerPool(2)
        if state == "degraded":
            pool.degraded = True
        else:
            pool.shutdown()
        try:
            results, diverging = self.run(trace_list, config=config, pool=pool)
        finally:
            pool.shutdown()
        assert diverging == seq_div
        assert len(calls) == seq_div[0] + 1
        assert self.results_dump(results) == self.results_dump(seq_results)


    @pytest.mark.parametrize("stop", [True, False], ids=["stop", "all"])
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_known_results_fill_their_places(
        self, trace_list, worker_pool, stop, jobs
    ):
        """Known results (a verdict table's) are emitted in trace order
        among the simulated ones: same lists, same counters."""
        config = injected_config(2)
        every, _ = self.run(trace_list, config=config, stop_on_divergence=False)
        expected, expected_div = self.run(
            trace_list, config=config, stop_on_divergence=stop
        )
        known = {i: every[i] for i in range(0, len(trace_list), 3)}
        metrics = MetricsRegistry()
        results, diverging = self.run(
            trace_list, config=config, stop_on_divergence=stop,
            pool=worker_pool(jobs) if jobs > 1 else None, known=known,
            obs=Observer(metrics=metrics),
        )
        assert self.results_dump(results) == self.results_dump(expected)
        assert diverging == expected_div
        assert metrics.counter_value("compare.traces_run") == len(results)
        assert metrics.counter_value("compare.verdicts_reused") == sum(
            1 for i in known if i < len(results)
        )

    def test_known_traces_are_not_simulated(self, trace_list, monkeypatch):
        config = injected_config(2)
        every, every_div = self.run(
            trace_list, config=config, stop_on_divergence=False
        )
        calls = []
        real = compare_mod.run_vector_trace

        def spy(trace, **kwargs):
            calls.append(trace)
            return real(trace, **kwargs)

        monkeypatch.setattr(compare_mod, "run_vector_trace", spy)
        # Every trace up to the first divergence is known: the stop is
        # decided before anything is simulated.
        first = every_div[0]
        results, diverging = self.run(
            trace_list, config=config,
            known={i: every[i] for i in range(first + 1)},
        )
        assert calls == []
        assert diverging == [first] and len(results) == first + 1
        # Odd traces known: exactly the even ones simulate, in order.
        results, diverging = self.run(
            trace_list, config=config, stop_on_divergence=False,
            known={i: every[i] for i in range(1, len(trace_list), 2)},
        )
        assert [id(t) for t in calls] == [id(t) for t in trace_list[::2]]
        assert self.results_dump(results) == self.results_dump(every)
        assert diverging == every_div

    def test_all_known_dispatches_nothing(self, trace_list, worker_pool):
        """With every verdict known, the pool and its gauges are sized by
        the traces simulated -- none -- not by the traces emitted."""
        config = injected_config(2)
        every, every_div = self.run(
            trace_list, config=config, stop_on_divergence=False
        )
        metrics = MetricsRegistry()
        results, diverging = self.run(
            trace_list, config=config, stop_on_divergence=False,
            pool=worker_pool(2), known=dict(enumerate(every)),
            obs=Observer(metrics=metrics),
        )
        assert self.results_dump(results) == self.results_dump(every)
        assert diverging == every_div
        assert metrics.counter_value("compare.verdicts_reused") == len(every)
        assert metrics.gauge_value("compare.workers") == 1
        assert metrics.gauge_value("compare.chunksize") is None

    def test_concurrent_in_process_calls_do_not_mix(self, trace_list):
        """Two in-process runs under different configs on concurrent
        threads (as inline serve jobs do) each get their own verdicts."""
        config = injected_config(2)
        clean = self.results_dump(self.run(trace_list, stop_on_divergence=False)[0])
        buggy_results, buggy_div = self.run(
            trace_list, config=config, stop_on_divergence=False
        )
        assert buggy_div, "bug 2 must diverge for this test to bite"
        buggy = (self.results_dump(buggy_results), buggy_div)
        clean_runs, buggy_runs = run_concurrently(
            lambda: self.results_dump(
                self.run(trace_list, stop_on_divergence=False)[0]
            ),
            lambda: (lambda r: (self.results_dump(r[0]), r[1]))(
                self.run(trace_list, config=config, stop_on_divergence=False)
            ),
        )
        assert clean_runs == [clean] * 3
        assert buggy_runs == [buggy] * 3


class TestDecodeTable:
    """One ``{word: Predecoded}`` table per comparison run: the results
    are exactly those of per-trace runs with a private table each."""

    @pytest.fixture(scope="class")
    def pipeline_traces(self):
        pipeline = ValidationPipeline(PPModelConfig(fill_words=1), seed=0,
                                      jobs=1, use_cache=False)
        return list(pipeline.build().traces)

    def test_entries_equal_predecode(self, pipeline_traces):
        table = {}
        for trace in pipeline_traces[:5]:
            run_vector_trace(trace, decode_table=table)
        words = {ins.encode() for t in pipeline_traces[:5] for ins in t.program}
        assert words <= set(table)
        for word, entry in table.items():
            assert entry == predecode(word)

    def test_cores_share_entries(self, pipeline_traces):
        table = {}
        program = pipeline_traces[0].program
        first = PPCore(program, decode_table=table)
        second = PPCore(program, decode_table=table)
        assert len(table) == len({ins.encode() for ins in program})
        assert all(a is b for a, b in zip(first._predecoded, second._predecoded))
        assert PPCore(program)._predecoded == first._predecoded

    @pytest.mark.parametrize("bug", [None] + sorted(BUGS))
    def test_results_match_private_tables(self, pipeline_traces, worker_pool, bug):
        config = CoreConfig(mem_latency=0)
        if bug is not None:
            config = config.with_bugs(bug)
        expected = [run_vector_trace(t, config=config) for t in pipeline_traces]
        if bug is None:
            assert not any(r.diverged for r in expected)
        for pool in (None, worker_pool(2)):
            results, diverging = run_vector_traces(
                pipeline_traces, config=config, stop_on_divergence=False,
                pool=pool,
            )
            assert results == expected
            assert diverging == [i for i, r in enumerate(expected) if r.diverged]
