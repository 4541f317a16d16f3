"""Benchmark: the accelerated pipeline back half (tours + vectors).

Claims measured:

1. **Indexed tour generation is >= 3x faster than the reference Fig. 3.3
   generator** at paper scale, while producing a bit-identical TourSet.
   The reference rebuilds a from-scratch BFS for every explore splice;
   the indexed generator amortizes that with a CSR adjacency and a
   reverse-BFS nearest-untraversed-arc distance field used purely for
   pruning/early exit, so queue order -- hence the tours -- never changes.
2. **Memoized vector generation is >= 2x faster than the pre-memo path**
   (one ``_step`` per unique ``(src_state, condition)`` pair instead of
   two model replays per traversed arc), bit-identical TraceSet.  The
   floor is asserted on the pipeline-realistic *warm* memo (the tour cost
   function touches every arc first, exactly as ``ValidationPipeline``
   does); the fresh-memo speedup is reported alongside.
3. **Parallel vector generation on a ``WorkerPool(4)`` is byte-identical
   to the in-process run.**
   Its speedup is reported but not floor-asserted: per-tour RNG streams
   make it deterministic at any worker count, but wall-clock gains need
   actual cores (this is report-only so single-CPU CI runners pass).

Floors are configurable via ``BENCH_BACKHALF_MIN_TOUR_SPEEDUP`` (default
3.0) and ``BENCH_BACKHALF_MIN_VECTOR_SPEEDUP`` (default 2.0) so noisy CI
runners can relax them.  Scale is selected with ``BENCH_BACKHALF_SCALE``:
``pp`` (default) is the paper-scale fill_words=2 model, ``small`` is
fill_words=1 for CI smoke runs.
"""

import os
import pickle
import time

from repro.enumeration import WorkerPool, enumerate_states
from repro.pp.fsm_model import PPControlModel, PPModelConfig
from repro.tour import IndexedTourGenerator, TourGenerator
from repro.vectors import TransitionEventMemo, VectorGenerator, pp_instruction_cost

SCALES = {"small": 1, "pp": 2}
SCALE = os.environ.get("BENCH_BACKHALF_SCALE", "pp")
MIN_TOUR_SPEEDUP = float(os.environ.get("BENCH_BACKHALF_MIN_TOUR_SPEEDUP", "3.0"))
MIN_VECTOR_SPEEDUP = float(
    os.environ.get("BENCH_BACKHALF_MIN_VECTOR_SPEEDUP", "2.0")
)
#: Best-of-N timing to keep the floors robust against scheduling noise.
REPEATS = max(1, int(os.environ.get("BENCH_BACKHALF_REPEATS", "3")))

SEED = 7
LIMIT = 400


def _best_of(fn):
    """Run ``fn`` REPEATS times; return (best_seconds, last_result)."""
    best = None
    result = None
    for _ in range(REPEATS):
        started = time.perf_counter()
        result = fn()
        trial = time.perf_counter() - started
        best = trial if best is None else min(best, trial)
    return best, result


def _build_graph():
    control = PPControlModel(PPModelConfig(fill_words=SCALES[SCALE]))
    graph, _ = enumerate_states(control.build())
    return control, graph


def tour_dump(tour_set):
    return [(t.edge_indices, t.instructions) for t in tour_set]


def test_back_half_speedup(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    control, graph = _build_graph()
    cost = pp_instruction_cost(control, graph)

    # --- Phase 1: tours -------------------------------------------------
    ref_seconds, ref_tours = _best_of(
        lambda: TourGenerator(
            graph, instruction_cost=cost, max_instructions_per_trace=LIMIT
        ).generate()
    )
    idx_seconds, idx_tours = _best_of(
        lambda: IndexedTourGenerator(
            graph, instruction_cost=cost, max_instructions_per_trace=LIMIT
        ).generate()
    )
    assert tour_dump(idx_tours) == tour_dump(ref_tours), (
        "indexed tours are not bit-identical to the reference"
    )
    tour_speedup = ref_seconds / idx_seconds
    tours = list(idx_tours)

    # --- Phase 2: vectors ----------------------------------------------
    # Baseline: the pre-memo path (two model replays per traversed arc).
    base_seconds, base_traces = _best_of(
        lambda: VectorGenerator(
            control, graph, seed=SEED, memoize=False
        ).generate(tours)
    )
    base_dump = pickle.dumps(base_traces.traces)

    # Warm memo: the pipeline-realistic configuration -- the tour phase's
    # cost function has already touched every arc.
    def _warm_run():
        memo = TransitionEventMemo(control, graph)
        warm_cost = pp_instruction_cost(control, graph, memo=memo)
        for edge in graph.edges():
            warm_cost(edge)
        return VectorGenerator(control, graph, seed=SEED, memo=memo)

    warm_gen = _warm_run()
    warm_seconds, warm_traces = _best_of(lambda: warm_gen.generate(tours))
    assert pickle.dumps(warm_traces.traces) == base_dump, (
        "memoized traces are not bit-identical to the baseline"
    )
    vector_speedup = base_seconds / warm_seconds

    # Fresh memo (cost function not pre-run) -- report only.
    fresh_seconds, fresh_traces = _best_of(
        lambda: VectorGenerator(control, graph, seed=SEED).generate(tours)
    )
    assert pickle.dumps(fresh_traces.traces) == base_dump
    fresh_speedup = base_seconds / fresh_seconds

    # Parallel: identity asserted, speedup report-only (needs real cores).
    pool = WorkerPool(4)
    try:
        par_seconds, par_traces = _best_of(
            lambda: VectorGenerator(control, graph, seed=SEED).generate(
                tours, pool=pool
            )
        )
    finally:
        pool.shutdown()
    assert pickle.dumps(par_traces.traces) == base_dump, (
        "WorkerPool(4) traces are not byte-identical to in-process ones"
    )
    parallel_speedup = base_seconds / par_seconds

    print(f"\nPipeline back half -- fill_words={SCALES[SCALE]} ({SCALE} scale), "
          f"{graph.num_states} states, {graph.num_edges} edges, "
          f"{len(tours)} tours")
    print(f"  tours     reference : {ref_seconds:7.3f} s")
    print(f"  tours     indexed   : {idx_seconds:7.3f} s "
          f"({tour_speedup:.2f}x, floor {MIN_TOUR_SPEEDUP}x)")
    print(f"  vectors   baseline  : {base_seconds:7.3f} s")
    print(f"  vectors   warm memo : {warm_seconds:7.3f} s "
          f"({vector_speedup:.2f}x, floor {MIN_VECTOR_SPEEDUP}x)")
    print(f"  vectors   fresh memo: {fresh_seconds:7.3f} s "
          f"({fresh_speedup:.2f}x, reported only)")
    print(f"  vectors   pool(4)   : {par_seconds:7.3f} s "
          f"({parallel_speedup:.2f}x, reported only; "
          f"cpus={os.cpu_count()})")

    assert tour_speedup >= MIN_TOUR_SPEEDUP, (
        f"indexed tour speedup {tour_speedup:.2f}x below the "
        f"{MIN_TOUR_SPEEDUP}x floor"
    )
    assert vector_speedup >= MIN_VECTOR_SPEEDUP, (
        f"memoized vector speedup {vector_speedup:.2f}x below the "
        f"{MIN_VECTOR_SPEEDUP}x floor"
    )
