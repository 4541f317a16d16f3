"""Benchmark: the compiled transition kernel vs the interpreted one.

Claims measured:

1. **Compiled enumeration is >= 3x faster than interpreted** (sequential,
   cold kernel, compile time included).  The floor is configurable via
   ``BENCH_KERNEL_MIN_SPEEDUP`` so CI runners with noisy neighbours can
   assert a relaxed 1.5x instead; locally the default 3.0 holds.
2. **Both kernels produce bit-identical graphs** at jobs=1 and jobs=4 --
   asserted on the serialized JSON, not just on counts.
3. **The successor memo pays for itself on re-enumeration**: a second run
   over the same model (e.g. the ``record_all_conditions`` ablation)
   expands every state from the memo.

Scale is selected with ``BENCH_KERNEL_SCALE``: ``pp`` (default) is the
paper-scale fill_words=2 model, ``small`` is fill_words=1 for CI smoke
runs.
"""

import os
import time

from repro.enumeration import (
    compile_model,
    enumerate_states,
    enumerate_states_parallel,
)
from repro.pp.fsm_model import PPModelConfig, build_pp_control_model

SCALES = {"small": 1, "pp": 2}
SCALE = os.environ.get("BENCH_KERNEL_SCALE", "pp")
MIN_SPEEDUP = float(os.environ.get("BENCH_KERNEL_MIN_SPEEDUP", "3.0"))
#: Best-of-N timing (each repeat cold: fresh model, fresh kernel) to keep
#: the speedup assertion robust against noisy-neighbour scheduling.
REPEATS = max(1, int(os.environ.get("BENCH_KERNEL_REPEATS", "3")))


def _fresh_model():
    # A fresh instance per run: kernels (and their memos) are cached per
    # model object, so reuse would let a prior run pre-warm the next one.
    return build_pp_control_model(PPModelConfig(fill_words=SCALES[SCALE]))


def _run(kernel, jobs):
    elapsed = None
    for _ in range(REPEATS):
        model = _fresh_model()
        started = time.perf_counter()
        if jobs == 1:
            graph, stats = enumerate_states(model, kernel=kernel)
        else:
            graph, stats = enumerate_states_parallel(model, jobs=jobs, kernel=kernel)
        trial = time.perf_counter() - started
        elapsed = trial if elapsed is None else min(elapsed, trial)
    return {
        "kernel": kernel,
        "jobs": jobs,
        "seconds": elapsed,
        "repeats": REPEATS,
        "states": stats.num_states,
        "edges": stats.num_edges,
        "transitions_explored": stats.transitions_explored,
        "states_per_second": stats.num_states / elapsed,
        "transitions_per_second": stats.transitions_explored / elapsed,
    }, graph


def test_compiled_kernel_speedup(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = []
    graphs = {}
    for kernel in ("interpreted", "compiled"):
        for jobs in (1, 4):
            row, graph = _run(kernel, jobs)
            rows.append(row)
            graphs[(kernel, jobs)] = graph.to_json()

    # Bit-identity across every kernel x jobs combination.
    reference = graphs[("interpreted", 1)]
    for key, serialized in graphs.items():
        assert serialized == reference, f"graph mismatch for {key}"

    by = {(r["kernel"], r["jobs"]): r for r in rows}
    speedup_seq = by[("interpreted", 1)]["seconds"] / by[("compiled", 1)]["seconds"]
    speedup_par = by[("interpreted", 4)]["seconds"] / by[("compiled", 4)]["seconds"]

    print(f"\nTransition kernel -- fill_words={SCALES[SCALE]} ({SCALE} scale)")
    for row in rows:
        print(f"  {row['kernel']:>11} jobs={row['jobs']}: "
              f"{row['seconds']:7.3f} s  "
              f"{row['states_per_second']:10,.0f} states/s  "
              f"{row['transitions_per_second']:12,.0f} transitions/s")
    print(f"  sequential speedup : {speedup_seq:.2f}x (floor {MIN_SPEEDUP}x)")
    print(f"  jobs=4 speedup     : {speedup_par:.2f}x (reported only)")

    assert speedup_seq >= MIN_SPEEDUP, (
        f"compiled kernel speedup {speedup_seq:.2f}x below the "
        f"{MIN_SPEEDUP}x floor"
    )


def test_memo_pays_off_across_reenumeration(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    model = _fresh_model()

    started = time.perf_counter()
    first, _ = enumerate_states(model, kernel="compiled")
    cold = time.perf_counter() - started
    kern = compile_model(model)
    assert kern.counters()["memo_hits"] == 0

    # Second enumeration in the other condition-recording mode: expansion
    # output is record-mode-independent, so every state hits the memo.
    started = time.perf_counter()
    second, _ = enumerate_states(model, record_all_conditions=True,
                                 kernel="compiled")
    warm = time.perf_counter() - started
    assert kern.counters()["memo_hits"] >= first.num_states

    print(f"\nSuccessor memo -- fill_words={SCALES[SCALE]}")
    print(f"  cold enumeration : {cold:7.3f} s")
    print(f"  memoized rerun   : {warm:7.3f} s ({cold / warm:.1f}x)")
    assert second.num_states == first.num_states
