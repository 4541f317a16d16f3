"""Table 3.2 -- State enumeration statistics, sequential and parallel.

Paper (full PP control model, DecStation 5000/240):

    Number of States               229,571
    Number of bits per State            98
    Execution Time                  18,307 cpu secs
    Memory Requirement                  34 MB
    Number of Edges in State Graph 1,172,848

The ``full`` scale (``PPModelConfig.full()``: fill_words=6, three
write-back stages, a two-word spill buffer) reaches ~205K states --
the same order as the paper -- while the smaller sweep rows keep the
paper's *shape* observations checkable in seconds: the reachable set is
a vanishing fraction of the 2^bits product space, counts grow
monotonically with modeled detail, and the edges-per-state ratio stays
within an order of magnitude of the paper's ~5.

On top of the sequential Table 3.2 reproduction, every scale is
re-enumerated through :func:`enumerate_states_parallel` at each job
count in ``BENCH_TABLE32_JOBS`` (default ``1,2,4``) against one
persistent :class:`WorkerPool` per job count -- with the worker
generation retired before every timed run, so each cell pays the same
cold start the sequential run pays -- asserting the graph is
**bit-identical** to the sequential run (via ``graph.to_json()``
digests) every time.  At the largest scale the jobs=N speedup is
floor-asserted at ``N/2`` -- but only proportionally to the CPUs the
machine actually has (``min(jobs, cpus) / 2``), because a single-CPU
runner cannot exhibit parallel speedup no matter how good the dispatch
path is; ``BENCH_TABLE32_MIN_SPEEDUP`` overrides the computed floor
(CI uses a relaxed explicit floor on shared runners).

Environment knobs:

- ``BENCH_TABLE32_SCALE``: largest sweep row to run -- ``default``,
  ``branch``, ``mid`` or ``full`` (default ``full``; CI runs the
  reduced ``mid`` scale).
- ``BENCH_TABLE32_JOBS``: comma-separated job counts (default ``1,2,4``).
- ``BENCH_TABLE32_MIN_SPEEDUP``: explicit speedup floor for the largest
  scale's highest job count, replacing the CPU-aware default.
- ``BENCH_TABLE32_REPEATS``: best-of-N timing (default 1 -- the full
  scale takes ~a minute per enumeration).
"""

import hashlib
import os
import time

from repro.enumeration import (
    WorkerPool,
    enumerate_states,
    enumerate_states_parallel,
)
from repro.pp.fsm_model import PPModelConfig, build_pp_control_model

#: Sweep rows, smallest to largest; the env knob picks the largest row.
SCALES = [
    ("default", PPModelConfig(fill_words=2)),
    ("branch", PPModelConfig(fill_words=2, extra_pipe_stages=1,
                             model_branches=True)),
    ("mid", PPModelConfig(fill_words=2, extra_pipe_stages=2)),
    ("full", PPModelConfig.full()),
]

SCALE = os.environ.get("BENCH_TABLE32_SCALE", "full")
JOBS = [int(j) for j in
        os.environ.get("BENCH_TABLE32_JOBS", "1,2,4").split(",")]
REPEATS = max(1, int(os.environ.get("BENCH_TABLE32_REPEATS", "1")))


def _speedup_floor(jobs: int) -> float:
    """The jobs=N floor: N/2, scaled down to the CPUs actually present."""
    explicit = os.environ.get("BENCH_TABLE32_MIN_SPEEDUP")
    if explicit:
        return float(explicit)
    return min(jobs, os.cpu_count() or 1) / 2.0


def _best_of(fn, before=None):
    best = None
    result = None
    for _ in range(REPEATS):
        if before is not None:
            before()
        started = time.perf_counter()
        result = fn()
        trial = time.perf_counter() - started
        best = trial if best is None else min(best, trial)
    return best, result


def _digest(graph) -> str:
    return hashlib.sha256(graph.to_json().encode()).hexdigest()


def test_table_3_2_parallel_sweep(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    names = [name for name, _ in SCALES]
    assert SCALE in names, f"BENCH_TABLE32_SCALE={SCALE!r}; known: {names}"
    sweep = SCALES[: names.index(SCALE) + 1]
    pools = {}

    print(f"\nTable 3.2 reproduction -- sequential + parallel enumeration "
          f"(cpus={os.cpu_count()}, repeats={REPEATS})")
    print(f"{'scale':<9}{'states':>10}{'bits':>6}{'edges':>11}{'seq s':>9}"
          + "".join(f"{f'jobs={j} s':>11}" for j in JOBS))

    # Untimed warm-up: the first enumeration of a process pays one-off
    # costs (imports, allocator growth, fork machinery) that land on
    # whichever cell happens to run first -- the sequential cell once
    # measured 4x slower than its jobs=2 sibling for exactly this reason.
    warm_config = SCALES[0][1]
    enumerate_states(build_pp_control_model(warm_config))

    rows = []
    previous_states = 0
    try:
        for name, config in sweep:
            # Fresh model per timed run: kernels cache per model
            # object, so sharing one model would let the sequential run
            # build the choice tables for the parallel runs.
            seq_seconds, (graph, stats) = _best_of(
                lambda c=config: enumerate_states(build_pp_control_model(c))
            )
            seq_digest = _digest(graph)
            del graph

            cells = {}
            for jobs in JOBS:
                pool = pools.get(jobs)
                if pool is None:
                    pool = pools[jobs] = WorkerPool(jobs)
                # Retire the worker generation before every timed run:
                # the pool's context tag is content-based, so a repeat
                # of the same config would otherwise dispatch into live,
                # already-warm workers.  Each timed cell is one cold
                # enumeration: fork + cross-wave reuse, the same
                # cold start the sequential cell pays.
                par_seconds, (par_graph, par_stats) = _best_of(
                    lambda c=config, j=jobs, p=pool:
                        enumerate_states_parallel(
                            build_pp_control_model(c), jobs=j, pool=p
                        ),
                    before=pool.retire,
                )
                bit_identical = _digest(par_graph) == seq_digest
                del par_graph
                assert bit_identical, (
                    f"{name} at jobs={jobs} diverged from the sequential "
                    f"graph ({par_stats.num_states} vs {stats.num_states} "
                    f"states)"
                )
                cells[jobs] = {
                    "wall_seconds": par_seconds,
                    "speedup_vs_sequential": seq_seconds / par_seconds,
                }

            print(f"{name:<9}{stats.num_states:>10,}"
                  f"{stats.bits_per_state:>6}{stats.num_edges:>11,}"
                  f"{seq_seconds:>9.1f}"
                  + "".join(f"{cells[j]['wall_seconds']:>11.1f}"
                            for j in JOBS))

            # Table 3.2 shape: interlocked FSMs leave the reachable set a
            # vanishing fraction of the product space, and more modeled
            # detail means monotonically more states.
            assert stats.reachable_fraction < 0.05
            assert stats.num_states > previous_states
            previous_states = stats.num_states

            rows.append({
                "scale": name,
                "states": stats.num_states,
                "edges": stats.num_edges,
                "parallel": cells,
            })
    finally:
        for pool in pools.values():
            pool.shutdown()

    # Paper ratio: ~5 edges per state, within an order of magnitude.
    largest = rows[-1]
    assert 2 < largest["edges"] / largest["states"] < 12

    top_jobs = max(JOBS)
    floor = _speedup_floor(top_jobs)
    top_speedup = largest["parallel"][top_jobs]["speedup_vs_sequential"]
    print(f"largest scale ({largest['scale']}): jobs={top_jobs} speedup "
          f"{top_speedup:.2f}x (floor {floor:.2f}x, cpus={os.cpu_count()})")

    assert top_speedup >= floor, (
        f"jobs={top_jobs} speedup {top_speedup:.2f}x at the "
        f"{largest['scale']} scale is below the {floor:.2f}x floor "
        f"(cpus={os.cpu_count()})"
    )


def test_enumeration_kernel(benchmark):
    model = build_pp_control_model(PPModelConfig(fill_words=2))
    graph, stats = benchmark.pedantic(
        enumerate_states, args=(model,), rounds=1, iterations=1
    )
    print("\n" + stats.format_table())
    assert stats.num_states == 2135
    assert stats.num_edges == 13329
