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
generation retired before every timed run, because the pool's
content-based context tag would otherwise hand a repeat of the same
config fully warm successor memos and turn the cell into a memo-lookup
benchmark -- asserting the graph is
**bit-identical** to the sequential run (via ``graph.to_json()``
digests) every time.  At the largest scale the jobs=N speedup is
floor-asserted at ``N/2`` -- but only proportionally to the CPUs the
machine actually has (``min(jobs, cpus) / 2``), because a single-CPU
runner cannot exhibit parallel speedup no matter how good the dispatch
path is; ``BENCH_TABLE32_MIN_SPEEDUP`` overrides the computed floor
(CI uses a relaxed explicit floor on shared runners).

Environment knobs (precedent: ``BENCH_KERNEL_*`` / ``REPRO_BENCH_*``):

- ``BENCH_TABLE32_SCALE``: largest sweep row to run -- ``default``,
  ``branch``, ``mid`` or ``full`` (default ``full``; CI runs the
  reduced ``mid`` scale).
- ``BENCH_TABLE32_JOBS``: comma-separated job counts (default ``1,2,4``).
- ``BENCH_TABLE32_MIN_SPEEDUP``: explicit speedup floor for the largest
  scale's highest job count, replacing the CPU-aware default.
- ``BENCH_TABLE32_REPEATS``: best-of-N timing (default 1 -- the full
  scale takes ~a minute per enumeration).

Results go to ``BENCH_table_3_2.json`` (schema ``repro.bench-table32/1``).
Cells additionally append shared-schema ``repro.bench-result/1`` lines
to ``BENCH_history.jsonl`` so the ``repro bench`` regression gate and
the parallel-efficiency check cover the sweep -- but only cells that
make sound gate baselines: history is written only when
``BENCH_TABLE32_REPEATS >= 3`` (best-of-1 timings once seeded the gate
with warm-up skew and produced phantom regressions), and jobs>1 cells
are recorded only when the machine has at least that many CPUs (on a
1-CPU container a jobs=4 wall time is scheduling noise, not a
baseline).  Skipped cells still appear in ``BENCH_table_3_2.json``.
"""

import hashlib
import json
import os
import time
from pathlib import Path

from repro.enumeration import (
    WorkerPool,
    enumerate_states,
    enumerate_states_parallel,
)
from repro.obs import bench
from repro.pp.fsm_model import PPModelConfig, build_pp_control_model

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_OUT = REPO_ROOT / "BENCH_table_3_2.json"
HISTORY_OUT = REPO_ROOT / "BENCH_history.jsonl"

BENCH_TABLE32_SCHEMA = "repro.bench-table32/1"

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

#: Minimum best-of repeats before a cell is trusted as a shared
#: regression-gate baseline in ``BENCH_history.jsonl``.
HISTORY_MIN_REPEATS = 3


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
    # whichever cell happens to run first -- a committed history batch
    # once showed the sequential cell 4x slower than its jobs=2 sibling
    # for exactly this reason.
    warm_config = SCALES[0][1]
    enumerate_states(build_pp_control_model(warm_config))

    rows = []
    previous_states = 0
    try:
        for name, config in sweep:
            # Fresh model per timed run: kernels (and their successor
            # memos) cache per model object, so sharing one model would
            # let the sequential run warm the caches for the parallel
            # runs and inflate every speedup.
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
                # of the same config would otherwise dispatch into live
                # workers whose successor memos are fully warm -- a
                # memo-lookup benchmark, not an enumeration one (the
                # skew once recorded jobs=2 "4.5x faster" than
                # sequential on a 1-CPU container).  Each timed cell is
                # one cold enumeration: fork + cross-wave reuse, the
                # same cold-start the sequential cell pays.
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
                    "bit_identical": True,
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
                "config": {
                    "fill_words": config.fill_words,
                    "extra_pipe_stages": config.extra_pipe_stages,
                    "spill_words": config.spill_words,
                    "model_branches": config.model_branches,
                },
                "states": stats.num_states,
                "edges": stats.num_edges,
                "bits_per_state": stats.bits_per_state,
                "reachable_fraction": stats.reachable_fraction,
                "memory_mb": stats.approx_memory_bytes / 1e6,
                "sequential_seconds": seq_seconds,
                "parallel": {str(j): cells[j] for j in JOBS},
            })
    finally:
        for pool in pools.values():
            pool.shutdown()

    # Paper ratio: ~5 edges per state, within an order of magnitude.
    largest = rows[-1]
    assert 2 < largest["edges"] / largest["states"] < 12

    top_jobs = max(JOBS)
    floor = _speedup_floor(top_jobs)
    top_speedup = largest["parallel"][str(top_jobs)]["speedup_vs_sequential"]
    print(f"largest scale ({largest['scale']}): jobs={top_jobs} speedup "
          f"{top_speedup:.2f}x (floor {floor:.2f}x, cpus={os.cpu_count()})")

    payload = {
        "schema": BENCH_TABLE32_SCHEMA,
        "scale": SCALE,
        "jobs": JOBS,
        "repeats": REPEATS,
        "cpus": os.cpu_count(),
        "speedup_floor": {"jobs": top_jobs, "floor": floor},
        "paper": {"states": 229571, "edges": 1172848, "bits_per_state": 98},
        "rows": rows,
    }
    BENCH_OUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"results written to {BENCH_OUT}")

    # Shared-schema history entries: one per (scale, jobs) cell, plus the
    # sequential baseline.  Each scale is its own context family, so the
    # parallel-efficiency check compares jobs within a scale -- never a
    # 2,135-state row against a 205K-state one.  History lines become
    # shared regression-gate baselines, so only measurement-quality
    # cells are written: repeats >= HISTORY_MIN_REPEATS, and jobs <=
    # cpus (a 1-CPU container's jobs=4 wall time is scheduling noise).
    cpus = os.cpu_count() or 1
    if REPEATS < HISTORY_MIN_REPEATS:
        print(f"history: skipped entirely (repeats={REPEATS} < "
              f"{HISTORY_MIN_REPEATS}; single-sample timings make noisy "
              f"gate baselines -- set BENCH_TABLE32_REPEATS="
              f"{HISTORY_MIN_REPEATS} to record)")
    else:
        appended = 0
        skipped = 0
        for row in rows:
            family = f"table32.enum.{row['scale']}"
            context = {
                "family": family, "scale": row["scale"],
                "states": row["states"], "cpus": cpus,
                "repeats": REPEATS, "kernel": "compiled",
            }
            bench.append_history(str(HISTORY_OUT), bench.BenchResult(
                name=f"{family}.sequential",
                context={**context, "jobs": 1},
                metrics={
                    "wall_seconds": bench.metric(row["sequential_seconds"]),
                    "states_per_second": bench.metric(
                        row["states"] / row["sequential_seconds"],
                        "states/s", higher_is_better=True,
                    ),
                },
            ))
            appended += 1
            for jobs in JOBS:
                if jobs <= 1:
                    continue  # the sequential entry is the family's jobs=1
                if jobs > cpus:
                    skipped += 1
                    continue
                cell = row["parallel"][str(jobs)]
                bench.append_history(str(HISTORY_OUT), bench.BenchResult(
                    name=f"{family}.jobs{jobs}",
                    context={**context, "jobs": jobs},
                    metrics={
                        "wall_seconds": bench.metric(cell["wall_seconds"]),
                        "states_per_second": bench.metric(
                            row["states"] / cell["wall_seconds"],
                            "states/s", higher_is_better=True,
                        ),
                    },
                ))
                appended += 1
        note = (f"; {skipped} jobs>cpus cell(s) left out (cpus={cpus} -- "
                f"recorded in {BENCH_OUT.name} only)" if skipped else "")
        print(f"history: {appended} entries appended to {HISTORY_OUT}{note}")

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
