"""Benchmark: parallel enumeration + the persistent artifact cache.

Two claims are measured:

1. **Warm-cache pipeline builds are >= 10x faster than cold builds.**  The
   cold path enumerates the state graph, generates tours and maps them to
   vector traces; the warm path unpickles one file.  On the default
   ``PPModelConfig`` the observed ratio is two to three orders of
   magnitude, so the 10x floor is asserted, not just reported.

2. **Parallel enumeration is bit-identical to sequential.**  The wall-clock
   ratio is reported for reference -- it depends on the host's core count
   (on a single-core runner the coordinator/worker IPC makes ``jobs>1`` a
   slowdown, by design: correctness never depends on parallel speedup) --
   but the byte-identical serialization always holds and is asserted.
"""

import time

import pytest

from repro.core import ArtifactCache, ValidationPipeline
from repro.enumeration import enumerate_states, enumerate_states_parallel
from repro.pp.fsm_model import PPModelConfig, build_pp_control_model


def test_cache_cold_vs_warm(benchmark, tmp_path):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    config = PPModelConfig()  # the default: fill_words=2
    cache_dir = str(tmp_path / "artifact-cache")

    started = time.perf_counter()
    cold_pipeline = ValidationPipeline(model_config=config, cache_dir=cache_dir)
    cold_artifacts = cold_pipeline.build()
    cold = time.perf_counter() - started
    assert not cold_pipeline.artifacts_from_cache

    started = time.perf_counter()
    warm_pipeline = ValidationPipeline(model_config=config, cache_dir=cache_dir)
    warm_artifacts = warm_pipeline.build()
    warm = time.perf_counter() - started
    assert warm_pipeline.artifacts_from_cache

    print("\nArtifact cache -- default PPModelConfig")
    print(f"  cold build : {cold:8.3f} s "
          f"({cold_artifacts.graph.num_states:,} states, "
          f"{cold_artifacts.traces.num_traces} traces)")
    print(f"  warm load  : {warm:8.3f} s")
    print(f"  speedup    : {cold / warm:8.1f} x")

    # The loaded artifacts are the built artifacts, bit for bit.
    assert warm_artifacts.graph.to_json() == cold_artifacts.graph.to_json()
    assert [t.program for t in warm_artifacts.traces] == [
        t.program for t in cold_artifacts.traces
    ]
    # Acceptance floor: warm is at least 10x faster than cold.
    assert cold / warm >= 10.0


def test_cache_invalidation(tmp_path):
    from repro.core.cache import pipeline_phase_keys

    cache_dir = str(tmp_path / "artifact-cache")
    small = PPModelConfig(fill_words=1)
    ValidationPipeline(model_config=small, cache_dir=cache_dir).build()
    cache = ArtifactCache(cache_dir)

    base = pipeline_phase_keys(small, max_instructions_per_trace=400)
    for phase in ("model", "graph", "tours", "splice", "traces"):
        assert cache.has(base[phase]), phase

    # A config change re-addresses every phase.
    other = pipeline_phase_keys(PPModelConfig(fill_words=2),
                                max_instructions_per_trace=400)
    assert not any(cache.has(other[phase]) for phase in other)

    # Downstream-only knobs leave the upstream entries live -- that is the
    # point of per-phase keys.  A new vector seed re-keys only the traces;
    # a trace-length change re-keys tours and traces; the enumeration mode
    # re-keys everything from the graph down.
    seeded = pipeline_phase_keys(small, max_instructions_per_trace=400,
                                 seed=1)
    assert seeded["graph"] == base["graph"]
    assert seeded["tours"] == base["tours"]
    assert not cache.has(seeded["traces"])

    shorter = pipeline_phase_keys(small, max_instructions_per_trace=100)
    assert shorter["graph"] == base["graph"]
    assert not cache.has(shorter["tours"])
    assert not cache.has(shorter["traces"])

    modes = pipeline_phase_keys(small, max_instructions_per_trace=400,
                                record_all_conditions=True)
    assert modes["model"] == base["model"]
    assert not cache.has(modes["graph"])
    assert not cache.has(modes["traces"])


@pytest.mark.parametrize("record_all", [False, True])
def test_parallel_enumeration_identity_and_timing(benchmark, record_all):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    model = build_pp_control_model(PPModelConfig())

    started = time.perf_counter()
    sequential, seq_stats = enumerate_states(
        model, record_all_conditions=record_all
    )
    seq_time = time.perf_counter() - started

    started = time.perf_counter()
    parallel, par_stats = enumerate_states_parallel(
        model, jobs=4, record_all_conditions=record_all
    )
    par_time = time.perf_counter() - started

    mode = "all-conditions" if record_all else "first-condition"
    print(f"\nParallel enumeration ({mode}) -- default PPModelConfig")
    print(f"  sequential : {seq_time:8.3f} s "
          f"({seq_stats.num_states:,} states, {seq_stats.num_edges:,} edges)")
    print(f"  jobs=4     : {par_time:8.3f} s")
    print(f"  ratio      : {seq_time / par_time:8.2f} x (host-dependent)")

    assert parallel.to_json() == sequential.to_json()
    assert par_stats.transitions_explored == seq_stats.transitions_explored
