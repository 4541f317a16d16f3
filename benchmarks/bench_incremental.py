"""Benchmark: dependency-aware incremental recomputation (PR 10).

Claims measured, each cell against a cold build of the *same* model:

1. **A no-op source edit is served by adoption.**  Salting the model
   phase's code digest simulates a comment-only edit to a model source
   file: every key changes, the semantic fingerprint does not, and the
   prior build's entries are adopted by byte copy.  Floor (pp scale):
   >= 20x faster than cold.
2. **A single-condition model edit is served by region splice.**  The
   ``inbox-flip-fill-tail`` catalog edit dirties one control state; the
   rest of the graph replays from cache and most traces splice verbatim.
   Floor (pp scale): >= 3x faster than cold.
3. **Byte identity everywhere.**  In *every* cell the served artifacts
   (graph / tours / traces JSON) are compared byte-for-byte against a
   cold, cache-less build of the same (edited) model -- the incremental
   layer is an optimization, never an approximation.

Scale is selected with ``BENCH_INCR_SCALE``: ``pp`` (default) is the
paper-scale fill_words=2 model, ``small`` is fill_words=1 for CI smoke
runs (floors default off there -- timing, identity and classification
are still asserted).
"""

import os
import shutil
import time
from pathlib import Path

from repro.core import ValidationPipeline
from repro.incremental.edits import resolve_edits
from repro.pp.fsm_model import PPModelConfig

SCALES = {"small": 1, "pp": 2}
SCALE = os.environ.get("BENCH_INCR_SCALE", "pp")
#: Acceptance floors; the paper-scale claims.  At ``small`` scale the
#: constant per-build overheads (worker-free, sub-second builds) dominate
#: and the floors default off -- override via env to re-enable.
MIN_NOOP = float(os.environ.get(
    "BENCH_INCR_MIN_NOOP", "20.0" if SCALE == "pp" else "0.0"))
MIN_LOCALIZED = float(os.environ.get(
    "BENCH_INCR_MIN_LOCALIZED", "3.0" if SCALE == "pp" else "0.0"))
#: Best-of-N timing to keep the speedup floors robust against noisy
#: neighbours; every repeat re-runs the cell from the same cache state.
#: The served cells are fsync-bound at the tens-of-ms scale, so their
#: per-trial variance is large relative to the floors -- hence 5 repeats.
REPEATS = max(1, int(os.environ.get("BENCH_INCR_REPEATS", "5")))

EDIT = "inbox-flip-fill-tail"


def _config():
    return PPModelConfig(fill_words=SCALES[SCALE])


def _pipeline(cache_dir=None, **kw):
    return ValidationPipeline(model_config=_config(), cache_dir=cache_dir,
                              jobs=1, **kw)


def _bytes(pipeline):
    artifacts = pipeline.artifacts
    return (artifacts.graph.to_json(), artifacts.tours.to_json(),
            artifacts.traces.to_json())


def _drop_entries(cache_dir, keys):
    """Forget one build's phase entries (keep the journal) so the next
    repeat of the cell exercises incremental reuse, not a plain hit."""
    for key in keys.values():
        for suffix in (".pkl", ".json", ".builds"):
            (Path(cache_dir) / f"{key}{suffix}").unlink(missing_ok=True)


def test_incremental_speedups_and_byte_identity(benchmark, tmp_path):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    edits = resolve_edits([EDIT])

    # -- cold reference: fresh cache dir per repeat ------------------------
    cold = None
    for index in range(REPEATS):
        cache_dir = str(tmp_path / f"cold-{index}")
        pipeline = _pipeline(cache_dir)
        started = time.perf_counter()
        pipeline.build()
        trial = time.perf_counter() - started
        cold = trial if cold is None else min(cold, trial)
        base_bytes = _bytes(pipeline)
        base_states = pipeline.artifacts.graph.num_states
        base_traces = pipeline.artifacts.traces.num_traces
        if index < REPEATS - 1:
            shutil.rmtree(cache_dir)
    cache_dir = str(tmp_path / f"cold-{REPEATS - 1}")  # the warm base

    # -- warm full hit: the plain per-phase cache load ---------------------
    warm = None
    for _ in range(REPEATS):
        pipeline = _pipeline(cache_dir)
        started = time.perf_counter()
        pipeline.build()
        warm = min(w for w in (warm, time.perf_counter() - started)
                   if w is not None)
        assert pipeline.artifacts_from_cache
        assert _bytes(pipeline) == base_bytes

    # -- no-op edit: salted model digest, adoption by byte copy ------------
    noop = None
    noop_report = None
    for index in range(REPEATS):
        pipeline = _pipeline(
            cache_dir,
            phase_code_overrides={"model": f"noop-salt-{index}"},
        )
        started = time.perf_counter()
        pipeline.build()
        noop = min(n for n in (noop, time.perf_counter() - started)
                   if n is not None)
        noop_report = pipeline.incremental_report
        assert noop_report.classification == "no-op"
        assert noop_report.adopted_phases == ("graph", "tours", "traces")
        assert _bytes(pipeline) == base_bytes

    # -- localized edit: one dirty state, replay + splice ------------------
    edited_cold = _pipeline(edits=edits, incremental=False)
    edited_cold.build()
    edited_bytes = _bytes(edited_cold)
    localized = None
    localized_report = None
    for _ in range(REPEATS):
        pipeline = _pipeline(cache_dir, edits=edits)
        started = time.perf_counter()
        pipeline.build()
        localized = min(l for l in (localized, time.perf_counter() - started)
                        if l is not None)
        localized_report = pipeline.incremental_report
        assert localized_report.classification == "localized"
        assert _bytes(pipeline) == edited_bytes
        # Forget the edited build (journal dedup keeps the base build as
        # the candidate) so the next repeat splices again instead of
        # hitting its own entries.
        _drop_entries(cache_dir, pipeline.phase_keys)

    noop_speedup = cold / noop
    localized_speedup = cold / localized
    print(f"\nIncremental recomputation -- fill_words={SCALES[SCALE]} "
          f"({SCALE} scale, best of {REPEATS}, "
          f"{base_states:,} states / {base_traces} traces)")
    print(f"  cold build          : {cold * 1e3:8.1f} ms")
    print(f"  warm full hit       : {warm * 1e3:8.1f} ms "
          f"({cold / warm:6.1f}x)")
    print(f"  no-op source edit   : {noop * 1e3:8.1f} ms "
          f"({noop_speedup:6.1f}x, floor {MIN_NOOP}x)")
    print(f"  localized edit      : {localized * 1e3:8.1f} ms "
          f"({localized_speedup:6.1f}x, floor {MIN_LOCALIZED}x; "
          f"{localized_report.dirty_states} dirty state(s), "
          f"{localized_report.spliced_tours} trace(s) spliced, "
          f"{localized_report.regenerated_traces} regenerated)")

    if MIN_NOOP:
        assert noop_speedup >= MIN_NOOP, (
            f"no-op adoption speedup {noop_speedup:.1f}x below the "
            f"{MIN_NOOP}x floor"
        )
    if MIN_LOCALIZED:
        assert localized_speedup >= MIN_LOCALIZED, (
            f"localized splice speedup {localized_speedup:.1f}x below the "
            f"{MIN_LOCALIZED}x floor"
        )
