"""Observability for the validation pipeline: metrics, tracing, reports.

The paper's methodology is coverage-driven -- its results *are*
observability artifacts (enumeration statistics, bug-detection matrices,
coverage-vs-instructions curves) -- so the pipeline exposes first-class
runtime signals:

- :class:`MetricsRegistry` -- process-wide counters / gauges /
  histograms with labels, snapshot-able to JSON and merge-able across
  forked workers (:mod:`repro.obs.metrics`);
- :class:`Tracer` -- a structured JSONL event stream with nested
  ``span()`` phase timers and a Chrome ``trace_event`` exporter for
  ``chrome://tracing`` / Perfetto (:mod:`repro.obs.trace`);
- :class:`Observer` -- the facade instrumented code receives; the shared
  :data:`NULL_OBSERVER` makes every hook a no-op when no sinks are
  configured (:mod:`repro.obs.observer`);
- :class:`RunReport` -- one machine-readable JSON document unifying
  stats, divergences, cache provenance, per-phase wall/CPU time and
  coverage-curve data, rendered by ``repro report``
  (:mod:`repro.obs.report`);
- :class:`ResourceSampler` -- a background thread sampling RSS / CPU /
  frontier size into Perfetto counter tracks
  (:mod:`repro.obs.resource`);
- :class:`SamplingProfiler` -- an opt-in ``setitimer`` statistical
  profiler with collapsed-stack / flamegraph export
  (:mod:`repro.obs.prof`);
- :class:`ProgressReporter` -- live heartbeats: a stderr status line
  plus machine-readable JSONL (:mod:`repro.obs.progress`).

:mod:`repro.obs.bench` holds only the git provenance (``provenance_sha``)
that ``bench/run.py`` stamps on its records; performance itself is
measured by ``bench/`` (see ``bench/README.md``).
"""

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    METRICS_SCHEMA,
    MetricsRegistry,
    validate_metrics_snapshot,
)
from repro.obs.observer import NULL_OBSERVER, NullObserver, Observer, resolve
from repro.obs.prof import SamplingProfiler
from repro.obs.progress import (
    HEARTBEAT_SCHEMA,
    ProgressReporter,
    read_heartbeats,
    stderr_if_tty,
    tail_heartbeats,
    validate_heartbeats,
)
from repro.obs.report import RUN_REPORT_SCHEMA, RunReport, validate_run_report
from repro.obs.resource import ResourceSampler, current_rss_mb, peak_rss_mb
from repro.obs.trace import (
    TRACE_SCHEMA,
    Tracer,
    chrome_trace_from_events,
    read_jsonl_trace,
    validate_trace_events,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "METRICS_SCHEMA",
    "MetricsRegistry",
    "validate_metrics_snapshot",
    "NULL_OBSERVER",
    "NullObserver",
    "Observer",
    "resolve",
    "SamplingProfiler",
    "HEARTBEAT_SCHEMA",
    "ProgressReporter",
    "read_heartbeats",
    "tail_heartbeats",
    "stderr_if_tty",
    "validate_heartbeats",
    "RUN_REPORT_SCHEMA",
    "RunReport",
    "validate_run_report",
    "ResourceSampler",
    "current_rss_mb",
    "peak_rss_mb",
    "TRACE_SCHEMA",
    "Tracer",
    "chrome_trace_from_events",
    "read_jsonl_trace",
    "validate_trace_events",
]
