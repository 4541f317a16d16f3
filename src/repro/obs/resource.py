"""Resource timelines: RSS / CPU / frontier sampled on a background tick.

Long enumerations are opaque between wave boundaries -- the per-phase
span table says *where* time went but not what the process looked like
while it went there.  A :class:`ResourceSampler` is a daemon thread that
wakes on a fixed tick, reads the process's resident set size and CPU
utilisation, folds in externally pushed gauges (the enumeration frontier
size, via :meth:`set_value`), and

- keeps the full timeline in memory (``samples``; summarised into the
  run report's ``perf`` section), and
- emits each tick as a ``counter`` event into an attached
  :class:`~repro.obs.trace.Tracer`, which the Chrome exporter turns into
  Perfetto *counter tracks* (``"ph": "C"``) -- RSS, CPU and frontier
  curves rendered directly above the span rows in ui.perfetto.dev.

Fork-safety contract
--------------------
The sampler thread lives only in the process that called :meth:`start`.
``fork()`` (the worker pool's start method) copies the
*object* but never the thread, so workers inherit a dormant sampler and
spawn nothing; :meth:`stop` checks the owning pid and degrades to a
state reset when called from a child.  This is locked down by the
no-thread-leak test in ``tests/test_perf_obs.py``.

The module also owns the one corrected ``ru_maxrss`` helper
(:func:`peak_rss_mb`: the raw counter is KiB on Linux but *bytes* on
macOS); :mod:`repro.resilience.budget` reuses it instead of keeping a
private copy.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from typing import Any, Dict, List, Optional

try:  # stdlib on POSIX; absent on Windows -- peak RSS becomes unmeasurable
    import resource as _resource
except ImportError:  # pragma: no cover - POSIX-only repo, defensive
    _resource = None  # type: ignore[assignment]

try:
    _PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")
except (AttributeError, ValueError, OSError):  # pragma: no cover
    _PAGE_SIZE = 4096

_MB = 1024.0 * 1024.0


def peak_rss_mb() -> Optional[float]:
    """Peak resident set size of this process in MiB, if measurable.

    ``getrusage().ru_maxrss`` is kilobytes on Linux but bytes on macOS;
    this is the single normalized helper every caller (the budget meter,
    the sampler, the run report) shares.
    """
    if _resource is None:  # pragma: no cover
        return None
    peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - Linux CI
        return peak / _MB
    return peak / 1024.0


def current_rss_mb() -> Optional[float]:
    """Current resident set size in MiB.

    Reads ``/proc/self/statm`` (Linux); elsewhere falls back to the peak,
    which is monotone but still charts growth.
    """
    try:
        with open("/proc/self/statm") as handle:
            return int(handle.read().split()[1]) * _PAGE_SIZE / _MB
    except (OSError, ValueError, IndexError):  # pragma: no cover - non-Linux
        return peak_rss_mb()


class ResourceSampler:
    """Background resource sampler emitting Perfetto counter tracks.

    >>> sampler = ResourceSampler(interval=0.05)
    >>> sampler.start(); time.sleep(0.12); sampler.stop()
    >>> sampler.summary()["samples"] >= 2
    True

    Parameters
    ----------
    interval:
        Seconds between ticks.  The default 0.25 s keeps a multi-minute
        run's timeline in the hundreds of points; the overhead benchmark
        bounds the cost of even much faster ticks.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`; every tick emits one
        ``counter`` event per track into its stream.
    max_samples:
        In-memory timeline cap; past it the timeline is thinned by
        dropping every other retained point (the trace stream, when
        attached, still receives every tick).
    """

    #: Counter-track names emitted on every tick.
    RSS_TRACK = "resource.rss_mb"
    CPU_TRACK = "resource.cpu_percent"

    def __init__(
        self,
        interval: float = 0.25,
        tracer=None,
        max_samples: int = 4096,
    ):
        self.interval = max(0.001, float(interval))
        self.tracer = tracer
        self.max_samples = max_samples
        self.samples: List[Dict[str, Any]] = []
        self._external: Dict[str, float] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._pid: Optional[int] = None
        self._epoch = 0.0
        self._peak_rss: Optional[float] = None
        self._cpu_seconds = 0.0
        self._thin_stride = 1

    # -- external gauges -------------------------------------------------------

    def set_value(self, name: str, value: float) -> None:
        """Push a gauge (e.g. the enumeration frontier size) to be sampled.

        Thread-safe and cheap: the instrumented loop just stores the
        latest value; the sampler thread reads it on its own tick.
        """
        with self._lock:
            self._external[name] = value

    # -- lifecycle -------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "ResourceSampler":
        if self.running:
            return self
        self._pid = os.getpid()
        self._epoch = time.perf_counter()
        self._stop.clear()
        # daemon=True: the sampler must never block interpreter exit,
        # even if stop() is skipped by a crash.
        self._thread = threading.Thread(
            target=self._run, name="repro-resource-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> Dict[str, Any]:
        """Stop sampling and return :meth:`summary`.  Idempotent.

        Safe to call from a forked child that inherited a started
        sampler: the thread only exists in the owning process, so the
        child just resets its copy's state.
        """
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None and self._pid == os.getpid():
            thread.join(timeout=max(1.0, 10 * self.interval))
        return self.summary()

    def __enter__(self) -> "ResourceSampler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- the sampling loop -----------------------------------------------------

    def _run(self) -> None:
        last_wall = time.perf_counter()
        last_cpu = time.process_time()
        while not self._stop.wait(self.interval):
            self._tick(last_wall, last_cpu)
            last_wall = time.perf_counter()
            last_cpu = time.process_time()
        # One final tick so short phases land at least one point.
        self._tick(last_wall, last_cpu)

    def _tick(self, last_wall: float, last_cpu: float) -> None:
        now = time.perf_counter()
        cpu = time.process_time()
        wall_delta = max(now - last_wall, 1e-9)
        cpu_percent = max(0.0, 100.0 * (cpu - last_cpu) / wall_delta)
        rss = current_rss_mb()
        with self._lock:
            external = dict(self._external)
        sample: Dict[str, Any] = {
            "t": now - self._epoch,
            "rss_mb": rss,
            "cpu_percent": cpu_percent,
        }
        sample.update(external)
        if rss is not None and (self._peak_rss is None or rss > self._peak_rss):
            self._peak_rss = rss
        self._cpu_seconds = cpu
        self._record(sample)
        if self.tracer is not None:
            if rss is not None:
                self.tracer.counter(self.RSS_TRACK, rss)
            self.tracer.counter(self.CPU_TRACK, cpu_percent)
            for name, value in external.items():
                self.tracer.counter(name, value)

    def _record(self, sample: Dict[str, Any]) -> None:
        self.samples.append(sample)
        if len(self.samples) > self.max_samples:
            # Thin in place: keep every other point, double the stride.
            self.samples = self.samples[::2]
            self._thin_stride *= 2

    # -- reporting -------------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """Timeline summary for the run report's ``perf`` section."""
        samples = list(self.samples)
        cpu_values = [s["cpu_percent"] for s in samples]
        summary: Dict[str, Any] = {
            "interval_seconds": self.interval,
            "samples": len(samples),
            "peak_rss_mb": self._peak_rss if self._peak_rss is not None
            else peak_rss_mb(),
            "cpu_seconds": self._cpu_seconds,
            "max_cpu_percent": max(cpu_values) if cpu_values else 0.0,
            "mean_cpu_percent": (
                sum(cpu_values) / len(cpu_values) if cpu_values else 0.0
            ),
            "timeline": _downsample(samples, 200),
        }
        return summary


def _downsample(samples: List[Dict[str, Any]], limit: int) -> List[Dict[str, Any]]:
    """At most ``limit`` evenly spaced points, always keeping the last."""
    if len(samples) <= limit:
        return samples
    step = -(-len(samples) // limit)
    thinned = samples[::step]
    if thinned[-1] is not samples[-1]:
        thinned.append(samples[-1])
    return thinned
