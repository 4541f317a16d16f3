"""The BFS engine's executor: in-process rows or packed shared-memory spans.

:class:`SpanExecutor` is the one row source of
:func:`~repro.enumeration.bfs.enumerate_states`.  It always runs over a
:class:`~repro.enumeration.pool.WorkerPool` -- the caller's, or a private
``WorkerPool(jobs)`` that never forks at ``jobs=1`` -- and picks, wave by
wave, whether the coordinator expands the wave itself or the pool's
workers expand it as packed spans.  State keys are already fixed-width
bit-packed integers (:class:`~repro.smurphi.state.StateCodec` assigns
every declared variable a bit-field), so a dispatched wave does not need
to travel to the workers as a pickled Python list of arbitrary-precision
ints.  This module packs it into a flat little-endian ``uint64`` word
array inside one ``multiprocessing.shared_memory`` segment:

- the **coordinator** writes the wave once (:meth:`SharedFrontier.create`)
  and hands workers only ``(segment name, span start, span stop)`` --
  a few dozen bytes per dispatch regardless of wave size;
- **workers** attach the segment read-only, decode just their span
  (:meth:`SharedFrontier.keys`), expand it with the fork-inherited
  compiled kernel, and return a packed ``uint64`` successor buffer plus
  one guard-mask word per state.  The coordinator recovers the condition
  tuples from its own kernel's choice tables (mask -> signature ->
  table), so no condition tuple and no successor list is ever pickled;
- the coordinator **unlinks** the segment at the wave boundary (and on
  retire/degrade paths), so a wave can never outlive its run.

A wave is expanded in-process, streamed one state at a time, when the
pool cannot dispatch (``jobs=1``, no ``fork``, closed or degraded), when
the kernel has no guard mask (the interpreted kernel, or more than 64
guards), or when the wave is below :data:`DISPATCH_MIN_STATES` states.
Span results are replayed in submission order, so the graph is identical
whatever the job count, dispatch or retry history.

States wider than 64 bits use ``words_per_state = ceil(bits / 64)``
little-endian words per key; the packing is pure arithmetic, so
pack -> shared memory -> unpack round-trips byte-identically to the
list-of-ints path at any declared width (property-tested in
``tests/test_frontier.py``).

Resource-tracker note: CPython registers *every* ``SharedMemory``
attachment (not just creation) with the ``resource_tracker``.  Our
workers are fork children, so they inherit the coordinator's tracker
process; the tracker's cache is a set, which makes each worker's
attach-registration a duplicate no-op against the coordinator's
create-registration.  Workers must therefore *not* unregister on detach
-- the tracker holds exactly one entry per segment, removed by the
coordinator's ``unlink``, and that single entry is exactly the leak
protection we want if the coordinator itself dies.
"""

from __future__ import annotations

import os
import time
from array import array
from multiprocessing import shared_memory
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.enumeration.graph import StateGraph
from repro.enumeration.kernel import Kernel, Transition
from repro.enumeration.pool import WorkerPool, in_worker
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import Observer
from repro.resilience.faults import FaultPlan
from repro.resilience.retry import RetryPolicy

_WORD_BITS = 64
_WORD_MASK = (1 << _WORD_BITS) - 1

#: Frontier size below which the coordinator expands in-process instead of
#: dispatching to workers.  Calibrated so the round-trip is always
#: amortized by a few thousand expansions, while the golden test models'
#: larger waves (``fill_words=2`` and up) still exercise dispatch.
DISPATCH_MIN_STATES = 192

#: Minimum frontier states per packed span: spans this size keep every
#: round-trip worth thousands of transitions while still oversplitting
#: large waves (up to jobs*4 spans) so a skewed span cannot stall a wave.
_MIN_SPAN_STATES = 64

#: Transition kernel published by the coordinator immediately before the
#: pool forks; workers inherit the ready-built choice tables and codec
#: closures without pickling.
_WORKER_KERNEL: Optional[Kernel] = None
#: Whether workers collect per-span metrics snapshots (False keeps the
#: no-sink path overhead-free).
_WORKER_COLLECT: bool = False
#: Fault plan inherited by workers (chaos testing only; None in production).
_WORKER_FAULTS: Optional[FaultPlan] = None


class FrontierCodec:
    """Fixed-width packing of state keys into 64-bit word arrays.

    One codec per model: ``total_bits`` is the model's declared state
    width (:meth:`SyncModel.state_bits`), which determines how many
    64-bit words carry one key.
    """

    def __init__(self, total_bits: int):
        if total_bits < 1:
            raise ValueError("total_bits must be >= 1")
        self.total_bits = int(total_bits)
        self.words_per_state = -(-self.total_bits // _WORD_BITS)

    def pack_keys(self, keys: Iterable[int]) -> array:
        """Pack keys into a flat ``array('Q')``, little-endian word order."""
        buf = array("Q")
        if self.words_per_state == 1:
            buf.extend(keys)
            return buf
        wps = self.words_per_state
        for key in keys:
            for _ in range(wps):
                buf.append(key & _WORD_MASK)
                key >>= _WORD_BITS
        return buf

    def unpack_keys(
        self, words: Sequence[int], start: int = 0, count: Optional[int] = None
    ) -> List[int]:
        """Decode ``count`` keys beginning at state index ``start``.

        ``words`` is any flat uint64 sequence (an ``array('Q')``, a
        ``memoryview().cast("Q")`` over shared memory, ...).
        """
        wps = self.words_per_state
        if count is None:
            count = len(words) // wps - start
        if wps == 1:
            return list(words[start:start + count])
        out: List[int] = []
        base = start * wps
        for _ in range(count):
            key = 0
            for w in range(wps):
                key |= words[base + w] << (_WORD_BITS * w)
            out.append(key)
            base += wps
        return out

    def append_key(self, buf: array, key: int) -> None:
        """Append one key to a flat word buffer (worker result path)."""
        if self.words_per_state == 1:
            buf.append(key)
            return
        for _ in range(self.words_per_state):
            buf.append(key & _WORD_MASK)
            key >>= _WORD_BITS


class SharedFrontier:
    """One wave of packed state keys in a shared-memory segment.

    The coordinator :meth:`create`\\ s (and later :meth:`unlink`\\ s) the
    segment; workers :meth:`attach` by name, read their span, and
    :meth:`close`.  Lifetime is strictly one wave: the coordinator holds
    the only owning reference and unlinks at the wave boundary or on any
    retire/degrade path, so killed workers cannot leak segments.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        codec: FrontierCodec,
        count: int,
        owner: bool,
    ):
        self._shm: Optional[shared_memory.SharedMemory] = shm
        self.codec = codec
        self.count = count
        self.owner = owner

    @property
    def name(self) -> str:
        assert self._shm is not None
        return self._shm.name

    @property
    def nbytes(self) -> int:
        """Bytes of packed frontier payload (not segment granularity)."""
        return self.count * self.codec.words_per_state * 8

    @classmethod
    def create(cls, keys: Sequence[int], codec: FrontierCodec) -> "SharedFrontier":
        packed = codec.pack_keys(keys)
        payload = packed.tobytes()
        shm = shared_memory.SharedMemory(create=True, size=max(1, len(payload)))
        shm.buf[:len(payload)] = payload
        return cls(shm, codec, len(keys), owner=True)

    @classmethod
    def attach(cls, name: str, codec: FrontierCodec, count: int) -> "SharedFrontier":
        # Attaching re-registers the segment with the (fork-shared)
        # resource tracker; that is a set-duplicate no-op, so no
        # worker-side unregister -- see the module docstring.
        shm = shared_memory.SharedMemory(name=name)
        return cls(shm, codec, count, owner=False)

    def keys(self, start: int = 0, count: Optional[int] = None) -> List[int]:
        """Decode a span of state keys out of the segment."""
        assert self._shm is not None
        if count is None:
            count = self.count - start
        if count <= 0:
            return []
        words = self._shm.buf.cast("Q")
        try:
            return self.codec.unpack_keys(words, start, count)
        finally:
            words.release()

    def close(self) -> None:
        """Drop this process's mapping (workers; owner before unlink)."""
        shm = self._shm
        if shm is None:
            return
        try:
            shm.close()
        except Exception:
            pass

    def unlink(self) -> None:
        """Destroy the segment (owner only); safe to call repeatedly."""
        shm, self._shm = self._shm, None
        if shm is None or not self.owner:
            return
        try:
            shm.close()
        except Exception:
            pass
        try:
            shm.unlink()
        except FileNotFoundError:
            pass


def _expand_span_packed(
    payload: Tuple[str, int, int, int, int, int], attempt: int = 0
) -> Tuple[array, array, Optional[Dict[str, Any]]]:
    """Expand one span of a shared-memory packed frontier.

    ``payload`` is ``(segment_name, total_states, start, stop, wave,
    span)``; ``(wave, span)`` is the address a :class:`FaultPlan`
    targets (its hooks fire only inside real workers).  Returns
    ``(masks, successors, metrics)``: one guard-signature bitmask per
    source state and the flat packed key buffer of every transition, in
    expansion order.  Pure: safe to retry on a fresh worker generation.
    """
    name, total, start, stop, wave, span = payload
    if in_worker() and _WORKER_FAULTS is not None:
        _WORKER_FAULTS.worker_hook(wave, span, attempt)
    started = time.perf_counter()
    kern = _WORKER_KERNEL
    assert kern is not None, "packed dispatch requires an inherited kernel"
    # Every span restarts the kernel's validation schedule (first state in
    # full, then the sampling cadence from zero): a forked kernel would
    # otherwise carry its tick across spans, waves and runs, and which
    # rows get checked would depend on how spans land on workers.
    kern.start_run()
    fcodec = FrontierCodec(kern.codec.total_bits)
    frontier = SharedFrontier.attach(name, fcodec, total)
    try:
        keys = frontier.keys(start, stop - start)
    finally:
        frontier.close()
    kernel_before = kern.counters()
    expand_masked = kern.expand_masked
    append_key = fcodec.append_key
    masks = array("Q")
    succs = array("Q")
    transitions = 0
    for key in keys:
        mask, row = expand_masked(key)
        masks.append(mask)
        transitions += len(row)
        for _, dst in row:
            append_key(succs, dst)
    if not _WORKER_COLLECT:
        return masks, succs, None
    registry = MetricsRegistry()
    worker = str(os.getpid())
    registry.inc("enum.shard.states", len(keys), worker=worker)
    registry.inc("enum.shard.transitions", transitions, worker=worker)
    registry.observe(
        "enum.shard.seconds", time.perf_counter() - started, worker=worker
    )
    # Kernel deltas only from real workers: in-process runs share the
    # coordinator's kernel object, whose advance the final
    # flush_kernel_metrics already reports -- counting both would break
    # the expansions == num_states identity.
    if in_worker():
        for cname, value in kern.counters().items():
            delta = value - kernel_before.get(cname, 0)
            if delta:
                registry.inc(f"enum.kernel.{cname}", delta, worker=worker)
    return masks, succs, registry.snapshot()


def _tallied(row: Iterable[Transition], tally: List[int]) -> Iterator[Transition]:
    """``row`` unchanged, adding each transition to ``tally[0]`` as the
    consumer reaches it."""
    for transition in row:
        tally[0] += 1
        yield transition


def _span_bounds(count: int, jobs: int) -> List[Tuple[int, int]]:
    """Adaptive packed-span layout: contiguous ``(start, stop)`` pairs.

    Oversplits to ``jobs * 4`` spans for load balance, but never below
    :data:`_MIN_SPAN_STATES` states per span so dispatch stays amortized.
    """
    num_spans = max(1, min(jobs * 4, count // _MIN_SPAN_STATES))
    size = -(-count // num_spans)
    return [(start, min(count, start + size)) for start in range(0, count, size)]


class SpanExecutor:
    """Expands BFS waves in-process or as packed spans on a
    :class:`WorkerPool`.

    Binds ``pool`` (or a private ``WorkerPool(jobs)`` it shuts down in
    :meth:`close`).  When waves may reach workers, it first publishes the
    fork-inherited worker globals and declares ``context``: an unchanged
    tag reuses the live worker generation; a fault plan forces a fresh
    one that inherits exactly that plan.  An executor that only expands
    in-process publishes nothing, so concurrent in-process runs share no
    module state.
    """

    def __init__(
        self,
        kern: Kernel,
        jobs: int,
        obs: Observer,
        context: Any,
        pool: Optional[WorkerPool] = None,
        retry: Optional[RetryPolicy] = None,
        faults: Optional[FaultPlan] = None,
    ):
        global _WORKER_KERNEL, _WORKER_COLLECT, _WORKER_FAULTS
        self.kern = kern
        self.jobs = jobs
        self.obs = obs
        self.faults = faults
        # A span ships one guard-mask word per state, which only a
        # compiled kernel with at most 64 guards produces.
        self.dispatches = (jobs > 1 and hasattr(kern, "expand_masked")
                           and len(kern.tables.guards) <= 64)
        self.owned = pool is None
        if pool is None:
            pool = WorkerPool(jobs, policy=retry, obs=obs)
        else:
            pool.obs = obs
            if retry is not None:
                pool.policy = retry
        if self.dispatches:
            # Publish BEFORE declaring the pool context: workers fork
            # lazily at the first dispatch and must inherit exactly this
            # state.
            _WORKER_KERNEL = kern
            _WORKER_COLLECT = obs.enabled
            _WORKER_FAULTS = faults
            pool.set_context(context)
            if faults is not None:
                pool.retire()
        self.pool = pool
        self.codec = FrontierCodec(kern.codec.total_bits)
        self._conditions: Dict[int, Tuple[Tuple, ...]] = {}
        self._recovery_before = pool.recovery_snapshot()

    def rows(
        self, graph: StateGraph, wave: List[int], index: int
    ) -> Iterator[Tuple[int, Iterable[Transition]]]:
        """``(state id, successor row)`` for every state of BFS wave
        number ``index``, in wave order."""
        if not (self.dispatches and self.pool.available
                and len(wave) >= DISPATCH_MIN_STATES):
            return self._in_process(graph, wave)
        keys = [graph.state_key(src) for src in wave]
        frontier = SharedFrontier.create(keys, self.codec)
        try:
            spans = _span_bounds(len(keys), self.jobs)
            payloads = [
                (frontier.name, len(keys), start, stop, index, span)
                for span, (start, stop) in enumerate(spans)
            ]
            self.pool.note_dispatch(frontier.nbytes)
            results = self.pool.run_tasks(
                _expand_span_packed, payloads,
                timeout=self.pool.policy.shard_timeout,
            )
        finally:
            # The coordinator owns the segment: unlink at the wave
            # boundary on every path (success, retry exhaustion, genuine
            # error), so killed workers cannot leak it.
            frontier.unlink()
        return zip(wave, self._replay(results))

    def _in_process(
        self, graph: StateGraph, wave: List[int]
    ) -> Iterator[Tuple[int, Iterable[Transition]]]:
        # Streamed: each state is expanded only when the loop asks for its
        # row, so a generator kernel's errors surface in state order.  The
        # wave is reported as one coordinator shard, so shard totals still
        # sum to the run's totals.
        started = time.perf_counter()
        tally = [0]
        expand = self.kern.expand
        for src in wave:
            row = expand(graph.state_key(src))
            if isinstance(row, tuple):
                tally[0] += len(row)
            else:
                row = _tallied(row, tally)
            yield src, row
        if self.obs.enabled:
            worker = str(os.getpid())
            self.obs.inc("enum.shard.states", len(wave), worker=worker)
            self.obs.inc("enum.shard.transitions", tally[0], worker=worker)
            self.obs.observe("enum.shard.seconds",
                             time.perf_counter() - started, worker=worker)

    def _replay(self, results) -> Iterator[Iterator[Transition]]:
        unpack_keys = self.codec.unpack_keys
        for masks, succs, metrics in results:
            self.obs.merge(metrics)
            pos = 0
            for mask in masks:
                conds = self._conditions_for(mask)
                yield zip(conds, unpack_keys(succs, pos, len(conds)))
                pos += len(conds)

    def _conditions_for(self, mask: int) -> Tuple[Tuple, ...]:
        conds = self._conditions.get(mask)
        if conds is None:
            guards = self.kern.tables.guards
            sig = tuple(bool((mask >> i) & 1) for i in range(len(guards)))
            conds = tuple(cond for _, cond in self.kern.tables.table(sig))
            self._conditions[mask] = conds
        return conds

    def recovery(self) -> Tuple[int, int]:
        """``(spans retried, pool respawns)`` since this executor opened."""
        retried, respawns = self.pool.recovery_snapshot()
        return retried - self._recovery_before[0], respawns - self._recovery_before[1]

    def close(self) -> None:
        """Release the pool (or retire a fault-laden generation) and globals."""
        global _WORKER_KERNEL, _WORKER_COLLECT, _WORKER_FAULTS
        if self.owned:
            self.pool.shutdown()
        elif self.faults is not None and self.dispatches:
            # Never let a fault-laden worker generation outlive its run.
            self.pool.retire()
        if self.dispatches:
            _WORKER_KERNEL = None
            _WORKER_COLLECT = False
            _WORKER_FAULTS = None
