"""RTL-vs-specification comparison for vector traces.

One trace is compared by :func:`run_trace`/:func:`run_vector_trace`; whole
trace sets go through :func:`run_vector_traces`, which runs them through
the pipeline's :class:`~repro.enumeration.pool.WorkerPool` -- across its
workers when it can dispatch, in-process otherwise -- and keeps trace
order (and the stop-on-divergence cut point) regardless of how many
workers simulate concurrently.

A trace's verdict depends only on its content and the comparison setup,
so :func:`trace_digests` names each trace by content and
:func:`run_vector_traces` accepts results already known for some traces
(the pipeline's verdict table, :mod:`repro.core.cache`): only the rest
are simulated, and the known ones are emitted in their places.
"""

from __future__ import annotations

import itertools
import logging
import struct
import time
from dataclasses import dataclass, field
from hashlib import blake2b
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.enumeration.pool import WorkerPool, batch_pool
from repro.obs.observer import Observer, resolve
from repro.pp.isa import Instruction
from repro.pp.rtl.core import (
    BRANCH_OPCODES,
    CoreConfig,
    DeadlockError,
    PPCore,
    Predecoded,
)
from repro.pp.rtl.stimulus import StimulusSource
from repro.pp.spec import ArchState, SpecSimulator
from repro.vectors.generator import TestVectorTrace

logger = logging.getLogger("repro.harness")

#: Inbox task words shared by both models in comparison runs.
DEFAULT_INBOX = tuple(range(0x1000, 0x1000 + 256))

#: Simulated cycles after which a run is reported as deadlocked.
DEFAULT_MAX_CYCLES = 500_000


@dataclass
class ComparisonResult:
    """Outcome of one implementation-vs-specification run."""

    diverged: bool
    differences: List[str] = field(default_factory=list)
    write_mismatch: Optional[str] = None
    cycles: int = 0
    instructions: int = 0
    deadlocked: bool = False

    @property
    def clean(self) -> bool:
        return not self.diverged and not self.deadlocked

    def describe(self) -> str:
        if self.deadlocked:
            return f"DEADLOCK after {self.cycles} cycles"
        if not self.diverged:
            return f"match ({self.instructions} instructions, {self.cycles} cycles)"
        parts = list(self.differences[:4])
        if self.write_mismatch:
            parts.append(self.write_mismatch)
        return "DIVERGED: " + "; ".join(parts)

    def to_row(self) -> tuple:
        """Plain-tuple form for the verdict table (pickles far faster than
        the dataclass); :meth:`from_row` inverts it."""
        return (self.diverged, tuple(self.differences), self.write_mismatch,
                self.cycles, self.instructions, self.deadlocked)

    @classmethod
    def from_row(cls, row: tuple) -> "ComparisonResult":
        diverged, differences, write_mismatch, cycles, instructions, deadlocked = row
        return cls(diverged, list(differences), write_mismatch, cycles,
                   instructions, deadlocked)


def compare_states(spec_state: ArchState, rtl_state: ArchState) -> List[str]:
    """Architectural differences between specification and implementation."""
    return spec_state.differences(rtl_state)


def _compare_write_streams(
    spec_log: Sequence[Tuple[int, int]], rtl_log: Sequence[Tuple[int, int]]
) -> Optional[str]:
    for index, (expected, actual) in enumerate(zip(spec_log, rtl_log)):
        if expected != actual:
            return (
                f"write #{index}: spec r{expected[0]}={expected[1]:#010x}, "
                f"rtl r{actual[0]}={actual[1]:#010x}"
            )
    if len(spec_log) != len(rtl_log):
        return f"write count: spec {len(spec_log)}, rtl {len(rtl_log)}"
    return None


def run_trace(
    program: Sequence[Instruction],
    stimulus: StimulusSource,
    config: Optional[CoreConfig] = None,
    inbox_tasks: Sequence[int] = DEFAULT_INBOX,
    strict_writes: bool = True,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    decode_table: Optional[Dict[int, Predecoded]] = None,
) -> ComparisonResult:
    """Run ``program`` on the RTL under ``stimulus`` and on the spec; compare.

    ``strict_writes`` additionally compares the register write stream at
    retirement, which catches transient corruption that a later write
    would mask in the final state.

    A run that hits ``max_cycles`` is reported as ``deadlocked``.  Any other
    ``RuntimeError`` out of the simulator is a broken unit invariant (say,
    a D-refill started while the cache is busy): it is reported as a
    divergence carrying the error's message, never as a deadlock.

    ``decode_table`` is the :class:`PPCore` decode table to share with
    other runs (see :func:`run_vector_traces`); ``None`` keeps it private.
    """
    config = config or CoreConfig(mem_latency=0)
    core = PPCore(program, config, stimulus, inbox_tasks=list(inbox_tasks),
                  decode_table=decode_table)
    try:
        core.run(max_cycles=max_cycles)
    except DeadlockError:
        return ComparisonResult(
            diverged=True, deadlocked=True, cycles=core.cycle,
            instructions=len(program),
            differences=["implementation deadlocked"],
        )
    except RuntimeError as exc:
        return ComparisonResult(
            diverged=True, cycles=core.cycle, instructions=len(program),
            differences=[f"implementation error: {exc}"],
        )
    rtl_state = core.architectural_state()
    spec = SpecSimulator(inbox=list(inbox_tasks))
    if any(ins.opcode in BRANCH_OPCODES for ins in program):
        spec_state = spec.run_with_control_flow(program)
    else:
        spec_state = spec.run(program)
    differences = compare_states(spec_state, rtl_state)
    write_mismatch = None
    if strict_writes:
        write_mismatch = _compare_write_streams(spec.write_log, core.regfile.write_log)
    return ComparisonResult(
        diverged=bool(differences or write_mismatch),
        differences=differences,
        write_mismatch=write_mismatch,
        cycles=core.cycle,
        instructions=len(program),
    )


def run_vector_trace(
    trace: TestVectorTrace,
    config: Optional[CoreConfig] = None,
    **kwargs,
) -> ComparisonResult:
    """Convenience wrapper for generated vector traces."""
    return run_trace(trace.program, trace.stimulus(), config=config, **kwargs)


_INSTRUCTION_FIELDS = struct.Struct("<BBBBi")
_QUEUE_LENGTHS = struct.Struct("<7I")


def trace_digests(traces: Sequence[TestVectorTrace]) -> List[bytes]:
    """A 16-byte content digest per trace, over everything
    :func:`run_vector_trace` reads: the program and the six stimulus
    queues.  Each instruction contributes all five fields -- a superset
    of the encoded word the RTL runs, since the specification reads the
    fields.  ``edges_traversed`` only orders scheduling and is left out.
    """
    packed: Dict[int, bytes] = {}  # by id(): the traces keep them alive
    pack = _INSTRUCTION_FIELDS.pack
    digests = []
    for trace in traces:
        program = trace.program
        words = []
        for ins in program:
            word = packed.get(id(ins))
            if word is None:
                word = packed[id(ins)] = pack(
                    ins.opcode, ins.rd, ins.rs, ins.rt, ins.imm
                )
            words.append(word)
        queues = (trace.fetch_hits, trace.dcache_hits, trace.inbox_ready,
                  trace.outbox_ready, trace.victim_dirty, trace.mem_pace)
        digest = blake2b(
            _QUEUE_LENGTHS.pack(len(program), *map(len, queues)), digest_size=16
        )
        digest.update(b"".join(words))
        for queue in queues:
            digest.update(bytes(queue))
        digests.append(digest.digest())
    return digests


def _trace_chunk_job(
    payload: Tuple[
        CoreConfig, Dict[int, Predecoded], Sequence[Tuple[int, TestVectorTrace]]
    ],
    attempt: int = 0,
) -> List[Tuple[int, ComparisonResult]]:
    """Pool task: the call's config and decode table plus one chunk of
    indexed traces (pure -- safe to retry).  In-process every chunk shares
    the one table; a worker unpickles a fresh copy per chunk."""
    config, decode_table, indexed = payload
    return [
        (index, run_vector_trace(trace, config=config, decode_table=decode_table))
        for index, trace in indexed
    ]


def _record_result(obs: Observer, index: int, result: ComparisonResult) -> None:
    """Per-trace comparison metrics (coordinator side, both modes)."""
    obs.inc("compare.traces_run")
    obs.inc("compare.instructions_run", result.instructions)
    obs.inc("compare.cycles_run", result.cycles)
    obs.observe("compare.trace_instructions", result.instructions)
    obs.observe("compare.trace_cycles", result.cycles)
    if result.diverged:
        obs.inc("compare.divergences")
        obs.event("compare.divergence", trace=index, detail=result.describe())
        logger.info("trace %d diverged: %s", index, result.describe())


def run_vector_traces(
    traces: Iterable[TestVectorTrace],
    config: Optional[CoreConfig] = None,
    stop_on_divergence: bool = True,
    obs: Optional[Observer] = None,
    chunksize: Optional[int] = None,
    pool: Optional[WorkerPool] = None,
    known: Optional[Mapping[int, ComparisonResult]] = None,
) -> Tuple[List[ComparisonResult], List[int]]:
    """Run many traces; return ``(results, diverging_indices)`` in trace order.

    ``known`` maps trace indices to results already known for them (a
    verdict table's rows); those traces are not simulated, and their
    results are emitted -- recorded, counted and checked for a stop --
    in their places exactly as if they had just run.  So the returned
    lists equal a run without ``known`` whenever its results are right.

    ``pool`` is the pipeline's persistent
    :class:`~repro.enumeration.pool.WorkerPool`.  Chunks of indexed traces
    always go through its ``imap_tasks``.  When it can dispatch
    (:attr:`~repro.enumeration.pool.WorkerPool.available`) and there is
    more than one trace, the simulations fan across its workers with the
    pool's dead-worker recovery (chunks are pure, so retries are safe).
    Otherwise -- no pool, a closed or degraded one -- the chunks run
    in-process, one trace each, in trace order.  Every chunk carries the
    call's config, so no module state is shared between calls, and
    concurrent calls with different configs cannot mix.

    Either way the sequential contract holds exactly: results come back
    in trace order, and with ``stop_on_divergence`` the result list ends
    at the first diverging trace -- in-process nothing past it is
    simulated, and workers that raced ahead on later traces are retired.

    On workers, scheduling is longest-trace-first (the coordinator
    restores trace order), so one long trace dispatched last cannot
    straggle the whole pool.  ``chunksize`` controls how many traces each
    dispatch hands a worker; the default of ``max(1, n // (workers * 4))``
    gives every worker ~4 chunks, which amortizes dispatch/pickling
    without re-creating the imbalance that one giant chunk of the longest
    traces would.

    Each distinct program word is decoded once per call in-process: every
    chunk carries the call's one ``{word: Predecoded}`` table (a worker
    decodes once per chunk, into its own copy).  The table lives only as
    long as the call (one entry per distinct word, a few MB at most), so
    there is no process-global memo to grow.

    ``obs`` receives per-trace instruction/cycle histograms, running
    ``compare.*`` counters, ``compare.workers`` (and, on workers,
    ``compare.chunksize``) gauges, a ``compare.seconds`` sample, and a
    ``compare.divergence`` event (with the divergence site) for every
    diverging trace.  Known results feed all of these the same way; the
    ``compare.verdicts_reused`` counter says how many of the emitted
    results were known.
    """
    obs = resolve(obs)
    started = time.perf_counter()
    config = config or CoreConfig(mem_latency=0)
    traces = list(traces)
    known = known or {}
    # Pool, workers and chunks are sized by the traces to simulate: the
    # known ones are emitted in place and never dispatched.
    order = [i for i in range(len(traces)) if i not in known]
    pool = batch_pool(pool, len(order))
    workers = min(pool.jobs, max(1, len(order)))
    if not pool.available:
        chunksize = 1  # in trace order, so a stop simulates nothing past it
    else:
        chunksize = chunksize or max(1, len(order) // (workers * 4))
        obs.gauge("compare.chunksize", chunksize)
        # Longest first (ties by original index, so scheduling is
        # stable): workers start on the expensive traces while the cheap
        # ones fill in the tail of the schedule.
        order.sort(key=lambda i: (-traces[i].edges_traversed, i))
    obs.gauge("compare.workers", workers)
    decode_table: Dict[int, Predecoded] = {}
    indexed = [(i, traces[i]) for i in order]
    chunks = [
        (config, decode_table, indexed[i : i + chunksize])
        for i in range(0, len(indexed), chunksize)
    ]
    pool.obs = obs
    results: List[ComparisonResult] = []
    diverging: List[int] = []
    # Completions arrive out of order on workers; ``pending`` holds them
    # (and the known results) until every earlier trace has been emitted,
    # so results/metrics/stop decisions happen in exactly the sequential
    # order.
    pending = dict(known)
    next_index = reused = 0
    stopped = False
    # No timeout: simulation time is unbounded in trace length; dead
    # workers still recover via BrokenProcessPool.
    tasks = pool.imap_tasks(_trace_chunk_job, chunks)
    try:
        # The leading empty completion emits the known prefix before the
        # first dispatch, so a stop there simulates nothing at all.
        for chunk_result in itertools.chain([()], (c for _, c in tasks)):
            for index, result in chunk_result:
                pending[index] = result
            while not stopped and next_index in pending:
                emitted = pending.pop(next_index)
                reused += next_index in known
                results.append(emitted)
                _record_result(obs, next_index, emitted)
                obs.heartbeat("compare", traces=next_index + 1,
                              total=len(traces), workers=workers,
                              divergences=len(diverging) + bool(emitted.diverged))
                if emitted.diverged:
                    diverging.append(next_index)
                    if stop_on_divergence:
                        stopped = True  # in-flight later traces are dropped
                next_index += 1
            if stopped:
                break
    finally:
        tasks.close()
        if stopped and reused < len(results):
            # Drop the in-flight later traces by killing the worker
            # generation; the next dispatch re-forks lazily.  A stop in
            # the known prefix (no simulated result emitted) came before
            # the first dispatch: nothing is in flight then.
            pool.retire()
    obs.inc("compare.verdicts_reused", reused)
    obs.observe("compare.seconds", time.perf_counter() - started)
    return results, diverging
