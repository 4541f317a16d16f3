"""Tour -> test-vector conversion for the PP control model.

The generator walks each tour arc, reads the arc's interface events from
the shared :class:`TransitionEventMemo` (one ``_step`` per unique
``(state, condition)`` pair), and translates them into:

- the **test program**: one biased-random instruction per successful fetch
  (two when the dual-issue choice fired), built once by
  :func:`vector_instruction`;
- the **stimulus queues** a :class:`~repro.pp.rtl.stimulus.QueueStimulus`
  replays into the RTL model: I-fetch outcomes, D-probe outcomes,
  Inbox/Outbox readiness, victim dirtiness, memory pacing.

This is the one event-to-stimulus loop: the squashing-branch extension
(:mod:`repro.pp.branches`) runs it too, its ``branch_resolved`` and
``squash`` events being two arms that never fire on the base model.

Address realization: the abstract model's *conflict* comparator choice is
realized through actual addresses rather than forced (forcing it could
break data coherence).  Loads whose conflict choice fired true get the
pending store's address patched in; all other memory operands draw from a
pool of distinct cache lines.

Generation goes through the pipeline's one
:class:`~repro.enumeration.pool.WorkerPool` at every job count: workers
fork-inherit the published generator and convert chunks of indexed
tours, an in-process pool converts them in the coordinator, and the
traces are byte-identical either way.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.enumeration.graph import Edge, StateGraph
from repro.enumeration.pool import WorkerPool, batch_pool
from repro.obs.observer import Observer, resolve
from repro.pp.fsm_model import PPControlModel
from repro.pp.isa import (
    NUM_REGS,
    OPCODES_BY_CLASS,
    Instruction,
    InstructionClass,
    Opcode,
    random_instruction,
    trusted_instruction,
)
from repro.pp.rtl.memory import LINE_WORDS
from repro.pp.rtl.stimulus import QueueStimulus
from repro.smurphi.state import StateCodec
from repro.tour.fig33 import Tour

#: Distinct cache-line base addresses used for memory operands (kept low so
#: data never aliases the program text segment).
DEFAULT_ADDRESS_POOL = tuple(range(0, 16 * LINE_WORDS * 4, LINE_WORDS * 4))

_LD = InstructionClass.LD
_SD = InstructionClass.SD
#: Instruction class of each ``fetch`` event's class name.
_CLASS_BY_NAME = {klass.value: klass for klass in InstructionClass}


def check_address_pool(address_pool: Sequence[int]) -> List[int]:
    """``address_pool`` as a list, or ``ValueError`` if it cannot serve.

    Memory operands are immediates, so every address must fit the signed
    16-bit field; and a load realized as *not* conflicting needs some
    address other than the pending store's, so the pool needs at least
    two distinct ones.
    """
    pool = list(address_pool)
    if len(set(pool)) < 2:
        raise ValueError(
            f"address_pool needs at least two distinct addresses, got {pool!r}"
        )
    outside = [a for a in pool if not -(1 << 15) <= a < (1 << 15)]
    if outside:
        raise ValueError(
            f"address_pool addresses {outside!r} do not fit a 16-bit immediate"
        )
    return pool


def vector_instruction(
    klass: InstructionClass, rng: random.Random, address_pool: Sequence[int]
) -> Instruction:
    """Biased-random member of ``klass`` for a test program.

    Memory operands use rs=r0 so the effective address is the immediate
    -- the generator stays in full control of which line each access
    touches -- drawn from ``address_pool`` (see :func:`check_address_pool`).

    The draws are exactly those of ``random_instruction(klass, rng,
    address_pool)`` followed, for a load or store, by a second pool draw
    that replaces the first operand; the instruction is built once.
    """
    if klass is _LD or klass is _SD:
        opcode = rng.choice(OPCODES_BY_CLASS[klass])
        rd = rng.randrange(1, NUM_REGS)
        rng.randrange(0, NUM_REGS)  # rs: drawn, then forced to r0
        rng.choice(address_pool)  # the superseded first operand
        return trusted_instruction(opcode, rd, 0, 0, rng.choice(address_pool))
    return random_instruction(klass, rng, address_pool)


@dataclass
class TestVectorTrace:
    """One simulation trace: a program plus its interface-force queues."""

    program: List[Instruction] = field(default_factory=list)
    fetch_hits: List[bool] = field(default_factory=list)
    dcache_hits: List[bool] = field(default_factory=list)
    inbox_ready: List[bool] = field(default_factory=list)
    outbox_ready: List[bool] = field(default_factory=list)
    victim_dirty: List[bool] = field(default_factory=list)
    mem_pace: List[bool] = field(default_factory=list)
    edges_traversed: int = 0

    @property
    def num_instructions(self) -> int:
        return len(self.program)

    def stimulus(self) -> QueueStimulus:
        return QueueStimulus(
            fetch_hits=self.fetch_hits,
            dcache_hits=self.dcache_hits,
            inbox_ready=self.inbox_ready,
            outbox_ready=self.outbox_ready,
            victim_dirty=self.victim_dirty,
            mem_pace=self.mem_pace,
        )


@dataclass
class TraceSet:
    """All traces generated from a tour set, with Table 3.3 accounting."""

    traces: List[TestVectorTrace]

    @property
    def num_traces(self) -> int:
        return len(self.traces)

    @property
    def total_instructions(self) -> int:
        return sum(t.num_instructions for t in self.traces)

    @property
    def total_edge_traversals(self) -> int:
        return sum(t.edges_traversed for t in self.traces)

    @property
    def longest_trace_edges(self) -> int:
        return max((t.edges_traversed for t in self.traces), default=0)

    def __iter__(self):
        return iter(self.traces)

    def __len__(self) -> int:
        return len(self.traces)

    def to_json(self) -> str:
        """Canonical serialization of every trace's program and queues.

        Instructions flatten to their integer fields (opcodes are
        ``IntEnum``).  Used to assert byte-for-byte equivalence between
        incremental and cold builds.
        """
        import json

        return json.dumps(
            {
                "traces": [
                    {
                        "program": [
                            [int(i.opcode), i.rd, i.rs, i.rt, i.imm]
                            for i in t.program
                        ],
                        "fetch_hits": t.fetch_hits,
                        "dcache_hits": t.dcache_hits,
                        "inbox_ready": t.inbox_ready,
                        "outbox_ready": t.outbox_ready,
                        "victim_dirty": t.victim_dirty,
                        "mem_pace": t.mem_pace,
                        "edges_traversed": t.edges_traversed,
                    }
                    for t in self.traces
                ],
            }
        )


def pack_trace_set(trace_set: TraceSet) -> Dict:
    """Compact cache payload for a :class:`TraceSet`.

    Programs repeat a small pool of biased-random instructions, so the
    encoding interns unique instructions into a table and stores per-trace
    index lists.  Unpacking (:func:`unpack_trace_set`) rebuilds each
    unique :class:`Instruction` exactly once, which loads ~4x faster than
    unpickling one dataclass object per program slot -- the difference
    between a no-op revalidation and a noticeable pause.
    """
    table: Dict[Instruction, int] = {}
    rows = []
    for trace in trace_set.traces:
        indices = []
        for ins in trace.program:
            index = table.get(ins)
            if index is None:
                index = len(table)
                table[ins] = index
            indices.append(index)
        rows.append(
            (
                indices,
                trace.fetch_hits,
                trace.dcache_hits,
                trace.inbox_ready,
                trace.outbox_ready,
                trace.victim_dirty,
                trace.mem_pace,
                trace.edges_traversed,
            )
        )
    return {
        "table": [(int(i.opcode), i.rd, i.rs, i.rt, i.imm) for i in table],
        "rows": rows,
    }


def unpack_trace_set(payload: Dict) -> TraceSet:
    """Inverse of :func:`pack_trace_set`.

    Rebuilds instructions with :func:`~repro.pp.isa.trusted_instruction`:
    the packed fields came from real instructions, so re-running the
    dataclass range validation per slot would only cost time.
    """
    by_value = {int(op): op for op in Opcode}
    table = [
        trusted_instruction(by_value[opcode], rd, rs, rt, imm)
        for opcode, rd, rs, rt, imm in payload["table"]
    ]
    traces = []
    for indices, fh, dh, ir, our, vd, mp, edges in payload["rows"]:
        traces.append(
            TestVectorTrace(
                program=[table[i] for i in indices],
                fetch_hits=fh,
                dcache_hits=dh,
                inbox_ready=ir,
                outbox_ready=our,
                victim_dirty=vd,
                mem_pace=mp,
                edges_traversed=edges,
            )
        )
    return TraceSet(traces=traces)


class TransitionEventMemo:
    """Per-model memo of everything vector generation needs per arc.

    Both :func:`pp_instruction_cost` (the tour phase's cost function) and
    :class:`VectorGenerator` replay the model's transition for the same
    ``(src_state, condition)`` pairs; before this memo existed each side
    unpacked the state and ran the step function independently -- twice
    per arc inside the generator alone (``transition_events`` + ``step``
    both call ``_step``).  One :meth:`lookup` now runs ``_step`` exactly
    once per unique pair and caches the complete outcome tuple
    ``(events, src_mem, st_pend_after, instructions)``:

    - ``events``: the interface-event list, in emission order;
    - ``src_mem``: the source state's ``mem`` stage (split-store address
      tracking needs it);
    - ``st_pend_after``: whether a store is still pending *after* the
      transition (clears the pending address exactly when the model does);
    - ``instructions``: instructions contributed by the arc's fetch, the
      way Table 3.3 counts them;
    - ``advanced``: whether the pipe advanced (stage-index bookkeeping).

    Keys are ``(state_id, condition)`` so the memo is valid for exactly
    one enumerated graph; share one instance per pipeline build.  Arcs
    with the same ``(src, condition)`` share one entry; the additional
    per-edge-index view (:meth:`lookup_edge`) just skips re-deriving the
    key on the generator's hot path.  Source states are unpacked with
    the model's :class:`~repro.smurphi.state.StateCodec`.
    """

    def __init__(self, model: PPControlModel, graph: StateGraph):
        self.model = model
        self.graph = graph
        self.codec = StateCodec(model.state_vars)
        self._entries: Dict[Tuple[int, Tuple], Tuple] = {}
        self._by_edge: List[Optional[Tuple]] = [None] * graph.num_edges
        self.computed = 0
        self.hits = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, src: int, condition: Tuple) -> Tuple:
        """Return ``(events, src_mem, st_pend_after, instructions, advanced)``."""
        key = (src, condition)
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            return entry
        self.computed += 1
        state = self.codec.unpack(self.graph.state_key(src))
        choice = dict(zip(self.model.choice_names, condition))
        next_state, events = self.model._step(state, choice)
        instructions = 0
        advanced = False
        for event in events:
            kind = event[0]
            if kind == "fetch" and event[2]:
                instructions += 2 if event[3] else 1
            elif kind == "pipe_advance":
                advanced = True
        entry = (
            events, state["mem"], bool(next_state["st_pend"]),
            instructions, advanced,
        )
        self._entries[key] = entry
        return entry

    def lookup_edge(self, edge_index: int) -> Tuple:
        """:meth:`lookup` keyed by edge index (same entries, no key
        re-derivation -- distinct arcs may share one entry)."""
        entry = self._by_edge[edge_index]
        if entry is not None:
            self.hits += 1
            return entry
        graph = self.graph
        entry = self.lookup(
            graph.edge_src[edge_index],
            graph.conditions[graph.edge_cond[edge_index]],
        )
        self._by_edge[edge_index] = entry
        return entry


#: The generator worker tasks run, published for the length of one
#: worker-pool :meth:`VectorGenerator.generate` call.  The PP model holds
#: guard closures that cannot be pickled, so workers must inherit the
#: whole generator (model, graph, memo) through fork copy-on-write;
#: clearing it after the call keeps the module from holding a finished
#: build alive.  In-process calls never read it: their task is bound to
#: the generator itself, so concurrent in-process calls cannot mix.
_TASK_GENERATOR: Optional["VectorGenerator"] = None
#: Source of each generator's pool-context epoch: a shared
#: :class:`WorkerPool`'s tag can never collide across generators (object
#: ids can be recycled; epochs cannot), while repeat runs of one
#: generator keep the warm worker generation.
_GENERATOR_EPOCHS = itertools.count(1)


def _vector_chunk_job(
    payload: Sequence[Tuple[int, Tour]], attempt: int = 0
) -> List[Tuple[int, "TestVectorTrace"]]:
    """Worker task: one chunk of indexed tours, converted by the
    fork-inherited generator (pure -- safe to retry)."""
    return _TASK_GENERATOR._convert_chunk(payload)


class VectorGenerator:
    """Transition-condition mapping for the PP (Fig. 3.1 oval 3).

    Parameters
    ----------
    model:
        The control model the graph was enumerated from (provides
        ``transition_events``).
    graph:
        The enumerated state graph.
    seed:
        Seed for the biased-random fill of control-irrelevant fields.
    address_pool:
        Addresses memory operands draw from: at least two distinct ones,
        each fitting a 16-bit immediate (``ValueError`` otherwise).
    memo:
        A shared :class:`TransitionEventMemo` (e.g. the one the tour
        phase's cost function already filled).  ``None`` creates a
        private one.
    """

    def __init__(
        self,
        model: PPControlModel,
        graph: StateGraph,
        seed: int = 0,
        address_pool: Sequence[int] = DEFAULT_ADDRESS_POOL,
        memo: Optional[TransitionEventMemo] = None,
    ):
        self.model = model
        self.graph = graph
        self.seed = seed
        self.address_pool = check_address_pool(address_pool)
        self.memo = memo if memo is not None else TransitionEventMemo(model, graph)
        self._epoch = next(_GENERATOR_EPOCHS)

    # -- public API -------------------------------------------------------------

    def generate(
        self,
        tours: Sequence[Tour],
        obs: Optional[Observer] = None,
        pool: Optional[WorkerPool] = None,
    ) -> TraceSet:
        """Convert every tour component into a test-vector trace.

        ``pool`` is the pipeline's persistent
        :class:`~repro.enumeration.pool.WorkerPool`.  Chunks of indexed
        tours always go through its ``imap_tasks``: on its fork-inherited
        workers when it can dispatch
        (:attr:`~repro.enumeration.pool.WorkerPool.available`), with its
        dead-worker recovery (chunks are pure, so retries are safe);
        in-process when there is no pool, a closed or degraded one, or a
        single tour.  Each tour owns an independent
        ``random.Random(f"{seed}:{index}")`` keyed by its *original*
        index, so the produced traces are bit-identical at any worker
        count (golden-tested); only wall clock changes.
        """
        global _TASK_GENERATOR
        obs = resolve(obs)
        started = time.perf_counter()
        tours = list(tours)
        pool = batch_pool(pool, len(tours))
        on_workers = pool.available
        workers = min(pool.jobs, max(1, len(tours)))
        # Gauge before generating: in-process and worker runs report the
        # same value (worker-side memo fills are invisible to the parent).
        obs.gauge("vectors.memo_entries", len(self.memo))
        obs.gauge("vectors.workers", workers)
        # In-process, one tour per chunk keeps one heartbeat per trace.
        chunksize = max(1, len(tours) // (workers * 4)) if on_workers else 1
        indexed = list(enumerate(tours))
        chunks = [
            indexed[i : i + chunksize] for i in range(0, len(indexed), chunksize)
        ]
        traces: List[Optional[TestVectorTrace]] = [None] * len(tours)
        done = 0
        if on_workers:
            # Publish before declaring the context: the same generator
            # keeps its epoch, so the tag is unchanged and warm workers
            # are reused; another generator's tag re-forks workers that
            # inherit this one.
            _TASK_GENERATOR = self
            pool.obs = obs
            pool.set_context(("vectors", self._epoch))
            task = _vector_chunk_job
        else:
            task = self._convert_chunk
        try:
            # No timeout: trace generation time is unbounded in tour
            # length; dead workers still recover via BrokenProcessPool.
            for _, chunk_result in pool.imap_tasks(task, chunks):
                for index, trace in chunk_result:
                    traces[index] = trace
                done += len(chunk_result)
                obs.heartbeat("vectors", traces=done, total=len(tours),
                              workers=workers)
        finally:
            if on_workers:
                _TASK_GENERATOR = None
        trace_set = TraceSet(traces=traces)
        obs.inc("vectors.traces", trace_set.num_traces)
        obs.inc("vectors.instructions", trace_set.total_instructions)
        for trace in traces:
            obs.observe("vectors.trace_instructions", trace.num_instructions)
        obs.observe("vectors.seconds", time.perf_counter() - started)
        return trace_set

    def _convert_chunk(
        self, payload: Sequence[Tuple[int, Tour]], attempt: int = 0
    ) -> List[Tuple[int, TestVectorTrace]]:
        """One chunk of indexed tours; each tour's fill RNG is keyed by its
        original index."""
        return [
            (index, self._trace_from_tour(
                tour, random.Random(f"{self.seed}:{index}")
            ))
            for index, tour in payload
        ]

    def trace_from_edges(
        self, edge_indices: Sequence[int], rng: Optional[random.Random] = None
    ) -> TestVectorTrace:
        """Convert one walk (list of edge indices) into a trace."""
        return self._trace_from_tour(
            Tour(edge_indices=list(edge_indices)), rng or random.Random(self.seed)
        )

    # -- the mapping --------------------------------------------------------------

    def _transition(self, edge_index: int) -> Tuple[List[Tuple], str, bool, bool]:
        """``(events, src_mem, st_pend_after, advanced)`` for one arc,
        from the memo."""
        events, src_mem, st_pend_after, _, advanced = self.memo.lookup_edge(
            edge_index
        )
        return events, src_mem, st_pend_after, advanced

    def _trace_from_tour(self, tour: Tour, rng: random.Random) -> TestVectorTrace:
        trace = TestVectorTrace(edges_traversed=len(tour.edge_indices))
        # Parallel index pipeline: which program index occupies each stage,
        # so the conflict comparator's choice can be realized by patching
        # the in-flight load's address.
        ifq_index: Optional[int] = None
        ex_index: Optional[int] = None
        mem_index: Optional[int] = None
        pending_store_addr: Optional[int] = None

        for edge_index in tour.edge_indices:
            events, src_mem, st_pend_after, advanced = self._transition(edge_index)
            fetched_index: Optional[int] = None
            squashed = False

            for event in events:
                kind = event[0]
                if kind == "fetch":
                    _, klass_name, i_hit, dual = event
                    trace.fetch_hits.append(bool(i_hit))
                    if i_hit:
                        fetched_index = len(trace.program)
                        self._emit_instruction(trace, klass_name, rng)
                        if dual:
                            self._emit_instruction(trace, "ALU", rng)
                elif kind == "d_probe":
                    trace.dcache_hits.append(bool(event[1]))
                    if src_mem == "SD" and event[1] and mem_index is not None:
                        pending_store_addr = self._operand_address(trace, mem_index)
                elif kind == "refill_start":
                    trace.victim_dirty.append(bool(event[1]))
                    if src_mem == "SD" and mem_index is not None:
                        # The store posts after its refill completes.
                        pending_store_addr = self._operand_address(trace, mem_index)
                elif kind == "conflict":
                    self._realize_conflict(
                        trace, bool(event[1]), mem_index, pending_store_addr, rng
                    )
                elif kind == "inbox_query":
                    trace.inbox_ready.append(bool(event[1]))
                elif kind == "outbox_query":
                    trace.outbox_ready.append(bool(event[1]))
                elif kind == "mem_word":
                    trace.mem_pace.append(bool(event[1]))
                elif kind == "branch_resolved":
                    if event[1] and ex_index is not None:
                        # Skip exactly the squashed slot.  When the slot
                        # behind the branch was a bubble (nothing fetched
                        # yet), branch to the fall-through target instead
                        # so no real instruction is skipped.
                        trace.program[ex_index] = Instruction(
                            Opcode.BEQ, rd=0, rs=0,
                            imm=1 if ifq_index is not None else 0,
                        )
                elif kind == "squash":
                    squashed = True

            # The split store's idle-cycle data write clears the pending
            # address exactly when the model clears st_pend.
            if not st_pend_after:
                pending_store_addr = None

            if advanced:
                mem_index, ex_index, ifq_index = ex_index, ifq_index, None
                if squashed:
                    ex_index = None  # the wrong-path slot never executes
            if fetched_index is not None:
                ifq_index = fetched_index
        return trace

    def _emit_instruction(
        self, trace: TestVectorTrace, klass_name: str, rng: random.Random
    ) -> None:
        trace.program.append(
            vector_instruction(_CLASS_BY_NAME[klass_name], rng, self.address_pool)
        )

    def _operand_address(self, trace: TestVectorTrace, index: int) -> Optional[int]:
        if index is None or index >= len(trace.program):
            return None
        instruction = trace.program[index]
        if instruction.opcode in (Opcode.LW, Opcode.SW):
            return instruction.imm
        return None

    def _realize_conflict(
        self,
        trace: TestVectorTrace,
        conflict: bool,
        mem_index: Optional[int],
        pending_store_addr: Optional[int],
        rng: random.Random,
    ) -> None:
        """Patch the in-flight load's address to make the abstract conflict
        choice come true (or stay false) in the RTL."""
        if mem_index is None or mem_index >= len(trace.program):
            return
        load = trace.program[mem_index]
        if load.opcode is not Opcode.LW:
            return
        if conflict:
            if pending_store_addr is not None:
                trace.program[mem_index] = Instruction(
                    Opcode.LW, rd=load.rd, rs=0, imm=pending_store_addr
                )
        else:
            if pending_store_addr is not None and load.imm == pending_store_addr:
                others = [a for a in self.address_pool if a != pending_store_addr]
                trace.program[mem_index] = Instruction(
                    Opcode.LW, rd=load.rd, rs=0, imm=rng.choice(others)
                )


class PPInstructionCost:
    """Instruction cost of traversing one arc: how many instructions the
    fetch on that transition contributes to the trace file (0 when the
    cycle fetches nothing -- stalls, refills, bubbles).

    Called with an :class:`Edge` (the Fig. 3.3 reference oracle calls it
    per traversal); :meth:`edge_costs` is the indexed generator's path,
    every arc at once from the graph's columns, read by edge index on
    every traversal after that.
    """

    def __init__(self, memo: TransitionEventMemo):
        self.memo = memo

    def __call__(self, edge: Edge) -> int:
        return self.memo.lookup(edge.src, edge.condition)[3]

    def edge_costs(self, graph: StateGraph) -> List[int]:
        lookup = self.memo.lookup
        conditions = graph.conditions
        return [
            lookup(src, conditions[cond])[3]
            for src, cond in zip(graph.edge_src, graph.edge_cond)
        ]


def pp_instruction_cost(
    model: PPControlModel,
    graph: StateGraph,
    memo: Optional[TransitionEventMemo] = None,
) -> PPInstructionCost:
    """The tour generators' cost function: instructions counted the way
    Table 3.3 does (see :class:`PPInstructionCost`).

    Pass the pipeline's shared :class:`TransitionEventMemo` so the
    transitions this replays are never recomputed by vector generation
    (the cost pass touches every arc, so afterwards the memo is fully
    warm).
    """
    if memo is None:
        memo = TransitionEventMemo(model, graph)
    return PPInstructionCost(memo)
