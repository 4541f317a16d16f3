"""The PP pipeline core: dual-issue, in-order, with the stall machine.

Five stages (IF, RD, EX, MEM, WB) over the units of Fig. 3.2.  The pipe
does not freeze globally: an I-stall starves the front end with bubbles
while the back end drains, which is what makes *simultaneous* I- and
D-side events (the paper's "multiple event" bug class) reachable.

Bug-injection hooks for all six Table 2.1 bugs live here and in the cache
units; each is guarded by a bug id in ``CoreConfig.bugs`` so a single
switch turns a correct design into each of the documented faulty ones.

Per-cycle cost.  Comparison simulation runs this loop for every generated
vector, so the cycle is kept free of work the model does not need:

- each distinct instruction word is decoded once per decode table, into
  a :class:`Predecoded` record (instruction, class, memory/branch flags,
  source and destination registers); a comparison run shares one table
  across all its cores, otherwise each core keeps a private one.  IF uses
  the program word's entry whenever the fetched word is the program word
  at that address, and looks up only what differs (Bug #1's corrupted
  I-line);
- trace events are formatted only when ``trace=True``;
- the memory controller hands back at most one word per cycle, and idle
  units (refill FSMs, memory port) are not ticked at all.

All of it is cycle-exact: the timing, stall counters, write log and event
stream are those of the straightforward formulation.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.pp.isa import (
    Instruction,
    InstructionClass,
    Opcode,
    R_FORMAT,
    WORD_MASK,
)
from repro.pp.rtl.dcache import DCache, DRefillState, SpillState
from repro.pp.rtl.icache import ICache, IRefillState
from repro.pp.rtl.inbox import Inbox
from repro.pp.rtl.memctrl import MemoryController, Requester, WordDelivery
from repro.pp.rtl.memory import LINE_WORDS, MainMemory, line_base
from repro.pp.rtl.outbox import Outbox
from repro.pp.rtl.regfile import RegisterFile
from repro.pp.rtl.stimulus import NaturalStimulus, StimulusSource

#: The bit pattern latched from a floating (high-impedance) bus -- what a
#: register receives when Bug #5's corrective rewrite never happens.
GARBAGE_Z = 0x5A5A5A5A
#: The value left in an unqualified latch that lost its data (Bug #2).
LOST_DATA = 0x00000000

BRANCH_OPCODES = (Opcode.BEQ, Opcode.BNE, Opcode.J)

# Enum members the per-cycle path compares against, bound once: a lookup
# through the Enum class costs about ten times a module global.
_ALU = InstructionClass.ALU
_LD = InstructionClass.LD
_SD = InstructionClass.SD
_SWITCH = InstructionClass.SWITCH
_SEND = InstructionClass.SEND
_I_IDLE = IRefillState.IDLE
_I_REQ = IRefillState.REQ
_I_FIXUP = IRefillState.FIXUP
_D_IDLE = DRefillState.IDLE
_SPILL_EMPTY = SpillState.EMPTY
_ICACHE = Requester.ICACHE
_DCACHE = Requester.DCACHE


class DeadlockError(RuntimeError):
    """The core did not halt within its cycle budget (suspected deadlock).

    Every other ``RuntimeError`` out of the simulator is a broken unit
    invariant, not a hang; the comparison harness reports the two apart.
    """


@dataclass
class CoreConfig:
    """Static configuration of the core (and which bugs are injected)."""

    dual_issue: bool = True
    icache_sets: int = 8
    dcache_sets: int = 4
    mem_latency: int = 2
    text_base: int = 0x0010_0000
    #: Squashing branches (the paper's section 4 extension): fetch
    #: continues down the fall-through path and a taken branch squashes
    #: the wrongly fetched instructions at resolution.  When off, fetch
    #: simply waits for the branch to resolve (no speculation).
    squashing_branches: bool = False
    bugs: frozenset = frozenset()

    def with_bugs(self, *bug_ids: int) -> "CoreConfig":
        return dataclasses.replace(self, bugs=frozenset(self.bugs) | frozenset(bug_ids))


@dataclass(frozen=True)
class TraceEvent:
    """One entry of the cycle-level event trace (used by the Bug #5
    timing-diagram benchmark and by debugging)."""

    cycle: int
    name: str
    detail: str = ""


class Predecoded(NamedTuple):
    """What the pipeline needs to know about one instruction word, decoded
    once: the field order is the :class:`MicroOp` slot order it fills."""

    instr: Instruction
    klass: InstructionClass
    is_mem: bool
    is_branch: bool
    #: Registers read that can take a RAW hazard.
    sources: Tuple[int, ...]
    #: Register written at WB (``None`` for stores, sends, branches, nops).
    dest: Optional[int]


#: Opcodes that read no register, whatever their class.
_NO_SOURCE_OPCODES = frozenset({Opcode.NOP, Opcode.LUI, Opcode.J})
_COMPARE_BRANCHES = frozenset({Opcode.BEQ, Opcode.BNE})


def _sources(ins: Instruction, klass: InstructionClass) -> Tuple[int, ...]:
    op = ins.opcode
    if op in _NO_SOURCE_OPCODES or klass is _SWITCH:
        return ()
    if klass is _SEND:
        return (ins.rd,)
    if klass is _SD or op in _COMPARE_BRANCHES:
        return (ins.rs, ins.rd)
    if op in R_FORMAT:
        return (ins.rs, ins.rt)
    return (ins.rs,)


def _dest(ins: Instruction, klass: InstructionClass) -> Optional[int]:
    if ins.is_nop() or klass is _SD or klass is _SEND or ins.opcode in BRANCH_OPCODES:
        return None
    return ins.rd


def predecode(word: int) -> Predecoded:
    """Decode ``word`` as the hardware does -- unknown encodings execute as
    no-ops (there are no illegal-instruction exceptions in the PP)."""
    try:
        ins = Instruction.decode(word)
    except ValueError:
        ins = Instruction(Opcode.NOP)
    klass = ins.klass
    return Predecoded(
        ins, klass, klass is _LD or klass is _SD, ins.opcode in BRANCH_OPCODES,
        _sources(ins, klass), _dest(ins, klass),
    )


def _decode_into(table: Dict[int, Predecoded], word: int) -> Predecoded:
    """:func:`predecode` ``word`` and remember it in ``table``."""
    decoded = table[word] = predecode(word)
    return decoded


class MicroOp:
    """One instruction in flight: its predecoded facts plus the operand
    and result latches the stages fill in."""

    __slots__ = (
        "instr", "klass", "is_mem", "is_branch", "sources", "dest",
        "pc", "src1", "src2", "store_val", "addr", "result", "writes_reg",
    )

    def __init__(self, decoded: Predecoded, pc: int):
        (self.instr, self.klass, self.is_mem, self.is_branch,
         self.sources, self.dest) = decoded
        self.pc = pc
        self.src1 = 0          # regs[rs]
        self.src2 = 0          # regs[rt]
        self.store_val = 0     # regs[rd] for SW / SEND
        self.addr = 0          # effective address (EX)
        self.result: Optional[int] = None
        self.writes_reg: Optional[int] = None  # set at RD


Bundle = List[MicroOp]


def _pair_ok(first: Predecoded, second: Predecoded) -> bool:
    """Static dual-issue pairing: slot B must be a non-branch ALU op,
    independent of slot A."""
    if second.klass is not _ALU or second.is_branch:
        return False
    first_dest = first.dest
    if first_dest:  # not None and not r0
        if first_dest in second.sources or second.dest == first_dest:
            return False
    return True


class PPCore:
    """Cycle-accurate PP model.

    Parameters
    ----------
    program:
        Instruction sequence, loaded at ``config.text_base``.
    config:
        Core configuration, including the injected-bug set.
    stimulus:
        Per-event forcing source (vector replay, random, or natural).
    inbox_tasks:
        Task words the Inbox supplies to ``switch``.
    trace:
        When true, record :class:`TraceEvent` entries in ``self.events``.
    decode_table:
        ``{word: Predecoded}`` shared with other cores (decoding is
        independent of the configuration); words this core decodes are
        added to it.  ``None`` gives the core a private table.
    """

    def __init__(
        self,
        program: Sequence[Instruction],
        config: Optional[CoreConfig] = None,
        stimulus: Optional[StimulusSource] = None,
        inbox_tasks: Optional[Sequence[int]] = None,
        trace: bool = False,
        decode_table: Optional[Dict[int, Predecoded]] = None,
    ):
        self.config = config or CoreConfig()
        self.stimulus = stimulus or NaturalStimulus()
        self.program = list(program)
        self.memory = MainMemory()
        text_base = self.config.text_base
        self._text = [ins.encode() for ins in self.program]
        self.memory.load_program(text_base, self._text)
        # One entry per program word, used while the fetched word still
        # equals it.
        self._decode_table = table = {} if decode_table is None else decode_table
        self._predecoded = [
            table.get(word) or _decode_into(table, word) for word in self._text
        ]
        # Whether the instruction at each pc may take a slot-B partner: dual
        # issue on, a next instruction exists and shares the fetch line.
        count = len(self._text)
        self._pairable = [
            self.config.dual_issue
            and pc + 1 < count
            and line_base(text_base + 4 * pc + 4) == line_base(text_base + 4 * pc)
            for pc in range(count)
        ]
        self.memctrl = MemoryController(self.memory, latency=self.config.mem_latency)
        self.icache = ICache(self.memory, self.memctrl, num_sets=self.config.icache_sets)
        self.dcache = DCache(self.memory, self.memctrl, num_sets=self.config.dcache_sets)
        self.regfile = RegisterFile()
        self.inbox = Inbox(inbox_tasks)
        self.outbox = Outbox()

        self.pc = 0
        self.cycle = 0
        self.retired = 0
        self.rd_bundle: Optional[Bundle] = None
        self.ex_bundle: Optional[Bundle] = None
        self.mem_bundle: Optional[Bundle] = None
        self.wb_bundle: Optional[Bundle] = None

        # Stall bookkeeping (control signals + statistics).
        self.external_stall = False   # switch/send waiting on Inbox/Outbox
        self._external_stall_prev = False
        self.stall_cycles: Dict[str, int] = {
            "istall": 0, "dstall": 0, "conflict": 0, "external": 0,
            "raw": 0, "structural": 0,
        }
        self._conflict_drained_this_cycle = False

        # In-flight refill ownership: (pc, addr) of the load/store whose
        # miss started the current D-refill.
        self._load_wait: Optional[Tuple[int, int]] = None
        self._store_wait: Optional[Tuple[int, int]] = None
        self._branch_pending = False

        # Bug state.
        bugs = self.config.bugs
        self._bug1, self._bug2, self._bug3, self._bug4, self._bug5, self._bug6 = (
            bug in bugs for bug in range(1, 7)
        )
        self._bug5_watch: Optional[Dict] = None
        self._bug4_drop_fetch = False
        self._bug1_foreign_words: Optional[List[int]] = None

        self._trace_enabled = trace
        self.events: List[TraceEvent] = []

    # -- helpers ------------------------------------------------------------

    def _trace(self, name: str, detail: str = "") -> None:
        """Record an event; call sites test ``_trace_enabled`` first, so
        the detail string is never formatted when tracing is off."""
        self.events.append(TraceEvent(self.cycle, name, detail))

    @property
    def istall(self) -> bool:
        return self.icache.stalling

    @property
    def halted(self) -> bool:
        return self.pc >= len(self._text) and self._drained()

    def _drained(self) -> bool:
        """Nothing in flight: pipe empty, refill FSMs, spill buffer, split
        store and memory port all idle."""
        return (
            self.rd_bundle is None
            and self.ex_bundle is None
            and self.mem_bundle is None
            and self.wb_bundle is None
            and not self.icache.stalling
            and not self.dcache.busy
            and self.dcache.pending_store is None
            and not self.memctrl.busy
        )

    # -- top-level run loop -----------------------------------------------------

    def step(self) -> None:
        """Advance the whole machine one clock cycle."""
        self._conflict_drained_this_cycle = False
        icache = self.icache
        dcache = self.dcache
        memctrl = self.memctrl

        # Unit clocks first: refill FSMs issue requests, the memory
        # controller makes progress and returns a word delivery.  A unit
        # with nothing to do this cycle is not ticked.
        if icache.state is _I_REQ:
            icache.tick()
        if dcache.refill_state is not _D_IDLE or dcache.spill_state is not _SPILL_EMPTY:
            dcache.tick()  # DCache.busy, read without the property call
        d_critical: Optional[int] = None
        d_fill_done = False
        if memctrl.busy:
            memctrl.pace_override = self.stimulus.mem_pace()
            delivery = memctrl.tick()
            if delivery is not None:
                d_critical, d_fill_done = self._deliver(delivery)
        else:
            memctrl.pace_override = None

        # Bug #5 window: external stalls during the rest-of-line fill decide
        # whether the corrective Membus rewrite happens.
        if self._bug5_watch is not None and self._external_stall_prev:
            self._bug5_watch["stall_seen"] = True
            if self._trace_enabled:
                self._trace("bug5_stall_in_window")

        if self.wb_bundle is not None:
            self._stage_wb()
        self._stage_mem(d_critical)
        if d_fill_done and self._bug5_watch is not None:
            self._finish_bug5_window()
        if self.ex_bundle is not None and self.mem_bundle is None:
            self._stage_ex()
        if self.rd_bundle is not None and self.ex_bundle is None:
            self._stage_rd()
        if self.rd_bundle is None or icache.state is _I_FIXUP:
            self._stage_if()

        self._external_stall_prev = self.external_stall
        if icache.state is not _I_IDLE:
            self.stall_cycles["istall"] += 1
        self.cycle += 1

    def _deliver(self, delivery: WordDelivery) -> Tuple[Optional[int], bool]:
        """Route this cycle's memory word; returns the D-side critical word
        (or ``None``) and whether a D-refill just completed."""
        icache = self.icache
        if delivery.requester is _ICACHE:
            icache.accept(delivery)
            if delivery.is_last and self._bug1_foreign_words is not None:
                # Bug #1: the unqualified interface signal already let a
                # D-side transfer clobber the I-line buffer; the wrong
                # words are installed.
                icache.corrupt_line_buffer(self._bug1_foreign_words)
                if self._trace_enabled:
                    self._trace("bug1_corrupt_iline")
                self._bug1_foreign_words = None
            return None, False
        # DCACHE or SPILL_WB.
        from_dcache = delivery.requester is _DCACHE
        if (
            self._bug1
            and from_dcache
            and icache.state in (IRefillState.REQ, IRefillState.FILL)
        ):
            foreign = self._bug1_foreign_words or [0] * LINE_WORDS
            foreign[delivery.word_offset] = delivery.value
            self._bug1_foreign_words = foreign
        critical = self.dcache.accept(delivery)
        return critical, from_dcache and delivery.is_last

    def run(self, max_cycles: int = 200_000) -> None:
        """Run until the program drains; raises :class:`DeadlockError` if
        it has not after ``max_cycles`` cycles."""
        # ``halted``, with the program length hoisted and the drain test
        # reached only once fetch has passed the last instruction.
        step = self.step
        count = len(self._text)
        while self.pc < count or not self._drained():
            if self.cycle >= max_cycles:
                raise DeadlockError(
                    f"PP did not halt within {max_cycles} cycles "
                    f"(pc={self.pc}, stalls={self.stall_cycles})"
                )
            step()

    # -- WB stage ---------------------------------------------------------------

    def _stage_wb(self) -> None:
        bundle = self.wb_bundle
        for uop in bundle:
            reg = uop.writes_reg
            result = uop.result
            if reg is not None and result is not None:
                self.regfile.write(reg, result)
                if self._trace_enabled:
                    self._trace("reg_write", f"r{reg}={result:#010x}")
        self.retired += len(bundle)
        self.wb_bundle = None

    # -- MEM stage -----------------------------------------------------------------

    def _stage_mem(self, d_critical: Optional[int]) -> None:
        self.external_stall = False
        bundle = self.mem_bundle
        if bundle is None:
            self._drain_store_if_idle()
            return
        lead = bundle[0]
        klass = lead.klass
        if klass is _LD:
            done = self._mem_load(lead, d_critical)
        elif klass is _SD:
            done = self._mem_store(lead)
        elif klass is _SWITCH:
            done = self._mem_switch(lead)
        elif klass is _SEND:
            done = self._mem_send(lead)
        else:
            done = True  # ALU / branch bundles spend one cycle here
            self._drain_store_if_idle()
        if done:
            self.wb_bundle = bundle
            self.mem_bundle = None

    def _drain_store_if_idle(self) -> None:
        """The split store's data-write happens on a cache-idle cycle."""
        if (
            self.dcache.pending_store is not None
            and self.dcache.refill_state is _D_IDLE
            and not self._conflict_drained_this_cycle
        ):
            self.dcache.drain_pending_store()
            if self._trace_enabled:
                self._trace("store_drain")

    def _mem_load(self, uop: MicroOp, d_critical: Optional[int]) -> bool:
        # A refill for this load is already in flight: wait for the
        # critical word (critical-word-first restart).
        if self._load_wait == (uop.pc, uop.addr):
            if d_critical is not None:
                self._load_wait = None
                return self._load_restart(uop, d_critical)
            self.stall_cycles["dstall"] += 1
            return False
        # Conflict stall: load to the pending store's line must wait for
        # the store's data write.
        if self.dcache.conflicts_with_pending(uop.addr):
            return self._conflict_stall_load(uop)
        # The previous refill's tail or write-back still owns the arrays.
        if self.dcache.busy:
            self.stall_cycles["structural"] += 1
            return False
        hit = self.dcache.probe(uop.addr, self.stimulus.dcache_hit())
        if hit:
            uop.result = self.dcache.read_hit(uop.addr)
            if self._trace_enabled:
                self._trace("load_hit", f"addr={uop.addr:#x}")
            return True
        # Miss: drain any pending store first so the victim spill cannot
        # overtake it, then start the fill-before-spill refill.
        self.dcache.drain_pending_store()
        self.dcache.start_refill(
            uop.addr, for_store=False, force_dirty_victim=self.stimulus.victim_dirty()
        )
        self._load_wait = (uop.pc, uop.addr)
        if self._trace_enabled:
            self._trace("load_miss", f"addr={uop.addr:#x}")
        self.stall_cycles["dstall"] += 1
        return False

    def _load_restart(self, uop: MicroOp, value: int) -> bool:
        """Critical word arrived: restart the stalled load."""
        if self._trace_enabled:
            self._trace("membus_drive", f"data={value:#010x}")
        if self._bug2 and self.istall:
            # Bug #2: the return-data latch is not qualified on I-Stall; by
            # the time the I-miss is serviced the data is gone.
            value = LOST_DATA
            if self._trace_enabled:
                self._trace("bug2_latch_lost")
        uop.result = value
        if self._bug5 and self._follower_load_store_present():
            # Bug #5: a following load/store glitches Membus-valid after the
            # critical word; the corrective rewrite happens at fill end
            # unless an external stall lands in the window.
            if self._trace_enabled:
                self._trace("membus_glitch")
            self._bug5_watch = {
                "reg": uop.writes_reg,
                "good": value,
                "stall_seen": False,
            }
        return True

    def _follower_load_store_present(self) -> bool:
        for bundle in (self.ex_bundle, self.rd_bundle):
            if bundle and any(u.is_mem for u in bundle):
                return True
        return False

    def _finish_bug5_window(self) -> None:
        watch = self._bug5_watch
        self._bug5_watch = None
        if watch is None or watch["reg"] is None:
            return
        if watch["stall_seen"] or self.external_stall:
            # The external stall suppressed the second Membus drive: the
            # glitch-latched garbage stays in the register file.
            self.regfile.write(watch["reg"], GARBAGE_Z)
            if self._trace_enabled:
                self._trace("bug5_garbage_latched", f"r{watch['reg']}")
        else:
            # Data rewritten, glitch masked (Fig. 2.2): the register ends
            # up holding the same value, so nothing architectural happens --
            # only a performance bug, invisible to result comparison.
            if self._trace_enabled:
                self._trace("membus_redrive_masked")

    def _conflict_stall_load(self, uop: MicroOp) -> bool:
        self.stall_cycles["conflict"] += 1
        self._conflict_drained_this_cycle = True
        if self._trace_enabled:
            self._trace("conflict_stall", f"addr={uop.addr:#x}")
        if self._bug3:
            follower = self._follower_mem_addr()
            if follower is not None:
                # Bug #3: the stalled load's address register is not held
                # during the conflict stall; the follower's address wins.
                uop.addr = follower
                if self._trace_enabled:
                    self._trace("bug3_addr_clobbered", f"addr={follower:#x}")
        if self._bug6 and self.istall:
            # Bug #6: with a simultaneous I-stall the load reads the stale
            # word instead of waiting for the store's data write.
            stale = self.dcache.read_hit(uop.addr)
            self.dcache.drain_pending_store()
            uop.result = stale
            if self._trace_enabled:
                self._trace("bug6_stale_load", f"addr={uop.addr:#x}")
            return True
        self.dcache.drain_pending_store()
        return False  # the load retries (and normally hits) next cycle

    def _follower_mem_addr(self) -> Optional[int]:
        if self.ex_bundle:
            for u in self.ex_bundle:
                if u.is_mem:
                    # EX computes the address this cycle; mirror it here.
                    return (u.src1 + u.instr.imm) & WORD_MASK
        return None

    def _mem_store(self, uop: MicroOp) -> bool:
        # A refill this store's own miss started: wait for the line, then
        # post the (split) store's data write.
        if self._store_wait == (uop.pc, uop.addr):
            if self.dcache.refill_state is _D_IDLE:
                self._store_wait = None
                self.dcache.post_store(uop.addr, uop.store_val)
                if self._trace_enabled:
                    self._trace("store_posted_after_refill", f"addr={uop.addr:#x}")
                return True
            self.stall_cycles["dstall"] += 1
            return False
        # Second store while one is pending: conflict stall to drain.
        if self.dcache.pending_store is not None:
            self.stall_cycles["conflict"] += 1
            self._conflict_drained_this_cycle = True
            self.dcache.drain_pending_store()
            if self._trace_enabled:
                self._trace("conflict_stall_store")
            return False
        # Someone else's refill tail or write-back owns the arrays.
        if self.dcache.busy:
            self.stall_cycles["structural"] += 1
            return False
        hit = self.dcache.probe(uop.addr, self.stimulus.dcache_hit())
        if hit:
            # Split store: tag probe now, data write on a later idle cycle.
            self.dcache.post_store(uop.addr, uop.store_val)
            if self._trace_enabled:
                self._trace("store_probe_hit", f"addr={uop.addr:#x}")
            return True
        self.dcache.start_refill(
            uop.addr, for_store=True, force_dirty_victim=self.stimulus.victim_dirty()
        )
        self._store_wait = (uop.pc, uop.addr)
        if self._trace_enabled:
            self._trace("store_miss", f"addr={uop.addr:#x}")
        self.stall_cycles["dstall"] += 1
        return False

    def _mem_switch(self, uop: MicroOp) -> bool:
        forced = self.stimulus.inbox_ready()
        self.inbox.ready_override = forced
        if self.inbox.ready():
            uop.result = self.inbox.take_task()
            if self._trace_enabled:
                self._trace("switch_taken", f"task={uop.result:#x}")
            return True
        self.external_stall = True
        self.stall_cycles["external"] += 1
        if self._trace_enabled:
            self._trace("external_stall", "inbox")
        return False

    def _mem_send(self, uop: MicroOp) -> bool:
        forced = self.stimulus.outbox_ready()
        self.outbox.ready_override = forced
        if self.outbox.ready():
            self.outbox.accept(uop.store_val)
            if self._trace_enabled:
                self._trace("send_accepted", f"word={uop.store_val:#x}")
            return True
        self.external_stall = True
        self.stall_cycles["external"] += 1
        if self._trace_enabled:
            self._trace("external_stall", "outbox")
        return False

    # -- EX stage ---------------------------------------------------------------

    def _stage_ex(self) -> None:
        """EX -> MEM; the caller has checked EX is full and MEM is empty."""
        bundle = self.ex_bundle
        branch = None
        for uop in bundle:
            if uop.is_branch:
                if branch is None:
                    branch = uop
            else:
                self._execute(uop)
        if branch is not None:
            self._resolve_branch(branch)
        self.mem_bundle = bundle
        self.ex_bundle = None

    @staticmethod
    def _execute(uop: MicroOp) -> None:
        """Compute a non-branch instruction's address or ALU result."""
        ins = uop.instr
        if uop.is_mem:
            uop.addr = (uop.src1 + ins.imm) & WORD_MASK
            return
        alu = _ALU_OPS.get(ins.opcode)
        if alu is not None:  # NOP, switch and send compute nothing here
            uop.result = alu(uop.src1, uop.src2, ins.imm)

    def _resolve_branch(self, uop: MicroOp) -> None:
        ins = uop.instr
        taken = False
        target = 0
        if ins.opcode is Opcode.BEQ:
            taken = uop.src1 == uop.store_val
            target = uop.pc + 1 + ins.imm
        elif ins.opcode is Opcode.BNE:
            taken = uop.src1 != uop.store_val
            target = uop.pc + 1 + ins.imm
        elif ins.opcode is Opcode.J:
            taken = True
            target = ins.imm
        if taken:
            self.pc = target
            if self._trace_enabled:
                self._trace("branch_taken", f"target={target}")
            if self.config.squashing_branches and self.rd_bundle is not None:
                # Squash the fall-through instructions fetched behind the
                # branch; fetch resumes from the target this same cycle.
                if self._trace_enabled:
                    self._trace(
                        "branch_squash",
                        f"pc={self.rd_bundle[0].pc} x{len(self.rd_bundle)}",
                    )
                self.rd_bundle = None
        self._branch_pending = False

    # -- RD stage -------------------------------------------------------------

    def _stage_rd(self) -> None:
        """RD -> EX; the caller has checked RD is full and EX is empty."""
        bundle = self.rd_bundle
        # RAW interlock against the writers still ahead in MEM and WB (EX
        # is empty: RD only ever advances into an empty EX).
        pending = None
        for ahead in (self.mem_bundle, self.wb_bundle):
            if ahead:
                for u in ahead:
                    if u.writes_reg:  # not None and not r0
                        if pending is None:
                            pending = {u.writes_reg}
                        else:
                            pending.add(u.writes_reg)
        if pending is not None:
            for uop in bundle:
                for src in uop.sources:
                    if src in pending:
                        self.stall_cycles["raw"] += 1
                        return
        read = self.regfile.read
        for uop in bundle:
            ins = uop.instr
            uop.src1 = read(ins.rs)
            uop.src2 = read(ins.rt)
            uop.store_val = read(ins.rd)
            uop.writes_reg = uop.dest
        self.ex_bundle = bundle
        self.rd_bundle = None

    # -- IF stage ---------------------------------------------------------------

    def _stage_if(self) -> None:
        icache = self.icache
        state = icache.state
        if state is not _I_IDLE:
            if state is _I_FIXUP:
                # The fix-up cycle restores the instruction registers.
                icache.finish_fixup()
                if self._bug4 and self.external_stall:
                    # Bug #4: the fix-up is not qualified on MemStall; the
                    # restored fetch is lost.
                    self._bug4_drop_fetch = True
                    if self._trace_enabled:
                        self._trace("bug4_fixup_lost")
            return
        pc = self.pc
        if self.rd_bundle is not None or self._branch_pending or pc >= len(self._text):
            return  # RD full; no speculation past a branch; program done
        address = self.config.text_base + 4 * pc
        word = icache.lookup(address, self.stimulus.fetch_hit())
        if word is None:
            icache.begin_refill(address)
            if self._trace_enabled:
                self._trace("istall", f"pc={pc}")
            return
        first = self._fetched(pc, word)
        bundle = [MicroOp(first, pc)]
        self.pc = pc + 1
        if self._pairable[pc] and not first.is_branch:
            second_word = icache.lookup(address + 4, True)
            second = self._fetched(pc + 1, second_word if second_word is not None else 0)
            if _pair_ok(first, second):
                bundle.append(MicroOp(second, pc + 1))
                self.pc = pc + 2
        if self._bug4_drop_fetch:
            # The lost fix-up dropped these instruction registers.
            self._bug4_drop_fetch = False
            if self._trace_enabled:
                self._trace("bug4_instrs_dropped", f"pc={pc}")
            return
        # Slot B is never a branch, so the bundle holds one iff slot A is.
        if first.is_branch and not self.config.squashing_branches:
            self._branch_pending = True
        self.rd_bundle = bundle
        if self._trace_enabled:
            self._trace("fetch", f"pc={pc} x{len(bundle)}")

    def _fetched(self, pc: int, word: int) -> Predecoded:
        """The decoded form of ``word``, fetched for ``pc``: the predecoded
        program entry unless the word differs from the program's."""
        if word == self._text[pc]:
            return self._predecoded[pc]
        return self._decode_table.get(word) or _decode_into(self._decode_table, word)

    # -- architectural extraction ---------------------------------------------------

    def architectural_state(self):
        """Registers + flushed memory + outbox, for spec comparison.

        Only data addresses below ``text_base`` are included (the program
        text is not architectural data)."""
        from repro.pp.spec import ArchState

        self.dcache.flush_all()
        memory = {
            a: v
            for a, v in self.memory.as_dict().items()
            if a < self.config.text_base
        }
        return ArchState(
            regs=self.regfile.snapshot(),
            memory=memory,
            outbox=list(self.outbox.messages),
            pc=self.pc,
            instructions_retired=self.retired,
        )


def _signed(value: int) -> int:
    value &= WORD_MASK
    return value - (1 << 32) if value >= (1 << 31) else value


#: EX-stage semantics of each ALU opcode: ``(regs[rs], regs[rt], imm) -> result``.
_ALU_OPS = {
    Opcode.ADD: lambda a, b, imm: (a + b) & WORD_MASK,
    Opcode.SUB: lambda a, b, imm: (a - b) & WORD_MASK,
    Opcode.AND: lambda a, b, imm: a & b,
    Opcode.OR: lambda a, b, imm: a | b,
    Opcode.XOR: lambda a, b, imm: a ^ b,
    Opcode.SLL: lambda a, b, imm: (a << (b & 31)) & WORD_MASK,
    Opcode.SRL: lambda a, b, imm: (a & WORD_MASK) >> (b & 31),
    Opcode.SLT: lambda a, b, imm: int(_signed(a) < _signed(b)),
    Opcode.ADDI: lambda a, b, imm: (a + imm) & WORD_MASK,
    Opcode.ANDI: lambda a, b, imm: a & (imm & 0xFFFF),
    Opcode.ORI: lambda a, b, imm: a | (imm & 0xFFFF),
    Opcode.XORI: lambda a, b, imm: a ^ (imm & 0xFFFF),
    Opcode.LUI: lambda a, b, imm: ((imm & 0xFFFF) << 16) & WORD_MASK,
}
