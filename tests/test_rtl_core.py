"""Tests for the PP pipeline core: architectural correctness under every
stimulus strategy, stall behaviour, dual issue, and halting."""

import random

import pytest

from repro.pp.asm import assemble
from repro.pp.isa import Instruction, InstructionClass, Opcode, random_instruction
from repro.pp.rtl import (
    CoreConfig,
    DeadlockError,
    NaturalStimulus,
    PPCore,
    QueueStimulus,
    RandomStimulus,
)
from repro.pp.spec import SpecSimulator

INBOX = list(range(0x100, 0x140))


def run_both(source_or_program, stimulus=None, config=None, inbox=INBOX):
    program = (
        assemble(source_or_program)
        if isinstance(source_or_program, str)
        else source_or_program
    )
    core = PPCore(program, config or CoreConfig(), stimulus or NaturalStimulus(),
                  inbox_tasks=inbox)
    core.run()
    rtl = core.architectural_state()
    spec = SpecSimulator(inbox=inbox).run(program)
    return core, rtl, spec


class TestBasicExecution:
    def test_alu_program_matches_spec(self):
        _, rtl, spec = run_both(
            "addi r1, r0, 10\naddi r2, r0, 3\nadd r3, r1, r2\n"
            "sub r4, r1, r2\nslt r5, r2, r1"
        )
        assert spec.differences(rtl) == []
        assert rtl.regs[3] == 13

    def test_memory_program_matches_spec(self):
        _, rtl, spec = run_both(
            "addi r1, r0, 42\nsw r1, 0x40(r0)\nlw r2, 0x40(r0)\nadd r3, r2, r1"
        )
        assert spec.differences(rtl) == []
        assert rtl.regs[3] == 84

    def test_switch_send_match_spec(self):
        core, rtl, spec = run_both("switch r1\nsend r1\nswitch r2\nsend r2")
        assert spec.differences(rtl) == []
        assert rtl.outbox == [0x100, 0x101]

    def test_raw_hazard_interlock(self):
        _, rtl, spec = run_both("addi r1, r0, 5\nadd r2, r1, r1\nadd r3, r2, r2")
        assert rtl.regs[3] == 20
        assert spec.differences(rtl) == []

    def test_empty_program_halts(self):
        core = PPCore([], CoreConfig(), NaturalStimulus())
        core.run()
        assert core.halted
        assert core.retired == 0

    def test_retired_count(self):
        core, _, _ = run_both("nop\nnop\naddi r1, r0, 1")
        assert core.retired == 3

    def test_branches_resolve_without_speculation(self):
        program = assemble(
            """
            addi r1, r0, 2
            beq r1, r0, skip
            addi r2, r0, 7
            skip: addi r3, r0, 9
            """
        )
        core = PPCore(program, CoreConfig(), NaturalStimulus())
        core.run()
        rtl = core.architectural_state()
        assert rtl.regs[2] == 7  # branch not taken
        assert rtl.regs[3] == 9

    def test_taken_branch_skips(self):
        program = assemble(
            """
            beq r0, r0, skip
            addi r2, r0, 7
            skip: addi r3, r0, 9
            """
        )
        core = PPCore(program, CoreConfig(), NaturalStimulus())
        core.run()
        rtl = core.architectural_state()
        assert rtl.regs[2] == 0
        assert rtl.regs[3] == 9


class TestStallMachinery:
    def test_forced_dmiss_stalls_but_matches(self):
        stim = QueueStimulus(dcache_hits=[False])
        core, rtl, spec = run_both(
            "addi r1, r0, 3\nsw r1, 0x20(r0)\nnop\nnop\nlw r2, 0x20(r0)",
            stimulus=QueueStimulus(dcache_hits=[True, False]),
        )
        assert spec.differences(rtl) == []
        assert core.stall_cycles["dstall"] > 0

    def test_forced_imiss_stalls_but_matches(self):
        core, rtl, spec = run_both(
            "addi r1, r0, 1\naddi r2, r1, 1\naddi r3, r2, 1",
            stimulus=QueueStimulus(fetch_hits=[True, False, True, True]),
        )
        assert spec.differences(rtl) == []
        assert core.stall_cycles["istall"] > 0

    def test_conflict_stall_counted(self):
        core, rtl, spec = run_both(
            "addi r1, r0, 9\nsw r1, 0x10(r0)\nlw r2, 0x10(r0)",
            stimulus=QueueStimulus(dcache_hits=[True, True]),
        )
        assert spec.differences(rtl) == []
        assert core.stall_cycles["conflict"] > 0
        assert rtl.regs[2] == 9  # load sees the store's data

    def test_external_stall_inbox(self):
        core, rtl, spec = run_both(
            "switch r1\naddi r2, r1, 1",
            stimulus=QueueStimulus(inbox_ready=[False, False, True]),
        )
        assert spec.differences(rtl) == []
        assert core.stall_cycles["external"] >= 2

    def test_external_stall_outbox(self):
        core, rtl, spec = run_both(
            "addi r1, r0, 4\nsend r1",
            stimulus=QueueStimulus(outbox_ready=[False, True]),
        )
        assert spec.differences(rtl) == []
        assert rtl.outbox == [4]

    def test_simultaneous_i_and_d_miss(self):
        # The multiple-event scenario behind bugs 2: a load D-miss in MEM
        # while a later fetch I-misses.  Must still match the spec when no
        # bug is injected.
        core, rtl, spec = run_both(
            "addi r1, r0, 5\nsw r1, 0x30(r0)\nnop\nnop\n"
            "lw r2, 0x30(r0)\naddi r3, r2, 1\naddi r4, r3, 1",
            stimulus=QueueStimulus(
                dcache_hits=[True, False],
                fetch_hits=[True, True, True, True, True, False, True, True],
            ),
        )
        assert spec.differences(rtl) == []
        assert rtl.regs[2] == 5

    def test_deadlock_detection(self):
        core = PPCore(
            assemble("switch r1"),
            CoreConfig(),
            QueueStimulus(inbox_ready=[False] * 100_000),
        )
        with pytest.raises(DeadlockError, match="did not halt"):
            core.run(max_cycles=5_000)
        assert core.cycle == 5_000


class TestDualIssue:
    def test_dual_issue_faster_than_single(self):
        program = assemble("\n".join(
            f"addi r{1 + (i % 8)}, r0, {i}\nxor r{9 + (i % 8)}, r0, r0"
            for i in range(8)
        ))
        dual = PPCore(program, CoreConfig(dual_issue=True), NaturalStimulus())
        dual.run()
        single = PPCore(program, CoreConfig(dual_issue=False), NaturalStimulus())
        single.run()
        assert dual.cycle < single.cycle
        assert dual.architectural_state().regs == single.architectural_state().regs

    def test_dependent_pair_not_dual_issued(self):
        _, rtl, spec = run_both("addi r1, r0, 5\nadd r2, r1, r1")
        assert rtl.regs[2] == 10
        assert spec.differences(rtl) == []

    def test_mem_op_never_in_slot_b(self):
        _, rtl, spec = run_both(
            "addi r1, r0, 8\nsw r1, 0(r0)\nlw r2, 0(r0)\nadd r3, r2, r1"
        )
        assert spec.differences(rtl) == []


class TestRandomizedEquivalence:
    def test_random_programs_random_stimulus_match_spec(self):
        for seed in range(12):
            rng = random.Random(seed)
            program = []
            for _ in range(80):
                klass = rng.choice(list(InstructionClass))
                ins = random_instruction(klass, rng)
                if ins.opcode in (Opcode.LW, Opcode.SW):
                    ins = Instruction(
                        ins.opcode, rd=ins.rd, rs=0,
                        imm=rng.choice(range(0, 256, 16)),
                    )
                program.append(ins)
            stim = RandomStimulus(random.Random(seed + 500))
            core = PPCore(program, CoreConfig(), stim, inbox_tasks=INBOX)
            core.run()
            rtl = core.architectural_state()
            spec = SpecSimulator(inbox=INBOX).run(program)
            assert spec.differences(rtl) == [], f"seed {seed} diverged"

    def test_write_streams_match(self):
        for seed in (3, 4):
            rng = random.Random(seed)
            program = []
            for _ in range(60):
                klass = rng.choice(list(InstructionClass))
                ins = random_instruction(klass, rng)
                if ins.opcode in (Opcode.LW, Opcode.SW):
                    ins = Instruction(ins.opcode, rd=ins.rd, rs=0,
                                      imm=rng.choice(range(0, 128, 16)))
                program.append(ins)
            core = PPCore(program, CoreConfig(),
                          RandomStimulus(random.Random(seed)), inbox_tasks=INBOX)
            core.run()
            spec = SpecSimulator(inbox=INBOX)
            spec.run(program)
            assert core.regfile.write_log == spec.write_log


class TestTraceEvents:
    def test_trace_records_fetch_and_writes(self):
        core = PPCore(assemble("addi r1, r0, 1"), CoreConfig(),
                      NaturalStimulus(), trace=True)
        core.run()
        names = {e.name for e in core.events}
        assert "fetch" in names
        assert "reg_write" in names

    def test_trace_disabled_by_default(self):
        core = PPCore(assemble("addi r1, r0, 1"), CoreConfig(), NaturalStimulus())
        core.run()
        assert core.events == []
