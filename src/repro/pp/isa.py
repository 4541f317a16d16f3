"""PP instruction set: DLX-based RISC with MAGIC communication extensions.

Instructions are 32-bit words.  Three formats:

- R-format: ``opcode(6) rd(5) rs(5) rt(5) unused(11)``
- I-format: ``opcode(6) rd(5) rs(5) imm(16)`` (imm is signed)
- X-format: ``opcode(6) rd(5) rs(5) unused(16)`` (switch/send)

From the control logic's perspective, instructions collapse into the five
*instruction classes* of Table 3.1 -- the paper's key datapath abstraction.
Branches are not recoverable-exception control transfers in the PP; per the
paper's initial modeling they are folded into the ALU class (they only
matter to control via I-cache misses).  The BR opcodes exist in the ISA so
the squashing-branch extension (section 4 future work) has something to
classify once enabled.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

WORD_MASK = 0xFFFFFFFF
NUM_REGS = 32


class InstructionClass(enum.Enum):
    """The five control-relevant instruction classes of Table 3.1."""

    ALU = "ALU"
    LD = "LD"
    SD = "SD"
    SWITCH = "SWITCH"
    SEND = "SEND"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Table 3.1 verbatim: each class's effect on the control logic.
INSTRUCTION_CLASS_EFFECTS: Dict[InstructionClass, str] = {
    InstructionClass.ALU: (
        "Has no effect since there are no exceptions in the PP."
    ),
    InstructionClass.LD: (
        "Execution of a load can cause transitions in load/store FSMs."
    ),
    InstructionClass.SD: (
        "Execution of a store can cause transitions in load/store FSMs."
    ),
    InstructionClass.SWITCH: (
        "A switch instruction executed while the Inbox is not ready causes "
        "a pipeline stall."
    ),
    InstructionClass.SEND: (
        "A send instruction executed while the Outbox is not ready causes "
        "a pipeline stall."
    ),
}


class Opcode(enum.IntEnum):
    """Machine opcodes.  Values are the 6-bit opcode field."""

    NOP = 0
    ADD = 1
    SUB = 2
    AND = 3
    OR = 4
    XOR = 5
    SLL = 6
    SRL = 7
    SLT = 8
    ADDI = 9
    ANDI = 10
    ORI = 11
    XORI = 12
    LUI = 13
    LW = 16
    SW = 20
    SWITCH = 24
    SEND = 25
    BEQ = 28   # squashing branches: future-work extension
    BNE = 29
    J = 30


#: Opcodes taking register-register operands (R-format).
R_FORMAT = {Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR, Opcode.XOR,
            Opcode.SLL, Opcode.SRL, Opcode.SLT}
#: Opcodes taking an immediate (I-format).
I_FORMAT = {Opcode.ADDI, Opcode.ANDI, Opcode.ORI, Opcode.XORI, Opcode.LUI,
            Opcode.LW, Opcode.SW, Opcode.BEQ, Opcode.BNE, Opcode.J}
#: MAGIC communication opcodes (X-format).
X_FORMAT = {Opcode.SWITCH, Opcode.SEND}
#: Opcode for each defined value of the 6-bit opcode field.
_OPCODE_BY_BITS: Dict[int, Opcode] = {int(op): op for op in Opcode}

_CLASS_BY_OPCODE: Dict[Opcode, InstructionClass] = {
    Opcode.LW: InstructionClass.LD,
    Opcode.SW: InstructionClass.SD,
    Opcode.SWITCH: InstructionClass.SWITCH,
    Opcode.SEND: InstructionClass.SEND,
}

#: Opcodes belonging to each class (for biased-random vector fill).
OPCODES_BY_CLASS: Dict[InstructionClass, Tuple[Opcode, ...]] = {
    InstructionClass.ALU: (
        Opcode.NOP, Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR,
        Opcode.XOR, Opcode.SLL, Opcode.SRL, Opcode.SLT, Opcode.ADDI,
        Opcode.ANDI, Opcode.ORI, Opcode.XORI, Opcode.LUI,
    ),
    InstructionClass.LD: (Opcode.LW,),
    InstructionClass.SD: (Opcode.SW,),
    InstructionClass.SWITCH: (Opcode.SWITCH,),
    InstructionClass.SEND: (Opcode.SEND,),
}


def classify_opcode(opcode: Opcode, squashing_branches: bool = False) -> InstructionClass:
    """Map an opcode to its Table 3.1 control class.

    Branches fold into ALU until the squashing-branch extension is enabled
    (when enabled the caller gets a ValueError here as a reminder that the
    BR class is not part of the five-class abstraction).
    """
    klass = _CLASS_BY_OPCODE.get(opcode)
    if klass is not None:
        return klass
    if squashing_branches and opcode in (Opcode.BEQ, Opcode.BNE, Opcode.J):
        raise ValueError(
            "branch opcodes need the extended class set; "
            "use repro.pp.branches for the squashing-branch extension"
        )
    return InstructionClass.ALU


@dataclass(frozen=True)
class Instruction:
    """A decoded PP instruction."""

    opcode: Opcode
    rd: int = 0
    rs: int = 0
    rt: int = 0
    imm: int = 0

    def __post_init__(self):
        for name in ("rd", "rs", "rt"):
            value = getattr(self, name)
            if not 0 <= value < NUM_REGS:
                raise ValueError(f"register field {name}={value} out of range")
        if not -(1 << 15) <= self.imm < (1 << 15):
            raise ValueError(f"immediate {self.imm} does not fit in 16 bits")

    @property
    def klass(self) -> InstructionClass:
        return classify_opcode(self.opcode)

    def encode(self) -> int:
        """Pack into a 32-bit word."""
        word = (int(self.opcode) & 0x3F) << 26
        word |= (self.rd & 0x1F) << 21
        word |= (self.rs & 0x1F) << 16
        if self.opcode in R_FORMAT:
            word |= (self.rt & 0x1F) << 11
        else:
            word |= self.imm & 0xFFFF
        return word

    @classmethod
    def decode(cls, word: int) -> "Instruction":
        """Unpack a 32-bit word; raises ValueError on unknown opcodes."""
        opcode_bits = (word >> 26) & 0x3F
        opcode = _OPCODE_BY_BITS.get(opcode_bits)
        if opcode is None:
            raise ValueError(f"unknown opcode {opcode_bits} in word {word:#010x}")
        rd = (word >> 21) & 0x1F
        rs = (word >> 16) & 0x1F
        if opcode in R_FORMAT:
            return trusted_instruction(opcode, rd, rs, (word >> 11) & 0x1F, 0)
        imm = word & 0xFFFF
        if imm >= 1 << 15:
            imm -= 1 << 16
        return trusted_instruction(opcode, rd, rs, 0, imm)

    def is_nop(self) -> bool:
        return self.opcode is Opcode.NOP


NOP = Instruction(Opcode.NOP)

_new_instance = object.__new__
_set_field = object.__setattr__


def trusted_instruction(
    opcode: Opcode, rd: int, rs: int, rt: int, imm: int
) -> Instruction:
    """An :class:`Instruction` whose fields the caller guarantees in range.

    Skips the dataclass ``__init__`` and its range checks: for fields that
    are in range by construction (masked out of a word, drawn from a
    bounded range, read back from a packed real instruction).  The result
    is indistinguishable from ``Instruction(...)``: fields are set in
    declaration order, so it hashes, compares and pickles the same.
    """
    ins = _new_instance(Instruction)
    _set_field(ins, "opcode", opcode)
    _set_field(ins, "rd", rd)
    _set_field(ins, "rs", rs)
    _set_field(ins, "rt", rt)
    _set_field(ins, "imm", imm)
    return ins


def random_instruction(
    klass: InstructionClass,
    rng: random.Random,
    address_pool: Optional[List[int]] = None,
) -> Instruction:
    """Biased-random member of ``klass`` (the section 3.3 vector fill).

    The parts of a vector that do not impact control -- data values, the
    precise operation, register numbers -- are chosen randomly.  Memory
    operands draw their base/offset from ``address_pool`` when given so the
    harness can steer accesses toward interesting cache sets.
    """
    opcode = rng.choice(OPCODES_BY_CLASS[klass])
    rd = rng.randrange(1, NUM_REGS)
    rs = rng.randrange(0, NUM_REGS)
    if opcode in R_FORMAT:
        return trusted_instruction(opcode, rd, rs, rng.randrange(0, NUM_REGS), 0)
    if opcode in X_FORMAT:
        return trusted_instruction(opcode, rd, rs, 0, 0)
    if opcode in (Opcode.LW, Opcode.SW):
        if address_pool:
            # Caller-supplied: the range check stays.
            return Instruction(opcode, rd=rd, rs=0, imm=rng.choice(address_pool))
        offset = rng.randrange(0, 1 << 8) & ~0x3  # word-aligned
        return trusted_instruction(opcode, rd, 0, 0, offset)
    return trusted_instruction(opcode, rd, rs, 0, rng.randrange(-(1 << 15), 1 << 15))
