"""Squashing branches: the paper's section 4 extension, implemented.

"The next stage will be modeling squashing branches.  This entails adding
new instruction classes and an abstract model of the branch outcome
determination."

This module does exactly that on top of the base control model:

- a sixth instruction class, **BR**, joins the abstract pipeline
  registers and the fetch-class choice;
- the *branch outcome determination* is abstracted to a nondeterministic
  ``branch_taken`` choice, active when a branch resolves in EX;
- a taken branch squashes the fall-through instruction sitting in the
  fetch queue (the PP's squashing-branch semantics -- no prediction state,
  just kill-on-taken).

The matching RTL behaviour is ``CoreConfig(squashing_branches=True)``.
Vectors come from the base generator's one arc loop,
:meth:`~repro.vectors.generator.VectorGenerator._trace_from_tour`, which
reads each arc's events from the shared transition memo like every other
trace: :class:`BranchVectorGenerator` only emits a placeholder
``bne r0, r0, +1`` (not taken) for a BR fetch, and the loop's
``branch_resolved`` arm patches a taken branch to ``beq r0, r0, +1``
(skipping exactly the squashed slot).
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from typing import Dict, List, Optional, Tuple

from repro.pp.fsm_model import PIPE_CLASSES, PPControlModel, PPModelConfig
from repro.pp.isa import Instruction, Opcode
from repro.smurphi import BoolType, ChoicePoint, EnumType, StateVar
from repro.vectors.generator import TestVectorTrace, VectorGenerator

BR_PIPE_CLASSES = PIPE_CLASSES + ("BR",)
BR_FETCH_CLASSES = ("ALU", "LD", "SD", "SWITCH", "SEND", "BR")


class _FetchAsALU(Mapping):
    """A choice whose ``fetch_class`` reads as ALU, without copying it: a
    copy reads every choice, which defeats the compiled kernel's
    read-set elision."""

    def __init__(self, choice: Mapping):
        self._choice = choice

    def __getitem__(self, name):
        return "ALU" if name == "fetch_class" else self._choice[name]

    def __iter__(self):
        return iter(self._choice)

    def __len__(self) -> int:
        return len(self._choice)


class BranchPPControlModel(PPControlModel):
    """The PP control model with the BR class and branch-outcome choice."""

    def __init__(self, config: Optional[PPModelConfig] = None):
        super().__init__(config)
        pipe = EnumType("pipe_class_br", BR_PIPE_CLASSES)
        self.state_vars = [
            StateVar(var.name, pipe, var.reset)
            if var.name in ("ifq", "ex", "mem") or var.name.startswith("wb")
            else var
            for var in self.state_vars
        ]
        self.choices = [
            ChoicePoint(
                "fetch_class",
                EnumType("fetch_class_br", BR_FETCH_CLASSES),
                guard=lambda s: s["irefill"] == "IDLE",
            )
            if point.name == "fetch_class"
            else point
            for point in self.choices
        ]
        self.choices.append(
            ChoicePoint(
                "branch_taken", BoolType(), guard=lambda s: s["ex"] == "BR"
            )
        )
        self.choice_names = [c.name for c in self.choices]

    def _step(self, state: Mapping, c: Mapping) -> Tuple[Dict, List[Tuple]]:
        # A branch looks like an ALU op to the memory system and stall
        # machine; run the base step on the collapsed view, then put the
        # BR class back and apply the squash.
        collapsed_state = {
            k: ("ALU" if v == "BR" else v) if isinstance(v, str) else v
            for k, v in state.items()
        }
        collapsed_choice = _FetchAsALU(c) if c["fetch_class"] == "BR" else c
        ns, events = super()._step(collapsed_state, collapsed_choice)
        if c["fetch_class"] == "BR":
            # The base step reported the collapsed class; restore BR so the
            # vector generator emits a real branch instruction.
            events = [
                ("fetch", "BR", e[2], e[3]) if e[0] == "fetch" else e
                for e in events
            ]

        advanced = any(e[0] == "pipe_advance" for e in events)
        fetched_hit = any(e[0] == "fetch" and e[2] for e in events)

        # Re-distinguish BR through the pipe along the same movements the
        # collapsed model made.
        if advanced:
            ns["mem"] = state["ex"]
            ns["ex"] = state["ifq"]
            new_ifq = "BUBBLE"
        else:
            for name in ("mem", "ex"):
                ns[name] = state[name]
            new_ifq = state["ifq"]
        for i in range(self.config.extra_pipe_stages):
            ns[f"wb{i}"] = (state["mem"] if advanced else "BUBBLE") if i == 0 else (
                state[f"wb{i - 1}"]
            )
        if fetched_hit:
            new_ifq = c["fetch_class"]
        ns["ifq"] = new_ifq

        # Branch resolution: active when a BR advances out of EX.
        if state["ex"] == "BR" and advanced:
            events.append(("branch_resolved", bool(c["branch_taken"])))
            if c["branch_taken"]:
                # Squash the fall-through instruction that followed the
                # branch into the pipe.
                ns["ex"] = "BUBBLE"
                events.append(("squash",))
        return ns, events


class BranchVectorGenerator(VectorGenerator):
    """Vector generation for the branch-extended model.

    Branch fetches emit a placeholder not-taken branch; when the tour's
    ``branch_resolved`` event fires, the in-flight branch is patched to a
    ``beq r0, r0, +1`` (always taken, skipping exactly the slot the
    squash killed) or left as ``bne r0, r0, +1`` (never taken).
    """

    def _emit_instruction(
        self, trace: TestVectorTrace, klass_name: str, rng: random.Random
    ) -> None:
        if klass_name == "BR":
            # Draws nothing from rng: the shared arc loop patches the
            # outcome in when the branch resolves.
            trace.program.append(Instruction(Opcode.BNE, rd=0, rs=0, imm=1))
        else:
            super()._emit_instruction(trace, klass_name, rng)
