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

The matching RTL behaviour is ``CoreConfig(squashing_branches=True)``, and
:class:`BranchVectorGenerator` realizes the abstract outcome with real
branch instructions: ``beq r0, r0, +1`` for taken (skipping exactly the
squashed slot), ``bne r0, r0, +1`` for not-taken.
"""

from __future__ import annotations

import random
from typing import Dict, List, Mapping, Optional, Tuple

from repro.pp.fsm_model import PIPE_CLASSES, PPControlModel, PPModelConfig
from repro.pp.isa import Instruction, Opcode
from repro.smurphi import BoolType, ChoicePoint, EnumType, StateVar
from repro.vectors.generator import TestVectorTrace, VectorGenerator

BR_PIPE_CLASSES = PIPE_CLASSES + ("BR",)
BR_FETCH_CLASSES = ("ALU", "LD", "SD", "SWITCH", "SEND", "BR")


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
        collapsed_choice = dict(c)
        if c["fetch_class"] == "BR":
            collapsed_choice["fetch_class"] = "ALU"
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

    def _trace_from_tour(self, tour, rng: random.Random) -> TestVectorTrace:
        trace = TestVectorTrace(edges_traversed=len(tour.edge_indices))
        ifq_index: Optional[int] = None
        ex_index: Optional[int] = None
        mem_index: Optional[int] = None
        pending_store_addr: Optional[int] = None

        for edge_index in tour.edge_indices:
            edge = self.graph.edge(edge_index)
            state = self.memo.codec.unpack(self.graph.state_key(edge.src))
            choice = dict(zip(self.model.choice_names, edge.condition))
            events = self.model.transition_events(state, choice)
            advanced = any(e[0] == "pipe_advance" for e in events)
            squashed = any(e[0] == "squash" for e in events)
            fetched_index: Optional[int] = None

            for event in events:
                kind = event[0]
                if kind == "fetch":
                    _, klass_name, i_hit, dual = event
                    trace.fetch_hits.append(bool(i_hit))
                    if i_hit:
                        fetched_index = len(trace.program)
                        if klass_name == "BR":
                            trace.program.append(
                                Instruction(Opcode.BNE, rd=0, rs=0, imm=1)
                            )
                        else:
                            self._emit_instruction(trace, klass_name, rng)
                        if dual:
                            self._emit_instruction(trace, "ALU", rng)
                elif kind == "branch_resolved":
                    taken = event[1]
                    if taken and ex_index is not None and ex_index < len(trace.program):
                        # Skip exactly the squashed slot.  When the slot
                        # behind the branch was a bubble (nothing fetched
                        # yet), branch to the fall-through target instead so
                        # no real instruction is skipped.
                        skip = 1 if ifq_index is not None else 0
                        trace.program[ex_index] = Instruction(
                            Opcode.BEQ, rd=0, rs=0, imm=skip
                        )
                elif kind == "d_probe":
                    trace.dcache_hits.append(bool(event[1]))
                    if state["mem"] == "SD" and event[1] and mem_index is not None:
                        pending_store_addr = self._operand_address(trace, mem_index)
                elif kind == "refill_start":
                    trace.victim_dirty.append(bool(event[1]))
                    if state["mem"] == "SD" and mem_index is not None:
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

            next_state = self.model.step(state, choice)
            if not next_state["st_pend"]:
                pending_store_addr = None
            if advanced:
                mem_index, ex_index, ifq_index = ex_index, ifq_index, None
                if squashed:
                    ex_index = None  # the wrong-path slot never executes
            if fetched_index is not None:
                ifq_index = fetched_index
        return trace
