"""Control-state coverage measurement for RTL simulation runs.

The paper's pitch is a *measurable* degree of confidence: the enumerated
state graph defines the universe of control behaviour, and a simulation
run can be scored by how many of those states and transition arcs it
actually visited.  This module observes a running :class:`PPCore`, maps
its unit states onto the control model's state vector each cycle, and
reports visited-state / visited-arc fractions against the enumerated
graph.

This is what makes the generated-vs-random comparison quantitative:
the transition-tour vectors are *constructed* to visit every arc, while
random vectors cluster in the high-probability core of the graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Set, Tuple

from repro.enumeration.graph import StateGraph
from repro.pp.fsm_model import PPControlModel
from repro.pp.isa import InstructionClass
from repro.pp.rtl.core import DeadlockError, PPCore
from repro.pp.rtl.dcache import DRefillState, SpillState
from repro.pp.rtl.icache import IRefillState
from repro.smurphi.state import StateCodec


@dataclass
class CoverageMeasurement:
    """Visited control states/arcs of one or more simulation runs,
    scored against the enumerated graph."""

    graph_states: int
    graph_arcs: int
    visited_states: int
    visited_arcs: int
    observed_cycles: int
    #: Observed (src, dst) pairs that are NOT arcs of the graph -- nonzero
    #: values quantify abstraction skew between the model and the RTL.
    unmatched_transitions: int

    @property
    def state_coverage(self) -> float:
        return self.visited_states / self.graph_states if self.graph_states else 0.0

    @property
    def arc_coverage(self) -> float:
        return self.visited_arcs / self.graph_arcs if self.graph_arcs else 0.0

    def summary(self) -> str:
        return (
            f"{self.visited_states}/{self.graph_states} states "
            f"({self.state_coverage * 100:.1f}%), "
            f"{self.visited_arcs}/{self.graph_arcs} arcs "
            f"({self.arc_coverage * 100:.1f}%) over {self.observed_cycles} cycles"
        )


class ControlStateObserver:
    """Maps a live :class:`PPCore` onto the control model's state vector.

    The mapping mirrors the abstraction the model applies to the design:
    pipeline registers reduce to instruction classes, cache/refill units
    to their FSM states, in-flight counters to delivered-word counts.
    The model's ``fill_words`` should equal the RTL line size
    (``LINE_WORDS``) for the counters to align.
    """

    def __init__(self, control: PPControlModel, graph: StateGraph):
        self.control = control
        self.graph = graph
        self.codec = StateCodec(control.state_vars)
        self.fill_words = control.config.fill_words
        self.visited_state_keys: Set[int] = set()
        self.visited_arc_pairs: Set[Tuple[int, int]] = set()
        self.unmatched: Set[Tuple[int, int]] = set()
        self.cycles = 0
        self._known_states = {
            graph.state_key(i) for i in range(graph.num_states)
        }
        key = graph.state_key
        self._known_arcs = {
            (key(src), key(dst)) for src, dst in zip(graph.edge_src, graph.edge_dst)
        }
        self._previous_key: Optional[int] = None

    # -- the RTL -> model state mapping --------------------------------------

    @staticmethod
    def _bundle_class(bundle) -> str:
        if not bundle:
            return "BUBBLE"
        lead = bundle[0]
        if lead.instr.is_nop():
            return "ALU"
        return lead.klass.value

    def snapshot(self, core: PPCore) -> dict:
        """The control model's view of the core, this cycle."""
        fw = self.fill_words
        icache, dcache = core.icache, core.dcache
        ifill = sum(w is not None for w in icache._line_buffer) if (
            icache.state is IRefillState.FILL
        ) else 0
        dfill = sum(w is not None for w in dcache._line_buffer) if (
            dcache.refill_state is DRefillState.FILL_REST
        ) else 0
        if core._load_wait is not None:
            owner = "LOAD"
        elif core._store_wait is not None:
            owner = "STORE"
        else:
            owner = "NONE"
        state = {
            "ifq": self._bundle_class(core.rd_bundle),
            "ex": self._bundle_class(core.ex_bundle),
            "mem": self._bundle_class(core.mem_bundle),
            "irefill": icache.state.value,
            "ifill_cnt": min(ifill, fw),
            "drefill": dcache.refill_state.value,
            "dfill_cnt": min(dfill, fw),
            "spill": dcache.spill_state.value,
            "st_pend": dcache.pending_store is not None,
            "miss_owner": owner,
        }
        for i in range(self.control.config.extra_pipe_stages):
            state[f"wb{i}"] = "BUBBLE"
        return state

    # -- observation -----------------------------------------------------------

    def observe(self, core: PPCore) -> None:
        """Record the core's control state for the current cycle."""
        key = self.codec.pack(self.snapshot(core))
        self.cycles += 1
        if key in self._known_states:
            self.visited_state_keys.add(key)
        if self._previous_key is not None:
            pair = (self._previous_key, key)
            if pair in self._known_arcs:
                self.visited_arc_pairs.add(pair)
            else:
                self.unmatched.add(pair)
        self._previous_key = key

    def new_run(self) -> None:
        """Reset the arc chaining between independent traces (each trace
        restarts the machine from reset)."""
        self._previous_key = None

    def measurement(self) -> CoverageMeasurement:
        return CoverageMeasurement(
            graph_states=self.graph.num_states,
            graph_arcs=len(self._known_arcs),
            visited_states=len(self.visited_state_keys),
            visited_arcs=len(self.visited_arc_pairs),
            observed_cycles=self.cycles,
            unmatched_transitions=len(self.unmatched),
        )


def run_with_coverage(
    core: PPCore,
    observer: ControlStateObserver,
    max_cycles: int = 500_000,
) -> None:
    """Run ``core`` to completion, observing its control state each cycle."""
    observer.new_run()
    observer.observe(core)
    while not core.halted:
        if core.cycle >= max_cycles:
            raise DeadlockError("core did not halt during coverage run")
        core.step()
        observer.observe(core)
