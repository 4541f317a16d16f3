"""Cycle-accurate RTL-level model of the Protocol Processor.

This is the *implementation* side of Fig. 3.1 -- the model the generated
vectors drive and the bug-injection framework mutates.  It is structured
the way the real PP Verilog was: separate units for the instruction cache,
data cache (spill buffer, split stores), memory controller, Inbox, Outbox,
register file, and a pipeline with a stall machine tying them together.

Interface signals that the paper's methodology forces from test vectors
(cache hit/miss outcomes, Inbox/Outbox readiness, memory-controller pacing)
are exposed as per-cycle *override* hooks on each unit, mirroring Verilog
``force``/``release``.
"""

from repro.pp.rtl.memory import MainMemory, LINE_WORDS, line_base
from repro.pp.rtl.memctrl import MemoryController, MemRequest, Requester
from repro.pp.rtl.regfile import RegisterFile
from repro.pp.rtl.inbox import Inbox
from repro.pp.rtl.outbox import Outbox
from repro.pp.rtl.icache import ICache, IRefillState
from repro.pp.rtl.dcache import DCache, DRefillState, SpillState
from repro.pp.rtl.stimulus import (
    StimulusSource,
    NaturalStimulus,
    QueueStimulus,
    RandomStimulus,
)
from repro.pp.rtl.core import (
    PPCore,
    CoreConfig,
    DeadlockError,
    TraceEvent,
    GARBAGE_Z,
    LOST_DATA,
)

__all__ = [
    "MainMemory",
    "LINE_WORDS",
    "line_base",
    "MemoryController",
    "MemRequest",
    "Requester",
    "RegisterFile",
    "Inbox",
    "Outbox",
    "ICache",
    "IRefillState",
    "DCache",
    "DRefillState",
    "SpillState",
    "StimulusSource",
    "NaturalStimulus",
    "QueueStimulus",
    "RandomStimulus",
    "PPCore",
    "CoreConfig",
    "DeadlockError",
    "TraceEvent",
    "GARBAGE_Z",
    "LOST_DATA",
]
