"""Synchronous Murphi: a finite-state modeling language for control logic.

This package is a Python re-implementation of the semantics of *Synchronous
Murphi*, the state-enumeration front end used by the paper (an extension of
Murphi [DDH+92]).  A model has an explicit separation of *state* variables
(latched, updated only by the implicit clock) and non-state wires, plus
nondeterministic *choice points* that stand in for abstract environment
models (caches, memory controller, Inbox/Outbox...).  Each clock cycle the
environment picks one value for every choice point and the model computes
its next state as a pure function of (state, choices).

Public API:

- :class:`~repro.smurphi.types.BoolType`, :class:`~repro.smurphi.types.EnumType`,
  :class:`~repro.smurphi.types.RangeType` -- finite value domains.
- :class:`~repro.smurphi.model.SyncModel` -- a synchronous FSM model.
- :class:`~repro.smurphi.model.StateVar`, :class:`~repro.smurphi.model.ChoicePoint`
  -- declarations.
- :class:`~repro.smurphi.state.StateCodec` -- packing of states to hashable
  keys and bit-size accounting.
"""

from repro.smurphi.types import BoolType, EnumType, RangeType, FiniteType
from repro.smurphi.model import SyncModel, StateVar, ChoicePoint, ModelError
from repro.smurphi.state import StateCodec
from repro.smurphi.compiled import ChoiceTables
from repro.smurphi.lang import parse_model, MurphiSyntaxError

__all__ = [
    "ChoiceTables",
    "parse_model",
    "MurphiSyntaxError",
    "BoolType",
    "EnumType",
    "RangeType",
    "FiniteType",
    "SyncModel",
    "StateVar",
    "ChoicePoint",
    "ModelError",
    "StateCodec",
]
