"""Synchronous FSM models: state variables, choice points, step semantics.

A :class:`SyncModel` captures the concurrency model of Synchronous Murphi
(section 3.1 of the paper): there is an explicit separation between *state*
variables, which the implicit clock updates once per cycle, and everything
else, which is combinational.  Nondeterministic inputs from abstract
environment blocks (caches signalling hit/miss, the Inbox/Outbox signalling
ready, the memory controller signalling done) are modeled as *choice
points*; the enumerator permutes all combinations of choices at every state.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.smurphi.types import FiniteType


class ModelError(Exception):
    """Raised for ill-formed models or ill-typed states/choices."""


class StateVar:
    """A latched state variable: name, finite domain, and reset value."""

    def __init__(self, name: str, var_type: FiniteType, reset):
        if not var_type.contains(reset):
            raise ModelError(
                f"reset value {reset!r} for state var {name!r} is outside its domain"
            )
        self.name = name
        self.type = var_type
        self.reset = reset

    def __repr__(self) -> str:
        return f"StateVar({self.name!r}, {self.type!r}, reset={self.reset!r})"


class ChoicePoint:
    """A per-cycle nondeterministic input supplied by an abstract model.

    ``guard``, if given, is a predicate over the current state dict; when it
    returns ``False`` the choice point is inactive that cycle and pinned to
    ``inactive_value`` (its first domain value by default).  Guards keep the
    cross product of choices small exactly the way the paper's abstract
    models do: e.g. the D-cache hit/miss choice only matters on cycles where
    a load or store reaches the MEM stage.
    """

    def __init__(
        self,
        name: str,
        choice_type: FiniteType,
        guard: Optional[Callable[[Mapping], bool]] = None,
        inactive_value=None,
    ):
        self.name = name
        self.type = choice_type
        self.guard = guard
        if inactive_value is None:
            inactive_value = choice_type.values()[0]
        if not choice_type.contains(inactive_value):
            raise ModelError(
                f"inactive value {inactive_value!r} for choice {name!r} "
                "is outside its domain"
            )
        self.inactive_value = inactive_value

    def active_in(self, state: Mapping) -> bool:
        return self.guard is None or bool(self.guard(state))

    def __repr__(self) -> str:
        return f"ChoicePoint({self.name!r}, {self.type!r})"


State = Dict[str, object]
Choice = Dict[str, object]


class SyncModel:
    """A synchronous finite-state model.

    Parameters
    ----------
    name:
        Human-readable model name (shows up in reports).
    state_vars:
        Declarations of the latched state, in a fixed order; the order
        defines the packed state layout.
    choices:
        Nondeterministic per-cycle inputs.
    next_state:
        Pure function ``(state, choice) -> state`` computing the values the
        clock will latch.  It must return a complete assignment to every
        state variable, must not mutate its arguments, and must depend on
        nothing but the state and the choice values it reads: the
        compiled kernel hands it the choice as a read-only mapping and
        reuses one result for every choice combination that agrees on
        those values.
    invariants:
        Optional named predicates over states, checked during enumeration
        (a Murphi feature; handy for catching modeling errors early).
    rules:
        Optional metadata: the ordered transition-rule objects (model
        edits/rewrites) composed into ``next_state``, for semantic
        fingerprinting and diffing (:mod:`repro.smurphi.fingerprint`).
        Never executed here -- ``next_state`` already includes them.
    base_step:
        Optional metadata: the unedited step function ``rules`` were
        layered onto.  With ``rules``, lets a diff separate "same base
        model, extra rewrites appended" (localized) from "different model"
        (structural).
    generated_expand:
        Optional generated fast path ``expand(key, select)`` over packed
        state keys, as the translator emits it: given a key in the
        declaration-order layout of :class:`~repro.smurphi.state.StateCodec`
        and a :meth:`~repro.smurphi.compiled.ChoiceTables.select`, it
        returns ``(mask, row)`` with ``row`` the ``(condition,
        successor_key)`` pairs of the choice table, in table order.
        ``next_state`` stays the definition: the compiled kernel checks
        this function against it and falls back to it on any error.

    >>> from repro.smurphi import BoolType
    >>> toggle = SyncModel(
    ...     "toggle",
    ...     state_vars=[StateVar("q", BoolType(), False)],
    ...     choices=[ChoicePoint("en", BoolType())],
    ...     next_state=lambda s, c: {"q": s["q"] ^ c["en"]},
    ... )
    >>> toggle.step({"q": False}, {"en": True})
    {'q': True}
    """

    def __init__(
        self,
        name: str,
        state_vars: Sequence[StateVar],
        choices: Sequence[ChoicePoint],
        next_state: Callable[[Mapping, Mapping], State],
        invariants: Optional[Mapping[str, Callable[[Mapping], bool]]] = None,
        rules: Optional[Sequence] = None,
        base_step: Optional[Callable[[Mapping, Mapping], State]] = None,
        generated_expand: Optional[Callable] = None,
    ):
        self.name = name
        self.state_vars = list(state_vars)
        self.choices = list(choices)
        self._next_state = next_state
        self.invariants = dict(invariants or {})
        self.rules = tuple(rules or ())
        self.base_step = base_step
        self.generated_expand = generated_expand
        self._check_declarations()

    def _check_declarations(self) -> None:
        names = [v.name for v in self.state_vars]
        if len(set(names)) != len(names):
            raise ModelError(f"duplicate state variable names in model {self.name!r}")
        cnames = [c.name for c in self.choices]
        if len(set(cnames)) != len(cnames):
            raise ModelError(f"duplicate choice names in model {self.name!r}")
        overlap = set(names) & set(cnames)
        if overlap:
            raise ModelError(
                f"names {sorted(overlap)} used both as state and choice "
                f"in model {self.name!r}"
            )

    # -- introspection -----------------------------------------------------

    @property
    def state_var_names(self) -> List[str]:
        return [v.name for v in self.state_vars]

    @property
    def choice_names(self) -> List[str]:
        return [c.name for c in self.choices]

    def state_bits(self) -> int:
        """Total encoding width of one state, as reported in Table 3.2."""
        return sum(v.type.bit_width() for v in self.state_vars)

    def reset_state(self) -> State:
        return {v.name: v.reset for v in self.state_vars}

    # -- semantics ----------------------------------------------------------

    def validate_state(self, state: Mapping) -> None:
        """Raise :class:`ModelError` if ``state`` is not a complete, typed
        assignment to the declared state variables."""
        for var in self.state_vars:
            if var.name not in state:
                raise ModelError(f"state is missing variable {var.name!r}")
            if not var.type.contains(state[var.name]):
                raise ModelError(
                    f"value {state[var.name]!r} of {var.name!r} is outside its domain"
                )
        extra = set(state) - set(self.state_var_names)
        if extra:
            raise ModelError(f"state has undeclared variables {sorted(extra)}")

    def enumerate_choices(self, state: Mapping) -> Iterable[Choice]:
        """Yield every combination of choice values active in ``state``.

        Inactive choice points (guard false) are pinned to their inactive
        value rather than permuted, which prunes the combination count
        without losing reachable behaviour.  Each guard is evaluated
        exactly once per state.
        """
        active = []
        inactive = {}
        for c in self.choices:
            if c.active_in(state):
                active.append(c)
            else:
                inactive[c.name] = c.inactive_value
        if not active:
            yield dict(inactive)
            return
        domains = [c.type.values() for c in active]
        names = [c.name for c in active]
        for combo in itertools.product(*domains):
            choice = dict(inactive)
            choice.update(zip(names, combo))
            yield choice

    def step(self, state: Mapping, choice: Mapping) -> State:
        """Advance one clock cycle; returns the newly latched state."""
        nxt = self._next_state(state, choice)
        for var in self.state_vars:
            if var.name not in nxt:
                raise ModelError(
                    f"next_state of {self.name!r} did not assign {var.name!r}"
                )
            if not var.type.contains(nxt[var.name]):
                raise ModelError(
                    f"next_state of {self.name!r} assigned out-of-domain value "
                    f"{nxt[var.name]!r} to {var.name!r}"
                )
        extra = set(nxt) - set(self.state_var_names)
        if extra:
            raise ModelError(
                f"next_state of {self.name!r} assigned undeclared variables "
                f"{sorted(extra)}"
            )
        return dict(nxt)

    def check_invariants(self, state: Mapping) -> List[str]:
        """Return the names of invariants violated by ``state``."""
        return [name for name, pred in self.invariants.items() if not pred(state)]

    def __repr__(self) -> str:
        return (
            f"SyncModel({self.name!r}, {len(self.state_vars)} state vars, "
            f"{len(self.choices)} choices, {self.state_bits()} bits)"
        )
