"""Choice tables: a pre-compiled view of a :class:`SyncModel`'s choices.

The generic model API is convenient but pays dict- and method-call tax on
every transition: :meth:`SyncModel.enumerate_choices` re-evaluates guards
and rebuilds choice dicts at every state.  The enumeration hot loop
executes this millions of times, so :class:`ChoiceTables` precomputes
what depends only on the *declaration* once.  It observes that the *set*
of choice combinations at a state depends only on the tuple of guard
outcomes (the *guard signature*), of which there are at most
``2^guarded_choices`` -- twenty or so for the PP model against hundreds
of thousands of states.  Each signature's full table of
``(choice_dict, condition_tuple)`` pairs is built once, in exactly the
order :meth:`SyncModel.enumerate_choices` yields, then reused for every
state sharing the signature.  Next to each table it keeps that table's
*row masks*: for every choice name and value, the bitmask of the rows
that assign that value, so a caller can find in one AND every row that
agrees with a given one on the choices a transition read.  (States are
packed by the one :class:`~repro.smurphi.state.StateCodec`, which
compiles its layout the same way.)

The shared choice dicts lean on the documented :class:`SyncModel`
contract that ``next_state`` must not mutate its arguments; a mutating
model would corrupt the table silently.  The kernel's full check of a
run's first state and its sampled checks against :meth:`SyncModel.step`
(:mod:`repro.enumeration.kernel`) are where such a model shows.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Mapping, Tuple

from repro.smurphi.model import SyncModel


class ChoiceTables:
    """Per-guard-signature tables of choice combinations.

    A *signature* is the tuple of guard outcomes for the model's guarded
    choice points (unguarded ones are always active).  ``table(sig)``
    returns, building it on first sight, the tuple of
    ``(choice_dict, condition_tuple)`` pairs the generic
    :meth:`SyncModel.enumerate_choices` would yield for any state with
    that signature -- same combinations, same order -- with the condition
    tuple (choice values in declaration order) precomputed alongside.
    """

    def __init__(self, model: SyncModel):
        self._choices = list(model.choices)
        self.choice_names: Tuple[str, ...] = tuple(c.name for c in model.choices)
        #: (position in the declaration order, guard) for guarded choices;
        #: defines the signature layout.
        self.guards: Tuple[Tuple[int, object], ...] = tuple(
            (i, c.guard) for i, c in enumerate(model.choices) if c.guard is not None
        )
        self._tables: Dict[Tuple[bool, ...], Tuple[Tuple[Dict, Tuple], ...]] = {}
        self._selected: Dict[Tuple[bool, ...], Tuple[int, Tuple]] = {}
        self._row_masks: Dict[int, Dict[str, Dict[object, int]]] = {}

    def select(self, state: Mapping) -> Tuple[int, Tuple[Tuple[Dict, Tuple], ...]]:
        """``(mask, table)`` for ``state``: its guard signature as a
        bitmask (bit ``i`` = guard ``i`` fired) and that signature's
        table.  Each guard runs exactly once; the pair is built once per
        signature."""
        sig = tuple(bool(guard(state)) for _, guard in self.guards)
        selected = self._selected.get(sig)
        if selected is None:
            mask = 0
            for i, bit in enumerate(sig):
                if bit:
                    mask |= 1 << i
            selected = self._selected[sig] = (mask, self.table(sig))
        return selected

    def row_masks(self, mask: int) -> Dict[str, Dict[object, int]]:
        """``{name: {value: rows}}`` for the table :meth:`select` returned
        with guard mask ``mask``: bit ``i`` of ``rows`` is set when row
        ``i`` of that table assigns ``value`` to choice ``name``.  Built
        once per signature, on first request."""
        masks = self._row_masks.get(mask)
        if masks is None:
            sig = tuple(bool(mask >> i & 1) for i in range(len(self.guards)))
            masks = {name: {} for name in self.choice_names}
            for index, (choice, _) in enumerate(self.table(sig)):
                for name, value in choice.items():
                    by_value = masks[name]
                    by_value[value] = by_value.get(value, 0) | 1 << index
            self._row_masks[mask] = masks
        return masks

    @property
    def num_tables(self) -> int:
        return len(self._tables)

    def table(self, sig: Tuple[bool, ...]) -> Tuple[Tuple[Dict, Tuple], ...]:
        table = self._tables.get(sig)
        if table is None:
            table = self._tables[sig] = self._build(sig)
        return table

    def _build(self, sig: Tuple[bool, ...]) -> Tuple[Tuple[Dict, Tuple], ...]:
        active_flags = [True] * len(self._choices)
        for (position, _), outcome in zip(self.guards, sig):
            active_flags[position] = outcome
        active = [c for c, flag in zip(self._choices, active_flags) if flag]
        inactive = {c.name: c.inactive_value
                    for c, flag in zip(self._choices, active_flags) if not flag}
        names = self.choice_names
        combos: List[Tuple[Dict, Tuple]] = []
        if not active:
            choice = dict(inactive)
            combos.append((choice, tuple(choice[n] for n in names)))
            return tuple(combos)
        domains = [c.type.values() for c in active]
        active_names = [c.name for c in active]
        for values in itertools.product(*domains):
            choice = dict(inactive)
            choice.update(zip(active_names, values))
            combos.append((choice, tuple(choice[n] for n in names)))
        return tuple(combos)
