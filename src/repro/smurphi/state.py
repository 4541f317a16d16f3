"""Packing of model states into compact hashable keys.

The enumerator stores hundreds of thousands of states; packing each state
dict into a single integer key (one bit-field per variable, in declaration
order) keeps the visited-set small and makes state identity exact.  The
codec also accounts for the bits-per-state figure reported in Table 3.2.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence, Tuple

from repro.smurphi.model import StateVar


class StateCodec:
    """Bidirectional state-dict <-> packed-integer codec.

    Layout: variable ``i`` occupies ``bit_width`` bits starting at the
    cumulative offset of the preceding variables, in declaration order.
    Zero-width variables (singleton domains) occupy no bits and always
    decode to their single value.

    Everything that depends only on the declaration is computed once:
    ``pack`` and ``unpack`` are closures over per-variable
    ``value -> shifted-index`` maps and ``masked-index -> value`` tables,
    so packing a state is a handful of dict lookups and OR's.  Packing is
    on the enumeration hot path, so it checks nothing on success:

    - a domain whose values outnumber its bit field (a type whose
      ``bit_width`` is too small) is refused here, at construction, since
      its top indices would silently corrupt the neighbouring fields;
    - an out-of-domain value raises ``ValueError`` naming the variable,
      and a missing variable raises ``KeyError``; both are diagnosed only
      after the fast loop has failed.

    ``unpack_values`` returns the var-order value tuple without building
    a dict.

    >>> from repro.smurphi import BoolType, EnumType
    >>> codec = StateCodec([
    ...     StateVar("a", BoolType(), False),
    ...     StateVar("st", EnumType("e", ["X", "Y", "Z"]), "X"),
    ... ])
    >>> key = codec.pack({"a": True, "st": "Z"})
    >>> codec.unpack(key) == {"a": True, "st": "Z"}
    True
    """

    def __init__(self, state_vars: Sequence[StateVar]):
        #: ``name -> (offset, width, values)`` for :meth:`field` and
        #: :meth:`extract`.
        self._fields: Dict[str, Tuple[int, int, Tuple]] = {}
        checked = []
        offset = 0
        for var in state_vars:
            width = var.type.bit_width()
            values = tuple(var.type.values())
            if len(values) > 1 << width:
                raise ValueError(
                    f"the {len(values)} values of state var {var.name!r} do "
                    f"not fit in its {width}-bit field"
                )
            shifted = {value: index << offset for index, value in enumerate(values)}
            self._fields[var.name] = (offset, width, values)
            checked.append((var.name, shifted, var.type))
            offset += width
        self.total_bits = offset
        self.var_names: Tuple[str, ...] = tuple(self._fields)
        pack_rows = tuple((name, shifted) for name, shifted, _ in checked)
        unpack_rows = tuple((name, off, (1 << width) - 1, values)
                            for name, (off, width, values) in self._fields.items())

        def pack(state: Mapping) -> int:
            key = 0
            try:
                for name, shifted in pack_rows:
                    key |= shifted[state[name]]
            except KeyError:
                _diagnose(checked, state)
                raise
            return key

        def unpack(key: int) -> Dict[str, object]:
            return {name: values[(key >> off) & mask]
                    for name, off, mask, values in unpack_rows}

        def unpack_values(key: int) -> Tuple:
            return tuple(values[(key >> off) & mask]
                         for _, off, mask, values in unpack_rows)

        self.pack = pack
        self.unpack = unpack
        self.unpack_values = unpack_values

    def field(self, name: str) -> Tuple[int, int]:
        """(offset, width) of variable ``name`` within the packed key."""
        offset, width, _ = self._fields[name]
        return offset, width

    def extract(self, key: int, name: str):
        """Decode a single variable out of a packed key without a full unpack."""
        offset, width, values = self._fields[name]
        return values[(key >> offset) & ((1 << width) - 1)]


def _diagnose(checked, state: Mapping) -> None:
    """Raise the error a failed ``pack`` of ``state`` stands for: the
    first variable ``state`` lacks (``KeyError``) or holds outside its
    domain (``ValueError``), in declaration order."""
    for name, shifted, var_type in checked:
        value = state[name]
        if value not in shifted:
            raise ValueError(
                f"value {value!r} of state var {name!r} "
                f"is outside its domain {var_type!r}"
            ) from None
