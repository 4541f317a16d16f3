"""The complete control state graph produced by enumeration.

States are interned to dense integer ids (id 0 is always the reset state).
Each edge carries the *transition condition*: the tuple of abstract-model
choices that caused it, which the vector generator later maps back onto
simulator stimuli (the "transition condition mapping" of section 3.3).

Layout
------
Edges are stored in columns, not one object per arc: three ``array('I')``
columns ``edge_src``, ``edge_dst`` and ``edge_cond``, where ``edge_cond``
indexes ``conditions``, the table of distinct condition tuples in
first-seen order (a few dozen to a few hundred per model, against
thousands to millions of arcs).  Out-edges are served from a CSR (row
pointers plus edge indices) built on the first out-edge query and dropped
by the next :meth:`StateGraph.add_edge`; a BFS-built graph lists its edges
grouped by source already, so its CSR is the row pointers alone.
:class:`Edge` is the public value type, built on demand by
:meth:`StateGraph.edge` and the :meth:`StateGraph.edges` view; hot paths
read the columns instead.
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_left
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from itertools import islice
from operator import le
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union


@dataclass(frozen=True)
class Edge:
    """One transition arc of the state graph.

    ``condition`` is a tuple of choice values in the model's choice
    declaration order -- the permutation of abstract-block actions that was
    recorded for this arc.
    """

    src: int
    dst: int
    condition: Tuple

    def __repr__(self) -> str:
        return f"Edge({self.src}->{self.dst}, cond={self.condition!r})"


def _same_types(a: Tuple, b: Tuple) -> bool:
    return tuple(map(type, a)) == tuple(map(type, b))


class EdgeView(SequenceABC):
    """Read-only sequence of a graph's edges, built as :class:`Edge` values
    on access (``len``, int and slice indexing, iteration)."""

    __slots__ = ("_graph",)

    def __init__(self, graph: "StateGraph"):
        self._graph = graph

    def __len__(self) -> int:
        return len(self._graph.edge_src)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._graph.edge(i) for i in range(*index.indices(len(self)))]
        return self._graph.edge(index)

    def __iter__(self) -> Iterator[Edge]:
        graph = self._graph
        conditions = graph.conditions
        for src, dst, cond in zip(graph.edge_src, graph.edge_dst, graph.edge_cond):
            yield Edge(src, dst, conditions[cond])


class StateGraph:
    """Directed multigraph over enumerated control states.

    Parameters
    ----------
    choice_names:
        Names of the model's choice points, defining the layout of each
        edge's ``condition`` tuple.

    ``edge_src``, ``edge_dst``, ``edge_cond`` and ``conditions`` are the
    edge columns and the condition table (see the module docstring);
    read them, never write them -- :meth:`add_edge` is the only writer.
    """

    RESET = 0

    def __init__(self, choice_names: Sequence[str]):
        self.choice_names = list(choice_names)
        self._state_ids: Dict[int, int] = {}
        self._state_keys: List[int] = []
        self.edge_src = array("I")
        self.edge_dst = array("I")
        self.edge_cond = array("I")
        self.conditions: List[Tuple] = []
        self._derive()

    def _derive(self) -> None:
        """(Re)build the derived fields, which are never pickled: the
        condition-id dicts and the out-edge CSR."""
        # ``_cond_ids`` maps a condition to its first-seen id; equal
        # tuples of other element types -- ``(1,)`` after ``(True,)`` --
        # get their own ids through ``_typed_ids``, so the table keeps
        # each condition exactly as recorded.
        self._cond_ids: Dict[Tuple, int] = {}
        self._typed_ids: Dict[Tuple, int] = {}
        conditions, self.conditions = self.conditions, []
        for condition in conditions:
            self._condition_id(condition)
        self._csr: Optional[Tuple[array, Union[range, array]]] = None

    def __getstate__(self) -> Dict:
        state = dict(self.__dict__)
        for derived in ("_cond_ids", "_typed_ids", "_csr"):
            del state[derived]
        return state

    def __setstate__(self, state: Dict) -> None:
        self.__dict__.update(state)
        self._derive()

    # -- construction --------------------------------------------------------

    def intern_state(self, packed_key: int) -> Tuple[int, bool]:
        """Return ``(state_id, is_new)`` for a packed state key."""
        existing = self._state_ids.get(packed_key)
        if existing is not None:
            return existing, False
        state_id = len(self._state_keys)
        self._state_ids[packed_key] = state_id
        self._state_keys.append(packed_key)
        self._csr = None
        return state_id, True

    def _condition_id(self, condition: Tuple) -> int:
        cond = self._cond_ids.get(condition)
        if cond is None:
            cond = self._cond_ids[condition] = len(self.conditions)
            self.conditions.append(condition)
        elif self.conditions[cond] is not condition and not _same_types(
            self.conditions[cond], condition
        ):
            typed = (tuple(map(type, condition)), condition)
            cond = self._typed_ids.get(typed)
            if cond is None:
                cond = self._typed_ids[typed] = len(self.conditions)
                self.conditions.append(condition)
        return cond

    def add_edge(self, src: int, dst: int, condition: Tuple) -> int:
        """Append the arc ``src -> dst`` under ``condition``; return its index."""
        index = len(self.edge_src)
        self.edge_src.append(src)
        self.edge_dst.append(dst)
        self.edge_cond.append(self._condition_id(tuple(condition)))
        self._csr = None
        return index

    # -- queries ---------------------------------------------------------------

    @property
    def num_states(self) -> int:
        return len(self._state_keys)

    @property
    def num_edges(self) -> int:
        return len(self.edge_src)

    def state_key(self, state_id: int) -> int:
        """Packed state key for a state id (decode with the model's codec)."""
        return self._state_keys[state_id]

    def state_id_of_key(self, packed_key: int) -> Optional[int]:
        return self._state_ids.get(packed_key)

    def edges(self) -> EdgeView:
        return EdgeView(self)

    def edge(self, index: int) -> Edge:
        return Edge(
            self.edge_src[index], self.edge_dst[index],
            self.conditions[self.edge_cond[index]],
        )

    def out_csr(self) -> Tuple[array, Union[range, array]]:
        """``(indptr, order)``: state ``s``'s out-edge indices are
        ``order[indptr[s]:indptr[s + 1]]``, in insertion order.

        ``order`` is ``range(num_edges)`` when the edges are already
        grouped by ascending source (every BFS-built graph), an
        ``array('I')`` otherwise.  Built on first use, cached until the
        next :meth:`intern_state` of a new state or :meth:`add_edge`.
        """
        if self._csr is None:
            src = self.edge_src
            if all(map(le, src, islice(src, 1, None))):
                order: Union[range, array] = range(len(src))
                sources: Sequence[int] = src
            else:
                order = array("I", sorted(range(len(src)), key=src.__getitem__))
                sources = sorted(src)
            indptr = array(
                "I", (bisect_left(sources, s) for s in range(self.num_states + 1))
            )
            self._csr = (indptr, order)
        return self._csr

    def out_edge_indices(self, state_id: int) -> Sequence[int]:
        indptr, order = self.out_csr()
        return order[indptr[state_id]:indptr[state_id + 1]]

    def out_edges(self, state_id: int) -> Iterator[Edge]:
        for index in self.out_edge_indices(state_id):
            yield self.edge(index)

    def successors(self, state_id: int) -> Iterator[int]:
        dst = self.edge_dst
        for index in self.out_edge_indices(state_id):
            yield dst[index]

    def has_edge_between(self, src: int, dst: int) -> bool:
        return any(d == dst for d in self.successors(src))

    def condition_as_dict(self, edge: Edge) -> Dict[str, object]:
        """Expand an edge's condition tuple into a choice-name -> value map."""
        return dict(zip(self.choice_names, edge.condition))

    def in_degrees(self) -> List[int]:
        degrees = [0] * self.num_states
        for dst in self.edge_dst:
            degrees[dst] += 1
        return degrees

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> str:
        conditions = [list(c) for c in self.conditions]
        payload = {
            "choice_names": self.choice_names,
            "state_keys": self._state_keys,
            "edges": [
                [src, dst, conditions[cond]]
                for src, dst, cond in zip(self.edge_src, self.edge_dst, self.edge_cond)
            ],
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "StateGraph":
        payload = json.loads(text)
        graph = cls(payload["choice_names"])
        for key in payload["state_keys"]:
            graph.intern_state(key)
        for src, dst, condition in payload["edges"]:
            graph.add_edge(src, dst, tuple(condition))
        return graph

    def __repr__(self) -> str:
        return f"StateGraph({self.num_states} states, {self.num_edges} edges)"
