"""Transition kernels: the pluggable expansion hot path of enumeration.

The BFS engine spends nearly all its time computing, for one packed
state key, the ordered list of ``(condition, packed_successor)`` pairs.
A *kernel* owns exactly that computation:

- :class:`InterpretedKernel` is the reference path: unpack the state
  dict, re-enumerate choices through :meth:`SyncModel.enumerate_choices`,
  step through :meth:`SyncModel.step` (full per-transition domain and
  completeness validation), pack through :class:`StateCodec`.
- :class:`CompiledKernel` (built by :func:`compile_model`) specializes
  everything that depends only on the declaration: per-guard-signature
  choice tables, closure-based pack/unpack with precomputed shifts and
  masks, and validate-on-first-sight plus sampled re-validation instead
  of per-transition re-validation.  It keeps no successor memo: one
  enumeration expands each state once, and the graph holds every
  arc.  When the model carries a generated ``expand`` (translated
  models do), the compiled kernel runs it; otherwise it runs
  ``next_state`` once per distinct choice read-path (below).

The two kernels produce **bit-identical** expansions -- same successor
keys, same condition tuples, same order -- so state graphs, checkpoints
and obs counters are interchangeable between them; the golden and
property tests in ``tests/test_kernel.py`` lock this down.

Read-set elision
----------------
Most rows of a choice table are don't-cares: the transition never reads
the choice that varies between them.  The dict path hands
``next_state`` the lowest unfilled row through a read-logging view
(:class:`_ReadLog`).  ``next_state`` is a deterministic function of the
state and the choice values it reads, so every row that agrees with
that row on each ``(name, value)`` read follows the same path and gets
the same successor; one AND of the table's row masks
(:meth:`ChoiceTables.row_masks`) finds them all.  A read the view cannot
pin to one name (iteration, ``keys()``, ``len``, ``in``, ``dict(c)``,
``env.update(c)``, ...) counts as reading every choice, so that row
fills only itself.  ``enum.kernel.next_state_calls`` counts the calls.

Soundness of reduced validation
-------------------------------
The interpreted path validates every ``next_state`` result: complete
assignment, every value in-domain, no undeclared variables.  The
compiled fast path gets the first two *for free*: packing looks each
declared variable up in a precomputed ``value -> shifted-index`` map, so
a missing variable or out-of-domain value raises ``KeyError``, which the
kernel converts into the exact interpreted-path :class:`ModelError` by
re-running the validated step.  The only check that is genuinely
relaxed is the *undeclared extra variable* class (packing simply never
reads such keys).  ``strict=True`` restores exhaustive per-transition
validation for tests and debugging, and never elides.

Fast rows are held to ``step()``
--------------------------------
Both fast paths -- the elided dict path and a generated ``expand`` --
are checked the same way (:meth:`CompiledKernel._check_row`): a run's
first state -- and, on a worker pool, each packed span's first state --
is compared in full with ``pack(model.step(...))`` of every row, every
``sample_every``-th transition after it is re-run through
``model.step``, and a mismatch raises :class:`ModelError`.  The schedule
restarts at each run and each span, so the checks a run makes depend on
the model and the job count only.  That catches
an extra variable deterministically when it is systematic and by sample
otherwise, and it catches, on the rows it checks, a ``next_state``
whose result depends on anything besides the state and the choice
values it reads (a hidden counter, say).  If ``expand`` raises,
the state is expanded again through the dict path, which raises the
error a model without ``expand`` would.
"""

from __future__ import annotations

import copy
import time
import weakref
from collections.abc import Mapping
from typing import Dict, Iterator, List, Tuple, Union

from repro.smurphi.compiled import ChoiceTables, CompiledStateCodec
from repro.smurphi.model import ModelError, SyncModel
from repro.smurphi.state import StateCodec

#: Kernel selector values accepted by the engine's ``kernel=`` seam.
KERNEL_MODES = ("compiled", "interpreted")

#: One expanded transition: (condition tuple, packed successor key).
Transition = Tuple[Tuple, int]


class InterpretedKernel:
    """The reference expansion path: full :meth:`SyncModel.step`
    validation on every transition.  It produces no guard mask, so the
    engine always runs it in-process."""

    kind = "interpreted"
    compile_seconds = 0.0

    def __init__(self, model: SyncModel):
        self.model = model
        self.codec = StateCodec(model.state_vars)

    def reset_key(self) -> int:
        return self.codec.pack(self.model.reset_state())

    def unpack(self, key: int) -> Dict[str, object]:
        return self.codec.unpack(key)

    def start_run(self) -> None:
        pass  # every transition is validated; there is no schedule

    def expand(self, key: int) -> Iterator[Transition]:
        # A generator on purpose: the executor streams it, interleaving
        # each step with the loop's bookkeeping, so errors surface in
        # state order for pathological models.
        model, codec = self.model, self.codec
        state = codec.unpack(key)
        names = model.choice_names
        for choice in model.enumerate_choices(state):
            nxt = model.step(state, choice)
            yield tuple(choice[n] for n in names), codec.pack(nxt)

    def counters(self) -> Dict[str, int]:
        return {}


class _ReadLog:
    """A read-only view of one choice row that logs what ``next_state``
    reads from it.

    ``view[name]`` and ``view.get(name)`` append ``(name, value)`` to
    ``reads``.  A ``get`` of a name the row lacks logs nothing: every row
    of one table has the same names, so all of them give the default.
    Every other read -- iteration, ``keys``/``items``/``values``, ``len``,
    ``in``, ``copy``, ``dict(view)``, ``==``, ``|``, ``env.update(view)``
    or any other dict method -- sets ``whole``: the transition then
    counts as having read every choice.
    """

    __slots__ = ("_choice", "reads", "whole")
    __hash__ = None

    def __init__(self, choice: Dict[str, object]):
        self._choice = choice
        self.reads: List[Tuple[str, object]] = []
        self.whole = False

    def __getitem__(self, name):
        value = self._choice[name]
        self.reads.append((name, value))
        return value

    def get(self, name, default=None):
        choice = self._choice
        if name not in choice:
            return default
        value = choice[name]
        self.reads.append((name, value))
        return value

    def _everything(self) -> Dict[str, object]:
        self.whole = True
        return self._choice

    def __getattr__(self, attr):
        return getattr(self._everything(), attr)

    def __iter__(self):
        return iter(self._everything())

    def __reversed__(self):
        return reversed(self._everything())

    def __len__(self) -> int:
        return len(self._everything())

    def __contains__(self, name) -> bool:
        return name in self._everything()

    def __eq__(self, other) -> bool:
        return self._everything() == other

    def __or__(self, other):
        return self._everything() | other

    def __ror__(self, other):
        return other | self._everything()

    def __copy__(self) -> Dict[str, object]:
        return dict(self._everything())

    def __deepcopy__(self, memo) -> Dict[str, object]:
        return copy.deepcopy(self._everything(), memo)

    def __repr__(self) -> str:
        return repr(self._everything())


Mapping.register(_ReadLog)


class CompiledKernel:
    """Specialized expansion: precomputed choice tables, closure codec,
    read-set elision, reduced validation, and the model's generated
    ``expand`` when it has one.  Build via :func:`compile_model` (which
    caches kernels per model so campaigns and ablations share one set of
    choice tables)."""

    kind = "compiled"

    def __init__(
        self,
        model: SyncModel,
        strict: bool = False,
        sample_every: int = 1024,
    ):
        started = time.perf_counter()
        self._model = model  # compile_model swaps in a weak reference
        self.strict = bool(strict)
        self.sample_every = max(1, int(sample_every))
        self.codec = CompiledStateCodec(model.state_vars)
        self.tables = ChoiceTables(model)
        self._next_state = model._next_state
        self._generated = None if self.strict else model.generated_expand
        self.expansions = 0
        self.next_state_calls = 0
        self.sampled_validations = 0
        self._validation_tick = 0
        self._first_sight_done = False
        self.compile_seconds = time.perf_counter() - started

    @property
    def model(self) -> SyncModel:
        model = self._model
        return model() if isinstance(model, weakref.ref) else model

    @property
    def generated(self) -> bool:
        """Whether expansion runs the model's generated ``expand``."""
        return self._generated is not None

    def reset_key(self) -> int:
        return self.codec.pack(self.model.reset_state())

    def unpack(self, key: int) -> Dict[str, object]:
        return self.codec.unpack(key)

    def start_run(self) -> None:
        """Restart the validation schedule: the next state is validated
        in full and sampling counts from zero.  Called at the start of
        every run and of every worker span, so two runs of one model at
        one job count do the same checks and report the same
        ``sampled_validations`` delta."""
        self._validation_tick = 0
        self._first_sight_done = False

    def expand(self, key: int) -> Tuple[Transition, ...]:
        return self.expand_masked(key)[1]

    def expand_masked(self, key: int) -> Tuple[int, Tuple[Transition, ...]]:
        """Expand ``key``; also return its guard signature as a bitmask.

        The mask (bit ``i`` = guard ``i`` of ``tables.guards`` fired) plus
        the successor keys fully determine the expansion: any process
        holding an equivalent kernel can recover the condition tuples from
        ``tables.table(signature)``, which is what lets pool workers
        ship one integer instead of pickled per-transition conditions.
        """
        if self.strict:
            result = self._exhaustive(key)
        else:
            result = None
            if self._generated is not None:
                try:
                    result = self._generated(key, self.tables.select)
                except Exception:
                    pass  # the dict path below raises the model's own error
                source = "generated expand"
            if result is None:
                result = self._expand_dict(key)
                source = "elided expansion"
            self._check_row(key, result, source)
        self.expansions += 1
        return result

    def _expand_dict(self, key: int) -> Tuple[int, Tuple[Transition, ...]]:
        """Expand ``key`` through ``next_state`` and the codec, calling
        ``next_state`` once per distinct choice read-path.

        ``next_state`` reads the lowest unfilled row through a
        :class:`_ReadLog`; every row that agrees with it on each value
        read takes the same successor.  A whole-mapping read fills only
        the row itself.
        """
        codec = self.codec
        state = codec.unpack(key)
        mask, table = self.tables.select(state)
        row_masks = self.tables.row_masks(mask)
        next_state, pack = self._next_state, codec.pack
        out: List[Transition] = [None] * len(table)  # type: ignore[list-item]
        unfilled = (1 << len(table)) - 1
        calls = 0
        while unfilled:
            index = (unfilled & -unfilled).bit_length() - 1
            choice = table[index][0]
            view = _ReadLog(choice)
            nxt = next_state(state, view)
            calls += 1
            try:
                packed = pack(nxt)
            except KeyError:
                # Missing or out-of-domain variable: re-run the
                # validated step to raise the exact ModelError the
                # interpreted path would have produced.
                self.model.step(state, dict(choice))
                raise  # step validated clean yet pack failed: mutation
            if view.whole:
                rows = 1 << index
            else:
                rows = unfilled
                for name, value in view.reads:
                    rows &= row_masks[name][value]
            unfilled ^= rows
            while rows:
                low = rows & -rows
                filled = low.bit_length() - 1
                out[filled] = (table[filled][1], packed)
                rows ^= low
        self.next_state_calls += calls
        return mask, tuple(out)

    def _exhaustive(self, key: int) -> Tuple[int, Tuple[Transition, ...]]:
        """Expand ``key`` with every transition through the validated
        ``model.step``."""
        state = self.codec.unpack(key)
        mask, table = self.tables.select(state)
        step, pack = self.model.step, self.codec.pack
        row = tuple(
            (condition, pack(step(state, dict(choice))))
            for choice, condition in table
        )
        self.sampled_validations += len(table)
        return mask, row

    def _check_row(
        self, key: int, result: Tuple[int, Tuple[Transition, ...]], source: str
    ) -> None:
        """Hold a fast-path expansion to ``model.step``: in full on the
        run's first state, then every ``sample_every``-th transition."""
        if not self._first_sight_done:
            if result != self._exhaustive(key):
                self._disagree(key, source)
            self._first_sight_done = True
            return
        row = result[1]
        before = self._validation_tick
        tick = before + len(row)
        cadence = self.sample_every
        if tick >= cadence:
            state = self.codec.unpack(key)
            table = self.tables.select(state)[1]
            step, pack = self.model.step, self.codec.pack
            for index in range(cadence - before - 1, len(row), cadence):
                choice, condition = table[index]
                self.sampled_validations += 1
                if row[index] != (condition, pack(step(state, dict(choice)))):
                    self._disagree(key, source)
        self._validation_tick = tick % cadence

    def _disagree(self, key: int, source: str) -> None:
        raise ModelError(
            f"{source} of {self.model.name!r} disagrees with its "
            f"next_state at state {self.codec.unpack(key)!r} (next_state "
            f"must be a deterministic function of the state and the "
            f"choice values it reads)"
        )

    def counters(self) -> Dict[str, int]:
        """Monotonic counters for delta-flushing into an observer."""
        return {
            "expansions": self.expansions,
            "next_state_calls": self.next_state_calls,
            "sampled_validations": self.sampled_validations,
        }


#: Anything the engine accepts as its ``kernel=`` argument.
Kernel = Union[InterpretedKernel, CompiledKernel]
KernelSpec = Union[str, None, Kernel]


def compile_model(
    model: SyncModel,
    strict: bool = False,
    sample_every: int = 1024,
) -> CompiledKernel:
    """Compile ``model``'s expansion hot path; cached per model instance.

    Repeat calls with the same options return the same kernel, so the
    choice tables and codec built for one enumeration are reused by the
    next (campaigns, ``record_all_conditions`` ablations -- expansion
    does not depend on the arc-recording mode -- and pool workers, which
    inherit the coordinator's kernel by fork).
    """
    cache = model.__dict__.setdefault("_kernel_cache", {})
    options = (bool(strict), int(sample_every))
    kernel = cache.get(options)
    if kernel is None:
        kernel = cache[options] = CompiledKernel(
            model, strict=strict, sample_every=sample_every
        )
        # The model owns this kernel: a strong reference back would make
        # the pair a cycle that outlives the model's last user until a
        # full garbage collection.
        kernel._model = weakref.ref(model)
    return kernel


def resolve_kernel(model: SyncModel, kernel: KernelSpec = "compiled") -> Kernel:
    """Normalize the engine's ``kernel=`` argument to a kernel object.

    ``"compiled"`` (or ``None``) compiles/reuses the model's cached
    compiled kernel; ``"interpreted"`` builds the reference kernel; a
    kernel instance (e.g. a ``strict=True`` compiled kernel) passes
    through so tests can inject configured kernels.
    """
    if kernel is None or kernel == "compiled":
        return compile_model(model)
    if kernel == "interpreted":
        return InterpretedKernel(model)
    if isinstance(kernel, str):
        raise ValueError(
            f"unknown kernel {kernel!r}; expected one of {KERNEL_MODES}"
        )
    return kernel


def flush_kernel_metrics(obs, kernel: Kernel, before: Dict[str, int]) -> None:
    """Emit this run's ``enum.kernel.*`` deltas to an observer.

    ``before`` is the :meth:`counters` snapshot taken when the run
    started; kernels are cached across runs, so the cumulative counters
    must be diffed to keep per-run reports additive.
    """
    if kernel.kind != "compiled":
        return
    obs.observe("enum.kernel.compile_seconds", kernel.compile_seconds)
    for name, value in kernel.counters().items():
        delta = value - before.get(name, 0)
        if delta:
            obs.inc(f"enum.kernel.{name}", delta)
    obs.gauge("enum.kernel.generated", int(kernel.generated))
    obs.gauge("enum.kernel.choice_tables", kernel.tables.num_tables)
