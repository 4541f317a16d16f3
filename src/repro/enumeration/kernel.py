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
  arc.  On the PP control model this was a >3x end-to-end enumeration
  speedup when it landed; the benchmark's ``enumerate`` workload times
  it now.  When the model carries a generated ``expand`` (translated
  models do), the compiled kernel runs it instead of one ``next_state``
  call and one ``pack`` per transition.

The two kernels produce **bit-identical** expansions -- same successor
keys, same condition tuples, same order -- so state graphs, checkpoints
and obs counters are interchangeable between them; the golden and
property tests in ``tests/test_kernel.py`` lock this down.

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
reads such keys); it is caught deterministically on the first state each
run expands (validate-on-first-sight) and probabilistically thereafter
(full re-validation every ``sample_every`` transitions).  ``strict=True``
restores exhaustive per-transition validation for tests and debugging.

A generated ``expand`` is held to the dict path the same way: a run's
first state is compared in full with ``pack(model.step(...))``, every
``sample_every``-th transition after it is re-run through ``model.step``,
and a mismatch raises :class:`ModelError`.  If ``expand`` raises, the
state is expanded again through the dict path, which raises the error a
model without ``expand`` would.  ``strict=True`` never calls it.
"""

from __future__ import annotations

import time
import weakref
from typing import Dict, Iterator, Tuple, Union

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
        # A generator on purpose: the in-process executor interleaves
        # each step with the loop's bookkeeping, preserving error
        # ordering for pathological models.
        model, codec = self.model, self.codec
        state = codec.unpack(key)
        names = model.choice_names
        for choice in model.enumerate_choices(state):
            nxt = model.step(state, choice)
            yield tuple(choice[n] for n in names), codec.pack(nxt)

    def counters(self) -> Dict[str, int]:
        return {}


class CompiledKernel:
    """Specialized expansion: precomputed choice tables, closure codec,
    reduced validation, and the model's generated ``expand`` when it has
    one.  Build via :func:`compile_model` (which caches kernels per model
    so campaigns and ablations share one set of choice tables)."""

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
        """Restart the validation schedule: the run's first state is
        validated in full and sampling counts from zero, so two runs of
        one model do the same checks and report the same
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
        result = None
        if self._generated is not None:
            try:
                result = self._generated(key, self.tables.select)
            except Exception:
                pass  # the dict path below raises the model's own error
            else:
                self._check_generated(key, result)
        if result is None:
            result = self._expand_dict(key)
        self.expansions += 1
        return result

    def _expand_dict(self, key: int) -> Tuple[int, Tuple[Transition, ...]]:
        """Expand ``key`` through ``next_state`` and the codec."""
        codec = self.codec
        state = codec.unpack(key)
        mask, table = self.tables.select(state)
        pack = codec.pack
        if self.strict or not self._first_sight_done:
            # Exhaustive validation: the run's first state (any
            # systematic next_state bug shows up immediately), and every
            # state in strict mode.
            step = self.model.step
            row = tuple(
                (condition, pack(step(state, dict(choice))))
                for choice, condition in table
            )
            self.sampled_validations += len(table)
            self._first_sight_done = True
            return mask, row
        next_state = self._next_state
        tick = self._validation_tick
        cadence = self.sample_every
        out = []
        for choice, condition in table:
            tick += 1
            if tick >= cadence:
                tick = 0
                nxt = self.model.step(state, dict(choice))
                self.sampled_validations += 1
            else:
                nxt = next_state(state, choice)
            try:
                packed = pack(nxt)
            except KeyError:
                # Missing or out-of-domain variable: re-run the
                # validated step to raise the exact ModelError the
                # interpreted path would have produced.
                self.model.step(state, dict(choice))
                raise  # step validated clean yet pack failed: mutation
            out.append((condition, packed))
        self._validation_tick = tick
        return mask, tuple(out)

    def _check_generated(
        self, key: int, result: Tuple[int, Tuple[Transition, ...]]
    ) -> None:
        """Hold the generated ``expand`` to ``next_state``: in full on the
        run's first state, then every ``sample_every``-th transition,
        on the same cadence the dict path re-validates."""
        if not self._first_sight_done:
            if result != self._expand_dict(key):
                self._disagree(key)
            return
        row = result[1]
        tick = self._validation_tick + len(row)
        cadence = self.sample_every
        if tick >= cadence:
            state = self.codec.unpack(key)
            table = self.tables.select(state)[1]
            step, pack = self.model.step, self.codec.pack
            for index in range(cadence - self._validation_tick - 1, len(row), cadence):
                choice, condition = table[index]
                self.sampled_validations += 1
                if row[index] != (condition, pack(step(state, dict(choice)))):
                    self._disagree(key)
        self._validation_tick = tick % cadence

    def _disagree(self, key: int) -> None:
        raise ModelError(
            f"generated expand of {self.model.name!r} disagrees with its "
            f"next_state at state {self.codec.unpack(key)!r}"
        )

    def counters(self) -> Dict[str, int]:
        """Monotonic counters for delta-flushing into an observer."""
        return {
            "expansions": self.expansions,
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
