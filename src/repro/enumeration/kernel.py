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
  masks, validate-on-first-sight plus sampled re-validation instead of
  per-transition re-validation, and an optional per-process successor
  memo.  On the PP control model this is a >3x end-to-end enumeration
  speedup (``benchmarks/bench_kernel.py`` asserts it).

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
reads such keys); it is caught deterministically on the first state ever
expanded (validate-on-first-sight) and probabilistically thereafter
(full re-validation every ``sample_every`` transitions).  ``strict=True``
restores exhaustive per-transition validation for tests and debugging.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, Iterator, Optional, Tuple, Union

from repro.smurphi.compiled import ChoiceTables, CompiledStateCodec
from repro.smurphi.model import SyncModel
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
    reduced validation, optional successor memo.  Build via
    :func:`compile_model` (which caches kernels per model so campaigns
    and ablations share one memo)."""

    kind = "compiled"

    def __init__(
        self,
        model: SyncModel,
        strict: bool = False,
        memo: bool = True,
        sample_every: int = 1024,
    ):
        started = time.perf_counter()
        self.model = model
        self.strict = bool(strict)
        self.sample_every = max(1, int(sample_every))
        self.codec = CompiledStateCodec(model.state_vars)
        self.tables = ChoiceTables(model)
        self._next_state = model._next_state
        self._memo: Optional[Dict[int, Tuple[int, Tuple[Transition, ...]]]] = (
            {} if memo else None
        )
        self.memo_hits = 0
        self.expansions = 0
        self.sampled_validations = 0
        self._validation_tick = 0
        self._first_sight_done = False
        self.compile_seconds = time.perf_counter() - started

    @property
    def memo_entries(self) -> int:
        return len(self._memo) if self._memo is not None else 0

    def reset_key(self) -> int:
        return self.codec.pack(self.model.reset_state())

    def unpack(self, key: int) -> Dict[str, object]:
        return self.codec.unpack(key)

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
        memo = self._memo
        if memo is not None:
            hit = memo.get(key)
            if hit is not None:
                self.memo_hits += 1
                return hit
        codec = self.codec
        state = codec.unpack(key)
        tables = self.tables
        sig = tables.signature(state)
        mask = 0
        for i, bit in enumerate(sig):
            if bit:
                mask |= 1 << i
        table = tables.table(sig)
        pack = codec.pack
        if self.strict or not self._first_sight_done:
            # Exhaustive validation: the very first state expanded (any
            # systematic next_state bug shows up immediately), and every
            # state in strict mode.
            step = self.model.step
            row = tuple(
                (condition, pack(step(state, dict(choice))))
                for choice, condition in table
            )
            self.sampled_validations += len(table)
            self._first_sight_done = True
        else:
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
            row = tuple(out)
        self.expansions += 1
        result = (mask, row)
        if memo is not None:
            memo[key] = result
        return result

    def counters(self) -> Dict[str, int]:
        """Monotonic counters for delta-flushing into an observer."""
        return {
            "expansions": self.expansions,
            "memo_hits": self.memo_hits,
            "sampled_validations": self.sampled_validations,
        }


#: Anything the engine accepts as its ``kernel=`` argument.
Kernel = Union[InterpretedKernel, CompiledKernel]
KernelSpec = Union[str, None, Kernel]


def compile_model(
    model: SyncModel,
    strict: bool = False,
    memo: bool = True,
    sample_every: int = 1024,
) -> CompiledKernel:
    """Compile ``model``'s expansion hot path; cached per model instance.

    Repeat calls with the same options return the same kernel, so the
    successor memo and choice tables built by one enumeration are reused
    by the next (campaigns, ``record_all_conditions`` ablations --
    expansion does not depend on the arc-recording mode -- and pool
    workers, which inherit the coordinator's kernel by fork).
    """
    cache = model.__dict__.setdefault("_kernel_cache", {})
    options = (bool(strict), bool(memo), int(sample_every))
    kernel = cache.get(options)
    if kernel is None:
        kernel = cache[options] = CompiledKernel(
            model, strict=strict, memo=memo, sample_every=sample_every
        )
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
    obs.gauge("enum.kernel.memo_entries", kernel.memo_entries)
    obs.gauge("enum.kernel.choice_tables", kernel.tables.num_tables)
