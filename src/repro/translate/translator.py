"""The Verilog -> Synchronous Murphi translator.

Mapping (section 3.1 of the paper):

- The Verilog concurrency model -- implicit clock advancing when all
  variables are stable -- maps onto the explicit state/non-state split:
  registers assigned in ``always @(posedge clk)`` blocks become state
  variables (with an implicit hold when a path leaves them unassigned),
  and everything else is combinational, re-evaluated from scratch each
  cycle in dependency order.
- Top-level inputs become nondeterministic choice points: the abstract
  environment "tries every combination of values".
- ``// @reset n`` annotations supply reset values (default 0); ``// @state``
  marks the nets the designer delimited as control state (validated, and
  used to report the annotated-line statistics the paper quotes).

Combinational latches (a comb block leaving a variable unassigned on some
path) are rejected: in the stylized subset state must be clocked.
Combinational cycles are rejected as well.

The model's next-state function is generated Python: :class:`_Codegen`
emits the scheduled combinational items and the clocked blocks as one
``next_state(state, choice)`` function over locals, compiled once per
design under the filename ``<translated {top}>``.  The AST interpreter
(``_Translator._next_state``) defines the semantics and is kept as the
compiled function's test oracle.  The same compilation defines
``expand(key, select)``, which expands a packed state over every choice
without building dicts; the model carries it as ``generated_expand``,
and the compiled kernel holds it to ``next_state``.
"""

from __future__ import annotations

import logging
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.enumeration.graph import StateGraph
from repro.hdl import ast
from repro.hdl.elaborate import FlatDesign, elaborate
from repro.hdl.errors import TranslationError
from repro.hdl.parser import parse
from repro.obs.observer import Observer, resolve
from repro.smurphi import ChoicePoint, RangeType, StateVar, SyncModel

logger = logging.getLogger("repro.translate")


def translate_verilog(
    source: str,
    top: str,
    clock: str = "clk",
    choices_override: Optional[Sequence[ChoicePoint]] = None,
    obs: Optional[Observer] = None,
) -> Tuple[SyncModel, FlatDesign]:
    """Parse + elaborate + translate in one call.

    ``obs`` receives one span per front-end phase (``translate.parse``,
    ``translate.elaborate``, ``translate.build``) plus gauges for the
    translated model's state bits and free inputs.
    """
    obs = resolve(obs)
    with obs.span("translate.parse", top=top):
        design = parse(source)
    with obs.span("translate.elaborate", top=top):
        flat = elaborate(design, top, clock=clock)
    with obs.span("translate.build", top=top):
        model = translate(flat, choices_override=choices_override)
    obs.gauge("translate.state_bits", model.state_bits())
    obs.gauge("translate.free_inputs", len(model.choice_names))
    logger.info(
        "translated top %s: %d state bits, %d free inputs",
        top, model.state_bits(), len(model.choice_names),
    )
    return model, flat


def translate(
    flat: FlatDesign,
    choices_override: Optional[Sequence[ChoicePoint]] = None,
) -> SyncModel:
    """Translate a flattened design into a :class:`SyncModel`.

    ``choices_override`` lets the designer supply the abstract environment
    model explicitly -- restricted domains, guards, and inactive values for
    the free inputs (this is the Murphi-side modeling the paper describes
    for the PC, caches, Inbox, Outbox...).  Every free input must be
    covered; names must match.
    """
    return _Translator(flat, choices_override).build()


class _Translator:
    def __init__(
        self,
        flat: FlatDesign,
        choices_override: Optional[Sequence[ChoicePoint]] = None,
    ):
        self.flat = flat
        self.choices_override = (
            list(choices_override) if choices_override is not None else None
        )
        self.widths: Dict[str, int] = {
            name: net.width for name, net in flat.nets.items()
        }
        self.state_names = self._find_state_registers()
        self.choice_names = list(flat.free_inputs)
        self.comb_items = self._schedule_combinational()
        self.clocked_blocks = [b for b in flat.always_blocks if b.clocked]
        self._check_single_driver()
        self._checked_fn: Optional[Callable[[Mapping, Mapping], Dict]] = None

    # -- analysis -----------------------------------------------------------

    def _find_state_registers(self) -> List[str]:
        """Latch analysis: every register assigned under a clock edge holds
        state across cycles and becomes an explicit state variable."""
        state: List[str] = []
        seen: Set[str] = set()
        for block in self.flat.always_blocks:
            if not block.clocked:
                continue
            for target in _targets(block.body):
                if target not in self.flat.nets:
                    raise TranslationError(f"assignment to undeclared net {target!r}")
                if self.flat.nets[target].kind != "reg":
                    raise TranslationError(
                        f"{target!r} is a wire but assigned in a clocked block"
                    )
                if target not in seen:
                    seen.add(target)
                    state.append(target)
        return state

    def _schedule_combinational(self) -> List:
        """Topologically order continuous assigns and comb always blocks."""
        items: List[Tuple[Set[str], Set[str], object]] = []  # (defs, uses, item)
        for assign in self.flat.assigns:
            items.append((_item_defines(assign), _item_reads(assign), assign))
        for block in self.flat.always_blocks:
            if block.clocked:
                continue
            defines = _item_defines(block)
            self._check_no_comb_latch(block, defines)
            items.append((defines, _item_reads(block) - defines, block))

        known = set(self.state_names) | set(self.choice_names)
        ordered: List = []
        remaining = list(items)
        while remaining:
            progressed = False
            for entry in list(remaining):
                defines, uses, item = entry
                if uses <= known | defines:
                    ordered.append(item)
                    known |= defines
                    remaining.remove(entry)
                    progressed = True
            if not progressed:
                unresolved = sorted(
                    name for defines, uses, _ in remaining for name in uses - known
                )
                raise TranslationError(
                    "combinational loop or undriven net involving: "
                    + ", ".join(sorted({n for d, _, _ in remaining for n in d}))
                    + (f" (unresolved reads: {unresolved[:6]})" if unresolved else "")
                )
        return ordered

    def _check_no_comb_latch(self, block: ast.AlwaysBlock, defines: Set[str]) -> None:
        always_assigned = _assigned_on_all_paths(block.body)
        latched = defines - always_assigned
        if latched:
            raise TranslationError(
                f"combinational latch inferred on {sorted(latched)}: assign a "
                "default at the top of the always @(*) block",
                block.line,
            )

    def _check_single_driver(self) -> None:
        drivers: Dict[str, int] = {}
        for assign in self.flat.assigns:
            drivers[assign.target] = drivers.get(assign.target, 0) + 1
        for block in self.flat.always_blocks:
            for target in _targets(block.body):
                drivers[target] = drivers.get(target, 0) + 1
        multi = sorted(name for name, count in drivers.items() if count > 1)
        if multi:
            raise TranslationError(f"multiple drivers for: {multi}")
        for name in drivers:
            if name not in self.flat.nets:
                raise TranslationError(f"assignment to undeclared net {name!r}")

    # -- model construction ---------------------------------------------------------

    def build(self) -> SyncModel:
        state_vars = []
        for name in self.state_names:
            net = self.flat.nets[name]
            reset = net.reset_value
            limit = (1 << net.width) - 1
            if not 0 <= reset <= limit:
                raise TranslationError(
                    f"@reset {reset} does not fit in {net.width} bits of {name!r}",
                    net.line,
                )
            state_vars.append(StateVar(name, RangeType(0, limit), reset))
        if self.choices_override is not None:
            override_names = [c.name for c in self.choices_override]
            if sorted(override_names) != sorted(self.choice_names):
                raise TranslationError(
                    "choices_override must cover exactly the free inputs "
                    f"{sorted(self.choice_names)}, got {sorted(override_names)}"
                )
            for point in self.choices_override:
                limit = (1 << self.widths[point.name]) - 1
                for value in point.type.values():
                    if not 0 <= int(value) <= limit:
                        raise TranslationError(
                            f"override domain of {point.name!r} exceeds its "
                            f"{self.widths[point.name]}-bit port"
                        )
            choices = self.choices_override
        else:
            choices = [
                ChoicePoint(name, RangeType(0, (1 << self.widths[name]) - 1))
                for name in self.choice_names
            ]
        source = _Codegen(self, False, state_vars, choices).source()
        namespace = self._exec(source, self._next_state_checked)
        return SyncModel(
            name=self.flat.name,
            state_vars=state_vars,
            choices=choices,
            next_state=namespace.pop("next_state"),
            generated_expand=namespace.pop("expand"),
        )

    # -- compiled functions -----------------------------------------------------------

    def _exec(self, source: str, checked: Optional[Callable]) -> Dict[str, object]:
        """Compile and run ``source``; return its globals.

        Callers pop the functions they keep, so no function stays in a
        cycle with its own globals.
        """
        namespace = dict(_RUNTIME, _checked=checked)
        exec(compile(source, f"<translated {self.flat.name}>", "exec"), namespace)
        return namespace

    def _next_state_checked(self, state: Mapping, choice: Mapping) -> Dict:
        """The checked ``next_state``, compiled on first use: the fast one
        hands it any ``state`` or ``choice`` whose keys are not exactly
        the state variables and free inputs."""
        if self._checked_fn is None:
            source = _Codegen(self, True).source()
            self._checked_fn = self._exec(source, None).pop("next_state")
        return self._checked_fn(state, choice)

    # -- reference interpreter (the compiled function's test oracle) -----------------

    def _next_state(self, state: Mapping, choice: Mapping) -> Dict:
        env: Dict[str, int] = {}
        env.update(state)
        env.update(choice)
        for item in self.comb_items:
            if isinstance(item, ast.ContinuousAssign):
                env[item.target] = self._mask(item.target, self._eval(item.value, env))
            else:
                self._exec_block(item.body, env)
        updates: Dict[str, int] = {}
        for block in self.clocked_blocks:
            self._exec_clocked(block.body, env, updates)
        return {
            name: updates.get(name, state[name]) for name in self.state_names
        }

    def _exec_block(self, body: Sequence[ast.Statement], env: Dict[str, int]) -> None:
        for statement in body:
            if isinstance(statement, ast.Assign):
                if statement.nonblocking:
                    raise TranslationError(
                        "non-blocking assignment in combinational block",
                        statement.line,
                    )
                env[statement.target] = self._mask(
                    statement.target, self._eval(statement.value, env)
                )
            elif isinstance(statement, ast.If):
                branch = (
                    statement.then_body
                    if self._eval(statement.condition, env)
                    else statement.else_body
                )
                self._exec_block(branch, env)
            elif isinstance(statement, ast.Case):
                self._exec_block(self._case_branch(statement, env), env)

    def _exec_clocked(
        self, body: Sequence[ast.Statement], env: Mapping, updates: Dict[str, int]
    ) -> None:
        for statement in body:
            if isinstance(statement, ast.Assign):
                if not statement.nonblocking:
                    raise TranslationError(
                        "blocking assignment in clocked block (use <=)",
                        statement.line,
                    )
                updates[statement.target] = self._mask(
                    statement.target, self._eval(statement.value, env)
                )
            elif isinstance(statement, ast.If):
                branch = (
                    statement.then_body
                    if self._eval(statement.condition, env)
                    else statement.else_body
                )
                self._exec_clocked(branch, env, updates)
            elif isinstance(statement, ast.Case):
                self._exec_clocked(self._case_branch(statement, env), env, updates)

    def _case_branch(self, statement: ast.Case, env: Mapping) -> List[ast.Statement]:
        subject = self._eval(statement.subject, env)
        default: List[ast.Statement] = []
        for keys, body in statement.items:
            if keys is None:
                default = body
                continue
            if any(self._eval(k, env) == subject for k in keys):
                return body
        return default

    def _mask(self, name: str, value: int) -> int:
        return value & ((1 << self.widths[name]) - 1)

    def _eval(self, expr: ast.Expr, env: Mapping) -> int:
        if isinstance(expr, ast.Number):
            value = expr.value
            if expr.width:
                value &= (1 << expr.width) - 1
            return value
        if isinstance(expr, ast.Ident):
            try:
                return int(env[expr.name])
            except KeyError:
                raise TranslationError(f"read of undriven net {expr.name!r}") from None
        if isinstance(expr, ast.Index):
            base = env.get(expr.base)
            if base is None:
                raise TranslationError(f"read of undriven net {expr.base!r}")
            return (int(base) >> self._eval(expr.index, env)) & 1
        if isinstance(expr, ast.Unary):
            return self._eval_unary(expr, env)
        if isinstance(expr, ast.Binary):
            return self._eval_binary(expr, env)
        if isinstance(expr, ast.Ternary):
            if self._eval(expr.condition, env):
                return self._eval(expr.if_true, env)
            return self._eval(expr.if_false, env)
        raise TranslationError(f"unsupported expression {expr!r}")

    def _eval_unary(self, expr: ast.Unary, env: Mapping) -> int:
        if expr.op in ("&", "|", "^"):
            # Reduction operators need a width: only direct net reads.
            if not isinstance(expr.operand, ast.Ident):
                raise TranslationError(
                    f"reduction {expr.op!r} applies only to a plain net"
                )
            width = self.widths[expr.operand.name]
            bits = [
                (self._eval(expr.operand, env) >> i) & 1 for i in range(width)
            ]
            if expr.op == "&":
                return int(all(bits))
            if expr.op == "|":
                return int(any(bits))
            result = 0
            for bit in bits:
                result ^= bit
            return result
        operand = self._eval(expr.operand, env)
        if expr.op == "!":
            return int(operand == 0)
        if expr.op == "~":
            width = (
                self.widths[expr.operand.name]
                if isinstance(expr.operand, ast.Ident)
                else 32
            )
            return (~operand) & ((1 << width) - 1)
        if expr.op == "-":
            return -operand
        return operand  # unary +

    def _eval_binary(self, expr: ast.Binary, env: Mapping) -> int:
        op = expr.op
        if op == "&&":
            return int(bool(self._eval(expr.left, env)) and bool(self._eval(expr.right, env)))
        if op == "||":
            return int(bool(self._eval(expr.left, env)) or bool(self._eval(expr.right, env)))
        left = self._eval(expr.left, env)
        right = self._eval(expr.right, env)
        table: Dict[str, Callable[[], int]] = {
            "+": lambda: left + right,
            "-": lambda: left - right,
            "*": lambda: left * right,
            "/": lambda: left // right if right else 0,
            "%": lambda: left % right if right else 0,
            "&": lambda: left & right,
            "|": lambda: left | right,
            "^": lambda: left ^ right,
            "<<": lambda: left << right,
            ">>": lambda: left >> right,
            "==": lambda: int(left == right),
            "!=": lambda: int(left != right),
            "<": lambda: int(left < right),
            "<=": lambda: int(left <= right),
            ">": lambda: int(left > right),
            ">=": lambda: int(left >= right),
        }
        if op not in table:
            raise TranslationError(f"unsupported operator {op!r}")
        return table[op]()


# ---------------------------------------------------------------- code generation

#: Binary operators Python evaluates exactly as the interpreter does.
_NATIVE_BINARY = frozenset(
    ("+", "-", "*", "&", "|", "^", "<<", ">>", "==", "!=", "<", "<=", ">", ">=")
)


def _number(expr: ast.Number) -> int:
    if expr.width:
        return expr.value & ((1 << expr.width) - 1)
    return expr.value


def _div(left: int, right: int) -> int:
    return left // right if right else 0


def _mod(left: int, right: int) -> int:
    return left % right if right else 0


def _undriven(name: str) -> int:
    raise TranslationError(f"read of undriven net {name!r}")


def _fail(message: str, *evaluated: int) -> int:
    """Raise ``message`` after the caller's operands were evaluated."""
    raise TranslationError(message)


def _no_width(name: str, *evaluated: int) -> int:
    """The interpreter's width lookup of an undeclared net."""
    raise KeyError(name)


#: Globals of every generated function.
_RUNTIME = {
    "_TranslationError": TranslationError,
    "_div": _div,
    "_mod": _mod,
    "_undriven": _undriven,
    "_fail": _fail,
    "_no_width": _no_width,
}


class _Codegen:
    """Emits the source of ``next_state(state, choice)`` and, for the fast
    variant, ``expand(key, select)``.

    Each net lives in a Python local (``v<i>_<name>``); each non-blocking
    target gets a second local (``u<i>_<name>``) so that clocked blocks
    read the old register values.  A definite-assignment analysis decides,
    per read, whether the net is certainly bound there; only the other
    reads are checked, against a ``None`` the prelude binds.

    The fast variant (``checked=False``) loads every state variable and
    free input up front, so those reads are never checked.  The checked
    variant binds every checked net from the interpreter's ``env``
    (``state`` updated by ``choice``) and starts with nothing bound, which
    reproduces the interpreter's failures on incomplete or extra keys.

    ``expand`` is ``next_state`` over every choice of one packed state at
    once.  It unpacks each state variable from ``key`` by shift and mask,
    hands ``select`` (:meth:`ChoiceTables.select`) one state dict for the
    guards, and runs once per state the combinational items whose reads
    are, transitively, state variables only.  A flat loop over the
    choice table binds the free inputs from each condition tuple, runs
    the other items and the clocked blocks, and packs the successor by
    shift and or.  It returns ``(mask, row)``, ``row`` holding one
    ``(condition, successor_key)`` pair per table entry, in table order.
    """

    def __init__(
        self,
        translator: _Translator,
        checked: bool,
        state_vars: Sequence[StateVar] = (),
        choices: Sequence[ChoicePoint] = (),
    ):
        self.translator = translator
        self.checked = checked
        self.widths = translator.widths
        self.state_vars = list(state_vars)
        self.choices = list(choices)
        self.locals: Dict[str, str] = {}
        #: Nets read where they may be unassigned, in first-read order.
        self.unbound_reads: Dict[str, None] = {}
        self.readable: Optional[Set[str]] = None  # fixed in clocked blocks
        self.temps = 0

    def source(self) -> str:
        t = self.translator
        inputs = list(t.state_names) + list(t.choice_names)
        defined: Set[str] = set() if self.checked else set(inputs)

        comb: List[List[str]] = []  # the lines of each comb item
        for item in t.comb_items:
            lines: List[str] = []
            if isinstance(item, ast.ContinuousAssign):
                value = self._masked(item.target, item.value, defined)
                lines.append(f"    {self._local(item.target)} = {value}")
                defined = defined | {item.target}
            else:
                defined = self._block(item.body, lines, 1, defined, clocked=False)
            comb.append(lines)

        self.readable = defined
        clocked: List[str] = []
        assigned: Set[str] = set()
        for block in t.clocked_blocks:
            assigned = self._block(block.body, clocked, 1, assigned, clocked=True)
        held = [name for name in t.state_names if name not in assigned]

        lines = ["def next_state(state, choice):"]
        if self.checked:
            lines += ["    _env = dict(state)", "    _env.update(choice)"]
            lines += [
                f"    {self._local(name)} = _env.get({name!r})"
                for name in self.unbound_reads
            ]
        else:
            lines += [
                f"    if len(state) != {len(t.state_names)} "
                f"or len(choice) != {len(t.choice_names)}:",
                "        return _checked(state, choice)",
                "    try:",
            ]
            lines += [
                f"        {self._local(name)} = state[{name!r}]"
                for name in t.state_names
            ]
            lines += [
                f"        {self._local(name)} = choice[{name!r}]"
                for name in t.choice_names
            ]
            if not inputs:
                lines.append("        pass")
            lines += [
                "    except KeyError:",
                "        return _checked(state, choice)",
            ]
            lines += [
                f"    {self._local(name)} = None" for name in self.unbound_reads
            ]
        lines += [line for item_lines in comb for line in item_lines]
        # A held register keeps ``state[name]``; the checked variant looks
        # it up only after the clocked blocks ran, as the interpreter does.
        for name in held:
            initial = "None" if self.checked else self._local(name)
            lines.append(f"    {self._next(name)} = {initial}")
        lines += clocked
        if self.checked:
            lines.append(f"    for _name in {tuple(t.state_names)!r}: state[_name]")
        entries = []
        for name in t.state_names:
            value = self._next(name)
            if self.checked and name in held:
                value = f"(state[{name!r}] if {value} is None else {value})"
            entries.append(f"{name!r}: {value}")
        lines.append("    return {" + ", ".join(entries) + "}")
        if not self.checked:
            lines += self._expand(comb, held, clocked)
        return "\n".join(lines) + "\n"

    def _expand(
        self, comb: List[List[str]], held: List[str], clocked: List[str]
    ) -> List[str]:
        """The lines of ``expand(key, select)``; ``comb`` holds the lines
        of each scheduled comb item, ``clocked`` those of the clocked
        blocks, both as ``next_state`` runs them."""
        t = self.translator
        # A translated state variable is RangeType(0, 2**width - 1), so its
        # packed index is its value: unpacking is a shift and a mask.
        assert [v.name for v in self.state_vars] == list(t.state_names)
        assert sorted(c.name for c in self.choices) == sorted(t.choice_names)
        fields: List[Tuple[str, int, int]] = []  # (name, offset, mask)
        offset = 0
        for var in self.state_vars:
            width = self.widths[var.name]
            assert isinstance(var.type, RangeType)
            assert (var.type.lo, var.type.hi) == (0, (1 << width) - 1)
            assert var.type.bit_width() == width
            fields.append((var.name, offset, (1 << width) - 1))
            offset += width

        lines = ["", "", "def expand(key, select):"]
        for name, offset, mask in fields:
            shifted = f"(key >> {offset})" if offset else "key"
            lines.append(f"    {self._local(name)} = {shifted} & {mask}")
        state = ", ".join(f"{name!r}: {self._local(name)}" for name, _, _ in fields)
        lines.append(f"    _mask, _table = select({{{state}}})")
        lines += [f"    {self._local(name)} = None" for name in self.unbound_reads]

        per_state = set(t.state_names)  # nets fixed for the whole state
        loop: List[str] = []
        loop_defines: Set[str] = set()
        for item, item_lines in zip(t.comb_items, comb):
            defines = _item_defines(item)
            if _item_reads(item) - defines <= per_state:
                lines += item_lines
                per_state |= defines
            else:
                loop += item_lines
                loop_defines |= defines

        lines += ["    _row = []", "    _append = _row.append", "    for _, _cond in _table:"]
        if self.choices:
            targets = "".join(f"{self._local(c.name)}, " for c in self.choices)
            lines.append(f"        {targets}= _cond")
        # A loop item may read its own target before assigning it; that
        # read must fail as in ``next_state``, not see the last choice's.
        lines += [
            f"        {self._local(name)} = None"
            for name in self.unbound_reads if name in loop_defines
        ]
        lines += ["    " + line for line in loop]
        lines += [f"        {self._next(name)} = {self._local(name)}" for name in held]
        lines += ["    " + line for line in clocked]
        successor = " | ".join(
            f"({self._next(name)} << {offset})" if offset else self._next(name)
            for name, offset, _ in fields
        )
        lines.append(f"        _append((_cond, {successor or '0'}))")
        lines.append("    return _mask, tuple(_row)")
        return lines

    # -- names ---------------------------------------------------------------

    def _local(self, name: str) -> str:
        local = self.locals.get(name)
        if local is None:
            slug = "".join(ch if ch.isalnum() else "_" for ch in name)
            local = self.locals[name] = f"v{len(self.locals)}_{slug}"
        return local

    def _next(self, name: str) -> str:
        return "u" + self._local(name)[1:]

    def _read(self, name: str, bound: Set[str]) -> str:
        local = self._local(name)
        if name in bound:
            return local
        self.unbound_reads[name] = None
        return f"({local} if {local} is not None else _undriven({name!r}))"

    # -- statements ------------------------------------------------------------

    def _block(
        self,
        body: Sequence[ast.Statement],
        out: List[str],
        depth: int,
        defined: Set[str],
        clocked: bool,
    ) -> Set[str]:
        """Emit ``body``; return the targets definitely assigned after it.

        Comb blocks read what they define; clocked blocks read the fixed
        ``self.readable`` and define next-state targets.
        """
        pad = "    " * depth
        start = len(out)
        for statement in body:
            bound = self.readable if clocked else defined
            if isinstance(statement, ast.Assign):
                if statement.nonblocking != clocked:
                    message = (
                        "blocking assignment in clocked block (use <=)"
                        if clocked
                        else "non-blocking assignment in combinational block"
                    )
                    out.append(
                        f"{pad}raise _TranslationError({message!r}, {statement.line})"
                    )
                    continue
                value = self._masked(statement.target, statement.value, bound)
                target = (
                    self._next(statement.target) if clocked
                    else self._local(statement.target)
                )
                out.append(f"{pad}{target} = {value}")
                defined = defined | {statement.target}
            elif isinstance(statement, ast.If):
                out.append(f"{pad}if {self._cond(statement.condition, bound)}:")
                then_defined = self._block(
                    statement.then_body, out, depth + 1, defined, clocked
                )
                else_defined = defined
                if statement.else_body:
                    out.append(f"{pad}else:")
                    else_defined = self._block(
                        statement.else_body, out, depth + 1, defined, clocked
                    )
                defined = then_defined & else_defined
            elif isinstance(statement, ast.Case):
                defined = self._case(statement, out, depth, defined, clocked, bound)
        if len(out) == start:
            out.append(f"{pad}pass")
        return defined

    def _case(
        self,
        statement: ast.Case,
        out: List[str],
        depth: int,
        defined: Set[str],
        clocked: bool,
        bound: Set[str],
    ) -> Set[str]:
        """First matching item wins; the last ``default`` is the fallback."""
        pad = "    " * depth
        subject = f"_c{self.temps}"
        self.temps += 1
        out.append(f"{pad}{subject} = {self._expr(statement.subject, bound)}")
        default: List[ast.Statement] = []
        outcomes: List[Set[str]] = []
        keyword = "if"
        for keys, body in statement.items:
            if keys is None:
                default = body
                continue
            matches = " or ".join(
                f"{self._expr(key, bound)} == {subject}" for key in keys
            )
            out.append(f"{pad}{keyword} {matches or 'False'}:")
            outcomes.append(self._block(body, out, depth + 1, defined, clocked))
            keyword = "elif"
        if keyword == "if":  # no keyed item: the default always runs
            return self._block(default, out, depth, defined, clocked)
        if default:
            out.append(f"{pad}else:")
            outcomes.append(self._block(default, out, depth + 1, defined, clocked))
        else:
            outcomes.append(defined)
        return set.intersection(*outcomes)

    # -- expressions -------------------------------------------------------------

    def _masked(self, target: str, expr: ast.Expr, bound: Set[str]) -> str:
        mask = (1 << self.widths[target]) - 1
        if isinstance(expr, ast.Number):
            return repr(_number(expr) & mask)
        return f"({self._expr(expr, bound)} & {mask})"

    def _cond(self, expr: ast.Expr, bound: Set[str]) -> str:
        """An expression with the truth value of ``expr``, not its value."""
        if isinstance(expr, ast.Binary) and expr.op in ("&&", "||"):
            joiner = "and" if expr.op == "&&" else "or"
            return (
                f"({self._cond(expr.left, bound)} {joiner} "
                f"{self._cond(expr.right, bound)})"
            )
        if isinstance(expr, ast.Unary) and expr.op == "!":
            return f"(not {self._cond(expr.operand, bound)})"
        return self._expr(expr, bound)

    def _expr(self, expr: ast.Expr, bound: Set[str]) -> str:
        """A parenthesized (or atomic) Python expression for ``expr``.

        Operands are evaluated in the interpreter's order, so a failing
        read raises for the same net.
        """
        if isinstance(expr, ast.Number):
            value = _number(expr)
            return repr(value) if value >= 0 else f"({value!r})"
        if isinstance(expr, ast.Ident):
            return self._read(expr.name, bound)
        if isinstance(expr, ast.Index):
            base = self._read(expr.base, bound)
            return f"(({base} >> {self._expr(expr.index, bound)}) & 1)"
        if isinstance(expr, ast.Unary):
            return self._unary(expr, bound)
        if isinstance(expr, ast.Binary):
            return self._binary(expr, bound)
        if isinstance(expr, ast.Ternary):
            return (
                f"({self._expr(expr.if_true, bound)} "
                f"if {self._cond(expr.condition, bound)} "
                f"else {self._expr(expr.if_false, bound)})"
            )
        return f"_fail({f'unsupported expression {expr!r}'!r})"

    def _unary(self, expr: ast.Unary, bound: Set[str]) -> str:
        op, operand = expr.op, expr.operand
        if op in ("&", "|", "^"):
            if not isinstance(operand, ast.Ident):
                message = f"reduction {op!r} applies only to a plain net"
                return f"_fail({message!r})"
            if operand.name not in self.widths:
                return f"_no_width({operand.name!r})"
            mask = (1 << self.widths[operand.name]) - 1
            bits = f"({self._read(operand.name, bound)} & {mask})"
            if op == "&":
                return f"({bits} == {mask})"
            if op == "|":
                return f"({bits} != 0)"
            return f"(bin({bits}).count('1') & 1)"
        if op == "!":
            return f"(not {self._cond(operand, bound)})"
        value = self._expr(operand, bound)
        if op == "~":
            if not isinstance(operand, ast.Ident):
                return f"(~{value} & {(1 << 32) - 1})"
            if operand.name not in self.widths:
                return f"_no_width({operand.name!r}, {value})"
            return f"(~{value} & {(1 << self.widths[operand.name]) - 1})"
        if op == "-":
            return f"(-{value})"
        return value  # unary +

    def _binary(self, expr: ast.Binary, bound: Set[str]) -> str:
        op = expr.op
        if op in ("&&", "||"):
            return f"(1 if {self._cond(expr, bound)} else 0)"
        left = self._expr(expr.left, bound)
        right = self._expr(expr.right, bound)
        if op in _NATIVE_BINARY:
            return f"({left} {op} {right})"
        if op == "/":
            return f"_div({left}, {right})"
        if op == "%":
            return f"_mod({left}, {right})"
        return f"_fail({f'unsupported operator {op!r}'!r}, {left}, {right})"


# ---------------------------------------------------------------- static helpers


def _targets(body: Sequence[ast.Statement]) -> Set[str]:
    found: Set[str] = set()
    for statement in body:
        if isinstance(statement, ast.Assign):
            found.add(statement.target)
        elif isinstance(statement, ast.If):
            found |= _targets(statement.then_body)
            found |= _targets(statement.else_body)
        elif isinstance(statement, ast.Case):
            for _, case_body in statement.items:
                found |= _targets(case_body)
    return found


def _item_defines(item) -> Set[str]:
    """The nets one scheduled comb item (assign or block) drives."""
    if isinstance(item, ast.ContinuousAssign):
        return {item.target}
    return _targets(item.body)


def _item_reads(item) -> Set[str]:
    """The nets one scheduled comb item reads."""
    if isinstance(item, ast.ContinuousAssign):
        return _expr_uses(item.value)
    return _block_uses(item.body)


def _assigned_on_all_paths(body: Sequence[ast.Statement]) -> Set[str]:
    assigned: Set[str] = set()
    for statement in body:
        if isinstance(statement, ast.Assign):
            assigned.add(statement.target)
        elif isinstance(statement, ast.If):
            then_set = _assigned_on_all_paths(statement.then_body)
            else_set = _assigned_on_all_paths(statement.else_body)
            assigned |= then_set & else_set
        elif isinstance(statement, ast.Case):
            has_default = any(keys is None for keys, _ in statement.items)
            if statement.items and has_default:
                sets = [
                    _assigned_on_all_paths(case_body)
                    for _, case_body in statement.items
                ]
                common = sets[0]
                for other in sets[1:]:
                    common &= other
                assigned |= common
    return assigned


def _expr_uses(expr: ast.Expr) -> Set[str]:
    if isinstance(expr, ast.Ident):
        return {expr.name}
    if isinstance(expr, ast.Index):
        return {expr.base} | _expr_uses(expr.index)
    if isinstance(expr, ast.Unary):
        return _expr_uses(expr.operand)
    if isinstance(expr, ast.Binary):
        return _expr_uses(expr.left) | _expr_uses(expr.right)
    if isinstance(expr, ast.Ternary):
        return (
            _expr_uses(expr.condition)
            | _expr_uses(expr.if_true)
            | _expr_uses(expr.if_false)
        )
    return set()


def _block_uses(body: Sequence[ast.Statement]) -> Set[str]:
    used: Set[str] = set()
    for statement in body:
        if isinstance(statement, ast.Assign):
            used |= _expr_uses(statement.value)
        elif isinstance(statement, ast.If):
            used |= _expr_uses(statement.condition)
            used |= _block_uses(statement.then_body)
            used |= _block_uses(statement.else_body)
        elif isinstance(statement, ast.Case):
            used |= _expr_uses(statement.subject)
            for keys, case_body in statement.items:
                if keys:
                    for key in keys:
                        used |= _expr_uses(key)
                used |= _block_uses(case_body)
    return used


def input_vectors_for_walk(
    model: SyncModel, graph: StateGraph, walk: Sequence[int]
) -> List[Dict[str, int]]:
    """The generic transition-condition mapping for translated designs.

    Each arc of the walk yields one cycle's worth of input forcing: the
    assignment of every free input that the enumeration recorded on that
    arc.  This is exactly what a force/release file encodes.
    """
    vectors: List[Dict[str, int]] = []
    for index in walk:
        edge = graph.edge(index)
        vectors.append(dict(zip(model.choice_names, edge.condition)))
    return vectors
