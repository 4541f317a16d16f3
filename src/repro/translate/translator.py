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

Translation rejects every construct that would fail when the model runs
(:meth:`_Translator._check_statements`): a combinational latch (a comb
block leaving a variable unassigned on some path -- in the stylized
subset state must be clocked) or a comb block reading a variable before
every path has assigned it; combinational cycles and multiple drivers; a
blocking assignment in a clocked block or a non-blocking one in a
combinational block; a reduction of anything but a plain net; a read of
an undeclared net, or a clocked read of a net nothing drives; and any
operator or expression outside the parser's set.

The model's next-state function is generated Python: :class:`_Codegen`
emits the scheduled combinational items and the clocked blocks as one
``next_state(state, choice)`` function over locals, compiled once per
design under the filename ``<translated {top}>``.  Its only run-time
check is on its input: a ``state`` or ``choice`` without exactly the
state variables and free inputs as keys raises one
:class:`TranslationError`.  The same compilation defines
``expand(key, select)``, which expands a packed state over every choice
without building dicts; the model carries it as ``generated_expand``,
and the compiled kernel holds it to ``next_state``.  An AST interpreter
in the test suite (``tests/oracles.py``) defines the semantics and is
the generated functions' oracle.
"""

from __future__ import annotations

import logging
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

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
        self._check_single_driver()
        self.state_names = self._find_state_registers()
        self.choice_names = list(flat.free_inputs)
        self.comb_items = self._schedule_combinational()
        self.clocked_blocks = [b for b in flat.always_blocks if b.clocked]
        self._check_statements()

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
                if self.flat.nets[target].kind != "reg":
                    raise TranslationError(
                        f"{target!r} is a wire but assigned in a clocked block"
                    )
                if target not in seen:
                    seen.add(target)
                    state.append(target)
        return state

    def _schedule_combinational(self) -> List:
        """Topologically order continuous assigns and comb always blocks.

        Reads of undeclared nets do not order anything: the statement
        check names them with their line, as it does in a clocked block.
        """
        declared = self.flat.nets.keys()
        items: List[Tuple[Set[str], Set[str], object]] = []  # (defs, uses, item)
        for assign in self.flat.assigns:
            items.append((_item_defines(assign), _item_reads(assign) & declared, assign))
        for block in self.flat.always_blocks:
            if block.clocked:
                continue
            defines = _item_defines(block)
            items.append((defines, (_item_reads(block) - defines) & declared, block))

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

    def _check_statements(self) -> None:
        """Reject, at translation, every construct that would fail when
        ``next_state`` runs it: a combinational latch, an assignment of
        the wrong kind, a read that may meet an unassigned net, and an
        operator or expression outside the supported set."""
        known = set(self.state_names) | set(self.choice_names)
        for item in self.comb_items:
            if isinstance(item, ast.ContinuousAssign):
                self._check_expr(item.value, known, False, item.line)
                known = known | {item.target}
                continue
            assigned = self._check_body(item.body, known, None, item.line)
            latched = _item_defines(item) - assigned
            if latched:
                raise TranslationError(
                    f"combinational latch inferred on {sorted(latched)}: assign a "
                    "default at the top of the always @(*) block",
                    item.line,
                )
            known = assigned
        # The state variables some clocked path leaves unassigned: only
        # these need their implicit hold.
        self.held = set(self.state_names)
        for block in self.clocked_blocks:
            self.held -= self._check_body(block.body, set(), known, block.line)

    def _check_body(
        self,
        body: Sequence[ast.Statement],
        assigned: Set[str],
        readable: Optional[Set[str]],
        line: int,
    ) -> Set[str]:
        """Check ``body``; return the nets assigned on every path through it.

        A clocked block reads only ``readable``, the nets the comb logic
        settles; a combinational block (``readable`` is ``None``) reads
        only what every path has assigned by then.
        """
        clocked = readable is not None
        for statement in body:
            reads = readable if clocked else assigned
            if isinstance(statement, ast.Assign):
                at = statement.line or line
                if statement.nonblocking != clocked:
                    raise TranslationError(
                        "blocking assignment in clocked block (use <=)"
                        if clocked
                        else "non-blocking assignment in combinational block",
                        at,
                    )
                self._check_expr(statement.value, reads, clocked, at)
                assigned = assigned | {statement.target}
            elif isinstance(statement, ast.If):
                self._check_expr(statement.condition, reads, clocked, line)
                assigned = self._check_body(
                    statement.then_body, assigned, readable, line
                ) & self._check_body(statement.else_body, assigned, readable, line)
            elif isinstance(statement, ast.Case):
                self._check_expr(statement.subject, reads, clocked, line)
                outcomes = []
                for keys, case_body in statement.items:
                    for key in keys or ():
                        self._check_expr(key, reads, clocked, line)
                    outcomes.append(
                        self._check_body(case_body, assigned, readable, line)
                    )
                if all(keys is not None for keys, _ in statement.items):
                    outcomes.append(assigned)  # no default: nothing may run
                assigned = set.intersection(*outcomes)
        return assigned

    def _check_expr(
        self, expr: ast.Expr, readable: Set[str], clocked: bool, line: int
    ) -> None:
        parts: Sequence[ast.Expr] = ()
        if isinstance(expr, (ast.Ident, ast.Index)):
            name = expr.name if isinstance(expr, ast.Ident) else expr.base
            if name not in readable:
                raise TranslationError(
                    f"read of undeclared net {name!r}" if name not in self.flat.nets
                    else f"read of undriven net {name!r}" if clocked
                    else f"read of {name!r} before every path assigns it",
                    line,
                )
            if isinstance(expr, ast.Index):
                parts = (expr.index,)
        elif isinstance(expr, ast.Unary):
            if expr.op not in _UNARY:
                raise TranslationError(f"unsupported operator {expr.op!r}", line)
            if expr.op in _REDUCTIONS and not isinstance(expr.operand, ast.Ident):
                raise TranslationError(
                    f"reduction {expr.op!r} applies only to a plain net", line
                )
            parts = (expr.operand,)
        elif isinstance(expr, ast.Binary):
            if expr.op not in _BINARY:
                raise TranslationError(f"unsupported operator {expr.op!r}", line)
            parts = (expr.left, expr.right)
        elif isinstance(expr, ast.Ternary):
            parts = (expr.condition, expr.if_true, expr.if_false)
        elif not isinstance(expr, ast.Number):
            raise TranslationError(f"unsupported expression {expr!r}", line)
        for part in parts:
            self._check_expr(part, readable, clocked, line)

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
        source = _Codegen(self, state_vars, choices).source()
        # The functions are popped, so neither stays in a cycle with its
        # own globals.
        namespace = dict(_RUNTIME)
        exec(compile(source, f"<translated {self.flat.name}>", "exec"), namespace)
        return SyncModel(
            name=self.flat.name,
            state_vars=state_vars,
            choices=choices,
            next_state=namespace.pop("next_state"),
            generated_expand=namespace.pop("expand"),
        )


# ---------------------------------------------------------------- code generation

_UNARY = frozenset(("!", "~", "-", "+", "&", "|", "^"))
_REDUCTIONS = frozenset(("&", "|", "^"))
_BINARY = frozenset((
    "+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>",
    "==", "!=", "<", "<=", ">", ">=", "&&", "||",
))


def _number(expr: ast.Number) -> int:
    if expr.width:
        return expr.value & ((1 << expr.width) - 1)
    return expr.value


def _div(left: int, right: int) -> int:
    return left // right if right else 0


def _mod(left: int, right: int) -> int:
    return left % right if right else 0


def _key_mismatch(
    state: Mapping, choice: Mapping, state_names: Tuple, choice_names: Tuple
) -> TranslationError:
    """The error for a ``state`` or ``choice`` whose keys are not exactly
    the state variables or free inputs."""
    problems = []
    for kind, given, names in (("state", state, state_names),
                               ("choice", choice, choice_names)):
        missing = [name for name in names if name not in given]
        unexpected = [key for key in given if key not in names]
        problems += [f"{kind} lacks {missing}"] if missing else []
        problems += [f"{kind} has unexpected {unexpected}"] if unexpected else []
    return TranslationError("next_state keys: " + "; ".join(problems))


#: Globals of every generated function.
_RUNTIME = {"_div": _div, "_mod": _mod, "_key_mismatch": _key_mismatch}


class _Codegen:
    """Emits the source of ``next_state(state, choice)`` and
    ``expand(key, select)`` for a design the translator has checked.

    Each net lives in a Python local (``v<i>_<name>``); each state
    variable gets a second local (``u<i>_<name>``), its next value, so
    clocked blocks read the old register values; it starts as the old
    value (the implicit hold) if some clocked path leaves it unassigned.  ``next_state`` loads every state variable
    and free input up front; a ``state`` or ``choice`` without exactly
    those keys raises one :class:`TranslationError` naming the missing
    and unexpected keys.

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
        state_vars: Sequence[StateVar],
        choices: Sequence[ChoicePoint],
    ):
        self.translator = translator
        self.widths = translator.widths
        self.state_vars = list(state_vars)
        self.choices = list(choices)
        self.locals: Dict[str, str] = {}
        self.temps = 0

    def source(self) -> str:
        t = self.translator
        comb: List[List[str]] = []  # the lines of each comb item
        for item in t.comb_items:
            lines: List[str] = []
            if isinstance(item, ast.ContinuousAssign):
                value = self._masked(item.target, item.value)
                lines.append(f"    {self._local(item.target)} = {value}")
            else:
                self._block(item.body, lines, 1, clocked=False)
            comb.append(lines)
        clocked: List[str] = []
        for block in t.clocked_blocks:
            self._block(block.body, clocked, 1, clocked=True)
        holds = [
            f"    {self._next(name)} = {self._local(name)}"
            for name in t.state_names if name in t.held
        ]

        names = (tuple(t.state_names), tuple(t.choice_names))
        mismatch = f"_key_mismatch(state, choice, {names[0]!r}, {names[1]!r})"
        lines = [
            "def next_state(state, choice):",
            f"    if len(state) != {len(names[0])} or len(choice) != {len(names[1])}:",
            f"        raise {mismatch}",
            "    try:",
        ]
        lines += [
            f"        {self._local(name)} = state[{name!r}]" for name in t.state_names
        ]
        lines += [
            f"        {self._local(name)} = choice[{name!r}]" for name in t.choice_names
        ]
        if not t.state_names and not t.choice_names:
            lines.append("        pass")
        lines += ["    except KeyError:", f"        raise {mismatch} from None"]
        lines += [line for item_lines in comb for line in item_lines]
        lines += holds + clocked
        entries = ", ".join(f"{name!r}: {self._next(name)}" for name in t.state_names)
        lines.append("    return {" + entries + "}")
        lines += self._expand(comb, holds, clocked)
        return "\n".join(lines) + "\n"

    def _expand(
        self, comb: List[List[str]], holds: List[str], clocked: List[str]
    ) -> List[str]:
        """The lines of ``expand(key, select)``; ``comb`` holds the lines
        of each scheduled comb item, ``holds`` and ``clocked`` those of
        the next-value locals and the clocked blocks, all as
        ``next_state`` runs them."""
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

        per_state = set(t.state_names)  # nets fixed for the whole state
        loop: List[str] = []
        for item, item_lines in zip(t.comb_items, comb):
            defines = _item_defines(item)
            if _item_reads(item) - defines <= per_state:
                lines += item_lines
                per_state |= defines
            else:
                loop += item_lines

        lines += ["    _row = []", "    _append = _row.append", "    for _, _cond in _table:"]
        if self.choices:
            targets = "".join(f"{self._local(c.name)}, " for c in self.choices)
            lines.append(f"        {targets}= _cond")
        lines += ["    " + line for line in loop + holds + clocked]
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

    # -- statements ------------------------------------------------------------

    def _block(
        self, body: Sequence[ast.Statement], out: List[str], depth: int, clocked: bool
    ) -> None:
        """Emit ``body``: comb blocks assign nets, clocked blocks next values."""
        pad = "    " * depth
        start = len(out)
        for statement in body:
            if isinstance(statement, ast.Assign):
                target = (
                    self._next(statement.target) if clocked
                    else self._local(statement.target)
                )
                value = self._masked(statement.target, statement.value)
                out.append(f"{pad}{target} = {value}")
            elif isinstance(statement, ast.If):
                out.append(f"{pad}if {self._cond(statement.condition)}:")
                self._block(statement.then_body, out, depth + 1, clocked)
                if statement.else_body:
                    out.append(f"{pad}else:")
                    self._block(statement.else_body, out, depth + 1, clocked)
            elif isinstance(statement, ast.Case):
                self._case(statement, out, depth, clocked)
        if len(out) == start:
            out.append(f"{pad}pass")

    def _case(
        self, statement: ast.Case, out: List[str], depth: int, clocked: bool
    ) -> None:
        """First matching item wins; the last ``default`` is the fallback."""
        pad = "    " * depth
        subject = f"_c{self.temps}"
        self.temps += 1
        out.append(f"{pad}{subject} = {self._expr(statement.subject)}")
        default: List[ast.Statement] = []
        keyword = "if"
        for keys, body in statement.items:
            if keys is None:
                default = body
                continue
            matches = " or ".join(f"{self._expr(key)} == {subject}" for key in keys)
            out.append(f"{pad}{keyword} {matches or 'False'}:")
            self._block(body, out, depth + 1, clocked)
            keyword = "elif"
        if keyword == "if":  # no keyed item: the default always runs
            self._block(default, out, depth, clocked)
        elif default:
            out.append(f"{pad}else:")
            self._block(default, out, depth + 1, clocked)

    # -- expressions -------------------------------------------------------------

    def _masked(self, target: str, expr: ast.Expr) -> str:
        mask = (1 << self.widths[target]) - 1
        if isinstance(expr, ast.Number):
            return repr(_number(expr) & mask)
        return f"({self._expr(expr)} & {mask})"

    def _cond(self, expr: ast.Expr) -> str:
        """An expression with the truth value of ``expr``, not its value."""
        if isinstance(expr, ast.Binary) and expr.op in ("&&", "||"):
            joiner = "and" if expr.op == "&&" else "or"
            return f"({self._cond(expr.left)} {joiner} {self._cond(expr.right)})"
        if isinstance(expr, ast.Unary) and expr.op == "!":
            return f"(not {self._cond(expr.operand)})"
        return self._expr(expr)

    def _expr(self, expr: ast.Expr) -> str:
        """A parenthesized (or atomic) Python expression for ``expr``.

        Operands are evaluated left to right, so a negative shift raises
        its ``ValueError`` where the Verilog evaluates it.
        """
        if isinstance(expr, ast.Number):
            value = _number(expr)
            return repr(value) if value >= 0 else f"({value!r})"
        if isinstance(expr, ast.Ident):
            return self._local(expr.name)
        if isinstance(expr, ast.Index):
            return f"(({self._local(expr.base)} >> {self._expr(expr.index)}) & 1)"
        if isinstance(expr, ast.Unary):
            return self._unary(expr)
        if isinstance(expr, ast.Binary):
            return self._binary(expr)
        # The translator admits no expression but these and ``?:``.
        return (
            f"({self._expr(expr.if_true)} if {self._cond(expr.condition)} "
            f"else {self._expr(expr.if_false)})"
        )

    def _unary(self, expr: ast.Unary) -> str:
        op, operand = expr.op, expr.operand
        if op in _REDUCTIONS:  # of a plain net, as the translator checked
            mask = (1 << self.widths[operand.name]) - 1
            bits = f"({self._local(operand.name)} & {mask})"
            if op == "&":
                return f"({bits} == {mask})"
            if op == "|":
                return f"({bits} != 0)"
            return f"(bin({bits}).count('1') & 1)"
        if op == "!":
            return f"(not {self._cond(operand)})"
        value = self._expr(operand)
        if op == "~":
            width = self.widths[operand.name] if isinstance(operand, ast.Ident) else 32
            return f"(~{value} & {(1 << width) - 1})"
        if op == "-":
            return f"(-{value})"
        return value  # unary +

    def _binary(self, expr: ast.Binary) -> str:
        op = expr.op
        if op in ("&&", "||"):
            return f"(1 if {self._cond(expr)} else 0)"
        left, right = self._expr(expr.left), self._expr(expr.right)
        if op == "/":
            return f"_div({left}, {right})"
        if op == "%":
            return f"_mod({left}, {right})"
        return f"({left} {op} {right})"


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
