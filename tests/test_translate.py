"""Tests for elaboration and HDL-to-FSM translation."""

import ast
import functools
import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.enumeration import enumerate_states
from repro.enumeration.kernel import CompiledKernel, compile_model
from repro.hdl import ElaborationError, parse, elaborate
from repro.hdl import ast as hdl_ast
from repro.hdl.parser import _PRECEDENCE
from repro.pp.fsm_model import PPModelConfig
from repro.pp.verilog_src import (
    build_pp_control_model_from_verilog,
    pp_control_choices,
    pp_control_verilog,
)
from repro.smurphi import ChoicePoint, RangeType, SyncModel
from repro.smurphi.compiled import ChoiceTables
from repro.smurphi.fingerprint import fingerprint_model
from repro.smurphi.state import StateCodec
from repro.translate import TranslationError, translate, translate_verilog, input_vectors_for_walk
from repro.translate.translator import _Codegen, _Translator
from tests.oracles import TranslationInterpreter

COUNTER = """
module counter (
  input clk,
  input en,
  output wire busy
);
  // @state
  reg [1:0] n;
  assign busy = n != 0;
  always @(posedge clk) begin
    if (en) begin
      if (n != 3) n <= n + 1;
    end
  end
endmodule
"""

WRAPPING = """
module m (input clk, input en);
  reg [1:0] q;
  always @(posedge clk) q <= q + 1;
endmodule
"""

RESET_TWO = """
module m (input clk);
  // @reset 2
  reg [1:0] q;
  always @(posedge clk) q <= q;
endmodule
"""

CASE_FSM = """
module m (input clk, input go);
  reg [1:0] s;
  always @(posedge clk) begin
    case (s)
      0: if (go) s <= 1;
      1: s <= 2;
      2, 3: s <= 0;
    endcase
  end
endmodule
"""

COMB_FEEDS_STATE = """
module m (input clk, input a, input b);
  wire both = a && b;
  reg q;
  always @(posedge clk) q <= both;
endmodule
"""

COMB_ALWAYS = """
module m (input clk, input [1:0] v);
  reg one_hot;
  reg q;
  always @(*) begin
    one_hot = 0;
    if (v == 1 || v == 2) one_hot = 1;
  end
  always @(posedge clk) q <= one_hot;
endmodule
"""

BLOCKING_IN_CLOCKED = """
module m (input clk, input a);
  reg q;
  always @(posedge clk) q = a;
endmodule
"""

# A comb block reading its own target before assigning it: the read
# would fail only on the cycles that take the ``if``.
SELF_READ = """
module m (input clk, input a);
  reg t;
  reg q;
  always @(*) begin
    if (a) t = t;
    t = q;
  end
  always @(posedge clk) q <= t;
endmodule
"""

# Corner semantics packed into one register: division and modulo by zero,
# ``~`` 32 bits wide on an expression and net-wide on a net, unary minus
# unmasked until assignment, reductions, a sized literal wider than its
# width, and a case with ``default`` first, a two-key item and a hold.
EDGES = """
module edges (input clk, input [1:0] a, input [1:0] b);
  wire [1:0] quo = a / b;
  wire [1:0] rem = a % b;
  wire [3:0] inv = (~(a + 0) >> 28) ^ ~a;
  wire [3:0] neg = (-a < 0) + (-a >> 1);
  wire [1:0] red = (&a) + (|a) + (^a);
  wire [15:0] packed = (quo << 14) | (rem << 12) | (inv << 8) | (neg << 4) | (red << 2);
  reg [15:0] q;
  always @(posedge clk) begin
    case (b)
      default: q <= packed;
      0, 1: q <= packed | 4'd17;
      2: if (a) q <= q + 2; else begin end
    endcase
  end
endmodule
"""


class TestTranslateBasics:
    def test_counter_translates_and_enumerates(self):
        model, flat = translate_verilog(COUNTER, top="counter")
        assert model.state_var_names == ["n"]
        assert model.choice_names == ["en"]
        graph, stats = enumerate_states(model)
        assert stats.num_states == 4  # n in 0..3

    def test_implicit_hold_when_unassigned(self):
        model, _ = translate_verilog(COUNTER, top="counter")
        held = model.step({"n": 2}, {"en": 0})
        assert held == {"n": 2}

    def test_width_masking(self):
        model, _ = translate_verilog(WRAPPING, top="m")
        state = {"q": 3}
        assert model.step(state, {"en": 0}) == {"q": 0}  # wraps at width

    def test_reset_annotation(self):
        model, _ = translate_verilog(RESET_TWO, top="m")
        assert model.reset_state() == {"q": 2}

    def test_reset_out_of_width_rejected(self):
        source = """
module m (input clk);
  // @reset 9
  reg [1:0] q;
  always @(posedge clk) q <= q;
endmodule
"""
        with pytest.raises(TranslationError, match="does not fit"):
            translate_verilog(source, top="m")

    def test_case_statement_semantics(self):
        model, _ = translate_verilog(CASE_FSM, top="m")
        assert model.step({"s": 0}, {"go": 1}) == {"s": 1}
        assert model.step({"s": 0}, {"go": 0}) == {"s": 0}
        assert model.step({"s": 3}, {"go": 0}) == {"s": 0}

    def test_comb_logic_feeds_state(self):
        model, _ = translate_verilog(COMB_FEEDS_STATE, top="m")
        assert model.step({"q": 0}, {"a": 1, "b": 1}) == {"q": 1}
        assert model.step({"q": 1}, {"a": 1, "b": 0}) == {"q": 0}

    def test_comb_always_block(self):
        model, _ = translate_verilog(COMB_ALWAYS, top="m")
        assert model.step({"q": 0}, {"v": 2}) == {"q": 1}
        assert model.step({"q": 0}, {"v": 3}) == {"q": 0}


class TestTranslateRejections:
    def test_comb_latch_rejected(self):
        source = """
module m (input clk, input a);
  reg l;
  reg q;
  always @(*) begin
    if (a) l = 1;
  end
  always @(posedge clk) q <= l;
endmodule
"""
        with pytest.raises(TranslationError, match="latch"):
            translate_verilog(source, top="m")

    def test_combinational_loop_rejected(self):
        source = """
module m (input clk, input a);
  wire x;
  wire y;
  assign x = y || a;
  assign y = x;
endmodule
"""
        with pytest.raises(TranslationError, match="loop|undriven"):
            translate_verilog(source, top="m")

    def test_multiple_drivers_rejected(self):
        source = """
module m (input clk, input a);
  wire x;
  assign x = a;
  assign x = !a;
endmodule
"""
        with pytest.raises(TranslationError, match="multiple drivers"):
            translate_verilog(source, top="m")

    def test_blocking_in_clocked_rejected(self):
        with pytest.raises(
            TranslationError, match=r"^line 4: blocking assignment in clocked block"
        ):
            translate_verilog(BLOCKING_IN_CLOCKED, top="m")

    def test_nonblocking_in_comb_rejected(self):
        source = """
module m (input clk, input a);
  reg t;
  reg q;
  always @(*) begin
    t = 0;
    if (a) t <= 1;
  end
  always @(posedge clk) q <= t;
endmodule
"""
        with pytest.raises(
            TranslationError,
            match=r"^line 7: non-blocking assignment in combinational block$",
        ):
            translate_verilog(source, top="m")

    def test_reduction_of_an_expression_rejected(self):
        source = """
module m (input clk, input [1:0] a);
  reg q;
  always @(posedge clk) if (a) q <= ^(a + 1);
endmodule
"""
        with pytest.raises(
            TranslationError, match=r"reduction '\^' applies only to a plain net$"
        ):
            translate_verilog(source, top="m")

    @pytest.mark.parametrize("read", ["nodecl", "nodecl[1]", "~nodecl", "&nodecl"])
    def test_read_of_undeclared_net_rejected(self, read):
        source = f"""
module m (input clk, input a);
  reg q;
  always @(posedge clk) if (a) q <= {read};
endmodule
"""
        with pytest.raises(
            TranslationError, match=r"^line 4: read of undeclared net 'nodecl'$"
        ):
            translate_verilog(source, top="m")

    @pytest.mark.parametrize("source, line", [
        ("""
module m (input clk, input a);
  wire x;
  reg q;
  assign x = a & nodecl;
  always @(posedge clk) q <= x;
endmodule
""", 5),
        ("""
module m (input clk, input a);
  reg t;
  reg q;
  always @(*) begin
    t = 0;
    if (a) t = ~nodecl;
  end
  always @(posedge clk) q <= t;
endmodule
""", 7),
    ], ids=["assign", "comb-block"])
    def test_combinational_read_of_undeclared_net_rejected(self, source, line):
        """A combinational read names the net and its line, as a clocked
        read does, instead of surfacing as an unschedulable loop."""
        with pytest.raises(
            TranslationError, match=rf"^line {line}: read of undeclared net 'nodecl'$"
        ):
            translate_verilog(source, top="m")

    def test_clocked_read_of_undriven_net_rejected(self):
        source = """
module m (input clk, input a);
  wire ghost;
  reg q;
  always @(posedge clk) begin
    if (a) q <= ghost;
  end
endmodule
"""
        with pytest.raises(
            TranslationError, match=r"^line 6: read of undriven net 'ghost'$"
        ):
            translate_verilog(source, top="m")

    def test_self_read_rejected(self):
        with pytest.raises(
            TranslationError, match=r"^line 6: read of 't' before every path assigns it$"
        ):
            translate_verilog(SELF_READ, top="m")

    def test_read_after_every_path_assigns_accepted(self):
        source = """
module m (input clk, input a);
  reg t;
  reg q;
  always @(*) begin
    if (a) t = 1; else t = 0;
    case (a)
      0: t = t;
      default: t = !t;
    endcase
  end
  always @(posedge clk) q <= t;
endmodule
"""
        model, _ = translate_verilog(source, top="m")
        assert model.step({"q": 0}, {"a": 1}) == {"q": 0}

    @pytest.mark.parametrize(
        "value, message",
        [
            (hdl_ast.Binary("**", hdl_ast.Ident("a"), hdl_ast.Number(2)),
             r"unsupported operator '\*\*'"),
            (hdl_ast.Unary("~&", hdl_ast.Ident("a")), r"unsupported operator '~&'"),
            (hdl_ast.Expr(), r"unsupported expression Expr\(\)"),
        ],
    )
    def test_expression_outside_the_parsers_set_rejected(self, value, message):
        flat = elaborate(parse(WRAPPING), "m")
        flat.always_blocks[0].body[0].value = value  # beyond the parser's output
        with pytest.raises(TranslationError, match=message):
            translate(flat)

    def test_wire_assigned_in_clocked_rejected(self):
        source = """
module m (input clk, input a);
  wire w;
  always @(posedge clk) w <= a;
endmodule
"""
        with pytest.raises(TranslationError, match="wire"):
            translate_verilog(source, top="m")


class TestElaboration:
    HIERARCHY = """
module leaf (
  input clk,
  input tick,
  output wire full
);
  // @state
  reg [1:0] count;
  assign full = count == 3;
  always @(posedge clk) begin
    if (tick && !full) count <= count + 1;
  end
endmodule

module top (
  input clk,
  input go,
  output wire done
);
  wire full_a;
  wire full_b;
  leaf a (.clk(clk), .tick(go), .full(full_a));
  leaf b (.clk(clk), .tick(full_a), .full(full_b));
  assign done = full_b;
endmodule
"""

    def test_hierarchy_flattens(self):
        model, flat = translate_verilog(self.HIERARCHY, top="top")
        assert set(model.state_var_names) == {"a.count", "b.count"}
        assert model.choice_names == ["go"]

    def test_hierarchy_semantics(self):
        model, _ = translate_verilog(self.HIERARCHY, top="top")
        graph, stats = enumerate_states(model)
        # b only counts once a is full: not all 16 product states reachable
        # in any order, but all counts are eventually reachable.
        assert stats.num_states == 16 - 3 * 3  # b>0 requires a==3 first...

    def test_unknown_module_rejected(self):
        design = parse("module top (input clk);\nghost g (.clk(clk));\nendmodule")
        with pytest.raises(ElaborationError, match="unknown module"):
            elaborate(design, "top")

    def test_unconnected_input_rejected(self):
        source = """
module leaf (input clk, input x);
  reg q;
  always @(posedge clk) q <= x;
endmodule
module top (input clk);
  leaf u (.clk(clk));
endmodule
"""
        design = parse(source)
        with pytest.raises(ElaborationError, match="unconnected"):
            elaborate(design, "top")

    def test_recursive_instantiation_rejected(self):
        source = """
module a (input clk);
  a inner (.clk(clk));
endmodule
"""
        design = parse(source)
        with pytest.raises(ElaborationError, match="recursive"):
            elaborate(design, "a")

    def test_missing_top_rejected(self):
        with pytest.raises(ElaborationError, match="not found"):
            elaborate(parse("module m (input clk); endmodule"), "nope")


class TestChoicesOverride:
    def test_override_applies(self):
        override = [ChoicePoint("en", RangeType(0, 1), guard=lambda s: s["n"] == 0)]
        design = parse(COUNTER)
        flat = elaborate(design, "counter")
        model = translate(flat, choices_override=override)
        # Guard pins en=0 whenever n != 0, so the counter can only ever
        # take the first step.
        graph, stats = enumerate_states(model)
        assert stats.num_states == 2

    def test_override_must_cover_inputs(self):
        design = parse(COUNTER)
        flat = elaborate(design, "counter")
        with pytest.raises(TranslationError, match="cover exactly"):
            translate(flat, choices_override=[])

    def test_override_domain_checked(self):
        design = parse(COUNTER)
        flat = elaborate(design, "counter")
        with pytest.raises(TranslationError, match="exceeds"):
            translate(
                flat, choices_override=[ChoicePoint("en", RangeType(0, 5))]
            )


class TestInputVectors:
    def test_walk_to_vectors(self):
        model, _ = translate_verilog(COUNTER, top="counter")
        graph, _ = enumerate_states(model)
        walk = [graph.out_edge_indices(0)[0]]
        vectors = input_vectors_for_walk(model, graph, walk)
        assert len(vectors) == 1
        assert set(vectors[0]) == {"en"}


# ------------------------------------------------ compiled function vs oracle
#
# ``translate`` compiles the design into one Python next-state function;
# the interpreter (``tests/oracles.py``) is its oracle.  For every
# well-formed input both return equal dicts (same key order, same value
# types) or raise the same ``ValueError`` (a negative shift or bit
# index); neither raises ``TranslationError``, since translation rejects
# every design that could.  Any other input raises one ``TranslationError``
# naming the keys.

#: Every design of this file that translates, with its top module.
TRANSLATABLE = {
    "counter": (COUNTER, "counter"),
    "wrapping": (WRAPPING, "m"),
    "reset-two": (RESET_TWO, "m"),
    "case-fsm": (CASE_FSM, "m"),
    "comb-feeds-state": (COMB_FEEDS_STATE, "m"),
    "comb-always": (COMB_ALWAYS, "m"),
    "hierarchy": (TestElaboration.HIERARCHY, "top"),
    "edges": (EDGES, "edges"),
}


def _outcome(next_state, state, choice):
    try:
        result = next_state(state, choice)
    except Exception as exc:  # the exception is the outcome under test
        return type(exc), str(exc)
    return repr(list(result.items()))


def _assert_matches_oracle(flat, inputs, choices_override=None):
    compiled = translate(flat, choices_override)._next_state
    oracle = TranslationInterpreter(flat).next_state
    for state, choice in inputs:
        expected = _outcome(oracle, state, choice)
        assert isinstance(expected, str) or expected[0] is ValueError, (
            state, choice, expected,
        )
        assert _outcome(compiled, state, choice) == expected, (state, choice)


def _malformed(state, choice):
    """``(state, choice, problem)``: the input with one key missing, an
    unknown key, or a choice key shadowing a state variable, and the part
    of the error message that names it."""
    for name in state:
        yield {k: v for k, v in state.items() if k != name}, choice, (
            f"state lacks [{name!r}]"
        )
    for name in choice:
        yield state, {k: v for k, v in choice.items() if k != name}, (
            f"choice lacks [{name!r}]"
        )
    yield {**state, "ghost": 1}, choice, "state has unexpected ['ghost']"
    yield state, {**choice, "ghost": 1}, "choice has unexpected ['ghost']"
    for name in state:
        yield state, {**choice, name: 0}, f"choice has unexpected [{name!r}]"


def _assert_rejects_malformed(model, state, choice):
    for bad_state, bad_choice, problem in _malformed(state, choice):
        with pytest.raises(TranslationError) as caught:
            model._next_state(bad_state, bad_choice)
        assert str(caught.value) == f"next_state keys: {problem}"


def _domain_inputs(model, limit=2048):
    """Every choice in every state of ``model``'s domains, state-major,
    cut after ``limit`` inputs."""
    states = (
        dict(zip(model.state_var_names, values))
        for values in itertools.product(*(v.type.values() for v in model.state_vars))
    )
    choices = [
        dict(zip(model.choice_names, values))
        for values in itertools.product(*(c.type.values() for c in model.choices))
    ]
    pairs = ((state, choice) for state in states for choice in choices)
    return list(itertools.islice(pairs, limit))


class TestCompiledMatchesOracle:
    @pytest.mark.parametrize("design", sorted(TRANSLATABLE))
    def test_every_input_of_each_design(self, design):
        source, top = TRANSLATABLE[design]
        flat = elaborate(parse(source), top)
        model = translate(flat)
        inputs = _domain_inputs(model)
        _assert_matches_oracle(flat, inputs)
        for state, choice in inputs[:4]:
            _assert_rejects_malformed(model, state, choice)

    def test_key_mismatch_names_every_bad_key(self):
        model, _ = translate_verilog(COMB_FEEDS_STATE, top="m")
        with pytest.raises(TranslationError) as caught:
            model.step({"ghost": 0}, {"b": 1, "a": 0, "q": 1})
        assert str(caught.value) == (
            "next_state keys: state lacks ['q']; state has unexpected ['ghost']; "
            "choice has unexpected ['q']"
        )

    def test_every_transition_of_the_pp_control_graph(self):
        flat = elaborate(parse(pp_control_verilog(fill_words=1)), "pp_control")
        model = translate(flat, pp_control_choices())
        graph, _ = enumerate_states(model)
        kernel = compile_model(model)
        inputs = [
            (state, choice)
            for key in map(graph.state_key, range(graph.num_states))
            for state in [kernel.unpack(key)]
            for choice in model.enumerate_choices(state)
        ]
        assert (graph.num_states, len(inputs)) == (1509, 52844)
        _assert_matches_oracle(flat, inputs, pp_control_choices())

    def test_generated_function_is_named_for_tracebacks(self):
        model, _ = translate_verilog(COUNTER, top="counter")
        assert model._next_state.__code__.co_filename == "<translated counter>"

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_generated_designs(self, data):
        source = data.draw(_designs())
        flat = elaborate(parse(source), "m")
        try:
            model = translate(flat)
        except TranslationError:
            assume(False)
        inputs = []
        for _ in range(data.draw(st.integers(1, 12))):
            state = {
                v.name: data.draw(st.integers(0, v.type.hi)) for v in model.state_vars
            }
            choice = {
                c.name: data.draw(st.integers(0, c.type.hi)) for c in model.choices
            }
            inputs.append((state, choice))
        _assert_matches_oracle(flat, inputs)
        _assert_rejects_malformed(model, *inputs[0])


# ------------------------------------------------ generated expand vs dict path
#
# ``expand(key, select)`` is ``next_state`` over every choice of a packed
# state, with state-only logic hoisted out of the choice loop.  The
# compiled kernel runs it and falls back to the dict path on any error,
# so at the kernel both paths give equal rows or the same exception.


def _kernel_outcome(kernel, key):
    try:
        return kernel.expand_masked(key)
    except Exception as exc:  # the exception is the outcome under test
        return type(exc), str(exc)


def _dict_row(model, key):
    """``expand``'s contract, computed one ``next_state`` call at a time."""
    codec = StateCodec(model.state_vars)
    state = codec.unpack(key)
    mask, table = ChoiceTables(model).select(state)
    return mask, tuple(
        (condition, codec.pack(model._next_state(state, choice)))
        for choice, condition in table
    )


@st.composite
def _overrides(draw, model):
    """The model's free inputs in a shuffled order, each maybe guarded on
    a state variable's value, with a random inactive value."""
    points = []
    for choice in draw(st.permutations(model.choices)):
        guard = None
        if model.state_vars and draw(st.booleans()):
            var = draw(st.sampled_from(model.state_vars))
            value = draw(st.integers(0, var.type.hi))
            guard = lambda s, _n=var.name, _v=value: s[_n] == _v
        inactive = draw(st.integers(0, choice.type.hi))
        points.append(ChoicePoint(choice.name, choice.type, guard, inactive))
    return points


class TestGeneratedExpandMatchesDictPath:
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("design", sorted(TRANSLATABLE))
    def test_every_state_of_each_design(self, design, reverse):
        source, top = TRANSLATABLE[design]
        flat = elaborate(parse(source), top)
        model = translate(flat)
        if reverse:  # condition tuples list the free inputs backwards
            model = translate(flat, model.choices[::-1])
        keys = range(1 << min(model.state_bits(), 10))
        tables = ChoiceTables(model)
        for key in keys:
            try:
                expected = _dict_row(model, key)
            except Exception:
                with pytest.raises(Exception):
                    model.generated_expand(key, tables.select)
            else:
                assert model.generated_expand(key, tables.select) == expected

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_generated_designs_with_guarded_overrides(self, data):
        flat = elaborate(parse(data.draw(_designs())), "m")
        try:
            plain = translate(flat)
        except TranslationError:
            assume(False)
        model = translate(flat, data.draw(_overrides(plain)))
        twin = SyncModel(model.name, model.state_vars, model.choices, model._next_state)
        generated, reference = CompiledKernel(model), CompiledKernel(twin)
        tables = ChoiceTables(model)
        keys = data.draw(
            st.lists(st.integers(0, (1 << model.state_bits()) - 1), min_size=1, max_size=12)
        )
        for key in keys:
            outcome = _kernel_outcome(reference, key)
            assert _kernel_outcome(generated, key) == outcome, key
            # The generated function itself fails exactly when a
            # next_state call of the state fails.
            try:
                row = model.generated_expand(key, tables.select)
            except Exception:
                assert isinstance(outcome[0], type)
            else:
                assert row == outcome


class TestGeneratedSourcePython39:
    """``pyproject.toml`` promises Python 3.9; run-time generated source is
    invisible to byte-compilation checks, so parse it with 3.9's grammar."""

    @staticmethod
    def _source(flat, choices_override=None):
        translator = _Translator(flat, choices_override)
        model = translator.build()
        return _Codegen(translator, model.state_vars, model.choices).source()

    @pytest.mark.parametrize("design", sorted(TRANSLATABLE))
    def test_each_design(self, design):
        source, top = TRANSLATABLE[design]
        ast.parse(self._source(elaborate(parse(source), top)), feature_version=(3, 9))

    def test_pp_control(self):
        flat = elaborate(parse(pp_control_verilog(fill_words=2)), "pp_control")
        generated = self._source(flat, pp_control_choices())
        assert "def expand(key, select):" in generated
        ast.parse(generated, feature_version=(3, 9))


_BINARY_OPS = [op for level in _PRECEDENCE for op in level]
_SHIFTS = ["<<", ">>"]
_REDUCTIONS = ["&", "|", "^"]


def _exprs(names):
    return _expr_strategy(tuple(names))


def _rarely(strategy, common):
    """``strategy`` one draw in four, ``common`` otherwise."""
    return st.one_of(common, common, common, strategy)


@functools.lru_cache(maxsize=None)
def _expr_strategy(names):
    """Fully parenthesized expressions over ``names``: every binary and
    unary operator (reductions of a plain net), sized and unsized
    literals, bit-selects and nested ``?:``.  Shift amounts and bit
    indexes stay small; now and then a subtraction makes one negative."""
    net = st.sampled_from(names)
    leaves = st.one_of(
        net,
        st.integers(0, 20).map(str),
        st.tuples(st.integers(1, 4), st.integers(0, 31)).map("{0[0]}'d{0[1]}".format),
        st.tuples(net, st.integers(0, 4)).map("{0[0]}[{0[1]}]".format),
    )
    amounts = _rarely(st.tuples(leaves, leaves).map("({0[0]} - {0[1]})".format), leaves)
    others = [op for op in _BINARY_OPS if op not in _SHIFTS]

    def extend(inner):
        return st.one_of(
            st.tuples(st.sampled_from(["!", "~", "-", "+"]), inner)
            .map("{0[0]}({0[1]})".format),
            st.tuples(st.sampled_from(_REDUCTIONS), net).map("{0[0]}({0[1]})".format),
            st.tuples(inner, st.sampled_from(others), inner)
            .map("({0[0]} {0[1]} {0[2]})".format),
            st.tuples(inner, st.sampled_from(_SHIFTS), amounts)
            .map("({0[0]} {0[1]} {0[2]})".format),
            st.tuples(inner, inner, inner).map("({0[0]} ? {0[1]} : {0[2]})".format),
            st.tuples(net, amounts).map("{0[0]}[{0[1]}]".format),
        )

    return st.recursive(leaves, extend, max_leaves=6)


def _statements(draw, reads, targets, op, depth):
    """Up to two statements: assignments, ``if`` with a missing, empty
    or filled ``else``, and ``case`` with multi-key items and ``default``
    first, in the middle, last or absent."""
    lines = []
    kinds = ["assign", "if", "case"] if depth else ["assign"]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(kinds))
        if kind == "assign":
            target = draw(st.sampled_from(targets))
            lines.append(f"{target} {op} {draw(_exprs(reads))};")
        elif kind == "if":
            lines.append(f"if ({draw(_exprs(reads))}) begin")
            lines += _statements(draw, reads, targets, op, depth - 1)
            tail = draw(st.sampled_from(["", "empty", "body"]))
            if tail:
                lines.append("end else begin")
                if tail == "body":
                    lines += _statements(draw, reads, targets, op, depth - 1)
            lines.append("end")
        else:
            items = []
            for _ in range(draw(st.integers(0, 3))):
                keys = draw(st.lists(_exprs(reads), min_size=1, max_size=3))
                items.append(", ".join(keys))
            position = draw(st.sampled_from([None, "first", "middle", "last"]))
            if position is not None:
                at = {"first": 0, "middle": len(items) // 2, "last": len(items)}
                items.insert(at[position], "default")
            lines.append(f"case ({draw(_exprs(reads))})")
            for item in items:
                lines.append(f"{item}: begin")
                lines += _statements(draw, reads, targets, op, depth - 1)
                lines.append("end")
            lines.append("endcase")
    return lines


@st.composite
def _designs(draw):
    """One module ``m``: free inputs, clocked registers, continuous
    assigns, a combinational block defining ``c0`` and ``c1``, and a
    clocked block."""
    in_widths = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
    reg_widths = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    inputs = [f"i{k}" for k in range(len(in_widths))]
    regs = [f"r{k}" for k in range(len(reg_widths))]
    ports = ", ".join(
        ["input clk"] + [f"input [{w - 1}:0] {n}" for n, w in zip(inputs, in_widths)]
    )
    lines = [f"module m ({ports});"]
    lines += [f"reg [{w - 1}:0] {n};" for n, w in zip(regs, reg_widths)]
    lines += ["wire [1:0] ghost;", "reg [2:0] c0;", "reg [0:0] c1;"]
    wires = []
    for k in range(draw(st.integers(0, 2))):
        lines.append(f"wire [{draw(st.integers(0, 3))}:0] w{k};")
        lines.append(f"assign w{k} = {draw(_exprs(inputs + regs + wires))};")
        wires.append(f"w{k}")

    settled = inputs + regs + wires
    comb_reads = settled + ["c0", "c1"]
    # Now and then the statements before c1's default read c1, the
    # clocked block reads an undriven or undeclared net, or a block ends
    # with a guarded statement that fails when it runs.
    early = draw(_rarely(st.just(comb_reads), st.just(settled + ["c0"])))
    clocked_reads = draw(
        _rarely(st.just(comb_reads + ["ghost", "nodecl"]), st.just(comb_reads))
    )
    wrong = draw(_rarely(st.sampled_from(["comb", "clocked", "reduction"]), st.none()))
    guard = f"if ({draw(_exprs(comb_reads))})"
    lines += ["always @(*) begin", f"c0 = {draw(_exprs(settled))};"]
    lines += _statements(draw, early, ["c0", "c1"], "=", 1)
    lines.append(f"c1 = {draw(_exprs(comb_reads))};")
    lines += _statements(draw, comb_reads, ["c0", "c1"], "=", 2)
    if wrong == "comb":
        lines.append(f"{guard} c0 <= 1;")
    lines.append("end")

    lines.append("always @(posedge clk) begin")
    lines += _statements(draw, clocked_reads, regs, "<=", 2)
    for reg in regs:  # every register is state, held on some paths
        lines.append(f"if ({draw(_exprs(clocked_reads))}) {reg} <= {draw(_exprs(clocked_reads))};")
    if wrong == "clocked":
        lines.append(f"{guard} {regs[0]} = 0;")
    if wrong == "reduction":  # of an expression, not a plain net
        op = draw(st.sampled_from(_REDUCTIONS))
        lines.append(f"{guard} {regs[0]} <= {op}({draw(_exprs(comb_reads))} + 1);")
    lines += ["end", "endmodule"]
    return "\n".join(lines)


class TestFingerprint:
    """The compiled function is digested by its code object and constants."""

    def test_translated_model_fingerprints_stably(self):
        two = fingerprint_model(
            build_pp_control_model_from_verilog(PPModelConfig(fill_words=2))[0]
        )
        again = fingerprint_model(
            build_pp_control_model_from_verilog(PPModelConfig(fill_words=2))[0]
        )
        three = fingerprint_model(
            build_pp_control_model_from_verilog(PPModelConfig(fill_words=3))[0]
        )
        assert two.stable and three.stable
        assert two == again
        assert two.base_step != three.base_step
