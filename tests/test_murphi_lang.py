"""Tests for the textual Synchronous Murphi front end."""

import pytest

from repro.enumeration import enumerate_states
from repro.smurphi.lang import MurphiSyntaxError, parse_model
from repro.tour import IndexedTourGenerator

QUEUE = """
-- a two-entry queue with a flaky consumer
type level : 0..2;
type op : enum { NONE, PUSH, POP };

var depth : level reset 0;
choice action : op;
choice consumer_ready : boolean when depth > 0;

rule begin
  if action = PUSH & depth < 2 then
    depth' := depth + 1;
  elsif action = POP & depth > 0 & consumer_ready then
    depth' := depth - 1;
  endif;
end
"""


class TestParsing:
    def test_queue_parses(self):
        model = parse_model(QUEUE, name="queue")
        assert model.state_var_names == ["depth"]
        assert model.choice_names == ["action", "consumer_ready"]
        assert model.state_bits() == 2

    def test_reset_values(self):
        model = parse_model(QUEUE)
        assert model.reset_state() == {"depth": 0}

    def test_enum_reset(self):
        model = parse_model(
            "type st : enum { A, B };\nvar s : st reset B;\n"
            "rule begin s' := s; end"
        )
        assert model.reset_state() == {"s": "B"}

    def test_boolean_vars_and_literals(self):
        model = parse_model(
            "var flag : boolean reset false;\nchoice go : boolean;\n"
            "rule begin if go then flag' := true; endif; end"
        )
        assert model.step({"flag": False}, {"go": True}) == {"flag": True}
        assert model.step({"flag": False}, {"go": False}) == {"flag": False}

    def test_switch_statement(self):
        model = parse_model(
            """
            var s : 0..2;
            choice go : boolean;
            rule begin
              switch s
                case 0: if go then s' := 1; endif;
                case 1: s' := 2;
                case else: s' := 0;
              endswitch;
            end
            """
        )
        assert model.step({"s": 0}, {"go": True}) == {"s": 1}
        assert model.step({"s": 1}, {"go": False}) == {"s": 2}
        assert model.step({"s": 2}, {"go": False}) == {"s": 0}

    def test_comments_ignored(self):
        model = parse_model("var x : 0..1; -- comment\nrule begin x' := x; end")
        assert model.state_var_names == ["x"]


class TestSemantics:
    def test_unassigned_primed_vars_hold(self):
        model = parse_model(QUEUE)
        held = model.step({"depth": 1}, {"action": "NONE", "consumer_ready": False})
        assert held == {"depth": 1}

    def test_guard_pins_inactive_choice(self):
        model = parse_model(QUEUE)
        at_reset = list(model.enumerate_choices({"depth": 0}))
        # consumer_ready guarded on depth > 0: pinned at reset.
        assert all(c["consumer_ready"] is False for c in at_reset)
        assert len(at_reset) == 3  # one per action

    def test_enumeration(self):
        model = parse_model(QUEUE)
        graph, stats = enumerate_states(model)
        assert stats.num_states == 3  # depth 0, 1, 2
        tours = IndexedTourGenerator(graph).generate()
        assert tours.complete

    def test_arithmetic_and_comparisons(self):
        model = parse_model(
            """
            var n : 0..7;
            choice step : 1..2;
            rule begin
              if n + step <= 7 then n' := n + step; else n' := 0; endif;
            end
            """
        )
        assert model.step({"n": 6}, {"step": 1}) == {"n": 7}
        assert model.step({"n": 7}, {"step": 2}) == {"n": 0}

    def test_inactive_value_clause(self):
        model = parse_model(
            "var b : boolean;\n"
            "choice lat : 1..3 when b inactive 2;\n"
            "rule begin b' := !b; end"
        )
        combos = list(model.enumerate_choices({"b": False}))
        assert combos == [{"lat": 2}]


class TestErrors:
    def test_missing_rule(self):
        with pytest.raises(MurphiSyntaxError, match="no rule"):
            parse_model("var x : 0..1;")

    def test_unprimed_assignment_rejected(self):
        with pytest.raises(MurphiSyntaxError, match="primed"):
            parse_model("var x : 0..1;\nrule begin x := 1; end")

    def test_primed_read_rejected(self):
        with pytest.raises(MurphiSyntaxError, match="assignment targets"):
            parse_model("var x : 0..1;\nrule begin x' := x'; end")

    def test_unknown_type_rejected(self):
        with pytest.raises(MurphiSyntaxError, match="unknown type"):
            parse_model("var x : mystery;\nrule begin x' := x; end")

    def test_duplicate_type_rejected(self):
        with pytest.raises(MurphiSyntaxError, match="duplicate type"):
            parse_model(
                "type t : 0..1;\ntype t : 0..2;\nvar x : t;\n"
                "rule begin x' := x; end"
            )

    def test_out_of_domain_step_rejected(self):
        from repro.smurphi import ModelError

        model = parse_model("var x : 0..1;\nrule begin x' := x + 1; end")
        with pytest.raises(ModelError):
            model.step({"x": 1}, {})

    def test_assignment_to_undeclared_rejected(self):
        model = parse_model(
            "var x : 0..1;\nrule begin ghost' := 1; end"
        )
        with pytest.raises(MurphiSyntaxError, match="undeclared"):
            model.step({"x": 0}, {})

    def test_error_carries_line_number(self):
        with pytest.raises(MurphiSyntaxError) as excinfo:
            parse_model("var x : 0..1;\nrule begin\n  @bad\nend")
        assert excinfo.value.line == 3
