"""The translation-path anchor test: the PP control Verilog, translated,
enumerates to exactly the same state graph as the hand-built model.

This is the repository's strongest evidence that the HDL-to-FSM path
(section 3.1 of the paper) is faithful: two independently expressed
descriptions of the PP control -- annotated Verilog through the translator,
and the Python Synchronous Murphi model -- reach the same reset state, the
same reachable states and the same labelled transition arcs.
"""

import pytest

from repro.enumeration import enumerate_states
from repro.enumeration.kernel import compile_model
from repro.pp.fsm_model import PPModelConfig, build_pp_control_model
from repro.pp.verilog_src import (
    build_pp_control_model_from_verilog,
    pp_control_verilog,
)


@pytest.fixture(scope="module")
def translated():
    model, flat = build_pp_control_model_from_verilog(PPModelConfig(fill_words=1))
    graph, stats = enumerate_states(model)
    return model, flat, graph, stats


class TestSource:
    def test_source_is_annotated(self):
        source = pp_control_verilog()
        assert source.count("// @state") == 10
        assert "translate_off" in source

    def test_fill_words_parameterizes(self):
        assert "FW = 4" in pp_control_verilog(fill_words=4)

    def test_bad_fill_words_rejected(self):
        with pytest.raises(ValueError):
            pp_control_verilog(fill_words=0)


class TestTranslatedModel:
    def test_state_variables_match_fig_3_2(self, translated):
        model, _, _, _ = translated
        assert set(model.state_var_names) == {
            "ifq", "ex", "mem", "irefill", "ifill_cnt",
            "drefill", "dfill_cnt", "spill", "st_pend", "miss_owner",
        }

    def test_free_inputs_are_the_abstract_interfaces(self, translated):
        model, _, _, _ = translated
        assert set(model.choice_names) == {
            "fetch_class", "i_hit", "d_hit", "conflict",
            "victim_dirty", "inbox_ready", "outbox_ready", "mem_word",
        }

    def test_translate_off_region_excluded(self, translated):
        _, flat, _, _ = translated
        assert "debug_cycle_counter" not in flat.nets

    def test_annotation_statistics_available(self, translated):
        # The paper reports 581 of 2727 control lines delimited; ours are
        # proportionally accounted through the @state annotations.
        _, flat, _, _ = translated
        annotated = [n for n in flat.nets.values() if n.is_state_annotated]
        assert len(annotated) == 10


class TestEquivalenceWithHandModel:
    def test_same_state_count_fw1(self, translated):
        _, _, _, vstats = translated
        _, hand = enumerate_states(build_pp_control_model(PPModelConfig(fill_words=1)))
        assert vstats.num_states == hand.num_states

    def test_same_edge_count_fw1(self, translated):
        _, _, _, vstats = translated
        _, hand = enumerate_states(build_pp_control_model(PPModelConfig(fill_words=1)))
        assert vstats.num_edges == hand.num_edges


def _named_graph(model, encode):
    """Reset state, state set and ``(src, dst, condition)`` arc set of
    ``model``'s graph, every state and condition keyed by variable name."""
    graph, _ = enumerate_states(model)
    kernel = compile_model(model)
    states = [
        encode(kernel.unpack(graph.state_key(i)))
        for i in range(graph.num_states)
    ]
    arcs = {
        (states[e.src], states[e.dst], encode(graph.condition_as_dict(e)))
        for e in graph.edges()
    }
    assert len(arcs) == graph.num_edges
    return encode(model.reset_state()), set(states), arcs


def _hand_encoder(model):
    """Each hand-model value as its index in its domain; ``fetch_class``
    is offset by one, as the Verilog ``localparam``s number the classes
    after BUBBLE."""
    types = {v.name: v.type for v in model.state_vars}
    types.update((c.name, c.type) for c in model.choices)

    def encode(values):
        return tuple(sorted(
            (name, types[name].index_of(value) + (name == "fetch_class"))
            for name, value in values.items()
        ))

    return encode


def _verilog_encode(values):
    return tuple(sorted((name, int(value)) for name, value in values.items()))


@pytest.mark.parametrize("fill_words, states, arcs", [
    (1, 1509, 8777),
    (2, 2135, 13329),
    (3, 2676, 17024),
    (4, 3232, 20719),
])
def test_translated_graph_equals_hand_graph(fill_words, states, arcs):
    config = PPModelConfig(fill_words=fill_words)
    translated, _ = build_pp_control_model_from_verilog(config)
    hand = build_pp_control_model(config)
    reset, state_set, arc_set = _named_graph(translated, _verilog_encode)
    assert (len(state_set), len(arc_set)) == (states, arcs)
    assert reset == _hand_encoder(hand)(hand.reset_state())
    assert (reset, state_set, arc_set) == _named_graph(hand, _hand_encoder(hand))
