"""Unit + property tests for packed state encoding."""

import pytest
from hypothesis import given, strategies as st

from repro.smurphi import BoolType, EnumType, RangeType, StateVar, StateCodec


def make_codec():
    return StateCodec(
        [
            StateVar("a", BoolType(), False),
            StateVar("count", RangeType(0, 6), 0),
            StateVar("st", EnumType("e", ["IDLE", "REQ", "FILL", "FIX"]), "IDLE"),
        ]
    )


class TestPacking:
    def test_total_bits(self):
        assert make_codec().total_bits == 1 + 3 + 2

    def test_pack_reset_is_zero(self):
        codec = make_codec()
        assert codec.pack({"a": False, "count": 0, "st": "IDLE"}) == 0

    def test_roundtrip(self):
        codec = make_codec()
        state = {"a": True, "count": 5, "st": "FIX"}
        assert codec.unpack(codec.pack(state)) == state

    def test_distinct_states_distinct_keys(self):
        codec = make_codec()
        keys = set()
        for a in (False, True):
            for count in range(7):
                for st_ in ("IDLE", "REQ", "FILL", "FIX"):
                    keys.add(codec.pack({"a": a, "count": count, "st": st_}))
        assert len(keys) == 2 * 7 * 4

    def test_field_layout(self):
        codec = make_codec()
        assert codec.field("a") == (0, 1)
        assert codec.field("count") == (1, 3)
        assert codec.field("st") == (4, 2)

    def test_extract_single_variable(self):
        codec = make_codec()
        key = codec.pack({"a": True, "count": 3, "st": "FILL"})
        assert codec.extract(key, "count") == 3
        assert codec.extract(key, "st") == "FILL"
        assert codec.extract(key, "a") is True

    def test_zero_width_variable(self):
        codec = StateCodec(
            [
                StateVar("only", EnumType("s", ["X"]), "X"),
                StateVar("b", BoolType(), False),
            ]
        )
        key = codec.pack({"only": "X", "b": True})
        assert codec.unpack(key) == {"only": "X", "b": True}
        assert codec.total_bits == 1


@given(
    a=st.booleans(),
    count=st.integers(0, 6),
    st_=st.sampled_from(["IDLE", "REQ", "FILL", "FIX"]),
)
def test_roundtrip_property(a, count, st_):
    codec = make_codec()
    state = {"a": a, "count": count, "st": st_}
    key = codec.pack(state)
    assert codec.unpack(key) == state
    assert 0 <= key < 2 ** codec.total_bits


# -- randomized layouts -------------------------------------------------------
#
# A state-var declaration drawn at random: the variable's finite type plus
# its full value domain, so the roundtrip property can draw values from it.

def _var_types(draw, index):
    kind = draw(st.sampled_from(["bool", "range", "enum"]))
    if kind == "bool":
        return StateVar(f"v{index}", BoolType(), False)
    if kind == "range":
        lo = draw(st.integers(-8, 8))
        hi = lo + draw(st.integers(0, 40))
        return StateVar(f"v{index}", RangeType(lo, hi), lo)
    members = [f"M{j}" for j in range(draw(st.integers(1, 9)))]
    return StateVar(f"v{index}", EnumType(f"e{index}", members), members[0])


@st.composite
def random_layouts(draw):
    count = draw(st.integers(1, 8))
    return [_var_types(draw, i) for i in range(count)]


@given(layout=random_layouts(), data=st.data())
def test_roundtrip_over_random_layouts(layout, data):
    """Pack/unpack is the identity for any layout and any in-domain state."""
    codec = StateCodec(layout)
    state = {
        var.name: data.draw(st.sampled_from(list(var.type.values())), label=var.name)
        for var in layout
    }
    key = codec.pack(state)
    assert codec.unpack(key) == state
    assert 0 <= key < 2 ** max(1, codec.total_bits)


@given(layout=random_layouts())
def test_boundary_values_roundtrip(layout):
    """All-minimum and all-maximum states hit 0 and max-index per field."""
    codec = StateCodec(layout)
    low = {var.name: var.type.values()[0] for var in layout}
    high = {var.name: var.type.values()[-1] for var in layout}
    assert codec.unpack(codec.pack(low)) == low
    assert codec.unpack(codec.pack(high)) == high
    # Every field of the all-max state decodes to its top index, so the
    # packed key uses each field's full width without touching neighbours.
    for var in layout:
        assert codec.extract(codec.pack(high), var.name) == var.type.values()[-1]


class TestPackRejectsOutOfRange:
    """``pack`` must refuse out-of-domain values, never silently wrap."""

    def test_range_overflow_rejected(self):
        codec = make_codec()
        with pytest.raises(ValueError, match="count"):
            codec.pack({"a": False, "count": 7, "st": "IDLE"})

    def test_range_underflow_rejected(self):
        codec = make_codec()
        with pytest.raises(ValueError, match="count"):
            codec.pack({"a": False, "count": -1, "st": "IDLE"})

    def test_unknown_enum_member_rejected(self):
        codec = make_codec()
        with pytest.raises(ValueError, match="st"):
            codec.pack({"a": False, "count": 0, "st": "BOGUS"})

    def test_no_silent_wrap_into_neighbouring_field(self):
        # count occupies 3 bits (domain 0..6).  A wrapped 7 would decode to
        # a *valid* state with a corrupted neighbour -- exactly the failure
        # the ValueError prevents.
        codec = make_codec()
        with pytest.raises(ValueError):
            codec.pack({"a": False, "count": 8, "st": "IDLE"})

    def test_overwide_index_from_custom_type_rejected(self):
        class SparseType(EnumType):
            # A buggy type whose index exceeds its declared bit width.
            def bit_width(self):
                return 1

        # Refused when the layout is built, so packing pays nothing: a
        # packed "C" would set the neighbouring field's bit.
        with pytest.raises(ValueError, match="fit"):
            StateCodec([
                StateVar("s", SparseType("sparse", ["A", "B", "C"]), "A"),
                StateVar("b", BoolType(), False),
            ])

    @given(count=st.integers())
    def test_any_out_of_domain_int_rejected(self, count):
        codec = make_codec()
        if 0 <= count <= 6:
            assert codec.extract(codec.pack({"a": False, "count": count, "st": "IDLE"}),
                                 "count") == count
        else:
            with pytest.raises(ValueError):
                codec.pack({"a": False, "count": count, "st": "IDLE"})
