import json
from fractions import Fraction

import pytest

import braidforge.linrack as lr
import braidforge.serialization as ser
import braidforge.setsol as ss
import braidforge.tensor as T
import braidforge.ybops as yb
from braidforge.errors import SchemaError
from library_extras import trivial_nrack

ONE = Fraction(1)


def roundtrip(obj):
    return ser.from_document(json.loads(ser.dumps(ser.to_document(obj))))


def test_operator_roundtrip(t3bar):
    s = yb.nyb_from_central_nleibniz(t3bar)
    back = roundtrip(s)
    assert back == s
    assert back.domain_shape.factor_dims == s.domain_shape.factor_dims


def test_operator_float_roundtrip():
    op = T.TensorOperator(T.shape(2), T.shape(2), {(0, 0): 0.5, (1, 0): 2.0}, mode="float")
    back = roundtrip(op)
    assert back.equal(op)
    doc = ser.to_document(op)
    assert doc["scalars"] == "float"
    assert isinstance(doc["entries"][0][2], float)


def test_nleibniz_roundtrip(t3):
    back = roundtrip(t3)
    assert back.bracket == t3.bracket and back.certified


def test_central_roundtrip(t3bar):
    back = roundtrip(t3bar)
    assert back.central == t3bar.central and back.certified
    assert back.bracket == t3bar.bracket
    assert roundtrip(back) == back


def test_exact_scalars_as_strings(t3):
    doc = ser.to_document(t3)
    assert doc["bracket"][0]["out"] == {"2": "1/1"}


def test_nrack_roundtrip(conj3):
    back = roundtrip(conj3)
    assert back.table == conj3.table and back.certified


def test_nrack_requires_total_table():
    doc = {"kind": "nrack", "size": 2, "arity": 2, "table": [[0, 0, 0]]}
    with pytest.raises(SchemaError):
        ser.from_document(doc)


def test_group_roundtrip(s3):
    back = roundtrip(s3)
    assert back.mul == s3.mul


def test_coalgebra_roundtrip():
    c = lr.kplus_coalgebra(3)
    back = roundtrip(c)
    assert back.delta == c.delta and back.counit == c.counit
    assert back.cocommutative


def test_linear_nrack_roundtrip(conj3):
    l = lr.linearize_nrack(conj3)
    back = roundtrip(l)
    assert back.bracket == l.bracket and back.inv_bracket == l.inv_bracket
    assert lr.check_linear_nrack(back).passed


def test_linear_nrack_certified_flag_roundtrip(t3_bad, conj3):
    # certified by the linearization theorem, and not for an uncertified bracket
    for l, flag in ((lr.linearize_nrack(conj3), True), (lr.linear_nrack_from_nleibniz(t3_bad), False)):
        assert l.certified is flag
        doc = ser.to_document(l)
        assert doc["certified"] is flag
        assert roundtrip(l).certified is flag
    # a document without the field reads as uncertified
    doc = ser.to_document(lr.linearize_nrack(conj3))
    del doc["certified"]
    assert not ser.from_document(doc).certified


def test_linear_rack_serializes_as_arity_two(t3):
    rack = lr.linear_rack_on_tensor_power(lr.linear_nrack_from_nleibniz(t3))
    doc = ser.to_document(rack)
    assert doc["kind"] == "linear_nrack" and doc["arity"] == 2


def test_set_map_roundtrip(conj3):
    s = ss.solution_from_nrack(conj3)
    back = roundtrip(s)
    assert back.image == s.image


def test_deterministic_bytes(t3bar):
    s = yb.nyb_from_central_nleibniz(t3bar)
    a = ser.dumps(ser.to_document(s))
    b = ser.dumps(ser.to_document(yb.nyb_from_central_nleibniz(t3bar)))
    assert a == b


def test_unknown_kind_rejected():
    with pytest.raises(SchemaError):
        ser.from_document({"kind": "mystery"})
    with pytest.raises(SchemaError):
        ser.from_document([1, 2, 3])


def test_float_entries_rejected_in_exact_mode():
    doc = {
        "kind": "operator",
        "scalars": "exact",
        "shape": [2],
        "codomain_shape": [2],
        "entries": [[0, 0, 0.5]],
    }
    with pytest.raises(SchemaError):
        ser.from_document(doc)


def test_each_distinct_value_string_is_parsed_once(monkeypatch):
    calls = []
    parse = ser.scalars.parse_ratio
    monkeypatch.setattr(ser.scalars, "parse_ratio", lambda raw: calls.append(raw) or parse(raw))
    entries = [[r, c, "1/2" if (r + c) % 2 else "-3"] for r in range(3) for c in range(3)] + [[0, 3, 2]]
    op = ser.from_document({"kind": "operator", "shape": [4], "codomain_shape": [3], "entries": entries})
    assert calls == ["-3", "1/2", 2]
    assert op.entries == {(r, c): Fraction(v) for r, c, v in entries}


def test_unhashable_values_are_refused_as_input_errors():
    """A list or an object where a scalar belongs is a SchemaError in both
    modes, not a TypeError from the value-string memo."""
    for mode in ("exact", "float"):
        for value in ([1], {"1": 2}, ["1/2"]):
            doc = {"kind": "operator", "scalars": mode, "shape": [2], "codomain_shape": [2], "entries": [[0, 0, "1/2"], [1, 1, value]]}
            with pytest.raises(SchemaError):
                ser.from_document(doc)


def test_integer_fields_reject_booleans_and_fractional_floats():
    def nrack(size, value):
        return {"kind": "nrack", "size": size, "arity": 2, "table": [[0, 0, 0], [0, 1, 0], [1, 0, value], [1, 1, 1]]}

    for size, value in ((2.9, 1), (2, True), (True, 1), (2, 1.5), (2, float("nan")), (2, float("inf"))):
        with pytest.raises(SchemaError):
            ser.from_document(nrack(size, value))
    # integral floats and integer strings still parse
    for size, value in ((2.0, 1.0), ("2", "1"), (2, 1)):
        assert ser.from_document(nrack(size, value)).table == (0, 0, 1, 1)


def test_provenance_carried():
    doc = ser.to_document(trivial_nrack(2, 2), provenance=["made-by-hand"])
    assert doc["provenance"] == ["made-by-hand"]


from hypothesis import given, settings, strategies as st


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.lists(
        st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(-5, 5), st.integers(1, 4)),
        max_size=6,
    ),
)
def test_operator_roundtrip_fuzz(rows, cols, items):
    dom = T.TensorShape((cols, 3))
    cod = T.TensorShape((rows, 3))
    entries = {}
    for r, c, num, den in items:
        entries[(r % (rows * 3), c % (cols * 3))] = Fraction(num, den)
    op = T.TensorOperator(dom, cod, entries)
    assert roundtrip(op) == op
