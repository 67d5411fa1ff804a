"""TensorOperator's one store, integer columns over one scale, against the
Fraction-dict operator of ``operator_oracle``."""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import braidforge.cli as cli
import braidforge.linrack as lr
import braidforge.nrack as nr
import braidforge.scalars as sc
import braidforge.serialization as ser
import braidforge.tensor as T
import braidforge.ybops as yb
from braidforge.errors import SchemaError, SingularMatrixError

import operator_oracle as oo
from library_extras import cyclic_group

EXACT_VALUES = st.fractions(min_value=-3, max_value=3, max_denominator=6)
FLOAT_VALUES = st.sampled_from([1.0, -1.0, 0.5, 0.1, -0.3, 2.5, 1e-3, 3.0]) | st.floats(-4, 4).filter(lambda x: abs(x) > 1e-3)


@st.composite
def shapes(draw):
    return T.TensorShape(tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))))


@st.composite
def entry_dicts(draw, dom, cod, mode):
    """A {(row, col): value} dict in a drawn insertion order, zeros and
    all-zero columns included."""
    values = EXACT_VALUES if mode == sc.EXACT else FLOAT_VALUES
    keys = st.tuples(st.integers(0, cod.total - 1), st.integers(0, dom.total - 1))
    pairs = draw(st.lists(st.tuples(keys, values | st.just(0)), max_size=2 * dom.total + 2))
    return dict(pairs)


@st.composite
def operator_pairs(draw, mode=None, dom=None, cod=None):
    """(new, oracle) operators built from one entries dict."""
    mode = mode or draw(st.sampled_from([sc.EXACT, sc.FLOAT]))
    dom = dom or draw(shapes())
    cod = cod or draw(shapes())
    entries = draw(entry_dicts(dom, cod, mode))
    return T.TensorOperator(dom, cod, entries, mode), oo.Operator(dom, cod, entries, mode)


def _bits(mode, value):
    return value.hex() if mode == sc.FLOAT else value


def assert_same(new, old):
    """The columns and scale are the oracle's integer columns, in the same
    order; the entries view is the oracle's entries; floats bit for bit."""
    cols, scale = old.integer_columns()
    bits = lambda cs: [[(r, _bits(old.mode, v)) for r, v in col] for col in cs]  # noqa: E731
    assert (new.mode, new.domain_shape, new.codomain_shape) == (old.mode, old.domain_shape, old.codomain_shape)
    assert bits(new.columns) == bits(cols)
    assert new.scale == scale
    assert sorted((k, _bits(new.mode, v)) for k, v in new.entries.items()) == sorted(
        (k, _bits(old.mode, v)) for k, v in old.entries.items()
    )
    assert new.nnz == len(old.entries)
    if new.mode == sc.EXACT:
        assert all(type(v) is int for col in new.columns for _, v in col)


@settings(max_examples=200, deadline=None)
@given(operator_pairs())
def test_constructor_stores_the_integer_columns(pair):
    assert_same(*pair)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_algebra_matches_the_fraction_dict_operator(data):
    mode = data.draw(st.sampled_from([sc.EXACT, sc.FLOAT]))
    mid = data.draw(shapes())
    a, oa = data.draw(operator_pairs(mode, cod=data.draw(shapes()), dom=mid))
    b, ob = data.draw(operator_pairs(mode, cod=mid))
    assert_same(T.compose(a, b), oo.compose(oa, ob))
    assert_same(a.tensor(b), oa.tensor(ob))
    c, oc = data.draw(operator_pairs(mode, dom=a.domain_shape, cod=a.codomain_shape))
    assert_same(a + c, oa + oc)
    # a sum with the negation cancels every entry
    assert_same(a + a.scaled(-1), oa + oa.scale(-1))
    factor = data.draw(EXACT_VALUES if mode == sc.EXACT else FLOAT_VALUES)
    assert_same(a.scaled(factor), oa.scale(factor))
    perm = data.draw(st.permutations(range(len(a.codomain_shape))))
    assert_same(a.permute_codomain(perm), oa.permute_codomain(perm))
    assert (a == c) == (oa == oc)
    assert a.first_difference(c) == oa.first_difference(oc)
    assert T.column_rank(a) == oo.column_rank(oa)
    if a.is_square():
        try:
            want = oo.invert(oa)
        except SingularMatrixError:
            with pytest.raises(SingularMatrixError):
                T.invert(a)
        else:
            assert_same(T.invert(a), want)


def test_the_scale_is_the_lcm_of_the_reduced_denominators():
    shp = T.shape(3)
    op = T.TensorOperator(shp, shp, {(0, 0): Fraction(1, 4), (1, 1): Fraction(5, 6), (2, 2): Fraction(2, 4)})
    assert op.scale == 12 and op.columns == [[(0, 3)], [(1, 10)], [(2, 6)]]
    # 6/4 and 2/4 are 3/2 and 1/2, so the trusted constructor reduces the scale to 2
    half = T.TensorOperator.from_columns(shp, shp, [[(0, 6)], [(1, 2)], []], 4)
    assert (half.columns, half.scale) == ([[(0, 3)], [(1, 1)], []], 2)
    for out in (op @ op, op.scaled(Fraction(4, 5)) + op, op.tensor(half), half + half):
        assert out.scale == math.lcm(*(v.denominator for v in out.entries.values()))


def test_the_trusted_constructor_drops_zeros():
    shp = T.shape(2)
    for mode in sc.MODES:
        op = T.TensorOperator.from_columns(shp, shp, [[(0, 0), (1, 2)], [(1, 0)]], 2, mode)
        assert op.nnz == 1 and op.entries == {(1, 0): sc.one(mode) if mode == sc.EXACT else 2.0}


# -- documents ---------------------------------------------------------------


def _bytes(doc):
    return ser.dumps(doc).encode()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_documents_are_the_fraction_dict_bytes(data):
    mode = data.draw(st.sampled_from([sc.EXACT, sc.FLOAT]))
    op, old = data.draw(operator_pairs(mode))
    want = _bytes(oo.operator_document(old))
    assert _bytes(ser.to_document(op)) == want
    back = ser.from_document(json.loads(want))
    assert _bytes(ser.to_document(back)) == want
    assert_same(back, oo.Operator(old.domain_shape, old.codomain_shape, oo.entries_from_json(json.loads(want)["entries"], mode), mode))

    dim = data.draw(st.integers(1, 3))
    one, pair = T.TensorShape((dim,)), T.power_shape(dim, 2)
    delta, odelta = data.draw(operator_pairs(mode, dom=one, cod=pair))
    counit, ocounit = data.draw(operator_pairs(mode, dom=one, cod=T.shape(1)))
    base_doc = oo.coalgebra_document(dim, odelta, ocounit, mode)
    want = _bytes(base_doc)
    assert _bytes(ser.to_document(ser.from_document(json.loads(want)))) == want

    arity = data.draw(st.integers(2, 3))
    dom = T.power_shape(dim, arity)
    bracket, obracket = data.draw(operator_pairs(mode, dom=dom, cod=one))
    inv, oinv = data.draw(operator_pairs(mode, dom=dom, cod=one))
    want = _bytes(oo.linear_nrack_document(base_doc, arity, obracket, oinv, mode))
    assert _bytes(ser.to_document(ser.from_document(json.loads(want)))) == want


@pytest.mark.parametrize("raw", ["3/6", "-4/8", "-7", "0/5", "12", "+1/2", " 2/3", "1.25", "-1_0/4"])
def test_exact_scalars_parse_as_before(raw):
    assert Fraction(*sc.parse_ratio(raw)) == sc.parse_scalar(raw, sc.EXACT)
    assert sc.parse_ratio(raw)[1] == sc.parse_scalar(raw, sc.EXACT).denominator


def test_bad_exact_scalars_are_refused():
    for raw in ["1/0", "1/-2", "x", 1.5, None, "9" * 5000]:
        with pytest.raises(SchemaError):
            sc.parse_ratio(raw)


def _identity_doc():
    return ser.to_document(T.identity(T.power_shape(2, 2)))


def test_repeated_operator_entries_are_refused():
    doc = _identity_doc()
    doc["entries"].append([0, 0, "5/1"])
    with pytest.raises(SchemaError, match=r"duplicate operator entry \(0,0\)"):
        ser.from_document(doc)
    # one row in two columns is no repeat
    doc = _identity_doc()
    doc["entries"].append([0, 1, "5/1"])
    assert ser.from_document(doc).entries[(0, 1)] == 5


def test_repeated_coalgebra_entries_are_refused():
    # a repeated coproduct entry used to surface as failing counit laws
    doc = ser.to_document(lr.set_coalgebra(2))
    doc["delta"].append(list(doc["delta"][0]))
    with pytest.raises(SchemaError, match="duplicate coalgebra entry"):
        ser.from_document(doc)
    doc = ser.to_document(lr.set_coalgebra(2))
    doc["epsilon"].append([0, 0, "2/1"])
    with pytest.raises(SchemaError, match="duplicate coalgebra entry"):
        ser.from_document(doc)


def test_repeated_linear_nrack_entries_are_refused():
    for key in ("bracket", "inv_bracket"):
        doc = ser.to_document(lr.linearize_nrack(nr.cyclic_rack(3)))
        doc[key].append(list(doc[key][-1]))
        with pytest.raises(SchemaError, match="duplicate linear_nrack entry"):
            ser.from_document(doc)


def test_cli_refuses_a_repeated_entry(tmp_path, capsys):
    # the repeat used to overwrite (0,0) with 5, so verify ybe judged another operator and exited 1
    doc = _identity_doc()
    doc["entries"].append([0, 0, "5/1"])
    path = tmp_path / "op.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["verify", "ybe", str(path)]) == 2
    assert "duplicate operator entry" in capsys.readouterr().err


# -- monomial invertibility ----------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_the_monomial_shortcut_agrees_with_the_rank(data):
    mode = data.draw(st.sampled_from([sc.EXACT, sc.FLOAT]))
    d, n = data.draw(st.sampled_from([(1, 2), (2, 2), (3, 2), (2, 3)]))
    total = d**n
    kind = data.draw(st.sampled_from(["permutation", "constant", "map"]))
    if kind == "permutation":
        image = data.draw(st.permutations(range(total)))
    elif kind == "constant":
        image = [data.draw(st.integers(0, total - 1))] * total
    else:
        image = data.draw(st.lists(st.integers(0, total - 1), min_size=total, max_size=total))
    if mode == sc.EXACT:
        coeff = data.draw(EXACT_VALUES.filter(bool))
    else:  # around the elimination's pivot threshold too
        coeff = data.draw(FLOAT_VALUES | st.sampled_from([1e-12, -1e-10, 2e-9, float("inf")]))
    shp = T.power_shape(d, n)
    s = T.TensorOperator(shp, shp, {(r, c): coeff for c, r in enumerate(image)}, mode)
    assert total not in yb._index_form(s, total)[0]  # every column plain: the shortcut decides
    assert yb.verify_nybe(s, n).invertible == (T.column_rank(s) == total)


def test_a_repeated_image_is_not_invertible():
    shp = T.power_shape(2, 2)
    s = T.TensorOperator(shp, shp, {(0, 0): 1, (1, 1): 1, (2, 2): 1, (2, 3): 1})
    report = yb.verify_nybe(s, 2)
    assert not report.invertible and T.column_rank(s) == 3


# -- groups ----------------------------------------------------------------------


def test_group_inverses_and_identity_are_derived_not_passed():
    mul = cyclic_group(2).mul
    g = nr.FiniteGroup(2, mul)
    assert g.inv == (0, 1) and g.identity == 0
    with pytest.raises(TypeError):
        nr.FiniteGroup(2, mul, inv=(5, 5), identity=7)
    assert not hasattr(nr.symmetric_group(3), "labels")


def test_a_document_keeps_the_columns_and_the_verdict():
    rng = random.Random(5)
    shp = T.power_shape(2, 2)
    entries = {(rng.randrange(4), c): Fraction(rng.randrange(-3, 4), rng.randrange(1, 4)) for c in range(4) for _ in range(2)}
    op = T.TensorOperator(shp, shp, entries)
    back = ser.from_document(json.loads(ser.dumps(ser.to_document(op))))
    # a document lists the entries in (row, col) order, so each column's rows come sorted
    assert back == op and back.scale == op.scale
    assert back.columns == [sorted(col) for col in op.columns]
    assert yb.verify_nybe(back, 2).to_json() | {"elapsed_ms": 0} == yb.verify_nybe(op, 2).to_json() | {"elapsed_ms": 0}
