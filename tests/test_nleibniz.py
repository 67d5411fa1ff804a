import itertools
import math
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import braidforge.nleibniz as nl
import braidforge.scalars as sc
import braidforge.tensor as T
import construction_oracle
import nleibniz_oracle
from construction_oracle import bits
from library_extras import ad_basis, bracket_basis, extend_bracket_by_leibniz, is_homomorphism, zero_algebra, zero_operator
from braidforge.errors import NotNilpotentError, PreconditionError, NotCertifiedError, SchemaError

ONE = Fraction(1)


def basis(i):
    return {i: ONE}


# -- fundamental identity ------------------------------------------------


def test_zero_bracket_passes_any_shape():
    for n, d in ((2, 1), (3, 4), (4, 2)):
        assert nl.check_fundamental_identity(zero_algebra(n, d)).passed


def test_t3_passes(t3):
    assert nl.check_fundamental_identity(t3).passed


def test_perturbed_t3_fails_with_lex_min_witness(t3_bad):
    report = nl.check_fundamental_identity(t3_bad)
    assert not report.passed
    assert report.witness["tuple"] == [0, 1, 2, 1, 1]


def test_brute_force_oracle_agreement():
    # independent dense evaluation over all tuples for a handful of brackets
    def oracle(bracket, d, n):
        def f(vectors):
            out = [Fraction(0)] * d
            for key, vec in bracket.items():
                coeff = ONE
                for v, i in zip(vectors, key):
                    coeff *= v[i]
                for j, c in vec.items():
                    out[j] += coeff * c
            return out

        def e(i):
            v = [Fraction(0)] * d
            v[i] = ONE
            return v

        for tpl in itertools.product(range(d), repeat=2 * n - 1):
            xs, ys = tpl[:n], tpl[n:]
            lhs = f([f([e(i) for i in xs])] + [e(i) for i in ys])
            rhs = [Fraction(0)] * d
            for i in range(n):
                inner = f([e(xs[i])] + [e(y) for y in ys])
                vecs = [e(x) for x in xs]
                vecs[i] = inner
                for j, c in enumerate(f(vecs)):
                    rhs[j] += c
            if lhs != rhs:
                return False
        return True

    cases = [
        ({(0, 1, 1): {2: ONE}}, 3, 3),
        ({(0, 1, 1): {2: ONE}, (2, 1, 1): {1: ONE}}, 3, 3),
        ({(0, 1): {2: ONE}}, 3, 2),
        ({(0, 0): {0: ONE}}, 1, 2),
        ({(1, 0, 0): {1: Fraction(2)}}, 2, 3),
    ]
    for bracket, d, n in cases:
        mine = nl.check_fundamental_identity(nl.NLeibnizAlgebra(n, d, bracket)).passed
        assert mine == oracle(bracket, d, n)


@st.composite
def algebras(draw):
    """Brackets of arity 2-4 on dim 1-3, nilpotent (outputs above the inputs,
    so the identity often holds) or random, exact and float, with values
    within and beyond EPS_CMP of each other."""
    mode = draw(st.sampled_from(sc.MODES))
    n = draw(st.integers(2, 4))
    d = draw(st.integers(1, 3 if n < 4 else 2))
    nilpotent = draw(st.booleans())
    if mode == sc.EXACT:
        values = st.sampled_from([ONE, -ONE, Fraction(2), Fraction(1, 2), Fraction(-3, 2)])
    else:
        values = st.sampled_from([1.0, -1.0, 2.0, 0.3, 1 / 3, 3e-9, 1.0000000003])
    bracket = {}
    for _ in range(draw(st.integers(0, 4))):
        key = tuple(draw(st.integers(0, d - 1)) for _ in range(n))
        low = max(key) + 1 if nilpotent else 0
        if low < d:
            bracket.setdefault(key, {})[draw(st.integers(low, d - 1))] = draw(values)
    return nl.NLeibnizAlgebra(n, d, bracket, mode)


def _without_times(report):
    doc = report.to_json()
    for check in doc["checks"]:
        del check["elapsed_ms"]
    return doc


@settings(max_examples=200, deadline=None)
@given(algebras())
@example(nl.NLeibnizAlgebra(3, 3, {(0, 2, 1): {0: ONE}, (1, 2, 1): {1: -ONE}}))  # a side cancels to zero
@example(nl.NLeibnizAlgebra(3, 2, {(1, 1, 1): {1: 0.7}, (0, 1, 1): {0: 0.1}}, sc.FLOAT))  # slots sum in order
def test_fundamental_identity_matches_the_tuple_walk(a):
    """Whole reports, witness tuple and both sides' vectors included."""
    want = nleibniz_oracle.check_fundamental_identity(a)
    assert _without_times(nl.check_fundamental_identity(a)) == _without_times(want)


@st.composite
def repeated_adjoint_algebras(draw):
    """Brackets whose adjoints ad_ys take 1-3 distinct values, zero among
    them or not, each trailing tuple ys taking one: nilpotent (each ad_ys
    strictly raises the index) or random, exact and float, arity 2-4 on
    dim 1-3."""
    mode = draw(st.sampled_from(sc.MODES))
    n = draw(st.integers(2, 4))
    d = draw(st.integers(1, 3 if n < 4 else 2))
    nilpotent = draw(st.booleans())
    if mode == sc.EXACT:
        values = st.sampled_from([ONE, -ONE, Fraction(2), Fraction(1, 2)])
    else:
        values = st.sampled_from([1.0, -1.0, 0.3, 1 / 3, 3e-9])
    adjoints = []  # each a map i -> [e_i, ys] as a sparse vector
    for _ in range(draw(st.integers(1, 3))):
        adjoint = {}
        for _ in range(draw(st.integers(0, 3))):
            i = draw(st.integers(0, d - 1))
            low = i + 1 if nilpotent else 0
            if low < d:
                adjoint.setdefault(i, {})[draw(st.integers(low, d - 1))] = draw(values)
        adjoints.append(adjoint)
    bracket = {}
    for ys in itertools.product(range(d), repeat=n - 1):
        for i, out in adjoints[draw(st.integers(0, len(adjoints) - 1))].items():
            bracket[(i,) + ys] = out
    return nl.NLeibnizAlgebra(n, d, bracket, mode)


@settings(max_examples=200, deadline=None)
@given(repeated_adjoint_algebras())
def test_fundamental_identity_matches_the_tuple_walk_on_repeated_adjoints(a):
    """Whole reports, where each distinct nonzero ad_ys is walked once."""
    want = nleibniz_oracle.check_fundamental_identity(a)
    assert _without_times(nl.check_fundamental_identity(a)) == _without_times(want)


def test_zero_and_repeated_adjoints_are_walked_once():
    # ad_0 = 0 and ad_1 = ad_2 = (e_0 -> e_1): one walk, at ys = 1
    a = nl.NLeibnizAlgebra(2, 3, {(0, 1): {1: ONE}, (0, 2): {1: ONE}})
    with mock.patch.object(nl, "_derivation_failure", wraps=nl._derivation_failure) as walk:
        report = nl.check_fundamental_identity(a)
    assert walk.call_count == 1
    assert _without_times(report) == _without_times(nleibniz_oracle.check_fundamental_identity(a))


@settings(max_examples=100, deadline=None)
@given(algebras(), st.data())
def test_is_derivation_matches_the_tuple_walk(a, data):
    """Right translations at basis tuples, and random maps."""
    if data.draw(st.booleans()):
        d_map = ad_basis(a, [data.draw(st.integers(0, a.dim - 1)) for _ in range(a.arity - 1)])
    else:
        value = st.sampled_from([ONE, Fraction(-2, 3)] if a.mode == sc.EXACT else [1.0, -0.7])
        entries = {(data.draw(st.integers(0, a.dim - 1)), data.draw(st.integers(0, a.dim - 1))): data.draw(value) for _ in range(3)}
        d_map = T.TensorOperator(T.shape(a.dim), T.shape(a.dim), entries, a.mode)
    assert _without_times(nl.is_derivation(a, d_map)) == _without_times(nleibniz_oracle.is_derivation(a, d_map))


# -- ad / derivations ------------------------------------------------------


def test_ad_reads_structure_constants(t3):
    adm = nl.ad(t3, [basis(1), basis(1)])
    assert adm.entries == {(2, 0): ONE}


def test_ad_zero_bracket():
    assert nl.ad(zero_algebra(3, 4), [basis(0), basis(1)]).nnz == 0


#: coefficients with explicit zeros of both signs, and tiny ones whose products underflow to zero
FLOAT_COEFFICIENTS = st.one_of(st.sampled_from([0.0, -0.0, 1e-200, -1e-200]), st.floats(-4, 4, allow_nan=False))


@st.composite
def brackets_and_vectors(draw):
    """(algebra, vectors): a random bracket of arity 2..4 on k^1..k^3, exact
    or float, and one sparse vector per argument, with explicit zeros."""
    n, d, mode = draw(st.integers(2, 4)), draw(st.integers(1, 3)), draw(st.sampled_from([sc.EXACT, sc.FLOAT]))
    value = FLOAT_COEFFICIENTS if mode == sc.FLOAT else st.fractions(-2, 2, max_denominator=3)
    index = st.integers(0, d - 1)
    bracket = draw(st.dictionaries(st.tuples(*[index] * n), st.dictionaries(index, value, min_size=1, max_size=2), max_size=8))
    vectors = [draw(st.dictionaries(index, value, max_size=d)) for _ in range(n)]
    return nl.NLeibnizAlgebra(n, d, bracket, mode), vectors


@settings(max_examples=300, deadline=None)
@given(brackets_and_vectors())
def test_bracket_apply_matches_the_coefficient_loop_bit_for_bit(case):
    a, vectors = case
    assert bits(a.bracket_apply(vectors)) == bits(construction_oracle.bracket_apply(a, vectors))


@settings(max_examples=300, deadline=None)
@given(brackets_and_vectors())
def test_ad_matches_the_coefficient_loop_bit_for_bit(case):
    a, vectors = case
    assert bits(nl.ad(a, vectors[1:])) == bits(construction_oracle.ad(a, vectors[1:]))


def test_ad_reads_the_trailing_arguments_only():
    # the first vector misses the key's first index, which ad must not read
    a = nl.NLeibnizAlgebra(2, 2, {(0, 1): {0: 1.5}}, sc.FLOAT)
    assert bits(nl.ad(a, [{1: 2.0}]))[3:] == (1, [[(0, (3.0).hex())], []])
    assert a.bracket_apply([{1: 1.0}, {1: 2.0}]) == {}


def test_zero_map_is_derivation(t3):
    zero = zero_operator(T.shape(3), T.shape(3))
    assert nl.is_derivation(t3, zero).passed


def test_identity_not_derivation_on_t3(t3):
    report = nl.is_derivation(t3, T.identity(T.shape(3)))
    assert not report.passed
    # LHS = e_2, RHS = 3 e_2 at (e_0, e_1, e_1)
    assert report.witness["tuple"] == [0, 1, 1]
    assert report.witness["lhs"] == {"2": "1/1"}
    assert report.witness["rhs"] == {"2": "3/1"}


def test_every_basis_adjoint_is_derivation(t3, a3):
    for alg in (t3, a3):
        for key in itertools.product(range(alg.dim), repeat=alg.arity - 1):
            assert nl.is_derivation(alg, ad_basis(alg, key)).passed


# -- exponentials ----------------------------------------------------------


def test_exp_ad_zero_is_identity(t3):
    assert nl.exp_ad(t3, [basis(0), basis(0)]) == T.identity(T.shape(3))


def test_exp_ad_t3_nilpotent(t3):
    e = nl.exp_ad(t3, [basis(1), basis(1)])
    assert e == T.identity(T.shape(3)) + nl.ad(t3, [basis(1), basis(1)])


def test_exp_ad_inverse_is_exp_of_negative(t3):
    adm = nl.ad(t3, [basis(1), basis(1)])
    fwd = nl.exp_ad(t3, [basis(1), basis(1)])
    bwd = T.exp(adm.scaled(-1))
    assert fwd @ bwd == T.identity(T.shape(3))


def test_exp_ad_non_nilpotent_exact_fails_float_works():
    alg = nl.certify(nl.NLeibnizAlgebra(2, 2, {(0, 1): {0: 1}}))
    with pytest.raises(NotNilpotentError):
        nl.exp_ad(alg, [basis(1)])
    e = nl.exp_ad(replace(alg, mode="float"), [basis(1)])
    assert abs(e.entries[(0, 0)] - math.e) < 1e-9
    assert abs(e.entries[(1, 1)] - 1.0) < 1e-12


# -- constructions ---------------------------------------------------------


def test_nbracket_zero_stays_zero():
    z = zero_algebra(2, 3)
    assert nl.nbracket_from_leibniz(z, 4).bracket == {}


def test_nbracket_a3_collapses(a3):
    out = nl.nbracket_from_leibniz(a3, 3, recheck=True)
    assert out.bracket == {}


def test_nbracket_of_a_non_nilpotent_lie_algebra():
    # [e_0, e_1] = e_0 = -[e_1, e_0]: ad_{e_1} scales e_0, and only e_1 moves e_0,
    # so [x_1, {x_2, x_3}] lives on x_1 = e_1 over the two orders of (e_0, e_1)
    lie = nl.NLeibnizAlgebra(2, 2, {(0, 1): {0: 1}, (1, 0): {0: -1}})
    assert nl.nbracket_from_leibniz(lie, 3, recheck=True).bracket == {(1, 0, 1): {0: -1}, (1, 1, 0): {0: 1}}
    assert nl.nbracket_from_leibniz(lie, 4, recheck=True).bracket == {(1, 1, 0, 1): {0: 1}, (1, 1, 1, 0): {0: -1}}


def test_bracket_indices_are_refused_not_truncated():
    for bracket in ({(0.7, 1): {1: 1}}, {(True, 0): {0: 1}}, {(0, 1): {1.9: 1}}, {(0, 1): {"1": 1}}):
        with pytest.raises(SchemaError):
            nl.NLeibnizAlgebra(2, 2, bracket)
    with pytest.raises(SchemaError):
        nl.NLeibnizAlgebra(2, 2, {}, central={0.5: 1})
    # integral numbers of any type are read as ints
    a = nl.NLeibnizAlgebra(2, 2, {(0.0, Fraction(1)): {1.0: 1}}, central={Fraction(0): 1})
    assert a.bracket == {(0, 1): {1: 1}} and a.central == {0: 1}


def test_nbracket_n2_is_input(a3):
    assert nl.nbracket_from_leibniz(a3, 2) is a3


def test_nbracket_rejects_non_leibniz():
    bad = nl.NLeibnizAlgebra(2, 1, {(0, 0): {0: 1}})
    with pytest.raises(PreconditionError):
        nl.nbracket_from_leibniz(bad, 3)


def test_extend_bracket_zero(a3):
    z = zero_algebra(3, 3)
    out = extend_bracket_by_leibniz(a3, z)
    assert out.arity == 4 and out.bracket == {}


def test_extend_bracket_self(a3):
    out = extend_bracket_by_leibniz(a3, a3)
    assert out.arity == 3 and out.bracket == {}
    assert out.certified


def test_extend_bracket_derivation_failure_witness(a3):
    bad = nl.NLeibnizAlgebra(2, 3, {(0, 0): {0: 1}})
    with pytest.raises(PreconditionError) as err:
        extend_bracket_by_leibniz(a3, bad)
    assert err.value.witness["y"] == 1


def test_fundamental_leibniz_zero():
    out = nl.fundamental_leibniz(zero_algebra(3, 2))
    assert out.arity == 2 and out.dim == 4 and out.bracket == {}


def test_fundamental_leibniz_t3_slot_terms(t3):
    out = nl.fundamental_leibniz(t3, recheck=True)
    s = T.power_shape(3, 2)
    assert out.dim == 9
    assert bracket_basis(out, (s.flat((0, 1)), s.flat((1, 1)))) == {s.flat((2, 1)): ONE}
    assert bracket_basis(out, (s.flat((1, 0)), s.flat((1, 1)))) == {s.flat((1, 2)): ONE}


def test_fundamental_leibniz_propagates_central(t3bar):
    out = nl.fundamental_leibniz(t3bar)
    s = T.power_shape(4, 2)
    assert out.central == {s.flat((0, 0)): ONE}
    assert nl.is_central(out, out.central)


def test_fundamental_requires_certified(t3_bad):
    with pytest.raises(NotCertifiedError):
        nl.fundamental_leibniz(t3_bad)


def test_composition_closure(a3):
    # nesting to arity n, then back down to a binary bracket, stays certified Leibniz
    for n in (3, 4):
        lifted = nl.nbracket_from_leibniz(a3, n)
        fund = nl.fundamental_leibniz(lifted)
        assert fund.certified
        assert nl.check_fundamental_identity(fund).passed


# -- unit adjunction and centers -------------------------------------------


def test_adjoin_unit_zero_algebra():
    out = nl.adjoin_unit(zero_algebra(3, 2))
    assert out.dim == 3 and out.bracket == {}
    assert out.central == {0: ONE}


def test_central_element_is_range_checked():
    with pytest.raises(SchemaError, match="central element out of range"):
        nl.NLeibnizAlgebra(2, 2, {}, central={2: 1})
    with pytest.raises(SchemaError, match="central element out of range"):
        nl.NLeibnizAlgebra(2, 2, {}, central={-1: 1})
    assert nl.NLeibnizAlgebra(2, 2, {}, central={1: 0}).central == {}
    assert nl.NLeibnizAlgebra(2, 2, {}).central is None
    with pytest.raises(SchemaError, match="central element out of range"):
        nl.is_central(zero_algebra(2, 2), {2: 1})


def test_central_element_survives_certification_and_reversal(a3):
    a = nl.NLeibnizAlgebra(2, 3, a3.bracket, central={2: 1})
    for b in (nl.certify(a), a.as_certified(), a.op_reversed()):
        assert b.central == {2: ONE}
    assert nl.certify(a).certified and not a.op_reversed().certified


def test_unit_extension_certified_as_its_input(t3, t3_bad):
    assert nl.unit_extension(t3) == nl.adjoin_unit(t3)
    bad = nl.unit_extension(t3_bad)
    assert not bad.certified and bad.central == {0: ONE}
    assert not nl.check_fundamental_identity(bad).passed
    with pytest.raises(NotCertifiedError):
        nl.adjoin_unit(t3_bad)


def test_adjoin_unit_t3(t3, t3bar):
    assert t3bar.dim == 4
    assert t3bar.bracket == {(1, 2, 2): {3: ONE}}
    assert nl.is_central(t3bar, {0: ONE})
    assert nl.check_fundamental_identity(t3bar).passed


def test_central_elements_zero_bracket_full_space():
    assert len(nl.central_elements(zero_algebra(3, 4))) == 4


def test_central_elements_t3(t3):
    center = nl.central_elements(t3)
    assert {2: ONE} in center
    assert all(nl.is_central(t3, z) for z in center)


def test_central_elements_t3bar(t3bar):
    center = nl.central_elements(t3bar)
    assert {0: ONE} in center and {3: ONE} in center


# -- homomorphisms ---------------------------------------------------------


def test_identity_homomorphism(t3):
    assert is_homomorphism(t3, t3, T.identity(T.shape(3))).passed


def test_zero_map_into_zero_algebra(t3):
    z = zero_algebra(3, 2)
    phi = zero_operator(T.shape(3), T.shape(2))
    assert is_homomorphism(t3, z, phi).passed


def test_swap_breaks_homomorphism(t3):
    swap = T.TensorOperator(
        T.shape(3), T.shape(3), {(0, 1): 1, (1, 0): 1, (2, 2): 1}
    )
    report = is_homomorphism(t3, t3, swap)
    assert not report.passed
    assert report.witness["tuple"] == [0, 1, 1]


def test_homomorphism_skips_exp_when_not_nilpotent():
    alg = nl.certify(nl.NLeibnizAlgebra(2, 2, {(0, 1): {0: 1}}))
    report = is_homomorphism(alg, alg, T.identity(T.shape(2)))
    names = {c.name: c.status for c in report.checks}
    assert names["bracket-preserving"] == "pass"
    assert names["exp-intertwining"] == "skipped"


# -- op reversal -----------------------------------------------------------


def test_op_reversal_involution(t3):
    assert t3.op_reversed().op_reversed().bracket == t3.bracket


def test_op_reversal_not_certified(t3):
    assert not t3.op_reversed().certified


# -- random certified structure property ------------------------------------

bracket_entries = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
    st.dictionaries(st.integers(0, 2), st.integers(-2, 2), min_size=1, max_size=2),
    max_size=2,
)


@settings(max_examples=60, deadline=None)
@given(bracket_entries)
def test_adjoints_are_derivations_iff_certified(bracket):
    alg = nl.NLeibnizAlgebra(3, 3, bracket)
    passed = nl.check_fundamental_identity(alg).passed
    adjoint_derivations = all(
        nl.is_derivation(alg, ad_basis(alg, key)).passed
        for key in itertools.product(range(3), repeat=2)
    )
    # the fundamental identity says exactly that right translations are derivations
    assert passed == adjoint_derivations
