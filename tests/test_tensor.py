from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import braidforge.nleibniz as nl
import braidforge.tensor as T
import braidforge.ybops as yb
from braidforge.errors import NotNilpotentError, SchemaError, ShapeMismatchError, SingularMatrixError

from conftest import dense_equal, to_dense
from linrack_oracle import deal_factors
from library_extras import bracket_basis, zero_algebra
import operator_oracle

ONE = Fraction(1)


def op(dom, cod, entries, mode="exact"):
    return T.TensorOperator(T.TensorShape(tuple(dom)), T.TensorShape(tuple(cod)), entries, mode)


# -- shapes --------------------------------------------------------------


def test_shape_flat_multi_roundtrip():
    s = T.shape(2, 3, 4)
    assert s.total == 24
    for flat in range(24):
        assert s.flat(s.multi(flat)) == flat


def test_flat_refuses_a_multi_index_of_the_wrong_length():
    s = T.power_shape(2, 3)
    assert s.flat((1, 1, 1)) == 7
    for multi in [(1, 1), (1, 1, 1, 1), ()]:
        with pytest.raises(SchemaError, match="needs 3 digits"):
            s.flat(multi)


def test_flat_index_is_the_row_major_layout():
    s = T.power_shape(3, 4)
    for flat in range(s.total):
        assert T.flat_index(s.multi(flat), 3) == flat


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 5))
def test_digit_reversal_matches_the_per_index_form(m, k):
    multi = T.power_shape(m, k).multi
    assert T.digit_reversal(m, k) == [T.flat_index(multi(x)[::-1], m) for x in range(m**k)]


def test_tensor_vector_matches_kron():
    u = {0: Fraction(2), 2: Fraction(-1, 3)}
    v = {1: Fraction(5), 0: Fraction(0)}
    w = {0: ONE, 1: Fraction(7)}
    got = T.tensor_vector([u, v, w], T.shape(3, 2, 2))
    u_, v_, w_ = ([x.get(i, 0) for i in range(d)] for x, d in ((u, 3), (v, 2), (w, 2)))
    assert got == {i: x for i, x in enumerate(np.kron(np.kron(u_, v_), w_)) if x != 0}
    with pytest.raises(ShapeMismatchError):
        T.tensor_vector([u, v], T.shape(3, 2, 2))


def test_shape_rejects_index_overflow():
    with pytest.raises(SchemaError):
        T.shape(2**16, 2**16)


def test_shape_rejects_nonpositive():
    with pytest.raises(SchemaError):
        T.shape(2, 0)


# -- compose -------------------------------------------------------------


def test_identity_compose():
    i4 = T.identity(T.power_shape(2, 2))
    assert i4 @ i4 == i4


def test_flip_is_involution():
    flip = T.permutation_operator(T.power_shape(2, 2), (1, 0))
    assert flip @ flip == T.identity(T.power_shape(2, 2))


def test_compose_against_dense_oracle(a3):
    # (R (x) Id) o (Id (x) R) for the braiding of the unit extension of A3
    r = yb.nyb_from_central_nleibniz(nl.adjoin_unit(a3))
    left = T.embed(r, 0, 1, 4)
    right = T.embed(r, 1, 0, 4)
    composed = left @ right
    oracle = np.dot(to_dense(left), to_dense(right))
    assert dense_equal(to_dense(composed), oracle)


def test_compose_shape_mismatch():
    a = op([2], [2], {(0, 0): 1})
    b = op([3], [3], {(0, 0): 1})
    with pytest.raises(ShapeMismatchError):
        a @ b


sparse_ops = st.builds(
    lambda d, items: op(
        [d], [d], {(r % d, c % d): Fraction(v, q) for (r, c, v, q) in items}
    ),
    st.integers(min_value=1, max_value=4),
    st.lists(
        st.tuples(
            st.integers(0, 3),
            st.integers(0, 3),
            st.integers(-4, 4),
            st.integers(1, 3),
        ),
        max_size=6,
    ),
)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.data())
def test_compose_associative(dim, data):
    items = st.lists(
        st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1), st.integers(-4, 4)),
        max_size=6,
    )

    def mk():
        return op([dim], [dim], {(r, c): Fraction(v) for r, c, v in data.draw(items)})

    a, b, c = mk(), mk(), mk()
    assert (a @ b) @ c == a @ (b @ c)


# -- embed ---------------------------------------------------------------


def test_embed_identity_is_identity():
    assert T.embed(T.identity(T.shape(3)), 1, 1, 3) == T.identity(T.power_shape(3, 3))


def test_embed_flip_basis_action():
    flip = T.permutation_operator(T.power_shape(2, 2), (1, 0))
    e = T.embed(flip, 0, 1, 2)
    s3 = T.power_shape(2, 3)
    assert e.apply({s3.flat((0, 1, 0)): ONE}) == {s3.flat((1, 0, 0)): ONE}


def test_embed_against_dense_kronecker(t3bar):
    # Id^(x)2 (x) S at d=2: compare with an explicit numpy kron oracle
    s = op([2, 2], [2, 2], {(0, 1): Fraction(2), (3, 2): Fraction(1, 3), (1, 1): 1})
    embedded = T.embed(s, 2, 0, 2)
    eye = np.empty((4, 4), dtype=object)
    eye[:] = Fraction(0)
    for i in range(4):
        eye[i, i] = ONE
    oracle = np.kron(eye, to_dense(s))
    assert dense_equal(to_dense(embedded), oracle)
    # and on the other side
    embedded = T.embed(s, 0, 2, 2)
    oracle = np.kron(to_dense(s), eye)
    assert dense_equal(to_dense(embedded), oracle)


def test_embed_nonzero_count_pattern(t3bar):
    # Id^(x)(n-1) (x) S on dim 4^5 keeps exactly nnz(S) * 4^2 entries
    s = yb.nyb_from_central_nleibniz(t3bar)
    e = T.embed(s, 2, 0, 4)
    assert e.domain_shape.total == 4**5
    assert e.nnz == s.nnz * 16
    # validated against the dense Kronecker oracle at d=2
    small = yb.nyb_from_central_nleibniz(nl.adjoin_unit(zero_algebra(3, 1)))
    e2 = T.embed(small, 2, 0, 2)
    eye = np.empty((4, 4), dtype=object)
    eye[:] = Fraction(0)
    for i in range(4):
        eye[i, i] = ONE
    assert dense_equal(to_dense(e2), np.kron(eye, to_dense(small)))


def test_embed_far_commutation(t3bar):
    # embeds acting on disjoint factor ranges commute
    s = yb.nyb_from_central_nleibniz(t3bar)  # 3 factors of dim 4
    a5 = T.embed(s, 0, 2, 4)
    flip = T.permutation_operator(T.power_shape(4, 2), (1, 0))
    b5 = T.embed(flip, 3, 0, 4)
    assert a5 @ b5 == b5 @ a5


def test_embed_rejects_non_power():
    with pytest.raises(ShapeMismatchError):
        T.embed(T.identity(T.shape(3)), 1, 0, 2)


# -- permutations --------------------------------------------------------


def test_reverse_on_two_factors_is_flip():
    s = T.power_shape(2, 2)
    assert T.permutation_operator(s, T.reverse_permutation(2)) == T.permutation_operator(s, (1, 0))


def test_cyclic_shift_action():
    s3 = T.power_shape(2, 3)
    f = T.permutation_operator(s3, T.cyclic_permutation(3))
    assert f.apply({s3.flat((0, 1, 0)): ONE}) == {s3.flat((1, 0, 0)): ONE}


def test_cyclic_order():
    for n, d in ((3, 2), (4, 2), (3, 3)):
        s = T.power_shape(d, n)
        f = T.permutation_operator(s, T.cyclic_permutation(n))
        acc = f
        for _ in range(n - 1):
            acc = acc @ f
        assert acc == T.identity(s)


@settings(max_examples=40, deadline=None)
@given(st.permutations(list(range(4))), st.permutations(list(range(4))))
def test_permutation_composition_law(p1, p2):
    s = T.power_shape(2, 4)
    combined = tuple(p1[p2[i]] for i in range(4))
    lhs = T.permutation_operator(s, p1) @ T.permutation_operator(s, p2)
    assert lhs == T.permutation_operator(s, combined)


def test_permutation_rejects_non_permutation():
    with pytest.raises(SchemaError):
        T.permutation_operator(T.power_shape(2, 3), (0, 0, 1))


def test_permute_codomain_matches_operator():
    s3 = T.power_shape(2, 3)
    x = op([5], [2, 2, 2], {(s3.flat((1, 0, 1)), 2): Fraction(3), (s3.flat((0, 1, 1)), 4): Fraction(9)})
    perm = (2, 0, 1)
    assert x.permute_codomain(perm) == T.permutation_operator(s3, perm) @ x


# -- deal ----------------------------------------------------------------


def deal_permutation(n, d):
    """The shuffle (u_1 v_1 u_2 v_2 ...) -> (u_1 ... u_n v_1 ... v_n) on 2n factors of dim d."""
    return T.permutation_operator(T.power_shape(d, 2 * n), deal_factors(n))


def test_deal_is_identity_for_one_pair():
    assert deal_permutation(1, 3) == T.identity(T.power_shape(3, 2))


def test_deal_middle_transposition():
    s4 = T.power_shape(2, 4)
    deal = deal_permutation(2, 2)
    assert deal.apply({s4.flat((0, 1, 0, 1)): ONE}) == {s4.flat((0, 0, 1, 1)): ONE}


def test_deal_roundtrip():
    deal = deal_permutation(3, 2)
    assert T.invert(deal) @ deal == T.identity(T.power_shape(2, 6))


# -- invert --------------------------------------------------------------


def test_invert_identity():
    i = T.identity(T.shape(5))
    assert T.invert(i) == i


def test_invert_roundtrip_both_sides():
    m = op([3], [3], {(0, 0): 2, (0, 1): 1, (1, 1): 1, (2, 0): 1, (2, 2): 5})
    mi = T.invert(m)
    assert m @ mi == T.identity(T.shape(3))
    assert mi @ m == T.identity(T.shape(3))


def test_invert_singular_pre_operator():
    # S(a (x) b (x) c) = 1 (x) 1 (x) abc on the dual numbers is singular
    mul = {(0, 0): 0, (0, 1): 1, (1, 0): 1}
    s3 = T.power_shape(2, 3)
    entries = {}
    import itertools

    for a, b, c in itertools.product(range(2), repeat=3):
        ab = mul.get((a, b))
        abc = None if ab is None else mul.get((ab, c))
        if abc is not None:
            entries[(s3.flat((0, 0, abc)), s3.flat((a, b, c)))] = ONE
    s = op([2, 2, 2], [2, 2, 2], entries)
    with pytest.raises(SingularMatrixError):
        T.invert(s)


def test_invert_central_braiding_matches_surjectivity_formula(t3, t3bar):
    # S^{-1}(x_1 ... x_n) = x_n (x) x_1 (x) ... (x) x_{n-1}
    #                       - [x_n, x_1, ..., x_{n-1}] (x) 1 (x) ... (x) 1
    s = yb.nyb_from_central_nleibniz(t3bar)
    inv = T.invert(s)
    d = 4
    shp = T.power_shape(d, 3)
    expected = {}
    import itertools

    for args in itertools.product(range(d), repeat=3):
        col = shp.flat(args)
        expected[(shp.flat((args[2], args[0], args[1])), col)] = ONE
        for j, c in bracket_basis(t3bar, (args[2], args[0], args[1])).items():
            key = (shp.flat((j, 0, 0)), col)
            expected[key] = expected.get(key, Fraction(0)) - c
    explicit = op([4, 4, 4], [4, 4, 4], expected)
    assert inv == explicit
    assert s @ explicit == T.identity(shp)


def test_invert_random_permutation_of_6_to_the_5():
    import random

    perm = list(range(6**5))
    random.Random(0).shuffle(perm)
    shp = T.power_shape(6, 5)
    p = op(shp.factor_dims, shp.factor_dims, {(perm[c], c): ONE for c in range(shp.total)})
    assert T.invert(p) @ p == T.identity(shp)


def test_float_invert_within_tolerance():
    m = op([2], [2], {(0, 0): 3.0, (0, 1): 1.0, (1, 0): 1.0, (1, 1): 2.0}, mode="float")
    mi = T.invert(m)
    assert (m @ mi).equal(T.identity(T.shape(2)).to_float())


# -- exponentials --------------------------------------------------------


def test_exp_nilpotent_terminates():
    n = op([3], [3], {(1, 0): 1, (2, 1): 1})
    e = T.exp_nilpotent(n)
    expected = T.identity(T.shape(3)) + n + (n @ n).scaled(Fraction(1, 2))
    assert e == expected


def test_exp_nilpotent_rejects_non_nilpotent():
    with pytest.raises(NotNilpotentError):
        T.exp_nilpotent(op([2], [2], {(0, 0): 1}))


def test_exp_float_converges_to_e():
    import math

    e = T.exp_float(op([2], [2], {(0, 0): 1.0}, mode="float"))
    assert abs(e.entries[(0, 0)] - math.e) < 1e-9


def test_exp_float_diverges_at_cap():
    from braidforge.errors import SeriesNotConvergedError

    with pytest.raises(SeriesNotConvergedError):
        T.exp_float(op([2], [2], {(0, 0): 80.0}, mode="float"))


# -- null spaces ---------------------------------------------------------


def test_nullspace_deterministic():
    rows = [{0: ONE, 1: -ONE}, {2: ONE}]
    assert T.nullspace_basis(rows, 4) == [{1: ONE, 0: ONE}, {3: ONE}]


def test_float_rref_drops_entries_below_tolerance():
    pivots, reduced = T.rref([{0: 1e-12, 1: 2.0, 2: 1e-12}], mode="float")
    assert pivots == [1] and reduced == {1: {1: 1.0}}


def test_column_rank():
    m = op([3], [3], {(0, 0): 1, (1, 1): 1, (2, 0): 1, (2, 1): 1})
    assert T.column_rank(m) == 2


def _sympy_matrix(dense):
    import sympy

    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row] for row in dense])


def _fraction(x):
    return Fraction(int(x.p), int(x.q))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.none() | st.integers(1, 6), st.data())
def test_elimination_matches_sympy(nrows, ncols, data):
    """rref, nullspace, rank, invertibility and inverse against sympy's exact
    routines, on square, rectangular and singular matrices whose sparse rows
    may also store explicit zeros."""
    ncols = ncols or nrows  # None draws a square matrix
    values = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)])
    dense = [[Fraction(data.draw(values)) for _ in range(ncols)] for _ in range(nrows)]
    explicit_zeros = data.draw(st.booleans())
    rows = [{c: v for c, v in enumerate(row) if v != 0 or explicit_zeros} for row in dense]
    m = _sympy_matrix(dense)

    ref, ref_pivots = m.rref()
    pivots, reduced = T.rref(rows)
    assert pivots == list(ref_pivots)
    for i, pcol in enumerate(pivots):
        assert [reduced[pcol].get(c, 0) for c in range(ncols)] == [_fraction(x) for x in ref.row(i)]

    basis = T.nullspace_basis(rows, ncols)
    assert [[vec.get(c, 0) for c in range(ncols)] for vec in basis] == [
        [_fraction(x) for x in v] for v in m.nullspace()
    ]

    a = op([ncols], [nrows], {(r, c): v for r, row in enumerate(dense) for c, v in enumerate(row)})
    assert T.column_rank(a) == m.rank()
    if nrows != ncols:
        return
    if m.rank() < ncols:
        with pytest.raises(SingularMatrixError):
            T.invert(a)
        return
    inv = m.inv()
    assert operator_oracle.dense(T.invert(a)) == [[_fraction(inv[r, c]) for c in range(ncols)] for r in range(nrows)]


# -- storage invariants ----------------------------------------------------


def test_no_stored_zeros_exact():
    m = op([2], [2], {(0, 0): 0, (0, 1): 1})
    assert (0, 0) not in m.entries


def test_sum_cancellation_drops_entries():
    a = op([2], [2], {(0, 0): 1})
    b = op([2], [2], {(0, 0): -1})
    assert (a + b).nnz == 0
