import functools
import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import braidforge.linrack as lr
import braidforge.nleibniz as nl
import braidforge.nrack as nr
import braidforge.scalars as sc
import braidforge.setsol as ss
import braidforge.tensor as T
import braidforge.ybops as yb
import setmap_oracle
from braidforge.errors import CapExceededError, PreconditionError, SchemaError, SingularMatrixError
from library_extras import bracket_basis, cyclic_group, trivial_nrack, zero_algebra

ONE = Fraction(1)


def dual_numbers_pre_operator():
    """S(a (x) b (x) c) = 1 (x) 1 (x) abc on k[t]/(t^2)."""
    mul = {(0, 0): 0, (0, 1): 1, (1, 0): 1}
    s3 = T.power_shape(2, 3)
    entries = {}
    for a, b, c in itertools.product(range(2), repeat=3):
        ab = mul.get((a, b))
        abc = None if ab is None else mul.get((ab, c))
        if abc is not None:
            entries[(s3.flat((0, 0, abc)), s3.flat((a, b, c)))] = ONE
    return T.TensorOperator(s3, s3, entries)


# -- verifiers ---------------------------------------------------------------


def test_flip_and_identity_satisfy_ybe():
    flip = T.permutation_operator(T.power_shape(2, 2), (1, 0))
    assert yb.verify_nybe(flip, 2).is_operator
    assert yb.verify_nybe(T.identity(T.power_shape(2, 2)), 2).holds


def test_cyclic_shift_satisfies_right_equation():
    for n in (3, 4):
        report = yb.verify_nybe(yb.cyclic_operator(2, n), n, "right")
        assert report.holds and report.invertible


def test_inverse_cycle_satisfies_left_equation():
    for n in (3, 4):
        finv = T.invert(yb.cyclic_operator(2, n))
        assert yb.verify_nybe(finv, n, "left").is_operator


def test_pre_operator_holds_but_not_invertible():
    report = yb.verify_nybe(dual_numbers_pre_operator(), 3, "right")
    assert report.holds and not report.invertible
    with pytest.raises(SingularMatrixError):
        T.invert(dual_numbers_pre_operator())


def test_witness_on_failure():
    # the non-Leibniz braiding candidate fails with a basis witness
    bad = nl.NLeibnizAlgebra(3, 2, {(0, 1, 1): {1: 1}})
    assert not nl.check_fundamental_identity(bad).passed
    s, report, fi = yb.nyb_iff_nleibniz(bad)
    assert not report.holds and report.witness is not None


def test_dimension_cap():
    # 8^7 > 2^20: rejected by the default cap
    with pytest.raises(CapExceededError):
        yb.verify_nybe(yb.cyclic_operator(8, 4), 4, "right", dim_cap=2**20)
    # an explicit tiny cap also rejects small runs; cap=None disables entirely
    with pytest.raises(CapExceededError):
        yb.verify_nybe(yb.cyclic_operator(2, 3), 3, "right", dim_cap=16)
    assert yb.verify_nybe(yb.cyclic_operator(2, 3), 3, "right", dim_cap=None).holds


def test_column_kernel_memory_stays_flat():
    # a non-monomial braiding on 4^7 = 16384 dims: the 4-ary bracket
    # [e_0, e_1, e_1, e_1] = e_2 on k (+) L, dim L = 3.  The index kernel
    # keeps a few index lists of the space and one dict-pass batch: a
    # 1.16 MB tracemalloc peak, against 19.9 MB for the embedded operators
    # and their compositions.
    import tracemalloc

    a = nl.certify(nl.NLeibnizAlgebra(4, 3, {(0, 1, 1, 1): {2: 1}}))
    s = yb.nyb_from_central_nleibniz(nl.adjoin_unit(a))
    tracemalloc.start()
    try:
        report = yb.verify_nybe(s, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.is_operator and report.verification_dim == 4**7
    assert peak < 2 * 2**20


def test_verify_nybe_bounds_n_where_the_cap_cannot():
    # on dim 1 every space has dimension 1, so the cap passes any n
    one = T.identity(T.shape(1))
    assert yb.verify_nybe(one, 63).is_operator
    for n in (64, 10**9):
        with pytest.raises(SchemaError):
            yb.verify_nybe(one, n)


def test_lifts_bound_n_where_the_cap_cannot():
    # a 1-dimensional R lifts to every degree within the cap; n stays at most 63
    one = T.identity(T.shape(1, 1))
    assert yb.nyb_from_ybe(one, 63).domain_shape.factor_dims == (1,) * 63
    group = cyclic_group(1)
    for n in (64, 10**9):
        with pytest.raises(SchemaError):
            yb.nyb_from_ybe(one, n)
        with pytest.raises(SchemaError):
            yb.group_algebra_nyb(group, n)


@pytest.mark.parametrize("n", [-1, 0, 1])
@pytest.mark.parametrize(
    "build",
    [
        lambda n: nr.conjugation_nrack(nr.symmetric_group(3), n),
        lambda n: ss.nsolution_from_solution(ss.flip_map(2, 2), n),
        lambda n: yb.group_algebra_nyb(nr.symmetric_group(3), n),
        lambda n: yb.nyb_from_ybe(yb.cyclic_operator(2, 2), n),
        lambda n: yb.ybe_from_nyb(yb.cyclic_operator(2, 3), n),
    ],
    ids=["conjugation_nrack", "nsolution_from_solution", "group_algebra_nyb", "nyb_from_ybe", "ybe_from_nyb"],
)
def test_arity_below_two_is_a_schema_error(build, n):
    with pytest.raises(SchemaError):
        build(n)


def test_tau_duality_on_built_operators(t3bar):
    s = yb.nyb_from_central_nleibniz(t3bar)
    tau = yb.reverse_operator(4, 3)
    conj = tau @ s @ tau
    assert yb.verify_nybe(s, 3, "right").holds
    assert yb.verify_nybe(conj, 3, "left").holds
    assert not yb.verify_nybe(conj, 3, "right").holds
    # and back
    assert yb.verify_nybe(tau @ conj @ tau, 3, "right").holds


# -- braidings from central Leibniz structures ---------------------------------


def test_r_from_zero_bracket_is_flip():
    cl = nl.adjoin_unit(zero_algebra(2, 2))
    assert yb.nyb_from_central_nleibniz(cl) == T.permutation_operator(T.power_shape(3, 2), (1, 0))


def test_r_on_kplus_a3(a3):
    r = yb.nyb_from_central_nleibniz(nl.adjoin_unit(a3))
    s = T.power_shape(4, 2)
    assert r.apply({s.flat((1, 2)): ONE}) == {s.flat((2, 1)): ONE, s.flat((0, 3)): ONE}
    assert yb.verify_nybe(r, 2).is_operator


def test_central_tensor_power_theorem(t3bar):
    # the braiding of the induced bracket on the tensor power equals, term by
    # term, the flip plus the unit-power-tensored slot corrections
    fund = nl.fundamental_leibniz(t3bar)
    r = yb.nyb_from_central_nleibniz(fund)
    assert yb.verify_nybe(r, 2).is_operator
    assert r.domain_shape.total == 256
    d, n = 4, 3
    small = T.power_shape(d, n - 1)
    big = 16
    expected = {}
    unit_power = small.flat((0, 0))  # the unit is basis 0 of the extension
    for xs in itertools.product(range(d), repeat=n - 1):
        for ys in itertools.product(range(d), repeat=n - 1):
            col = small.flat(xs) * big + small.flat(ys)
            key = (small.flat(ys) * big + small.flat(xs), col)
            expected[key] = expected.get(key, Fraction(0)) + ONE
            for i in range(n - 1):
                for j, c in bracket_basis(t3bar, (xs[i],) + ys).items():
                    row = unit_power * big + small.flat(xs[:i] + (j,) + xs[i + 1 :])
                    expected[(row, col)] = expected.get((row, col), Fraction(0)) + c
    shp = T.power_shape(big, 2)
    assert r == T.TensorOperator(shp, shp, expected)


def test_r_tilde_iff_examples(a3):
    r, ybrep, fi = yb.nyb_iff_nleibniz(nl.NLeibnizAlgebra(2, 3, dict(a3.bracket)))
    assert ybrep.is_operator and fi.passed
    r, ybrep, fi = yb.nyb_iff_nleibniz(nl.NLeibnizAlgebra(2, 1, {(0, 0): {0: 1}}))
    assert not ybrep.holds and not fi.passed
    r, ybrep, fi = yb.nyb_iff_nleibniz(zero_algebra(2, 3))
    assert ybrep.is_operator and fi.passed


def test_r1_r2_zero_algebra_are_flips():
    z = zero_algebra(3, 2)
    r1 = yb.r1_from_nleibniz(z)
    r2 = yb.r2_from_nleibniz(z)
    assert r1 == T.permutation_operator(T.power_shape(5, 2), (1, 0))
    assert r2 == T.permutation_operator(T.power_shape(9, 2), (1, 0))


def test_r1_spot_value(t3):
    r1 = yb.r1_from_nleibniz(t3)
    s9 = T.power_shape(3, 2)
    w = 10
    col = (1 + s9.flat((0, 1))) * w + (1 + s9.flat((1, 1)))
    expect = {
        (1 + s9.flat((1, 1))) * w + (1 + s9.flat((0, 1))): ONE,
        0 * w + (1 + s9.flat((2, 1))): ONE,
    }
    assert r1.apply({col: ONE}) == expect
    assert yb.verify_nybe(r1, 2).is_operator


def test_r2_equals_coalgebra_route(t3, a3):
    for alg in (t3, a3, zero_algebra(3, 2)):
        r2 = yb.r2_from_nleibniz(alg)
        lnr = lr.linear_nrack_from_nleibniz(alg)
        rack = lr.linear_rack_on_tensor_power(lnr)
        lebed, _ = lr.nrack_braiding(rack)
        assert r2 == lebed


# -- eta ------------------------------------------------------------------------


def test_eta_unit_and_tensor_values(t3):
    eta, report = yb.eta_intertwiner(t3)
    assert report.passed
    s9 = T.power_shape(3, 2)
    s44 = T.power_shape(4, 2)
    assert eta.apply({0: ONE}) == {0: ONE}
    assert eta.apply({1 + s9.flat((0, 1)): ONE}) == {s44.flat((1, 2)): ONE}


def test_eta_intertwines_for_several_algebras(a3):
    for alg in (a3, zero_algebra(3, 3), nl.certify(nl.NLeibnizAlgebra(3, 2, {(0, 1, 1): {1: 0}}))):
        eta, report = yb.eta_intertwiner(alg)
        assert report.passed, report.to_json()


# -- degree-n braidings ----------------------------------------------------------


def test_nyb_central_zero_is_cyclic():
    cl = nl.adjoin_unit(zero_algebra(3, 2))
    assert yb.nyb_from_central_nleibniz(cl) == yb.cyclic_operator(3, 3)


def test_central_constructions_refuse_an_algebra_without_one(t3, a3):
    with pytest.raises(SchemaError, match="^expected a central n-Leibniz algebra$"):
        yb.nyb_from_central_nleibniz(t3)
    with pytest.raises(SchemaError, match="^expected a central n-Leibniz algebra$"):
        yb.nyb_from_central_nleibniz(a3)
    with pytest.raises(PreconditionError, match="not central"):
        yb.nyb_from_central_nleibniz(nl.NLeibnizAlgebra(2, 3, a3.bracket, certified=True, central={0: 1}))


def test_nyb_central_t3bar_spot_value(t3bar):
    s = yb.nyb_from_central_nleibniz(t3bar)
    shp = T.power_shape(4, 3)
    out = s.apply({shp.flat((1, 2, 2)): ONE})
    assert out == {shp.flat((2, 2, 1)): ONE, shp.flat((0, 0, 3)): ONE}
    report = yb.verify_nybe(s, 3, "right")
    assert report.holds and report.invertible


def test_nyb_central_left_mirror(t3bar):
    sl = yb.nyb_from_central_nleibniz(t3bar, side="left")
    report = yb.verify_nybe(sl, 3, "left")
    assert report.holds and report.invertible
    # mirror of the mirror through tau gives a right solution again
    tau = yb.reverse_operator(4, 3)
    assert yb.verify_nybe(tau @ sl @ tau, 3, "right").holds


def test_nyb_iff_agreement_cases(t3, t3_bad):
    s, report, fi = yb.nyb_iff_nleibniz(t3)
    assert report.is_operator and fi.passed
    s, report, fi = yb.nyb_iff_nleibniz(t3_bad)
    assert not report.holds and not fi.passed
    s, report, fi = yb.nyb_iff_nleibniz(zero_algebra(3, 3))
    assert report.is_operator and fi.passed


def test_nyb_from_linear_nrack_trivial_is_cyclic():
    fwd, bwd = lr.nrack_braiding(lr.linearize_nrack(trivial_nrack(2, 3)))
    assert fwd == yb.cyclic_operator(2, 3)
    assert bwd == T.invert(yb.cyclic_operator(2, 3))


def test_nyb_from_linear_nrack_conjugation(conj3):
    fwd, bwd = lr.nrack_braiding(lr.linearize_nrack(conj3))
    assert fwd.domain_shape.total == 216
    report = yb.verify_nybe(fwd, 3, "right")
    assert report.holds and report.invertible
    assert fwd @ bwd == T.identity(T.power_shape(6, 3))


def test_nyb_from_linear_nrack_matches_formula_route(t3):
    fwd, _ = lr.nrack_braiding(lr.linear_nrack_from_nleibniz(t3))
    s, _, _ = yb.nyb_iff_nleibniz(t3)
    assert fwd == s


def test_nyb_from_linear_nrack_inverse_mismatch(conj3):
    l = lr.linearize_nrack(conj3)
    # marked certified, so the braiding's own inverse check must catch it
    broken = lr.LinearNRack(l.base, 3, l.bracket, l.bracket, certified=True)
    with pytest.raises(PreconditionError):
        lr.nrack_braiding(broken)


# -- lifts and descents -----------------------------------------------------------


def test_lift_flip_is_cyclic():
    flip = T.permutation_operator(T.power_shape(2, 2), (1, 0))
    for n in (3, 4):
        assert yb.nyb_from_ybe(flip, n) == yb.cyclic_operator(2, n)


def test_lift_n2_is_input(a3):
    r = yb.nyb_from_central_nleibniz(nl.adjoin_unit(a3))
    assert yb.nyb_from_ybe(r, 2) is r


def test_lift_lebed_matches_nested_bracket_formula(a3):
    # S_3(x,y,z) = y (x) z (x) x + y (x) 1 (x) {x,z}
    #              + 1 (x) z (x) {x,y} + 1 (x) 1 (x) {{x,y},z}
    cl = nl.adjoin_unit(a3)
    r = yb.nyb_from_central_nleibniz(cl)
    s3 = yb.nyb_from_ybe(r, 3)
    assert yb.verify_nybe(s3, 3, "right").is_operator
    d = 4
    shp = T.power_shape(d, 3)
    expected = {}
    for args in itertools.product(range(d), repeat=3):
        x, y, z = args
        col = shp.flat(args)

        def add(row, coeff):
            expected[(row, col)] = expected.get((row, col), Fraction(0)) + coeff

        add(shp.flat((y, z, x)), ONE)
        br = functools.partial(bracket_basis, cl)
        for j, c in br((x, z)).items():
            add(shp.flat((y, 0, j)), c)
        for j, c in br((x, y)).items():
            add(shp.flat((0, z, j)), c)
        for j, c in br((x, y)).items():
            for j2, c2 in br((j, z)).items():
                add(shp.flat((0, 0, j2)), c * c2)
    explicit = T.TensorOperator(shp, shp, expected)
    assert s3 == explicit


def test_lift_rejects_non_ybe():
    not_yb = T.TensorOperator(
        T.power_shape(2, 2), T.power_shape(2, 2), {(0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 0): 1}
    )
    with pytest.raises((PreconditionError, Exception)):
        yb.nyb_from_ybe(not_yb, 3)


def test_descend_cyclic_is_block_flip():
    for n, d in ((3, 2), (4, 2)):
        st = yb.ybe_from_nyb(yb.cyclic_operator(d, n), n)
        block = d ** (n - 1)
        assert st == T.permutation_operator(T.shape(block, block), (1, 0))


def test_descend_diagram_closure(t3bar):
    # braiding of the unit-power extension descends to the braiding of the
    # induced bracket on the tensor power
    s = yb.nyb_from_central_nleibniz(t3bar)
    st = yb.ybe_from_nyb(s, 3)
    assert yb.verify_nybe(st, 2).is_operator
    assert st == yb.nyb_from_central_nleibniz(nl.fundamental_leibniz(t3bar))


def test_descend_chain_shape_pinned_n3_n4(t3bar):
    # the general descent instantiates to the explicit 2-term (n=3) and
    # 3-term (n=4) compositions
    s = yb.nyb_from_central_nleibniz(t3bar)
    explicit3 = T.embed(s, 0, 1, 4) @ T.embed(s, 1, 0, 4)
    assert yb.ybe_from_nyb(s, 3) == explicit3
    f4 = yb.cyclic_operator(2, 4)
    explicit4 = T.embed(f4, 0, 2, 2) @ T.embed(f4, 1, 1, 2) @ T.embed(f4, 2, 0, 2)
    assert yb.ybe_from_nyb(f4, 4) == explicit4


def test_lift_chain_shape_pinned_n3_n4():
    flip = T.permutation_operator(T.power_shape(2, 2), (1, 0))
    explicit3 = T.embed(flip, 1, 0, 2) @ T.embed(flip, 0, 1, 2)
    assert yb.nyb_from_ybe(flip, 3) == explicit3
    explicit4 = T.embed(flip, 2, 0, 2) @ T.embed(flip, 1, 1, 2) @ T.embed(flip, 0, 2, 2)
    assert yb.nyb_from_ybe(flip, 4) == explicit4


def test_float_mode_verification_flow():
    flip = T.permutation_operator(T.power_shape(2, 2), (1, 0)).to_float()
    report = yb.verify_nybe(flip, 2)
    assert report.holds and report.invertible


def test_descend_diagram_closure_more():
    for dim in (1, 2):
        alg = nl.adjoin_unit(zero_algebra(3, dim))
        s = yb.nyb_from_central_nleibniz(alg)
        assert yb.ybe_from_nyb(s, 3) == yb.nyb_from_central_nleibniz(nl.fundamental_leibniz(alg))


# -- conjugation -------------------------------------------------------------------


def test_conjugate_by_identity(t3bar):
    s = yb.nyb_from_central_nleibniz(t3bar)
    assert yb.conjugate_nyb(s, T.identity(T.shape(4)), 3) == s


def test_conjugate_by_scalar_fixes_permutations():
    f = yb.cyclic_operator(2, 3)
    two = T.identity(T.shape(2)).scaled(2)
    assert yb.conjugate_nyb(f, two, 3) == f


def test_conjugate_preserves_verdict(t3bar):
    s = yb.nyb_from_central_nleibniz(t3bar)
    swap = T.TensorOperator(T.shape(4), T.shape(4), {(0, 1): 1, (1, 0): 1, (2, 2): 1, (3, 3): 1})
    assert yb.verify_nybe(yb.conjugate_nyb(s, swap, 3), 3).is_operator


def test_conjugate_rejects_singular():
    f = yb.cyclic_operator(2, 3)
    sing = T.TensorOperator(T.shape(2), T.shape(2), {(0, 0): 1, (1, 0): 1})
    with pytest.raises(SingularMatrixError):
        yb.conjugate_nyb(f, sing, 3)


# -- group algebras -----------------------------------------------------------------


def test_group_algebra_abelian_is_cyclic():
    assert yb.group_algebra_nyb(cyclic_group(3), 3) == yb.cyclic_operator(3, 3)


def test_group_algebra_s3_spot_value(s3):
    sh = yb.group_algebra_nyb(s3, 3)
    shp = T.power_shape(6, 3)
    # (12) (x) (13) (x) (23) -> (13) (x) (23) (x) (23)
    assert sh.apply({shp.flat((2, 5, 1)): ONE}) == {shp.flat((5, 1, 1)): ONE}
    assert yb.verify_nybe(sh, 3, "right").is_operator


def test_group_algebra_coincides_with_linear_nrack_route(s3, conj3):
    sh = yb.group_algebra_nyb(s3, 3)
    fwd, _ = lr.nrack_braiding(lr.linearize_nrack(conj3))
    assert sh == fwd


# -- builders re-verify ----------------------------------------------------------


def test_every_builder_reverifies(t3, a3, t3bar, conj3):
    checks = [
        (yb.nyb_from_central_nleibniz(nl.adjoin_unit(a3)), 2, "right"),
        (yb.r1_from_nleibniz(t3), 2, "right"),
        (yb.r2_from_nleibniz(t3), 2, "right"),
        (yb.nyb_from_central_nleibniz(t3bar), 3, "right"),
        (yb.nyb_from_central_nleibniz(t3bar, side="left"), 3, "left"),
        (yb.group_algebra_nyb(cyclic_group(2), 3), 3, "right"),
    ]
    for op, n, side in checks:
        report = yb.verify_nybe(op, n, side)
        assert report.holds and report.invertible


def test_float_mode_central_operator_end_to_end(t3bar):
    # the exact degree-3 operator, pushed to float64, still verifies within eps
    s = yb.nyb_from_central_nleibniz(t3bar).to_float()
    report = yb.verify_nybe(s, 3, "right")
    assert report.holds and report.invertible


# -- the monomial witness against the generator rule ----------------------------


def _tuple_sides(image, d, n, side):
    o = setmap_oracle.from_image(d, n, image)
    return [setmap_oracle.word_images(o, word, 2 * n - 1) for word in ss.braid_words(n, side)]


def monomial_witness(image, coeff, d, n, side, mode):
    """The witness of the operator with the one entry coeff at row image[c] of each column c."""
    shp = T.power_shape(d, n)
    return yb.verify_nybe(T.TensorOperator(shp, shp, {(r, c): coeff for c, r in enumerate(image)}, mode), n, side).witness


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 4)]), st.sampled_from(["right", "left"]), st.data())
@example((3, 3), "right", None)
@example((2, 4), "left", None)
def test_monomial_witness_matches_the_generator_rule(size, side, data):
    """Constant and few-valued maps send many columns to one row, so the
    smallest row is often shared: the witness is the smallest such column."""
    d, n = size
    total = d**n
    if data is None:
        image = [total - 1] * total
    else:
        values = data.draw(st.lists(st.integers(0, total - 1), min_size=1, max_size=3))
        image = data.draw(st.lists(st.sampled_from(values), min_size=total, max_size=total))
    want = setmap_oracle.smallest_row_witness(*_tuple_sides(image, d, n, side))
    for coeff, mode in ((1, sc.EXACT), (-3, sc.EXACT), (0.5, sc.FLOAT)):
        assert monomial_witness(image, coeff, d, n, side, mode) == want


@pytest.mark.parametrize(
    "d, n, side, image",
    [
        (3, 2, "left", [0, 6, 0, 5, 0, 6, 6, 6, 5]),  # the smallest row is on the rhs first (column 4, lhs at 8)
        (2, 3, "right", [7, 7, 1, 1, 1, 1, 7, 7]),  # and on the lhs first (column 0, rhs at 2)
    ],
)
def test_monomial_witness_takes_the_earlier_side(d, n, side, image):
    lhs, rhs = _tuple_sides(image, d, n, side)
    assert monomial_witness(image, 1, d, n, side, sc.EXACT) == setmap_oracle.smallest_row_witness(lhs, rhs)


def test_monomial_witness_ties_are_broken_by_column():
    """A constant map whose sides differ at several columns sharing the
    smallest row: the generator rule and the kernel pick the same one."""
    tied = 0
    for d, n, side in itertools.product((2, 3), (2, 3), ("right", "left")):
        for value in range(d**n):
            image = [value] * d**n
            lhs, rhs = _tuple_sides(image, d, n, side)
            low = [min(a, b) for a, b in zip(lhs, rhs) if a != b]
            tied += low.count(min(low, default=None)) > 1
            assert monomial_witness(image, 1, d, n, side, sc.EXACT) == setmap_oracle.smallest_row_witness(lhs, rhs)
    assert tied
