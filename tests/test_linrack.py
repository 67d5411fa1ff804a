import contextlib
import itertools
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import braidforge.linrack as lr
import braidforge.nleibniz as nl
import braidforge.nrack as nr
import braidforge.scalars as sc
import braidforge.tensor as T
import braidforge.ybops as yb
import difference_oracle
import linrack_oracle
from library_extras import cyclic_group, homomorphism_check, trivial_nrack, zero_algebra, zero_operator
from braidforge.errors import NotCertifiedError, NotClosedError, PreconditionError

ONE = Fraction(1)


# -- coalgebras -------------------------------------------------------------


def test_set_coalgebra_axioms():
    c = lr.set_coalgebra(2)
    report = lr.check_coalgebra(c)
    assert report.passed and c.cocommutative


def test_kplus_coalgebra_axioms():
    c = lr.kplus_coalgebra(2)
    report = lr.check_coalgebra(c)
    assert report.passed and c.cocommutative
    # Delta(l, x) = (l,x) (x) (1,0) + (1,0) (x) (0,x) on basis vectors
    s = T.power_shape(3, 2)
    assert c.delta.apply({1: ONE}) == {s.flat((1, 0)): ONE, s.flat((0, 1)): ONE}
    assert c.delta.apply({0: ONE}) == {s.flat((0, 0)): ONE}


def test_dropped_coproduct_term_fails_counit():
    c = lr.kplus_coalgebra(2)
    broken = {k: v for k, v in c.delta.entries.items() if k != (3 * 1 + 0, 1)}
    bad = lr.Coalgebra(3, T.TensorOperator(T.shape(3), T.power_shape(3, 2), broken), c.counit)
    report = lr.check_coalgebra(bad)
    failed = {chk.name for chk in report.checks if chk.status == "fail"}
    assert "counit-right" in failed
    witness = report.witness
    assert witness["col"] == 1  # the basis index whose term was dropped


def test_tensor_power_coalgebra():
    c = lr.tensor_power_coalgebra(lr.set_coalgebra(2), 3)
    assert c.dim == 8
    assert lr.check_coalgebra(c).passed and c.cocommutative


def test_non_cocommutative_flag():
    # a coalgebra with asymmetric coproduct: dim 2, Delta e0 = e0 x e1
    delta = T.TensorOperator(T.shape(2), T.power_shape(2, 2), {(1, 0): 1, (3, 1): 1})
    eps = T.TensorOperator(T.shape(2), T.shape(1), {(0, 0): 1, (0, 1): 1})
    c = lr.Coalgebra(2, delta, eps)
    assert not c.cocommutative  # flag computed, axioms not implied


# -- linear n-rack checks -----------------------------------------------------


def test_linearized_trivial_nrack_passes():
    l = lr.linearize_nrack(trivial_nrack(2, 3))
    assert lr.check_linear_nrack(l).passed


def test_linearized_conjugation_3rack_passes(conj3):
    l = lr.linearize_nrack(conj3)
    report = lr.check_linear_nrack(l)
    assert report.passed
    assert {c.name for c in report.checks} == {
        "coproduct-homomorphism",
        "counit-homomorphism",
        "self-distributivity",
        "inverse-property",
    }


def test_non_leibniz_bracket_fails_self_distributivity(t3_bad):
    l = lr.linear_nrack_from_nleibniz(t3_bad)
    report = lr.check_linear_nrack(l)
    statuses = {c.name: c.status for c in report.checks}
    assert statuses["self-distributivity"] == "fail"
    assert report.witness is not None


def test_linearize_needs_certified():
    raw = nr.FiniteNRack(2, 2, (0, 0, 1, 1))
    with pytest.raises(NotCertifiedError):
        lr.linearize_nrack(raw)


def test_linearize_singleton():
    l = lr.linearize_nrack(trivial_nrack(1, 2))
    assert l.base.dim == 1 and l.bracket.entries == {(0, 0): ONE}


def test_linearize_increment_rack(flip_rack):
    l = lr.linearize_nrack(flip_rack)
    s = T.power_shape(2, 2)
    assert l.bracket.apply({s.flat((0, 1)): ONE}) == {1: ONE}
    assert l.bracket.apply({s.flat((1, 0)): ONE}) == {0: ONE}
    assert lr.check_linear_nrack(l).passed


# -- the column kernel against the matrix identities ---------------------------------
#
# The oracle evaluates the same identities as matrices: id^n (x) Delta^(n)^(x)(n-1)
# and id (x) Delta^(x)(n-1) materialized, shuffled with permute_codomain and
# composed with compose_blocks.


def _matrix_distributivity_sides(l):
    c, n = l.base.dim, l.arity
    b, idc = l.bracket, T.identity(T.shape(c), l.base.mode)
    lhs = b @ T.tensor_many([b] + [idc] * (n - 1))
    split = T.tensor_many([idc] * n + [linrack_oracle.iterated_delta(l.base, n)] * (n - 1))
    perm = [0] * (n + n * (n - 1))
    for i in range(n):
        perm[i] = i * n
    for j in range(n - 1):
        for leg in range(n):
            perm[n + j * n + leg] = leg * n + (j + 1)
    return lhs, b @ T.compose_blocks([b] * n, split.permute_codomain(perm))


def _matrix_inverse_side(l, first, second):
    c, n = l.base.dim, l.arity
    idc = T.identity(T.shape(c), l.base.mode)
    split = T.tensor_many([idc] + [l.base.delta] * (n - 1))
    perm = [0] * (2 * n - 1)
    for j in range(n - 1):
        perm[1 + 2 * j] = n + (n - 2 - j)  # leg (1), reversed order, applied second
        perm[2 + 2 * j] = 1 + j  # leg (2), feeds the first map
    return second @ T.compose_blocks([first] + [idc] * (n - 1), split.permute_codomain(perm))


def _matrix_pairs(l):
    """(law, lhs, rhs) of every matrix identity, in report order."""
    n, base = l.arity, l.base
    split_all = T.tensor_many([base.delta] * n).permute_codomain(linrack_oracle.deal_factors(n))
    eps_n = T.tensor_many([base.counit] * n)
    proj = T.tensor_many([T.identity(T.shape(base.dim), base.mode)] + [base.counit] * (n - 1))
    maps = (l.bracket, l.inv_bracket)
    return [
        *(("coproduct-homomorphism", base.delta @ b, T.compose_blocks([b, b], split_all)) for b in maps),
        *(("counit-homomorphism", base.counit @ b, eps_n) for b in maps),
        ("self-distributivity", *_matrix_distributivity_sides(l)),
        ("inverse-property", _matrix_inverse_side(l, l.bracket, l.inv_bracket), proj),
        ("inverse-property", _matrix_inverse_side(l, l.inv_bracket, l.bracket), proj),
    ]


def _support(l, pairs):
    """Every (row, col) where the two sides differ, from (col, lhs, rhs) columns."""
    return {
        (r, col) for col, a, b in pairs for r in a.keys() | b.keys() if not sc.eq(a.get(r, 0), b.get(r, 0), l.base.mode)
    }


def _matrix_support(l, lhs, rhs):
    exact = l.base.mode == sc.EXACT
    a, b = ([{r: Fraction(v, op.scale) if exact else v for r, v in col} for col in op.columns] for op in (lhs, rhs))
    return _support(l, zip(itertools.count(), a, b))


def _matrix_report(l):
    """The report of the matrix identities without times, whether a float
    difference lies within 1e-12 of EPS_CMP (so summation order may flip it),
    and the (law, lhs, rhs) of the matrix identities."""
    base = lr.check_coalgebra(l.base)
    if not base.passed:
        return _without_times(base), False, []
    checks, borderline, pairs = {}, False, _matrix_pairs(l)
    for name, lhs, rhs in pairs:
        if l.base.mode == sc.FLOAT:
            ea, eb = lhs.entries, rhs.entries
            diffs = (abs(ea.get(k, 0.0) - eb.get(k, 0.0)) for k in ea.keys() | eb.keys())
            borderline = borderline or any(abs(d - sc.EPS_CMP) <= 1e-12 for d in diffs)
        if name not in checks or "witness" not in checks[name]:
            k = difference_oracle.first_difference(lhs, rhs)
            checks[name] = {"name": name, "status": "pass" if k is None else "fail"}
            if k is not None:
                checks[name]["witness"] = {"row": k[0], "col": k[1]}
    doc = {"subject": f"linear-{l.arity}-rack(dim={l.base.dim})", "checks": list(checks.values())}
    doc["overall"] = "pass" if all(c["status"] == "pass" for c in doc["checks"]) else "fail"
    return doc, borderline, pairs


def _without_times(report):
    doc = report.to_json()
    for check in doc["checks"]:
        del check["elapsed_ms"]
    return doc


def _scalar(draw, mode, values=(-2, -1, 1, 2, Fraction(1, 2), Fraction(-3, 2))):
    if mode == sc.EXACT:
        return Fraction(draw(st.sampled_from(values)))
    return draw(st.sampled_from([-2.0, -1.0, 1.0, 2.0, 0.5, 0.3, 3e-9, 1.0000000003]))  # within and beyond EPS_CMP


def _from_table(m, n, table, inv_table, mode):
    """k[X] with the bracket and inverse bracket of two tables, neither checked."""
    one, dom = sc.one(mode), T.power_shape(m, n)
    ops = [T.TensorOperator(dom, T.shape(m), {(v, c): one for c, v in enumerate(t)}, mode) for t in (table, inv_table)]
    return lr.LinearNRack(lr.set_coalgebra(m, mode), n, *ops)


def _with_bracket_entry(l, col, value):
    """l with its bracket's entries in column col multiplied by value."""
    entries = {(r, c): v * value if c == col else v for (r, c), v in l.bracket.entries.items()}
    bracket = T.TensorOperator(l.bracket.domain_shape, l.bracket.codomain_shape, entries, l.base.mode)
    return lr.LinearNRack(l.base, l.arity, bracket, l.inv_bracket)


def _one_sided_float_inverse():
    """A float linear rack on k[{0, 1}] whose inverse bracket inverts the bracket
    within EPS_CMP in one order only: <<<u, v>, v>> = u + 5e-10 e_0 and
    <<<u, v>>, v> = u + 5e-7 e_0 at u = e_1.  In exact mode a one-sided inverse
    in the finite-dimensional convolution algebra is two-sided, so only float
    mode needs the second order."""
    dom, cod = T.power_shape(2, 2), T.shape(2)
    bracket = {**{(0, v): 1000.0 for v in (0, 1)}, **{(1, 2 + v): 1.0 for v in (0, 1)}}
    inverse = {**{(0, v): 0.001 for v in (0, 1)}, **{(0, 2 + v): 5e-10 for v in (0, 1)}, **{(1, 2 + v): 1.0 for v in (0, 1)}}
    ops = (T.TensorOperator(dom, cod, entries, sc.FLOAT) for entries in (bracket, inverse))
    return lr.LinearNRack(lr.set_coalgebra(2, sc.FLOAT), 2, *ops)


# a linearized table whose x_1 = 0 block fails first at row 1 and whose x_1 = 1
# block fails at row 0: the witness is (0, 13), not the first failing block's (1, 4)
LATER_BLOCK_TABLE = (3, 2, [0, 2, 0, 1, 0, 1, 2, 1, 2], [0, 1, 0, 1, 2, 1, 2, 0, 2])
# a linearized table with the translations A, A, B, B at ys = 0..3: the first
# failure is at column 2 (ys = 2, the first ys of B, which fails again at
# ys = 3), where B is the second distinct translation
REPEATED_TRANSLATION_TABLE = (2, 3, [0, 0, 1, 1, 1, 1, 0, 0], [0, 0, 0, 0, 1, 1, 1, 1])


def _tensor_power_of_kplus(bracket, mode):
    """The tensor-power rack of the ternary k (+) L rack of a dim-2 bracket,
    built whether or not the bracket's laws hold.  A bracket with a key at
    every trailing pair makes 5 of its 9 translations nonzero, the most
    k (+) L allows; a nilpotent one leaves 2."""
    l = lr.linear_nrack_from_nleibniz(nl.NLeibnizAlgebra(3, 2, bracket, mode))
    return lr.linear_rack_on_tensor_power(replace(l, certified=True))


DENSE_BRACKET = {(0, 0, 0): {1: ONE}, (1, 0, 1): {0: ONE}, (0, 1, 0): {0: -ONE, 1: ONE}, (1, 1, 1): {0: 2 * ONE}}


def _matrix_coalgebra(mode):
    """The dual of the 2x2 matrix algebra, Delta e_ij = sum_k e_ik (x) e_kj and
    eps e_ij = delta_ij: not cocommutative, so the order of Sweedler legs shows."""
    one = sc.one(mode)
    delta = {((2 * i + k) * 4 + 2 * k + j, 2 * i + j): one for i in range(2) for j in range(2) for k in range(2)}
    return lr.Coalgebra(
        4,
        T.TensorOperator(T.shape(4), T.power_shape(4, 2), delta, mode),
        T.TensorOperator(T.shape(4), T.shape(1), {(0, 0): one, (0, 3): one}, mode),
        mode,
    )


def _rescaled(l, lams):
    """The same structure in the basis lams[x] * e_x, which puts non-integer
    entries into the coproduct and the counit."""
    c = l.base.dim

    def weight(index, k):
        w = 1
        for digit in T.power_shape(c, k).multi(index) if k else ():
            w = w * lams[digit]
        return w

    def op(o, k_in, k_out):
        entries = {(r, col): v * weight(col, k_in) / weight(r, k_out) for (r, col), v in o.entries.items()}
        return T.TensorOperator(o.domain_shape, o.codomain_shape, entries, o.mode)

    base = lr.Coalgebra(c, op(l.base.delta, 1, 2), op(l.base.counit, 1, 0), l.base.mode)
    return lr.LinearNRack(base, l.arity, op(l.bracket, l.arity, 1), op(l.inv_bracket, l.arity, 1))


@st.composite
def linear_nracks(draw):
    """Linearized conjugation, near-rack and random tables; k (+) L of
    nilpotent and random brackets; tensor-power and (not cocommutative)
    matrix coalgebras with the trivial bracket u eps(v_2)...eps(v_n) and
    random changes; n = 2..4, exact and float; now and then in a rescaled
    basis or with a scaled inverse bracket."""
    mode = draw(st.sampled_from(sc.MODES))
    kind = draw(st.sampled_from(["conjugation", "near", "random", "kplus", "tensor-power", "matrix"]))
    n = draw(st.integers(2, 4))
    if kind in ("conjugation", "near"):
        g = draw(st.sampled_from([cyclic_group(2), cyclic_group(3)] + [nr.symmetric_group(3)] * (n < 4)))
        l = lr.linearize_nrack(nr.conjugation_nrack(g, n), mode)
        if kind == "near":
            entries, col = dict(l.bracket.entries), draw(st.integers(0, g.size**n - 1))
            r = next(r for r, c in entries if c == col)
            del entries[(r, col)]
            entries[((r + draw(st.integers(1, g.size - 1))) % g.size, col)] = sc.one(mode)
            l = lr.LinearNRack(l.base, n, T.TensorOperator(l.bracket.domain_shape, l.bracket.codomain_shape, entries, mode), l.inv_bracket)
    elif kind == "random":
        m = draw(st.integers(1, 3))
        tables = [draw(st.lists(st.integers(0, m - 1), min_size=m**n, max_size=m**n)) for _ in range(2)]
        l = _from_table(m, n, *tables, mode)
    elif kind == "kplus":
        d = draw(st.integers(1, 2))
        nilpotent = draw(st.booleans())
        bracket = {}
        for _ in range(draw(st.integers(0, 3))):
            key = tuple(draw(st.integers(0, d - 1)) for _ in range(n))
            low = max(key) + 1 if nilpotent else 0
            if low < d:
                bracket.setdefault(key, {})[draw(st.integers(low, d - 1))] = _scalar(draw, mode)
        l = lr.linear_nrack_from_nleibniz(nl.NLeibnizAlgebra(n, d, bracket, mode))
    else:
        n = min(n, 3)  # the oracle's split of C^(x)(n^2) must stay under the 2^31 index cap
        if kind == "matrix":
            base = _matrix_coalgebra(mode)
        else:
            base = lr.tensor_power_coalgebra(draw(st.sampled_from([lr.set_coalgebra(2, mode), lr.kplus_coalgebra(1, mode)])), 2)
        dom = T.power_shape(4, n)
        eps = base.counit.entries
        trivial = {}
        for col in range(4**n):
            digits = dom.multi(col)
            value = sc.one(mode)
            for x in digits[1:]:
                value = value * eps.get((0, x), 0)
            if value:
                trivial[(digits[0], col)] = value
        maps = []
        for _ in range(2):
            entries = dict(trivial) if draw(st.integers(0, 3)) else {}
            for _ in range(draw(st.sampled_from([0, 1, 1, 2, 5]))):  # few changes keep the differing entries sparse
                entries[(draw(st.integers(0, 3)), draw(st.integers(0, 4**n - 1)))] = _scalar(draw, mode)
            maps.append(T.TensorOperator(dom, T.shape(4), entries, mode))
        l = lr.LinearNRack(base, n, *maps)
    if draw(st.booleans()):
        lams = [2, Fraction(1, 3), Fraction(-3, 2), 1] if mode == sc.EXACT else [2.0, 0.5, -4.0, 1.0]
        l = _rescaled(l, [draw(st.sampled_from(lams)) for _ in range(l.base.dim)])
    if draw(st.integers(0, 3)) == 0:  # scale the inverse bracket: the inverse property fails
        l = lr.LinearNRack(l.base, l.arity, l.bracket, l.inv_bracket.scaled(_scalar(draw, mode)))
    return l


@settings(max_examples=150, deadline=None)
@given(linear_nracks())
@example(lr.linear_rack_on_tensor_power(lr.linearize_nrack(nr.conjugation_nrack(cyclic_group(3), 3))))
@example(lr.linear_nrack_from_nleibniz(nl.NLeibnizAlgebra(3, 2, {(0, 1, 1): {1: Fraction(1, 3)}})))
@example(_from_table(*LATER_BLOCK_TABLE, sc.EXACT))
@example(_from_table(*LATER_BLOCK_TABLE, sc.FLOAT))
@example(_with_bracket_entry(lr.linearize_nrack(nr.conjugation_nrack(cyclic_group(3), 2)), 5, 2))  # not a table: falls through
@example(_rescaled(_from_table(*LATER_BLOCK_TABLE, sc.EXACT), [2, 2, 2]))  # Delta e_x = e_x (x) e_x / 2: falls through
@example(_one_sided_float_inverse())
@example(_from_table(*REPEATED_TRANSLATION_TABLE, sc.EXACT))
@example(_tensor_power_of_kplus({(0, 0, 0): {1: 0.5}}, sc.FLOAT))  # nilpotent: most translations are zero
@example(_tensor_power_of_kplus(DENSE_BRACKET, sc.EXACT))  # not nilpotent: the translations are dense
@example(lr.linear_nrack_from_nleibniz(nl.NLeibnizAlgebra(2, 2, {(1, 0): {0: ONE}})))  # fails at column 25, where the lhs is zero
def test_check_linear_nrack_matches_the_matrix_identities(l):
    want, borderline, pairs = _matrix_report(l)
    got = _without_times(lr.check_linear_nrack(l))
    if borderline:  # a difference at the tolerance: only the report's own consistency is asserted
        assert got["overall"] == ("pass" if all(c["status"] == "pass" for c in got["checks"]) else "fail")
        assert [c["name"] for c in got["checks"]] == [c["name"] for c in want["checks"]]
        return
    assert got == want
    if not pairs:  # a failing base coalgebra: its report is the whole answer
        return
    # a witness is one differing entry; the kernel's sides must differ at exactly the same entries
    split, deal = (lr._dealt(l.base.delta.columns, l.base.dim, 2, k) for k in (l.arity - 1, l.arity))
    kernels = [
        lr._coproduct_sides(l, l.bracket, deal),
        lr._coproduct_sides(l, l.inv_bracket, deal),
        lr._counit_sides(l, l.bracket),
        lr._counit_sides(l, l.inv_bracket),
        lr._distributivity_sides(l),
        lr._inverse_sides(l, l.bracket, l.inv_bracket, split),
        lr._inverse_sides(l, l.inv_bracket, l.bracket, split),
    ]
    for (name, lhs, rhs), sides in zip(pairs, kernels, strict=True):
        assert _support(l, sides) == _matrix_support(l, lhs, rhs), name


def test_tables_on_a_set_coalgebra_skip_the_streamed_laws(conj3):
    # a linearized rack, or any table on k[X], is decided from its row lists alone
    streamed = ("_coproduct_sides", "_counit_sides", "_distributivity_sides", "_inverse_sides")
    with contextlib.ExitStack() as stack:
        for name in streamed:
            stack.enter_context(mock.patch.object(lr, name, side_effect=AssertionError(name)))
        assert lr.check_linear_nrack(lr.linearize_nrack(conj3)).passed
        report = lr.check_linear_nrack(_from_table(*LATER_BLOCK_TABLE, sc.FLOAT))
    assert report.to_json()["checks"][2]["witness"] == {"row": 0, "col": 13}


def test_sym3_linear_4rack_check_stays_small(s3):
    # the laws walk 6^7 columns; the split C^(x)16 the matrix form needs is beyond the index cap
    l = lr.linearize_nrack(nr.conjugation_nrack(s3, 4))
    tracemalloc.start()
    try:
        assert lr.check_linear_nrack(l).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


# -- the column kernels against the matrix oracle ---------------------------------
#
# Every law and builder of linrack runs one basis column at a time; the oracle
# keeps the matrix forms they replace.  Reports must be equal without times and
# built operators equal entry for entry, float entries bit for bit: the kernels
# multiply and sum in the order of the matrix products.


def _same_operator(got, want):
    assert got.mode == want.mode
    assert (got.domain_shape.total, got.codomain_shape.total) == (want.domain_shape.total, want.codomain_shape.total)
    assert got.entries == want.entries


@st.composite
def coalgebras(draw):
    """The base coalgebras of ``linear_nracks``, now and then with a few
    coproduct and counit entries changed, so that the laws fail."""
    c = draw(linear_nracks()).base
    mode, dim = c.mode, c.dim
    delta, counit = dict(c.delta.entries), dict(c.counit.entries)
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        delta[(draw(st.integers(0, dim * dim - 1)), draw(st.integers(0, dim - 1)))] = _scalar(draw, mode)
    for _ in range(draw(st.sampled_from([0, 0, 1]))):
        counit[(0, draw(st.integers(0, dim - 1)))] = _scalar(draw, mode)
    ops = [T.TensorOperator(op.domain_shape, op.codomain_shape, e, mode) for op, e in ((c.delta, delta), (c.counit, counit))]
    return lr.Coalgebra(dim, *ops, mode)


@settings(max_examples=150, deadline=None)
@given(coalgebras())
def test_coalgebra_laws_match_the_matrix_oracle(c):
    assert _without_times(lr.check_coalgebra(c)) == _without_times(linrack_oracle.check_coalgebra(c))
    assert c.cocommutative == linrack_oracle.cocommutative(c.delta)


@settings(max_examples=100, deadline=None)
@given(linear_nracks())
def test_homomorphism_laws_match_the_matrix_oracle(l):
    if not lr.check_coalgebra(l.base).passed:
        return
    got = {c["name"]: c.get("witness") for c in _without_times(lr.check_linear_nrack(l))["checks"]}
    for name, witness in linrack_oracle.homomorphism_witnesses(l).items():
        assert got[name] == witness, name


@settings(max_examples=60, deadline=None)
@given(coalgebras(), st.integers(1, 3))
def test_tensor_power_coalgebra_matches_the_matrix_oracle(c, k):
    k = min(k, 2) if c.dim > 2 else k
    power = lr.tensor_power_coalgebra(c, k)
    delta, counit = linrack_oracle.tensor_power_coalgebra(c, k)
    _same_operator(power.delta, delta)
    _same_operator(power.counit, counit)
    assert power.cocommutative == linrack_oracle.cocommutative(power.delta)
    for legs in (1, 2, 3):
        cols, scale = lr._iterated_columns(c, legs)
        split = T.TensorOperator.from_columns(T.shape(c.dim), T.power_shape(c.dim, legs), cols, scale, c.mode)
        _same_operator(split, linrack_oracle.iterated_delta(c, legs))


@settings(max_examples=100, deadline=None)
@given(linear_nracks())
def test_builders_match_the_matrix_oracle(l):
    """The braiding, the tensor-power rack and the fold, on inputs whose laws
    hold and on inputs that fail them, marked certified so the builders run."""
    l = replace(l, certified=True)
    if not l.base.cocommutative:
        with pytest.raises(PreconditionError):
            lr.nrack_braiding(l)
        return
    try:
        want = linrack_oracle.nrack_braiding(l)
    except PreconditionError:
        with pytest.raises(PreconditionError, match="inverse-mismatch"):
            lr.nrack_braiding(l)
    else:
        for got, op in zip(lr.nrack_braiding(l), want):
            _same_operator(got, op)
    if l.arity > 2:
        rack = lr.linear_rack_on_tensor_power(l)
        for got, op in zip((rack.bracket, rack.inv_bracket), linrack_oracle.linear_rack_on_tensor_power(l)):
            _same_operator(got, op)
    else:
        for arity in (3, 4):
            folded = lr.linear_nrack_from_linear_rack(l, arity)
            for got, op in zip((folded.bracket, folded.inv_bracket), linrack_oracle.fold(l, arity)):
                _same_operator(got, op)


# -- group-likes --------------------------------------------------------------


def test_group_likes_of_set_coalgebra():
    c = lr.set_coalgebra(3)
    assert lr.group_like_elements(c) == [{0: ONE}, {1: ONE}, {2: ONE}]


def test_group_likes_of_kplus():
    c = lr.kplus_coalgebra(2)
    assert lr.group_like_elements(c) == [{0: ONE}]


def test_induced_nrack_roundtrip(conj3, flip_rack):
    for t in (conj3, flip_rack, trivial_nrack(3, 3)):
        assert lr.induced_nrack(lr.linearize_nrack(t)).table == t.table


def test_group_likes_of_tensor_powers():
    # the group-like basis vectors of C^(x)k are the products of those of C
    for k in (1, 2, 3):
        assert lr.group_like_elements(lr.tensor_power_coalgebra(lr.set_coalgebra(2), k)) == [{x: ONE} for x in range(2**k)]
        assert lr.group_like_elements(lr.tensor_power_coalgebra(lr.kplus_coalgebra(1), k)) == [{0: ONE}]
    nested = lr.tensor_power_coalgebra(lr.tensor_power_coalgebra(lr.set_coalgebra(2), 2), 2)
    assert lr.group_like_elements(nested) == [{x: ONE} for x in range(16)]


def test_induced_nrack_not_closed():
    # Delta e_0 = 2 e_0 (x) e_0: the one basis vector is not group-like
    one = T.TensorShape((1,))
    doubled = T.TensorOperator(one, T.power_shape(1, 2), {(0, 0): 2})
    c = lr.Coalgebra(1, doubled, T.TensorOperator(one, one, {(0, 0): Fraction(1, 2)}))
    assert lr.group_like_elements(c) == []
    bracket = T.TensorOperator(T.power_shape(1, 2), one, {(0, 0): 1})
    with pytest.raises(NotClosedError):
        lr.induced_nrack(lr.LinearNRack(c, 2, bracket, bracket))


# -- folding and tensor powers --------------------------------------------------


def test_fold_n2_is_input(flip_rack):
    l = lr.linearize_nrack(flip_rack)
    assert lr.linear_nrack_from_linear_rack(l, 2).bracket == l.bracket


def test_fold_flip_rack_collapses(flip_rack):
    folded = lr.linear_nrack_from_linear_rack(lr.linearize_nrack(flip_rack), 3)
    direct = lr.linearize_nrack(nr.nrack_from_rack(flip_rack, 3))
    assert folded.bracket == direct.bracket and folded.inv_bracket == direct.inv_bracket
    assert lr.check_linear_nrack(folded).passed


def test_fold_coincides_with_linearized_fold(s3):
    # same coincidence on a noncommutative carrier
    conj2 = nr.conjugation_nrack(s3, 2)
    folded = lr.linear_nrack_from_linear_rack(lr.linearize_nrack(conj2), 3)
    direct = lr.linearize_nrack(nr.nrack_from_rack(conj2, 3))
    assert folded.bracket == direct.bracket and folded.inv_bracket == direct.inv_bracket


def test_tensor_power_rack_of_conjugation(conj3):
    rack = lr.linear_rack_on_tensor_power(lr.linearize_nrack(conj3))
    assert rack.base.dim == 36
    assert lr.check_linear_nrack(rack).passed


def test_tensor_power_needs_cocommutative():
    delta = T.TensorOperator(T.shape(2), T.power_shape(2, 2), {(1, 0): 1, (3, 1): 1})
    eps = T.TensorOperator(T.shape(2), T.shape(1), {(0, 0): 1, (0, 1): 1})
    c = lr.Coalgebra(2, delta, eps)
    l = lr.LinearNRack(
        c, 3, zero_operator(T.power_shape(2, 3), T.shape(2)), zero_operator(T.power_shape(2, 3), T.shape(2))
    )
    with pytest.raises(PreconditionError):
        lr.linear_rack_on_tensor_power(l)


def test_psi_map_is_linear_rack_homomorphism(conj3):
    # psi: k[X^(n-1)] -> k[X]^(x)(n-1) on basis tuples is numerically the identity,
    # and it intertwines the rack of tuples with the tensor-power rack
    tuple_rack = nr.krack_from_power(conj3, 2)
    lhs_rack = lr.linearize_nrack(tuple_rack)  # on k[X^2], dim 36
    rhs_rack = lr.linear_rack_on_tensor_power(lr.linearize_nrack(conj3))
    psi = T.identity(T.shape(36))
    # coalgebra compatibility
    assert rhs_rack.base.delta @ psi == T.compose_blocks([psi, psi], lhs_rack.base.delta)
    assert rhs_rack.base.counit @ psi == lhs_rack.base.counit
    # operation compatibility
    lhs = psi @ lhs_rack.bracket
    rhs = rhs_rack.bracket @ T.tensor_many([psi, psi])
    assert lhs == rhs


def test_tensor_power_functoriality(s3):
    # the quotient S3 -> S3/A3 = C2 induces an n-rack map; its tensor square
    # intertwines the induced tensor-power racks
    even = {0, 3, 4}  # identity and the two 3-cycles
    proj = [0 if g in even else 1 for g in range(6)]
    conj3_s3 = nr.conjugation_nrack(s3, 3)
    conj3_c2 = nr.conjugation_nrack(cyclic_group(2), 3)
    assert homomorphism_check(conj3_s3, conj3_c2, proj)
    f = T.TensorOperator(T.shape(6), T.shape(2), {(proj[g], g): ONE for g in range(6)})
    a = lr.linearize_nrack(conj3_s3)
    b = lr.linearize_nrack(conj3_c2)
    assert linrack_oracle.check_linear_nrack_homomorphism(a, b, f).passed
    ra = lr.linear_rack_on_tensor_power(a)
    rb = lr.linear_rack_on_tensor_power(b)
    f2 = T.tensor_many([f, f])
    assert f2 @ ra.bracket == rb.bracket @ T.tensor_many([f2, f2])


# -- the k (+) L linear n-rack ---------------------------------------------------


def test_kplus_nrack_t3(t3):
    l = lr.linear_nrack_from_nleibniz(t3)
    assert lr.check_linear_nrack(l).passed
    dom = T.power_shape(4, 3)
    assert l.bracket.apply({dom.flat((1, 2, 2)): ONE}) == {3: ONE}
    assert l.bracket.apply({dom.flat((0, 0, 0)): ONE}) == {0: ONE}
    # scalar weights multiply through: <(0,e_1),(1,0),(1,0)> = (0, e_1)
    assert l.bracket.apply({dom.flat((1, 0, 0)): ONE}) == {1: ONE}


def test_kplus_nrack_zero_algebra():
    l = lr.linear_nrack_from_nleibniz(zero_algebra(3, 2))
    assert lr.check_linear_nrack(l).passed


def test_kplus_nrack_homomorphism(t3):
    # the unit extension of the identity map is a linear n-rack homomorphism
    l = lr.linear_nrack_from_nleibniz(t3)
    f = T.identity(T.shape(4))
    assert linrack_oracle.check_linear_nrack_homomorphism(l, l, f).passed


# -- braidings ----------------------------------------------------------------


def test_lebed_on_trivial_is_flip():
    r, rinv = lr.nrack_braiding(lr.linearize_nrack(trivial_nrack(2, 2)))
    flip = T.permutation_operator(T.power_shape(2, 2), (1, 0))
    assert r == flip and rinv == flip


def test_lebed_on_kplus_a3(a3):
    l = lr.linear_nrack_from_nleibniz(a3)
    r, rinv = lr.nrack_braiding(l)
    s = T.power_shape(4, 2)
    out = r.apply({s.flat((1, 2)): ONE})
    assert out == {s.flat((2, 1)): ONE, s.flat((0, 3)): ONE}
    assert yb.verify_nybe(r, 2).is_operator


def test_lebed_passes_ybe_for_every_instance(a3, t3, conj3, flip_rack):
    racks = [
        lr.linearize_nrack(trivial_nrack(2, 2)),
        lr.linearize_nrack(flip_rack),
        lr.linear_nrack_from_nleibniz(a3),
        lr.linear_rack_on_tensor_power(lr.linear_nrack_from_nleibniz(t3)),
    ]
    for rack in racks:
        r, rinv = lr.nrack_braiding(rack)
        report = yb.verify_nybe(r, 2)
        assert report.holds and report.invertible


def test_lebed_inverse_mismatch_detected():
    good = lr.linearize_nrack(nr.cyclic_rack(3))
    # x+1 is not its own inverse mod 3; marked certified, so the braiding's own inverse check must catch it
    broken = lr.LinearNRack(good.base, 2, good.bracket, good.bracket, certified=True)
    with pytest.raises(PreconditionError):
        lr.nrack_braiding(broken)


def test_braiding_certifies_an_uncertified_input():
    # neither is self-distributive, and the inverse of each bracket is right, so only the laws tell
    table = nr.FiniteNRack(3, 2, (0, 1, 1, 1, 0, 2, 2, 2, 0), certified=True)
    not_leibniz = nl.NLeibnizAlgebra(3, 3, {(0, 1, 1): {2: 1}, (2, 1, 1): {1: 1}})
    for l in (replace(lr.linearize_nrack(table), certified=False), lr.linear_nrack_from_nleibniz(not_leibniz)):
        assert not l.certified and not lr.check_linear_nrack(l).passed
        with pytest.raises(PreconditionError, match="^input fails the linear n-rack identities$"):
            lr.nrack_braiding(l)
        lr.nrack_braiding(replace(l, certified=True))  # the braiding itself is built without complaint


def test_tensor_power_braiding_matches_direct_assembly(conj3):
    # the braiding of the tensor-power rack equals the directly assembled
    # operator v^(1)-legs (x) brackets on C^(x)(n-1), and so does its inverse
    l = lr.linearize_nrack(conj3)
    rack = lr.linear_rack_on_tensor_power(l)
    lebed_fwd, lebed_bwd = lr.nrack_braiding(rack)
    c, n = 6, 3
    idc = T.identity(T.shape(c))
    width = n - 1
    split = T.tensor_many([idc] * width + [linrack_oracle.iterated_delta(l.base, n)] * width)
    perm = [0] * (width + width * n)
    for i in range(width):
        perm[i] = width + i * n  # u_i heads bracket i, after the passthrough block
    for j in range(width):
        for leg in range(n):
            # leg 1 passes through as output j; legs 2..n feed bracket (leg-1)
            if leg == 0:
                perm[width + j * n] = j
            else:
                perm[width + j * n + leg] = width + (leg - 1) * n + (j + 1)
    direct = T.compose_blocks(
        [idc] * width + [l.bracket] * width, split.permute_codomain(perm)
    )
    pair = T.power_shape(c**width, 2)
    assert lebed_fwd == direct.with_shapes(pair, pair)
    # stated inverse: inverse brackets on reversed u-legs, then u^(1) passthrough
    split_inv = T.tensor_many([linrack_oracle.iterated_delta(l.base, n)] * width + [idc] * width)
    perm = [0] * (width * n + width)
    for j in range(width):
        for leg in range(n):
            if leg == 0:
                perm[j * n] = width * n + j  # u_j^(1) passes through, after the brackets
            else:
                perm[j * n + leg] = (leg - 1) * n + (width - j)  # reversed order in brackets
    for i in range(width):
        perm[width * n + i] = i * n  # v_i heads inverse bracket i
    direct_inv = T.compose_blocks(
        [l.inv_bracket] * width + [idc] * width, split_inv.permute_codomain(perm)
    )
    assert lebed_bwd == direct_inv.with_shapes(pair, pair)
