import itertools
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import braidforge.nleibniz as nl
import braidforge.nrack as nr
import braidforge.tensor as T
from braidforge.errors import (
    CapExceededError,
    NotNilpotentError,
    PreconditionError,
    SchemaError,
    SeriesNotConvergedError,
)
from braidforge.reports import ReportBuilder, VerificationReport
import vector_rack_oracle
from library_extras import ad_basis, alternating_group, cyclic_group, is_abelian, is_homomorphism, translation_inverse, trivial_nrack, zero_algebra

ONE = Fraction(1)

# S3 permutation indices in lexicographic tuple order:
# 0=(0,1,2) 1=(0,2,1)=(23) 2=(1,0,2)=(12) 3=(1,2,0) 4=(2,0,1) 5=(2,1,0)=(13)
T12, T23, T13 = 2, 1, 5


# -- table checks ----------------------------------------------------------


def test_trivial_table_passes():
    assert nr.check_nrack(trivial_nrack(3, 3)).passed


def test_increment_rack_passes():
    assert nr.check_nrack(nr.cyclic_rack(2)).passed
    assert nr.check_nrack(nr.cyclic_rack(5)).passed


def test_meet_fails_bijectivity():
    report = nr.check_nrack(nr.from_function(2, 2, lambda x, y: x * y))
    statuses = {c.name: c.status for c in report.checks}
    assert statuses["self-distributivity"] == "pass"
    assert statuses["translation-bijectivity"] == "fail"
    assert statuses["translation-rack-homomorphism"] == "skipped"


def test_distributivity_witness_is_lex_min():
    # x <| y = x + y mod 3: bijective columns, broken distributivity
    t = nr.from_function(3, 2, lambda x, y: (x + y) % 3)
    report = nr.check_nrack(t)
    assert not report.passed
    assert report.witness["tuple"] == [0, 0, 1]
    assert report.witness["lhs"] == 1 and report.witness["rhs"] == 2


def tuple_loop_check(t):
    """The plain checker, one tuple at a time: the oracle of check_nrack."""
    if t.side == nr.LEFT:
        inner = tuple_loop_check(t.reversed_args())
        return VerificationReport("left-nrack(via reversal)", inner.checks)
    rb = ReportBuilder("nrack")
    m, n = t.size, t.arity
    ok, witness = True, None
    for tpl in itertools.product(range(m), repeat=2 * n - 1):
        xs, ys = tpl[:n], tpl[n:]
        lhs = t.apply((t.apply(xs),) + ys)
        rhs = t.apply(tuple(t.apply((x,) + ys) for x in xs))
        if lhs != rhs:
            ok, witness = False, {"tuple": list(tpl), "lhs": lhs, "rhs": rhs}
            break
    distributive = rb.record("self-distributivity", ok, witness)

    ok, witness = True, None
    for ys in itertools.product(range(m), repeat=n - 1):
        tr = t.translation(ys)
        if len(set(tr)) != m:
            ok, witness = False, {"translation": list(ys), "image": list(tr)}
            break
    bijective = rb.record("translation-bijectivity", ok, witness)

    if not (distributive and bijective):
        rb.skip("translation-rack-homomorphism", "rack axioms failed")
        return rb.build()

    ok, witness = True, None
    for xs in itertools.product(range(m), repeat=n - 1):
        tx = t.translation(xs)
        for ys in itertools.product(range(m), repeat=n - 1):
            ty = t.translation(ys)
            ty_inv = [0] * m
            for i, v in enumerate(ty):
                ty_inv[v] = i
            conj = tuple(ty[tx[ty_inv[i]]] for i in range(m))
            moved = tuple(t.apply((x,) + ys) for x in xs)
            if t.translation(moved) != conj:
                ok, witness = False, {"x": list(xs), "y": list(ys)}
                break
        if not ok:
            break
    rb.record("translation-rack-homomorphism", ok, witness)
    return rb.build()


def without_times(report):
    doc = report.to_json()
    for check in doc["checks"]:
        del check["elapsed_ms"]
    return doc


GROUPS = [cyclic_group(2), cyclic_group(3), nr.symmetric_group(3)]


@st.composite
def nrack_tables(draw):
    """Random, near-rack (one cell of a rack changed) and conjugation
    tables, right or left, n = 2..4, up to 3^5 or 2^7 tuples (6^5 for
    conjugation racks of Sym(3))."""
    n = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(["random", "near", "conjugation"]))
    side = draw(st.sampled_from([nr.RIGHT, nr.LEFT]))
    if kind == "conjugation":
        rack = nr.conjugation_nrack(draw(st.sampled_from(GROUPS[:2] if n == 4 else GROUPS)), n)
    else:
        m = draw(st.integers(1, 3 if n < 4 else 2))
        if kind == "random":
            table = draw(st.lists(st.integers(0, m - 1), min_size=m**n, max_size=m**n))
            return nr.FiniteNRack(m, n, table, side)
        k = draw(st.integers(0, m - 1))
        shift = nr.from_function(m, 2, lambda x, y: (x + k) % m, certified=True)  # x <| y = x + k
        rack = draw(st.sampled_from([trivial_nrack(m, n), nr.nrack_from_rack(shift, n)]))
    table = list((rack if side == nr.RIGHT else rack.reversed_args()).table)
    if kind == "near" and rack.size > 1:
        cell = draw(st.integers(0, len(table) - 1))
        table[cell] = (table[cell] + draw(st.integers(1, rack.size - 1))) % rack.size
    return nr.FiniteNRack(rack.size, n, table, side)


@settings(max_examples=200, deadline=None)
@given(nrack_tables())
def test_check_nrack_matches_the_tuple_loop(t):
    assert without_times(nr.check_nrack(t)) == without_times(tuple_loop_check(t))


@st.composite
def repeated_translation_tables(draw):
    """Tables built from 1-3 distinct translation columns, each ys taking
    one of them: permutations (so often lawful, a single one always) or
    arbitrary maps, the identity first or not, right or left, n = 2..4, up
    to 3^5 or 2^7 tuples."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(1, 3 if n < 4 else 2))
    side = draw(st.sampled_from([nr.RIGHT, nr.LEFT]))
    k = draw(st.integers(1, 3))
    if draw(st.booleans()):
        columns = [draw(st.permutations(range(m))) for _ in range(k)]
    else:
        columns = [draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m)) for _ in range(k)]
    if draw(st.booleans()):
        columns[0] = list(range(m))  # a lawful column at ys = 0 puts the first failure later
    ncols = m ** (n - 1)
    pick = draw(st.lists(st.integers(0, k - 1), min_size=ncols, max_size=ncols))
    table = [columns[j][x] for x in range(m) for j in pick]
    t = nr.FiniteNRack(m, n, table)
    return t if side == nr.RIGHT else nr.FiniteNRack(m, n, t.reversed_args().table, nr.LEFT)


#: its first failure, ((0, 0, 1), (1, 2)), is at a repeated column other than that of ys = 0
LATE_FAILURE = nr.FiniteNRack(3, 3, [0, 2, 0, 2, 0, 1, 1, 2, 0, 1, 1, 1, 1, 1, 2, 2, 1, 1, 2, 0, 2, 0, 2, 0, 0, 0, 2])


@settings(max_examples=300, deadline=None)
@given(repeated_translation_tables())
@example(LATE_FAILURE)
def test_check_nrack_matches_the_tuple_loop_on_repeated_translations(t):
    """Whole reports, where the laws run once per distinct translation column."""
    assert without_times(nr.check_nrack(t)) == without_times(tuple_loop_check(t))


def test_first_failure_at_a_repeated_translation_keeps_its_place():
    translations = [LATE_FAILURE.table[b::9] for b in range(9)]
    assert len(set(translations)) == 3 and translations.count(translations[5]) > 1
    report = nr.check_nrack(LATE_FAILURE)
    assert report.witness == {"tuple": [0, 0, 1, 1, 2], "lhs": 0, "rhs": 2}
    assert without_times(report) == without_times(tuple_loop_check(LATE_FAILURE))


def _check_nrack_peak(t):
    """check_nrack(t) and its tracemalloc peak in bytes."""
    import tracemalloc

    tracemalloc.start()
    try:
        report = nr.check_nrack(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return report, peak


def test_check_nrack_memory_stays_blocked(s3):
    # 6 distinct translations among 6^3 ys: each block's lists hold 6^3 x 6
    # entries and the whole check peaks near 0.1 MB, where one block over
    # every ys would hold 6^6 entries (about 1.6 MB).  With so few distinct
    # translations, all six blocks at once would fit too; the A_5 case below
    # is the one that sees the blocking.
    report, peak = _check_nrack_peak(nr.conjugation_nrack(s3, 4))
    assert report.passed
    assert peak < 2**19  # 512 kB: a walk over every ys would not fit


def test_check_nrack_memory_stays_blocked_on_distinct_translations():
    # A_5 has a trivial centre, so its 60 conjugations are 60 distinct
    # translations, one per ys: each x_1 block's lists hold 60 x 60 entries,
    # where the lists of all 60 blocks at once would hold 60^3 (about 1.7 MB each)
    report, peak = _check_nrack_peak(nr.conjugation_nrack(alternating_group(5), 2))
    assert report.passed
    assert peak < 2**19  # 512 kB


# -- groups ------------------------------------------------------------------


def test_symmetric_group_s3(s3):
    assert s3.size == 6
    assert not is_abelian(s3)
    # (12)(13) = (132): apply (13) first: as functions p*q = p o q
    assert s3.mul[T12][T13] == 3 or s3.mul[T12][T13] == 4  # a 3-cycle
    assert s3.mul[s3.mul[T12][T12]][0] == 0  # transpositions are involutions


def test_check_group_table_reports():
    good = nr.check_group_table(2, [[0, 1], [1, 0]])
    assert good.passed
    bad = nr.check_group_table(2, [[0, 1], [0, 1]])
    assert not bad.passed


def test_table_values_are_refused_not_truncated():
    for bad in (1.7, True, "1", None, float("nan"), float("inf"), Fraction(1, 2)):
        with pytest.raises(SchemaError):
            nr.FiniteNRack(2, 2, (0, bad, 1, 0))
        with pytest.raises(SchemaError):
            nr.FiniteGroup(2, ((0, 1), (1, bad)))
    with pytest.raises(SchemaError):
        nr.FiniteNRack(2, 2, (0, 1, 1, 2))  # out of range
    # integral numbers of any type are read as ints
    t = nr.FiniteNRack(2, 2, (0, 1.0, Fraction(1), 0))
    assert t.table == (0, 1, 1, 0) and set(map(type, t.table)) == {int}


def test_group_rejects_non_associative():
    with pytest.raises(PreconditionError):
        nr.FiniteGroup(3, ((0, 1, 2), (1, 2, 2), (2, 0, 1)))


# -- conjugation racks --------------------------------------------------------


def test_conjugation_nrack_abelian_is_trivial():
    c4 = cyclic_group(4)
    assert nr.conjugation_nrack(c4, 3).table == trivial_nrack(4, 3).table


def test_conjugation_3rack_s3_spot_value(s3, conj3):
    # <(12), (13), (23)> = (23)
    assert conj3.apply((T12, T13, T23)) == T23


def test_conjugation_nrack_certifies(s3, conj3):
    assert nr.check_nrack(conj3).passed
    assert nr.check_nrack(nr.conjugation_nrack(s3, 2)).passed


def test_conjugation_n2_is_plain_conjugation(s3):
    conj2 = nr.conjugation_nrack(s3, 2)
    for x, y in itertools.product(range(6), repeat=2):
        assert conj2.apply((x, y)) == s3.mul[s3.mul[y][x]][s3.inv[y]]


# -- folding and extensions ----------------------------------------------------


def test_nrack_from_rack_trivial():
    assert nr.nrack_from_rack(trivial_nrack(3, 2), 4).table == trivial_nrack(3, 4).table


def test_nrack_from_rack_increments_cancel(flip_rack):
    out = nr.nrack_from_rack(flip_rack, 3)
    assert out.table == trivial_nrack(2, 3).table


def test_nrack_from_rack_conjugation_coincides(s3, conj3):
    conj2 = nr.conjugation_nrack(s3, 2)
    assert nr.nrack_from_rack(conj2, 3, recheck=True).table == conj3.table


def test_extend_rack_by_constant_on_trivial():
    triv = trivial_nrack(3, 2)
    const = nr.from_function(3, 2, lambda x, y: 1)
    out = nr.extend_rack_by_op(triv, const)
    assert out.table == trivial_nrack(3, 3).table


def test_extend_rack_reproduces_conjugation(s3, conj3):
    conj2 = nr.conjugation_nrack(s3, 2)
    prod = nr.from_function(6, 2, lambda x, y: s3.mul[y][x])
    assert nr.extend_rack_by_op(conj2, prod, recheck=True).table == conj3.table


def test_extend_rack_equivariance_failure(flip_rack):
    bad = nr.from_function(2, 2, lambda x, y: x * y)
    with pytest.raises(PreconditionError):
        nr.extend_rack_by_op(flip_rack, bad)


def test_combine_trivial():
    a = trivial_nrack(3, 2)
    b = trivial_nrack(3, 3)
    assert nr.combine_compatible(a, b).table == trivial_nrack(3, 4).table


def test_combine_conjugation_racks(s3, conj3):
    conj2 = nr.conjugation_nrack(s3, 2)
    out = nr.combine_compatible(conj2, conj2, recheck=True)
    assert out.arity == 3 and out.table == conj3.table


def test_combine_incompatible_pair():
    # on a 3-element carrier: the increment rack vs a rack it does not respect
    inc = nr.certify(nr.cyclic_rack(3))
    other = nr.certify(nr.from_function(3, 2, lambda x, y: (2 * x) % 3 if False else x))
    # x <| y = x is trivial and compatible; build a genuinely incompatible second rack:
    # t(x) = 2x mod 3 as translation for every y is a rack but not inc-equivariant
    twist = nr.certify(nr.from_function(3, 2, lambda x, y: (2 * x) % 3))
    with pytest.raises(PreconditionError):
        nr.combine_compatible(inc, twist)


# -- induced racks on powers -----------------------------------------------------


def test_rack_from_nrack_trivial():
    out = nr.krack_from_power(trivial_nrack(2, 3), 2)
    assert out.size == 4 and out.table == trivial_nrack(4, 2).table


def test_rack_from_nrack_conjugation_spot_value(s3, conj3):
    out = nr.krack_from_power(conj3, 2)
    assert out.size == 36
    assert nr.check_nrack(out).passed
    # ((12),(13)) <| ((23), (123)-style pair): componentwise <x_i, y_1, y_2>
    y = (T23, 3)
    xi = T12 * 6 + T13
    yi = y[0] * 6 + y[1]
    expect = (conj3.apply((T12,) + y)) * 6 + conj3.apply((T13,) + y)
    assert out.apply((xi, yi)) == expect


def test_rack_from_nrack_carrier_cap():
    with pytest.raises(CapExceededError):
        nr.krack_from_power(trivial_nrack(2, 11), 2)


def test_rack_from_nrack_composed_with_fold(flip_rack):
    # rack -> n-rack -> rack on tuples is componentwise iterated product, m <= 3
    for rack in (trivial_nrack(3, 2), nr.cyclic_rack(3), nr.cyclic_rack(2)):
        n = 3
        lifted = nr.nrack_from_rack(rack, n)
        back = nr.krack_from_power(lifted, 2)
        m = rack.size
        tuples = list(itertools.product(range(m), repeat=n - 1))
        for xi, xs in enumerate(tuples):
            for yi, ys in enumerate(tuples):
                expect = []
                for x in xs:
                    acc = x
                    for y in ys:
                        acc = rack.apply((acc, y))
                    expect.append(acc)
                got = back.apply((xi, yi))
                assert tuples[got] == tuple(expect)


def test_krack_k2_matches_rack_from_nrack(conj3):
    # the induced rack acts componentwise: (x_1, x_2) <| ys = (<x_1, ys>, <x_2, ys>)
    pairs = list(itertools.product(range(6), repeat=2))
    expect = [T.flat_index([conj3.apply((x,) + ys) for x in xs], 6) for xs in pairs for ys in pairs]
    assert nr.krack_from_power(conj3, 2).table == tuple(expect)


def test_krack_blocks_match_the_definition(s3):
    # block i of <<x, y, z>> is <x_i, y_1, y_2, z_1, z_2> on pairs of S3
    t = nr.conjugation_nrack(s3, 5)
    pairs = list(itertools.product(range(6), repeat=2))
    expect = [
        T.flat_index([t.apply((x,) + ys + zs) for x in xs], 6)
        for xs, ys, zs in itertools.product(pairs, repeat=3)
    ]
    assert nr.krack_from_power(t, 3).table == tuple(expect)


def test_krack_trivial():
    t = trivial_nrack(2, 3)
    out = nr.krack_from_power(t, 2)
    assert out.table == trivial_nrack(4, 2).table


def test_krack_singleton_blocks(conj3):
    assert nr.krack_from_power(conj3, 3).table == conj3.table


def test_krack_arity_mismatch(conj3):
    with pytest.raises(SchemaError):
        nr.krack_from_power(conj3, 4)


def test_krack_is_a_krack():
    # a 3-rack ((n-1)(k-1)+1 with n=2... use k=3 on conj3: already the identity case;
    # genuine case: 5-ary fold of the flip rack, k = 3 -> 3-rack on pairs
    base = nr.nrack_from_rack(nr.cyclic_rack(2), 5)
    out = nr.krack_from_power(base, 3, recheck=True)
    assert out.size == 4 and out.arity == 3


# -- left/right duality ------------------------------------------------------


def test_reversal_duality(conj3):
    left = conj3.reversed_args()
    assert left.side == "left"
    assert nr.check_nrack(left).passed
    assert left.reversed_args().table == conj3.table


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.integers(2, 4), st.sampled_from([nr.RIGHT, nr.LEFT]), st.booleans(), st.data())
def test_reversed_args_matches_the_per_entry_form(m, n, side, certified, data):
    table = data.draw(st.lists(st.integers(0, m - 1), min_size=m**n, max_size=m**n))
    t = nr.FiniteNRack(m, n, table, side, certified)
    flipped = nr.LEFT if side == nr.RIGHT else nr.RIGHT
    assert t.reversed_args() == nr.from_function(m, n, lambda *a: t.apply(a[::-1]), flipped, certified)


def test_left_table_that_is_not_right(conj3):
    left = conj3.reversed_args()
    as_right = nr.FiniteNRack(left.size, left.arity, left.table, "right")
    # conjugation is genuinely chiral on S3
    assert not nr.check_nrack(as_right).passed


# -- vector n-racks ----------------------------------------------------------


def test_vector_nrack_zero_algebra_is_projection():
    v = nr.nrack_from_nleibniz(zero_algebra(3, 2))
    x = {0: ONE, 1: Fraction(2)}
    assert v.op([x, {1: ONE}, {0: ONE}]) == x


def test_vector_nrack_t3_value(t3):
    v = nr.nrack_from_nleibniz(t3)
    assert v.op([{0: ONE}, {1: ONE}, {1: ONE}]) == {0: ONE, 2: ONE}


def test_vector_nrack_translations_invertible(t3):
    v = nr.nrack_from_nleibniz(t3)
    for ys in itertools.product(v.sample_grid(), repeat=2):
        fwd = v._exp_at(list(ys))
        bwd = translation_inverse(v, list(ys))
        assert fwd @ bwd == T.identity(T.shape(3))


def test_vector_nrack_requires_nilpotent_basis_adjoints():
    alg = nl.certify(nl.NLeibnizAlgebra(2, 2, {(0, 1): {0: 1}}))
    with pytest.raises(NotNilpotentError):
        nr.nrack_from_nleibniz(alg)


@pytest.mark.parametrize("mode, error", [("exact", NotNilpotentError), ("float", SeriesNotConvergedError)])
def test_adjoint_without_exponential_is_refused_at_the_basis_and_skipped_on_the_grid(mode, error):
    # [-, e_1] scales e_0 by 40: not nilpotent, and its float exp series is still large after 64 terms
    alg = nl.certify(nl.NLeibnizAlgebra(2, 2, {(0, 1): {0: 40}}, mode))
    with pytest.raises(error) as exc:
        nr.nrack_from_nleibniz(alg)
    assert isinstance(exc.value, PreconditionError)  # an input error, exit 2
    report = nr.validate_vector_nrack(nr.VectorNRack(alg, mode))
    assert report.passed and report.checks[-1].status == "skipped"
    assert nr.verify_tensor_embedding(alg).passed


def test_vector_nrack_float_mode():
    alg = nl.certify(nl.NLeibnizAlgebra(2, 2, {(0, 1): {0: 1}}))
    v = nr.nrack_from_nleibniz(alg, mode="float")
    out = v.op([{0: 1.0}, {1: 1.0}])
    import math

    assert abs(out[0] - math.e) < 1e-9


def test_vector_nrack_homomorphism_functoriality(t3):
    # diag(2, 3, 18) preserves [e_0, e_1, e_1] = e_2 since 2 * 3^2 = 18,
    # so it must carry the exponential-action operation along on the grid
    phi = T.TensorOperator(
        T.shape(3), T.shape(3), {(0, 0): 2, (1, 1): 3, (2, 2): 18}
    )
    assert is_homomorphism(t3, t3, phi).passed
    v = nr.nrack_from_nleibniz(t3)
    grid = v.sample_grid()
    for tpl in itertools.product(range(len(grid)), repeat=3):
        xs = [grid[i] for i in tpl]
        lhs = phi.apply(v.op(xs))
        rhs = v.op([phi.apply(x) for x in xs])
        assert lhs == rhs


def test_verify_tensor_embedding_zero():
    assert nr.verify_tensor_embedding(zero_algebra(3, 2)).passed


def test_verify_tensor_embedding_t3(t3):
    assert nr.verify_tensor_embedding(t3).passed


def test_tensor_embedding_spot_value(t3):
    # both routes at ((e_0, e_1), (e_1, e_1)) give (e_0 + e_2) (x) e_1
    v = nr.nrack_from_nleibniz(t3)
    moved = [v.op([{0: ONE}, {1: ONE}, {1: ONE}]), v.op([{1: ONE}, {1: ONE}, {1: ONE}])]
    assert moved[0] == {0: ONE, 2: ONE} and moved[1] == {1: ONE}
    fund = nl.fundamental_leibniz(t3)
    s = T.power_shape(3, 2)
    phi_x = {s.flat((0, 1)): ONE}
    phi_y = {s.flat((1, 1)): ONE}
    rhs = T.exp_nilpotent(nl.ad(fund, [phi_y])).apply(phi_x)
    assert rhs == {s.flat((0, 1)): ONE, s.flat((2, 1)): ONE}


def test_multinomial_power_identity(t3):
    # (ad on the tensor power at y_1 (x) y_2)^2 expands through the
    # multinomial sum of componentwise adjoint powers, k = 2
    fund = nl.fundamental_leibniz(t3)
    s = T.power_shape(3, 2)
    y = (1, 1)
    big = nl.ad(fund, [{s.flat(y): ONE}])
    small = ad_basis(t3, y)
    idc = T.identity(T.shape(3))
    sq = big @ big
    expansion = (
        T.tensor_many([small @ small, idc])
        + T.tensor_many([small, small]).scaled(2)
        + T.tensor_many([idc, small @ small])
    )
    assert sq == expansion.with_shapes(sq.domain_shape, sq.codomain_shape)


# -- vector n-rack checks against the grid loops ---------------------------

#: certified brackets whose grid holds non-nilpotent adjoints, so checks skip
SKIPPING = [nl.certify(nl.NLeibnizAlgebra(2, 2, {(0, 1): {0: 1}}))]
SKIPPING += [nl.nbracket_from_leibniz(SKIPPING[0], n) for n in (3, 4)]
COEFFS = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)]


@st.composite
def vector_brackets(draw):
    """(algebra, mode): a hand-picked skipping bracket, or a random one of
    arity 2-4 on a dimension small enough for the grid loops, certified
    when it passes the fundamental identity."""
    mode = draw(st.sampled_from(["exact", "exact", "float"]))
    if draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(SKIPPING)), mode
    n = draw(st.integers(2, 4))
    d = draw(st.integers(1, 3 if n == 2 else 2))
    keys = st.tuples(*[st.integers(0, d - 1)] * n)
    entries = draw(st.lists(st.tuples(keys, st.integers(0, d - 1), st.sampled_from(COEFFS)), max_size=4))
    a = nl.NLeibnizAlgebra(n, d, {key: {j: c} for key, j, c in entries})
    if nl.check_fundamental_identity(a).passed:
        a = a.as_certified()
    return a, mode


def _outcome(check, *args):
    """The report without elapsed_ms, or the type of the error it raised."""
    try:
        doc = check(*args).to_json()
    except Exception as exc:  # both implementations must raise alike
        return type(exc).__name__
    for c in doc["checks"]:
        del c["elapsed_ms"]
    return doc


def _agree(new, old, mode):
    """Exact mode: identical outcomes.  Float mode checks basis columns only,
    a subset of the grid, so the grid loop may fail where the basis passes;
    where the grid passes or raises, the basis does the same."""
    if mode == "exact" or not isinstance(old, dict) or old["overall"] == "pass":
        assert new == old


@settings(max_examples=150, deadline=None)
@given(vector_brackets())
def test_validate_vector_nrack_matches_grid_loop(case):
    a, mode = case
    rack = nr.VectorNRack(a, mode)
    new = _outcome(nr.validate_vector_nrack, rack)
    _agree(new, _outcome(vector_rack_oracle.validate_vector_nrack, rack), mode)


@settings(max_examples=150, deadline=None)
@given(vector_brackets(), st.data())
def test_verify_tensor_embedding_matches_grid_loop(case, data):
    # the identity holds for every bracket (ad of the induced bracket is a sum
    # of commuting one-factor terms), so a perturbed induced bracket is what
    # reaches the witness
    a, mode = case
    a = a.as_certified()
    fund = nl.fundamental_leibniz(a)
    d = fund.dim
    extra = data.draw(st.lists(st.tuples(st.integers(0, d - 1), st.integers(0, d - 1), st.integers(0, d - 1)), max_size=2))
    bracket = {k: dict(v) for k, v in fund.bracket.items()}
    for i, j, k in extra:
        bracket.setdefault((i, j), {})[k] = ONE
    perturbed = nl.NLeibnizAlgebra(2, d, bracket, certified=True)
    with mock.patch.object(nr, "fundamental_leibniz", lambda a, recheck=False: perturbed):
        new = _outcome(nr.verify_tensor_embedding, a, mode)
        _agree(new, _outcome(vector_rack_oracle.verify_tensor_embedding, a, mode), mode)


def test_validate_vector_nrack_counts_the_skips_of_the_whole_grid():
    rack = nr.VectorNRack(SKIPPING[0])
    new = _outcome(nr.validate_vector_nrack, rack)
    assert new["overall"] == "pass" and new["checks"][-1]["status"] == "skipped"
    assert new == _outcome(vector_rack_oracle.validate_vector_nrack, rack)
