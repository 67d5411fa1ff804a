"""Cross-checks between independent implementations of the same laws.

Both public braid-relation checks run the one index-map kernel
``setsol.braid_sides``: ``ybops.verify_nybe`` for every operator and
``setsol.check_set_nsolution`` for every set map.  A column of S that is
not a plain single entry sends an index to the absorbing index, and
only the basis columns absorbed on either side go through the sparse
dicts of ``ybops``'s dict pass; the lift ``nyb_from_ybe`` and the
descent ``ybe_from_nyb`` build their words with the same kernel.  No
code in ``src/`` composes embedded operators any more, so the oracles
live here: the sparse operator chain
(``tensor.embed``, composed in order of application, and the sorted-keys
rule of ``difference_oracle``), a dense numpy product of Kronecker
embeddings, a plain tuple-by-tuple simulation of the two braid words,
and the whole-column kernel of ``kernel_oracle``.
Linearizing a point map must preserve every verdict, so any convention
drift between the paths shows up here.
"""

import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import braidforge.scalars as sc
import braidforge.setsol as ss
import braidforge.tensor as T
import braidforge.ybops as yb
import difference_oracle
import kernel_oracle
import operator_oracle
from braidforge.errors import PreconditionError
from library_extras import trivial_nrack

ONE = Fraction(1)


def permutation_operator_of_map(s: ss.SetNMap) -> T.TensorOperator:
    """The linear extension of a set map, as a 0/1 operator."""
    shp = T.power_shape(s.size, s.arity)
    entries = {}
    for args in itertools.product(range(s.size), repeat=s.arity):
        entries[(shp.flat(s.apply(args)), shp.flat(args))] = ONE
    return T.TensorOperator(shp, shp, entries)


def bijective_tables(m, n):
    perms = list(itertools.permutations(range(m)))
    contexts = list(itertools.product(range(m), repeat=n - 1))
    for combo in itertools.product(perms, repeat=len(contexts)):
        cols = dict(zip(contexts, combo))
        yield lambda *a, c=cols: a[1:] + (c[a[1:]][a[0]],)


def test_operator_chain_matches_set_chain_on_induced_maps():
    # all 16 bijective-column ternary tables on two points, both sides
    for fn in bijective_tables(2, 3):
        s = ss.from_function(2, 3, fn)
        profile = ss.check_set_nsolution(s)
        op = permutation_operator_of_map(s)
        assert yb.verify_nybe(op, 3, "right").holds == profile.satisfies_right
        assert yb.verify_nybe(op, 3, "left").holds == profile.satisfies_left


def test_operator_chain_matches_set_chain_on_raw_binary_maps():
    # every bijective binary map on two points (4! = 24 of them)
    for image in itertools.permutations(range(4)):
        s = ss.SetNMap(2, 2, image)
        profile = ss.check_set_nsolution(s)
        op = permutation_operator_of_map(s)
        report = yb.verify_nybe(op, 2)
        assert report.holds == profile.satisfies_right


@pytest.mark.parametrize("n", [3, 4])
def test_set_lift_and_descent_linearize_to_operator_lift_and_descent(n, s3, flip_rack):
    # the binary solutions of acceptance criterion 8
    import braidforge.nrack as nr

    for rack in (trivial_nrack(2, 2), flip_rack, nr.conjugation_nrack(s3, 2)):
        r = ss.solution_from_nrack(rack)
        s = ss.nsolution_from_solution(r, n)
        assert yb.nyb_from_ybe(permutation_operator_of_map(r), n) == permutation_operator_of_map(s)
        descended = permutation_operator_of_map(ss.solution_from_nsolution(s))
        assert yb.ybe_from_nyb(permutation_operator_of_map(s), n) == descended


def test_flip_map_linearizes_to_cyclic_operator():
    s = ss.flip_map(3, 3)
    assert permutation_operator_of_map(s) == yb.cyclic_operator(3, 3)


# -- the index-map kernel against the sparse chain and a tuple simulation --


def words(n, side):
    """The two braid words, in order of application, read off the equation."""
    if side == "right":
        return [0, *range(n - 1, 0, -1), 0], [*range(n - 1, -1, -1), n - 1]
    return [0, *range(1, n), 0], [n - 1, *range(n - 1), n - 1]


def flat(digits, d):
    idx = 0
    for x in digits:
        idx = idx * d + x
    return idx


def simulate(image, coeffs, d, n, side, mode):
    """(holds, witness, invertible, first differing tuple) by moving every
    (2n-1)-tuple through both words one letter at a time."""
    eps = sc.EPS_CMP if mode == sc.FLOAT else 0
    outputs = [list(t) for t in itertools.product(range(d), repeat=n)]
    witness = first_tuple = None
    for tup in itertools.product(range(d), repeat=2 * n - 1):
        col = flat(tup, d)
        side_entries = []
        for word in words(n, side):
            t, val = list(tup), None
            for off in word:
                c = flat(t[off : off + n], d)
                t[off : off + n] = outputs[image[c]]
                val = coeffs[c] if val is None else coeffs[c] * val
            side_entries.append((t, {flat(t, d): val}))
        (lt, lhs), (rt, rhs) = side_entries
        if lt != rt and first_tuple is None:
            first_tuple = {"tuple": list(tup), "lhs": lt, "rhs": rt}
        rows = [r for r in sorted(set(lhs) | set(rhs)) if abs(lhs.get(r, 0) - rhs.get(r, 0)) > eps]
        if rows and (witness is None or (rows[0], col) < witness):
            witness = (rows[0], col)
    invertible = len(set(image)) == len(image) and all(abs(c) > eps for c in coeffs)
    return witness is None, None if witness is None else witness[1], invertible, first_tuple


def embed_chain(op, d, n, k, word):
    """The letters Id^(x)i (x) op (x) Id^(x)(k-n-i) of a word on k factors,
    composed in order of application (first applied first)."""
    out = T.embed(op, word[0], k - n - word[0], d)
    for i in word[1:]:
        out = T.embed(op, i, k - n - i, d) @ out
    return out


def sparse_chain(op, d, n, side):
    """(holds, witness, invertible) of the sparse operator chain."""
    lhs, rhs = (embed_chain(op, d, n, 2 * n - 1, word) for word in words(n, side))
    diff = difference_oracle.first_difference(lhs, rhs)
    return diff is None, None if diff is None else diff[1], T.column_rank(op) == op.domain_shape.total


EXACT_COEFFS = [1, -1, 2, Fraction(1, 2), Fraction(-5, 3)]
FLOAT_COEFFS = [1.0, -0.5, 3.0, 1e-4, -1e-4, 1e-5]


@st.composite
def monomial_maps(draw):
    # d = n = 4 (4^7 dims, about a second per case) runs as the explicit example
    n = draw(st.integers(2, 4))
    d = draw(st.integers(2, 3 if n == 4 else 4))
    size = d**n
    kind = draw(st.sampled_from(["bijective", "constant", "random", "flip", "identity"]))
    if kind == "bijective":
        image = draw(st.permutations(list(range(size))))
    elif kind == "constant":
        image = [draw(st.integers(0, size - 1))] * size
    elif kind == "random":
        image = draw(st.lists(st.integers(0, size - 1), min_size=size, max_size=size))
    elif kind == "flip":
        image = [flat(t[1:] + t[:1], d) for t in itertools.product(range(d), repeat=n)]
    else:
        image = list(range(size))
    mode = draw(st.sampled_from([sc.EXACT, sc.FLOAT]))
    pool = EXACT_COEFFS if mode == sc.EXACT else FLOAT_COEFFS
    values = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
    coeffs = draw(st.lists(st.sampled_from(values), min_size=size, max_size=size))
    coeffs = [sc.coerce(c, mode) for c in coeffs]
    return d, n, image, coeffs, mode, draw(st.sampled_from(["right", "left"]))


def permuted_4_4():
    image = list(range(4**4))
    random.Random(44).shuffle(image)
    return 4, 4, image, [Fraction(-1)] * 4**4, sc.EXACT, "left"


@settings(max_examples=100, deadline=None)
@given(monomial_maps())
@example(permuted_4_4())
# every product within EPS_CMP of zero: both sides are zero within tolerance
@example((2, 2, [1, 0, 3, 2], [1e-4] * 4, sc.FLOAT, "right"))
@example((2, 2, [1, 0, 3, 2], [1e-4, 1e-5] * 2, sc.FLOAT, "right"))
@example((2, 2, [0, 1, 2, 3], [1e-4, 1e-5] * 2, sc.FLOAT, "left"))
def test_index_map_kernel_matches_sparse_chain_and_tuples(case):
    d, n, image, coeffs, mode, side = case
    shp = T.power_shape(d, n)
    op = T.TensorOperator(shp, shp, {(r, c): v for c, (r, v) in enumerate(zip(image, coeffs))}, mode)
    report = yb.verify_nybe(op, n, side)
    holds, witness, invertible, first_tuple = simulate(image, coeffs, d, n, side, mode)
    assert (report.holds, report.witness, report.invertible) == sparse_chain(op, d, n, side)
    assert (report.holds, report.witness, report.invertible) == (holds, witness, invertible)
    # the set map with the same image, whatever the coefficients
    profile = ss.check_set_nsolution(ss.SetNMap(d, n, image))
    if side == "right":
        assert (profile.satisfies_right, profile.right_witness) == (first_tuple is None, first_tuple)
    else:
        assert (profile.satisfies_left, profile.left_witness) == (first_tuple is None, first_tuple)


# -- the integer column kernel against the sparse chain and a dense product --


GENERAL_EXACT = [1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2), Fraction(5, 3)]
# entries and products of n+1 letters near EPS_CMP: 1e-3^3 = 1e-9, (3e-5)^2 = 9e-10
GENERAL_FLOAT = [1.0, -1.0, 0.5, 3.0, 1e-3, -1e-3, 3e-5, 4e-10, 3e-9]


@st.composite
def general_operators(draw):
    """Square operators on V^(x)n with 1-3 nonzeros in some column: random
    columns, or a cyclic shift plus random bracket terms 1^(x)(n-1) (x) [...]
    on the right side and [...] (x) 1^(x)(n-1) on the left, the shape of the
    braidings of n-Leibniz algebras.  Exact pools hold +-1 and +-2, so sums
    cancel to zero."""
    # n = 4 at d = 3 (3^7 dims) runs as an explicit example
    n = draw(st.integers(2, 4))
    d = draw(st.integers(2, 2 if n == 4 else 3))
    mode = draw(st.sampled_from([sc.EXACT, sc.FLOAT]))
    side = draw(st.sampled_from(["right", "left"]))
    pool = st.sampled_from(GENERAL_EXACT if mode == sc.EXACT else GENERAL_FLOAT)
    shp = T.power_shape(d, n)
    if draw(st.booleans()):
        entries = {}
        for c in range(shp.total):
            for r in draw(st.lists(st.integers(0, shp.total - 1), min_size=1, max_size=3, unique=True)):
                entries[(r, c)] = draw(pool)
        return d, n, T.TensorOperator(shp, shp, entries, mode), side
    shift = yb.cyclic_operator(d, n, mode) if side == "right" else T.permutation_operator(
        shp, (*range(1, n), 0), mode
    )
    unit = (0,) * (n - 1)
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        key = tuple(draw(st.integers(1, d - 1)) for _ in range(n))
        j = draw(st.integers(0, d - 1))
        row = shp.flat(unit + (j,) if side == "right" else (j,) + unit)
        terms[(row, shp.flat(key))] = draw(pool)
    return d, n, shift + T.TensorOperator(shp, shp, terms, mode), side


def dense_differences(op, d, n, side):
    """(sure, possible, invertible) from dense numpy products of the
    Kronecker embeddings: boolean masks of the (row, col) where the two
    sides differ beyond EPS_CMP + 1e-12 and beyond EPS_CMP - 1e-12 (in
    float mode the summation order may decide the entries in between; in
    exact mode both masks are the exact differences).  Exact operators are
    scaled to integers, so the float64 products are exact while every
    partial sum stays below 2^52.  Invertibility is sympy's exact rank in
    exact mode and not an independent check in float mode."""
    import math

    import numpy as np
    import sympy

    exact = op.mode == sc.EXACT
    scale = math.lcm(*(v.denominator for v in op.entries.values())) if exact else 1
    m = np.zeros((d**n, d**n))
    for (r, c), v in op.entries.items():
        m[r, c] = float(v * scale)
    letters = [np.kron(np.kron(np.eye(d**i), m), np.eye(d ** (n - 1 - i))) for i in range(n)]
    sides = []
    for word in words(n, side):
        prod = bound = np.eye(d ** (2 * n - 1))
        for i in word:
            prod, bound = letters[i] @ prod, np.abs(letters[i]) @ bound
        assert bound.max() < 2**52
        sides.append(prod)
    diff = np.abs(sides[0] - sides[1])
    if exact:
        return diff != 0, diff != 0, sympy.Matrix(operator_oracle.dense(op)).rank() == d**n
    return diff > sc.EPS_CMP + 1e-12, diff > sc.EPS_CMP - 1e-12, T.column_rank(op) == op.domain_shape.total


def t3bar_braiding(mode, side):
    """The braiding of T3 with a unit adjoined (4^5 = 1024 dims), which holds."""
    import braidforge.nleibniz as nl

    a = nl.certify(nl.NLeibnizAlgebra(3, 3, {(0, 1, 1): {2: 1}}, mode))
    return 4, 3, yb.nyb_from_central_nleibniz(nl.adjoin_unit(a), side), side


def random_4_3():
    """A random operator at n = 4, d = 3 (3^7 dims), 1-3 nonzeros per column."""
    rng = random.Random(43)
    shp = T.power_shape(3, 4)
    entries = {}
    for c in range(shp.total):
        for r in rng.sample(range(shp.total), rng.randint(1, 3)):
            entries[(r, c)] = rng.choice(GENERAL_EXACT)
    return 3, 4, T.TensorOperator(shp, shp, entries), "left"


@settings(max_examples=100, deadline=None)
@given(general_operators())
@example(t3bar_braiding(sc.EXACT, "right"))
@example(t3bar_braiding(sc.EXACT, "left"))
@example(t3bar_braiding(sc.FLOAT, "right"))
@example(random_4_3())
def test_column_kernel_matches_sparse_chain_and_dense_product(case):
    d, n, op, side = case
    report = yb.verify_nybe(op, n, side)
    got = (report.holds, report.witness, report.invertible)
    assert got == sparse_chain(op, d, n, side)
    if d ** (2 * n - 1) > 1024:
        return
    sure, possible, invertible = dense_differences(op, d, n, side)
    assert report.invertible == invertible
    if (sure == possible).all():
        hits = sure.nonzero()  # row-major, so the first is the smallest (row, col)
        assert (report.holds, report.witness) == (not len(hits[0]), int(hits[1][0]) if len(hits[0]) else None)
    else:
        assert report.holds == (not sure.any()) or report.holds == (not possible.any())
        assert report.witness is None or possible[:, report.witness].any()


def braided_case(mode, base, phi, n):
    """(d, n, R): the flip ("flip2", "flip3") or the braiding of a unit-
    extended Leibniz algebra ("square", "a3"), conjugated by the upper-
    triangular phi {(i, j): entry}."""
    import braidforge.nleibniz as nl

    if base.startswith("flip"):
        d = int(base[-1])
        r = yb.cyclic_operator(d, 2, mode)
    else:
        bracket = {(0, 0): {1: 1}} if base == "square" else {(0, 1): {2: 1}}
        a = nl.certify(nl.NLeibnizAlgebra(2, 2 if base == "square" else 3, bracket, mode))
        r = yb.nyb_from_central_nleibniz(nl.adjoin_unit(a))
        d = a.dim + 1
    return d, n, yb.conjugate_nyb(r, T.TensorOperator(T.shape(d), T.shape(d), phi, mode), 2)


@st.composite
def braided_operators(draw):
    """A Yang-Baxter operator R with non-monomial columns, a degree n >= 3
    to lift it to, and a scalar mode: ``braided_case`` with a random
    invertible upper-triangular phi."""
    mode = draw(st.sampled_from([sc.EXACT, sc.FLOAT]))
    base = draw(st.sampled_from(["flip2", "flip3", "square", "a3"]))
    d = int(base[-1]) if base.startswith("flip") else 3 if base == "square" else 4
    # float coefficients off the dyadic grid, so the summation order shows in the last bit
    pool = GENERAL_EXACT if mode == sc.EXACT else [1.0, -0.7, 0.3, 3.1, 1 / 3]
    phi = {(i, i): draw(st.sampled_from(pool)) for i in range(d)}
    for i, j in itertools.combinations(range(d), 2):
        if draw(st.booleans()):
            phi[(i, j)] = draw(st.sampled_from(pool))
    # the descent verifies the lift on d^(2n-1) dims: n = 4 only for d <= 3
    return braided_case(mode, base, phi, draw(st.integers(3, 4 if d <= 3 else 3)))


# entries near 1000: rounding moves the lift's braid sides apart by more than
# the absolute EPS_CMP, so the lift fails its own check and cannot descend
FLOAT_LIFT_MISSES_EPS = braided_case(
    sc.FLOAT, "square", {(0, 0): 0.3, (0, 1): 3.1, (1, 1): 3.1, (1, 2): 3.1, (2, 2): 1 / 3}, 3
)


# small diagonal entries under long off-diagonal chains: phi^-1 grows and the
# conjugated R itself misses EPS_CMP, so the lift refuses it
FLOAT_BASE_MISSES_EPS = braided_case(
    sc.FLOAT,
    "a3",
    {(0, 0): 0.3, (1, 1): -0.7, (2, 2): -0.7, (3, 3): 0.3, (0, 1): 3.1, (0, 2): 3.1,
     (0, 3): 1.0, (1, 2): 1.0, (1, 3): 3.1, (2, 3): 3.1},
    3,
)


@settings(max_examples=40, deadline=None)
@given(braided_operators())
@example(FLOAT_LIFT_MISSES_EPS)
@example(FLOAT_BASE_MISSES_EPS)
def test_lift_and_descent_match_embed_chain(case):
    # entry for entry; float == compares bits, and the kernels never store a zero
    d, n, r = case
    try:
        lifted = yb.nyb_from_ybe(r, n)
    except PreconditionError:
        # only a float R may miss EPS_CMP, and then the embed chain sees it too
        holds, _, invertible = sparse_chain(r, d, 2, "right")
        assert r.mode == sc.FLOAT and not (holds and invertible)
        return
    chain = embed_chain(r, d, 2, n, range(n - 1))
    assert lifted.entries == chain.entries
    assert (lifted.domain_shape, lifted.codomain_shape) == (chain.domain_shape, chain.codomain_shape)
    try:
        down = yb.ybe_from_nyb(lifted, n)
    except PreconditionError:
        # only a float lift may miss EPS_CMP, and then the embed chain sees it too
        holds, _, invertible = sparse_chain(lifted, d, n, "right")
        assert lifted.mode == sc.FLOAT and not (holds and invertible)
        return
    chain = embed_chain(lifted, d, n, 2 * n - 2, range(n - 2, -1, -1))
    assert down.entries == chain.entries
    assert down.domain_shape == down.codomain_shape == T.power_shape(d ** (n - 1), 2)


# -- the index kernel and its dict pass against the whole-column oracle --


# exact: +-1 and +-2 cancel in sums, 1/2 makes the integer scale 2; float:
# entries and products at EPS_CMP, and 1e-120 ** 3 = 1e-200 ** 2 = 0.0
NEAR_EXACT = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(1, 2)]
NEAR_FLOAT = [1.0, -1.0, 2.0, -2.0, sc.EPS_CMP, math.nextafter(sc.EPS_CMP, 1.0), 3e-5, 1e-120, 1e-200]


@st.composite
def near_monomial_operators(draw):
    """(d, n, S): a cyclic shift or a random permutation of the basis of
    V^(x)n, scaled by one pool value or by one per column, plus 0-4 extra
    entries added from the pool (a sum may cancel and empty a column)."""
    n = draw(st.integers(2, 4))
    d = draw(st.integers(2, 2 if n == 4 else 3))
    mode = draw(st.sampled_from([sc.EXACT, sc.FLOAT]))
    values = st.sampled_from(NEAR_EXACT if mode == sc.EXACT else NEAR_FLOAT)
    shp = T.power_shape(d, n)
    cols = list(range(shp.total))
    if draw(st.booleans()):
        image = [flat(t[1:] + t[:1], d) for t in itertools.product(range(d), repeat=n)]
    else:
        image = draw(st.permutations(cols))
    if draw(st.booleans()):
        scales = [draw(values)] * len(cols)
    else:
        scales = draw(st.lists(values, min_size=len(cols), max_size=len(cols)))
    entries = {(r, c): v for c, (r, v) in enumerate(zip(image, scales))}
    keys = st.tuples(st.sampled_from(cols), st.sampled_from(cols))
    for key, v in draw(st.lists(st.tuples(keys, values), max_size=4)):
        entries[key] = entries.get(key, 0) + v
    return d, n, T.TensorOperator(shp, shp, entries, mode)


@settings(max_examples=300, deadline=None)
@given(near_monomial_operators(), st.sampled_from(["right", "left"]), st.sampled_from([1, 5, 64, yb.BLOCK]))
def test_two_tier_kernel_matches_the_whole_column_oracle(case, side, block):
    # entry for entry and in column order; float == compares bits, and neither kernel stores a zero
    d, n, s = case
    with mock.patch.object(yb, "BLOCK", block):
        report = yb.verify_nybe(s, n, side)
        witness = kernel_oracle.braid_witness(s, d, n, side)
        assert (report.holds, report.witness) == (witness is None, witness)
        cases = [(2 * n - 1, word) for word in words(n, side)] + [(2 * n - 2, range(n - 2, -1, -1))]
        if n == 2:
            cases += [(3, range(2)), (4, range(3))]  # the lift to degrees 3 and 4
        for k, word in cases:
            shp = T.power_shape(d, k)
            got = yb._word_operator(s, d, n, k, word, shp, shp).entries
            assert list(got.items()) == list(kernel_oracle.word_entries(s, d, n, k, word).items())


def first_absorbing_letter(s, d, n, k, word, c):
    """The letter at which basis column c of V^(x)k first meets a column of S
    that is not a single entry, or None, following its single-entry path."""
    span, x = d**n, c
    for t, off in enumerate(word):
        low = d ** (k - n - off)
        col = s.columns[x // low % span]
        if len(col) != 1:
            return t
        x += (col[0][0] - x // low % span) * low
    return None


#: (d, n, side, image, scalars, extra entries, (column, lhs letter, rhs letter) or None):
#: S sends basis column c to scalars[c] at image[c], plus the extra entries
PINNED_KERNEL_CASES = {
    # column 3 meets the two-entry column 0 only at the last letter of the lhs
    "absorbed-at-the-last-lhs-letter": (2, 2, "right", [1, 0, 2, 3], [1, 1, 1, 1], {(2, 0): 1}, (3, 2, None)),
    # column 1 meets the two-entry column 7 only at the last letter of the rhs
    "absorbed-at-the-last-rhs-letter": (2, 3, "right", [0, 3, 6, 5, 1, 4, 2, 7], [1] * 8, {(0, 7): -1}, (1, None, 3)),
    # columns 3 and 6 are absorbed on one side only, and the witness (column 2)
    # needs both in the dict pass: the index lists alone would report 3 or 6
    "absorbed-on-one-side-only": (2, 2, "right", [3, 2, 1, 0], [1, 1, 1, 1], {(0, 0): 1}, (6, 1, None)),
    # a cyclic shift whose single entries all differ, on both sides
    "all-scalars-differ-right": (2, 3, "right", [0, 2, 4, 6, 1, 3, 5, 7], [1, 2, 3, 5, -1, -2, Fraction(1, 2), Fraction(3, 2)], {}, None),
    "all-scalars-differ-left": (2, 3, "left", [0, 4, 1, 5, 2, 6, 3, 7], [3, -2, 5, 1, Fraction(1, 2), 2, -1, 7], {}, None),
}


@pytest.mark.parametrize("block", [1, yb.BLOCK])
@pytest.mark.parametrize("mode", [sc.EXACT, sc.FLOAT])
@pytest.mark.parametrize("name", sorted(PINNED_KERNEL_CASES))
def test_pinned_kernel_cases_match_the_whole_column_oracle(name, mode, block):
    d, n, side, image, scalars, extra, absorbed = PINNED_KERNEL_CASES[name]
    entries = {(r, c): v for c, (r, v) in enumerate(zip(image, scalars))} | extra
    s = T.TensorOperator(T.power_shape(d, n), T.power_shape(d, n), entries, mode)
    lhs, rhs = words(n, side)
    if absorbed is not None:  # the pin still meets the column it names where it says
        c, at_lhs, at_rhs = absorbed
        assert [first_absorbing_letter(s, d, n, 2 * n - 1, w, c) for w in (lhs, rhs)] == [at_lhs, at_rhs]
    with mock.patch.object(yb, "BLOCK", block):
        report = yb.verify_nybe(s, n, side)
        witness = kernel_oracle.braid_witness(s, d, n, side)
        assert (report.holds, report.witness) == (witness is None, witness)
        for k, word in [(2 * n - 1, lhs), (2 * n - 1, rhs), (2 * n - 2, range(n - 2, -1, -1))]:
            shp = T.power_shape(d, k)
            got = yb._word_operator(s, d, n, k, word, shp, shp).entries
            assert list(got.items()) == list(kernel_oracle.word_entries(s, d, n, k, word).items())
