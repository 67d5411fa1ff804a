"""Cross-checks between independent implementations of the same laws.

Both public braid-relation checks run the one index-map kernel
``setsol.braid_sides``: ``ybops.verify_nybe`` for every operator with
one nonzero per column, all of them equal, and
``setsol.check_set_nsolution`` for every set map.  The oracles they are
checked against live here: the sparse operator chain (``tensor.embed``,
``ybops._chain``, ``first_difference``), which ``verify_nybe`` still
runs on every other operator, and a plain tuple-by-tuple simulation of
the two braid words.
Linearizing a point map must preserve every verdict, so any convention
drift between the paths shows up here.
"""

import itertools
import random
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

import braidforge.scalars as sc
import braidforge.setsol as ss
import braidforge.tensor as T
import braidforge.ybops as yb

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
    inputs = list(itertools.product(range(2), repeat=2))
    for image in itertools.permutations(inputs):
        s = ss.SetNMap(2, 2, tuple(image))
        profile = ss.check_set_nsolution(s)
        op = permutation_operator_of_map(s)
        report = yb.verify_ybe(op)
        assert report.holds == profile.satisfies_right


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


def sparse_chain(op, d, n, side):
    """(holds, witness, invertible) of the sparse operator chain."""
    e = [T.embed(op, i, n - 1 - i, d) for i in range(n)]
    lhs_word, rhs_word = words(n, side)
    diff = yb._chain([e[i] for i in lhs_word]).first_difference(yb._chain([e[i] for i in rhs_word]))
    return diff is None, None if diff is None else diff[1], T.is_invertible(op)


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
    outputs = list(itertools.product(range(d), repeat=n))
    profile = ss.check_set_nsolution(ss.SetNMap(d, n, tuple(outputs[r] for r in image)))
    if side == "right":
        assert (profile.satisfies_right, profile.right_witness) == (first_tuple is None, first_tuple)
    else:
        assert (profile.satisfies_left, profile.left_witness) == (first_tuple is None, first_tuple)
