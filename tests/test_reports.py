"""The one difference rule of ``reports`` against the sorted-keys oracle."""

import math
import random
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

import braidforge.scalars as sc
import braidforge.tensor as T
import difference_oracle
from braidforge.reports import column_witness, difference_witness, first_difference

EPS = sc.EPS_CMP
#: float differences around the tolerance: below, at and above it, both signs
FLOAT_DELTAS = [
    0.0,
    EPS / 2,
    math.nextafter(EPS, 0.0),
    EPS,
    -EPS,
    math.nextafter(EPS, 1.0),
    -math.nextafter(EPS, 1.0),
    2 * EPS,
    0.25,
]


def test_the_rule_at_the_tolerance():
    below, above = math.nextafter(EPS, 0.0), math.nextafter(EPS, 1.0)
    for delta in (below, EPS, -EPS):
        assert first_difference({3: delta}, {}, sc.FLOAT) is None
    assert first_difference({3: above}, {}, sc.FLOAT) == 3
    assert first_difference({}, {3: -above}, sc.FLOAT) == 3
    # exact mode has no tolerance, and a missing key reads as zero
    assert first_difference({3: Fraction(1, 10**12)}, {}, sc.EXACT) == 3
    assert first_difference({2: Fraction(1), 5: Fraction(2)}, {5: Fraction(3), 7: Fraction(0)}, sc.EXACT) == 2
    assert first_difference({(1, 0): 1.0, (0, 4): 2.0}, {(1, 0): 2.0, (0, 4): 3.0}, sc.FLOAT) == (0, 4)


@st.composite
def operator_pairs(draw):
    """(a, b, xs, span): two operators of one mode on rows x (xs * span)
    columns, where b is a with a few entries moved, added or dropped; in
    float mode by differences just below, at and just above EPS_CMP."""
    mode = draw(st.sampled_from(sc.MODES))
    rows, xs, span = draw(st.integers(1, 5)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    keys = st.tuples(st.integers(0, rows - 1), st.integers(0, xs * span - 1))
    if mode == sc.EXACT:
        values = st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(7, 3)])
        deltas = st.sampled_from([Fraction(0), Fraction(1, 10**9), Fraction(-1, 3), Fraction(2)])
    else:
        values = st.sampled_from([1.0, -1.0, 0.5, 3e-10, EPS, 17109.0])
        deltas = st.sampled_from(FLOAT_DELTAS)
    a = draw(st.dictionaries(keys, values, max_size=8))
    b = dict(a)
    for k in draw(st.lists(keys, max_size=4)):
        b[k] = b.get(k, 0) + draw(deltas)  # on a missing key the difference is the delta itself
    for k in draw(st.lists(st.sampled_from(sorted(a)), max_size=2) if a else st.just([])):
        b.pop(k, None)
    dom, cod = T.shape(xs * span), T.shape(rows)
    return T.TensorOperator(dom, cod, a, mode), T.TensorOperator(dom, cod, b, mode), xs, span


def _columns(op, col):
    return {r: v for (r, c), v in op.entries.items() if c == col}


@settings(max_examples=300, deadline=None)
@given(operator_pairs(), st.randoms(use_true_random=False))
@example(
    (
        T.TensorOperator(T.shape(4), T.shape(2), {(1, 0): 1.0, (0, 3): EPS}, sc.FLOAT),
        T.TensorOperator(T.shape(4), T.shape(2), {(1, 0): 1.0 + 2 * EPS, (1, 3): math.nextafter(EPS, 1.0)}, sc.FLOAT),
        2,
        2,
    ),
    random.Random(0),
)
def test_the_helpers_match_the_sorted_oracle(pair, rng):
    a, b, xs, span = pair
    want = difference_oracle.first_difference(a, b)
    assert first_difference(a.entries, b.entries, a.mode) == want
    assert a.first_difference(b) == want
    assert a.equal(b) == (want is None) == (a == b)
    witness = None if want is None else {"row": want[0], "col": want[1]}
    assert difference_witness(a, b) == witness
    # column x * span + t arrives with t outer and x inner, as the linear-rack laws stream them
    stream = [(x * span + t, _columns(a, x * span + t), _columns(b, x * span + t)) for t in range(span) for x in range(xs)]
    assert column_witness(iter(stream), a.mode) == witness
    rng.shuffle(stream)
    assert column_witness(iter(stream), a.mode) == witness
