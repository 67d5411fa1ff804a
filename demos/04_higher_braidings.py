#!/usr/bin/env python3
"""The degree-n braid relation and its solutions.

With S placed at each of the n offsets inside V^(x)(2n-1), the relation
composes n+1 placements on each side.  Solutions come from central
n-Leibniz algebras, cocommutative linear n-racks, group algebras, and
from ordinary Yang-Baxter operators by lifting; every solution descends
back to an ordinary one on the (n-1)-st tensor power.
"""

from fractions import Fraction

import braidforge.linrack as lr
import braidforge.nleibniz as nl
import braidforge.nrack as nr
import braidforge.tensor as T
import braidforge.ybops as yb

ONE = Fraction(1)

# The cyclic shift is the simplest degree-n solution.
f = yb.cyclic_operator(2, 3)
print("cyclic shift, right relation:", yb.verify_nybe(f, 3, "right").holds)

# Solutions need not be invertible: on the dual numbers, sending
# a (x) b (x) c to 1 (x) 1 (x) abc satisfies the relation but kills rank.
import itertools

mul = {(0, 0): 0, (0, 1): 1, (1, 0): 1}
shp = T.power_shape(2, 3)
entries = {}
for a, b, c in itertools.product(range(2), repeat=3):
    ab = mul.get((a, b))
    abc = None if ab is None else mul.get((ab, c))
    if abc is not None:
        entries[(shp.flat((0, 0, abc)), shp.flat((a, b, c)))] = ONE
pre = T.TensorOperator(shp, shp, entries)
report = yb.verify_nybe(pre, 3, "right")
print("algebra pre-operator: holds", report.holds, "/ invertible", report.invertible)

# A central ternary algebra gives a genuine operator on the nose.
t3 = nl.certify(nl.NLeibnizAlgebra(3, 3, {(0, 1, 1): {2: 1}}))
t3bar = nl.adjoin_unit(t3)
s = yb.nyb_from_central_nleibniz(t3bar)
print("central-algebra operator:", yb.verify_nybe(s, 3, "right").to_json())

# Left-handed structures solve the mirrored relation.
sl = yb.nyb_from_central_nleibniz(t3bar, side="left")
print("left mirror:", yb.verify_nybe(sl, 3, "left").holds)
tau = yb.reverse_operator(4, 3)
print("tau conjugation swaps the two relations:", yb.verify_nybe(tau @ s @ tau, 3, "left").holds)

# Ordinary solutions lift: the braiding of k (+) A3 lifted to degree 3
# expands into the nested-bracket sum with unit corrections.
a3 = nl.certify(nl.NLeibnizAlgebra(2, 3, {(0, 1): {2: 1}}))
r = yb.nyb_from_central_nleibniz(nl.adjoin_unit(a3))
s3 = yb.nyb_from_ybe(r, 3)
print("lifted braiding:", yb.verify_nybe(s3, 3, "right").holds)

# Degree-n solutions descend to the tensor power, closing the diagram
# through the induced binary bracket.
st = yb.ybe_from_nyb(s, 3)
print(
    "descended operator equals the tensor-power braiding:",
    st == yb.nyb_from_central_nleibniz(nl.fundamental_leibniz(t3bar)),
)

# Group algebras: iterated conjugation behind a cyclic shift.
s3_group = nr.symmetric_group(3)
sh = yb.group_algebra_nyb(s3_group, 3)
fwd, _ = lr.nrack_braiding(lr.linearize_nrack(nr.conjugation_nrack(s3_group, 3)))
print("group algebra route = linearized conjugation route:", sh == fwd)

# Conjugating by any automorphism of the ground space preserves solutions.
swap = T.TensorOperator(T.shape(4), T.shape(4), {(0, 1): 1, (1, 0): 1, (2, 2): 1, (3, 3): 1})
print("conjugated operator still solves:", yb.verify_nybe(yb.conjugate_nyb(s, swap, 3), 3).holds)
