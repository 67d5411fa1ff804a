#!/usr/bin/env python3
"""Linear n-racks: self-distributivity on coalgebras.

Sweedler legs are matrices here: the coproduct splits an element, a
factor shuffle regroups the legs, and the bracket consumes them.  All
four defining identities become exact equations.  A linear rack is a
linear n-rack of arity 2, and a construction marks its output certified
when a theorem guarantees the identities.
"""

from fractions import Fraction

import braidforge.errors as E
import braidforge.linrack as lr
import braidforge.nleibniz as nl
import braidforge.nrack as nr
import braidforge.tensor as T
import braidforge.ybops as yb

ONE = Fraction(1)

# The group-like coalgebra k[X] linearizes any finite n-rack.
s3 = nr.symmetric_group(3)
conj3 = nr.conjugation_nrack(s3, 3)
l6 = lr.linearize_nrack(conj3)
report = lr.check_linear_nrack(l6)
print("linearized conjugation 3-rack:", {c.name: c.status for c in report.checks})

# Group-like elements recover the table we started from.
print("group-likes recover the table:", lr.induced_nrack(l6).table == conj3.table)
print("certified by the linearization theorem:", l6.certified)

# k (+) L carries a different cocommutative coalgebra; a ternary Leibniz
# bracket makes it a linear 3-rack with an explicit inverse bracket.
t3 = nl.certify(nl.NLeibnizAlgebra(3, 3, {(0, 1, 1): {2: 1}}))
lt3 = lr.linear_nrack_from_nleibniz(t3)
print("k (+) T3 linear 3-rack:", lr.check_linear_nrack(lt3).passed)
dom = T.power_shape(4, 3)
print("<(0,e0),(0,e1),(0,e1)> =", lt3.bracket.apply({dom.flat((1, 2, 2)): ONE}))

# If the bracket is not Leibniz, self-distributivity fails, with a witness.
# The structure of an uncertified bracket stays uncertified, and every
# construction that takes it runs the check first and refuses it.
bad = nl.NLeibnizAlgebra(3, 3, {(0, 1, 1): {2: 1}, (2, 1, 1): {1: 1}})
lbad = lr.linear_nrack_from_nleibniz(bad)
statuses = {c.name: c.status for c in lr.check_linear_nrack(lbad).checks}
print("non-Leibniz bracket:", statuses, "certified:", lbad.certified)
try:
    lr.nrack_braiding(lbad)
except E.PreconditionError as exc:
    print("its braiding is refused:", exc, exc.witness)

# A cocommutative linear n-rack induces a linear rack on the tensor power,
# whose braiding is an honest Yang-Baxter operator.
rack36 = lr.linear_rack_on_tensor_power(l6)
print("tensor-power rack on dim", rack36.base.dim, ":", lr.check_linear_nrack(rack36).passed)
r, rinv = lr.nrack_braiding(rack36)
print("its braiding:", yb.verify_nybe(r, 2).holds)

# Folding works in the other direction: a linear rack generates a linear
# n-rack by iterated application, matching the linearized fold.
flip = nr.cyclic_rack(2)
folded = lr.linear_nrack_from_linear_rack(lr.linearize_nrack(flip), 3)
direct = lr.linearize_nrack(nr.nrack_from_rack(flip, 3))
print("fold coincides with the linearized fold:", folded.bracket == direct.bracket)

# The degree-3 braiding of a cocommutative linear 3-rack, with the
# stated inverse, verified on the 6^5-dimensional space.
s, sinv = lr.nrack_braiding(l6)
print("degree-3 braiding of the linearization:", yb.verify_nybe(s, 3, "right").to_json())
