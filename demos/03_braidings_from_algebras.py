#!/usr/bin/env python3
"""Yang-Baxter operators out of Leibniz structure.

A central element turns a Leibniz bracket into a braiding
R(x (x) y) = y (x) x + 1 (x) {x, y}; adjoining a unit gives every
algebra a central home.  Two different unit embeddings give two
braidings, connected by an explicit intertwiner.
"""

from fractions import Fraction

import braidforge.nleibniz as nl
import braidforge.ybops as yb

ONE = Fraction(1)

# The binary Leibniz algebra {e0, e1} = e2 and its unit extension.
a3 = nl.certify(nl.NLeibnizAlgebra(2, 3, {(0, 1): {2: 1}}))
a3bar = nl.adjoin_unit(a3)
r = yb.nyb_from_central_nleibniz(a3bar)
print("braiding of k (+) A3:", yb.verify_nybe(r, 2).to_json())

# The braid relation holds for R-tilde on k (+) L exactly when the bracket
# is Leibniz; both verdicts are computed and must agree.
good = yb.nyb_iff_nleibniz(nl.NLeibnizAlgebra(2, 3, {(0, 1): {2: 1}}))
print("Leibniz bracket: equation", good[1].holds, "/ identity", good[2].passed)
bad = yb.nyb_iff_nleibniz(nl.NLeibnizAlgebra(2, 1, {(0, 0): {0: 1}}))
print("non-Leibniz bracket: equation", bad[1].holds, "/ identity", bad[2].passed)

# A ternary algebra gives two braidings: one on the unit extension of the
# tensor square, one on the tensor square of the unit extension.
t3 = nl.certify(nl.NLeibnizAlgebra(3, 3, {(0, 1, 1): {2: 1}}))
r1 = yb.r1_from_nleibniz(t3)
r2 = yb.r2_from_nleibniz(t3)
print("R1 on dim", r1.domain_shape.total, "-", yb.verify_nybe(r1, 2).holds)
print("R2 on dim", r2.domain_shape.total, "-", yb.verify_nybe(r2, 2).holds)

# The unit goes to the unit power, pure tensors to tensors of embedded
# factors, and the square of that map intertwines R1 with R2.
eta, report = yb.eta_intertwiner(t3)
print("eta report:", {c.name: c.status for c in report.checks})
print("eta(1, 0) =", eta.apply({0: ONE}))
