#!/usr/bin/env python3
"""Ternary Leibniz algebras from scratch.

We build a small ternary algebra, certify the fundamental identity by
brute force, look at its adjoint maps and their exponentials, and watch
the exponential action turn the algebra into a rack-like structure.
"""

from fractions import Fraction

import braidforge.nleibniz as nl
import braidforge.nrack as nr
import braidforge.tensor as T

ONE = Fraction(1)

# A ternary bracket on k^3: [e0, e1, e1] = e2, all other basis brackets zero.
t3 = nl.NLeibnizAlgebra(3, 3, {(0, 1, 1): {2: 1}})
report = nl.check_fundamental_identity(t3)
print("fundamental identity over all 3^5 basis tuples:", "pass" if report.passed else "fail")
t3 = t3.as_certified()

# Perturbing the bracket can break the identity; the checker exhibits the
# lexicographically smallest violated tuple together with both sides.
broken = nl.NLeibnizAlgebra(3, 3, {(0, 1, 1): {2: 1}, (2, 1, 1): {1: 1}})
report = nl.check_fundamental_identity(broken)
print("perturbed bracket witness:", report.witness)

# Right translations are derivations exactly when the identity holds.
ad = nl.ad(t3, [{1: ONE}, {1: ONE}])
print("ad_{e1,e1} sends e0 to:", ad.apply({0: ONE}))
print("ad_{e1,e1} is a derivation:", nl.is_derivation(t3, ad).passed)

# The adjoint is nilpotent, so its exponential is a finite exact sum.
exp = nl.exp_ad(t3, [{1: ONE}, {1: ONE}])
print("exp(ad) =", sorted(exp.entries.items()))
print("exp(ad) o exp(-ad) = Id:", exp @ T.exp_nilpotent(ad.scaled(-1)) == T.identity(T.shape(3)))

# <x_1, x_2, x_3> = exp(ad_{x_2, x_3})(x_1) makes the whole space a ternary
# rack; self-distributivity is certified on a deterministic sample grid
# (basis vectors plus sums of two of them).
rack = nr.nrack_from_nleibniz(t3)
print("<e0, e1, e1> =", rack.op([{0: ONE}, {1: ONE}, {1: ONE}]))

# The space of pairs maps into the tensor square: componentwise action on
# one side, the induced binary bracket's exponential on the other.
print("tensor embedding is a rack map:", nr.verify_tensor_embedding(t3).passed)

# The induced binary bracket on the tensor square, with centers.
fund = nl.fundamental_leibniz(t3)
print("induced bracket lives on dimension", fund.dim)
print("center of t3:", nl.central_elements(t3))
