#!/usr/bin/env python3
"""Finite n-racks as operation tables.

Conjugation in a group is the first example of an n-ary self-distributive
operation; folding, extension, and block constructions produce more.
Everything here is certified by exhaustive table checks.
"""

import braidforge.nrack as nr
import braidforge.setsol as ss

# Sym(3) with its conjugation ternary rack: <x, y, z> = z y x y^-1 z^-1.
s3 = nr.symmetric_group(3)
conj3 = nr.conjugation_nrack(s3, 3)
print("conjugation 3-rack on Sym(3):", nr.check_nrack(conj3).to_json()["overall"])

# The same table arises by folding the binary conjugation rack ...
conj2 = nr.conjugation_nrack(s3, 2)
print("fold of the binary rack coincides:", nr.nrack_from_rack(conj2, 3).table == conj3.table)

# ... by extending the rack by the multiplication pattern ...
prod = nr.from_function(6, 2, lambda x, y: s3.mul[y][x])
print("extension by the product coincides:", nr.extend_rack_by_op(conj2, prod).table == conj3.table)

# ... and by merging two compatible copies of the binary rack.
print("compatible merge coincides:", nr.combine_compatible(conj2, conj2).table == conj3.table)

# An n-rack induces a rack on (n-1)-tuples, componentwise.
pairs = nr.krack_from_power(conj3, 2)
print("induced rack on pairs: carrier", pairs.size, "-", nr.check_nrack(pairs).to_json()["overall"])

# Block-feeding generalizes this: a ((n-1)(k-1)+1)-ary rack gives a k-ary
# rack on tuples, and k = 2 recovers the previous construction.
print("k = 2 block construction equals it:", nr.krack_from_power(conj3, 2).table == pairs.table)

# Tables are data first: uncertified candidates can be enumerated and
# the census compared across filters.
census, _ = ss.enumerate_tables(2, 2, "nrack")
print("binary racks on 2 points:", census["count"])
census, _ = ss.enumerate_tables(3, 2, "nrack")
print("binary racks on 3 points:", census["count"])
census, _ = ss.enumerate_tables(2, 3, "nrack")
print("ternary racks on 2 points:", census["count"])

# Right and left structures convert into each other by argument reversal.
left = conj3.reversed_args()
print("reversed table is a left 3-rack:", nr.check_nrack(left).passed)
