#!/usr/bin/env python3
"""Set-theoretical solutions and the table correspondence.

A table is an n-rack exactly when the map (x_1..x_n) |-> (x_2..x_n, <x>)
solves the degree-n relation; the checker profiles bijectivity,
left/right verdicts, nondegeneracy, and the involutive order, without
assuming any of them.
"""

import braidforge.nrack as nr
import braidforge.setsol as ss

# The flip is the model solution: bijective, nondegenerate, order 3.
p = ss.check_set_nsolution(ss.flip_map(2, 3))
print("flip:", p.to_json())

# Twisted flips need the first twist to commute with the others.
f_swap = (1, 0)
f_const = (0, 0)
bad = ss.from_function(2, 3, lambda a, b, c: ((0, 1)[b], f_swap[c], f_const[a]))
print("non-commuting twist satisfies the relation:", ss.check_set_nsolution(bad).satisfies_right)

# Group collapse maps satisfy the relation without being bijective;
# the profile keeps both facts separate.
s3 = nr.symmetric_group(3)
e = s3.identity
collapse = ss.from_function(6, 3, lambda g, h, k: (e, e, s3.mul[s3.mul[g][h]][k]))
p = ss.check_set_nsolution(collapse)
print("collapse map: relation", p.satisfies_right, "/ bijective", p.is_bijective)

# Conjugation gives a nondegenerate solution that is far from involutive.
conj3 = nr.conjugation_nrack(s3, 3)
p = ss.check_set_nsolution(ss.solution_from_nrack(conj3))
print("conjugation solution: nondegenerate", p.nondegenerate, "order", p.involutive_order)

# Solutions lift to higher degree and descend to tuple carriers, and both
# squares commute with the table constructions.
flip_rack = nr.cyclic_rack(2)
r = ss.solution_from_nrack(flip_rack)
lifted = ss.nsolution_from_solution(r, 3)
induced = ss.solution_from_nrack(nr.nrack_from_rack(flip_rack, 3))
print("lift diagram commutes:", lifted.image == induced.image)
s = ss.solution_from_nrack(conj3)
descended = ss.solution_from_nsolution(s)
induced = ss.solution_from_nrack(nr.krack_from_power(conj3, 2))
print("descent diagram commutes:", descended.image == induced.image)

# Census-level correspondence: tables passing the rack filter match maps
# passing the relation filter, one to one on two points.
racks, _ = ss.enumerate_tables(2, 3, "nrack")
sols, _ = ss.enumerate_tables(2, 3, "nsolution")
print("ternary census on 2 points: racks", racks["count"], "= solutions", sols["count"])
