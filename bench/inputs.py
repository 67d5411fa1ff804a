"""Input documents, built from first principles without importing braidforge.

Groups, racks, braidings, set maps and brackets are generated here as
plain Python data and written out in braidforge's JSON document format.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

ONE = "1/1"

#: non-unit rationals used for coefficients and scalings
RATIONALS = [Fraction(2), Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3), Fraction(-2, 5), Fraction(3)]


def fmt(v):
    v = Fraction(v)
    return f"{v.numerator}/{v.denominator}"


def flat(args, m):
    idx = 0
    for a in args:
        idx = idx * m + a
    return idx


# -- groups -------------------------------------------------------------------


class Group:
    """Multiplication table, identity 0, inverses."""

    def __init__(self, name, mul):
        self.name = name
        self.mul = mul
        self.size = len(mul)
        self.inv = [next(y for y in range(self.size) if mul[x][y] == 0) for x in range(self.size)]


def cyclic(k):
    return Group(f"Z{k}", [[(a + b) % k for b in range(k)] for a in range(k)])


def sym3():
    elems = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(elems)}
    mul = [[index[tuple(p[q[i]] for i in range(3))] for q in elems] for p in elems]
    return Group("S3", mul)


def conjugation_table(g, n):
    """<x_1..x_n> = x_n ... x_2 x_1 x_2^-1 ... x_n^-1, flat over X^n."""
    table = []
    for args in itertools.product(range(g.size), repeat=n):
        acc = args[0]
        for x in args[1:]:
            acc = g.mul[g.mul[x][acc]][g.inv[x]]
        table.append(acc)
    return table


def group_braiding(g, n):
    """Index map of g_1..g_n -> g_2..g_n (g_n..g_2 g_1 g_2^-1..g_n^-1)."""
    m, table = g.size, conjugation_table(g, n)
    return [(idx % m ** (n - 1)) * m + table[idx] for idx in range(m**n)]


# -- documents ----------------------------------------------------------------


def operator_doc(fmap, m, n, coeff=1):
    c = fmt(coeff)
    return {
        "kind": "operator",
        "scalars": "exact",
        "shape": [m] * n,
        "codomain_shape": [m] * n,
        "entries": [[row, col, c] for col, row in enumerate(fmap)],
    }


def dense_operator_doc(entries, m, n):
    return {
        "kind": "operator",
        "scalars": "exact",
        "shape": [m] * n,
        "codomain_shape": [m] * n,
        "entries": [[r, c, fmt(v)] for (r, c), v in sorted(entries.items())],
    }


def set_map_doc(fmap, m, n, side):
    rows = []
    for idx, args in enumerate(itertools.product(range(m), repeat=n)):
        out = fmap[idx]
        rows.append(list(args) + [(out // m ** (n - 1 - i)) % m for i in range(n)])
    return {"kind": "set_map", "size": m, "arity": n, "side": side, "map": rows}


def nrack_doc(m, n, table):
    rows = [list(args) + [table[i]] for i, args in enumerate(itertools.product(range(m), repeat=n))]
    return {"kind": "nrack", "size": m, "arity": n, "side": "right", "certified": False, "table": rows}


def nleibniz_doc(arity, dim, bracket):
    return {
        "kind": "nleibniz",
        "arity": arity,
        "dim": dim,
        "scalars": "exact",
        "certified": False,
        "bracket": [
            {"in": list(key), "out": {str(j): fmt(v) for j, v in sorted(out.items())}}
            for key, out in sorted(bracket.items())
        ],
    }


def _coalgebra_doc(dim, delta, eps):
    return {
        "kind": "coalgebra",
        "dim": dim,
        "scalars": "exact",
        "delta": [[r, c, ONE] for r, c in delta],
        "epsilon": [[0, c, ONE] for c in eps],
    }


def linearized_rack_doc(m, n, table):
    """k[X] with Delta x = x (x) x, the table extended linearly, and its inverse operation."""
    base = _coalgebra_doc(m, [(x * m + x, x) for x in range(m)], range(m))
    bracket, inverse = [], []
    for args in itertools.product(range(m), repeat=n):
        col = flat(args, m)
        bracket.append([table[col], col, ONE])
        rev = tuple(reversed(args[1:]))
        image = [table[flat((x,) + rev, m)] for x in range(m)]
        inverse.append([image.index(args[0]), col, ONE])
    return {"kind": "linear_nrack", "arity": n, "scalars": "exact", "base": base,
            "bracket": bracket, "inv_bracket": inverse}


def kplus_rack_doc(arity, dim, bracket):
    """The linear n-rack on k (+) L of a bracket: basis 0 is the unit,
    <(l,x)..> = (l_1..l_n, l_2..l_n x_1 + [x_1..x_n]) and the inverse
    subtracts [x_1, x_n, ..., x_2]."""
    c, n = dim + 1, arity
    delta = [(0, 0)]
    for i in range(1, c):
        delta += [(i * c, i), (i, i)]
    base = _coalgebra_doc(c, delta, [0])

    def build(terms):
        entries = {(0, 0): Fraction(1)}
        for i in range(1, c):
            entries[(i, flat((i,) + (0,) * (n - 1), c))] = Fraction(1)
        for key, out in terms.items():
            col = flat(tuple(i + 1 for i in key), c)
            for j, v in out.items():
                entries[(j + 1, col)] = entries.get((j + 1, col), 0) + v
        return [[r, col, fmt(v)] for (r, col), v in sorted(entries.items()) if v != 0]

    inverse = {}
    for key, out in bracket.items():
        acc = inverse.setdefault((key[0],) + tuple(reversed(key[1:])), {})
        for j, v in out.items():
            acc[j] = acc.get(j, 0) - v
    return {"kind": "linear_nrack", "arity": n, "scalars": "exact", "base": base,
            "bracket": build(bracket), "inv_bracket": build(inverse)}


# -- brackets -----------------------------------------------------------------


def nilpotent_bracket(arity, dim, rng, terms=2):
    """Brackets of generators 0..dim-2 landing on the last basis vector.

    The image is killed by every bracket, so both sides of the
    fundamental identity vanish: these always pass.
    """
    if dim < 2:
        return {}
    out = {}
    for _ in range(terms):
        key = tuple(rng.randrange(dim - 1) for _ in range(arity))
        out[key] = {dim - 1: rng.choice(RATIONALS)}
    return out


def random_bracket(arity, dim, rng, terms=2):
    out = {}
    for _ in range(terms):
        key = tuple(rng.randrange(dim) for _ in range(arity))
        out.setdefault(key, {})[rng.randrange(dim)] = rng.choice(RATIONALS)
    return out


def nyb_central_entries(arity, dim, bracket):
    """The degree-n braiding of the unit-adjoined bracket on (k (+) L)^(x)n:
    x_1..x_n -> x_2..x_n x_1 + 1^(n-1) (x) [x_1..x_n]."""
    c = dim + 1
    entries = {}
    for args in itertools.product(range(c), repeat=arity):
        entries[(flat(args[1:] + args[:1], c), flat(args, c))] = Fraction(1)
    for key, out in bracket.items():
        col = flat(tuple(i + 1 for i in key), c)
        for j, v in out.items():
            row = flat((0,) * (arity - 1) + (j + 1,), c)
            entries[(row, col)] = entries.get((row, col), 0) + v
    return {k: v for k, v in entries.items() if v != 0}
