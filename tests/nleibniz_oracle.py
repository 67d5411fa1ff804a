"""The tuple walk of the fundamental identity, kept as the oracle of ``nleibniz``.

It visits every basis tuple (xs, ys) of L^(x)(2n-1) in flat order and
evaluates both sides of

    [[x_1..x_n], y_1..y_{n-1}] = sum_i [x_1, ..., [x_i, y_1..y_{n-1}], ..., x_n]

as ``Fraction`` (or float) dicts, adding term by term and dropping zeros.
``nleibniz.check_fundamental_identity`` runs one trailing tuple ys at a
time on integer columns and must report the same witness, both sides'
vectors included, bit for bit in float mode.
"""

import itertools
from fractions import Fraction

import braidforge.scalars as sc
from braidforge.nleibniz import vec_json
from braidforge.reports import ReportBuilder, first_difference
from library_extras import bracket_basis


def vec_add(a, b):
    """a + b, dropping each sum that comes out zero."""
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, 0) + v
        if s == 0:
            out.pop(k, None)
        else:
            out[k] = s
    return out


def vec_scale(a, f):
    return {k: v * f for k, v in a.items()}


def fundamental_sides(a):
    """(tuple, lhs, rhs) of the fundamental identity at each basis tuple, in flat order."""
    n = a.arity
    for tpl in itertools.product(range(a.dim), repeat=2 * n - 1):
        xs, ys = tpl[:n], tpl[n:]
        lhs = {}
        for j, c in bracket_basis(a, xs).items():
            lhs = vec_add(lhs, vec_scale(bracket_basis(a, (j,) + ys), c))
        rhs = {}
        for i in range(n):
            for j, c in bracket_basis(a, (xs[i],) + ys).items():
                inner = bracket_basis(a, xs[:i] + (j,) + xs[i + 1 :])
                rhs = vec_add(rhs, vec_scale(inner, c))
        yield tpl, lhs, rhs


def check_fundamental_identity(a):
    rb = ReportBuilder("fundamental-identity")
    witness = None
    for tpl, lhs, rhs in fundamental_sides(a):
        if first_difference(lhs, rhs, a.mode) is not None:
            witness = {"tuple": list(tpl), "lhs": vec_json(lhs, a.mode), "rhs": vec_json(rhs, a.mode)}
            break
    rb.record_witness("fundamental-identity", witness)
    return rb.build()


def is_derivation(a, d_map):
    """The derivation law D[x_1..x_n] = sum_i [x_1, ..., D x_i, ..., x_n] by the same tuple walk."""
    exact = d_map.mode == sc.EXACT
    cols = [[(r, Fraction(v, d_map.scale) if exact else v) for r, v in col] for col in d_map.columns]
    rb = ReportBuilder("derivation")
    witness = None
    for tpl in itertools.product(range(a.dim), repeat=a.arity):
        lhs = {}
        for j, c in bracket_basis(a, tpl).items():
            lhs = vec_add(lhs, vec_scale(dict(cols[j]), c))
        rhs = {}
        for i in range(a.arity):
            for j, c in cols[tpl[i]]:
                rhs = vec_add(rhs, vec_scale(bracket_basis(a, tpl[:i] + (j,) + tpl[i + 1 :]), c))
        if first_difference(lhs, rhs, a.mode) is not None:
            witness = {"tuple": list(tpl), "lhs": vec_json(lhs, a.mode), "rhs": vec_json(rhs, a.mode)}
            break
    rb.record_witness("derivation-law", witness)
    return rb.build()
