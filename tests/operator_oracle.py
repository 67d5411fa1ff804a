"""The Fraction-dict operator, kept as the oracle of ``tensor.TensorOperator``.

An operator here is an ``entries`` dict {(row, col): scalar}, Fractions in
exact mode, in insertion order, and every operation builds a fresh dict.
``integer_columns`` derives the integer columns over the lcm of the
denominators, in entry order within each column.  ``TensorOperator``
stores exactly those columns and that scale, so every operation on it
must give the columns, the scale and the entries of the operation here,
bit for bit in float mode, and its documents must be the same bytes.
"""

import math

import braidforge.scalars as sc
from braidforge.errors import SchemaError, ShapeMismatchError, SingularMatrixError
from braidforge.reports import first_difference
from braidforge.tensor import TensorShape, _check_permutation, _gauss_jordan


class Operator:
    def __init__(self, domain_shape, codomain_shape, entries, mode=sc.EXACT, validate=True):
        self.domain_shape, self.codomain_shape, self.mode = domain_shape, codomain_shape, mode
        clean = {}
        if validate:
            nrows, ncols = codomain_shape.total, domain_shape.total
            for (r, c), v in entries.items():
                if not (0 <= r < nrows and 0 <= c < ncols):
                    raise ShapeMismatchError(f"entry ({r},{c}) outside {nrows}x{ncols}")
                v = sc.coerce(v, mode)
                if v != 0:
                    clean[(r, c)] = v
        else:
            clean = entries
        self.entries = clean

    def columns(self) -> dict:
        cols = {}
        for (r, c), v in self.entries.items():
            cols.setdefault(c, []).append((r, v))
        return cols

    def integer_columns(self):
        exact = self.mode == sc.EXACT
        scale = math.lcm(*(v.denominator for v in self.entries.values())) if exact else 1
        cols = [[] for _ in range(self.domain_shape.total)]
        for (r, c), v in self.entries.items():
            cols[c].append((r, v.numerator * (scale // v.denominator) if exact else v))
        return cols, scale

    def _new(self, domain_shape, codomain_shape, entries):
        return Operator(domain_shape, codomain_shape, entries, self.mode, validate=False)

    def first_difference(self, other):
        return first_difference(self.entries, other.entries, self.mode)

    def __eq__(self, other):
        if self.mode != other.mode or (
            self.domain_shape.total != other.domain_shape.total
            or self.codomain_shape.total != other.codomain_shape.total
        ):
            return False
        return self.first_difference(other) is None

    def __add__(self, other):
        out = dict(self.entries)
        for k, v in other.entries.items():
            s = out.get(k, sc.zero(self.mode)) + v
            if s == 0:
                out.pop(k, None)
            else:
                out[k] = s
        return self._new(self.domain_shape, self.codomain_shape, out)

    def scale(self, factor):
        factor = sc.coerce(factor, self.mode)
        if factor == 0:
            return self._new(self.domain_shape, self.codomain_shape, {})
        return self._new(self.domain_shape, self.codomain_shape, {k: v * factor for k, v in self.entries.items()})

    def tensor(self, other):
        dom = TensorShape(self.domain_shape.factor_dims + other.domain_shape.factor_dims)
        cod = TensorShape(self.codomain_shape.factor_dims + other.codomain_shape.factor_dims)
        bdom, bcod = other.domain_shape.total, other.codomain_shape.total
        out = {}
        for (ra, ca), va in self.entries.items():
            for (rb, cb), vb in other.entries.items():
                out[(ra * bcod + rb, ca * bdom + cb)] = va * vb
        return self._new(dom, cod, out)

    def permute_codomain(self, perm):
        perm = _check_permutation(perm, len(self.codomain_shape))
        dims = self.codomain_shape.factor_dims
        new_dims = [0] * len(dims)
        for p, q in enumerate(perm):
            new_dims[q] = dims[p]
        new_cod = TensorShape(tuple(new_dims))
        out = {}
        for (r, c), v in self.entries.items():
            m = self.codomain_shape.multi(r)
            new_m = [0] * len(dims)
            for p, q in enumerate(perm):
                new_m[q] = m[p]
            out[(new_cod.flat(new_m), c)] = v
        return self._new(self.domain_shape, new_cod, out)


def compose(a, b):
    a_cols, out = a.columns(), {}
    for (j, k), bv in b.entries.items():
        for i, av in a_cols.get(j, ()):
            out[(i, k)] = out.get((i, k), 0) + av * bv
    out = {k: v for k, v in out.items() if v != 0}
    return Operator(b.domain_shape, a.codomain_shape, out, a.mode, validate=False)


def invert(a):
    n = a.domain_shape.total
    one = sc.one(a.mode)
    rows = [{n + i: one} for i in range(n)]
    for (r, c), v in a.entries.items():
        rows[r][c] = v
    pivots = _gauss_jordan(rows, range(n), a.mode)
    if len(pivots) < n:
        col = next(c for c in range(n) if c not in pivots)
        raise SingularMatrixError(f"no usable pivot in column {col}")
    out = {(col, c - n): v for col, p in pivots.items() for c, v in rows[p].items() if c >= n}
    return Operator(a.codomain_shape, a.domain_shape, out, a.mode, validate=False)


def dense(a):
    """The nested-list dense form of an operator's entries, zeros included."""
    nr, nc = a.codomain_shape.total, a.domain_shape.total
    out = [[sc.zero(a.mode)] * nc for _ in range(nr)]
    for (r, c), v in a.entries.items():
        out[r][c] = v
    return out


def column_rank(a):
    rows = {}
    for (r, c), v in a.entries.items():
        rows.setdefault(r, {})[c] = v
    return len(_gauss_jordan(list(rows.values()), range(a.domain_shape.total), a.mode))


# -- documents ---------------------------------------------------------------


def entries_to_json(op):
    return [[r, c, sc.format_scalar(v, op.mode)] for (r, c), v in sorted(op.entries.items())]


def entries_from_json(items, mode):
    """The entries of a [row, col, value] list; a repeated (row, col) keeps its last value."""
    out = {}
    for item in items:
        if len(item) != 3:
            raise SchemaError(f"operator entry {item!r} must be [row, col, value]")
        r, c, v = item
        out[(int(r), int(c))] = sc.parse_scalar(v, mode)
    return out


def operator_document(op):
    return {
        "kind": "operator",
        "scalars": op.mode,
        "shape": list(op.domain_shape.factor_dims),
        "codomain_shape": list(op.codomain_shape.factor_dims),
        "entries": entries_to_json(op),
    }


def coalgebra_document(dim, delta, counit, mode):
    return {"kind": "coalgebra", "dim": dim, "scalars": mode, "delta": entries_to_json(delta), "epsilon": entries_to_json(counit)}


def linear_nrack_document(base_doc, arity, bracket, inv_bracket, mode, certified=False):
    return {
        "kind": "linear_nrack",
        "arity": arity,
        "scalars": mode,
        "certified": certified,
        "base": base_doc,
        "bracket": entries_to_json(bracket),
        "inv_bracket": entries_to_json(inv_bracket),
    }
