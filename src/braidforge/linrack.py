"""Finite-dimensional coalgebras and linear n-racks; a linear rack is a
linear n-rack of arity 2.

A linear n-rack is a coassociative counital coalgebra C with two
coalgebra homomorphisms C^(x)n -> C, a bracket <...> and an inverse
bracket <<...>>, satisfying Sweedler-decorated self-distributivity and
the inverse property

    << <u, v_1^(2), ..., v_{n-1}^(2)>, v_{n-1}^(1), ..., v_1^(1) >>
        = < <<u, v_1^(2), ..., v_{n-1}^(2)>>, v_{n-1}^(1), ..., v_1^(1) >
        = eps(v_1)...eps(v_{n-1}) u.

Every law and every construction runs one basis column at a time on the
columns of Delta, eps and the brackets, integers over one scale in exact
mode, and no split matrix of C^(x)k is built.  Self-distributivity and the
inverse property stream the basis columns through right translations
v -> <v, L>, one per Sweedler leg tuple L, from their nonzero entries, and
a zero translation or an empty bracket column drops its term: on k (+) L,
where most translations by primitive legs are zero, the laws cost the
nonzeros of the translations, not c^n per term.  On k[X] with brackets
that are tables on its basis (a linearized n-rack), they compare flat row
lists, once per distinct right translation.

As for n-Leibniz algebras and n-racks, the ``certified`` flag records that
the laws hold: by `check_linear_nrack` through `certify`, or by the theorem
behind a construction.  Constructions certify an uncertified input themselves.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field

from . import scalars, tensor
from .errors import NotClosedError, PreconditionError, SchemaError
from .nrack import FiniteNRack, distributivity_blocks
from .reports import ReportBuilder, VerificationReport, certified, column_witness, confirm, list_witness, refuse_uncertified
from .tensor import TensorOperator, TensorShape, apply_columns, digit_reversal, flat_index, kron_columns


@dataclass(frozen=True)
class Coalgebra:
    """Coproduct and counit matrices, with the cocommutativity flag derived."""

    dim: int
    delta: TensorOperator
    counit: TensorOperator
    mode: str = scalars.EXACT
    cocommutative: bool = field(init=False)

    def __post_init__(self):
        if self.delta.domain_shape.total != self.dim or self.delta.codomain_shape.total != self.dim**2:
            raise SchemaError("coproduct must map C to C (x) C")
        if self.counit.domain_shape.total != self.dim or self.counit.codomain_shape.total != 1:
            raise SchemaError("counit must map C to the ground field")
        delta = self.delta.with_shapes(TensorShape((self.dim,)), tensor.power_shape(self.dim, 2))
        object.__setattr__(self, "delta", delta)
        cols, d = delta.columns, self.dim
        swapped = ((x, dict(col), {r % d * d + r // d: v for r, v in col}) for x, col in enumerate(cols))
        object.__setattr__(self, "cocommutative", column_witness(swapped, delta.mode) is None)


# The kernels below run on the operators' stored columns, lists of (row, value)
# over one scale, integers in exact mode; they multiply and sum in the order of
# the matrix products, bit for bit, and build their results with
# TensorOperator.from_columns.


def _nonzero(vec: dict) -> list:
    return [(r, v) for r, v in vec.items() if v]


def _dealt(cols, c: int, legs: int, k: int):
    """At each basis column xs of C^(x)k in flat order, the terms (flat, coeff)
    of cols[x_1] (x) ... (x) cols[x_k] in product order, for the columns of a
    split C -> C^(x)legs: factor i of flat, in (C^(x)k)^(x)legs, is the i-th
    legs of x_1..x_k, and coeff the product of the values from the left."""
    weights, multi = [c ** (k * i) for i in reversed(range(legs))], tensor.power_shape(c, legs).multi
    split = out = [[(sum(map(operator.mul, multi(r), weights)), v) for r, v in col] for col in cols]
    for _ in range(k - 1):
        out = [[(f * c + d, v * w) for f, v in col for d, w in split[x]] for col in out for x in range(c)]
    return out


def _counit_power(counit, k: int):
    """eps(x_1)...eps(x_k), multiplied from the left, at each basis column xs of C^(x)k."""
    eps, out = [sum(w for _, w in col) for col in counit], [1]
    for _ in range(k):
        out = [p * e for p in out for e in eps]
    return out


def _iterated_columns(c: Coalgebra, legs: int):
    """(columns, scale) of Delta^(legs) = (Delta (x) id^(legs-2)) Delta^(legs-1)."""
    delta, scale = c.delta.columns, c.delta.scale
    cols = [[(x, 1)] for x in range(c.dim)]
    for k in range(1, legs):
        step = kron_columns(delta, [[(x, 1)] for x in range(c.dim ** (k - 1))], c.dim ** (k - 1))
        cols = [_nonzero(apply_columns(step, col)) for col in cols]
    return cols, scale ** (legs - 1)


def set_coalgebra(size: int, mode=scalars.EXACT) -> Coalgebra:
    """k[X] for a finite set: Delta x = x (x) x, eps x = 1."""
    shp = TensorShape((size,))
    diagonal = [[(flat_index((x, x), size), 1)] for x in range(size)]
    delta = TensorOperator.from_columns(shp, tensor.power_shape(size, 2), diagonal, 1, mode)
    counit = TensorOperator.from_columns(shp, TensorShape((1,)), [[(0, 1)]] * size, 1, mode)
    return Coalgebra(size, delta, counit, mode)


def kplus_coalgebra(dim: int, mode=scalars.EXACT) -> Coalgebra:
    """k (+) L for a dim-dimensional space L, basis 0 = the unit (1,0).

    Delta(1,0) = (1,0)(x)(1,0); Delta(0,x) = (0,x)(x)(1,0) + (1,0)(x)(0,x);
    eps is the scalar part.
    """
    c = dim + 1
    cols = [[(0, 1)]] + [[(flat_index((i, 0), c), 1), (flat_index((0, i), c), 1)] for i in range(1, c)]
    delta = TensorOperator.from_columns(TensorShape((c,)), tensor.power_shape(c, 2), cols, 1, mode)
    counit = TensorOperator.from_columns(TensorShape((c,)), TensorShape((1,)), [[(0, 1)]] + [[]] * dim, 1, mode)
    return Coalgebra(c, delta, counit, mode)


def tensor_power_coalgebra(base: Coalgebra, k: int) -> Coalgebra:
    """C^(x)k with the dealt coproduct and the product counit."""
    if k < 1:
        raise SchemaError("need at least one factor")
    if k == 1:
        return base
    c, ck = base.dim, base.dim**k
    delta, dscale = base.delta.columns, base.delta.scale
    counit, escale = base.counit.columns, base.counit.scale
    dcols, ecols = _dealt(delta, c, 2, k), [[(0, v) for _, v in col] for col in _dealt(counit, c, 1, k)]
    shp = tensor.power_shape(c, k)
    delta = TensorOperator.from_columns(shp, tensor.power_shape(ck, 2), dcols, dscale**k, base.mode)
    counit = TensorOperator.from_columns(shp, TensorShape((1,)), ecols, escale**k, base.mode)
    return Coalgebra(ck, delta, counit, base.mode)


def check_coalgebra(c: Coalgebra) -> VerificationReport:
    """Coassociativity and both counit laws on each basis column x of Delta:
    (Delta (x) id) Delta x = (id (x) Delta) Delta x and (eps (x) id) Delta x
    = (id (x) eps) Delta x = x.  The cocommutativity flag is derived from the
    coproduct at construction, so its check records a pass."""
    rb = ReportBuilder(f"coalgebra(dim={c.dim}, cocommutative={c.cocommutative})")
    delta, dscale = c.delta.columns, c.delta.scale
    counit, escale = c.counit.columns, c.counit.scale
    d, ident = c.dim, [[(x, 1)] for x in range(c.dim)]
    laws = {
        "coassociativity": (kron_columns(delta, ident, d), kron_columns(ident, delta, d * d)),
        "counit-left": (kron_columns(counit, ident, d), None),
        "counit-right": (kron_columns(ident, counit, 1), None),
    }
    for name, (left, right) in laws.items():
        sides = ((x, apply_columns(left, col), apply_columns(right, col) if right else {x: dscale * escale}) for x, col in enumerate(delta))
        rb.record_witness(name, column_witness(sides, c.mode))
    rb.record("cocommutativity-flag", True)
    return rb.build()


@dataclass(frozen=True)
class LinearNRack:
    """A coalgebra with an n-ary bracket and inverse bracket, both C^(x)n -> C."""

    base: Coalgebra
    arity: int
    bracket: TensorOperator
    inv_bracket: TensorOperator
    certified: bool = False

    def __post_init__(self):
        c, n = self.base.dim, self.arity
        for name, op in (("bracket", self.bracket), ("inv_bracket", self.inv_bracket)):
            if op.domain_shape.total != c**n or op.codomain_shape.total != c:
                raise SchemaError(f"{name} must map C^(x){n} to C")


# -- the four defining identities ---------------------------------------


def _coproduct_sides(l: LinearNRack, op: TensorOperator, dealt):
    """Both sides of Delta(b(xs)) = sum b(xs^(1)) (x) b(xs^(2)), the legs dealt
    by ``dealt`` = _dealt(Delta, c, 2, n), as (col, lhs, rhs) over scale_b^2 *
    scale_Delta^n, skipping terms with an empty bracket column and empty columns."""
    c, n = l.base.dim, l.arity
    b, scale = op.columns, op.scale
    delta, dscale = l.base.delta.columns, l.base.delta.scale
    lift, width = scale * dscale ** (n - 1), c**n
    for col, terms in enumerate(dealt):
        rhs = {}
        for flat, coeff in terms:
            first, second = divmod(flat, width)
            if not b[first] or not b[second]:
                continue
            for r, w in b[first]:
                for s, v in b[second]:
                    rhs[r * c + s] = rhs.get(r * c + s, 0) + coeff * w * v
        if rhs or b[col]:
            yield col, apply_columns(delta, [(r, w * lift) for r, w in b[col]]), rhs


def _counit_sides(l: LinearNRack, op: TensorOperator):
    """Both sides of eps(b(xs)) = eps(x_1)...eps(x_n) as (col, lhs, rhs),
    both over scale_b * scale_eps^n, at the columns where one is nonzero."""
    b, scale = op.columns, op.scale
    counit, escale = l.base.counit.columns, l.base.counit.scale
    n, lift = l.arity, escale ** (l.arity - 1)
    for col, eps in enumerate(_counit_power(counit, n)):
        if eps or b[col]:
            yield col, apply_columns(counit, [(r, w * lift) for r, w in b[col]]), {0: eps * scale}


def _translations(b, c: int, span: int, weight: int):
    """At each ys, the nonzero entries of the right translation x -> <x, ys>
    as triples (x * weight, row * weight, value), in the order of x."""
    return [[(x * weight, r * weight, a) for x in range(c) for r, a in b[x * span + ys]] for ys in range(span)]


def _sweedler_images(outer, terms) -> dict:
    """{x: image} at the leading basis columns x that get a key, under the
    sum over terms (coeff, trs, tail) of coeff * outer(tr_1 x_1 (x) ... (x) tr_k x_k (x) e_tail),
    tr_i as ``_translations`` triples weighted for factor i.  A term with a zero translation
    is dropped; each column sums its keys in term order, then in nested leg order, before outer."""
    mid = {}
    for coeff, trs, tail in terms:
        if not all(trs):
            continue
        vecs = [(0, tail, coeff)]
        for tr in trs:
            vecs = [(x + y, key + r, w * a) for x, key, w in vecs for y, r, a in tr]
        for x, key, w in vecs:
            acc = mid.setdefault(x, {})
            acc[key] = acc.get(key, 0) + w
    return {x: apply_columns(outer, acc.items()) for x, acc in mid.items()}


def _distributivity_sides(l: LinearNRack):
    """Both sides of <<xs>, ys> = <<x_1, L_1>, ..., <x_n, L_n>>, L_i the i-th
    legs of Delta^(n)(y_1), ..., Delta^(n)(y_{n-1}), as (col, lhs, rhs) with
    col = xs * c^(n-1) + ys where a side is nonzero; in exact mode the lhs is
    lifted from scale_b^2 to the rhs's scale_b^(n+1) * scale_Delta^((n-1)^2)."""
    c, n, span = l.base.dim, l.arity, l.base.dim ** (l.arity - 1)
    b, scale = l.bracket.columns, l.bracket.scale
    delta, dscale = _iterated_columns(l.base, n)
    lift = (scale * dscale) ** (n - 1)
    trs = [_translations(b, c, span, c ** (n - 1 - i)) for i in range(n)]  # trs[i][leg]: leg's translation at factor i
    nonzero, multi = [(xs, col) for xs, col in enumerate(b) if col], tensor.power_shape(span, n).multi
    for t, dealt in enumerate(_dealt(delta, c, n, n - 1)):
        right = [[(s, w * lift) for s, w in b[r * span + t]] for r in range(c)]
        lhs = {xs: vec for xs, col in nonzero if (vec := apply_columns(right, col))}
        rhs = _sweedler_images(b, [(coeff, list(map(list.__getitem__, trs, multi(flat))), 0) for flat, coeff in dealt])
        for xs in lhs.keys() | rhs.keys():
            yield xs * span + t, lhs.get(xs, {}), rhs.get(xs, {})


def _inverse_sides(l: LinearNRack, first: TensorOperator, second: TensorOperator, dealt):
    """Both sides of second(first(u, v_1^(2)..v_{n-1}^(2)), v_{n-1}^(1)..v_1^(1))
    = eps(v_1)...eps(v_{n-1}) u, as (col, lhs, rhs) with col = u * c^(n-1) + vs,
    vs outer and u inner (``dealt`` = _dealt(Delta, c, 2, n - 1); a leading
    column x is u * c^(n-1)), where a side is nonzero, lifted to one scale in exact mode."""
    c, n, span = l.base.dim, l.arity, l.base.dim ** (l.arity - 1)
    f, fscale = first.columns, first.scale
    g, gscale = second.columns, second.scale
    counit, escale, dscale = l.base.counit.columns, l.base.counit.scale, l.base.delta.scale
    rev, eps, tr = digit_reversal(c, n - 1), _counit_power(counit, n - 1), _translations(f, c, span, span)
    for t, terms in enumerate(dealt):
        lhs = _sweedler_images(g, [(coeff * escale ** (n - 1), [tr[flat % span]], rev[flat // span]) for flat, coeff in terms])
        unit = eps[t] * fscale * gscale * dscale ** (n - 1)
        for x in lhs.keys() | (range(0, c * span, span) if unit else ()):
            yield x + t, lhs.get(x, {}), {x // span: unit} if unit else {}


def _table_distributivity(l: LinearNRack):
    """Self-distributivity's column_witness for a table l, from the blocks of
    ``nrack.distributivity_blocks``: position (xs, j) stands for column
    xs * c^(n-1) + ys_j, ys_j the first ys of the j-th distinct translation,
    where later ys with it fail alike; the map is monotone in (xs, j)."""
    c, n, span = l.base.dim, l.arity, l.base.dim ** (l.arity - 1)
    translations, distinct, block = distributivity_blocks(tuple(col[0][0] for col in l.bracket.columns), c, n)
    first, k, found = [translations.index(tr) for tr in distinct], len(distinct), []
    for x1, (lhs, rhs) in enumerate(map(block, range(c))):  # a later x_1 may fail at a smaller row
        if lhs != rhs:
            wit = list_witness(lhs, rhs, list(map(operator.ne, lhs, rhs)))
            found.append({"row": wit["row"], "col": (x1 * span + wit["col"] // k) * span + first[wit["col"] % k]})
    return min(found, key=operator.itemgetter("row", "col"), default=None)


def _table_inverse(l: LinearNRack, first: TensorOperator, second: TensorOperator):
    """The inverse property's column_witness for a table l: column u * c^(n-1) + vs
    has the rows second(first(u, vs), reversed vs) and u."""
    span, rev = l.base.dim ** (l.arity - 1), digit_reversal(l.base.dim, l.arity - 1)
    lhs = [second.columns[col[0][0] * span + rev[x % span]][0][0] for x, col in enumerate(first.columns)]
    rhs = [x // span for x in range(len(lhs))]
    return list_witness(lhs, rhs, list(map(operator.ne, lhs, rhs)))


def check_linear_nrack(l: LinearNRack) -> VerificationReport:
    """The four defining identities, or the report of a failing base coalgebra:

    (a) both maps commute with the coproduct (the legs of the inputs dealt),
    (b) both maps commute with the counit,
    (c) self-distributivity of the bracket on C^(x)(2n-1),
    (d) the inverse property in both application orders.

    Each is evaluated one basis column at a time where a side is nonzero, at
    a cost in the nonzeros of the bracket columns and, in (c) and (d), of the
    right translations they stream; (a) deals Delta once for both maps.  A
    table l, on k[X] with every column of eps and the brackets one entry
    equal to its scale, passes (a) and (b) identically, and compares flat row
    lists in (c), once per distinct right translation, and in (d) by
    ``reports.list_witness``, with the same witness.
    """
    base_report = check_coalgebra(l.base)
    if not base_report.passed:
        return base_report
    c, n, mode = l.base.dim, l.arity, l.base.mode
    rb = ReportBuilder(f"linear-{n}-rack(dim={c})")
    units = all(len(col) == 1 and col[0][1] == op.scale for op in (l.base.counit, l.bracket, l.inv_bracket) for col in op.columns)
    table = units and len(_group_likes(l.base)) == c
    split, deal = ((), ()) if table else (_dealt(l.base.delta.columns, c, 2, k) for k in (n - 1, n))  # each shared by both brackets
    homs = (("coproduct-homomorphism", lambda op: _coproduct_sides(l, op, deal)), ("counit-homomorphism", lambda op: _counit_sides(l, op)))
    for name, sides in homs:
        rb.record_witness(name, None if table else column_witness(sides(l.bracket), mode) or column_witness(sides(l.inv_bracket), mode))
    rb.record_witness("self-distributivity", _table_distributivity(l) if table else column_witness(_distributivity_sides(l), mode))
    orders = ((l.bracket, l.inv_bracket), (l.inv_bracket, l.bracket))
    wits = (_table_inverse(l, f, g) if table else column_witness(_inverse_sides(l, f, g, split), mode) for f, g in orders)
    rb.record_witness("inverse-property", next(filter(None, wits), None))
    return rb.build()


def certify(l: LinearNRack) -> LinearNRack:
    """The linear n-rack, certified by check_linear_nrack unless it already is."""
    return certified(l, check_linear_nrack, "input fails the linear n-rack identities")


# -- constructions -----------------------------------------------------


def linearize_nrack(t: FiniteNRack, mode=scalars.EXACT) -> LinearNRack:
    """Extend a certified finite n-rack linearly to k[X].

    The inverse bracket extends the inverse operation
    <<x, y_1..y_{n-1}>> = (translation by (y_{n-1}, ..., y_1))^{-1} x,
    which is what the inverse property pins down on group-likes.
    """
    require_right_side(t)
    refuse_uncertified(t, "linearize_nrack")
    m, n = t.size, t.arity
    span, rev, inv = m ** (n - 1), digit_reversal(m, n - 1), [0] * m**n
    for ys in range(span):  # column x * span + ys of <<...>>: x's preimage under the translation by reversed ys
        for i, x in enumerate(t.table[rev[ys] :: span]):
            inv[x * span + ys] = i
    dom, cod = tensor.power_shape(m, n), TensorShape((m,))
    ops = [TensorOperator.from_columns(dom, cod, [[(v, 1)] for v in table], 1, mode) for table in (t.table, inv)]
    return LinearNRack(set_coalgebra(m, mode), n, *ops, certified=True)


def _group_likes(c: Coalgebra) -> list:
    """The x with Delta e_x = e_x (x) e_x, read off the columns of Delta."""
    return [x for x, col in enumerate(c.delta.columns) if col == [(x * c.dim + x, c.delta.scale)]]


def group_like_elements(c: Coalgebra):
    """The basis vectors e_x with Delta e_x = e_x (x) e_x, as sparse vectors.

    Solving the full quadratic group-like system is out of scope.
    """
    if c.mode != scalars.EXACT:
        raise SchemaError("group-like extraction is exact-mode only")
    return [{x: scalars.one(c.mode)} for x in _group_likes(c)]


def induced_nrack(l: LinearNRack) -> FiniteNRack:
    """Restrict the bracket to the found group-likes; the set must be closed."""
    likes = [x for like in group_like_elements(l.base) for x in like]
    if not likes:
        raise NotClosedError("no group-like basis vector found")
    index, scale, table = {x: i for i, x in enumerate(likes)}, l.bracket.scale, []
    for combo in itertools.product(range(len(likes)), repeat=l.arity):
        col = l.bracket.columns[flat_index((likes[i] for i in combo), l.base.dim)]
        if len(col) != 1 or col[0][1] != scale or col[0][0] not in index:
            raise NotClosedError(f"bracket of group-likes {combo} left the found set")
        table.append(index[col[0][0]])
    return FiniteNRack(len(likes), l.arity, tuple(table))


def require_right_side(t: FiniteNRack):
    """Refuse a left-side table, whatever its laws: linearize_nrack reads right translations."""
    if t.side != "right":
        raise SchemaError("linearize right-side tables; reverse a left table first")


def require_rack(r: LinearNRack):
    """Refuse an arity other than 2, whatever the laws of r."""
    if r.arity != 2:
        raise SchemaError("only an arity-2 structure is a linear rack")


def require_cocommutative(l: LinearNRack, what: str = "the braiding"):
    """Refuse a base that is not cocommutative, whatever the laws of l."""
    if not l.base.cocommutative:
        raise PreconditionError(f"{what} needs a cocommutative base")


def linear_nrack_from_linear_rack(r: LinearNRack, arity: int) -> LinearNRack:
    """Fold a linear rack (arity 2) into a linear n-rack:
    <u_1..u_n> = (...((u_1 <| u_2) <| u_3)...) <| u_n, likewise the inverse."""
    require_rack(r)
    if arity < 2:
        raise SchemaError("arity must be at least 2")
    r = certify(r)
    if arity == 2:
        return r
    c, mode = r.base.dim, r.base.mode

    def fold(op):  # acc -> op o (acc (x) id)
        b, scale = op.columns, op.scale
        cols = b
        for _ in range(arity - 2):
            cols = [_nonzero(apply_columns(b, col)) for col in kron_columns(cols, [[(x, 1)] for x in range(c)], c)]
        return TensorOperator.from_columns(tensor.power_shape(c, arity), TensorShape((c,)), cols, scale ** (arity - 1), mode)

    return LinearNRack(r.base, arity, fold(r.bracket), fold(r.inv_bracket), certified=True)


def linear_rack_on_tensor_power(l: LinearNRack, recheck: bool = False) -> LinearNRack:
    """The induced linear rack on C^(x)(n-1) of a cocommutative linear n-rack:

        (u_1..u_{n-1}) <| (v_1..v_{n-1})
            = <u_1, v_1^(1), ..., v_{n-1}^(1)> (x) ... (x) <u_{n-1}, v_1^(n-1), ..., v_{n-1}^(n-1)>

    with the inverse op feeding legs to <<...>> in reversed v-order.
    """
    require_cocommutative(l, "tensor-power rack")
    l = certify(l)
    c, n = l.base.dim, l.arity
    if n == 2:
        return l
    width = n - 1
    span = c**width
    split, dscale = _iterated_columns(l.base, width)
    multi, legs_of, rev = tensor.power_shape(c, width).multi, tensor.power_shape(span, width).multi, digit_reversal(c, width)
    dealt = [[(legs_of(flat), coeff) for flat, coeff in col] for col in _dealt(split, c, width, width)]

    def assemble(op, reverse_vs):
        b, scale = op.columns, op.scale
        table = [[b[x * span + (rev[leg] if reverse_vs else leg)] for leg in range(span)] for x in range(c)]  # <x, leg>
        cols = []
        for u in range(span):
            rows = [table[x] for x in multi(u)]
            for v in range(span):
                out = {}
                for legs, coeff in dealt[v]:
                    factors = list(map(list.__getitem__, rows, legs))
                    for combo in itertools.product(*factors) if all(factors) else ():  # an empty bracket column: no term
                        row = flat_index((r for r, _ in combo), c)
                        out[row] = out.get(row, 0) + math.prod((w for _, w in combo), start=coeff)
                cols.append(out.items())
        scale = (dscale * scale) ** width
        return TensorOperator.from_columns(tensor.power_shape(span, 2), tensor.power_shape(c, width), cols, scale, l.base.mode)

    base = tensor_power_coalgebra(l.base, width)
    rack = LinearNRack(base, 2, assemble(l.bracket, False), assemble(l.inv_bracket, True), certified=True)
    return confirm(rack, check_linear_nrack, recheck)


def linear_nrack_from_nleibniz(algebra) -> LinearNRack:
    """The cocommutative linear n-rack on k (+) L of an n-Leibniz algebra:

        <(l_1,x_1), ..., (l_n,x_n)> = (l_1...l_n, l_2...l_n x_1 + [x_1..x_n])
        <<(l_1,x_1), ..., (l_n,x_n)>> = (l_1...l_n, l_2...l_n x_1 - [x_1, x_n, ..., x_2])

    It is certified exactly when the algebra is.  The formula takes an
    arbitrary bracket; check_linear_nrack then fails exactly where the
    fundamental identity does.
    """
    from .nleibniz import NLeibnizAlgebra

    if not isinstance(algebra, NLeibnizAlgebra):
        raise SchemaError("expected an n-Leibniz algebra")
    d, n, mode = algebra.dim, algebra.arity, algebra.mode
    c, dom = d + 1, tensor.power_shape(d + 1, n)
    units = {(i, dom.flat((i,) + (0,) * (n - 1))): scalars.one(mode) for i in range(c)}

    def build(sign, order):  # the stored key k adds sign * [k] at the column (k_i + 1 for i in order)
        entries = dict(units)
        for key, out in algebra.bracket.items():
            col = dom.flat([key[i] + 1 for i in order])
            entries.update(((j + 1, col), sign * v) for j, v in out.items())
        return TensorOperator(dom, TensorShape((c,)), entries, mode)

    inverse = build(-1, [0] + list(range(n - 1, 0, -1)))  # [x_1, x_n, ..., x_2]
    return LinearNRack(kplus_coalgebra(d, mode), n, build(1, range(n)), inverse, algebra.certified)


def nrack_braiding(l: LinearNRack):
    """The degree-n braiding of a cocommutative linear n-rack and its inverse:

        S(u_1 (x) ... (x) u_n)
            = u_2^(1) (x) ... (x) u_n^(1) (x) <u_1, u_2^(2), ..., u_n^(2)>
        S^{-1}(u_1 (x) ... (x) u_n)
            = <<u_n, u_{n-1}^(2), ..., u_1^(2)>> (x) u_1^(1) (x) ... (x) u_{n-1}^(1),

    at n = 2 Lebed's braiding R(u (x) v) = v^(1) (x) (u <| v^(2)) of a linear rack.

    Each column is read off the coproducts of the u_i and the bracket's
    columns, and their composition is checked to be the identity.
    """
    require_cocommutative(l)
    l = certify(l)
    c, n, mode = l.base.dim, l.arity, l.base.mode
    span = c ** (n - 1)
    delta, dscale = l.base.delta.columns, l.base.delta.scale
    b, bscale = l.bracket.columns, l.bracket.scale
    ib, iscale = l.inv_bracket.columns, l.inv_bracket.scale
    fwd, bwd, rev = [], [], digit_reversal(c, n - 1)
    dealt = [[(*divmod(flat, span), coeff) for flat, coeff in col] for col in _dealt(delta, c, 2, n - 1)]
    for col in range(c**n):  # u_1 = col // span, u_n = col % c
        out = {}
        for first, second, coeff in dealt[col % span]:
            for r, w in b[col // span * span + second]:
                out[first * c + r] = out.get(first * c + r, 0) + coeff * w
        fwd.append(_nonzero(out))
        out = {}
        for first, second, coeff in dealt[col // c]:
            for r, w in ib[col % c * span + rev[second]]:
                out[r * span + first] = out.get(r * span + first, 0) + coeff * w
        bwd.append(_nonzero(out))
    fscale, gscale = dscale ** (n - 1) * bscale, dscale ** (n - 1) * iscale
    for outer, inner in ((fwd, bwd), (bwd, fwd)):
        columns = ((col, apply_columns(outer, vec), {col: fscale * gscale}) for col, vec in enumerate(inner))
        if column_witness(columns, mode) is not None:
            raise PreconditionError(
                f"inverse-mismatch: the two maps do not invert each other, so the input is not a linear {n}-rack"
            )
    shp = tensor.power_shape(c, n)
    return TensorOperator.from_columns(shp, shp, fwd, fscale, mode), TensorOperator.from_columns(shp, shp, bwd, gscale, mode)
