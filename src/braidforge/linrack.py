"""Finite-dimensional coalgebras and linear n-racks; a linear rack is a
linear n-rack of arity 2.

A linear n-rack is a coassociative counital coalgebra C with two
coalgebra homomorphisms C^(x)n -> C, a bracket <...> and an inverse
bracket <<...>>, satisfying Sweedler-decorated self-distributivity and
the inverse property

    << <u, v_1^(2), ..., v_{n-1}^(2)>, v_{n-1}^(1), ..., v_1^(1) >>
        = < <<u, v_1^(2), ..., v_{n-1}^(2)>>, v_{n-1}^(1), ..., v_1^(1) >
        = eps(v_1)...eps(v_{n-1}) u.

The coalgebra and homomorphism laws are matrix equations.  Self-distributivity
and the inverse property stream basis columns through right translations
v -> <v, L>, one per Sweedler leg tuple L, read off the bracket's columns on
integers in exact mode: no split C^(x)(n^2), and no symbolic Sweedler index.

As for n-Leibniz algebras and n-racks, the ``certified`` flag records that
the laws hold: by `check_linear_nrack` through `certify`, or by the theorem
behind a construction.  Constructions certify an uncertified input themselves.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from . import scalars, tensor
from .errors import NotClosedError, PreconditionError, SchemaError
from .nrack import FiniteNRack
from .reports import (
    ReportBuilder,
    VerificationReport,
    certified,
    column_witness,
    confirm,
    difference_witness,
    refuse_uncertified,
)
from .tensor import TensorOperator, TensorShape, compose_blocks, flat_index, identity, tensor_many


@dataclass(frozen=True)
class Coalgebra:
    """Coproduct and counit matrices, with the cocommutativity flag derived.

    ``candidates`` are the vectors the group-like search is allowed to
    inspect; the default (all basis vectors) covers the set-algebra
    k[X] case, and constructions add their own canonical candidates.
    """

    dim: int
    delta: TensorOperator
    counit: TensorOperator
    mode: str = scalars.EXACT
    cocommutative: bool = field(init=False)
    candidates: tuple = None

    def __post_init__(self):
        if self.delta.domain_shape.total != self.dim or self.delta.codomain_shape.total != self.dim**2:
            raise SchemaError("coproduct must map C to C (x) C")
        if self.counit.domain_shape.total != self.dim or self.counit.codomain_shape.total != 1:
            raise SchemaError("counit must map C to the ground field")
        delta = self.delta.with_shapes(TensorShape((self.dim,)), tensor.power_shape(self.dim, 2))
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "cocommutative", delta.permute_codomain((1, 0)) == delta)
        if self.candidates is None:
            one = scalars.one(self.mode)
            object.__setattr__(self, "candidates", tuple({i: one} for i in range(self.dim)))
        else:
            object.__setattr__(self, "candidates", tuple(dict(c) for c in self.candidates))

    def iterated_delta(self, legs: int) -> TensorOperator:
        """The map C -> C^(x)legs splitting one element into `legs` Sweedler legs."""
        if legs < 1:
            raise SchemaError("need at least one leg")
        out = identity(TensorShape((self.dim,)), self.mode)
        for k in range(1, legs):
            out = compose_blocks([self.delta] + [identity(TensorShape((self.dim,)), self.mode)] * (k - 1), out)
        return out


def set_coalgebra(size: int, mode=scalars.EXACT) -> Coalgebra:
    """k[X] for a finite set: Delta x = x (x) x, eps x = 1."""
    one = scalars.one(mode)
    shp = TensorShape((size,))
    diagonal = {(flat_index((x, x), size), x): one for x in range(size)}
    delta = TensorOperator(shp, tensor.power_shape(size, 2), diagonal, mode, validate=False)
    counit = TensorOperator(shp, TensorShape((1,)), {(0, x): one for x in range(size)}, mode, validate=False)
    return Coalgebra(size, delta, counit, mode)


def kplus_coalgebra(dim: int, mode=scalars.EXACT) -> Coalgebra:
    """k (+) L for a dim-dimensional space L, basis 0 = the unit (1,0).

    Delta(1,0) = (1,0)(x)(1,0); Delta(0,x) = (0,x)(x)(1,0) + (1,0)(x)(0,x);
    eps is the scalar part.
    """
    c = dim + 1
    one = scalars.one(mode)
    entries = {(0, 0): one}
    for i in range(1, c):
        entries[(flat_index((i, 0), c), i)] = one
        entries[(flat_index((0, i), c), i)] = one
    delta = TensorOperator(TensorShape((c,)), tensor.power_shape(c, 2), entries, mode, validate=False)
    counit = TensorOperator(TensorShape((c,)), TensorShape((1,)), {(0, 0): one}, mode, validate=False)
    return Coalgebra(c, delta, counit, mode)


def tensor_power_coalgebra(base: Coalgebra, k: int) -> Coalgebra:
    """C^(x)k with the dealt coproduct and the product counit."""
    if k < 1:
        raise SchemaError("need at least one factor")
    if k == 1:
        return base
    delta = tensor_many([base.delta] * k).permute_codomain(tensor.deal_factors(k))
    delta = delta.with_shapes(
        tensor.power_shape(base.dim, k), tensor.power_shape(base.dim**k, 2)
    )
    counit = tensor_many([base.counit] * k).with_shapes(
        tensor.power_shape(base.dim, k), TensorShape((1,))
    )
    shp = tensor.power_shape(base.dim, k)
    candidates = tuple(
        tensor.tensor_vector(combo, shp, base.mode)
        for combo in itertools.product(base.candidates, repeat=k)
    )
    return Coalgebra(base.dim**k, delta, counit, base.mode, candidates=candidates)


def check_coalgebra(c: Coalgebra) -> VerificationReport:
    """Coassociativity and both counit laws.  The cocommutativity flag is
    derived from the coproduct at construction, so its check records a pass."""
    rb = ReportBuilder(f"coalgebra(dim={c.dim}, cocommutative={c.cocommutative})")
    idc = identity(TensorShape((c.dim,)), c.mode)
    left = compose_blocks([c.delta, idc], c.delta)
    right = compose_blocks([idc, c.delta], c.delta)
    rb.record_witness("coassociativity", difference_witness(left, right))
    rb.record_witness("counit-left", difference_witness(compose_blocks([c.counit, idc], c.delta), idc))
    rb.record_witness("counit-right", difference_witness(compose_blocks([idc, c.counit], c.delta), idc))
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


def _apply(cols, vec):
    """The sparse vector sum of w * cols[key] over the (key, w) in vec."""
    out = {}
    for key, w in vec:
        for r, a in cols[key]:
            out[r] = out.get(r, 0) + w * a
    return out


def _sweedler_images(outer, terms):
    """The images of the leading basis columns x, in flat order, under the
    sum over terms (coeff, trs, tail) of coeff * outer(tr_1 x_1 (x) ... (x) tr_k x_k (x) e_tail),
    each tr_i a right translation v -> [(row, value)] with its rows placed
    at factor i of outer's domain.  The tensor products share their
    prefixes, and the terms are summed before outer is applied."""
    mid = None
    for coeff, trs, tail in terms:
        vecs = [{tail: coeff}]
        for tr in trs:
            vecs = [{key + r: w * a for key, w in vec.items() for r, a in col} for vec in vecs for col in tr]
        if mid is None:
            mid = vecs
            continue
        for acc, vec in zip(mid, vecs):
            for key, w in vec.items():
                acc[key] = acc.get(key, 0) + w
    return [_apply(outer, acc.items()) for acc in mid]


def _distributivity_sides(l: LinearNRack):
    """Both sides of <<xs>, ys> = <<x_1, L_1>, ..., <x_n, L_n>>, L_i the i-th
    legs of Delta^(n)(y_1), ..., Delta^(n)(y_{n-1}), as (col, lhs, rhs) with
    col = xs * c^(n-1) + ys, ys outer and xs inner.  In exact mode the lhs is
    lifted from scale_b^2 to the rhs's scale_b^(n+1) * scale_Delta^(n-1)."""
    c, n = l.base.dim, l.arity
    span = c ** (n - 1)
    b, scale = l.bracket.integer_columns()
    delta, dscale = l.base.iterated_delta(n).integer_columns()
    multi = tensor.power_shape(c, n).multi
    lift = (scale * dscale) ** (n - 1)
    for t, ys in enumerate(itertools.product(range(c), repeat=n - 1)):
        right = [[(s, w * lift) for s, w in b[r * span + t]] for r in range(c)]
        terms = []
        for combo in itertools.product(*(delta[y] for y in ys)):
            ls = (flat_index(legs, c) for legs in zip(*(multi(r) for r, _ in combo)))  # L_1, ..., L_n
            trs = [[[(r * c ** (n - 1 - i), a) for r, a in col] for col in b[k::span]] for i, k in enumerate(ls)]
            terms.append((math.prod(v for _, v in combo), trs, 0))
        yield from zip(itertools.count(t, span), [_apply(right, col) for col in b], _sweedler_images(b, terms))


def _inverse_sides(l: LinearNRack, first: TensorOperator, second: TensorOperator):
    """Both sides of second(first(u, v_1^(2)..v_{n-1}^(2)), v_{n-1}^(1)..v_1^(1))
    = eps(v_1)...eps(v_{n-1}) u, as (col, lhs, rhs) with col = u * c^(n-1) + vs,
    vs outer and u inner, lifted to one scale in exact mode."""
    c, n = l.base.dim, l.arity
    span = c ** (n - 1)
    f, fscale = first.integer_columns()
    g, gscale = second.integer_columns()
    delta, dscale = l.base.delta.integer_columns()
    counit, escale = l.base.counit.integer_columns()
    for t, vs in enumerate(itertools.product(range(c), repeat=n - 1)):
        terms = []
        for combo in itertools.product(*(delta[v] for v in vs)):
            legs = [divmod(r, c) for r, _ in combo]  # (v_j^(1), v_j^(2))
            tr = [[(r * span, a) for r, a in col] for col in f[flat_index([l2 for _, l2 in legs], c) :: span]]
            tail = flat_index([l1 for l1, _ in reversed(legs)], c)
            terms.append((math.prod((v for _, v in combo), start=escale ** (n - 1)), [tr], tail))
        eps = math.prod((sum(w for _, w in counit[v]) for v in vs), start=fscale * gscale * dscale ** (n - 1))
        rhs = [{u: eps} if eps else {} for u in range(c)]
        yield from zip(itertools.count(t, span), _sweedler_images(g, terms), rhs)


def check_linear_nrack(l: LinearNRack) -> VerificationReport:
    """The four defining identities, or the report of a failing base coalgebra:

    (a) both maps commute with the coproduct (through the deal shuffle),
    (b) both maps commute with the counit,
    (c) self-distributivity of the bracket on C^(x)(2n-1),
    (d) the inverse property in both application orders.

    (a) and (b) are matrix equations; (c) and (d) stream basis columns
    through right translations, so no Sweedler split is materialized.
    """
    base_report = check_coalgebra(l.base)
    if not base_report.passed:
        return base_report
    c, n = l.base.dim, l.arity
    rb = ReportBuilder(f"linear-{n}-rack(dim={c})")

    maps, mode = (l.bracket, l.inv_bracket), l.base.mode
    split_all = tensor_many([l.base.delta] * n).permute_codomain(tensor.deal_factors(n))
    wits = (difference_witness(l.base.delta @ b, compose_blocks([b, b], split_all)) for b in maps)
    rb.record_witness("coproduct-homomorphism", next(filter(None, wits), None))
    eps_n = tensor_many([l.base.counit] * n)
    wits = (difference_witness(l.base.counit @ b, eps_n) for b in maps)
    rb.record_witness("counit-homomorphism", next(filter(None, wits), None))

    rb.record_witness("self-distributivity", column_witness(_distributivity_sides(l), mode))
    wit = column_witness(_inverse_sides(l, l.bracket, l.inv_bracket), mode)
    wit = wit or column_witness(_inverse_sides(l, l.inv_bracket, l.bracket), mode)
    rb.record_witness("inverse-property", wit)
    return rb.build()


def certify(l: LinearNRack) -> LinearNRack:
    """The linear n-rack, certified by check_linear_nrack unless it already is."""
    return certified(l, check_linear_nrack, "input fails the linear n-rack identities")


def check_linear_nrack_homomorphism(
    a: LinearNRack, b: LinearNRack, f: TensorOperator
) -> VerificationReport:
    """Whether f is a coalgebra map with f o <...> = <...>' o f^(x)n."""
    if a.arity != b.arity:
        raise SchemaError("arity mismatch")
    rb = ReportBuilder("linear-nrack-homomorphism")
    wit = difference_witness(b.base.delta @ f, compose_blocks([f, f], a.base.delta))
    rb.record_witness("coproduct-compatible", wit)
    rb.record_witness("counit-compatible", difference_witness(b.base.counit @ f, a.base.counit))
    wit = difference_witness(f @ a.bracket, b.bracket @ tensor_many([f] * a.arity))
    rb.record_witness("bracket-compatible", wit)
    return rb.build()


# -- constructions -----------------------------------------------------


def linearize_nrack(t: FiniteNRack, mode=scalars.EXACT) -> LinearNRack:
    """Extend a certified finite n-rack linearly to k[X].

    The inverse bracket extends the inverse operation
    <<x, y_1..y_{n-1}>> = (translation by (y_{n-1}, ..., y_1))^{-1} x,
    which is what the inverse property pins down on group-likes.
    """
    refuse_uncertified(t, "linearize_nrack")
    if t.side != "right":
        raise SchemaError("linearize right-side tables; reverse a left table first")
    m, n = t.size, t.arity
    base = set_coalgebra(m, mode)
    one = scalars.one(mode)
    dom = tensor.power_shape(m, n)
    cod = TensorShape((m,))
    entries = {}
    inv_entries = {}
    for args in itertools.product(range(m), repeat=n):
        col = dom.flat(args)
        entries[(t.apply(args), col)] = one
        rev = t.translation(tuple(reversed(args[1:])))
        inv = [0] * m
        for i, v in enumerate(rev):
            inv[v] = i
        inv_entries[(inv[args[0]], col)] = one
    bracket = TensorOperator(dom, cod, entries, mode, validate=False)
    inv_bracket = TensorOperator(dom, cod, inv_entries, mode, validate=False)
    return LinearNRack(base, n, bracket, inv_bracket, certified=True)


def group_like_elements(c: Coalgebra):
    """All candidate vectors v with Delta v = v (x) v and v != 0.

    The search is restricted to the coalgebra's stored candidate set
    (basis vectors by default); solving the full quadratic group-like
    system is out of scope.
    """
    if c.mode != scalars.EXACT:
        raise SchemaError("group-like extraction is exact-mode only")
    found = []
    shp2 = tensor.power_shape(c.dim, 2)
    for v in c.candidates:
        if not v:
            continue
        square = tensor.tensor_vector([v, v], shp2, c.mode)
        if c.delta.apply(v) == square and not any(f == v for f in found):
            found.append(dict(v))
    return found


def induced_nrack(l: LinearNRack) -> FiniteNRack:
    """Restrict the bracket to the found group-likes; the set must be closed."""
    likes = group_like_elements(l.base)
    if not likes:
        raise NotClosedError("no group-like elements found among the candidates")
    n = l.arity
    m = len(likes)
    dom = tensor.power_shape(l.base.dim, n)
    table = []
    for combo in itertools.product(range(m), repeat=n):
        vec = l.bracket.apply(tensor.tensor_vector([likes[gi] for gi in combo], dom, l.base.mode))
        hit = None
        for gi, g in enumerate(likes):
            if vec == g:
                hit = gi
                break
        if hit is None:
            raise NotClosedError(f"bracket of group-likes {combo} left the found set")
        table.append(hit)
    return FiniteNRack(m, n, tuple(table))


def _require_rack(r: LinearNRack):
    if r.arity != 2:
        raise SchemaError("only an arity-2 structure is a linear rack")


def linear_nrack_from_linear_rack(r: LinearNRack, arity: int) -> LinearNRack:
    """Fold a linear rack (arity 2) into a linear n-rack:
    <u_1..u_n> = (...((u_1 <| u_2) <| u_3)...) <| u_n, likewise the inverse."""
    _require_rack(r)
    if arity < 2:
        raise SchemaError("arity must be at least 2")
    r = certify(r)
    if arity == 2:
        return r
    idc = identity(TensorShape((r.base.dim,)), r.base.mode)

    def fold(op):
        acc = op
        for _ in range(arity - 2):
            acc = op @ tensor_many([acc, idc])
        return acc

    return LinearNRack(r.base, arity, fold(r.bracket), fold(r.inv_bracket), certified=True)


def linear_rack_on_tensor_power(l: LinearNRack, recheck: bool = False) -> LinearNRack:
    """The induced linear rack on C^(x)(n-1) of a cocommutative linear n-rack:

        (u_1..u_{n-1}) <| (v_1..v_{n-1})
            = <u_1, v_1^(1), ..., v_{n-1}^(1)> (x) ... (x) <u_{n-1}, v_1^(n-1), ..., v_{n-1}^(n-1)>

    with the inverse op feeding legs to <<...>> in reversed v-order.
    """
    if not l.base.cocommutative:
        raise PreconditionError("tensor-power rack needs a cocommutative base")
    l = certify(l)
    c, n = l.base.dim, l.arity
    mode = l.base.mode
    if n == 2:
        return l
    idc = identity(TensorShape((c,)), mode)
    width = n - 1
    split = tensor_many([idc] * width + [l.base.iterated_delta(width)] * width)

    def assemble(op, reverse_vs):
        perm = [0] * (width + width * width)
        for i in range(width):
            perm[i] = i * n
        for j in range(width):
            for leg in range(width):
                slot = (width - j) if reverse_vs else (j + 1)
                perm[width + j * width + leg] = leg * n + slot
        out = compose_blocks([op] * width, split.permute_codomain(perm))
        return out.with_shapes(
            tensor.power_shape(c**width, 2), tensor.power_shape(c, width)
        )

    base = tensor_power_coalgebra(l.base, width)
    rack = LinearNRack(base, 2, assemble(l.bracket, False), assemble(l.inv_bracket, True), certified=True)
    if recheck:
        confirm(check_linear_nrack(rack))
    return rack


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
    d, n = algebra.dim, algebra.arity
    mode = algebra.mode
    base = kplus_coalgebra(d, mode)
    c = d + 1
    dom = tensor.power_shape(c, n)
    cod = TensorShape((c,))
    one = scalars.one(mode)

    def build(bracket_terms):
        entries = {(0, dom.flat((0,) * n)): one}
        for i in range(1, c):
            entries[(i, dom.flat((i,) + (0,) * (n - 1)))] = one
        for col_key, out in bracket_terms.items():
            col = dom.flat(tuple(i + 1 for i in col_key))
            for j, v in out.items():
                prev = entries.get((j + 1, col), scalars.zero(mode))
                entries[(j + 1, col)] = prev + v
        return TensorOperator(dom, cod, entries, mode)

    bracket = build(algebra.bracket)
    # [x_1, x_n, ..., x_2] read off at the column (x_1, x_2, ..., x_n):
    # the stored key (k_1, k_2, ..., k_n) contributes to column (k_1, k_n, ..., k_2)
    inv_terms = {}
    for key, out in algebra.bracket.items():
        col_key = (key[0],) + tuple(reversed(key[1:]))
        acc = inv_terms.setdefault(col_key, {})
        for j, v in out.items():
            acc[j] = acc.get(j, scalars.zero(mode)) - v
    inv_bracket = build(inv_terms)
    return LinearNRack(base, n, bracket, inv_bracket, algebra.certified)


def nrack_braiding(l: LinearNRack):
    """The degree-n braiding of a cocommutative linear n-rack and its inverse:

        S(u_1 (x) ... (x) u_n)
            = u_2^(1) (x) ... (x) u_n^(1) (x) <u_1, u_2^(2), ..., u_n^(2)>
        S^{-1}(u_1 (x) ... (x) u_n)
            = <<u_n, u_{n-1}^(2), ..., u_1^(2)>> (x) u_1^(1) (x) ... (x) u_{n-1}^(1).

    Their composition is checked to be the identity at construction; the
    laws of ``l`` are not.
    """
    if not l.base.cocommutative:
        raise PreconditionError("the braiding needs a cocommutative base")
    c, n = l.base.dim, l.arity
    mode = l.base.mode
    idc = identity(TensorShape((c,)), mode)

    fwd_split = tensor_many([idc] + [l.base.delta] * (n - 1))
    perm = [0] * (2 * n - 1)
    perm[0] = n - 1
    for j in range(n - 1):
        perm[1 + 2 * j] = j  # legs (1) pass through, in order
        perm[2 + 2 * j] = n + j  # legs (2) feed the bracket
    fwd = compose_blocks([idc] * (n - 1) + [l.bracket], fwd_split.permute_codomain(perm))

    bwd_split = tensor_many([l.base.delta] * (n - 1) + [idc])
    perm = [0] * (2 * n - 1)
    perm[2 * (n - 1)] = 0  # u_n heads the inverse bracket
    for j in range(n - 1):
        perm[2 * j] = n + j  # legs (1) pass through, in order
        perm[2 * j + 1] = 1 + (n - 2 - j)  # legs (2), reversed, feed the inverse bracket
    bwd = compose_blocks([l.inv_bracket] + [idc] * (n - 1), bwd_split.permute_codomain(perm))

    shp = tensor.power_shape(c, n)
    fwd = fwd.with_shapes(shp, shp)
    bwd = bwd.with_shapes(shp, shp)
    ident = identity(shp, mode)
    if fwd @ bwd != ident or bwd @ fwd != ident:
        raise PreconditionError(
            f"inverse-mismatch: the two maps do not invert each other, so the input is not a linear {n}-rack"
        )
    return fwd, bwd


def lebed_operator(r: LinearNRack):
    """The braiding of a cocommutative linear rack (arity 2) and its inverse,
    the n = 2 case of :func:`nrack_braiding`:

        R(u (x) v) = v^(1) (x) (u <| v^(2))
        R^{-1}(u (x) v) = (v inv<| u^(2)) (x) u^(1)
    """
    _require_rack(r)
    return nrack_braiding(certify(r))
