"""n-Leibniz algebras as sparse structure-constant tensors.

An n-Leibniz algebra is a vector space with an n-linear bracket whose
right translations ad_{y_1..y_{n-1}} = [-, y_1, ..., y_{n-1}] are
derivations; equivalently the bracket satisfies the fundamental
identity

    [[x_1..x_n], y_1..y_{n-1}] = sum_i [x_1, ..., [x_i, y_1..y_{n-1}], ..., x_n].

The type itself never assumes the identity: `check_fundamental_identity`
certifies it by brute force over all basis tuples, and constructors
backed by a theorem mark their outputs certified (re-checkable with
``recheck=True``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction

from . import scalars, tensor
from .errors import SchemaError
from .reports import ReportBuilder, VerificationReport, certified, confirm, first_difference, refuse_uncertified
from .tensor import TensorOperator, TensorShape


def _clean_vector(vec, mode, dim: int, what: str):
    """``vec`` with its scalars in ``mode`` and its zeros dropped; a nonzero
    entry outside range(dim) is refused as ``what`` out of range."""
    out = {}
    for j, v in vec.items():
        v = scalars.coerce(v, mode)
        if v != 0:
            if not 0 <= (j := scalars.as_int(j)) < dim:
                raise SchemaError(f"{what} out of range for dim {dim}")
            out[j] = v
    return out


def vec_json(vec, mode):
    return {str(k): scalars.format_scalar(v, mode) for k, v in sorted(vec.items())}


@dataclass(frozen=True)
class NLeibnizAlgebra:
    """Arity-n bracket on k^dim, stored as structure constants keyed by input tuple.

    ``central`` is an optional distinguished element, a sparse vector, as
    the degree-n braiding needs; constructions that take one refuse it
    unless `is_central` holds.
    """

    arity: int
    dim: int
    bracket: dict = field(default_factory=dict)
    mode: str = scalars.EXACT
    certified: bool = False
    central: dict = None

    def __post_init__(self):
        if self.arity < 2:
            raise SchemaError("bracket arity must be at least 2")
        if self.dim < 1:
            raise SchemaError("dimension must be positive")
        scalars.check_mode(self.mode)
        clean = {}
        for key, out in self.bracket.items():
            key = tuple(map(scalars.as_int, key))
            if len(key) != self.arity:
                raise SchemaError(f"bracket key {key} has wrong arity")
            if any(not 0 <= i < self.dim for i in key):
                raise SchemaError(f"bracket key {key} out of range for dim {self.dim}")
            vec = _clean_vector(out, self.mode, self.dim, f"bracket output of {key}")
            if vec:
                clean[key] = vec
        object.__setattr__(self, "bracket", clean)
        if self.central is not None:
            object.__setattr__(self, "central", _clean_vector(self.central, self.mode, self.dim, "central element"))

    def bracket_apply(self, vectors) -> dict:
        """Multilinear evaluation of the bracket on sparse vectors."""
        out = {}
        z = scalars.zero(self.mode)
        for _, coeffs, factor in _terms(self, vectors, 0):
            for j, c in coeffs.items():
                s = out.get(j, z) + factor * c
                if s == 0:
                    out.pop(j, None)
                else:
                    out[j] = s
        return out

    def as_certified(self) -> "NLeibnizAlgebra":
        return replace(self, certified=True)

    def op_reversed(self) -> "NLeibnizAlgebra":
        """The bracket with arguments reversed: [x_1..x_n] -> [x_n..x_1].

        A right algebra's reversal is a left one, so the result is
        returned uncertified.
        """
        rev = {tuple(reversed(k)): dict(v) for k, v in self.bracket.items()}
        return replace(self, bracket=rev, certified=False)


# -- verification ------------------------------------------------------


def _derivation_failure(cols, dcols, d: int, n: int, mode, stop: int):
    """(xs, lhs, rhs) at the first flat basis tuple xs below ``stop`` where
    D[x_1..x_n] = sum_i [x_1, ..., D x_i, ..., x_n] fails, or None, for the
    bracket of columns ``cols`` (over L^(x)n) and the map D of columns ``dcols``."""
    weights = [d ** (n - 1 - i) for i in range(n)]
    for xs in range(stop):
        lhs = tensor.apply_columns(dcols, cols[xs])
        inner = [(xs + (j - xs // w % d) * w, c) for w in weights for j, c in dcols[xs // w % d]]
        rhs = tensor.apply_columns(cols, inner)
        if first_difference(lhs, rhs, mode) is not None:
            return xs, lhs, rhs
    return None


def _tuple_witness(digits, lhs, rhs, scale, mode):
    """{"tuple", "lhs", "rhs"} of a failing basis tuple, the sides over ``scale``."""
    exact = mode == scalars.EXACT
    sides = [{k: Fraction(v, scale) if exact else v for k, v in vec.items() if v} for vec in (lhs, rhs)]
    return {"tuple": list(digits), "lhs": vec_json(sides[0], mode), "rhs": vec_json(sides[1], mode)}


def check_fundamental_identity(a: NLeibnizAlgebra) -> VerificationReport:
    """The fundamental identity over all dim^(2n-1) basis tuples: the right
    translation ad_ys, read off the bracket's columns, must be a derivation
    at every xs, on integers in exact mode; each distinct nonzero ad_ys is
    walked once, at its first trailing tuple ys, and a zero one passes.

    The witness of a failure is the lexicographically smallest violating
    tuple (xs, ys) together with both sides' coefficient vectors.
    """
    d, n = a.dim, a.arity
    op = bracket_operator(a)
    cols, scale = op.columns, op.scale
    span, stop, hit = d ** (n - 1), d**n, None
    seen = {((),) * d}  # a zero ad_ys: both sides vanish at every xs
    for ys in range(span):
        dcols = cols[ys::span]
        key = tuple(map(tuple, dcols))
        if key not in seen:  # a repeated ad_ys would fail at the same xs as its first ys
            seen.add(key)
            found = _derivation_failure(cols, dcols, d, n, a.mode, stop)
            if found is not None:  # a later ys comes first only at a smaller xs
                stop, hit = found[0], (ys, *found)
    rb = ReportBuilder("fundamental-identity")
    if hit is not None:
        ys, xs, lhs, rhs = hit
        digits = tensor.power_shape(d, n).multi(xs) + tensor.power_shape(d, n - 1).multi(ys)
        hit = _tuple_witness(digits, lhs, rhs, scale**2, a.mode)
    rb.record_witness("fundamental-identity", hit)
    return rb.build()


def certify(a: NLeibnizAlgebra) -> NLeibnizAlgebra:
    """The algebra, certified by the fundamental-identity check unless it already is."""
    return certified(a, check_fundamental_identity, "bracket fails the fundamental identity")


def is_central(a: NLeibnizAlgebra, z: dict) -> bool:
    """Whether z placed in any slot kills the bracket against all basis fillings."""
    z = _clean_vector(z, a.mode, a.dim, "central element")
    totals = {key: sum(c * z[i] for i, c in row.items() if i in z) for key, row in _central_rows(a)}
    return first_difference(totals, {}, a.mode) is None


def _central_rows(a: NLeibnizAlgebra):
    """Linear constraints on a central element, one row per (slot, filling, output)."""
    rows = {}
    for key, out in a.bracket.items():
        for slot in range(a.arity):
            context = key[:slot] + key[slot + 1 :]
            for j, c in out.items():
                row = rows.setdefault((slot, context, j), {})
                row[key[slot]] = row.get(key[slot], scalars.zero(a.mode)) + c
    for rkey in sorted(rows):
        yield rkey, rows[rkey]


def central_elements(a: NLeibnizAlgebra):
    """Basis of the center: all z with z central in every slot."""
    rows = [row for _, row in _central_rows(a)]
    return tensor.nullspace_basis(rows, a.dim, a.mode)


def is_derivation(a: NLeibnizAlgebra, d_map: TensorOperator) -> VerificationReport:
    """Check D[x_1..x_n] = sum_i [x_1, ..., D x_i, ..., x_n] on all basis tuples."""
    rb = ReportBuilder("derivation")
    if d_map.domain_shape.total != a.dim or d_map.codomain_shape.total != a.dim:
        raise SchemaError("derivation candidate has wrong shape")
    op = bracket_operator(a)
    cols, scale, dcols, dscale = op.columns, op.scale, d_map.columns, d_map.scale
    found = _derivation_failure(cols, dcols, a.dim, a.arity, a.mode, a.dim**a.arity)
    if found is not None:
        xs, lhs, rhs = found
        found = _tuple_witness(tensor.power_shape(a.dim, a.arity).multi(xs), lhs, rhs, scale * dscale, a.mode)
    rb.record_witness("derivation-law", found)
    return rb.build()


# -- adjoints and exponentials ----------------------------------------


def _terms(a: NLeibnizAlgebra, vectors, first: int):
    """(key, out, factor) for each bracket term key -> out, factor the left product of the coefficients
    in ``vectors`` of its arguments first..; a term stops at its first missing or zero coefficient."""
    one = scalars.one(a.mode)
    for key, out in a.bracket.items():
        factor = one
        for vec, idx in zip(vectors, key[first:]):
            x = vec.get(idx)
            if not x:
                break
            factor *= x
        else:
            if factor:  # a float product can underflow to zero
                yield key, out, factor


def ad(a: NLeibnizAlgebra, ys) -> TensorOperator:
    """The right translation x -> [x, y_1, ..., y_{n-1}] as a dim x dim matrix."""
    ys = [dict(y) for y in ys]
    if len(ys) != a.arity - 1:
        raise SchemaError(f"ad needs {a.arity - 1} vectors, got {len(ys)}")
    entries = {}
    for key, out, factor in _terms(a, ys, 1):
        for j, c in out.items():
            entries[(j, key[0])] = entries.get((j, key[0]), 0) + factor * c
    shp = TensorShape((a.dim,))
    return TensorOperator(shp, shp, entries, a.mode, validate=False)


def bracket_operator(a: NLeibnizAlgebra) -> TensorOperator:
    """The bracket as a linear map L^(x)n -> L."""
    dom = tensor.power_shape(a.dim, a.arity)
    entries = {}
    for key, out in a.bracket.items():
        col = dom.flat(key)
        for j, c in out.items():
            entries[(j, col)] = c
    return TensorOperator(dom, TensorShape((a.dim,)), entries, a.mode, validate=False)


def exp_ad(a: NLeibnizAlgebra, ys) -> TensorOperator:
    """exp of the adjoint at ys, ``tensor.exp(ad(a, ys))``, in the algebra's
    mode: exact mode demands that this adjoint be nilpotent, and float mode
    sums the series up to a term below 1e-12, for at most 64 terms."""
    return tensor.exp(ad(a, ys))


# -- constructions -----------------------------------------------------


def require_binary(leib: NLeibnizAlgebra):
    """Refuse a bracket that is not binary, whatever its laws: nbracket_from_leibniz nests a Leibniz bracket."""
    if leib.arity != 2:
        raise SchemaError("nbracket_from_leibniz starts from a binary bracket")


def nbracket_from_leibniz(leib: NLeibnizAlgebra, n: int, recheck: bool = False) -> NLeibnizAlgebra:
    """Nest a binary Leibniz bracket into an n-ary one:
    [x_1..x_n] = {x_1, {x_2, ... {x_{n-1}, x_n} ...}}."""
    require_binary(leib)
    if n < 2:
        raise SchemaError("target arity must be at least 2")
    leib = certify(leib)
    if n == 2:
        return leib
    one = scalars.one(leib.mode)
    new = {}
    for tpl in itertools.product(range(leib.dim), repeat=n):
        acc = {tpl[-1]: one}
        for idx in reversed(tpl[1:-1]):
            acc = leib.bracket_apply([{idx: one}, acc])
            if not acc:
                break
        if acc:
            acc = leib.bracket_apply([{tpl[0]: one}, acc])
        if acc:
            new[tpl] = acc
    return confirm(NLeibnizAlgebra(n, leib.dim, new, leib.mode, True), check_fundamental_identity, recheck)


def fundamental_leibniz(a: NLeibnizAlgebra, recheck: bool = False) -> NLeibnizAlgebra:
    """The induced Leibniz bracket on the (n-1)-st tensor power:

        {x_1 (x) ... (x) x_{n-1}, y_1 (x) ... (x) y_{n-1}}
            = sum_i x_1 (x) ... (x) [x_i, y_1..y_{n-1}] (x) ... (x) x_{n-1}.

    An input with a central element yields an output whose central
    element is its (n-1)-st tensor power.
    """
    refuse_uncertified(a, "fundamental_leibniz")
    n, d = a.arity, a.dim
    shp = tensor.power_shape(d, n - 1)
    new = {}
    for key, out in a.bracket.items():
        head, ys = key[0], key[1:]
        yflat = shp.flat(ys)
        for slot in range(n - 1):
            for context in itertools.product(range(d), repeat=n - 2):
                xs = context[:slot] + (head,) + context[slot:]
                xflat = shp.flat(xs)
                vec = new.setdefault((xflat, yflat), {})
                for j, c in out.items():
                    target = shp.flat(xs[:slot] + (j,) + xs[slot + 1 :])
                    vec[target] = vec.get(target, 0) + c
    central = None if a.central is None else tensor.tensor_vector([a.central] * (n - 1), shp, a.mode)
    return confirm(NLeibnizAlgebra(2, shp.total, new, a.mode, True, central), check_fundamental_identity, recheck)


def unit_extension(a: NLeibnizAlgebra) -> NLeibnizAlgebra:
    """k (+) L, basis 0 the unit (1, 0): the bracket ignores the scalar parts,
    [[(l_1,x_1), ...]] = (0, [x_1..x_n]), and the central element is (1, 0).
    It satisfies the fundamental identity exactly when ``a`` does, so it is
    certified exactly when ``a`` is; any central element of ``a`` is dropped."""
    new = {tuple(i + 1 for i in key): {j + 1: v for j, v in out.items()} for key, out in a.bracket.items()}
    return NLeibnizAlgebra(a.arity, a.dim + 1, new, a.mode, a.certified, {0: scalars.one(a.mode)})


def adjoin_unit(a: NLeibnizAlgebra, recheck: bool = False) -> NLeibnizAlgebra:
    """The unit extension k (+) L of a certified algebra, rechecked on ``recheck``."""
    refuse_uncertified(a, "adjoin_unit")
    return confirm(unit_extension(a), check_fundamental_identity, recheck)
