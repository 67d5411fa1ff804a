"""The construction primitives as they were written out before each was
defined once, kept as the oracles of ``tensor.exp``, of the bracket-term
walk of ``nleibniz`` and of the table folds of ``nrack``.

- ``exp_nilpotent`` and ``exp_float`` are the two series that ``tensor.exp``
  merges: the exact one sums A^k/k! from the powers A^k until one vanishes,
  the float one scales each term by 1/k until one drops below 1e-12.
- ``bracket_apply`` and ``ad`` each run their own coefficient loop over the
  bracket's terms.
- ``conjugation_nrack``, ``nrack_from_rack``, ``extend_rack_by_op`` and
  ``combine_compatible`` evaluate one closure per tuple through
  ``from_function``, and check equivariance and compatibility per tuple:
  ``extend_rack_by_op`` with the tuple xs outer, ``combine_compatible``
  with the translation ys outer.

``bits`` is what the differential tests compare, floats by their bits.
"""

import itertools
from fractions import Fraction

import braidforge.scalars as sc
import braidforge.tensor as T
from braidforge.errors import NotNilpotentError, PreconditionError, SchemaError, SeriesNotConvergedError, ShapeMismatchError
from braidforge.nrack import from_function


def bits(value):
    """A vector's items, or everything an operator stores, floats by their hex form."""
    exact = lambda pairs: [(k, v.hex() if isinstance(v, float) else v) for k, v in pairs]
    if isinstance(value, dict):
        return exact(value.items())
    return value.domain_shape, value.codomain_shape, value.mode, value.scale, [exact(col) for col in value.columns]


def exp_nilpotent(a):
    if not a.is_square():
        raise ShapeMismatchError("exp needs a square operator")
    if a.mode != sc.EXACT:
        raise SchemaError("exp_nilpotent is exact-mode only")
    n = a.domain_shape.total
    total = T.identity(a.domain_shape, a.mode)
    power = total
    fact = 1
    for k in range(1, n + 1):
        power = power @ a
        if not power.nnz:
            return total
        fact *= k
        total = total + power.scaled(Fraction(1, fact))
    raise NotNilpotentError(f"operator is not nilpotent (A^{n} != 0)")


def exp_float(a):
    if not a.is_square():
        raise ShapeMismatchError("exp needs a square operator")
    a = a.to_float()
    total = T.identity(a.domain_shape, sc.FLOAT)
    term = total
    for k in range(1, 65):
        term = (term @ a).scaled(1.0 / k)
        top = max((abs(v) for col in term.columns for _, v in col), default=0.0)
        if top < 1e-12:
            return total
        total = total + term
    raise SeriesNotConvergedError(f"exp series term still {top:.3g} after 64 terms")


def bracket_apply(alg, vectors):
    out = {}
    z = sc.zero(alg.mode)
    for key, coeffs in alg.bracket.items():
        factor = sc.one(alg.mode)
        for vec, idx in zip(vectors, key):
            x = vec.get(idx)
            if x is None:
                factor = None
                break
            factor *= x
        if factor is None or factor == 0:
            continue
        for j, c in coeffs.items():
            s = out.get(j, z) + factor * c
            if s == 0:
                out.pop(j, None)
            else:
                out[j] = s
    return out


def ad(alg, ys):
    ys = [dict(y) for y in ys]
    entries = {}
    for key, out in alg.bracket.items():
        factor = sc.one(alg.mode)
        for vec, idx in zip(ys, key[1:]):
            x = vec.get(idx)
            if x is None:
                factor = None
                break
            factor *= x
        if factor is None or factor == 0:
            continue
        for j, c in out.items():
            entries[(j, key[0])] = entries.get((j, key[0]), 0) + factor * c
    shp = T.TensorShape((alg.dim,))
    return T.TensorOperator(shp, shp, entries, alg.mode, validate=False)


def conjugation_nrack(group, arity):
    def op(*args):
        acc = args[0]
        for x in args[1:]:
            acc = group.mul[group.mul[x][acc]][group.inv[x]]
        return acc

    return from_function(group.size, arity, op, certified=True)


def nrack_from_rack(r, arity):
    def op(*args):
        acc = args[0]
        for x in args[1:]:
            acc = r.apply((acc, x))
        return acc

    return from_function(r.size, arity, op, certified=True)


def extend_rack_by_op(r, b):
    m = r.size
    for tpl in itertools.product(range(m), repeat=b.arity + 1):
        xs, y = tpl[:-1], tpl[-1]
        lhs = r.apply((b.apply(xs), y))
        rhs = b.apply(tuple(r.apply((x, y)) for x in xs))
        if lhs != rhs:
            raise PreconditionError(
                "operation is not equivariant under the rack action",
                {"tuple": list(xs), "y": y, "lhs": lhs, "rhs": rhs},
            )

    def op(*args):
        return r.apply((args[0], b.apply(args[1:])))

    return from_function(m, b.arity + 1, op, certified=True)


def combine_compatible(rm, rn):
    m = rm.size
    for a, b in ((rm, rn), (rn, rm)):
        for ys in itertools.product(range(m), repeat=a.arity - 1):
            tr = a.translation(ys)
            for xs in itertools.product(range(m), repeat=b.arity):
                if tr[b.apply(xs)] != b.apply(tuple(tr[x] for x in xs)):
                    raise PreconditionError(
                        "translation is not an automorphism of the other rack",
                        {"translation": list(ys), "tuple": list(xs)},
                    )

    def op(*args):
        head = rm.apply(args[: rm.arity])
        return rn.apply((head,) + args[rm.arity :])

    return from_function(m, rm.arity + rn.arity - 1, op, certified=True)
