"""Library functions that no CLI path, demo or other library function
reaches, kept for the tests that use them.

They check maps between structures (n-rack and n-Leibniz homomorphisms),
read off a group property, invert a vector n-rack's translation, test an
operator for nilpotency, build the zero operator, the trivial n-rack, the
cyclic group, the zero bracket, basis brackets and basis adjoints, and
extend a Leibniz algebra by an n-bracket.  Each sits on the public API of ``braidforge``
and adds no law of its own.
"""

import itertools
from fractions import Fraction

import braidforge.scalars as sc
import braidforge.tensor as T
from braidforge.errors import PreconditionError, SchemaError, SeriesNotConvergedError, VerdictDisagreementError
from braidforge.nleibniz import (
    NLeibnizAlgebra,
    _tuple_witness,
    ad,
    certify,
    check_fundamental_identity,
    exp_ad,
    is_derivation,
)
from braidforge.nrack import FiniteGroup, from_function
from braidforge.reports import ReportBuilder, confirm, first_difference


def trivial_nrack(size: int, arity: int):
    """<x_1, ..., x_n> = x_1."""
    return from_function(size, arity, lambda *a: a[0], certified=True)


def cyclic_group(k: int):
    mul = tuple(tuple((a + b) % k for b in range(k)) for a in range(k))
    return FiniteGroup(k, mul)


def alternating_group(k: int):
    """A_k on the even permutation tuples in lexicographic order; (p*q)(i) = p(q(i))."""
    pairs = list(itertools.combinations(range(k), 2))
    elems = [p for p in itertools.permutations(range(k)) if sum(p[i] > p[j] for i, j in pairs) % 2 == 0]
    index = {p: i for i, p in enumerate(elems)}
    return FiniteGroup(len(elems), tuple(tuple(index[tuple(p[i] for i in q)] for q in elems) for p in elems))


def zero_algebra(arity: int, dim: int, mode=sc.EXACT):
    return NLeibnizAlgebra(arity, dim, {}, mode, True)


def bracket_basis(a, key) -> dict:
    """[e_{i_1}, ..., e_{i_n}] of an n-Leibniz algebra as a sparse coefficient vector."""
    return a.bracket.get(tuple(key), {})


def ad_basis(a, key):
    """ad at a basis (n-1)-tuple."""
    one = sc.one(a.mode)
    return ad(a, [{int(i): one} for i in key])


def is_nilpotent(a) -> bool:
    if not a.is_square():
        return False
    power = a
    for _ in range(a.domain_shape.total):
        if not power.nnz:
            return True
        power = power @ a
    return not power.nnz


def zero_operator(domain_shape, codomain_shape, mode=sc.EXACT):
    return T.TensorOperator(domain_shape, codomain_shape, {}, mode, validate=False)


def is_abelian(group) -> bool:
    return all(group.mul[a][b] == group.mul[b][a] for a in range(group.size) for b in range(group.size))


def homomorphism_check(a, b, phi) -> bool:
    """Whether the point map phi: X_a -> X_b preserves the operations of two finite n-racks."""
    if a.arity != b.arity:
        raise SchemaError("arity mismatch")
    for xs in itertools.product(range(a.size), repeat=a.arity):
        if phi[a.apply(xs)] != b.apply(tuple(phi[x] for x in xs)):
            return False
    return True


def translation_inverse(rack, ys):
    """exp(-ad_{y_1..y_{n-1}}), the inverse right translation of a vector n-rack (exact mode)."""
    return T.exp(ad(rack.algebra, ys).scaled(-1))


def extend_bracket_by_leibniz(leib, b, recheck: bool = False):
    """Extend a Leibniz algebra by an n-linear bracket b into an (n+1)-ary bracket
    [[x_1..x_{n+1}]] = {x_1, b(x_2..x_{n+1})}.

    Requires every right translation {-, y} of the Leibniz algebra to be
    a derivation of b, checked exhaustively on basis tuples.
    """
    if leib.arity != 2:
        raise SchemaError("the extending algebra must be binary")
    if leib.dim != b.dim or leib.mode != b.mode:
        raise SchemaError("brackets must live on the same space")
    leib = certify(leib)
    one = sc.one(leib.mode)
    for y in range(leib.dim):
        d_map = ad(leib, [{y: one}])
        report = is_derivation(b, d_map)
        if not report.passed:
            raise PreconditionError(
                f"right translation by e_{y} is not a derivation of the given bracket",
                {"y": y, **(report.witness or {})},
            )
    new = {}
    for tpl in itertools.product(range(leib.dim), repeat=b.arity + 1):
        inner = bracket_basis(b, tpl[1:])
        if not inner:
            continue
        outv = leib.bracket_apply([{tpl[0]: one}, inner])
        if outv:
            new[tpl] = outv
    out = NLeibnizAlgebra(b.arity + 1, leib.dim, new, leib.mode, False)
    report = check_fundamental_identity(out)
    if not report.passed:
        raise VerdictDisagreementError(
            "extension passed its preconditions but fails the fundamental identity"
        )
    return confirm(out.as_certified(), check_fundamental_identity, recheck)


def is_homomorphism(a, b, phi):
    """Check that phi preserves brackets, plus the exp-intertwining law
    phi o exp(ad_y) = exp(ad_{phi y}) o phi on basis (n-1)-tuples.

    The intertwining check is skipped (and reported so) when an
    exponential is not computable in the algebras' mode.
    """
    if a.arity != b.arity or a.mode != b.mode:
        raise SchemaError("homomorphism check needs algebras of equal arity and mode")
    if phi.domain_shape.total != a.dim or phi.codomain_shape.total != b.dim:
        raise SchemaError("phi has the wrong shape")
    rb = ReportBuilder("homomorphism")
    exact = phi.mode == sc.EXACT
    phi_cols = [[(r, Fraction(v, phi.scale) if exact else v) for r, v in col] for col in phi.columns]
    phi_basis = [dict(col) for col in phi_cols]
    witness = None
    for tpl in itertools.product(range(a.dim), repeat=a.arity):
        lhs = T.apply_columns(phi_cols, bracket_basis(a, tpl).items())
        rhs = b.bracket_apply([phi_basis[i] for i in tpl])
        if first_difference(lhs, rhs, a.mode) is not None:
            witness = _tuple_witness(tpl, lhs, rhs, 1, a.mode)
            break
    rb.record_witness("bracket-preserving", witness)

    one = sc.one(a.mode)
    exact = a.mode == sc.EXACT
    computable = True
    if exact:
        for key in itertools.product(range(a.dim), repeat=a.arity - 1):
            if not is_nilpotent(ad_basis(a, key)):
                computable = False
                break
            if not is_nilpotent(ad(b, [phi_basis[i] for i in key])):
                computable = False
                break
    if not computable:
        rb.skip("exp-intertwining", "exponential not computable in exact mode (non-nilpotent adjoint)")
        return rb.build()
    ok, witness = True, None
    for key in itertools.product(range(a.dim), repeat=a.arity - 1):
        ys = [{i: one} for i in key]
        try:
            ea = exp_ad(a, ys)
            eb = exp_ad(b, [phi_basis[i] for i in key])
        except SeriesNotConvergedError:
            rb.skip("exp-intertwining", f"series did not converge at basis tuple {list(key)}")
            return rb.build()
        if (phi @ ea) != (eb @ phi):
            ok, witness = False, {"tuple": list(key)}
            break
    rb.record("exp-intertwining", ok, witness)
    return rb.build()
