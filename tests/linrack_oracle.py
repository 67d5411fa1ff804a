"""The matrix forms of the coalgebra laws and builders, kept as the oracle of ``linrack``.

Each law here composes split ``Fraction`` (or float) matrices with
``tensor.compose_blocks``, ``TensorOperator.permute_codomain`` and
``tensor.tensor_many``, and each builder assembles its operator the same
way.  ``linrack`` evaluates the same laws and builds the same operators
one basis column at a time from the columns of Delta, eps and the
brackets, and must give the same reports and the same entries, bit for
bit in float mode.

``check_linear_nrack_homomorphism`` and ``deal_factors`` live only here:
no library path calls them, and the tests use them to check maps between
linear n-racks and to deal Sweedler legs.
"""

import braidforge.tensor as T
from braidforge.errors import PreconditionError, SchemaError
from braidforge.reports import ReportBuilder, difference_witness


def deal_factors(n: int) -> tuple:
    """Factor permutation for the shuffle (u_1 v_1 u_2 v_2 ...) -> (u_1..u_n v_1..v_n)."""
    perm = [0] * (2 * n)
    for i in range(n):
        perm[2 * i] = i
        perm[2 * i + 1] = n + i
    return tuple(perm)


def _idc(c):
    return T.identity(T.shape(c.dim), c.mode)


def iterated_delta(c, legs):
    out = _idc(c)
    for k in range(1, legs):
        out = T.compose_blocks([c.delta] + [_idc(c)] * (k - 1), out)
    return out


def check_coalgebra(c):
    rb = ReportBuilder(f"coalgebra(dim={c.dim}, cocommutative={c.cocommutative})")
    idc = _idc(c)
    left = T.compose_blocks([c.delta, idc], c.delta)
    right = T.compose_blocks([idc, c.delta], c.delta)
    rb.record_witness("coassociativity", difference_witness(left, right))
    rb.record_witness("counit-left", difference_witness(T.compose_blocks([c.counit, idc], c.delta), idc))
    rb.record_witness("counit-right", difference_witness(T.compose_blocks([idc, c.counit], c.delta), idc))
    rb.record("cocommutativity-flag", True)
    return rb.build()


def cocommutative(delta):
    return delta.permute_codomain((1, 0)) == delta


def homomorphism_witnesses(l):
    """{"coproduct-homomorphism": witness, "counit-homomorphism": witness},
    the bracket's witness first, then the inverse bracket's."""
    n, base = l.arity, l.base
    maps = (l.bracket, l.inv_bracket)
    split_all = T.tensor_many([base.delta] * n).permute_codomain(deal_factors(n))
    wits = (difference_witness(base.delta @ b, T.compose_blocks([b, b], split_all)) for b in maps)
    coproduct = next(filter(None, wits), None)
    eps_n = T.tensor_many([base.counit] * n)
    wits = (difference_witness(base.counit @ b, eps_n) for b in maps)
    return {"coproduct-homomorphism": coproduct, "counit-homomorphism": next(filter(None, wits), None)}


def tensor_power_coalgebra(base, k):
    """(Delta, eps) of C^(x)k."""
    delta = T.tensor_many([base.delta] * k).permute_codomain(deal_factors(k))
    return delta, T.tensor_many([base.counit] * k)


def linear_rack_on_tensor_power(l):
    """(bracket, inverse bracket) of the induced linear rack on C^(x)(n-1)."""
    c, n, mode = l.base.dim, l.arity, l.base.mode
    idc = T.identity(T.shape(c), mode)
    width = n - 1
    split = T.tensor_many([idc] * width + [iterated_delta(l.base, width)] * width)

    def assemble(op, reverse_vs):
        perm = [0] * (width + width * width)
        for i in range(width):
            perm[i] = i * n
        for j in range(width):
            for leg in range(width):
                slot = (width - j) if reverse_vs else (j + 1)
                perm[width + j * width + leg] = leg * n + slot
        return T.compose_blocks([op] * width, split.permute_codomain(perm))

    return assemble(l.bracket, False), assemble(l.inv_bracket, True)


def fold(r, arity):
    """(bracket, inverse bracket) of the linear rack folded to ``arity``."""
    idc = T.identity(T.shape(r.base.dim), r.base.mode)

    def fold_one(op):
        acc = op
        for _ in range(arity - 2):
            acc = op @ T.tensor_many([acc, idc])
        return acc

    return fold_one(r.bracket), fold_one(r.inv_bracket)


def nrack_braiding(l):
    """(S, S^-1), with PreconditionError when they do not invert each other."""
    c, n, mode = l.base.dim, l.arity, l.base.mode
    idc = T.identity(T.shape(c), mode)
    fwd_split = T.tensor_many([idc] + [l.base.delta] * (n - 1))
    perm = [0] * (2 * n - 1)
    perm[0] = n - 1
    for j in range(n - 1):
        perm[1 + 2 * j] = j
        perm[2 + 2 * j] = n + j
    fwd = T.compose_blocks([idc] * (n - 1) + [l.bracket], fwd_split.permute_codomain(perm))
    bwd_split = T.tensor_many([l.base.delta] * (n - 1) + [idc])
    perm = [0] * (2 * n - 1)
    perm[2 * (n - 1)] = 0
    for j in range(n - 1):
        perm[2 * j] = n + j
        perm[2 * j + 1] = 1 + (n - 2 - j)
    bwd = T.compose_blocks([l.inv_bracket] + [idc] * (n - 1), bwd_split.permute_codomain(perm))
    ident = T.identity(T.power_shape(c, n), mode)
    if fwd @ bwd != ident or bwd @ fwd != ident:
        raise PreconditionError("inverse-mismatch")
    return fwd, bwd


def check_linear_nrack_homomorphism(a, b, f):
    """Whether f is a coalgebra map with f o <...> = <...>' o f^(x)n."""
    if a.arity != b.arity:
        raise SchemaError("arity mismatch")
    rb = ReportBuilder("linear-nrack-homomorphism")
    wit = difference_witness(b.base.delta @ f, T.compose_blocks([f, f], a.base.delta))
    rb.record_witness("coproduct-compatible", wit)
    rb.record_witness("counit-compatible", difference_witness(b.base.counit @ f, a.base.counit))
    wit = difference_witness(f @ a.bracket, b.bracket @ T.tensor_many([f] * a.arity))
    rb.record_witness("bracket-compatible", wit)
    return rb.build()

