"""Finite n-racks as operation tables, plus the vector-space n-rack of an
n-Leibniz algebra.

An n-rack is a set with an n-ary operation <x_1, ..., x_n> that is
self-distributive,

    <<x_1..x_n>, y_1..y_{n-1}> = <<x_1, y>, <x_2, y>, ..., <x_n, y>>,

and whose right translations <-, y_1..y_{n-1}> are bijections.  Tables
are total and admit uncertified candidates so that enumeration can
iterate raw tables; `check_nrack` certifies.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import scalars, tensor
from .errors import (
    CapExceededError,
    NotNilpotentError,
    PreconditionError,
    SchemaError,
    SeriesNotConvergedError,
    VerdictDisagreementError,
)
from .nleibniz import NLeibnizAlgebra, exp_ad, fundamental_leibniz
from .reports import ReportBuilder, VerificationReport, certified, confirm, first_difference, refuse_uncertified
from .tensor import flat_index

#: the errors of an adjoint without an exponential in its mode; the grid walks skip it
_NO_EXP = (NotNilpotentError, SeriesNotConvergedError)

RIGHT = "right"
LEFT = "left"

#: krack_from_power refuses output tables beyond this many entries
CARRIER_CAP = 10**6


@dataclass(frozen=True)
class FiniteNRack:
    """Total n-ary operation table on {0..size-1}; flat, first argument most significant."""

    size: int
    arity: int
    table: tuple
    side: str = RIGHT
    certified: bool = False

    def __post_init__(self):
        if self.size < 1 or self.arity < 2:
            raise SchemaError("need size >= 1 and arity >= 2")
        if self.side not in (RIGHT, LEFT):
            raise SchemaError(f"side must be 'right' or 'left', got {self.side!r}")
        table = tuple(self.table)
        if len(table) != self.size**self.arity:
            raise SchemaError(
                f"table has {len(table)} entries, expected {self.size**self.arity} (tables must be total)"
            )
        object.__setattr__(self, "table", scalars.int_table(table, self.size, "table"))

    def apply(self, args) -> int:
        return self.table[flat_index(args, self.size)]

    def translation(self, ys) -> tuple:
        """The right translation x -> <x, y_1..y_{n-1}> as a tuple over x."""
        return self.table[flat_index(ys, self.size) :: self.size ** (self.arity - 1)]

    def reversed_args(self) -> "FiniteNRack":
        """Swap argument order; turns a right structure into a left one and back."""
        side = LEFT if self.side == RIGHT else RIGHT
        table = tuple(map(self.table.__getitem__, tensor.digit_reversal(self.size, self.arity)))
        return FiniteNRack(self.size, self.arity, table, side, self.certified)

    def as_certified(self) -> "FiniteNRack":
        return FiniteNRack(self.size, self.arity, self.table, self.side, True)


def from_function(size: int, arity: int, fn, side=RIGHT, certified=False) -> FiniteNRack:
    if arity < 2:  # before fn sees a tuple of the wrong length
        raise SchemaError("need arity >= 2")
    table = tuple(itertools.starmap(fn, itertools.product(range(size), repeat=arity)))
    return FiniteNRack(size, arity, table, side, certified)


def cyclic_rack(size: int) -> FiniteNRack:
    """x <| y = x + 1 mod size; for size 2 this is the flip rack."""
    return from_function(size, 2, lambda x, y: (x + 1) % size, certified=True)


# -- groups ------------------------------------------------------------


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group given by its multiplication table; axioms verified at construction."""

    size: int
    mul: tuple
    inv: tuple = field(init=False)
    identity: int = field(init=False)

    def __post_init__(self):
        mul, identity, inv, bad = _group_axioms(self.size, self.mul)
        if identity is None:
            raise PreconditionError("no identity element")
        if None in inv:
            raise PreconditionError(f"element {inv.index(None)} has no inverse")
        if bad is not None:
            raise PreconditionError(f"multiplication not associative at {bad}")
        object.__setattr__(self, "mul", mul)
        object.__setattr__(self, "inv", tuple(inv))
        object.__setattr__(self, "identity", identity)


def _group_axioms(size: int, mul):
    """Check that mul is a size x size table over range(size), then return
    (table as a tuple of rows, identity or None, inverses with None where
    missing, first non-associative triple or None)."""
    mul = tuple(map(tuple, mul))
    if len(mul) != size or any(len(row) != size for row in mul):
        raise SchemaError("multiplication table must be size x size")
    mul = tuple(scalars.int_table(row, size, "multiplication table") for row in mul)
    identity = next(
        (e for e in range(size) if all(mul[e][x] == x and mul[x][e] == x for x in range(size))),
        None,
    )
    inv = [None] * size
    if identity is not None:
        for x in range(size):
            inv[x] = next(
                (y for y in range(size) if mul[x][y] == identity and mul[y][x] == identity), None
            )
    bad = next(
        (
            (a, b, c)
            for a, b, c in itertools.product(range(size), repeat=3)
            if mul[mul[a][b]][c] != mul[a][mul[b][c]]
        ),
        None,
    )
    return mul, identity, inv, bad


def check_group_table(size: int, mul) -> VerificationReport:
    """Group axioms as a report instead of a construction-time error."""
    rb = ReportBuilder(f"group(size={size})")
    _, identity, inv, bad = _group_axioms(size, mul)
    rb.record("identity", identity is not None)
    if identity is not None:
        missing = inv.index(None) if None in inv else None
        rb.record("inverses", missing is None, None if missing is None else {"element": missing})
    else:
        rb.skip("inverses", "no identity")
    rb.record("associativity", bad is None, None if bad is None else {"triple": list(bad)})
    return rb.build()


def symmetric_group(k: int) -> FiniteGroup:
    """S_k on permutation tuples in lexicographic order; (p*q)(i) = p(q(i))."""
    elems = sorted(itertools.permutations(range(k)))
    index = {p: i for i, p in enumerate(elems)}
    mul = tuple(
        tuple(index[tuple(p[q[i]] for i in range(k))] for q in elems) for p in elems
    )
    return FiniteGroup(len(elems), mul)


def conjugation_nrack(group: FiniteGroup, arity: int) -> FiniteNRack:
    """<x_1, ..., x_n> = x_n ... x_2 x_1 x_2^{-1} ... x_n^{-1}."""

    def op(*args):
        acc = args[0]
        for x in args[1:]:
            acc = group.mul[group.mul[x][acc]][group.inv[x]]
        return acc

    return from_function(group.size, arity, op, certified=True)


# -- verification ------------------------------------------------------


def distributivity_blocks(table, m: int, n: int):
    """The right translations table[b::m^(n-1)] of an n-ary table on m elements in the flat
    order of ys; the distinct ones in the order of their first ys; and self-distributivity as
    block(x_1) = (lhs, rhs), flat lists over (x_2..x_n, j) for the j-th distinct translation:
    lhs <<xs>, ys>, rhs <<x_1, ys>, <x_2, ys>, ...>, built one x_1 at a time on demand."""
    ncols = m ** (n - 1)
    rows = [table[v * ncols : (v + 1) * ncols] for v in range(m)]  # rows[v][b] = <v, ys>
    translations = [table[b::ncols] for b in range(ncols)]
    distinct = list(dict.fromkeys(translations))
    cols = list(zip(*distinct))  # cols[v][j] = <v, ys> at the j-th distinct translation
    moved = [[0] * len(distinct)]  # moved[r][j]: flat index of (<r_1, ys>, ..., <r_{n-1}, ys>), r_i the digits of r
    for _ in range(n - 1):
        moved = [[p * m + v for p, v in zip(row, cols[d])] for row in moved for d in range(m)]

    def block(x1):
        lhs = list(itertools.chain.from_iterable(map(cols.__getitem__, rows[x1])))
        return lhs, [rows[v][p] for row in moved for v, p in zip(cols[x1], row)]
    return translations, distinct, block


def check_nrack(t: FiniteNRack) -> VerificationReport:
    """Self-distributivity over all m^(2n-1) tuples, bijectivity of every right
    translation, and the translation-map assignment being a rack homomorphism
    into the conjugation rack of Sym(X).  Each witness is the first failure
    in lexicographic order.

    With M = m^(n-1), the right translation by ys (flat index b) is
    table[b::M].  Both laws see ys only through that column, so they run
    once per distinct column, at its first ys, which fails wherever a later
    ys with it does, with the same sides.  Self-distributivity runs as flat
    index lists, one block of M·k tuples per leading x_1 for k distinct
    columns, so a table that fails early pays for few blocks.  Left-side
    tables are checked through their argument reversal.

    The homomorphism law t_{xbar <| ybar} o t_ybar = t_ybar o t_xbar is
    self-distributivity at (i, xbar, ybar), so it passes unevaluated when
    the first two laws hold (t_ybar is then invertible) and is skipped otherwise.
    """
    if t.side == LEFT:
        inner = check_nrack(t.reversed_args())
        return VerificationReport("left-nrack(via reversal)", inner.checks)
    rb = ReportBuilder("nrack")
    m, n, ncols = t.size, t.arity, t.size ** (t.arity - 1)  # one translation column per ys
    translations, distinct, block = distributivity_blocks(t.table, m, n)
    k, witness = len(distinct), None
    for x1, (lhs, rhs) in enumerate(map(block, range(m))):
        if lhs != rhs:
            c = next(c for c, (a, b) in enumerate(zip(lhs, rhs)) if a != b)
            b = translations.index(distinct[c % k])
            tpl = tensor.power_shape(m, 2 * n - 1).multi((x1 * ncols + c // k) * ncols + b)
            witness = {"tuple": list(tpl), "lhs": lhs[c], "rhs": rhs[c]}
            break
    distributive = rb.record("self-distributivity", witness is None, witness)

    tr, witness = next((tr for tr in distinct if len(set(tr)) != m), None), None
    if tr is not None:
        ys = tensor.power_shape(m, n - 1).multi(translations.index(tr))
        witness = {"translation": list(ys), "image": list(tr)}
    bijective = rb.record("translation-bijectivity", tr is None, witness)

    if distributive and bijective:
        rb.record("translation-rack-homomorphism", True)
    else:
        rb.skip("translation-rack-homomorphism", "rack axioms failed")
    return rb.build()


def certify(t: FiniteNRack) -> FiniteNRack:
    """The table, certified by check_nrack unless it already is."""
    return certified(t, check_nrack, "table is not an n-rack")


# -- constructions on tables -------------------------------------------


def require_binary(r: FiniteNRack):
    """Refuse a table that is not binary, whatever its laws: nrack_from_rack folds a rack."""
    if r.arity != 2:
        raise SchemaError("nrack_from_rack starts from a binary rack")


def nrack_from_rack(r: FiniteNRack, arity: int, recheck: bool = False) -> FiniteNRack:
    """Fold a rack into an n-rack: <x_1..x_n> = (...((x_1 <| x_2) <| x_3)...) <| x_n."""
    require_binary(r)
    refuse_uncertified(r, "nrack_from_rack")

    def op(*args):
        acc = args[0]
        for x in args[1:]:
            acc = r.apply((acc, x))
        return acc

    return confirm(from_function(r.size, arity, op, certified=True), check_nrack, recheck)


def extend_rack_by_op(r: FiniteNRack, b: FiniteNRack, recheck: bool = False) -> FiniteNRack:
    """Extend a rack by an equivariant n-ary operation b into the (n+1)-rack
    <<x_1, ..., x_{n+1}>> = x_1 <| b(x_2, ..., x_{n+1}).

    Equivariance b(x_1..x_n) <| y = b(x_1 <| y, ..., x_n <| y) is checked
    on all tuples first.
    """
    if r.arity != 2:
        raise SchemaError("the extending structure must be a binary rack")
    if r.size != b.size:
        raise SchemaError("rack and operation must share the carrier")
    refuse_uncertified(r, "extend_rack_by_op")
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

    return confirm(from_function(m, b.arity + 1, op, certified=True), check_nrack, recheck)


def combine_compatible(rm: FiniteNRack, rn: FiniteNRack, recheck: bool = False) -> FiniteNRack:
    """Merge compatible m-ary and n-ary racks on one carrier into an
    (m+n-1)-rack <<x_1..x_{m+n-1}>> = <<x_1..x_m>_first, x_{m+1}, ...>_second.

    Compatibility: every right translation of each rack is an
    automorphism of the other.
    """
    if rm.size != rn.size:
        raise SchemaError("racks must share the carrier")
    refuse_uncertified(rm, "combine_compatible")
    refuse_uncertified(rn, "combine_compatible")
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

    return confirm(from_function(m, rm.arity + rn.arity - 1, op, certified=True), check_nrack, recheck)


def krack_from_power(t: FiniteNRack, k: int, recheck: bool = False) -> FiniteNRack:
    """Feed an ((n-1)(k-1)+1)-ary rack blockwise to get a k-rack on X^(n-1).

    Block i of the output operation is
    <x_{1,i}, x_{2,1}, ..., x_{2,n-1}, ..., x_{k,1}, ..., x_{k,n-1}>;
    at k = 2 the induced rack on X^(n-1) of an n-rack,
    (x_1..x_{n-1}) <| (y_1..y_{n-1}) = (<x_i, y_1..y_{n-1}>)_i.
    The output table holds carrier^k entries, at most ``CARRIER_CAP``.
    """
    refuse_uncertified(t, "krack_from_power")
    if k < 2 or (t.arity - 1) % (k - 1) != 0:
        raise SchemaError(f"arity {t.arity} is not of the form (n-1)(k-1)+1 for k={k}")
    width = (t.arity - 1) // (k - 1)  # n-1
    m = t.size
    carrier = m**width
    if carrier**k > CARRIER_CAP:
        raise CapExceededError("output table would exceed the carrier cap")
    # the trailing blocks, flat in base carrier, index the right translations of t
    ncols = carrier ** (k - 1)
    translations = [t.table[b::ncols] for b in range(ncols)]
    tuples = itertools.product(range(m), repeat=width)
    table = [flat_index([tr[x] for x in head], m) for head in tuples for tr in translations]
    return confirm(FiniteNRack(carrier, k, tuple(table), RIGHT, True), check_nrack, recheck)


# -- vector n-racks from n-Leibniz algebras ----------------------------


@dataclass(frozen=True)
class VectorNRack:
    """The n-rack <x_1..x_n> = exp(ad_{x_2..x_n})(x_1) on the space of a
    certified n-Leibniz algebra.

    Universal validation would need symbolic coefficients, so
    self-distributivity is certified on a deterministic sample grid:
    all basis vectors plus all sums of two distinct basis vectors.
    """

    algebra: NLeibnizAlgebra
    mode: str = scalars.EXACT
    _exp_cache: dict = field(default_factory=dict, compare=False, repr=False)

    def sample_grid(self):
        one = scalars.one(self.mode)
        d = self.algebra.dim
        grid = [{i: one} for i in range(d)]
        grid += [{i: one, j: one} for i in range(d) for j in range(i + 1, d)]
        return grid

    def _exp_at(self, ys):
        key = tuple(tuple(sorted(y.items())) for y in ys)
        hit = self._exp_cache.get(key)
        if hit is None:
            hit = exp_ad(self.algebra, ys, self.mode)
            self._exp_cache[key] = hit
        return hit

    def op(self, vectors):
        """<x_1, ..., x_n> on sparse coefficient vectors."""
        if len(vectors) != self.algebra.arity:
            raise SchemaError("wrong number of arguments")
        return self._exp_at(vectors[1:]).apply(vectors[0])



def nrack_from_nleibniz(a: NLeibnizAlgebra, mode=None) -> VectorNRack:
    """Build and grid-validate the vector n-rack of a certified algebra.

    Every basis adjoint needs an exponential: a nilpotent one in exact
    mode, a convergent series in float mode.
    """
    refuse_uncertified(a, "nrack_from_nleibniz")
    rack = VectorNRack(a, mode or a.mode)
    one = scalars.one(rack.mode)
    for key in itertools.product(range(a.dim), repeat=a.arity - 1):
        try:
            rack._exp_at([{i: one} for i in key])
        except _NO_EXP as exc:
            raise type(exc)(f"basis adjoint at {key}: {exc}") from None
    report = validate_vector_nrack(rack)
    if not report.passed:
        raise VerdictDisagreementError(
            "vector n-rack failed self-distributivity on the sample grid", report.witness
        )
    return rack


def validate_vector_nrack(rack: VectorNRack) -> VerificationReport:
    """Self-distributivity of the vector n-rack at every sample-grid tuple.

    The law is linear in x_1, basis vectors lead the grid, and whether a
    tuple is skipped (an adjoint without an exponential) does not depend
    on x_1.  So x_1 runs over the basis only: the first failing tuple has a basis x_1,
    and a walk that passes saw each skip once per basis vector, not once
    per grid point, so its count is rescaled to the whole grid.
    """
    rb = ReportBuilder("vector-nrack")
    a = rack.algebra
    n = a.arity
    grid = rack.sample_grid()
    ok, witness = True, None
    skipped = 0
    for tpl in itertools.product(range(a.dim), *[range(len(grid))] * (2 * n - 2)):
        xs = [grid[i] for i in tpl[:n]]
        ys = [grid[i] for i in tpl[n:]]
        try:
            lhs = rack.op([rack.op(xs)] + ys)
            rhs = rack.op([rack.op([x] + ys) for x in xs])
        except _NO_EXP:
            skipped += 1
            continue
        if first_difference(lhs, rhs, rack.mode) is not None:
            ok, witness = False, {"grid-tuple": list(tpl)}
            break
    rb.record("self-distributivity-on-grid", ok, witness)
    if ok:
        skipped = skipped // a.dim * len(grid)
    if skipped:
        rb.skip("grid-points", f"{skipped} tuples skipped (non-nilpotent adjoint)")
    return rb.build()


def verify_tensor_embedding(a: NLeibnizAlgebra, mode=None) -> VerificationReport:
    """Check that the pure-tensor map (x_1..x_{n-1}) -> x_1 (x) ... (x) x_{n-1}
    carries the componentwise vector n-rack action to the rack of the
    induced Leibniz bracket on the tensor power, on the sample grid.

    Both sides are linear in each x_i, so the grid check is the operator
    identity exp(ad_ys)^(x)(n-1) = exp(ad_{y_1 (x) ... (x) y_{n-1}}), one
    per sampled ys.  Basis vectors lead the grid, so the first failing
    (xs, ys), xs outer, has basis xs: the smallest differing column over
    all ys, then the first ys that differs there.
    """
    refuse_uncertified(a, "verify_tensor_embedding")
    mode = mode or a.mode
    rack = VectorNRack(a, mode)
    fund = fundamental_leibniz(a)
    width = a.arity - 1
    shp = tensor.power_shape(a.dim, width)
    rb = ReportBuilder("tensor-embedding")
    grid = rack.sample_grid()
    best = None  # (column, yi) of the first failure
    for yi in itertools.product(range(len(grid)), repeat=width):
        ys = [grid[i] for i in yi]
        try:
            lhs = tensor.tensor_many([rack._exp_at(ys)] * width)
            rhs = exp_ad(fund, [tensor.tensor_vector(ys, shp, mode)], mode)
        except _NO_EXP:
            continue
        by_column = [{(c, r): v for (r, c), v in op.entries.items()} for op in (lhs, rhs)]
        key = first_difference(*by_column, mode)
        if key is not None and (best is None or key[0] < best[0]):
            best = key[0], yi
            if key[0] == 0:  # no later ys can fail at a smaller column
                break
    witness = None if best is None else {"x": list(shp.multi(best[0])), "y": list(best[1])}
    rb.record_witness("embedding-homomorphism", witness)
    return rb.build()
