"""Builders and verifiers for Yang-Baxter and higher Yang-Baxter operators.

With E_i = Id^(x)i (x) S (x) Id^(x)(n-1-i) on V^(x)(2n-1), the right
n-Yang-Baxter equation asks (in order of application, first to last)

    E_0, E_{n-1}, E_{n-2}, ..., E_1, E_0
        =  E_{n-1}, E_{n-2}, ..., E_1, E_0, E_{n-1}

and the left variant mirrors the interior order.  For n = 2 both reduce
to the Yang-Baxter equation (R (x) Id)(Id (x) R)(R (x) Id) =
(Id (x) R)(R (x) Id)(Id (x) R).  A solution that holds but is not
invertible is a pre-operator; reports keep the two facts separate.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import operator
import time
from dataclasses import dataclass

from . import scalars, tensor
from .errors import PreconditionError, SchemaError, ShapeMismatchError, VerdictDisagreementError
from .nleibniz import (
    NLeibnizAlgebra,
    adjoin_unit,
    bracket_operator,
    check_fundamental_identity,
    fundamental_leibniz,
    is_central,
    unit_extension,
)
from .nrack import FiniteGroup, conjugation_nrack
from .reports import ReportBuilder, column_witness, difference_witness, first_difference, refuse_uncertified
from .setsol import braid_sides, braid_words, check_dim_cap
from .tensor import TensorOperator, TensorShape, tensor_many

#: default cap on the dimension d^(2n-1) of the verification space
DEFAULT_DIM_CAP = 2**20


@dataclass(frozen=True)
class YBReport:
    """Outcome of one (n-)Yang-Baxter verification."""

    equation: str  # ybe | n_ybe_right | n_ybe_left
    n: int
    dim: int  # the factor dimension d
    holds: bool
    invertible: bool
    witness: object = None  # basis column index where the sides differ
    nnz: int = 0
    verification_dim: int = 0
    elapsed_ms: float = 0.0

    @property
    def is_operator(self) -> bool:
        """True for a genuine operator, not just a pre-operator."""
        return self.holds and self.invertible

    def to_json(self):
        return {
            "equation": self.equation,
            "n": self.n,
            "dim": self.dim,
            "holds": self.holds,
            "invertible": self.invertible,
            "witness": self.witness,
            "nnz": self.nnz,
            "verification_dim": self.verification_dim,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }


def _factor_dim(s: TensorOperator, n: int) -> int:
    total = s.domain_shape.total
    dims = s.domain_shape.factor_dims
    if len(dims) == n and len(set(dims)) == 1:
        return dims[0]
    d = round(total ** (1.0 / n))
    for cand in (d - 1, d, d + 1):
        if cand >= 1 and cand**n == total:
            return cand
    raise ShapeMismatchError(f"operator dimension {total} is not an n-th power for n={n}")


#: basis columns the index tier carries through a word at a time
BLOCK = 1024


def _word_images(cols, d: int, n: int, k: int, words):
    """Yield (lo, sides, dirty) per block of ``BLOCK`` basis columns lo, ...
    of V^(x)k; letter i of a word applies the n-factor map with columns
    ``cols`` (a list over V^(x)n) to digits i..i+n-1.  A one-entry column
    of S moves an index by a fixed offset, so the index tier sends a clean
    column to {row: value} (empty at value 0), in one (rows, values) pair
    of lists per word in ``sides``.  Any other column of S adds d^k, which
    keeps every digit and marks the index.  Columns marked in either word
    get one sparse image per word in ``dirty[c]`` from the dict tier.  Both
    tiers multiply and sum in the ``compose`` chain's order, bit for bit.
    """
    span, total = d**n, d**k
    single = [len(col) == 1 and 0 < abs(col[0][1]) < math.inf for col in cols]
    coef = [col[0][1] if ok else 1 for col, ok in zip(cols, single)]
    uniform = len({v for v, ok in zip(coef, single) if ok}) <= 1
    unit = next((v for v, ok in zip(coef, single) if ok), 1)
    letters = {}
    for i in {i for word in words for i in word}:
        low = d ** (k - n - i)
        delta = [(col[0][0] - c) * low if ok else total for c, (col, ok) in enumerate(zip(cols, single))]
        letters[i] = low, delta, [[(r * low, v) for r, v in col] for col in cols]
    plans = [[letters[i] for i in word] for word in words]
    for lo in range(0, total, BLOCK):
        block = range(lo, min(lo + BLOCK, total))
        sides, trails, marked = [], [], set()
        for plan in plans:
            xs, vs = list(block), 1 if uniform else [1] * len(block)  # one value if uniform
            trail = [(xs, vs)]  # the index tier before each letter
            for low, delta, _ in plan:
                vs = unit * vs if uniform else [coef[x // low % span] * v for x, v in zip(xs, vs)]
                xs = [x + delta[x // low % span] for x in xs]
                trail.append((xs, vs))
            marked.update(c for c, x in zip(block, xs) if x >= total)
            sides.append((xs, [vs] * len(xs) if uniform else vs))
            trails.append(trail)
        dirty = {c: [_dict_image(trail, plan, c - lo, total, span, uniform) for trail, plan in zip(trails, plans)] for c in sorted(marked)}
        yield lo, sides, dirty


def _dict_image(trail, plan, p: int, total: int, span: int, uniform: bool) -> dict:
    """The dict tier: the sparse image of block column p under one word,
    resumed from the index tier's (index, value) before the letter that
    marked it (or after the last letter), zeros dropped per letter."""
    t = next((t for t, (xs, _) in enumerate(trail) if xs[p] >= total), len(trail)) - 1
    xs, vs = trail[t]
    v = vs if uniform else vs[p]
    vec = {xs[p]: v} if v != 0 else {}
    for low, _, lcols in plan[t:]:
        out = {}
        for x, xv in vec.items():
            mid = x // low % span
            for r, v in lcols[mid]:
                y = x - mid * low + r
                out[y] = out.get(y, 0) + v * xv
        vec = {y: v for y, v in out.items() if v != 0}
    return vec


def _braid_columns(cols, d: int, n: int, side: str):
    """(col, lhs, rhs) for each column where the braid sides on V^(x)(2n-1)
    may differ: clean ones whose lists disagree, and every dirty one."""
    for lo, ((a, u), (b, w)), dirty in _word_images(cols, d, n, 2 * n - 1, braid_words(n, side)):
        if a != b or u != w:
            for c, x, y, p, q in zip(itertools.count(lo), a, b, u, w):
                if (x != y or p != q) and c not in dirty:
                    yield c, {x: p}, {y: q}
        for c, (lhs, rhs) in dirty.items():
            yield c, lhs, rhs


def _word_operator(s: TensorOperator, d: int, n: int, k: int, word, domain_shape, codomain_shape) -> TensorOperator:
    """One word of s on V^(x)k: the ``compose`` chain of the embedded letters."""
    cols = []
    for lo, ((rows, values),), dirty in _word_images(s.columns, d, n, k, [word]):
        for c, row, value in zip(itertools.count(lo), rows, values):
            cols.append(dirty[c][0].items() if c in dirty else [(row, value)])
    return TensorOperator.from_columns(domain_shape, codomain_shape, cols, s.scale ** len(word), s.mode)


def _uniform_monomial(s: TensorOperator):
    """(image, coeff) when every column c of s holds exactly one entry
    s[image[c], c] and all of them equal coeff, the stored value, else None."""
    cols = s.columns  # at least one: every shape has a column
    if any(len(col) != 1 for col in cols) or any(col[0][1] != cols[0][0][1] for col in cols[1:]):
        return None
    return [col[0][0] for col in cols], cols[0][0][1]


def _monomial_witness(image, coeff, d, n, side, mode):
    """The column of ``reports.column_witness`` on the two sides, from index
    maps: the rule of ``reports.first_difference`` specialised to sides with
    one entry per column.

    Both words have n+1 letters, so column c of each side holds the one
    value coeff^(n+1) at one row.  The sides differ at column c iff the rows
    differ and that value is not zero by the rule; the witness is then the
    smallest such c among those whose smaller row is the smallest, found
    by whole-list passes (``list.index`` from the left on each side).
    """
    lhs, rhs = next(braid_sides(image, d, n, (side,)))
    value = coeff
    for _ in range(n):
        value = coeff * value
    if lhs == rhs or first_difference({0: value}, {}, mode) is None:
        return None
    diff = list(map(operator.ne, lhs, rhs))
    row, col = min(min(itertools.compress(ys, diff)) for ys in (lhs, rhs)), len(diff)
    for ys in (lhs, rhs):  # the first differing column at which either side holds row
        with contextlib.suppress(ValueError):
            c = ys.index(row, 0, col)
            while not diff[c]:
                c = ys.index(row, c + 1, col)
            col = c
    return col


def _require_degree(n: int):
    """n is 2 to 63, as every arity: on dimension 1 no cap on d^n bounds it."""
    if not 2 <= n <= 63:
        raise SchemaError(f"n must be between 2 and 63, got {n}")


def verify_nybe(
    s: TensorOperator, n: int, side: str = "right", dim_cap: int = DEFAULT_DIM_CAP
) -> YBReport:
    """Build both sides of the degree-n braid relation on V^(x)(2n-1) and
    compare; at n = 2 this is the Yang-Baxter equation of the module docstring.

    An operator with one nonzero per column, all of them equal, runs
    through the index-map kernel ``setsol.braid_sides`` (words built backwards
    from their last letter around one shared n-letter core); any other
    through the two-tier column kernel ``_word_images``, on integers in exact mode.
    Both give the report of the sparse ``embed`` / ``compose`` chain and
    its ``first_difference``.
    """
    t0 = time.perf_counter()
    _require_degree(n)
    if side not in ("right", "left"):
        raise SchemaError("side must be 'right' or 'left'")
    if s.domain_shape.total != s.codomain_shape.total:
        raise ShapeMismatchError("the operator must be square")
    d = _factor_dim(s, n)
    big = d ** (2 * n - 1)
    check_dim_cap(big, dim_cap)
    monomial = _uniform_monomial(s)
    if monomial is not None:
        image, coeff = monomial
        witness = _monomial_witness(image, coeff, d, n, side, s.mode)
        # a permutation scaled by a usable pivot, as the elimination would find
        invertible = len(set(image)) == len(image) and (s.mode == scalars.EXACT or abs(coeff) > scalars.EPS_CMP)
    else:
        # both words have n+1 letters, so in exact mode both sides carry scale^(n+1)
        wit = column_witness(_braid_columns(s.columns, d, n, side), s.mode)
        witness = None if wit is None else wit["col"]
        invertible = tensor.is_invertible(s)
    return YBReport(
        equation="ybe" if n == 2 else f"n_ybe_{side}",
        n=n,
        dim=d,
        holds=witness is None,
        invertible=invertible,
        witness=witness,
        nnz=s.nnz,
        verification_dim=big,
        elapsed_ms=(time.perf_counter() - t0) * 1000.0,
    )


def reverse_operator(dim: int, k: int, mode=scalars.EXACT) -> TensorOperator:
    """tau: x_1 (x) ... (x) x_k -> x_k (x) ... (x) x_1 on equal factors."""
    return tensor.permutation_operator(
        tensor.power_shape(dim, k), tensor.reverse_permutation(k), mode
    )


def cyclic_operator(dim: int, k: int, mode=scalars.EXACT) -> TensorOperator:
    """F: x_1 (x) ... (x) x_k -> x_2 (x) ... (x) x_k (x) x_1."""
    return tensor.permutation_operator(
        tensor.power_shape(dim, k), tensor.cyclic_permutation(k), mode
    )


# -- operators from (central) Leibniz structures ------------------------


def require_central_element(cl: NLeibnizAlgebra) -> None:
    """Refuse an algebra without the distinguished element a braiding needs, whatever its laws."""
    if cl.central is None:
        raise SchemaError("expected a central n-Leibniz algebra")


def r1_from_nleibniz(a: NLeibnizAlgebra) -> TensorOperator:
    """Braiding on (k (+) L^(x)(n-1))^(x)2, through the induced Leibniz
    bracket on the tensor power with a unit adjoined."""
    refuse_uncertified(a, "r1_from_nleibniz")
    return nyb_from_central_nleibniz(adjoin_unit(fundamental_leibniz(a)))


def r2_from_nleibniz(a: NLeibnizAlgebra) -> TensorOperator:
    """Braiding on ((k (+) L)^(x)(n-1))^(x)2, through the unit-adjoined
    algebra's induced Leibniz bracket."""
    refuse_uncertified(a, "r2_from_nleibniz")
    return nyb_from_central_nleibniz(fundamental_leibniz(adjoin_unit(a)))


def eta_intertwiner(a: NLeibnizAlgebra):
    """The injective map k (+) L^(x)(n-1) -> (k (+) L)^(x)(n-1) sending the
    unit to the unit power and a pure tensor to the tensor of embedded
    factors, together with its verification report: injectivity,
    central-Leibniz-homomorphism, and the intertwining of the two
    braidings R2 o (eta (x) eta) = (eta (x) eta) o R1.
    """
    refuse_uncertified(a, "eta_intertwiner")
    d, n, mode = a.dim, a.arity, a.mode
    w_central = adjoin_unit(fundamental_leibniz(a))
    v_central = fundamental_leibniz(adjoin_unit(a))
    wdim = 1 + d ** (n - 1)
    small = tensor.power_shape(d, n - 1)
    bigshape = tensor.power_shape(d + 1, n - 1)
    one = scalars.one(mode)
    entries = {(0, 0): one}
    for multi in itertools.product(range(d), repeat=n - 1):
        entries[(bigshape.flat(tuple(i + 1 for i in multi)), 1 + small.flat(multi))] = one
    eta = TensorOperator(TensorShape((wdim,)), TensorShape((bigshape.total,)), entries, mode)

    rb = ReportBuilder("eta")
    rb.record("injectivity", tensor.column_rank(eta) == wdim)
    bw = bracket_operator(w_central)
    bv = bracket_operator(v_central)
    wit = difference_witness(eta @ bw, bv @ tensor_many([eta, eta]))
    central = first_difference(eta.apply(w_central.central), v_central.central, mode) is None
    rb.record("central-leibniz-homomorphism", wit is None and central, wit)
    r1 = nyb_from_central_nleibniz(w_central)
    r2 = nyb_from_central_nleibniz(v_central)
    ee = tensor_many([eta, eta])
    rb.record_witness("intertwining", difference_witness(r2 @ ee, ee @ r1))
    return eta, rb.build()


def nyb_from_central_nleibniz(cl: NLeibnizAlgebra, side: str = "right") -> TensorOperator:
    """The degree-n braiding of a central n-Leibniz algebra:

        S(x_1 (x) ... (x) x_n) = x_2 (x) ... (x) x_n (x) x_1
                                  + 1^(x)(n-1) (x) [x_1, ..., x_n],

    at n = 2 the braiding R(x (x) y) = y (x) x + 1 (x) {x,y} of a central
    Leibniz algebra.  side="left" builds the mirror operator from the
    argument-reversed bracket: S_l = x_n (x) x_1 (x) ... (x) x_{n-1}
    + [...] (x) 1^(x)(n-1), a solution of the left-variant equation.
    """
    require_central_element(cl)
    refuse_uncertified(cl, "a central n-Leibniz construction")
    if not is_central(cl, cl.central):
        raise PreconditionError("the distinguished element is not central")
    if side not in ("right", "left"):
        raise SchemaError("side must be 'right' or 'left'")
    return _nyb_formula(cl, side)


def nyb_iff_nleibniz(bracket: NLeibnizAlgebra, dim_cap: int = DEFAULT_DIM_CAP):
    """Build S on (k (+) L)^(x)n from an arbitrary n-linear bracket and
    return (S, its n-YB report, the bracket's fundamental-identity report);
    at n = 2, R~ and the Leibniz identity.

    The theorem forces the verdicts to agree; disagreement raises."""
    s = _nyb_formula(unit_extension(bracket))
    report = verify_nybe(s, bracket.arity, "right", dim_cap)
    fi = check_fundamental_identity(bracket)
    if report.is_operator != fi.passed:
        raise VerdictDisagreementError(
            "the n-Yang-Baxter verdict disagrees with the fundamental-identity verdict"
        )
    return s, report, fi


def _nyb_formula(cl: NLeibnizAlgebra, side: str = "right") -> TensorOperator:
    """The degree-n braiding formula of either side without certifying the bracket first."""
    d, n, mode = cl.dim, cl.arity, cl.mode
    shp = tensor.power_shape(d, n)
    # the central power 1^(x)(n-1) is one factor of dim d^(n-1), so each entry is
    # (power coefficient) * (bracket coefficient) on both sides, in float mode too
    units = tensor.tensor_vector([cl.central] * (n - 1), tensor.power_shape(d, n - 1), mode)
    if side == "right":
        shift, bracket = tensor.cyclic_permutation(n), cl
        pair = tensor.shape(d ** (n - 1), d)
    else:
        shift, bracket = tuple(range(1, n)) + (0,), cl.op_reversed()
        pair = tensor.shape(d, d ** (n - 1))
    entries = {}
    for key, out in bracket.bracket.items():
        col = shp.flat(key)
        factors = [units, out] if side == "right" else [out, units]
        for row, v in tensor.tensor_vector(factors, pair, mode).items():
            entries[(row, col)] = v
    return tensor.permutation_operator(shp, shift, mode) + TensorOperator(shp, shp, entries, mode)


def nyb_from_ybe(r: TensorOperator, n: int, dim_cap: int = DEFAULT_DIM_CAP) -> TensorOperator:
    """Lift a Yang-Baxter operator to degree n on the same space:
    S_n = (Id^(x)(n-2) (x) R) ... (Id (x) R (x) Id^(x)(n-3)) (R (x) Id^(x)(n-2)),
    applied left to right."""
    _require_degree(n)
    base = verify_nybe(r, 2, "right", dim_cap)
    if not base.is_operator:
        raise PreconditionError("input is not a Yang-Baxter operator", base.to_json())
    if n == 2:
        return r
    d = _factor_dim(r, 2)
    dims = r.domain_shape.factor_dims  # the shapes of the embedded first and last letters
    dom, cod = TensorShape(dims + (d,) * (n - 2)), TensorShape((d,) * (n - 2) + dims)
    return _word_operator(r, d, 2, n, range(n - 1), dom, cod)


def ybe_from_nyb(s: TensorOperator, n: int, dim_cap: int = DEFAULT_DIM_CAP) -> TensorOperator:
    """Descend a degree-n operator to a Yang-Baxter operator on V^(x)(n-1):
    S~ = (S (x) Id^(x)(n-2)) ... (Id^(x)(n-2) (x) S), applied right to left,
    read as a map on (V^(x)(n-1))^(x)2."""
    base = verify_nybe(s, n, "right", dim_cap)
    if not base.is_operator:
        raise PreconditionError("input is not an n-Yang-Baxter operator", base.to_json())
    d = _factor_dim(s, n)
    pair = tensor.power_shape(d ** (n - 1), 2)
    return _word_operator(s, d, n, 2 * n - 2, range(n - 2, -1, -1), pair, pair)


def conjugate_nyb(s: TensorOperator, phi: TensorOperator, n: int) -> TensorOperator:
    """S_phi = (phi^{-1})^(x)n o S o phi^(x)n; solutions are closed under this."""
    if not phi.is_square():
        raise ShapeMismatchError("phi must be square")
    phi_inv = tensor.invert(phi)  # raises SingularMatrixError for singular phi
    return tensor_many([phi_inv] * n) @ s @ tensor_many([phi] * n)


def group_algebra_nyb(group: FiniteGroup, n: int) -> TensorOperator:
    """The degree-n braiding on k[G]:
    g_1 (x) ... (x) g_n -> g_2 (x) ... (x) g_n (x) (g_n ... g_2 g_1 g_2^{-1} ... g_n^{-1}),
    the braiding of the linearized conjugation n-rack: column x is the
    single entry (x_2..x_n, <x>), read from ``conjugation_nrack``.
    """
    _require_degree(n)
    m = group.size
    tail, shp = m ** (n - 1), tensor.power_shape(m, n)
    cols = [[(x % tail * m + v, 1)] for x, v in enumerate(conjugation_nrack(group, n).table)]
    return TensorOperator.from_columns(shp, shp, cols, 1, scalars.EXACT)
