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
from .setsol import braid_sides, braid_words, check_dim_cap, word_map
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
        return dict(vars(self), elapsed_ms=round(self.elapsed_ms, 3))


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


#: marked basis columns that one dict pass carries through a word
BLOCK = 1024


def _index_form(s: TensorOperator, span: int):
    """(image, coef, unit) of s for ``setsol.word_map``: a plain column (one
    entry, in float mode equal to the first such, so that a float chain keeps
    the ``compose`` order) has its row and value there, any other maps to
    span, the absorbing index; unit is the plain value, None if they differ."""
    cols, exact = s.columns, s.mode == scalars.EXACT
    unit = next((col[0][1] for col in cols if len(col) == 1), 1)
    image = [col[0][0] if len(col) == 1 and (exact or col[0][1] == unit) else span for col in cols]
    coef = [col[0][1] if row < span else unit for col, row in zip(cols, image)]
    return image, coef, unit if len(set(coef)) == 1 else None


def _word_values(image, coef, unit, d: int, n: int, k: int, word):
    """The value each plain path through ``word`` on V^(x)k carries: unit^len
    when uniform, else (exact mode) the product of the values it meets,
    gathered backwards like ``word_map``'s indices; absorbed ones mean nothing."""
    if unit is not None:
        return itertools.repeat(math.prod([unit] * len(word)))
    values = [1] * d**k
    for off in reversed(word):
        met = [v for v in coef for _ in range(d ** (k - n - off))] * d**off
        values = list(map(operator.mul, met, word_map(image, d, n, k, [off], values)))
    return values


def _absorbed(rows, total: int) -> list:
    """The basis columns a word's index list sends to the absorbing index."""
    found = []
    with contextlib.suppress(ValueError):
        while True:
            found.append(rows.index(total, found[-1] + 1 if found else 0, total))
    return found


def _dict_passes(cols, d: int, n: int, k: int, words, marked):
    """(batch, one dict per word) for each ``BLOCK`` marked basis columns of
    V^(x)k: one dict keyed c * d^k + row, whose letter i rewrites digits
    i..i+n-1 through the columns of S in the ``compose`` chain's order of
    products and sums and drops zeros, so float entries are bit for bit."""
    if not marked:
        return
    span, total = d**n, d**k
    lows = {i: d ** (k - n - i) for i in set().union(*words)}
    letters = {i: (low, [[((r - mid) * low, v) for r, v in col] for mid, col in enumerate(cols)]) for i, low in lows.items()}
    for lo in range(0, len(marked), BLOCK):
        batch, vecs = marked[lo : lo + BLOCK], []
        for word in words:
            vec = {c * total + c: 1 for c in batch}
            for low, lcols in map(letters.get, word):
                out = {}
                for x, xv in vec.items():
                    for step, v in lcols[x // low % span]:
                        y = x + step
                        out[y] = out.get(y, 0) + v * xv
                vec = {y: v for y, v in out.items() if v != 0} if 0 in out.values() else out
            vecs.append(vec)
        yield batch, vecs


def _columns(vec: dict, batch, total: int):
    """The image of each column of ``batch`` in a dict pass's dict, in order."""
    image = {c: {} for c in batch}
    for x, v in vec.items():
        image[x // total][x % total] = v
    return image.values()


def _list_witness(lhs, rhs, diff):
    """(row, col) of the smallest entry where sides with one nonzero entry
    per column differ where diff holds, at row min(lhs[c], rhs[c]) by
    ``reports.first_difference``'s rule, or None, by whole-list passes."""
    if not any(diff):
        return None
    row, col = min(min(itertools.compress(ys, diff)) for ys in (lhs, rhs)), len(diff)
    for ys in (lhs, rhs):
        with contextlib.suppress(ValueError):
            c = ys.index(row, 0, col)
            while not diff[c]:
                c = ys.index(row, c + 1, col)
            col = c
    return row, col


def _braid_witness(s: TensorOperator, image, coef, unit, d: int, n: int, side: str):
    """(row, col) of the smallest entry where the braid sides of s differ, or
    None.  Both words have n+1 letters, so a uniform chain's value is the
    same on both sides; the dict pass judges the absorbed columns."""
    k, total = 2 * n - 1, d ** (2 * n - 1)
    lhs, rhs = next(braid_sides(image, d, n, (side,)))
    if unit is None:
        lv, rv = (_word_values(image, coef, unit, d, n, k, word) for word in braid_words(n, side))
        diff = list(map(operator.or_, map(operator.ne, lhs, rhs), map(operator.ne, lv, rv)))
    elif lhs == rhs or first_difference({0: math.prod([unit] * (n + 1))}, {}, s.mode) is None:
        diff = []  # the same rows, or a chain value that is zero by the rule
    else:
        diff = list(map(operator.ne, lhs, rhs))
    if len(lhs) == total:  # nothing absorbed
        return _list_witness(lhs, rhs, diff)
    marked = sorted({*_absorbed(lhs, total), *_absorbed(rhs, total)})
    for c in marked if diff else ():  # judged by the dict pass
        diff[c] = False
    passes = _dict_passes(s.columns, d, n, k, braid_words(n, side), marked)
    columns = (zip(batch, _columns(a, batch, total), _columns(b, batch, total)) for batch, (a, b) in passes if a != b)
    dirty = column_witness(itertools.chain.from_iterable(columns), s.mode)
    return min(filter(None, (dirty and (dirty["row"], dirty["col"]), _list_witness(lhs, rhs, diff))), default=None)


def _word_operator(s: TensorOperator, d: int, n: int, k: int, word, domain_shape, codomain_shape) -> TensorOperator:
    """One word of s on V^(x)k: the ``compose`` chain of the embedded letters."""
    total, (image, coef, unit) = d**k, _index_form(s, d**n)
    rows, dirty = word_map(image, d, n, k, word), {}
    for batch, (vec,) in _dict_passes(s.columns, d, n, k, [word], _absorbed(rows, total)):
        dirty.update(zip(batch, _columns(vec, batch, total)))
    values = _word_values(image, coef, unit, d, n, k, word)
    cols = [dirty[c].items() if row == total else [(row, v)] for c, row, v in zip(range(total), rows, values)]
    return TensorOperator.from_columns(domain_shape, codomain_shape, cols, s.scale ** len(word), s.mode)


def _require_degree(n: int):
    """n is 2 to 63, as every arity: on dimension 1 no cap on d^n bounds it."""
    if not 2 <= n <= 63:
        raise SchemaError(f"n must be between 2 and 63, got {n}")


def verify_nybe(
    s: TensorOperator, n: int, side: str = "right", dim_cap: int = DEFAULT_DIM_CAP
) -> YBReport:
    """Build both sides of the degree-n braid relation on V^(x)(2n-1) and
    compare; at n = 2 this is the Yang-Baxter equation of the module docstring.

    The index lists of ``braid_sides`` carry every path through plain
    columns, the dict pass the others, on integer columns in exact mode: the
    report of the sparse ``embed`` / ``compose`` chain's ``first_difference``.
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
    image, coef, unit = _index_form(s, d**n)
    witness = (_braid_witness(s, image, coef, unit, d, n, side) or (None, None))[1]
    if d**n in image:
        invertible = tensor.is_invertible(s)
    else:  # a permutation scaled by usable pivots, as the elimination would find
        invertible = len(set(image)) == len(image) and (s.mode == scalars.EXACT or abs(unit) > scalars.EPS_CMP)
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
