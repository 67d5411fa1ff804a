"""Sparse linear operators on tensor powers.

Everything downstream (algebra brackets, coalgebra structure maps,
Yang-Baxter operators) is a :class:`TensorOperator`: a sparse matrix
carrying the factor decomposition of its domain and codomain, stored
as one list of columns over one scale, integers in exact mode.  All
operators arising here are permutations plus a few corrections, so
composition cost is proportional to the number of nonzero entries, and
storage to that number plus the domain's dimension.

Flat indices are row-major over the factor list: the first factor is
the most significant digit.  Equality compares total dimensions and
entries; two operators that differ only in how the same total dimension
is split into factors are equal (reinterpretation across splits is
routine, e.g. viewing a map on V^(2n-2) as a map on (V^(n-1))^2).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import reports, scalars
from .errors import (
    CapExceededError,
    SchemaError,
    ShapeMismatchError,
    SingularMatrixError,
    NotNilpotentError,
    SeriesNotConvergedError,
)

#: shapes with total dimension at or above this are rejected at construction
MAX_TOTAL_DIM = 2**31
#: operators on domains with more columns are refused before their column list is allocated
MAX_COLUMNS = 2**24


@dataclass(frozen=True)
class TensorShape:
    """Ordered factor dimensions of a tensor power."""

    factor_dims: tuple
    total: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        dims = tuple(map(scalars.as_int, self.factor_dims))
        object.__setattr__(self, "factor_dims", dims)
        if not dims:
            raise SchemaError("a tensor shape needs at least one factor")
        if any(d < 1 for d in dims):
            raise SchemaError(f"factor dimensions must be positive, got {dims}")
        total = 1
        for d in dims:
            total *= d
            if total >= MAX_TOTAL_DIM:
                raise SchemaError(f"total dimension of {dims} exceeds the 2^31 index cap")
        object.__setattr__(self, "total", total)

    def __len__(self) -> int:
        return len(self.factor_dims)

    def flat(self, multi) -> int:
        """Row-major flat index of a multi-index, one digit per factor."""
        if len(multi) != len(self.factor_dims):
            raise SchemaError(f"multi-index {tuple(multi)} needs {len(self.factor_dims)} digits")
        idx = 0
        for i, d in zip(multi, self.factor_dims):
            if not 0 <= i < d:
                raise SchemaError(f"index {i} out of range for factor of dim {d}")
            idx = idx * d + i
        return idx

    def multi(self, flat: int) -> tuple:
        """Multi-index of a row-major flat index."""
        out = []
        for d in reversed(self.factor_dims):
            out.append(flat % d)
            flat //= d
        return tuple(reversed(out))


def shape(*dims) -> TensorShape:
    return TensorShape(tuple(dims))


def power_shape(d: int, k: int) -> TensorShape:
    return TensorShape((d,) * k) if k else TensorShape((1,))


def flat_index(digits, base: int) -> int:
    """Row-major flat index of digits in one base, for trusted digits:
    unlike :meth:`TensorShape.flat` it checks no range, so hot table
    lookups pay for one loop only."""
    idx = 0
    for a in digits:
        idx = idx * base + a
    return idx


def digit_reversal(base: int, k: int) -> list:
    """rev[x] = the flat index of x's k base-``base`` digits in reverse
    order, built one digit at a time: x's i-th digit from the left has
    weight base^i in rev[x]."""
    rev = [0]
    for i in range(k):
        weights = range(0, base ** (i + 1), base**i)
        rev = [r + w for r in rev for w in weights]
    return rev


def tensor_vector(vecs, shp: TensorShape, mode=scalars.EXACT) -> dict:
    """The sparse product v_1 (x) ... (x) v_k of vectors {index: scalar},
    keyed by flat index in ``shp`` (one factor per vector), exact zeros dropped."""
    if len(vecs) != len(shp):
        raise ShapeMismatchError(f"{len(vecs)} vectors for {len(shp)} factors")
    out = {0: scalars.one(mode)}
    for v, d in zip(vecs, shp.factor_dims):
        out = {key * d + i: c * x for key, c in out.items() for i, x in v.items()}
    return {key: c for key, c in out.items() if c != 0}


def apply_columns(cols, vec) -> dict:
    """The sparse vector sum of w * cols[key] over the (key, w) in vec, for
    columns ``cols`` of (row, value) lists; zeros are kept."""
    out = {}
    for key, w in vec:
        for r, a in cols[key]:
            out[r] = out.get(r, 0) + w * a
    return out


def empty_columns(domain_shape) -> list:
    """One empty column per flat index of the domain, refused above ``MAX_COLUMNS``."""
    if domain_shape.total > MAX_COLUMNS:
        raise CapExceededError(f"an operator on {domain_shape.total} columns exceeds the 2^24 column cap")
    return [[] for _ in range(domain_shape.total)]


def check_entry_range(keys, domain_shape, codomain_shape):
    """Refuse a (row, col) key outside the matrix codomain x domain."""
    nrows, ncols = codomain_shape.total, domain_shape.total
    for r, c in keys:
        if not (0 <= r < nrows and 0 <= c < ncols):
            raise ShapeMismatchError(f"entry ({r},{c}) outside {nrows}x{ncols}")


def kron_columns(f, g, rows: int):
    """The columns of f (x) g, for columns f, g and ``rows`` rows of g."""
    return [[(s * rows + t, a * b) for s, a in fc for t, b in gc] for fc in f for gc in g]


class TensorOperator:
    """A sparse linear map between tensor powers.

    ``columns`` is a list over the domain's flat indices; column c lists
    the (row, value) pairs of its nonzero entries.  In exact mode the
    values are the integers ``scale`` * entry, ``scale`` the lcm of the
    entries' reduced denominators, so every kernel runs on integers; in
    float mode they are the entries themselves and ``scale`` is 1.
    Instances are immutable by convention; every operation returns a
    fresh operator.
    """

    __slots__ = ("domain_shape", "codomain_shape", "columns", "scale", "mode")

    def __init__(self, domain_shape, codomain_shape, entries, mode=scalars.EXACT, validate=True):
        """The operator of a {(row, col): scalar} dict; ``validate`` checks the
        keys against the shapes and coerces the scalars into ``mode``."""
        scalars.check_mode(mode)
        if validate:
            check_entry_range(entries, domain_shape, codomain_shape)
            entries = {k: scalars.coerce(v, mode) for k, v in entries.items()}
        exact = mode == scalars.EXACT
        scale = math.lcm(*(v.denominator for v in entries.values())) if exact else 1
        cols = empty_columns(domain_shape)
        for (r, c), v in entries.items():
            cols[c].append((r, v.numerator * (scale // v.denominator) if exact else v))
        self._store(domain_shape, codomain_shape, cols, scale, mode)

    @classmethod
    def from_columns(cls, domain_shape, codomain_shape, columns, scale=1, mode=scalars.EXACT):
        """The trusted constructor: the operator whose columns of (row, value)
        pairs are ``columns`` over ``scale``, integers in exact mode."""
        op = cls.__new__(cls)
        op._store(domain_shape, codomain_shape, columns, scale, mode)
        return op

    def _store(self, domain_shape, codomain_shape, columns, scale, mode):
        """Store the columns without their zeros, over the lcm of the reduced
        denominators in exact mode and as floats over 1 in float mode."""
        exact = mode == scalars.EXACT
        cols = [[(r, v if exact else float(v)) for r, v in col if v] for col in columns]
        g = scale = scale if exact else 1
        for _, v in itertools.chain.from_iterable(cols):
            if g == 1:
                break
            g = math.gcd(g, v)
        if g > 1:
            cols, scale = [[(r, v // g) for r, v in col] for col in cols], scale // g
        self.domain_shape, self.codomain_shape, self.columns, self.scale, self.mode = (
            domain_shape, codomain_shape, cols, scale, mode)

    # -- basic queries -------------------------------------------------

    @property
    def entries(self) -> dict:
        """A {(row, col): scalar} dict of the nonzero entries, Fractions in
        exact mode, built afresh on every access: read it once per operator."""
        if self.mode == scalars.EXACT:  # one Fraction per distinct value
            value = {v: Fraction(v, self.scale) for v in {v for col in self.columns for _, v in col}}
            return {(r, c): value[v] for c, col in enumerate(self.columns) for r, v in col}
        return {(r, c): v for c, col in enumerate(self.columns) for r, v in col}

    @property
    def nnz(self) -> int:
        return sum(map(len, self.columns))

    def is_square(self) -> bool:
        return self.domain_shape.total == self.codomain_shape.total

    def apply(self, vec: dict) -> dict:
        """Apply to a sparse vector {index: scalar}."""
        unit, cols = Fraction(1, self.scale) if self.mode == scalars.EXACT else 1, self.columns
        out = apply_columns(cols, [(c, x * unit) for c, x in vec.items() if 0 <= c < len(cols) and x != 0])
        return {r: v for r, v in out.items() if v != 0}

    # -- equality ------------------------------------------------------

    def _sized_like(self, other) -> bool:
        return (self.domain_shape.total, self.codomain_shape.total) == (other.domain_shape.total, other.codomain_shape.total)

    def equal(self, other) -> bool:
        if self.mode != other.mode:
            raise ShapeMismatchError("cannot compare operators of different scalar modes")
        if not self._sized_like(other):
            raise ShapeMismatchError("cannot compare operators of different total dimensions")
        return _first_difference(self, other) is None

    def __eq__(self, other):
        if not isinstance(other, TensorOperator):
            return NotImplemented
        return self.mode == other.mode and self._sized_like(other) and _first_difference(self, other) is None

    def __hash__(self):
        raise TypeError("TensorOperator is unhashable")

    def first_difference(self, other):
        """Smallest (row, col) where the two operators differ, or None."""
        return _first_difference(self, other)

    # -- algebra -------------------------------------------------------

    def __matmul__(self, other):
        return compose(self, other)

    def __add__(self, other):
        if self.mode != other.mode:
            raise ShapeMismatchError("mode mismatch in operator sum")
        if not self._sized_like(other):
            raise ShapeMismatchError("shape mismatch in operator sum")
        scale = math.lcm(self.scale, other.scale)
        fa, fb = scale // self.scale, scale // other.scale
        cols = []
        for acol, bcol in zip(self.columns, other.columns):
            out = {r: v * fa for r, v in acol}
            for r, v in bcol:
                out[r] = out.get(r, 0) + v * fb
            cols.append(out.items())
        return TensorOperator.from_columns(self.domain_shape, self.codomain_shape, cols, scale, self.mode)

    def scaled(self, factor):
        """factor times the operator."""
        factor = scalars.coerce(factor, self.mode)
        p, q = (factor.numerator, factor.denominator) if self.mode == scalars.EXACT else (factor, 1)
        cols = [[(r, v * p) for r, v in col] for col in self.columns]
        return TensorOperator.from_columns(self.domain_shape, self.codomain_shape, cols, self.scale * q, self.mode)

    def tensor(self, other):
        """Kronecker product self (x) other; nnz multiplies, so keep factors small."""
        if self.mode != other.mode:
            raise ShapeMismatchError("mode mismatch in tensor product")
        dom = TensorShape(self.domain_shape.factor_dims + other.domain_shape.factor_dims)
        cod = TensorShape(self.codomain_shape.factor_dims + other.codomain_shape.factor_dims)
        cols = kron_columns(self.columns, other.columns, other.codomain_shape.total)
        return TensorOperator.from_columns(dom, cod, cols, self.scale * other.scale, self.mode)

    def with_shapes(self, domain_shape, codomain_shape):
        """Reinterpret the same matrix with a different factor split."""
        if (domain_shape.total, codomain_shape.total) != (self.domain_shape.total, self.codomain_shape.total):
            raise ShapeMismatchError("reshape must preserve total dimensions")
        return TensorOperator.from_columns(domain_shape, codomain_shape, self.columns, self.scale, self.mode)

    def permute_codomain(self, perm):
        """Relabel codomain factors: output factor perm[p] is old factor p.

        Equivalent to composing with the corresponding permutation
        operator on the left, but costs only a row relabeling.
        """
        perm = _check_permutation(perm, len(self.codomain_shape))
        dims = self.codomain_shape.factor_dims
        new_cod = TensorShape(tuple(dims[perm.index(q)] for q in range(len(dims))))
        # (dim, weight in new_cod) of each old factor, least significant first
        digits = [(dims[p], math.prod(new_cod.factor_dims[perm[p] + 1 :])) for p in reversed(range(len(dims)))]

        def relabel(r):
            out = 0
            for d, w in digits:
                r, i = divmod(r, d)
                out += i * w
            return out

        cols = [[(relabel(r), v) for r, v in col] for col in self.columns]
        return TensorOperator.from_columns(self.domain_shape, new_cod, cols, self.scale, self.mode)

    def to_float(self):
        if self.mode == scalars.FLOAT:
            return self
        cols = [[(r, v / self.scale) for r, v in col] for col in self.columns]
        return TensorOperator.from_columns(self.domain_shape, self.codomain_shape, cols, 1, scalars.FLOAT)

    def __repr__(self):
        return (
            f"TensorOperator({self.codomain_shape.factor_dims}<-{self.domain_shape.factor_dims}, "
            f"nnz={self.nnz}, mode={self.mode})"
        )


def _first_difference(a: TensorOperator, b: TensorOperator):
    """``reports.first_difference`` of two operators' entries, on integers
    over one common scale in exact mode."""
    sa, sb = a.scale, b.scale
    lhs = {(r, c): v * sb for c, col in enumerate(a.columns) for r, v in col}
    rhs = {(r, c): v * sa for c, col in enumerate(b.columns) for r, v in col}
    return reports.first_difference(lhs, rhs, a.mode)


# -- constructors ------------------------------------------------------


def identity(shp: TensorShape, mode=scalars.EXACT) -> TensorOperator:
    return TensorOperator.from_columns(shp, shp, [[(i, 1)] for i in range(shp.total)], 1, mode)


def _check_permutation(perm, k):
    perm = tuple(map(scalars.as_int, perm))
    if sorted(perm) != list(range(k)):
        raise SchemaError(f"{perm} is not a permutation of {k} factor positions")
    return perm


def permutation_operator(shp: TensorShape, perm, mode=scalars.EXACT) -> TensorOperator:
    """Operator sending e_{i_1} (x) ... (x) e_{i_k} to the factors reordered by perm.

    ``perm[p]`` is the output position of input factor p.  Cost is one
    entry per basis vector, so keep this to spaces you can enumerate;
    on large intermediate spaces use :meth:`TensorOperator.permute_codomain`.
    """
    return identity(shp, mode).permute_codomain(perm)


def reverse_permutation(k: int) -> tuple:
    """tau: x_1 (x) ... (x) x_k -> x_k (x) ... (x) x_1."""
    return tuple(k - 1 - p for p in range(k))


def cyclic_permutation(k: int) -> tuple:
    """F: x_1 (x) x_2 (x) ... (x) x_k -> x_2 (x) ... (x) x_k (x) x_1."""
    return tuple([k - 1] + list(range(k - 1)))


def compose(a: TensorOperator, b: TensorOperator) -> TensorOperator:
    """a after b.  Cost is proportional to matching nonzeros, not dimension."""
    if a.mode != b.mode:
        raise ShapeMismatchError("mode mismatch in composition")
    if b.codomain_shape.total != a.domain_shape.total:
        raise ShapeMismatchError(
            f"composition mismatch: inner dims {b.codomain_shape.total} vs {a.domain_shape.total}"
        )
    cols = [apply_columns(a.columns, col).items() for col in b.columns]
    return TensorOperator.from_columns(b.domain_shape, a.codomain_shape, cols, a.scale * b.scale, a.mode)


def compose_blocks(blocks, b: TensorOperator) -> TensorOperator:
    """(blocks[0] (x) ... (x) blocks[-1]) after b, without materializing the product.

    The left factor of the composition is a tensor product whose nnz
    would be the product of the blocks' nnz; this walks b's entries and
    tensors only the referenced columns.
    """
    if len(blocks) == 1:
        return compose(blocks[0], b)
    if any(blk.mode != b.mode for blk in blocks):
        raise ShapeMismatchError("mode mismatch in block composition")
    totals = [blk.domain_shape.total for blk in blocks]
    if math.prod(totals) != b.codomain_shape.total:
        raise ShapeMismatchError("block domains do not match the inner operator's codomain")
    inner = TensorShape(tuple(totals))
    out_totals = [blk.codomain_shape.total for blk in blocks]
    cols = []
    for col in b.columns:
        out = {}
        for r, v in col:
            # the per-block column indices of r, most significant first
            for combo in itertools.product(*(blk.columns[j] for blk, j in zip(blocks, inner.multi(r)))):
                row, val = 0, v
                for (ri, vi), t in zip(combo, out_totals):
                    row, val = row * t + ri, val * vi
                out[row] = out.get(row, 0) + val
        cols.append(out.items())
    cod = TensorShape(tuple(d for blk in blocks for d in blk.codomain_shape.factor_dims))
    scale = math.prod((blk.scale for blk in blocks), start=b.scale)
    return TensorOperator.from_columns(b.domain_shape, cod, cols, scale, b.mode)


def tensor_many(ops) -> TensorOperator:
    ops = list(ops)
    result = ops[0]
    for op in ops[1:]:
        result = result.tensor(op)
    return result


def embed(a: TensorOperator, left: int, right: int, factor_dim: int) -> TensorOperator:
    """Id^(x)left (x) a (x) Id^(x)right, built sparsely.

    ``a`` must be square on a tensor power of ``factor_dim``.
    """
    total = a.domain_shape.total
    if a.codomain_shape.total != total:
        raise ShapeMismatchError("embed needs a square operator")
    t = 1
    while t < total:
        t *= factor_dim
    if t != total:
        raise ShapeMismatchError(f"operator dim {total} is not a power of factor dim {factor_dim}")
    lt = factor_dim**left
    rt = factor_dim**right
    dims = (factor_dim,) * left + a.domain_shape.factor_dims + (factor_dim,) * right
    shp = TensorShape(dims)
    cols = [
        [((i * total + r) * rt + j, v) for r, v in col]
        for i in range(lt)
        for col in a.columns
        for j in range(rt)
    ]
    return TensorOperator.from_columns(shp, shp, cols, a.scale, a.mode)


# -- exponentials ------------------------------------------------------


def exp(a: TensorOperator) -> TensorOperator:
    """exp(A) as the sum of the terms A^k/k! up to the first below 1e-12: in
    exact mode, whose entries are stored as integers, the first zero term,
    else NotNilpotentError after dim terms; in float mode
    SeriesNotConvergedError after 64 terms."""
    if not a.is_square():
        raise ShapeMismatchError("exp needs a square operator")
    exact = a.mode == scalars.EXACT
    total = term = identity(a.domain_shape, a.mode)
    for k in range(1, a.domain_shape.total + 1 if exact else 65):
        term = term @ a
        if not term.nnz:  # a zero term ends the series before it pays for the scaling
            return total
        term = term.scaled(Fraction(1, k) if exact else 1.0 / k)
        if (top := max(abs(v) for col in term.columns for _, v in col)) < 1e-12:
            return total
        total = total + term
    if exact:
        raise NotNilpotentError(f"operator is not nilpotent (A^{k} != 0)")
    raise SeriesNotConvergedError(f"exp series term still {top:.3g} after 64 terms")


# -- elimination -------------------------------------------------------


def _gauss_jordan(rows, cols, mode) -> dict:
    """Gauss-Jordan elimination of sparse rows (dicts col -> value) in place.

    Columns are pivoted in the order of ``cols``.  A column -> rows index
    means each pivot step touches only the rows holding that column, so
    a permutation costs linear time.  The pivot is the free row with the
    fewest nonzeros in exact mode and the largest |v| above ``EPS_CMP`` in
    float mode, ties going to the lowest row.  A column without a pivot
    is skipped; in float mode its entries of size at most ``EPS_CMP`` count
    as zero and are dropped.  Returns {pivot column: row index}; each
    pivot row ends normalized with zeros in every other pivot column.
    """
    exact = mode == scalars.EXACT
    holders = {}
    for i, row in enumerate(rows):
        for c in row:
            holders.setdefault(c, set()).add(i)
    pivots = {}
    used = set()
    for col in cols:
        free = [r for r in holders.get(col, ()) if r not in used]
        if exact:
            pivot = min(free, key=lambda r: (len(rows[r]), r), default=None)
        else:
            usable = [r for r in free if abs(rows[r][col]) > scalars.EPS_CMP]
            pivot = min(usable, key=lambda r: (-abs(rows[r][col]), r), default=None)
        if pivot is None:
            if not exact:
                for r in [r for r in holders.get(col, ()) if abs(rows[r][col]) <= scalars.EPS_CMP]:
                    del rows[r][col]
                    holders[col].discard(r)
            continue
        used.add(pivot)
        pivots[col] = pivot
        prow = rows[pivot]
        pv = prow[col]
        if pv != 1:
            prow = rows[pivot] = {c: v / pv for c, v in prow.items()}
        for r in holders[col] - {pivot}:
            row = rows[r]
            f = row[col]
            for c, v in prow.items():
                s = row.get(c, 0) - f * v
                if s == 0:
                    row.pop(c, None)
                    holders[c].discard(r)
                else:
                    row[c] = s
                    holders[c].add(r)
    return pivots


def invert(a: TensorOperator) -> TensorOperator:
    """Inverse by sparse Gauss-Jordan elimination on [A | I]; exact in exact mode.

    Raises SingularMatrixError when no valid pivot remains, which is
    how a pre-operator (a non-invertible solution) announces itself.
    """
    if not a.is_square():
        raise ShapeMismatchError("only square operators can be inverted")
    n = a.domain_shape.total
    one = scalars.one(a.mode)
    rows = [{n + i: one} for i in range(n)]
    for (r, c), v in a.entries.items():
        rows[r][c] = v
    pivots = _gauss_jordan(rows, range(n), a.mode)
    if len(pivots) < n:
        col = next(c for c in range(n) if c not in pivots)
        raise SingularMatrixError(f"no usable pivot in column {col}")
    out = {(col, c - n): v for col, p in pivots.items() for c, v in rows[p].items() if c >= n}
    return TensorOperator(a.codomain_shape, a.domain_shape, out, a.mode, validate=False)


def column_rank(a: TensorOperator) -> int:
    """The rank, by elimination; in exact mode only of the entries on the rows
    no single-entry column hits, as those columns span the rows they hit."""
    exact = a.mode == scalars.EXACT
    hit, rows = {col[0][0] for col in a.columns if len(col) == 1} if exact else set(), {}
    for c, col in enumerate(a.columns):
        for r, v in col:
            if r not in hit:
                rows.setdefault(r, {})[c] = Fraction(v) if exact else v
    cols = sorted({c for row in rows.values() for c in row})
    return len(hit) + len(_gauss_jordan([rows[r] for r in sorted(rows)], cols, a.mode))


def rref(rows, mode=scalars.EXACT):
    """Reduced row echelon form of sparse rows (dicts col -> value).

    Returns (pivots, reduced) where pivots is the sorted list of pivot
    columns and reduced maps each pivot column to its normalized row.
    """
    rows = [{c: v for c, v in row.items() if v != 0} for row in rows]
    pivots = _gauss_jordan(rows, sorted({c for row in rows for c in row}), mode)
    return sorted(pivots), {col: rows[p] for col, p in pivots.items()}


def nullspace_basis(rows, width: int, mode=scalars.EXACT):
    """Basis of the solution space of (rows) x = 0, as sparse vectors.

    Deterministic: one basis vector per free column, in column order.
    """
    pivots, reduced = rref(rows, mode)
    pivot_set = set(pivots)
    basis = []
    one = scalars.one(mode)
    for free in range(width):
        if free in pivot_set:
            continue
        vec = {free: one}
        for pcol in pivots:
            v = reduced[pcol].get(free)
            if v is not None:
                vec[pcol] = -v
        basis.append(vec)
    return basis
