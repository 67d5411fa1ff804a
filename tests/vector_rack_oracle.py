"""The grid loops of the vector n-rack checks, kept as the oracle of ``nrack``.

Both checks here evaluate every sample-grid tuple as vectors: the
self-distributivity walk runs x_1 over the whole grid, and the tensor
embedding applies exp(ad_ys) to each xs and exp(ad_{y_1 (x) ... (x) y_{n-1}})
to each x_1 (x) ... (x) x_{n-1}, for every pair of grid tuples, xs outer.
``nrack`` decides the same laws from basis x_1 and from one operator
identity per ys, and must report the same.

The induced bracket is read through ``nrack.fundamental_leibniz`` at call
time, so a test that patches it there patches both implementations.
"""

import itertools

from braidforge import nrack, tensor
from braidforge.errors import NotNilpotentError, SeriesNotConvergedError
from braidforge.nleibniz import ad
from braidforge.reports import ReportBuilder, first_difference


def validate_vector_nrack(rack):
    rb = ReportBuilder("vector-nrack")
    n = rack.algebra.arity
    grid = rack.sample_grid()
    ok, witness = True, None
    skipped = 0
    for tpl in itertools.product(range(len(grid)), repeat=2 * n - 1):
        xs = [grid[i] for i in tpl[:n]]
        ys = [grid[i] for i in tpl[n:]]
        try:
            lhs = rack.op([rack.op(xs)] + ys)
            rhs = rack.op([rack.op([x] + ys) for x in xs])
        except (NotNilpotentError, SeriesNotConvergedError):
            skipped += 1
            continue
        if first_difference(lhs, rhs, rack.algebra.mode) is not None:
            ok, witness = False, {"grid-tuple": list(tpl)}
            break
    rb.record("self-distributivity-on-grid", ok, witness)
    if skipped:
        rb.skip("grid-points", f"{skipped} tuples skipped (non-nilpotent adjoint)")
    return rb.build()


def verify_tensor_embedding(a):
    mode = a.mode
    rack = nrack.VectorNRack(a)
    fund = nrack.fundamental_leibniz(a)
    shp = tensor.power_shape(a.dim, a.arity - 1)
    rb = ReportBuilder("tensor-embedding")
    grid = rack.sample_grid()
    width = a.arity - 1
    fund_exp_cache = {}
    ok, witness = True, None
    for xi in itertools.product(range(len(grid)), repeat=width):
        xs = [grid[i] for i in xi]
        for yi in itertools.product(range(len(grid)), repeat=width):
            ys = [grid[i] for i in yi]
            try:
                moved = [rack._exp_at(ys).apply(x) for x in xs]
                lhs = tensor.tensor_vector(moved, shp, mode)
                e = fund_exp_cache.get(yi)
                if e is None:
                    big = ad(fund, [tensor.tensor_vector(ys, shp, mode)])
                    e = tensor.exp(big)
                    fund_exp_cache[yi] = e
                rhs = e.apply(tensor.tensor_vector(xs, shp, mode))
            except (NotNilpotentError, SeriesNotConvergedError):
                continue
            if first_difference(lhs, rhs, mode) is not None:
                ok, witness = False, {"x": list(xi), "y": list(yi)}
                break
        if not ok:
            break
    rb.record("embedding-homomorphism", ok, witness)
    return rb.build()
