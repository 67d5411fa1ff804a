"""Plain oracles for the census: every table, and the rescan DFS.

The rescan DFS assigns translation columns in index order and, at every
node, rescans all law instances for those whose last needed column is
the one just assigned.  The watched-instance search in ``setsol`` must
give the same tables in the same order.
"""

import functools
import itertools

from braidforge.nrack import FiniteNRack
from braidforge.setsol import braid_words


#: (m, n, filter) of the benchmark's census rounds, then m = 1, the 3,2 rack filters and the 2,2 solutions;
#: nsolution covers every size that enumerate admits, so its rack search is compared with the map-based rescan
CENSUS_CASES = [
    (2, 2, "nrack"),
    (2, 3, "nshelf"),
    (2, 3, "nrack"),
    (2, 3, "nsolution"),
    (3, 2, "nshelf"),
    (4, 2, "nrack"),
    (4, 2, "nsolution"),
    (3, 3, "nrack"),
    (3, 3, "nsolution"),
    *((1, n, f) for n in (2, 3) for f in ("nshelf", "nrack", "nsolution")),
    (3, 2, "nrack"),
    (3, 2, "nsolution"),
    (2, 2, "nsolution"),
]


def all_tables(m: int, n: int):
    """Every total table X^n -> X in lexicographic order; mind the size."""
    for values in itertools.product(range(m), repeat=m**n):
        yield FiniteNRack(m, n, values)


def _columns_meta(m: int, n: int):
    contexts = list(itertools.product(range(m), repeat=n - 1))
    ctx_index = {c: i for i, c in enumerate(contexts)}
    return contexts, ctx_index


def _rescan_distributive(m: int, n: int, bijective: bool):
    contexts, ctx_index = _columns_meta(m, n)
    ncols = len(contexts)
    if bijective:
        candidates = [p for p in itertools.product(range(m), repeat=m) if len(set(p)) == m]
    else:
        candidates = list(itertools.product(range(m), repeat=m))
    columns = [None] * ncols
    xs_all = list(itertools.product(range(m), repeat=n))

    def newly_checkable_ok(k):
        for ys_idx in range(k + 1):
            if columns[ys_idx] is None:
                continue
            for xs in xs_all:
                c1 = ctx_index[xs[1:]]
                if c1 > k or columns[c1] is None:
                    continue
                ty = columns[ys_idx]
                c3 = ctx_index[tuple(ty[x] for x in xs[1:])]
                if c3 > k:
                    continue
                if max(c1, ys_idx, c3) != k:
                    continue  # checked at an earlier depth
                inner = columns[c1][xs[0]]
                if ty[inner] != columns[c3][ty[xs[0]]]:
                    return False
        return True

    def dfs(k):
        if k == ncols:
            values = tuple(columns[ctx_index[xs[1:]]][xs[0]] for xs in xs_all)
            yield FiniteNRack(m, n, values)
            return
        for cand in candidates:
            columns[k] = cand
            if newly_checkable_ok(k):
                yield from dfs(k + 1)
            columns[k] = None

    yield from dfs(0)


def _rescan_nsolution(m: int, n: int):
    contexts, ctx_index = _columns_meta(m, n)
    ncols = len(contexts)
    perms = list(itertools.permutations(range(m)))
    columns = [None] * ncols
    lhs_order, rhs_order = braid_words(n, "right")
    base_tuples = list(itertools.product(range(m), repeat=2 * n - 1))
    xs_all = list(itertools.product(range(m), repeat=n))

    def simulate(tup, order):
        """(final tuple, max column index used) or (None, None) if a needed
        column is not yet assigned."""
        used = -1
        for off in order:
            args = tup[off : off + n]
            ci = ctx_index[args[1:]]
            col = columns[ci]
            if col is None:
                return None, None
            used = max(used, ci)
            tup = tup[:off] + args[1:] + (col[args[0]],) + tup[off + n :]
        return tup, used

    def newly_checkable_ok(depth):
        for tup in base_tuples:
            lhs, lu = simulate(tup, lhs_order)
            if lhs is None:
                continue
            rhs, ru = simulate(tup, rhs_order)
            if rhs is None:
                continue
            if max(lu, ru) != depth:
                continue  # fully determined earlier, already checked
            if lhs != rhs:
                return False
        return True

    def dfs(k):
        if k == ncols:
            values = tuple(columns[ctx_index[xs[1:]]][xs[0]] for xs in xs_all)
            yield FiniteNRack(m, n, values)
            return
        for cand in perms:
            columns[k] = cand
            if newly_checkable_ok(k):
                yield from dfs(k + 1)
            columns[k] = None

    yield from dfs(0)


@functools.lru_cache(maxsize=None)
def rescan_census(m: int, n: int, table_filter: str):
    """The tables of ``enumerate_tables(m, n, table_filter)``, by rescanning."""
    if table_filter == "nsolution":
        return tuple(t.table for t in _rescan_nsolution(m, n))
    return tuple(t.table for t in _rescan_distributive(m, n, table_filter == "nrack"))
