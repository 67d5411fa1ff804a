"""Expected verdicts, computed without calling braidforge.

Every function here works from the mathematical definition on plain
Python data (index maps, tables, structure constants), so a defect in
the program's kernels cannot also hide in its own expected answer.
Only `braid_dense` uses numpy, as a float oracle for small non-monomial
operators.
"""

from __future__ import annotations

import itertools


def braid_words(n, side):
    """Offsets of the two sides of the degree-n braid relation, first applied first."""
    if side == "right":
        return [0] + list(range(n - 1, 0, -1)) + [0], list(range(n - 1, -1, -1)) + [n - 1]
    return [0] + list(range(1, n)) + [0], [n - 1] + list(range(n - 1)) + [n - 1]


def _run_word(fmap, d, n, word):
    """Image of every basis index of X^(2n-1) under the map applied at the word's offsets."""
    blk = d**n
    total = d ** (2 * n - 1)
    out = list(range(total))
    for off in word:
        rt = d ** (n - 1 - off)
        span = blk * rt
        step = []
        for idx in out:
            left, rest = divmod(idx, span)
            block, right = divmod(rest, rt)
            step.append((left * blk + fmap[block]) * rt + right)
        out = step
    return out


def braid_verdict(fmap, d, n, side):
    """Verdict of the braid relation for a map X^n -> X^n given as a flat index map.

    The same map read as a monomial operator with one uniform nonzero
    coefficient per column has the same verdict: both sides apply it
    n+1 times.  Returns (holds, op_witness, set_witness): the column of
    the smallest differing (row, col) of the operator sides, and the
    lexicographically first tuple on which the set-map sides differ.
    """
    lhs_word, rhs_word = braid_words(n, side)
    lhs = _run_word(fmap, d, n, lhs_word)
    rhs = _run_word(fmap, d, n, rhs_word)
    best = None
    first_col = None
    for col, (a, b) in enumerate(zip(lhs, rhs)):
        if a != b:
            if first_col is None:
                first_col = col
            key = (min(a, b), col)
            if best is None or key < best:
                best = key
    if best is None:
        return True, None, None
    return False, best[1], digits(first_col, d, 2 * n - 1)


def digits(idx, d, k):
    out = []
    for _ in range(k):
        idx, r = divmod(idx, d)
        out.append(r)
    return out[::-1]


def is_bijection(fmap):
    return len(set(fmap)) == len(fmap)


# -- n-racks --------------------------------------------------------------


def rack_report(m, n, table):
    """[name, witness] of every failing check of a right n-ary table, in report order.

    Self-distributivity <<x>, y> = <<x_1, y>, ..., <x_n, y>> and
    bijectivity of every translation x -> <x, y> are both checked; only
    when both hold is the translation map checked to be a homomorphism
    into the conjugation rack of Sym(X).
    """

    def op(args):
        idx = 0
        for a in args:
            idx = idx * m + a
        return table[idx]

    failed = []
    for tpl in itertools.product(range(m), repeat=2 * n - 1):
        xs, ys = tpl[:n], tpl[n:]
        lhs = op((op(xs),) + ys)
        rhs = op(tuple(op((x,) + ys) for x in xs))
        if lhs != rhs:
            failed.append(["self-distributivity", {"tuple": list(tpl), "lhs": lhs, "rhs": rhs}])
            break
    trans = {}
    for ys in itertools.product(range(m), repeat=n - 1):
        image = [op((x,) + ys) for x in range(m)]
        if len(set(image)) != m:
            failed.append(["translation-bijectivity", {"translation": list(ys), "image": image}])
            break
        trans[ys] = image
    if failed:
        return failed
    for xs in itertools.product(range(m), repeat=n - 1):
        for ys in itertools.product(range(m), repeat=n - 1):
            ty, tx = trans[ys], trans[xs]
            ty_inv = [0] * m
            for i, v in enumerate(ty):
                ty_inv[v] = i
            moved = tuple(op((x,) + ys) for x in xs)
            if trans[moved] != [ty[tx[ty_inv[i]]] for i in range(m)]:
                return [["translation-rack-homomorphism", {"x": list(xs), "y": list(ys)}]]
    return []


# -- n-Leibniz brackets -----------------------------------------------------


def _fmt(v):
    return f"{v.numerator}/{v.denominator}"


def fundamental_identity(arity, dim, bracket):
    """(holds, witness) of [[x_1..x_n], y] = sum_i [x_1..[x_i, y]..x_n] on basis tuples.

    ``bracket`` maps input tuples to {output index: Fraction}.  The
    witness is the lexicographically first failing (2n-1)-tuple with
    both sides as sparse "p/q" vectors.
    """
    n = arity

    def br(key):
        return bracket.get(tuple(key), {})

    def add(acc, vec, c):
        for j, v in vec.items():
            s = acc.get(j, 0) + c * v
            if s == 0:
                acc.pop(j, None)
            else:
                acc[j] = s

    for tpl in itertools.product(range(dim), repeat=2 * n - 1):
        xs, ys = tpl[:n], tpl[n:]
        lhs = {}
        for j, c in br(xs).items():
            add(lhs, br((j,) + ys), c)
        rhs = {}
        for i in range(n):
            for j, c in br((xs[i],) + ys).items():
                add(rhs, br(xs[:i] + (j,) + xs[i + 1 :]), c)
        if lhs != rhs:
            return False, {
                "tuple": list(tpl),
                "lhs": {str(k): _fmt(v) for k, v in sorted(lhs.items())},
                "rhs": {str(k): _fmt(v) for k, v in sorted(rhs.items())},
            }
    return True, None


# -- dense float oracle -------------------------------------------------------


def braid_dense(entries, d, n, side, tol=1e-9, chunk=64):
    """(holds, witness column, invertible) of a d^n x d^n matrix given as
    {(row, col): value}, in float64.

    Applies each side of the relation to the identity on X^(2n-1), a
    block of `chunk` columns at a time, so the oracle's memory stays
    far below the program's.
    """
    import numpy as np

    total = d ** (2 * n - 1)
    blk = d**n
    matrix = np.zeros((blk, blk))
    for (r, c), v in entries.items():
        matrix[r, c] = float(v)
    lhs_word, rhs_word = braid_words(n, side)

    def run(word, first, width):
        x = np.zeros((total, width))
        x[np.arange(first, first + width), np.arange(width)] = 1.0
        for off in word:
            rt = d ** (n - 1 - off)
            x = np.einsum("ij,ajbk->aibk", matrix, x.reshape(total // (blk * rt), blk, rt, -1))
        return x.reshape(total, -1)

    best = None
    for first in range(0, total, chunk):
        width = min(chunk, total - first)
        diff = np.argwhere(np.abs(run(lhs_word, first, width) - run(rhs_word, first, width)) > tol)
        if len(diff):
            key = (int(diff[0][0]), first + int(diff[0][1]))
            best = key if best is None else min(best, key)
    invertible = bool(np.linalg.matrix_rank(matrix) == blk)
    return best is None, None if best is None else best[1], invertible
