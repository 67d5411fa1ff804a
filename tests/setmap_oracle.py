"""The tuple implementation of set maps, kept as the oracle of ``setsol``.

A map X^n -> X^n is stored here as its output tuples in flat input
order, and every operation moves tuples: the relation runs both braid
words tuple by tuple, the lift and the descent apply the map at offsets
of a longer tuple, the order applies the map to every output in turn.
``setsol`` does all of this on flat index lists and must agree.
"""

import itertools
from dataclasses import dataclass

from braidforge.errors import PreconditionError, SchemaError, VerdictDisagreementError
from braidforge.nrack import check_nrack
from braidforge.setsol import INVOLUTIVE_ORDER_CAP, SolutionProfile, braid_words


def flat(digits, m):
    idx = 0
    for a in digits:
        idx = idx * m + a
    return idx


@dataclass(frozen=True)
class TupleMap:
    size: int
    arity: int
    outputs: tuple
    side: str = "right"

    def __post_init__(self):
        m, n = self.size, self.arity
        if m < 1 or n < 2:
            raise SchemaError("need size >= 1 and arity >= 2")
        if self.side not in ("right", "left"):
            raise SchemaError("side must be 'right' or 'left'")
        outs = tuple(tuple(int(v) for v in out) for out in self.outputs)
        if len(outs) != m**n:
            raise SchemaError(f"map must be total: expected {m**n} rows, got {len(outs)}")
        for out in outs:
            if len(out) != n or any(not 0 <= v < m for v in out):
                raise SchemaError(f"bad output tuple {out}")
        object.__setattr__(self, "outputs", outs)

    def apply(self, args) -> tuple:
        return self.outputs[flat(args, self.size)]

    def is_bijective(self) -> bool:
        return len(set(self.outputs)) == len(self.outputs)

    def mirror(self) -> "TupleMap":
        side = "left" if self.side == "right" else "right"
        return from_function(self.size, self.arity, lambda *a: self.apply(a[::-1])[::-1], side)

    def image(self) -> tuple:
        """The flat index of each output, the form ``setsol.SetNMap`` stores."""
        return tuple(flat(out, self.size) for out in self.outputs)


def from_function(size, arity, fn, side="right") -> TupleMap:
    outs = [tuple(fn(*args)) for args in itertools.product(range(size), repeat=arity)]
    return TupleMap(size, arity, tuple(outs), side)


def from_image(size, arity, image, side="right") -> TupleMap:
    digits = list(itertools.product(range(size), repeat=arity))
    return TupleMap(size, arity, tuple(digits[y] for y in image), side)


def _apply_at(s: TupleMap, tup: tuple, offset: int) -> tuple:
    n = s.arity
    return tup[:offset] + s.apply(tup[offset : offset + n]) + tup[offset + n :]


def word_images(s: TupleMap, word, k: int) -> list:
    """The flat index of the image of every k-tuple, in flat order, under s
    applied at each offset of ``word`` in turn."""
    out = []
    for tup in itertools.product(range(s.size), repeat=k):
        for off in word:
            tup = _apply_at(s, tup, off)
        out.append(flat(tup, s.size))
    return out


def smallest_row_witness(lhs, rhs):
    """The column of the smallest differing (row, col) of two sides with one
    entry per column, given as their row lists, or None: the generator rule
    ``reports.list_witness`` replaced by index-list scans."""
    pairs = [(a if a < b else b, c) for c, (a, b) in enumerate(zip(lhs, rhs)) if a != b]
    return min(pairs)[1] if pairs else None


def satisfies(s: TupleMap, side: str):
    """(verdict, first witness), running both words on every (2n-1)-tuple."""
    lhs_word, rhs_word = braid_words(s.arity, side)
    for tup in itertools.product(range(s.size), repeat=2 * s.arity - 1):
        lhs = rhs = tup
        for off in lhs_word:
            lhs = _apply_at(s, lhs, off)
        for off in rhs_word:
            rhs = _apply_at(s, rhs, off)
        if lhs != rhs:
            return False, {"tuple": list(tup), "lhs": list(lhs), "rhs": list(rhs)}
    return True, None


def nondegeneracy(s: TupleMap):
    if s.arity != 3:
        return None
    m = s.size
    families = {"middle": True, "left": True, "right": True}
    for a, b in itertools.product(range(m), repeat=2):
        if len({s.apply((a, y, b))[0] for y in range(m)}) != m:
            families["middle"] = False
        if len({s.apply((a, b, z))[1] for z in range(m)}) != m:
            families["left"] = False
        if len({s.apply((x, a, b))[2] for x in range(m)}) != m:
            families["right"] = False
    return families


def involutive_order(s: TupleMap, cap=INVOLUTIVE_ORDER_CAP):
    ident = tuple(itertools.product(range(s.size), repeat=s.arity))
    current = s.outputs
    for k in range(1, cap + 1):
        if current == ident:
            return k
        current = tuple(s.apply(t) for t in current)
    return None


def check_set_nsolution(s: TupleMap) -> SolutionProfile:
    right_ok, right_wit = satisfies(s, "right")
    left_ok, left_wit = satisfies(s, "left")
    return SolutionProfile(
        is_bijective=s.is_bijective(),
        satisfies_right=right_ok,
        satisfies_left=left_ok,
        nondegenerate=nondegeneracy(s),
        involutive_order=involutive_order(s),
        right_witness=right_wit,
        left_witness=left_wit,
    )


def solution_from_nrack(t) -> TupleMap:
    if t.side == "right":
        s = from_function(t.size, t.arity, lambda *a: a[1:] + (t.apply(a),), side="right")
    else:
        s = from_function(t.size, t.arity, lambda *a: (t.apply(a),) + a[:-1], side="left")
    if (satisfies(s, t.side)[0] and s.is_bijective()) != check_nrack(t).passed:
        raise VerdictDisagreementError("the induced map's verdict disagrees with the table's")
    return s


def nsolution_from_solution(r: TupleMap, n: int) -> TupleMap:
    """r at offset 0, then offset 1, ..., then offset n-2 of an n-tuple."""
    profile = check_set_nsolution(r)
    if not (profile.satisfies_right and profile.is_bijective):
        raise PreconditionError("input is not a set-theoretical solution", profile.to_json())
    if n == 2:
        return r

    def lifted(*args):
        tup = args
        for off in range(n - 1):
            tup = _apply_at(r, tup, off)
        return tup

    return from_function(r.size, n, lifted)


def solution_from_nsolution(s: TupleMap) -> TupleMap:
    """s at offsets n-2, ..., 0 of a (2n-2)-tuple, read as a pair of (n-1)-blocks."""
    profile = check_set_nsolution(s)
    if not (profile.satisfies_right and profile.is_bijective):
        raise PreconditionError("input is not a set-theoretical n-solution", profile.to_json())
    m, n = s.size, s.arity
    blocks = list(itertools.product(range(m), repeat=n - 1))

    def descended(u, v):
        tup = blocks[u] + blocks[v]
        for off in range(n - 2, -1, -1):
            tup = _apply_at(s, tup, off)
        return flat(tup[: n - 1], m), flat(tup[n - 1 :], m)

    return from_function(m ** (n - 1), 2, descended)


def to_document(s: TupleMap) -> dict:
    rows = [list(args) + list(s.apply(args)) for args in itertools.product(range(s.size), repeat=s.arity)]
    return {"kind": "set_map", "size": s.size, "arity": s.arity, "side": s.side, "map": rows}
