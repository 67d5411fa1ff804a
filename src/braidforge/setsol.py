"""Set-theoretical solutions of the braid relation and its degree-n analogue.

A set map s: X^n -> X^n satisfies the right degree-n relation when,
writing s_i for s applied at offset i inside an (2n-1)-tuple,

    s_0, s_{n-1}, s_{n-2}, ..., s_1, s_0   (applied first to last)

agrees with

    s_{n-1}, s_{n-2}, ..., s_1, s_0, s_{n-1}

on every tuple; the left variant mirrors the interior order.  A
bijective map satisfying the relation is an n-solution.  Bijectivity is
profiled, never assumed: some natural examples satisfy the relation
without being bijective, and the profile records both facts.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

from .errors import CapExceededError, PreconditionError, SchemaError, VerdictDisagreementError
from .nrack import FiniteNRack, check_nrack
from .scalars import int_table
from .tensor import digit_reversal, flat_index, power_shape

#: smallest k <= this with s^k = Id is reported as the involutive order
INVOLUTIVE_ORDER_CAP = 24


def check_dim_cap(big: int, dim_cap) -> None:
    """Refuse a check or a build on a space of dimension big above
    dim_cap, before anything is allocated; None means no cap."""
    if dim_cap is not None and big > dim_cap:
        raise CapExceededError(f"dimension {big} exceeds the cap {dim_cap}; raise the cap to force it")


@dataclass(frozen=True)
class SetNMap:
    """A total map X^n -> X^n on X = {0..size-1}: image[x] is the flat index
    of s(x) for each flat x, first argument most significant."""

    size: int
    arity: int
    image: tuple
    side: str = "right"

    def __post_init__(self):
        m, n = self.size, self.arity
        if m < 1 or n < 2:
            raise SchemaError("need size >= 1 and arity >= 2")
        if self.side not in ("right", "left"):
            raise SchemaError("side must be 'right' or 'left'")
        image = tuple(self.image)
        if len(image) != m**n:
            raise SchemaError(f"map must be total: expected {m**n} rows, got {len(image)}")
        object.__setattr__(self, "image", int_table(image, m**n, "image"))

    def apply(self, args) -> tuple:
        return power_shape(self.size, self.arity).multi(self.image[flat_index(args, self.size)])

    def is_bijective(self) -> bool:
        return len(set(self.image)) == len(self.image)

    def mirror(self) -> "SetNMap":
        """Conjugate by argument reversal; swaps the right and left relations."""
        rev = digit_reversal(self.size, self.arity)
        side = "left" if self.side == "right" else "right"
        return SetNMap(self.size, self.arity, [rev[self.image[x]] for x in rev], side)


def encode_outputs(size: int, arity: int, outputs) -> list:
    """The flat indices of output tuples, each of which must hold arity
    digits in range(size): the one check on a map given by its outputs."""
    image = []
    for out in outputs:
        if len(out) != arity or any(not 0 <= v < size for v in out):
            raise SchemaError(f"bad output tuple {tuple(out)}")
        image.append(flat_index(out, size))
    return image


def from_function(size: int, arity: int, fn, side="right") -> SetNMap:
    if arity < 2:  # before fn sees a tuple of the wrong length
        raise SchemaError("need arity >= 2")
    outs = (fn(*args) for args in itertools.product(range(size), repeat=arity))
    return SetNMap(size, arity, encode_outputs(size, arity, outs), side)


def flip_map(size: int, arity: int) -> SetNMap:
    """s(x_1, ..., x_n) = (x_2, ..., x_n, x_1)."""
    return from_function(size, arity, lambda *a: a[1:] + (a[0],))


@dataclass(frozen=True)
class SolutionProfile:
    """Everything the checker can tell about one set map."""

    is_bijective: bool
    satisfies_right: bool
    satisfies_left: bool
    nondegenerate: object = None  # {"left","right","middle"} -> bool, for arity 3 only
    involutive_order: object = None  # smallest k <= cap with s^k = Id, else None
    right_witness: object = None
    left_witness: object = None

    @property
    def is_right_solution(self) -> bool:
        return self.satisfies_right and self.is_bijective

    def to_json(self):
        out = {
            "is_bijective": self.is_bijective,
            "satisfies_right": self.satisfies_right,
            "satisfies_left": self.satisfies_left,
            "nondegenerate": self.nondegenerate,
            "involutive_order": self.involutive_order,
        }
        if self.right_witness is not None:
            out["right_witness"] = self.right_witness
        if self.left_witness is not None:
            out["left_witness"] = self.left_witness
        return out


def braid_words(n: int, side: str):
    """Offsets (lhs, rhs) of the degree-n braid relation on (2n-1) factors,
    in order of application; the map acts at each offset in turn."""
    if side == "right":
        lhs = [0] + list(range(n - 1, 0, -1)) + [0]
        rhs = list(range(n - 1, -1, -1)) + [n - 1]
    else:
        lhs = [0] + list(range(1, n)) + [0]
        rhs = [n - 1] + list(range(n - 1)) + [n - 1]
    return lhs, rhs


def word_map(image, m: int, n: int, k: int, word, then=None):
    """x -> then[w(x)] on the k-digit space, as a flat index list: w applies
    the map ``image`` at each offset of ``word`` in turn, and ``then`` is the
    identity when None.  An image value of m**n sends an index to m**k, an
    absorbing index that every letter fixes, the list's last entry.  The word
    is built backwards from its last letter E, cur -> cur[E(x)]: a letter
    whose ``low`` trailing digits span 8 or more indices moves slices of
    cur, a shorter one gathers each block of cur through its table on it."""
    total, top = m**k, m**n
    absorbed = [j for j, t in enumerate(image) if t == top] if top in image else []
    image = [t % top for t in image] if absorbed else image  # read as 0, then overwritten
    cur = list(range(total + bool(absorbed))) if then is None else then
    for off in reversed(word):
        low, span, out = m ** (k - n - off), m ** (k - off), []
        if low >= 8:
            for a in [h + t * low for h in range(0, total, span) for t in image]:
                out += cur[a : a + low]
        else:
            local = image if low == 1 else [a for t in image for a in range(t * low, t * low + low)]
            for h in range(0, total, span):
                out += map(cur[h : h + span].__getitem__, local)
        if absorbed:
            fill = [total] * low
            for a in [h + j * low for h in range(0, total, span) for j in absorbed]:
                out[a : a + low] = fill
            out.append(total)
        cur = out
    return cur


def braid_sides(image, m: int, n: int, sides=("right", "left")):
    """Both words of ``braid_words(n, side)`` on every flat index of 2n-1
    digits, (lhs images, rhs images), for each of ``sides`` in turn.  The
    end tables of E_0 and E_{n-1} are built once for all sides, and each
    side's words share an n-letter core: P = E_{n-1}..E_0 on the right,
    whose lhs is P read through E_0 and whose rhs is E_{n-1} read at P;
    Q = E_0..E_{n-1} on the left, whose lhs is E_0 read at Q and whose
    rhs is Q read through E_{n-1}."""
    k = 2 * n - 1
    ident = list(range(m**k + 1))  # one set of index objects for both end tables
    first, last = word_map(image, m, n, k, [0], ident), word_map(image, m, n, k, [n - 1], ident)
    del ident
    for side in sides:
        if side == "right":
            core = word_map(image, m, n, k, range(n - 1, 0, -1), first)
            pair = word_map(image, m, n, k, [0], core), list(map(last.__getitem__, core))
        else:
            core = word_map(image, m, n, k, range(n - 1), last)
            pair = list(map(first.__getitem__, core)), word_map(image, m, n, k, [n - 1], core)
        del core  # so that no side's lists are alive while the next side's are built
        yield pair
        del pair


def _relation(s: SetNMap, sides):
    """(verdict, first witness) of a relation of s from its two sides."""
    lhs, rhs = sides
    if lhs == rhs:
        return True, None
    x = next(itertools.compress(itertools.count(), map(operator.ne, lhs, rhs)))
    digits = power_shape(s.size, 2 * s.arity - 1).multi
    return False, {"tuple": list(digits(x)), "lhs": list(digits(lhs[x])), "rhs": list(digits(rhs[x]))}


def satisfies(s: SetNMap, side: str, dim_cap=None):
    """(verdict, first witness) of the relation on ``side``, evaluated on all
    m^(2n-1) tuples.  The witness holds the first differing tuple and both
    sides' images of it.  dim_cap, when given, refuses a larger space."""
    m, n = s.size, s.arity
    check_dim_cap(m ** (2 * n - 1), dim_cap)
    return _relation(s, next(braid_sides(s.image, m, n, (side,))))


def nondegeneracy(s: SetNMap):
    """For a ternary map s(x,y,z) = (sigma_{x,z}(y), tau_{x,y}(z), eta_{y,z}(x)):
    {"middle", "left", "right"} -> whether every sigma / tau / eta is a
    bijection.  None for other arities."""
    if s.arity != 3:
        return None
    m = s.size
    digits = power_shape(m, 3).multi
    outs = [digits(y) for y in s.image]
    families = {}
    # sigma / tau / eta move argument pos = 1 / 2 / 0 to output digit pos - 1
    for family, pos in (("middle", 1), ("left", 2), ("right", 0)):
        step = m ** (2 - pos)
        bases = [x for x in range(m**3) if x // step % m == 0]
        families[family] = all(len({outs[x + v * step][pos - 1] for v in range(m)}) == m for x in bases)
    return families


def involutive_order(s: SetNMap, cap: int = INVOLUTIVE_ORDER_CAP):
    """Smallest k <= cap with s^k the identity, or None."""
    ident = list(range(len(s.image)))
    current = list(s.image)
    for k in range(1, cap + 1):
        if current == ident:
            return k
        current = [s.image[x] for x in current]
    return None


def check_set_nsolution(s: SetNMap, dim_cap=None) -> SolutionProfile:
    """Evaluate both relations on all m^(2n-1) tuples and fill the profile.

    The check holds index lists of length m^(2n-1); dim_cap, when given,
    refuses a larger space (the CLI passes its cap here)."""
    m, n = s.size, s.arity
    check_dim_cap(m ** (2 * n - 1), dim_cap)
    (right_ok, right_wit), (left_ok, left_wit) = map(_relation, itertools.repeat(s), braid_sides(s.image, m, n))
    return SolutionProfile(
        is_bijective=s.is_bijective(),
        satisfies_right=right_ok,
        satisfies_left=left_ok,
        nondegenerate=nondegeneracy(s),
        involutive_order=involutive_order(s),
        right_witness=right_wit,
        left_witness=left_wit,
    )


# -- correspondences with n-racks ---------------------------------------


def solution_from_nrack(t: FiniteNRack, dim_cap=None) -> SetNMap:
    """s(x_1..x_n) = (x_2, ..., x_n, <x_1..x_n>) for a right table, or
    s(x_1..x_n) = (<x_1..x_n>, x_1, ..., x_{n-1}) for a left one.

    Works on raw tables; the relation verdict of s must coincide with
    the n-rack verdict of the table, and a mismatch raises.
    """
    m, tail = t.size, t.size ** (t.arity - 1)
    if t.side == "right":
        image = [x % tail * m + v for x, v in enumerate(t.table)]
    else:
        image = [v * tail + x // m for x, v in enumerate(t.table)]
    s = SetNMap(m, t.arity, image, t.side)
    s_ok = satisfies(s, t.side, dim_cap)[0] and s.is_bijective()
    rack_ok = check_nrack(t).passed
    if s_ok != rack_ok:
        raise VerdictDisagreementError(
            "the induced map's solution verdict disagrees with the table's n-rack verdict"
        )
    return s


def nsolution_from_solution(r: SetNMap, n: int, dim_cap=None) -> SetNMap:
    """Lift a binary solution to degree n on the same set:
    s_n = r at offset 0, then offset 1, ..., then offset n-2 of n digits."""
    if r.arity != 2 or n < 2:
        raise SchemaError("nsolution_from_solution lifts a binary map to an arity n >= 2")
    profile = check_set_nsolution(r, dim_cap)
    if not (profile.satisfies_right and profile.is_bijective):
        raise PreconditionError("input is not a set-theoretical solution", profile.to_json())
    if n == 2:
        return r
    return SetNMap(r.size, n, word_map(r.image, r.size, 2, n, range(n - 1)))


def solution_from_nsolution(s: SetNMap, dim_cap=None) -> SetNMap:
    """Descend a degree-n solution to a binary solution on X^(n-1): s at
    offsets n-2, n-3, ..., 0 of 2n-2 digits, whose flat index is the pair
    index on X^(n-1)."""
    profile = check_set_nsolution(s, dim_cap)
    if not (profile.satisfies_right and profile.is_bijective):
        raise PreconditionError("input is not a set-theoretical n-solution", profile.to_json())
    m, n = s.size, s.arity
    return SetNMap(m ** (n - 1), 2, word_map(s.image, m, n, 2 * n - 2, range(n - 2, -1, -1)))


# -- exhaustive enumeration ---------------------------------------------


def _check_enumeration_cap(m: int, n: int):
    if n == 2:
        if m > 4:
            raise CapExceededError("binary enumeration is capped at 4 elements")
    elif n == 3:
        if m > 3:
            raise CapExceededError("ternary enumeration is capped at 3 elements")
    else:
        raise CapExceededError("enumeration is capped at arity 3")


def enumerate_tables(m: int, n: int, table_filter: str, dump: bool = False):
    """Census of all tables passing the filter, in lexicographic order, and
    the list of those tables, each a tuple laid out as ``FiniteNRack.table``.

    Filters:
      nshelf    self-distributivity only
      nrack     self-distributivity plus bijective translations
      nsolution the induced map (x_2..x_n, <x>) satisfies the right
                relation and is bijective: exactly the n-racks (Etingof,
                Schedler and Soloviev, Duke Math. J. 100, 1999, at n = 2),
                so it runs the rack search.  ``solution_from_nrack`` raises
                where the two verdicts differ, and the tests compare each
                admitted census with a search on the induced map alone.
    """
    if table_filter not in ("nshelf", "nrack", "nsolution"):
        raise SchemaError(f"unknown filter {table_filter!r}")
    if m < 1 or n < 2:
        raise SchemaError(f"a census needs m >= 1 and n >= 2, got m={m}, n={n}")
    _check_enumeration_cap(m, n)
    found = _census(m, n, table_filter)
    census = {"filter": table_filter, "m": m, "n": n, "count": len(found)}
    if dump:
        census["tables"] = [list(t) for t in found]
    return census, found


def _census(m: int, n: int, table_filter: str):
    """Every table passing the filter, as a flat tuple: the Sym(m) orbit of
    each representative, without repeats, sorted by column sequence in index
    order, which is the order of a search over lexicographic candidates."""
    candidates, relabellings = _relabellings(m, n, table_filter != "nshelf")
    reps = _enumerate_distributive(m, n, candidates, relabellings)
    labelled = sorted({tuple(conj[rep[s]] for s in src) for rep in reps for src, conj in relabellings})
    return [tuple(candidates[c][x] for x in range(m) for c in cols) for cols in labelled]


def _relabellings(m: int, n: int, bijective: bool):
    """(candidates, relabellings): the candidate columns in lexicographic
    order, permutations or all maps, and for every sigma in Sym(m),
    identity first, the pair (src, conj).  The relabelled table
    T^sigma(x) = sigma T(sigma^-1 x) has at column c the candidate
    conj[i] = sigma t sigma^-1, where i indexes t, the column src[c] =
    sigma^-1(c) of T."""
    if bijective:
        candidates = list(itertools.permutations(range(m)))
    else:
        candidates = list(itertools.product(range(m), repeat=m))
    index = {c: i for i, c in enumerate(candidates)}
    digits = power_shape(m, n - 1).multi
    relabellings = []
    for sigma in itertools.permutations(range(m)):
        inv = sorted(range(m), key=sigma.__getitem__)
        src = [flat_index([inv[a] for a in digits(c)], m) for c in range(m ** (n - 1))]
        conj = [index[tuple(sigma[t[x]] for x in inv)] for t in candidates]
        relabellings.append((src, conj))
    return candidates, relabellings


def _lex_leader(watch, p: int, chosen):
    """Advance each relabelling's comparison of T^sigma with T over the
    positions comparable once position p is assigned.  None when some
    T^sigma is smaller, so no completion is an orbit minimum; else the
    relabellings still tied, each with its first uncompared position."""
    tied = []
    for steps, conj, q in watch:
        d, s, ready = steps[q]
        while ready <= p:
            a, b = conj[chosen[s]], chosen[d]
            if a != b:
                break
            q += 1
            d, s, ready = steps[q]
        else:
            tied.append((steps, conj, q))
            continue
        if a < b:
            return None
    return tied


def _enumerate_distributive(m: int, n: int, candidates, relabellings):
    """The lexicographically least table of each Sym(m) orbit of tables
    passing self-distributivity, with columns (right translations by the
    n-1 trailing arguments) among the candidates (permutations for racks),
    as candidate indices in column index order.

    The diagonal columns (a, ..., a) are assigned first, then the others
    in index order, each running through the candidates in order.  The
    law instance (xs, ys) reads the columns c1 of (x_2..x_n), ys, and c3
    of (t_ys(x_2)..t_ys(x_n)).  parked[k] holds the instances blocked on
    column k: each waits on whichever of c1 and ys comes later, then on
    c3, and assigning column k compares only those.  Parkings are undone
    on backtrack, so an instance is compared at the depth that assigns
    the last column it reads (watched literals, as in Moskewicz et al.,
    "Chaff: engineering an efficient SAT solver", 2001).

    Tables are compared by their column sequence in assignment order.
    Column c of T^sigma is conj[t_src[c]], so it is known once c and
    src[c] are assigned; relabelling maps diagonal columns to diagonal
    ones, so every comparison can start once those are assigned.  Each
    sigma keeps the first position where T and T^sigma are not yet
    compared: a smaller T^sigma prunes the node, a larger one drops sigma
    for the subtree (orderly generation, as in McKay, "Isomorph-free
    exhaustive generation", 1998).  This runs before the node's
    instances, which cost more.  The law is invariant under relabelling,
    so the leaves are the orbit minima.
    """
    diagonal = [flat_index((a,) * (n - 1), m) for a in range(m)]
    order = diagonal + [c for c in range(m ** (n - 1)) if c not in diagonal]
    ncols = len(order)
    rank = sorted(range(ncols), key=order.__getitem__)  # the position of each column in the order
    parked = [[] for _ in order]
    for xs in itertools.product(range(m), repeat=n):
        c1 = flat_index(xs[1:], m)
        for ys in range(ncols):
            parked[c1 if rank[c1] > rank[ys] else ys].append((xs[0], xs[1:], c1, ys, None))
    columns, chosen = [None] * ncols, [None] * ncols
    # per position: (column, the column of T it reads in T^sigma, the position that assigns both); then a sentinel
    watch = [
        ([(c, src[c], max(p, rank[src[c]])) for p, c in enumerate(order)] + [(0, 0, ncols)], conj, 0)
        for src, conj in relabellings[1:]
    ]

    def dfs(p, watch):
        if p == ncols:
            yield tuple(chosen)
            return
        k = order[p]
        for i, cand in enumerate(candidates):
            columns[k], chosen[k] = cand, i
            tied = _lex_leader(watch, p, chosen)
            if tied is None:
                continue
            trail = []
            for x0, tail, c1, ys, c3 in parked[k]:
                ty = columns[ys]
                if c3 is None:
                    c3 = flat_index([ty[x] for x in tail], m)
                    if columns[c3] is None:
                        parked[c3].append((x0, tail, c1, ys, c3))
                        trail.append(c3)
                        continue
                if ty[columns[c1][x0]] != columns[c3][ty[x0]]:
                    break
            else:
                yield from dfs(p + 1, tied)
            for j in trail:
                parked[j].pop()
        columns[k] = None

    yield from dfs(0, watch)
    del dfs  # dfs refers to itself: without this, the search's lists wait for a full collection
