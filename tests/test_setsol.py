import functools
import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

import braidforge.nrack as nr
import braidforge.serialization as ser
import braidforge.setsol as ss
import setmap_oracle as oracle
from braidforge.errors import CapExceededError, PreconditionError, SchemaError
from census_oracle import CENSUS_CASES, all_tables, rescan_census
from library_extras import trivial_nrack

T12, T23, T13 = 2, 1, 5  # transposition indices in Sym(3), lex order


# -- profiles -----------------------------------------------------------------


def test_flip_profile():
    p = ss.check_set_nsolution(ss.flip_map(2, 3))
    assert p.is_right_solution and p.is_bijective
    assert p.nondegenerate == {"middle": True, "left": True, "right": True}
    assert p.involutive_order == 3


def test_identity_profile():
    ident = ss.from_function(2, 3, lambda *a: a)
    p = ss.check_set_nsolution(ident)
    assert p.is_right_solution and p.satisfies_left
    assert p.involutive_order == 1


def test_twisted_flip_needs_commuting_twists():
    # s(x1, x2, x3) = (f2 x2, f3 x3, f1 x1) works iff f1 commutes with each f_i
    f_const0 = (0, 0)
    f_id = (0, 1)
    f_swap = (1, 0)
    bad = ss.from_function(2, 3, lambda a, b, c: (f_id[b], f_swap[c], f_const0[a]))
    assert not ss.check_set_nsolution(bad).satisfies_right
    good = ss.from_function(2, 3, lambda a, b, c: (f_swap[b], f_swap[c], f_swap[a]))
    assert ss.check_set_nsolution(good).satisfies_right
    # the witness of the bad one is a concrete tuple
    p = ss.check_set_nsolution(bad)
    assert p.right_witness is not None and len(p.right_witness["tuple"]) == 5


def test_group_collapse_examples_satisfy_but_are_not_bijective(s3):
    e = s3.identity
    mul, inv = s3.mul, s3.inv
    s1 = ss.from_function(6, 3, lambda g, h, k: (e, e, mul[mul[g][h]][k]))
    s2 = ss.from_function(6, 3, lambda g, h, k: (e, e, mul[mul[g][inv[h]]][k]))
    for s in (s1, s2):
        p = ss.check_set_nsolution(s)
        assert p.satisfies_right and not p.is_bijective
        assert not p.is_right_solution  # the strict reading


def test_conjugation_solution_nondegenerate_not_3involutive(conj3):
    p = ss.check_set_nsolution(ss.solution_from_nrack(conj3))
    assert p.is_right_solution
    assert p.nondegenerate == {"middle": True, "left": True, "right": True}
    assert p.involutive_order == 18


def test_degenerate_classification():
    collapse = ss.from_function(2, 3, lambda x, y, z: (y, z, 0))
    p = ss.check_set_nsolution(collapse)
    assert p.nondegenerate == {"middle": True, "left": True, "right": False}


def test_classify_requires_arity_3():
    # the component families sigma, tau, eta exist for ternary maps only
    assert ss.nondegeneracy(ss.flip_map(2, 2)) is None
    assert ss.check_set_nsolution(ss.flip_map(2, 2)).nondegenerate is None


# -- rack correspondence --------------------------------------------------------


def test_trivial_rack_gives_flip():
    s = ss.solution_from_nrack(trivial_nrack(2, 3))
    assert s.image == ss.flip_map(2, 3).image


def test_conjugation_3rack_gives_solution(conj3):
    s = ss.solution_from_nrack(conj3)
    assert ss.check_set_nsolution(s).is_right_solution


def test_non_rack_table_agrees_on_failure():
    meet = nr.from_function(2, 2, lambda x, y: x * y)
    s = ss.solution_from_nrack(meet)  # no disagreement raised
    p = ss.check_set_nsolution(s)
    assert not p.is_right_solution


def test_left_rack_gives_left_solution(conj3):
    left = conj3.reversed_args()
    s = ss.solution_from_nrack(left)
    p = ss.check_set_nsolution(s)
    assert p.satisfies_left and p.is_bijective


def test_verdict_agreement_all_tables_m2():
    for n in (2, 3):
        for t in all_tables(2, n):
            ss.solution_from_nrack(t)  # raises on any disagreement


def test_mirror_duality_exhaustive_m2():
    # all raw binary maps on two points
    for image in itertools.product(range(4), repeat=4):
        s = ss.SetNMap(2, 2, image)
        p = ss.check_set_nsolution(s)
        pm = ss.check_set_nsolution(s.mirror())
        assert p.satisfies_right == pm.satisfies_left
        assert p.satisfies_left == pm.satisfies_right
    # all table-induced ternary maps
    for t in all_tables(2, 3):
        s = ss.from_function(2, 3, lambda *a: a[1:] + (t.apply(a),))
        p = ss.check_set_nsolution(s)
        pm = ss.check_set_nsolution(s.mirror())
        assert p.satisfies_right == pm.satisfies_left


# -- lifts and descents ----------------------------------------------------------


def test_lift_flip():
    s = ss.nsolution_from_solution(ss.flip_map(2, 2), 3)
    assert s.image == ss.flip_map(2, 3).image


def test_descend_flip_is_block_flip():
    s = ss.nsolution_from_solution(ss.flip_map(2, 2), 3)
    back = ss.solution_from_nsolution(s)
    for u, v in itertools.product(range(4), repeat=2):
        assert back.apply((u, v)) == (v, u)


def test_lift_rejects_non_solution():
    broken = ss.from_function(2, 2, lambda x, y: (0, 0))
    with pytest.raises(PreconditionError):
        ss.nsolution_from_solution(broken, 3)


def test_rack_diagram_closure(flip_rack, s3):
    # lifting the rack solution = inducing from the folded rack
    for rack in (trivial_nrack(2, 2), flip_rack, nr.conjugation_nrack(s3, 2)):
        r = ss.solution_from_nrack(rack)
        lhs = ss.nsolution_from_solution(r, 3)
        rhs = ss.solution_from_nrack(nr.nrack_from_rack(rack, 3))
        assert lhs.image == rhs.image


def test_nrack_diagram_closure(conj3, flip_rack):
    # descending the induced solution = the solution of the induced rack
    cases = [trivial_nrack(2, 3), nr.nrack_from_rack(flip_rack, 3), conj3]
    for t in cases:
        s = ss.solution_from_nrack(t)
        lhs = ss.solution_from_nsolution(s)
        rhs = ss.solution_from_nrack(nr.krack_from_power(t, 2))
        assert lhs.image == rhs.image


# -- enumeration ------------------------------------------------------------------


def test_census_m2_n2_racks():
    census, found = ss.enumerate_tables(2, 2, "nrack")
    assert census["count"] == 2
    assert sorted(found) == [(0, 0, 1, 1), (1, 1, 0, 0)]


def test_census_m1():
    assert ss.enumerate_tables(1, 3, "nrack")[0]["count"] == 1


def test_census_diag_correspondence():
    for m, n in ((2, 2), (2, 3), (3, 2), (3, 3)):
        racks, _ = ss.enumerate_tables(m, n, "nrack")
        sols, _ = ss.enumerate_tables(m, n, "nsolution")
        assert racks["count"] == sols["count"]
    # one search serves both filters; test_watched_census_matches_rescan checks nsolution on the map alone
    r, rf = ss.enumerate_tables(3, 3, "nrack", dump=True)
    s, sf = ss.enumerate_tables(3, 3, "nsolution", dump=True)
    assert r["tables"] == s["tables"]


def test_census_known_rack_counts():
    # labeled racks on 1, 2, 3, 4 elements; cross-checked against a naive
    # column brute force, and the orbit counts under relabeling (2, 6, 19)
    # match the classification of racks on up to four elements
    assert ss.enumerate_tables(1, 2, "nrack")[0]["count"] == 1
    assert ss.enumerate_tables(2, 2, "nrack")[0]["count"] == 2
    assert ss.enumerate_tables(3, 2, "nrack")[0]["count"] == 13
    assert ss.enumerate_tables(4, 2, "nrack")[0]["count"] == 114


def test_census_isomorphism_classes():
    for m, expected in ((2, 2), (3, 6), (4, 19)):
        _, found = ss.enumerate_tables(m, 2, "nrack")
        tables = set(found)
        perms = list(itertools.permutations(range(m)))
        seen, classes = set(), 0
        for table in sorted(tables):
            if table in seen:
                continue
            classes += 1
            rack = nr.FiniteNRack(m, 2, table)
            for p in perms:
                inv = [0] * m
                for i, v in enumerate(p):
                    inv[v] = i
                seen.add(
                    tuple(
                        p[rack.apply((inv[x], inv[y]))]
                        for x in range(m)
                        for y in range(m)
                    )
                )
        assert classes == expected


def test_census_shelves_on_three_points():
    # pinned against a direct scan of all 3^9 tables
    assert ss.enumerate_tables(3, 2, "nshelf")[0]["count"] == 224


def test_census_shelves_superset():
    shelves, _ = ss.enumerate_tables(2, 2, "nshelf")
    racks, _ = ss.enumerate_tables(2, 2, "nrack")
    assert shelves["count"] >= racks["count"]


def test_census_deterministic_order():
    c1, found1 = ss.enumerate_tables(2, 3, "nrack", dump=True)
    c2, found2 = ss.enumerate_tables(2, 3, "nrack", dump=True)
    assert c1 == c2
    tables = c1["tables"]
    assert tables == sorted(tables)
    # every reported table really is an n-rack
    for t in found1:
        assert nr.check_nrack(nr.FiniteNRack(2, 3, t)).passed
    # and nothing was missed: compare against the raw filter
    brute = [list(t.table) for t in all_tables(2, 3) if nr.check_nrack(t).passed]
    assert tables == brute


def test_census_nsolution_matches_brute_force():
    got = ss.enumerate_tables(2, 3, "nsolution")[1]
    brute = []
    for t in all_tables(2, 3):
        s = ss.from_function(2, 3, lambda *a: a[1:] + (t.apply(a),))
        ok, _ = ss.satisfies(s, "right")
        if ok and s.is_bijective():
            brute.append(t.table)
    assert got == brute


@pytest.mark.parametrize("m, n, table_filter", CENSUS_CASES)
def test_watched_census_matches_rescan(m, n, table_filter):
    # same tables in the same order as the DFS that rescans every instance per node
    census, found = ss.enumerate_tables(m, n, table_filter, dump=True)
    expected = rescan_census(m, n, table_filter)
    assert tuple(found) == expected
    assert census["tables"] == [list(t) for t in expected] and census["count"] == len(expected)


def test_every_admitted_size_has_a_map_based_nsolution_case():
    # the nsolution census runs the rack search; only the rescan, which runs the braid words on the induced map,
    # shows that the two agree, so a cap that admits a new size needs a case for it here first
    admitted = []
    for m, n in itertools.product(range(1, 8), range(2, 6)):
        try:
            ss._check_enumeration_cap(m, n)
        except CapExceededError:
            continue
        admitted.append((m, n))
    assert admitted
    for m, n in admitted:
        assert (m, n, "nsolution") in CENSUS_CASES


def test_caps():
    with pytest.raises(CapExceededError):
        ss.enumerate_tables(5, 2, "nrack")
    with pytest.raises(CapExceededError):
        ss.enumerate_tables(4, 3, "nrack")
    with pytest.raises(CapExceededError):
        ss.enumerate_tables(2, 4, "nrack")


def test_involutive_order_cap():
    # s^2 shifts both arguments by one, so s has order 10
    shift = ss.from_function(5, 2, lambda x, y: (y, (x + 1) % 5))
    assert ss.involutive_order(shift) == 10
    assert ss.involutive_order(shift, cap=10) == 10
    assert ss.involutive_order(shift, cap=9) is None
    # cycles of lengths 2, 3 and 5 on X^2: order 30, above the default cap
    image = list(range(25))
    for cycle in ((0, 1), (2, 3, 4), (5, 6, 7, 8, 9)):
        for i, x in enumerate(cycle):
            image[x] = cycle[(i + 1) % len(cycle)]
    long = ss.SetNMap(5, 2, image)
    assert ss.involutive_order(long) is None
    assert ss.involutive_order(long, cap=30) == 30


def test_from_function_refuses_bad_outputs():
    with pytest.raises(SchemaError):
        ss.from_function(2, 3, lambda *a: a[:2])  # two digits where three are due
    with pytest.raises(SchemaError):
        ss.from_function(2, 3, lambda *a: a[:2] + (2,))  # digit out of range
    with pytest.raises(SchemaError):
        ss.SetNMap(2, 2, [0, 1, 2, 4])  # flat index out of range
    with pytest.raises(SchemaError):
        ss.SetNMap(2, 2, [0, 1, 2])  # not total


def test_set_map_images_are_refused_not_truncated():
    for image in ((0, 1, 2, 2.5), (0, True, 2, 3), (0, "1", 2, 3)):
        with pytest.raises(SchemaError):
            ss.SetNMap(2, 2, image)
    # integral numbers of any type are read as ints
    s = ss.SetNMap(2, 2, (0, 1.0, 2, 3))
    assert s.image == (0, 1, 2, 3) and set(map(type, s.image)) == {int}


# -- index lists against the tuple implementation -------------------------------


@functools.cache
def racks(m, n):
    """Right n-racks on m points: the census for arity 2 and 3, lifted binary ones for 4."""
    if n < 4:
        return [nr.FiniteNRack(m, n, t) for t in ss.enumerate_tables(m, n, "nrack")[1]]
    return [nr.nrack_from_rack(r.as_certified(), n) for r in racks(m, 2)]


@st.composite
def set_maps(draw):
    """(SetNMap, the same map as a TupleMap, the table it was induced from or
    None): random, bijective, constant or rack-induced, arity 2-4, either side."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(1, {2: 4, 3: 3, 4: 2}[n]))
    side = draw(st.sampled_from(["right", "left"]))
    total = m**n
    kind = draw(st.sampled_from(["random", "bijective", "constant", "rack"]))
    table = None
    if kind == "random":
        image = draw(st.lists(st.integers(0, total - 1), min_size=total, max_size=total))
    elif kind == "bijective":
        image = draw(st.permutations(range(total)))
    elif kind == "constant":
        image = [draw(st.integers(0, total - 1))] * total
    else:
        if draw(st.booleans()):
            table = draw(st.sampled_from(racks(m, n)))
            table = table.reversed_args() if side == "left" else table
        else:
            values = draw(st.lists(st.integers(0, m - 1), min_size=total, max_size=total))
            table = nr.FiniteNRack(m, n, values, side)
        image = oracle.solution_from_nrack(table).image()
    return ss.SetNMap(m, n, image, side), oracle.from_image(m, n, image, side), table


def same_or_both_refused(build, build_oracle):
    """The built map and the oracle's agree, or both raise PreconditionError."""
    try:
        want = build_oracle()
    except PreconditionError:
        with pytest.raises(PreconditionError):
            build()
        return
    got = build()
    assert (got.size, got.arity, got.image, got.side) == (want.size, want.arity, want.image(), want.side)


@settings(max_examples=150, deadline=None)
@given(set_maps(), st.integers(2, 4))
@example((ss.flip_map(2, 2), oracle.from_function(2, 2, lambda x, y: (y, x)), trivial_nrack(2, 2)), 4)
def test_index_lists_match_tuple_implementation(case, lift_to):
    s, o, table = case
    assert s.image == o.image()
    assert ss.check_set_nsolution(s) == oracle.check_set_nsolution(o)
    for side in ("right", "left"):
        assert ss.satisfies(s, side) == oracle.satisfies(o, side)
    mirrored, want = s.mirror(), o.mirror()
    assert (mirrored.image, mirrored.side) == (want.image(), want.side)
    assert ser.set_map_to_document(s) == oracle.to_document(o)
    assert ser.set_map_from_document(oracle.to_document(o)) == s
    if table is not None:
        induced = ss.solution_from_nrack(table)
        assert (induced.image, induced.side) == (o.image(), o.side)
    if s.arity == 2:
        same_or_both_refused(
            lambda: ss.nsolution_from_solution(s, lift_to),
            lambda: oracle.nsolution_from_solution(o, lift_to),
        )
    same_or_both_refused(lambda: ss.solution_from_nsolution(s), lambda: oracle.solution_from_nsolution(o))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 3), st.data())
def test_offset_map_matches_the_comprehension(m, n, extra, data):
    k = n + extra
    off = data.draw(st.integers(0, k - n))
    image = data.draw(st.lists(st.integers(0, m**n - 1), min_size=m**n, max_size=m**n))
    low = m ** (k - n - off)
    want = [h + t * low + j for h in range(0, m**k, m**n * low) for t in image for j in range(low)]
    assert ss.word_map(image, m, n, k, [off]) == want


# -- the backward word builder against the tuple words ---------------------------

#: (m, n) of the words below; m=2 with n >= 4, m=3 with n=3 and m=4 with n=3
#: have letters with a trailing block of 8 or more indices (moved as slices)
WORD_SIZES = [(1, 2), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (4, 3), (2, 4), (2, 5), (3, 4)]


@st.composite
def images(draw, m, n):
    """A bijective, arbitrary, few-valued or constant image of X^n, X of size m."""
    total = m**n
    kind = draw(st.sampled_from(["bijective", "arbitrary", "few", "constant"]))
    if kind == "bijective":
        return tuple(draw(st.permutations(range(total))))
    if kind == "constant":
        return (draw(st.integers(0, total - 1)),) * total
    values = draw(st.lists(st.integers(0, total - 1), min_size=1, max_size=total if kind == "arbitrary" else 2))
    return tuple(draw(st.lists(st.sampled_from(values), min_size=total, max_size=total)))


@st.composite
def sized_images(draw, sizes=WORD_SIZES):
    m, n = draw(st.sampled_from(sizes))
    return m, n, draw(images(m, n))


@settings(max_examples=80, deadline=None)
@given(sized_images())
@example((2, 4, tuple(range(15, -1, -1))))
@example((3, 3, (0,) * 27))
def test_braid_sides_match_the_tuple_words(case):
    m, n, image = case
    o = oracle.from_image(m, n, image)
    want = {side: tuple(oracle.word_images(o, word, 2 * n - 1) for word in ss.braid_words(n, side)) for side in ("right", "left")}
    assert dict(zip(("right", "left"), ss.braid_sides(image, m, n))) == want
    for side in ("left", "right"):  # one side alone, from its own end tables
        assert next(ss.braid_sides(image, m, n, (side,))) == want[side]


@settings(max_examples=80, deadline=None)
@given(sized_images(), st.integers(0, 2), st.data())
def test_word_map_matches_the_tuple_words(case, extra, data):
    m, n, image = case
    k = n + extra
    word = data.draw(st.lists(st.integers(0, k - n), min_size=1, max_size=4))
    then = data.draw(st.none() | st.permutations(range(m**k)) | st.lists(st.integers(0, m**k - 1), min_size=m**k, max_size=m**k))
    want = oracle.word_images(oracle.from_image(m, n, image), word, k)
    if then is not None:
        want = [then[y] for y in want]
    assert ss.word_map(image, m, n, k, word, then) == want


@settings(max_examples=60, deadline=None)
@given(sized_images([(1, 2), (2, 2), (3, 2), (4, 2)]), st.integers(3, 6))
def test_lift_word_matches_the_tuple_word(case, lift_to):
    """The lift's word, offsets 0..n-2 of n digits, on any binary map (m=2
    from n=5 on, m=3 from n=4 on, moves slices)."""
    m, _, image = case
    want = oracle.word_images(oracle.from_image(m, 2, image), range(lift_to - 1), lift_to)
    assert ss.word_map(image, m, 2, lift_to, range(lift_to - 1)) == want


@settings(max_examples=60, deadline=None)
@given(sized_images())
def test_descent_word_matches_the_tuple_word(case):
    """The descent's word, offsets n-2..0 of 2n-2 digits, on any map."""
    m, n, image = case
    want = oracle.word_images(oracle.from_image(m, n, image), range(n - 2, -1, -1), 2 * n - 2)
    assert ss.word_map(image, m, n, 2 * n - 2, range(n - 2, -1, -1)) == want


# -- orbit representatives under relabelling ---------------------------------


def relabel(table, m, n, sigma):
    """T^sigma(x_1..x_n) = sigma T(sigma^-1 x_1, ..., sigma^-1 x_n), as a flat table."""
    out = [0] * m**n
    for xs, v in zip(itertools.product(range(m), repeat=n), table):
        out[sum(sigma[x] * m ** (n - 1 - i) for i, x in enumerate(xs))] = sigma[v]
    return tuple(out)


def representatives(m, n, table_filter):
    """The private search, past any cap: the lex-least table of each Sym(m) orbit, as flat tables."""
    candidates, relabellings = ss._relabellings(m, n, table_filter != "nshelf")
    reps = ss._enumerate_distributive(m, n, candidates, relabellings)
    return [tuple(candidates[c][x] for x in range(m) for c in rep) for rep in reps]


@pytest.mark.parametrize(
    "m, n, table_filter, classes",
    [
        *((m, 2, "nrack", c) for m, c in zip(range(1, 6), (1, 2, 6, 19, 74))),  # racks up to isomorphism, OEIS A181771
        (3, 3, "nrack", 55),
        (3, 3, "nsolution", 55),
        (3, 2, "nshelf", 48),
        (4, 2, "nshelf", 720),
        (2, 3, "nshelf", 33),
    ],
)
def test_orbit_representative_counts(m, n, table_filter, classes):
    assert len(representatives(m, n, table_filter)) == classes


@pytest.mark.parametrize("table_filter", ["nrack", "nsolution"])
def test_labelled_census_past_the_cap(table_filter):
    # the orbits of the 74 binary racks on five points hold 1708 labelled tables
    assert len(ss._census(5, 2, table_filter)) == 1708


@pytest.mark.parametrize("m, n, table_filter", CENSUS_CASES)
def test_census_dump_is_closed_under_relabelling(m, n, table_filter):
    tables = set(rescan_census(m, n, table_filter))
    for table in tables:
        assert all(relabel(table, m, n, sigma) in tables for sigma in itertools.permutations(range(m)))


@pytest.mark.parametrize("m, n, table_filter", CENSUS_CASES)
def test_representatives_are_the_orbit_minima(m, n, table_filter):
    # tables compare by their columns, the diagonal columns (a, ..., a) first and then the rest in index order
    ncols = m ** (n - 1)
    diagonal = [sum(a * m**i for i in range(n - 1)) for a in range(m)]
    order = diagonal + [c for c in range(ncols) if c not in diagonal]

    def key(table):
        return [table[c::ncols] for c in order]

    perms = list(itertools.permutations(range(m)))
    minima = {min((relabel(t, m, n, sigma) for sigma in perms), key=key) for t in rescan_census(m, n, table_filter)}
    assert representatives(m, n, table_filter) == sorted(minima, key=key)


@st.composite
def relabelled_tables(draw):
    """(m, n, a table, a relabelling sigma in Sym(m)): random tables and census racks."""
    n = draw(st.integers(2, 3))
    m = draw(st.integers(1, 4))
    if (n == 2 or m < 4) and draw(st.booleans()):
        table = draw(st.sampled_from(racks(m, n))).table
    else:
        table = tuple(draw(st.lists(st.integers(0, m - 1), min_size=m**n, max_size=m**n)))
    return m, n, table, draw(st.permutations(range(m)))


@settings(max_examples=150, deadline=None)
@given(relabelled_tables())
def test_filters_are_invariant_under_relabelling(case):
    # the census searches one table per orbit because every verdict below is the same on T and T^sigma
    m, n, table, sigma = case
    t, ts = nr.FiniteNRack(m, n, table), nr.FiniteNRack(m, n, relabel(table, m, n, sigma))
    assert [(c.name, c.status) for c in nr.check_nrack(t).checks] == [
        (c.name, c.status) for c in nr.check_nrack(ts).checks
    ]
    s, ss_sigma = ss.solution_from_nrack(t), ss.solution_from_nrack(ts)
    assert ss.satisfies(s, "right")[0] == ss.satisfies(ss_sigma, "right")[0]
    assert s.is_bijective() == ss_sigma.is_bijective()
