"""Acceptance criteria, one test per criterion, and one timed cap-scale
verification.

Every check here is exact (literal equality of canonical rationals)
except the float-mode sanity criterion, whose tolerance is 1e-9.  Each
test prints one pass/fail line with its runtime and asserts the stated
budget.
"""

import functools
import itertools
import math
import random
import time
from dataclasses import replace
from fractions import Fraction

import braidforge.linrack as lr
import braidforge.nleibniz as nl
import braidforge.nrack as nr
import braidforge.setsol as ss
import braidforge.tensor as T
import braidforge.ybops as yb
from census_oracle import all_tables
from library_extras import bracket_basis, trivial_nrack, zero_algebra

ONE = Fraction(1)


class Timer:
    def __init__(self, label, budget):
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.label}: {status} ({elapsed:.2f}s / budget {self.budget}s)")
        if exc_type is None:
            assert elapsed < self.budget, f"{self.label} exceeded its {self.budget}s budget"
        return False


def random_bracket(rng, dim, arity=3, max_entries=3, min_entries=0):
    bracket = {}
    for _ in range(rng.randint(min_entries, max_entries)):
        key = tuple(rng.randrange(dim) for _ in range(arity))
        coeff = rng.choice([-2, -1, 1, 2])
        bracket.setdefault(key, {})[rng.randrange(dim)] = coeff
    return nl.NLeibnizAlgebra(arity, dim, bracket)


def test_criterion_01_identity_iff_braid_equation(t3):
    """Verdict agreement between the fundamental identity and the degree-3
    braid relation over 50 random sparse brackets plus T3 and zero."""
    with Timer("1 identity-iff-braiding", 30):
        rng = random.Random(20250810)
        instances = [t3, zero_algebra(3, 2)]
        while len(instances) < 52:
            instances.append(random_bracket(rng, rng.randint(1, 3)))
        verdicts = {True: 0, False: 0}
        for alg in instances:
            s, report, fi = yb.nyb_iff_nleibniz(alg)  # raises on any disagreement
            assert report.is_operator == fi.passed
            verdicts[fi.passed] += 1
        assert verdicts[True] >= 1 and verdicts[False] >= 1  # both outcomes exercised


def test_criterion_02_central_operator(t3bar):
    """The degree-3 operator of the 4-dimensional unit extension holds on
    the full 1024-dimensional space and is invertible."""
    with Timer("2 central-operator", 10):
        s = yb.nyb_from_central_nleibniz(t3bar)
        report = yb.verify_nybe(s, 3, "right")
        assert report.holds and report.verification_dim == 1024
        inv = T.invert(s)
        assert s @ inv == T.identity(T.power_shape(4, 3))


def test_criterion_03_lift_descend_round(a3, t3bar):
    """Lifting the k(+)A3 braiding to degree 3 reproduces the nested-bracket
    formula; descending the unit-extension operator reproduces the
    tensor-power braiding."""
    with Timer("3 lift-descend", 20):
        r = lr.nrack_braiding(lr.linear_nrack_from_nleibniz(a3))[0]
        s3 = yb.nyb_from_ybe(r, 3)
        assert yb.verify_nybe(s3, 3, "right").is_operator
        # the displayed degree-3 formula, assembled independently
        cl = nl.adjoin_unit(a3)
        d = 4
        shp = T.power_shape(d, 3)
        expected = {}
        br = functools.partial(bracket_basis, cl)
        for x, y, z in itertools.product(range(d), repeat=3):
            col = shp.flat((x, y, z))

            def add(row, coeff):
                expected[(row, col)] = expected.get((row, col), Fraction(0)) + coeff

            add(shp.flat((y, z, x)), ONE)
            for j, c in br((x, z)).items():
                add(shp.flat((y, 0, j)), c)
            for j, c in br((x, y)).items():
                add(shp.flat((0, z, j)), c)
                for j2, c2 in br((j, z)).items():
                    add(shp.flat((0, 0, j2)), c * c2)
        assert s3 == T.TensorOperator(shp, shp, expected)

        s = yb.nyb_from_central_nleibniz(t3bar)
        st = yb.ybe_from_nyb(s, 3)
        assert yb.verify_nybe(st, 2).is_operator
        assert st == yb.nyb_from_central_nleibniz(nl.fundamental_leibniz(t3bar))


def test_criterion_04_tensor_power_coincidence(t3):
    """The two routes to the braiding on the 16-dimensional tensor square
    agree entrywise."""
    with Timer("4 tensor-power-coincidence", 20):
        direct = yb.r2_from_nleibniz(t3)
        lnr = lr.linear_nrack_from_nleibniz(t3)
        rack = lr.linear_rack_on_tensor_power(lnr)
        via_coalgebra = lr.nrack_braiding(rack)[0]
        assert direct == via_coalgebra


def test_criterion_05_eta_intertwining(t3):
    """The embedding of the unit-extended tensor power intertwines the two
    braidings, for T3 and for 20 random certified ternary algebras."""
    with Timer("5 eta-intertwining", 30):
        rng = random.Random(97)
        certified = [t3]
        attempts = 0
        while len(certified) < 21:
            attempts += 1
            assert attempts < 3000, "rejection sampling stalled"
            cand = random_bracket(rng, rng.randint(2, 3), max_entries=2, min_entries=1)
            if nl.check_fundamental_identity(cand).passed:
                certified.append(cand.as_certified())
        nontrivial = sum(1 for alg in certified if alg.bracket)
        assert nontrivial >= 8, "sampler degenerated to zero brackets"
        for alg in certified:
            eta, report = yb.eta_intertwiner(alg)
            names = {c.name: c.status for c in report.checks}
            assert names["intertwining"] == "pass", report.to_json()
            assert names["injectivity"] == "pass"


def test_criterion_06_census_agreement():
    """Over every binary and ternary table on two points, the table verdict
    equals the induced map's verdict; the binary census counts exactly 2."""
    with Timer("6 census", 5):
        for n in (2, 3):
            for t in all_tables(2, n):
                ss.solution_from_nrack(t)  # raises on the first disagreement
        census, _ = ss.enumerate_tables(2, 2, "nrack")
        assert census["count"] == 2


def test_criterion_07_linear_nrack_axioms(conj3):
    """The linearized conjugation structure on Sym(3) passes the four matrix
    identities, and its degree-3 operator holds on the 7776-dimensional
    verification space."""
    with Timer("7 linear-nrack", 60):
        l = lr.linearize_nrack(conj3)
        report = lr.check_linear_nrack(l)
        assert report.passed and len(report.checks) == 4
        s, _ = lr.nrack_braiding(l)
        verdict = yb.verify_nybe(s, 3, "right")
        assert verdict.holds and verdict.invertible
        assert verdict.verification_dim == 7776


def test_criterion_08_set_side_diagrams(s3, conj3, flip_rack):
    """Both lift/descend diagrams hold as exact table equalities for the
    trivial rack, the two-point increment rack, and Sym(3) conjugation."""
    with Timer("8 set-diagrams", 5):
        racks = [trivial_nrack(2, 2), flip_rack, nr.conjugation_nrack(s3, 2)]
        for rack in racks:
            r = ss.solution_from_nrack(rack)
            lifted = ss.nsolution_from_solution(r, 3)
            induced = ss.solution_from_nrack(nr.nrack_from_rack(rack, 3))
            assert lifted.image == induced.image
        ternaries = [trivial_nrack(2, 3), nr.nrack_from_rack(flip_rack, 3), conj3]
        for t in ternaries:
            s = ss.solution_from_nrack(t)
            descended = ss.solution_from_nsolution(s)
            induced = ss.solution_from_nrack(nr.krack_from_power(t, 2))
            assert descended.image == induced.image


def test_criterion_09_exp_rack_consistency(t3):
    """The exponential-action rack on T3 is self-distributive at every
    sample-grid point, and the pure-tensor embedding is a rack map."""
    with Timer("9 exp-rack", 5):
        rack = nr.nrack_from_nleibniz(t3)
        assert nr.validate_vector_nrack(rack).passed
        assert nr.verify_tensor_embedding(t3).passed


def test_criterion_10_float_mode():
    """The truncated series for the non-nilpotent two-dimensional algebra
    reproduces e to within 1e-9."""
    with Timer("10 float-exp", 1):
        alg = nl.certify(nl.NLeibnizAlgebra(2, 2, {(0, 1): {0: 1}}))
        e = nl.exp_ad(replace(alg, mode="float"), [{1: ONE}])
        assert abs(e.entries[(0, 0)] - math.e) < 1e-9


def test_cap_scale_monomial_verification(s3):
    """The north star at cap scale: the Sym(3) group-algebra braiding at
    n=4 is checked on all 6^7 = 279936 basis vectors of the verification
    space within 10 s."""
    with Timer("cap-scale nybe Sym(3) n=4", 10):
        report = yb.verify_nybe(yb.group_algebra_nyb(s3, 4), 4, "right")
        assert report.verification_dim == 279936
        assert report.holds and report.invertible


def unit_extended_ternary(bracket):
    """The degree-3 braiding of a ternary bracket on k^15 with a unit
    adjoined, on (k (+) k^15)^(x)3, built without certifying the bracket."""
    return yb._nyb_formula(nl.unit_extension(nl.NLeibnizAlgebra(3, 15, bracket)))


def test_cap_scale_general_verification():
    """The north star for non-monomial operators: the braiding of a dim-15
    ternary bracket with a unit adjoined is checked on all 16^5 = 2^20
    basis vectors within 6 s, once for [e_0, e_1, e_1] = e_2, which
    holds, and once with [e_2, e_1, e_1] = e_1 added, which fails; its
    witness is the whole-column kernel's of ``kernel_oracle``."""
    cases = [({(0, 1, 1): {2: 1}}, None), ({(0, 1, 1): {2: 1}, (2, 1, 1): {1: 1}}, 205602)]
    for bracket, witness in cases:
        s = unit_extended_ternary(bracket)
        with Timer(f"cap-scale nybe dim-15 bracket, witness {witness}", 6):
            report = yb.verify_nybe(s, 3, "right")
        assert report.verification_dim == 2**20
        assert (report.holds, report.witness) == (witness is None, witness)


def test_nrack_check_on_the_sym3_4rack(s3):
    """The census's largest rack check: the Sym(3) conjugation 4-rack on
    all 6^7 = 279936 tuples, in blocks of flat index lists, within 1 s."""
    t = nr.conjugation_nrack(s3, 4)
    with Timer("nrack check Sym(3) n=4", 1):
        assert nr.check_nrack(t).passed


def test_linear_nrack_check_on_the_sym3_4rack(s3, tmp_path, capsys):
    """The linearized Sym(3) conjugation 4-rack through ``check``: its laws
    walk 6^7 = 279936 columns, within 10 s, and it passes with exit 0."""
    import json

    import braidforge.cli as cli
    import braidforge.serialization as ser

    path = tmp_path / "sym3-4.json"
    path.write_text(json.dumps(ser.to_document(lr.linearize_nrack(nr.conjugation_nrack(s3, 4)))))
    with Timer("linear_nrack check Sym(3) n=4", 10):
        assert cli.main(["check", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["overall"] == "pass"
