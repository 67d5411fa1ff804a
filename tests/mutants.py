"""Mutants of the fast paths, each with the tests that should kill it.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

A mutant replaces one snippet of a file under ``src/`` (the snippet must
occur exactly once there; ``test_mutants.py`` checks that) with a wrong or
an equivalent variant.  The runner copies ``src/`` to a temporary
directory, applies the mutant there and runs the mutant's tests against
the copy.  A mutant is killed when one of its tests fails.  Its expected
outcome is "killed", or "survives: <reason>" for an equivalent mutant,
one that changes only the cost.  The runner exits nonzero when any
mutant ends otherwise.  It needs only the standard library and pytest.
The method is that of DeMillo, Lipton and Sayward, "Hints on test data
selection: help for the practicing programmer", IEEE Computer 11(4), 1978.
"""

from __future__ import annotations

import collections
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]

Mutant = collections.namedtuple("Mutant", "name file old new tests expected")

NRACK = "src/braidforge/nrack.py"
NLEIBNIZ = "src/braidforge/nleibniz.py"
SETSOL = "src/braidforge/setsol.py"
SCALARS = "src/braidforge/scalars.py"
TENSOR = "src/braidforge/tensor.py"
LINRACK = "src/braidforge/linrack.py"
CLI = "src/braidforge/cli.py"
YBOPS = "src/braidforge/ybops.py"

NRACK_TESTS = (
    "tests/test_nrack.py::test_check_nrack_matches_the_tuple_loop_on_repeated_translations",
    "tests/test_nrack.py::test_first_failure_at_a_repeated_translation_keeps_its_place",
    "tests/test_nrack.py::test_check_nrack_matches_the_tuple_loop",
)
NLEIBNIZ_TESTS = (
    "tests/test_nleibniz.py::test_fundamental_identity_matches_the_tuple_walk_on_repeated_adjoints",
    "tests/test_nleibniz.py::test_zero_and_repeated_adjoints_are_walked_once",
    "tests/test_nleibniz.py::test_fundamental_identity_matches_the_tuple_walk",
)
WORD_TESTS = (
    "tests/test_setsol.py::test_word_map_matches_the_tuple_words",
    "tests/test_setsol.py::test_braid_sides_match_the_tuple_words",
)
NSOLUTION_RESCAN_TESTS = tuple(
    f"tests/test_setsol.py::test_watched_census_matches_rescan[{m}-{n}-nsolution]" for m, n in ((2, 2), (2, 3), (3, 3))
)
CENSUS_RESCAN_TESTS = tuple(
    f"tests/test_setsol.py::test_watched_census_matches_rescan[{m}-{n}-{f}]" for m, n, f in ((2, 3, "nshelf"), (3, 2, "nrack"))
)
ORBIT_TESTS = (
    "tests/test_setsol.py::test_representatives_are_the_orbit_minima",
    "tests/test_setsol.py::test_orbit_representative_counts",
)
KERNEL_ORACLE_TESTS = ("tests/test_cross_validation.py::test_two_tier_kernel_matches_the_whole_column_oracle",)
PINNED_KERNEL_TESTS = tuple(
    f"tests/test_cross_validation.py::test_pinned_kernel_cases_match_the_whole_column_oracle[{name}-{mode}-{block}]"
    for name in ("absorbed-at-the-last-lhs-letter", "absorbed-at-the-last-rhs-letter", "absorbed-on-one-side-only", "all-scalars-differ-left", "all-scalars-differ-right")
    for mode in ("exact", "float")
    for block in (1, 1024)
)
ABSORBING_WORD_TESTS = ("tests/test_setsol.py::test_word_map_absorbs_what_meets_a_marked_value",)
BLOCK_RANK_TESTS = (
    "tests/test_operator_storage.py::test_the_block_rank_rule_matches_the_elimination",
    "tests/test_operator_storage.py::test_a_repeated_image_is_not_invertible",
)
LINEAR_TABLE_TESTS = ("tests/test_linrack.py::test_check_linear_nrack_matches_the_matrix_identities",)
INT_RULE_TESTS = (
    "tests/test_setsol.py::test_set_map_images_are_refused_not_truncated",
    "tests/test_nrack.py::test_table_values_are_refused_not_truncated",
)

MUTANTS = [
    Mutant(
        "nrack-witness-raw-offset",
        NRACK,
        "multi((x1 * ncols + c // k) * ncols + b)",
        "multi(x1 * ncols * ncols + c)",
        NRACK_TESTS,
        "killed",
    ),
    Mutant(
        "nrack-last-occurrence-represents",
        NRACK,
        "b = translations.index(distinct[c % k])",
        "b = ncols - 1 - translations[::-1].index(distinct[c % k])",
        NRACK_TESTS,
        "killed",
    ),
    Mutant(
        "nrack-distinct-in-reverse-order",
        NRACK,
        "distinct = list(dict.fromkeys(translations))",
        "distinct = list(dict.fromkeys(reversed(translations)))",
        NRACK_TESTS,
        "killed",
    ),
    Mutant(
        "nrack-bijectivity-first-distinct-only",
        NRACK,
        "for tr in distinct if len(set(tr)) != m",
        "for tr in distinct[:1] if len(set(tr)) != m",
        NRACK_TESTS,
        "killed",
    ),
    Mutant(
        "nrack-all-blocks-at-once",
        NRACK,
        "    for x1, (lhs, rhs) in enumerate(map(block, range(m))):\n        if lhs != rhs:\n            c = next",
        "    for x1, (lhs, rhs) in enumerate([block(x) for x in range(m)]):\n        if lhs != rhs:\n            c = next",
        ("tests/test_nrack.py::test_check_nrack_memory_stays_blocked_on_distinct_translations",),
        "killed",
    ),
    Mutant(
        "int-table-values-truncated",
        SCALARS,
        "table = tuple(map(as_int, table))",
        "table = tuple(map(int, table))",
        INT_RULE_TESTS,
        "killed",
    ),
    Mutant(
        "int-table-type-test-dropped",
        SCALARS,
        "if set(map(type, table)) != {int}:",
        "if False:",
        INT_RULE_TESTS,
        "killed",
    ),
    Mutant(
        "nleibniz-key-first-column-only",
        NLEIBNIZ,
        "key = tuple(map(tuple, dcols))",
        "key = tuple(dcols[0])",
        NLEIBNIZ_TESTS,
        "killed",
    ),
    Mutant(
        "nleibniz-zero-skip-every-ys",
        NLEIBNIZ,
        "key = tuple(map(tuple, dcols))",
        "key = ((),) * d",
        NLEIBNIZ_TESTS,
        "killed",
    ),
    Mutant(
        "nleibniz-walk-every-ys",
        NLEIBNIZ,
        "if key not in seen:",
        "if True:",
        NLEIBNIZ_TESTS,
        "killed",  # the verdicts stay the same; the count of walks shows the change
    ),
    Mutant(
        "census-law-comparison-flipped",
        SETSOL,
        "if ty[columns[c1][x0]] != columns[c3][ty[x0]]:",
        "if ty[columns[c1][x0]] == columns[c3][ty[x0]]:",
        NSOLUTION_RESCAN_TESTS,
        "killed",
    ),
    Mutant(
        "census-parkings-kept-on-backtrack",
        SETSOL,
        "parked[j].pop()",
        "pass",
        CENSUS_RESCAN_TESTS,
        "killed",
    ),
    Mutant(
        "census-parked-on-the-earlier-column",
        SETSOL,
        "parked[c1 if rank[c1] > rank[ys] else ys]",
        "parked[c1 if rank[c1] < rank[ys] else ys]",
        CENSUS_RESCAN_TESTS,
        "killed",
    ),
    Mutant(
        "census-lex-leader-comparison-flipped",
        SETSOL,
        "if a < b:",
        "if a > b:",
        ORBIT_TESTS,
        "killed",
    ),
    Mutant(
        "digit-reversal-weight-off-by-one",
        TENSOR,
        "weights = range(0, base ** (i + 1), base**i)",
        "weights = range(0, base ** (i + 2), base ** (i + 1))",
        (
            "tests/test_tensor.py::test_digit_reversal_matches_the_per_index_form",
            "tests/test_nrack.py::test_reversed_args_matches_the_per_entry_form",
        ),
        "killed",
    ),
    Mutant(
        "setsol-word-map-branches-swapped",
        SETSOL,
        "if low >= 8:",
        "if low < 8:",
        WORD_TESTS,
        "survives: slices and the per-block gather are two exact ways to pre-compose a letter; only the cost changes",
    ),
    Mutant(
        "kernel-absorbing-read-as-clean",
        YBOPS,
        "image = [col[0][0] if len(col) == 1 and (exact or col[0][1] == unit) else span for col in cols]",
        "image = [col[0][0] for col in cols]",
        KERNEL_ORACLE_TESTS + PINNED_KERNEL_TESTS,
        "killed",
    ),
    Mutant(
        "kernel-zero-drop-removed",
        YBOPS,
        "vec = {y: v for y, v in out.items() if v != 0} if 0 in out.values() else out",
        "vec = out",
        KERNEL_ORACLE_TESTS,
        "killed",  # a kept zero moves its key ahead in the column's entry order
    ),
    Mutant(
        "kernel-rhs-only-absorption-skips-the-dict-pass",
        YBOPS,
        "marked = sorted({*_absorbed(lhs, total), *_absorbed(rhs, total)})",
        "marked = _absorbed(lhs, total)",
        PINNED_KERNEL_TESTS,
        "killed",
    ),
    Mutant(
        "kernel-lhs-only-absorption-skips-the-dict-pass",
        YBOPS,
        "marked = sorted({*_absorbed(lhs, total), *_absorbed(rhs, total)})",
        "marked = _absorbed(rhs, total)",
        PINNED_KERNEL_TESTS,
        "killed",
    ),
    Mutant(
        "word-map-slice-absorbed-reads-real-indices",
        SETSOL,
        "for a in [h + j * low for h in range(0, total, span) for j in absorbed]:",
        "for a in [h + j * low for h in range(0, total, span) for j in absorbed] if low < 8 else ():",
        ABSORBING_WORD_TESTS,
        "killed",
    ),
    Mutant(
        "word-map-gather-absorbed-reads-real-indices",
        SETSOL,
        "for a in [h + j * low for h in range(0, total, span) for j in absorbed]:",
        "for a in [h + j * low for h in range(0, total, span) for j in absorbed] if low >= 8 else ():",
        ABSORBING_WORD_TESTS,
        "killed",
    ),
    Mutant(
        "braiding-certify-dropped",
        LINRACK,
        "    require_cocommutative(l)\n    l = certify(l)\n",
        "    require_cocommutative(l)\n",
        ("tests/test_linrack.py::test_braiding_certifies_an_uncertified_input",),
        "killed",
    ),
    Mutant(
        "lebed-arity-refusal-dropped",
        CLI,
        '@_construction("lebed", linrack.LinearNRack, linrack.require_rack, linrack.require_cocommutative)',
        '@_construction("lebed", linrack.LinearNRack, linrack.require_cocommutative)',
        ("tests/test_cli.py::test_build_refuses_a_wrongly_shaped_input_before_its_laws[lebed-ternary]",),
        "killed",
    ),
    Mutant(
        "coalgebra-cap-dropped",
        CLI,
        'if kind in ("nleibniz", "nrack", "coalgebra", "linear_nrack"):',
        'if kind in ("nleibniz", "nrack", "linear_nrack"):',
        ("tests/test_cli.py::test_check_caps_a_coalgebra_on_the_cube_of_its_dimension",),
        "killed",
    ),
    Mutant(
        "boolean-scalar-accepted",
        SCALARS,
        "if isinstance(raw, bool):",
        "if False:",
        tuple(f"tests/test_cli.py::test_a_json_boolean_is_no_scalar[{case}]" for case in ("operator-exact", "operator-float", "bracket-value", "central")),
        "killed",
    ),
    Mutant(
        "rank-single-rows-counted-with-repeats",
        TENSOR,
        "hit, rows = {col[0][0] for col in a.columns if len(col) == 1} if exact else set(), {}",
        "hit, rows = [col[0][0] for col in a.columns if len(col) == 1] if exact else [], {}",
        BLOCK_RANK_TESTS,
        "killed",
    ),
    Mutant(
        "rank-B-on-every-row",
        TENSOR,
        "            if r not in hit:\n",
        "            if True:\n",
        BLOCK_RANK_TESTS,
        "killed",
    ),
    Mutant(
        "linear-table-accepts-a-non-unit-value",
        LINRACK,
        "all(len(col) == 1 and col[0][1] == op.scale for op in",
        "all(len(col) == 1 for op in",
        LINEAR_TABLE_TESTS,
        "killed",
    ),
    Mutant(
        "linear-table-path-never-taken",
        LINRACK,
        "table = units and len(_group_likes(l.base)) == c",
        "table = False",
        ("tests/test_linrack.py::test_tables_on_a_set_coalgebra_skip_the_streamed_laws",),
        "killed",
    ),
    Mutant(
        "inverse-property-second-order-dropped",
        LINRACK,
        "orders = ((l.bracket, l.inv_bracket), (l.inv_bracket, l.bracket))",
        "orders = ((l.bracket, l.inv_bracket),)",
        LINEAR_TABLE_TESTS,
        "killed",
    ),
    Mutant(
        "linear-table-witness-from-the-first-failing-block",
        LINRACK,
        'return min(found, key=operator.itemgetter("row", "col"), default=None)',
        "return next(iter(found), None)",
        LINEAR_TABLE_TESTS + ("tests/test_linrack.py::test_tables_on_a_set_coalgebra_skip_the_streamed_laws",),
        "killed",
    ),
    Mutant(
        "linear-table-column-at-the-distinct-index",
        LINRACK,
        '"col": (x1 * span + wit["col"] // k) * span + first[wit["col"] % k]',
        '"col": (x1 * span + wit["col"] // k) * span + wit["col"] % k',
        LINEAR_TABLE_TESTS,
        "killed",
    ),
    Mutant(
        "sweedler-term-drops-a-leg",
        LINRACK,
        "        for tr in trs:\n",
        "        for tr in trs[1:]:\n",
        LINEAR_TABLE_TESTS,
        "killed",
    ),
    Mutant(
        "distributivity-yields-the-lhs-columns-only",
        LINRACK,
        "for xs in lhs.keys() | rhs.keys():",
        "for xs in lhs:",
        LINEAR_TABLE_TESTS,
        "killed",
    ),
    Mutant(
        "coproduct-column-stops-at-an-empty-first-column",
        LINRACK,
        "            if not b[first] or not b[second]:\n                continue\n",
        "            if not b[first]:\n                break\n            if not b[second]:\n                continue\n",
        LINEAR_TABLE_TESTS,
        "killed",
    ),
    Mutant(
        "counit-column-skipped-with-its-bracket-column",
        LINRACK,
        "if eps or b[col]:",
        "if b[col]:",
        LINEAR_TABLE_TESTS,
        "killed",
    ),
]


def run(mutant: Mutant) -> tuple[str, float]:
    """Apply ``mutant`` to a copy of src/, run its tests there: ("killed" or "survives", seconds)."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        shutil.copytree(ROOT / "src", pathlib.Path(tmp) / "src", ignore=shutil.ignore_patterns("__pycache__"))
        if mutant.file is not None:
            target = pathlib.Path(tmp) / mutant.file
            text = target.read_text(encoding="utf-8")
            if text.count(mutant.old) != 1:
                raise SystemExit(f"{mutant.name}: the old snippet does not occur exactly once in {mutant.file}")
            target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(pathlib.Path(tmp) / "src"), str(ROOT / "tests")]),
                   PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--hypothesis-seed=0"]
        argv += [str(ROOT / node) for node in mutant.tests]
        # run from the copy, so that hypothesis keeps its example database there
        done = subprocess.run(argv, cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    if done.returncode not in (0, 1):
        raise SystemExit(f"{mutant.name}: pytest exited {done.returncode}")
    return ("killed" if done.returncode else "survives"), time.perf_counter() - start


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {', '.join(sorted(unknown))}")
    # the tests must pass on the unmutated copy, or every kill would be spurious
    tests = sorted({node for m in chosen for node in m.tests})
    if run(Mutant("unmutated", None, None, None, tests, "survives"))[0] != "survives":
        raise SystemExit("a mutant's test fails on the unmutated source")
    unexpected = 0
    for mutant in chosen:
        outcome, seconds = run(mutant)
        expected = mutant.expected.split(":")[0]
        ok = outcome == expected
        unexpected += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {mutant.name}: {outcome} (expected {expected}) in {seconds:.1f} s")
    print(f"{len(chosen) - unexpected} of {len(chosen)} mutants ended as expected")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
