"""The mutant list of ``tests/mutants.py`` cannot rot silently: every old
snippet still occurs exactly once in its file, and every test it names
still exists.  Running the mutants is left to ``python tests/mutants.py``."""

import pathlib
import re

import mutants

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_every_old_snippet_occurs_exactly_once():
    for m in mutants.MUTANTS:
        text = (ROOT / m.file).read_text(encoding="utf-8")
        assert text.count(m.old) == 1, m.name
        assert m.new != m.old, m.name


def test_every_named_test_exists_and_every_outcome_is_known():
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for m in mutants.MUTANTS:
        assert m.expected == "killed" or m.expected.startswith("survives: "), m.name
        assert m.tests, m.name
        for node in m.tests:
            path, name = node.split("::")
            name = name.split("[")[0]  # a parametrized case names its test function before the bracket
            text = (ROOT / path).read_text(encoding="utf-8")
            assert re.search(rf"^def {name}\(", text, re.M), node
