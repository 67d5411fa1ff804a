"""Fuzzing of the CLI's exit-code contract.

One valid document of each kind is mutated once (a key dropped, a value
swapped for an odd one, or the document wrapped in a batch list) and
fed to every command, construction and equation with small integer
arguments.  Whatever the input, ``cli.main`` must return 0, 1, 2 or 3
(argparse's own exit 2 included) and never let an exception escape.
Sizes stay at three points or fewer and arities at four or fewer, so no
example sweeps more than about 10^4 tuples.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import example, given, settings, strategies as st

import braidforge.cli as cli
import braidforge.linrack as lr
import braidforge.nleibniz as nl
import braidforge.nrack as nr
import braidforge.serialization as ser
import braidforge.setsol as ss
import braidforge.ybops as yb
from library_extras import cyclic_group

DOCS = {
    "nleibniz": ser.to_document(
        nl.NLeibnizAlgebra(2, 3, {(0, 1): {2: 1}}, certified=True, central={2: 1})
    ),
    "nrack": ser.to_document(nr.cyclic_rack(3)),
    "group": ser.to_document(cyclic_group(3)),
    "coalgebra": ser.to_document(lr.kplus_coalgebra(1, "float")),
    "linear_nrack": ser.to_document(lr.linearize_nrack(nr.cyclic_rack(3))),
    "operator": ser.to_document(yb.cyclic_operator(2, 2)),
    "set_map": ser.to_document(ss.flip_map(2, 2)),
}

ODD_VALUES = [None, True, "x", -1, 0, 3, [], {}, "1/0"]
EQUATIONS = ["ybe", "nybe-right", "nybe-left", "set-ybe", "set-nybe"]
SMALL = st.integers(-2, 4)


def paths(value, prefix=()):
    """Every path to a value nested in a JSON document."""
    if isinstance(value, dict):
        items = value.items()
    else:
        items = enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


@st.composite
def documents(draw):
    doc = copy.deepcopy(DOCS[draw(st.sampled_from(sorted(DOCS)))])
    how = draw(st.sampled_from(["keep", "drop", "swap", "wrap"]))
    if how == "wrap":
        return [doc]
    if how != "keep":
        path = draw(st.sampled_from(list(paths(doc))))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if how == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(st.sampled_from(ODD_VALUES))
    return doc


def with_n(flag, n):
    return [] if n is None else [flag, str(n)]


#: argv with "{}" for the input document's path
COMMANDS = st.one_of(
    st.just(["check", "{}"]),
    st.builds(
        lambda c, n: ["build", c, "{}"] + with_n("--param", None if n is None else f"n={n}"),
        st.sampled_from(sorted(cli._CONSTRUCTIONS)),
        st.none() | SMALL,
    ),
    st.builds(
        lambda e, n: ["verify", e, "{}"] + with_n("--n", n),
        st.sampled_from(EQUATIONS),
        st.none() | SMALL,
    ),
    # m stays below 3: the nshelf census of 3 points at arity 3 takes about a minute
    st.builds(
        lambda m, n, f: ["enumerate", "--m", str(m), "--n", str(n), "--filter", f],
        st.integers(-2, 2),
        SMALL,
        st.sampled_from(["nshelf", "nrack", "nsolution"]),
    ),
)


def run(argv, doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                return cli.main([a.format(path) for a in argv])
        except SystemExit as exc:  # argparse rejects malformed arguments this way
            return exc.code


@settings(max_examples=300, deadline=None)
@given(COMMANDS, documents())
@example(["check", "{}"], dict(DOCS["coalgebra"], delta=[[0, 0, "1/0"]]))
@example(["check", "{}"], dict(DOCS["nrack"], kind=[1]))
@example(["check", "{}"], dict(DOCS["linear_nrack"], base=5))
@example(["build", "linearize", "{}"], DOCS["operator"])
@example(["build", "nrack-from-rack", "{}", "--param", "n=-2"], DOCS["nrack"])
@example(["build", "sn-from-r", "{}", "--param", "n=1"], DOCS["operator"])
@example(["enumerate", "--m", "-1", "--n", "2", "--filter", "nrack"], DOCS["nrack"])
def test_cli_exit_codes_hold_for_any_input(argv, doc):
    assert run(argv, doc) in (0, 1, 2, 3)
