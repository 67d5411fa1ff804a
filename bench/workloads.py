"""The three workloads: jobs, their input files and their expected outputs.

A workload builds one round of jobs from a seed.  A job is one argv for
``braidforge.cli.main`` plus the expected exit code and verdict fields,
all computed by `oracle` from the benchmark's own inputs.  A round is
the same on every seed up to the random content of its inputs, so its
cost does not depend on the seed.  ``tiny`` drops the costly jobs, for
the self-test.
"""

from __future__ import annotations

import itertools
import json
import os
import random

import inputs
import oracle

#: census rows (m, n, filter) and their counts, as measured at commit 7ff3be0
CENSUS = [
    (2, 2, "nrack", 2),
    (2, 3, "nshelf", 56),
    (2, 3, "nrack", 4),
    (2, 3, "nsolution", 4),
    (3, 2, "nshelf", 224),
    (4, 2, "nrack", 114),
    (4, 2, "nsolution", 114),
    (3, 3, "nrack", 129),
    (3, 3, "nsolution", 129),
]


class Job:
    """One CLI call.  ``expect`` maps a field of the parsed stdout to its
    expected value; "exit" is the exit code and "failed_checks" the
    (name, witness) of every failing check, in report order.
    ``after(stdout, round_index)``, when set, runs once the job's output
    matched, and writes the inputs of the jobs that follow."""

    __slots__ = ("label", "argv", "expect", "after")

    def __init__(self, label, argv, expect, after=None):
        self.label = label
        self.argv = argv
        self.expect = expect
        self.after = after


class Round:
    """A workload's jobs in order, and the input files they read."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.jobs = []
        self.files = {}

    def file(self, name, doc):
        """Register an input document, kept as text; `write` puts it on disk."""
        self.files[name] = json.dumps(doc)
        return os.path.join(self.workdir, name)

    def path(self, name):
        return os.path.join(self.workdir, name)

    def add(self, label, argv, expect, after=None):
        job = Job(label, argv, expect, after)
        self.jobs.append(job)
        return job

    def write(self):
        os.makedirs(self.workdir, exist_ok=True)
        for name, text in self.files.items():
            with open(self.path(name), "w", encoding="utf-8") as fh:
                fh.write(text)


def failed_checks(doc):
    return [[c["name"], c.get("witness")] for c in doc.get("checks", []) if c["status"] == "fail"]


def mismatch(job, code, doc):
    """None when the output matches the expectation, else a description."""
    want = job.expect
    if code != want["exit"]:
        return f"exit {code}, expected {want['exit']}"
    for key, value in want.items():
        if key == "exit":
            continue
        if doc is None:
            return "no JSON output"
        if key == "failed_checks":
            got = failed_checks(doc)
        elif key == "batch_failed_checks":
            got = [failed_checks(r) for r in doc["reports"]]
        else:
            got = doc.get(key)
        if got != value:
            return f"{key} = {got!r}, expected {value!r}"
    return None


# -- braid-monomial ---------------------------------------------------------

#: (group, n, variants run on the right relation, sides of the plain braiding).
#: A repeated variant is a fresh random map of the same cost.  Z3 at n=4
#: repeats most, so that about ten jobs of equal cost straddle the 90th
#: percentile of a round and job_p90_ms does not jump between job kinds.
MONOMIAL = [
    ("Z2", 2, ("scaled", "perm", "perm", "const"), ("right", "left")),
    ("Z3", 2, ("scaled", "perm", "perm", "const"), ("right", "left")),
    ("Z4", 2, ("scaled", "perm", "perm", "const"), ("right", "left")),
    ("Z5", 2, ("scaled", "perm", "perm", "const"), ("right", "left")),
    ("S3", 2, ("scaled", "perm", "perm", "const"), ("right", "left")),
    ("Z2", 3, ("scaled", "perm", "perm", "const"), ("right", "left")),
    ("Z3", 3, ("scaled", "perm", "perm", "const"), ("right", "left")),
    ("Z4", 3, ("scaled", "perm", "perm", "const"), ("right", "left")),
    ("Z5", 3, ("perm", "const"), ("right", "left")),
    ("S3", 3, ("perm", "const"), ("right",)),
    ("Z2", 4, ("scaled", "perm", "perm", "const"), ("right", "left")),
    ("Z3", 4, ("scaled", "scaled", "perm", "perm", "perm", "perm", "const", "const"), ("right", "left")),
    ("Z4", 4, (), ("right",)),
]

#: verification spaces above this many dimensions are left out of tiny rounds
TINY_DIM = 3000


def _groups():
    out = {g.name: g for g in (inputs.cyclic(2), inputs.cyclic(3), inputs.cyclic(4), inputs.cyclic(5))}
    out["S3"] = inputs.sym3()
    return out


def braid_monomial(seed, workdir, tiny=False):
    rng = random.Random(seed)
    rnd = Round(workdir)
    groups = _groups()
    for gname, n, variants, sides in MONOMIAL:
        g = groups[gname]
        m = g.size
        if tiny and m ** (2 * n - 1) > TINY_DIM:
            continue
        braiding = inputs.group_braiding(g, n)
        maps = [("braiding", side, braiding, 1) for side in sides]
        for variant in variants:
            if variant == "scaled":
                maps.append((variant, "right", braiding, rng.choice(inputs.RATIONALS)))
            elif variant == "perm":
                perm = list(range(m**n))
                rng.shuffle(perm)
                maps.append((variant, "right", perm, 1))
            else:
                maps.append((variant, "right", [rng.randrange(m**n)] * m**n, 1))
        for k, (variant, side, fmap, coeff) in enumerate(maps):
            holds, op_wit, set_wit = oracle.braid_verdict(fmap, m, n, side)
            invertible = oracle.is_bijection(fmap)
            pre = variant == "const"
            code = 0 if holds and (invertible or pre) else 1
            tag = f"{gname}-n{n}-{variant}{k}-{side}"
            equation = "ybe" if n == 2 else f"nybe-{side}"
            path = rnd.file(f"{tag}-op.json", inputs.operator_doc(fmap, m, n, coeff))
            rnd.add(
                f"verify {equation} {tag}",
                ["verify", equation, path] + (["--allow-pre"] if pre else []),
                {"exit": code, "holds": holds, "invertible": invertible, "witness": op_wit},
            )
            if variant == "scaled":
                continue  # as a set map it is the plain braiding again
            equation = "set-ybe" if n == 2 else "set-nybe"
            path = rnd.file(f"{tag}-set.json", inputs.set_map_doc(fmap, m, n, side))
            rnd.add(
                f"verify {equation} {tag}",
                ["verify", equation, path] + (["--allow-pre"] if pre else []),
                {"exit": code, "holds": holds, "invertible": invertible, "witness": set_wit},
            )
    return rnd


# -- braid-general ------------------------------------------------------------


def _check_nleibniz(rnd, tag, arity, dim, bracket):
    holds, witness = oracle.fundamental_identity(arity, dim, bracket)
    path = rnd.file(f"{tag}.json", inputs.nleibniz_doc(arity, dim, bracket))
    rnd.add(
        f"check nleibniz {tag}",
        ["check", path],
        {
            "exit": 0 if holds else 1,
            "overall": "pass" if holds else "fail",
            "failed_checks": [] if holds else [["fundamental-identity", witness]],
        },
    )


def _build(rnd, construction, src, dst, expect, params=(), recheck=False):
    """A build whose stdout the runner saves as the next stage's input."""
    argv = ["build", construction, src]
    for p in params:
        argv += ["--param", p]
    if recheck:
        argv.append("--recheck")

    def save(text, round_index):
        with open(dst, "w", encoding="utf-8") as fh:
            fh.write(text)

    rnd.add(f"build {construction} {os.path.basename(src)}", argv, dict(expect, exit=0), save)


def _verify_holds(rnd, equation, path, holds=True, witness=None, invertible=True):
    rnd.add(
        f"verify {equation} {os.path.basename(path)}",
        ["verify", equation, path],
        {"exit": 0 if holds and invertible else 1, "holds": holds, "invertible": invertible, "witness": witness},
    )


def braid_general(seed, workdir, tiny=False):
    rng = random.Random(seed)
    rnd = Round(workdir)
    # fundamental identity, both verdicts, arity 2-4 and dim 1-3
    for arity, dim, k in itertools.product((2, 3, 4), (1, 2, 3), range(3)):
        if tiny and dim ** (2 * arity - 1) > 300:
            continue
        _check_nleibniz(rnd, f"nil-{arity}-{dim}-{k}", arity, dim, inputs.nilpotent_bracket(arity, dim, rng))
        _check_nleibniz(rnd, f"rand-{arity}-{dim}-{k}", arity, dim, inputs.random_bracket(arity, dim, rng))
    # certified pipelines through the unit extension and the descent: (arity, dim, bracket terms - 1).
    # The five ternary dim-3 pipelines put about ten 30-45 ms jobs at the
    # 90th percentile of a round, so job_p90_ms does not jump between job kinds.
    pipelines = [(2, 2, 1), (2, 3, 2), (2, 3, 1), (3, 2, 1)] + [(3, 3, k % 2) for k in range(5)]
    for k, (arity, dim, which) in enumerate(pipelines):
        if tiny and arity > 2:
            continue
        bracket = inputs.nilpotent_bracket(arity, dim, rng, terms=1 + which)
        tag = f"pipe{k}"
        src = rnd.file(f"{tag}.json", inputs.nleibniz_doc(arity, dim, bracket))
        c = dim + 1
        unit = rnd.path(f"{tag}-unit.json")
        _build(rnd, "adjoin-unit", src, unit, {"kind": "nleibniz", "dim": c}, recheck=which == 1)
        s_path = rnd.path(f"{tag}-s.json")
        entries = inputs.nyb_central_entries(arity, dim, bracket)
        expected_doc = inputs.dense_operator_doc(entries, c, arity)
        _build(rnd, "nyb-central", unit, s_path, {"kind": "operator", "entries": expected_doc["entries"]})
        if c ** (2 * arity - 1) <= 1024:
            holds, witness, invertible = oracle.braid_dense(entries, c, arity, "right")
        else:  # the braiding of a central n-Leibniz algebra is an operator
            holds, witness, invertible = True, None, True
        _verify_holds(rnd, "ybe" if arity == 2 else "nybe-right", s_path, holds, witness, invertible)
        stilde = rnd.path(f"{tag}-stilde.json")
        pair = [c ** (arity - 1)] * 2
        _build(rnd, "stilde-from-s", s_path, stilde, {"kind": "operator", "shape": pair}, params=[f"n={arity}"])
        _verify_holds(rnd, "ybe", stilde)
    # the two braidings of a ternary algebra, their intertwiner, and the coalgebra route
    for arity, dim in ((2, 3), (3, 2)) if tiny else ((2, 3), (3, 2), (3, 3)):
        tag = f"alg-{arity}-{dim}"
        src = rnd.file(f"{tag}.json", inputs.nleibniz_doc(arity, dim, inputs.nilpotent_bracket(arity, dim, rng)))
        small, big = 1 + dim ** (arity - 1), (dim + 1) ** (arity - 1)
        for name, side in (("r1", small), ("r2", big)):
            out = rnd.path(f"{tag}-{name}.json")
            _build(rnd, name, src, out, {"kind": "operator", "shape": [side, side]})
            _verify_holds(rnd, "ybe", out)
        _build(rnd, "eta", src, rnd.path(f"{tag}-eta.json"), {"kind": "operator", "shape": [small]})
        lnr, tpr, leb = (rnd.path(f"{tag}-{x}.json") for x in ("lnr", "tpr", "lebed"))
        _build(rnd, "lnr-from-nleibniz", src, lnr, {"kind": "linear_nrack", "arity": arity})
        _build(rnd, "tensor-power-rack", lnr, tpr, {"kind": "linear_nrack", "arity": 2}, recheck=arity == 3)
        _build(rnd, "lebed", tpr, leb, {"kind": "operator", "shape": [big, big]})
        _verify_holds(rnd, "ybe", leb)
    # linear n-racks: linearized conjugation racks and unit extensions of brackets
    racks = [(inputs.cyclic(3), 2), (inputs.cyclic(4), 2), (inputs.cyclic(2), 3), (inputs.cyclic(3), 3)]
    racks += [] if tiny else [(inputs.sym3(), 2), (inputs.sym3(), 3)]
    for g, n in racks:
        table = inputs.conjugation_table(g, n)
        path = rnd.file(f"lin-{g.name}-{n}.json", inputs.linearized_rack_doc(g.size, n, table))
        rnd.add(f"check linear_nrack {g.name}-{n}", ["check", path], {"exit": 0, "overall": "pass"})
    for arity, dim in ((2, 2), (2, 3), (3, 2), (3, 3)):
        bracket = inputs.nilpotent_bracket(arity, dim, rng)
        path = rnd.file(f"kplus-{arity}-{dim}.json", inputs.kplus_rack_doc(arity, dim, bracket))
        rnd.add(f"check linear_nrack kplus-{arity}-{dim}", ["check", path], {"exit": 0, "overall": "pass"})
    if not tiny:
        rnd.add("demo", ["demo"], {"exit": 0, "overall": "pass"})
    return rnd


# -- census -------------------------------------------------------------------

#: (m, n) of the random tables checked alone and in batches
RANDOM_SIZES = [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3)]


def _rack_expect(m, n, table):
    failed = oracle.rack_report(m, n, table)
    return {"exit": 1 if failed else 0, "overall": "fail" if failed else "pass", "failed_checks": failed}


def _random_table(rng, m, n):
    return [rng.randrange(m) for _ in range(m**n)]


def census(seed, workdir, tiny=False):
    rng = random.Random(seed)
    rnd = Round(workdir)
    for m, n, flt, count in CENSUS:
        if tiny and m ** (m ** n) > 300:
            continue
        tag = f"{flt}-{m}-{n}"
        samples = [rnd.path(f"{tag}-sample{i}.json") for i in range(3)]
        solution = flt != "nshelf"
        enum = rnd.add(
            f"enumerate {tag}",
            ["enumerate", "--m", str(m), "--n", str(n), "--filter", flt, "--dump"],
            {"exit": 0, "count": count},
        )
        checks = [rnd.add(f"check sample {tag}", ["check", p], {"exit": 0}) for p in samples]
        if solution:
            set_path = rnd.path(f"{tag}-solution.json")
            _build(rnd, "solution-from-nrack", samples[0], set_path, {"kind": "set_map", "size": m})
            rnd.add(
                f"verify set map {tag}",
                ["verify", "set-ybe" if n == 2 else "set-nybe", set_path],
                {"exit": 0, "holds": True, "invertible": True, "witness": None},
            )
        enum.after = _sampler(seed, m, n, samples, checks)
    for m, n in RANDOM_SIZES:
        for i in range(9):
            table = _random_table(rng, m, n)
            path = rnd.file(f"random-{m}-{n}-{i}.json", inputs.nrack_doc(m, n, table))
            rnd.add(f"check random {m}-{n}", ["check", path], _rack_expect(m, n, table))
    # eight batches of equal size and the same mix of table sizes cost more
    # than every job but the conjugation rack and the five largest
    # enumerates, so the 90th percentile of a round (the eleventh job from
    # the top) falls in the middle of their block
    for b in range(8):
        docs, reports = [], []
        for i in range(64):
            m, n = RANDOM_SIZES[i % len(RANDOM_SIZES)]
            table = _random_table(rng, m, n)
            docs.append(inputs.nrack_doc(m, n, table))
            reports.append(_rack_expect(m, n, table))
        passes = sum(r["exit"] == 0 for r in reports)
        path = rnd.file(f"batch-{b}.json", docs)
        rnd.add(
            "check batch",
            ["check", path],
            {
                "exit": 0 if passes == len(docs) else 1,
                "passes": passes,
                "failures": len(docs) - passes,
                "batch_failed_checks": [r["failed_checks"] for r in reports],
            },
        )
    if not tiny:
        # a conjugation n-rack of a group is an n-rack
        table = inputs.conjugation_table(inputs.sym3(), 4)
        path = rnd.file("conj-S3-4.json", inputs.nrack_doc(6, 4, table))
        rnd.add("check conj S3-4", ["check", path], {"exit": 0, "overall": "pass", "failed_checks": []})
    return rnd


def _sampler(seed, m, n, paths, checks):
    """After an enumerate: write seeded samples of its dump for the checks that follow."""

    def after(text, round_index):
        tables = json.loads(text)["tables"]
        rng = random.Random(f"{seed}/{m}/{n}/{len(tables)}/{round_index}")
        for path, job in zip(paths, checks):
            table = tables[rng.randrange(len(tables))]
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(inputs.nrack_doc(m, n, table), fh)
            job.expect = _rack_expect(m, n, table)

    return after


WORKLOADS = {"braid-monomial": braid_monomial, "braid-general": braid_general, "census": census}
