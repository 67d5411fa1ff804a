import itertools
import json

import pytest

import braidforge.cli as cli
import braidforge.linrack as lr
import braidforge.nleibniz as nl
import braidforge.nrack as nr
import braidforge.serialization as ser
import braidforge.setsol as ss
import braidforge.tensor as T
from braidforge.errors import CapExceededError, VerdictDisagreementError
from braidforge.reports import ReportBuilder
from census_oracle import CENSUS_CASES, rescan_census
from library_extras import cyclic_group, trivial_nrack, zero_algebra


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def t3_doc(tmp_path):
    return write(
        tmp_path,
        "t3.json",
        {
            "kind": "nleibniz",
            "arity": 3,
            "dim": 3,
            "scalars": "exact",
            "bracket": [{"in": [0, 1, 1], "out": {"2": "1/1"}}],
        },
    )


def test_check_pass(capsys, t3_doc):
    code, out, _ = run(capsys, "check", t3_doc)
    assert code == 0
    assert json.loads(out)["overall"] == "pass"


def test_check_fail(capsys, tmp_path):
    path = write(
        tmp_path,
        "bad.json",
        {
            "kind": "nleibniz",
            "arity": 3,
            "dim": 3,
            "bracket": [
                {"in": [0, 1, 1], "out": {"2": "1/1"}},
                {"in": [2, 1, 1], "out": {"1": "1/1"}},
            ],
        },
    )
    code, out, _ = run(capsys, "check", path)
    assert code == 1
    report = json.loads(out)
    assert report["overall"] == "fail"
    assert report["checks"][0]["witness"]["tuple"] == [0, 1, 2, 1, 1]


def test_check_batch_counts(capsys, tmp_path):
    batch = []
    for values in itertools.product(range(2), repeat=4):
        t = nr.FiniteNRack(2, 2, values)
        batch.append(ser.nrack_to_document(t))
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(batch))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1
    report = json.loads(out)
    assert report["passes"] == 2 and report["failures"] == 14


def test_check_malformed_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"kind": "nrack", ')
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert "line 1" in err and "column" in err


def test_check_missing_file(capsys):
    code, _, err = run(capsys, "check", "/nonexistent/file.json")
    assert code == 2


@pytest.mark.parametrize("fault", ["directory", "not-utf8", "nested-too-deep", "unwritable-output"])
def test_file_faults_are_input_errors(capsys, tmp_path, fault):
    path = tmp_path / "input.json"
    if fault == "directory":
        path.mkdir()
    elif fault == "not-utf8":
        path.write_bytes(b"\xff\xfe")
    elif fault == "nested-too-deep":
        path.write_text("[" * 100000 + "]" * 100000)
    else:
        path.write_text(json.dumps(ser.to_document(nr.cyclic_rack(2))))
    argv = ["check", str(path)]
    if fault == "unwritable-output":
        argv = ["build", "rack-from-nrack", str(path), "-o", str(tmp_path / "no-such-dir" / "x.json")]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("input error:") and err.count("\n") == 1, err


def test_build_parses_its_params_before_the_laws_of_its_input(capsys, tmp_path, monkeypatch):
    # an uncertified table that is not a rack: the malformed --param is reported first, also under a cap below 3^3
    bad = write(tmp_path, "bad.json", ser.to_document(nr.FiniteNRack(3, 2, (0, 1, 1, 1, 0, 2, 2, 2, 0))))
    expected = (2, "", "input error: --param needs key=value, got 'n'\n")
    assert run(capsys, "build", "nrack-from-rack", bad, "--param", "n") == expected
    monkeypatch.setenv("BRAIDFORGE_DIM_CAP", "4")
    assert run(capsys, "build", "nrack-from-rack", bad, "--param", "n") == expected


def test_failed_recheck_prints_its_message(capsys, monkeypatch, tmp_path):
    # a recheck that fails prints the message alone, not a (message, witness) tuple
    failing = ReportBuilder("fundamental-identity")
    failing.record_witness("fundamental-identity", {"tuple": [0, 0, 0]})
    monkeypatch.setattr(nl, "check_fundamental_identity", lambda a: failing.build())
    src = write(tmp_path, "a.json", ser.nleibniz_to_document(zero_algebra(2, 1)))
    code, out, err = run(capsys, "build", "adjoin-unit", src, "--recheck")
    assert (code, out) == (1, "")
    assert err == "error: a theorem-certified construction failed its recheck\n"
    with pytest.raises(VerdictDisagreementError) as info:
        nl.adjoin_unit(zero_algebra(2, 1), recheck=True)
    assert str(info.value) == "a theorem-certified construction failed its recheck"
    assert info.value.witness == {"tuple": [0, 0, 0]}


def test_check_group(capsys, tmp_path, s3):
    path = write(tmp_path, "s3.json", ser.group_to_document(s3))
    code, out, _ = run(capsys, "check", path)
    assert code == 0
    bad = write(tmp_path, "badgroup.json", {"kind": "group", "size": 2, "mul": [[0, 1], [0, 1]]})
    code, out, _ = run(capsys, "check", bad)
    assert code == 1


def test_build_verify_pipeline(capsys, tmp_path, t3_doc):
    t3bar = str(tmp_path / "t3bar.json")
    code, _, _ = run(capsys, "build", "adjoin-unit", t3_doc, "-o", t3bar)
    assert code == 0
    code, out, _ = run(capsys, "check", t3bar)
    assert code == 0
    s_path = str(tmp_path / "s.json")
    code, _, _ = run(capsys, "build", "nyb-central", t3bar, "-o", s_path)
    assert code == 0
    code, out, _ = run(capsys, "verify", "nybe-right", s_path)
    assert code == 0
    report = json.loads(out)
    assert report["holds"] and report["invertible"] and report["witness"] is None
    assert report["equation"] == "n_ybe_right" and report["dim"] == 4
    # provenance chain accumulated
    doc = json.loads(open(s_path).read())
    assert any("nyb-central" in p for p in doc["provenance"])


def test_central_vector_must_hold_dim_entries(capsys, tmp_path):
    bracket = {"kind": "nleibniz", "arity": 2, "dim": 2, "bracket": [{"in": [0, 0], "out": {"1": "1/1"}}]}
    for central in (["0/1", "0/1", "1/1"], ["1/1"], []):
        path = write(tmp_path, "c.json", {**bracket, "central": central})
        for argv in (["check", path], ["build", "nyb-central", path]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err == f"input error: nleibniz field 'central' must hold 2 entries, got {len(central)}\n"
    for central in (["0/1", "1/1"], ["0/1", "0/1"]):
        code, out, _ = run(capsys, "check", write(tmp_path, "c.json", {**bracket, "central": central}))
        assert code == 0 and json.loads(out)["subject"] == "central-nleibniz"


def test_nyb_central_refuses_a_document_without_a_central_element(capsys, t3_doc):
    assert run(capsys, "build", "nyb-central", t3_doc) == (2, "", "input error: expected a central n-Leibniz algebra\n")


def test_nyb_central_refuses_a_missing_central_element_before_the_laws(capsys, tmp_path):
    failing = ser.to_document(nl.NLeibnizAlgebra(2, 2, {(0, 1): {0: 1}, (1, 0): {1: 1}}))
    assert not cli._check_one(failing, None).passed
    path = write(tmp_path, "failing.json", failing)
    assert run(capsys, "build", "nyb-central", path) == (2, "", "input error: expected a central n-Leibniz algebra\n")


def test_nyb_central_refuses_a_missing_central_element_before_the_cap(capsys, tmp_path, monkeypatch):
    path = write(tmp_path, "big.json", {"kind": "nleibniz", "arity": 3, "dim": 2, "bracket": []})
    monkeypatch.setenv("BRAIDFORGE_DIM_CAP", "31")  # below 2^5, the space its laws walk
    assert run(capsys, "check", path)[0] == 3
    assert run(capsys, "build", "nyb-central", path) == (2, "", "input error: expected a central n-Leibniz algebra\n")


def test_an_operator_value_that_is_a_list_is_an_input_error(capsys, tmp_path):
    doc = {"kind": "operator", "shape": [2], "codomain_shape": [2], "entries": [[0, 0, "1/1"], [1, 1, ["1/1"]]]}
    code, out, err = run(capsys, "check", write(tmp_path, "op.json", doc))
    assert (code, out) == (2, "") and err.startswith("input error: bad exact scalar")


def test_builds_that_return_their_input_keep_its_central_element(capsys, tmp_path):
    doc = {"kind": "nleibniz", "arity": 2, "dim": 3, "bracket": [{"in": [0, 1], "out": {"2": "1/1"}}], "central": ["0/1", "0/1", "1/1"]}
    path = write(tmp_path, "a3.json", doc)
    for argv in (["nbracket-from-leibniz", path, "--param", "n=2"], ["nrack-from-nleibniz", path]):
        code, out, _ = run(capsys, "build", *argv)
        assert code == 0
        assert json.loads(out)["central"] == doc["central"] and json.loads(out)["certified"]
    code, out, _ = run(capsys, "build", "nbracket-from-leibniz", path, "--param", "n=3")
    assert code == 0 and "central" not in json.loads(out)


def test_build_unknown_construction(capsys, t3_doc):
    code, _, err = run(capsys, "build", "no-such-thing", t3_doc)
    assert code == 2 and "unknown construction" in err


def test_build_missing_param(capsys, t3_doc):
    code, _, err = run(capsys, "build", "nbracket-from-leibniz", t3_doc)
    assert code == 2


def test_build_precondition_failure(capsys, tmp_path):
    bad = write(
        tmp_path,
        "bad.json",
        {
            "kind": "nleibniz",
            "arity": 3,
            "dim": 3,
            "bracket": [
                {"in": [0, 1, 1], "out": {"2": "1/1"}},
                {"in": [2, 1, 1], "out": {"1": "1/1"}},
            ],
        },
    )
    code, _, err = run(capsys, "build", "adjoin-unit", bad)
    assert code == 2


def test_roundtrip_every_build_output(capsys, tmp_path, t3_doc, s3):
    s3_doc = write(tmp_path, "s3.json", ser.group_to_document(s3))
    conj = str(tmp_path / "conj.json")
    assert run(capsys, "build", "conjugation-nrack", s3_doc, "--param", "n=3", "-o", conj)[0] == 0
    assert run(capsys, "check", conj)[0] == 0
    lin = str(tmp_path / "lin.json")
    assert run(capsys, "build", "linearize", conj, "-o", lin)[0] == 0
    assert run(capsys, "check", lin)[0] == 0
    sol = str(tmp_path / "sol.json")
    assert run(capsys, "build", "solution-from-nrack", conj, "-o", sol)[0] == 0
    assert run(capsys, "check", sol)[0] == 0
    rack = str(tmp_path / "rack.json")
    assert run(capsys, "build", "rack-from-nrack", conj, "-o", rack)[0] == 0
    assert run(capsys, "check", rack)[0] == 0


def test_build_lift_route(capsys, tmp_path):
    a3_doc = write(
        tmp_path,
        "a3.json",
        {
            "kind": "nleibniz",
            "arity": 2,
            "dim": 3,
            "bracket": [{"in": [0, 1], "out": {"2": "1/1"}}],
        },
    )
    a3bar = str(tmp_path / "a3bar.json")
    r = str(tmp_path / "r.json")
    s3op = str(tmp_path / "s3op.json")
    assert run(capsys, "build", "adjoin-unit", a3_doc, "-o", a3bar)[0] == 0
    assert run(capsys, "build", "lnr-from-nleibniz", a3_doc, "-o", str(tmp_path / "l.json"))[0] == 0
    assert run(capsys, "build", "lebed", str(tmp_path / "l.json"), "-o", r)[0] == 0
    assert run(capsys, "build", "sn-from-r", r, "--param", "n=3", "-o", s3op)[0] == 0
    code, out, _ = run(capsys, "verify", "nybe-right", s3op)
    assert code == 0
    # the lifted operator is the 64-dimensional degree-3 braiding
    doc = json.loads(open(s3op).read())
    assert doc["shape"] == [4, 4, 4]


def test_build_solution_from_trivial_rack_is_flip(capsys, tmp_path):
    triv = write(tmp_path, "triv.json", ser.nrack_to_document(trivial_nrack(2, 3)))
    out_path = str(tmp_path / "flip.json")
    assert run(capsys, "build", "solution-from-nrack", triv, "-o", out_path)[0] == 0
    got = ser.from_document(json.loads(open(out_path).read()))
    assert got.image == ss.flip_map(2, 3).image


def test_verify_set_equation(capsys, tmp_path, conj3):
    s = ss.solution_from_nrack(conj3)
    path = write(tmp_path, "sol.json", ser.set_map_to_document(s))
    code, out, _ = run(capsys, "verify", "set-nybe", path)
    assert code == 0
    report = json.loads(out)
    assert report["holds"] and report["invertible"]
    assert report["nondegenerate"] == {"left": True, "middle": True, "right": True}


def test_verify_set_ybe_binary(capsys, tmp_path, flip_rack):
    s = ss.solution_from_nrack(flip_rack)
    path = write(tmp_path, "r.json", ser.set_map_to_document(s))
    code, out, _ = run(capsys, "verify", "set-ybe", path)
    assert code == 0
    assert json.loads(out)["equation"] == "set_ybe_right"
    # arity mismatch is an input error
    s3map = ss.flip_map(2, 3)
    path = write(tmp_path, "s3map.json", ser.set_map_to_document(s3map))
    code, _, _ = run(capsys, "verify", "set-ybe", path)
    assert code == 2


def test_verify_allow_pre(capsys, tmp_path, s3):
    e = s3.identity
    s1 = ss.from_function(6, 3, lambda g, h, k: (e, e, s3.mul[s3.mul[g][h]][k]))
    path = write(tmp_path, "s1.json", ser.set_map_to_document(s1))
    code, out, _ = run(capsys, "verify", "set-nybe", path)
    assert code == 1  # holds but not bijective
    assert json.loads(out)["holds"] is True
    code, out, err = run(capsys, "verify", "set-nybe", path, "--allow-pre")
    assert code == 0
    assert "pre-solution" in err


def test_verify_operator_allow_pre(capsys, tmp_path):
    # the unital-algebra pre-operator: holds, invertible=false; exit 0 only with --allow-pre
    from test_ybops import dual_numbers_pre_operator

    path = write(tmp_path, "pre.json", ser.to_document(dual_numbers_pre_operator()))
    code, out, _ = run(capsys, "verify", "nybe-right", path)
    assert code == 1
    report = json.loads(out)
    assert report["holds"] is True and report["invertible"] is False
    code, out, _ = run(capsys, "verify", "nybe-right", path, "--allow-pre")
    assert code == 0


def test_verify_ybe_exit_fail(capsys, tmp_path):
    doc = {
        "kind": "operator",
        "scalars": "exact",
        "shape": [2, 2],
        "codomain_shape": [2, 2],
        "entries": [[0, 0, "1/1"], [1, 1, "1/1"], [2, 2, "1/1"], [3, 0, "1/1"]],
    }
    path = write(tmp_path, "notyb.json", doc)
    code, out, _ = run(capsys, "verify", "ybe", path)
    assert code == 1


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "--m", "2", "--n", "2", "--filter", "nrack")
    assert code == 0 and json.loads(out)["count"] == 2
    code, out, _ = run(capsys, "enumerate", "--m", "1", "--n", "3", "--filter", "nrack")
    assert json.loads(out)["count"] == 1
    code, out, _ = run(capsys, "enumerate", "--m", "2", "--n", "3", "--filter", "nrack", "--dump")
    dumped = json.loads(out)
    assert dumped["count"] == len(dumped["tables"])


@pytest.mark.parametrize("m, n, table_filter", CENSUS_CASES)
def test_enumerate_dump_is_the_rescan_census(capsys, m, n, table_filter):
    code, out, _ = run(capsys, "enumerate", "--m", str(m), "--n", str(n), "--filter", table_filter, "--dump")
    tables = [list(t) for t in rescan_census(m, n, table_filter)]
    expected = {"filter": table_filter, "m": m, "n": n, "count": len(tables), "tables": tables}
    assert code == 0 and out == ser.dumps(expected)


def test_enumerate_cap_exit_code(capsys):
    code, _, err = run(capsys, "enumerate", "--m", "5", "--n", "2", "--filter", "nrack")
    assert code == 3 and "cap" in err.lower()


def test_deterministic_output(capsys, t3_doc):
    _, out1, _ = run(capsys, "check", t3_doc)
    _, out2, _ = run(capsys, "check", t3_doc)
    strip = lambda s: json.dumps(
        {k: v for k, v in json.loads(s).items() if k != "checks"}, sort_keys=True
    )
    assert strip(out1) == strip(out2)
    # document outputs are byte-identical (no timing fields there)


def test_build_output_byte_identical(capsys, tmp_path, t3_doc):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    assert run(capsys, "build", "adjoin-unit", t3_doc, "-o", a)[0] == 0
    assert run(capsys, "build", "adjoin-unit", t3_doc, "-o", b)[0] == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_verify_infers_n_from_factor_shape(capsys, tmp_path):
    import braidforge.ybops as yb

    path = write(tmp_path, "f4.json", ser.to_document(yb.cyclic_operator(2, 4)))
    code, out, _ = run(capsys, "verify", "nybe-right", path)
    assert code == 0
    assert json.loads(out)["n"] == 4


def test_dim_cap_env(capsys, tmp_path, monkeypatch):
    import braidforge.ybops as yb

    path = write(tmp_path, "f3.json", ser.to_document(yb.cyclic_operator(2, 3)))
    monkeypatch.setenv("BRAIDFORGE_DIM_CAP", "16")
    code, _, err = run(capsys, "verify", "nybe-right", path)
    assert code == 3
    code, out, _ = run(capsys, "verify", "nybe-right", path, "--allow-large")
    assert code == 0
    monkeypatch.delenv("BRAIDFORGE_DIM_CAP")


@pytest.mark.parametrize(
    "construction, op_args",
    [("sn-from-r", (2, 2)), ("stilde-from-s", (2, 3))],
)
def test_build_allow_large_lifts_the_cap(capsys, tmp_path, monkeypatch, construction, op_args):
    import braidforge.ybops as yb

    path = write(tmp_path, "op.json", ser.to_document(yb.cyclic_operator(*op_args)))
    monkeypatch.setenv("BRAIDFORGE_DIM_CAP", "4")
    # with the default cap low too, falling back to it under --allow-large would still refuse
    monkeypatch.setattr(yb, "DEFAULT_DIM_CAP", 4)
    argv = ("build", construction, path, "--param", "n=3")
    assert run(capsys, *argv)[0] == 3
    assert run(capsys, *argv, "--allow-large")[0] == 0


@pytest.mark.parametrize(
    "construction",
    ["nrack-from-rack", "conjugation-nrack", "group-algebra-nyb", "nbracket-from-leibniz", "nsolution-from-solution", "sn-from-r"],
)
def test_build_caps_the_size_of_its_result(capsys, tmp_path, monkeypatch, construction):
    import braidforge.nleibniz as nl
    import braidforge.ybops as yb

    # every input is on two points, so the result holds 2^n entries
    doc = {
        "nrack-from-rack": ser.to_document(nr.cyclic_rack(2)),
        "conjugation-nrack": ser.to_document(cyclic_group(2)),
        "group-algebra-nyb": ser.to_document(cyclic_group(2)),
        "nbracket-from-leibniz": ser.to_document(nl.NLeibnizAlgebra(2, 2, {})),
        "nsolution-from-solution": ser.to_document(ss.flip_map(2, 2)),
        "sn-from-r": ser.to_document(yb.cyclic_operator(2, 2)),
    }[construction]
    path = write(tmp_path, "in.json", doc)
    monkeypatch.setenv("BRAIDFORGE_DIM_CAP", "8")
    assert run(capsys, "build", construction, path, "--param", "n=4")[0] == 3
    assert run(capsys, "build", construction, path, "--param", "n=4", "--allow-large")[0] == 0
    assert run(capsys, "build", construction, path, "--param", "n=3")[0] == 0  # exactly 2^3


def test_set_map_checks_obey_the_cap(capsys, tmp_path, monkeypatch):
    path = write(tmp_path, "flip.json", ser.to_document(ss.flip_map(2, 3)))
    monkeypatch.setenv("BRAIDFORGE_DIM_CAP", "16")  # below 2^5 tuples
    for argv in (("check", path), ("verify", "set-nybe", path)):
        assert run(capsys, *argv)[0] == 3
        assert run(capsys, *argv, "--allow-large")[0] == 0
    monkeypatch.setenv("BRAIDFORGE_DIM_CAP", "32")  # exactly 2^5 tuples
    assert run(capsys, "check", path)[0] == 0
    # the library applies no cap unless given one
    assert ss.check_set_nsolution(ss.flip_map(2, 3)).is_right_solution
    with pytest.raises(CapExceededError):
        ss.check_set_nsolution(ss.flip_map(2, 3), dim_cap=16)


def test_check_caps_every_kind(capsys, tmp_path, monkeypatch):
    import braidforge.linrack as lr

    monkeypatch.delenv("BRAIDFORGE_DIM_CAP", raising=False)
    # 8^4 = 4096 rows, but the rack laws walk 8^7 > 2^20 tuples
    big = write(tmp_path, "big.json", ser.to_document(trivial_nrack(8, 4)))
    assert run(capsys, "check", big)[0] == 3
    assert run(capsys, "check", big, "--allow-large")[0] in (0, 1)
    small = {
        "nrack": ser.to_document(trivial_nrack(2, 3)),  # 2^5 tuples
        "nleibniz": {"kind": "nleibniz", "arity": 3, "dim": 2, "bracket": []},  # 2^5
        "linear_nrack": ser.to_document(lr.linearize_nrack(trivial_nrack(2, 3))),  # 2^5
    }
    for kind, doc in small.items():
        path = write(tmp_path, f"{kind}.json", doc)
        monkeypatch.setenv("BRAIDFORGE_DIM_CAP", "31")
        assert run(capsys, "check", path)[0] == 3, kind
        assert run(capsys, "check", path, "--allow-large")[0] in (0, 1), kind
        monkeypatch.setenv("BRAIDFORGE_DIM_CAP", "32")
        assert run(capsys, "check", path)[0] in (0, 1), kind


def test_build_certifies_its_input_under_the_cap_of_check(capsys, tmp_path, monkeypatch):
    # an uncertified input is certified by the law walk of `check`, over 2^5 tuples here
    bracket = {"kind": "nleibniz", "arity": 3, "dim": 2, "bracket": []}
    rack = {"kind": "nrack", "size": 2, "arity": 3, "table": ser.to_document(trivial_nrack(2, 3))["table"]}
    linear = {**ser.to_document(lr.linearize_nrack(trivial_nrack(2, 3))), "certified": False}
    rows = [
        ("adjoin-unit", bracket),
        ("fundamental-leibniz", bracket),
        ("fundamental-leibniz", {**bracket, "central": ["0/1", "0/1"]}),
        ("rack-from-nrack", rack),
        ("tensor-power-rack", linear),
        ("nyb-lnr", linear),
    ]
    for construction, doc in rows:
        uncertified = write(tmp_path, "in.json", doc)
        certified = write(tmp_path, "certified.json", {**doc, "certified": True})
        monkeypatch.setenv("BRAIDFORGE_DIM_CAP", "31")
        assert run(capsys, "check", uncertified)[0] == 3, construction
        assert run(capsys, "build", construction, uncertified)[0] == 3, construction
        assert run(capsys, "build", construction, uncertified, "--allow-large")[0] == 0, construction
        assert run(capsys, "build", construction, certified)[0] == 0, construction
        monkeypatch.setenv("BRAIDFORGE_DIM_CAP", "32")
        assert run(capsys, "build", construction, uncertified)[0] == 0, construction


def test_main_reuses_one_parser(capsys, tmp_path, s3):
    group = write(tmp_path, "s3.json", ser.group_to_document(s3))
    first = run(capsys, "build", "conjugation-nrack", group, "--param", "n=3")
    assert first[0] == 0
    assert run(capsys, "build", "conjugation-nrack", group, "--param", "n=2", "--param", "n=4")[0] == 0
    bad = ["build", "conjugation-nrack", group, "--no-such-flag"]
    with pytest.raises(SystemExit) as exc:
        cli.main(bad)
    usage = capsys.readouterr()
    assert exc.value.code == 2 and usage.out == ""
    # a second bad call prints what a freshly built parser prints
    with pytest.raises(SystemExit) as exc:
        cli.build_parser.__wrapped__().parse_args(bad)
    assert exc.value.code == 2 and capsys.readouterr() == usage
    assert run(capsys, "build", "conjugation-nrack", group, "--param", "n=3") == first
    assert cli.build_parser().parse_args(["build", "x", "y", "--param", "n=3"]).param == ["n=3"]
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize(
    "argv, doc, env",
    [
        (["build", "conjugation-nrack", "{}", "--param", "n=abc"], "group", {}),
        (["verify", "ybe", "{}"], "flip", {"BRAIDFORGE_DIM_CAP": "abc"}),
        (["verify", "ybe", "{}"], "flip", {"BRAIDFORGE_DIM_CAP": "0"}),
        (["check", "{}"], [1, 2], {}),
        (["check", "{}"], {"kind": "operator", "shape": [2], "codomain_shape": [2]}, {}),
        (["check", "{}"], {"kind": "nleibniz", "arity": 2, "dim": "x", "bracket": []}, {}),
        (["check", "{}"], {"kind": "set_map", "size": 10**7, "arity": 3, "map": []}, {}),
        (["check", "{}"], {"kind": "group", "size": 2, "mul": [[0, 5], [1, 0]]}, {}),
        (["check", "{}"], {"kind": "group", "size": "x", "mul": []}, {}),
        (["check", "{}"], {"kind": "nrack", "size": 2, "arity": 2, "table": 5}, {}),
        (["check", "{}"], {"kind": "set_map", "size": 2, "arity": 2, "map": [5, 6, 7, 8]}, {}),
        (["check", "{}"], {"kind": "nleibniz", "arity": 2, "dim": 2, "bracket": [5]}, {}),
        (["verify", "ybe", "{}"], {"kind": "operator", "shape": [4], "codomain_shape": [4], "entries": 3}, {}),
        (["build", "conjugation-nrack", "{}", "--param", "n=2"], {"kind": "group", "size": 1, "mul": [[0]], "provenance": 5}, {}),
        (["check", "{}"], {"kind": "coalgebra", "dim": 1, "scalars": "float", "delta": [[0, 0, "1/0"]], "epsilon": [[0, 0, 1]]}, {}),
        (["check", "{}"], {"kind": [1]}, {}),
        (["check", "{}"], {"kind": "linear_nrack", "base": 5, "arity": 2, "bracket": [], "inv_bracket": []}, {}),
        (["check", "{}"], {"kind": "nrack", "size": 2, "arity": 10**12, "table": []}, {}),
        (["build", "rack-from-nrack", "{}"], {"kind": "nrack", "size": 2, "arity": 2, "certified": "no", "table": [[0, 0, 0], [0, 1, 0], [1, 0, 0], [1, 1, 0]]}, {}),
        (["enumerate", "--m", "-1", "--n", "2", "--filter", "nrack"], "rack", {}),
        (["build", "nrack-from-rack", "{}", "--param", "n=-3"], "rack", {}),
        (["build", "sn-from-r", "{}", "--param", "n=1"], "flip", {}),
        (["build", "sn-from-r", "{}", "--param", "n=0"], "flip", {}),
        (["build", "linearize", "{}"], "flip", {}),
        (["build", "rack-from-nrack", "{}"], "flip", {}),
        (["verify", "nybe-right", "{}", "--n", "0"], "flip", {}),
        (["check", "{}"], {"kind": "nrack", "size": 2.9, "arity": 2, "table": [[0, 0, 0], [0, 1.7, 0], [1, 0, True], [1, 1, 1]]}, {}),
        (["check", "{}", "--allow-large"], {"kind": "nleibniz", "arity": 10**12, "dim": 2, "bracket": []}, {}),
        (["check", "{}", "--allow-large"], {"kind": "linear_nrack", "arity": 10**12, "base": {"kind": "coalgebra", "dim": 2, "delta": [[0, 0, 1], [3, 1, 1]], "epsilon": [[0, 0, 1], [0, 1, 1]]}, "bracket": [], "inv_bracket": []}, {}),
        # on a 1-dimensional base every law walks one tuple, but that tuple is arity-long
        (["check", "{}", "--allow-large"], {"kind": "linear_nrack", "arity": 10**9, "base": {"kind": "coalgebra", "dim": 1, "delta": [[0, 0, 1]], "epsilon": [[0, 0, 1]]}, "bracket": [[0, 0, 1]], "inv_bracket": [[0, 0, 1]]}, {}),
        (["check", "{}", "--allow-large"], {"kind": "nleibniz", "arity": 10**9, "dim": 1, "bracket": []}, {}),
        # on one point base^n = 1 passes any cap, but the results hold n-long tuples
        (["build", "nrack-from-rack", "{}", "--param", "n=1000000000"], {"kind": "nrack", "size": 1, "arity": 2, "table": [[0, 0, 0]]}, {}),
        (["build", "nrack-from-rack", "{}", "--param", "n=64", "--allow-large"], {"kind": "nrack", "size": 1, "arity": 2, "table": [[0, 0, 0]]}, {}),
        (["build", "conjugation-nrack", "{}", "--param", "n=1000000000"], {"kind": "group", "size": 1, "mul": [[0]]}, {}),
        (["build", "group-algebra-nyb", "{}", "--param", "n=1000000000", "--allow-large"], {"kind": "group", "size": 1, "mul": [[0]]}, {}),
        (["build", "nbracket-from-leibniz", "{}", "--param", "n=1000000000"], {"kind": "nleibniz", "arity": 2, "dim": 1, "bracket": []}, {}),
        (["build", "nsolution-from-solution", "{}", "--param", "n=1000000000"], {"kind": "set_map", "size": 1, "arity": 2, "map": [[0, 0, 0, 0]]}, {}),
        (["check", "{}"], {"kind": "set_map", "size": 2, "arity": 2, "map": [[0, 0, 0, 0], [0, 1, 0, 1], [1, 0, 1, 0], [1, 1, 1, 2]]}, {}),
        (["check", "{}"], {"kind": "set_map", "size": 2, "arity": 2, "map": [[0, 0, 0, 0], [0, 1, 0, 1], [1, 0, 1, 0], [1, 1, 1]]}, {}),
        # on a 1-dimensional operator the dimension cap passes any n
        (["verify", "nybe-right", "{}", "--n", "1000000000"], {"kind": "operator", "shape": [1], "codomain_shape": [1], "entries": [[0, 0, "1/1"]]}, {}),
        (["build", "lebed", "{}"], {"kind": "linear_nrack", "certified": "yes", "arity": 2, "base": {"kind": "coalgebra", "dim": 1, "delta": [[0, 0, 1]], "epsilon": [[0, 0, 1]]}, "bracket": [[0, 0, 1]], "inv_bracket": [[0, 0, 1]]}, {}),
        # checks pass, but the exp series of the basis adjoint [-, e_1] diverges in float mode
        (["build", "nrack-from-nleibniz", "{}"], {"kind": "nleibniz", "arity": 2, "dim": 2, "scalars": "float", "bracket": [{"in": [0, 1], "out": {"0": 40.0}}]}, {}),
        # non-finite float scalars have no JSON form
        (["check", "{}"], {"kind": "operator", "shape": [1], "codomain_shape": [1], "scalars": "float", "entries": [[0, 0, "nan"]]}, {}),
        (["check", "{}"], {"kind": "operator", "shape": [1], "codomain_shape": [1], "scalars": "float", "entries": [[0, 0, "1e999"]]}, {}),
        (["check", "{}"], {"kind": "operator", "shape": [1], "codomain_shape": [1], "scalars": "float", "entries": [[0, 0, float("-inf")]]}, {}),
        # a certified float linear rack whose bracket holds NaN, which the build printed back as the non-JSON token NaN
        (["build", "tensor-power-rack", "{}"], {"kind": "linear_nrack", "arity": 2, "scalars": "float", "certified": True, "base": {"kind": "coalgebra", "dim": 2, "scalars": "float", "delta": [[0, 0, 1.0], [3, 1, 1.0]], "epsilon": [[0, 0, 1.0], [0, 1, 1.0]]}, "bracket": [[0, 0, 1.0], [0, 1, 1.0], [1, 2, float("nan")], [1, 3, 1.0]], "inv_bracket": [[0, 0, 1.0], [0, 1, 1.0], [1, 2, 1.0], [1, 3, 1.0]]}, {}),
    ],
)
def test_input_errors_exit_2_without_traceback(tmp_path, argv, doc, env):
    import os
    import subprocess
    import sys

    import braidforge.ybops as yb

    named = {
        "group": ser.group_to_document(nr.symmetric_group(3)),
        "flip": ser.to_document(yb.cyclic_operator(2, 2)),
        "rack": ser.to_document(nr.cyclic_rack(2)),
    }
    path = write(tmp_path, "input.json", named[doc] if isinstance(doc, str) else doc)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "braidforge.cli", *(a.format(path) for a in argv)],
        capture_output=True,
        text=True,
        env={**os.environ, **env, "PYTHONPATH": src},
        timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("input error:")


def _bad_documents():
    """(type, document) of uncertified documents that fail their laws, for
    each law-carrying type; the central bracket comes first.

    The table's right translations are y=0: (0,1,2), y=1: (1,0,2),
    y=2: (1,2,0); it is not self-distributive, and neither is its
    linearization.  The bracket breaks the Leibniz identity.
    """

    table = nr.FiniteNRack(3, 2, (0, 1, 1, 1, 0, 2, 2, 2, 0))
    bracket = ser.to_document(nl.NLeibnizAlgebra(2, 2, {(0, 1): {0: 1}, (1, 0): {1: 1}}))
    return [
        (nl.NLeibnizAlgebra, {**bracket, "central": ["0/1", "0/1"]}),
        (nl.NLeibnizAlgebra, bracket),
        (nr.FiniteNRack, ser.to_document(table)),
        (lr.LinearNRack, {**ser.to_document(lr.linearize_nrack(table.as_certified())), "certified": False}),
    ]


def _lawful_constructions():
    """The constructions whose input kind carries laws, with the bad document each takes."""
    out = []
    for name, (_, accepts, _) in sorted(cli._CONSTRUCTIONS.items()):
        bad = [doc for cls, doc in _bad_documents() if cls is accepts]
        if bad:
            out.append(pytest.param(name, bad[0], id=name))
    return out


@pytest.mark.parametrize("construction, doc", _lawful_constructions())
def test_build_refuses_an_uncertified_input_that_fails_its_laws(capsys, tmp_path, construction, doc):
    for cls, bad in _bad_documents():
        assert not cli._check_one(bad, None).passed, cls
    out = tmp_path / "out.json"
    code, stdout, err = run(capsys, "build", construction, write(tmp_path, "bad.json", doc), "--param", "n=3", "-o", str(out))
    assert code == 2, err
    assert err.startswith("input error:") and "Traceback" not in err
    assert stdout == "" and not out.exists()


def test_demo(capsys):
    code, out, err = run(capsys, "demo")
    assert code == 0
    summary = json.loads(out)
    assert summary["overall"] == "pass"
    assert len(summary["stages"]) >= 8


def test_check_coalgebra_document(capsys, tmp_path):
    import braidforge.linrack as lr

    path = write(tmp_path, "coalg.json", ser.coalgebra_to_document(lr.kplus_coalgebra(2)))
    code, out, _ = run(capsys, "check", path)
    assert code == 0
    assert json.loads(out)["overall"] == "pass"
    # a broken one fails with exit 1
    c = lr.kplus_coalgebra(2)
    doc = ser.coalgebra_to_document(c)
    doc["delta"] = [e for e in doc["delta"] if e[:2] != [3, 1]]
    path = write(tmp_path, "badcoalg.json", doc)
    code, out, _ = run(capsys, "check", path)
    assert code == 1


_TERNARY = {"kind": "nleibniz", "arity": 3, "dim": 2, "bracket": [{"in": [0, 0, 1], "out": {"0": "1/1"}}, {"in": [1, 0, 1], "out": {"1": "1/1"}}]}
# an arity-2 linear rack on a base that is not cocommutative: delta e0 = e0 (x) e1, delta e1 = e1 (x) e1
_NOT_COCOMMUTATIVE = {
    "kind": "linear_nrack",
    "arity": 2,
    "base": {"kind": "coalgebra", "dim": 2, "delta": [[1, 0, "1/1"], [3, 1, "1/1"]], "epsilon": [[0, 0, "1/1"], [0, 1, "1/1"]]},
    "bracket": [[0, 0, "1/1"], [0, 1, "1/1"], [1, 2, "1/1"], [1, 3, "1/1"]],
    "inv_bracket": [[0, 0, "1/1"], [0, 1, "1/1"], [1, 2, "1/1"], [1, 3, "1/1"]],
}


def _wrongly_shaped():
    ternary_lnr = {**ser.to_document(lr.linear_nrack_from_nleibniz(ser.from_document(_TERNARY))), "certified": False}
    cases = [
        ("nbracket-from-leibniz", _TERNARY, "nbracket_from_leibniz starts from a binary bracket", "ternary"),
        ("nrack-from-rack", ser.to_document(nr.FiniteNRack(2, 3, (0,) * 8)), "nrack_from_rack starts from a binary rack", "ternary"),
        ("linearize", ser.to_document(nr.FiniteNRack(2, 2, (0,) * 4, "left")), "linearize right-side tables; reverse a left table first", "left"),
        ("lebed", ternary_lnr, "only an arity-2 structure is a linear rack", "ternary"),
        ("lebed", _NOT_COCOMMUTATIVE, "the braiding needs a cocommutative base", "not-cocommutative"),
        ("nyb-lnr", _NOT_COCOMMUTATIVE, "the braiding needs a cocommutative base", "not-cocommutative"),
        ("tensor-power-rack", _NOT_COCOMMUTATIVE, "tensor-power rack needs a cocommutative base", "not-cocommutative"),
    ]
    return [pytest.param(name, doc, message, id=f"{name}-{fault}") for name, doc, message, fault in cases]


@pytest.mark.parametrize("construction, doc, message", _wrongly_shaped())
def test_build_refuses_a_wrongly_shaped_input_before_its_laws(capsys, tmp_path, monkeypatch, construction, doc, message):
    assert not cli._check_one(doc, None).passed  # the laws fail too, and would be reported if walked first
    path = write(tmp_path, "in.json", doc)
    expected = (2, "", f"input error: {message}\n")
    assert run(capsys, "build", construction, path, "--param", "n=3") == expected
    monkeypatch.setenv("BRAIDFORGE_DIM_CAP", "4")  # below every space those laws walk
    assert run(capsys, "build", construction, path, "--param", "n=3") == expected


def test_check_caps_a_coalgebra_on_the_cube_of_its_dimension(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("BRAIDFORGE_DIM_CAP", "1000")
    big = write(tmp_path, "big.json", {"kind": "coalgebra", "dim": 200, "delta": [], "epsilon": []})
    code, out, err = run(capsys, "check", big)
    assert (code, out) == (3, "")
    assert err == "cap exceeded: dimension 8000000 exceeds the cap 1000; raise the cap to force it\n"
    monkeypatch.setenv("BRAIDFORGE_DIM_CAP", "27")  # exactly 3^3
    small = write(tmp_path, "small.json", ser.coalgebra_to_document(lr.kplus_coalgebra(2)))
    code, out, _ = run(capsys, "check", small)
    assert code == 0 and json.loads(out)["overall"] == "pass"


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["verify", "ybe"], {"kind": "operator", "shape": [1], "codomain_shape": [1], "entries": [[0, 0, True]]}),
        (["verify", "ybe"], {"kind": "operator", "scalars": "float", "shape": [1], "codomain_shape": [1], "entries": [[0, 0, True]]}),
        (["check"], {"kind": "nleibniz", "arity": 2, "dim": 1, "bracket": [{"in": [0, 0], "out": {"0": False}}]}),
        (["check"], {"kind": "nleibniz", "arity": 2, "dim": 1, "bracket": [], "central": [True]}),
    ],
    ids=["operator-exact", "operator-float", "bracket-value", "central"],
)
def test_a_json_boolean_is_no_scalar(capsys, tmp_path, argv, doc):
    code, out, err = run(capsys, *argv, write(tmp_path, "in.json", doc))
    assert (code, out) == (2, "")
    assert err.startswith("input error: bad ") and "(booleans are not scalars)" in err, err


def test_group_documents_are_capped_on_the_cube_of_their_size(capsys, tmp_path, monkeypatch):
    # the group axioms walk every triple of elements: 120^3 > 1000 is refused before the walk
    monkeypatch.setenv("BRAIDFORGE_DIM_CAP", "1000")
    z120 = write(tmp_path, "z120.json", {"kind": "group", "size": 120, "mul": [[(a + b) % 120 for b in range(120)] for a in range(120)]})
    for argv in (["check", z120], ["build", "conjugation-nrack", z120, "--param", "n=2"], ["verify", "ybe", z120]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert err == "cap exceeded: dimension 1728000 exceeds the cap 1000; raise the cap to force it\n"
    code, out, _ = run(capsys, "check", z120, "--allow-large")
    assert code == 0 and json.loads(out)["overall"] == "pass"
    # 10^3 is exactly the cap
    z10 = write(tmp_path, "z10.json", {"kind": "group", "size": 10, "mul": [[(a + b) % 10 for b in range(10)] for a in range(10)]})
    code, out, _ = run(capsys, "check", z10)
    assert code == 0 and json.loads(out)["overall"] == "pass"


@pytest.mark.parametrize(
    "equation, doc, n, message",
    [
        ("ybe", "operator", 3, "input error: ybe is the degree-2 equation; got --n 3\n"),
        ("set-ybe", "binary", 3, "input error: --n 3 contradicts the map's arity 2\n"),
        ("set-nybe", "ternary", 2, "input error: --n 2 contradicts the map's arity 3\n"),
        ("set-nybe", "ternary", 4, "input error: --n 4 contradicts the map's arity 3\n"),
    ],
    ids=["ybe-3", "set-ybe-3", "set-nybe-2", "set-nybe-4"],
)
def test_verify_refuses_an_n_that_contradicts_the_equation(capsys, tmp_path, equation, doc, n, message):
    docs = {
        "operator": ser.operator_to_document(T.permutation_operator(T.power_shape(2, 2), (1, 0))),
        "binary": ser.set_map_to_document(ss.flip_map(2, 2)),
        "ternary": ser.set_map_to_document(ss.flip_map(2, 3)),
    }
    path = write(tmp_path, "in.json", docs[doc])
    assert run(capsys, "verify", equation, path, "--n", str(n)) == (2, "", message)
    code, out, _ = run(capsys, "verify", equation, path, "--n", str(2 if doc != "ternary" else 3))
    assert code == 0 and json.loads(out)["holds"]
