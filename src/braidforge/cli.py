"""braidforge: check, build, verify, enumerate, demo.

One binary over JSON documents.  All results go to stdout as JSON with
sorted keys and canonical scalars; diagnostics go to stderr.  Exit
codes: 0 pass, 1 verification failure, 2 input error, 3 cap exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass

from . import linrack, nleibniz, nrack, serialization, setsol, tensor, ybops
from .errors import (
    BraidforgeError,
    CapExceededError,
    NotCertifiedError,
    PreconditionError,
    SchemaError,
    ShapeMismatchError,
)
from .reports import ReportBuilder

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_CAP = 3


def _emit(doc):
    sys.stdout.write(serialization.dumps(doc))


def _diag(msg):
    sys.stderr.write(msg.rstrip() + "\n")


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise SchemaError(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise SchemaError(f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}")
    except (OSError, UnicodeDecodeError, RecursionError) as exc:  # a directory, not UTF-8, nested too deep
        raise SchemaError(f"cannot read {path}: {exc}") from None


def _dim_cap(allow_large):
    """The verification dimension cap: BRAIDFORGE_DIM_CAP (a positive
    integer) or the 2^20 default, and None under --allow-large."""
    raw = os.environ.get("BRAIDFORGE_DIM_CAP") or str(ybops.DEFAULT_DIM_CAP)
    if not raw.isdecimal() or int(raw) < 1:
        raise SchemaError(f"BRAIDFORGE_DIM_CAP must be a positive integer, got {raw!r}")
    return None if allow_large else int(raw)


# -- check ---------------------------------------------------------------


def _cap_laws(obj, dim_cap):
    """Cap the laws of an n-Leibniz algebra, an n-rack or a linear n-rack,
    which walk every (2n-1)-tuple, on d^(2n-1), and those of a coalgebra,
    which live on C^(x)3 as a linear rack's base does, on dim^3."""
    if isinstance(obj, nrack.FiniteNRack):
        d = obj.size
    else:
        d = obj.base.dim if isinstance(obj, linrack.LinearNRack) else obj.dim
    setsol.check_dim_cap(d ** (2 * getattr(obj, "arity", 2) - 1), dim_cap)


def _check_one(doc, dim_cap):
    kind = serialization.document_kind(doc)
    if kind == "group":
        return nrack.check_group_table(*serialization.group_table_from_document(doc))
    obj = serialization.from_document(doc)
    if kind in ("nleibniz", "nrack", "coalgebra", "linear_nrack"):
        _cap_laws(obj, dim_cap)
    if kind == "nleibniz":
        if obj.central is not None:
            rb = ReportBuilder("central-nleibniz")
            rb.extend(nleibniz.check_fundamental_identity(obj))
            rb.record("central-element", nleibniz.is_central(obj, obj.central))
            return rb.build()
        return nleibniz.check_fundamental_identity(obj)
    if kind == "nrack":
        return nrack.check_nrack(obj)
    if kind == "coalgebra":
        return linrack.check_coalgebra(obj)
    if kind == "linear_nrack":  # the report of a failing base coalgebra, else of the laws
        return linrack.check_linear_nrack(obj)
    if kind == "set_map":
        rb = ReportBuilder(f"set_map(side={obj.side})")
        holds, witness = setsol.satisfies(obj, obj.side, dim_cap)
        rb.record(f"{obj.side}-relation", holds, witness)
        bijective = rb.record("bijectivity", obj.is_bijective())
        if holds and not bijective:
            _diag("note: relation holds but the map is not bijective (a pre-solution)")
        return rb.build()
    if kind == "operator":
        rb = ReportBuilder("operator")
        rb.record("well-formed", True)
        return rb.build()
    raise SchemaError(f"unknown document kind {kind!r}")


def cmd_check(args):
    payload = _load_json(args.file)
    docs = payload if isinstance(payload, list) else [payload]
    reports = [_check_one(doc, args.dim_cap) for doc in docs]
    if isinstance(payload, list):
        overall = all(r.passed for r in reports)
        _emit(
            {
                "overall": "pass" if overall else "fail",
                "passes": sum(r.passed for r in reports),
                "failures": sum(not r.passed for r in reports),
                "reports": [r.to_json() for r in reports],
            }
        )
        return EXIT_PASS if overall else EXIT_FAIL
    _emit(reports[0].to_json())
    return EXIT_PASS if reports[0].passed else EXIT_FAIL


# -- build ---------------------------------------------------------------


@dataclass(frozen=True)
class BuildContext:
    """Everything a construction reads besides its input object."""

    params: dict
    recheck: bool
    dim_cap: object  # int, or None when --allow-large lifts the cap

    def arity(self, base):
        """--param n, the arity every construction that takes one needs:
        2 to 63, and base^n within the cap, as the result holds base^n entries."""
        if "n" not in self.params:
            raise SchemaError("construction needs --param n=...")
        try:
            n = int(self.params["n"])
        except ValueError:
            raise SchemaError(f"--param n must be an integer, got {self.params['n']!r}") from None
        if not 2 <= n <= 63:
            raise SchemaError(f"--param n must be between 2 and 63, got {n}")
        setsol.check_dim_cap(base**n, self.dim_cap)
        return n


#: name -> (construction, the object type its input document must read as,
#: and the refusals of what else it lacks, run before the input's laws are walked)
_CONSTRUCTIONS = {}


def _construction(name, accepts, *refusals):
    def wrap(fn):
        _CONSTRUCTIONS[name] = (fn, accepts, refusals)
        return fn

    return wrap


@_construction("nbracket-from-leibniz", nleibniz.NLeibnizAlgebra, nleibniz.require_binary)
def _b_nbracket(obj, ctx):
    return nleibniz.nbracket_from_leibniz(obj, ctx.arity(obj.dim), ctx.recheck)


@_construction("fundamental-leibniz", nleibniz.NLeibnizAlgebra)
def _b_fundamental(obj, ctx):
    return nleibniz.fundamental_leibniz(obj, ctx.recheck)


@_construction("adjoin-unit", nleibniz.NLeibnizAlgebra)
def _b_adjoin(obj, ctx):
    return nleibniz.adjoin_unit(obj, ctx.recheck)


@_construction("nrack-from-nleibniz", nleibniz.NLeibnizAlgebra)
def _b_vector_nrack(obj, ctx):
    nrack.nrack_from_nleibniz(obj)  # raises unless the grid validation passes
    return obj


@_construction("conjugation-nrack", nrack.FiniteGroup)
def _b_conj(obj, ctx):
    return nrack.conjugation_nrack(obj, ctx.arity(obj.size))


@_construction("nrack-from-rack", nrack.FiniteNRack, nrack.require_binary)
def _b_nrack_from_rack(obj, ctx):
    return nrack.nrack_from_rack(obj, ctx.arity(obj.size), ctx.recheck)


@_construction("rack-from-nrack", nrack.FiniteNRack)
def _b_induced_rack(obj, ctx):
    return nrack.krack_from_power(obj, 2)


@_construction("linearize", nrack.FiniteNRack, linrack.require_right_side)
def _b_linearize(obj, ctx):
    return linrack.linearize_nrack(obj)


@_construction("lnr-from-nleibniz", nleibniz.NLeibnizAlgebra)
def _b_lnr(obj, ctx):
    return linrack.linear_nrack_from_nleibniz(obj)


@_construction("tensor-power-rack", linrack.LinearNRack, functools.partial(linrack.require_cocommutative, what="tensor-power rack"))
def _b_tensor_power(obj, ctx):
    return linrack.linear_rack_on_tensor_power(obj, ctx.recheck)


@_construction("lebed", linrack.LinearNRack, linrack.require_rack, linrack.require_cocommutative)
def _b_braiding(obj, ctx):
    fwd, _ = linrack.nrack_braiding(obj)
    return fwd


@_construction("r1", nleibniz.NLeibnizAlgebra)
def _b_r1(obj, ctx):
    return ybops.r1_from_nleibniz(obj)


@_construction("r2", nleibniz.NLeibnizAlgebra)
def _b_r2(obj, ctx):
    return ybops.r2_from_nleibniz(obj)


@_construction("eta", nleibniz.NLeibnizAlgebra)
def _b_eta(obj, ctx):
    eta, report = ybops.eta_intertwiner(obj)
    if not report.passed:
        raise PreconditionError("eta verification failed", report.witness)
    return eta


@_construction("nyb-central", nleibniz.NLeibnizAlgebra, ybops.require_central_element)
def _b_nyb_central(obj, ctx):
    side = ctx.params.get("side", "right")
    return ybops.nyb_from_central_nleibniz(obj, side)


_construction("nyb-lnr", linrack.LinearNRack, linrack.require_cocommutative)(_b_braiding)  # lebed at any arity


@_construction("group-algebra-nyb", nrack.FiniteGroup)
def _b_group_nyb(obj, ctx):
    return ybops.group_algebra_nyb(obj, ctx.arity(obj.size))


@_construction("sn-from-r", tensor.TensorOperator)
def _b_sn(obj, ctx):
    return ybops.nyb_from_ybe(obj, ctx.arity(math.isqrt(obj.domain_shape.total)), ctx.dim_cap)


@_construction("stilde-from-s", tensor.TensorOperator)
def _b_stilde(obj, ctx):
    # verify_nybe caps d^(2n-1) before the descent builds its d^(2n-2) entries
    return ybops.ybe_from_nyb(obj, ctx.arity(1), ctx.dim_cap)


@_construction("solution-from-nrack", nrack.FiniteNRack)
def _b_solution(obj, ctx):
    return setsol.solution_from_nrack(obj, ctx.dim_cap)


@_construction("nsolution-from-solution", setsol.SetNMap)
def _b_nsolution(obj, ctx):
    return setsol.nsolution_from_solution(obj, ctx.arity(obj.size), ctx.dim_cap)


@_construction("solution-from-nsolution", setsol.SetNMap)
def _b_descend(obj, ctx):
    return setsol.solution_from_nsolution(obj, ctx.dim_cap)


#: the certify function of each kind of document that carries laws
_CERTIFY = {
    nleibniz.NLeibnizAlgebra: nleibniz.certify,
    nrack.FiniteNRack: nrack.certify,
    linrack.LinearNRack: linrack.certify,
}


def _certify_input(obj, dim_cap):
    """Documents not marked certified get checked, under the cap of `check`,
    before a build uses them."""
    certify = _CERTIFY.get(type(obj))
    if certify is None or obj.certified:
        return obj
    _cap_laws(obj, dim_cap)
    return certify(obj)


def cmd_build(args):
    if args.construction not in _CONSTRUCTIONS:
        known = ", ".join(sorted(_CONSTRUCTIONS))
        raise SchemaError(f"unknown construction {args.construction!r}; known: {known}")
    build, accepts, refusals = _CONSTRUCTIONS[args.construction]
    params = {}
    for raw in args.param or ():
        key, sep, value = raw.partition("=")
        if not sep:
            raise SchemaError(f"--param needs key=value, got {raw!r}")
        params[key] = value
    doc = _load_json(args.file)
    obj = serialization.from_document(doc)
    if not isinstance(obj, accepts):
        raise SchemaError(f"construction {args.construction!r} cannot take a {type(obj).__name__}")
    for refuse in refusals:
        refuse(obj)
    obj = _certify_input(obj, args.dim_cap)
    result = build(obj, BuildContext(params, args.recheck, args.dim_cap))
    provenance = doc.get("provenance", [])
    if not isinstance(provenance, list):
        raise SchemaError("the 'provenance' field must be a list")
    provenance = provenance + [f"{args.construction}({os.path.basename(args.file)})"]
    out = serialization.to_document(result, provenance)
    text = serialization.dumps(out)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise SchemaError(f"cannot write {args.output}: {exc.strerror}") from None
        _diag(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return EXIT_PASS


# -- verify --------------------------------------------------------------


def cmd_verify(args):
    doc = _load_json(args.file)
    obj = serialization.from_document(doc)
    equation = args.equation
    if equation in ("ybe", "nybe-right", "nybe-left"):
        if not isinstance(obj, tensor.TensorOperator):
            raise SchemaError(f"{equation} needs an operator document")
        n, side = (2, "right") if equation == "ybe" else (args.n, equation.split("-")[1])
        if n is None:
            n = len(obj.domain_shape.factor_dims)
            if n < 2:
                raise SchemaError("cannot infer n from a flat shape; pass --n")
        report = ybops.verify_nybe(obj, n, side, args.dim_cap)
        _emit(report.to_json())
        ok = report.holds and (report.invertible or args.allow_pre)
        return EXIT_PASS if ok else EXIT_FAIL
    if equation in ("set-ybe", "set-nybe"):
        if not isinstance(obj, setsol.SetNMap):
            raise SchemaError(f"{equation} needs a set_map document")
        if equation == "set-ybe" and obj.arity != 2:
            raise SchemaError("set-ybe needs a binary map")
        holds, witness = setsol.satisfies(obj, obj.side, args.dim_cap)
        bijective = obj.is_bijective()
        _emit(
            {
                "equation": ("set_ybe" if obj.arity == 2 else "set_nybe") + "_" + obj.side,
                "n": obj.arity,
                "dim": obj.size,
                "holds": holds,
                "invertible": bijective,
                "witness": None if holds else witness["tuple"],
                "nondegenerate": setsol.nondegeneracy(obj),
                "involutive_order": setsol.involutive_order(obj),
            }
        )
        if holds and not bijective:
            _diag("note: relation holds but the map is not bijective (a pre-solution)")
        ok = holds and (bijective or args.allow_pre)
        return EXIT_PASS if ok else EXIT_FAIL
    raise SchemaError(f"unknown equation {equation!r}")


# -- enumerate -----------------------------------------------------------


def cmd_enumerate(args):
    census, _found = setsol.enumerate_tables(args.m, args.n, args.filter, dump=args.dump)
    _emit(census)
    return EXIT_PASS


# -- demo ----------------------------------------------------------------


def cmd_demo(args):
    """The worked pipeline: a small ternary algebra, its unit extension,
    the degree-3 operator, the descended braiding, and the diagram checks."""
    stages = []

    def stage(name, ok, **extra):
        stages.append({"name": name, "status": "pass" if ok else "fail", **extra})
        _diag(f"{'ok ' if ok else 'FAIL'} {name}")
        return ok

    t3 = nleibniz.NLeibnizAlgebra(3, 3, {(0, 1, 1): {2: 1}})
    fi = nleibniz.check_fundamental_identity(t3)
    stage("fundamental-identity(T3)", fi.passed)
    t3 = t3.as_certified()
    t3bar = nleibniz.adjoin_unit(t3)
    stage("adjoin-unit(T3) central", nleibniz.is_central(t3bar, t3bar.central), dim=t3bar.dim)
    s = ybops.nyb_from_central_nleibniz(t3bar)
    rep = ybops.verify_nybe(s, 3, "right", args.dim_cap)
    stage("degree-3 braid relation (dim 4^5)", rep.holds and rep.invertible, **rep.to_json())
    stilde = ybops.ybe_from_nyb(s, 3, args.dim_cap)
    rep2 = ybops.verify_nybe(stilde, 2, "right", args.dim_cap)
    stage("descended Yang-Baxter operator", rep2.holds and rep2.invertible)
    rfund = ybops.nyb_from_central_nleibniz(nleibniz.fundamental_leibniz(t3bar))
    stage("descent diagram: S~ equals the tensor-power braiding", stilde == rfund)
    r2 = ybops.r2_from_nleibniz(t3)
    lnr = linrack.linear_nrack_from_nleibniz(t3)
    rack = linrack.linear_rack_on_tensor_power(lnr)
    lebed, _ = linrack.nrack_braiding(rack)
    stage("coalgebra route reproduces the tensor-power braiding", r2 == lebed)
    eta, eta_report = ybops.eta_intertwiner(t3)
    stage("eta intertwines the two braidings", eta_report.passed)
    vr_report = nrack.verify_tensor_embedding(t3)
    stage("vector rack tensor embedding", vr_report.passed)
    sol = setsol.solution_from_nrack(nrack.conjugation_nrack(nrack.symmetric_group(3), 3))
    profile = setsol.check_set_nsolution(sol, args.dim_cap)
    stage("conjugation 3-solution on Sym(3)", profile.is_right_solution)
    overall = all(st["status"] == "pass" for st in stages)
    _emit({"overall": "pass" if overall else "fail", "stages": stages})
    return EXIT_PASS if overall else EXIT_FAIL


# -- entry point ---------------------------------------------------------


@functools.cache
def build_parser():
    """The one argument parser of the process: building it costs far more than a parse."""
    p = argparse.ArgumentParser(
        prog="braidforge",
        description="construct and machine-verify self-distributive algebra and braid-relation operators",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="run all axioms for a document (or a JSON array batch)")
    c.add_argument("file")
    c.add_argument("--allow-large", action="store_true", help="ignore the cap on law and relation checks")
    c.set_defaults(fn=cmd_check)

    b = sub.add_parser("build", help="run a named construction on a document")
    b.add_argument("construction")
    b.add_argument("file")
    b.add_argument("--param", action="append", metavar="K=V")
    b.add_argument("-o", "--output")
    b.add_argument("--recheck", action="store_true", help="re-verify theorem-certified outputs")
    b.add_argument("--allow-large", action="store_true")
    b.set_defaults(fn=cmd_build)

    v = sub.add_parser("verify", help="verify a braid-type equation for an operator or set map")
    v.add_argument("equation", choices=["ybe", "nybe-right", "nybe-left", "set-ybe", "set-nybe"])
    v.add_argument("file")
    v.add_argument("--n", type=int, default=None)
    v.add_argument("--allow-pre", action="store_true", help="accept non-invertible solutions")
    v.add_argument("--allow-large", action="store_true", help="ignore the verification dimension cap")
    v.set_defaults(fn=cmd_verify)

    e = sub.add_parser("enumerate", help="census of operation tables at desk scale")
    e.add_argument("--m", type=int, required=True)
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--filter", required=True, choices=["nshelf", "nrack", "nsolution"])
    e.add_argument("--dump", action="store_true")
    e.set_defaults(fn=cmd_enumerate)

    d = sub.add_parser("demo", help="run the worked end-to-end pipeline")
    d.add_argument("--allow-large", action="store_true")
    d.set_defaults(fn=cmd_demo)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.dim_cap = _dim_cap(getattr(args, "allow_large", False))
        return args.fn(args)
    except CapExceededError as exc:
        _diag(f"cap exceeded: {exc}")
        return EXIT_CAP
    except (SchemaError, NotCertifiedError, PreconditionError, ShapeMismatchError) as exc:
        _diag(f"input error: {exc}")
        return EXIT_INPUT
    except BraidforgeError as exc:
        _diag(f"error: {exc}")
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
