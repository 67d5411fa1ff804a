"""JSON documents for every object kind the tool exchanges.

Scalars are "p/q" strings in exact mode and plain numbers in float
mode; keys are emitted sorted and entry lists in (row, col) order, so
identical objects serialize byte-identically.
"""

from __future__ import annotations

import itertools
import json
import math

from . import scalars, tensor
from .errors import SchemaError
from .linrack import Coalgebra, LinearNRack
from .nleibniz import NLeibnizAlgebra
from .nrack import FiniteGroup, FiniteNRack
from .setsol import SetNMap
from .tensor import TensorOperator, TensorShape

KINDS = ("nleibniz", "nrack", "group", "coalgebra", "linear_nrack", "operator", "set_map")


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _require(doc, key, kind):
    if not isinstance(doc, dict):
        raise SchemaError(f"{kind} must be a JSON object")
    if key not in doc:
        raise SchemaError(f"{kind} document is missing {key!r}")
    return doc[key]


def _list(doc, key, kind, item=None):
    """Field ``key`` of a ``kind`` document, which must be a JSON list, and
    a list of ``item`` (list or dict) values when ``item`` is given."""
    raw = _require(doc, key, kind)
    if not isinstance(raw, list) or (item is not None and not all(isinstance(x, item) for x in raw)):
        of = "" if item is None else f" of {'lists' if item is list else 'objects'}"
        raise SchemaError(f"{kind} field {key!r} must be a list{of}")
    return raw


def _int(raw) -> int:
    """A document integer: a number as ``scalars.as_int`` reads it, or a
    string that int() reads (object keys are strings)."""
    if type(raw) is int:
        return raw
    if type(raw) is str:
        try:
            return int(raw)
        except ValueError:
            raise SchemaError(f"expected an integer, got {raw!r}") from None
    return scalars.as_int(raw)


def _mode_of(doc) -> str:
    return scalars.check_mode(doc.get("scalars", scalars.EXACT))


def _certified(doc, kind) -> bool:
    raw = doc.get("certified", False)
    if not isinstance(raw, bool):
        raise SchemaError(f"{kind} field 'certified' must be true or false, got {raw!r}")
    return raw


def _total_table(rows, kind, size, arity, width):
    """The flat index over {0..size-1} of the values of each row [x_1..x_arity,
    v_1..v_width] of a total table over {0..size-1}^arity, in the flat order
    of the arguments.  The row count is checked first, then in one pass each
    row's length, arguments and values, and that no argument tuple repeats."""
    if size < 1 or arity < 2:
        raise SchemaError(f"{kind} needs size >= 1 and arity >= 2")
    # no list in memory has 2^64 rows; refusing first keeps size**arity small
    if (size > 1 and arity > 63) or len(rows) != size**arity:
        raise SchemaError(f"{kind} must be total: expected {size}^{arity} rows, got {len(rows)}")
    out = [None] * len(rows)
    for row in rows:
        if len(row) != arity + width:
            raise SchemaError(f"{kind} row {row!r} must hold {arity} arguments and {width} values")
        idx = code = 0
        for a in row[:arity]:
            a = a if type(a) is int else _int(a)
            if not 0 <= a < size:
                raise SchemaError(f"{kind} argument {a} out of range")
            idx = idx * size + a
        if out[idx] is not None:
            raise SchemaError(f"duplicate {kind} row for {row[:arity]}")
        for v in row[arity:]:
            v = v if type(v) is int else _int(v)
            if not 0 <= v < size:
                raise SchemaError("table value out of range" if kind == "nrack" else f"bad output tuple {tuple(map(_int, row[arity:]))}")
            code = code * size + v
        out[idx] = code
    return out


def _entries_to_json(op: TensorOperator):
    """[row, col, value] in (row, col) order, exact values printed from the
    stored integers over the scale."""
    exact = op.mode == scalars.EXACT
    entries = sorted((r, c, v) for c, col in enumerate(op.columns) for r, v in col)
    return [[r, c, scalars.format_ratio(v, op.scale) if exact else v] for r, c, v in entries]


def _read_operator(doc, key, kind, mode, dom, cod) -> TensorOperator:
    """The operator dom -> cod of the [row, col, value] list ``key``, which
    names each (row, col) once; exact values are read as numerators over the
    lcm of their denominators.  Each distinct value string is parsed once."""
    exact, entries, parsed = mode == scalars.EXACT, {}, {}
    for item in _list(doc, key, kind, list):
        if len(item) != 3:
            raise SchemaError(f"operator entry {item!r} must be [row, col, value]")
        rc = _int(item[0]), _int(item[1])
        if rc in entries:
            raise SchemaError(f"duplicate {kind} entry ({rc[0]},{rc[1]}) in {key!r}")
        raw = item[2]
        value = parsed.get(raw) if type(raw) is str else None  # a list still reaches the parser's refusal
        if value is None:
            value = scalars.parse_ratio(raw) if exact else scalars.parse_scalar(raw, mode)
            if type(raw) is str:
                parsed[raw] = value
        entries[rc] = value
    tensor.check_entry_range(entries, dom, cod)
    cols = tensor.empty_columns(dom)
    scale = math.lcm(*(den for _, den in entries.values())) if exact else 1
    for (r, c), v in entries.items():
        cols[c].append((r, v[0] * (scale // v[1]) if exact else v))
    return TensorOperator.from_columns(dom, cod, cols, scale, mode)


def operator_to_document(op: TensorOperator) -> dict:
    return {
        "kind": "operator",
        "scalars": op.mode,
        "shape": list(op.domain_shape.factor_dims),
        "codomain_shape": list(op.codomain_shape.factor_dims),
        "entries": _entries_to_json(op),
    }


def operator_from_document(doc) -> TensorOperator:
    mode = _mode_of(doc)
    dom = TensorShape(tuple(_int(v) for v in _list(doc, "shape", "operator")))
    cod = TensorShape(tuple(_int(v) for v in _list(doc, "codomain_shape", "operator")))
    return _read_operator(doc, "entries", "operator", mode, dom, cod)


def nleibniz_to_document(a: NLeibnizAlgebra) -> dict:
    doc = {
        "kind": "nleibniz",
        "arity": a.arity,
        "dim": a.dim,
        "scalars": a.mode,
        "certified": a.certified,
        "bracket": [
            {
                "in": list(key),
                "out": {str(j): scalars.format_scalar(v, a.mode) for j, v in sorted(out.items())},
            }
            for key, out in sorted(a.bracket.items())
        ],
    }
    if a.central is not None:
        doc["central"] = [scalars.format_scalar(a.central.get(j, 0), a.mode) for j in range(a.dim)]
    return doc


def nleibniz_from_document(doc) -> NLeibnizAlgebra:
    mode = _mode_of(doc)
    bracket, central = {}, None
    for item in _list(doc, "bracket", "nleibniz", dict):
        key = tuple(_int(i) for i in _list(item, "in", "bracket term"))
        out = _require(item, "out", "bracket term")
        if not isinstance(out, dict):
            raise SchemaError(f"bracket term field 'out' must be an object, got {out!r}")
        out = {_int(j): scalars.parse_scalar(v, mode) for j, v in out.items()}
        if key in bracket:
            raise SchemaError(f"duplicate bracket key {key}")
        bracket[key] = out
    dim = _int(_require(doc, "dim", "nleibniz"))
    if "central" in doc:
        raw = _list(doc, "central", "nleibniz")
        if len(raw) != dim:
            raise SchemaError(f"nleibniz field 'central' must hold {dim} entries, got {len(raw)}")
        central = {j: scalars.parse_scalar(v, mode) for j, v in enumerate(raw)}
    a = NLeibnizAlgebra(_int(_require(doc, "arity", "nleibniz")), dim, bracket, mode, _certified(doc, "nleibniz"), central)
    # no law check walks 2^63 inputs, and on dim 1 the check's one (2n-1)-tuple would be huge
    if a.arity > 63:
        raise SchemaError(f"nleibniz arity {a.arity} on dim {a.dim} is beyond any check")
    return a


def nrack_to_document(t: FiniteNRack) -> dict:
    rows = [
        list(args) + [t.apply(args)]
        for args in itertools.product(range(t.size), repeat=t.arity)
    ]
    return {
        "kind": "nrack",
        "size": t.size,
        "arity": t.arity,
        "side": t.side,
        "certified": t.certified,
        "table": rows,
    }


def nrack_from_document(doc) -> FiniteNRack:
    size = _int(_require(doc, "size", "nrack"))
    arity = _int(_require(doc, "arity", "nrack"))
    table = _total_table(_list(doc, "table", "nrack", list), "nrack", size, arity, 1)
    return FiniteNRack(size, arity, table, doc.get("side", "right"), _certified(doc, "nrack"))


def group_to_document(g: FiniteGroup) -> dict:
    return {"kind": "group", "size": g.size, "mul": [list(row) for row in g.mul]}


def group_table_from_document(doc):
    """(size, mul) of a group document, before the group axioms are checked."""
    size = _int(_require(doc, "size", "group"))
    return size, tuple(tuple(_int(v) for v in row) for row in _list(doc, "mul", "group", list))


def group_from_document(doc) -> FiniteGroup:
    return FiniteGroup(*group_table_from_document(doc))


def coalgebra_to_document(c: Coalgebra) -> dict:
    return {
        "kind": "coalgebra",
        "dim": c.dim,
        "scalars": c.mode,
        "delta": _entries_to_json(c.delta),
        "epsilon": _entries_to_json(c.counit),
    }


def coalgebra_from_document(doc) -> Coalgebra:
    dim = _int(_require(doc, "dim", "coalgebra"))
    mode = _mode_of(doc)
    delta = _read_operator(doc, "delta", "coalgebra", mode, TensorShape((dim,)), tensor.power_shape(dim, 2))
    counit = _read_operator(doc, "epsilon", "coalgebra", mode, TensorShape((dim,)), TensorShape((1,)))
    return Coalgebra(dim, delta, counit, mode)


def linear_nrack_to_document(l: LinearNRack) -> dict:
    return {
        "kind": "linear_nrack",
        "arity": l.arity,
        "scalars": l.base.mode,
        "certified": l.certified,
        "base": coalgebra_to_document(l.base),
        "bracket": _entries_to_json(l.bracket),
        "inv_bracket": _entries_to_json(l.inv_bracket),
    }


def linear_nrack_from_document(doc) -> LinearNRack:
    base = coalgebra_from_document(_require(doc, "base", "linear_nrack"))
    arity = _int(_require(doc, "arity", "linear_nrack"))
    if not 2 <= arity <= 63:  # as for nleibniz, before power_shape allocates
        raise SchemaError(f"linear_nrack arity must be between 2 and 63, got {arity}")
    mode = base.mode
    dom = tensor.power_shape(base.dim, arity)
    cod = TensorShape((base.dim,))
    bracket = _read_operator(doc, "bracket", "linear_nrack", mode, dom, cod)
    inv = _read_operator(doc, "inv_bracket", "linear_nrack", mode, dom, cod)
    return LinearNRack(base, arity, bracket, inv, _certified(doc, "linear_nrack"))


def set_map_to_document(s: SetNMap) -> dict:
    digits = tensor.power_shape(s.size, s.arity).multi
    rows = [list(digits(x) + digits(y)) for x, y in enumerate(s.image)]
    return {"kind": "set_map", "size": s.size, "arity": s.arity, "side": s.side, "map": rows}


def set_map_from_document(doc) -> SetNMap:
    size = _int(_require(doc, "size", "set_map"))
    arity = _int(_require(doc, "arity", "set_map"))
    image = _total_table(_list(doc, "map", "set_map", list), "set_map", size, arity, arity)
    return SetNMap(size, arity, image, doc.get("side", "right"))


_TO_DOCUMENT = {
    TensorOperator: operator_to_document,
    NLeibnizAlgebra: nleibniz_to_document,
    FiniteNRack: nrack_to_document,
    FiniteGroup: group_to_document,
    Coalgebra: coalgebra_to_document,
    LinearNRack: linear_nrack_to_document,
    SetNMap: set_map_to_document,
}

_FROM_DOCUMENT = {
    "operator": operator_from_document,
    "nleibniz": nleibniz_from_document,
    "nrack": nrack_from_document,
    "group": group_from_document,
    "coalgebra": coalgebra_from_document,
    "linear_nrack": linear_nrack_from_document,
    "set_map": set_map_from_document,
}


def to_document(obj, provenance=None) -> dict:
    """The document of ``obj``, with its ``provenance`` list if one is given."""
    for cls, fn in _TO_DOCUMENT.items():
        if isinstance(obj, cls):
            doc = fn(obj)
            if provenance:
                doc["provenance"] = list(provenance)
            return doc
    raise SchemaError(f"no document form for {type(obj).__name__}")


def document_kind(doc) -> str:
    """The ``kind`` field of a document, which must be a JSON object of a known kind."""
    if not isinstance(doc, dict):
        raise SchemaError("a document must be a JSON object")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise SchemaError(f"unknown document kind {kind!r}; expected one of {KINDS}")
    return kind


def from_document(doc):
    return _FROM_DOCUMENT[document_kind(doc)](doc)
