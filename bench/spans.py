"""Spans around calls into braidforge's public functions, installed from outside.

`Tracer.install` replaces each listed function in every braidforge
namespace that binds it (``from ... import`` copies included) with a
wrapper that records a span: name, start, end, parent span and job.
Spans stay in memory; `layer_metrics` folds them into per-function
calls, self time and counters, where self time is a span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import gc
import json
import sys
import time

#: (module, function or Class.method, counters); counters are explained in `_count`
TRACED = [
    ("cli", "main", ("nonzero_exit",)),
    ("serialization", "from_document", ()),
    ("serialization", "to_document", ()),
    ("serialization", "dumps", ()),
    ("ybops", "verify_nybe", ("space_dim",)),
    ("tensor", "embed", ("nnz_in", "nnz_out")),
    ("tensor", "compose", ("nnz_in", "nnz_out")),
    ("tensor", "compose_blocks", ("nnz_in", "nnz_out")),
    ("tensor", "invert", ("nnz_in", "nnz_out", "raised")),
    ("tensor", "rref", ("nnz_in", "nnz_out")),
    ("tensor", "TensorOperator.first_difference", ("nnz_in", "nnz_out")),
    ("tensor", "TensorOperator.permute_codomain", ("nnz_in", "nnz_out")),
    ("tensor", "TensorOperator.tensor", ("nnz_in", "nnz_out")),
    ("nleibniz", "check_fundamental_identity", ("tuples",)),
    ("nrack", "check_nrack", ("tuples",)),
    ("setsol", "check_set_nsolution", ("tuples",)),
    ("linrack", "check_linear_nrack", ()),
    ("setsol", "enumerate_tables", ("found",)),
]

#: metrics of the traced run itself
RUN_METRICS = [
    ("gc.collections", "count"),
    ("gc.pause_s", "s"),
    ("trace.jobs", "count"),
    ("trace.wall_s", "s"),
    ("trace.unspanned_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]


def metric_names():
    """Every per-layer metric name with its unit, in a fixed order."""
    out = []
    for module, func, counters in TRACED:
        base = f"{module}.{func}"
        out += [(f"{base}.calls", "count"), (f"{base}.self_s", "s")]
        out += [(f"{base}.{c}", "count") for c in counters]
    return out + RUN_METRICS


def _nnz(op):
    return len(op.entries)


def _count(name, args, result, exc):
    """Counter increments of one call; `result` is None when it raised `exc`."""
    if name == "cli.main":
        return {"nonzero_exit": int(exc is not None or result != 0)}
    if exc is not None:
        return {"raised": 1} if name == "tensor.invert" else {}
    if name == "ybops.verify_nybe":
        return {"space_dim": result.verification_dim}
    if name in ("tensor.embed", "tensor.invert", "tensor.TensorOperator.permute_codomain"):
        return {"nnz_in": _nnz(args[0]), "nnz_out": _nnz(result)}
    if name in ("tensor.compose", "tensor.TensorOperator.tensor"):
        return {"nnz_in": _nnz(args[0]) + _nnz(args[1]), "nnz_out": _nnz(result)}
    if name == "tensor.compose_blocks":
        return {"nnz_in": sum(map(_nnz, args[0])) + _nnz(args[1]), "nnz_out": _nnz(result)}
    if name == "tensor.rref":
        return {"nnz_in": sum(map(len, args[0])), "nnz_out": sum(map(len, result[1].values()))}
    if name == "tensor.TensorOperator.first_difference":
        return {"nnz_in": _nnz(args[0]) + _nnz(args[1]), "nnz_out": int(result is not None)}
    if name == "nleibniz.check_fundamental_identity":
        return {"tuples": args[0].dim ** (2 * args[0].arity - 1)}
    if name in ("nrack.check_nrack", "setsol.check_set_nsolution"):
        return {"tuples": args[0].size ** (2 * args[0].arity - 1)}
    if name == "setsol.enumerate_tables":
        return {"found": result[0]["count"]}
    return {}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, job, counters]
        self.stack = []
        self.job = None
        self.gc_collections = 0
        self.gc_pause_s = 0.0
        self._gc_start = 0.0
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            if name == "tensor.rref":  # rows may be a one-shot iterator
                args = ([dict(r) for r in args[0]],) + args[1:]
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:  # argparse exits through SystemExit
                span[2] = clock()
                stack.pop()
                span[5] = _count(name, args, None, exc)
                raise
            span[2] = clock()
            stack.pop()
            span[5] = _count(name, args, result, None)
            return result

        traced.__wrapped__ = fn
        return traced

    def _gc_callback(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_collections += 1
            self.gc_pause_s += time.perf_counter() - self._gc_start

    def install(self):
        modules = [m for k, m in sys.modules.items() if k.startswith("braidforge.")]
        for module, func, _ in TRACED:
            owner = sys.modules[f"braidforge.{module}"]
            name = f"{module}.{func}"
            if "." in func:
                cls_name, meth = func.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, orig))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(owner, func)
            wrapper = self._wrap(name, orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, orig))
        gc.callbacks.append(self._gc_callback)

    def uninstall(self):
        gc.callbacks.remove(self._gc_callback)
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def layer_metrics(self, wall_s, untraced_wall_s, jobs):
        """Per-layer metrics; self times plus `trace.unspanned_s` add up to `wall_s`."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        values = {}
        for module, func, counters in TRACED:
            base = f"{module}.{func}"
            values[f"{base}.calls"] = 0
            values[f"{base}.self_s"] = 0.0
            for c in counters:
                values[f"{base}.{c}"] = 0
        total_self = 0.0
        for i, (name, start, end, parent, _, counters) in enumerate(self.spans):
            self_s = end - start - child[i]
            total_self += self_s
            values[f"{name}.calls"] += 1
            values[f"{name}.self_s"] += self_s
            for key, inc in counters.items():
                values[f"{name}.{key}"] += inc
        values["gc.collections"] = self.gc_collections
        values["gc.pause_s"] = self.gc_pause_s
        values["trace.jobs"] = jobs
        values["trace.wall_s"] = wall_s
        values["trace.unspanned_s"] = wall_s - total_self
        values["trace.overhead_ratio"] = wall_s / untraced_wall_s
        return values

    def dump(self, path):
        """Write the spans as JSON lines: job, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job, _ in self.spans:
                fh.write(json.dumps([job, name, start, end, parent]) + "\n")
