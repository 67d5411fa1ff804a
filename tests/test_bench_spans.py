"""The benchmark's span list names only what braidforge still defines.

``bench/spans.py`` wraps every (module, name) of its ``TRACED`` list in
place, reading a method from its class's ``__dict__``.  A name deleted
from the package would crash ``bench/run.py --trace 1``; here it fails
the tests instead.
"""

import importlib
import importlib.util
import pathlib
import sys

import braidforge.cli  # noqa: F401  (the tracer looks every module up in sys.modules)
import braidforge.tensor as T

SPANS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_braidforge():
    missing = []
    for module, name, _ in _spans().TRACED:
        owner = importlib.import_module(f"braidforge.{module}")
        if "." in name:
            cls_name, meth = name.split(".")
            ok = meth in vars(getattr(owner, cls_name, object))
        else:
            ok = callable(getattr(owner, name, None))
        if not ok:
            missing.append(f"{module}.{name}")
    assert not missing


def test_the_tracer_installs_and_uninstalls():
    compose, first_difference = T.compose, T.TensorOperator.__dict__["first_difference"]
    tracer = _spans().Tracer()
    tracer.install()
    try:
        assert sys.modules["braidforge.tensor"].compose.__wrapped__ is compose
        assert T.TensorOperator.__dict__["first_difference"].__wrapped__ is first_difference
    finally:
        tracer.uninstall()
    assert T.compose is compose
    assert T.TensorOperator.__dict__["first_difference"] is first_difference
