"""The runtime imports nothing outside the standard library: numpy, scipy
and sympy serve the tests and the benchmark as oracles only."""

import ast
import pathlib
import sys

import braidforge

PACKAGE = pathlib.Path(braidforge.__file__).parent


def _imports(path):
    """(line, top-level module) of every absolute import in a module."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_runtime_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 10
    foreign = [
        f"{path.relative_to(PACKAGE)}:{line} imports {name}"
        for path in modules
        for line, name in _imports(path)
        if name not in sys.stdlib_module_names and name != "braidforge"
    ]
    assert not foreign, foreign
