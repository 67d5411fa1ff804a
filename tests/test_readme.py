"""README.md names what the code defines: the build constructions, the
document kinds, and every function, class or field its library tour names."""

import argparse
import importlib
import inspect
import pathlib
import pkgutil
import re

import braidforge
import braidforge.cli as cli
import braidforge.serialization as ser
import library_extras

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_readme_lists_every_construction():
    listed = README.split("\nConstructions:", 1)[1].split("Equations:", 1)[0]
    assert re.findall(r"`([a-z0-9-]+)`", listed) == list(cli._CONSTRUCTIONS)


def test_readme_documents_every_kind():
    section = README.split("\n## Document formats\n", 1)[1].split("\n## ", 1)[0]
    assert re.findall(r"^- `(\w+)`:", section, re.MULTILINE) == list(ser.KINDS)


def _defined_names():
    """Attributes of every braidforge module and of the classes defined
    there, of the test-only library, and the CLI's kinds, subcommands and choices."""
    modules = [importlib.import_module(f"braidforge.{m.name}") for m in pkgutil.iter_modules(braidforge.__path__)]
    names = set(ser.KINDS)
    for module in modules + [library_extras]:
        names |= set(vars(module))
        for cls in vars(module).values():
            if inspect.isclass(cls) and cls.__module__ == module.__name__:
                names |= set(dir(cls)) | set(getattr(cls, "__annotations__", {}))
    for action in cli.build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            names |= set(action.choices)
            for sub in action.choices.values():
                names |= {c for a in sub._actions for c in a.choices or ()}
    return names


def test_library_tour_names_only_what_exists():
    bullets = re.findall(r"^- `braidforge\.\w+` —.*?(?=^- |^$)", README, re.MULTILINE | re.DOTALL)
    assert len(bullets) >= 7
    named = {n for bullet in bullets for n in re.findall(r"`([a-z_][a-z0-9_]*)`", bullet)}
    assert sorted(named - _defined_names()) == []
