"""README.md names what the code defines: the build constructions and the document kinds."""

import pathlib
import re

import braidforge.cli as cli
import braidforge.serialization as ser

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_readme_lists_every_construction():
    listed = README.split("\nConstructions:", 1)[1].split("Equations:", 1)[0]
    assert re.findall(r"`([a-z0-9-]+)`", listed) == list(cli._CONSTRUCTIONS)


def test_readme_documents_every_kind():
    section = README.split("\n## Document formats\n", 1)[1].split("\n## ", 1)[0]
    assert re.findall(r"^- `(\w+)`:", section, re.MULTILINE) == list(ser.KINDS)
