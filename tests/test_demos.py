"""Smoke test: every narrative script under demos/ runs to completion."""

import os
import pathlib
import subprocess
import sys

import pytest

import braidforge

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
SRC = os.path.dirname(os.path.dirname(braidforge.__file__))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_script_runs(script):
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
