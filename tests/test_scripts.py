"""Smoke tests for the experiment scripts in scripts/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import flowfit

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def run_script(script, *args):
    # the child process imports the same flowfit as this one, installed or not
    src = str(Path(flowfit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(script), *map(str, args)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


@pytest.mark.parametrize("script", SCRIPTS, ids=[s.name for s in SCRIPTS])
def test_script_help_exits_zero(script):
    out = run_script(script, "--help")
    assert out.returncode == 0, out.stderr
    assert "usage:" in out.stdout


def test_toy_instance_regenerates_byte_identical(tmp_path):
    out = run_script(ROOT / "scripts" / "make_toy_instance.py", tmp_path)
    assert out.returncode == 0, out.stderr
    toy = ROOT / "data" / "toy"
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        sorted(p.name for p in toy.iterdir())
    for p in toy.iterdir():
        assert (tmp_path / p.name).read_bytes() == p.read_bytes(), p.name
