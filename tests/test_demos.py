"""Smoke test for demos/: each demo runs in a fresh interpreter against the
source tree, exits 0 and prints something."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FAST = (
    "chromatic_series.py",
    "insertion_bijections.py",
    "moment_graph_classes.py",
    "quotient_bases.py",
    "transition_matrices.py",
)
SLOW = ("poincare_routes.py", "cli_tour.sh")


def run_demo(name):
    cmd = ["sh" if name.endswith(".sh") else sys.executable, str(ROOT / "demos" / name)]
    # cli_tour.sh calls python3, so put this interpreter first on PATH.
    path = os.pathsep.join([str(Path(sys.executable).parent), os.environ.get("PATH", "")])
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PATH": path}
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


@pytest.mark.parametrize("name", FAST)
def test_demo_runs(name):
    run_demo(name)


@pytest.mark.long
@pytest.mark.parametrize("name", SLOW)
def test_slow_demo_runs(name):
    run_demo(name)
