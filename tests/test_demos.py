"""Every demo script runs cleanly from a checkout with PYTHONPATH=src."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert {p.name for p in DEMOS} >= {"01_heisenberg_tour.py",
                                       "02_torsion_and_families.py",
                                       "03_coboundary_witness.py"}


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    res = subprocess.run([sys.executable, str(path)], cwd=ROOT, env=env,
                         capture_output=True, text=True)
    assert res.returncode == 0
    assert res.stderr == ""
    lines = res.stdout.splitlines()
    assert lines
    if path.name == "02_torsion_and_families.py":
        # both H^2 routes agree at r = 1, 2, 3 and on 20 random groups
        assert sum(line.endswith("equal: True") for line in lines) == 3
        assert lines[-1].endswith("20/20")
    if path.name == "03_coboundary_witness.py":
        # the closed-form primitive of 2w, checked on 500 fresh pairs
        assert "witness for 2w:  u = -b1" in lines
        assert "delta(u) == 2w on fresh pairs: 500/500" in lines
