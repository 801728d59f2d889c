"""Smoke test: every demo runs to completion against the current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# roof_vs_bound.py is the slowest: its convex-roof searches take about 3 s on
# a 2-vCPU x86-64 machine.
DEMOS = [
    "cavity_collapse_revival.py",
    "isotropic_sweep.py",
    "majorization_tour.py",
    "monotone_family.py",
    "roof_vs_bound.py",
]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    # cwd is tmp_path because isotropic_sweep writes its CSV (and any PNG)
    # into the working directory.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), MPLBACKEND="Agg")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
