"""Smoke runs of the experiment scripts at tiny sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args, header", [
    ("synthetic_experiment.py", ["--nodes", "5000", "--damping", "0.85"],
     f"{'c':>6} {'observed':>10} {'predicted':>10} {'residual':>9}"),
    ("tail_law_sweep.py", ["--pool-size", "10000", "--ks", "1", "converged"],
     f"{'x':>12} {'empirical':>11} {'predicted':>11} {'ratio':>7}"),
])
def test_script_prints_table(script, args, header):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert header in proc.stdout.splitlines()
