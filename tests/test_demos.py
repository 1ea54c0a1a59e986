"""Smoke test: the quick demos run to completion against the library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# the longer demos (two_moons_lab, half_labels) take seconds to minutes and are
# left to be run by hand
FAST_DEMOS = ["divergence_zoo.py", "second_order_zoom.py", "span_pointer.py",
              "search_vs_sampling.py", "shortcut_bias.py"]


@pytest.mark.parametrize("demo", FAST_DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
