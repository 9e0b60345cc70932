"""The fast demos run to completion as scripts (the slow ones stay manual)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FAST_DEMOS = ("03_fixed_point_and_luts.py", "04_cycle_accurate_simulation.py",
              "05_memory_and_mac_estimates.py",
              "07_semg_style_envelope_pipeline.py")


@pytest.mark.parametrize("script", FAST_DEMOS)
def test_demo_exits_zero(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
