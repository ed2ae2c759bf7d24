"""Each demo script runs to completion against the package in src/,
under the same -W warning filters as the test run itself: the
interpreter's (python -W error -m pytest) and pytest's (pytest -W error)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script, pytestconfig):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    options = sys.warnoptions + (pytestconfig.getoption("pythonwarnings") or [])
    warnings = [f"-W{option}" for option in options]
    proc = subprocess.run([sys.executable, *warnings, str(script)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
