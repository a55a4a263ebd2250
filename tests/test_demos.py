"""Every demo script runs to completion against the current package."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "demo",
    [
        "backend_agreement",
        "classical_baselines",
        "lower_bound_checks",
        "query_count_table",
        "twelve_item_walkthrough",
    ],
)
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
