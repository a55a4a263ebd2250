"""Every demo script, and README's quick start and command lines, run against the current package."""
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from partialsearch.cli import main

ROOT = Path(__file__).resolve().parents[1]
README_COMMANDS = re.search(
    r"## Command line\n\n```bash\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), re.S
).group(1)


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


def test_readme_quick_start_output():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    snippet = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    queries, success, block = snippet.strip().splitlines()[-1].removeprefix("# ").split()
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, "-c", snippet], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    got_queries, got_success, got_block = result.stdout.split()
    assert (got_queries, got_block) == (queries, block)
    assert float(got_success) == pytest.approx(float(success), abs=1e-12)


@pytest.mark.parametrize("line", README_COMMANDS.splitlines())
def test_readme_command_line_runs(capsys, line):
    prog, *argv = shlex.split(line)
    assert prog == "partial-search"
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip()
