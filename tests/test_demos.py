"""Every demo script, and the README's quick start, runs to completion
against the current API."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script):
    result = run([str(script)])
    assert result.returncode == 0, result.stderr


def test_readme_quick_start_runs():
    """The first python block of README.md, the quick start."""
    block = (ROOT / "README.md").read_text().split("```python\n", 1)[1].split("```", 1)[0]
    result = run(["-c", block])
    assert result.returncode == 0, result.stderr
