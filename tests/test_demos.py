"""Each walkthrough in demos/ runs to completion against this source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, str(path)], capture_output=True, env=env, timeout=120
    )


def test_all_four_demos_found():
    assert [p.name for p in DEMOS] == [
        "classification.py",
        "fiber_solving.py",
        "restriction_and_rank.py",
        "roots_and_groups.py",
    ]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_0(path):
    proc = run_demo(path)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout


def test_fiber_demo_output_is_reproducible():
    first = run_demo(ROOT / "demos" / "fiber_solving.py")
    second = run_demo(ROOT / "demos" / "fiber_solving.py")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
