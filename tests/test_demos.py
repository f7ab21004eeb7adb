"""Every demo script runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import twophoton

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo):
    # the child imports the same package as this process
    package_root = str(Path(twophoton.__file__).resolve().parents[1])
    path = [package_root, *filter(None, [os.environ.get("PYTHONPATH")])]
    # a warning fails the demo as `filterwarnings = error` fails a test
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path), "PYTHONWARNINGS": "error"}
    result = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
