"""Smoke test: every script under demos/ runs to completion.

Each demo runs in its own process inside a temporary directory, so the
files it writes (demo_out/*.svg) land there, with the package imported
from this checkout's src/.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SLOW = {"02_soliton_benchmark.py", "04_miura_gardner_transport.py"}


@pytest.mark.parametrize("demo", [
    pytest.param(path, id=path.stem,
                 marks=[pytest.mark.slow] if path.name in SLOW else [])
    for path in DEMOS])
def test_demo_runs(demo, tmp_path):
    src = str(ROOT / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
