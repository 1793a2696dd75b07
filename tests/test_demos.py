"""Run the demos end to end: each must exit 0.

The demos drive the public API through data generation, base training,
inversion, an incremental chain and the paired trial protocol, and the shell
walkthrough drives every command-line verb through ``python3 -m anchorinv``.
They run as subprocesses from a scratch directory with ``src`` on
``PYTHONPATH`` and this interpreter first on ``PATH``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0[1-6]_*"))


def test_demo_set():
    assert [d.name[:2] for d in DEMOS] == ["01", "02", "03", "04", "05", "06"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["PATH"] = os.path.dirname(sys.executable) + os.pathsep + env.get("PATH", "")
    cmd = ["sh", str(demo)] if demo.suffix == ".sh" else [sys.executable, str(demo)]
    proc = subprocess.run(cmd, cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
