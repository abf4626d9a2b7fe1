"""Every demo script runs to completion.

Each ``demos/0*.py`` runs as its own process, in a fresh working
directory, with ``src`` on the import path.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "demos").glob("0*.py"))


def test_every_demo_is_collected():
    assert len(SCRIPTS) == 5


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_demo_script_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
