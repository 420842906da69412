"""The scripts under ``scripts/`` run to exit 0 on small inputs, each in a
fresh interpreter that imports pplogic from the checkout's ``src``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [
        ["collapse_sweep.py", "--atoms", "1"],
        ["decider_crosscheck.py", "--count", "10"],
        ["protocol_consistency.py"],
    ],
    ids=lambda argv: argv[0],
)
def test_script_exits_0(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
