"""The default transcript of ``scripts/cli_transcript.py`` (every fixture
command in both formats, then 100 seeded command lines per subcommand,
seed 1) pinned by its sha256 digest: a change to how distributions,
witnesses or verdicts are represented must keep these bytes."""

import importlib.util
import sys
from pathlib import Path

from pplogic import config

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "cli_transcript.py"
DIGEST = "74a1fa581a675c79fcfffbf12cfc4ac6783011a812770c970f67486efaef183b"


def test_default_transcript_keeps_its_digest(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends to it
    monkeypatch.setattr(sys, "argv", [str(SCRIPT)])
    monkeypatch.delenv(config.SOLVER_ENV_VAR, raising=False)
    spec = importlib.util.spec_from_file_location("cli_transcript", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main() == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"sha256 {DIGEST}"
