#!/usr/bin/env python3
"""Transcript of the command line: every call's exit code and output.

Runs ``pplogic.cli.main`` in-process on every fixture command, in text and
JSON format, and then on K seeded command lines per subcommand, made by
``global_options`` and ``arguments`` of ``tests/test_cli_robustness.py``.
Prints one JSON line per call (argv, exit code, stdout, stderr) with the
checkout and the temporary directory replaced by ``<repo>`` and ``<tmp>``,
then the sha256 digest of those lines.  Two checkouts that print the same
digest for the same seed and case count behave alike on every call.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]  # the tests package and pplogic

from pplogic import cli, config
from tests.test_cli_robustness import FORMULAS, arguments, global_options

FIXTURES = ROOT / "fixtures"
COMMANDS = ["valid", "emit-smt", "check", "pq-entail", "prob", "galois-demo"]


def fixture_commands(tmp: Path) -> list:
    """Every fixture through the subcommand that reads it, in both formats."""
    hypotheses = tmp / "hypotheses"
    hypotheses.write_text("B1\nB1 -> B2  # modus ponens\n")
    argvs = []
    for path in sorted(FIXTURES.glob("*.dist.json")):
        argvs += [["prob", str(path), "B1"], ["prob", str(path), "B1 & !B2"],
                  ["galois-demo", str(path)]]
    argvs += [["check", str(path)] for path in sorted(FIXTURES.glob("*.ppl-proof"))]
    theory = [raw.split("#", 1)[0].strip()
              for raw in (FIXTURES / "oblivious_transfer.ppl").read_text().splitlines()]
    theory = [line for line in theory if line]
    consistency = "(" + ") & (".join(theory) + ") -> P(F) = 1"
    for text in theory + FORMULAS + [consistency]:
        argvs += [["valid", text], ["emit-smt", text]]
    for p, q in [("1", "1"), ("1/2", "1/4"), ("3/4", "1/2"), ("1/2", "1/2")]:
        argv = ["pq-entail", "--p", p, "--q", q, "--hyp", str(hypotheses), "--concl", "B2"]
        argvs += [argv, argv + ["--hailperin"]]
    return [fmt + argv for argv in argvs for fmt in ([], ["--format", "json"])]


def run(argv: list) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exited:
            code = exited.code
        except Exception as e:  # recorded, so that a crash changes the digest
            code = f"uncaught {type(e).__name__}: {e}"
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--cases", type=int, default=100,
                        help="seeded command lines per subcommand")
    args = parser.parse_args()

    os.environ.pop(config.SOLVER_ENV_VAR, None)
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)

        def record(argv):
            line = json.dumps(run(argv), sort_keys=True)
            line = line.replace(tmp, "<tmp>").replace(str(ROOT), "<repo>")
            digest.update(line.encode() + b"\n")
            print(line)

        for argv in fixture_commands(tmp_path):
            record(argv)
        for command in COMMANDS:
            rng = random.Random(f"cli-transcript-{args.seed}-{command}")
            for _ in range(args.cases):
                record(global_options(rng) + arguments(rng, command, tmp_path))
    print(f"sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
