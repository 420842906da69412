#!/usr/bin/env python3
"""Time the fixed scaling families of the deciders, in-process.

Families:

* ``refutation``: ``pplogic --format json valid 'P(B1 & ... & Bn) < 1/2'``
  at n = 8, 10, 12, 14 (invalid, exit 1);
* ``disjunction``: ``pplogic valid 'P(B1) = x1 -> P(B1 | ... | Bn) >= x1'``
  at n = 8, 12, 14 (valid, exit 0);
* ``conjunction``: ``pplogic valid 'P(B1) >= 1/2 & ... & P(Bk) >= 1/2 ->
  P(B1) >= 1/2'`` at k = 4, 6, 8 (valid, exit 0);
* ``hailperin``: ``pqentail.hailperin_entails`` on the chain
  ``B1, B1 -> B2, ..., B(n-1) -> Bn`` at p = 1 - 1/(n + 1), concluding
  ``Bn`` at its tight bound 1 - n(1 - p) (entailed, exit 0) and 1/100 above
  it (refuted, exit 1), at n = 9 and 12 links;
* ``oblivious-transfer``: ``pplogic valid`` on the consistency query of
  ``fixtures/oblivious_transfer.ppl`` (its axioms imply ``P(B1 & !B1) = 1``;
  the theory is consistent, so exit 1 with a model).
* ``collapse``: the sweep of ``scripts/collapse_sweep.py`` at its defaults,
  8,768 conjunctive threshold entailments over the 16 formula classes of 2
  atoms at four threshold pairs, each checked against classical entailment
  (exit 0 when none disagrees, 1 otherwise);
* ``smt-emit`` and ``smt-valid``: ``pplogic emit-smt`` (exit 0) and
  ``pplogic valid`` (exit 3, as no solver is configured) on
  ``P(B1 & ... & Bn) < x1 * x1`` at n = 8, 12, 14;
* ``taut``: ``pplogic check`` on a one-step script
  ``1. P(B1) = 1 & ... & P(Bk) = 1 -> P(B1) = 1 ; TAUT`` at k = 12, 16
  (accepted, exit 0);
* ``wide-lp``: ``pplogic valid 'P(B1) = 1/2 & ... & P(Bk) = 1/2 ->
  P(B1 & ... & Bk) < 1/2^k'`` at k = 6, 8, 10 (invalid, exit 1): one
  simplex call over 2^k cells and k + 2 rows;
* ``disjunctive``: ``pplogic valid '(P(B1) = 1/2 | P(B1) = 1/3) & ... &
  (P(Bk) = 1/2 | P(Bk) = 1/3) -> P(B1) < 1'`` at k = 4, 6, 8 (valid,
  exit 0): 2^k clauses, each its own simplex call over 2^k cells.  At
  k = 8 one run took 9 to 11 s on a 2-core Intel Xeon with Python 3.11.

Each case runs three times with pplogic's memo tables emptied first, and
reports the median wall-clock seconds, the exit code and the bytes
printed.  The pplogic imported is the one under ``src/`` of the checkout
holding this script.  Takes no options; prints one JSON object:

    python3 scripts/scale_families.py > figures.json
"""

import contextlib
import io
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pplogic import cli, config, ppl, pqentail, prop, rcof, stochval, validity  # noqa: E402
import collapse_sweep  # noqa: E402  (beside this script)

REPEATS = 3


def clear_caches() -> None:
    for module in (cli, ppl, pqentail, prop, rcof, stochval, validity):
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, len(out.getvalue().encode())


def run_script(text: str):
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "step.ppl-proof"
        path.write_text(text)
        return run_cli(["check", str(path)])


def run_chain(n: int, above: bool):
    atoms = [prop.Atom(k) for k in range(1, n + 1)]
    hyps = [atoms[0]] + [prop.Implies(a, b) for a, b in zip(atoms, atoms[1:])]
    p = 1 - Fraction(1, n + 1)
    q = 1 - n * (1 - p) + (Fraction(1, 100) if above else 0)
    return (0 if pqentail.hailperin_entails(hyps, atoms[-1], p, q) else 1), 0


def run_collapse():
    pool, hypothesis_sets = collapse_sweep.instances(2)
    pairs = collapse_sweep.threshold_pairs(collapse_sweep.DEFAULT_THRESHOLDS)
    disagreements = sum(collapse_sweep.sweep(pool, hypothesis_sets, t)[2] for t in pairs)
    return (1 if disagreements else 0), 0


def cases():
    for n in (8, 10, 12, 14):
        conj = " & ".join(f"B{k}" for k in range(1, n + 1))
        yield "refutation", n, lambda conj=conj: run_cli(
            ["--format", "json", "valid", f"P({conj}) < 1/2"])
    for n in (8, 12, 14):
        disj = " | ".join(f"B{k}" for k in range(1, n + 1))
        yield "disjunction", n, lambda disj=disj: run_cli(
            ["valid", f"P(B1) = x1 -> P({disj}) >= x1"])
    for k in (4, 6, 8):
        hypotheses = " & ".join(f"P(B{i}) >= 1/2" for i in range(1, k + 1))
        yield "conjunction", k, lambda hypotheses=hypotheses: run_cli(
            ["valid", f"{hypotheses} -> P(B1) >= 1/2"])
    for n in (9, 12):
        yield "hailperin-tight", n, lambda n=n: run_chain(n, above=False)
        yield "hailperin-above", n, lambda n=n: run_chain(n, above=True)
    theory = ROOT / "fixtures" / "oblivious_transfer.ppl"
    axioms = [line.split("#", 1)[0].strip() for line in theory.read_text().splitlines()]
    query = " & ".join(f"({a})" for a in axioms if a) + " -> P(B1 & !B1) = 1"
    yield "oblivious-transfer", 6, lambda: run_cli(["valid", query])
    yield "collapse", 2, run_collapse
    for n in (8, 12, 14):
        formula = f"P({' & '.join(f'B{k}' for k in range(1, n + 1))}) < x1 * x1"
        yield "smt-emit", n, lambda formula=formula: run_cli(["emit-smt", formula])
        yield "smt-valid", n, lambda formula=formula: run_cli(["valid", formula])
    for k in (12, 16):
        hypotheses = " & ".join(f"P(B{i}) = 1" for i in range(1, k + 1))
        yield "taut", k, lambda hypotheses=hypotheses: run_script(
            f"1. {hypotheses} -> P(B1) = 1 ; TAUT\n")
    for k in (6, 8, 10):
        hypotheses = " & ".join(f"P(B{i}) = 1/2" for i in range(1, k + 1))
        conj = " & ".join(f"B{i}" for i in range(1, k + 1))
        formula = f"{hypotheses} -> P({conj}) < 1/{2 ** k}"
        yield "wide-lp", k, lambda formula=formula: run_cli(["valid", formula])
    for k in (4, 6, 8):
        hypotheses = " & ".join(f"(P(B{i}) = 1/2 | P(B{i}) = 1/3)" for i in range(1, k + 1))
        yield "disjunctive", k, lambda hypotheses=hypotheses: run_cli(
            ["valid", f"{hypotheses} -> P(B1) < 1"])


def main() -> int:
    os.environ.pop(config.SOLVER_ENV_VAR, None)  # smt-valid runs without a solver
    rows = []
    for family, n, op in cases():
        seconds = []
        for _ in range(REPEATS):
            clear_caches()
            start = time.perf_counter()
            code, size = op()
            seconds.append(time.perf_counter() - start)
        rows.append({
            "family": family,
            "n": n,
            "exit": code,
            "output_bytes": size,
            "median_s": round(statistics.median(seconds), 4),
            "runs_s": [round(s, 4) for s in seconds],
        })
        print(f"{family} n={n}: exit {code}, {rows[-1]['median_s']} s", file=sys.stderr)
    json.dump({"python": platform.python_version(), "families": rows}, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
