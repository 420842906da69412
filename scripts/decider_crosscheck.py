#!/usr/bin/env python3
"""Cross-check the exact linear decider against a dense grid oracle.

Generates random universal sentences with unit-coefficient inequality
atoms and eighth-valued constants, decides each internally, and searches
the 1/8 grid over [-3,3]^n for refuting points.  Witnesses are re-checked
by exact evaluation.  The grid is sound but not complete, so a fault is a
sentence the grid refutes but the decider calls valid, or a witness that
fails exact evaluation; an invalid sentence whose verified witness the grid
misses (it lies outside the box or between grid points) is counted as
refuted off-grid.  Optionally cross-checks against an external SMT solver
command.
"""

import argparse
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))  # the tests package

from pplogic import rcof
from tests.helpers import grid_refuted, random_linear_sentence


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=100)
    parser.add_argument("--max-vars", type=int, default=4)
    parser.add_argument("--seed", type=int, default=109)
    parser.add_argument("--solver", help="external SMT command to cross-check")
    args = parser.parse_args()

    rng = random.Random(args.seed)
    verdicts = {"valid": 0, "invalid": 0}
    off_grid = 0
    for k in range(args.count):
        matrix = random_linear_sentence(rng, rng.randint(1, args.max_vars))
        decision = rcof.decide_universal_linear(matrix)
        verdicts[decision.status] += 1
        if decision.status == rcof.INVALID and rcof.eval_formula(matrix, decision.witness):
            print(f"instance {k}: witness does not refute the sentence")
            print(rcof.emit_smtlib(matrix))
            return 1
        refuted = grid_refuted(matrix)
        if refuted and decision.status == rcof.VALID:
            print(f"instance {k}: DISAGREEMENT, the grid refutes a sentence decided valid")
            print(rcof.emit_smtlib(matrix))
            return 1
        off_grid += not refuted and decision.status == rcof.INVALID
        if args.solver:
            external = rcof.run_external(matrix, args.solver, 30)
            if external.status != rcof.UNSUPPORTED and external.status != decision.status:
                print(f"instance {k}: external solver disagrees")
                return 1
    print(f"{args.count} sentences: {verdicts['valid']} valid, {verdicts['invalid']} invalid")
    print(f"refuted off-grid: {off_grid} invalid sentences whose witness the grid misses")
    print("no valid verdict refuted by the grid; all witnesses verified")
    return 0


if __name__ == "__main__":
    sys.exit(main())
