#!/usr/bin/env python3
"""Sweep threshold entailment against classical entailment.

Enumerates one representative per semantic class of formulas over a small
atom set, forms every hypothesis set of size <= 2, and compares the
conjunctive threshold entailment with classical entailment at several
threshold pairs.  The two relations are expected to coincide everywhere.
Next to each pair's time it prints the work done: the misses of the memo
on truth tables, of the one memo on cell structures (``validity``'s, which
threshold, validity and RR verdicts share) and of the simplex memo.
"""

import argparse
import itertools
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))  # the tests package

from pplogic import pqentail, rcof, validity
from tests.helpers import semantic_class_pool

DEFAULT_THRESHOLDS = "1/1:1/1,3/4:1/2,1/2:1/2,1/10:1/10"


def threshold_pairs(text: str) -> list:
    """The pairs of a comma-separated list of p:q."""
    return [
        pqentail.ThresholdPair(Fraction(p), Fraction(q))
        for p, q in (part.split(":") for part in text.split(","))
    ]


def instances(atoms: int) -> tuple:
    """The class pool over B1..B<atoms> and every hypothesis set of at most
    two of its formulas."""
    pool = semantic_class_pool(range(1, atoms + 1))
    hypothesis_sets = (
        [()] + [(a,) for a in pool] + [tuple(c) for c in itertools.combinations(pool, 2)]
    )
    return pool, hypothesis_sets


def sweep(pool, hypothesis_sets, t) -> tuple:
    """(instances, classical entailments, disagreements) at one threshold pair."""
    total = entailments = disagreements = 0
    for deltas in hypothesis_sets:
        for alpha in pool:
            classical, threshold = pqentail.collapse_check(list(deltas), alpha, t)
            total += 1
            entailments += classical
            disagreements += classical != threshold
    return total, entailments, disagreements


MEMOS = {
    "table-level": pqentail._entailed,
    "cell-structure": validity._decided,
    "simplex": rcof._simplex,
}


def misses() -> dict:
    """Each memo's misses so far."""
    return {name: memo.cache_info().misses for name, memo in MEMOS.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--atoms", type=int, default=2, help="number of atoms (default 2)")
    parser.add_argument(
        "--thresholds",
        default=DEFAULT_THRESHOLDS,
        help="comma-separated p:q pairs",
    )
    args = parser.parse_args()

    pool, hypothesis_sets = instances(args.atoms)
    pairs = threshold_pairs(args.thresholds)
    print(f"{len(pool)} formula classes, {len(hypothesis_sets)} hypothesis sets")
    grand_total = grand_disagree = 0
    for t in pairs:
        before = misses()
        start = time.perf_counter()
        total, entailments, disagreements = sweep(pool, hypothesis_sets, t)
        elapsed = time.perf_counter() - start
        work = ", ".join(f"{n - before[name]} {name}" for name, n in misses().items())
        print(
            f"p={t.p} q={t.q}: {total} instances, {entailments} entail, "
            f"{disagreements} disagreements ({elapsed:.3f}s; misses: {work})"
        )
        grand_total += total
        grand_disagree += disagreements
    print(f"total: {grand_total} instances, {grand_disagree} disagreements")
    return 1 if grand_disagree else 0


if __name__ == "__main__":
    raise SystemExit(main())
