"""Threshold entailment between classical formulas under stochastic
valuations, decided by exact linear feasibility over the joint-distribution
polytope.

Two notions are implemented.  The hypothesis-wise form requires every
hypothesis separately to reach probability p; the conjunctive form
requires the single conjunction of the hypotheses to reach p.  Only the
conjunctive form behaves like a consequence relation, and for valid
threshold pairs (0 < q <= p <= 1) it coincides with classical entailment.

Quantification over all stochastic valuations reduces to joints over the
union scope A of the formulas involved: each formula's probability depends
only on the marginal over A, and every distribution on A is the marginal
of some carrier-A valuation.  For a finite hypothesis set the conjunctive
form may take the whole set as its finite witness subset: the conjunction
of more hypotheses entails the conjunction of fewer, so probability
monotonicity shrinks the constraint region as the subset grows, and any
witnessing subset implies the full set witnesses too.

A threshold system depends on the formulas only through their truth tables
over A, and those tables depend on A only through its size: table bit m
reads the k-th smallest atom of A from bit k of m.  So the refutation is
memoized on (|A|, the hypotheses' tables, the conclusion's table, p, q) in
one bounded memo of 4,096 systems, and each distinct system is encoded and
decided once while it stays there; formulas over {B2, B3} and {B5, B9}
with equal tables pose one system.  The memo keeps the feasible point's
cell masses, and only ``find_refuting_valuation`` turns them into a
valuation over A; the yes/no deciders build none.  ``pq_entails`` ANDs the
hypotheses' tables, so it builds no conjunction and the empty hypothesis
set adds no atom to A.  Thresholds and the scope cap are checked on every
call, before the memo is asked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Tuple

from . import ppl, prop, rcof, stochval

ZERO = Fraction(0)
ONE = Fraction(1)

# Distinct threshold systems whose refutations are kept.
_SYSTEMS = 4096


class InvalidThresholds(ValueError):
    """Threshold pair outside 0 < q <= p <= 1."""


@dataclass(frozen=True)
class ThresholdPair:
    p: Fraction
    q: Fraction

    def __post_init__(self):
        object.__setattr__(self, "p", Fraction(self.p))
        object.__setattr__(self, "q", Fraction(self.q))
        if not (ZERO < self.q <= self.p <= ONE):
            raise InvalidThresholds(f"need 0 < q <= p <= 1, got p={self.p}, q={self.q}")


def p_satisfies(
    V: stochval.StochasticValuation,
    alpha: prop.PropFormula,
    p,
    cap: int = prop.DEFAULT_SCOPE_CAP,
) -> bool:
    """Whether ``alpha`` reaches probability at least ``p`` under V, for a
    formula of at most ``cap`` atoms."""
    p = Fraction(p)
    if not (ZERO <= p <= ONE):
        raise ValueError(f"threshold {p} outside [0,1]")
    return stochval.prob(V, alpha, cap) >= p


def find_refuting_valuation(
    deltas: Iterable[prop.PropFormula],
    alpha: prop.PropFormula,
    p,
    q,
    cap: int = prop.DEFAULT_SCOPE_CAP,
) -> Optional[stochval.StochasticValuation]:
    """A valuation giving every hypothesis probability >= p and the
    conclusion probability < q, or None when no such valuation exists.

    Feasibility of {simplex constraints, sum of hypothesis-model masses
    >= p per hypothesis, sum of conclusion-model masses < q} is decided
    exactly over the cells of the formulas; a feasible point is returned as
    a carrier-A valuation with each cell's mass on its lowest subset.  Each
    distinct system is decided once while it stays in a bounded memo.
    """
    A, masses = _refutation(deltas, alpha, p, q, cap)
    return None if masses is None else stochval.from_cells(A, *masses)


def _refutation(deltas, alpha, p, q, cap: int) -> tuple:
    """``(A, the memo's refutation)`` for ``find_refuting_valuation`` and
    ``hailperin_entails``, after the range check of p and q."""
    p, q = Fraction(p), Fraction(q)
    for value, name in ((p, "p"), (q, "q")):
        if not (ZERO <= value <= ONE):
            raise ValueError(f"threshold {name}={value} outside [0,1]")
    A, (conclusion, *hypotheses) = prop.tables([alpha, *deltas], cap)
    return A, _refuting_masses(len(A), tuple(hypotheses), conclusion, p, q)


@lru_cache(maxsize=_SYSTEMS)
def _refuting_masses(
    n: int, hypotheses: tuple, conclusion: int, p: Fraction, q: Fraction
) -> Optional[tuple]:
    """The refutation of ``find_refuting_valuation`` for truth tables over
    any scope of n atoms: ``(points, values)``, cell c's mass ``values[c]``
    (0 when absent) on the subset whose bitmask is ``points[c]``, or None.
    Callers share the result and must not mutate it."""
    atoms, sums, points = ppl.cell_rows([*hypotheses, conclusion], n)
    for coeffs in sums[:-1]:  # p - sum <= 0
        atoms.append(rcof.LinearAtom.make({c: -v for c, v in coeffs.items()}, p, rcof.REL_LE))
    atoms.append(rcof.LinearAtom.make(sums[-1], -q, rcof.REL_LT))  # sum - q < 0
    values = rcof.fm_feasible(atoms)
    return None if values is None else (tuple(points), values)


def hailperin_entails(
    deltas: Iterable[prop.PropFormula],
    alpha: prop.PropFormula,
    p,
    q,
    cap: int = prop.DEFAULT_SCOPE_CAP,
) -> bool:
    """Hypothesis-wise threshold entailment: every valuation giving each
    hypothesis probability >= p gives the conclusion probability >= q.

    Any p, q in [0,1] are accepted.
    """
    return _refutation(deltas, alpha, p, q, cap)[1] is None


def pq_entails(
    deltas: Iterable[prop.PropFormula],
    alpha: prop.PropFormula,
    thresholds: ThresholdPair,
    cap: int = prop.DEFAULT_SCOPE_CAP,
) -> bool:
    """Conjunctive threshold entailment at a valid threshold pair.

    The hypotheses are conjoined (empty set: true on every row) and the
    single conjunction must reach p for the conclusion to owe q; the
    conjunction is the AND of the hypotheses' truth tables.
    """
    A, (conclusion, *hypotheses) = prop.tables([alpha, *deltas], cap)
    conjunction = (1 << (1 << len(A))) - 1
    for table in hypotheses:
        conjunction &= table
    return _refuting_masses(len(A), (conjunction,), conclusion, thresholds.p, thresholds.q) is None


def collapse_check(
    deltas: Iterable[prop.PropFormula],
    alpha: prop.PropFormula,
    thresholds: ThresholdPair,
    cap: int = prop.DEFAULT_SCOPE_CAP,
) -> Tuple[bool, bool]:
    """Classical entailment next to threshold entailment; the two must agree."""
    deltas = list(deltas)
    return (
        prop.entails_c(deltas, alpha, cap),
        pq_entails(deltas, alpha, thresholds, cap),
    )
