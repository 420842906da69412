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
reads the k-th smallest atom of A from bit k of m.  It depends on the
tables in turn only through which of their cells are nonempty, the
reduction of probabilistic satisfiability to the sign classes of the
formulas (Georgakopoulos, Kavvadias & Papadimitriou, 1988): a cell's
signature is the bitmask of the tables that contain it, and two lists of
as many tables with one signature set pose one linear program up to the
order of its variables.

So the yes/no deciders ``pq_entails`` and ``hailperin_entails`` ask a
bounded memo of 4,096 verdicts keyed on (|A|, the hypotheses' tables, the
conclusion's table, p, q).  Only a miss there reads the signatures, from
the cells ``ppl.cells`` refines for ``ppl.cell_rows``, and asks the one
cell-structure memo, ``validity``'s, under a shape of its own that carries
p and q.  Only a miss there builds a linear program: that of the caller
that posed it, in ``cell_rows``' order, the system ``validity`` poses for
the same formulas, so the two share the simplex memo of ``rcof``; it is
handed to ``rcof.fm_feasible`` alone, with no formula and no witness built.
``find_refuting_valuation`` builds its own formulas' system and asks only
that simplex memo, which is keyed on the system itself, so each witness
depends on its input alone; it turns the feasible point's cell masses into
a valuation over A.  ``pq_entails`` ANDs the hypotheses' tables, so it
builds no conjunction and the empty hypothesis set adds no atom to A, and
it keys on its ``ThresholdPair``, whose hash is computed once.
``collapse_check`` reads that conjunction table and the conclusion's from
one ``prop.tables`` call for both of its halves.  Thresholds and the scope
cap are checked on every call, before any memo is asked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Tuple

from . import ppl, prop, rcof, stochval, validity

ZERO = Fraction(0)
ONE = Fraction(1)

# Distinct table-level verdicts the memo keeps.
_SYSTEMS = 4096


class InvalidThresholds(ValueError):
    """Threshold pair outside 0 < q <= p <= 1."""


@dataclass(frozen=True, eq=False)
class _Thresholds:
    """p and q as a memo key, hashed once, equal to any key of equal p and
    q whatever its class; the range is the caller's to check."""

    p: Fraction
    q: Fraction

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.p, self.q)))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return isinstance(other, _Thresholds) and self.p == other.p and self.q == other.q


class ThresholdPair(_Thresholds):
    """A valid threshold pair, 0 < q <= p <= 1."""

    def __post_init__(self):
        object.__setattr__(self, "p", Fraction(self.p))
        object.__setattr__(self, "q", Fraction(self.q))
        if not (ZERO < self.q <= self.p <= ONE):
            raise InvalidThresholds(f"need 0 < q <= p <= 1, got p={self.p}, q={self.q}")
        super().__post_init__()


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
    a carrier-A valuation with each cell's mass on its lowest subset.
    """
    A, hypotheses, conclusion, p, q = _tabled(deltas, alpha, p, q, cap)
    tables = (*hypotheses, conclusion)
    atoms, points = _system(ppl.cells(tables, len(A)), len(tables), p, q)
    values = rcof.fm_feasible(atoms)
    return None if values is None else stochval.from_cells(A, points, values)


def _tabled(deltas, alpha, p, q, cap: int) -> tuple:
    """``(A, hypotheses' tables, conclusion's table, p, q)`` for
    ``find_refuting_valuation`` and ``hailperin_entails``, after the range
    check of p and q."""
    p, q = Fraction(p), Fraction(q)
    for value, name in ((p, "p"), (q, "q")):
        if not (ZERO <= value <= ONE):
            raise ValueError(f"threshold {name}={value} outside [0,1]")
    A, (conclusion, *hypotheses) = prop.tables([alpha, *deltas], cap)
    return A, tuple(hypotheses), conclusion, p, q


def _system(cells: list, k: int, p: Fraction, q: Fraction) -> tuple:
    """The linear atoms of the threshold system on the ``ppl.cells`` of k
    truth tables, the last of them the conclusion's, and the cells' points."""
    atoms, sums, points = ppl.cell_rows(cells, k)
    for coeffs in sums[:-1]:  # p - sum <= 0
        atoms.append(rcof.LinearAtom.make({c: -v for c, v in coeffs.items()}, p, rcof.REL_LE))
    atoms.append(rcof.LinearAtom.make(sums[-1], -q, rcof.REL_LT))  # sum - q < 0
    return atoms, points


@lru_cache(maxsize=_SYSTEMS)
def _entailed(n: int, hypotheses: tuple, conclusion: int, thresholds: _Thresholds) -> bool:
    """The yes/no verdict of ``hailperin_entails`` for truth tables over any
    scope of n atoms; a miss asks ``validity``'s cell-structure memo under
    the shape ``(_Thresholds, thresholds)``, whose miss solves this system."""
    tables = (*hypotheses, conclusion)
    cells = ppl.cells(tables, n)
    return validity._decided(validity._Posed(
        lambda: rcof.fm_feasible(_system(cells, len(tables), thresholds.p, thresholds.q)[0]) is None,
        (_Thresholds, thresholds), len(tables), cells, None,
    ))


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
    A, hypotheses, conclusion, p, q = _tabled(deltas, alpha, p, q, cap)
    return _entailed(len(A), hypotheses, conclusion, _Thresholds(p, q))


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
    A, conjunction, conclusion = prop._conjoined(deltas, alpha, cap)
    return _entailed(len(A), (conjunction,), conclusion, thresholds)


def collapse_check(
    deltas: Iterable[prop.PropFormula],
    alpha: prop.PropFormula,
    thresholds: ThresholdPair,
    cap: int = prop.DEFAULT_SCOPE_CAP,
) -> Tuple[bool, bool]:
    """Classical entailment next to threshold entailment; the two must
    agree.  Both read one conjunction table and conclusion table."""
    A, conjunction, conclusion = prop._conjoined(deltas, alpha, cap)
    return (
        conjunction & ~conclusion == 0,
        _entailed(len(A), (conjunction,), conclusion, thresholds),
    )
