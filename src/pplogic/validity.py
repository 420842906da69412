"""Validity decision for probability-logic formulas.

A formula is valid iff the universal closure of ``Q -> psi`` holds over
every real closed ordered field, where psi is the formula's translation
``ppl.translate`` (each probability atom over its formula variable,
``P(T)`` the constant 1) and Q constrains those variables to come from a
common distribution over the formula's atoms.  RR steps are decided the
same way.  An invalid formula comes back with a rational witness
assignment; the induced stochastic valuation is checked to refute the
input and returned with the verdict.

Such a system depends on the probability formulas only through the
signatures of their cells, the bitmask of the formulas whose models
contain each nonempty cell (Georgakopoulos, Kavvadias & Papadimitriou,
1988), and on the rest of the formula only through its shape: the
implications and, for each probability atom, its relation, the index of
its formula in first-occurrence order (``P(T)`` a token of its own) and its
bound.  So ``decide_validity`` asks a bounded memo of 4,096 verdicts keyed
on (shape, number of formulas, sorted signatures, clause cap), after the
scope cap is checked.  VALID and clause-cap UNSUPPORTED answers come from
the memo.  An INVALID answer is decided again on the caller's own
formulas, its cells in lowest-point order, so its witness and valuation
depend on the input alone; the miss that finds a structure INVALID hands
its decision to its caller, so no instance is solved twice, and the memo
keeps no witness.  A nonlinear formula never enters the memo: its answer
comes from the configured solver.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Optional

from . import ppl, prop, rcof, stochval
from .config import Config

ZERO = Fraction(0)
ONE = Fraction(1)

# Distinct cell structures whose verdict the memo keeps.
_VERDICTS = 4096
# The shape's token for the formula of P(T).
_TRUE = "T"


def _walk(phi: ppl.PplFormula) -> tuple:
    """``(probability formulas, shape)`` of ``phi`` in one walk on an
    explicit stack, so the depth of ``phi`` is not limited by the
    interpreter's recursion limit.

    The shape is a flat tuple of tokens in pre-order: the class
    ``PplImplies`` for an implication; for an atom its relation, its
    formula's index in first-occurrence order (``P(T)`` the token ``T``)
    and its bound term, a ``Const`` as its value, any other term node as its
    class followed by its fields.  A formula variable in a bound names a
    probability formula by its index, any other formula by itself.
    """
    index = {prop.TOP: _TRUE}
    shape = []
    named = []  # positions of formulas named by formula variables in bounds
    stack = [phi]
    while stack:
        f = stack.pop()
        if isinstance(f, ppl.PplAtom):
            shape += (f.relation, index.setdefault(f.alpha, len(index) - 1))
            stack.append(f.bound)
        elif isinstance(f, ppl.PplImplies):
            shape.append(ppl.PplImplies)
            stack += (f.consequent, f.antecedent)
        elif isinstance(f, rcof.Const):
            shape.append(f.value)
        elif isinstance(f, rcof.Var):
            shape += (rcof.Var, f.index)
        elif isinstance(f, rcof.FormulaVar):
            named.append(len(shape) + 1)
            shape += (rcof.FormulaVar, f.formula)
        else:  # Neg, Add, Mul
            shape.append(type(f))
            stack += reversed(rcof._children(f))
    for i in named:
        shape[i] = index.get(shape[i], shape[i])
    return list(index)[1:], tuple(shape)


def probability_formulas(phi: ppl.PplFormula) -> list:
    """The distinct propositional formulas under probability atoms, in
    first-occurrence order, except ``T``, whose probability ``translate``
    reads as the constant 1."""
    return _walk(phi)[0]


def _scope(alphas: list) -> prop.Scope:
    return frozenset().union(*(prop.atoms_of(a) for a in alphas or [prop.TOP]))


def ppl_scope(phi: ppl.PplFormula) -> prop.Scope:
    """The atoms of the probability formulas; the atoms of ``T`` when ``T``
    is the only one, so that a witness still has a carrier."""
    return _scope(probability_formulas(phi))


def valuation_from_assignment(rho: rcof.Assignment, scope: prop.Scope) -> stochval.StochasticValuation:
    """Read a joint distribution off the point-formula variables of ``rho``.

    The mass of each subset U of the scope is the value of the variable for
    the conjunction of literals identifying U, ``prop.phi(scope, U)``
    (missing variables count as 0).  Only the keys of ``rho`` are read, so
    the work grows with the witness, not with the 2^n subsets.  The range
    and sum constraints are verified first; violations name the offending
    constraint.
    """
    scope = frozenset(scope)
    if not scope:
        raise prop.ScopeError("empty scope")
    masses = {}
    total = ZERO
    for key, value in rho.probs.items():
        m = prop.point_mask(scope, prop.parse(key))
        if m is None:
            continue
        if not (ZERO <= value <= ONE):
            raise stochval.DistributionError(
                f"range constraint violated: value {value} for `{key}`"
            )
        total += value
        if value != 0:
            masses[m] = value
    if total != ONE:
        raise stochval.DistributionError(
            f"sum constraint violated: point values sum to {total}, not 1"
        )
    return stochval.StochasticValuation(scope, stochval.FinDist.from_masks(scope, masses))


def field_sentence(phi: ppl.PplFormula, cap: int = Config.scope_cap) -> rcof.Formula:
    """The universal sentence ``Q -> translate(phi)``, Q the formulas'
    cells rendered as a field formula (``ppl.build_Q``): what ``emit-smt``
    prints and the external-solver route decides."""
    q = ppl.build_Q(probability_formulas(phi), ppl_scope(phi), cap=cap)
    return rcof.Implies(q, ppl.translate(phi))


class _Posed:
    """The verdict memo's key: hash and equality read only the shape, the
    number of probability formulas, their sorted cell signatures and the
    clause cap.  The poser's formula, probability formulas, scope and cells
    ride along, so a miss decides the poser's own system, and are dropped
    then."""

    __slots__ = ("phi", "alphas", "scope", "cells", "clause_cap", "invalid", "_key", "_hash")

    def __init__(self, phi, alphas: list, scope: prop.Scope, cells: list, shape: tuple, clause_cap: int):
        self.phi, self.alphas, self.scope, self.cells = phi, alphas, scope, cells
        self.clause_cap = clause_cap
        self.invalid = None  # the INVALID decision of a miss, until its caller takes it
        self._key = (shape, len(alphas), tuple(sorted(s for _, s in cells)), clause_cap)
        self._hash = hash(self._key)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return self._key == other._key

    def solve(self) -> rcof.Decision:
        """The decision of the poser's system, over the polytope rows of its
        cells in lowest-point order; raises NonlinearTermError for a
        nonlinear translation."""
        rows, sums, points = ppl.cell_rows(self.cells, len(self.alphas))
        table = rcof.VarTable(dict(zip(self.alphas, sums)), self.scope, points)
        return rcof.decide_universal_linear(ppl.translate(self.phi), self.clause_cap, rows, table)


@lru_cache(maxsize=_VERDICTS)
def _decided(posed: _Posed) -> Optional[rcof.Decision]:
    """The VALID or clause-cap UNSUPPORTED decision of ``posed``'s cell
    structure, or None when it is INVALID; the miss that finds it INVALID
    leaves its decision on ``posed`` for the caller to take."""
    decision = posed.solve()
    posed.phi = posed.alphas = posed.scope = posed.cells = None  # the memo keeps the key alone
    if decision.status == rcof.INVALID:
        posed.invalid = decision
        return None
    return decision


def decide_validity(phi: ppl.PplFormula, config: Config = None) -> rcof.Decision:
    """Decide whether ``phi`` holds under every valuation and assignment.

    A linear translation is decided over the polytope rows of the
    formulas' cells, each formula variable the mass of the cells inside its
    models, once per cell structure while it stays in the memo; a nonlinear
    one goes to the external-solver route as its ``field_sentence``.  An
    INVALID decision is the caller's own: with a witness it carries the
    valuation of its cell masses, checked to refute ``phi``.
    """
    config = config or Config()
    alphas, shape = _walk(phi)
    scope, tables = prop.tables(alphas, config.scope_cap, _scope(alphas))
    posed = _Posed(phi, alphas, scope, ppl.cells(tables, len(scope)), shape, config.clause_cap)
    try:
        decision = _decided(posed)
    except rcof.NonlinearTermError:
        decision = rcof.decide(field_sentence(phi, config.scope_cap), config)
    if decision is None:  # INVALID: the witness is this caller's
        decision = posed.invalid or posed.solve()
        posed.invalid = None
    V = decision.valuation
    if V is not None and ppl.ppl_sat(V, decision.witness, phi, config.scope_cap):  # pragma: no cover - self-check
        raise AssertionError("recovered witness does not refute the formula")
    return decision
