"""Validity decision for probability-logic formulas.

A formula is valid iff the universal closure of ``Q -> psi`` holds over
every real closed ordered field, where psi replaces each probability atom
by its formula variable and Q constrains those variables to come from a
common distribution over the formula's atoms.  An invalid formula comes
back with a rational witness assignment; the induced stochastic valuation
is checked to refute the input before the verdict is returned.
"""

from __future__ import annotations

from fractions import Fraction

from . import ppl, prop, rcof, stochval
from .config import Config

ZERO = Fraction(0)
ONE = Fraction(1)


def probability_formulas(phi: ppl.PplFormula) -> list:
    """The distinct propositional formulas under probability atoms, in
    first-occurrence order."""
    seen: dict = {}

    def walk(f):
        if isinstance(f, ppl.PplAtom):
            seen.setdefault(f.alpha, None)
        else:
            walk(f.antecedent)
            walk(f.consequent)

    walk(phi)
    return list(seen)


def ppl_scope(phi: ppl.PplFormula) -> prop.Scope:
    scope: prop.Scope = frozenset()
    for alpha in probability_formulas(phi):
        scope = scope | prop.atoms_of(alpha)
    return scope


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


def decide_over_scope(alphas, scope: prop.Scope, psi: rcof.Formula, config: Config) -> rcof.Decision:
    """Decide the universal closure of ``Q -> psi``, Q the distribution
    constraints over ``scope`` on the probability variables of ``alphas``.

    A linear psi is decided over the polytope rows of the formulas' cells,
    each formula variable being the mass of the cells inside its models; a
    nonlinear one goes to the external-solver route with Q rendered as a
    field formula over the point formulas.
    """
    rows, sums, points = ppl.distribution_rows(alphas, scope, cap=config.scope_cap)
    try:
        return rcof.decide_universal_linear(
            psi, config.clause_cap, rows, rcof.VarTable(sums, scope, points)
        )
    except rcof.NonlinearTermError:
        q = ppl.build_Q(alphas, scope, cap=config.scope_cap)
        return rcof.decide(rcof.Implies(q, psi), config)


def decide_validity(phi: ppl.PplFormula, config: Config = None) -> rcof.Decision:
    """Decide whether ``phi`` holds under every valuation and assignment.

    Pipeline: collect the atoms and the formulas under probability atoms,
    translate the formula, and decide it under the distribution
    constraints over the full atom set.
    """
    config = config or Config()
    scope = ppl_scope(phi)
    assert scope, "probability atoms always contribute at least one atom"
    decision = decide_over_scope(probability_formulas(phi), scope, ppl.translate(phi), config)
    if decision.status == rcof.INVALID and decision.witness is not None:
        V = valuation_from_assignment(decision.witness, scope)
        if ppl.ppl_sat(V, decision.witness, phi, config.scope_cap):  # pragma: no cover - self-check
            raise AssertionError("recovered witness does not refute the formula")
    return decision
