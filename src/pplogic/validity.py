"""Validity decision for probability-logic formulas.

A formula is valid iff the universal closure of ``Q -> psi`` holds over
every real closed ordered field, where psi is the formula's translation
``ppl.translate`` (each probability atom over its formula variable,
``P(T)`` the constant 1) and Q constrains those variables to come from a
common distribution over the formula's atoms.  RR steps are decided the
same way.  An invalid formula comes back with a rational witness
assignment; the induced stochastic valuation is checked to refute the
input and returned with the verdict.
"""

from __future__ import annotations

from fractions import Fraction

from . import ppl, prop, rcof, stochval
from .config import Config

ZERO = Fraction(0)
ONE = Fraction(1)


def probability_formulas(phi: ppl.PplFormula) -> list:
    """The distinct propositional formulas under probability atoms, in
    first-occurrence order, except ``T``, whose probability ``translate``
    reads as the constant 1."""
    seen: dict = {}

    def walk(f):
        if isinstance(f, ppl.PplAtom):
            seen.setdefault(f.alpha, None)
        else:
            walk(f.antecedent)
            walk(f.consequent)

    walk(phi)
    seen.pop(prop.TOP, None)
    return list(seen)


def ppl_scope(phi: ppl.PplFormula) -> prop.Scope:
    """The atoms of the probability formulas; the atoms of ``T`` when ``T``
    is the only one, so that a witness still has a carrier."""
    alphas = probability_formulas(phi) or [prop.TOP]
    return frozenset().union(*(prop.atoms_of(a) for a in alphas))


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


def decide_validity(phi: ppl.PplFormula, config: Config = None) -> rcof.Decision:
    """Decide whether ``phi`` holds under every valuation and assignment.

    A linear translation is decided over the polytope rows of the
    formulas' cells, each formula variable the mass of the cells inside its
    models; a nonlinear one goes to the external-solver route as its
    ``field_sentence``.  An INVALID decision with a witness carries the
    valuation of its cell masses, checked to refute ``phi``.
    """
    config = config or Config()
    alphas = probability_formulas(phi)
    scope = ppl_scope(phi)
    psi = ppl.translate(phi)
    rows, sums, points = ppl.distribution_rows(alphas, scope, cap=config.scope_cap)
    try:
        decision = rcof.decide_universal_linear(
            psi, config.clause_cap, rows, rcof.VarTable(sums, scope, points)
        )
    except rcof.NonlinearTermError:
        decision = rcof.decide(field_sentence(phi, config.scope_cap), config)
    V = decision.valuation
    if V is not None and ppl.ppl_sat(V, decision.witness, phi, config.scope_cap):  # pragma: no cover - self-check
        raise AssertionError("recovered witness does not refute the formula")
    return decision
