"""The cell encoding of the distribution polytope against the point
encoding it replaced (``helpers.distribution_rows_by_points``), over at
most six atoms."""

import random
from fractions import Fraction as F

import pytest

from pplogic import ppl, pqentail, prop, rcof, stochval, validity

from .helpers import (
    decide_validity_by_instance,
    distribution_rows_by_points,
    find_refuting_valuation_by_points,
    random_formula,
    sign_classes,
    valuation_from_assignment_dense,
)

ATOMS = range(1, 7)
_BOUNDS = [F(0), F(1, 4), F(1, 3), F(1, 2), F(3, 4), F(1)]


def _random_alphas(rng, count):
    atoms = rng.sample(ATOMS, rng.randint(1, 6))
    return [random_formula(rng, atoms, rng.randint(0, 3)) for _ in range(count)]


def _scope_of(alphas):
    return frozenset().union(*(prop.atoms_of(a) for a in alphas))


def _random_bound(rng):
    pick = rng.randrange(3)
    if pick == 0:
        return rcof.const(rng.choice(_BOUNDS))
    if pick == 1:
        return rcof.Var(rng.randrange(3))
    return rcof.Add(rcof.Var(rng.randrange(3)), rcof.const(-rng.choice(_BOUNDS)))


def _random_ppl(rng, alphas, depth):
    if depth == 0 or rng.random() < 0.4:
        alpha, bound = rng.choice(alphas), _random_bound(rng)
        rel = rng.choice(["=", "<", "<=", ">="])
        if rel in ("=", "<"):
            return ppl.PplAtom(alpha, rel, bound)
        return ppl.ple(alpha, bound) if rel == "<=" else ppl.pge(alpha, bound)
    pick = rng.randrange(3)
    left = _random_ppl(rng, alphas, depth - 1)
    if pick == 0:
        return ppl.pnot(left)
    right = _random_ppl(rng, alphas, depth - 1)
    return ppl.pand(left, right) if pick == 1 else ppl.PplImplies(left, right)


def test_cells_are_the_sign_classes_of_the_points():
    rng = random.Random(71)
    alphas_lists = [_random_alphas(rng, rng.randint(1, 5)) for _ in range(150)]
    alphas_lists.append([prop.BOTTOM, prop.TOP, prop.Atom(1)])
    alphas_lists.append([prop.Atom(2), prop.Atom(2), prop.Not(prop.Atom(2))])
    for alphas in alphas_lists:
        scope = _scope_of(alphas)
        rows, sums, points = ppl.distribution_rows(alphas, scope)
        classes = sign_classes(alphas, scope)
        assert points == [cls[0] for cls in classes]
        assert len(rows) == len(points) + 1
        for a in alphas:
            models = prop._models_mask(a, scope)
            inside = {c for c, cls in enumerate(classes) if all(models >> m & 1 for m in cls)}
            assert set(sums[a]) == inside
            assert all(models >> m & 1 == 0 for c, cls in enumerate(classes) if c not in inside for m in cls)


def test_distribution_rows_are_a_fresh_list():
    alphas, scope = [prop.Atom(1), prop.Atom(2)], frozenset({1, 2})
    rows, _, points = ppl.distribution_rows(alphas, scope)
    rows.append(rcof.LinearAtom.make({0: 1}, F(-1, 2), rcof.REL_LE))
    again, _, _ = ppl.distribution_rows(alphas, scope)
    assert len(again) == len(points) + 1 and again == rows[:-1]


def test_seven_link_chain_has_fewer_cells_than_points():
    chain = [prop.Atom(1)] + [prop.Implies(prop.Atom(k), prop.Atom(k + 1)) for k in range(1, 7)]
    scope = frozenset(range(1, 8))
    _, _, points = ppl.distribution_rows(chain + [prop.Atom(7)], scope)
    assert len(points) == 54
    assert len(points) == len(sign_classes(chain + [prop.Atom(7)], scope))


def _assert_refutes(decision, phi, scope):
    # the decider's cell masses and the witness's point keys name one valuation
    V = validity.valuation_from_assignment(decision.witness, scope)
    assert decision.valuation == V
    assert V == valuation_from_assignment_dense(decision.witness, scope)
    assert not ppl.ppl_sat(V, decision.witness, phi), ppl.to_text(phi)


def test_decide_validity_matches_point_encoding(monkeypatch):
    rng = random.Random(73)
    cases = []
    for _ in range(80):
        alphas = _random_alphas(rng, rng.randint(1, 4))
        phi = _random_ppl(rng, alphas, 2)
        cases.append((phi, validity.ppl_scope(phi)))
    decisions = [validity.decide_validity(phi) for phi, _ in cases]
    # the per-instance decider builds every system over distribution_rows
    monkeypatch.setattr(ppl, "distribution_rows", distribution_rows_by_points)
    statuses = set()
    for (phi, scope), decision in zip(cases, decisions):
        reference = decide_validity_by_instance(phi)
        assert decision.status == reference.status, ppl.to_text(phi)
        if decision.status == rcof.INVALID:
            _assert_refutes(decision, phi, scope)
            _assert_refutes(reference, phi, scope)
        statuses.add(decision.status)
    assert statuses == {rcof.VALID, rcof.INVALID}


def test_find_refuting_valuation_matches_point_encoding():
    rng = random.Random(79)
    cases = []
    for _ in range(120):
        formulas = _random_alphas(rng, rng.randint(1, 4))
        q = rng.choice(_BOUNDS[1:])
        p = rng.choice([b for b in _BOUNDS if b >= q])
        cases.append((formulas[:-1], formulas[-1], p, q))
    # each pass starts from empty memos, so neither reads the other's answers
    rcof._simplex.cache_clear()
    found = [pqentail.find_refuting_valuation(*case) for case in cases]
    rcof._simplex.cache_clear()
    verdicts = set()
    for (deltas, alpha, p, q), V in zip(cases, found):
        reference = find_refuting_valuation_by_points(deltas, alpha, p, q)
        assert (V is None) == (reference is None)
        if V is not None:
            assert all(stochval.prob(V, d) >= p for d in deltas)
            assert stochval.prob(V, alpha) < q
        verdicts.add(V is None)
    assert verdicts == {True, False}


def test_sparse_reader_matches_dense_reference_off_point_keys():
    scope = frozenset({1, 2, 3})
    rho = rcof.Assignment()
    rho = rho.with_prob(prop.phi(scope, frozenset({1, 3})), F(1, 3))
    rho = rho.with_prob(prop.phi(scope, frozenset()), F(2, 3))
    rho = rho.with_prob(prop.parse("B3 & B1 & !B2"), F(1, 2))  # not a point formula
    rho = rho.with_prob(prop.phi(frozenset({1, 2}), frozenset({1})), F(1, 2))  # another scope's
    assert validity.valuation_from_assignment(rho, scope) == valuation_from_assignment_dense(rho, scope)


@pytest.mark.parametrize("size", [1, 2, 5])
def test_point_mask_inverts_phi(size):
    scope = frozenset(range(2, 2 + size))
    for m, U in enumerate(prop.subsets_ascending(scope)):
        assert prop.point_mask(scope, prop.phi(scope, U)) == m
    assert prop.point_mask(scope, prop.TOP) is None
    assert prop.point_mask(scope | {9}, prop.phi(scope, frozenset())) is None
    assert prop.point_mask(frozenset(), prop.Atom(1)) is None
