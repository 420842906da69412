import itertools
import random
import sys
from fractions import Fraction as F

import pytest

from pplogic import calculus, config, ppl, prop, rcof, stochval, validity
from pplogic.config import Config

from .helpers import (
    build_Q_by_points,
    corpus_ppl_formula,
    decide_by_field_formula,
    decide_validity_by_instance,
    random_formula,
    random_valuation,
    semantic_class_pool,
)

B1, B2 = prop.Atom(1), prop.Atom(2)


class TestProbabilityFormulas:
    def test_collection_in_first_occurrence_order(self):
        phi = ppl.parse("P(B2) = 1 -> P(B1) < 1")
        assert validity.probability_formulas(phi) == [B2, B1]

    def test_desugaring_contributions_included(self):
        # the negation target P(T) < 1 reads T as the constant 1
        phi = ppl.parse("!P(B1) = 1")
        assert validity.probability_formulas(phi) == [B1]
        assert validity.ppl_scope(ppl.parse("P(B5) >= 1/2")) == {5}

    def test_truth_alone_keeps_its_atoms_as_scope(self):
        phi = ppl.parse("P(T) < 1")
        assert validity.probability_formulas(phi) == []
        assert validity.ppl_scope(phi) == {1}

    def test_scope_union(self):
        phi = ppl.parse("P(B2) = 1 -> P(B7) < 1")
        assert validity.ppl_scope(phi) == {2, 7}


class TestValuationFromAssignment:
    def test_uniform_point_values_give_uniform_joint(self):
        scope = frozenset({1, 2})
        rho = rcof.Assignment()
        for U in prop.subsets_ascending(scope):
            rho = rho.with_prob(prop.phi(scope, U), F(1, 4))
        V = validity.valuation_from_assignment(rho, scope)
        assert V.joint == stochval.FinDist.uniform(scope)

    def test_formula_values_recovered_when_constraints_hold(self):
        rng = random.Random(43)
        scope = frozenset({1, 2})
        for _ in range(20):
            W = random_valuation(rng, scope)
            rho = rcof.Assignment()
            for U in prop.subsets_ascending(scope):
                rho = rho.with_prob(prop.phi(scope, U), W.joint.mass_of(U))
            alpha = random_formula(rng, scope, 2)
            rho = rho.with_prob(alpha, stochval.prob(W, alpha))
            V = validity.valuation_from_assignment(rho, scope)
            assert stochval.prob(V, alpha) == rho.probs[prop.to_text(alpha)]

    def test_bad_sum_names_the_constraint(self):
        scope = frozenset({1})
        rho = rcof.Assignment().with_prob(prop.phi(scope, frozenset()), F(1, 2))
        with pytest.raises(stochval.DistributionError, match="sum constraint"):
            validity.valuation_from_assignment(rho, scope)

    def test_bad_range_names_the_constraint(self):
        scope = frozenset({1})
        rho = (
            rcof.Assignment()
            .with_prob(prop.phi(scope, frozenset()), F(3, 2))
            .with_prob(prop.phi(scope, frozenset({1})), F(-1, 2))
        )
        with pytest.raises(stochval.DistributionError, match="range constraint"):
            validity.valuation_from_assignment(rho, scope)


class TestDecideValidity:
    def test_probability_at_most_one(self):
        d = validity.decide_validity(ppl.parse("P(B1) <= 1"))
        assert d.status == rcof.VALID and d.valuation is None

    def test_unsupported_and_solver_refutations_carry_no_valuation(self, tmp_path, monkeypatch):
        # an external solver's INVALID has no witness to read a valuation off
        monkeypatch.delenv(config.SOLVER_ENV_VAR, raising=False)
        phi = ppl.parse("P(B1) < x1 * x1")
        d = validity.decide_validity(phi)
        assert d.status == rcof.UNSUPPORTED and d.valuation is None
        stub = tmp_path / "solver.py"
        stub.write_text("import sys\nopen(sys.argv[1]).read()\nprint('sat')\n")
        d = validity.decide_validity(phi, Config(solver=f"{sys.executable} {stub}"))
        assert d.status == rcof.INVALID and d.witness is None and d.valuation is None

    def test_nonlinear_route_decides_the_field_sentence(self, monkeypatch):
        seen = []
        unsupported = rcof.Decision(rcof.UNSUPPORTED)
        monkeypatch.setattr(rcof, "decide", lambda matrix, config: seen.append(matrix) or unsupported)
        phi = ppl.parse("P(B1 & B2) = x1 -> P(B1) >= x1 * x1")
        validity.decide_validity(phi, Config(scope_cap=4))
        assert seen == [validity.field_sentence(phi, 4)]

    def test_marginal_sum_implication(self):
        phi = ppl.parse("P(B1 & !B2) = x1 & P(B1 & B2) = x2 -> P(B1) = x1 + x2")
        assert validity.decide_validity(phi).status == rcof.VALID

    def test_additivity_implication(self):
        phi = ppl.parse(
            "P(B1) = x1 & P(B2) = x2 & P(B1 & B2) = x3 -> P(B1 | B2) = x1 + x2 - x3"
        )
        assert validity.decide_validity(phi).status == rcof.VALID

    def test_strict_half_bound_refuted_with_verified_witness(self):
        phi = ppl.parse("P(B1) < 1/2")
        d = validity.decide_validity(phi)
        assert d.status == rcof.INVALID
        V = validity.valuation_from_assignment(d.witness, validity.ppl_scope(phi))
        assert d.valuation == V
        assert stochval.prob(V, B1) >= F(1, 2)
        assert not ppl.ppl_sat(V, d.witness, phi)

    def test_entailment_reduction_detects_failure(self):
        impl = ppl.ppl_entails_reduction(
            [ppl.parse("P(B1) < 1/2")], ppl.parse("P(B1) < 1/4")
        )
        d = validity.decide_validity(impl)
        assert d.status == rcof.INVALID
        V = validity.valuation_from_assignment(d.witness, frozenset({1}))
        assert d.valuation == V
        assert stochval.prob(V, B1) < F(1, 2)
        assert stochval.prob(V, B1) >= F(1, 4)

    def test_entailment_reduction_accepts_modus_ponens(self):
        impl = ppl.ppl_entails_reduction(
            [ppl.parse("P(B1) = 1"), ppl.parse("P(B1 -> B2) = 1")],
            ppl.parse("P(B2) = 1"),
        )
        assert validity.decide_validity(impl).status == rcof.VALID

    def test_scope_cap_enforced(self):
        phi = ppl.PplAtom(
            prop.conj_all([prop.Atom(i) for i in range(1, 20)]), "<", rcof.ONE
        )
        with pytest.raises(prop.ScopeCapError):
            validity.decide_validity(phi, Config(scope_cap=16))

    def test_random_upper_bounds_are_valid(self):
        rng = random.Random(47)
        for _ in range(10):
            alpha = random_formula(rng, {1, 2, 3}, 3)
            assert validity.decide_validity(ppl.ple(alpha, rcof.ONE)).status == rcof.VALID

    def test_weakening_preserves_validity(self):
        rng = random.Random(53)
        base = ppl.parse("P(B1) <= 1")
        assert validity.decide_validity(base).status == rcof.VALID
        for _ in range(5):
            noise = ppl.PplAtom(random_formula(rng, {1, 2}, 2), "<", rcof.Var(0))
            weakened = ppl.PplImplies(noise, base)
            assert validity.decide_validity(weakened).status == rcof.VALID


# -- the point-mass polytope against the field-formula Q it replaces ------------

_BOUNDS = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]


def _random_bound(rng):
    pick = rng.randrange(3)
    if pick == 0:
        return rcof.const(rng.choice(_BOUNDS))
    if pick == 1:
        return rcof.Var(rng.randrange(3))
    return rcof.Add(rcof.Var(rng.randrange(3)), rcof.const(-rng.choice(_BOUNDS)))


def _random_threshold(rng):
    """(alpha, relation, bound) over at most three atoms, alpha sometimes T."""
    if rng.random() < 0.1:
        alpha = prop.TOP
    else:
        alpha = random_formula(rng, rng.sample([1, 2, 3], rng.randint(1, 3)), 2)
    return alpha, rng.choice(["=", "<", "<=", ">="]), _random_bound(rng)


def _threshold_formula(alpha, rel, bound):
    if rel in ("=", "<"):
        return ppl.PplAtom(alpha, rel, bound)
    return ppl.ple(alpha, bound) if rel == "<=" else ppl.pge(alpha, bound)


def _random_ppl(rng, depth):
    if depth == 0 or rng.random() < 0.4:
        return _threshold_formula(*_random_threshold(rng))
    pick = rng.randrange(3)
    if pick == 0:
        return ppl.pnot(_random_ppl(rng, depth - 1))
    if pick == 1:
        return ppl.pand(_random_ppl(rng, depth - 1), _random_ppl(rng, depth - 1))
    return ppl.PplImplies(_random_ppl(rng, depth - 1), _random_ppl(rng, depth - 1))


def _assert_refutes(decision, phi, scope):
    """The valuation read off an INVALID decision's witness refutes phi;
    returns it, or None for any other decision."""
    if decision.status != rcof.INVALID:
        return None
    V = validity.valuation_from_assignment(decision.witness, scope)
    assert not ppl.ppl_sat(V, decision.witness, phi), ppl.to_text(phi)
    return V


def _reference_formulas() -> list:
    rng = random.Random(59)
    formulas = [_random_ppl(rng, 2) for _ in range(300)]
    return formulas + [corpus_ppl_formula(rng, rng.randint(1, 3)) for _ in range(300)]


def test_decide_validity_matches_field_formula_reference():
    # the reference is the encoding translate replaced: P(T) a variable, the
    # <= / >= sugar as stored, T among the formulas of the point-form Q
    statuses = []
    for phi in _reference_formulas():
        reference, reference_scope = decide_by_field_formula(phi)
        decision = validity.decide_validity(phi)
        assert decision.status == reference.status, ppl.to_text(phi)
        scope = validity.ppl_scope(phi)
        # the valuation handed forward is the one the witness reads as
        assert decision.valuation == _assert_refutes(decision, phi, scope)
        _assert_refutes(reference, phi, reference_scope)
        if decision.status == rcof.INVALID:
            _assert_lists_support_only(decision.witness, validity.probability_formulas(phi), scope)
            assert prop.to_text(prop.TOP) not in decision.witness.probs
        statuses.append(decision.status)
    # unsupported: a nonlinear bound and no external solver, on both sides
    assert statuses.count(rcof.VALID) >= 50 and statuses.count(rcof.INVALID) >= 50
    assert statuses.count(rcof.UNSUPPORTED) >= 10


def test_cell_field_formula_matches_the_point_form():
    # Q over the cells and Q over the 2^n point formulas, each decided as a
    # field sentence by rcof.decide; a cell witness names point formulas,
    # so it reads back as a refuting valuation too
    statuses = []
    for phi in _reference_formulas():
        alphas, scope = validity.probability_formulas(phi), validity.ppl_scope(phi)
        psi = ppl.translate(phi)
        decision = rcof.decide(rcof.Implies(ppl.build_Q(alphas, scope), psi))
        reference = rcof.decide(rcof.Implies(build_Q_by_points(alphas, scope), psi))
        assert decision.status == reference.status, ppl.to_text(phi)
        _assert_refutes(decision, phi, scope)
        statuses.append(decision.status)
    assert statuses.count(rcof.VALID) >= 50 and statuses.count(rcof.INVALID) >= 50
    assert statuses.count(rcof.UNSUPPORTED) >= 10


def _assert_lists_support_only(witness, alphas, scope):
    # the witness lists a point formula iff its mass is nonzero, except that
    # a probability formula whose text is a point formula's is always listed
    V = validity.valuation_from_assignment(witness, scope)
    support = {prop.to_text(prop.phi(scope, prop.subset_of_mask(scope, m))) for m, _ in V.joint.mass}
    points = {prop.to_text(prop.phi(scope, U)) for U in prop.subsets_ascending(scope)}
    named = {prop.to_text(a) for a in alphas}
    listed = points & set(witness.probs)
    assert support <= listed
    assert listed - named == support - named


def _rr_instances() -> list:
    """400 threshold implications ``(phi, hypotheses, conclusion)``, each
    threshold an ``(alpha, relation, bound)``."""
    rng = random.Random(61)
    instances = []
    for _ in range(400):
        hypotheses = [_random_threshold(rng) for _ in range(rng.randint(0, 3))]
        conclusion = _random_threshold(rng)
        phi = _threshold_formula(*conclusion)
        if hypotheses:
            phi = ppl.PplImplies(
                ppl.pand_all(_threshold_formula(*h) for h in hypotheses), phi
            )
        instances.append((phi, hypotheses, conclusion))
    return instances


def test_check_rr_matches_field_formula_reference():
    # the reference is the field sentence RR checking built on its own: each
    # relation one atom on its formula's variable, P(T) a variable too
    rel_ctors = {
        "=": rcof.Eq,
        "<": rcof.Lt,
        "<=": rcof.Le,
        ">=": lambda x, t: rcof.Le(t, x),
    }
    statuses = set()
    for phi, hypotheses, conclusion in _rr_instances():
        everything = [a for a, _, _ in hypotheses] + [conclusion[0]]
        scope = frozenset().union(*(prop.atoms_of(a) for a in everything))
        side = [build_Q_by_points(everything, scope)]
        side += [rel_ctors[rel](rcof.FormulaVar(a), t) for a, rel, t in hypotheses]
        a, rel, t = conclusion
        reference = rcof.decide(
            rcof.Implies(rcof.and_all(side), rel_ctors[rel](rcof.FormulaVar(a), t))
        )
        decision = calculus.check_rr(phi)
        assert decision.status == reference.status, ppl.to_text(phi)
        assert decision.valuation == _assert_refutes(decision, phi, validity.ppl_scope(phi))
        statuses.add(decision.status)
    assert statuses == {rcof.VALID, rcof.INVALID}


def _ge_family(k: int) -> ppl.PplFormula:
    """P(B1) >= 1/2 & ... & P(Bk) >= 1/2 -> P(B1) >= 1/2."""
    hypotheses = " & ".join(f"P(B{i}) >= 1/2" for i in range(1, k + 1))
    return ppl.parse(f"{hypotheses} -> P(B1) >= 1/2")


def test_greater_equal_family_takes_one_simplex_call(monkeypatch):
    # the work is counted, not timed: each clause of the negated matrix
    # costs one simplex call
    validity._decided.cache_clear()
    calls = []
    feasible = rcof.fm_feasible
    monkeypatch.setattr(rcof, "fm_feasible", lambda atoms: calls.append(1) or feasible(atoms))
    assert validity.decide_validity(_ge_family(10)).status == rcof.VALID
    assert len(calls) == 1


# -- the verdict memo against the per-instance decider --------------------------


def test_memo_matches_the_per_instance_decider(monkeypatch):
    # status, reason, witness and valuation alike with the memo cold, warm,
    # and filled in reversed order: an INVALID decision is its input's own
    monkeypatch.delenv(config.SOLVER_ENV_VAR, raising=False)
    cases = [(validity.decide_validity, phi) for phi in _reference_formulas()]
    cases += [(calculus.check_rr, phi) for phi, _, _ in _rr_instances()]
    expected = [decide_validity_by_instance(phi) for _, phi in cases]
    order = list(range(len(cases)))
    for fresh, indices in ((True, order), (False, order), (True, order[::-1])):
        if fresh:
            validity._decided.cache_clear()
        for i in indices:
            decide, phi = cases[i]
            assert decide(phi) == expected[i], ppl.to_text(phi)
    statuses = [d.status for d in expected]
    assert statuses.count(rcof.VALID) >= 100 and statuses.count(rcof.INVALID) >= 100
    assert statuses.count(rcof.UNSUPPORTED) >= 10
    info = validity._decided.cache_info()
    assert info.maxsize == 4096 and 0 < info.currsize < len(cases)


def test_memo_keeps_no_witness_and_no_nonlinear_verdict(monkeypatch):
    monkeypatch.delenv(config.SOLVER_ENV_VAR, raising=False)
    posed = []
    decided = validity._decided
    monkeypatch.setattr(validity, "_decided", lambda p: posed.append(p) or decided(p))
    decided.cache_clear()
    for _ in range(2):  # a miss, then a hit
        d = validity.decide_validity(ppl.parse("P(B1) < 1/2"))
        assert d.status == rcof.INVALID and d.witness is not None and d.valuation is not None
    assert decided.cache_info().currsize == 1
    assert [p.invalid for p in posed] == [None, None]
    assert posed[0].phi is None and posed[0].cells is None  # the memo keeps the key alone
    d = validity.decide_validity(ppl.parse("P(B1) < x1 * x1"))
    assert d.status == rcof.UNSUPPORTED and decided.cache_info().currsize == 1


def _pool_rr_checks() -> tuple:
    """``P(d1) = 1 & P(d2) = 1 -> P(a) = 1`` over the 2-atom class pool for
    every hypothesis set of at most two classes and every conclusion, split
    into the RR axioms and the rest by classical entailment."""
    pool = semantic_class_pool({1, 2})
    sets = [()] + [(a,) for a in pool] + list(itertools.combinations(pool, 2))
    valid, invalid = [], []
    for deltas in sets:
        for alpha in pool:
            phi = ppl.PplAtom(alpha, "=", rcof.ONE)
            if deltas:
                hypotheses = ppl.pand_all(ppl.PplAtom(d, "=", rcof.ONE) for d in deltas)
                phi = ppl.PplImplies(hypotheses, phi)
            (valid if prop.entails_c(deltas, alpha) else invalid).append(phi)
    return valid, invalid


def test_warm_rr_axioms_linearize_nothing(monkeypatch):
    valid, invalid = _pool_rr_checks()
    calls = []
    linear_matrix = rcof._linear_matrix
    monkeypatch.setattr(rcof, "_linear_matrix", lambda f, table: calls.append(1) or linear_matrix(f, table))
    validity._decided.cache_clear()
    for phi in valid:
        assert calculus.check_rr(phi).status == rcof.VALID
    assert calls
    calls.clear()
    for phi in valid:
        assert calculus.check_rr(phi).status == rcof.VALID
    assert calls == []
    # an INVALID decision, from a miss or a hit, linearizes its own matrix
    # once, as the per-instance decider does
    validity._decided.cache_clear()
    for phi in invalid[::7]:
        calls.clear()
        decide_validity_by_instance(phi)
        by_instance = len(calls)
        for _ in range(2):
            calls.clear()
            assert calculus.check_rr(phi).status == rcof.INVALID
            assert 0 < len(calls) <= by_instance


def test_deep_chain_is_walked_without_recursion():
    # a right-nested chain of 20,000 implications, built without the parser
    phi = ppl.PplAtom(prop.Atom(1), "<", rcof.ONE)
    for i in range(20_000):
        phi = ppl.PplImplies(ppl.PplAtom(prop.Atom(1 + i % 3), "=", rcof.const(F(i % 4, 4))), phi)
    assert validity.probability_formulas(phi) == [B2, B1, prop.Atom(3)]
    assert validity.ppl_scope(phi) == {1, 2, 3}
    _, shape = validity._walk(phi)
    assert not any(isinstance(token, tuple) for token in shape)
    assert len(shape) == 4 * 20_000 + 3
    hash(shape)


def test_a_bound_naming_a_probability_formula_keys_by_its_index():
    # P(B1) = x_B1 is valid; in P(B2) = x_B1 the formula B1 is no probability
    # formula, so x_B1 is a variable of its own and the formula is not
    same = ppl.PplAtom(B1, "=", rcof.FormulaVar(B1))
    free = ppl.PplAtom(B2, "=", rcof.FormulaVar(B1))
    expected = {same: rcof.VALID, free: rcof.INVALID}
    for order in ([same, free], [free, same]):
        validity._decided.cache_clear()
        for phi in order:
            decision = validity.decide_validity(phi)
            assert decision == decide_validity_by_instance(phi)
            assert decision.status == expected[phi]
