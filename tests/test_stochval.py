import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pplogic import prop, stochval

from .helpers import marginal_by_subsets, random_formula, random_valuation, semantic_class_pool
from .strategies import formulas, valuations

B1, B2 = prop.Atom(1), prop.Atom(2)


def uniform(carrier):
    carrier = frozenset(carrier)
    return stochval.StochasticValuation(carrier, stochval.FinDist.uniform(carrier))


def point(carrier, trues):
    carrier = frozenset(carrier)
    return stochval.StochasticValuation(carrier, stochval.FinDist.point(carrier, frozenset(trues)))


class TestFinDist:
    def test_rejects_bad_sum(self):
        with pytest.raises(stochval.DistributionError):
            stochval.FinDist.from_masks(frozenset({1}), {0: F(1, 2), 1: F(1, 3)})

    def test_rejects_negative_mass(self):
        with pytest.raises(stochval.DistributionError):
            stochval.FinDist.from_masks(frozenset({1}), {0: F(-1, 2), 1: F(3, 2)})

    def test_zero_masses_dropped(self):
        d = stochval.FinDist.from_masks(frozenset({1}), {0: F(0), 1: F(1)})
        assert d.mass == ((1, F(1)),)
        assert d.mass_of_mask(0) == 0


class TestMarginal:
    def test_uniform_marginalizes_to_uniform(self):
        got = stochval.marginal(uniform({1, 2}), frozenset({1}))
        assert got.mass_of(frozenset()) == F(1, 2)
        assert got.mass_of(frozenset({1})) == F(1, 2)

    def test_extension_atoms_are_fair_coins(self):
        got = stochval.marginal(point({1}, {1}), frozenset({1, 2}))
        assert got.mass_of(frozenset({1})) == F(1, 2)
        assert got.mass_of(frozenset({1, 2})) == F(1, 2)
        assert got.mass_of(frozenset()) == 0
        assert got.mass_of(frozenset({2})) == 0

    def test_identity_marginal(self):
        V = random_valuation(random.Random(3), {1, 2})
        assert stochval.marginal(V, V.carrier) == V.joint

    def test_empty_scope_rejected(self):
        with pytest.raises(prop.ScopeError):
            stochval.marginal(uniform({1}), frozenset())

    def test_scope_beyond_cap_rejected(self):
        with pytest.raises(prop.ScopeCapError):
            stochval.marginal(uniform({1}), frozenset(range(1, 18)))
        with pytest.raises(prop.ScopeCapError):
            stochval.marginal(uniform({1}), frozenset({1, 2, 3}), cap=2)


class TestProb:
    def test_uniform_disjunction(self):
        assert stochval.prob(uniform({1, 2}), prop.parse("B1 | B2")) == F(3, 4)

    def test_tautologies_get_one(self):
        V = random_valuation(random.Random(5), {1, 2, 3})
        assert stochval.prob(V, prop.parse("B2 | !B2")) == 1

    def test_formula_beyond_cap_rejected(self):
        wide = prop.parse(" | ".join(f"B{i}" for i in range(1, 18)))
        with pytest.raises(prop.ScopeCapError):
            stochval.prob(uniform({1}), wide)

    def test_contradiction_gets_zero(self):
        V = random_valuation(random.Random(6), {1, 2})
        assert stochval.prob(V, prop.parse("B1 & !B1")) == 0


class TestGaloisMaps:
    def test_svp_reads_point_probabilities(self):
        table = stochval.TableAssignment(
            {prop.parse("B1"): F(1, 3), prop.parse("!B1"): F(2, 3)}
        )
        V = stochval.svp(table, frozenset({1}))
        assert V.joint.mass_of(frozenset()) == F(2, 3)
        assert V.joint.mass_of(frozenset({1})) == F(1, 3)

    def test_svp_rejects_deficient_total(self):
        table = stochval.TableAssignment(
            {prop.parse("B1"): F(1, 2), prop.parse("!B1"): F(2, 5)}
        )
        with pytest.raises(stochval.NotAProbabilityAssignment):
            stochval.svp(table, frozenset({1}))

    def test_svp_rejects_out_of_range(self):
        table = stochval.TableAssignment(
            {prop.parse("B1"): F(3, 2), prop.parse("!B1"): F(-1, 2)}
        )
        with pytest.raises(stochval.NotAProbabilityAssignment):
            stochval.svp(table, frozenset({1}))

    def test_round_trip_from_valuation(self):
        rng = random.Random(11)
        for _ in range(25):
            V = random_valuation(rng, {1, 2})
            assert stochval.svp(stochval.psv(V), V.carrier) == V

    def test_round_trip_from_table(self):
        rng = random.Random(12)
        for _ in range(25):
            V = random_valuation(rng, {1, 3})
            A = V.carrier
            table = stochval.TableAssignment(
                {prop.phi(A, U): stochval.prob(V, prop.phi(A, U)) for U in prop.subsets_ascending(A)}
            )
            W = stochval.svp(table, A)
            for U in prop.subsets_ascending(A):
                assert stochval.psv(W)(prop.phi(A, U)) == table(prop.phi(A, U))


class TestInducedValuation:
    def test_point_mass_at_restriction(self):
        v = prop.Valuation(frozenset({1}), frozenset({1, 2}))
        V = stochval.induced_from_valuation(v, frozenset({1, 2}))
        assert V.joint.mass_of(frozenset({1})) == 1

    def test_satisfaction_transfers(self):
        rng = random.Random(13)
        carrier = frozenset({1, 2, 3})
        for _ in range(30):
            trues = frozenset(i for i in carrier if rng.random() < 0.5)
            v = prop.Valuation(trues, carrier)
            V = stochval.induced_from_valuation(v, carrier)
            f = random_formula(rng, carrier, 3)
            assert (stochval.prob(V, f) == 1) == prop.evaluate(v, f)

    def test_marginal_of_point_mass(self):
        V = stochval.induced_from_valuation(
            prop.Valuation(frozenset({1, 2}), frozenset({1, 2})), frozenset({1, 2})
        )
        got = stochval.marginal(V, frozenset({2}))
        assert got.mass_of(frozenset({2})) == 1

    def test_carrier_must_be_covered(self):
        with pytest.raises(prop.ScopeError):
            stochval.induced_from_valuation(
                prop.Valuation(frozenset(), frozenset({1})), frozenset({1, 2})
            )


class TestCheckAdams:
    def test_valuation_assignment_passes(self):
        rng = random.Random(17)
        pool = semantic_class_pool({1, 2})
        for _ in range(5):
            V = random_valuation(rng, {1, 2})
            assert stochval.check_adams(stochval.psv(V), pool).ok

    def test_range_violation_found(self):
        report = stochval.check_adams(lambda a: F(2), [B1])
        assert any(v.principle == "P1" for v in report.violations)

    def test_tautology_violation_found(self):
        report = stochval.check_adams(lambda a: F(1, 2), [prop.parse("B1 | !B1")])
        assert any(v.principle == "P2" for v in report.violations)

    def test_monotonicity_violation_found(self):
        table = stochval.TableAssignment(
            {prop.parse("B1"): F(1), prop.parse("B1 | B2"): F(1, 2)}
        )
        report = stochval.check_adams(table, [prop.parse("B1"), prop.parse("B1 | B2")])
        assert any(v.principle == "P3" for v in report.violations)

    def test_additivity_violation_found(self):
        values = {
            prop.parse("B1"): F(1, 2),
            prop.parse("!B1"): F(1, 4),
            prop.parse("B1 | !B1"): F(1),
        }
        def P(alpha):
            return values.get(alpha, F(1))
        report = stochval.check_adams(P, [prop.parse("B1"), prop.parse("!B1")])
        assert any(v.principle == "P4" for v in report.violations)


class TestCheckConsistency:
    def test_marginals_of_one_joint_are_consistent(self):
        V = random_valuation(random.Random(19), {1, 2, 3})
        family = [stochval.marginal(V, A) for A in (frozenset({1}), frozenset({1, 2}), frozenset({1, 2, 3}))]
        assert stochval.check_consistency(family).ok

    def test_violation_reported_with_triple(self):
        small = stochval.FinDist.from_masks(frozenset({1}), {0: F(1)})
        big = stochval.FinDist.from_masks(frozenset({1, 2}), {1: F(1)})
        report = stochval.check_consistency([big, small])
        assert not report.ok
        v = report.violations[0]
        assert v.inner == {1} and v.outer == {1, 2}

    def test_singleton_family_consistent(self):
        d = stochval.FinDist.uniform(frozenset({1, 2}))
        assert stochval.check_consistency([d]).ok


    def test_perturbed_families_match_subset_enumeration(self):
        rng = random.Random(23)
        for _ in range(40):
            V = random_valuation(rng, {1, 2, 3, 4})
            family = [V.joint] + [
                marginal_by_subsets(V, rng.sample(sorted(V.carrier), k)) for k in (1, 2, 3)
            ]
            i = rng.randrange(len(family))
            d = family[i]
            if rng.random() < 0.7:
                # move half of one point's mass onto another point
                m, p = rng.choice(d.mass)
                target = rng.randrange(1 << len(d.scope))
                masses = d.as_mask_dict()
                masses[m] -= p / 2
                masses[target] = masses.get(target, F(0)) + p / 2
                family[i] = stochval.FinDist.from_masks(d.scope, masses)
            expected = []
            for big in family:
                for small in family:
                    if small is big or not small.scope <= big.scope:
                        continue
                    ref = marginal_by_subsets(stochval.StochasticValuation(big.scope, big), small.scope)
                    for m in range(1 << len(small.scope)):
                        if ref.mass_of_mask(m) != small.mass_of_mask(m):
                            expected.append(stochval.ConsistencyViolation(
                                big.scope, small.scope, prop.subset_of_mask(small.scope, m),
                                ref.mass_of_mask(m), small.mass_of_mask(m),
                            ))
            assert stochval.check_consistency(family).violations == expected


class TestJson:
    def test_documented_example(self):
        text = '{"carrier":[1,2],"mass":{"0":"1/4","1":"1/4","2":"1/4","3":"1/4"}}'
        d = stochval.dist_from_json(text)
        assert d == stochval.FinDist.uniform(frozenset({1, 2}))
        assert stochval.dist_to_json(d) == text

    def test_missing_keys_mean_zero(self):
        d = stochval.dist_from_json('{"carrier":[1],"mass":{"1":"1"}}')
        assert d.mass_of(frozenset()) == 0

    def test_canonicalization_round_trips(self):
        messy = '{"mass":{"3":"2/8","0":"1/4","1":"1/4","2":"2/8"},"carrier":[2,1]}'
        canonical = stochval.dist_to_json(stochval.dist_from_json(messy))
        assert canonical == '{"carrier":[1,2],"mass":{"0":"1/4","1":"1/4","2":"1/4","3":"1/4"}}'
        assert stochval.dist_to_json(stochval.dist_from_json(canonical)) == canonical

    def test_malformed_json_rejected(self):
        for bad in ["{", '{"carrier":[1]}', '{"carrier":[1],"mass":{"0":"x"}}',
                    '{"carrier":[1],"mass":{"0":"1/2","1":"1/3"}}']:
            with pytest.raises(stochval.DistributionError):
                stochval.dist_from_json(bad)


@given(valuations(), formulas(max_leaves=5))
@settings(max_examples=120, deadline=None)
def test_probability_in_unit_interval(V, f):
    assert 0 <= stochval.prob(V, f) <= 1


@given(valuations(), formulas(max_leaves=4), formulas(max_leaves=4))
@settings(max_examples=120, deadline=None)
def test_entailment_is_monotone_in_probability(V, f, g):
    if prop.entails_c([f], g):
        assert stochval.prob(V, f) <= stochval.prob(V, g)


@given(valuations(), formulas(max_leaves=4), formulas(max_leaves=4))
@settings(max_examples=120, deadline=None)
def test_additivity_on_contradictory_pairs(V, f, g):
    if prop.entails_c([], prop.Not(prop.conj(f, g))):
        assert stochval.prob(V, prop.disj(f, g)) == stochval.prob(V, f) + stochval.prob(V, g)


@given(valuations(), formulas(max_leaves=4))
@settings(max_examples=120, deadline=None)
def test_marginal_coherence_over_larger_scopes(V, f):
    # probability computed through any covering scope matches the tight one
    base = stochval.prob(V, f)
    A = prop.atoms_of(f) | frozenset({4})
    marg = stochval.marginal(V, A)
    total = sum(
        (marg.mass_of(U) for U in prop.models_over(f, A)),
        start=F(0),
    )
    assert total == base


@given(valuations())
@settings(max_examples=100, deadline=None)
def test_json_round_trip_identity(V):
    text = stochval.dist_to_json(V.joint)
    assert stochval.dist_from_json(text) == V.joint
    assert stochval.dist_to_json(stochval.dist_from_json(text)) == text


@given(valuations())
@settings(max_examples=60, deadline=None)
def test_family_of_marginals_is_consistent(V):
    scopes = [frozenset({1}), frozenset({1, 2}), frozenset({1, 2, 5})]
    family = [stochval.marginal(V, A) for A in scopes]
    assert stochval.check_consistency(family).ok


@given(valuations(), st.sets(st.integers(1, 6), min_size=1, max_size=5))
@settings(max_examples=150, deadline=None)
def test_marginal_matches_subset_enumeration(V, A):
    # atoms 1-4 may lie in the carrier, atoms 5 and 6 never do
    assert stochval.marginal(V, frozenset(A)) == marginal_by_subsets(V, A)
