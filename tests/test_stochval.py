import functools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pplogic import prop, stochval

from .helpers import (
    check_adams_by_formulas,
    findist_checks_by_fractions,
    findist_from_masks_by_fractions,
    marginal_by_subsets,
    project_by_fractions,
    random_formula,
    random_valuation,
    semantic_class_pool,
)
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

    def test_malformed_masses_fail_as_the_fraction_reference_does(self):
        one, two = frozenset({1}), frozenset({1, 2})
        corpus = [
            (one, ((0, 0.5), (1, F(1, 2)))),  # not a Fraction
            (one, ((0, F(1, 2)), (1, 1))),
            (one, ((2, F(1)),)),  # mask out of range
            (one, ((-1, F(1, 2)), (0, F(1, 2)))),
            (two, ((1, F(1, 2)), (0, F(1, 2)))),  # unsorted
            (two, ((1, F(1, 2)), (1, F(1, 2)))),  # duplicate
            (one, ((0, F(-1, 2)), (1, F(3, 2)))),  # negative
            (one, ((0, F(3, 2)),)),  # above 1
            (one, ((0, F(0)), (1, F(1)))),  # zero
            (one, ((0, F(1, 2)), (1, F(1, 3)))),  # bad sum
            (two, ((0, F(1, 6)), (1, F(1, 10)), (3, F(1, 15)))),
            (one, ()),
            # two defects: the first one reached is reported
            (two, ((3, F(3, 2)), (1, F(0)))),
            (two, ((0, F(1, 4)), (4, 1))),
            (two, ((0, F(1, 3)), (2, F(1, 3)), (1, F(1, 3)))),
            (two, ((0, F(1, 2)), (1, F(0)), (2, F(3, 4)))),
        ]
        for scope, mass in corpus:
            with pytest.raises(stochval.DistributionError) as expected:
                findist_checks_by_fractions(scope, mass)
            with pytest.raises(stochval.DistributionError) as got:
                stochval.FinDist(scope, mass)
            assert type(got.value) is type(expected.value)
            assert str(got.value) == str(expected.value)
        # from_masks converts each mass once and fails as the double conversion did
        unconvertible = [(one, ((0, "x"),)), (one, ((0, None),)), (one, ((0, float("nan")),))]
        for scope, mass in corpus + unconvertible + [(one, ((0, 1),)), (two, ((3, "1/2"), (0, 0.5)))]:
            outcomes = []
            for build in (findist_from_masks_by_fractions, stochval.FinDist.from_masks):
                try:
                    outcomes.append(build(scope, dict(mass)))
                except (stochval.DistributionError, TypeError, ValueError) as error:
                    outcomes.append((type(error), str(error)))
            assert outcomes[0] == outcomes[1]

    def test_valid_masses_keep_their_pairs_and_hash(self):
        rng = random.Random(41)
        for _ in range(40):
            carrier = rng.sample(range(1, 8), rng.randint(1, 5))
            mass = random_valuation(rng, carrier, max_numerator=rng.choice([1, 3, 1000])).joint.mass
            scope = frozenset(carrier)
            findist_checks_by_fractions(scope, mass)
            d = stochval.FinDist(scope, mass)
            assert d.mass == mass
            assert hash(d) == hash(stochval.FinDist.from_masks(scope, dict(mass)))
            for m in range(1 << len(scope)):
                assert d.mass_of_mask(m) == dict(mass).get(m, 0)
            models = rng.getrandbits(1 << len(scope))
            assert d.mass_of_table(models) == sum((p for m, p in mass if models >> m & 1), F(0))

    def test_subsets_outside_the_scope_are_rejected(self):
        # with prop.phi's error, not read as the mass of their part inside
        message = r"^\{2\} is not a subset of \{1\}$"
        with pytest.raises(prop.ScopeError, match=message):
            prop.phi(frozenset({1}), frozenset({2}))
        d = stochval.FinDist.from_masks({1}, {0: F(1, 3), 1: F(2, 3)})
        with pytest.raises(prop.ScopeError, match=message):
            d.mass_of({2})
        with pytest.raises(prop.ScopeError, match=message):
            stochval.FinDist.point({1}, {2})


def _in_lowest_terms(d: stochval.FinDist) -> bool:
    """Integers only, masks ascending, no zero weight, gcd(D, weights) = 1."""
    weights = list(d.weights.values())
    return (
        type(d.D) is int and all(type(w) is int and w > 0 for w in weights)
        and list(d.weights) == sorted(d.weights) and math.gcd(d.D, *weights) == 1
        and not any(isinstance(v, F) for v in vars(d).values())
    )


class TestOneStoredForm:
    """Equal distributions compare and hash equal, whichever route built them."""

    def test_a_projection_is_reduced(self):
        # uniform over {1, 2} onto {1}: 2, 2 over 4, which is 1, 1 over 2
        one = frozenset({1})
        assert stochval._project(uniform({1, 2}).joint, one) == (4, {0: 2, 1: 2})
        half = ((0, F(1, 2)), (1, F(1, 2)))
        routes = [
            stochval.FinDist(one, half),
            stochval.FinDist.from_masks(one, dict(half)),
            stochval.FinDist.uniform(one),
            stochval.marginal(uniform({1, 2}), one),
            stochval.marginal(uniform({2}), one),  # B1 a fair coin
            stochval.svp(stochval.psv(uniform({1, 2})), one).joint,
            stochval.svp(stochval.TableAssignment({B1: F(1, 2), prop.Not(B1): F(1, 2)}), one).joint,
            stochval.from_cells(one, [0, 1], {0: F(1, 2), 1: F(1, 2)}).joint,
            stochval.dist_from_json('{"carrier":[1],"mass":{"0":"1/2","1":"1/2"}}'),
        ]
        for d in routes:
            assert (d.scope, d.D, d.weights) == (one, 2, {0: 1, 1: 1})
            assert d == routes[0] and hash(d) == hash(routes[0])
            assert d.mass == half

    def test_every_route_builds_the_same_distribution(self):
        rng = random.Random(31)
        for _ in range(40):
            V = random_valuation(rng, rng.sample(range(1, 7), rng.randint(1, 4)))
            A = frozenset(rng.sample(range(1, 7), rng.randint(1, 4)))
            d = stochval.marginal(V, A)
            table = stochval.TableAssignment({prop.phi(A, U): d.mass_of(U) for U in prop.subsets_ascending(A)})
            points = [m for m, _ in d.mass]
            routes = [
                stochval.FinDist(A, d.mass),
                stochval.FinDist.from_masks(A, dict(d.mass)),
                marginal_by_subsets(V, A),
                stochval.svp(stochval.psv(V), A).joint,
                stochval.svp(table, A).joint,
                stochval.from_cells(A, points, {c: p for c, (_, p) in enumerate(d.mass)}).joint,
                stochval.dist_from_json(stochval.dist_to_json(d)),
            ]
            assert _in_lowest_terms(d)
            for got in routes:
                assert _in_lowest_terms(got)
                assert got == d and hash(got) == hash(d)
                assert (got.D, got.weights) == (d.D, d.weights)


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

    @pytest.mark.parametrize("atoms", range(1, 15))
    def test_projection_equals_the_fraction_sums(self, atoms):
        # scopes narrower than the carrier, equal to it, wider (fair coins)
        # and overlapping it, on a dense joint and on a sparse one
        rng = random.Random(100 + atoms)
        carrier = frozenset(rng.sample(range(1, 19), atoms))
        dense = random_valuation(rng, carrier).joint
        picked = rng.sample(range(1 << atoms), min(3, 1 << atoms))
        sparse = stochval.FinDist.from_masks(carrier, {m: F(1, len(picked)) for m in picked})
        inside = sorted(carrier)
        outside = sorted(set(range(1, 19)) - carrier)
        scopes = [carrier, frozenset(rng.sample(inside, rng.randrange(1, atoms + 1)))]
        scopes.append(carrier | frozenset(rng.sample(outside, 2)))
        scopes.append(frozenset(rng.sample(inside, rng.randrange(1, atoms + 1)) + outside[:1]))
        for d in (dense, sparse):
            for A in scopes:
                D, weights = stochval._project(d, A)
                assert {m: F(w, D) for m, w in weights.items()} == project_by_fractions(d, A)


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
        with pytest.raises(stochval.NotAProbabilityAssignment, match=r"^P\(!B1\) = -1/2 outside \[0,1\]$"):
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

    def test_svp_by_table_matches_svp_by_formulas(self):
        rng = random.Random(43)
        for size in [1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 2, 3]:
            V = random_valuation(rng, rng.sample(range(1, 12), size))
            # the carrier itself, or one with fair-coin atoms beyond it
            for C in (V.carrier, V.carrier | frozenset(rng.sample(range(12, 15), rng.randint(1, 2)))):
                if len(C) > 9:
                    continue
                P = stochval.psv(V)
                assert stochval.svp(P, C) == stochval.svp(lambda f, P=P: P(f), C)

    def test_svp_above_cap_fails_as_by_formulas(self):
        V = random_valuation(random.Random(47), {1, 2})
        for cap, C in ((2, frozenset({1, 2, 3})), (1, frozenset({1, 2})), (16, frozenset(range(1, 18)))):
            P = stochval.psv(V, cap)
            with pytest.raises(prop.ScopeCapError) as expected:
                stochval.svp(lambda f, P=P: P(f), C)
            with pytest.raises(prop.ScopeCapError) as got:
                stochval.svp(P, C)
            assert str(got.value) == str(expected.value)

    def test_svp_by_table_builds_no_point_formula(self, monkeypatch):
        V = random_valuation(random.Random(53), {1, 2, 3, 4})

        def no_phi(*args):
            raise AssertionError("svp built a point formula")

        before = prop._models_mask.cache_info()
        with monkeypatch.context() as patched:
            patched.setattr(stochval.prop, "phi", no_phi)
            wider = V.carrier | {5}
            back = stochval.svp(stochval.psv(V), wider)
        assert back == stochval.StochasticValuation(wider, stochval.marginal(V, wider))
        assert back.joint is stochval.marginal(V, wider)  # one marginal, passed through
        after = prop._models_mask.cache_info()
        assert (after.misses, after.currsize) == (before.misses, before.currsize)

    def test_psv_honours_its_cap(self):
        carrier = frozenset(range(1, 18))
        V = stochval.StochasticValuation(carrier, stochval.FinDist.point(carrier, frozenset()))
        wide = prop.parse(" | ".join(f"!B{i}" for i in range(1, 18)))
        assert stochval.psv(V, cap=17)(wide) == 1
        with pytest.raises(prop.ScopeCapError):
            stochval.psv(V)(wide)


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
        assert report == check_adams_by_formulas(lambda a: F(2), [B1])

    def test_tautology_violation_found(self):
        report = stochval.check_adams(lambda a: F(1, 2), [prop.parse("B1 | !B1")])
        assert any(v.principle == "P2" for v in report.violations)
        assert report == check_adams_by_formulas(lambda a: F(1, 2), [prop.parse("B1 | !B1")])

    def test_monotonicity_violation_found(self):
        table = stochval.TableAssignment(
            {prop.parse("B1"): F(1), prop.parse("B1 | B2"): F(1, 2)}
        )
        report = stochval.check_adams(table, [prop.parse("B1"), prop.parse("B1 | B2")])
        assert any(v.principle == "P3" for v in report.violations)
        assert report == check_adams_by_formulas(table, [prop.parse("B1"), prop.parse("B1 | B2")])

    def test_pool_scope_is_capped(self):
        pool = [prop.Atom(k) for k in range(1, 18)]
        with pytest.raises(prop.ScopeCapError):
            stochval.check_adams(lambda a: F(1, 2), pool)

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
        assert report == check_adams_by_formulas(P, [prop.parse("B1"), prop.parse("!B1")])


class OffOnOneTable(stochval.ValuationAssignment):
    """psv(V) with 1/64 added on one (scope, truth table) pair."""

    def __init__(self, V, scope, models):
        super().__init__(V)
        self.target = (frozenset(scope), models)

    def of_table(self, A, models):
        got = super().of_table(A, models)
        return got + F(1, 64) if (A, models) == self.target else got


class TestCheckAdamsAgainstFormulas:
    """``check_adams`` against ``check_adams_by_formulas``, the formula-only
    reference: equal reports, violations in the same order and text."""

    def test_class_pools_under_seeded_valuations(self):
        rng = random.Random(23)
        pools = {}
        sizes = [1] * 24 + [2] * 28 + [3] * 8
        rng.shuffle(sizes)
        for size in sizes:
            V = random_valuation(rng, rng.sample([1, 2, 3], size))
            # the pool's scope is the carrier or, now and then, another one,
            # so atoms outside the carrier act as fair coins
            scope = V.carrier if rng.random() < 0.7 else frozenset(rng.sample([1, 2, 3], rng.randint(1, 3)))
            if scope not in pools:
                pools[scope] = semantic_class_pool(scope)
            P = stochval.psv(V)
            assert stochval.check_adams(P, pools[scope]) == check_adams_by_formulas(P, pools[scope])

    def test_perturbed_valuation_as_a_lambda(self):
        rng = random.Random(29)
        pool = semantic_class_pool({1, 2})
        for _ in range(5):
            base = stochval.psv(random_valuation(rng, {1, 2}))
            shift = {f: F(rng.randint(-9, 9), 16) for f in rng.sample(pool, 4)}
            shift[rng.choice(pool)] = F(3, 2)
            P = lambda a, base=base, shift=shift: base(a) + shift.get(a, 0)
            report = stochval.check_adams(P, pool)
            assert {"P1", "P3", "P4"} <= {v.principle for v in report.violations}
            assert report == check_adams_by_formulas(P, pool)

    def test_an_off_table_is_caught_on_its_unions(self):
        scope = frozenset({1, 2})
        _, (target,) = prop.tables([prop.parse("B1 | B2")], scope=scope)
        pool = semantic_class_pool(scope)
        _, masks = prop.tables(pool)
        table_of = dict(zip(pool, masks))
        rng = random.Random(31)
        for _ in range(3):
            P = OffOnOneTable(random_valuation(rng, scope), scope, target)
            report = stochval.check_adams(P, pool)
            assert report == check_adams_by_formulas(P, pool)
            # every P4 violation has the off table as its union or, through
            # P's own value, as one of its two formulas
            tables = [
                (table_of[fi], table_of[fj], table_of[fi] | table_of[fj])
                for v in report.violations if v.principle == "P4"
                for fi, fj in [v.formulas]
            ]
            assert any(union == target for _, _, union in tables)
            assert all(target in t for t in tables)

    def test_full_three_atom_class_pools(self):
        rng = random.Random(59)
        scope = frozenset({1, 2, 3})
        pool = semantic_class_pool(scope)
        # complete it with the disjunction of its points for each class not reached
        _, masks = prop.tables(pool, scope=scope)
        for t in sorted(set(range(1, 256)) - set(masks)):
            points = [prop.phi(scope, prop.subset_of_mask(scope, m)) for m in range(8) if t >> m & 1]
            pool.append(functools.reduce(prop.disj, points))
        assert len(pool) == 256
        for carrier in ({1, 2, 3}, {1, 2, 3}, {2, 3}, {1, 3, 4}):
            P = stochval.psv(random_valuation(rng, carrier))
            report = stochval.check_adams(P, pool)
            assert report.ok
            assert report == check_adams_by_formulas(P, pool)

    def test_pools_with_equivalent_formulas(self):
        pool = [prop.parse(t) for t in (
            "B1 & !B1", "B2", "B1 | !B1", "B2 & !B2", "!!B2", "B2 -> B2", "B1", "!B2", "B1 | B2",
        )]
        rng = random.Random(61)
        for _ in range(6):
            base = stochval.psv(random_valuation(rng, {1, 2}))
            P = lambda a, base=base: base(a)
            assert stochval.check_adams(base, pool) == check_adams_by_formulas(base, pool)
            assert stochval.check_adams(base, pool).ok
            assert stochval.check_adams(P, pool) == check_adams_by_formulas(P, pool)
            # equal tables, values set apart: P3 both ways round, P4 on the contradictions
            shift = {pool[4]: F(1, 8), pool[5]: F(-1, 4), pool[3]: F(1, 16)}
            Q = lambda a, base=base, shift=shift: base(a) + shift.get(a, 0)
            report = stochval.check_adams(Q, pool)
            assert {"P2", "P3", "P4"} <= {v.principle for v in report.violations}
            assert report == check_adams_by_formulas(Q, pool)

    def test_perturbed_three_atom_pool(self):
        rng = random.Random(67)
        pool = semantic_class_pool({1, 2, 3})
        for _ in range(2):
            base = stochval.psv(random_valuation(rng, {1, 2, 3}))
            shift = {f: F(rng.randint(-9, 9), 32) for f in rng.sample(pool, 12)}
            shift[rng.choice(pool)] = F(-3, 2)
            P = lambda a, base=base, shift=shift: base(a) + shift.get(a, 0)
            report = stochval.check_adams(P, pool)
            assert {"P1", "P3", "P4"} <= {v.principle for v in report.violations}
            assert report == check_adams_by_formulas(P, pool)

    def test_sparse_wide_pools(self):
        # a few formulas over many atoms: the pair search tests each pair
        rng = random.Random(73)
        atoms = range(1, 11)
        for _ in range(3):
            pool = [random_formula(rng, atoms, 4) for _ in range(12)]
            pool += [prop.parse("B1 & !B1"), prop.parse("B2 | !B2"), B2, prop.parse("!!B2"), prop.Not(B2)]
            base = stochval.psv(random_valuation(rng, atoms))
            assert stochval.check_adams(base, pool) == check_adams_by_formulas(base, pool)
            shift = {f: F(rng.randint(-9, 9), 32) for f in rng.sample(pool, 8)}
            shift[pool[-3]] = F(1, 8)  # B2 above its equivalent !!B2
            shift[pool[-5]] = F(1, 16)  # the contradiction off 0, P4 with itself
            shift[pool[-4]] = F(-1, 4)  # the tautology below 1
            shift[rng.choice(pool[:12])] = F(-3, 2)
            P = lambda a, base=base, shift=shift: base(a) + shift.get(a, 0)
            report = stochval.check_adams(P, pool)
            assert {"P1", "P2", "P3", "P4"} <= {v.principle for v in report.violations}
            assert report == check_adams_by_formulas(P, pool)

    @pytest.mark.parametrize("width", [2, 4, 8, 16])
    def test_pair_search_on_each_side_of_the_choice(self, width):
        # up to 2 * width tables the pairs are tested one by one, above it
        # the tables are transposed into rows
        rng = random.Random(width)
        for k in range(1, 3 * width + 2):
            masks = [rng.choice([0, (1 << width) - 1, rng.getrandbits(width)]) for _ in range(k)]
            containing = [sum(1 << j for j, mj in enumerate(masks) if mi & mj == mi) for mi in masks]
            disjoint = [sum(1 << j for j, mj in enumerate(masks) if mi & mj == 0) for mi in masks]
            assert stochval._containing_and_disjoint(masks, width) == (containing, disjoint)

    def test_an_off_table_over_three_atoms(self):
        scope = frozenset({1, 2, 3})
        pool = semantic_class_pool(scope)
        _, (target,) = prop.tables([prop.parse("B1 | B2 & !B3")], scope=scope)
        P = OffOnOneTable(random_valuation(random.Random(71), scope), scope, target)
        report = stochval.check_adams(P, pool)
        assert not report.ok
        assert report == check_adams_by_formulas(P, pool)

    def test_union_route_honours_the_cap(self):
        P = stochval.psv(random_valuation(random.Random(73), {2, 3}), cap=1)
        B3 = prop.Atom(3)
        for pool in ([B2, B3], [B2, B3, prop.Not(B2)]):
            report = stochval.check_adams(P, pool)
            assert report.ok
            assert report == check_adams_by_formulas(P, pool)

    def test_valuation_route_builds_no_disjunction(self, monkeypatch):
        pool = semantic_class_pool({1, 2, 3})
        V = random_valuation(random.Random(37), {1, 2, 3})

        def no_disj(*args):
            raise AssertionError("check_adams built a disjunction")

        with monkeypatch.context() as patched:
            patched.setattr(stochval.prop, "disj", no_disj)
            assert stochval.check_adams(stochval.psv(V), pool).ok

        def recorder():
            asked = []

            def P(alpha):
                asked.append(alpha)
                return stochval.psv(V)(alpha)

            return P, asked

        P, asked = recorder()
        assert stochval.check_adams(P, pool).ok
        P_ref, asked_ref = recorder()
        check_adams_by_formulas(P_ref, pool)
        assert asked == asked_ref
        assert len(asked) > len(pool)


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
                masses = dict(d.mass)
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
                    '{"carrier":[1],"mass":{"0":"1/2","1":"1/3"}}',
                    # masses are strings, carrier atoms integers and not booleans
                    '{"carrier":[1],"mass":{"0":null}}', '{"carrier":[1],"mass":{"0":["1"]}}',
                    '{"carrier":[1],"mass":{"0":{"1":"1"}}}', '{"carrier":[1],"mass":{"0":1}}',
                    '{"carrier":[1],"mass":{"0":1.0}}', '{"carrier":[1],"mass":{"0":true}}',
                    '{"carrier":[true],"mass":{"1":"1"}}', '{"carrier":[false],"mass":{"0":"1"}}',
                    # a key is a mask in ASCII digits, and no mask has two keys
                    '{"carrier":[1],"mass":{"1":"1","01":"1"}}', '{"carrier":[1],"mass":{" 1":"1"}}',
                    '{"carrier":[1],"mass":{"\\u0661":"1"}}', '{"carrier":[1,2,3,4],"mass":{"1_0":"1"}}',
                    # a value is n or n/m in ASCII digits
                    '{"carrier":[1],"mass":{"1":"1e0"}}', '{"carrier":[1],"mass":{"1":" 1 "}}',
                    '{"carrier":[1],"mass":{"1":"\\u0661"}}', '{"carrier":[1],"mass":{"1":"1_0/10"}}',
                    '{"carrier":[1,2],"mass":{"1":"0.5","2":"1/2"}}', '{"carrier":[1],"mass":{"1":"+1"}}',
                    '{"carrier":[1],"mass":{"1":"1/0"}}']:
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
