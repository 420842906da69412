import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings

from pplogic import ppl, pqentail, prop, rcof, stochval

from .helpers import (
    find_refuting_valuation_by_points,
    pq_entails_by_formulas,
    random_formula,
    semantic_class_pool,
)
from .strategies import formulas

B1, B2 = prop.Atom(1), prop.Atom(2)
CONTRADICTION = prop.parse("B1 & !B1")


class TestThresholdPair:
    def test_valid_pair_accepted(self):
        pqentail.ThresholdPair(F(3, 4), F(1, 2))

    @pytest.mark.parametrize("p,q", [(F(1, 4), F(3, 4)), (F(1), F(0)), (F(5, 4), F(1))])
    def test_invalid_pairs_rejected(self, p, q):
        with pytest.raises(pqentail.InvalidThresholds):
            pqentail.ThresholdPair(p, q)


class TestThresholdRanges:
    def test_out_of_range_thresholds_rejected(self):
        V = stochval.StochasticValuation(frozenset({1}), stochval.FinDist.uniform(frozenset({1})))
        with pytest.raises(ValueError):
            pqentail.p_satisfies(V, B1, F(3, 2))
        # the refutation memo stores no exceptions, so every call is checked
        for p, q in [(F(-1, 2), F(1, 2)), (F(1, 2), F(5, 4)), (F(3, 2), F(1, 2))]:
            for _ in range(3):
                with pytest.raises(ValueError):
                    pqentail.hailperin_entails([B1], B1, p, q)


class TestPSatisfies:
    def test_uniform_single_atom_at_half(self):
        V = stochval.StochasticValuation(frozenset({1}), stochval.FinDist.uniform(frozenset({1})))
        assert pqentail.p_satisfies(V, B1, F(1, 2)) is True

    def test_contradiction_never_positively_satisfied(self):
        V = stochval.StochasticValuation(frozenset({1}), stochval.FinDist.uniform(frozenset({1})))
        assert pqentail.p_satisfies(V, CONTRADICTION, F(1, 100)) is False

    def test_zero_threshold_always_satisfied(self):
        V = stochval.StochasticValuation(frozenset({1}), stochval.FinDist.point(frozenset({1}), frozenset()))
        assert pqentail.p_satisfies(V, B1, F(0)) is True

    def test_cap_admits_a_17_atom_formula(self):
        A = frozenset(range(1, 18))
        alpha = prop.conj_all([prop.Atom(k) for k in sorted(A)])
        top = stochval.StochasticValuation(A, stochval.FinDist.point(A, A))
        bottom = stochval.StochasticValuation(A, stochval.FinDist.point(A, frozenset()))
        with pytest.raises(prop.ScopeCapError):
            pqentail.p_satisfies(top, alpha, F(1, 2))
        assert pqentail.p_satisfies(top, alpha, F(1, 2), cap=17) is True
        assert pqentail.p_satisfies(bottom, alpha, F(1, 2), cap=17) is False


class TestHailperin:
    def test_unsatisfiable_single_hypothesis_entails_vacuously(self):
        assert pqentail.hailperin_entails([CONTRADICTION], prop.BOTTOM, F(1, 2), F(1, 4)) is True

    def test_split_hypotheses_do_not_entail(self):
        assert pqentail.hailperin_entails([B1, prop.Not(B1)], prop.BOTTOM, F(1, 2), F(1, 4)) is False

    def test_refutation_witness_is_checkable(self):
        V = pqentail.find_refuting_valuation([B1, prop.Not(B1)], prop.BOTTOM, F(1, 2), F(1, 4))
        assert V is not None
        assert stochval.prob(V, B1) >= F(1, 2)
        assert stochval.prob(V, prop.Not(B1)) >= F(1, 2)
        assert stochval.prob(V, prop.BOTTOM) < F(1, 4)

    def test_empty_hypotheses_entail_tautology(self):
        assert pqentail.hailperin_entails([], prop.TOP, F(9, 10), F(1)) is True

    def test_extensivity_fails_when_q_exceeds_p(self):
        assert pqentail.hailperin_entails([B1], B1, F(1, 4), F(3, 4)) is False


class TestPqEntails:
    def test_conjunction_repairs_the_split_counterexample(self):
        t = pqentail.ThresholdPair(F(1, 2), F(1, 4))
        assert pqentail.pq_entails([B1, prop.Not(B1)], prop.BOTTOM, t) is True
        assert pqentail.pq_entails([CONTRADICTION], prop.BOTTOM, t) is True

    def test_extensivity_at_valid_pairs(self):
        for p, q in [(F(1), F(1)), (F(3, 4), F(1, 2)), (F(1, 10), F(1, 10))]:
            assert pqentail.pq_entails([B1], B1, pqentail.ThresholdPair(p, q)) is True

    def test_singleton_agrees_with_hypothesis_wise_form(self):
        rng = random.Random(23)
        for _ in range(40):
            d = random_formula(rng, {1, 2}, 2)
            a = random_formula(rng, {1, 2}, 2)
            t = pqentail.ThresholdPair(F(rng.randrange(1, 5), 4), F(1, 4))
            assert pqentail.pq_entails([d], a, t) == pqentail.hailperin_entails([d], a, t.p, t.q)

    def test_whole_set_witnesses_whenever_any_subset_does(self):
        # explicit iteration over all finite subsets never beats using the set itself
        rng = random.Random(29)
        for _ in range(40):
            deltas = [random_formula(rng, {1, 2}, 2) for _ in range(rng.randrange(0, 4))]
            alpha = random_formula(rng, {1, 2}, 2)
            t = pqentail.ThresholdPair(F(rng.randrange(2, 5), 4), F(1, 2))
            by_subsets = any(
                pqentail.hailperin_entails(
                    [prop.conj_all(sorted(set(phi_set), key=prop.to_text))], alpha, t.p, t.q
                )
                for r in range(len(deltas) + 1)
                for phi_set in itertools.combinations(deltas, r)
            )
            assert pqentail.pq_entails(deltas, alpha, t) == by_subsets


class TestCollapse:
    def test_trivial_instance(self):
        got = pqentail.collapse_check([B1], prop.disj(B1, B2), pqentail.ThresholdPair(F(1), F(1)))
        assert got == (True, True)

    def test_non_entailment_instance(self):
        got = pqentail.collapse_check([prop.disj(B1, B2)], B1, pqentail.ThresholdPair(F(1, 2), F(1, 2)))
        assert got == (False, False)

    def test_small_exhaustive_sample(self):
        pool = semantic_class_pool({1, 2})[:8]
        t = pqentail.ThresholdPair(F(3, 4), F(1, 2))
        for d, a in itertools.product(pool, repeat=2):
            c, p = pqentail.collapse_check([d], a, t)
            assert c == p


def _checked_refutation(deltas, alpha, p, q):
    """``find_refuting_valuation``, its valuation re-checked by ``prob``."""
    V = pqentail.find_refuting_valuation(deltas, alpha, p, q)
    if V is not None:
        assert all(stochval.prob(V, d) >= p for d in deltas)
        assert stochval.prob(V, alpha) < q
    return V


def _assert_routes_agree(deltas, alpha, t):
    """pq_entails and hailperin_entails on tables against the formula route."""
    deltas = list(deltas)
    conjunctive = pqentail.pq_entails(deltas, alpha, t)
    assert conjunctive == pq_entails_by_formulas(deltas, alpha, t)
    assert conjunctive == (_checked_refutation([prop.conj_all(deltas)], alpha, t.p, t.q) is None)
    wise = pqentail.hailperin_entails(deltas, alpha, t.p, t.q)
    assert wise == (find_refuting_valuation_by_points(deltas, alpha, t.p, t.q) is None)
    assert wise == (_checked_refutation(deltas, alpha, t.p, t.q) is None)
    return conjunctive, wise


class TestMemo:
    def test_range_error_wins_over_scope_cap(self):
        wide = prop.conj_all([prop.Atom(k) for k in range(1, 18)])
        for _ in range(2):
            with pytest.raises(ValueError):
                pqentail.find_refuting_valuation([wide], B1, F(3, 2), F(1, 2))

    def test_scope_cap_checked_on_every_call(self):
        wide = prop.conj_all([prop.Atom(k) for k in range(1, 18)])
        assert pqentail.find_refuting_valuation([wide], B1, F(1, 2), F(1, 2), cap=17) is None
        for _ in range(2):
            with pytest.raises(prop.ScopeCapError):
                pqentail.find_refuting_valuation([wide], B1, F(1, 2), F(1, 2))

    def test_memo_is_bounded(self):
        # the memo on tables and the memo on cell structures
        for memo in (pqentail._entailed, pqentail._refutable):
            assert memo.cache_info().maxsize == 4096

    def test_equal_tables_over_other_atoms_of_one_count_share_one_entry(self):
        B3, B5, B9 = prop.Atom(3), prop.Atom(5), prop.Atom(9)
        low = ([prop.disj(B2, B3)], B2)
        high = ([prop.disj(B5, B9)], B5)
        rcof._simplex.cache_clear()
        V = pqentail.find_refuting_valuation(*low, F(1, 2), F(1, 2))
        W = pqentail.find_refuting_valuation(*high, F(1, 2), F(1, 2))
        info = rcof._simplex.cache_info()
        assert (info.hits, info.misses, info.currsize, info.maxsize) == (1, 1, 1, 4096)
        assert V.carrier == {2, 3} and W.carrier == {5, 9}
        for U, (deltas, alpha) in ((V, low), (W, high)):
            assert all(stochval.prob(U, d) >= F(1, 2) for d in deltas)
            assert stochval.prob(U, alpha) < F(1, 2)

    def test_equal_tables_over_other_atom_counts_pose_other_systems(self):
        # T over {B1} and !B2 & T over {B1, B2} both have the table 0b11
        one, two = prop.parse("T"), prop.parse("!B2 & T")
        for order in ((one, two), (two, one)):
            _clear_memos()
            verdicts = {alpha: pqentail.hailperin_entails([], alpha, F(1), F(1)) for alpha in order}
            assert verdicts == {one: True, two: False}

    def test_equal_truth_tables_share_one_entry(self):
        first = ([prop.disj(B1, B2)], B1)
        second = ([prop.disj(B2, B1)], prop.Not(prop.Not(B1)))
        assert first != second
        rcof._simplex.cache_clear()
        V = pqentail.find_refuting_valuation(*first, F(1, 2), F(1, 2))
        before = rcof._simplex.cache_info()
        W = pqentail.find_refuting_valuation(*second, F(1, 2), F(1, 2))
        after = rcof._simplex.cache_info()
        assert (after.hits, after.misses, after.currsize) == (before.hits + 1, before.misses, 1)
        assert V is not None and W == V
        for deltas, alpha in (first, second):
            assert all(stochval.prob(W, d) >= F(1, 2) for d in deltas)
            assert stochval.prob(W, alpha) < F(1, 2)

    def test_hypothesis_order_and_duplicates_do_not_change_the_verdict(self):
        pool = semantic_class_pool({1, 2})
        t = pqentail.ThresholdPair(F(3, 4), F(1, 2))
        for a, b in itertools.combinations(pool, 2):
            ordered = prop.conj_all(sorted({a, b}, key=prop.to_text))
            for alpha in pool:
                expected = pqentail.hailperin_entails([ordered], alpha, t.p, t.q)
                for deltas in ([a, b], [b, a], [b, a, b, a], [a, a, b]):
                    assert pqentail.pq_entails(deltas, alpha, t) == expected

    def test_collapse_check_matches_the_reference_over_the_class_pool(self):
        # the pool, hypothesis sets and threshold pairs of test_03
        pool = semantic_class_pool({1, 2})
        hypothesis_sets = [()] + [(a,) for a in pool] + list(itertools.combinations(pool, 2))
        _clear_memos()
        verdicts = set()
        instances = 0
        for p, q in [(F(1), F(1)), (F(3, 4), F(1, 2)), (F(1, 2), F(1, 2)), (F(1, 10), F(1, 10))]:
            t = pqentail.ThresholdPair(p, q)
            for deltas in hypothesis_sets:
                conjunction = prop.conj_all(sorted(set(deltas), key=prop.to_text))
                for alpha in pool:
                    reference = find_refuting_valuation_by_points([conjunction], alpha, p, q)
                    expected = (prop.entails_c(deltas, alpha), reference is None)
                    assert pqentail.collapse_check(deltas, alpha, t) == expected
                    # the table route against the formula route it replaced
                    verdicts.add(_assert_routes_agree(deltas, alpha, t))
                    instances += 1
        assert instances == 8768
        assert verdicts == {(True, True), (True, False), (False, False)}


class TestTableRoute:
    """The truth-table route against the formula route it replaced: the
    hypotheses conjoined as a formula, the system built from formulas.  The
    2-atom pool sweep is in TestMemo."""

    PAIRS = [(F(1), F(1)), (F(3, 4), F(1, 2)), (F(1, 2), F(1, 2)), (F(1, 10), F(1, 10))]

    def test_seeded_three_atom_instances(self):
        rng = random.Random(53)
        atoms = [2, 5, 9]
        drawn = [random_formula(rng, atoms, 3) for _ in range(40)]
        _clear_memos()
        verdicts = set()
        for _ in range(300):
            deltas = rng.sample(drawn, rng.randrange(4))
            t = pqentail.ThresholdPair(*rng.choice(self.PAIRS))
            verdicts.add(_assert_routes_agree(deltas, rng.choice(drawn), t))
        assert {(True, True), (True, False), (False, False)} <= verdicts

    @pytest.mark.parametrize("links", range(4, 10))
    def test_hailperin_chains(self, links):
        chain, alpha = _chain(links)
        p = F(19, 20)
        bound = 1 - links * (1 - p)
        for q, entails in ((bound, True), (bound + F(1, 100), False)):
            assert pqentail.hailperin_entails(chain, alpha, p, q) is entails
            assert (find_refuting_valuation_by_points(chain, alpha, p, q) is None) is entails
            assert (_checked_refutation(chain, alpha, p, q) is None) is entails

    def test_no_formula_and_no_valuation_is_built_for_a_verdict(self, monkeypatch):
        pool = semantic_class_pool({1, 2})
        instances = [(list(deltas), alpha) for deltas in itertools.combinations(pool[:6], 2) for alpha in pool]
        t = pqentail.ThresholdPair(F(3, 4), F(1, 2))

        def unreachable(*args):
            raise AssertionError("built on the table route")

        _clear_memos()
        monkeypatch.setattr(stochval, "from_cells", unreachable)
        monkeypatch.setattr(prop, "conj", unreachable)
        verdicts = set()
        for deltas, alpha in instances:
            classical, conjunctive = pqentail.collapse_check(deltas, alpha, t)
            assert conjunctive == classical == pqentail.pq_entails(deltas, alpha, t)
            verdicts.add(pqentail.hailperin_entails(deltas, alpha, t.p, t.q))
            verdicts.add(conjunctive)
        assert verdicts == {True, False}

    def test_empty_hypothesis_set_adds_no_atom(self):
        # T, the empty conjunction as a formula, would bring B1 in: 17 atoms
        wide = prop.conj_all([prop.Atom(k) for k in range(2, 18)])
        t = pqentail.ThresholdPair(F(1), F(1))
        assert pqentail.pq_entails([], wide, t) is False
        assert pqentail.collapse_check([], wide, t) == (False, False)
        with pytest.raises(prop.ScopeCapError):
            pq_entails_by_formulas([], wide, t)


MEMOS = (pqentail._entailed, pqentail._refutable, rcof._simplex)


def _clear_memos():
    for memo in MEMOS:
        memo.cache_clear()


def _pool_sweep():
    """The 8,768 instances of acceptance test 03."""
    pool = semantic_class_pool({1, 2})
    hypothesis_sets = [()] + [(a,) for a in pool] + list(itertools.combinations(pool, 2))
    pairs = [(F(1), F(1)), (F(3, 4), F(1, 2)), (F(1, 2), F(1, 2)), (F(1, 10), F(1, 10))]
    return [
        (list(deltas), alpha, pqentail.ThresholdPair(p, q))
        for p, q in pairs
        for deltas in hypothesis_sets
        for alpha in pool
    ]


def _three_atom_instances():
    rng = random.Random(59)
    atoms = [2, 5, 9]
    drawn = [random_formula(rng, atoms, 3) for _ in range(40)]
    instances = []
    for _ in range(300):
        deltas = rng.sample(drawn, rng.randrange(4))
        t = pqentail.ThresholdPair(*rng.choice(TestTableRoute.PAIRS))
        instances.append((deltas, rng.choice(drawn), t))
    return instances


def _chain(links):
    atoms = [prop.Atom(k) for k in range(2, links + 2)]
    return [atoms[0]] + [prop.Implies(a, b) for a, b in zip(atoms, atoms[1:])], atoms[-1]


def _chain_instances():
    p = F(19, 20)
    instances = []
    for links in range(4, 10):
        bound = 1 - links * (1 - p)
        chain, alpha = _chain(links)
        instances += [(chain, alpha, pqentail.ThresholdPair(p, q)) for q in (bound, bound + F(1, 100))]
    return instances


def _by_verdicts(instances):
    return [
        (pqentail.pq_entails(deltas, alpha, t), pqentail.hailperin_entails(deltas, alpha, t.p, t.q))
        for deltas, alpha, t in instances
    ]


def _by_witnesses(instances, refute):
    return [
        (refute([prop.conj_all(deltas)], alpha, t.p, t.q) is None, refute(deltas, alpha, t.p, t.q) is None)
        for deltas, alpha, t in instances
    ]


class TestVerdictMemos:
    """The yes/no deciders, which share one system per cell structure,
    against the witnesses, which pose each table-level system, and against
    the point encoding with no memo."""

    @pytest.mark.parametrize("instances", [_pool_sweep, _three_atom_instances, _chain_instances])
    def test_verdicts_equal_the_witnesses_in_either_order(self, instances):
        instances = instances()
        expected = _by_witnesses(instances, find_refuting_valuation_by_points)
        assert {wise for _, wise in expected} == {True, False}
        for verdict_first in (True, False):
            _clear_memos()
            if verdict_first:
                verdicts = _by_verdicts(instances)
                witnesses = _by_witnesses(instances, pqentail.find_refuting_valuation)
            else:
                witnesses = _by_witnesses(instances, pqentail.find_refuting_valuation)
                verdicts = _by_verdicts(instances)
            assert verdicts == witnesses == expected

    def test_p_and_q_are_part_of_the_cell_structure_key(self):
        chain, alpha = _chain(5)
        _clear_memos()
        # bound 3/4 at p = 19/20; 1 - 5 (1 - p) moves with p
        assert pqentail.hailperin_entails(chain, alpha, F(19, 20), F(3, 4)) is True
        assert pqentail.hailperin_entails(chain, alpha, F(19, 20), F(4, 5)) is False
        assert pqentail.hailperin_entails(chain, alpha, F(18, 20), F(3, 4)) is False
        assert pqentail.hailperin_entails(chain, alpha, F(20, 20), F(4, 5)) is True

    def test_one_signature_set_makes_one_system(self, monkeypatch):
        # B1 | B2 |- B1 and !B1 | B2 |- !B1: other tables, other lowest-point
        # order of the cells, one signature set
        first = ([prop.parse("B1 | B2")], B1)
        second = ([prop.parse("!B1 | B2")], prop.Not(B1))
        tables = [prop.tables([alpha, *deltas])[1] for deltas, alpha in (first, second)]
        assert tables[0] != tables[1]
        cells = [ppl.cells(t, 2) for t in tables]
        assert [s for _, s in cells[0]] != [s for _, s in cells[1]]
        assert sorted(s for _, s in cells[0]) == sorted(s for _, s in cells[1])
        _clear_memos()
        asked = []
        simplex = rcof._simplex
        monkeypatch.setattr(rcof, "_simplex", lambda atoms: asked.append(atoms) or simplex(atoms))
        for deltas, alpha in (first, second):
            assert pqentail.hailperin_entails(deltas, alpha, F(1, 2), F(1, 2)) is False
        info = pqentail._refutable.cache_info()
        assert (info.misses, info.hits, pqentail._entailed.cache_info().misses) == (1, 1, 2)
        assert len(asked) == 1

    def test_a_verdict_and_a_witness_share_the_simplex_entry(self):
        chain, alpha = _chain(6)
        _clear_memos()
        assert pqentail.hailperin_entails(chain, alpha, F(19, 20), F(3, 4)) is False
        assert pqentail.find_refuting_valuation(chain, alpha, F(19, 20), F(3, 4)) is not None
        info = rcof._simplex.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_a_long_chain_pivots_as_in_lowest_point_order(self, monkeypatch):
        pivots = []
        pivot = rcof._pivot_and_update
        monkeypatch.setattr(rcof, "_pivot_and_update", lambda *args: pivots.append(1) or pivot(*args))
        chain, alpha = _chain(14)
        for decide in (pqentail.hailperin_entails, pqentail.find_refuting_valuation):
            _clear_memos()
            pivots.clear()
            decide(chain, alpha, F(19, 20), F(1, 3))
            assert len(pivots) == 15

    def test_a_warm_pool_sweep_hashes_no_fraction(self, monkeypatch):
        instances = _pool_sweep()
        _clear_memos()
        for deltas, alpha, t in instances:
            pqentail.pq_entails(deltas, alpha, t)
        hashes = []
        fraction_hash = F.__hash__
        monkeypatch.setattr(F, "__hash__", lambda self: hashes.append(1) or fraction_hash(self))
        for deltas, alpha, t in instances:
            pqentail.pq_entails(deltas, alpha, t)
        assert pqentail._entailed.cache_info().hits >= len(instances)
        assert hashes == []


@given(formulas(max_leaves=4), formulas(max_leaves=4), formulas(max_leaves=4))
@settings(max_examples=60, deadline=None)
def test_operator_is_monotone_in_the_hypothesis_set(d1, d2, alpha):
    t = pqentail.ThresholdPair(F(1, 2), F(1, 2))
    if pqentail.pq_entails([d1], alpha, t):
        assert pqentail.pq_entails([d1, d2], alpha, t)


@given(formulas(max_leaves=4), formulas(max_leaves=4))
@settings(max_examples=60, deadline=None)
def test_extensivity_property(member, other):
    t = pqentail.ThresholdPair(F(2, 3), F(1, 3))
    assert pqentail.pq_entails([member, other], member, t)


def _grid_joints(n_subsets, step_denominator=8):
    """All exact distributions over n_subsets outcomes with masses k/step."""
    total = step_denominator
    def chunks(remaining, slots):
        if slots == 1:
            yield (remaining,)
            return
        for k in range(remaining + 1):
            for rest in chunks(remaining - k, slots - 1):
                yield (k,) + rest
    for combo in chunks(total, n_subsets):
        yield [F(k, total) for k in combo]


def test_decision_agrees_with_dense_grid_search():
    # independent oracle: enumerate every step-1/8 joint over the scope
    rng = random.Random(31)
    pool = semantic_class_pool({1, 2})
    scope = frozenset({1, 2})
    grid = list(_grid_joints(4))
    for _ in range(100):
        deltas = [rng.choice(pool) for _ in range(rng.randrange(0, 3))]
        alpha = rng.choice(pool)
        p = F(rng.randrange(1, 9), 8)
        q = F(rng.randrange(1, 9), 8)
        lp_entails = pqentail.hailperin_entails(deltas, alpha, p, q)
        hyp_bits = [prop._models_mask(d, scope) for d in deltas]
        concl_bits = prop._models_mask(alpha, scope)
        grid_refuted = False
        for masses in grid:
            if all(
                sum(masses[m] for m in range(4) if bits >> m & 1) >= p for bits in hyp_bits
            ) and sum(masses[m] for m in range(4) if concl_bits >> m & 1) < q:
                grid_refuted = True
                break
        # eighth-step thresholds with 0/1 constraint rows: the grid is a
        # complete refuter on these instances, so agreement is two-way
        assert lp_entails == (not grid_refuted)
