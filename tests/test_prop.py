import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pplogic import prop

from .helpers import eval_row, models_mask_by_rows
from .strategies import formulas, scopes

B1, B2, B3, B7 = prop.Atom(1), prop.Atom(2), prop.Atom(3), prop.Atom(7)


def V(trues, scope):
    return prop.Valuation(frozenset(trues), frozenset(scope))


class TestAtomsOf:
    def test_implication_collects_both_sides(self):
        assert prop.atoms_of(prop.parse("B1 -> B2")) == {1, 2}

    def test_desugared_top_mentions_its_witness_atom(self):
        assert prop.atoms_of(prop.TOP) == {1}

    def test_duplicates_collapse(self):
        assert prop.atoms_of(prop.conj(B3, B3)) == {3}


class TestEvaluate:
    def test_failed_implication(self):
        assert prop.evaluate(V({1}, {1, 2}), prop.parse("B1 -> B2")) is False

    def test_excluded_middle(self):
        for trues in ([], [1]):
            assert prop.evaluate(V(trues, {1}), prop.parse("B1 | !B1")) is True

    def test_empty_valuation_satisfies_negative_conjunction(self):
        assert prop.evaluate(V([], {1, 2}), prop.parse("!B1 & !B2")) is True

    def test_out_of_scope_atom_rejected(self):
        with pytest.raises(prop.ScopeError):
            prop.evaluate(V({1}, {1}), B2)

    def test_valuation_outside_scope_rejected(self):
        with pytest.raises(prop.ScopeError):
            V({2}, {1})


class TestModelsOver:
    def test_single_atom(self):
        assert prop.models_over(B1, frozenset({1})) == {frozenset({1})}

    def test_contradiction_has_no_models(self):
        assert prop.models_over(prop.parse("B1 & !B1"), frozenset({1})) == frozenset()

    def test_disjunction_models_enumerated(self):
        got = prop.models_over(prop.parse("B1 | B2"), frozenset({1, 2}))
        assert got == {frozenset({1}), frozenset({2}), frozenset({1, 2})}

    def test_scope_must_cover_formula(self):
        with pytest.raises(prop.ScopeError):
            prop.models_over(B2, frozenset({1}))

    def test_cap(self):
        with pytest.raises(prop.ScopeCapError):
            prop.models_over(B1, frozenset(range(1, 20)), cap=16)


class TestEntailsC:
    def test_modus_ponens(self):
        assert prop.entails_c([B1, prop.parse("B1 -> B2")], B2) is True

    def test_nothing_entails_an_atom(self):
        assert prop.entails_c([], B1) is False

    def test_contradiction_entails_anything(self):
        assert prop.entails_c([prop.parse("B1 & !B1")], B7) is True


class TestPhi:
    def test_mixed_signs(self):
        assert prop.phi(frozenset({1, 2}), frozenset({1})) == prop.parse("B1 & !B2")

    def test_all_negative(self):
        assert prop.phi(frozenset({1}), frozenset()) == prop.parse("!B1")

    def test_all_positive(self):
        assert prop.phi(frozenset({1, 2, 3}), frozenset({1, 2, 3})) == prop.parse("B1 & B2 & B3")

    def test_empty_scope_rejected(self):
        with pytest.raises(prop.ScopeError):
            prop.phi(frozenset(), frozenset())

    def test_identifies_exactly_its_valuation(self):
        A = frozenset({1, 2, 3})
        for U in prop.subsets_ascending(A):
            assert prop.models_over(prop.phi(A, U), A) == {U}


class TestDnf:
    def test_tautology_over_one_atom(self):
        got = prop.dnf(prop.TOP, frozenset({1}))
        assert [c.formula() for c in got] == [prop.parse("!B1"), prop.parse("B1")]

    def test_contradiction_is_empty(self):
        assert prop.dnf(prop.parse("B1 & !B1"), frozenset({1})) == []

    def test_widening_the_scope_splits_conjuncts(self):
        got = prop.dnf(B1, frozenset({1, 2}))
        assert [c.formula() for c in got] == [prop.parse("B1 & !B2"), prop.parse("B1 & B2")]

    def test_sorted_by_mask_and_duplicate_free(self):
        got = prop.dnf(prop.parse("B1 | B2"), frozenset({1, 2}))
        masks = [c.mask for c in got]
        assert masks == sorted(masks) and len(set(masks)) == len(masks)


class TestAdequateDnfSet:
    def test_tautology_family(self):
        scope, lists = prop.adequate_dnf_set([prop.TOP])
        assert scope == {1}
        assert [c.formula() for c in lists[0]] == [prop.parse("!B1"), prop.parse("B1")]

    def test_two_atoms_split_over_shared_scope(self):
        scope, lists = prop.adequate_dnf_set([B1, B2])
        assert scope == {1, 2}
        assert all(len(lst) == 2 for lst in lists)

    def test_contradiction_gives_empty_list(self):
        scope, lists = prop.adequate_dnf_set([prop.parse("B1 & !B1")])
        assert scope == {1} and lists == [[]]

    def test_clauses_hold_by_construction(self):
        scope, lists = prop.adequate_dnf_set([prop.parse("B1 | B2"), prop.parse("B1 <-> B3")])
        for alpha, conjuncts in zip([prop.parse("B1 | B2"), prop.parse("B1 <-> B3")], lists):
            for c in conjuncts:
                assert prop.atoms_of(c.formula()) == scope
            for c1, c2 in itertools.combinations(conjuncts, 2):
                assert prop.entails_c([], prop.Not(prop.conj(c1.formula(), c2.formula())))
            rebuilt = None
            for c in conjuncts:
                rebuilt = c.formula() if rebuilt is None else prop.disj(rebuilt, c.formula())
            if rebuilt is not None:
                assert prop.entails_c([], prop.iff(rebuilt, alpha))
                assert prop.entails_c([], prop.iff(alpha, rebuilt))


class TestVentilatedProperties:
    def test_point_formulas_pairwise_contradictory(self):
        for size in (1, 2, 3):
            A = frozenset(range(1, size + 1))
            for U1, U2 in itertools.combinations(prop.subsets_ascending(A), 2):
                f = prop.Not(prop.conj(prop.phi(A, U1), prop.phi(A, U2)))
                assert prop.entails_c([], f)

    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_point_formulas_cover_everything(self, size):
        A = frozenset(range(1, size + 1))
        covering = None
        for U in prop.subsets_ascending(A):
            f = prop.phi(A, U)
            covering = f if covering is None else prop.disj(covering, f)
        assert prop.entails_c([], covering)

    def test_marginal_disjunction(self):
        # the disjunction of the point formulas refining U1 over A is U1's point formula
        for big in (2, 3, 4):
            A = frozenset(range(1, big + 1))
            A1 = frozenset({1}) if big > 1 else A
            for U1 in prop.subsets_ascending(A1):
                parts = [prop.phi(A, U) for U in prop.subsets_ascending(A) if U & A1 == U1]
                folded = None
                for f in parts:
                    folded = f if folded is None else prop.disj(folded, f)
                assert prop.entails_c([], prop.iff(folded, prop.phi(A1, U1)))


class TestGrammar:
    def test_implication_is_right_associative(self):
        assert prop.parse("B1 -> B2 -> B3") == prop.Implies(
            B1, prop.Implies(B2, B3)
        )

    def test_precedence_ladder(self):
        assert prop.parse("!B1 & B2") == prop.conj(prop.Not(B1), B2)
        assert prop.parse("B1 | B2 & B3") == prop.disj(B1, prop.conj(B2, B3))
        assert prop.parse("B1 -> B2 | B3") == prop.Implies(B1, prop.disj(B2, B3))
        assert prop.parse("B1 <-> B2 -> B3") == prop.iff(B1, prop.Implies(B2, B3))


class TestParseErrors:
    @pytest.mark.parametrize(
        "text",
        ["", "B", "B1 &", "(B1 -> B2", "B1 B2", "->", "!!", "B1 | | B2", "b1", "B1 <- B2"],
    )
    def test_malformed_input_rejected(self, text):
        with pytest.raises(prop.ParseError):
            prop.parse(text)


@given(formulas())
@settings(max_examples=200)
def test_parse_print_round_trip(f):
    assert prop.parse(prop.to_text(f)) == f


@given(formulas())
@settings(max_examples=100)
def test_normal_form_law(f):
    # the disjunction of a formula's DNF conjuncts is equivalent to it
    A = prop.atoms_of(f)
    folded = None
    for c in prop.dnf(f, A):
        folded = c.formula() if folded is None else prop.disj(folded, c.formula())
    if folded is None:
        assert prop.entails_c([], prop.Not(f))
    else:
        assert prop.entails_c([], prop.iff(folded, f))


@given(formulas(), scopes)
@settings(max_examples=100)
def test_models_over_respects_scope_extension(f, extra):
    A = prop.atoms_of(f) | extra
    got = prop.models_over(f, A)
    for U in prop.subsets_ascending(A):
        member = U in got
        assert member == prop.evaluate(prop.Valuation(U, A), f)


class TestTruthTables:
    def test_caches_are_bounded(self):
        for cached in (prop.atoms_of, prop._models_mask, prop.to_text):
            assert cached.cache_info().maxsize is not None

    def test_deep_chain_needs_no_recursion(self):
        # B1 -> (B1 -> ... (!!...!!B2)), 10,000 nodes deep, built without the
        # parser; it is equivalent to B1 -> B2
        f = B2
        for _ in range(2500):
            f = prop.Not(prop.Not(f))
        for _ in range(5000):
            f = prop.Implies(B1, f)
        A = frozenset({1, 2, 3})
        assert prop._models_mask(f, A) == prop._models_mask(prop.Implies(B1, B2), A)
        for U in prop.subsets_ascending(A):
            assert prop.evaluate(prop.Valuation(U, A), f) == (1 not in U or 2 in U)


@given(formulas(), st.sets(st.integers(0, 6), max_size=4), st.booleans())
@settings(max_examples=200)
def test_models_mask_matches_row_by_row_reference(f, extra, cover):
    # scopes that cover the formula's atoms, and scopes that miss some
    A = frozenset(extra) | (prop.atoms_of(f) if cover else frozenset())
    assert prop._models_mask(f, A) == models_mask_by_rows(f, A)


@given(formulas(), scopes)
@settings(max_examples=100)
def test_evaluate_matches_row_by_row_reference(f, extra):
    A = prop.atoms_of(f) | extra
    for U in prop.subsets_ascending(A):
        assert prop.evaluate(prop.Valuation(U, A), f) == eval_row(U, f)


@given(st.lists(formulas(max_leaves=5), max_size=3), formulas(max_leaves=5))
@settings(max_examples=150)
def test_entails_c_matches_brute_force(deltas, alpha):
    A = prop.atoms_of(alpha).union(*(prop.atoms_of(d) for d in deltas))
    expected = all(
        eval_row(U, alpha)
        for U in prop.subsets_ascending(A)
        if all(eval_row(U, d) for d in deltas)
    )
    assert prop.entails_c(deltas, alpha) == expected
