import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings

from pplogic import ppl, prop, rcof, stochval

from .helpers import random_valuation
from .strategies import ppl_formulas, terms

B1, B2 = prop.Atom(1), prop.Atom(2)


def assignment(**kw):
    return rcof.Assignment(numeric={int(k[1:]): F(v) for k, v in kw.items()})


class TestEvalTerm:
    def test_integer_literal(self):
        assert rcof.eval_term(ppl.parse("P(B1) = 3").bound, rcof.Assignment()) == 3

    def test_inverse_literal(self):
        assert rcof.eval_term(ppl.parse("P(B1) = 1/2").bound, rcof.Assignment()) == F(1, 2)

    def test_variable_lookup(self):
        t = ppl.parse("P(B1) = x0").bound
        assert rcof.eval_term(t, assignment(x0=F(2, 3))) == F(2, 3)

    def test_unmentioned_variables_default_to_zero(self):
        assert rcof.eval_term(rcof.Var(9), rcof.Assignment()) == 0

    def test_formula_variable_without_binding_is_an_error(self):
        with pytest.raises(rcof.UnboundVariableError):
            rcof.eval_term(rcof.FormulaVar(B1), rcof.Assignment())

    def test_q_syntax(self):
        assert rcof.eval_term(ppl.parse("P(B1) = q(2,6)").bound, rcof.Assignment()) == F(1, 3)

    def test_arithmetic(self):
        t = ppl.parse("P(B1) = 2 * x1 - 1/4").bound
        assert rcof.eval_term(t, assignment(x1=F(1, 2))) == F(3, 4)


def point_mass(carrier, trues):
    carrier = frozenset(carrier)
    return stochval.StochasticValuation(
        carrier, stochval.FinDist.point(carrier, frozenset(trues))
    )


class TestSatisfaction:
    def test_atom_equality(self):
        V = point_mass({1}, {1})
        assert ppl.ppl_sat(V, rcof.Assignment(), ppl.parse("P(B1) = 1")) is True

    def test_nonnegativity_sugar(self):
        V = random_valuation(random.Random(1), {1, 2})
        assert ppl.ppl_sat(V, rcof.Assignment(), ppl.parse("P(B1) >= 0")) is True

    def test_strict_bound_fails_at_equality(self):
        V = stochval.StochasticValuation(frozenset({1, 2}), stochval.FinDist.uniform(frozenset({1, 2})))
        assert ppl.ppl_sat(V, rcof.Assignment(), ppl.parse("P(B1 | B2) < 3/4")) is False
        assert ppl.ppl_sat(V, rcof.Assignment(), ppl.parse("P(B1 | B2) <= 3/4")) is True

    def test_implication_is_classical(self):
        V = point_mass({1}, set())
        f = ppl.parse("P(B1) = 1 -> P(B1) < 0")
        assert ppl.ppl_sat(V, rcof.Assignment(), f) is True

    def test_scope_cap_is_honoured(self):
        atoms = range(1, 18)
        V = point_mass(atoms, atoms)
        everything = prop.conj_all(prop.Atom(i) for i in atoms)
        certain = ppl.PplAtom(everything, "=", rcof.ONE)
        assert ppl.ppl_sat(V, rcof.Assignment(), certain, cap=17) is True
        assert ppl.ppl_sat(V, rcof.Assignment(), ppl.pnot(certain), cap=17) is False
        with pytest.raises(prop.ScopeCapError):
            ppl.ppl_sat(V, rcof.Assignment(), certain)


class TestEntailsReduction:
    def test_empty_premises_guarded_by_valid_antecedent(self):
        phi = ppl.parse("P(B1) <= 1")
        got = ppl.ppl_entails_reduction([], phi)
        assert got == ppl.PplImplies(ppl.TRUTH, phi)

    def test_premises_conjoined_in_canonical_order(self):
        a, b = ppl.parse("P(B2) = 1"), ppl.parse("P(B1) = 1")
        got = ppl.ppl_entails_reduction([a, b], ppl.parse("P(B1 & B2) = 1"))
        assert got == ppl.PplImplies(ppl.pand(b, a), ppl.parse("P(B1 & B2) = 1"))


class TestTranslate:
    def test_atom_becomes_formula_variable(self):
        got = ppl.translate(ppl.parse("P(B1) = 1"))
        assert got == rcof.Eq(rcof.FormulaVar(B1), rcof.ONE)

    def test_translation_is_a_homomorphism(self):
        phi = ppl.parse("P(B1) = 1 -> P(B2) < 1")
        got = ppl.translate(phi)
        assert got == rcof.Implies(
            rcof.Eq(rcof.FormulaVar(B1), rcof.ONE),
            rcof.Lt(rcof.FormulaVar(B2), rcof.ONE),
        )

    def test_le_sugar_translates_to_one_atom(self):
        got = ppl.translate(ppl.parse("P(B1) <= x1"))
        assert got == rcof.Le(rcof.FormulaVar(B1), rcof.Var(1))

    def test_ge_sugar_translates_to_one_atom(self):
        got = ppl.translate(ppl.parse("P(B1) >= 1/2"))
        assert got == rcof.Le(rcof.const(F(1, 2)), rcof.FormulaVar(B1))

    def test_truth_probability_is_the_constant_one(self):
        assert ppl.translate(ppl.FALSUM) == rcof.Lt(rcof.ONE, rcof.ONE)
        assert ppl.translate(ppl.TRUTH) == rcof.Eq(rcof.ONE, rcof.ONE)
        got = ppl.translate(ppl.parse("!P(B1) = 1"))
        assert got == rcof.Implies(rcof.Eq(rcof.FormulaVar(B1), rcof.ONE), rcof.Lt(rcof.ONE, rcof.ONE))


class TestBuildQ:
    def test_tautology_constraints_shape(self):
        # T does not split the scope: one cell, named after its lowest point
        q = ppl.build_Q([prop.TOP], frozenset({1}))
        x_neg = rcof.FormulaVar(prop.parse("!B1"))
        expected = rcof.and_all(
            [
                rcof.Le(rcof.ZERO, x_neg),
                rcof.Eq(x_neg, rcof.ONE),
                rcof.Eq(rcof.FormulaVar(prop.TOP), x_neg),
            ]
        )
        assert q == expected

    def test_cells_are_named_after_their_lowest_point(self):
        # B1 & B2 over {1, 2, 3}: the cell outside it starts at the empty
        # subset, the cell inside it at {1, 2}
        alpha = prop.parse("B1 & B2")
        q = ppl.build_Q([alpha], frozenset({1, 2, 3}))
        low = rcof.FormulaVar(prop.parse("!B1 & !B2 & !B3"))
        high = rcof.FormulaVar(prop.parse("B1 & B2 & !B3"))
        expected = rcof.and_all(
            [
                rcof.Le(rcof.ZERO, low),
                rcof.Le(rcof.ZERO, high),
                rcof.Eq(rcof.Add(low, high), rcof.ONE),
                rcof.Eq(rcof.FormulaVar(alpha), high),
            ]
        )
        assert q == expected

    def test_contradiction_gets_empty_sum(self):
        bottom = prop.parse("B1 & !B1")
        q = ppl.build_Q([bottom], frozenset({1}))
        assert rcof.Eq(rcof.FormulaVar(bottom), rcof.ZERO) in list(_conjuncts(q))

    def test_two_formulas_over_two_atoms(self):
        q = ppl.build_Q([B1, B2], frozenset({1, 2}))
        parts = list(_conjuncts(q))
        # 4 cells, each at least 0, one sum-to-one, two per-formula equations
        assert len(parts) == 7

    def test_conjunct_variables_are_shared_point_variables(self):
        q = ppl.build_Q([B1], frozenset({1}))
        parts = list(_conjuncts(q))
        assert rcof.Eq(rcof.FormulaVar(B1), rcof.FormulaVar(B1)) in parts

    def test_no_formulas_gives_the_bare_polytope(self):
        # emit-smt 'P(T) = 1' has no probability formula besides T
        parts = list(_conjuncts(ppl.build_Q([], frozenset({1}))))
        x_neg = rcof.FormulaVar(prop.parse("!B1"))
        assert parts == [rcof.Le(rcof.ZERO, x_neg), rcof.Eq(x_neg, rcof.ONE)]


def _conjuncts(f):
    if isinstance(f, rcof.And):
        yield from _conjuncts(f.left)
        yield from _conjuncts(f.right)
    else:
        yield f


class TestFormulaVariableKeys:
    def test_identical_trees_share_a_key(self):
        assert rcof.FormulaVar(prop.parse("B1 & B2")).key == rcof.FormulaVar(
            prop.conj(B1, B2)
        ).key

    def test_equivalent_but_distinct_trees_get_distinct_keys(self):
        left = prop.parse("B1 & B2")
        right = prop.parse("B2 & B1")
        assert rcof.FormulaVar(left).key != rcof.FormulaVar(right).key


class TestTransfer:
    def test_satisfaction_transfers_through_translation(self):
        # build rho satisfying the distribution constraints, read the joint
        # off rho, and compare satisfaction on both sides
        from pplogic import validity

        rng = random.Random(37)
        scope = frozenset({1, 2})
        alphas = [B1, prop.parse("B1 -> B2"), prop.parse("B1 & B2")]
        for _ in range(40):
            V = random_valuation(rng, scope)
            phi = ppl.PplImplies(
                ppl.PplAtom(alphas[0], "<", rcof.Var(0)),
                ppl.pand(
                    ppl.PplAtom(alphas[1], "=", rcof.Const(stochval.prob(V, alphas[1]))),
                    ppl.PplAtom(alphas[2], "<", rcof.Add(rcof.Var(0), rcof.ONE)),
                ),
            )
            rho = rcof.Assignment(numeric={0: F(rng.randrange(0, 5), 4)})
            for U in prop.subsets_ascending(scope):
                point = prop.phi(scope, U)
                rho = rho.with_prob(point, V.joint.mass_of(U))
            for a in validity.probability_formulas(phi):
                rho = rho.with_prob(a, stochval.prob(V, a))
            W = validity.valuation_from_assignment(rho, scope)
            assert W == V
            assert ppl.ppl_sat(V, rho, phi) == rcof.eval_formula(ppl.translate(phi), rho)


class TestParseErrors:
    MESSAGES = {
        "": "unexpected token None",
        "P(B1)": "unexpected end of input",
        "P(B1) = ": "unexpected token None in term",
        "P(B1 = 1": "unbalanced parentheses after P(",
        "P() = 1": "bad formula inside P(...): unexpected token None",
        "P(B1) == 1": "unexpected token '=' in term",
        "P(B1) = 1/0": "zero denominator",
        "P(B1) = q(1)": "expected ',', found ')'",
        "P(B1) > 1": "unexpected input at '> 1'",
        "B1 = 1": "unexpected input at 'B1 = 1'",
        "P(B1) = x": "unexpected input at 'x'",
        "P(B1) = 1 extra": "unexpected input at 'extra'",
        "(P(B1) = 1 P(B2) = 1": "expected ')', found 'B2'",
        "P(B1) = 1 P(B2) = 1": "trailing input from 'B2'",
        "P(B1) P(B2)": "expected a comparison after P(...), found 'B2'",
        "P(B1) = P(B2)": "unexpected token 'B2' in term",
        # the text inside P(...) is never read as a connective or a numeral
        "P(!) = 1": "bad formula inside P(...): unexpected token None",
        "P(B1) = P(3)": "unexpected token '3' in term",
        "P(B1) = q(P(1),2)": "q(n,m) takes integer literals",
        "P(B1) = q(1,00)": "zero denominator",
    }

    @pytest.mark.parametrize("text", list(MESSAGES))
    def test_malformed_input_rejected(self, text):
        with pytest.raises(ppl.PplParseError) as raised:
            ppl.parse(text)
        assert type(raised.value) is ppl.PplParseError
        assert str(raised.value) == self.MESSAGES[text]


@given(ppl_formulas())
@settings(max_examples=200)
def test_parse_print_round_trip(phi):
    assert ppl.parse(ppl.to_text(phi)) == phi


@given(terms())
@settings(max_examples=200)
def test_term_round_trip_through_atom(t):
    phi = ppl.PplAtom(B1, "<", t)
    assert ppl.parse(ppl.to_text(phi)) == phi
