import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from pplogic import calculus, ppl, prop, rcof, stochval, validity

from .helpers import corpus_ppl_formula, random_valuation, semantic_class_pool, taut_by_rows

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
B1, B2 = prop.Atom(1), prop.Atom(2)


def load(name: str) -> calculus.Derivation:
    return calculus.parse_script((FIXTURES / name).read_text())


class TestCheckTaut:
    def test_self_implication(self):
        phi = ppl.parse("P(B1) < 1/2")
        assert calculus.check_taut(ppl.PplImplies(phi, phi)) is True

    def test_conjunction_introduction_pattern(self):
        phi = ppl.parse("P(B1) = 1 -> (P(B2) = 1 -> P(B1) = 1 & P(B2) = 1)")
        assert calculus.check_taut(phi) is True

    def test_single_atom_is_not_tautological(self):
        assert calculus.check_taut(ppl.parse("P(B1) = 1")) is False

    def test_abstraction_is_syntactic(self):
        # equal probability atoms abstract to one letter; different bounds do not
        same = ppl.parse("P(B1) = 1 -> P(B1) = 1")
        different = ppl.parse("P(B1) = 1 -> P(B1) = x1")
        assert calculus.check_taut(same) is True
        assert calculus.check_taut(different) is False

    @pytest.mark.parametrize(
        "text",
        [
            "!!(P(B2) = 1) -> P(B2) = 1",
            "(!(P(B2) = 1) -> P(B3) = 1) -> (!(P(B3) = 1) -> P(B2) = 1)",
        ],
    )
    def test_negation_target_counts_as_false(self, text):
        phi = ppl.parse(text)
        assert calculus.check_taut(phi) is True
        assert validity.decide_validity(phi).status == rcof.VALID

    def test_accepted_formulas_are_never_refuted(self):
        rng = random.Random(83)
        accepted = 0
        for _ in range(1500):
            phi = corpus_ppl_formula(rng, rng.randint(1, 4))
            try:
                if not calculus.check_taut(phi):
                    continue
            except prop.ScopeCapError:
                continue
            accepted += 1
            # unsupported is allowed: nonlinear bounds need an external solver
            assert validity.decide_validity(phi).status != rcof.INVALID, ppl.to_text(phi)
        assert accepted >= 20

    def test_cap(self):
        parts = [ppl.PplAtom(B1, "<", rcof.Var(k)) for k in range(17)]
        phi = ppl.pand_all(parts)
        with pytest.raises(prop.ScopeCapError):
            calculus.check_taut(ppl.PplImplies(phi, phi))
        assert calculus.check_taut(ppl.PplImplies(phi, phi), cap=17) is True
        # P(T) < 1 adds no letter: sixteen atoms and it fit the default cap
        below = ppl.pand_all(parts[:16])
        assert calculus.check_taut(ppl.PplImplies(below, ppl.pnot(ppl.pnot(below)))) is True

    def test_matches_the_row_evaluator(self):
        # half corpus formulas, half combinations of a few letters, which are
        # often tautologies; a cap of 10 keeps the row evaluator cheap and
        # puts some formulas over it on both sides
        rng = random.Random(89)
        accepted = capped = 0
        for i in range(4000):
            if i % 2:
                phi = corpus_ppl_formula(rng, rng.randint(1, 4))
            else:
                leaves = [corpus_ppl_formula(rng, 0) for _ in range(rng.randint(1, 3))]
                phi = _few_letter_formula(rng, leaves + [ppl.FALSUM], rng.randint(1, 4))
            try:
                expected = taut_by_rows(phi, 10)
            except prop.ScopeCapError:
                capped += 1
                with pytest.raises(prop.ScopeCapError):
                    calculus.check_taut(phi, 10)
                continue
            assert calculus.check_taut(phi, 10) is expected, ppl.to_text(phi)
            accepted += expected
        assert accepted >= 300 and capped >= 50


def _few_letter_formula(rng, leaves, depth):
    """A random connective tree over the given leaves."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(leaves)
    pick = rng.randrange(6)
    if pick == 0:
        return ppl.pnot(_few_letter_formula(rng, leaves, depth - 1))
    ctor = (ppl.PplImplies, ppl.pand, ppl.por, ppl.piff, ppl.PplImplies)[pick - 1]
    return ctor(_few_letter_formula(rng, leaves, depth - 1), _few_letter_formula(rng, leaves, depth - 1))


class TestCheckRr:
    def test_bare_truth_atom(self):
        assert calculus.check_rr(ppl.parse("P(T) = 1")).status == rcof.VALID

    def test_upper_bound_step(self):
        phi = ppl.parse("P(B1 -> T) = 1 & P(T) = 1 -> P(B1) <= 1")
        assert calculus.check_rr(phi).status == rcof.VALID

    def test_refutable_instance_rejected(self):
        phi = ppl.parse("P(B1) = 1 -> P(B2) = 1")
        assert calculus.check_rr(phi).status == rcof.INVALID

    def test_shape_error_on_non_threshold_formula(self):
        with pytest.raises(calculus.RrShapeError):
            calculus.check_rr(ppl.parse("P(B1) = 1 & P(B2) = 1"))

    def test_greater_equal_hypotheses_accepted(self):
        phi = ppl.parse("P(B1) >= 1/2 -> P(B1 | B2) >= 1/2")
        assert calculus.check_rr(phi).status == rcof.VALID


class TestCheckDerivation:
    @pytest.mark.parametrize(
        "name",
        ["prob_at_most_one.ppl-proof", "marginal_sum.ppl-proof", "lifted_modus_ponens.ppl-proof"],
    )
    def test_shipped_scripts_accepted(self, name):
        report = calculus.check_derivation(load(name))
        assert report.accepted, [s for s in report.steps if not s.ok]

    def test_corrupted_mp_index_rejected_at_that_step(self):
        text = (FIXTURES / "prob_at_most_one.ppl-proof").read_text()
        bad = text.replace("; MP 5 6", "; MP 4 6")
        report = calculus.check_derivation(calculus.parse_script(bad))
        assert not report.accepted
        assert report.steps[-1].index == 7 and not report.steps[-1].ok

    def test_hypothesis_not_listed_rejected(self):
        d = calculus.Derivation((), ((ppl.parse("P(B1) = 1"), calculus.HYP),))
        report = calculus.check_derivation(d)
        assert not report.accepted

    def test_forward_references_rejected(self):
        d = calculus.Derivation(
            (),
            (
                (ppl.parse("P(B1) = 1"), calculus.Mp(1, 2)),
                (ppl.parse("P(B1) = 1 -> P(B1) = 1"), calculus.TAUT),
            ),
        )
        assert not calculus.check_derivation(d).accepted

    def test_prefixes_of_accepted_derivations_accepted(self):
        d = load("marginal_sum.ppl-proof")
        for cut in range(1, len(d.steps) + 1):
            prefix = calculus.Derivation(d.hypotheses, d.steps[:cut])
            assert calculus.check_derivation(prefix).accepted

    def test_report_json_shape(self):
        import json

        report = calculus.check_derivation(load("marginal_sum.ppl-proof"))
        payload = json.loads(report.to_json())
        assert payload["accepted"] is True
        assert len(payload["steps"]) == 7


class TestAdmissibleRules:
    def test_mp_star_produces_checked_derivation(self):
        d = calculus.mp_star(ppl.parse("P(B1) = 1"), ppl.parse("P(B1 -> B2) = 1"))
        assert d.conclusion == ppl.parse("P(B2) = 1")
        assert calculus.check_derivation(d).accepted

    def test_mp_star_shape_validated(self):
        with pytest.raises(calculus.AdmissibleRuleError):
            calculus.mp_star(ppl.parse("P(B1) = 1"), ppl.parse("P(B2 -> B1) = 1"))

    def test_taut_star_produces_checked_derivation(self):
        d = calculus.taut_star(prop.parse("B2 | !B2"))
        assert d.conclusion == ppl.parse("P(B2 | !B2) = 1")
        assert calculus.check_derivation(d).accepted

    def test_taut_star_rejects_non_tautology(self):
        with pytest.raises(calculus.AdmissibleRuleError):
            calculus.taut_star(B1)

    def test_dispatch_by_name(self):
        d = calculus.apply_admissible("TAUT*", prop.parse("B1 -> B1"))
        assert calculus.check_derivation(d).accepted
        with pytest.raises(calculus.AdmissibleRuleError):
            calculus.apply_admissible("CUT", ())


class TestClassicalLift:
    def test_requires_entailment(self):
        with pytest.raises(calculus.AdmissibleRuleError):
            calculus.derive_from_classical([B1], B2)

    @pytest.mark.parametrize(
        "premises,conclusion",
        [
            ([], "B1 -> B1"),
            (["B1 & B2"], "B2"),
            (["B1", "B1 -> B2"], "B2"),
            (["B1", "B2"], "B1 & B2"),
            (["B1 & !B1"], "B2"),
        ],
    )
    def test_lift_produces_accepted_derivations(self, premises, conclusion):
        d = calculus.derive_from_classical(
            [prop.parse(p) for p in premises], prop.parse(conclusion)
        )
        report = calculus.check_derivation(d)
        assert report.accepted, [s for s in report.steps if not s.ok]
        assert d.conclusion == ppl.PplAtom(prop.parse(conclusion), "=", rcof.ONE)


class TestScriptText:
    def test_round_trip(self):
        d = load("marginal_sum.ppl-proof")
        again = calculus.parse_script(calculus.format_script(d))
        assert again == d

    def test_misnumbered_steps_rejected(self):
        with pytest.raises(calculus.ScriptError):
            calculus.parse_script("2. P(B1) <= 1 ; RR")

    def test_hypotheses_must_come_first(self):
        with pytest.raises(calculus.ScriptError):
            calculus.parse_script("1. P(T) = 1 ; RR\nhyp: P(B1) = 1")

    def test_empty_script_rejected(self):
        with pytest.raises(calculus.ScriptError):
            calculus.parse_script("# nothing here\n")


def _satisfying_pairs(hypotheses, rng, count):
    """Random (valuation, assignment) pairs satisfying probability-one and
    variable-linked hypotheses."""
    certain = [
        h.alpha
        for h in hypotheses
        if isinstance(h, ppl.PplAtom) and h.relation == "=" and h.bound == rcof.ONE
    ]
    linked = [
        h
        for h in hypotheses
        if isinstance(h, ppl.PplAtom) and h.relation == "=" and isinstance(h.bound, rcof.Var)
    ]
    assert len(certain) + len(linked) == len(hypotheses), "unsupported hypothesis shape"
    carrier = frozenset().union(
        frozenset({1}), *(prop.atoms_of(h.alpha) for h in hypotheses)
    ) or frozenset({1})
    out = []
    for _ in range(count):
        if certain:
            models = prop.models_over(prop.conj_all(certain), carrier)
            support = [U for U in models if rng.random() < 0.7] or list(models)[:1]
            weights = [rng.randrange(1, 6) for _ in support]
            total = sum(weights)
            joint = stochval.FinDist.from_masks(
                carrier,
                {prop.mask_of(carrier, U): F(w, total) for U, w in zip(support, weights)},
            )
            V = stochval.StochasticValuation(carrier, joint)
        else:
            V = random_valuation(rng, carrier)
        rho = rcof.Assignment()
        for h in linked:
            rho.numeric[h.bound.index] = stochval.prob(V, h.alpha)
        out.append((V, rho))
    return out


class TestSoundness:
    def test_accepted_conclusions_hold_on_satisfying_pairs(self):
        rng = random.Random(59)
        corpus = [
            load("prob_at_most_one.ppl-proof"),
            load("marginal_sum.ppl-proof"),
            load("lifted_modus_ponens.ppl-proof"),
            calculus.mp_star(ppl.parse("P(B2) = 1"), ppl.parse("P(B2 -> B1) = 1")),
            calculus.taut_star(prop.parse("B1 | !B1")),
            calculus.derive_from_classical(
                [prop.parse("B1"), prop.parse("B2")], prop.parse("B1 & B2")
            ),
        ]
        for derivation in corpus:
            assert calculus.check_derivation(derivation).accepted
            for V, rho in _satisfying_pairs(derivation.hypotheses, rng, 25):
                for h in derivation.hypotheses:
                    assert ppl.ppl_sat(V, rho, h)
                assert ppl.ppl_sat(V, rho, derivation.conclusion)

    def test_accepted_rr_steps_are_valid_formulas(self):
        for name in ("prob_at_most_one.ppl-proof", "marginal_sum.ppl-proof", "lifted_modus_ponens.ppl-proof"):
            for formula, just in load(name).steps:
                if isinstance(just, calculus.Rr):
                    assert validity.decide_validity(formula).status == rcof.VALID

    def test_lifted_rr_steps_are_valid_formulas(self):
        rng = random.Random(67)
        pool = semantic_class_pool({1, 2})
        lifts = []
        for d1 in pool:
            for d2 in pool:
                for alpha in pool:
                    if prop.entails_c([d1, d2], alpha):
                        lifts.append(([d1, d2], alpha))
        rng.shuffle(lifts)
        for deltas, alpha in lifts[:10]:
            derivation = calculus.derive_from_classical(deltas, alpha)
            for formula, just in derivation.steps:
                if isinstance(just, calculus.Rr):
                    assert validity.decide_validity(formula).status == rcof.VALID


class TestConservativeLiftSample:
    def test_lift_checks_on_entailing_pool_sample(self):
        rng = random.Random(61)
        pool = semantic_class_pool({1, 2})
        positives = []
        for d1 in pool:
            for alpha in pool:
                if prop.entails_c([d1], alpha):
                    positives.append(([d1], alpha))
        rng.shuffle(positives)
        for deltas, alpha in positives[:25]:
            d = calculus.derive_from_classical(deltas, alpha)
            assert calculus.check_derivation(d).accepted
