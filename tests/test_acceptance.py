"""Acceptance suite: exact-identity and oracle-equivalence checks, one
criterion per test, each printing a PASS line with its elapsed time and
asserting its stated budget.  Everything is seeded and exact; no
tolerances anywhere.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F
from pathlib import Path

from pplogic import calculus, pqentail, ppl, prop, rcof, stochval, validity
from pplogic.config import Config

from .helpers import (
    grid_refuted,
    random_formula,
    random_linear_sentence,
    random_valuation,
    semantic_class_pool,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

SCRIPTS = [
    "prob_at_most_one.ppl-proof",
    "marginal_sum.ppl-proof",
    "lifted_modus_ponens.ppl-proof",
]


@contextmanager
def criterion(name: str, limit_s: float):
    start = time.perf_counter()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        elapsed = time.perf_counter() - start
        print(f"{'FAIL' if failed else 'PASS'} {name} ({elapsed:.2f}s, limit {limit_s:g}s)")
    assert elapsed < limit_s, f"{name} exceeded its {limit_s}s budget: {elapsed:.2f}s"


def _pool_cache():
    cache = {}

    def pool_for(carrier):
        carrier = frozenset(carrier)
        if carrier not in cache:
            cache[carrier] = semantic_class_pool(carrier)
        return cache[carrier]

    return pool_for


def test_01_probability_assignment_laws_on_random_valuations():
    # 500 random valuations with carriers of up to 3 atoms; the induced
    # formula-probability map satisfies the assignment laws P1-P4 on the
    # class-deduplicated pool of depth<=3 formulas over the carrier atoms
    with criterion("adams-law-suite", 10.0):
        rng = random.Random(101)
        pool_for = _pool_cache()
        sizes = [1] * 250 + [2] * 200 + [3] * 50
        rng.shuffle(sizes)
        checked = 0
        for size in sizes:
            carrier = frozenset(rng.sample([1, 2, 3], size))
            V = random_valuation(rng, carrier)
            report = stochval.check_adams(stochval.psv(V), pool_for(carrier))
            assert report.ok, report.violations[:3]
            checked += 1
        assert checked == 500


def test_02_galois_round_trips_exact():
    # valuation -> assignment -> valuation is the identity, and a
    # table-backed assignment is recovered on every point formula
    with criterion("galois-round-trip", 5.0):
        rng = random.Random(103)
        for _ in range(200):
            carrier = frozenset(rng.sample([1, 2, 3, 4], rng.randint(1, 3)))
            V = random_valuation(rng, carrier)
            assert stochval.svp(stochval.psv(V), carrier) == V
        for _ in range(200):
            carrier = frozenset(rng.sample([1, 2, 3], rng.randint(1, 2)))
            W = random_valuation(rng, carrier)
            table = stochval.TableAssignment(
                {
                    prop.phi(carrier, U): stochval.prob(W, prop.phi(carrier, U))
                    for U in prop.subsets_ascending(carrier)
                }
            )
            back = stochval.psv(stochval.svp(table, carrier))
            for U in prop.subsets_ascending(carrier):
                point = prop.phi(carrier, U)
                assert back(point) == table(point)


def test_03_threshold_entailment_collapses_to_classical():
    # exhaustive pool over atoms {1,2} modulo semantic deduplication
    # (16 classes, well under the 200-formula cap), all hypothesis sets of
    # size <= 2, four threshold pairs
    with criterion("collapse-theorem-sweep", 60.0):
        pool = semantic_class_pool({1, 2})
        assert len(pool) <= 200
        hypothesis_sets = (
            [()]
            + [(a,) for a in pool]
            + [tuple(c) for c in itertools.combinations(pool, 2)]
        )
        thresholds = [
            pqentail.ThresholdPair(F(1), F(1)),
            pqentail.ThresholdPair(F(3, 4), F(1, 2)),
            pqentail.ThresholdPair(F(1, 2), F(1, 2)),
            pqentail.ThresholdPair(F(1, 10), F(1, 10)),
        ]
        instances = 0
        for deltas in hypothesis_sets:
            for alpha in pool:
                for t in thresholds:
                    classical, threshold = pqentail.collapse_check(list(deltas), alpha, t)
                    assert classical == threshold, (
                        [prop.to_text(d) for d in deltas],
                        prop.to_text(alpha),
                        (t.p, t.q),
                    )
                    instances += 1
        assert instances == len(hypothesis_sets) * len(pool) * 4


def test_04_hypothesis_wise_counterexample_bit_exact():
    with criterion("split-hypothesis-counterexample", 1.0):
        contradiction = prop.parse("B1 & !B1")
        split = [prop.parse("B1"), prop.parse("!B1")]
        assert pqentail.hailperin_entails([contradiction], prop.BOTTOM, F(1, 2), F(1, 4)) is True
        assert pqentail.hailperin_entails(split, prop.BOTTOM, F(1, 2), F(1, 4)) is False
        assert (
            pqentail.pq_entails(split, prop.BOTTOM, pqentail.ThresholdPair(F(1, 2), F(1, 4)))
            is True
        )


def test_05_shipped_proof_scripts_accepted_internally(monkeypatch):
    # the internal linear decider discharges every side condition; no
    # external solver is configured or consulted
    monkeypatch.delenv("PPLOGIC_SOLVER", raising=False)
    with criterion("proof-script-fixtures", 5.0):
        config = Config()
        assert config.resolved_solver() is None
        for name in SCRIPTS:
            derivation = calculus.parse_script((FIXTURES / name).read_text())
            report = calculus.check_derivation(derivation, config)
            assert report.accepted, (name, [s for s in report.steps if not s.ok])
            assert not report.unsupported


def test_06_validity_decision_examples():
    with criterion("validity-decision-examples", 30.0):
        rng = random.Random(107)
        for _ in range(20):
            alpha = random_formula(rng, {1, 2, 3}, 3)
            assert validity.decide_validity(ppl.ple(alpha, rcof.ONE)).status == rcof.VALID
        marginal_sum = ppl.parse(
            "P(B1 & !B2) = x1 & P(B1 & B2) = x2 -> P(B1) = x1 + x2"
        )
        assert validity.decide_validity(marginal_sum).status == rcof.VALID
        for _ in range(10):
            a = random_formula(rng, {1, 2, 3}, 2)
            b = random_formula(rng, {1, 2, 3}, 2)
            additivity = ppl.PplImplies(
                ppl.pand(
                    ppl.pand(
                        ppl.PplAtom(a, "=", rcof.Var(1)),
                        ppl.PplAtom(b, "=", rcof.Var(2)),
                    ),
                    ppl.PplAtom(prop.conj(a, b), "=", rcof.Var(3)),
                ),
                ppl.PplAtom(
                    prop.disj(a, b),
                    "=",
                    rcof.Add(rcof.Add(rcof.Var(1), rcof.Var(2)), rcof.Neg(rcof.Var(3))),
                ),
            )
            assert validity.decide_validity(additivity).status == rcof.VALID
        phi = ppl.parse("P(B1) < 1/2")
        decision = validity.decide_validity(phi)
        assert decision.status == rcof.INVALID
        witness_valuation = validity.valuation_from_assignment(
            decision.witness, validity.ppl_scope(phi)
        )
        assert stochval.prob(witness_valuation, prop.Atom(1)) >= F(1, 2)
        assert ppl.ppl_sat(witness_valuation, decision.witness, phi) is False


def test_07_classical_entailment_embeds_conservatively():
    # on the collapse pool, validity of the translated implication agrees
    # with classical entailment on every instance; every entailing instance
    # additionally lifts to an accepted derivation
    with criterion("conservative-translation-sweep", 60.0):
        pool = semantic_class_pool({1, 2})
        hypothesis_sets = (
            [()]
            + [(a,) for a in pool]
            + [tuple(c) for c in itertools.combinations(pool, 2)]
        )
        lifted = 0
        for deltas in hypothesis_sets:
            for alpha in pool:
                premises = [ppl.PplAtom(d, "=", rcof.ONE) for d in deltas]
                implication = ppl.ppl_entails_reduction(
                    premises, ppl.PplAtom(alpha, "=", rcof.ONE)
                )
                verdict = validity.decide_validity(implication).status == rcof.VALID
                classical = prop.entails_c(list(deltas), alpha)
                assert verdict == classical, (
                    [prop.to_text(d) for d in deltas],
                    prop.to_text(alpha),
                )
                if classical:
                    derivation = calculus.derive_from_classical(list(deltas), alpha)
                    assert calculus.check_derivation(derivation).accepted
                    lifted += 1
        assert lifted > 1000


def test_08_linear_decider_matches_grid_oracle_and_external_path():
    with criterion("linear-decider-oracle", 60.0):
        rng = random.Random(109)
        for _ in range(100):
            n_vars = rng.randint(1, 4)
            matrix = random_linear_sentence(rng, n_vars)
            decision = rcof.decide_universal_linear(matrix)
            assert decision.status in (rcof.VALID, rcof.INVALID)
            if decision.status == rcof.INVALID:
                assert rcof.eval_formula(matrix, decision.witness) is False
            refuted = grid_refuted(matrix)
            assert refuted == (decision.status == rcof.INVALID), rcof.emit_smtlib(matrix)
        # external path: only when a solver is available on this machine
        solver = Config().resolved_solver()
        if solver is None:
            print("  (external SMT path: no solver available, skipped)")
        else:
            for _ in range(50):
                matrix = random_linear_sentence(rng, rng.randint(1, 3))
                internal = rcof.decide_universal_linear(matrix).status
                external = rcof.run_external(matrix, solver, 30).status
                if external != rcof.UNSUPPORTED:
                    assert internal == external


def test_09_soundness_harness_over_the_derivation_corpus():
    # every accepted derivation's conclusion holds on random
    # hypothesis-satisfying pairs of (valuation, assignment)
    with criterion("soundness-harness", 30.0):
        rng = random.Random(113)
        corpus = [
            calculus.parse_script((FIXTURES / name).read_text()) for name in SCRIPTS
        ] + [
            calculus.mp_star(ppl.parse("P(B2) = 1"), ppl.parse("P(B2 -> B3) = 1")),
            calculus.taut_star(prop.parse("B1 -> B1 | B2")),
            calculus.derive_from_classical(
                [prop.parse("B1"), prop.parse("B1 -> B2")], prop.parse("B2")
            ),
            calculus.derive_from_classical(
                [prop.parse("B1 | B2"), prop.parse("!B1")], prop.parse("B2")
            ),
        ]
        for derivation in corpus:
            assert calculus.check_derivation(derivation).accepted
            for _ in range(100):
                V, rho = _satisfying_pair(derivation.hypotheses, rng)
                for h in derivation.hypotheses:
                    assert ppl.ppl_sat(V, rho, h)
                assert ppl.ppl_sat(V, rho, derivation.conclusion)


def _satisfying_pair(hypotheses, rng):
    certain = [
        h.alpha
        for h in hypotheses
        if isinstance(h, ppl.PplAtom) and h.relation == "=" and h.bound == rcof.ONE
    ]
    linked = [
        h
        for h in hypotheses
        if isinstance(h, ppl.PplAtom)
        and h.relation == "="
        and isinstance(h.bound, rcof.Var)
    ]
    assert len(certain) + len(linked) == len(hypotheses)
    carrier = frozenset({1})
    for h in hypotheses:
        carrier = carrier | prop.atoms_of(h.alpha)
    if certain:
        models = prop.models_over(prop.conj_all(certain), carrier)
        support = [U for U in models if rng.random() < 0.7] or sorted(models, key=len)[:1]
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
    return V, rho
