"""Tests of the benchmark's oracle and checks: they accept the program's
right answers and reject a flipped verdict or a perturbed witness.

    python3 -m pytest benchmark/test_oracle.py
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402
from pplogic import ppl, pqentail, prop, rcof, validity  # noqa: E402

B = oracle.atom


def first(ops, name):
    return next(op for op in ops if op.name == name)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("work")


def test_truth_tables_and_entailment():
    assert oracle.entails([B(1), ("imp", B(1), B(2))], B(2))
    assert not oracle.entails([("or", B(1), B(2))], B(1))
    assert oracle.entails([], ("or", B(3), ("not", B(3))))
    assert oracle.entails([("and", B(1), ("not", B(1)))], B(7))
    assert not oracle.entails([("iff", B(1), B(2))], ("and", B(1), B(2)))


def test_probability_with_fair_coins():
    masses = {0: F(1, 4), 1: F(3, 4)}  # carrier [2]: P(B2) = 3/4
    assert oracle.prob(B(2), [2], masses) == F(3, 4)
    assert oracle.prob(B(5), [2], masses) == F(1, 2)
    assert oracle.prob(("and", B(2), B(5)), [2], masses) == F(3, 8)
    assert oracle.prob(("or", B(2), ("not", B(2))), [2], masses) == 1
    with pytest.raises(ValueError):
        oracle.check_distribution([2], {0: F(1, 2)})


def test_hailperin_closed_form_matches_the_program():
    # the bound is reached: entailment holds at it and fails just above
    for n in (2, 3):
        hyps = [workloads.parse_prop(h) for h in oracle.chain(list(range(2, n + 2)))]
        concl = workloads.parse_prop(B(n + 1))
        p = F(5, 6)
        bound = oracle.hailperin_bound(n, p)
        for q in (bound, bound + F(1, 100)):
            assert pqentail.hailperin_entails(hyps, concl, p, q) == oracle.hailperin_entails(n, p, q)
    assert oracle.hailperin_bound(3, F(1, 2)) == 0


def test_collapse_check_rejects_a_flipped_verdict(workdir):
    ops = workloads.collapse_sweep(random.Random(1), workdir)
    for op in ops[:200]:
        classical, threshold = op.run()
        assert op.check((classical, threshold))
        assert not op.check((not classical, threshold))
        assert not op.check((classical, not threshold))


def test_validity_check_rejects_flipped_verdicts(workdir):
    ops = workloads.conservative_sweep(random.Random(2), workdir)
    decisions = [(op, op.run()) for op in ops if op.name == "decide_validity"][:60]
    assert {d.status for _, d in decisions} == {rcof.VALID, rcof.INVALID}
    for op, d in decisions:
        assert op.check(d)
        if d.status == rcof.VALID:
            assert not op.check(rcof.Decision(rcof.INVALID, witness=None))
        else:
            assert not op.check(rcof.Decision(rcof.VALID))


def test_refutation_check_rejects_perturbed_witnesses():
    hyps, concl = [("or", B(2), B(3))], B(2)
    phi = ppl.parse("P((B2 | B3)) = 1 -> P(B2) = 1")
    decision = validity.decide_validity(phi)
    assert decision.status == rcof.INVALID
    assert workloads.check_refutation(decision.witness, phi, hyps, concl)
    scope = validity.ppl_scope(phi)

    def point_mass(trues, weight=F(1)):
        probs = {prop.to_text(prop.phi(scope, U)): F(0) for U in prop.subsets_ascending(scope)}
        probs[prop.to_text(prop.phi(scope, frozenset(trues)))] = weight
        return rcof.Assignment({}, probs)

    def passes(witness):
        try:
            return workloads.check_refutation(witness, phi, hyps, concl)
        except ValueError:
            return False

    assert passes(point_mass({3}))  # B3 without B2 still refutes
    assert not passes(point_mass({2, 3}))  # the conclusion holds
    assert not passes(point_mass(set()))  # the premise fails
    assert not passes(point_mass({3}, F(1, 2)))  # not a distribution


def test_ladder_checks_reject_perturbed_witnesses(workdir):
    ops = workloads.scope_ladder(random.Random(3), workdir)
    op = first(ops, "valid_refutation")
    code, out = op.run()
    assert op.check((code, out))
    assert not op.check((0, "valid\n"))
    payload = json.loads(out)
    dist = payload["witness"]["distribution"]
    n = len(dist["carrier"])
    # all mass on the empty valuation: P(B.. & ..) = 0, still a distribution
    dist["mass"] = {"0": "1"}
    assert not op.check((code, json.dumps(payload)))
    dist["mass"] = {str((1 << n) - 1): "1/2"}
    assert not workloads.judged(op, (code, json.dumps(payload)))
    for name in ("check_chain", "hailperin_chain"):
        op = first(ops, name)
        code, _ = op.run()
        assert op.check((code, ""))
        assert not op.check((1 - code, ""))


def test_theory_model_check_rejects_a_perturbed_model(workdir):
    ops = workloads.scope_ladder(random.Random(4), workdir)
    op = first(ops, "theory_consistency")
    code, out = op.run()
    assert op.check((code, out))
    payload = json.loads(out)
    payload["witness"]["distribution"]["mass"] = {"0": "1"}
    assert not op.check((code, json.dumps(payload)))


def test_semantic_checks_reject_wrong_values(workdir):
    ops = workloads.semantics_mix(random.Random(5), workdir)
    op = first(ops, "prob")
    value = op.run()
    assert op.check(value)
    assert not op.check(value + F(1, 1000))
    op = first(ops, "round_trip")
    back = op.run()
    assert op.check(back)
    other = first([o for o in ops if o.name == "round_trip"][1:], "round_trip").run()
    assert not op.check(other)
    consistency = [o for o in ops if o.name == "check_consistency"]
    for o in consistency:
        report = o.run()
        assert o.check(report)
    assert {o.run().ok for o in consistency} == {True, False}
