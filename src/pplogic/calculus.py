"""Hilbert-style derivation checking for the probability logic.

Rules: HYP (a listed hypothesis), TAUT (the formula abstracts to a
propositional tautology over its probability atoms, ``P(T) < 1`` counting
as false), RR (the formula is a threshold implication that
``validity.decide_validity`` proves) and MP i j (step j is the implication
from step i to the current formula).

Proof-script text format::

    # comment
    hyp: <formula>
    1. <formula> ; HYP
    2. <formula> ; RR
    3. <formula> ; MP 1 2
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Iterable, Union

from . import ppl, prop, rcof, validity
from .config import Config


class RrShapeError(ValueError):
    """Formula is not a threshold implication of probability atoms."""


class ScriptError(ValueError):
    """Malformed proof-script text."""


class AdmissibleRuleError(ValueError):
    """Inputs do not fit the requested admissible rule."""


# -- justifications and derivations ----------------------------------------------

@dataclass(frozen=True)
class Hyp:
    pass


@dataclass(frozen=True)
class Taut:
    pass


@dataclass(frozen=True)
class Rr:
    pass


@dataclass(frozen=True)
class Mp:
    premise: int  # 1-based index of the antecedent step
    implication: int  # 1-based index of the implication step


Justification = Union[Hyp, Taut, Rr, Mp]

HYP, TAUT, RR = Hyp(), Taut(), Rr()


@dataclass(frozen=True)
class Derivation:
    hypotheses: tuple
    steps: tuple  # of (PplFormula, Justification)

    @property
    def conclusion(self) -> ppl.PplFormula:
        return self.steps[-1][0]


# -- TAUT ------------------------------------------------------------------------

def check_taut(phi: ppl.PplFormula, cap: int = prop.DEFAULT_SCOPE_CAP) -> bool:
    """Whether the formula abstracts to a propositional tautology: each
    distinct probability atom becomes a letter ``B1``, ``B2``, ... and
    ``P(T) < 1`` becomes ``F``, false as under every valuation, and
    ``prop.entails_c`` truth-tables the result.

    Raises ``prop.ScopeCapError`` above ``cap`` distinct atoms.
    """
    letters = {ppl.FALSUM: prop.BOTTOM}  # F is B1 & !B1, so it adds no letter

    def abstract(f):
        if isinstance(f, ppl.PplAtom):
            if f not in letters:
                letters[f] = prop.Atom(len(letters))
            return letters[f]
        return prop.Implies(abstract(f.antecedent), abstract(f.consequent))

    return prop.entails_c([], abstract(phi), cap)


# -- RR --------------------------------------------------------------------------

def _is_threshold_atom(phi: ppl.PplFormula) -> bool:
    """P(alpha) REL t for REL in =, <, and the sugar <=, >=."""
    return (
        isinstance(phi, ppl.PplAtom)
        or ppl._le_parts(phi) is not None
        or ppl._ge_parts(phi) is not None
    )


def _is_threshold_conjunction(phi: ppl.PplFormula) -> bool:
    if _is_threshold_atom(phi):
        return True
    parts = ppl.CONNECTIVES.and_parts(phi)
    return parts is not None and all(map(_is_threshold_conjunction, parts))


def check_rr(phi: ppl.PplFormula, config: Config = None) -> rcof.Decision:
    """Decide whether ``phi`` is an RR axiom instance: a threshold
    implication that ``validity.decide_validity`` proves.

    The shape is a bare threshold atom or an implication from a conjunction
    of threshold atoms to one; any other raises ``RrShapeError``.
    """
    if not _is_threshold_atom(phi) and not (
        isinstance(phi, ppl.PplImplies)
        and _is_threshold_atom(phi.consequent)
        and _is_threshold_conjunction(phi.antecedent)
    ):
        raise RrShapeError(f"not a threshold implication: {ppl.to_text(phi)}")
    return validity.decide_validity(phi, config)


# -- derivation checking ------------------------------------------------------------

@dataclass
class StepVerdict:
    index: int
    ok: bool
    rule: str
    detail: str = ""


@dataclass
class DerivationReport:
    accepted: bool
    unsupported: bool
    steps: list = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(
            {
                "accepted": self.accepted,
                "unsupported": self.unsupported,
                "steps": [
                    {"index": s.index, "ok": s.ok, "rule": s.rule, "detail": s.detail}
                    for s in self.steps
                ],
            },
            indent=2,
        )


def check_derivation(d: Derivation, config: Config = None) -> DerivationReport:
    """One forward pass over the steps; stops at the first failure."""
    config = config or Config()
    report = DerivationReport(accepted=True, unsupported=False)
    formulas = [f for f, _ in d.steps]
    for idx, (formula, just) in enumerate(d.steps, start=1):
        if isinstance(just, Hyp):
            ok = formula in d.hypotheses
            detail = "" if ok else "formula is not a listed hypothesis"
            verdict = StepVerdict(idx, ok, "HYP", detail)
        elif isinstance(just, Taut):
            try:
                ok = check_taut(formula, config.scope_cap)
                detail = "" if ok else "abstraction is not a propositional tautology"
            except prop.ScopeCapError as e:
                report.unsupported = True
                ok, detail = False, f"side condition {rcof.UNSUPPORTED}: {e}"
            verdict = StepVerdict(idx, ok, "TAUT", detail)
        elif isinstance(just, Rr):
            try:
                decision = check_rr(formula, config)
            except RrShapeError as e:
                decision, detail = None, str(e)
                ok = False
            except prop.ScopeCapError as e:
                decision = rcof.Decision(rcof.UNSUPPORTED, reason=str(e))
            if decision is not None:
                if decision.status == rcof.UNSUPPORTED:
                    report.unsupported = True
                ok = decision.status == rcof.VALID
                detail = "" if ok else f"side condition {decision.status}: {decision.reason or 'refutable'}"
            verdict = StepVerdict(idx, ok, "RR", detail)
        else:
            i, j = just.premise, just.implication
            if not (1 <= i < idx and 1 <= j < idx):
                ok, detail = False, f"MP {i} {j} does not reference earlier steps"
            else:
                expected = ppl.PplImplies(formulas[i - 1], formula)
                ok = formulas[j - 1] == expected
                detail = "" if ok else f"step {j} is not (step {i}) -> (this step)"
            verdict = StepVerdict(idx, ok, f"MP {just.premise} {just.implication}", detail)
        report.steps.append(verdict)
        if not verdict.ok:
            report.accepted = False
            break
    return report


# -- admissible rules ----------------------------------------------------------------

def _prob_one(alpha: prop.PropFormula) -> ppl.PplAtom:
    return ppl.PplAtom(alpha, "=", rcof.ONE)


def _conjoin_steps(a: ppl.PplFormula, b: ppl.PplFormula, ia: int, ib: int, start: int) -> list:
    """TAUT/MP/MP steps deriving a & b from steps ia (a) and ib (b)."""
    both = ppl.pand(a, b)
    return [
        (ppl.PplImplies(a, ppl.PplImplies(b, both)), TAUT),
        (ppl.PplImplies(b, both), Mp(ia, start)),
        (both, Mp(ib, start + 1)),
    ]


def mp_star(first: ppl.PplFormula, second: ppl.PplFormula) -> Derivation:
    """Derivation template lifting classical modus ponens.

    Inputs must be P(a) = 1 and P(a -> b) = 1; the derivation concludes
    P(b) = 1 and carries both inputs as hypotheses.
    """
    if not (
        isinstance(first, ppl.PplAtom)
        and first.relation == "="
        and first.bound == rcof.ONE
        and isinstance(second, ppl.PplAtom)
        and second.relation == "="
        and second.bound == rcof.ONE
        and isinstance(second.alpha, prop.Implies)
        and second.alpha.antecedent == first.alpha
    ):
        raise AdmissibleRuleError("inputs must be P(a) = 1 and P(a -> b) = 1")
    conclusion = _prob_one(second.alpha.consequent)
    both = ppl.pand(first, second)
    steps = [
        (first, HYP),
        (second, HYP),
        *_conjoin_steps(first, second, 1, 2, 3),
        (ppl.PplImplies(both, conclusion), RR),
        (conclusion, Mp(5, 6)),
    ]
    return Derivation((first, second), tuple(steps))


def taut_star(alpha: prop.PropFormula) -> Derivation:
    """Derivation of P(alpha) = 1 for a classical tautology alpha."""
    if not prop.entails_c([], alpha):
        raise AdmissibleRuleError(f"{prop.to_text(alpha)} is not a classical tautology")
    truth = ppl.TRUTH
    target = _prob_one(alpha)
    steps = [
        (truth, RR),
        (ppl.PplImplies(truth, target), RR),
        (target, Mp(1, 2)),
    ]
    return Derivation((), tuple(steps))


def apply_admissible(rule: str, inputs) -> Derivation:
    """Dispatch on the admissible-rule name: "MP*" or "TAUT*"."""
    if rule == "MP*":
        first, second = inputs
        return mp_star(first, second)
    if rule == "TAUT*":
        (alpha,) = inputs if isinstance(inputs, (tuple, list)) else (inputs,)
        return taut_star(alpha)
    raise AdmissibleRuleError(f"unknown admissible rule {rule!r}")


def derive_from_classical(premises: Iterable[prop.PropFormula], conclusion: prop.PropFormula) -> Derivation:
    """Lift a classical entailment into a checkable derivation.

    From hypotheses P(d) = 1 it derives the conjunction's probability-one
    statement step by step, turns the (tautological) implication from the
    conjunction to the conclusion into a probability-one statement, and
    finishes with the lifted modus ponens tail.  Requires the premises to
    classically entail the conclusion.
    """
    premises = sorted(set(premises), key=prop.to_text)
    if not prop.entails_c(premises, conclusion):
        raise AdmissibleRuleError("premises do not classically entail the conclusion")
    if not premises:
        return taut_star(conclusion)
    hyps = tuple(_prob_one(d) for d in premises)
    steps = [(h, HYP) for h in hyps]
    current = premises[0]
    current_idx = 1
    for k, delta in enumerate(premises[1:], start=2):
        a, b = _prob_one(current), _prob_one(delta)
        start = len(steps) + 1
        steps.extend(_conjoin_steps(a, b, current_idx, k, start))
        combined = prop.conj(current, delta)
        steps.append((ppl.PplImplies(ppl.pand(a, b), _prob_one(combined)), RR))
        steps.append((_prob_one(combined), Mp(start + 2, start + 3)))
        current = combined
        current_idx = len(steps)
    bridge = prop.Implies(current, conclusion)
    steps.append((ppl.TRUTH, RR))
    steps.append((ppl.PplImplies(ppl.TRUTH, _prob_one(bridge)), RR))
    steps.append((_prob_one(bridge), Mp(len(steps) - 1, len(steps))))
    a, b = _prob_one(current), _prob_one(bridge)
    ia, ib = current_idx, len(steps)
    start = len(steps) + 1
    steps.extend(_conjoin_steps(a, b, ia, ib, start))
    steps.append((ppl.PplImplies(ppl.pand(a, b), _prob_one(conclusion)), RR))
    steps.append((_prob_one(conclusion), Mp(start + 2, start + 3)))
    return Derivation(hyps, tuple(steps))


# -- proof-script text ---------------------------------------------------------------

_STEP_RE = re.compile(r"^(\d+)\.\s*(.*?)\s*;\s*(HYP|TAUT|RR|MP\s+\d+\s+\d+)$")


def parse_script(text: str) -> Derivation:
    hypotheses = []
    steps = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("hyp:"):
            if steps:
                raise ScriptError(f"line {lineno}: hypotheses must precede steps")
            try:
                hypotheses.append(ppl.parse(line[4:].strip()))
            except ppl.PplParseError as e:
                raise ScriptError(f"line {lineno}: {e}") from None
            continue
        m = _STEP_RE.match(line)
        if m is None:
            raise ScriptError(f"line {lineno}: expected `n. <formula> ; RULE`")
        number, formula_text, rule = int(m.group(1)), m.group(2), m.group(3)
        if number != len(steps) + 1:
            raise ScriptError(f"line {lineno}: step numbered {number}, expected {len(steps) + 1}")
        try:
            formula = ppl.parse(formula_text)
        except ppl.PplParseError as e:
            raise ScriptError(f"line {lineno}: {e}") from None
        if rule == "HYP":
            just: Justification = HYP
        elif rule == "TAUT":
            just = TAUT
        elif rule == "RR":
            just = RR
        else:
            _, i, j = rule.split()
            just = Mp(int(i), int(j))
        steps.append((formula, just))
    if not steps:
        raise ScriptError("script has no steps")
    return Derivation(tuple(hypotheses), tuple(steps))


def format_script(d: Derivation) -> str:
    lines = [f"hyp: {ppl.to_text(h)}" for h in d.hypotheses]
    for idx, (formula, just) in enumerate(d.steps, start=1):
        if isinstance(just, Mp):
            rule = f"MP {just.premise} {just.implication}"
        else:
            rule = {Hyp: "HYP", Taut: "TAUT", Rr: "RR"}[type(just)]
        lines.append(f"{idx}. {ppl.to_text(formula)} ; {rule}")
    return "\n".join(lines) + "\n"
