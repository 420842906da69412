"""Inputs and operations of the four workloads.

``build(name, seed, workdir)`` makes one round of operations from the seed.
Each operation calls the program through module attributes, so the tracer's
wrappers see the call, and its check compares the output with ``oracle``.
Inputs are made as oracle formulas, rendered to text and read by the
program's own parsers, so the oracle never looks at the program's trees.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import oracle
from pplogic import calculus, cli, ppl, pqentail, prop, rcof, stochval, validity

# Seeded atoms never include B1: the program's negation sugar P(T) < 1 spells
# T as B1 | !B1, which adds B1 to the scope of every formula using !, &, |,
# <= or >=.  Leaving B1 out makes that extra atom cost the same on every seed.
ATOMS = range(2, 31)
PROB_ATOMS = range(2, 18)

THRESHOLDS = [(Fraction(1), Fraction(1)), (Fraction(3, 4), Fraction(1, 2)),
              (Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 10), Fraction(1, 10))]


@dataclass
class Op:
    """One operation: ``run`` calls the program, ``check`` judges its output.

    ``scope`` is the atom count that a correct verdict proves the program
    handles; ``None`` for operations whose verdict is a refusal.
    """

    name: str
    run: Callable
    check: Callable
    scope: Optional[int] = None


# -- input makers ------------------------------------------------------------------

def class_pool(rng: random.Random, atom_indices, rounds: int = 3) -> list:
    """One formula per semantic class reachable by connective depth <= rounds
    over the atoms; the seed decides which formula represents each class."""
    order = sorted(atom_indices)
    rows = 1 << len(order)
    full = (1 << rows) - 1
    seen: dict = {}

    def add(tt, f):
        seen.setdefault(tt, f)

    for a in rng.sample(order, len(order)):
        add(oracle.truth_table(oracle.atom(a), order), oracle.atom(a))
    for _ in range(rounds):
        current = list(seen.items())
        rng.shuffle(current)
        for tt, f in current:
            add(full ^ tt, ("not", f))
        for ta, a in current:
            for tb, b in current:
                add((full ^ ta) | tb, ("imp", a, b))
                add(ta & tb, ("and", a, b))
                add(ta | tb, ("or", a, b))
    return list(seen.values())


def random_formula(rng: random.Random, atom_indices, depth: int) -> tuple:
    if depth == 0 or rng.random() < 0.25:
        return oracle.atom(rng.choice(atom_indices))
    tag = rng.choice(["not", "and", "or", "imp", "iff"])
    if tag == "not":
        return ("not", random_formula(rng, atom_indices, depth - 1))
    return (tag, random_formula(rng, atom_indices, depth - 1),
            random_formula(rng, atom_indices, depth - 1))


def formula_over(rng: random.Random, atom_indices) -> tuple:
    """A random formula mentioning every given atom exactly once."""
    parts = [oracle.atom(a) for a in atom_indices]
    rng.shuffle(parts)
    while len(parts) > 1:
        i = rng.randrange(len(parts) - 1)
        f = (rng.choice(["and", "or", "imp", "iff"]), parts[i], parts[i + 1])
        if rng.random() < 0.3:
            f = ("not", f)
        parts[i:i + 2] = [f]
    return parts[0]


def random_joint(rng: random.Random, n_atoms: int, support: int = None) -> dict:
    """Exact masses on masks of an n-atom carrier; dense unless ``support``
    caps the number of points."""
    n = 1 << n_atoms
    points = range(n) if support is None or support >= n else rng.sample(range(n), support)
    weights = {m: rng.randrange(1, 9) for m in points}
    total = sum(weights.values())
    return {m: Fraction(w, total) for m, w in weights.items()}


def valuation(carrier, masses) -> stochval.StochasticValuation:
    scope = frozenset(carrier)
    return stochval.StochasticValuation(scope, stochval.FinDist.from_masks(scope, masses))


def parse_prop(f: tuple):
    return prop.parse(oracle.to_text(f))


def run_cli(argv):
    """Exit code and standard output of an in-process ``pplogic`` command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def judged(op: Op, output) -> bool:
    """Whether ``output`` passes the operation's check; an output too
    malformed to check fails it."""
    try:
        return bool(op.check(output))
    except (ValueError, KeyError, TypeError, ArithmeticError):
        return False


def hypothesis_sets(pool):
    return [()] + [(a,) for a in pool] + list(itertools.combinations(pool, 2))


# -- collapse-sweep ------------------------------------------------------------------

DRAWN_3_ATOM_INSTANCES = 300


def collapse_sweep(rng: random.Random, workdir: Path) -> list:
    """Conjunctive threshold entailment against classical entailment: the
    exhaustive 2-atom class pool and a seeded draw of 3-atom instances."""
    atoms2 = rng.sample(ATOMS, 2)
    pool = [(f, parse_prop(f)) for f in class_pool(rng, atoms2)]
    pairs = [pqentail.ThresholdPair(p, q) for p, q in THRESHOLDS]
    instances = [(hs, alpha, pairs) for hs in hypothesis_sets(pool) for alpha in pool]
    atoms3 = rng.sample(ATOMS, 3)
    drawn = [random_formula(rng, atoms3, 3) for _ in range(60)]
    drawn = [(f, parse_prop(f)) for f in drawn]
    for _ in range(DRAWN_3_ATOM_INSTANCES):
        hs = tuple(rng.sample(drawn, rng.randrange(3)))
        instances.append((hs, rng.choice(drawn), [rng.choice(pairs)]))
    ops = []
    for hs, (alpha_t, alpha), thresholds in instances:
        expected = oracle.entails([h for h, _ in hs], alpha_t)
        deltas = [d for _, d in hs]
        scope = len(oracle.atoms(alpha_t).union(*(oracle.atoms(h) for h, _ in hs)))
        for t in thresholds:
            ops.append(Op(
                "collapse_check",
                lambda deltas=deltas, alpha=alpha, t=t: pqentail.collapse_check(deltas, alpha, t),
                lambda out, e=expected: out == (e, e),
                scope,
            ))
    return ops


# -- conservative-sweep ------------------------------------------------------------------

# Copies of the shipped proof scripts, so that the benchmark's inputs stay
# fixed when a fixture is edited.
PROOF_SCRIPTS = [
    """1. P(B1 -> T) = 1 ; RR
2. P(T) = 1 ; RR
3. P(B1 -> T) = 1 -> (P(T) = 1 -> P(B1 -> T) = 1 & P(T) = 1) ; TAUT
4. P(T) = 1 -> P(B1 -> T) = 1 & P(T) = 1 ; MP 1 3
5. P(B1 -> T) = 1 & P(T) = 1 ; MP 2 4
6. P(B1 -> T) = 1 & P(T) = 1 -> P(B1) <= 1 ; RR
7. P(B1) <= 1 ; MP 5 6
""",
    """hyp: P(B1 & !B2) = x1
hyp: P(B1 & B2) = x2
1. P(B1 & !B2) = x1 ; HYP
2. P(B1 & B2) = x2 ; HYP
3. P(B1 & !B2) = x1 -> (P(B1 & B2) = x2 -> P(B1 & !B2) = x1 & P(B1 & B2) = x2) ; TAUT
4. P(B1 & B2) = x2 -> P(B1 & !B2) = x1 & P(B1 & B2) = x2 ; MP 1 3
5. P(B1 & !B2) = x1 & P(B1 & B2) = x2 ; MP 2 4
6. P(B1 & !B2) = x1 & P(B1 & B2) = x2 -> P(B1) = x1 + x2 ; RR
7. P(B1) = x1 + x2 ; MP 5 6
""",
    """hyp: P(B1) = 1
hyp: P(B1 -> B2) = 1
1. P(B1) = 1 ; HYP
2. P(B1 -> B2) = 1 ; HYP
3. P(B1) = 1 -> (P(B1 -> B2) = 1 -> P(B1) = 1 & P(B1 -> B2) = 1) ; TAUT
4. P(B1 -> B2) = 1 -> P(B1) = 1 & P(B1 -> B2) = 1 ; MP 1 3
5. P(B1) = 1 & P(B1 -> B2) = 1 ; MP 2 4
6. P(B1) = 1 & P(B1 -> B2) = 1 -> P(B2) = 1 ; RR
7. P(B2) = 1 ; MP 5 6
""",
]

CONCLUSIONS_PER_HYPOTHESIS_SET = 2


def check_refutation(witness, phi, hyps, concl) -> bool:
    """The witness's distribution gives every premise probability 1 and the
    conclusion less."""
    V = validity.valuation_from_assignment(witness, validity.ppl_scope(phi))
    carrier = sorted(V.carrier)
    masses = dict(V.joint.mass)
    oracle.check_distribution(carrier, masses)
    return (all(oracle.prob(h, carrier, masses) == 1 for h in hyps)
            and oracle.prob(concl, carrier, masses) < 1)


def conservative_sweep(rng: random.Random, workdir: Path) -> list:
    """Validity of P(d1)=1 & ... -> P(a)=1 against classical entailment on a
    stratified share of the 2-atom pool; entailing instances are lifted to
    derivations and checked; the shipped proof scripts run too."""
    atoms2 = rng.sample(ATOMS, 2)
    pool = class_pool(rng, atoms2)
    ops = []
    for hs in hypothesis_sets(pool):
        for alpha in rng.sample(pool, CONCLUSIONS_PER_HYPOTHESIS_SET):
            text = " & ".join(f"P({oracle.to_text(d)}) = 1" for d in hs)
            goal = f"P({oracle.to_text(alpha)}) = 1"
            text = f"{text} -> {goal}" if hs else goal
            expected = oracle.entails(hs, alpha)
            scope = len(oracle.atoms(alpha).union(*(oracle.atoms(d) for d in hs)))

            def check(decision, text=text, hs=hs, alpha=alpha, expected=expected):
                if expected:
                    return decision.status == rcof.VALID
                return (decision.status == rcof.INVALID and decision.witness is not None
                        and check_refutation(decision.witness, ppl.parse(text), hs, alpha))

            ops.append(Op("decide_validity",
                          lambda text=text: validity.decide_validity(ppl.parse(text)),
                          check, scope))
            if expected:
                deltas = [parse_prop(d) for d in hs]
                concl = parse_prop(alpha)
                ops.append(Op(
                    "lifted_derivation",
                    lambda deltas=deltas, concl=concl: calculus.check_derivation(
                        calculus.derive_from_classical(deltas, concl)),
                    lambda report: report.accepted,
                    scope,
                ))
    for text in PROOF_SCRIPTS:
        ops.append(Op("proof_script",
                      lambda text=text: calculus.check_derivation(calculus.parse_script(text)),
                      lambda report: report.accepted and not report.unsupported,
                      2))
    return ops


# -- scope-ladder ------------------------------------------------------------------------

REFUTATION_SCOPES = range(4, 9)
CHAIN_SCOPES = range(4, 8)

# The oblivious-transfer theory of the shipped fixture, as (formula, probability)
OT_AXIOMS = [
    (("or", ("atom", 1), ("atom", 2)), Fraction(1)),
    (("and", ("not", ("atom", 5)), ("not", ("atom", 6))), Fraction(1)),
    (("imp", ("atom", 3), ("atom", 1)), Fraction(1)),
    (("imp", ("atom", 4), ("atom", 2)), Fraction(1)),
    (("or", ("atom", 3), ("atom", 4)), Fraction(1, 2)),
    (("imp", ("atom", 5), ("atom", 3)), Fraction(1)),
    (("imp", ("atom", 6), ("atom", 4)), Fraction(1)),
]


def rename(f: tuple, mapping) -> tuple:
    if f[0] == "atom":
        return ("atom", mapping[f[1]])
    return (f[0],) + tuple(rename(g, mapping) for g in f[1:])


def frac_text(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def witness_distribution(code, out):
    """(carrier, masses) of an INVALID verdict's witness, or None."""
    if code != 1:
        return None
    payload = json.loads(out)
    if payload.get("status") != "invalid" or not payload.get("witness"):
        return None
    return oracle.parse_distribution_json(payload["witness"]["distribution"])


def scope_ladder(rng: random.Random, workdir: Path) -> list:
    """In-process ``pplogic`` commands on growing scopes."""
    ops = []
    for n in REFUTATION_SCOPES:
        conj = oracle.conj_all(oracle.atom(a) for a in rng.sample(ATOMS, n))
        c = rng.choice([Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)])
        text = f"P({oracle.to_text(conj)}) < {frac_text(c)}"

        def check(result, conj=conj, c=c):
            dist = witness_distribution(*result)
            return dist is not None and oracle.prob(conj, *dist) >= c

        ops.append(Op("valid_refutation", lambda text=text: run_cli(["valid", text]), check, n))
    for n in CHAIN_SCOPES:
        indices = rng.sample(ATOMS, n)
        hyps = oracle.chain(indices)
        concl = oracle.atom(indices[-1])
        p = 1 - Fraction(1, n + rng.randrange(1, 5))
        bound = oracle.hailperin_bound(n, p)
        premise = " & ".join(f"P({oracle.to_text(h)}) >= {frac_text(p)}" for h in hyps)
        script = workdir / f"chain{n}.ppl-proof"
        script.write_text(f"1. {premise} -> P({oracle.to_text(concl)}) >= {frac_text(bound)} ; RR\n")
        accepted = 0 if oracle.hailperin_entails(n, p, bound) else 1
        ops.append(Op("check_chain", lambda path=str(script): run_cli(["check", path]),
                      lambda result, e=accepted: result[0] == e, n))
        hyp_file = workdir / f"chain{n}.hyp"
        hyp_file.write_text("".join(oracle.to_text(h) + "\n" for h in hyps))
        for q in (bound, bound + Fraction(1, 100)):
            argv = ["pq-entail", "--hailperin", "--p", frac_text(p), "--q", frac_text(q),
                    "--hyp", str(hyp_file), "--concl", oracle.to_text(concl)]
            entails = 0 if oracle.hailperin_entails(n, p, q) else 1
            ops.append(Op("hailperin_chain", lambda argv=argv: run_cli(argv),
                          lambda result, e=entails: result[0] == e, n))
    mapping = dict(zip(range(1, 7), rng.sample(ATOMS, 6)))
    axioms = [(rename(f, mapping), p) for f, p in OT_AXIOMS]
    theory = " & ".join(f"P({oracle.to_text(f)}) = {frac_text(p)}" for f, p in axioms)
    falsum = oracle.to_text(("and", ("atom", mapping[1]), ("not", ("atom", mapping[1]))))
    query = f"{theory} -> P({falsum}) = 1"

    def check_model(result):
        dist = witness_distribution(*result)
        return dist is not None and all(oracle.prob(f, *dist) == p for f, p in axioms)

    ops.append(Op("theory_consistency", lambda: run_cli(["valid", query]), check_model, 6))
    # Scope-edge operations on fixed inputs.  P(B1 & ... & B9) <= 1 is valid;
    # an RR step over 17 atoms is beyond the default scope cap of 16, which
    # the command reports as bad input (exit 2).
    edge9 = f"P({oracle.to_text(oracle.conj_all(oracle.atom(a) for a in range(1, 10)))}) <= 1"
    ops.append(Op("valid_scope9", lambda: run_cli(["valid", edge9]),
                  lambda result: result[0] == 0, 9))
    wide = workdir / "rr17.ppl-proof"
    wide.write_text(f"1. P({oracle.to_text(oracle.conj_all(oracle.atom(a) for a in range(1, 18)))}) <= 1 ; RR\n")
    ops.append(Op("check_scope17", lambda path=str(wide): run_cli(["check", path]),
                  lambda result: result[0] == 2, None))
    return ops


# -- semantics-mix -------------------------------------------------------------------------

ADAMS_CARRIER_SIZES = [1] * 30 + [2] * 24 + [3] * 6
ROUND_TRIP_SIZES = [6, 7, 8, 9]
PROB_SCOPES = [10, 11, 12, 13, 14]
CONSISTENCY_FAMILIES = 6
CONSISTENCY_CARRIER = 7


def semantics_mix(rng: random.Random, workdir: Path) -> list:
    """``stochval`` alone: assignment laws, round trips, formula
    probabilities with fair-coin atoms, and marginal families."""
    ops = []
    universe = rng.sample(ATOMS, 3)
    pools: dict = {}
    for size in ADAMS_CARRIER_SIZES:
        carrier = tuple(sorted(rng.sample(universe, size)))
        if carrier not in pools:
            pools[carrier] = [parse_prop(f) for f in class_pool(rng, carrier)]
        V = valuation(carrier, random_joint(rng, size))
        ops.append(Op("check_adams",
                      lambda V=V, pool=pools[carrier]: stochval.check_adams(stochval.psv(V), pool),
                      lambda report: report.ok, size))
    for size in ROUND_TRIP_SIZES:
        carrier = sorted(rng.sample(ATOMS, size))
        masses = random_joint(rng, size)
        V = valuation(carrier, masses)
        ops.append(Op(
            "round_trip",
            lambda V=V: stochval.svp(stochval.psv(V), V.carrier),
            lambda back, carrier=carrier, masses=masses: (
                sorted(back.carrier) == carrier and dict(back.joint.mass) == masses),
            size,
        ))
    for k in PROB_SCOPES:
        carrier = sorted(rng.sample(PROB_ATOMS, 12))
        masses = random_joint(rng, 12, support=64)
        f = formula_over(rng, rng.sample(PROB_ATOMS, k))
        expected = oracle.prob(f, carrier, masses)
        ops.append(Op("prob",
                      lambda V=valuation(carrier, masses), alpha=parse_prop(f): stochval.prob(V, alpha),
                      lambda value, e=expected: value == e, k))
    for i in range(CONSISTENCY_FAMILIES):
        carrier = sorted(rng.sample(ATOMS, CONSISTENCY_CARRIER))
        masses = random_joint(rng, CONSISTENCY_CARRIER)
        subs = [sorted(rng.sample(carrier, k)) for k in (2, 3, 4)]
        family = [(carrier, masses)] + [(s, oracle.marginal(carrier, masses, s)) for s in subs]
        consistent = i % 2 == 0
        if not consistent:
            # move mass between two points that differ on an atom of the
            # first sub-scope, so that marginal no longer matches
            bit = 1 << carrier.index(subs[0][0])
            m = rng.choice([m for m in masses if not m & bit])
            moved = masses[m] / 2
            bad = dict(masses)
            bad[m] -= moved
            bad[m | bit] = bad.get(m | bit, 0) + moved
            family[0] = (carrier, bad)
        dists = [stochval.FinDist.from_masks(frozenset(s), d) for s, d in family]
        ops.append(Op("check_consistency",
                      lambda dists=dists: stochval.check_consistency(dists),
                      lambda report, e=consistent: report.ok == e, CONSISTENCY_CARRIER))
    return ops


WORKLOADS = {
    "collapse-sweep": collapse_sweep,
    "conservative-sweep": conservative_sweep,
    "scope-ladder": scope_ladder,
    "semantics-mix": semantics_mix,
}


def build(name: str, seed: int, workdir: Path) -> list:
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), workdir)
