"""Command-line front door.

Subcommands: prob, valid, pq-entail, check, emit-smt, galois-demo.
Exit codes follow each subcommand's contract; 2 always means bad input.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import calculus, pqentail, ppl, prop, rcof, stochval, validity
from .config import Config


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pplogic",
        description="probabilistic propositional logic workbench",
    )
    parser.add_argument("--solver", help="external SMT command for nonlinear sentences")
    parser.add_argument("--timeout", type=float, default=30.0, help="solver timeout in seconds")
    parser.add_argument("--format", choices=("text", "json"), default="text", dest="fmt")
    parser.add_argument("--scope-cap", type=int, default=16)
    parser.add_argument("--clause-cap", type=int, default=4096)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prob", help="exact probability of a formula under a stored valuation")
    p.add_argument("valuation", help="path to a distribution JSON file")
    p.add_argument("formula", help="propositional formula, e.g. 'B1 | B2'")

    p = sub.add_parser("valid", help="decide validity of a probability-logic formula")
    p.add_argument("formula", help="e.g. 'P(B1) <= 1'")

    p = sub.add_parser("pq-entail", help="threshold entailment between classical formulas")
    p.add_argument("--p", required=True, help="hypothesis threshold, e.g. 1/2")
    p.add_argument("--q", required=True, help="conclusion threshold, e.g. 1/4")
    p.add_argument("--hyp", required=True, help="file with one hypothesis formula per line")
    p.add_argument("--concl", required=True, help="conclusion formula")
    p.add_argument(
        "--hailperin",
        action="store_true",
        help="threshold each hypothesis separately instead of their conjunction",
    )

    p = sub.add_parser("check", help="check a proof script")
    p.add_argument("script", help="path to a proof script")

    p = sub.add_parser("emit-smt", help="print the SMT-LIB validity query for a formula")
    p.add_argument("formula")

    p = sub.add_parser("galois-demo", help="round-trip a valuation through its formula probabilities")
    p.add_argument("valuation", help="path to a distribution JSON file")
    return parser


def _config(args) -> Config:
    return Config(
        solver=args.solver,
        timeout=args.timeout,
        scope_cap=args.scope_cap,
        clause_cap=args.clause_cap,
    )


def _load_valuation(path: str) -> stochval.StochasticValuation:
    with open(path, "r", encoding="utf-8") as handle:
        return stochval.valuation_from_json(handle.read())


def _witness_payload(witness: rcof.Assignment, scope) -> dict:
    payload = {
        "numeric": {str(k): str(v) for k, v in sorted(witness.numeric.items())},
        "probability": {k: str(v) for k, v in sorted(witness.probs.items())},
    }
    if scope:
        V = validity.valuation_from_assignment(witness, scope)
        payload["distribution"] = json.loads(stochval.dist_to_json(V.joint))
    return payload


def _cmd_prob(args) -> int:
    try:
        V = _load_valuation(args.valuation)
        alpha = prop.parse(args.formula)
        value = stochval.prob(V, alpha, cap=args.scope_cap)
    except (OSError, stochval.DistributionError, prop.ParseError, prop.ScopeCapError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.fmt == "json":
        print(json.dumps({"probability": str(value)}))
    else:
        print(value)
    return 0


def _cmd_valid(args) -> int:
    config = _config(args)
    try:
        phi = ppl.parse(args.formula)
        decision = validity.decide_validity(phi, config)
    except (ppl.PplParseError, prop.ScopeCapError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if decision.status == rcof.VALID:
        print(json.dumps({"status": "valid"}) if args.fmt == "json" else "valid")
        return 0
    if decision.status == rcof.INVALID:
        payload = {"status": "invalid", "witness": None}
        if decision.witness is not None:
            payload["witness"] = _witness_payload(decision.witness, validity.ppl_scope(phi))
        print(json.dumps(payload, indent=None if args.fmt == "json" else 2))
        return 1
    print(f"unsupported: {decision.reason}", file=sys.stderr)
    return 3


def _read_hypotheses(path: str) -> list:
    formulas = []
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            line = raw.split("#", 1)[0].strip()
            if line:
                formulas.append(prop.parse(line))
    return formulas


def _cmd_pq_entail(args) -> int:
    try:
        p, q = Fraction(args.p), Fraction(args.q)
        hyps = _read_hypotheses(args.hyp)
        concl = prop.parse(args.concl)
        if args.hailperin:
            entails = pqentail.hailperin_entails(hyps, concl, p, q, cap=args.scope_cap)
        else:
            entails = pqentail.pq_entails(
                hyps, concl, pqentail.ThresholdPair(p, q), cap=args.scope_cap
            )
    except (
        OSError,
        ValueError,
        ZeroDivisionError,
        prop.ParseError,
        prop.ScopeCapError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.fmt == "json":
        print(json.dumps({"entails": entails, "p": str(p), "q": str(q)}))
    else:
        print("entails" if entails else "does not entail")
    return 0 if entails else 1


def _cmd_check(args) -> int:
    config = _config(args)
    try:
        with open(args.script, "r", encoding="utf-8") as handle:
            derivation = calculus.parse_script(handle.read())
    except (OSError, calculus.ScriptError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    report = calculus.check_derivation(derivation, config)
    if args.fmt == "json":
        print(report.to_json())
    else:
        for step in report.steps:
            mark = "ok" if step.ok else "FAIL"
            suffix = f"  ({step.detail})" if step.detail else ""
            print(f"step {step.index}: {mark} [{step.rule}]{suffix}")
        print("accepted" if report.accepted else "rejected")
    if report.unsupported:
        return 2
    return 0 if report.accepted else 1


def _cmd_emit_smt(args) -> int:
    config = _config(args)
    try:
        phi = ppl.parse(args.formula)
        scope = validity.ppl_scope(phi)
        alphas = validity.probability_formulas(phi)
        matrix = rcof.Implies(
            ppl.build_Q(alphas, scope, cap=config.scope_cap), ppl.translate(phi)
        )
    except (ppl.PplParseError, prop.ScopeCapError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    sys.stdout.write(rcof.emit_smtlib(matrix))
    return 0


def _cmd_galois_demo(args) -> int:
    try:
        V = _load_valuation(args.valuation)
        prop._check_enumerable(V.carrier, args.scope_cap)
        P = stochval.psv(V)
        rows = []
        for U in prop.subsets_ascending(V.carrier):
            point = prop.phi(V.carrier, U)
            rows.append((prop.to_text(point), P(point)))
        back = stochval.svp(P, V.carrier)
    except (OSError, stochval.DistributionError, prop.ScopeCapError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    round_trip = back == V
    if args.fmt == "json":
        print(
            json.dumps(
                {
                    "point_probabilities": {name: str(v) for name, v in rows},
                    "round_trip_equal": round_trip,
                    "distribution": json.loads(stochval.dist_to_json(back.joint)),
                }
            )
        )
    else:
        for name, v in rows:
            print(f"P({name}) = {v}")
        print(f"round trip equal: {round_trip}")
    return 0 if round_trip else 1


_COMMANDS = {
    "prob": _cmd_prob,
    "valid": _cmd_valid,
    "pq-entail": _cmd_pq_entail,
    "check": _cmd_check,
    "emit-smt": _cmd_emit_smt,
    "galois-demo": _cmd_galois_demo,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    for name in ("timeout", "scope_cap", "clause_cap"):
        if not getattr(args, name) > 0:
            parser.error(f"--{name.replace('_', '-')} must be positive")
    try:
        return _COMMANDS[args.command](args)
    except RecursionError:
        print("error: formula nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
