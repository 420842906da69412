"""Seeded random malformed inputs through the in-process command line.

Every subcommand gets inputs that are mostly wrong: token soup for
``valid`` and ``emit-smt``, random proof scripts for ``check``, hypothesis
files and thresholds for ``pq-entail``, and distribution JSON with values of
the wrong type for ``prob`` and ``galois-demo``.  Every exit code must lie in
{0, 1, 2, 3}, and no exception but ``SystemExit`` (argparse's usage error)
may escape ``cli.main``.
"""

import importlib
import json
import pkgutil
import random
from fractions import Fraction

import pytest

import pplogic
from pplogic import cli, config, ppl, pqentail, prop, validity

EXIT_CODES = {0, 1, 2, 3}
CASES = 200  # per subcommand

PPL_TOKENS = [
    "P(", "P(B1)", "P(B2 & B3)", "P(T)", "P(F)", "P(!B1 | B2)", "(", ")", "B1", "B2",
    "x0", "x1", "=", "<", "<=", ">=", "->", "<->", "&", "|", "!", "0", "1", "2",
    "1/2", "3/4", "1/0", "q(1,2)", "q(1,0)", "q(x1,2)", "*", "+", "-", "T", "F",
    ",", "x", "P", "B", "#", "é",
]
PROP_TOKENS = ["B0", "B1", "B2", "B3", "T", "F", "!", "&", "|", "->", "<->", "(", ")", "B", "x", "1"]
FORMULAS = [
    "P(B1) <= 1",
    "P(B1) < 1/2",
    "P(B1 & !B2) = x1 & P(B1 & B2) = x2 -> P(B1) = x1 + x2",
    "P(B1) >= x1 * x1",
    "!P(B2) = 1 -> P(B2) < 1",
    "P(T) = 1",
]
THRESHOLDS = ["0", "1", "1/2", "1/4", "1/3", "3/4", "3/2", "2", "1/0", "0/0", "abc", "",
              "nan", "inf", "0.5", "1e3", " 1/2", "1/-2", "10/20"]
MASS_VALUES = [None, True, False, 1, 0, 0.5, [], ["1"], {}, {"1": "1"}, "x", "1/0", "-1/2", "2",
               "1/2", "1", "0", "1/4", "1/2", "1", "1/4", "1/3"]
MASS_KEYS = ["0", "1", "2", "3", "-1", "x", "00", "999", ""]
CARRIERS = [[1], [1, 2], [2, 3], [1], [1, 2], [], [True], [1.5], ["1"], None, [-1], [1, 1],
            {}, 7, [0]]


def soup(rng, tokens, longest=12) -> str:
    return " ".join(rng.choice(tokens) for _ in range(rng.randint(0, longest)))


def mutated(rng, text: str) -> str:
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        pick = rng.randrange(3)
        k = rng.randrange(len(chars) + 1)
        if pick == 0 and chars:
            del chars[min(k, len(chars) - 1)]
        elif pick == 1:
            chars.insert(k, rng.choice("()&|!<=>-1/x*PB "))
        elif chars:
            i, j = rng.randrange(len(chars)), rng.randrange(len(chars))
            chars[i], chars[j] = chars[j], chars[i]
    return "".join(chars)


def prop_text(rng) -> str:
    if rng.random() < 0.5:
        return soup(rng, PROP_TOKENS, 6)
    return f"{rng.choice(PROP_TOKENS[:6])} {rng.choice(['&', '|', '->'])} {rng.choice(PROP_TOKENS[:6])}"


def ppl_text(rng) -> str:
    pick = rng.randrange(3)
    if pick == 0:
        return soup(rng, PPL_TOKENS)
    if pick == 1:
        return mutated(rng, rng.choice(FORMULAS))
    op = rng.choice(["&", "|", "->", "<->"])
    return f"({rng.choice(FORMULAS)}) {op} {rng.choice(['!', ''])}({rng.choice(FORMULAS)})"


def global_options(rng) -> list:
    options = []
    if rng.random() < 0.3:
        options += ["--format", rng.choice(["text", "json"])]
    if rng.random() < 0.2:
        options += ["--scope-cap", rng.choice(["1", "2", "16"])]
    if rng.random() < 0.1:
        options += ["--clause-cap", rng.choice(["1", "4096"])]
    return options


def proof_script(rng) -> str:
    lines = []
    for _ in range(rng.randint(0, 2)):
        lines.append("hyp: " + rng.choice([ppl_text(rng), rng.choice(FORMULAS)]))
    for number in range(1, rng.randint(1, 5) + 1):
        formula = ppl_text(rng) if rng.random() < 0.2 else rng.choice(FORMULAS)
        rule = rng.choice(["HYP", "TAUT", "RR", "TAUT", "RR", "FOO",
                           f"MP {rng.randint(0, 6)} {rng.randint(0, 6)}",
                           "MP 99999999999999999999 1"])
        if rng.random() < 0.05:
            number += rng.choice([-1, 1])
        if rng.random() < 0.05:
            lines.append(rng.choice([f"{number} {formula}", formula]))
        else:
            lines.append(f"{number}. {formula} ; {rule}")
    return "\n".join(lines) + "\n"


def distribution_text(rng) -> str:
    if rng.random() < 0.1:
        return rng.choice(["", "{", "[]", "null", '"carrier"', '{"carrier":[1],"mass":{"0":"1"}'])
    if rng.random() < 0.3:
        # a well-formed distribution with at most one value replaced
        payload = {"carrier": [1, 2], "mass": {"0": "1/2", "3": "1/4", "1": "1/4"}}
        if rng.random() < 0.5:
            payload["mass"][rng.choice(MASS_KEYS)] = rng.choice(MASS_VALUES)
        return json.dumps(payload)
    keys = rng.sample(MASS_KEYS, rng.randint(0, 4))
    payload = {
        "carrier": rng.choice(CARRIERS),
        "mass": {k: rng.choice(MASS_VALUES) for k in keys} if rng.random() < 0.9 else [],
    }
    if rng.random() < 0.1:
        payload["extra"] = 1
    if rng.random() < 0.1:
        del payload["mass"]
    return json.dumps(payload)


def arguments(rng, command: str, tmp_path) -> list:
    """One random command line for ``command``; its input files go in
    ``tmp_path``."""
    path = tmp_path / "input"
    if command in ("valid", "emit-smt"):
        return [command, ppl_text(rng)]
    if command == "check":
        path.write_text(proof_script(rng))
        return [command, str(path)]
    if command == "pq-entail":
        path.write_text("\n".join(prop_text(rng) for _ in range(rng.randint(0, 3))))
        argv = [command, "--p", rng.choice(THRESHOLDS), "--q", rng.choice(THRESHOLDS),
                "--hyp", str(path), "--concl", prop_text(rng)]
        return argv + (["--hailperin"] if rng.random() < 0.3 else [])
    path.write_text(distribution_text(rng))
    if command == "prob":
        return [command, str(path), prop_text(rng)]
    return [command, str(path)]


@pytest.mark.parametrize("command", ["valid", "emit-smt", "check", "pq-entail", "prob", "galois-demo"])
def test_random_malformed_inputs_get_an_exit_code(command, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(config.SOLVER_ENV_VAR, raising=False)
    rng = random.Random(f"cli-robustness-{command}")
    for _ in range(CASES):
        argv = global_options(rng) + arguments(rng, command, tmp_path)
        try:
            code = cli.main(argv)
        except SystemExit as exited:
            code = exited.code
        capsys.readouterr()
        assert code in EXIT_CODES, argv


def _module_values() -> dict:
    return {
        f"{module.name}.{name}": value
        for module in pkgutil.iter_modules(pplogic.__path__, "pplogic.")
        for name, value in vars(importlib.import_module(module.name)).items()
        if not name.startswith("__")
    }


def test_every_module_cache_is_bounded(monkeypatch):
    # long-lived library use must not grow a functools cache without bound
    caches = {
        name: value.cache_info().maxsize
        for name, value in _module_values().items()
        if callable(getattr(value, "cache_info", None))
    }
    assert len(caches) >= 8
    assert [name for name, maxsize in caches.items() if maxsize is None] == []
    # nor any module-level dict, list or set: a memo kept in one would be
    # neither bounded nor emptied with the functools caches
    def sizes():
        return {
            name: len(value)
            for name, value in _module_values().items()
            if isinstance(value, (dict, list, set))
        }

    monkeypatch.delenv(config.SOLVER_ENV_VAR, raising=False)
    before = sizes()
    assert len(before) >= 2
    for text in ("P(B5) <= 1", "P(B5 & B6) < 1/3", "P(B5) = x1 -> P(B5 | B6) >= x1", "P(B6) < x2 * x2"):
        validity.decide_validity(ppl.parse(text))
    t = pqentail.ThresholdPair(Fraction(2, 3), Fraction(1, 3))
    for deltas, alpha in (([], "B5 | !B5"), (["B5", "B5 -> B6"], "B6"), (["B5 | B6"], "B5")):
        pqentail.collapse_check([prop.parse(d) for d in deltas], prop.parse(alpha), t)
    assert sizes() == before
