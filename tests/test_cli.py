import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

from pplogic import calculus, cli, config, ppl, pqentail, prop, rcof, stochval, validity
from pplogic.config import Config

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SCHEMAS = Path(__file__).resolve().parent.parent / "src" / "pplogic" / "schemas"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def validate(payload, schema_name):
    from referencing import Registry, Resource

    registry = Registry().with_resources(
        (path.name, Resource.from_contents(json.loads(path.read_text())))
        for path in SCHEMAS.glob("*.json")
    )
    schema = json.loads((SCHEMAS / schema_name).read_text())
    validator = jsonschema.Draft7Validator(schema, registry=registry)
    validator.validate(payload)


def conj_text(n: int) -> str:
    return " & ".join(f"B{i}" for i in range(1, n + 1))


UNIFORM = str(FIXTURES / "uniform_two_atoms.dist.json")
POINT = str(FIXTURES / "point_b1.dist.json")


class TestProb:
    def test_uniform_disjunction(self, capsys):
        code, out, _ = run(capsys, "prob", UNIFORM, "B1|B2")
        assert code == 0 and out.strip() == "3/4"

    def test_point_mass(self, capsys):
        code, out, _ = run(capsys, "prob", POINT, "B1")
        assert code == 0 and out.strip() == "1"

    def test_contradiction(self, capsys):
        code, out, _ = run(capsys, "prob", UNIFORM, "B1&!B1")
        assert code == 0 and out.strip() == "0"

    def test_malformed_distribution_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        for text in [
            '{"carrier":[1],"mass":{"0":"1/2"}}',
            # masses are strings, carrier atoms integers
            '{"carrier":[1],"mass":{"0":null}}',
            '{"carrier":[1],"mass":{"0":["1/2"],"1":"1/2"}}',
            '{"carrier":[1],"mass":{"1":{"n":"1"}}}',
            '{"carrier":[true],"mass":{"1":"1"}}',
            # mask keys are ASCII digits, one key per mask
            '{"carrier":[1],"mass":{"1":"1","01":"1"}}',
            '{"carrier":[1],"mass":{" 1":"1"}}',
            '{"carrier":[1],"mass":{"\\u0661":"1"}}',
            '{"carrier":[1,2,3,4],"mass":{"1_0":"1"}}',
            # mass values are n or n/m in ASCII digits
            '{"carrier":[1],"mass":{"1":"1e0"}}',
            '{"carrier":[1],"mass":{"1":" 1 "}}',
            '{"carrier":[1],"mass":{"1":"\\u0661"}}',
            '{"carrier":[1],"mass":{"1":"1_0/10"}}',
            '{"carrier":[1,2],"mass":{"1":"0.5","2":"1/2"}}',
        ]:
            bad.write_text(text)
            for argv in (("prob", str(bad), "B1"), ("galois-demo", str(bad))):
                code, out, err = run(capsys, *argv)
                assert code == 2 and out == "", (argv, text)
                assert err.startswith("error:") and "Traceback" not in err, (argv, text)

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "prob", str(tmp_path / "nowhere.json"), "B1")
        assert code == 2 and "error" in err

    def test_formula_beyond_scope_cap_exits_2(self, capsys):
        disjunction = " | ".join(f"B{i}" for i in range(1, 23))
        code, _, err = run(capsys, "prob", UNIFORM, disjunction)
        assert code == 2 and "scope of size 22 exceeds enumeration cap 16" in err

    def test_atoms_outside_carrier_extend_fairly(self, capsys):
        code, out, _ = run(capsys, "prob", POINT, "B1 & B2")
        assert code == 0 and out.strip() == "1/2"

    def test_json_format_validates(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "prob", UNIFORM, "B1")
        assert code == 0
        validate(json.loads(out), "prob_result.schema.json")


class TestValid:
    def test_valid_formula_exits_0(self, capsys):
        code, out, _ = run(capsys, "valid", "P(B1) <= 1")
        assert code == 0 and out.strip() == "valid"

    def test_invalid_formula_exits_1_with_witness(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "valid", "P(B1) < 1/2")
        assert code == 1
        payload = json.loads(out)
        validate(payload, "valid_result.schema.json")
        assert payload["witness"]["distribution"]["carrier"] == [1]

    def test_witness_distribution_is_the_decision_valuation(self, capsys):
        formula = f"P({conj_text(3)}) < 1/2"
        code, out, _ = run(capsys, "--format", "json", "valid", formula)
        decision = validity.decide_validity(ppl.parse(formula))
        assert code == 1
        distribution = json.loads(out)["witness"]["distribution"]
        assert distribution == stochval.dist_to_dict(decision.valuation.joint)

    def test_unsupported_exits_3(self, capsys):
        code, _, err = run(capsys, "valid", "P(B1) < x1 * x1")
        assert code == 3 and "unsupported" in err

    def test_parse_error_exits_2(self, capsys):
        code, _, err = run(capsys, "valid", "P(B1 <= 1")
        assert code == 2 and "error" in err

    def test_nine_atom_scope_decided(self, capsys):
        code, out, _ = run(capsys, "valid", f"P({conj_text(9)}) <= 1")
        assert code == 0 and out.strip() == "valid"

    def test_long_disjunction_decided(self, capsys):
        code, out, _ = run(capsys, "valid", "P(" + " | ".join(["B1"] * 601) + ") <= 1")
        assert code == 0 and out.strip() == "valid"

    def test_twelve_atom_refutation_lists_only_the_support(self, capsys):
        formula = f"P({conj_text(12)}) < 1/2"
        code, out, _ = run(capsys, "--format", "json", "valid", formula)
        assert code == 1
        assert len(out) < 2048
        distribution = json.loads(out)["witness"]["distribution"]
        V = stochval.valuation_from_json(json.dumps(distribution))
        assert stochval.prob(V, prop.parse(conj_text(12))) >= Fraction(1, 2)

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["--format", "json", "valid", f"P({conj_text(16)}) < 1/2"], 1),
            (
                ["--scope-cap", "20", "valid",
                 "P(B1) = x1 -> P(" + " | ".join(f"B{i}" for i in range(1, 21)) + ") >= x1"],
                0,
            ),
        ],
        ids=["refutation-16", "disjunction-20"],
    )
    def test_wide_scopes_build_point_formulas_for_the_support_only(
        self, capsys, monkeypatch, argv, expected
    ):
        # the work is counted, not timed: every point formula the command
        # builds is a call of prop.phi
        calls = []
        phi = prop.phi
        monkeypatch.setattr(prop, "phi", lambda A, U: calls.append(U) or phi(A, U))
        code, out, _ = run(capsys, *argv)
        assert code == expected
        assert len(out) < 2048
        support = json.loads(out)["witness"]["distribution"]["mass"] if code == 1 else {}
        assert len(calls) <= 2 * len(support)

    def test_greater_equal_family_past_the_clause_cap_decided(self, capsys):
        hypotheses = " & ".join(f"P(B{i}) >= 1/2" for i in range(1, 13))
        code, out, _ = run(capsys, "valid", f"{hypotheses} -> P(B1) >= 1/2")
        assert code == 0 and out.strip() == "valid"

    def test_sixteen_atom_upper_bound_fits_the_scope_cap(self, capsys):
        code, out, _ = run(capsys, "valid", f"P({' & '.join(f'B{i}' for i in range(2, 18))}) <= 1")
        assert code == 0 and out.strip() == "valid"

    def test_truth_below_one_refuted_over_its_own_atom(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "valid", "P(T) < 1")
        assert code == 1
        payload = json.loads(out)
        validate(payload, "valid_result.schema.json")
        assert payload["witness"]["distribution"]["carrier"] == [1]
        assert "T" not in payload["witness"]["probability"]

    def test_truth_against_nonlinear_bound_unsupported(self, capsys):
        code, _, err = run(capsys, "valid", "P(T) < x1 * x1")
        assert code == 3 and "unsupported" in err

    def test_refutation_witness_is_a_small_vertex(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "valid", f"P({conj_text(7)}) < 1/2")
        assert code == 1
        mass = json.loads(out)["witness"]["distribution"]["mass"]
        assert 0 < len(mass) <= 2
        assert all(Fraction(v).denominator <= 2 for v in mass.values())


def test_option_defaults_are_the_library_defaults():
    args = cli._build_parser().parse_args(["valid", "P(B1) = 1"])
    assert cli._config(args) == Config()
    assert Config().scope_cap == prop.DEFAULT_SCOPE_CAP


def test_in_process_calls_share_the_parser_and_no_options(capsys, monkeypatch):
    # each call prints what it prints in a fresh interpreter: a json format,
    # a raised scope cap or a usage error does not carry over to the next
    monkeypatch.delenv(config.SOLVER_ENV_VAR, raising=False)
    disjunction = " | ".join(f"B{i}" for i in range(1, 18))
    calls = [
        ["--format", "json", "valid", "P(B1 & B2) < 1/2"],
        ["--scope-cap", "20", "prob", UNIFORM, disjunction],
        ["--scope-cap", "20", "--format", "json", "valid"],
        ["valid", "P(B1 & B2) < 1/2"],
        ["prob", UNIFORM, disjunction],
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(FIXTURES.parent / "src"), env.get("PYTHONPATH", "")])
    cli._build_parser.cache_clear()
    seen = []
    for argv in calls:
        try:
            code = cli.main(argv)
        except SystemExit as exited:
            code = exited.code
        captured = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "pplogic.cli", *argv],
                               capture_output=True, text=True, env=env, timeout=60)
        assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        seen.append(code)
    assert seen == [1, 0, 2, 1, 2]
    assert cli._build_parser.cache_info().misses == 1


@pytest.mark.parametrize(
    "option, value", [("--scope-cap", "0"), ("--clause-cap", "0"), ("--timeout", "-1")]
)
def test_nonpositive_global_values_exit_2(capsys, option, value):
    with pytest.raises(SystemExit) as exited:
        cli.main([option, value, "valid", "P(B1) <= 1"])
    err = capsys.readouterr().err
    assert exited.value.code == 2
    assert "error:" in err and option in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("prob", UNIFORM, "!" * 3000 + "B1"),
        ("valid", "P(" + "(" * 600 + "B1" + ")" * 600 + ") <= 1"),
        ("valid", "!" * 2000 + "P(B1) <= 1"),
        ("valid", "P(" + "!" * 3000 + "B1) <= 1"),
    ],
    ids=["prob-negations", "valid-parentheses", "valid-negations", "valid-inner-negations"],
)
def test_deeply_nested_formula_exits_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "nested too deeply" in err and "Traceback" not in err


def _raise(error):
    def fault(*args, **kwargs):
        raise error

    return fault


@pytest.mark.parametrize(
    "module, name, error, argv",
    [
        (validity, "decide_validity",
         AssertionError("recovered witness does not refute the formula"),
         ("valid", "P(B1) < 1/2")),
        (calculus, "check_derivation", KeyError(3),
         ("check", str(FIXTURES / "marginal_sum.ppl-proof"))),
        (pqentail, "pq_entails", TypeError("unhashable type"),
         ("pq-entail", "--p", "1/2", "--q", "1/2", "--hyp", "{path}", "--concl", "B1")),
    ],
    ids=["valid", "check", "pq-entail"],
)
def test_internal_fault_exits_4_and_prints_no_verdict(
    capsys, tmp_path, monkeypatch, module, name, error, argv
):
    # exit 1 means invalid, rejected or does not entail; a crash is none of these
    path = tmp_path / "hypotheses"
    path.write_text("B1\n")
    monkeypatch.setattr(module, name, _raise(error))
    code, out, err = run(capsys, *(arg.format(path=path) for arg in argv))
    assert (code, out) == (4, "")
    assert err == f"internal error: {type(error).__name__}: {error}\n"


def test_internal_value_error_reads_as_bad_input(capsys, tmp_path, monkeypatch):
    # the one boundary cannot tell a program's ValueError from a parser's
    path = tmp_path / "hypotheses"
    path.write_text("B1\n")
    monkeypatch.setattr(pqentail, "pq_entails", _raise(ValueError("fault")))
    code, out, err = run(
        capsys, "pq-entail", "--p", "1/2", "--q", "1/2", "--hyp", str(path), "--concl", "B1"
    )
    assert (code, out, err) == (2, "", "error: fault\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("prob", "{path}", "B1"),
        ("galois-demo", "{path}"),
        ("check", "{path}"),
        ("pq-entail", "--p", "1/2", "--q", "1/2", "--hyp", "{path}", "--concl", "B1"),
    ],
    ids=["prob", "galois-demo", "check", "pq-entail"],
)
def test_undecodable_input_file_exits_2(capsys, tmp_path, argv):
    path = tmp_path / "input"
    path.write_bytes(b"\xff\xfe" + "B1".encode("utf-16-le"))
    code, out, err = run(capsys, *(arg.format(path=path) for arg in argv))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "decode" in err and "Traceback" not in err


class TestPqEntail:
    def write_hyps(self, tmp_path, lines):
        path = tmp_path / "hyps.txt"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_split_hypotheses_hailperin_fails(self, capsys, tmp_path):
        hyp = self.write_hyps(tmp_path, ["B1", "!B1"])
        code, out, _ = run(
            capsys, "pq-entail", "--p", "1/2", "--q", "1/4", "--hyp", hyp, "--concl", "F",
            "--hailperin",
        )
        assert code == 1 and "does not entail" in out

    def test_conjunctive_form_entails(self, capsys, tmp_path):
        hyp = self.write_hyps(tmp_path, ["B1", "!B1"])
        code, out, _ = run(
            capsys, "pq-entail", "--p", "1/2", "--q", "1/4", "--hyp", hyp, "--concl", "F"
        )
        assert code == 0 and "entails" in out

    def test_reflexive_entailment(self, capsys, tmp_path):
        hyp = self.write_hyps(tmp_path, ["B1"])
        code, _, _ = run(capsys, "pq-entail", "--p", "1", "--q", "1", "--hyp", hyp, "--concl", "B1")
        assert code == 0

    def test_empty_hypothesis_file_adds_no_atom(self, capsys, tmp_path):
        # 16 atoms: the empty conjunction is true on every row, not the formula T over B1
        hyp = tmp_path / "empty.txt"
        hyp.write_text("")
        wide = " & ".join(f"B{k}" for k in range(2, 18))
        code, out, err = run(
            capsys, "pq-entail", "--p", "1", "--q", "1", "--hyp", str(hyp), "--concl", wide
        )
        assert (code, out, err) == (1, "does not entail\n", "")

    def test_invalid_pair_exits_2(self, capsys, tmp_path):
        hyp = self.write_hyps(tmp_path, ["B1"])
        code, _, err = run(
            capsys, "pq-entail", "--p", "1/4", "--q", "3/4", "--hyp", hyp, "--concl", "B1"
        )
        assert code == 2 and "error" in err

    def test_comments_and_blanks_in_hypothesis_files(self, capsys, tmp_path):
        hyp = self.write_hyps(tmp_path, ["# a comment", "", "B1  # trailing"])
        code, _, _ = run(capsys, "pq-entail", "--p", "1", "--q", "1", "--hyp", hyp, "--concl", "B1")
        assert code == 0

    def test_json_format_validates(self, capsys, tmp_path):
        hyp = self.write_hyps(tmp_path, ["B1"])
        code, out, _ = run(
            capsys, "--format", "json", "pq-entail", "--p", "1", "--q", "1",
            "--hyp", hyp, "--concl", "B1",
        )
        assert code == 0
        validate(json.loads(out), "pq_result.schema.json")


class TestCheck:
    def test_shipped_script_accepted(self, capsys):
        code, out, _ = run(capsys, "check", str(FIXTURES / "prob_at_most_one.ppl-proof"))
        assert code == 0 and "accepted" in out

    def test_corrupted_script_rejected(self, capsys, tmp_path):
        text = (FIXTURES / "marginal_sum.ppl-proof").read_text().replace("MP 5 6", "MP 3 6")
        bad = tmp_path / "bad.ppl-proof"
        bad.write_text(text)
        code, out, _ = run(capsys, "check", str(bad))
        assert code == 1 and "rejected" in out

    def test_unparsable_script_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.ppl-proof"
        bad.write_text("1. nonsense here\n")
        code, _, err = run(capsys, "check", str(bad))
        assert code == 2 and "error" in err

    def test_undecided_side_condition_exits_2(self, capsys, tmp_path):
        script = tmp_path / "nonlinear.ppl-proof"
        script.write_text("1. P(B1) = x1 * x1 ; RR\n")
        code, out, _ = run(capsys, "check", str(script))
        assert code == 2 and "rejected" in out

    def test_rr_step_beyond_scope_cap_exits_2(self, capsys, tmp_path):
        script = tmp_path / "wide.ppl-proof"
        script.write_text(f"1. P({conj_text(17)}) <= 1 ; RR\n")
        code, out, err = run(capsys, "check", str(script))
        assert code == 2 and "rejected" in out
        assert "scope of size 17 exceeds enumeration cap 16" in out
        assert "Traceback" not in out + err

    def test_taut_step_beyond_scope_cap_exits_2(self, capsys, tmp_path):
        # seventeen letters: an undecided side condition at the default cap
        # of 16, a tautology at --scope-cap 20
        hypotheses = " & ".join(f"P(B{k}) = 1" for k in range(1, 18))
        script = tmp_path / "wide.ppl-proof"
        script.write_text(f"1. {hypotheses} -> P(B1) = 1 ; TAUT\n")
        code, out, err = run(capsys, "check", str(script))
        assert code == 2 and "rejected" in out
        assert "side condition unsupported" in out
        assert "scope of size 17 exceeds enumeration cap 16" in out
        assert "Traceback" not in out + err
        code, out, _ = run(capsys, "--scope-cap", "20", "check", str(script))
        assert code == 0 and "accepted" in out

    def test_solver_flag_reaches_side_conditions(self, capsys, tmp_path):
        stub = tmp_path / "solver.py"
        stub.write_text("#!/usr/bin/env python3\nimport sys\nopen(sys.argv[1]).read()\nprint('unsat')\n")
        script = tmp_path / "nonlinear.ppl-proof"
        script.write_text("1. P(B1) = x1 * x1 ; RR\n")
        code, out, _ = run(
            capsys, "--solver", f"python3 {stub}", "check", str(script)
        )
        assert code == 0 and "accepted" in out

    def test_json_report_validates(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "check", str(FIXTURES / "marginal_sum.ppl-proof")
        )
        assert code == 0
        validate(json.loads(out), "check_report.schema.json")


class TestEmitSmt:
    def test_script_ends_with_check_sat(self, capsys):
        code, out, _ = run(capsys, "emit-smt", "P(B1) <= 1")
        assert code == 0 and out.rstrip().endswith("(check-sat)")

    def test_deterministic_across_runs(self, capsys):
        _, first, _ = run(capsys, "emit-smt", "P(B1 & B2) < 1/3")
        _, second, _ = run(capsys, "emit-smt", "P(B1 & B2) < 1/3")
        assert first == second

    def test_truth_alone_emits(self, capsys):
        code, out, _ = run(capsys, "emit-smt", "P(T) = 1")
        assert code == 0 and "(= 1 1)" in out

    def test_nine_atom_scope_emits(self, capsys):
        code, out, _ = run(capsys, "emit-smt", f"P({conj_text(9)}) <= 1")
        assert code == 0 and out.rstrip().endswith("(check-sat)")

    def test_marginal_sum_formula_emits(self, capsys):
        code, out, _ = run(
            capsys, "emit-smt", "P(B1 & !B2) = x1 & P(B1 & B2) = x2 -> P(B1) = x1 + x2"
        )
        assert code == 0 and "(set-logic QF_NRA)" in out


    def test_nonlinear_formula_emits_the_field_sentence(self, capsys):
        formula = "P(B1 & B2) = x1 -> P(B1) >= x1 * x1"
        code, out, _ = run(capsys, "emit-smt", formula)
        assert code == 0
        assert out == rcof.emit_smtlib(validity.field_sentence(ppl.parse(formula)))


class TestNonlinearScope:
    """``P(B1 & ... & B16) < x1 * x1`` has two cells; the work is counted,
    not timed: one point formula per cell."""

    FORMULA = f"P({conj_text(16)}) < x1 * x1"

    @pytest.fixture
    def phi_calls(self, monkeypatch):
        calls = []
        phi = prop.phi
        monkeypatch.setattr(prop, "phi", lambda A, U: calls.append(U) or phi(A, U))
        return calls

    def test_emit_smt_has_one_variable_per_cell(self, capsys, phi_calls):
        code, out, _ = run(capsys, "emit-smt", self.FORMULA)
        assert code == 0 and len(out.encode()) < 2048
        assert out.count("declare-const xa_") == 2
        assert len(phi_calls) <= 2

    def test_valid_without_solver_is_unsupported(self, capsys, phi_calls):
        code, _, err = run(capsys, "valid", self.FORMULA)
        assert code == 3 and "no SMT solver configured" in err
        assert len(phi_calls) <= 2


class TestGaloisDemo:
    def test_round_trip_reported_equal(self, capsys):
        code, out, _ = run(capsys, "galois-demo", UNIFORM)
        assert code == 0 and "round trip equal: True" in out

    def test_carrier_beyond_scope_cap_exits_2(self, capsys, tmp_path):
        wide = tmp_path / "wide.dist.json"
        wide.write_text(json.dumps({"carrier": list(range(1, 23)), "mass": {"0": "1"}}))
        code, _, err = run(capsys, "galois-demo", str(wide))
        assert code == 2 and "scope of size 22 exceeds enumeration cap 16" in err

    def test_carrier_beyond_library_cap_exits_2(self, capsys, tmp_path):
        # a raised --scope-cap is the cap, not the library default of 16
        wide = tmp_path / "wide.dist.json"
        wide.write_text(json.dumps({"carrier": list(range(1, 19)), "mass": {"0": "1"}}))
        code, _, err = run(capsys, "--scope-cap", "17", "galois-demo", str(wide))
        assert code == 2 and "scope of size 18 exceeds enumeration cap 17" in err
        assert "Traceback" not in err

    def test_json_format_validates(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "galois-demo", UNIFORM)
        assert code == 0
        payload = json.loads(out)
        validate(payload, "galois_result.schema.json")
        assert payload["round_trip_equal"] is True
