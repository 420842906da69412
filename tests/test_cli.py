import json
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

from pplogic import cli

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
        bad.write_text('{"carrier":[1],"mass":{"0":"1/2"}}')
        code, _, err = run(capsys, "prob", str(bad), "B1")
        assert code == 2 and "error" in err

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

    def test_refutation_witness_is_a_small_vertex(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "valid", f"P({conj_text(7)}) < 1/2")
        assert code == 1
        mass = json.loads(out)["witness"]["distribution"]["mass"]
        assert 0 < len(mass) <= 2
        assert all(Fraction(v).denominator <= 2 for v in mass.values())


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

    def test_nine_atom_scope_emits(self, capsys):
        code, out, _ = run(capsys, "emit-smt", f"P({conj_text(9)}) <= 1")
        assert code == 0 and out.rstrip().endswith("(check-sat)")

    def test_marginal_sum_formula_emits(self, capsys):
        code, out, _ = run(
            capsys, "emit-smt", "P(B1 & !B2) = x1 & P(B1 & B2) = x2 -> P(B1) = x1 + x2"
        )
        assert code == 0 and "(set-logic QF_NRA)" in out


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
        # --scope-cap admits the carrier, but each point probability is
        # still capped at the library default
        wide = tmp_path / "wide.dist.json"
        wide.write_text(json.dumps({"carrier": list(range(1, 18)), "mass": {"0": "1"}}))
        code, _, err = run(capsys, "--scope-cap", "17", "galois-demo", str(wide))
        assert code == 2 and "scope of size 17 exceeds enumeration cap 16" in err
        assert "Traceback" not in err

    def test_json_format_validates(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "galois-demo", UNIFORM)
        assert code == 0
        payload = json.loads(out)
        validate(payload, "galois_result.schema.json")
        assert payload["round_trip_equal"] is True
