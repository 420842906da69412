import itertools
import math
import os
import random
import stat
import textwrap
from fractions import Fraction as F

import pytest

from pplogic import ppl, pqentail, prop, rcof, validity
from pplogic.config import Config

from . import helpers
from .helpers import (
    dnf_clauses_by_copy,
    eval_formula_by_cases,
    negated_copy,
    pairing_feasible,
    random_linear_sentence,
    semantic_class_pool,
    smt_formula_by_cases,
)
from .test_validity import _reference_formulas

B1 = prop.Atom(1)
x0, x1, x2 = rcof.Var(0), rcof.Var(1), rcof.Var(2)


def c(v):
    return rcof.Const(F(v))


class TestClassify:
    def test_distribution_constraints_are_linear(self):
        q = ppl.build_Q([B1], frozenset({1}))
        assert rcof.classify(q) == "linear"

    def test_product_of_variables_is_nonlinear(self):
        assert rcof.classify(rcof.Eq(rcof.Mul(x0, x1), rcof.ONE)) == "nonlinear"

    def test_repeated_addition_is_linear(self):
        f = rcof.Eq(rcof.FormulaVar(B1), rcof.Add(x0, x0))
        assert rcof.classify(f) == "linear"

    def test_constant_scaling_is_linear(self):
        assert rcof.classify(rcof.Lt(rcof.Mul(c(2), x0), c(3))) == "linear"


class TestLinearAtomNormalization:
    def test_gcd_reduction(self):
        a = rcof.LinearAtom.make({0: F(4), 1: F(6)}, F(2), rcof.REL_LE)
        assert a.coeffs == ((0, F(2)), (1, F(3))) and a.const == F(1)

    def test_equality_sign_canonicalized(self):
        a = rcof.LinearAtom.make({0: F(-2)}, F(4), rcof.REL_EQ)
        assert a.coeffs == ((0, F(1)),) and a.const == F(-2)

    def test_denominators_cleared(self):
        a = rcof.LinearAtom.make({0: F(1, 2)}, F(1, 3), rcof.REL_LT)
        assert a.coeffs == ((0, F(3)),) and a.const == F(2)

    def test_coefficients_are_ints_and_match_fraction_built_atoms(self):
        a = rcof.LinearAtom.make({0: F(1, 2), 2: F(-3, 4)}, F(1, 3), rcof.REL_LE)
        assert a.coeffs == ((0, 6), (2, -9)) and all(type(v) is int for _, v in a.coeffs)
        assert type(a.const) is F and a.const == 4
        b = rcof.LinearAtom(tuple((k, F(v)) for k, v in a.coeffs), a.const, a.rel)
        assert a == b and hash(a) == hash(b)
        assert rcof.LinearAtom.make({0: 6, 2: -9}, F(4), rcof.REL_LE) == a


class TestFmFeasible:
    def test_simple_box(self):
        atoms = [
            rcof.LinearAtom.make({0: F(-1)}, F(0), rcof.REL_LE),  # x0 >= 0
            rcof.LinearAtom.make({0: F(1)}, F(-1), rcof.REL_LE),  # x0 <= 1
        ]
        got = rcof.fm_feasible(atoms)
        assert got is not None and 0 <= got[0] <= 1

    def test_contradictory_strict_bounds(self):
        atoms = [
            rcof.LinearAtom.make({0: F(1)}, F(0), rcof.REL_LT),  # x0 < 0
            rcof.LinearAtom.make({0: F(-1)}, F(0), rcof.REL_LT),  # x0 > 0
        ]
        assert rcof.fm_feasible(atoms) is None

    def test_equality_substitution_chains(self):
        atoms = [
            rcof.LinearAtom.make({0: F(1), 1: F(-2)}, F(0), rcof.REL_EQ),  # x0 = 2 x1
            rcof.LinearAtom.make({1: F(1), 2: F(-2)}, F(0), rcof.REL_EQ),  # x1 = 2 x2
            rcof.LinearAtom.make({2: F(1)}, F(-1, 8), rcof.REL_EQ),  # x2 = 1/8
        ]
        got = rcof.fm_feasible(atoms)
        assert got == {0: F(1, 2), 1: F(1, 4), 2: F(1, 8)}

    def test_strictness_tracked_through_combination(self):
        # x0 < x1 and x1 <= x0 is infeasible even though x0 <= x1 would not be
        atoms = [
            rcof.LinearAtom.make({0: F(1), 1: F(-1)}, F(0), rcof.REL_LT),
            rcof.LinearAtom.make({1: F(1), 0: F(-1)}, F(0), rcof.REL_LE),
        ]
        assert rcof.fm_feasible(atoms) is None

    def test_unbounded_direction_gets_a_finite_point(self):
        atoms = [rcof.LinearAtom.make({0: F(-1)}, F(5), rcof.REL_LT)]  # x0 > 5
        got = rcof.fm_feasible(atoms)
        assert got is not None and got[0] > 5

    def test_zero_sum_of_nonnegatives_pins_the_block(self):
        atoms = [
            rcof.LinearAtom.make({0: F(1), 1: F(1)}, F(0), rcof.REL_EQ),
            rcof.LinearAtom.make({0: F(-1)}, F(0), rcof.REL_LE),
            rcof.LinearAtom.make({1: F(-1)}, F(0), rcof.REL_LE),
        ]
        assert rcof.fm_feasible(atoms) == {0: F(0), 1: F(0)}

    def test_strict_lower_bound_blocks_zero_sum(self):
        atoms = [
            rcof.LinearAtom.make({0: F(1), 1: F(1)}, F(0), rcof.REL_EQ),
            rcof.LinearAtom.make({0: F(-1)}, F(0), rcof.REL_LE),
            rcof.LinearAtom.make({1: F(-1)}, F(0), rcof.REL_LT),  # x1 > 0
        ]
        assert rcof.fm_feasible(atoms) is None

    def test_tight_inequality_forces_the_extreme_point(self):
        # x0 <= 1, x1 <= 2, x0 + x1 >= 3 pins both at their upper bounds
        atoms = [
            rcof.LinearAtom.make({0: F(1)}, F(-1), rcof.REL_LE),
            rcof.LinearAtom.make({1: F(1)}, F(-2), rcof.REL_LE),
            rcof.LinearAtom.make({0: F(-1), 1: F(-1)}, F(3), rcof.REL_LE),
        ]
        assert rcof.fm_feasible(atoms) == {0: F(1), 1: F(2)}

    def test_probability_block_collapse_is_fast(self):
        # mass on a 32-point simplex with two certain events: the shared
        # zero block must be pinned rather than paired away
        n = 32
        atoms = [rcof.LinearAtom.make({i: F(-1)}, F(0), rcof.REL_LE) for i in range(n)]
        atoms.append(rcof.LinearAtom.make({i: F(1) for i in range(n)}, F(-1), rcof.REL_EQ))
        atoms.append(
            rcof.LinearAtom.make({i: F(1) for i in range(0, n, 2)}, F(-1), rcof.REL_EQ)
        )
        atoms.append(
            rcof.LinearAtom.make({i: F(1) for i in range(0, n, 4)}, F(-1, 2), rcof.REL_LT)
        )
        got = rcof.fm_feasible(atoms)
        assert got is not None
        assert all(got.get(i, F(0)) == 0 for i in range(1, n, 2))


class TestDecideUniversalLinear:
    def test_distribution_constraints_force_total_probability(self):
        # forall (Q -> x_T = 1) over the single-atom scope
        q = ppl.build_Q([prop.TOP], frozenset({1}))
        matrix = rcof.Implies(q, rcof.Eq(rcof.FormulaVar(prop.TOP), rcof.ONE))
        assert rcof.decide_universal_linear(matrix).status == rcof.VALID

    def test_open_bound_refuted_with_witness(self):
        d = rcof.decide_universal_linear(rcof.Lt(x0, rcof.ONE))
        assert d.status == rcof.INVALID
        assert d.witness.numeric[0] >= 1

    def test_point_probability_below_total(self):
        # hand-checked: x_B1 <= x_B1 + x_notB1 = 1 under the constraints
        q = ppl.build_Q([B1], frozenset({1}))
        matrix = rcof.Implies(q, rcof.Le(rcof.FormulaVar(B1), rcof.ONE))
        assert rcof.decide_universal_linear(matrix).status == rcof.VALID

    def test_witness_refutes_by_evaluation(self):
        matrix = rcof.Implies(rcof.Le(c(0), x0), rcof.Le(x0, c(2)))
        d = rcof.decide_universal_linear(matrix)
        assert d.status == rcof.INVALID
        assert rcof.eval_formula(matrix, d.witness) is False

    def test_clause_cap_reported_as_unsupported(self):
        parts = [rcof.Eq(rcof.Var(i), rcof.ZERO) for i in range(8)]
        disj = parts[0]
        for p in parts[1:]:
            disj = rcof.Or(disj, p)
        d = rcof.decide_universal_linear(rcof.Not(disj), clause_cap=4)
        assert d.status == rcof.UNSUPPORTED


class TestDecideDispatch:
    def test_linear_goes_internal(self):
        assert rcof.decide(rcof.Eq(x0, x0)).status == rcof.VALID

    def test_nonlinear_without_solver_is_unsupported(self):
        d = rcof.decide(rcof.Eq(rcof.Mul(x0, x0), rcof.Mul(x0, x0)))
        assert d.status == rcof.UNSUPPORTED
        assert "solver" in d.reason


class TestEmitSmtlib:
    def test_scripts_are_deterministic(self):
        q = ppl.build_Q([B1], frozenset({1}))
        matrix = rcof.Implies(q, rcof.Le(rcof.FormulaVar(B1), rcof.ONE))
        assert rcof.emit_smtlib(matrix) == rcof.emit_smtlib(matrix)

    def test_negation_asserted_and_checked(self):
        text = rcof.emit_smtlib(rcof.Eq(x0, x0))
        assert "(assert (not (= xk_0 xk_0)))" in text
        assert text.rstrip().endswith("(check-sat)")

    def test_formula_variables_documented(self):
        text = rcof.emit_smtlib(rcof.Le(rcof.FormulaVar(prop.parse("B1 & !B2")), rcof.ONE))
        assert "probability of `B1 & !B2`" in text
        assert text.count("declare-const xa_") == 1

    def test_rational_constants_emitted_exactly(self):
        text = rcof.emit_smtlib(rcof.Lt(x0, c(F(-1, 2))))
        assert "(- (/ 1 2))" in text


def _stub_solver(tmp_path, reply: str) -> str:
    path = tmp_path / f"solver_{reply}.py"
    path.write_text(
        textwrap.dedent(
            f"""\
            #!/usr/bin/env python3
            import sys
            open(sys.argv[1]).read()
            print({reply!r})
            """
        )
    )
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return f"python3 {path}"


class TestExternalBridge:
    def test_unsat_reply_means_valid(self, tmp_path):
        d = rcof.run_external(rcof.Eq(x0, x0), _stub_solver(tmp_path, "unsat"), 10)
        assert d.status == rcof.VALID

    def test_sat_reply_means_invalid_without_witness(self, tmp_path):
        d = rcof.run_external(rcof.Lt(x0, rcof.ONE), _stub_solver(tmp_path, "sat"), 10)
        assert d.status == rcof.INVALID and d.witness is None

    def test_unknown_reply_is_unsupported(self, tmp_path):
        d = rcof.run_external(rcof.Eq(x0, x0), _stub_solver(tmp_path, "unknown"), 10)
        assert d.status == rcof.UNSUPPORTED

    def test_missing_executable_is_unsupported(self):
        d = rcof.run_external(rcof.Eq(x0, x0), "/nonexistent/solver", 10)
        assert d.status == rcof.UNSUPPORTED

    def test_nonlinear_dispatch_uses_configured_solver(self, tmp_path):
        config = Config(solver=_stub_solver(tmp_path, "unsat"))
        d = rcof.decide(rcof.Le(rcof.Mul(x0, x0), rcof.Mul(x0, x0)), config)
        assert d.status == rcof.VALID

    def test_environment_overrides_solver(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PPLOGIC_SOLVER", _stub_solver(tmp_path, "unknown"))
        d = rcof.decide(rcof.Le(rcof.Mul(x0, x0), rcof.Mul(x0, x0)), Config())
        assert d.status == rcof.UNSUPPORTED


def random_linear_matrix(rng: random.Random, n_vars: int):
    """Random shallow boolean combination of small-integer linear atoms."""
    def atom():
        coeffs = {
            i: F(rng.randint(-2, 2)) for i in range(n_vars) if rng.random() < 0.7
        }
        lhs = rcof.add_all(
            [rcof.Mul(rcof.Const(v), rcof.Var(i)) for i, v in sorted(coeffs.items())]
        )
        const = rcof.Const(F(rng.randint(-16, 16), 8))
        ctor = rng.choice([rcof.Le, rcof.Lt, rcof.Eq])
        return ctor(lhs, const)

    def tree(depth):
        if depth == 0 or rng.random() < 0.4:
            return atom()
        ctor = rng.choice([rcof.And, rcof.Or, rcof.Implies])
        if ctor is rcof.Implies:
            return rcof.Implies(tree(depth - 1), tree(depth - 1))
        return ctor(tree(depth - 1), tree(depth - 1))

    return tree(2)


def test_internal_decider_agrees_with_stub_free_grid(tmp_path):
    # cross-check on 50 random linear sentences: witnesses must evaluate
    # false, and valid sentences must survive spot evaluation
    rng = random.Random(41)
    for _ in range(50):
        matrix = random_linear_matrix(rng, 3)
        d = rcof.decide_universal_linear(matrix)
        if d.status == rcof.INVALID:
            assert rcof.eval_formula(matrix, d.witness) is False
        else:
            assert d.status == rcof.VALID
            for _ in range(20):
                rho = rcof.Assignment(
                    numeric={i: F(rng.randint(-24, 24), 8) for i in range(3)}
                )
                assert rcof.eval_formula(matrix, rho) is True


@pytest.mark.parametrize("seed", range(6))
def test_validity_is_monotone_under_weakening(seed):
    rng = random.Random(100 + seed)
    matrix = random_linear_matrix(rng, 2)
    other = random_linear_matrix(rng, 2)
    if rcof.decide_universal_linear(matrix).status == rcof.VALID:
        weakened = rcof.Implies(other, matrix)
        assert rcof.decide_universal_linear(weakened).status == rcof.VALID


def _atoms(f) -> list:
    if isinstance(f, (rcof.Eq, rcof.Lt, rcof.Le)):
        return [f]
    if isinstance(f, rcof.Not):
        return _atoms(f.operand)
    if isinstance(f, rcof.Implies):
        return _atoms(f.antecedent) + _atoms(f.consequent)
    return _atoms(f.left) + _atoms(f.right)


def _one_var_refutable(matrix) -> bool:
    """Complete oracle for single-variable matrices.

    Atom truth is constant between breakpoints, so testing every
    breakpoint, every midpoint between consecutive breakpoints, and one
    point beyond each end decides satisfiability of the negation exactly.
    """
    breakpoints = set()
    table = rcof.VarTable()
    for atom in _atoms(matrix):
        lin = rcof._atom_to_linear(atom, table)
        if lin.coeffs:
            (v, c) = lin.coeffs[0]
            breakpoints.add(-lin.const / c)
    points = sorted(breakpoints)
    candidates = list(points)
    if points:
        candidates.append(points[0] - 1)
        candidates.append(points[-1] + 1)
        for a, b in zip(points, points[1:]):
            candidates.append((a + b) / 2)
    else:
        candidates.append(F(0))
    return any(
        not rcof.eval_formula(matrix, rcof.Assignment(numeric={0: x}))
        for x in candidates
    )


def test_single_variable_fuzz_against_breakpoint_oracle():
    # includes equality atoms, which the multi-variable grid oracle avoids
    rng = random.Random(71)
    for _ in range(300):
        def atom():
            a = rng.choice([-3, -2, -1, 1, 2, 3])
            c = F(rng.randint(-12, 12), rng.randint(1, 4))
            ctor = rng.choice([rcof.Le, rcof.Lt, rcof.Eq])
            return ctor(rcof.Mul(rcof.const(a), rcof.Var(0)), rcof.const(c))

        def tree(depth):
            if depth == 0 or rng.random() < 0.4:
                return atom()
            ctor = rng.choice([rcof.And, rcof.Or, rcof.Implies, rcof.Not])
            if ctor is rcof.Not:
                return rcof.Not(tree(depth - 1))
            return ctor(tree(depth - 1), tree(depth - 1))

        matrix = tree(3)
        decision = rcof.decide_universal_linear(matrix)
        assert (decision.status == rcof.INVALID) == _one_var_refutable(matrix)
        if decision.status == rcof.INVALID:
            assert rcof.eval_formula(matrix, decision.witness) is False


def test_constant_matrices_decided():
    true_matrix = rcof.Le(rcof.ZERO, rcof.ONE)
    false_matrix = rcof.Lt(rcof.ONE, rcof.ZERO)
    assert rcof.decide_universal_linear(true_matrix).status == rcof.VALID
    d = rcof.decide_universal_linear(false_matrix)
    assert d.status == rcof.INVALID and d.witness is not None


def _polytope_system(rng: random.Random) -> list:
    """Point masses y_0..y_3 >= 0 summing to 1, rows bounding the mass of a
    subset of them from either side, and one free numeric variable x_4 in
    some of the rows."""
    atoms = [rcof.LinearAtom.make({m: F(-1)}, F(0), rcof.REL_LE) for m in range(4)]
    atoms.append(rcof.LinearAtom.make({m: F(1) for m in range(4)}, F(-1), rcof.REL_EQ))
    for _ in range(rng.randint(1, 3)):
        sign = F(rng.choice([-1, 1]))
        coeffs = {m: sign for m in range(4) if rng.random() < 0.5}
        if rng.random() < 0.5:
            coeffs[4] = F(rng.choice([-1, 1]))
        const = F(rng.randint(-4, 4), rng.choice([1, 2, 3, 4]))
        rel = rng.choice([rcof.REL_EQ, rcof.REL_LE, rcof.REL_LT])
        atoms.append(rcof.LinearAtom.make(coeffs, const, rel))
    return atoms


def _pairing_systems() -> list:
    rng = random.Random(73)
    systems = []
    for _ in range(400):
        n_vars = rng.randint(1, 3)
        atoms = []
        for _ in range(rng.randint(1, 6)):
            coeffs = {
                i: F(rng.choice([-2, -1, 1, 2]))
                for i in range(n_vars)
                if rng.random() < 0.8
            }
            const = F(rng.randint(-4, 4), rng.randint(1, 2))
            rel = rng.choice([rcof.REL_EQ, rcof.REL_LE, rcof.REL_LT])
            atoms.append(rcof.LinearAtom.make(coeffs, const, rel))
        systems.append(atoms)
    return systems + [_polytope_system(rng) for _ in range(400)]


def test_fm_feasible_agrees_with_pure_pairing():
    # pure-pairing Fourier-Motzkin is the verdict reference on small systems
    systems = _pairing_systems()
    feasible = 0
    for atoms in systems:
        point = rcof.fm_feasible(atoms)
        assert (point is not None) == pairing_feasible(atoms)
        if point is not None:
            feasible += 1
            for a in atoms:
                total = sum((v * point.get(k, F(0)) for k, v in a.coeffs), start=a.const)
                assert {rcof.REL_EQ: total == 0, rcof.REL_LE: total <= 0, rcof.REL_LT: total < 0}[a.rel]
    assert 0 < feasible < len(systems)


def _collapse_systems() -> list:
    """Every system a seeded draw of 2-atom threshold entailments poses."""
    rng = random.Random(83)
    pool = semantic_class_pool([1, 2])
    pairs = [pqentail.ThresholdPair(p, q) for p, q in [(1, 1), (F(3, 4), F(1, 2)), (F(1, 10), F(1, 10))]]
    posed = []
    simplex = rcof.fm_feasible

    def spy(atoms):
        posed.append(list(atoms))
        return simplex(posed[-1])

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rcof, "fm_feasible", spy)
        for _ in range(300):
            deltas = rng.sample(pool, rng.randrange(3))
            pqentail.collapse_check(deltas, rng.choice(pool), rng.choice(pairs))
    return posed


def test_memoized_simplex_equals_the_uncached_one():
    systems = _pairing_systems() + _collapse_systems()
    rcof._simplex.cache_clear()
    for atoms in systems + systems:  # the second pass answers from the memo
        assert rcof.fm_feasible(atoms) == rcof._simplex.__wrapped__(tuple(atoms))
    info = rcof._simplex.cache_info()
    assert info.hits >= len(systems) and info.currsize < len(systems)


def test_mutating_a_returned_point_leaves_later_hits_alone():
    atoms = [
        rcof.LinearAtom.make({0: 1, 1: 1}, F(-1), rcof.REL_EQ),
        rcof.LinearAtom.make({0: -1}, F(1, 3), rcof.REL_LE),
    ]
    expected = rcof._simplex.__wrapped__(tuple(atoms))
    rcof._simplex.cache_clear()
    first = rcof.fm_feasible(atoms)
    first[0] = F(99)
    first[7] = F(1)
    assert rcof.fm_feasible(atoms) == expected
    assert rcof._simplex.cache_info().hits == 1


def test_simplex_memo_is_bounded():
    maxsize = rcof._simplex.cache_info().maxsize
    assert maxsize is not None and maxsize == rcof._SIMPLEX_SYSTEMS


def test_integer_systems_that_pivot_return_fractions(monkeypatch):
    # int rows divided by an int pivot element would give floats
    pivots = []
    pivot = rcof._pivot_and_update
    monkeypatch.setattr(rcof, "_pivot_and_update", lambda *args: (pivots.append(1), pivot(*args)))
    rng = random.Random(89)
    pivoted = 0
    for _ in range(300):
        atoms = tuple(
            rcof.LinearAtom.make(
                {i: rng.choice([-5, -3, -2, 2, 3, 5]) for i in range(3) if rng.random() < 0.8},
                F(rng.randint(-9, 9)),
                rng.choice([rcof.REL_EQ, rcof.REL_LE, rcof.REL_LT]),
            )
            for _ in range(rng.randint(2, 5))
        )
        pivots.clear()
        point = rcof._simplex.__wrapped__(atoms)
        if point is not None and pivots:
            pivoted += 1
            assert all(type(v) is F for v in point.values())
    assert pivoted >= 20



# -- the integer tableau against the Fraction one it replaced ---------------------

def _posed_systems(run) -> list:
    """The distinct systems ``run()`` hands to ``fm_feasible``, memos emptied
    first so that every one is posed."""
    posed = {}
    simplex = rcof.fm_feasible

    def spy(atoms):
        atoms = tuple(atoms)
        posed.setdefault(atoms, None)
        return simplex(atoms)

    for memo in (rcof._simplex, pqentail._entailed, pqentail._refutable):
        memo.cache_clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rcof, "fm_feasible", spy)
        run()
    return list(posed)


def _collapse_pool_sweep():
    """The sweep of acceptance test 03: every hypothesis set of at most two
    of the 2-atom classes, every conclusion, four threshold pairs.  Each
    instance is decided through its table-level system as well, which poses
    every distinct one; ``pq_entails`` alone solves one system per
    cell structure."""
    pool = semantic_class_pool({1, 2})
    hypothesis_sets = [()] + [(a,) for a in pool] + list(itertools.combinations(pool, 2))
    pairs = [(F(1), F(1)), (F(3, 4), F(1, 2)), (F(1, 2), F(1, 2)), (F(1, 10), F(1, 10))]
    for deltas in hypothesis_sets:
        for alpha in pool:
            for p, q in pairs:
                t = pqentail.ThresholdPair(p, q)
                pqentail.collapse_check(list(deltas), alpha, t)
                helpers.pq_entails_by_refutation(deltas, alpha, t)


def _wide_lp(k: int) -> ppl.PplFormula:
    hypotheses = " & ".join(f"P(B{i}) = 1/2" for i in range(1, k + 1))
    conj = " & ".join(f"B{i}" for i in range(1, k + 1))
    return ppl.parse(f"{hypotheses} -> P({conj}) < 1/{2 ** k}")


def test_integer_tableau_equals_the_fraction_tableau(monkeypatch):
    # the same pivots in the same order, so the same vertex: equal dicts, not
    # only equal verdicts
    systems = [tuple(atoms) for atoms in _pairing_systems()]
    # the per-instance decider poses every formula's system, not one per
    # cell structure
    systems += _posed_systems(lambda: [helpers.decide_validity_by_instance(phi) for phi in _reference_formulas()])
    systems += _posed_systems(_collapse_pool_sweep)
    systems += _posed_systems(lambda: helpers.decide_validity_by_instance(_wide_lp(6)))
    pivots = {"int": 0, "fraction": 0}

    def counted(name, pivot):
        def count(*args):
            pivots[name] += 1
            return pivot(*args)
        return count

    monkeypatch.setattr(rcof, "_pivot_and_update", counted("int", rcof._pivot_and_update))
    monkeypatch.setattr(helpers, "pivot_by_fractions", counted("fraction", helpers.pivot_by_fractions))
    feasible = 0
    for atoms in systems:
        pivots.update(int=0, fraction=0)
        point = rcof._simplex.__wrapped__(atoms)
        assert point == helpers.simplex_by_fractions(atoms)
        assert pivots["int"] == pivots["fraction"]
        feasible += point is not None
    assert len(systems) >= 1500 and 0 < feasible < len(systems)
    assert pivots["int"] >= 30  # the last system, wide-lp at k = 6, pivots


def _as_fractions(rows: dict) -> dict:
    return {i: {k: F(n, d) for k, n in row.items()} for i, (d, row) in rows.items()}


def test_pivot_keeps_integer_rows_with_positive_denominators():
    # x3 = 2 x0 - 3 x1 + x2 and x4 = -x0 + 5 x1 over nonbasic x0, x1, x2; the
    # first pivot element is negative, the later ones leave denominators > 1
    rows = {3: (1, {0: 2, 1: -3, 2: 1}), 4: (1, {0: -1, 1: 5})}
    value = [(F(0), F(0)), (F(0), F(0)), (F(1, 2), F(0)), (F(1, 2), F(0)), (F(0), F(0))]
    reference_rows, reference_value = _as_fractions(rows), list(value)
    denominators = set()
    for i, j, target in [(3, 1, (F(2), F(0))), (4, 0, (F(-1, 3), F(1))), (1, 2, (F(5, 7), F(-1)))]:
        rcof._pivot_and_update(rows, value, i, j, target)
        helpers.pivot_by_fractions(reference_rows, reference_value, i, j, target)
        assert _as_fractions(rows) == reference_rows and value == reference_value
        for d, row in rows.values():
            denominators.add(d)
            assert type(d) is int and d > 0
            assert all(type(n) is int for n in row.values())
            assert math.gcd(d, *row.values()) == 1
    assert denominators - {1}


# -- the operator table against the walkers it replaced -------------------------

def _walker_sentences() -> list:
    """(field sentence, its variable table) pairs: seeded random linear
    sentences, some under a negation, and the translations of the reference
    probability formulas over their cells, nonlinear ones included."""
    rng = random.Random(71)
    out = []
    for _ in range(150):
        for matrix in (random_linear_sentence(rng, 3), random_linear_matrix(rng, 3)):
            out.append((rcof.Not(matrix) if rng.random() < 0.3 else matrix, rcof.VarTable()))
    for phi in _reference_formulas():
        alphas, scope = validity.probability_formulas(phi), validity.ppl_scope(phi)
        _, sums, points = ppl.distribution_rows(alphas, scope)
        out.append((ppl.translate(phi), rcof.VarTable(sums, scope, points)))
    return out


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except (rcof.ClauseCapError, rcof.UnboundVariableError) as e:
        return type(e).__name__, str(e)


def test_clauses_by_polarity_match_the_negated_copy():
    # same atoms in the same order, so the same memo keys and witnesses, and
    # the clause cap trips at the same caps
    caps = (1, 2, 4, 8, Config.clause_cap)
    linear_count = 0
    for matrix, table in _walker_sentences():
        try:
            linear = rcof._linear_matrix(matrix, table)
        except rcof.NonlinearTermError:
            continue
        linear_count += 1
        for cap in caps:
            assert _outcome(rcof._dnf_clauses, linear, cap, True) == _outcome(
                dnf_clauses_by_copy, negated_copy(linear), cap
            )
            assert _outcome(rcof._dnf_clauses, linear, cap) == _outcome(dnf_clauses_by_copy, linear, cap)
    assert linear_count >= 700


def test_smtlib_matches_the_case_by_case_writer(monkeypatch):
    sentences = []
    for matrix, table in _walker_sentences():
        sentences.append(matrix)
        if table.scope:  # the field sentence Q -> psi of a probability formula
            sentences.append(rcof.Implies(ppl.build_Q(list(table.sums), table.scope), matrix))
    written = [rcof.emit_smtlib(f) for f in sentences]
    monkeypatch.setattr(rcof, "_smt", smt_formula_by_cases)
    assert written == [rcof.emit_smtlib(f) for f in sentences]


def test_evaluation_matches_the_case_by_case_evaluator():
    # assignments bind some formula variables only: an unbound variable
    # raises in both, or in neither when a connective's left side decides
    rng = random.Random(73)
    for matrix, table in _walker_sentences():
        keys = [prop.to_text(a) for a in table.sums] + [
            prop.to_text(prop.phi(table.scope, prop.subset_of_mask(table.scope, m))) for m in table.points
        ]
        for _ in range(4):
            rho = rcof.Assignment(
                numeric={i: F(rng.randint(-24, 24), 8) for i in range(3)},
                probs={k: F(rng.randint(0, 8), 8) for k in keys if rng.random() < 0.8},
            )
            got = _outcome(rcof.eval_formula, matrix, rho)
            assert got == _outcome(eval_formula_by_cases, matrix, rho)
            assert type(got[1]) is bool or got[0] != "value"
