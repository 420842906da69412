"""Terms and quantifier-free formulas over ordered fields, plus a decision
procedure for universally closed sentences in the linear fragment.

Terms are built from exact rational constants, numbered variables ``x_k``
and formula variables (one real unknown per classical propositional
formula, keyed by its canonical text).  Formulas combine ``=``, ``<`` and
``<=`` atoms with the usual connectives; every decision treats its input
as the universal closure of the given matrix.

The linear decider linearizes the atoms of the matrix once, negates it,
converts to disjunctive normal form over linear atoms, and refutes each
disjunct, together with any shared constraint rows, by Fourier-Motzkin
elimination with exact rationals and strict/non-strict bookkeeping.  A
formula variable may be defined as a sum of point masses rather than
stand alone.  Infeasibility of every disjunct proves the sentence; a
feasible disjunct yields a rational counter-assignment recovered by
back-substitution.  Sentences outside the linear fragment are shipped to
an external SMT solver over the reals when one is configured.
"""

from __future__ import annotations

import hashlib
import math
import os
import shlex
import subprocess
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Union

from . import prop

ZERO_F = Fraction(0)
ONE_F = Fraction(1)


class UnboundVariableError(KeyError):
    """A term mentioned a formula variable the assignment does not bind."""


class NonlinearTermError(ValueError):
    """Linearization met a product of variables."""


class ClauseCapError(RuntimeError):
    """Disjunctive normal form of the negated matrix exceeds the clause cap."""


# -- terms --------------------------------------------------------------------

@dataclass(frozen=True)
class Const:
    value: Fraction


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class FormulaVar:
    formula: prop.PropFormula

    @property
    def key(self) -> str:
        return prop.to_text(self.formula)


@dataclass(frozen=True)
class Neg:
    operand: "Term"


@dataclass(frozen=True)
class Add:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Mul:
    left: "Term"
    right: "Term"


Term = Union[Const, Var, FormulaVar, Neg, Add, Mul]

ZERO = Const(ZERO_F)
ONE = Const(ONE_F)


def const(value) -> Const:
    return Const(Fraction(value))


def _fold_balanced(items: list, ctor):
    """Pairwise fold into a tree of depth about log2(len(items)), so the
    recursive walkers stay shallow on the 2^n-part distribution constraints."""
    while len(items) > 1:
        items = [ctor(*items[i : i + 2]) if i + 1 < len(items) else items[i]
                 for i in range(0, len(items), 2)]
    return items[0]


def add_all(terms: Iterable[Term]) -> Term:
    """Balanced sum; the empty sum is the zero term."""
    terms = list(terms)
    return _fold_balanced(terms, Add) if terms else ZERO


# -- formulas -----------------------------------------------------------------

@dataclass(frozen=True)
class Eq:
    left: Term
    right: Term


@dataclass(frozen=True)
class Lt:
    left: Term
    right: Term


@dataclass(frozen=True)
class Le:
    left: Term
    right: Term


@dataclass(frozen=True)
class Not:
    operand: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    antecedent: "Formula"
    consequent: "Formula"


Formula = Union[Eq, Lt, Le, Not, And, Or, Implies]

_ATOMS = (Eq, Lt, Le)


def and_all(formulas: Iterable[Formula]) -> Formula:
    """Balanced conjunction of a non-empty sequence."""
    formulas = list(formulas)
    if not formulas:
        raise ValueError("empty conjunction of field formulas")
    return _fold_balanced(formulas, And)


# -- assignments and evaluation -------------------------------------------------

@dataclass
class Assignment:
    """Rational values for variables.

    Numbered variables default to 0; formula variables (keyed by the
    canonical text of the propositional formula) have no default.
    """

    numeric: dict = field(default_factory=dict)
    probs: dict = field(default_factory=dict)

    def value_of(self, v: Union[Var, FormulaVar]) -> Fraction:
        if isinstance(v, Var):
            return self.numeric.get(v.index, ZERO_F)
        try:
            return self.probs[v.key]
        except KeyError:
            raise UnboundVariableError(f"no value for probability variable of {v.key!r}") from None

    def with_prob(self, formula: prop.PropFormula, value: Fraction) -> "Assignment":
        probs = dict(self.probs)
        probs[prop.to_text(formula)] = value
        return Assignment(dict(self.numeric), probs)


def eval_term(t: Term, rho: Assignment) -> Fraction:
    """Exact rational denotation of ``t`` under ``rho``."""
    if isinstance(t, Const):
        return t.value
    if isinstance(t, (Var, FormulaVar)):
        return rho.value_of(t)
    if isinstance(t, Neg):
        return -eval_term(t.operand, rho)
    if isinstance(t, Add):
        return eval_term(t.left, rho) + eval_term(t.right, rho)
    return eval_term(t.left, rho) * eval_term(t.right, rho)


def eval_formula(f: Formula, rho: Assignment) -> bool:
    if isinstance(f, Eq):
        return eval_term(f.left, rho) == eval_term(f.right, rho)
    if isinstance(f, Lt):
        return eval_term(f.left, rho) < eval_term(f.right, rho)
    if isinstance(f, Le):
        return eval_term(f.left, rho) <= eval_term(f.right, rho)
    if isinstance(f, Not):
        return not eval_formula(f.operand, rho)
    if isinstance(f, And):
        return eval_formula(f.left, rho) and eval_formula(f.right, rho)
    if isinstance(f, Or):
        return eval_formula(f.left, rho) or eval_formula(f.right, rho)
    return (not eval_formula(f.antecedent, rho)) or eval_formula(f.consequent, rho)


# -- variable table -------------------------------------------------------------

class VarTable:
    """Integer ids for the variables of a linear system, handed out on first
    use while linearizing.

    A table over a scope of n atoms reserves ids 0 .. 2^n - 1 for the point
    masses of the scope's subsets, in ascending bitmask order.  A formula
    variable listed in ``sums`` is no variable of its own: it stands for the
    given sum of point masses, the probability of a formula being the mass
    of its models.  Every other variable gets the next free id.
    """

    def __init__(self, sums: Optional[Mapping] = None, scope: prop.Scope = frozenset()):
        self.sums = sums or {}  # formula -> {point id: coefficient}
        self.scope = frozenset(scope)
        self.numeric: dict = {}  # index -> id
        self.formula_vars: dict = {}  # key -> id
        self._next = 1 << len(self.scope) if self.scope else 0

    def coeffs_of(self, v: Union[Var, FormulaVar]) -> Mapping[int, Fraction]:
        """The variable as a linear form over ids; callers must not mutate it."""
        if isinstance(v, FormulaVar) and v.formula in self.sums:
            return self.sums[v.formula]
        ids, name = (self.numeric, v.index) if isinstance(v, Var) else (self.formula_vars, v.key)
        if name not in ids:
            ids[name] = self._next
            self._next += 1
        return {ids[name]: ONE_F}

    def assignment_of(self, values: Mapping[int, Fraction]) -> Assignment:
        """The assignment of a solution: every variable met, every point
        formula of the scope at its mass, every defined formula variable at
        its sum (ids missing from ``values`` count as 0)."""
        numeric = {k: values.get(i, ZERO_F) for k, i in self.numeric.items()}
        probs = {key: values.get(i, ZERO_F) for key, i in self.formula_vars.items()}
        if self.scope:
            for m, U in enumerate(prop.subsets_ascending(self.scope)):
                probs[prop.to_text(prop.phi(self.scope, U))] = values.get(m, ZERO_F)
        for f, coeffs in self.sums.items():
            probs[prop.to_text(f)] = sum(
                (c * values.get(m, ZERO_F) for m, c in coeffs.items()), start=ZERO_F
            )
        return Assignment(numeric, probs)


# -- linearization ---------------------------------------------------------------

def _linearize(t: Term, table: VarTable):
    """Return (coeffs by var id, constant) or raise NonlinearTermError."""
    if isinstance(t, Const):
        return {}, t.value
    if isinstance(t, (Var, FormulaVar)):
        return table.coeffs_of(t), ZERO_F
    if isinstance(t, Neg):
        coeffs, c = _linearize(t.operand, table)
        return {k: -v for k, v in coeffs.items()}, -c
    if isinstance(t, Add):
        c1, k1 = _linearize(t.left, table)
        c2, k2 = _linearize(t.right, table)
        out = dict(c1)
        for k, v in c2.items():
            out[k] = out.get(k, ZERO_F) + v
        return {k: v for k, v in out.items() if v != 0}, k1 + k2
    c1, k1 = _linearize(t.left, table)
    c2, k2 = _linearize(t.right, table)
    if not c1:
        return {k: k1 * v for k, v in c2.items() if k1 * v != 0}, k1 * k2
    if not c2:
        return {k: k2 * v for k, v in c1.items() if k2 * v != 0}, k1 * k2
    raise NonlinearTermError("product of two non-constant terms")


def classify(f: Formula) -> str:
    """"linear" when every atom's terms have degree at most one, else "nonlinear"."""
    try:
        _linear_matrix(f, VarTable())
    except NonlinearTermError:
        return "nonlinear"
    return "linear"


# -- linear atoms -----------------------------------------------------------------

REL_EQ, REL_LE, REL_LT = "eq", "le", "lt"


@dataclass(frozen=True)
class LinearAtom:
    """Normalized constraint  sum(coeff_i * v_i) + const  REL  0.

    Coefficients are gcd-reduced integers over ascending variable ids; for
    equalities the first nonzero coefficient is positive.
    """

    coeffs: tuple  # ((var_id, int), ...) ascending, no zeros
    const: Fraction
    rel: str

    @staticmethod
    def make(coeffs: Mapping[int, Fraction], const: Fraction, rel: str) -> "LinearAtom":
        items = sorted((k, v) for k, v in coeffs.items() if v != 0)
        denom = math.lcm(const.denominator, *(v.denominator for _, v in items)) if items or const else 1
        ints = [(k, int(v * denom)) for k, v in items]
        c = const * denom
        g = math.gcd(int(c.numerator) if c.denominator == 1 else 0, *(abs(n) for _, n in ints))
        if g > 1:
            ints = [(k, n // g) for k, n in ints]
            c = c / g
        if rel == REL_EQ and ints and ints[0][1] < 0:
            ints = [(k, -n) for k, n in ints]
            c = -c
        return LinearAtom(tuple((k, Fraction(n)) for k, n in ints), c, rel)

    def holds_on_constants(self) -> bool:
        if self.rel == REL_EQ:
            return self.const == 0
        if self.rel == REL_LE:
            return self.const <= 0
        return self.const < 0


def _atom_to_linear(atom, table: VarTable) -> LinearAtom:
    cl, kl = _linearize(atom.left, table)
    cr, kr = _linearize(atom.right, table)
    coeffs = dict(cl)
    for k, v in cr.items():
        coeffs[k] = coeffs.get(k, ZERO_F) - v
    rel = {Eq: REL_EQ, Lt: REL_LT, Le: REL_LE}[type(atom)]
    return LinearAtom.make(coeffs, kl - kr, rel)


def _linear_matrix(f: Formula, table: VarTable) -> Formula:
    """The matrix with every atom replaced by its LinearAtom, in one pass
    that also detects nonlinearity (NonlinearTermError)."""
    if isinstance(f, _ATOMS):
        return _atom_to_linear(f, table)
    if isinstance(f, Not):
        return Not(_linear_matrix(f.operand, table))
    if isinstance(f, Implies):
        return Implies(_linear_matrix(f.antecedent, table), _linear_matrix(f.consequent, table))
    return type(f)(_linear_matrix(f.left, table), _linear_matrix(f.right, table))


# -- Fourier-Motzkin feasibility ----------------------------------------------------

_FM_ROW_CAP = 200_000


class FmBlowupError(RuntimeError):
    """Intermediate constraint count exceeded the safety cap."""


def fm_feasible(atoms: Iterable[LinearAtom]) -> Optional[dict]:
    """Decide feasibility of a conjunction of linear atoms over the rationals.

    Returns a satisfying assignment (var id -> Fraction; unmentioned
    variables are free and get 0) or None when infeasible.  Interval
    presolving first pins variables forced to a bound (rows whose extreme
    value over the known variable intervals is exactly the allowed limit);
    variables bound by an equality are then eliminated by substitution and
    the rest by pairing lower against upper bounds, a strict bound making
    the combined constraint strict.  Witness values are recovered in
    reverse: the midpoint of the final interval, bound +/- 1 when
    half-unbounded, 0 when free.
    """
    work: dict = {}
    for a in atoms:
        work[(a.coeffs, a.const, a.rel)] = a
    rows = list(work.values())
    trace = []
    while True:
        kept = []
        for a in rows:
            if a.coeffs:
                kept.append(a)
            elif not a.holds_on_constants():
                return None
        rows = kept
        presolved = _presolve(rows, trace)
        if presolved is None:
            return None
        if presolved is not rows:
            rows = presolved
            continue
        var_ids = sorted({k for a in rows for k, _ in a.coeffs})
        if not var_ids:
            break
        target = _pick_variable(rows, var_ids)
        eq_candidates = [
            a for a in rows if a.rel == REL_EQ and any(k == target for k, _ in a.coeffs)
        ]
        eq = min(eq_candidates, key=lambda a: len(a.coeffs)) if eq_candidates else None
        if eq is not None:
            rows = _substitute_equality(rows, eq, target, trace)
        else:
            rows = _eliminate_inequalities(rows, target, trace)
        if len(rows) > _FM_ROW_CAP:
            raise FmBlowupError(f"constraint count exceeded {_FM_ROW_CAP}")
    values: dict = {}
    for record in reversed(trace):
        kind, var = record[0], record[1]
        if kind == "eq":
            coeffs, c = record[2]
            values[var] = sum((v * values.get(k, ZERO_F) for k, v in coeffs), start=c)
        else:
            lowers, uppers = record[2], record[3]
            lo = hi = None
            lo_strict = hi_strict = False
            for coeffs, c, strict in lowers:
                b = sum((v * values.get(k, ZERO_F) for k, v in coeffs), start=c)
                if lo is None or b > lo or (b == lo and strict):
                    lo, lo_strict = b, strict
            for coeffs, c, strict in uppers:
                b = sum((v * values.get(k, ZERO_F) for k, v in coeffs), start=c)
                if hi is None or b < hi or (b == hi and strict):
                    hi, hi_strict = b, strict
            if lo is None and hi is None:
                values[var] = ZERO_F
            elif lo is None:
                values[var] = hi - 1
            elif hi is None:
                values[var] = lo + 1
            else:
                values[var] = (lo + hi) / 2
    for a in atoms:
        total = sum((v * values.get(k, ZERO_F) for k, v in a.coeffs), start=a.const)
        ok = total == 0 if a.rel == REL_EQ else total <= 0 if a.rel == REL_LE else total < 0
        if not ok:  # pragma: no cover - guards the elimination logic
            raise AssertionError("recovered point violates an input constraint")
    return values


def _interval_bounds(rows):
    """Tightest per-variable bounds from single-variable rows.

    Returns {var: (lo, lo_strict, hi, hi_strict)} with None for absent
    bounds, or None when some interval is already empty.
    """
    bounds: dict = {}
    for a in rows:
        if len(a.coeffs) != 1 or a.rel == REL_EQ:
            continue
        (v, c), strict = a.coeffs[0], a.rel == REL_LT
        value = -a.const / c
        lo, lo_s, hi, hi_s = bounds.get(v, (None, False, None, False))
        if c > 0:  # c*v + const <= 0  ->  v <= value
            if hi is None or value < hi or (value == hi and strict):
                hi, hi_s = value, strict
        else:
            if lo is None or value > lo or (value == lo and strict):
                lo, lo_s = value, strict
        bounds[v] = (lo, lo_s, hi, hi_s)
    for lo, lo_s, hi, hi_s in bounds.values():
        if lo is not None and hi is not None:
            if lo > hi or (lo == hi and (lo_s or hi_s)):
                return None
    return bounds


def _row_extreme(a: LinearAtom, bounds, minimize: bool):
    """Extreme value of the row expression over the bound box, as
    (value, attained, fixing) where fixing pins each variable at the bound
    achieving the extreme; None when unbounded in that direction."""
    total = a.const
    attained = True
    fixing = []
    for v, c in a.coeffs:
        lo, lo_s, hi, hi_s = bounds.get(v, (None, False, None, False))
        want_low = (c > 0) == minimize
        bound, strict = (lo, lo_s) if want_low else (hi, hi_s)
        if bound is None:
            return None
        total += c * bound
        attained = attained and not strict
        fixing.append((v, bound, strict))
    return total, attained, fixing


def _presolve(rows, trace):
    """One pinning/infeasibility pass over the rows.

    Pins variables forced to a bound (interval collapsed to a point, or a
    row whose extreme over the box equals its limit), drops rows that hold
    everywhere on the box, and reports infeasibility as None.  Returns the
    input list unchanged (by identity) when nothing fires.
    """
    bounds = _interval_bounds(rows)
    if bounds is None:
        return None
    fixes: dict = {}

    def pin(v, value):
        if v not in fixes:
            fixes[v] = value

    for v, (lo, lo_s, hi, hi_s) in bounds.items():
        if lo is not None and hi is not None and lo == hi and not (lo_s or hi_s):
            pin(v, lo)
    dropped = set()
    for idx, a in enumerate(rows):
        if len(a.coeffs) <= 1:
            continue
        low = _row_extreme(a, bounds, minimize=True)
        high = _row_extreme(a, bounds, minimize=False)
        if a.rel == REL_EQ:
            if low is not None:
                value, attained, fixing = low
                if value > 0 or (value == 0 and not attained):
                    return None
                if value == 0:
                    for v, b, _ in fixing:
                        pin(v, b)
                    continue
            if high is not None:
                value, attained, fixing = high
                if value < 0 or (value == 0 and not attained):
                    return None
                if value == 0:
                    for v, b, _ in fixing:
                        pin(v, b)
        else:
            strict = a.rel == REL_LT
            if low is not None:
                value, attained, fixing = low
                if value > 0 or (value == 0 and (strict or not attained)):
                    return None
                if value == 0:  # only the extreme point satisfies the row
                    for v, b, _ in fixing:
                        pin(v, b)
                    continue
            if high is not None:
                value, attained, _ = high
                if value < 0 or (value == 0 and (not attained or not strict)):
                    dropped.add(idx)
    if not fixes and not dropped:
        return rows
    kept = [a for idx, a in enumerate(rows) if idx not in dropped]
    for v, value in fixes.items():
        trace.append(("eq", v, ((), value)))
        out: dict = {}
        for a in kept:
            c = next((cv for k, cv in a.coeffs if k == v), None)
            if c is None:
                out.setdefault((a.coeffs, a.const, a.rel), a)
                continue
            coeffs = {k: cv for k, cv in a.coeffs if k != v}
            na = LinearAtom.make(coeffs, a.const + c * value, a.rel)
            out.setdefault((na.coeffs, na.const, na.rel), na)
        kept = list(out.values())
    return kept


def _pick_variable(rows, var_ids) -> int:
    # equalities eliminate by substitution: prefer the sparsest equality row
    # (least fill-in), and within it the variable occurring in fewest other
    # rows; otherwise minimize the lower*upper pairing product
    occurrences: dict = {}
    for a in rows:
        for k, _ in a.coeffs:
            occurrences[k] = occurrences.get(k, 0) + 1
    eq_rows = [a for a in rows if a.rel == REL_EQ]
    if eq_rows:
        row = min(eq_rows, key=lambda a: (len(a.coeffs), a.coeffs[0][0]))
        return min(row.coeffs, key=lambda kv: (occurrences[kv[0]], kv[0]))[0]
    best, best_cost = None, None
    for v in var_ids:
        nl = nu = 0
        for a in rows:
            c = next((cv for k, cv in a.coeffs if k == v), None)
            if c is None:
                continue
            if c > 0:
                nu += 1
            else:
                nl += 1
        cost = nl * nu
        if best_cost is None or cost < best_cost:
            best, best_cost = v, cost
    return best


def _solve_for(a: LinearAtom, target: int):
    """Rewrite ``a`` (which mentions target) as  target = coeffs . vars + const."""
    c = next(v for k, v in a.coeffs if k == target)
    rest = tuple((k, -v / c) for k, v in a.coeffs if k != target)
    return rest, -a.const / c, c


def _substitute_equality(rows, eq: LinearAtom, target: int, trace) -> list:
    expr_coeffs, expr_const, _ = _solve_for(eq, target)
    trace.append(("eq", target, (expr_coeffs, expr_const)))
    out: dict = {}
    for a in rows:
        if a is eq:
            continue
        c = next((v for k, v in a.coeffs if k == target), None)
        if c is None:
            out.setdefault((a.coeffs, a.const, a.rel), a)
            continue
        coeffs = {k: v for k, v in a.coeffs if k != target}
        for k, v in expr_coeffs:
            coeffs[k] = coeffs.get(k, ZERO_F) + c * v
        na = LinearAtom.make(coeffs, a.const + c * expr_const, a.rel)
        out.setdefault((na.coeffs, na.const, na.rel), na)
    return list(out.values())


def _eliminate_inequalities(rows, target: int, trace) -> list:
    lowers, uppers, rest = [], [], []
    for a in rows:
        c = next((v for k, v in a.coeffs if k == target), None)
        if c is None:
            rest.append(a)
            continue
        # c*target + r REL 0  ->  target <= -r/c (c>0)  or  target >= -r/c (c<0)
        expr_coeffs, expr_const, coef = _solve_for(a, target)
        strict = a.rel == REL_LT
        if coef > 0:
            uppers.append((expr_coeffs, expr_const, strict))
        else:
            lowers.append((expr_coeffs, expr_const, strict))
    trace.append(("ineq", target, lowers, uppers))
    out: dict = {}
    for a in rest:
        out.setdefault((a.coeffs, a.const, a.rel), a)
    for lc, lk, ls in lowers:
        for uc, uk, us in uppers:
            coeffs = dict(lc)
            for k, v in uc:
                coeffs[k] = coeffs.get(k, ZERO_F) - v
            na = LinearAtom.make(coeffs, lk - uk, REL_LT if ls or us else REL_LE)
            out.setdefault((na.coeffs, na.const, na.rel), na)
    return list(out.values())


# -- negation and DNF --------------------------------------------------------------
# on linearized matrices:  not e = 0  is  e < 0 or -e < 0,  not e <= 0  is
# -e < 0,  and  not e < 0  is  -e <= 0

def _negate(f: Formula) -> Formula:
    if isinstance(f, LinearAtom):
        flipped = tuple((k, -v) for k, v in f.coeffs)
        if f.rel == REL_EQ:
            return Or(LinearAtom(f.coeffs, f.const, REL_LT), LinearAtom(flipped, -f.const, REL_LT))
        return LinearAtom(flipped, -f.const, REL_LT if f.rel == REL_LE else REL_LE)
    if isinstance(f, Not):
        return f.operand
    if isinstance(f, And):
        return Or(_negate(f.left), _negate(f.right))
    if isinstance(f, Or):
        return And(_negate(f.left), _negate(f.right))
    return And(f.antecedent, _negate(f.consequent))


def _dnf_clauses(f: Formula, cap: int) -> list:
    """Clauses (lists of LinearAtoms) of the disjunctive normal form of a
    linearized matrix."""
    if isinstance(f, LinearAtom):
        return [[f]]
    if isinstance(f, Not):
        return _dnf_clauses(_negate(f.operand), cap)
    if isinstance(f, Implies):
        return _dnf_clauses(Or(_negate(f.antecedent), f.consequent), cap)
    if isinstance(f, Or):
        left = _dnf_clauses(f.left, cap)
        right = _dnf_clauses(f.right, cap)
        if len(left) + len(right) > cap:
            raise ClauseCapError(f"more than {cap} clauses in the negated matrix")
        return left + right
    left = _dnf_clauses(f.left, cap)
    right = _dnf_clauses(f.right, cap)
    if len(left) * len(right) > cap:
        raise ClauseCapError(f"more than {cap} clauses in the negated matrix")
    return [lc + rc for lc in left for rc in right]


# -- decisions ----------------------------------------------------------------------

VALID, INVALID, UNSUPPORTED = "valid", "invalid", "unsupported"


@dataclass(frozen=True)
class Decision:
    """Outcome of deciding the universal closure of a matrix.

    A refuting witness accompanies INVALID when the internal decider
    produced one; external solvers report INVALID without a model.
    """

    status: str
    witness: Optional[Assignment] = None
    reason: Optional[str] = None

    @property
    def is_valid(self) -> bool:
        return self.status == VALID


def decide_universal_linear(
    matrix: Formula,
    clause_cap: int = 4096,
    rows: Iterable[LinearAtom] = (),
    table: Optional[VarTable] = None,
) -> Decision:
    """Decide the universal closure of ``rows -> matrix`` for a linear matrix.

    ``rows`` are constraints every disjunct shares, such as the distribution
    polytope, over the ids of ``table``, which may define formula variables
    as sums of them.  Each atom of the matrix is linearized once, which
    raises NonlinearTermError for a product of variables.  Valid iff no
    disjunct of the negated matrix is feasible together with ``rows``; a
    feasible disjunct yields a witness assignment that refutes the matrix.
    """
    table = VarTable() if table is None else table
    linear = _linear_matrix(matrix, table)
    try:
        clauses = _dnf_clauses(_negate(linear), clause_cap)
    except ClauseCapError as e:
        return Decision(UNSUPPORTED, reason=str(e))
    rows = list(rows)
    for clause in clauses:
        try:
            values = fm_feasible(rows + clause)
        except FmBlowupError as e:
            return Decision(UNSUPPORTED, reason=str(e))
        if values is not None:
            witness = table.assignment_of(values)
            if eval_formula(matrix, witness):  # pragma: no cover - decider self-check
                raise AssertionError("witness fails to refute the matrix")
            return Decision(INVALID, witness=witness)
    return Decision(VALID)


# -- SMT-LIB bridge -----------------------------------------------------------------

def _smt_name(v) -> str:
    if isinstance(v, Var):
        return f"xk_{v.index}"
    digest = hashlib.sha256(v.key.encode()).hexdigest()[:12]
    return f"xa_{digest}"


def _smt_term(t: Term, seen: set) -> str:
    if isinstance(t, Const):
        num, den = t.value.numerator, t.value.denominator
        body = str(num) if den == 1 else f"(/ {num} {den})"
        return f"(- {body.replace('-', '', 1)})" if num < 0 else body
    if isinstance(t, (Var, FormulaVar)):
        seen.add(t)
        return _smt_name(t)
    if isinstance(t, Neg):
        return f"(- {_smt_term(t.operand, seen)})"
    if isinstance(t, Add):
        return f"(+ {_smt_term(t.left, seen)} {_smt_term(t.right, seen)})"
    return f"(* {_smt_term(t.left, seen)} {_smt_term(t.right, seen)})"


def _smt_formula(f: Formula, seen: set) -> str:
    if isinstance(f, Eq):
        return f"(= {_smt_term(f.left, seen)} {_smt_term(f.right, seen)})"
    if isinstance(f, Lt):
        return f"(< {_smt_term(f.left, seen)} {_smt_term(f.right, seen)})"
    if isinstance(f, Le):
        return f"(<= {_smt_term(f.left, seen)} {_smt_term(f.right, seen)})"
    if isinstance(f, Not):
        return f"(not {_smt_formula(f.operand, seen)})"
    if isinstance(f, And):
        return f"(and {_smt_formula(f.left, seen)} {_smt_formula(f.right, seen)})"
    if isinstance(f, Or):
        return f"(or {_smt_formula(f.left, seen)} {_smt_formula(f.right, seen)})"
    return f"(=> {_smt_formula(f.antecedent, seen)} {_smt_formula(f.consequent, seen)})"


def emit_smtlib(matrix: Formula) -> str:
    """SMT-LIB 2 script asserting the negation of the matrix.

    ``unsat`` from a solver means the universal closure of the matrix is
    valid.  Variable names are deterministic; a comment table maps each
    probability variable back to its formula.
    """
    seen: set = set()
    assertion = f"(assert (not {_smt_formula(matrix, seen)}))"
    numeric = sorted(v.index for v in seen if isinstance(v, Var))
    formula_vars = sorted((v for v in seen if isinstance(v, FormulaVar)), key=lambda v: v.key)
    lines = ["; validity of a universal sentence via unsat of its negation"]
    for fv in formula_vars:
        lines.append(f"; {_smt_name(fv)} : probability of `{fv.key}`")
    lines.append("(set-logic QF_NRA)")
    for k in numeric:
        lines.append(f"(declare-const xk_{k} Real)")
    for fv in formula_vars:
        lines.append(f"(declare-const {_smt_name(fv)} Real)")
    lines.append(assertion)
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


def run_external(matrix: Formula, solver_command: str, timeout: float) -> Decision:
    """Feed the emitted script to an external solver process.

    The command is split shell-style and receives the script path as its
    final argument; the first line of standard output must be ``sat``,
    ``unsat`` or ``unknown``.
    """
    script = emit_smtlib(matrix)
    with tempfile.NamedTemporaryFile("w", suffix=".smt2", delete=False) as handle:
        handle.write(script)
        path = handle.name
    try:
        proc = subprocess.run(
            shlex.split(solver_command) + [path],
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return Decision(UNSUPPORTED, reason=f"solver timed out after {timeout}s")
    except OSError as e:
        return Decision(UNSUPPORTED, reason=f"cannot run solver: {e}")
    finally:
        os.unlink(path)
    first = proc.stdout.strip().splitlines()[0].strip() if proc.stdout.strip() else ""
    if first == "unsat":
        return Decision(VALID)
    if first == "sat":
        return Decision(INVALID, witness=None)
    return Decision(UNSUPPORTED, reason=f"solver answered {first or proc.stderr.strip()!r}")


def decide(matrix: Formula, config=None) -> Decision:
    """Decide the universal closure of a matrix, routing by fragment.

    Linear matrices go to the internal exact decider; nonlinear ones go to
    the configured external solver, or come back unsupported.
    """
    from .config import Config

    config = config or Config()
    try:
        return decide_universal_linear(matrix, clause_cap=config.clause_cap)
    except NonlinearTermError:
        pass
    command = config.resolved_solver()
    if command is None:
        return Decision(UNSUPPORTED, reason="nonlinear sentence and no SMT solver configured")
    return run_external(matrix, command, config.timeout)
