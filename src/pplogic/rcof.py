"""Terms and quantifier-free formulas over ordered fields, plus a decision
procedure for universally closed sentences in the linear fragment.

Terms are built from exact rational constants, numbered variables ``x_k``
and formula variables (one real unknown per classical propositional
formula, keyed by its canonical text).  Formulas combine ``=``, ``<`` and
``<=`` atoms with the usual connectives; every decision treats its input
as the universal closure of the given matrix.

One table states what each operator means: its SMT-LIB operator, its
exact Python operation and, for an atom, its linear relation.  The one
evaluator, the one SMT-LIB writer and the linearizer read it and reach a
node's children through the dataclasses' ``__match_args__``.

The linear decider linearizes the atoms of the matrix once, reads the
clauses of the disjunctive normal form of its negation off the matrix by
polarity (no negated copy is built), and refutes each disjunct, together
with any shared constraint rows, by an exact general
simplex with bounds over rationals; strict bounds are shifted by a symbolic
infinitesimal that is fixed to a concrete rational at the end.  A formula
variable may be defined as a sum of cell masses rather than stand alone.
Infeasibility of every disjunct proves the sentence; a feasible disjunct
yields the simplex vertex as a rational counter-assignment.  Sentences
outside the linear fragment are shipped to an external SMT solver over the
reals when one is configured.
"""

from __future__ import annotations

import hashlib
import math
import operator
import os
import shlex
import subprocess
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Union

from . import prop, stochval
from .config import Config

ZERO_F = Fraction(0)
ONE_F = Fraction(1)

# Distinct systems whose simplex result is kept; a sweep of small threshold
# entailments poses a few hundred.
_SIMPLEX_SYSTEMS = 4096


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
    recursive walkers stay shallow on long sums and conjunctions, such as
    the distribution constraints over many cells."""
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


# -- the operator table ---------------------------------------------------------

REL_EQ, REL_LE, REL_LT = "eq", "le", "lt"


class _Op(NamedTuple):
    smt: str  # SMT-LIB operator
    python: Callable  # exact operation on the values of the children
    rel: Optional[str] = None  # LinearAtom relation of an atom


_OPS = {
    Neg: _Op("-", operator.neg),
    Add: _Op("+", operator.add),
    Mul: _Op("*", operator.mul),
    Eq: _Op("=", operator.eq, REL_EQ),
    Lt: _Op("<", operator.lt, REL_LT),
    Le: _Op("<=", operator.le, REL_LE),
    Not: _Op("not", operator.not_),
    And: _Op("and", operator.and_),
    Or: _Op("or", operator.or_),
    Implies: _Op("=>", operator.le),  # on truth values a -> b is a <= b
}


def _children(node) -> list:
    """The children of a node in field order.  The walkers unpack a map
    over them: a comprehension, or a bare map handed to ``str.join``, would
    double the stack spent per level of nesting."""
    return [getattr(node, name) for name in node.__match_args__]


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


def eval_term(t: Union[Term, Formula], rho: Assignment):
    """Exact denotation under ``rho``: a Fraction for a term, a bool for a
    formula.  ``&``, ``|`` and ``->`` leave out a right side that their left
    side decides."""
    if isinstance(t, Const):
        return t.value
    if isinstance(t, (Var, FormulaVar)):
        return rho.value_of(t)
    op = _OPS[type(t)].python
    left, *right = _children(t)
    value = eval_term(left, rho)
    if not right:
        return op(value)
    if isinstance(t, (And, Or, Implies)) and op(value, False) == op(value, True):
        return op(value, False)
    return op(value, eval_term(right[0], rho))


eval_formula = eval_term


# -- variable table -------------------------------------------------------------

class VarTable:
    """Integer ids for the variables of a linear system, handed out on first
    use while linearizing.

    A table over a scope reserves ids 0 .. k - 1 for the masses of the k
    cells of ``ppl.distribution_rows``; ``points`` lists each cell's
    representative, the bitmask of a subset of the scope.  A formula
    variable listed in ``sums`` is no variable of its own: it stands for the
    given sum of cell masses, the probability of a formula being the mass
    of the cells inside its models.  Every other variable gets the next
    free id.
    """

    def __init__(
        self,
        sums: Optional[Mapping] = None,
        scope: prop.Scope = frozenset(),
        points: Iterable[int] = (),
    ):
        self.sums = sums or {}  # formula -> {cell id: coefficient}
        self.scope = frozenset(scope)
        self.points = list(points)  # cell id -> representative bitmask
        self.numeric: dict = {}  # index -> id
        self.formula_vars: dict = {}  # key -> id
        self._next = len(self.points)

    def coeffs_of(self, v: Union[Var, FormulaVar]) -> Mapping[int, int]:
        """The variable as a linear form over ids; callers must not mutate it."""
        if isinstance(v, FormulaVar) and v.formula in self.sums:
            return self.sums[v.formula]
        ids, name = (self.numeric, v.index) if isinstance(v, Var) else (self.formula_vars, v.key)
        if name not in ids:
            ids[name] = self._next
            self._next += 1
        return {ids[name]: 1}

    def assignment_of(self, values: Mapping[int, Fraction]) -> Assignment:
        """The assignment of a solution: every variable met, each cell with
        nonzero mass as the point formula of its representative at that
        mass (a point formula left out has mass 0), every defined formula
        variable at its sum (ids missing from ``values`` count as 0)."""
        numeric = {k: values.get(i, ZERO_F) for k, i in self.numeric.items()}
        probs = {key: values.get(i, ZERO_F) for key, i in self.formula_vars.items()}
        for c, m in enumerate(self.points):
            if values.get(c, ZERO_F) != 0:
                point = prop.phi(self.scope, prop.subset_of_mask(self.scope, m))
                probs[prop.to_text(point)] = values[c]
        for f, coeffs in self.sums.items():
            probs[prop.to_text(f)] = sum(
                (c * values.get(i, ZERO_F) for i, c in coeffs.items()), start=ZERO_F
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
            out[k] = out.get(k, 0) + v
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

@dataclass(frozen=True)
class LinearAtom:
    """Normalized constraint  sum(coeff_i * v_i) + const  REL  0.

    Coefficients are gcd-reduced ``int``s over ascending variable ids and the
    constant is an integer-valued Fraction; for equalities the first nonzero
    coefficient is positive.  Atoms are hash keys of the simplex memo, so the
    hash is precomputed.
    """

    coeffs: tuple  # ((var_id, int), ...) ascending, no zeros
    const: Fraction
    rel: str

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.coeffs, self.const, self.rel)))

    def __hash__(self):
        return self._hash

    @staticmethod
    def make(coeffs: Mapping[int, Fraction], const: Fraction, rel: str) -> "LinearAtom":
        items = [(k, v) for k, v in sorted(coeffs.items()) if v]
        denom = math.lcm(const.denominator, *(v.denominator for _, v in items))
        ints = [(k, v.numerator * (denom // v.denominator)) for k, v in items]
        c = const.numerator * (denom // const.denominator)
        g = math.gcd(c, *(n for _, n in ints))
        if g > 1:
            ints = [(k, n // g) for k, n in ints]
            c //= g
        if rel == REL_EQ and ints and ints[0][1] < 0:
            ints = [(k, -n) for k, n in ints]
            c = -c
        return LinearAtom(tuple(ints), Fraction(c), rel)

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
        coeffs[k] = coeffs.get(k, 0) - v
    return LinearAtom.make(coeffs, kl - kr, _OPS[type(atom)].rel)


def _linear_matrix(f: Formula, table: VarTable) -> Formula:
    """The matrix with every atom replaced by its LinearAtom, in one pass
    that also detects nonlinearity (NonlinearTermError)."""
    if isinstance(f, _ATOMS):
        return _atom_to_linear(f, table)
    return type(f)(*map(_linear_matrix, _children(f), repeat(table)))


# -- feasibility by exact general simplex ---------------------------------------------
# Values and bounds are delta-rationals: a pair (a, b) stands for a + b*delta
# with delta a positive infinitesimal, so tuple order is the order of values
# and a strict bound v < u becomes v <= (u, -1).  A tableau row is integer:
# (d, {k: n_k}) with d > 0 and gcd(d, n_k...) = 1 stands for d*x_i = sum(n_k*x_k),
# so the row of a basic variable is unique and its signs are those of its
# rational coefficients n_k / d.

def fm_feasible(atoms: Iterable[LinearAtom]) -> Optional[dict]:
    """Decide feasibility of a conjunction of linear atoms over the rationals.

    Returns a satisfying assignment (var id -> Fraction; unmentioned
    variables are free and get 0) or None when infeasible.  General simplex
    with bounds (Dutertre & de Moura, CAV 2006): a one-variable row bounds
    its variable, and each distinct multi-variable left-hand side becomes a
    basic slack variable bounded by its rows.  Tableau rows hold integers
    over a positive row denominator and pivot fraction-free; only values,
    bounds and the returned point are Fractions.  Bland's rule repairs the
    smallest out-of-bound basic variable by pivoting with the smallest
    nonbasic variable that can move; a basic variable that no nonbasic one
    can move proves infeasibility.  A concrete delta is then fixed small
    enough to keep every bound, and the vertex reached is returned after an
    exact check against every input atom.  The name is kept from the
    Fourier-Motzkin procedure the simplex replaced.

    Each distinct sequence of atoms is decided once while it stays in a
    bounded memo; every caller gets a fresh dict.
    """
    values = _simplex(tuple(atoms))
    return None if values is None else dict(values)


@lru_cache(maxsize=_SIMPLEX_SYSTEMS)
def _simplex(atoms: tuple) -> Optional[dict]:
    """The simplex of ``fm_feasible`` on one system; callers must not mutate
    the dict returned."""
    column: dict = {}  # var id, or a slack's coefficient tuple -> column
    lower: list = []
    upper: list = []
    rows: dict = {}  # basic column -> (d, {nonbasic column: int})

    def column_of(key) -> int:
        if key not in column:
            column[key] = len(lower)
            lower.append(None)
            upper.append(None)
        return column[key]

    for a in atoms:
        if not a.coeffs:
            if not a.holds_on_constants():
                return None
            continue
        if len(a.coeffs) == 1:
            (v, c), = a.coeffs
            col = column_of(v)
        else:  # a row and its negation share one slack
            c = 1 if a.coeffs[0][1] > 0 else -1
            lhs = tuple((k, c * v) for k, v in a.coeffs)
            if lhs not in column:
                rows[column_of(lhs)] = (1, {column_of(k): v for k, v in lhs})
            col = column[lhs]
        # c*col + const REL 0
        bound = -a.const / c
        if a.rel == REL_EQ or c > 0:
            new = (bound, -ONE_F if a.rel == REL_LT else ZERO_F)
            if upper[col] is None or new < upper[col]:
                upper[col] = new
        if a.rel == REL_EQ or c < 0:
            new = (bound, ONE_F if a.rel == REL_LT else ZERO_F)
            if lower[col] is None or new > lower[col]:
                lower[col] = new
    if any(lo is not None and hi is not None and lo > hi for lo, hi in zip(lower, upper)):
        return None

    value = [lo or hi or (ZERO_F, ZERO_F) for lo, hi in zip(lower, upper)]
    for i, (_, row) in rows.items():  # every start row has d = 1
        terms = [(c, value[j]) for j, c in row.items() if value[j][0] or value[j][1]]
        value[i] = tuple(sum((c * v[t] for c, v in terms), start=ZERO_F) for t in (0, 1))
    while True:
        for i in sorted(rows):
            if lower[i] is not None and value[i] < lower[i]:
                target, rising = lower[i], True
                break
            if upper[i] is not None and value[i] > upper[i]:
                target, rising = upper[i], False
                break
        else:
            break
        row = rows[i][1]
        for j in sorted(row):
            if (row[j] > 0) == rising:
                if upper[j] is None or value[j] < upper[j]:
                    break
            elif lower[j] is None or value[j] > lower[j]:
                break
        else:
            return None
        _pivot_and_update(rows, value, i, j, target)

    delta = ONE_F
    for (x, dx), lo, hi in zip(value, lower, upper):
        if lo is not None and lo[0] < x and lo[1] > dx:
            delta = min(delta, (x - lo[0]) / (lo[1] - dx))
        if hi is not None and x < hi[0] and dx > hi[1]:
            delta = min(delta, (hi[0] - x) / (dx - hi[1]))
    values = {
        key: value[col][0] + value[col][1] * delta
        for key, col in column.items()
        if isinstance(key, int)
    }
    support = {k: x for k, x in values.items() if x}
    for a in atoms:
        total = sum((v * support[k] for k, v in a.coeffs if k in support), start=a.const)
        ok = total == 0 if a.rel == REL_EQ else total <= 0 if a.rel == REL_LE else total < 0
        if not ok:  # pragma: no cover - guards the simplex
            raise AssertionError("simplex point violates an input constraint")
    return values


def _pivot_and_update(rows: dict, value: list, i: int, j: int, target: tuple) -> None:
    """Move basic column i to ``target`` through nonbasic column j, then swap
    their roles: j becomes basic and i nonbasic.

    Row i, d*x_i = a*x_j + rest, solves to a*x_j = d*x_i - rest, its signs
    flipped when a < 0 so that the new denominator |a| stays positive; it
    needs no reduction, holding the same integers as row i.  Every other row
    e*x_k = c*x_j + rest' is cross-multiplied by |a| and gets c times the
    solved row added (fraction-free, as in Bareiss 1968), then divided by
    the gcd of its integers."""
    d, row = rows.pop(i)
    a = row.pop(j)
    ratio = Fraction(d, a)  # dx_j / dx_i along row i
    step = ((target[0] - value[i][0]) * ratio, (target[1] - value[i][1]) * ratio)
    value[i] = target
    value[j] = (value[j][0] + step[0], value[j][1] + step[1])
    sign = 1 if a > 0 else -1
    pivot = sign * a
    solved = {k: -sign * n for k, n in row.items()}
    solved[i] = sign * d
    for k, (e, other) in rows.items():
        c = other.pop(j, None)
        if c is None:
            continue
        rate = Fraction(c, e)
        value[k] = (value[k][0] + rate * step[0], value[k][1] + rate * step[1])
        if pivot != 1:
            e *= pivot
            for m in other:
                other[m] *= pivot
        for m, n in solved.items():
            total = other.get(m, 0) + c * n
            if total:
                other[m] = total
            else:
                del other[m]
        g = math.gcd(e, *other.values())
        if g > 1:
            e //= g
            for m in other:
                other[m] //= g
        rows[k] = (e, other)
    rows[j] = (pivot, solved)


# -- DNF by polarity --------------------------------------------------------------

def _dnf_clauses(f: Formula, cap: int, negated: bool = False) -> list:
    """Clauses (lists of LinearAtoms) of the disjunctive normal form of a
    linearized matrix, or of its negation when ``negated``.  Negation is
    read on the way down: ``!`` flips it, ``a -> b`` is ``!a | b``, and a
    negated ``&`` is an ``|`` and vice versa.  A negated atom is rewritten
    over LinearAtoms: not e = 0 is e < 0 or -e < 0, not e <= 0 is -e < 0,
    and not e < 0 is -e <= 0.  An atom without variables is decided on the
    spot: a false one has no clause and a true one the empty clause."""
    while isinstance(f, Not):
        f, negated = f.operand, not negated
    if isinstance(f, LinearAtom):
        if negated:
            flipped = tuple((k, -v) for k, v in f.coeffs)
            if f.rel == REL_EQ:
                both = Or(LinearAtom(f.coeffs, f.const, REL_LT), LinearAtom(flipped, -f.const, REL_LT))
                return _dnf_clauses(both, cap)
            f = LinearAtom(flipped, -f.const, REL_LT if f.rel == REL_LE else REL_LE)
        if not f.coeffs:
            return [[]] if f.holds_on_constants() else []
        return [[f]]
    first, second = _children(f)
    left = _dnf_clauses(first, cap, negated != isinstance(f, Implies))
    right = _dnf_clauses(second, cap, negated)
    if isinstance(f, And) == negated:  # a disjunction under this polarity
        if len(left) + len(right) > cap:
            raise ClauseCapError(f"more than {cap} clauses in the negated matrix")
        return left + right
    if len(left) * len(right) > cap:
        raise ClauseCapError(f"more than {cap} clauses in the negated matrix")
    return [lc + rc for lc in left for rc in right]


# -- decisions ----------------------------------------------------------------------

VALID, INVALID, UNSUPPORTED = "valid", "invalid", "unsupported"


@dataclass(frozen=True)
class Decision:
    """Outcome of deciding the universal closure of a matrix.

    A refuting witness accompanies INVALID when the internal decider
    produced one; external solvers report INVALID without a model.  Over a
    ``VarTable`` with cells, ``decide_universal_linear`` also sets the
    ``valuation`` of the witness's cell masses (``stochval.from_cells``),
    which ``validity.decide_validity`` checks to refute its formula.
    """

    status: str
    witness: Optional[Assignment] = None
    reason: Optional[str] = None
    valuation: Optional[stochval.StochasticValuation] = None


def decide_universal_linear(
    matrix: Formula,
    clause_cap: int = Config.clause_cap,
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
        clauses = _dnf_clauses(linear, clause_cap, negated=True)
    except ClauseCapError as e:
        return Decision(UNSUPPORTED, reason=str(e))
    rows = list(rows)
    for clause in clauses:
        values = fm_feasible(rows + clause)
        if values is not None:
            witness = table.assignment_of(values)
            if eval_formula(matrix, witness):  # pragma: no cover - decider self-check
                raise AssertionError("witness fails to refute the matrix")
            valuation = stochval.from_cells(table.scope, table.points, values) if table.points else None
            return Decision(INVALID, witness=witness, valuation=valuation)
    return Decision(VALID)


# -- SMT-LIB bridge -----------------------------------------------------------------

def _smt_name(v) -> str:
    if isinstance(v, Var):
        return f"xk_{v.index}"
    digest = hashlib.sha256(v.key.encode()).hexdigest()[:12]
    return f"xa_{digest}"


def _smt(node: Union[Term, Formula], seen: set) -> str:
    """SMT-LIB text of a term or formula; adds each variable met to ``seen``."""
    if isinstance(node, Const):
        num, den = node.value.numerator, node.value.denominator
        body = str(num) if den == 1 else f"(/ {num} {den})"
        return f"(- {body.replace('-', '', 1)})" if num < 0 else body
    if isinstance(node, (Var, FormulaVar)):
        seen.add(node)
        return _smt_name(node)
    args = " ".join([*map(_smt, _children(node), repeat(seen))])
    return f"({_OPS[type(node)].smt} {args})"


def emit_smtlib(matrix: Formula) -> str:
    """SMT-LIB 2 script asserting the negation of the matrix.

    ``unsat`` from a solver means the universal closure of the matrix is
    valid.  Variable names are deterministic; a comment table maps each
    probability variable back to its formula.
    """
    seen: set = set()
    assertion = f"(assert (not {_smt(matrix, seen)}))"
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
    config = config or Config()
    try:
        return decide_universal_linear(matrix, clause_cap=config.clause_cap)
    except NonlinearTermError:
        pass
    command = config.resolved_solver()
    if command is None:
        return Decision(UNSUPPORTED, reason="nonlinear sentence and no SMT solver configured")
    return run_external(matrix, command, config.timeout)
