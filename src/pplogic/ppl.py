"""Probability logic over classical formulas: atoms constrain the
probability of a propositional formula against a field term, and formulas
close under implication.

Atoms are ``P(alpha) = t`` and ``P(alpha) < t``.  Negation is the
abbreviation ``phi -> (P(T) < 1)``; conjunction, disjunction, equivalence
and the comparisons ``<=`` / ``>=`` desugar in the usual way before
storage, and the printer re-sugars them.  ``translate`` is the one way a
formula becomes a field sentence: it reads ``P(T)`` as the constant 1, so
``P(T) < 1`` is false, and the stored ``<=`` / ``>=`` as single atoms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Union

from . import prop, rcof, stochval

# Cell counts whose distribution-polytope rows are kept.
_POLYTOPE_SIZES = 64


class PplParseError(ValueError):
    """Malformed probability-logic text."""


@dataclass(frozen=True)
class PplAtom:
    alpha: prop.PropFormula
    relation: str  # "=" | "<"
    bound: rcof.Term

    def __post_init__(self):
        if self.relation not in ("=", "<"):
            raise ValueError(f"bad atom relation {self.relation!r}")


@dataclass(frozen=True)
class PplImplies:
    antecedent: "PplFormula"
    consequent: "PplFormula"


PplFormula = Union[PplAtom, PplImplies]

# P(T) < 1 is the always-false atom used as the target of negation;
# P(T) = 1 is the always-true atom guarding empty premise sets.
FALSUM = PplAtom(prop.TOP, "<", rcof.ONE)
TRUTH = PplAtom(prop.TOP, "=", rcof.ONE)


def pnot(phi: PplFormula) -> PplFormula:
    return PplImplies(phi, FALSUM)


def _negated(phi: PplFormula):
    if type(phi) is PplImplies and phi.consequent == FALSUM:
        return phi.antecedent
    return None


def _leaf_text(phi: PplFormula):
    # probability atoms and the <= / >= sugar print as leaves
    if type(phi) is PplAtom:
        return f"P({prop.to_text(phi.alpha)}) {phi.relation} {term_to_text(phi.bound)}"
    parts = _le_parts(phi)
    if parts is not None:
        return f"P({prop.to_text(parts[0])}) <= {term_to_text(parts[1])}"
    parts = _ge_parts(phi)
    if parts is not None:
        return f"P({prop.to_text(parts[0])}) >= {term_to_text(parts[1])}"
    return None


CONNECTIVES = prop.Connectives(PplImplies, pnot, _negated, _leaf_text)
pand = CONNECTIVES.conj
por = CONNECTIVES.disj
piff = CONNECTIVES.iff


def ple(alpha: prop.PropFormula, t: rcof.Term) -> PplFormula:
    """P(alpha) <= t, stored as (P(alpha) = t) | (P(alpha) < t)."""
    return por(PplAtom(alpha, "=", t), PplAtom(alpha, "<", t))


def pge(alpha: prop.PropFormula, t: rcof.Term) -> PplFormula:
    """P(alpha) >= t, stored as !(P(alpha) < t)."""
    return pnot(PplAtom(alpha, "<", t))


def pand_all(formulas: Iterable[PplFormula]) -> PplFormula:
    out = None
    for f in formulas:
        out = f if out is None else pand(out, f)
    return TRUTH if out is None else out


# -- semantics ------------------------------------------------------------------

def ppl_sat(
    V: stochval.StochasticValuation,
    rho: rcof.Assignment,
    phi: PplFormula,
    cap: int = prop.DEFAULT_SCOPE_CAP,
) -> bool:
    """Satisfaction by a stochastic valuation and a variable assignment.

    Raises ``prop.ScopeCapError`` when a formula under a probability atom
    has more than ``cap`` atoms.
    """
    if isinstance(phi, PplAtom):
        p = stochval.prob(V, phi.alpha, cap)
        bound = rcof.eval_term(phi.bound, rho)
        return p == bound if phi.relation == "=" else p < bound
    return (not ppl_sat(V, rho, phi.antecedent, cap)) or ppl_sat(V, rho, phi.consequent, cap)


def ppl_entails_reduction(gammas: Iterable[PplFormula], phi: PplFormula) -> PplFormula:
    """Reduce finite-premise entailment to validity of one implication.

    The premises are conjoined in canonical text order; the empty
    conjunction is the always-true atom.
    """
    ordered = sorted(set(gammas), key=to_text)
    return PplImplies(pand_all(ordered), phi)


# -- translation into field formulas -----------------------------------------------

def _probability_term(alpha: prop.PropFormula) -> rcof.Term:
    return rcof.ONE if alpha == prop.TOP else rcof.FormulaVar(alpha)


def translate(phi: PplFormula) -> rcof.Formula:
    """Replace every atom P(alpha) REL t by the field atom x_alpha REL t,
    the stored <= / >= sugar included; ``P(T)`` is the constant 1, as under
    every valuation, so ``FALSUM`` becomes the false atom 1 < 1."""
    if isinstance(phi, PplAtom):
        ctor = rcof.Eq if phi.relation == "=" else rcof.Lt
        return ctor(_probability_term(phi.alpha), phi.bound)
    parts = _le_parts(phi)
    if parts is not None:
        return rcof.Le(_probability_term(parts[0]), parts[1])
    parts = _ge_parts(phi)
    if parts is not None:
        return rcof.Le(parts[1], _probability_term(parts[0]))
    return rcof.Implies(translate(phi.antecedent), translate(phi.consequent))


def distribution_rows(alphas, scope: prop.Scope, cap: int = prop.DEFAULT_SCOPE_CAP):
    """The distribution polytope over a scope, as linear rows over the cells
    of the formulas, and each formula's probability as a sum over them.

    A cell is a nonempty class of subsets of the scope that every formula
    treats alike: all its subsets are models of a formula or none is.  The
    probabilities of the formulas depend only on the cells' masses, and any
    masses on the cells come from a distribution on the scope, such as the
    one that puts each cell's mass on its lowest subset.  The formulas
    enter only through their truth tables over the scope: ``cells`` finds
    the cells from those, and ``cell_rows`` builds the rows over them.

    The first result is the rows of ``cell_rows``.  The second maps each
    formula to the coefficients {c: 1} of the cells inside its models, whose
    sum is its probability.  The third lists each cell's representative, the
    bitmask of its lowest subset.
    """
    scope, masks = prop.tables(alphas, cap, scope)
    rows, sums, points = cell_rows(cells(masks, len(scope)), len(masks))
    return rows, dict(zip(alphas, sums)), points


def cells(masks, n: int) -> list:
    """The cells of truth tables ``masks`` over a scope of n atoms, as
    ``(lowest point, signature)`` pairs in ascending order of the point.

    The cells come from partition refinement of the tables (start from all
    2^n subsets, split every cell by each distinct table), so there are at
    most min(2^k, 2^n) of them for k tables; the refinement holds each cell
    as a 2^n-bit integer.  A cell's signature has bit i set when table
    ``masks[i]`` contains it.  Two lists of as many tables with one set of
    signatures give ``cell_rows`` systems that differ only in the order of
    the cells.
    """
    bits: dict = {}  # each distinct table -> the bits of its positions
    for i, m in enumerate(masks):
        bits[m] = bits.get(m, 0) | 1 << i
    parts = [((1 << (1 << n)) - 1, 0)]  # (cell, signature)
    for m, bit in bits.items():
        split = []
        for c, s in parts:
            inside = c & m
            if not inside:
                split.append((c, s))
                continue
            split.append((inside, s | bit))
            if inside != c:
                split.append((c ^ inside, s))
        parts = split
    return sorted(((c & -c).bit_length() - 1, s) for c, s in parts)


def cell_rows(cells, k: int):
    """The distribution polytope over the cells of k truth tables, as
    ``cells`` lists them: the mask-level half of ``distribution_rows``.

    Variable c is the mass y_c of the c-th cell; the rows, a fresh list the
    caller may extend, say y_c >= 0 and sum_c y_c = 1.  The second result
    lists, for each table in turn, the coefficients {c: 1} of the cells
    inside it; the third lists each cell's lowest subset.
    """
    sums: list = [{} for _ in range(k)]
    for c, (_, s) in enumerate(cells):
        while s:
            low = s & -s
            sums[low.bit_length() - 1][c] = 1
            s ^= low
    return list(_polytope_rows(len(cells))), sums, [point for point, _ in cells]


@lru_cache(maxsize=_POLYTOPE_SIZES)
def _polytope_rows(k: int) -> tuple:
    """The rows y_c >= 0 and sum_c y_c = 1 over the masses of k cells, built
    in the normal form ``LinearAtom.make`` would give them."""
    rows = [rcof.LinearAtom(((c, -1),), rcof.ZERO_F, rcof.REL_LE) for c in range(k)]
    rows.append(rcof.LinearAtom(tuple((c, 1) for c in range(k)), -rcof.ONE_F, rcof.REL_EQ))
    return tuple(rows)


def build_Q(alphas, scope: prop.Scope, cap: int = prop.DEFAULT_SCOPE_CAP) -> rcof.Formula:
    """The cells of ``distribution_rows`` as one field conjunction, the form
    rendered as SMT-LIB for external solvers.

    Each cell's mass is the variable of its representative's point formula,
    the name ``rcof.VarTable.assignment_of`` gives a witness's mass: (i)
    each cell variable is at least 0; (ii) the cell variables sum to 1;
    (iii) each formula's variable equals the sum of the variables of the
    cells inside its models (an empty sum is the zero term).
    """
    scope = frozenset(scope)
    _, sums, points = distribution_rows(alphas, scope, cap)
    cells = [rcof.FormulaVar(prop.phi(scope, prop.subset_of_mask(scope, m))) for m in points]
    parts = [rcof.Le(rcof.ZERO, y) for y in cells]
    parts.append(rcof.Eq(rcof.add_all(cells), rcof.ONE))
    for a, coeffs in sums.items():
        parts.append(rcof.Eq(rcof.FormulaVar(a), rcof.add_all(cells[c] for c in coeffs)))
    return rcof.and_all(parts)


# -- text form ----------------------------------------------------------------------
# Atoms: P(<prop>) = <term>, P(<prop>) < <term>, and the sugar <=, >=.
# Connectives and precedence are the propositional ones (``prop.Connectives``).
# Terms: integers, n/m or q(n,m) rationals, x<k> variables, + - *, parens.


def term_to_text(t: rcof.Term) -> str:
    return _render_term(t, 0)


def _render_term(t: rcof.Term, ctx: int) -> str:
    # precedence: + (1), binary - (1), * (2), unary - (3)
    if isinstance(t, rcof.Const):
        v = t.value
        body = str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
        return f"({body})" if v < 0 and ctx >= 2 else body
    if isinstance(t, rcof.Var):
        return f"x{t.index}"
    if isinstance(t, rcof.FormulaVar):
        raise ValueError("probability variables have no surface syntax")
    if isinstance(t, rcof.Neg):
        s = f"-{_render_term(t.operand, 3)}"
        return f"({s})" if ctx >= 2 else s
    if isinstance(t, rcof.Add):
        if isinstance(t.right, rcof.Neg):
            s = f"{_render_term(t.left, 1)} - {_render_term(t.right.operand, 2)}"
        else:
            s = f"{_render_term(t.left, 1)} + {_render_term(t.right, 2)}"
        return f"({s})" if ctx >= 2 else s
    s = f"{_render_term(t.left, 2)} * {_render_term(t.right, 3)}"
    return f"({s})" if ctx >= 3 else s


def _le_parts(phi: PplFormula):
    """``(alpha, t)`` if ``phi`` is stored ``P(alpha) <= t``, else None."""
    if type(phi) is PplImplies:
        lt = phi.consequent
        if type(lt) is PplAtom and lt.relation == "<":
            eq = _negated(phi.antecedent)
            if (
                type(eq) is PplAtom
                and eq.relation == "="
                and eq.alpha == lt.alpha
                and eq.bound == lt.bound
            ):
                return lt.alpha, lt.bound
    return None


def _ge_parts(phi: PplFormula):
    """``(alpha, t)`` if ``phi`` is stored ``P(alpha) >= t``, else None."""
    lt = _negated(phi)
    if type(lt) is PplAtom and lt.relation == "<":
        return lt.alpha, lt.bound
    return None


def to_text(phi: PplFormula) -> str:
    """Canonical text; re-sugars <=, >=, !, &, |, <->."""
    return CONNECTIVES.render(phi)


_PPL_TOKEN_RE = re.compile(r"(x\d+|q\(|\d+|<->|->|<=|>=|[=<!&|()+\-*,])")
_PAREN_RE = re.compile(r"[()]")


class _ProbText:
    """The text inside ``P(...)``, kept as one token; it equals no other
    token, and it shows as that text in error messages."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text

    def __repr__(self):
        return repr(self.text)


def _tokenize(text: str) -> list:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        if text.startswith("P(", pos):
            # capture the balanced propositional argument as one token
            depth = 1
            for paren in _PAREN_RE.finditer(text, pos + 2):
                depth += 1 if paren.group() == "(" else -1
                if not depth:
                    break
            if depth:
                raise PplParseError("unbalanced parentheses after P(")
            tokens.append(_ProbText(text[pos + 2 : paren.start()]))
            pos = paren.end()
            continue
        m = _PPL_TOKEN_RE.match(text, pos)
        if m is None:
            raise PplParseError(f"unexpected input at {text[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


class _PplParser(prop.Parser):
    """The connective parser with probability atoms as leaves."""

    connectives = CONNECTIVES
    error = PplParseError

    def leaf(self) -> PplFormula:
        tok = self.peek()
        if type(tok) is not _ProbText:
            raise PplParseError(f"unexpected token {tok!r}")
        self.take()
        try:
            alpha = prop.parse(tok.text)
        except prop.ParseError as e:
            raise PplParseError(f"bad formula inside P(...): {e}") from None
        op = self.take()
        if op not in ("=", "<", "<=", ">="):
            raise PplParseError(f"expected a comparison after P(...), found {op!r}")
        bound = self.term()
        if op in ("=", "<"):
            return PplAtom(alpha, op, bound)
        return ple(alpha, bound) if op == "<=" else pge(alpha, bound)

    def term(self) -> rcof.Term:
        t = self.term_product()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term_product()
            t = rcof.Add(t, rhs if op == "+" else rcof.Neg(rhs))
        return t

    def term_product(self) -> rcof.Term:
        t = self.term_unary()
        while self.peek() == "*":
            self.take()
            t = rcof.Mul(t, self.term_unary())
        return t

    def term_unary(self) -> rcof.Term:
        tok = self.peek()
        if tok == "-":
            self.take()
            return rcof.Neg(self.term_unary())
        if tok == "(":
            self.take()
            t = self.term()
            self.take(")")
            return t
        if tok == "q(":
            self.take()
            n = self.take()
            self.take(",")
            m = self.take()
            self.take(")")
            if not (_is_numeral(n) and _is_numeral(m)):
                raise PplParseError("q(n,m) takes integer literals")
            if int(m) == 0:
                raise PplParseError("zero denominator")
            return rcof.Const(Fraction(int(n), int(m)))
        if type(tok) is str and tok.startswith("x"):
            self.take()
            return rcof.Var(int(tok[1:]))
        if _is_numeral(tok):
            self.take()
            return rcof.Const(Fraction(int(tok)))
        raise PplParseError(f"unexpected token {tok!r} in term")


def _is_numeral(tok) -> bool:
    return type(tok) is str and tok.isdigit()


def parse(text: str) -> PplFormula:
    """Parse the surface grammar into a desugared tree."""
    # rewrite n/m fraction literals before tokenizing
    text = re.sub(r"(?<![\w)])(\d+)\s*/\s*(\d+)", r"q(\1,\2)", text)
    return _PplParser(_tokenize(text)).read()
