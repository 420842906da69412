"""Probability logic over classical formulas: atoms constrain the
probability of a propositional formula against a field term, and formulas
close under implication.

Atoms are ``P(alpha) = t`` and ``P(alpha) < t``.  Negation is the
abbreviation ``phi -> (P(T) < 1)``; conjunction, disjunction, equivalence
and the comparisons ``<=`` / ``>=`` desugar in the usual way before
storage, and the printer re-sugars them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from . import prop, rcof, stochval


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


def pand(a: PplFormula, b: PplFormula) -> PplFormula:
    return pnot(PplImplies(a, pnot(b)))


def por(a: PplFormula, b: PplFormula) -> PplFormula:
    return PplImplies(pnot(a), b)


def piff(a: PplFormula, b: PplFormula) -> PplFormula:
    return pand(PplImplies(a, b), PplImplies(b, a))


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

def ppl_sat(V: stochval.StochasticValuation, rho: rcof.Assignment, phi: PplFormula) -> bool:
    """Satisfaction by a stochastic valuation and a variable assignment."""
    if isinstance(phi, PplAtom):
        p = stochval.prob(V, phi.alpha)
        bound = rcof.eval_term(phi.bound, rho)
        return p == bound if phi.relation == "=" else p < bound
    return (not ppl_sat(V, rho, phi.antecedent)) or ppl_sat(V, rho, phi.consequent)


def ppl_entails_reduction(gammas: Iterable[PplFormula], phi: PplFormula) -> PplFormula:
    """Reduce finite-premise entailment to validity of one implication.

    The premises are conjoined in canonical text order; the empty
    conjunction is the always-true atom.
    """
    ordered = sorted(set(gammas), key=to_text)
    return PplImplies(pand_all(ordered), phi)


# -- translation into field formulas -----------------------------------------------

def translate(phi: PplFormula) -> rcof.Formula:
    """Replace every atom P(alpha) REL t by the field atom x_alpha REL t."""
    if isinstance(phi, PplAtom):
        ctor = rcof.Eq if phi.relation == "=" else rcof.Lt
        return ctor(rcof.FormulaVar(phi.alpha), phi.bound)
    return rcof.Implies(translate(phi.antecedent), translate(phi.consequent))


def distribution_rows(alphas, scope: prop.Scope, cap: int = prop.DEFAULT_SCOPE_CAP):
    """The distribution polytope over a scope, as linear rows, and each
    formula's probability as a sum over it.

    Variable m is the mass y_m of the m-th subset of the scope in ascending
    bitmask order; the rows say y_m >= 0 and sum_m y_m = 1.  The second
    result maps each formula to the coefficients {m: 1} of its models, whose
    sum is its probability.
    """
    scope = frozenset(scope)
    for a in alphas:
        if not prop.atoms_of(a) <= scope:
            raise prop.ScopeError(f"{prop.to_text(a)} has atoms outside {sorted(scope)}")
    prop._check_enumerable(scope, cap)
    n = 1 << len(scope)
    rows = [rcof.LinearAtom.make({m: -rcof.ONE_F}, rcof.ZERO_F, rcof.REL_LE) for m in range(n)]
    rows.append(rcof.LinearAtom.make(dict.fromkeys(range(n), rcof.ONE_F), -rcof.ONE_F, rcof.REL_EQ))
    sums = {}
    for a in alphas:
        bits = prop._models_mask(a, scope)
        sums[a] = {m: rcof.ONE_F for m in range(n) if bits >> m & 1}
    return rows, sums


def build_Q(alphas, scope: prop.Scope, cap: int = prop.DEFAULT_SCOPE_CAP) -> rcof.Formula:
    """The constraints of ``distribution_rows`` as one field conjunction,
    the form rendered as SMT-LIB for external solvers.

    (i) each point-formula variable lies in [0,1]; (ii) the point
    variables sum to 1; (iii) each formula's variable equals the sum of
    the variables of its models' point formulas (an empty sum is the zero
    term).
    """
    alphas = list(dict.fromkeys(alphas))
    if not alphas:
        raise ValueError("need at least one formula")
    scope = frozenset(scope)
    _, sums = distribution_rows(alphas, scope, cap)
    point_vars = [
        rcof.FormulaVar(prop.phi(scope, U)) for U in prop.subsets_ascending(scope)
    ]
    parts = []
    for x in point_vars:
        parts.append(rcof.Le(rcof.ZERO, x))
        parts.append(rcof.Le(x, rcof.ONE))
    parts.append(rcof.Eq(rcof.add_all(point_vars), rcof.ONE))
    for a in alphas:
        total = rcof.add_all(point_vars[m] for m in sums[a])
        parts.append(rcof.Eq(rcof.FormulaVar(a), total))
    return rcof.and_all(parts)


# -- text form ----------------------------------------------------------------------
# Atoms: P(<prop>) = <term>, P(<prop>) < <term>, and the sugar <=, >=.
# Connectives and precedence mirror the propositional grammar.
# Terms: integers, n/m or q(n,m) rationals, x<k> variables, + - *, parens.

_PREC_IFF, _PREC_IMP, _PREC_OR, _PREC_AND, _PREC_NOT, _PREC_ATOM = 1, 2, 3, 4, 5, 6


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
    if (
        isinstance(phi, PplImplies)
        and isinstance(phi.antecedent, PplImplies)
        and phi.antecedent.consequent == FALSUM
        and isinstance(phi.antecedent.antecedent, PplAtom)
        and isinstance(phi.consequent, PplAtom)
        and phi.antecedent.antecedent.relation == "="
        and phi.consequent.relation == "<"
        and phi.antecedent.antecedent.alpha == phi.consequent.alpha
        and phi.antecedent.antecedent.bound == phi.consequent.bound
    ):
        return phi.consequent.alpha, phi.consequent.bound
    return None


def _ge_parts(phi: PplFormula):
    if (
        isinstance(phi, PplImplies)
        and phi.consequent == FALSUM
        and isinstance(phi.antecedent, PplAtom)
        and phi.antecedent.relation == "<"
    ):
        return phi.antecedent.alpha, phi.antecedent.bound
    return None


def _pand_parts(phi: PplFormula):
    if (
        isinstance(phi, PplImplies)
        and phi.consequent == FALSUM
        and isinstance(phi.antecedent, PplImplies)
        and isinstance(phi.antecedent.consequent, PplImplies)
        and phi.antecedent.consequent.consequent == FALSUM
    ):
        return phi.antecedent.antecedent, phi.antecedent.consequent.antecedent
    return None


def _piff_parts(phi: PplFormula):
    parts = _pand_parts(phi)
    if parts is None:
        return None
    left, right = parts
    if (
        isinstance(left, PplImplies)
        and isinstance(right, PplImplies)
        and left.antecedent == right.consequent
        and left.consequent == right.antecedent
    ):
        return left.antecedent, left.consequent
    return None


def _por_parts(phi: PplFormula):
    # yields to the implication reading when the negated antecedent is a
    # conjunction, so `a & b -> c` survives printing
    if (
        isinstance(phi, PplImplies)
        and isinstance(phi.antecedent, PplImplies)
        and phi.antecedent.consequent == FALSUM
    ):
        if _pand_parts(phi.antecedent) is not None:
            return None
        return phi.antecedent.antecedent, phi.consequent
    return None


def _pnot_part(phi: PplFormula):
    if isinstance(phi, PplImplies) and phi.consequent == FALSUM:
        return phi.antecedent
    return None


def to_text(phi: PplFormula) -> str:
    """Canonical text; re-sugars <=, >=, !, &, |, <->."""
    return _render(phi, 0)


def _render(phi: PplFormula, ctx: int) -> str:
    if isinstance(phi, PplAtom):
        return f"P({prop.to_text(phi.alpha)}) {phi.relation} {term_to_text(phi.bound)}"
    parts = _piff_parts(phi)
    if parts is not None:
        s = f"{_render(parts[0], _PREC_IFF)} <-> {_render(parts[1], _PREC_IFF + 1)}"
        return f"({s})" if _PREC_IFF < ctx else s
    parts = _pand_parts(phi)
    if parts is not None:
        s = f"{_render(parts[0], _PREC_AND)} & {_render(parts[1], _PREC_AND + 1)}"
        return f"({s})" if _PREC_AND < ctx else s
    le = _le_parts(phi)
    if le is not None:
        return f"P({prop.to_text(le[0])}) <= {term_to_text(le[1])}"
    parts = _por_parts(phi)
    if parts is not None:
        s = f"{_render(parts[0], _PREC_OR)} | {_render(parts[1], _PREC_OR + 1)}"
        return f"({s})" if _PREC_OR < ctx else s
    ge = _ge_parts(phi)
    if ge is not None:
        return f"P({prop.to_text(ge[0])}) >= {term_to_text(ge[1])}"
    inner = _pnot_part(phi)
    if inner is not None:
        return f"!{_render(inner, _PREC_NOT)}"
    s = f"{_render(phi.antecedent, _PREC_IMP + 1)} -> {_render(phi.consequent, _PREC_IMP)}"
    return f"({s})" if _PREC_IMP < ctx else s


_PPL_TOKEN_RE = re.compile(
    r"\s*(P\(|x\d+|q\(|\d+|<->|->|<=|>=|[=<!&|()+\-*,])"
)


def _tokenize(text: str) -> list:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        if text.startswith("P(", pos):
            # capture the balanced propositional argument as one token
            depth, end = 1, pos + 2
            while end < len(text) and depth:
                depth += {"(": 1, ")": -1}.get(text[end], 0)
                end += 1
            if depth:
                raise PplParseError("unbalanced parentheses after P(")
            tokens.append(("prob", text[pos + 2 : end - 1]))
            pos = end
            continue
        m = _PPL_TOKEN_RE.match(text, pos)
        if m is None or m.group(1) == "P(":
            raise PplParseError(f"unexpected input at {text[pos:]!r}")
        tokens.append(("tok", m.group(1)))
        pos = m.end()
    return tokens


class _PplParser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return (None, None)

    def take(self, expected=None):
        kind, val = self.peek()
        if kind is None:
            raise PplParseError("unexpected end of input")
        if expected is not None and val != expected:
            raise PplParseError(f"expected {expected!r}, found {val!r}")
        self.pos += 1
        return kind, val

    def formula(self) -> PplFormula:
        f = self.implication()
        while self.peek()[1] == "<->":
            self.take()
            f = piff(f, self.implication())
        return f

    def implication(self) -> PplFormula:
        f = self.disjunction()
        if self.peek()[1] == "->":
            self.take()
            return PplImplies(f, self.implication())
        return f

    def disjunction(self) -> PplFormula:
        f = self.conjunction()
        while self.peek()[1] == "|":
            self.take()
            f = por(f, self.conjunction())
        return f

    def conjunction(self) -> PplFormula:
        f = self.unary()
        while self.peek()[1] == "&":
            self.take()
            f = pand(f, self.unary())
        return f

    def unary(self) -> PplFormula:
        kind, val = self.peek()
        if val == "!":
            self.take()
            return pnot(self.unary())
        if val == "(":
            self.take()
            f = self.formula()
            self.take(")")
            return f
        if kind == "prob":
            return self.atom()
        raise PplParseError(f"unexpected token {val!r}")

    def atom(self) -> PplFormula:
        _, inner = self.take()
        try:
            alpha = prop.parse(inner)
        except prop.ParseError as e:
            raise PplParseError(f"bad formula inside P(...): {e}") from None
        _, op = self.take()
        if op not in ("=", "<", "<=", ">="):
            raise PplParseError(f"expected a comparison after P(...), found {op!r}")
        bound = self.term()
        if op == "=":
            return PplAtom(alpha, "=", bound)
        if op == "<":
            return PplAtom(alpha, "<", bound)
        if op == "<=":
            return ple(alpha, bound)
        return pge(alpha, bound)

    def term(self) -> rcof.Term:
        t = self.term_product()
        while self.peek()[1] in ("+", "-"):
            _, op = self.take()
            rhs = self.term_product()
            t = rcof.Add(t, rhs if op == "+" else rcof.Neg(rhs))
        return t

    def term_product(self) -> rcof.Term:
        t = self.term_unary()
        while self.peek()[1] == "*":
            self.take()
            t = rcof.Mul(t, self.term_unary())
        return t

    def term_unary(self) -> rcof.Term:
        kind, val = self.peek()
        if val == "-":
            self.take()
            return rcof.Neg(self.term_unary())
        if val == "(":
            self.take()
            t = self.term()
            self.take(")")
            return t
        if val == "q(":
            self.take()
            _, n = self.take()
            self.take(",")
            _, m = self.take()
            self.take(")")
            if not (n.isdigit() and m.isdigit()):
                raise PplParseError("q(n,m) takes integer literals")
            return self._fraction(int(n), int(m))
        if val is not None and val.startswith("x") and val[1:].isdigit():
            self.take()
            return rcof.Var(int(val[1:]))
        if val is not None and val.isdigit():
            self.take()
            return rcof.Const(Fraction(int(val)))
        raise PplParseError(f"unexpected token {val!r} in term")

    @staticmethod
    def _fraction(n: int, m: int) -> rcof.Term:
        if m == 0:
            raise PplParseError("zero denominator")
        return rcof.Const(Fraction(n, m))


def parse(text: str) -> PplFormula:
    """Parse the surface grammar into a desugared tree."""
    # rewrite n/m fraction literals before tokenizing
    text = re.sub(r"(?<![\w)])(\d+)\s*/\s*(\d+)", r"q(\1,\2)", text)
    parser = _PplParser(_tokenize(text))
    f = parser.formula()
    if parser.peek()[0] is not None:
        raise PplParseError(f"trailing input from {parser.peek()[1]!r}")
    return f
