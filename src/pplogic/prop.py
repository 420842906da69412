"""Classical propositional formulas over indexed atoms B0, B1, ... with
finite-scope semantics.

The stored language has exactly three constructors: atoms, negation and
implication.  Conjunction, disjunction, equivalence and the constants T/F
are surface sugar that desugars on construction; the printer re-sugars the
recognizable patterns, so `parse(to_text(f)) == f` for every stored tree.

Semantics are bit-parallel truth tables.  Over a scope A with atoms
a_0 < a_1 < ... < a_{n-1}, a formula's truth table is the 2^n-bit integer
whose bit m is set iff the valuation making exactly the atoms a_k with bit
k of m set true satisfies it.  Atom a_k's table (its column) has bit m
equal to bit k of m; `!t` is `full ^ t` and `a -> b` is `(full ^ a) | b`,
where `full` has all 2^n bits set.  One iterative post-order walk computes
the table of every node once, so the depth of a formula is not limited by
the interpreter's recursion limit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Union

Scope = frozenset  # frozenset[int]

DEFAULT_SCOPE_CAP = 16

# Entries kept by each module-level memo (atoms, truth tables, text, marginals).
CACHE_SIZE = 65536
# Scopes whose atom columns are kept; one entry holds |A| * 2^|A| bits.
_COLUMN_SCOPES = 256


class ScopeError(ValueError):
    """An operation met an atom outside the scope it was given."""


class ScopeCapError(RuntimeError):
    """A scope is too large for exhaustive enumeration."""


class ParseError(ValueError):
    """Malformed formula text."""


# Node hashes are precomputed: formula trees are shared hash-table keys all
# over the workbench, and the generated recursive hash dominates otherwise.

@dataclass(frozen=True)
class Atom:
    index: int

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(("B", self.index)))

    def __hash__(self):
        return self._hash


@dataclass(frozen=True)
class Not:
    operand: "PropFormula"

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(("!", self.operand._hash)))

    def __hash__(self):
        return self._hash


@dataclass(frozen=True)
class Implies:
    antecedent: "PropFormula"
    consequent: "PropFormula"

    def __post_init__(self):
        object.__setattr__(
            self, "_hash", hash(("->", self.antecedent._hash, self.consequent._hash))
        )

    def __hash__(self):
        return self._hash


PropFormula = Union[Atom, Not, Implies]


# -- sugar ------------------------------------------------------------------
# a & b  ==  !(a -> !b)        a | b  ==  !a -> b
# a <-> b == (a -> b) & (b -> a)
# T == B1 | !B1                F == B1 & !B1

def conj(a: PropFormula, b: PropFormula) -> PropFormula:
    return Not(Implies(a, Not(b)))


def disj(a: PropFormula, b: PropFormula) -> PropFormula:
    return Implies(Not(a), b)


def iff(a: PropFormula, b: PropFormula) -> PropFormula:
    return conj(Implies(a, b), Implies(b, a))


TOP: PropFormula = disj(Atom(1), Not(Atom(1)))
BOTTOM: PropFormula = conj(Atom(1), Not(Atom(1)))


def conj_all(formulas: Iterable[PropFormula]) -> PropFormula:
    """Left fold of conjunction; the empty conjunction is T."""
    out = None
    for f in formulas:
        out = f if out is None else conj(out, f)
    return TOP if out is None else out


@lru_cache(maxsize=CACHE_SIZE)
def atoms_of(alpha: PropFormula) -> Scope:
    """Indices of the atoms occurring in ``alpha``."""
    acc: set = set()
    stack = [alpha]
    while stack:
        f = stack.pop()
        if isinstance(f, Atom):
            acc.add(f.index)
        elif isinstance(f, Not):
            stack.append(f.operand)
        else:
            stack.append(f.antecedent)
            stack.append(f.consequent)
    return frozenset(acc)


@dataclass(frozen=True)
class Valuation:
    """A valuation over a finite scope, identified with its set of true atoms."""

    true_atoms: Scope
    scope: Scope

    def __post_init__(self):
        if not self.true_atoms <= self.scope:
            raise ScopeError(f"true atoms {set(self.true_atoms)} exceed scope {set(self.scope)}")


def evaluate(v: Valuation, alpha: PropFormula) -> bool:
    """Classical truth value of ``alpha`` under ``v``."""
    missing = atoms_of(alpha) - v.scope
    if missing:
        raise ScopeError(f"atoms {sorted(missing)} outside valuation scope")
    return _truth_table(alpha, dict.fromkeys(v.true_atoms, 1), 1) == 1


def _truth_table(alpha: PropFormula, columns: dict, full: int) -> int:
    """Truth table of ``alpha`` given each atom's column (atoms absent from
    ``columns`` are false on every row) and the all-rows mask ``full``.

    The stack is always a path down from ``alpha``, so it never holds a
    node twice; a shared subformula is evaluated once.
    """
    table: dict = {}  # id(node) -> its table; alpha keeps every node alive
    stack = [alpha]
    while stack:
        f = stack[-1]
        kind = type(f)
        if kind is Atom:
            table[id(f)] = columns.get(f.index, 0)
            stack.pop()
        elif kind is Not:
            t = table.get(id(f.operand))
            if t is None:
                stack.append(f.operand)
            else:
                table[id(f)] = full ^ t
                stack.pop()
        else:
            a = table.get(id(f.antecedent))
            b = table.get(id(f.consequent))
            if a is None:
                stack.append(f.antecedent)
            elif b is None:
                stack.append(f.consequent)
            else:
                table[id(f)] = (full ^ a) | b
                stack.pop()
    return table[id(alpha)]


def _check_enumerable(A: Scope, cap: int) -> None:
    if len(A) > cap:
        raise ScopeCapError(f"scope of size {len(A)} exceeds enumeration cap {cap}")


def subsets_ascending(A: Scope) -> Iterator[frozenset]:
    """All subsets of A in ascending bitmask order (bit k = k-th smallest atom)."""
    atoms = sorted(A)
    for mask in range(1 << len(atoms)):
        yield frozenset(a for k, a in enumerate(atoms) if mask >> k & 1)


def mask_of(A: Scope, U: frozenset) -> int:
    atoms = sorted(A)
    return sum(1 << k for k, a in enumerate(atoms) if a in U)


def subset_of_mask(A: Scope, mask: int) -> frozenset:
    atoms = sorted(A)
    return frozenset(a for k, a in enumerate(atoms) if mask >> k & 1)


@lru_cache(maxsize=_COLUMN_SCOPES)
def _columns(A: Scope) -> tuple:
    """``(columns, full)`` for the truth tables over A: atom a_k's column has
    bit m equal to bit k of m, and ``full`` has all 2^|A| bits set."""
    full = (1 << (1 << len(A))) - 1
    columns = {}
    for k, a in enumerate(sorted(A)):
        # runs of 2^k zeros then 2^k ones: a block of 2^(k+1) bits, repeated
        half = 1 << k
        columns[a] = full // ((1 << 2 * half) - 1) * (((1 << half) - 1) << half)
    return columns, full


@lru_cache(maxsize=CACHE_SIZE)
def _models_mask(alpha: PropFormula, A: Scope) -> int:
    """Bitset over ascending-mask subsets of A: bit m set iff subset m satisfies alpha."""
    columns, full = _columns(A)
    return _truth_table(alpha, columns, full)


def models_over(alpha: PropFormula, A: Scope, cap: int = DEFAULT_SCOPE_CAP) -> frozenset:
    """The subsets of A whose induced A-valuation satisfies ``alpha``."""
    if not atoms_of(alpha) <= A:
        raise ScopeError(f"atoms {sorted(atoms_of(alpha) - A)} outside scope {sorted(A)}")
    _check_enumerable(A, cap)
    bits = _models_mask(alpha, A)
    return frozenset(subset_of_mask(A, m) for m in range(1 << len(A)) if bits >> m & 1)


def entails_c(deltas: Iterable[PropFormula], alpha: PropFormula, cap: int = DEFAULT_SCOPE_CAP) -> bool:
    """Classical entailment over the union scope, by brute-force enumeration."""
    deltas = list(deltas)
    A = atoms_of(alpha)
    for d in deltas:
        A = A | atoms_of(d)
    _check_enumerable(A, cap)
    models = (1 << (1 << len(A))) - 1
    for d in deltas:
        models &= _models_mask(d, A)
    return models & ~_models_mask(alpha, A) == 0


def phi(A: Scope, U: frozenset) -> PropFormula:
    """The conjunction of literals over A that is true exactly on the A-valuation U.

    Literals appear in ascending atom order, folded to the left.
    """
    if not A:
        raise ScopeError("empty scope has no point formulas")
    if not U <= A:
        raise ScopeError(f"{set(U)} is not a subset of {set(A)}")
    out = None
    for a in sorted(A):
        lit: PropFormula = Atom(a) if a in U else Not(Atom(a))
        out = lit if out is None else conj(out, lit)
    return out


@dataclass(frozen=True)
class ConjunctionOfLiterals:
    """A total sign assignment over a scope: mentions every atom exactly once."""

    scope: Scope
    trues: frozenset

    def __post_init__(self):
        if not self.trues <= self.scope:
            raise ScopeError(f"{set(self.trues)} is not a subset of {set(self.scope)}")

    def formula(self) -> PropFormula:
        return phi(self.scope, self.trues)

    @property
    def mask(self) -> int:
        return mask_of(self.scope, self.trues)


def dnf(alpha: PropFormula, A: Scope, cap: int = DEFAULT_SCOPE_CAP) -> list:
    """Pairwise-contradictory full-scope disjuncts equivalent to ``alpha``,
    one per model over A, sorted by subset bitmask.
    """
    if not atoms_of(alpha) <= A:
        raise ScopeError(f"atoms {sorted(atoms_of(alpha) - A)} outside scope {sorted(A)}")
    _check_enumerable(A, cap)
    bits = _models_mask(alpha, A)
    return [
        ConjunctionOfLiterals(A, subset_of_mask(A, m))
        for m in range(1 << len(A))
        if bits >> m & 1
    ]


def adequate_dnf_set(alphas, cap: int = DEFAULT_SCOPE_CAP):
    """Shared-scope DNF conjunct lists for a non-empty family of formulas.

    Returns ``(scope, lists)`` where scope is the union of the formulas'
    atoms and ``lists[j] == dnf(alphas[j], scope)``.
    """
    alphas = list(alphas)
    if not alphas:
        raise ValueError("need at least one formula")
    scope: Scope = frozenset()
    for a in alphas:
        scope = scope | atoms_of(a)
    return scope, [dnf(a, scope, cap) for a in alphas]


# -- text form ----------------------------------------------------------------
# Grammar: atoms B<digits>; ! & | -> <->; constants T, F; parentheses.
# Precedence ! > & > | > -> (right-assoc) > <->.

_PREC_IFF, _PREC_IMP, _PREC_OR, _PREC_AND, _PREC_NOT, _PREC_ATOM = 1, 2, 3, 4, 5, 6


def _and_parts(f: PropFormula):
    # stored shape of a & b
    if (
        isinstance(f, Not)
        and isinstance(f.operand, Implies)
        and isinstance(f.operand.consequent, Not)
    ):
        return f.operand.antecedent, f.operand.consequent.operand
    return None


def _or_parts(f: PropFormula):
    # stored shape of a | b; yields to the implication reading when the
    # negated antecedent is itself a conjunction, so `a & b -> c` survives
    if isinstance(f, Implies) and isinstance(f.antecedent, Not):
        if _and_parts(f.antecedent) is not None:
            return None
        return f.antecedent.operand, f.consequent
    return None


def _iff_parts(f: PropFormula):
    parts = _and_parts(f)
    if parts is None:
        return None
    left, right = parts
    if (
        isinstance(left, Implies)
        and isinstance(right, Implies)
        and left.antecedent == right.consequent
        and left.consequent == right.antecedent
    ):
        return left.antecedent, left.consequent
    return None


@lru_cache(maxsize=CACHE_SIZE)
def to_text(f: PropFormula) -> str:
    """Canonical text form; re-sugars &, |, <->, T and F."""
    return _render(f, 0)


def _render(f: PropFormula, ctx: int) -> str:
    if f == TOP:
        return "T"
    if f == BOTTOM:
        return "F"
    parts = _iff_parts(f)
    if parts is not None:
        s = f"{_render(parts[0], _PREC_IFF)} <-> {_render(parts[1], _PREC_IFF + 1)}"
        return f"({s})" if _PREC_IFF < ctx else s
    parts = _and_parts(f)
    if parts is not None:
        s = f"{_render(parts[0], _PREC_AND)} & {_render(parts[1], _PREC_AND + 1)}"
        return f"({s})" if _PREC_AND < ctx else s
    parts = _or_parts(f)
    if parts is not None:
        s = f"{_render(parts[0], _PREC_OR)} | {_render(parts[1], _PREC_OR + 1)}"
        return f"({s})" if _PREC_OR < ctx else s
    if isinstance(f, Atom):
        return f"B{f.index}"
    if isinstance(f, Not):
        return f"!{_render(f.operand, _PREC_NOT)}"
    s = f"{_render(f.antecedent, _PREC_IMP + 1)} -> {_render(f.consequent, _PREC_IMP)}"
    return f"({s})" if _PREC_IMP < ctx else s


_TOKEN_RE = re.compile(r"\s*(B\d+|<->|->|[TF!&|()])")


def _tokenize(text: str) -> list:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ParseError(f"unexpected input at {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        if expected is not None and tok != expected:
            raise ParseError(f"expected {expected!r}, found {tok!r}")
        self.pos += 1
        return tok

    def formula(self) -> PropFormula:
        f = self.implication()
        while self.peek() == "<->":
            self.take()
            f = iff(f, self.implication())
        return f

    def implication(self) -> PropFormula:
        f = self.disjunction()
        if self.peek() == "->":
            self.take()
            return Implies(f, self.implication())
        return f

    def disjunction(self) -> PropFormula:
        f = self.conjunction()
        while self.peek() == "|":
            self.take()
            f = disj(f, self.conjunction())
        return f

    def conjunction(self) -> PropFormula:
        f = self.unary()
        while self.peek() == "&":
            self.take()
            f = conj(f, self.unary())
        return f

    def unary(self) -> PropFormula:
        tok = self.peek()
        if tok == "!":
            self.take()
            return Not(self.unary())
        if tok == "(":
            self.take()
            f = self.formula()
            self.take(")")
            return f
        if tok == "T":
            self.take()
            return TOP
        if tok == "F":
            self.take()
            return BOTTOM
        if tok is not None and tok.startswith("B"):
            self.take()
            return Atom(int(tok[1:]))
        raise ParseError(f"unexpected token {tok!r}")


def parse(text: str) -> PropFormula:
    """Parse the surface grammar into a desugared tree."""
    p = _Parser(_tokenize(text))
    f = p.formula()
    if p.peek() is not None:
        raise ParseError(f"trailing input from {p.peek()!r}")
    return f
