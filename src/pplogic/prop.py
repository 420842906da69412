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
from typing import Iterable, Iterator, Optional, Union

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


# -- connectives ---------------------------------------------------------------
# A language built like this one has leaves, one implication class with the
# fields ``antecedent`` and ``consequent``, and a stored negation; the other
# connectives are sugar over those two:
#   a & b  ==  !(a -> !b)        a | b  ==  !a -> b
#   a <-> b == (a -> b) & (b -> a)
# ``Connectives`` builds the sugar, reads it back and prints it, and
# ``Parser`` reads it, for any such language; ``ppl`` uses both with its own
# implication, negation and leaves.

_PREC_IFF, _PREC_IMP, _PREC_OR, _PREC_AND, _PREC_NOT = 1, 2, 3, 4, 5


class Connectives:
    """The connectives ! & | -> <-> of one language.

    ``implies`` is the language's implication class, ``negate`` builds its
    stored negation and ``negated`` reads one back: the operand of a stored
    negation, None for any other formula.  ``leaf_text`` prints a leaf or a
    sugar the language reads as a leaf and returns None for every other
    formula; the printer tries it first.
    """

    def __init__(self, implies, negate, negated, leaf_text):
        self.implies = implies
        self.negate = negate
        self.negated = negated
        self.leaf_text = leaf_text

    def conj(self, a, b):
        return self.negate(self.implies(a, self.negate(b)))

    def disj(self, a, b):
        return self.implies(self.negate(a), b)

    def iff(self, a, b):
        return self.conj(self.implies(a, b), self.implies(b, a))

    def and_parts(self, f):
        """``(a, b)`` if ``f`` is stored ``a & b``, else None."""
        inner = self.negated(f)
        if type(inner) is self.implies:
            b = self.negated(inner.consequent)
            if b is not None:
                return inner.antecedent, b
        return None

    def or_parts(self, f):
        """``(a, b)`` if ``f`` is stored ``a | b``, else None.  Yields to the
        implication reading when the negated antecedent is a conjunction,
        so ``a & b -> c`` survives printing."""
        if type(f) is self.implies:
            a = self.negated(f.antecedent)
            if a is not None and self.and_parts(f.antecedent) is None:
                return a, f.consequent
        return None

    def render(self, f, ctx: int = 0) -> str:
        """Text of ``f`` in a context of precedence ``ctx``; parentheses go
        where the context binds tighter.  Precedence: ! > & > | > ->
        (right-assoc) > <->."""
        text = self.leaf_text(f)
        if text is not None:
            return text
        parts = self.and_parts(f)
        if parts is not None:
            left, right = parts
            implies = self.implies
            if (
                type(left) is implies
                and type(right) is implies
                and left.antecedent == right.consequent
                and left.consequent == right.antecedent
            ):
                prec, op, parts = _PREC_IFF, " <-> ", (left.antecedent, left.consequent)
            else:
                prec, op = _PREC_AND, " & "
        else:
            parts = self.or_parts(f)
            if parts is None:
                inner = self.negated(f)
                if inner is not None:
                    return "!" + self.render(inner, _PREC_NOT)
                # -> is the one right-associative connective
                left = self.render(f.antecedent, _PREC_IMP + 1)
                s = f"{left} -> {self.render(f.consequent, _PREC_IMP)}"
                return f"({s})" if _PREC_IMP < ctx else s
            prec, op = _PREC_OR, " | "
        s = self.render(parts[0], prec) + op + self.render(parts[1], prec + 1)
        return f"({s})" if prec < ctx else s


def _negated(f: PropFormula):
    return f.operand if type(f) is Not else None


def _leaf_text(f: PropFormula):
    if type(f) is Atom:
        return f"B{f.index}"
    if f == TOP:
        return "T"
    if f == BOTTOM:
        return "F"
    return None


CONNECTIVES = Connectives(Implies, Not, _negated, _leaf_text)
conj = CONNECTIVES.conj
disj = CONNECTIVES.disj
iff = CONNECTIVES.iff

# T == B1 | !B1                F == B1 & !B1
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
    if not U <= A:
        raise ScopeError(f"{set(U)} is not a subset of {set(A)}")
    atoms = sorted(A)
    return sum(1 << k for k, a in enumerate(atoms) if a in U)


def subset_of_mask(A: Scope, mask: int) -> frozenset:
    atoms = sorted(A)
    return frozenset(a for k, a in enumerate(atoms) if mask >> k & 1)


@lru_cache(maxsize=_COLUMN_SCOPES)
def _columns(A: Scope) -> tuple:
    """``(columns, full)`` for the truth tables over A: atom a_k's column has
    bit m equal to bit k of m, and ``full`` has all 2^|A| bits set."""
    rows = 1 << len(A)
    columns = {}
    for k, a in enumerate(sorted(A)):
        # runs of 2^k zeros then 2^k ones: a block of 2^(k+1) bits, doubled
        # until it fills the table, in time linear in the table's size
        half = 1 << k
        column, width = ((1 << half) - 1) << half, 2 * half
        while width < rows:
            column |= column << width
            width *= 2
        columns[a] = column
    return columns, (1 << rows) - 1


@lru_cache(maxsize=CACHE_SIZE)
def _models_mask(alpha: PropFormula, A: Scope) -> int:
    """Bitset over ascending-mask subsets of A: bit m set iff subset m satisfies alpha."""
    columns, full = _columns(A)
    return _truth_table(alpha, columns, full)


def tables(formulas: Iterable[PropFormula], cap: int = DEFAULT_SCOPE_CAP, scope: Optional[Scope] = None):
    """``(A, [each formula's truth table over A])``.  A is ``scope`` when
    given (an atom outside it raises ScopeError), else the union of the
    formulas' atoms: the very ``atoms_of`` set of the first formula when it
    covers the rest, for memos keyed on it.  Raises ScopeCapError when A has
    more than ``cap`` atoms."""
    formulas = list(formulas)
    if scope is None:
        A = atoms_of(formulas[0]) if formulas else frozenset()
        for f in formulas[1:]:
            if not atoms_of(f) <= A:
                A = A | atoms_of(f)
    else:
        A = frozenset(scope)
        for f in formulas:
            if not atoms_of(f) <= A:
                raise ScopeError(f"atoms {sorted(atoms_of(f) - A)} outside scope {sorted(A)}")
    _check_enumerable(A, cap)
    return A, [_models_mask(f, A) for f in formulas]


def models_over(alpha: PropFormula, A: Scope, cap: int = DEFAULT_SCOPE_CAP) -> frozenset:
    """The subsets of A whose induced A-valuation satisfies ``alpha``."""
    return frozenset(c.trues for c in dnf(alpha, A, cap))


def _conjoined(deltas: Iterable[PropFormula], alpha: PropFormula, cap: int) -> tuple:
    """``(A, the AND of the hypotheses' truth tables, the conclusion's
    table)`` over the union scope A, from one ``tables`` call; the empty
    hypothesis set is true on every row and adds no atom to A."""
    A, (conclusion, *hypotheses) = tables([alpha, *deltas], cap)
    conjunction = (1 << (1 << len(A))) - 1
    for m in hypotheses:
        conjunction &= m
    return A, conjunction, conclusion


def entails_c(deltas: Iterable[PropFormula], alpha: PropFormula, cap: int = DEFAULT_SCOPE_CAP) -> bool:
    """Classical entailment over the union scope, by brute-force enumeration."""
    _, conjunction, conclusion = _conjoined(deltas, alpha, cap)
    return conjunction & ~conclusion == 0


def phi(A: Scope, U: frozenset) -> PropFormula:
    """The conjunction of literals over A that is true exactly on the A-valuation U.

    Literals appear in ascending atom order, folded to the left.
    """
    if not A:
        raise ScopeError("empty scope has no point formulas")
    if not U <= A:
        raise ScopeError(f"{set(U)} is not a subset of {set(A)}")
    return conj_all(Atom(a) if a in U else Not(Atom(a)) for a in sorted(A))


def phi_text(A: Scope, mask: int) -> str:
    """``to_text(phi(A, U))`` for the subset U of A with bitmask ``mask``,
    built without the formula: the literals joined by `` & ``."""
    if not A:
        raise ScopeError("empty scope has no point formulas")
    return " & ".join(f"B{a}" if mask >> k & 1 else f"!B{a}" for k, a in enumerate(sorted(A)))


def point_mask(A: Scope, f: PropFormula) -> Optional[int]:
    """The bitmask of U when ``f`` is ``phi(A, U)``, else None."""
    atoms = sorted(A)
    if not atoms:
        return None
    mask = 0
    for k in range(len(atoms) - 1, -1, -1):
        literal = f
        if k:
            parts = CONNECTIVES.and_parts(f)
            if parts is None:
                return None
            f, literal = parts
        if literal == Atom(atoms[k]):
            mask |= 1 << k
        elif literal != Not(Atom(atoms[k])):
            return None
    return mask


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
    A, (bits,) = tables([alpha], cap, A)
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
    scope, _ = tables(alphas, cap)
    return scope, [dnf(a, scope, cap) for a in alphas]


# -- text form ----------------------------------------------------------------
# Grammar: atoms B<digits>; ! & | -> <->; constants T, F; parentheses.


@lru_cache(maxsize=CACHE_SIZE)
def to_text(f: PropFormula) -> str:
    """Canonical text form; re-sugars &, |, <->, T and F."""
    return CONNECTIVES.render(f)


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


class Parser:
    """Recursive descent over a token list for the connectives, loosest
    first: <-> (left-assoc), -> (right-assoc), |, &, then ! and
    parentheses.  A language subclasses it with its ``connectives``, its
    ``error`` class and a ``leaf`` method that reads every other token;
    connective tokens are strings, and a leaf token must equal none of them.
    """

    connectives: Connectives
    error: type

    def __init__(self, tokens):
        self.tokens = [*tokens, None]  # None marks the end; take never passes it
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, expected=None):
        tok = self.peek()
        if tok is None:
            raise self.error("unexpected end of input")
        if expected is not None and tok != expected:
            raise self.error(f"expected {expected!r}, found {tok!r}")
        self.pos += 1
        return tok

    def read(self):
        """The whole token list as one formula."""
        f = self.formula()
        if self.peek() is not None:
            raise self.error(f"trailing input from {self.peek()!r}")
        return f

    def formula(self):
        f = self.implication()
        while self.peek() == "<->":
            self.take()
            f = self.connectives.iff(f, self.implication())
        return f

    def implication(self):
        f = self.disjunction()
        if self.peek() == "->":
            self.take()
            return self.connectives.implies(f, self.implication())
        return f

    def disjunction(self):
        f = self.conjunction()
        while self.peek() == "|":
            self.take()
            f = self.connectives.disj(f, self.conjunction())
        return f

    def conjunction(self):
        f = self.unary()
        while self.peek() == "&":
            self.take()
            f = self.connectives.conj(f, self.unary())
        return f

    def unary(self):
        tok = self.peek()
        if tok == "!":
            self.take()
            return self.connectives.negate(self.unary())
        if tok == "(":
            self.take()
            f = self.formula()
            self.take(")")
            return f
        return self.leaf()


class _PropParser(Parser):
    connectives = CONNECTIVES
    error = ParseError

    def leaf(self) -> PropFormula:
        tok = self.peek()
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
    return _PropParser(_tokenize(text)).read()
