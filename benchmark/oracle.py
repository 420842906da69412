"""Reference semantics for checking pplogic's answers, written apart from
the program: it imports nothing from ``pplogic``.

Formulas are nested tuples:

    ("atom", i)  ("not", f)  ("and", f, g)  ("or", f, g)  ("imp", f, g)  ("iff", f, g)

They are handed to the program as text (``to_text``), which its own parser
reads.  Truth values are computed as whole truth tables packed into Python
integers (bit r is row r), a different method from the program's row-by-row
tree walk, so a shared mistake is unlikely.
"""

from __future__ import annotations

import json
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

_INFIX = {"and": "&", "or": "|", "imp": "->", "iff": "<->"}


def atom(i: int) -> tuple:
    return ("atom", i)


def neg(f: tuple) -> tuple:
    return ("not", f)


def conj_all(fs) -> tuple:
    """Left fold of conjunction over a non-empty sequence."""
    fs = list(fs)
    out = fs[0]
    for f in fs[1:]:
        out = ("and", out, f)
    return out


def atoms(f: tuple) -> frozenset:
    if f[0] == "atom":
        return frozenset((f[1],))
    out = frozenset()
    for sub in f[1:]:
        out |= atoms(sub)
    return out


def to_text(f: tuple) -> str:
    """Surface syntax with every binary connective parenthesized."""
    if f[0] == "atom":
        return f"B{f[1]}"
    if f[0] == "not":
        return "!" + to_text(f[1])
    return f"({to_text(f[1])} {_INFIX[f[0]]} {to_text(f[2])})"


def _column(j: int, rows: int) -> int:
    """Bits r of 0..rows-1 where bit j of r is set."""
    half = 1 << j
    pattern, width = ((1 << half) - 1) << half, 2 * half
    while width < rows:
        pattern |= pattern << width
        width *= 2
    return pattern & ((1 << rows) - 1)


def truth_table(f: tuple, order) -> int:
    """Truth table of f over the atoms in ``order``; row r sets atom
    order[j] true iff bit j of r is set."""
    rows = 1 << len(order)
    full = (1 << rows) - 1
    cols = {a: _column(j, rows) for j, a in enumerate(order)}

    def ev(g):
        tag = g[0]
        if tag == "atom":
            return cols[g[1]]
        if tag == "not":
            return full ^ ev(g[1])
        a, b = ev(g[1]), ev(g[2])
        if tag == "and":
            return a & b
        if tag == "or":
            return a | b
        if tag == "imp":
            return (full ^ a) | b
        return full ^ (a ^ b)

    return ev(f)


def entails(hyps, concl: tuple) -> bool:
    """Classical entailment by truth table over the union of the atoms."""
    hyps = list(hyps)
    scope = atoms(concl)
    for h in hyps:
        scope |= atoms(h)
    order = sorted(scope)
    rows = 1 << len(order)
    both = (1 << rows) - 1
    for h in hyps:
        both &= truth_table(h, order)
    return both & ~truth_table(concl, order) == 0


def check_distribution(carrier, masses) -> None:
    """Raise ValueError unless ``masses`` (mask -> Fraction, bit k = k-th
    smallest carrier atom) is a probability distribution on the carrier."""
    if len(set(carrier)) != len(carrier) or not carrier:
        raise ValueError(f"bad carrier {carrier}")
    limit = 1 << len(carrier)
    total = ZERO
    for m, p in masses.items():
        if not (0 <= m < limit):
            raise ValueError(f"mask {m} outside the carrier")
        if not (ZERO <= p <= ONE):
            raise ValueError(f"mass {p} outside [0, 1]")
        total += p
    if total != ONE:
        raise ValueError(f"masses sum to {total}")


def prob(f: tuple, carrier, masses) -> Fraction:
    """Probability of f under the joint ``masses`` on ``carrier``, atoms
    outside the carrier being independent fair coins."""
    carrier = sorted(carrier)
    scope = atoms(f)
    inner = [a for a in carrier if a in scope]
    outer = sorted(scope - set(carrier))
    table = truth_table(f, outer + inner)
    block = 1 << len(outer)
    block_mask = (1 << block) - 1
    grouped: dict = {}
    for m, p in masses.items():
        g = 0
        for j, a in enumerate(inner):
            if m >> carrier.index(a) & 1:
                g |= 1 << j
        grouped[g] = grouped.get(g, ZERO) + p
    total = ZERO
    for g, p in grouped.items():
        satisfied = ((table >> (g * block)) & block_mask).bit_count()
        total += p * Fraction(satisfied, block)
    return total


def marginal(carrier, masses, sub) -> dict:
    """The marginal of the joint on the atoms ``sub`` (a subset of the carrier),
    keyed by masks over sorted(sub)."""
    carrier = sorted(carrier)
    sub = sorted(sub)
    positions = [carrier.index(a) for a in sub]
    out: dict = {}
    for m, p in masses.items():
        key = sum(1 << j for j, pos in enumerate(positions) if m >> pos & 1)
        out[key] = out.get(key, ZERO) + p
    return {k: v for k, v in out.items() if v}


def parse_distribution_json(payload: dict):
    """(carrier, masses) from the program's distribution JSON object,
    checked to be a distribution."""
    carrier = payload["carrier"]
    masses = {int(k): Fraction(v) for k, v in payload["mass"].items()}
    check_distribution(carrier, masses)
    return carrier, masses


def parse_distribution_text(text: str):
    return parse_distribution_json(json.loads(text))


def hailperin_bound(n: int, p: Fraction) -> Fraction:
    """Least probability of Bn over valuations giving each of the n chain
    hypotheses B1, B1 -> B2, ..., B(n-1) -> Bn probability at least p.

    The failures of the hypotheses cover !Bn, so P(!Bn) <= n(1-p); putting
    each hypothesis's failure mass on its own valuation reaches that bound
    whenever n(1-p) <= 1.
    """
    return max(ZERO, ONE - n * (ONE - p))


def hailperin_entails(n: int, p: Fraction, q: Fraction) -> bool:
    return q <= hailperin_bound(n, p)


def chain(indices) -> list:
    """Hypotheses of the Hailperin chain over the atoms in ``indices``."""
    hyps = [atom(indices[0])]
    for a, b in zip(indices, indices[1:]):
        hyps.append(("imp", atom(a), atom(b)))
    return hyps
