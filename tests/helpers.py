"""Shared generators and oracles for randomized and pool-based tests, also
used by the experiment scripts."""

from __future__ import annotations

import random
from fractions import Fraction

from pplogic import prop, rcof, stochval


def random_formula(rng: random.Random, atom_indices, depth: int) -> prop.PropFormula:
    """A random desugared formula of connective depth at most ``depth``."""
    if depth == 0 or rng.random() < 0.25:
        return prop.Atom(rng.choice(list(atom_indices)))
    pick = rng.randrange(5)
    if pick == 0:
        return prop.Not(random_formula(rng, atom_indices, depth - 1))
    a = random_formula(rng, atom_indices, depth - 1)
    b = random_formula(rng, atom_indices, depth - 1)
    if pick == 1:
        return prop.Implies(a, b)
    if pick == 2:
        return prop.conj(a, b)
    if pick == 3:
        return prop.disj(a, b)
    return prop.iff(a, b)


def eval_row(true_atoms, alpha: prop.PropFormula) -> bool:
    """Reference truth value of ``alpha`` when exactly ``true_atoms`` hold,
    by structural recursion."""
    if isinstance(alpha, prop.Atom):
        return alpha.index in true_atoms
    if isinstance(alpha, prop.Not):
        return not eval_row(true_atoms, alpha.operand)
    return (not eval_row(true_atoms, alpha.antecedent)) or eval_row(true_atoms, alpha.consequent)


def models_mask_by_rows(alpha: prop.PropFormula, A) -> int:
    """Reference for ``prop._models_mask``: evaluates ``alpha`` on each
    subset of A in turn, bit m for the subset with ascending mask m."""
    out = 0
    for m, U in enumerate(prop.subsets_ascending(frozenset(A))):
        if eval_row(U, alpha):
            out |= 1 << m
    return out


def marginal_by_subsets(V: stochval.StochasticValuation, A) -> stochval.FinDist:
    """Reference for ``stochval.marginal``: sums the carrier masses per
    subset of the shared atoms, then enumerates every subset of A and
    scales by 1/2 per atom of A outside the carrier."""
    A = frozenset(A)
    inner = A & V.carrier
    spread = Fraction(1, 1 << len(A - V.carrier))
    acc: dict = {}
    carrier_atoms = sorted(V.carrier)
    for m, p in V.joint.mass:
        W = frozenset(a for k, a in enumerate(carrier_atoms) if m >> k & 1)
        key = W & inner
        acc[key] = acc.get(key, Fraction(0)) + p
    masses = {}
    for U in prop.subsets_ascending(A):
        p = acc.get(U & inner, Fraction(0)) * spread
        if p != 0:
            masses[prop.mask_of(A, U)] = p
    return stochval.FinDist.from_masks(A, masses)


def random_valuation(rng: random.Random, carrier, max_numerator: int = 8) -> stochval.StochasticValuation:
    """A random exact joint over the carrier: integer weights, normalized."""
    carrier = frozenset(carrier)
    n = 1 << len(carrier)
    weights = [rng.randrange(0, max_numerator + 1) for _ in range(n)]
    if not any(weights):
        weights[rng.randrange(n)] = 1
    total = sum(weights)
    joint = stochval.FinDist.from_masks(
        carrier, {m: Fraction(w, total) for m, w in enumerate(weights) if w}
    )
    return stochval.StochasticValuation(carrier, joint)


def semantic_class_pool(atom_indices, rounds: int = 3) -> list:
    """One representative per semantic class reachable by formulas of
    connective depth <= rounds over the given atoms (first reached wins)."""
    scope = frozenset(atom_indices)
    seen: dict = {}

    def add(f):
        key = prop._models_mask(f, scope)
        if key not in seen:
            seen[key] = f

    for i in sorted(atom_indices):
        add(prop.Atom(i))
    for _ in range(rounds):
        current = list(seen.values())
        for f in current:
            add(prop.Not(f))
        for a in current:
            for b in current:
                add(prop.Implies(a, b))
                add(prop.conj(a, b))
                add(prop.disj(a, b))
    return list(seen.values())


def random_linear_sentence(rng: random.Random, n_vars: int) -> rcof.Formula:
    """A random boolean combination of depth <= 2 over linear atoms.

    Unit coefficients and eighth constants put every vertex of a refutation
    region on the 1/8 grid, but ``grid_refuted`` is not a complete refuter:
    a region may lie outside its [-3,3]^n box, or be an open sliver between
    grid points.  A grid refutation is always genuine.  Equality atoms
    (which can pin solutions at finer denominators) are exercised against
    exact expectations in the decider's own tests.
    """
    def atom():
        coeffs = {
            i: rng.choice([-1, 1]) for i in range(n_vars) if rng.random() < 0.75
        }
        lhs = rcof.add_all(
            [rcof.Mul(rcof.const(v), rcof.Var(i)) for i, v in sorted(coeffs.items())]
        )
        const = rcof.const(Fraction(rng.randint(-16, 16), 8))
        ctor = rng.choice([rcof.Le, rcof.Lt])
        return ctor(lhs, const)

    def tree(depth):
        if depth == 0 or rng.random() < 0.45:
            return atom()
        ctor = rng.choice([rcof.And, rcof.Or, rcof.Implies, rcof.Not])
        if ctor is rcof.Not:
            return rcof.Not(tree(depth - 1))
        return ctor(tree(depth - 1), tree(depth - 1))

    return tree(2)


def grid_refuted(matrix: rcof.Formula) -> bool:
    """Dense grid search over [-3,3]^n at step 1/8 for a point refuting a
    linear matrix.

    All grid values and atom coefficients are dyadic rationals of small
    magnitude, so float64 evaluation is exact.
    """
    import numpy as np

    axis = np.arange(-24, 25, dtype=np.float64) / 8.0
    table = rcof.VarTable()
    rcof._linear_matrix(matrix, table)
    numeric = sorted(table.numeric)

    def eval_term(t, arrays):
        if isinstance(t, rcof.Const):
            return float(t.value)
        if isinstance(t, rcof.Var):
            return arrays[t.index]
        if isinstance(t, rcof.Neg):
            return -eval_term(t.operand, arrays)
        if isinstance(t, rcof.Add):
            return eval_term(t.left, arrays) + eval_term(t.right, arrays)
        return eval_term(t.left, arrays) * eval_term(t.right, arrays)

    def eval_formula(f, arrays):
        if isinstance(f, rcof.Eq):
            return np.equal(eval_term(f.left, arrays), eval_term(f.right, arrays))
        if isinstance(f, rcof.Lt):
            return np.less(eval_term(f.left, arrays), eval_term(f.right, arrays))
        if isinstance(f, rcof.Le):
            return np.less_equal(eval_term(f.left, arrays), eval_term(f.right, arrays))
        if isinstance(f, rcof.Not):
            return np.logical_not(eval_formula(f.operand, arrays))
        if isinstance(f, rcof.And):
            return np.logical_and(eval_formula(f.left, arrays), eval_formula(f.right, arrays))
        if isinstance(f, rcof.Or):
            return np.logical_or(eval_formula(f.left, arrays), eval_formula(f.right, arrays))
        return np.logical_or(
            np.logical_not(eval_formula(f.antecedent, arrays)),
            eval_formula(f.consequent, arrays),
        )

    if not numeric:
        return not eval_formula(matrix, {})
    first, rest = numeric[0], numeric[1:]
    shapes = {
        v: axis.reshape((-1,) + (1,) * (len(rest) - k - 1))
        for k, v in enumerate(rest)
    }
    for value in axis:  # chunk along the first variable to bound memory
        arrays = dict(shapes)
        arrays[first] = value
        if not np.all(eval_formula(matrix, arrays)):
            return True
    return False


def pairing_feasible(atoms) -> bool:
    """Verdict-only reference for ``rcof.fm_feasible``: Fourier-Motzkin by
    pure pairing, with no presolve and no witness.

    Each equality splits into two non-strict rows; each variable in turn is
    eliminated by combining every row bounding it from below with every row
    bounding it from above, the result strict when either row is.  The row
    count can square per variable, so this suits small systems only.
    """
    rows = set()
    for a in atoms:
        if a.rel == rcof.REL_EQ:
            flipped = {k: -v for k, v in a.coeffs}
            rows.add(rcof.LinearAtom.make(dict(a.coeffs), a.const, rcof.REL_LE))
            rows.add(rcof.LinearAtom.make(flipped, -a.const, rcof.REL_LE))
        else:
            rows.add(a)
    while True:
        if not all(a.holds_on_constants() for a in rows if not a.coeffs):
            return False
        rows = {a for a in rows if a.coeffs}
        if not rows:
            return True
        target = min(k for a in rows for k, _ in a.coeffs)
        lowers, uppers = [], []
        for a in list(rows):
            c = dict(a.coeffs).get(target)
            if c is not None:
                rows.discard(a)
                (uppers if c > 0 else lowers).append((a, c))
        for lo, cl in lowers:
            for up, cu in uppers:
                coeffs = {k: cu * v for k, v in lo.coeffs}
                for k, v in up.coeffs:
                    coeffs[k] = coeffs.get(k, 0) - cl * v
                rel = rcof.REL_LT if rcof.REL_LT in (lo.rel, up.rel) else rcof.REL_LE
                rows.add(rcof.LinearAtom.make(coeffs, cu * lo.const - cl * up.const, rel))
