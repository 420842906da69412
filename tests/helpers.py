"""Shared generators and oracles for randomized and pool-based tests, also
used by the experiment scripts."""

from __future__ import annotations

import random
import types
from fractions import Fraction

from pplogic import ppl, pqentail, prop, rcof, stochval, validity
from pplogic.config import Config


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


def corpus_prop_formula(rng: random.Random, depth: int) -> prop.PropFormula:
    """A random formula for the printer corpus: atoms B0-B4 and the
    constants T and F as leaves, raw ``Not``/``Implies`` mixed with the
    sugar constructors, so nested sugar meets every stored shape."""
    if depth == 0 or rng.random() < 0.2:
        pick = rng.randrange(12)
        if pick == 0:
            return prop.TOP
        if pick == 1:
            return prop.BOTTOM
        return prop.Atom(rng.randrange(5))
    pick = rng.randrange(6)
    if pick == 0:
        return prop.Not(corpus_prop_formula(rng, depth - 1))
    a = corpus_prop_formula(rng, depth - 1)
    b = corpus_prop_formula(rng, depth - 1)
    ctor = (prop.Implies, prop.conj, prop.disj, prop.iff, prop.Implies)[pick - 1]
    return ctor(a, b)


def corpus_term(rng: random.Random, depth: int) -> rcof.Term:
    """A random bound term in the shape the parser reads back: constants
    are nonnegative and negation is explicit."""
    if depth == 0 or rng.random() < 0.5:
        if rng.random() < 0.3:
            return rcof.Var(rng.randrange(3))
        return rcof.Const(Fraction(rng.randint(0, 6), rng.randint(1, 4)))
    pick = rng.randrange(3)
    if pick == 0:
        return rcof.Neg(corpus_term(rng, depth - 1))
    ctor = rcof.Add if pick == 1 else rcof.Mul
    return ctor(corpus_term(rng, depth - 1), corpus_term(rng, depth - 1))


def corpus_ppl_formula(rng: random.Random, depth: int) -> ppl.PplFormula:
    """A random formula for the printer corpus: probability atoms, the
    <= / >= sugar and FALSUM/TRUTH as leaves under every connective."""
    if depth == 0 or rng.random() < 0.2:
        pick = rng.randrange(8)
        if pick == 0:
            return rng.choice([ppl.FALSUM, ppl.TRUTH])
        alpha = corpus_prop_formula(rng, 2)
        bound = rcof.ONE if rng.random() < 0.2 else corpus_term(rng, 2)
        if pick == 1:
            return ppl.ple(alpha, bound)
        if pick == 2:
            return ppl.pge(alpha, bound)
        return ppl.PplAtom(alpha, rng.choice(["=", "<"]), bound)
    pick = rng.randrange(6)
    if pick == 0:
        return ppl.pnot(corpus_ppl_formula(rng, depth - 1))
    a = corpus_ppl_formula(rng, depth - 1)
    b = corpus_ppl_formula(rng, depth - 1)
    ctor = (ppl.PplImplies, ppl.pand, ppl.por, ppl.piff, ppl.PplImplies)[pick - 1]
    return ctor(a, b)


def golden_corpus(seed: int, count: int) -> tuple:
    """``count`` seeded propositional and ``count`` probability-logic
    formulas, the corpus whose canonical texts ``tests/data`` pins."""
    rng = random.Random(seed)
    props = [corpus_prop_formula(rng, rng.randint(1, 5)) for _ in range(count)]
    ppls = [corpus_ppl_formula(rng, rng.randint(1, 4)) for _ in range(count)]
    return props, ppls


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


def columns_by_repunit(A) -> tuple:
    """Reference for ``prop._columns``: each atom's column as the all-rows
    mask divided by a repunit of 2^(k+1)-bit blocks, times one block."""
    full = (1 << (1 << len(A))) - 1
    columns = {}
    for k, a in enumerate(sorted(A)):
        half = 1 << k
        columns[a] = full // ((1 << 2 * half) - 1) * (((1 << half) - 1) << half)
    return columns, full


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


def project_by_fractions(d: stochval.FinDist, A) -> dict:
    """Reference for ``stochval._project``: one ``Fraction`` addition per
    mass of d, then each sum scaled by 1/2 per atom of A outside d's
    scope."""
    position = {a: j for j, a in enumerate(sorted(d.scope))}
    copied = []  # (bit in d's mask, bit in the A-mask)
    coins = [0]  # every A-mask over the atoms outside d's scope
    for k, a in enumerate(sorted(A)):
        j = position.get(a)
        if j is None:
            coins += [c | 1 << k for c in coins]
        else:
            copied.append((j, k))
    acc: dict = {}
    for m, p in d.mass:
        key = 0
        for j, k in copied:
            key |= (m >> j & 1) << k
        acc[key] = acc.get(key, Fraction(0)) + p
    if len(coins) == 1:
        return acc
    share = Fraction(1, len(coins))
    out = {}
    for key, p in acc.items():
        p *= share
        for c in coins:
            out[key | c] = p
    return out


def check_adams_by_formulas(P, pool) -> stochval.AdamsReport:
    """Reference for ``stochval.check_adams``: asks P for ``prop.disj(fi, fj)``
    on every disjoint pair, whatever P is, and compares ``Fraction`` sums."""
    ZERO, ONE = Fraction(0), Fraction(1)
    AdamsViolation = stochval.AdamsViolation
    pool = list(dict.fromkeys(pool))
    scope, masks = prop.tables(pool)
    full = (1 << (1 << len(scope))) - 1
    values = [P(f) for f in pool]
    violations = []
    for f, p in zip(pool, values):
        if not (ZERO <= p <= ONE):
            violations.append(AdamsViolation("P1", (f,), f"P = {p} outside [0,1]"))
    for f, m, p in zip(pool, masks, values):
        if m == full and p != ONE:
            violations.append(AdamsViolation("P2", (f,), f"tautology has P = {p}"))
    for i, (fi, mi, pi) in enumerate(zip(pool, masks, values)):
        for j, (fj, mj, pj) in enumerate(zip(pool, masks, values)):
            if i == j:
                continue
            if mi & ~mj == 0 and pi > pj:
                violations.append(
                    AdamsViolation("P3", (fi, fj), f"entails yet {pi} > {pj}")
                )
    for i, (fi, mi, pi) in enumerate(zip(pool, masks, values)):
        for fj, mj, pj in zip(pool, masks, values):
            if mi & mj == 0:
                both = P(prop.disj(fi, fj))
                if both != pi + pj:
                    violations.append(
                        AdamsViolation(
                            "P4", (fi, fj), f"P(or) = {both} but P sum = {pi + pj}"
                        )
                    )
    return stochval.AdamsReport(violations)


def findist_checks_by_fractions(scope, mass) -> None:
    """Reference for the checks of ``stochval.FinDist(scope, mass)``: the
    same checks in the same order over ``Fraction`` masses, summed as
    ``Fraction``s."""
    ZERO, ONE = Fraction(0), Fraction(1)
    DistributionError = stochval.DistributionError
    total = ZERO
    seen = -1
    for m, p in mass:
        if not isinstance(p, Fraction):
            raise DistributionError(f"mass for {m} is not an exact rational: {p!r}")
        if not (0 <= m < (1 << len(scope))):
            raise DistributionError(f"bitmask {m} out of range for scope {sorted(scope)}")
        if m <= seen:
            raise DistributionError("masks must be strictly ascending")
        if not (ZERO <= p <= ONE):
            raise DistributionError(f"mass {p} for {m} outside [0,1]")
        if p == ZERO:
            raise DistributionError("zero masses must be dropped")
        seen = m
        total += p
    if total != ONE:
        raise DistributionError(f"masses sum to {total}, not 1")


def distribution_rows_by_points(alphas, scope, cap: int = prop.DEFAULT_SCOPE_CAP):
    """Reference for ``ppl.distribution_rows``: the point encoding the cells
    replaced, one column per subset of the scope in ascending mask order,
    each its own representative."""
    scope = frozenset(scope)
    prop._check_enumerable(scope, cap)
    n = 1 << len(scope)
    rows = [rcof.LinearAtom.make({m: -rcof.ONE_F}, rcof.ZERO_F, rcof.REL_LE) for m in range(n)]
    rows.append(rcof.LinearAtom.make(dict.fromkeys(range(n), rcof.ONE_F), -rcof.ONE_F, rcof.REL_EQ))
    sums = {}
    for a in alphas:
        bits = prop._models_mask(a, scope)
        sums[a] = {m: rcof.ONE_F for m in range(n) if bits >> m & 1}
    return rows, sums, list(range(n))


def find_refuting_valuation_by_points(deltas, alpha, p, q, cap: int = prop.DEFAULT_SCOPE_CAP):
    """Reference for ``pqentail.find_refuting_valuation``: the system built
    afresh on every call from the formulas themselves, over the point
    encoding of ``distribution_rows_by_points``, with no memo of its own."""
    deltas = list(deltas)
    p, q = Fraction(p), Fraction(q)
    for value, name in ((p, "p"), (q, "q")):
        if not (0 <= value <= 1):
            raise ValueError(f"threshold {name}={value} outside [0,1]")
    A = prop.atoms_of(alpha)
    for d in deltas:
        A = A | prop.atoms_of(d)
    atoms, sums, points = distribution_rows_by_points([*deltas, alpha], A, cap)
    for d in deltas:
        coeffs = {m: -c for m, c in sums[d].items()}
        atoms.append(rcof.LinearAtom.make(coeffs, p, rcof.REL_LE))  # p - sum <= 0
    atoms.append(rcof.LinearAtom.make(sums[alpha], -q, rcof.REL_LT))  # sum - q < 0
    values = rcof.fm_feasible(atoms)
    if values is None:
        return None
    joint = stochval.FinDist.from_masks(A, {m: values.get(c, Fraction(0)) for c, m in enumerate(points)})
    return stochval.StochasticValuation(A, joint)


def pq_entails_by_formulas(deltas, alpha, thresholds, cap: int = prop.DEFAULT_SCOPE_CAP) -> bool:
    """Reference for ``pqentail.pq_entails``: the hypotheses conjoined as a
    formula (``conj_all``; the empty set is T, whose B1 joins the scope),
    then ``find_refuting_valuation_by_points`` on that one hypothesis."""
    conjunction = prop.conj_all(deltas)
    refutation = find_refuting_valuation_by_points([conjunction], alpha, thresholds.p, thresholds.q, cap)
    return refutation is None


def pq_entails_by_refutation(deltas, alpha, thresholds, cap: int = prop.DEFAULT_SCOPE_CAP) -> bool:
    """Reference for ``pqentail.pq_entails``: the hypotheses' tables ANDed,
    then the threshold system on that one table handed to
    ``rcof.fm_feasible``, so each distinct table-level system is posed,
    whatever its cells."""
    A, (conclusion, *hypotheses) = prop.tables([alpha, *deltas], cap)
    conjunction = (1 << (1 << len(A))) - 1
    for table in hypotheses:
        conjunction &= table
    tables = (conjunction, conclusion)
    atoms, _ = pqentail._system(ppl.cells(tables, len(A)), len(tables), thresholds.p, thresholds.q)
    return rcof.fm_feasible(atoms) is None


def assert_key_alone(posed) -> None:
    """Assert that a key the cell-structure memo stored holds its key and
    nothing of its poser: no solver, no cells, no decision, witness or
    valuation."""
    poser_state = (list, dict, types.FunctionType, rcof.Decision, rcof.Assignment, stochval.StochasticValuation)
    assert posed.solve is None
    stack = [getattr(posed, slot) for slot in posed.__slots__]
    while stack:
        value = stack.pop()
        if isinstance(value, tuple):
            stack += value
        else:
            assert not isinstance(value, poser_state), value


def findist_from_masks_by_fractions(scope, masses) -> stochval.FinDist:
    """Reference for ``stochval.FinDist.from_masks``: every mass converted
    with ``Fraction`` in the zero filter and again for its pair."""
    items = tuple(sorted((m, Fraction(p)) for m, p in masses.items() if Fraction(p) != 0))
    return stochval.FinDist(frozenset(scope), items)


def sign_classes(alphas, scope) -> list:
    """Brute-force cells: the subsets of the scope grouped by which of the
    formulas they satisfy, each class a sorted list of masks, the classes
    in ascending order of their least mask."""
    scope = frozenset(scope)
    masks = [prop._models_mask(a, scope) for a in alphas]
    classes: dict = {}
    for m in range(1 << len(scope)):
        classes.setdefault(tuple(bits >> m & 1 for bits in masks), []).append(m)
    return sorted(classes.values())


def valuation_from_assignment_dense(rho: rcof.Assignment, scope) -> stochval.StochasticValuation:
    """Reference for ``validity.valuation_from_assignment``: looks up the
    point formula of every subset of the scope in turn."""
    scope = frozenset(scope)
    masses = {}
    total = Fraction(0)
    for U in prop.subsets_ascending(scope):
        key = prop.to_text(prop.phi(scope, U))
        value = rho.probs.get(key, Fraction(0))
        if not (0 <= value <= 1):
            raise stochval.DistributionError(f"range constraint violated: value {value} for `{key}`")
        total += value
        if value != 0:
            masses[prop.mask_of(scope, U)] = value
    if total != 1:
        raise stochval.DistributionError(f"sum constraint violated: point values sum to {total}, not 1")
    return stochval.StochasticValuation(scope, stochval.FinDist.from_masks(scope, masses))


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


def probability_formulas_with_truth(phi: ppl.PplFormula) -> list:
    """Reference for ``validity.probability_formulas``: the encoding it
    replaced, which also lists ``T``."""
    seen: dict = {}
    stack = [phi]
    while stack:
        f = stack.pop()
        if isinstance(f, ppl.PplAtom):
            seen.setdefault(f.alpha, None)
        else:
            stack += [f.consequent, f.antecedent]
    return list(seen)


def translate_truth_as_variable(phi: ppl.PplFormula) -> rcof.Formula:
    """Reference for ``ppl.translate``: the encoding it replaced, every atom
    P(alpha) REL t as x_alpha REL t with ``P(T)`` a variable like any other,
    so ``FALSUM`` is x_T < 1 and the <= / >= sugar stays the disjunction and
    negation it is stored as."""
    if isinstance(phi, ppl.PplAtom):
        ctor = rcof.Eq if phi.relation == "=" else rcof.Lt
        return ctor(rcof.FormulaVar(phi.alpha), phi.bound)
    return rcof.Implies(
        translate_truth_as_variable(phi.antecedent), translate_truth_as_variable(phi.consequent)
    )


def build_Q_by_points(alphas, scope, cap: int = prop.DEFAULT_SCOPE_CAP) -> rcof.Formula:
    """Reference for ``ppl.build_Q``: the distribution constraints over the
    point formulas of a scope, the construction the cells replaced.

    (i) each point-formula variable lies in [0,1]; (ii) the point
    variables sum to 1; (iii) each formula's variable equals the sum of
    the variables of its models' point formulas (an empty sum is the zero
    term).
    """
    alphas = list(dict.fromkeys(alphas))
    scope = frozenset(scope)
    for a in alphas:
        if not prop.atoms_of(a) <= scope:
            raise prop.ScopeError(f"{prop.to_text(a)} has atoms outside {sorted(scope)}")
    prop._check_enumerable(scope, cap)
    point_vars = [
        rcof.FormulaVar(prop.phi(scope, U)) for U in prop.subsets_ascending(scope)
    ]
    parts = []
    for x in point_vars:
        parts.append(rcof.Le(rcof.ZERO, x))
        parts.append(rcof.Le(x, rcof.ONE))
    parts.append(rcof.Eq(rcof.add_all(point_vars), rcof.ONE))
    for a in alphas:
        bits = prop._models_mask(a, scope)
        total = rcof.add_all(x for m, x in enumerate(point_vars) if bits >> m & 1)
        parts.append(rcof.Eq(rcof.FormulaVar(a), total))
    return rcof.and_all(parts)


def decide_by_field_formula(phi: ppl.PplFormula):
    """Reference for ``validity.decide_validity``: the field sentence
    ``Q -> psi`` of the encoding above, Q the point-formula constraints over
    the atoms of every probability formula, ``T`` included, decided by
    ``rcof.decide``.  Returns the decision and the scope of Q."""
    alphas = probability_formulas_with_truth(phi)
    scope = frozenset().union(*(prop.atoms_of(a) for a in alphas))
    matrix = rcof.Implies(build_Q_by_points(alphas, scope), translate_truth_as_variable(phi))
    return rcof.decide(matrix), scope


def decide_validity_by_instance(phi: ppl.PplFormula, config: Config = None) -> rcof.Decision:
    """Reference for ``validity.decide_validity``: the decider before its
    verdict memo, which builds and decides every formula's own system over
    ``ppl.distribution_rows``."""
    config = config or Config()
    alphas = validity.probability_formulas(phi)
    scope = validity.ppl_scope(phi)
    psi = ppl.translate(phi)
    rows, sums, points = ppl.distribution_rows(alphas, scope, cap=config.scope_cap)
    try:
        decision = rcof.decide_universal_linear(
            psi, config.clause_cap, rows, rcof.VarTable(sums, scope, points)
        )
    except rcof.NonlinearTermError:
        decision = rcof.decide(validity.field_sentence(phi, config.scope_cap), config)
    V = decision.valuation
    if V is not None and ppl.ppl_sat(V, decision.witness, phi, config.scope_cap):
        raise AssertionError("recovered witness does not refute the formula")
    return decision


def taut_by_rows(phi: ppl.PplFormula, max_atoms: int = prop.DEFAULT_SCOPE_CAP) -> bool:
    """Reference for ``calculus.check_taut``: evaluates the formula row by
    row with each distinct probability atom as a letter, except
    ``P(T) < 1``, which is false on every row.  Raises
    ``prop.ScopeCapError`` above ``max_atoms`` letters."""
    letters: dict = {}

    def collect(f):
        if isinstance(f, ppl.PplAtom):
            if f != ppl.FALSUM:
                letters.setdefault(f, len(letters))
        else:
            collect(f.antecedent)
            collect(f.consequent)

    collect(phi)
    if len(letters) > max_atoms:
        raise prop.ScopeCapError(f"{len(letters)} distinct atoms exceed the cap {max_atoms}")

    def eval_under(f, row: int) -> bool:
        if isinstance(f, ppl.PplAtom):
            return f != ppl.FALSUM and bool(row >> letters[f] & 1)
        return (not eval_under(f.antecedent, row)) or eval_under(f.consequent, row)

    return all(eval_under(phi, row) for row in range(1 << len(letters)))


# -- the field-formula walkers the operator table replaced ---------------------
# References for rcof's evaluator, SMT-LIB writer and clause builder: one
# if-chain per walker, and a negated copy of the matrix for the clauses.

def eval_term_by_cases(t: rcof.Term, rho: rcof.Assignment) -> Fraction:
    """Reference for ``rcof.eval_term``."""
    if isinstance(t, rcof.Const):
        return t.value
    if isinstance(t, (rcof.Var, rcof.FormulaVar)):
        return rho.value_of(t)
    if isinstance(t, rcof.Neg):
        return -eval_term_by_cases(t.operand, rho)
    if isinstance(t, rcof.Add):
        return eval_term_by_cases(t.left, rho) + eval_term_by_cases(t.right, rho)
    return eval_term_by_cases(t.left, rho) * eval_term_by_cases(t.right, rho)


def eval_formula_by_cases(f: rcof.Formula, rho: rcof.Assignment) -> bool:
    """Reference for ``rcof.eval_formula``."""
    if isinstance(f, rcof.Eq):
        return eval_term_by_cases(f.left, rho) == eval_term_by_cases(f.right, rho)
    if isinstance(f, rcof.Lt):
        return eval_term_by_cases(f.left, rho) < eval_term_by_cases(f.right, rho)
    if isinstance(f, rcof.Le):
        return eval_term_by_cases(f.left, rho) <= eval_term_by_cases(f.right, rho)
    if isinstance(f, rcof.Not):
        return not eval_formula_by_cases(f.operand, rho)
    if isinstance(f, rcof.And):
        return eval_formula_by_cases(f.left, rho) and eval_formula_by_cases(f.right, rho)
    if isinstance(f, rcof.Or):
        return eval_formula_by_cases(f.left, rho) or eval_formula_by_cases(f.right, rho)
    return (not eval_formula_by_cases(f.antecedent, rho)) or eval_formula_by_cases(f.consequent, rho)


def smt_term_by_cases(t: rcof.Term, seen: set) -> str:
    """Reference for ``rcof._smt`` on terms."""
    if isinstance(t, rcof.Const):
        num, den = t.value.numerator, t.value.denominator
        body = str(num) if den == 1 else f"(/ {num} {den})"
        return f"(- {body.replace('-', '', 1)})" if num < 0 else body
    if isinstance(t, (rcof.Var, rcof.FormulaVar)):
        seen.add(t)
        return rcof._smt_name(t)
    if isinstance(t, rcof.Neg):
        return f"(- {smt_term_by_cases(t.operand, seen)})"
    if isinstance(t, rcof.Add):
        return f"(+ {smt_term_by_cases(t.left, seen)} {smt_term_by_cases(t.right, seen)})"
    return f"(* {smt_term_by_cases(t.left, seen)} {smt_term_by_cases(t.right, seen)})"


def smt_formula_by_cases(f: rcof.Formula, seen: set) -> str:
    """Reference for ``rcof._smt`` on formulas."""
    if isinstance(f, rcof.Eq):
        return f"(= {smt_term_by_cases(f.left, seen)} {smt_term_by_cases(f.right, seen)})"
    if isinstance(f, rcof.Lt):
        return f"(< {smt_term_by_cases(f.left, seen)} {smt_term_by_cases(f.right, seen)})"
    if isinstance(f, rcof.Le):
        return f"(<= {smt_term_by_cases(f.left, seen)} {smt_term_by_cases(f.right, seen)})"
    if isinstance(f, rcof.Not):
        return f"(not {smt_formula_by_cases(f.operand, seen)})"
    if isinstance(f, rcof.And):
        return f"(and {smt_formula_by_cases(f.left, seen)} {smt_formula_by_cases(f.right, seen)})"
    if isinstance(f, rcof.Or):
        return f"(or {smt_formula_by_cases(f.left, seen)} {smt_formula_by_cases(f.right, seen)})"
    return f"(=> {smt_formula_by_cases(f.antecedent, seen)} {smt_formula_by_cases(f.consequent, seen)})"


# on linearized matrices:  not e = 0  is  e < 0 or -e < 0,  not e <= 0  is
# -e < 0,  and  not e < 0  is  -e <= 0

def negated_copy(f: rcof.Formula) -> rcof.Formula:
    """The negation of a linearized matrix pushed one level down, the copy
    ``rcof._dnf_clauses`` now reads by polarity instead."""
    if isinstance(f, rcof.LinearAtom):
        flipped = tuple((k, -v) for k, v in f.coeffs)
        if f.rel == rcof.REL_EQ:
            return rcof.Or(
                rcof.LinearAtom(f.coeffs, f.const, rcof.REL_LT),
                rcof.LinearAtom(flipped, -f.const, rcof.REL_LT),
            )
        return rcof.LinearAtom(flipped, -f.const, rcof.REL_LT if f.rel == rcof.REL_LE else rcof.REL_LE)
    if isinstance(f, rcof.Not):
        return f.operand
    if isinstance(f, rcof.And):
        return rcof.Or(negated_copy(f.left), negated_copy(f.right))
    if isinstance(f, rcof.Or):
        return rcof.And(negated_copy(f.left), negated_copy(f.right))
    return rcof.And(f.antecedent, negated_copy(f.consequent))


def dnf_clauses_by_copy(f: rcof.Formula, cap: int) -> list:
    """Reference for ``rcof._dnf_clauses``: a negation is handed on as a
    ``negated_copy`` of its operand, an implication as ``!a | b``."""
    if isinstance(f, rcof.LinearAtom):
        if not f.coeffs:
            return [[]] if f.holds_on_constants() else []
        return [[f]]
    if isinstance(f, rcof.Not):
        return dnf_clauses_by_copy(negated_copy(f.operand), cap)
    if isinstance(f, rcof.Implies):
        return dnf_clauses_by_copy(rcof.Or(negated_copy(f.antecedent), f.consequent), cap)
    if isinstance(f, rcof.Or):
        left = dnf_clauses_by_copy(f.left, cap)
        right = dnf_clauses_by_copy(f.right, cap)
        if len(left) + len(right) > cap:
            raise rcof.ClauseCapError(f"more than {cap} clauses in the negated matrix")
        return left + right
    left = dnf_clauses_by_copy(f.left, cap)
    right = dnf_clauses_by_copy(f.right, cap)
    if len(left) * len(right) > cap:
        raise rcof.ClauseCapError(f"more than {cap} clauses in the negated matrix")
    return [lc + rc for lc in left for rc in right]


# -- the Fraction tableau the integer rows replaced ------------------------------

def simplex_by_fractions(atoms: tuple):
    """Reference for ``rcof._simplex``: the same general simplex with each
    row a dict of ``Fraction`` coefficients, x_i = sum(c * x_k)."""
    ZERO_F, ONE_F = rcof.ZERO_F, rcof.ONE_F
    column: dict = {}  # var id, or a slack's coefficient tuple -> column
    lower: list = []
    upper: list = []
    rows: dict = {}  # basic column -> {nonbasic column: coefficient}

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
                rows[column_of(lhs)] = {column_of(k): v for k, v in lhs}
            col = column[lhs]
        # c*col + const REL 0
        bound = -a.const / c
        if a.rel == rcof.REL_EQ or c > 0:
            new = (bound, -ONE_F if a.rel == rcof.REL_LT else ZERO_F)
            if upper[col] is None or new < upper[col]:
                upper[col] = new
        if a.rel == rcof.REL_EQ or c < 0:
            new = (bound, ONE_F if a.rel == rcof.REL_LT else ZERO_F)
            if lower[col] is None or new > lower[col]:
                lower[col] = new
    if any(lo is not None and hi is not None and lo > hi for lo, hi in zip(lower, upper)):
        return None

    value = [lo or hi or (ZERO_F, ZERO_F) for lo, hi in zip(lower, upper)]
    for i, row in rows.items():
        value[i] = tuple(sum(c * value[j][t] for j, c in row.items()) for t in (0, 1))
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
        row = rows[i]
        for j in sorted(row):
            if (row[j] > 0) == rising:
                if upper[j] is None or value[j] < upper[j]:
                    break
            elif lower[j] is None or value[j] > lower[j]:
                break
        else:
            return None
        pivot_by_fractions(rows, value, i, j, target)

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
    for a in atoms:
        total = sum((v * values.get(k, ZERO_F) for k, v in a.coeffs), start=a.const)
        ok = total == 0 if a.rel == rcof.REL_EQ else total <= 0 if a.rel == rcof.REL_LE else total < 0
        if not ok:
            raise AssertionError("simplex point violates an input constraint")
    return values


def pivot_by_fractions(rows: dict, value: list, i: int, j: int, target: tuple) -> None:
    """The pivot of ``simplex_by_fractions``: basic column i moves to
    ``target`` through nonbasic column j, then j becomes basic."""
    row = rows.pop(i)
    a = Fraction(row.pop(j))  # rows start as ints; no int / int below
    step = ((target[0] - value[i][0]) / a, (target[1] - value[i][1]) / a)
    value[i] = target
    value[j] = (value[j][0] + step[0], value[j][1] + step[1])
    solved = {k: -c / a for k, c in row.items()}  # j = (i - sum rest) / a
    solved[i] = 1 / a
    for k, other in rows.items():
        c = other.pop(j, None)
        if c is None:
            continue
        value[k] = (value[k][0] + c * step[0], value[k][1] + c * step[1])
        for m, d in solved.items():
            total = other.get(m, rcof.ZERO_F) + c * d
            if total:
                other[m] = total
            else:
                other.pop(m, None)
    rows[j] = solved
