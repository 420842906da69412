"""Stochastic valuations with a finite carrier and an exact rational joint
distribution.

A valuation over the full atom alphabet is represented by its joint
distribution on a finite carrier; atoms outside the carrier behave as
independent fair coins, so any finite marginal picks up a factor
1/2^(number of atoms outside the carrier).  All arithmetic is exact:
probabilities are `fractions.Fraction` values and every identity is
checked with equality, never with a tolerance.

Distributions are keyed by subset bitmask (bit k = k-th smallest carrier
atom), which doubles as the canonical JSON serialization order, and are
stored as integer weights over one denominator; a ``Fraction`` is made
only where a probability is read out.
"""

from __future__ import annotations

import bisect
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Mapping

from . import prop
from .prop import Scope, Valuation

ZERO = Fraction(0)
ONE = Fraction(1)


class DistributionError(ValueError):
    """Masses out of range, or masses that do not sum to one."""


class NotAProbabilityAssignment(ValueError):
    """A formula-probability oracle violated the basic distribution laws."""


@dataclass(frozen=True, init=False)
class FinDist:
    """Exact distribution over the subsets of a finite scope: bitmask m has
    mass ``weights.get(m, 0) / D``, in lowest terms (masks ascending, zeros
    dropped, gcd(D, weights) = 1), so equal distributions are equal and hash
    equal.  ``FinDist(scope, mass)`` checks (bitmask, ``Fraction``) pairs."""

    scope: Scope
    D: int
    weights: dict

    def __init__(self, scope: Scope, mass: tuple):
        seen = -1
        for m, p in mass:
            if not isinstance(p, Fraction):
                raise DistributionError(f"mass for {m} is not an exact rational: {p!r}")
            if not (0 <= m < (1 << len(scope))):
                raise DistributionError(f"bitmask {m} out of range for scope {sorted(scope)}")
            if m <= seen:
                raise DistributionError("masks must be strictly ascending")
            if not (0 <= p.numerator <= p.denominator):
                raise DistributionError(f"mass {p} for {m} outside [0,1]")
            if p.numerator == 0:
                raise DistributionError("zero masses must be dropped")
            seen = m
        D, weights = _over_lcm([p for _, p in mass])  # gcd 1, as the fractions are reduced
        total = sum(weights)
        if total != D:
            raise DistributionError(f"masses sum to {Fraction(total, D)}, not 1")
        self._fill(scope, D, dict(zip((m for m, _ in mass), weights)))

    def _fill(self, scope: Scope, D: int, weights: dict) -> None:
        # frozen: the fields are written past the dataclass's __setattr__
        vars(self).update(scope=scope, D=D, weights=weights, _hash=hash((scope, D, tuple(weights.items()))))

    def __hash__(self):
        return self._hash

    @classmethod
    def _lowest(cls, scope: Scope, D: int, weights: Mapping[int, int]) -> "FinDist":
        """Unchecked: mass ``weights[m] / D`` on mask m, for nonnegative
        integer weights that sum to D; reduced, masks sorted, zeros dropped."""
        g = math.gcd(D, *weights.values())
        d = object.__new__(cls)
        d._fill(scope, D // g, {m: w // g for m, w in sorted(weights.items()) if w})
        return d

    @staticmethod
    def from_masks(scope: Scope, masses: Mapping[int, Fraction]) -> "FinDist":
        items = ((m, p if isinstance(p, Fraction) else Fraction(p)) for m, p in masses.items())
        return FinDist(frozenset(scope), tuple(sorted(item for item in items if item[1])))

    @staticmethod
    def uniform(scope: Scope) -> "FinDist":
        scope = frozenset(scope)
        n = 1 << len(scope)
        return FinDist._lowest(scope, n, dict.fromkeys(range(n), 1))

    @staticmethod
    def point(scope: Scope, U: frozenset) -> "FinDist":
        scope = frozenset(scope)
        return FinDist._lowest(scope, 1, {prop.mask_of(scope, U): 1})

    @property
    def mass(self) -> tuple:
        """(bitmask, probability) pairs in ascending mask order, zeros dropped."""
        return tuple((m, Fraction(w, self.D)) for m, w in self.weights.items())

    def mass_of_mask(self, m: int) -> Fraction:
        return Fraction(self.weights.get(m, 0), self.D)

    def mass_of_table(self, models: int) -> Fraction:
        """The mass on the set bits of the truth table ``models``: a sum of
        integer weights, one ``Fraction`` at the end."""
        weights = self.weights
        if models.bit_count() < len(weights):
            total = sum(weights.get(m, 0) for m in _set_bits(models))
        else:
            total = sum(w for m, w in weights.items() if models >> m & 1)
        return Fraction(total, self.D)

    def mass_of(self, U: frozenset) -> Fraction:
        return self.mass_of_mask(prop.mask_of(self.scope, U))


@dataclass(frozen=True)
class StochasticValuation:
    """Joint distribution over a finite carrier, fair-coin independent outside it."""

    carrier: Scope
    joint: FinDist

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.carrier, self.joint)))
        if self.joint.scope != self.carrier:
            raise DistributionError("joint distribution scope must equal the carrier")
        if not self.carrier:
            raise DistributionError("carrier must be non-empty")

    def __hash__(self):
        return self._hash


def marginal(V: StochasticValuation, A: Scope, cap: int = prop.DEFAULT_SCOPE_CAP) -> FinDist:
    """The distribution V induces on the subsets of A.

    Inside the carrier this is the plain marginal sum; each atom of A
    outside the carrier contributes an independent factor 1/2.  Raises
    ``prop.ScopeCapError`` when A has more than ``cap`` atoms.
    """
    A = frozenset(A)
    if not A:
        raise prop.ScopeError("marginal over the empty scope")
    prop._check_enumerable(A, cap)
    return _marginal_cached(V, A)


@lru_cache(maxsize=prop.CACHE_SIZE)
def _marginal_cached(V: StochasticValuation, A: Scope) -> FinDist:
    return FinDist._lowest(A, *_project(V.joint, A))


def _project(d: FinDist, A: Scope) -> tuple:
    """The masses of ``d`` moved onto the subsets of A: ``(D, {A-bitmask:
    weight})``, integer weights over D, not reduced.

    Each atom of A in d's scope copies its bit from d's mask; each atom of
    A outside it is a fair coin, so every mass is split evenly over both
    of its values.  Atoms of d's scope outside A are summed out.
    """
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
    for m, w in d.weights.items():
        key = 0
        for j, k in copied:
            key |= (m >> j & 1) << k
        acc[key] = acc.get(key, 0) + w
    return d.D * len(coins), {key | c: w for key, w in acc.items() for c in coins}


def prob(V: StochasticValuation, alpha: prop.PropFormula, cap: int = prop.DEFAULT_SCOPE_CAP) -> Fraction:
    """Probability of ``alpha`` under V: the mass of its models over its own atoms.

    Raises ``prop.ScopeCapError`` when ``alpha`` has more than ``cap`` atoms.
    """
    return psv(V, cap)(alpha)


def _over_lcm(values: list) -> tuple:
    """``(D, [p * D for p in values])``, D the lcm of the denominators."""
    D = math.lcm(*(p.denominator for p in values))
    return D, [p.numerator * (D // p.denominator) for p in values]


def _set_bits(bits: int):
    """The indices of the set bits of ``bits``, ascending."""
    text = format(bits, "b")[::-1]
    m = text.find("1")
    while m >= 0:
        yield m
        m = text.find("1", m + 1)


# A probability assignment is any callable PropFormula -> Fraction; the two
# realizations below wrap a stochastic valuation and a finite table.

ProbAssignment = Callable[[prop.PropFormula], Fraction]


class ValuationAssignment:
    """The assignment alpha -> prob(V, alpha), read off its truth table by
    ``of_table``.  Raises ``prop.ScopeCapError`` above ``cap`` atoms."""

    def __init__(self, V: StochasticValuation, cap: int = prop.DEFAULT_SCOPE_CAP):
        self.valuation = V
        self.cap = cap

    def __call__(self, alpha: prop.PropFormula) -> Fraction:
        B, (models,) = prop.tables([alpha], self.cap)
        return self.of_table(B, models)

    def of_table(self, A: Scope, models: int) -> Fraction:
        """The mass of ``marginal(V, A)`` on the set bits of the truth table ``models``."""
        return marginal(self.valuation, A, self.cap).mass_of_table(models)


class TableAssignment:
    """A finite table of formula probabilities; raises on unlisted formulas."""

    def __init__(self, table: Mapping[prop.PropFormula, Fraction]):
        self.table = {f: Fraction(p) for f, p in table.items()}

    def __call__(self, alpha: prop.PropFormula) -> Fraction:
        try:
            return self.table[alpha]
        except KeyError:
            raise NotAProbabilityAssignment(
                f"no table entry for {prop.to_text(alpha)}"
            ) from None


def psv(V: StochasticValuation, cap: int = prop.DEFAULT_SCOPE_CAP) -> ValuationAssignment:
    """The probability assignment induced by a stochastic valuation, for
    formulas of at most ``cap`` atoms."""
    return ValuationAssignment(V, cap)


def svp(P: ProbAssignment, carrier: Scope) -> StochasticValuation:
    """The unique valuation whose point-formula probabilities match ``P``.

    The joint mass of each subset U of the carrier is read off as the
    probability P gives to the conjunction of literals identifying U.  For
    ``psv(V, cap)`` that is by definition the mass of ``marginal(V, carrier,
    cap)`` at U, so that marginal is the joint, valid as every ``FinDist``.
    """
    carrier = frozenset(carrier)
    if not carrier:
        raise prop.ScopeError("carrier must be non-empty")
    if isinstance(P, ValuationAssignment):
        return StochasticValuation(carrier, marginal(P.valuation, carrier, P.cap))
    masses = {}
    for m, U in enumerate(prop.subsets_ascending(carrier)):
        masses[m] = p = P(prop.phi(carrier, U))
        if not (ZERO <= p <= ONE):
            raise NotAProbabilityAssignment(f"P({prop.phi_text(carrier, m)}) = {p} outside [0,1]")
    if (total := sum(masses.values(), ZERO)) != ONE:
        raise NotAProbabilityAssignment(f"point-formula probabilities sum to {total}, not 1")
    return StochasticValuation(carrier, FinDist.from_masks(carrier, masses))


def from_cells(scope: Scope, points, values: Mapping[int, Fraction]) -> StochasticValuation:
    """The valuation over ``scope`` with the mass ``values[c]`` of cell c
    (0 when absent) on the subset whose bitmask is ``points[c]``."""
    joint = FinDist.from_masks(scope, {m: values.get(c, ZERO) for c, m in enumerate(points)})
    return StochasticValuation(joint.scope, joint)


def induced_from_valuation(v: Valuation, carrier: Scope) -> StochasticValuation:
    """The point-mass valuation concentrated on ``v`` restricted to the carrier."""
    carrier = frozenset(carrier)
    if not carrier <= v.scope:
        raise prop.ScopeError("valuation does not cover the carrier")
    return StochasticValuation(carrier, FinDist.point(carrier, v.true_atoms & carrier))


# -- law checking -------------------------------------------------------------

@dataclass(frozen=True)
class AdamsViolation:
    principle: str  # "P1" | "P2" | "P3" | "P4"
    formulas: tuple
    detail: str


@dataclass
class AdamsReport:
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


def check_adams(P: ProbAssignment, pool: Iterable[prop.PropFormula]) -> AdamsReport:
    """Check the probability-assignment laws on a finite formula pool.

    P1: every value lies in [0,1].  P2: tautologies get probability 1.
    P3: classical entailment between pool formulas is monotone under P.
    P4: contradictory pairs are additive over disjunction.

    The pairs come from ``_containing_and_disjoint``; P3 keeps those of
    smaller value through a prefix of the pool in value order.  For P4 a
    ``ValuationAssignment`` whose cap admits the pool's scope is asked
    ``of_table`` once per distinct union of the pair's truth tables, any
    other P ``P(prop.disj(fi, fj))`` for every pair.  P3 and P4 compare
    integers over D, the lcm of the (rational) values' denominators.
    Raises ``prop.ScopeCapError`` above ``prop.DEFAULT_SCOPE_CAP`` atoms.
    """
    pool = list(dict.fromkeys(pool))
    scope, masks = prop.tables(pool)
    full = (1 << (1 << len(scope))) - 1
    values = [P(f) for f in pool]
    D, ns = _over_lcm(values)
    violations = []
    for f, p, n in zip(pool, values, ns):
        if not (0 <= n <= D):
            violations.append(AdamsViolation("P1", (f,), f"P = {p} outside [0,1]"))
    for f, m, p in zip(pool, masks, values):
        if m == full and p != ONE:
            violations.append(AdamsViolation("P2", (f,), f"tautology has P = {p}"))
    containing, disjoint = _containing_and_disjoint(masks, 1 << len(scope))
    order = sorted(range(len(pool)), key=ns.__getitem__)
    ascending = [ns[i] for i in order]
    below = [0]  # below[k]: the indices of the k smallest values
    for i in order:
        below.append(below[-1] | 1 << i)
    for i, (fi, sup, ni) in enumerate(zip(pool, containing, ns)):
        # strictly smaller values only, so i itself never appears
        for j in _set_bits(sup & below[bisect.bisect_left(ascending, ni)]):
            violations.append(AdamsViolation("P3", (fi, pool[j]), f"entails yet {values[i]} > {values[j]}"))
    unions = {} if isinstance(P, ValuationAssignment) and len(scope) <= P.cap else None
    for i, (fi, mi, ni, apart) in enumerate(zip(pool, masks, ns, disjoint)):
        for j in _set_bits(apart):
            if unions is None:
                both = P(prop.disj(fi, pool[j]))
            elif (both := unions.get(mi | masks[j])) is None:
                both = unions[mi | masks[j]] = P.of_table(scope, mi | masks[j])
            if both.numerator * D != (ni + ns[j]) * both.denominator:
                violations.append(
                    AdamsViolation("P4", (fi, pool[j]), f"P(or) = {both} but P sum = {values[i] + values[j]}")
                )
    return AdamsReport(violations)


def _containing_and_disjoint(masks: list, width: int) -> tuple:
    """For each truth table mi in ``masks``, over ``width`` rows: the bitset
    of the indices j whose tables contain mi, and that of those whose
    tables are disjoint from it.

    A dense list (more than twice as many tables as rows) is transposed
    into one bitset of indices per row: the tables containing mi are the
    AND of the rows of mi's set bits, those disjoint from it the complement
    of their OR.  That walks about 3 * len(masks) * width / 2 set bits in
    Python, against the 2 * len(masks)**2 big-int tests of the pair loop
    used otherwise; the measured crossover lies between one and three
    times ``width`` tables.
    """
    if len(masks) <= 2 * width:
        return ([sum(1 << j for j, mj in enumerate(masks) if not mi & ~mj) for mi in masks],
                [sum(1 << j for j, mj in enumerate(masks) if not mi & mj) for mi in masks])
    rows = [0] * width  # row r: the indices whose table holds r
    for i, m in enumerate(masks):
        for r in _set_bits(m):
            rows[r] |= 1 << i
    everyone = (1 << len(masks)) - 1
    containing, disjoint = [], []
    for m in masks:
        sup, hit = everyone, 0
        for r in _set_bits(m):
            sup &= rows[r]
            hit |= rows[r]
        containing.append(sup)
        disjoint.append(everyone & ~hit)
    return containing, disjoint


@dataclass(frozen=True)
class ConsistencyViolation:
    outer: Scope
    inner: Scope
    subset: frozenset
    expected: Fraction
    actual: Fraction


@dataclass
class ConsistencyReport:
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


def check_consistency(family: Iterable[FinDist]) -> ConsistencyReport:
    """Verify the marginal condition on every nested pair of the family,
    comparing integer weights across their denominators; masks where
    neither side has mass agree."""
    dists = list(family)
    violations = []
    for big in dists:
        for small in dists:
            if small is big or not small.scope <= big.scope:
                continue
            D, totals = _project(big, small.scope)
            for m in sorted(totals.keys() | small.weights.keys()):
                total, actual = totals.get(m, 0), small.weights.get(m, 0)
                if total * small.D != actual * D:
                    U = prop.subset_of_mask(small.scope, m)
                    violations.append(ConsistencyViolation(
                        big.scope, small.scope, U, Fraction(total, D), Fraction(actual, small.D)))
    return ConsistencyReport(violations)


# -- canonical JSON form -------------------------------------------------------

def dist_to_dict(d: FinDist) -> dict:
    """Canonical form: sorted carrier, ascending decimal masks, reduced
    fraction strings, zero masses omitted."""
    return {"carrier": sorted(d.scope), "mass": {str(m): str(p) for m, p in d.mass}}


def dist_to_json(d: FinDist) -> str:
    """``dist_to_dict`` serialized with no whitespace."""
    return json.dumps(dist_to_dict(d), separators=(",", ":"))


def dist_from_json(text: str) -> FinDist:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise DistributionError(f"malformed JSON: {e}") from None
    if not isinstance(raw, dict) or set(raw) != {"carrier", "mass"}:
        raise DistributionError("expected an object with 'carrier' and 'mass'")
    carrier = raw["carrier"]
    if not isinstance(carrier, list) or not all(type(a) is int and a >= 0 for a in carrier):
        raise DistributionError("'carrier' must be a list of atom indices")
    if len(set(carrier)) != len(carrier):
        raise DistributionError("'carrier' has duplicate atoms")
    if not isinstance(raw["mass"], dict):
        raise DistributionError("'mass' must be an object")
    masses = {}
    for key, val in raw["mass"].items():
        if type(val) is not str:
            raise DistributionError(f"bad mass entry {key!r}: {json.dumps(val)} is not a string")
        if not re.fullmatch("[0-9]+", key):
            raise DistributionError(f"bad mass entry {key!r}: a key is a mask in the digits 0-9")
        if not re.fullmatch("[0-9]+(/[0-9]+)?", val):
            raise DistributionError(f"bad mass entry {key!r}: {val!r} is not n or n/m in the digits 0-9")
        m = int(key)
        if m in masses:
            raise DistributionError(f"bad mass entry {key!r}: mask {m} already has a mass")
        try:
            masses[m] = Fraction(val)
        except (ValueError, ZeroDivisionError) as e:
            raise DistributionError(f"bad mass entry {key!r}: {e}") from None
    return FinDist.from_masks(frozenset(carrier), masses)


def valuation_from_json(text: str) -> StochasticValuation:
    d = dist_from_json(text)
    return StochasticValuation(d.scope, d)
