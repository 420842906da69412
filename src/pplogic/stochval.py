"""Stochastic valuations with a finite carrier and an exact rational joint
distribution.

A valuation over the full atom alphabet is represented by its joint
distribution on a finite carrier; atoms outside the carrier behave as
independent fair coins, so any finite marginal picks up a factor
1/2^(number of atoms outside the carrier).  All arithmetic is exact:
probabilities are `fractions.Fraction` values and every identity is
checked with equality, never with a tolerance.

Distributions are keyed by subset bitmask (bit k = k-th smallest carrier
atom), which doubles as the canonical JSON serialization order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Mapping

from . import prop
from .prop import Scope, Valuation

ZERO = Fraction(0)
ONE = Fraction(1)


class DistributionError(ValueError):
    """Masses out of range, or masses that do not sum to one."""


class NotAProbabilityAssignment(ValueError):
    """A formula-probability oracle violated the basic distribution laws."""


@dataclass(frozen=True)
class FinDist:
    """Exact distribution over the subsets of a finite scope.

    ``mass`` holds (bitmask, probability) pairs in ascending mask order
    with zero entries dropped; absent masks carry mass 0.
    """

    scope: Scope
    mass: tuple

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.scope, self.mass)))
        total = ZERO
        seen = -1
        for m, p in self.mass:
            if not isinstance(p, Fraction):
                raise DistributionError(f"mass for {m} is not an exact rational: {p!r}")
            if not (0 <= m < (1 << len(self.scope))):
                raise DistributionError(f"bitmask {m} out of range for scope {sorted(self.scope)}")
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

    def __hash__(self):
        return self._hash

    @staticmethod
    def from_masks(scope: Scope, masses: Mapping[int, Fraction]) -> "FinDist":
        items = tuple(sorted((m, Fraction(p)) for m, p in masses.items() if Fraction(p) != 0))
        return FinDist(frozenset(scope), items)

    @staticmethod
    def from_subsets(scope: Scope, masses: Mapping[frozenset, Fraction]) -> "FinDist":
        scope = frozenset(scope)
        return FinDist.from_masks(scope, {prop.mask_of(scope, U): p for U, p in masses.items()})

    @staticmethod
    def uniform(scope: Scope) -> "FinDist":
        scope = frozenset(scope)
        n = 1 << len(scope)
        return FinDist.from_masks(scope, {m: Fraction(1, n) for m in range(n)})

    @staticmethod
    def point(scope: Scope, U: frozenset) -> "FinDist":
        scope = frozenset(scope)
        return FinDist.from_masks(scope, {prop.mask_of(scope, U): ONE})

    @cached_property
    def _by_mask(self) -> dict:
        return dict(self.mass)

    def mass_of_mask(self, m: int) -> Fraction:
        return self._by_mask.get(m, ZERO)

    def mass_of(self, U: frozenset) -> Fraction:
        return self.mass_of_mask(prop.mask_of(self.scope, U))

    def as_mask_dict(self) -> dict:
        return dict(self.mass)


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
    return FinDist.from_masks(A, _project(V.joint, A))


def _project(d: FinDist, A: Scope) -> dict:
    """The masses of ``d`` moved onto the subsets of A, keyed by A-bitmask.

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
    for m, p in d.mass:
        key = 0
        for j, k in copied:
            key |= (m >> j & 1) << k
        acc[key] = acc.get(key, ZERO) + p
    if len(coins) == 1:
        return acc
    share = Fraction(1, len(coins))
    out = {}
    for key, p in acc.items():
        p *= share
        for c in coins:
            out[key | c] = p
    return out


def prob(V: StochasticValuation, alpha: prop.PropFormula, cap: int = prop.DEFAULT_SCOPE_CAP) -> Fraction:
    """Probability of ``alpha`` under V: the mass of its models over its own atoms.

    Raises ``prop.ScopeCapError`` when ``alpha`` has more than ``cap`` atoms.
    """
    B = prop.atoms_of(alpha)
    marg = marginal(V, B, cap)
    model_bits = prop._models_mask(alpha, B)
    if model_bits.bit_count() < len(marg.mass):
        parts = (marg.mass_of_mask(m) for m in _set_bits(model_bits))
    else:
        parts = (p for m, p in marg.mass if model_bits >> m & 1)
    return sum(parts, ZERO)


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
    """The assignment alpha -> prob(V, alpha), memoized by (atoms, models),
    so formulas with the same atoms and the same models share one entry."""

    def __init__(self, V: StochasticValuation):
        self.valuation = V
        self._memo: dict = {}

    def __call__(self, alpha: prop.PropFormula) -> Fraction:
        B = prop.atoms_of(alpha)
        key = (B, prop._models_mask(alpha, B))
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = prob(self.valuation, alpha)
        return got


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


def psv(V: StochasticValuation) -> ValuationAssignment:
    """The probability assignment induced by a stochastic valuation."""
    return ValuationAssignment(V)


def svp(P: ProbAssignment, carrier: Scope) -> StochasticValuation:
    """The unique valuation whose point-formula probabilities match ``P``.

    The joint mass of each subset U of the carrier is read off as the
    probability P gives to the conjunction of literals identifying U.
    """
    carrier = frozenset(carrier)
    if not carrier:
        raise prop.ScopeError("carrier must be non-empty")
    masses = {}
    total = ZERO
    for m, U in enumerate(prop.subsets_ascending(carrier)):
        p = P(prop.phi(carrier, U))
        if not (ZERO <= p <= ONE):
            raise NotAProbabilityAssignment(
                f"P({prop.to_text(prop.phi(carrier, U))}) = {p} outside [0,1]"
            )
        total += p
        if p != 0:
            masses[m] = p
    if total != ONE:
        raise NotAProbabilityAssignment(f"point-formula probabilities sum to {total}, not 1")
    return StochasticValuation(carrier, FinDist.from_masks(carrier, masses))


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
    """
    pool = list(dict.fromkeys(pool))
    scope: Scope = frozenset()
    for f in pool:
        scope = scope | prop.atoms_of(f)
    full = (1 << (1 << len(scope))) - 1 if scope else 0
    masks = [prop._models_mask(f, scope) if scope else 0 for f in pool]
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
    return AdamsReport(violations)


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
    """Verify the marginal condition on every nested pair of the family."""
    dists = list(family)
    violations = []
    for big in dists:
        for small in dists:
            if small is big or not small.scope <= big.scope:
                continue
            totals = _project(big, small.scope)
            for m in range(1 << len(small.scope)):
                total = totals.get(m, ZERO)
                actual = small.mass_of_mask(m)
                if total != actual:
                    violations.append(
                        ConsistencyViolation(
                            big.scope, small.scope, prop.subset_of_mask(small.scope, m), total, actual
                        )
                    )
    return ConsistencyReport(violations)


# -- canonical JSON form -------------------------------------------------------

def dist_to_json(d: FinDist) -> str:
    """Canonical serialization: sorted carrier, ascending decimal masks,
    reduced fraction strings, zero masses omitted, no whitespace.
    """
    mass = {str(m): str(p) for m, p in d.mass}
    return json.dumps({"carrier": sorted(d.scope), "mass": mass}, separators=(",", ":"))


def dist_from_json(text: str) -> FinDist:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise DistributionError(f"malformed JSON: {e}") from None
    if not isinstance(raw, dict) or set(raw) != {"carrier", "mass"}:
        raise DistributionError("expected an object with 'carrier' and 'mass'")
    carrier = raw["carrier"]
    if not isinstance(carrier, list) or not all(isinstance(a, int) and a >= 0 for a in carrier):
        raise DistributionError("'carrier' must be a list of atom indices")
    if len(set(carrier)) != len(carrier):
        raise DistributionError("'carrier' has duplicate atoms")
    if not isinstance(raw["mass"], dict):
        raise DistributionError("'mass' must be an object")
    masses = {}
    for key, val in raw["mass"].items():
        try:
            m = int(key)
            p = Fraction(val)
        except (ValueError, ZeroDivisionError) as e:
            raise DistributionError(f"bad mass entry {key!r}: {e}") from None
        masses[m] = p
    try:
        return FinDist.from_masks(frozenset(carrier), masses)
    except DistributionError:
        raise


def valuation_to_json(V: StochasticValuation) -> str:
    return dist_to_json(V.joint)


def valuation_from_json(text: str) -> StochasticValuation:
    d = dist_from_json(text)
    return StochasticValuation(d.scope, d)
