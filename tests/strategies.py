"""Hypothesis strategies for formulas, terms and distributions."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import strategies as st

from pplogic import ppl, prop, rcof, stochval

atom_indices = st.integers(min_value=1, max_value=4)

atoms = atom_indices.map(prop.Atom)


def formulas(max_leaves: int = 8):
    return st.recursive(
        atoms,
        lambda sub: st.one_of(
            sub.map(prop.Not),
            st.tuples(sub, sub).map(lambda ab: prop.Implies(*ab)),
            st.tuples(sub, sub).map(lambda ab: prop.conj(*ab)),
            st.tuples(sub, sub).map(lambda ab: prop.disj(*ab)),
            st.tuples(sub, sub).map(lambda ab: prop.iff(*ab)),
        ),
        max_leaves=max_leaves,
    )


scopes = st.sets(atom_indices, min_size=1, max_size=3).map(frozenset)


@st.composite
def valuations(draw, scope_strategy=scopes):
    carrier = draw(scope_strategy)
    n = 1 << len(carrier)
    weights = draw(
        st.lists(st.integers(0, 8), min_size=n, max_size=n).filter(lambda w: any(w))
    )
    total = sum(weights)
    joint = stochval.FinDist.from_masks(
        carrier, {m: Fraction(w, total) for m, w in enumerate(weights) if w}
    )
    return stochval.StochasticValuation(carrier, joint)


nonneg_consts = st.tuples(st.integers(0, 6), st.integers(1, 6)).map(
    lambda nm: rcof.Const(Fraction(nm[0], nm[1]))
)


def terms(max_leaves: int = 6):
    # parse-shaped terms: constants are nonnegative, negation is explicit
    return st.recursive(
        st.one_of(nonneg_consts, st.integers(0, 3).map(rcof.Var)),
        lambda sub: st.one_of(
            sub.map(rcof.Neg),
            st.tuples(sub, sub).map(lambda ab: rcof.Add(*ab)),
            st.tuples(sub, sub).map(lambda ab: rcof.Mul(*ab)),
        ),
        max_leaves=max_leaves,
    )


@st.composite
def ppl_atoms(draw):
    alpha = draw(formulas(max_leaves=4))
    relation = draw(st.sampled_from(["=", "<"]))
    bound = draw(terms(max_leaves=4))
    return ppl.PplAtom(alpha, relation, bound)


def ppl_formulas(max_leaves: int = 6):
    # leaves include the <= / >= sugar and the constant atoms, whose stored
    # shapes overlap those of !, | and &
    leaves = st.one_of(
        ppl_atoms(),
        st.sampled_from([ppl.FALSUM, ppl.TRUTH]),
        st.builds(ppl.ple, formulas(max_leaves=4), terms(max_leaves=4)),
        st.builds(ppl.pge, formulas(max_leaves=4), terms(max_leaves=4)),
    )
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.tuples(sub, sub).map(lambda ab: ppl.PplImplies(*ab)),
            sub.map(ppl.pnot),
            st.tuples(sub, sub).map(lambda ab: ppl.pand(*ab)),
            st.tuples(sub, sub).map(lambda ab: ppl.por(*ab)),
            st.tuples(sub, sub).map(lambda ab: ppl.piff(*ab)),
        ),
        max_leaves=max_leaves,
    )
