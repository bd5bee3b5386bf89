"""Hypothesis strategies shared across the suite.

All draws stay small (single-digit integers, denominators <= 6) so that
exact arithmetic keeps the tests fast; the interesting structure lives in
the algebra, not in the size of the numbers.
"""

from functools import reduce
from operator import add

from hypothesis import strategies as st

from spin7lab.exterior.blades import BLADES
from spin7lab.exterior.endo import Endo
from spin7lab.exterior.forms import KForm
from spin7lab.exterior.scalars import FieldScalar, Q
from spin7lab.invariant.chamber import ChamberScalar

small_ints = st.integers(min_value=-9, max_value=9)

_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def _to_q(fr):
    return Q(fr.numerator, fr.denominator)


field_scalars = st.builds(
    lambda a, b, c, d: FieldScalar(_to_q(a), _to_q(b), _to_q(c), _to_q(d)),
    _fractions, _fractions, _fractions, _fractions)

nonzero_field_scalars = field_scalars.filter(bool)

# the rational field scalars: a alone
rational_field_scalars = st.builds(lambda a: FieldScalar(_to_q(a)), _fractions)

# (q·d + r)/d with 0 < r < d: never an integer
rationals = st.integers(2, 6).flatmap(lambda d: st.builds(
    lambda q, r: FieldScalar(Q(q * d + r, d)),
    st.integers(-5, 4), st.integers(1, d - 1)))
# a + b√2 with b != 0: coefficients that the engine refuses
surds = st.builds(FieldScalar, small_ints, small_ints.filter(bool))

# integers and non-integer rationals: the coefficient families that Endo
# products and the pullback run on
coefficient_families = (small_ints, rationals)

# random entries of each coefficient family, drawn from a seeded generator
# (``st.randoms``), because Hypothesis's own draws favour zero and constant
# (rank <= 1) maps, which kill every form of degree >= 2
seeded_entry = {"int": lambda rng: rng.randint(-9, 9),
                "rational": lambda rng: Q(rng.randint(-30, 30),
                                          rng.randint(2, 6))}
entry_families = st.sampled_from(sorted(seeded_entry))

vectors = st.lists(small_ints, min_size=8, max_size=8).map(KForm.vector)

nonzero_vectors = vectors.filter(bool)


def forms(degree: int, max_terms: int = 5, coeffs=small_ints,
          min_terms: int = 0):
    """Sparse degree-k forms with small coefficients (integers by default)."""
    masks = BLADES[degree]
    return st.lists(
        st.tuples(st.sampled_from(masks), coeffs),
        min_size=min_terms, max_size=max_terms,
    ).map(lambda pairs: KForm(degree, {m: FieldScalar.of(c)
                                       for m, c in pairs}))


def mixed_forms(degree: int, max_terms: int = 5):
    """Forms of one to max_terms terms with integer or non-integer rational
    coefficients."""
    return st.sampled_from(coefficient_families).flatmap(
        lambda coeffs: forms(degree, max_terms, coeffs, min_terms=1))


def _with_zero_lines(rows, zero_rows, zero_cols):
    return Endo([[0 if i in zero_rows or j in zero_cols else x
                  for j, x in enumerate(row)] for i, row in enumerate(rows)])


def _squares(entries):
    """8x8 matrices of these entries, with up to three rows and columns
    zeroed."""
    eight = st.lists(entries, min_size=8, max_size=8)
    lines = st.sets(st.integers(0, 7), max_size=3)
    return st.builds(_with_zero_lines, st.lists(eight, min_size=8, max_size=8),
                     lines, lines)


def _rank_one(entries):
    eight = st.lists(entries, min_size=8, max_size=8)
    return st.builds(lambda v, alpha: Endo.tensor(KForm.vector(v),
                                                  KForm.vector(alpha)),
                     eight, eight)


# integer and non-integer rational matrices, with rank-one maps
mixed_endos = st.one_of(*(st.one_of(_squares(c), _rank_one(c))
                          for c in coefficient_families))

# a few elementary matrices with integer or rational coefficients
sparse_endos = st.sampled_from(coefficient_families).flatmap(
    lambda coeffs: st.lists(
        st.tuples(st.integers(1, 8), st.integers(1, 8), coeffs),
        min_size=1, max_size=4,
    ).map(lambda entries: reduce(add, (FieldScalar.of(c) * Endo.unit(i, j)
                                       for i, j, c in entries))))

# the identity plus such a map: rarely singular, so that pullbacks of forms
# of higher degree rarely vanish
identity_plus_sparse = sparse_endos.map(lambda a: Endo.identity() + a)


def _rational_laurent(terms, cancel):
    """The scalar of (s_exp, w_exp, coeff) terms; with ``cancel``, the first
    term comes back negated as c(1 + s²)w^(e−5), which cancels it only
    through the relation w⁵ = 1 + s²."""
    if cancel and terms:
        a, e, c = terms[0]
        terms = terms + [(a, e - 5, -c), (a + 2, e - 5, -c)]
    return sum((ChamberScalar.monomial(c, a, e) for a, e, c in terms),
               ChamberScalar())


def laurent_scalars(s_exps, w_exps, coeffs, min_size=0, max_size=3):
    """Sums of min_size to max_size chamber monomials c·s^a·w^e."""
    return st.lists(st.builds(ChamberScalar.monomial, coeffs, s_exps, w_exps),
                    min_size=min_size, max_size=max_size).map(
        lambda monomials: sum(monomials, ChamberScalar()))


# rational chamber scalars over denominators that include 5 and 7, with
# w-exponents on both sides of zero and of the w⁵ reduction
rational_laurent_scalars = st.builds(
    _rational_laurent,
    st.lists(st.tuples(st.integers(0, 4), st.integers(-7, 7),
                       st.builds(Q, st.integers(-12, 12),
                                 st.sampled_from((1, 2, 5, 7, 10, 21)))),
             max_size=4),
    st.booleans())
