"""Endomorphisms of the covector space and their two induced actions on forms.

rho is the derivation (Lie-algebra) action, pullback the multiplicative
(group) extension; the two are linked through the exponential, which these
tests check exactly on nilpotent inputs.
"""

import random

import pytest
from hypothesis import given, strategies as st

from spin7lab.exterior.endo import Endo, commutator, exp_nilpotent, pullback, rho
from spin7lab.exterior.forms import Covector, KForm, Vector, wedge
from spin7lab.exterior.scalars import ZERO, FieldScalar, Q

from _oracles import is_skew, trace
from _strategies import forms, small_ints

endos = st.lists(st.lists(small_ints, min_size=8, max_size=8),
                 min_size=8, max_size=8).map(Endo)
sparse_endos = st.lists(
    st.tuples(st.integers(1, 8), st.integers(1, 8), small_ints),
    min_size=1, max_size=4,
).map(lambda entries: sum((c * Endo.unit(i, j) for i, j, c in entries),
                          Endo.zero()))




def _with_zero_lines(rows, zero_rows, zero_cols):
    return Endo([[0 if i in zero_rows or j in zero_cols else x
                  for j, x in enumerate(row)] for i, row in enumerate(rows)])


# rational and surd matrices with zero rows and columns, and rank-one maps
_entries = st.one_of(st.just(0), small_ints,
                     st.builds(FieldScalar, small_ints, small_ints))
_lines = st.sets(st.integers(0, 7), max_size=7)
mixed_endos = st.one_of(
    st.builds(_with_zero_lines,
              st.lists(st.lists(_entries, min_size=8, max_size=8),
                       min_size=8, max_size=8), _lines, _lines),
    st.builds(lambda v, alpha: Endo.tensor(Vector(v), Covector(alpha)),
              st.lists(_entries, min_size=8, max_size=8),
              st.lists(_entries, min_size=8, max_size=8)))


def seeded(name: str) -> random.Random:
    return random.Random(f"test-endo:{name}")


# -- basic matrix algebra -----------------------------------------------------

@given(endos, endos)
def test_matmul_matches_composition_on_covectors(a, b):
    alpha = Covector(range(1, 9))
    assert (a @ b).apply(alpha) == a.apply(b.apply(alpha))


@given(mixed_endos, mixed_endos)
def test_matmul_matches_the_dense_sum(a, b):
    cols = list(zip(*b.rows))
    dense = Endo([[sum((x * y for x, y in zip(row, col)), ZERO)
                   for col in cols] for row in a.rows])
    assert (a @ b).rows == dense.rows


def test_constructors():
    assert Endo.unit(2, 5).apply(Covector.basis(5)) == Covector.basis(2)
    assert not Endo.unit(2, 5).apply(Covector.basis(4))
    d = Endo.diagonal(1, 2, 3, 4, 5, 6, 7, 8)
    assert d.apply(Covector.basis(3)) == 3 * Covector.basis(3)
    assert trace(d) == FieldScalar(36)
    with pytest.raises(ValueError):
        Endo.diagonal(1, 2, 3)
    with pytest.raises(ValueError):
        Endo([[1, 2], [3, 4]])


def test_tensor_is_rank_one():
    v = Vector([1, 2, 0, 0, 1, 0, 0, 0])
    alpha = Covector([0, 0, 3, 4, 0, 0, 0, 0])
    t = Endo.tensor(v, alpha)
    assert t.rank() == 1
    # as a map on covectors: eps -> eps(v) * alpha
    eps = Covector([1, 1, 1, 1, 1, 1, 1, 1])
    evaluated = sum((c for c in v.components), ZERO)
    assert t.apply(eps) == evaluated * alpha


def test_predicates():
    n = Endo.unit(1, 2)
    assert n.is_nilpotent() and not Endo.identity().is_nilpotent()
    skew = Endo.unit(1, 2) - Endo.unit(2, 1)
    assert is_skew(skew) and not is_skew(Endo.unit(1, 2))
    assert Endo.identity().is_rational()
    assert not (FieldScalar(0, 1) * Endo.identity()).is_rational()


@given(endos)
def test_record_round_trip(a):
    assert Endo.from_record(a.to_record()) == a


# -- rho: the derivation action ------------------------------------------------

@given(sparse_endos, forms(2), forms(2))
def test_rho_is_linear(a, x, y):
    assert rho(a, x + y) == rho(a, x) + rho(a, y)


@given(sparse_endos, forms(2), forms(2))
def test_rho_is_a_derivation_over_wedge(a, x, y):
    assert rho(a, wedge(x, y)) == wedge(rho(a, x), y) + wedge(x, rho(a, y))


@given(sparse_endos, sparse_endos, forms(3))
def test_rho_is_a_lie_algebra_action(a, b, x):
    lhs = rho(commutator(a, b), x)
    rhs = rho(a, rho(b, x)) - rho(b, rho(a, x))
    assert lhs == rhs


def test_rho_on_one_forms_is_matrix_action():
    a = Endo.unit(3, 1) + 2 * Endo.unit(5, 1)
    assert rho(a, KForm.blade(1)) == \
        KForm.blade(3) + KForm.blade(5, coeff=2)


# -- pullback: the multiplicative action ----------------------------------------

@given(sparse_endos, sparse_endos, forms(3))
def test_pullback_is_functorial(a, b, x):
    assert pullback(a @ b, x) == pullback(a, pullback(b, x))


@given(forms(4))
def test_pullback_of_identity(x):
    assert pullback(Endo.identity(), x) == x


@given(sparse_endos, forms(2), forms(2))
def test_pullback_is_multiplicative_over_wedge(a, x, y):
    assert pullback(a, wedge(x, y)) == wedge(pullback(a, x), pullback(a, y))


def test_pullback_of_rank_one_shift_is_identity_plus_rho():
    # Λ(1 + A) = 1 + ρ(A) exactly when A has rank one: two slots through A
    # wedge the same covector line, which dies
    rng = seeded("rank-one")
    from spin7lab.sampling import random_form, random_rank_one_nilpotent
    for _ in range(10):
        a = random_rank_one_nilpotent(rng)
        x = random_form(rng, 4)
        assert pullback(Endo.identity() + a, x) == x + rho(a, x)


def test_pullback_scaling_weights_by_degree():
    two = 2 * Endo.identity()
    x = KForm.blade(1, 2, 3)
    assert pullback(two, x) == 8 * x


# -- exponential ---------------------------------------------------------------

def test_exp_nilpotent_is_a_group_homomorphism():
    rng = seeded("exp")
    from spin7lab.sampling import random_nilpotent
    for _ in range(6):
        a = random_nilpotent(rng)
        assert exp_nilpotent(a) @ exp_nilpotent(-a) == Endo.identity()


def test_exp_nilpotent_rejects_non_nilpotent():
    with pytest.raises(ValueError):
        exp_nilpotent(Endo.identity())


def test_pullback_of_exp_equals_exp_of_rho():
    rng = seeded("exp-rho")
    from spin7lab.sampling import random_form, random_nilpotent
    for _ in range(4):
        a = random_nilpotent(rng)
        x = random_form(rng, 3, nterms=4)
        lhs = pullback(exp_nilpotent(a), x)
        # exp(ρ(A)) as a finite series: ρ(A) is nilpotent on forms
        rhs = KForm.zero(3)
        term = x
        k = 0
        while term:
            rhs = rhs + term
            k += 1
            term = FieldScalar(Q(1, k)) * rho(a, term)
            assert k <= 32, "rho of a nilpotent matrix must be nilpotent"
        assert lhs == rhs
