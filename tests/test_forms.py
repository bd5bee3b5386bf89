"""Exterior algebra identities: wedge, contraction, Hodge star, inner product."""

import pytest
from hypothesis import given, strategies as st

from spin7lab.exterior.blades import BLADES, DIM, wedge_sign
from spin7lab.exterior.forms import (Covector, FormOperator, KForm, Vector,
                                     _pair_contracted, _sign_table,
                                     basis_blades, contract,
                                     contract_generator, hodge_star, inner,
                                     wedge)
from spin7lab.exterior.scalars import ONE, ZERO, FieldScalar, Q

from _strategies import forms, small_ints, vectors

VOL = KForm.blade(1, 2, 3, 4, 5, 6, 7, 8)


# -- wedge ------------------------------------------------------------------

@given(forms(3), forms(3))
def test_wedge_odd_degrees_anticommute(a, b):
    assert wedge(a, b) == -wedge(b, a)  # (-1)^(3*3) = -1


@given(forms(2), forms(3))
def test_wedge_graded_commutativity_2_3(a, b):
    assert wedge(a, b) == wedge(b, a)  # (-1)^(2*3) = +1


@given(forms(2), forms(2))
def test_wedge_even_degrees_commute(a, b):
    assert wedge(a, b) == wedge(b, a)


@given(forms(1), forms(1))
def test_wedge_one_forms_anticommute(a, b):
    assert wedge(a, b) == -wedge(b, a)
    assert not wedge(a, a)


@given(forms(1), forms(2), forms(2))
def test_wedge_associativity(a, b, c):
    assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


@given(forms(2), forms(2), forms(3))
def test_wedge_bilinearity(a, b, c):
    assert wedge(a + b, c) == wedge(a, c) + wedge(b, c)


def test_wedge_operator_syntax():
    a, b = KForm.blade(1, 2), KForm.blade(3, 4)
    assert (a ^ b) == wedge(a, b) == KForm.blade(1, 2, 3, 4)


# -- contraction ------------------------------------------------------------

@given(vectors, forms(2), forms(3))
def test_contraction_is_an_antiderivation(v, a, b):
    lhs = contract(v, wedge(a, b))
    rhs = wedge(contract(v, a), b) + wedge(a, contract(v, b))
    assert lhs == rhs  # deg a = 2, so the sign (-1)^deg a is +1


@given(vectors, forms(1), forms(3))
def test_contraction_antiderivation_odd_degree(v, a, b):
    lhs = contract(v, wedge(a, b))
    rhs = wedge(contract(v, a), b) - wedge(a, contract(v, b))
    assert lhs == rhs


@given(vectors, forms(3))
def test_contraction_squares_to_zero(v, a):
    assert not contract(v, contract(v, a))


@given(vectors, forms(3), forms(2))
def test_contraction_is_adjoint_to_exterior_multiplication(v, a, b):
    assert inner(contract(v, a), b) == inner(a, wedge(v.flat().form(), b))


@pytest.mark.parametrize("degree", [2, 3, 4])
def test_pair_contraction_is_two_generator_contractions(degree):
    # e_a⌟e_b⌟ on masks, for every ordered pair a ≠ b and every blade
    for a in range(DIM):
        for b in range(DIM):
            if a == b:
                continue
            for m in BLADES[degree]:
                blade = KForm(degree, {m: ONE})
                expected = contract_generator(a, contract_generator(b, blade))
                assert KForm(degree - 2, _pair_contracted(
                    1 << a, 1 << b, {m: ONE})) == expected


def test_contract_scalar_raises():
    with pytest.raises(ValueError):
        contract(Vector.basis(1), KForm.blade())


# -- Hodge star and inner product --------------------------------------------

@given(st.integers(min_value=0, max_value=DIM).flatmap(
    lambda k: st.tuples(st.just(k), forms(k))))
def test_hodge_star_squares_with_degree_sign(kf):
    k, a = kf
    assert hodge_star(hodge_star(a)) == (-1) ** (k * (DIM - k)) * a


@given(forms(3), forms(3))
def test_hodge_star_is_an_isometry(a, b):
    assert inner(hodge_star(a), hodge_star(b)) == inner(a, b)


@given(forms(4), forms(4))
def test_wedge_with_star_computes_inner_product(a, b):
    assert wedge(a, hodge_star(b)) == inner(a, b) * VOL


@given(forms(4), forms(4))
def test_inner_is_symmetric_bilinear(a, b):
    assert inner(a, b) == inner(b, a)
    assert inner(a + b, a) == inner(a, a) + inner(b, a)


@given(forms(4))
def test_inner_is_positive_definite_on_rational_forms(a):
    norm = inner(a, a)
    assert norm.is_rational()
    assert (norm.rational_value() > 0) == bool(a)


def test_hodge_star_on_basis_blade():
    assert hodge_star(KForm.blade(1, 2)) == KForm.blade(3, 4, 5, 6, 7, 8)
    assert hodge_star(KForm.blade()) == VOL


# -- KForm structure ----------------------------------------------------------

def test_blade_canonicalization_signs():
    assert KForm.blade(2, 1) == -KForm.blade(1, 2)
    assert not KForm.blade(1, 1)
    f = KForm.blade(1, 2, coeff=3)
    assert f.coefficient(1, 2) == FieldScalar(3)
    assert f.coefficient(2, 1) == FieldScalar(-3)
    assert f.coefficient(1, 3) == ZERO


def test_from_terms_accumulates_and_cancels():
    f = KForm.from_terms(2, [((1, 2), 1), ((2, 1), 1)])
    assert not f
    g = KForm.from_terms(2, [((1, 2), 1), ((1, 2), 2)])
    assert g.coefficient(1, 2) == FieldScalar(3)


def test_add_degree_mismatch():
    with pytest.raises(ValueError):
        KForm.blade(1) + KForm.blade(1, 2)
    # an identically zero form is degree-agnostic
    assert KForm.zero(3) + KForm.blade(1, 2) == KForm.blade(1, 2)


def test_degree_validation():
    with pytest.raises(ValueError):
        KForm(2, {0b111: ONE})


# -- vectors and covectors -----------------------------------------------------

@given(vectors, vectors)
def test_dot_symmetry(u, v):
    assert u.dot(v) == v.dot(u)


@given(vectors)
def test_musical_isomorphisms_round_trip(v):
    assert Vector(v.flat().components) == v
    # with the Euclidean metric, evaluation against v gives |v|^2
    assert v.flat()(v) == v.dot(v)


def test_eight_tuple_validation():
    with pytest.raises(ValueError):
        Vector([1, 2, 3])
    with pytest.raises(ValueError):
        Covector.basis(0)
    assert Vector.basis(3)[3] == ONE
    assert Vector.basis(3)[1] == ZERO


def test_vector_arithmetic():
    u = Vector.basis(1) + 2 * Vector.basis(2)
    assert u[2] == FieldScalar(2)
    assert (u - u) == Vector.zero()
    assert bool(u) and not Vector.zero()


# -- kernels of operators on form spaces ----------------------------------------

def test_kernel_of_wedge_with_covector():
    # kernel of (e^1 ∧ ·) on Λ¹ is exactly the span of e^1
    op = FormOperator.of_forms(2, [wedge(KForm.blade(1), b)
                                   for b in basis_blades(1)])
    kernel = op.kernel()
    assert kernel == [{0: ONE}]
    assert BLADES[1][0] == 1  # coordinate 0 is the blade e^1


def test_kernel_of_a_map_from_fewer_coordinates():
    # three images are a map from R³: only the first coordinate dies
    images = [wedge(KForm.blade(1), b) for b in basis_blades(1)]
    assert len(FormOperator.of_forms(2, images).kernel()) == 1
    assert FormOperator.of_forms(2, images[:3]).kernel() == [{0: ONE}]
    assert FormOperator.of_forms(2, images[1:4]).kernel() == []


def test_kernel_of_zero_operator():
    kernel = FormOperator.zero(2).kernel()
    assert kernel == [{j: ONE} for j in range(28)]


# -- the pullback's sign table --------------------------------------------------

@pytest.mark.parametrize("generators", [DIM, 11])
def test_sign_table_is_the_wedge_sign_of_every_mask_and_generator(generators):
    table = _sign_table(generators)
    assert len(table) == generators
    for j, row in enumerate(table):
        assert len(row) == 1 << generators
        for m, sign in enumerate(row):
            assert sign == wedge_sign(m, 1 << j), (m, j)
