"""Exterior algebra identities: wedge, contraction, Hodge star, inner product."""

import pytest
from hypothesis import given, strategies as st

from spin7lab.cayley import build_omega, projectors
from spin7lab.exterior.blades import BLADES, DIM, wedge_sign
from spin7lab.exterior.endo import pullback, rho
from spin7lab.exterior.forms import (FormOperator, KForm, _contractions,
                                     _sign_table, basis_blades, blade_pullback,
                                     contract, contract_generator, hodge_star,
                                     inner, wedge)
from spin7lab.exterior.scalars import ONE, ZERO, FieldScalar, Q
from spin7lab.invariant.chamber import ChamberForm

from _oracles import (coefficients, contract_sign, dict_apply, dict_contract,
                      dict_inner, dict_pullback, dict_rho, dict_scale,
                      dict_star, dict_sum, dict_wedge, is_canonical_view,
                      pair_contracted)
from _strategies import (coefficient_families, forms, mixed_endos,
                         mixed_forms, nonzero_field_scalars, small_ints,
                         vectors)

# one coefficient family per draw: integers or non-integer rationals
mixed_scalars = st.sampled_from(coefficient_families).flatmap(lambda c: c)
mixed_vectors = st.sampled_from(coefficient_families).flatmap(
    lambda c: st.lists(c, min_size=DIM, max_size=DIM).map(KForm.vector))

VOL = KForm.from_terms(8, [((1, 2, 3, 4, 5, 6, 7, 8), 1)])


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
    a = KForm.from_terms(2, [((1, 2), 1)])
    b = KForm.from_terms(2, [((3, 4), 1)])
    assert (a ^ b) == wedge(a, b) == KForm.from_terms(4, [((1, 2, 3, 4), 1)])


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
    assert inner(contract(v, a), b) == inner(a, wedge(v, b))


# term maps of degree 1..4 on 8 or 11 generators, with int or FieldScalar
# coefficients: the walk only negates them
term_maps = st.tuples(st.sampled_from([8, 11]), st.integers(1, 4),
                      st.sampled_from([small_ints.filter(bool),
                                       nonzero_field_scalars])).flatmap(
    lambda nkc: st.tuples(st.just(nkc[0]), st.dictionaries(
        st.sets(st.integers(0, nkc[0] - 1), min_size=nkc[1],
                max_size=nkc[1]).map(lambda s: sum(1 << i for i in s)),
        nkc[2], max_size=6)))


@given(term_maps, st.integers(0, 8))
def test_contractions_are_the_contraction_by_each_generator(case, first):
    generators, terms = case
    pieces = _contractions(terms, generators)
    assert len(pieces) == generators
    for p, piece in enumerate(pieces):
        assert piece == {m ^ (1 << p): c if contract_sign(p, m) > 0 else -c
                         for m, c in terms.items() if contract_sign(p, m)}
    # a smaller count contracts by the first generators only
    assert _contractions(terms, first) == pieces[:first]


@given(term_maps)
def test_two_walks_are_the_pair_contraction(case):
    # e_a⌟e_b⌟ω as e_b⌟ from one walk, then e_a⌟ from a walk of that
    generators, terms = case
    for b, by_b in enumerate(_contractions(terms, generators)):
        for a, by_ab in enumerate(_contractions(by_b, generators)):
            if a != b:
                assert by_ab == pair_contracted(a, b, terms)


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
                assert KForm(degree - 2, pair_contracted(
                    a, b, {m: ONE})) == expected


def test_contract_scalar_raises():
    with pytest.raises(ValueError):
        contract(basis_blades(1)[0], KForm.from_terms(0, [((), 1)]))


def test_contract_generator_refuses_a_slot_out_of_range():
    omega, frame_form = build_omega().omega, ChamberForm.blade(0, 10)
    for slot, form in ((8, omega), (11, frame_form), (-1, omega),
                       (-3, frame_form)):
        with pytest.raises(ValueError, match="out of range"):
            contract_generator(slot, form)
    assert contract_generator(10, frame_form) == -ChamberForm.generator(0)


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
    assert (norm.quadruple()[0] > 0) == bool(a)


def test_hodge_star_on_basis_blade():
    assert hodge_star(KForm.from_terms(2, [((1, 2), 1)])) == \
        KForm.from_terms(6, [((3, 4, 5, 6, 7, 8), 1)])
    assert hodge_star(KForm.from_terms(0, [((), 1)])) == VOL


# -- KForm structure ----------------------------------------------------------

def test_blade_canonicalization_signs():
    e12 = KForm.from_terms(2, [((1, 2), 1)])
    assert KForm.from_terms(2, [((2, 1), 1)]) == -e12
    assert not KForm.from_terms(2, [((1, 1), 1)])
    f = KForm.from_terms(2, [((2, 1), 3)])
    assert f.terms() == [((1, 2), FieldScalar(-3))]
    assert dict(f.mask_items()) == {0b11: FieldScalar(-3)}


def test_from_terms_accumulates_and_cancels():
    f = KForm.from_terms(2, [((1, 2), 1), ((2, 1), 1)])
    assert not f
    g = KForm.from_terms(2, [((1, 2), 1), ((1, 2), 2)])
    assert g.terms() == [((1, 2), FieldScalar(3))]


def test_add_degree_mismatch():
    with pytest.raises(ValueError):
        KForm.from_terms(1, [((1,), 1)]) + KForm.from_terms(2, [((1, 2), 1)])
    # an identically zero form is degree-agnostic
    e12 = KForm.from_terms(2, [((1, 2), 1)])
    assert KForm.zero(3) + e12 == e12


def test_degree_validation():
    with pytest.raises(ValueError):
        KForm(2, {0b111: ONE})


# -- vectors: 1-forms, v♭ = v --------------------------------------------------

@given(vectors, vectors)
def test_dot_symmetry(u, v):
    assert inner(u, v) == inner(v, u) == sum(
        (x * y for x, y in zip(u.components(), v.components())), ZERO)


@given(st.lists(mixed_scalars, min_size=DIM, max_size=DIM))
def test_vector_components_round_trip(components):
    assert KForm.vector(components).components() == components


@given(vectors)
def test_musical_isomorphisms_round_trip(v):
    # with the Euclidean metric, v♭ is v and ⟨v♭, v♭⟩ is |v|^2
    assert KForm.vector(v.components()) == v
    assert inner(v, v) == sum((c * c for c in v.components()), ZERO)


def test_eight_tuple_validation():
    for wrong_length in ([1, 2, 3], range(DIM + 1)):
        with pytest.raises(ValueError):
            KForm.vector(wrong_length)
    with pytest.raises(ValueError):
        KForm.vector([FieldScalar(0, 1)] + [0] * (DIM - 1))
    for not_a_vector in (KForm.from_terms(2, [((1, 2), 1)]), KForm.zero(0)):
        with pytest.raises(ValueError):
            not_a_vector.components()
    with pytest.raises(ValueError):  # a chamber 1-form has 11 generators
        contract(ChamberForm.generator(0), VOL)
    assert basis_blades(1)[2].components() == [ZERO, ZERO, ONE] + [ZERO] * 5


def test_vector_arithmetic():
    u = KForm.vector((1, 2, 0, 0, 0, 0, 0, 0))
    assert u.components()[1] == FieldScalar(2)
    e2 = basis_blades(1)[1]
    assert u - basis_blades(1)[0] == 2 * e2 == -(-2 * e2)
    zero = KForm.vector((0,) * DIM)
    assert u - u == zero
    assert bool(u) and not zero


# -- the numerator view against the FieldScalar-dict oracle ---------------------

@given(mixed_forms(4), mixed_forms(4), mixed_forms(2), mixed_vectors,
       mixed_scalars)
def test_form_algebra_matches_the_field_scalar_dict_oracle(a, b, c, v, s):
    da, db, dc = coefficients(a), coefficients(b), coefficients(c)
    assert coefficients(a + b) == dict_sum(da, db)
    assert coefficients(a - b) == dict_sum(da, db, -1)
    assert coefficients(-a) == dict_scale(-1, da)
    assert coefficients(s * a) == coefficients(a * s) == dict_scale(s, da)
    assert coefficients(wedge(c, a)) == dict_wedge(dc, da)
    assert coefficients(contract(v, a)) == dict_contract(v, da)
    assert coefficients(hodge_star(c)) == dict_star(dc)
    assert inner(a, b) == dict_inner(da, db)


@given(mixed_endos, mixed_forms(3), mixed_forms(4))
def test_rho_pullback_and_apply_match_the_field_scalar_dict_oracle(a, x, y):
    dx, dy = coefficients(x), coefficients(y)
    assert coefficients(rho(a, x)) == dict_rho(a, dx)
    assert coefficients(pullback(a, x)) == dict_pullback(a, dx)
    ps = projectors()
    for op in (ps.p7, Q(-9, 4) * ps.p35 + ps.p1):
        assert coefficients(op(y)) == dict_apply(op, dy)


@given(mixed_forms(4), st.integers(0, DIM), st.integers(0, DIM))
def test_equal_forms_built_by_different_routes_compare_and_hash_alike(w, j, k):
    routes = [Q(1, 2) * (2 * w), (w + w) - w, -(-w), KForm(4, coefficients(w)),
              FormOperator.identity(4)(w), hodge_star(hodge_star(w))]
    for x in routes:
        assert x == w and hash(x) == hash(w)
    zeros = [KForm.zero(j), KForm.zero(k), KForm(k), w - w, 0 * w]
    for z in zeros:
        assert not z and z == zeros[0] and hash(z) == hash(zeros[0])


@given(mixed_forms(2), mixed_forms(3), mixed_vectors, mixed_endos,
       mixed_scalars)
def test_every_engine_output_is_a_canonical_view(a, b, v, e, s):
    images = [KForm.vector([e.rows[i][p] for i in range(DIM)])
              for p in range(DIM)]
    outputs = [a + a, a - a, b - b, -b, s * b, wedge(a, b), wedge(a, a),
               contract_generator(2, b), contract(v, b), hodge_star(b),
               rho(e, b), pullback(e, b), blade_pullback(b, images),
               KForm.vector(v.components()), *basis_blades(2)[:3]]
    assert all(map(is_canonical_view, outputs + images))
    for form in outputs:
        assert all(m.bit_count() == form.degree and c
                   for m, c in form.mask_items())


# -- what the public entry points refuse ------------------------------------------

def test_the_public_constructor_checks_blades_against_the_generators():
    # bit 9 would be e^10 on R^8; _of_numerators stays unchecked
    for degree, terms in ((1, {1 << 9: 1}), (1, {1 << 8: 2}),
                          (2, {1 | 1 << 12: 1}), (1, {-1: 1})):
        with pytest.raises(ValueError, match="on 8 generators"):
            KForm(degree, terms)
    with pytest.raises(ValueError, match="0b1000000000 is not a blade"):
        KForm(1, {1 << 9: 1})
    with pytest.raises(ValueError, match="0b11 is not a blade of degree 3"):
        KForm(3, {0b11: 1})
    assert KForm(1, {1 << 7: 1}) == KForm.from_terms(1, [((8,), 1)])


def test_blade_pullback_wants_images_of_the_form_type():
    # eight ChamberForm images of a KForm pass the length check
    omega = build_omega().omega
    images = [ChamberForm.generator(k) for k in range(DIM)]
    with pytest.raises(ValueError, match="every image must be a KForm"):
        blade_pullback(omega, images)
    with pytest.raises(ValueError, match="one image per generator"):
        blade_pullback(omega, basis_blades(1)[:7])
    assert blade_pullback(omega, basis_blades(1)) == omega


# -- kernels of operators on form spaces ----------------------------------------

def test_kernel_of_wedge_with_covector():
    # kernel of (e^1 ∧ ·) on Λ¹ is exactly the span of e^1
    op = FormOperator.of_forms(2, [wedge(KForm.from_terms(1, [((1,), 1)]), b)
                                   for b in basis_blades(1)])
    kernel = op.kernel()
    assert kernel == [{0: ONE}]
    assert BLADES[1][0] == 1  # coordinate 0 is the blade e^1


def test_kernel_of_a_map_from_fewer_coordinates():
    # three images are a map from R³: only the first coordinate dies
    e1 = KForm.from_terms(1, [((1,), 1)])
    images = [wedge(e1, b) for b in basis_blades(1)]
    assert len(FormOperator.of_forms(2, images).kernel()) == 1
    assert FormOperator.of_forms(2, images[:3]).kernel() == [{0: ONE}]
    assert FormOperator.of_forms(2, images[1:4]).kernel() == []


def test_kernel_of_zero_operator():
    kernel = FormOperator(2, [{}] * len(BLADES[2])).kernel()
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
