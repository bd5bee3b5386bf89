"""The cohomogeneity-one 4-form: construction, closedness, perturbations.

Φ = f²ψ₁ + fgψ₂ + g²ψ₃ over the chamber ring with f = 4w⁻², g = 5w³.
Closedness is an exact polynomial identity here, and every invariant
perturbation Φ + dt∧(Y⌟Φ) with even coefficients stays closed.
"""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from spin7lab.exterior.forms import KForm, blade_pullback, wedge
from spin7lab.exterior.scalars import FieldScalar, Q
from spin7lab.invariant.bryant_salamon import (DT, BryantSalamon,
                                               InvariantField,
                                               build_bryant_salamon,
                                               build_metric,
                                               closure_mechanism_holds,
                                               lemma_invariant_forms,
                                               metric_lie_derivative,
                                               orbit_witness_holds,
                                               perturbed_form,
                                               pointwise_rank_one_check,
                                               proposition_display)
from spin7lab.invariant.chamber import (N_COFRAME, ChamberForm, ChamberScalar,
                                        S, T, W, W_INV, contract_generator,
                                        lie_derivative, maurer_cartan_d)
from spin7lab.invariant.liealg import Quaternion, build_lie_frame
from spin7lab.sampling import random_even_scalar

from _oracles import blade_pullback as old_blade_pullback
from _oracles import (count_calls, count_function_calls, is_canonical_view,
                      mutated_frame, old_contract, old_maurer_cartan_d,
                      verify_killing, verify_pullback_proposition)
from _strategies import laurent_scalars, rational_laurent_scalars

BS = build_bryant_salamon()
FRAME = build_lie_frame()
DS = ChamberForm.generator(0)

ZERO_S = ChamberScalar()
ONE_S = ChamberScalar.of(1)
ONE_FORM = ChamberForm.blade(coeff=1)   # the degree-0 form 1


def quaternion_units():
    z, one = ChamberForm.zero(0), ONE_FORM
    return (Quaternion(one, z, z, z), Quaternion(z, one, z, z),
            Quaternion(z, z, one, z), Quaternion(z, z, z, one))


# -- quaternion-valued forms -----------------------------------------------------

def test_wedge_product_reduces_to_quaternion_product_on_scalars():
    e, i, j, k = quaternion_units()
    assert i.product(j, wedge).z == ONE_FORM        # ij = k
    assert not i.product(j, wedge).w
    assert j.product(i, wedge).z == -ONE_FORM       # ji = -k
    assert i.product(i, wedge).w == -ONE_FORM       # i² = -1
    assert e.product(k, wedge).z == ONE_FORM        # 1·k = k


def test_quaternion_form_conjugate_flips_imaginary_parts():
    _, i, j, k = quaternion_units()
    for unit in (i, j, k):
        conj = unit.conjugate()
        assert conj.w == unit.w
        for part in "xyz":
            assert getattr(conj, part) == -getattr(unit, part)


# -- construction of the 4-form ---------------------------------------------------

def test_radial_functions():
    assert BS.f == ChamberScalar.monomial(4, 0, -2)
    assert BS.g == ChamberScalar.monomial(5, 0, 3)
    assert BS.f * BS.g == ChamberScalar.monomial(20, 0, 1)


def test_phi_is_the_weighted_sum_of_its_three_layers():
    assert BS.phi == (BS.f * BS.f) * BS.psi1 + (BS.f * BS.g) * BS.psi2 \
        + (BS.g * BS.g) * BS.psi3


def test_phi_spot_coefficients():
    assert BS.phi.coefficient(0, 4, 5, 6) == \
        ChamberScalar.monomial(-16, 3, -4)
    assert BS.phi.coefficient(7, 8, 9, 10) == ChamberScalar.monomial(-25, 0, 6)
    assert BS.phi.coefficient(5, 6, 7, 10) == ChamberScalar.monomial(20, 2, 1)


def test_psi_layers():
    assert BS.psi1.coefficient(0, 4, 5, 6) == ChamberScalar.monomial(-1, 3, 0)
    assert BS.psi3 == ChamberForm.blade(7, 8, 9, 10, coeff=-1)
    # ψ₂ couples base and fiber: exactly two fiber slots in every blade
    assert BS.psi2
    for slots, _coeff in BS.psi2.blades():
        assert len([s for s in slots if s >= 7]) == 2
        assert not any(s in (1, 2, 3) for s in slots)


def test_display_transcription_matches_construction():
    assert proposition_display() == BS.phi
    assert verify_pullback_proposition()


def test_editing_what_phi_terms_returns_leaves_the_cached_phi_alone():
    phi = build_bryant_salamon().phi
    terms = phi.terms
    mask = next(iter(terms))
    terms[mask] = terms[mask] + 1
    del terms[next(m for m in terms if m != mask)]
    assert build_bryant_salamon().phi == proposition_display()
    assert len(phi.terms) == len(terms) + 1 and phi.terms[mask] != terms[mask]


# -- closedness --------------------------------------------------------------------

def test_phi_is_closed():
    assert not maurer_cartan_d(BS.phi, FRAME)


def test_psi_differentials():
    w2, x1234 = lemma_invariant_forms()
    assert not maurer_cartan_d(BS.psi3, FRAME)
    assert maurer_cartan_d(BS.psi1, FRAME) == \
        ChamberScalar.monomial(Q(1, 2), 3, 0) * DS.wedge(w2)
    assert maurer_cartan_d(BS.psi2, FRAME) == \
        ChamberScalar.monomial(3, 1, 0) * DS.wedge(x1234)


def test_closedness_needs_both_radial_functions():
    # dropping the cross term breaks the cancellation
    partial = (BS.f * BS.f) * BS.psi1 + (BS.g * BS.g) * BS.psi3
    assert maurer_cartan_d(partial, FRAME)


def test_lemma_forms_are_closed_and_invariant():
    w2, x1234 = lemma_invariant_forms()
    for form in (w2, x1234):
        assert not maurer_cartan_d(form, FRAME)
        # invariance under the isotropy rotations
        for slot in (4, 5, 6):
            assert not lie_derivative(slot, form, FRAME)


# -- invariant perturbations --------------------------------------------------------

def test_named_perturbations_are_closed():
    triples = [
        (1, 0, 0),
        (T, T * T + 1, 3 * T),
    ]
    for a, b, c in triples:
        field = InvariantField.of(a, b, c)
        form = perturbed_form(field, BS)
        assert not maurer_cartan_d(form, FRAME)
        assert form != BS.phi  # the perturbation really moved the form


def test_random_even_perturbations_are_closed():
    rng = random.Random("test-bs:even")
    for _ in range(3):
        field = InvariantField.of(random_even_scalar(rng),
                                  random_even_scalar(rng),
                                  random_even_scalar(rng))
        assert not maurer_cartan_d(perturbed_form(field, BS), FRAME)


def test_odd_coefficients_are_rejected():
    with pytest.raises(ValueError):
        perturbed_form(InvariantField.of(S, 0, 0), BS)
    with pytest.raises(ValueError):
        perturbed_form(InvariantField.of(1, S * T, 0), BS)


def test_perturbation_shape():
    field = InvariantField.of(1, 0, 0)
    delta = perturbed_form(field, BS) - BS.phi
    assert delta == DT * DS.wedge(field.contract(BS.phi))
    # every added term contains ds
    for slots, _c in delta.blades():
        assert slots[0] == 0


def _contract_by_slots(field: InvariantField, form: ChamberForm) -> ChamberForm:
    """Y⌟form as a running sum of the scaled generator contractions."""
    out = ChamberForm.zero(form.degree - 1)
    for slot, coeff in field.coefficients():
        if coeff:
            out = out + coeff * contract_generator(slot, form)
    return out


# w-exponents on both sides of zero and of the w⁵ reduction
_laurent = laurent_scalars(st.integers(0, 4), st.integers(-7, 7),
                           st.sampled_from([1, -2, 3, Q(-5, 3)]), min_size=1)
_fields = st.builds(InvariantField, _laurent, _laurent, _laurent)
_three_forms = st.lists(
    st.tuples(st.lists(st.integers(0, 10), min_size=3, max_size=3,
                       unique=True), _laurent),
    max_size=6).map(lambda terms: sum(
        (ChamberForm.blade(*slots, coeff=c) for slots, c in terms),
        ChamberForm.zero(3)))


@settings(max_examples=20)
@given(_fields)
def test_contract_matches_the_sum_of_generator_contractions_on_phi(field):
    assert field.contract(BS.phi) == _contract_by_slots(field, BS.phi)


@settings(max_examples=20)
@given(_fields, _three_forms)
def test_contract_matches_the_sum_of_generator_contractions(field, form):
    assert field.contract(form) == _contract_by_slots(field, form)


@settings(max_examples=20)
@given(_fields, _three_forms, _laurent)
def test_every_chamber_engine_output_is_a_canonical_view(field, form, c):
    # the outputs built without the public constructor's degree and zero
    # checks: the engine's, d, Y⌟ and dt∧
    import spin7lab.invariant.bryant_salamon as bsm
    y_form = field.contract(form)
    outputs = [form + form, form - form, -form, c * form, DS.wedge(form),
               contract_generator(4, form), y_form, bsm._dt_wedge(y_form),
               maurer_cartan_d(form, FRAME), field.contract(BS.phi),
               blade_pullback(form, [ChamberForm.generator(k) + c * DS
                                     for k in range(N_COFRAME)])]
    assert all(map(is_canonical_view, outputs))


_rational_fields = st.builds(InvariantField, rational_laurent_scalars,
                            rational_laurent_scalars, rational_laurent_scalars)


def _cancelling_pair(field: InvariantField, slots, c) -> ChamberForm:
    """b·c A⁴∧e^R − a·c A⁵∧e^R for X-slots R: Y⌟ of it cancels on e^R,
    with raw terms that differ and cancel only after canonicalization."""
    rest = ChamberForm.blade(*slots)
    return ((field.b * c) * ChamberForm.generator(4).wedge(rest)
            - (field.a * c) * ChamberForm.generator(5).wedge(rest))


@settings(max_examples=20)
@given(st.one_of(_rational_fields, _fields),
       st.one_of(st.just(BS.phi), _three_forms), st.data())
def test_contract_matches_the_field_scalar_oracle(field, form, data):
    slots = data.draw(st.lists(st.integers(7, 10), min_size=form.degree - 1,
                               max_size=form.degree - 1, unique=True))
    pair = _cancelling_pair(field, slots,
                            data.draw(st.one_of(rational_laurent_scalars,
                                                _laurent)))
    assert not field.contract(pair)
    form = form + pair
    assert field.contract(form) == old_contract(field, form)


def test_rational_d_and_contract_multiply_no_field_scalars(monkeypatch):
    rng = random.Random("test-bs:int-path")
    fields = [InvariantField.of(*(random_even_scalar(rng) for _ in range(3)))
              for _ in range(2)]
    fields.append(InvariantField.of(Q(2, 5) * T, Q(-3, 7), W_INV * Q(1, 10)))
    forms = [BS.phi, Q(3, 35) * W_INV * BS.phi + S * BS.psi2]
    forms += [perturbed_form(f, BS) for f in fields[:2]]
    calls = count_calls(monkeypatch, "__mul__", "inverse")
    d = [maurer_cartan_d(form, FRAME) for form in forms]
    contracted = [f.contract(form) for f in fields for form in forms]
    assert calls == {"__mul__": 0, "inverse": 0}
    monkeypatch.undo()
    assert d == [old_maurer_cartan_d(form, FRAME) for form in forms]
    assert contracted == [old_contract(f, form) for f in fields
                          for form in forms]
    # Φ and the perturbed forms are closed; the second form is not
    assert [bool(x) for x in d] == [False, True, False, False]


def test_rational_chamber_checks_divide_no_field_scalar(monkeypatch):
    # d, Y⌟, the perturbed form and the closure sides stay on int views:
    # no term is divided into a FieldScalar on the way
    import spin7lab.invariant.bryant_salamon as bsm
    rng = random.Random("test-bs:no-division")
    field = InvariantField.of(*(random_even_scalar(rng) for _ in range(3)))
    form = Q(3, 35) * W_INV * BS.phi + S * BS.psi2
    calls = []
    original = FieldScalar.from_ratio
    monkeypatch.setattr(FieldScalar, "from_ratio", staticmethod(
        lambda n, d: calls.append((n, d)) or original(n, d)))
    d_form = maurer_cartan_d(form, FRAME)
    contracted = field.contract(form)
    perturbed = perturbed_form(field, BS)
    lhs, rhs = bsm.closure_mechanism_sides(field, BS, FRAME)
    assert calls == []
    monkeypatch.undo()
    assert d_form == old_maurer_cartan_d(form, FRAME)
    assert contracted == old_contract(field, form)
    assert perturbed == BS.phi + DT * DS.wedge(old_contract(field, BS.phi))
    assert lhs == rhs


def test_closed_forms_canonicalize_only_the_blade_that_vanishes_in_the_ring(
        monkeypatch):
    # d reduces no cancelled blade: the one _canonical call left in each d
    # is a raw sum that is nonzero as a map and zero modulo w⁵ − 1 − s²
    from spin7lab.invariant import chamber
    field = InvariantField.of(T + 1, Q(2, 3) * T, 5)
    form = perturbed_form(field, BS)
    calls = count_function_calls(monkeypatch, chamber._canonical)
    assert not maurer_cartan_d(BS.phi, FRAME) and len(calls) == 1
    assert not maurer_cartan_d(form, FRAME) and len(calls) == 2
    assert all(any(raw.values()) for raw, in calls)


def test_dt_wedge_is_dt_times_ds_wedge():
    import spin7lab.invariant.bryant_salamon as bsm
    rng = random.Random("test-bs:dt-wedge")
    field = InvariantField.of(*(random_even_scalar(rng) for _ in range(3)))
    mixed = ChamberScalar.monomial(Q(5, 7), 1, -2) + W
    forms = [BS.phi, field.contract(BS.phi), DS, ONE_FORM,
             ChamberForm.blade(0, 4, coeff=W) + ChamberForm.blade(5, 7),
             mixed * ChamberForm.blade(4, 7) + Q(2, 3) * ChamberForm.blade(0, 9)]
    for form in forms:
        assert bsm._dt_wedge(form) == DT * DS.wedge(form)


def test_contract_of_a_scalar_raises():
    with pytest.raises(ValueError):
        InvariantField.of(1, 0, 0).contract(ONE_FORM)
    # a KForm is refused, not read as a chamber form on its 8 generators
    from spin7lab.cayley import build_omega
    for form in (build_omega().omega, KForm.vector((0,) * 4 + (1,) + (0,) * 3)):
        with pytest.raises(ValueError):
            InvariantField.of(1, 2, 3).contract(form)


def test_orbit_witness_takes_no_operand_for_a_unit_product(monkeypatch):
    # the pullback by Id + Y⊗dt multiplies mostly by the unit coefficient of
    # the identity images; only the other products coerce their operand
    from spin7lab.invariant import chamber
    import spin7lab.invariant.bryant_salamon as bsm
    rng = random.Random("test-bs:unit-products")
    field = InvariantField.of(*(random_even_scalar(rng) for _ in range(3)))
    products = []
    original = ChamberScalar.__mul__

    def counted(self, other):
        products.append(other)
        return original(self, other)

    monkeypatch.setattr(ChamberScalar, "__mul__", counted)
    monkeypatch.setattr(ChamberScalar, "__rmul__", counted)
    operands = count_function_calls(monkeypatch, chamber._operand)
    lhs, rhs = bsm.orbit_witness_sides(field, BS)
    monkeypatch.undo()
    assert lhs == rhs
    assert any(x is chamber._ONE_SCALAR for x in products)
    assert operands == [(x,) for x in products if x is not chamber._ONE_SCALAR]


def test_closure_mechanism():
    rng = random.Random("test-bs:mechanism")
    fields = [InvariantField.of(1, 0, 0),
              InvariantField.of(T, T * T + 1, 3 * T),
              InvariantField.of(random_even_scalar(rng), 0,
                                random_even_scalar(rng))]
    for field in fields:
        assert closure_mechanism_holds(field, BS, FRAME)


def test_closure_mechanism_contracts_phi_once(monkeypatch):
    import spin7lab.invariant.bryant_salamon as bsm
    d_inputs, contracted = [], []
    original_d, original_contract = bsm.maurer_cartan_d, InvariantField.contract

    def counted_d(form, frame):
        d_inputs.append(form)
        return original_d(form, frame)

    def counted_contract(self, form):
        contracted.append(form)
        return original_contract(self, form)

    monkeypatch.setattr(bsm, "maurer_cartan_d", counted_d)
    monkeypatch.setattr(InvariantField, "contract", counted_contract)
    field = InvariantField.of(T, T * T + 1, 3 * T)
    lhs, rhs = bsm.closure_mechanism_sides(field, BS, FRAME)
    assert lhs == rhs
    # d(Y⌟Φ), dΦ and d(dt∧Y⌟Φ); Y⌟ of Φ and of dΦ
    assert len(d_inputs) == 3 and sum(f is BS.phi for f in d_inputs) == 1
    assert len(contracted) == 2
    assert sum(f is BS.phi for f in contracted) == 1


def test_lie_derivative_of_phi_is_absorbed_by_dt():
    # the mechanism closes because dt ∧ L_Y Φ = 0: every blade of L_Y Φ
    # already carries the ds factor (L_Y Φ itself need not vanish)
    rng = random.Random("test-bs:kill")
    field = InvariantField.of(random_even_scalar(rng),
                              random_even_scalar(rng),
                              random_even_scalar(rng))
    # Cartan's formula L_Y = d ∘ ι_Y + ι_Y ∘ d
    lied = (maurer_cartan_d(field.contract(BS.phi), FRAME)
            + field.contract(maurer_cartan_d(BS.phi, FRAME)))
    for slots, _c in lied.blades():
        assert slots[0] == 0
    assert not DT * DS.wedge(lied)


def test_orbit_witness():
    fields = [InvariantField.of(1, 0, 0),
              InvariantField.of(T, T * T + 1, 3 * T)]
    for field in fields:
        assert orbit_witness_holds(field, BS)


def test_blade_pullback_on_chamber_forms_matches_the_oracle():
    rng = random.Random("test-bs:pullback-oracle")
    for _ in range(3):
        field = InvariantField.of(*(random_even_scalar(rng) for _ in range(3)))
        # the images of orbit_witness_holds: Λ(Id + Y⊗dt)
        images = [ChamberForm.generator(k) for k in range(N_COFRAME)]
        for slot, coeff in field.coefficients():
            images[slot] = images[slot] + (DT * coeff) * DS
        singular = list(images)
        singular[rng.randrange(1, N_COFRAME)] = ChamberForm.zero(1)
        for imgs in (images, singular):
            for form in (BS.phi, field.contract(BS.phi)):
                assert blade_pullback(form, imgs) == \
                    old_blade_pullback(form, imgs)


def test_blade_pullback_matches_the_oracle_on_ds_and_slot_10_images():
    # two-term images whose second term sits on ds (slot 0) or X4 (slot 10),
    # the first and last generators, and forms whose blades hold them
    rng = random.Random("test-bs:pullback-ds-slot-10")
    gen = ChamberForm.generator
    for degree in range(1, 6):
        images = [gen(k) for k in range(N_COFRAME)]
        images[0] = images[0] + random_even_scalar(rng) * gen(10)
        images[10] = images[10] + random_even_scalar(rng) * DS
        for slot in rng.sample(range(1, 10), 3):
            images[slot] = (images[slot]
                            + random_even_scalar(rng) * gen(rng.choice((0, 10))))
        ends = [m for m in (sum(1 << k for k in slots) for slots in
                            combinations(range(N_COFRAME), degree))
                if m & 1 or m >> 10]
        blades = rng.sample(ends, min(6, len(ends)))
        form = ChamberForm(degree, {m: random_even_scalar(rng) for m in blades})
        assert len(images[0].terms) == len(images[10].terms) == 2
        assert blade_pullback(form, images) == old_blade_pullback(form, images)


# -- the metric and its isometries ----------------------------------------------------

def test_metric_is_diagonal_and_positive():
    metric = build_metric()
    assert metric.is_diagonal()
    assert metric.has_positive_coefficients()


def test_metric_entries():
    metric = build_metric()
    f, g = BS.f, BS.g
    assert metric.get(0, 0) == f
    for slot in (4, 5, 6):
        assert metric.get(slot, slot) == f * T
    for slot in (7, 8, 9, 10):
        assert metric.get(slot, slot) == g
    # the sp(1)⁺ directions are vertical: no metric coefficient
    for slot in (1, 2, 3):
        assert metric.get(slot, slot) == ZERO_S


def test_isotropy_fields_are_killing():
    assert verify_killing(FRAME)
    metric = build_metric()
    for slot in (4, 5, 6):
        assert not metric_lie_derivative(slot, metric, FRAME)


def test_killing_fails_for_a_corrupted_frame():
    bad = mutated_frame({(3, 4, 5): 7})  # corrupt [A4, A5]
    assert not verify_killing(bad)


# -- pointwise orbit membership ---------------------------------------------------------

def test_pointwise_check_at_rational_points():
    field = InvariantField.of(T, T * T + 1, 3 * T)
    for s_value in (1, "1/2", "7/3"):
        record = pointwise_rank_one_check(field, s_value)
        assert record["trivial"] is False
        assert record["rank"] == 1
        assert record["square_zero"] is True
        assert record["jordan_type"] == [2, 1, 1, 1, 1, 1, 1]
        assert record["in_orbit"] is True


def test_pointwise_check_trivial_field():
    record = pointwise_rank_one_check(InvariantField.of(0, 0, 0), 1)
    assert record["trivial"] is True
    assert record["in_orbit"] is True


def test_pointwise_check_validates_sample_point():
    field = InvariantField.of(1, 0, 0)
    with pytest.raises(ValueError):
        pointwise_rank_one_check(field, -1)
    with pytest.raises(ValueError):
        pointwise_rank_one_check(field, 0)
    with pytest.raises(ValueError):
        pointwise_rank_one_check(field, FieldScalar(0, 1))


def test_field_evenness_predicate():
    assert InvariantField.of(T, 0, T * T).is_even()
    assert not InvariantField.of(S, 0, 0).is_even()
