"""The chamber coefficient ring and the invariant coframe calculus.

Coefficients live in Q[s, w, w⁻¹] modulo w⁵ = 1 + s², and a surd
coefficient is refused; forms
carry eleven coframe slots (ds, A¹..A⁶, X¹..X⁴) with the exterior
derivative driven by the connection-frame structure constants.
"""

import random
from functools import reduce
from math import gcd, prod

import pytest
from hypothesis import given, strategies as st

from spin7lab.exterior.forms import wedge
from spin7lab.exterior.scalars import (ONE, SQRT2, ZERO, FieldScalar, Q,
                                      to_numerators)
from spin7lab.invariant import chamber
from spin7lab.invariant.chamber import (COFRAME_NAMES, N_COFRAME, ChamberForm,
                                        ChamberScalar, S, T, W, W_INV,
                                        contract_generator, lie_derivative,
                                        maurer_cartan_d)
from spin7lab.invariant.liealg import build_integer_frame, build_lie_frame

from _oracles import (coframe_differentials, mutated_frame, old_derivative,
                      old_maurer_cartan_d, old_product)
from _strategies import (laurent_scalars, rational_field_scalars,
                         rational_laurent_scalars, rationals, small_ints)

DS = ChamberForm.generator(0)
FRAME = build_lie_frame()

scalars = laurent_scalars(st.integers(0, 3), st.integers(-2, 2), small_ints)

# FieldScalar coefficients and w-exponents on both sides of the w⁵
# reduction
field_laurent_scalars = laurent_scalars(st.integers(0, 4), st.integers(-7, 7),
                                        rational_field_scalars)

constant_scalars = st.one_of(st.just(ChamberScalar()),
                             small_ints.map(ChamberScalar.of),
                             rational_field_scalars.map(ChamberScalar.of))


def _raw_product(x: ChamberScalar, y: ChamberScalar) -> ChamberScalar:
    """The product summed term by term and canonicalized once."""
    raw = {}
    for (a1, e1), c1 in x.terms.items():
        for (a2, e2), c2 in y.terms.items():
            key = (a1 + a2, e1 + e2)
            raw[key] = raw.get(key, ZERO) + c1 * c2
    return ChamberScalar(raw)


# -- ring structure -------------------------------------------------------------

def test_defining_relation():
    assert W ** 5 == 1 + T
    assert W * W_INV == ChamberScalar.of(1)
    with pytest.raises(ValueError):
        W ** -1  # only explicit w⁻¹ monomials exist; the ring is not a field


def test_canonicalization_of_high_powers():
    # w⁶ reduces to w + s²w, and w⁻⁵ to the inverse geometric layer
    assert ChamberScalar.monomial(1, 0, 6) == W + T * W
    assert ChamberScalar.monomial(1, 0, 5) == ChamberScalar.of(1) + T
    assert ChamberScalar.monomial(3, 2, 0) == 3 * T


@given(scalars, scalars, scalars)
def test_ring_axioms(x, y, z):
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x - x == ChamberScalar()


@given(scalars)
def test_multiplying_by_the_relation_is_transparent(x):
    # multiplying by w⁵ and by 1+s² must agree in canonical form
    assert x * W ** 5 == x * (1 + T)


@given(constant_scalars, st.one_of(field_laurent_scalars, constant_scalars))
def test_constant_products_are_the_canonical_product(c, x):
    # the constant fast path skips the reduction; its result must still be
    # the canonical form of the raw product, from either side
    expected = _raw_product(c, x)
    for product in (c * x, x * c):
        assert product.terms == expected.terms
        assert ChamberScalar(product.terms).terms == product.terms


# 1, −1 and c·s^a with c an integer or not: the operands that skip the
# reduction
units_and_s_monomials = st.one_of(
    st.sampled_from([ChamberScalar.of(1), ChamberScalar.of(-1)]),
    st.builds(ChamberScalar.monomial, st.one_of(rationals, small_ints),
              st.integers(0, 4)))


@given(units_and_s_monomials, rational_laurent_scalars)
def test_unit_and_s_monomial_products_are_the_canonical_product(m, x):
    expected = old_product(m, x)
    for product in (m * x, x * m):
        assert product.terms == expected.terms
        assert ChamberScalar(product.terms).terms == product.terms
    assert x * 1 is x


def test_unit_and_s_monomial_products_skip_the_reduction(monkeypatch):
    def refuse(*args):
        raise AssertionError("a monomial product was re-canonicalized")

    x = (ChamberScalar.monomial(Q(2, 5), 0, -3)
         + ChamberScalar.monomial(7, 1, 2) - ChamberScalar.monomial(1, 3, 4))
    monomials = (1, -1, S, T, ChamberScalar.monomial(2, 1),
                 ChamberScalar.monomial(FieldScalar(Q(-2, 3)), 3))
    products = [m * x for m in (W, S * W_INV)]  # these need the reduction
    for name in ("_canonical", "to_numerators", "_over"):
        monkeypatch.setattr(chamber, name, refuse)
    for m in monomials:
        assert m * x == x * m
        assert (m * x) * S == m * (x * S)
    monkeypatch.undo()
    assert products == [W * x, x * (S * W_INV)]


@given(st.sampled_from([rational_laurent_scalars, field_laurent_scalars]),
       st.data())
def test_products_and_derivatives_match_the_field_scalar_oracle(family, data):
    # the second pair's product cancels w⁻⁵ against 1 + s²
    x, y = data.draw(family), data.draw(family)
    for a, b in ((x, y), (x * W_INV ** 5, y * (1 + T))):
        assert (a * b).terms == old_product(a, b).terms == (x * y).terms
    assert x.derivative().terms == old_derivative(x).terms


def test_power_and_coercion():
    assert S ** 3 == S * S * S
    assert ChamberScalar.of(7) == ChamberScalar.monomial(7)
    assert ChamberScalar.of(FieldScalar(Q(2, 3))) * \
        ChamberScalar.of(FieldScalar(Q(9, 2))) == ChamberScalar.of(3)


@given(st.one_of(small_ints, rational_field_scalars))
def test_constants_hash_like_their_value(x):
    # a constant equals its int or FieldScalar, so a set never holds both
    c = ChamberScalar.of(x)
    assert c == x
    assert hash(c) == hash(x)
    assert len({c, x}) == 1


@given(st.one_of(st.integers(-10**6, 10**6),
                 st.fractions(min_value=-99, max_value=99, max_denominator=60)))
def test_constants_compare_and_combine_like_their_rational(r):
    # equality is transitive across ChamberScalar, FieldScalar and Q, and a
    # Q operand is accepted wherever an int or FieldScalar is
    q = Q(r)
    c, h = ChamberScalar.of(q), FieldScalar(q)
    assert c == h and h == q and c == q and q == c and c == r
    assert len({c, h, q}) == 1
    assert c * q == q * c == ChamberScalar.of(q * q)
    assert c + q == q + c == ChamberScalar.of(2 * q)
    assert c - q == q - c == ChamberScalar()
    assert S * q == ChamberScalar.monomial(q, 1, 0)


def test_a_surd_constant_is_unequal_to_every_chamber_scalar():
    # == answers False for a surd, while arithmetic with one still refuses it
    assert ChamberScalar.of(1) != SQRT2
    assert not S == SQRT2 and not SQRT2 == S and SQRT2 != S
    assert [S, ChamberScalar.of(1)].count(SQRT2) == 0
    with pytest.raises(ValueError):
        S + SQRT2


# -- the numerator view ------------------------------------------------------------

def assert_canonical_view(x: ChamberScalar):
    """Ints over a positive den in lowest terms."""
    den, nums = x._denom, x._nums
    assert all(type(c) is int for c in nums.values())
    assert den > 0 and gcd(den, *nums.values()) == 1
    assert all(nums.values())


@given(st.sampled_from([rational_laurent_scalars, field_laurent_scalars]),
       st.data())
def test_views_are_canonical_and_round_trip_through_terms(family, data):
    x, y = data.draw(family), data.draw(family)
    for z in (x, y, x + y, x - y, -x, x * y, x * S, x * Q(3, 7),
              x.derivative(), x * W_INV ** 5):
        assert_canonical_view(z)
        twin = ChamberScalar(z.terms)
        assert twin == z and hash(twin) == hash(z)
        assert (twin._denom, twin._nums) == (z._denom, z._nums)
    # equal values reached along different paths hash alike
    assert x + y - y == x and hash(x + y - y) == hash(x)
    assert (x * W) * W_INV == x and hash((x * W) * W_INV) == hash(x)


@given(st.sampled_from([rational_laurent_scalars, field_laurent_scalars]),
       st.data())
def test_editing_what_terms_returns_changes_no_scalar(family, data):
    x = data.draw(family)
    twin = ChamberScalar(x.terms)
    before = (x.terms, hash(x), x.to_record(), str(x))
    terms = x.terms
    terms[(9, 0)] = FieldScalar(5)
    if len(terms) > 1:
        del terms[min(terms)]
    assert (x.terms, hash(x), x.to_record(), str(x)) == before
    assert x == twin and twin == x


# -- derivation ------------------------------------------------------------------

def test_derivative_of_the_generators():
    assert S.derivative() == ChamberScalar.of(1)
    assert W.derivative() == ChamberScalar.monomial(Q(2, 5), 1, -4)
    assert ChamberScalar.of(3).derivative() == ChamberScalar()


def test_derivative_respects_the_relation():
    # d/ds of w⁵ and of 1+s² must agree
    assert (W ** 5).derivative() == 2 * S
    # w⁻⁵(1+s²) = 1, so the product rule forces the derivative of w⁻⁵
    inv = W_INV ** 5
    assert inv * (1 + T) == ChamberScalar.of(1)
    assert inv.derivative() * (1 + T) + inv * (2 * S) == ChamberScalar()


@given(scalars, scalars)
def test_derivative_product_rule(x, y):
    assert (x * y).derivative() == \
        x.derivative() * y + x * y.derivative()


@given(scalars, scalars)
def test_derivative_is_linear(x, y):
    assert (x + y).derivative() == x.derivative() + y.derivative()


# -- evaluation -------------------------------------------------------------------

def test_evaluate_w_free_elements():
    assert (W ** 5).evaluate(2) == FieldScalar(5)
    assert S.evaluate("3/2") == FieldScalar(Q(3, 2))
    poly = 3 * T * T - 2 * T + 1
    assert poly.evaluate(1) == FieldScalar(2)


@given(laurent_scalars(st.integers(0, 6), st.just(0),
                      st.one_of(rationals, rational_field_scalars), max_size=4),
       st.fractions(min_value=Q(1, 9), max_value=9, max_denominator=9))
def test_evaluate_is_the_sum_of_the_terms(x, s_value):
    s0 = FieldScalar(Q(s_value))
    expected = ZERO
    for a, _e, c in x.sorted_terms():
        expected = expected + c * prod([s0] * a, start=ONE)
    assert x.evaluate(s0) == x.evaluate(Q(s_value)) == expected


def test_evaluate_rejects_w_dependence():
    with pytest.raises(ValueError):
        W.evaluate(1)
    with pytest.raises(ValueError):
        (S * W_INV).evaluate(2)


def test_predicates():
    assert (T ** 2 + 1).is_even_in_s()
    assert not S.is_even_in_s()
    assert ChamberScalar.of(5).is_constant()
    assert not W.is_constant()


# -- forms -------------------------------------------------------------------------

def test_form_blade_canonicalization():
    assert ChamberForm.blade(5, 4) == -ChamberForm.blade(4, 5)
    assert not ChamberForm.blade(3, 3)
    f = ChamberForm.blade(0, 7, coeff=S)
    assert f.coefficient(0, 7) == S
    assert f.coefficient(7, 0) == -S


def test_wedge_graded_commutativity():
    a = ChamberForm.generator(1)
    b = ChamberForm.blade(2, 3, coeff=W)
    assert a.wedge(b) == b.wedge(a)          # deg 1 * deg 2: sign (+)
    c = ChamberForm.generator(4)
    assert a.wedge(c) == -c.wedge(a)


def test_scalar_multiplication_and_linearity():
    a = ChamberForm.generator(2)
    assert (S * a) + (T * a) == (S + T) * a
    assert ChamberForm.blade(coeff=S).wedge(a) == S * a


def test_unknown_slot_rejected():
    with pytest.raises(ValueError):
        ChamberForm.generator(11)
    with pytest.raises(ValueError):
        ChamberForm.generator(-1)


# -- exterior derivative -----------------------------------------------------------

def test_d_of_ds_vanishes():
    assert not maurer_cartan_d(DS, FRAME)


def test_d_on_scalars_is_the_s_derivative():
    f = ChamberScalar.monomial(1, 2, 3)  # s² w³
    assert maurer_cartan_d(ChamberForm.blade(coeff=f), FRAME) == \
        f.derivative() * DS


def test_d_of_coframe_generators_follows_structure_constants():
    # dA⁶ = -A⁴∧A⁵ · c⁶₄₅ + ... with c⁶₄₅ = 2
    d6 = maurer_cartan_d(ChamberForm.generator(6), FRAME)
    assert d6.coefficient(4, 5) == ChamberScalar.of(-2)
    # dX⁴ couples the two sp(1) factors with opposite signs
    d10 = maurer_cartan_d(ChamberForm.generator(10), FRAME)
    assert d10.coefficient(1, 7) == ChamberScalar.of(1)
    assert d10.coefficient(4, 7) == ChamberScalar.of(-1)


def test_d_squared_is_zero_on_generators():
    for slot in range(N_COFRAME):
        generator = ChamberForm.generator(slot)
        assert not maurer_cartan_d(maurer_cartan_d(generator, FRAME), FRAME)


def test_d_squared_is_zero_on_products():
    rng = random.Random("test-chamber:d2")
    for _ in range(5):
        coeff = ChamberScalar.monomial(rng.randint(-9, 9),
                                       rng.randint(0, 3),
                                       rng.randint(-2, 2))
        slots = rng.sample(range(N_COFRAME), 2)
        form = ChamberForm.blade(*slots, coeff=coeff)
        assert not maurer_cartan_d(maurer_cartan_d(form, FRAME), FRAME)


def test_d_is_an_antiderivation():
    f = S * ChamberForm.generator(4)
    g = W * ChamberForm.generator(7)
    lhs = maurer_cartan_d(f.wedge(g), FRAME)
    rhs = (maurer_cartan_d(f, FRAME).wedge(g)
           - f.wedge(maurer_cartan_d(g, FRAME)))
    assert lhs == rhs


# -- d against the engine composition ------------------------------------------------

def _engine_d(form: ChamberForm, frame) -> ChamberForm:
    """d as a composition of engine calls, form by form: ∂_s c ds∧e^I plus
    c de^k∧(e_k⌟e^I) for each slot k of each blade."""
    dgen = coframe_differentials(frame)
    out = ChamberForm.zero(form.degree + 1)
    for slots, coeff in form.blades():
        blade = ChamberForm.blade(*slots)
        dcoeff = coeff.derivative()
        if dcoeff:
            out = out + dcoeff * wedge(DS, blade)
        for slot in slots:
            if dgen[slot]:
                out = out + coeff * wedge(dgen[slot],
                                          contract_generator(slot, blade))
    return out


FRAMES = [FRAME,
          mutated_frame({(3, 4, 5): 3}),           # [A4, A5] = 3 A6
          mutated_frame({(0, 6, 9): FieldScalar(Q(3, 7)), (2, 8, 1): -2})]


def chamber_forms(degree: int, coeffs=field_laurent_scalars):
    """Sparse degree-k chamber forms with Laurent coefficients."""
    masks = [m for m in range(1 << N_COFRAME) if m.bit_count() == degree]
    return st.lists(st.tuples(st.sampled_from(masks), coeffs),
                    max_size=4).map(lambda pairs: ChamberForm(degree, dict(pairs)))


@given(st.integers(0, 4), st.sampled_from(FRAMES), st.data())
def test_d_equals_the_engine_composition(degree, frame, data):
    form = data.draw(chamber_forms(degree))
    if degree:
        # plus an exact form of the engine: on the real frame the terms of
        # its d cancel completely, on a mutated one they need not
        form = form + _engine_d(data.draw(chamber_forms(degree - 1)), frame)
    assert maurer_cartan_d(form, frame) == _engine_d(form, frame)


@given(st.integers(0, 4), st.sampled_from(FRAMES),
       st.sampled_from([rational_laurent_scalars, field_laurent_scalars]),
       st.data())
def test_d_matches_the_field_scalar_oracle(degree, frame, coeffs, data):
    # the exact part makes raw sums cancel
    form = data.draw(chamber_forms(degree, coeffs))
    if degree:
        form = form + old_maurer_cartan_d(
            data.draw(chamber_forms(degree - 1, coeffs)), frame)
    assert maurer_cartan_d(form, frame) == old_maurer_cartan_d(form, frame)


def test_d_of_exact_forms_cancels_on_the_real_frame():
    h = (S * ChamberForm.blade(4, 7) + W_INV * ChamberForm.blade(0, 2)
         + W * ChamberForm.blade(1, 9))
    assert not maurer_cartan_d(_engine_d(h, FRAMES[0]), FRAME)


# -- contraction and Lie derivative ----------------------------------------------

def test_the_public_constructor_checks_blades_against_the_coframe():
    for terms in ({1 << 12: 1}, {1 << 11: S}):
        with pytest.raises(ValueError, match="on 11 generators"):
            ChamberForm(1, terms)
    assert ChamberForm(1, {1 << 10: 1}) == ChamberForm.generator(10)


def test_contract_generator_picks_out_slots():
    form = ChamberForm.blade(4, 7, coeff=S)
    assert contract_generator(4, form) == S * ChamberForm.generator(7)
    assert contract_generator(7, form) == -S * ChamberForm.generator(4)
    assert not contract_generator(5, form)


def _table_of(dgen):
    """(D, the d table) of the ChamberForm de^k: per slot, {mask: 5·n} for
    each blade's constant coefficient n/D, D the lcm of the denominators."""
    den, nums = to_numerators([{m: c.terms[(0, 0)]
                                for m, c in dk.terms.items()} for dk in dgen])
    return den, tuple({m: 5 * n for m, n in dk.items()} for dk in nums)


def test_coframe_differentials_are_built_once_per_frame(monkeypatch):
    # as the table of 5·de^k that maurer_cartan_d reads, and one row of
    # 5·d(e^I) per blade mask
    tables, rows = [], []
    original_table = chamber._maurer_cartan_table
    original_row = chamber._maurer_cartan_row
    monkeypatch.setattr(chamber, "_maurer_cartan_table",
                        lambda frame: tables.append(frame)
                        or original_table(frame))
    monkeypatch.setattr(chamber, "_maurer_cartan_row",
                        lambda mask, dgen: rows.append(mask)
                        or original_row(mask, dgen))
    base = build_lie_frame()
    frame = base.with_structure(base.structure)  # a fresh frame object
    a6 = ChamberForm.generator(6)
    form = a6 + ChamberForm.blade(7, coeff=S)
    first = maurer_cartan_d(form, frame)
    assert sorted(rows) == [1 << 6, 1 << 7]
    assert frame.maurer_cartan_rows.keys() == set(rows)
    for _ in range(3):
        assert maurer_cartan_d(form, frame) == first
    assert len(rows) == 2  # a second d on the same frame builds no row
    lie_derivative(1, form, frame)
    assert tables == [frame]
    # a frame with other constants ([A4, A5] = 3 A6) gets its own table
    # and rows, though the connection frame's rows are filled
    other = mutated_frame({(3, 4, 5): 3})
    assert maurer_cartan_d(a6, other) != maurer_cartan_d(a6, frame)
    assert tables == [frame, other]
    assert other.maurer_cartan_table != frame.maurer_cartan_table
    assert other.maurer_cartan_rows[1 << 6] != frame.maurer_cartan_rows[1 << 6]


@pytest.mark.parametrize("frame", [build_lie_frame(), build_integer_frame(),
                                   FRAMES[2]],
                         ids=["connection", "integer", "with-structure"])
def test_maurer_cartan_table_is_that_of_the_chamber_form_de_k(frame):
    assert frame.maurer_cartan_table == \
        _table_of(coframe_differentials(frame))


@pytest.mark.parametrize("frame", [FRAME, FRAMES[2]],
                         ids=["connection", "mutated"])
def test_maurer_cartan_rows_are_the_leibniz_expansion(frame):
    # d(e^{i1}∧…∧e^{ik}) = Σ_j (−1)^j e^{i1}∧…∧de^{ij}∧…∧e^{ik} on every
    # blade of degree 1 to 4, from the public wedge of the de^k forms
    dgen = coframe_differentials(frame)
    den, table = frame.maurer_cartan_table
    masks = [m for m in range(1 << N_COFRAME) if 1 <= m.bit_count() <= 4]
    assert len(masks) == 561
    for mask in masks:
        slots = chamber._slots(mask)
        expected = ChamberForm.zero(len(slots) + 1)
        for j in range(len(slots)):
            factors = [dgen[k] if i == j else ChamberForm.generator(k)
                       for i, k in enumerate(slots)]
            term = reduce(wedge, factors)
            expected = expected + term if j % 2 == 0 else expected - term
        row = chamber._maurer_cartan_row(mask, table)
        assert ChamberForm(len(slots) + 1, {
            m: Q(c, 5 * den) for m, c in row.items()}) == expected


def test_lie_derivative_rotates_the_sp1_coframe():
    assert lie_derivative(4, ChamberForm.generator(5), FRAME) == \
        2 * ChamberForm.generator(6)
    assert lie_derivative(4, ChamberForm.generator(6), FRAME) == \
        -2 * ChamberForm.generator(5)


def test_lie_derivative_commutes_with_d():
    form = W * ChamberForm.blade(4, 7) + S * ChamberForm.blade(5, 6)
    for slot in (1, 4, 6):
        lhs = lie_derivative(slot, maurer_cartan_d(form, FRAME), FRAME)
        rhs = maurer_cartan_d(lie_derivative(slot, form, FRAME), FRAME)
        assert lhs == rhs


def test_lie_derivative_is_cartan_formula():
    form = S * ChamberForm.blade(4, 5) + W * ChamberForm.blade(7, 8)
    for slot in (4, 5, 9):
        cartan = (contract_generator(slot, maurer_cartan_d(form, FRAME))
                  + maurer_cartan_d(contract_generator(slot, form), FRAME))
        assert lie_derivative(slot, form, FRAME) == cartan


def test_coframe_names():
    assert COFRAME_NAMES[0] == "ds"
    assert COFRAME_NAMES[4] == "A4"
    assert COFRAME_NAMES[7] == "X1"
    assert N_COFRAME == 11
