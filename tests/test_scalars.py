"""Field axioms and Galois structure of the Q(sqrt2, sqrt3) scalars."""

import pytest
from hypothesis import given, strategies as st

from spin7lab.exterior.scalars import (ONE, SQRT2, SQRT3, SQRT6, ZERO,
                                       FieldScalar, Q, rational)

from _strategies import field_scalars, nonzero_field_scalars


def test_surd_multiplication_table():
    assert SQRT2 * SQRT2 == FieldScalar(2)
    assert SQRT3 * SQRT3 == FieldScalar(3)
    assert SQRT6 * SQRT6 == FieldScalar(6)
    assert SQRT2 * SQRT3 == SQRT6
    assert SQRT2 * SQRT6 == 2 * SQRT3
    assert SQRT3 * SQRT6 == 3 * SQRT2


def test_surds_are_distinct_basis_elements():
    # equality is coefficient-wise, so the four basis surds never collide
    assert len({ZERO, ONE, SQRT2, SQRT3, SQRT6}) == 5
    assert not (SQRT2 - SQRT3).is_rational()


@given(field_scalars, field_scalars, field_scalars)
def test_ring_axioms(x, y, z):
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + ZERO == x
    assert x * ONE == x
    assert x - x == ZERO


@given(nonzero_field_scalars)
def test_inverse(x):
    assert x * x.inverse() == ONE
    assert x.inverse().inverse() == x


@given(field_scalars, nonzero_field_scalars)
def test_division(x, y):
    assert (x / y) * y == x
    assert 1 / y == y.inverse()


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


@given(field_scalars, field_scalars)
def test_galois_conjugations_are_ring_maps(x, y):
    for conj in (FieldScalar.conj_sqrt2, FieldScalar.conj_sqrt3):
        assert conj(x + y) == conj(x) + conj(y)
        assert conj(x * y) == conj(x) * conj(y)
        assert conj(conj(x)) == x


@given(field_scalars)
def test_trace_over_galois_group_is_rational(x):
    trace = (x + x.conj_sqrt2() + x.conj_sqrt3()
             + x.conj_sqrt2().conj_sqrt3())
    assert trace.is_rational()
    assert trace == FieldScalar(4 * x.a)


@given(field_scalars)
def test_power_matches_repeated_product(x):
    assert x ** 0 == ONE
    assert x ** 1 == x
    assert x ** 5 == x * x * x * x * x


@given(nonzero_field_scalars)
def test_negative_powers(x):
    assert x ** -2 == x.inverse() * x.inverse()
    assert x ** 3 * x ** -3 == ONE


def test_known_square():
    # (sqrt2 + sqrt3)^2 = 5 + 2 sqrt6, reached by two different routes
    lhs = (SQRT2 + SQRT3) ** 2
    rhs = FieldScalar(5) + 2 * SQRT6
    assert lhs == rhs
    assert hash(lhs) == hash(rhs)


@given(st.one_of(st.integers(-10**6, 10**6),
                 st.fractions(min_value=-99, max_value=99, max_denominator=60)))
def test_rational_scalars_hash_like_their_value(r):
    # equal objects must hash alike, so a set never holds both
    x = FieldScalar(r)
    assert x == r
    assert hash(x) == hash(r)
    assert len({x, r}) == 1


def test_parsing_and_quadruple_round_trip():
    assert rational("3/4") == Q(3, 4)
    assert rational(" 3 / 4 ") == Q(3, 4)
    assert FieldScalar.of("5/7") == FieldScalar(Q(5, 7))
    x = FieldScalar(Q(1, 2), -3, Q(7, 5), 0)
    assert FieldScalar.from_quadruple(x.quadruple()) == x
    assert FieldScalar.from_quadruple(("1/2", "-3", "7/5", "0")) == x
    with pytest.raises(TypeError):
        FieldScalar.of(1.5)


def test_rationality_predicates():
    assert FieldScalar(Q(2, 3)).is_rational()
    assert FieldScalar(Q(2, 3)).rational_value() == Q(2, 3)
    assert FieldScalar(Q(2, 3)).is_positive_rational()
    assert not FieldScalar(-1).is_positive_rational()
    assert not SQRT2.is_rational()
    assert not SQRT2.is_positive_rational()
    with pytest.raises(ValueError):
        SQRT2.rational_value()


def test_display():
    assert str(ZERO) == "0"
    assert str(ONE + SQRT2) == "1 + sqrt2"
    assert str(ONE - SQRT3) == "1 - sqrt3"
    assert str(FieldScalar(0, 0, 0, Q(-2, 3))) == "-2/3*sqrt6"
