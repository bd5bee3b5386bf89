"""Field axioms and Galois structure of the Q(sqrt2, sqrt3) scalars, and
the numerator view of rational coefficients, which refuses a surd and so
keeps every exact type of the engine over Q."""

import ast
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import spin7lab
from spin7lab.exterior import linalg
from spin7lab.exterior.endo import Endo
from spin7lab.exterior.forms import FormOperator, KForm
from spin7lab.exterior.scalars import (ONE, SQRT2, SQRT3, SQRT6, ZERO,
                                       FieldScalar, Q, from_numerators,
                                       to_numerators)
from spin7lab.invariant.chamber import ChamberForm, ChamberScalar
from spin7lab.invariant.liealg import build_orthonormal_frame

from _oracles import conj_sqrt2, conj_sqrt3
from _strategies import field_scalars, nonzero_field_scalars, surds


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


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


@given(field_scalars, field_scalars)
def test_galois_conjugations_are_ring_maps(x, y):
    for conj in (conj_sqrt2, conj_sqrt3):
        assert conj(x + y) == conj(x) + conj(y)
        assert conj(x * y) == conj(x) * conj(y)
        assert conj(conj(x)) == x


@given(field_scalars)
def test_trace_over_galois_group_is_rational(x):
    trace = (x + conj_sqrt2(x) + conj_sqrt3(x)
             + conj_sqrt3(conj_sqrt2(x)))
    assert trace.is_rational()
    assert trace == FieldScalar(4 * x.quadruple()[0])


def test_known_square():
    # (sqrt2 + sqrt3)^2 = 5 + 2 sqrt6, reached by two different routes
    lhs = (SQRT2 + SQRT3) * (SQRT2 + SQRT3)
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
    assert FieldScalar("3/4") == Q(3, 4)
    assert FieldScalar(" 3 / 4 ") == Q(3, 4)
    assert FieldScalar.of("5/7") == FieldScalar(Q(5, 7))
    x = FieldScalar(Q(1, 2), -3, Q(7, 5), 0)
    assert FieldScalar(*x.quadruple()) == x
    assert FieldScalar("1/2", "-3", "7/5", "0") == x
    with pytest.raises(TypeError):
        FieldScalar.of(1.5)


def test_a_zero_denominator_is_a_value_error():
    for text in ("3/0", " 3 / 0 ", "0/0"):
        with pytest.raises(ValueError, match="zero denominator"):
            FieldScalar(text)
    with pytest.raises(ValueError, match="zero denominator"):
        FieldScalar(1, "1/0")


def test_rationality_predicates():
    assert FieldScalar(Q(2, 3)).is_rational()
    assert FieldScalar(Q(2, 3)).quadruple() == (Q(2, 3), 0, 0, 0)
    assert FieldScalar(Q(2, 3)).is_positive_rational()
    assert not FieldScalar(-1).is_positive_rational()
    assert not SQRT2.is_rational()
    assert not SQRT2.is_positive_rational()


def test_display():
    # a rational prints as str(Q) does, which the reports read
    assert str(ZERO) == "0"
    assert str(FieldScalar(Q(-2, 3))) == str(Q(-2, 3)) == "-2/3"
    # a surd prints as its repr
    for x in (ONE + SQRT2, ONE - SQRT3, FieldScalar(0, 0, 0, Q(-2, 3))):
        assert str(x) == repr(x)
    assert str(ONE + SQRT2) == "FieldScalar(1, 1, 0, 0)"


def test_floats_are_refused():
    for bad in (0.1, 1.0, 1j, complex(2, 0)):
        with pytest.raises(TypeError):
            FieldScalar(bad)
        with pytest.raises(TypeError):
            FieldScalar(0, 0, bad)
        with pytest.raises(TypeError):
            FieldScalar.of(bad)
        with pytest.raises(TypeError):
            ONE * bad
        with pytest.raises(TypeError):
            bad + ONE


# -- differential test against plain Fraction quadruples ------------------------

def _ref_mul(x, y):
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    return (a1 * a2 + 2 * b1 * b2 + 3 * c1 * c2 + 6 * d1 * d2,
            a1 * b2 + b1 * a2 + 3 * (c1 * d2 + d1 * c2),
            a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2),
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2)


def _ref_inverse(x):
    a, b, c, d = x
    conj2 = (a, -b, c, -d)
    pa, pb, pc, pd = _ref_mul(x, conj2)        # lands in Q(sqrt3)
    norm = pa * pa - 3 * pc * pc
    return tuple(n / norm for n in _ref_mul(conj2, (pa, pb, -pc, -pd)))


def _assert_canonical(x):
    parts = (x._a, x._b, x._c, x._d, x._den)
    assert all(type(p) is int for p in parts)
    assert x._den > 0
    assert gcd(*parts) == 1


_wide = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)
_part = st.one_of(st.just(Fraction(0)), st.integers(-9, 9).map(Fraction), _wide)
_quadruples = st.tuples(_part, _part, _part, _part)


@settings(max_examples=200)
@given(_quadruples, _quadruples)
def test_arithmetic_matches_fraction_quadruples(p, r):
    x, y = FieldScalar(*p), FieldScalar(*r)
    for z in (x, y):
        _assert_canonical(z)
    assert x.quadruple() == p
    expected = {
        "+": tuple(u + v for u, v in zip(p, r)),
        "-": tuple(u - v for u, v in zip(p, r)),
        "*": _ref_mul(p, r),
        "neg": tuple(-u for u in p),
    }
    got = {"+": x + y, "-": x - y, "*": x * y, "neg": -x}
    if any(r):
        expected["inv"] = _ref_inverse(r)
        got["inv"] = y.inverse()
    for op, z in got.items():
        _assert_canonical(z)
        assert z.quadruple() == expected[op], op
        assert all(type(q) is Fraction for q in z.quadruple())
        assert z.to_record() == dict(zip("abcd", map(str, expected[op])))
    assert (x == y) == (p == r)
    if p == r:
        assert hash(x) == hash(y)
    if not any(p[1:]):
        assert x == p[0] and hash(x) == hash(p[0])


# -- the numerator view -----------------------------------------------------------

_view_entries = st.one_of(st.just(0), st.integers(-9, 9),
                          st.fractions(min_value=-9, max_value=9,
                                       max_denominator=12))
_raw_maps = st.one_of(
    st.dictionaries(st.integers(0, 20), _view_entries, max_size=6),
    st.lists(_view_entries, max_size=8))


def _items(m):
    return m.items() if isinstance(m, dict) else enumerate(m)


@settings(max_examples=150)
@given(st.lists(_raw_maps, max_size=4))
def test_numerator_view_round_trips_rational_maps_and_rows(raw):
    # term maps and dense rows of ints, Fractions of mixed denominators and
    # zeros
    maps = [{k: FieldScalar.of(x) for k, x in m.items()} if isinstance(m, dict)
            else [FieldScalar.of(x) for x in m] for m in raw]
    den, views = to_numerators(maps)
    assert den == lcm(1, *(Fraction(x).denominator
                           for m in raw for _, x in _items(m)))
    assert len(views) == len(maps)
    for m, view in zip(raw, views):
        nonzero = {k: Fraction(x) for k, x in _items(m) if x}
        assert all(type(n) is int and n for n in view.values())
        assert {k: Fraction(n, den) for k, n in view.items()} == nonzero
        back = from_numerators(view, den)
        assert all(type(x) is FieldScalar for x in back.values())
        assert back == {k: FieldScalar(x) for k, x in nonzero.items()}


@settings(max_examples=100)
@given(st.lists(_view_entries, max_size=6), st.integers(0, 6), surds)
def test_numerator_view_refuses_a_surd_in_any_map_or_row(entries, at, surd):
    rational_map = {k: FieldScalar.of(x) for k, x in enumerate(entries)}
    surd_map = dict(rational_map)
    surd_map[at] = surd
    for maps in ([rational_map, surd_map], [list(surd_map.values())],
                 [surd_map, rational_map]):
        with pytest.raises(ValueError, match="surd"):
            to_numerators(maps)


# every exact type of the engine holds an int view, so each refuses a surd
_SURD_BUILDS = {
    "KForm": lambda: KForm(2, {0b11: 1, 0b101: SQRT2}),
    "Endo": lambda: Endo([[SQRT3 if i == j else 0 for j in range(8)]
                          for i in range(8)]),
    "FormOperator": lambda: FormOperator(1, [{1: ONE}, {1: ONE, 2: SQRT2}]),
    "ChamberScalar.of": lambda: ChamberScalar.of(ONE + SQRT6),
    "ChamberScalar.monomial": lambda: ChamberScalar.monomial(SQRT2, 1, -7),
    "ChamberForm": lambda: ChamberForm(1, {1 << 3: SQRT2}),
    "SQRT2 * form": lambda: SQRT2 * KForm(1, {1: 1}),
    "linalg.rank": lambda: linalg.rank([[ONE, SQRT2], [SQRT3, ONE]]),
    "orthonormal maurer_cartan_table":
        lambda: build_orthonormal_frame().maurer_cartan_table,
}


@pytest.mark.parametrize("build", _SURD_BUILDS.values(), ids=_SURD_BUILDS)
def test_the_engine_refuses_a_surd(build):
    with pytest.raises(ValueError, match="surd"):
        build()


def test_only_scalars_reads_the_private_slots_of_a_field_scalar():
    # the numerator view is the one place that looks inside a scalar
    package = Path(spin7lab.__file__).parent
    slots = set(FieldScalar.__slots__)
    readers = []
    for path in sorted(package.rglob("*.py")):
        if path == package / "exterior" / "scalars.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        readers += [f"{path.relative_to(package)}:{node.lineno} .{node.attr}"
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr in slots]
    assert readers == []
