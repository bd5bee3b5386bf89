"""The sp(2) frame: quaternionic generators, brackets, Killing form, normalizer.

Two normalizations coexist: the connection-scaled frame whose coframe the
cohomogeneity-one formulas are written in, and the Killing-orthonormal frame.
They differ by a constant rescale per block, which the tests pin down.
"""

import random
from itertools import combinations

import pytest

from spin7lab.exterior.linalg import rank
from spin7lab.exterior.scalars import ONE, SQRT3, SQRT6, ZERO, FieldScalar, Q
from spin7lab.invariant import liealg
from spin7lab.invariant.chamber import COFRAME_NAMES
from spin7lab.invariant.liealg import (SP1_MINUS, SP1_PLUS,
                                       LieFrame, Quaternion, QuatMat2,
                                       build_lie_frame,
                                       build_orthonormal_frame,
                                       generator_coords, is_subalgebra,
                                       killing_matrix, normalizer)

from _oracles import (count_calls, is_anti_hermitian, mutated_frame,
                      old_frame_from_scales)

SCALES = {"connection": liealg._CONNECTION_SCALES,
          "orthonormal": liealg._ORTHONORMAL_SCALES}
GENERATOR_NAMES = COFRAME_NAMES[1:]     # A1..A6, X1..X4


ENTRY_TYPES = (int, FieldScalar.of)   # Quaternion parts as ints or FieldScalars


def units(entry):
    """0, 1, i, j, k with parts built by ``entry``."""
    return [Quaternion(*(entry(int(a == b)) for b in range(4)))
            for a in (4, 0, 1, 2, 3)]


def coords(**weights):
    """Coordinate vector from generator names, e.g. coords(A1=1, X4=-2)."""
    out = [ZERO] * len(GENERATOR_NAMES)
    for name, w in weights.items():
        out[GENERATOR_NAMES.index(name)] = FieldScalar.of(w)
    return out


# -- quaternions ---------------------------------------------------------------

def test_quaternion_multiplication_table():
    for entry in ENTRY_TYPES:
        _zero, one, i, j, k = units(entry)
        assert i * i == j * j == k * k == -one
        assert i * j == k and j * k == i and k * i == j
        assert j * i == -k and k * j == -i and i * k == -j


def test_quaternion_conjugation_is_an_antihomomorphism():
    for entry in ENTRY_TYPES:
        p = Quaternion(*map(entry, (1, 2, -1, 3)))
        q = Quaternion(*map(entry, (0, -2, 5, 1)))
        assert (p * q).conjugate() == q.conjugate() * p.conjugate()
        assert (p * p.conjugate()).conjugate() == p * p.conjugate()


def test_quat_mat2_bracket():
    for entry in ENTRY_TYPES:
        zero, one, i, _j, _k = units(entry)
        a = QuatMat2(i, zero, zero, zero)
        b = QuatMat2(zero, one, -one, zero)
        assert a.bracket(b) == (a @ b) - (b @ a)
        assert a.bracket(b) == QuatMat2(zero, i, i, zero)
        assert is_anti_hermitian(a)


def test_int_and_field_quaternions_are_equal_and_hash_alike():
    p = Quaternion(1, 2, -1, 3)
    q = Quaternion(*map(FieldScalar.of, (1, 2, -1, 3)))
    assert p == q and hash(p) == hash(q)
    assert 2 * p == q * FieldScalar(2) == p + p
    assert type((p * p).w) is int and type((q * q).w) is FieldScalar
    m = QuatMat2(p, q, -q, p)
    assert m == QuatMat2(q, p, -p, q) and hash(m) == hash(QuatMat2(q, p, -p, q))


# -- the two frames ------------------------------------------------------------

def test_frame_generators_are_anti_hermitian():
    for scales in SCALES.values():
        matrices, _frame = old_frame_from_scales(*scales)
        assert len(matrices) == len(GENERATOR_NAMES) == 10
        for m in matrices:
            assert is_anti_hermitian(m)


@pytest.mark.parametrize("name", sorted(SCALES))
def test_frames_equal_the_field_scalar_oracle(name):
    frame = liealg._frame_from_scales(*SCALES[name])
    _matrices, old = old_frame_from_scales(*SCALES[name])
    constants = [c for plane in frame.structure for row in plane for c in row]
    expected = [c for plane in old.structure for row in plane for c in row]
    assert len(constants) == 1000 and constants == expected
    assert all(type(c) is FieldScalar for c in constants)
    assert sum(1 for c in constants if c) == 84


@pytest.mark.parametrize("name", sorted(SCALES))
def test_frame_build_scales_only_the_nonzero_constants(monkeypatch, name):
    calls = count_calls(monkeypatch, "__mul__")
    liealg._frame_from_scales(*SCALES[name])
    assert 0 < calls["__mul__"] < 1000


def test_frame_build_guard_rejects_a_bracket_that_does_not_close(monkeypatch):
    decompose = liealg._decompose

    def drop_last(m):
        coords = list(decompose(m))
        nonzero = [k for k, c in enumerate(coords) if c]
        if nonzero:
            coords[nonzero[-1]] = 0
        return tuple(coords)

    monkeypatch.setattr(liealg, "_decompose", drop_last)
    for scales in SCALES.values():
        with pytest.raises(ArithmeticError, match="does not close"):
            liealg._frame_from_scales(*scales)


def test_structure_constants_of_the_connection_frame():
    frame = build_lie_frame()

    def bracket(x, y):
        out = frame.bracket_coords(coords(**{x: 1}), coords(**{y: 1}))
        return {GENERATOR_NAMES[k]: c for k, c in enumerate(out) if c}

    assert bracket("A1", "A2") == {"A3": FieldScalar(2)}
    assert bracket("A4", "A5") == {"A6": FieldScalar(2)}
    assert bracket("A4", "X1") == {"X4": ONE}
    assert bracket("A1", "X1") == {"X4": -ONE}
    assert bracket("X4", "X1") == {"A1": FieldScalar(Q(1, 2)),
                                   "A4": FieldScalar(Q(-1, 2))}
    # the two sp(1) factors commute with each other
    assert bracket("A1", "A4") == {}
    assert bracket("A3", "A6") == {}


def test_jacobi_identity_for_all_triples():
    frame = build_lie_frame()
    basis = [generator_coords(i) for i in range(10)]
    for i, j, k in combinations(range(10), 3):
        x, y, z = basis[i], basis[j], basis[k]
        total = [a + b + c for a, b, c in zip(
            frame.bracket_coords(x, frame.bracket_coords(y, z)),
            frame.bracket_coords(y, frame.bracket_coords(z, x)),
            frame.bracket_coords(z, frame.bracket_coords(x, y)))]
        assert not any(total), (i, j, k)


def test_bracket_is_bilinear_and_antisymmetric():
    frame = build_lie_frame()
    rng = random.Random("test-liealg:bilinear")
    for _ in range(5):
        x = [FieldScalar(rng.randint(-3, 3)) for _ in range(10)]
        y = [FieldScalar(rng.randint(-3, 3)) for _ in range(10)]
        xy = frame.bracket_coords(x, y)
        yx = frame.bracket_coords(y, x)
        assert xy == tuple(-c for c in yx)
        double = frame.bracket_coords([2 * c for c in x], y)
        assert double == tuple(2 * c for c in xy)


def test_killing_form_of_the_connection_frame():
    k = killing_matrix(build_lie_frame())
    expected_diag = [-12] * 6 + [-6] * 4
    for i in range(10):
        for j in range(10):
            want = FieldScalar(expected_diag[i]) if i == j else ZERO
            assert k[i][j] == want


def test_killing_form_of_the_orthonormal_frame():
    k = killing_matrix(build_orthonormal_frame())
    for i in range(10):
        for j in range(10):
            assert k[i][j] == (-ONE if i == j else ZERO)


def test_killing_form_is_ad_invariant():
    frame = build_lie_frame()
    k = killing_matrix(frame)

    def killing(u, v):
        return sum((u[i] * k[i][j] * v[j]
                    for i in range(10) for j in range(10)), ZERO)

    rng = random.Random("test-liealg:ad-invariance")
    for _ in range(5):
        x = [FieldScalar(rng.randint(-2, 2)) for _ in range(10)]
        y = [FieldScalar(rng.randint(-2, 2)) for _ in range(10)]
        z = [FieldScalar(rng.randint(-2, 2)) for _ in range(10)]
        assert killing(frame.bracket_coords(x, y), z) == \
            killing(x, frame.bracket_coords(y, z))


def test_frames_differ_by_block_rescale():
    # generator i of the orthonormal frame is r_i times generator i of the
    # connection frame, so c'_ij^k = c_ij^k·r_i·r_j/r_k
    conn = build_lie_frame()
    orth = build_orthonormal_frame()
    a_ratio = FieldScalar(0, 0, Q(1, 6), 0)       # sqrt3/6 over 1
    x_ratio = FieldScalar(0, 0, 0, Q(1, 6))       # sqrt6/12 over 1/2
    r = (a_ratio,) * 6 + (x_ratio,) * 4
    for i in range(10):
        for j in range(10):
            for k in range(10):
                assert orth.structure[i][j][k] == \
                    conn.structure[i][j][k] * r[i] * r[j] * r[k].inverse()


# -- subalgebras and the normalizer ----------------------------------------------

def test_sp1_blocks_are_subalgebras():
    frame = build_lie_frame()
    plus = [generator_coords(i) for i in SP1_PLUS]
    minus = [generator_coords(i) for i in SP1_MINUS]
    assert is_subalgebra(frame, plus)
    assert is_subalgebra(frame, minus)
    assert is_subalgebra(frame, plus + minus)
    assert is_subalgebra(frame, [])


def test_x_span_is_not_a_subalgebra():
    frame = build_lie_frame()
    xs = [generator_coords(i) for i in range(6, 10)]
    assert not is_subalgebra(frame, xs)
    with pytest.raises(ValueError):
        normalizer(frame, xs)


def test_normalizer_of_the_isotropy_block():
    frame = build_lie_frame()
    minus = [generator_coords(i) for i in SP1_MINUS]
    basis = normalizer(frame, minus)
    assert len(basis) == 6
    # the normalizer is exactly the diagonal block A1..A6: no X component
    for row in basis:
        assert not any(row[6:])
    got = {tuple(1 if c else 0 for c in row) for row in basis}
    expected = {tuple(1 if k == i else 0 for k in range(10)) for i in range(6)}
    assert got == expected


def test_normalizer_of_a_subalgebra_off_the_coordinate_axes():
    # the diagonal sp(1) = span{A1 + A4, A2 + A5, A3 + A6}: its echelon rows
    # have entries off their pivots, which correct every bracket condition;
    # its normalizer adds X4, the off-diagonal 1, which commutes with it
    frame = build_lie_frame()
    diagonal = [[ONE if k in (i, i + 3) else ZERO for k in range(10)]
                for i in range(3)]
    # the same algebra from a basis that is not yet reduced
    mixed = [diagonal[0], [a + b for a, b in zip(diagonal[0], diagonal[1])],
             [a - 2 * b for a, b in zip(diagonal[2], diagonal[1])]]
    expected = diagonal + [generator_coords(9)]
    for basis in (diagonal, mixed):
        assert is_subalgebra(frame, basis)
        assert normalizer(frame, basis) == expected
    for x in expected:
        for h in diagonal:
            assert rank(diagonal + [list(frame.bracket_coords(h, x))]) == 3


def test_normalizer_of_the_zero_algebra_is_everything():
    frame = build_lie_frame()
    assert len(normalizer(frame, [])) == 10


def test_with_structure_substitutes_constants():
    bad = mutated_frame({(0, 1, 2): 5})
    out = bad.bracket_coords(generator_coords(0), generator_coords(1))
    assert out[2] == FieldScalar(5)
    # the original frame is untouched
    assert build_lie_frame().bracket_coords(
        generator_coords(0), generator_coords(1))[2] == FieldScalar(2)
