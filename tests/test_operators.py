"""FormOperator against the per-blade code it replaced.

The oracles below are that code, kept here: ``rho`` applied term by term,
the images of the basis blades computed one ``rho`` call at a time, a
dense coefficient matrix with one row per occurring blade,
``linalg.nullspace`` on it, and ``apply`` as a running sum
``out = out + c * image``.  The operators cover integer Jordan
representatives (the integer kernel path), rank-one nilpotents with
non-integer rational entries and rank-one nilpotents with surd entries
(the dense ``linalg.echelon`` path).
"""

import pytest
from hypothesis import given, settings, strategies as st

from spin7lab.cayley import projectors
from spin7lab.classify import enumerate_diagrams, representative
from spin7lab.exterior import linalg
from spin7lab.exterior.blades import (BLADE_POSITION, BLADES, contract_sign,
                                      wedge_sign)
from spin7lab.exterior.endo import Endo, rho, rho_operator
from spin7lab.exterior.forms import FormOperator, KForm, Vector
from spin7lab.exterior.scalars import ONE, SQRT2, SQRT3, ZERO, FieldScalar, Q

from _oracles import is_rational
from _strategies import forms


# -- the old per-blade path, kept as the oracle ---------------------------------

def old_rho(a, form):
    """Replace each slot of each blade by its image, one term at a time."""
    acc = {}
    for m, coeff in form.mask_items():
        t = m
        while t:
            low = t & -t
            t ^= low
            p = low.bit_length() - 1
            sub = m ^ low
            s_out = contract_sign(p, m)
            for i, row in enumerate(a.rows):
                bit, entry = 1 << i, row[p]
                if not entry or sub & bit:
                    continue
                term = coeff * entry
                if s_out * wedge_sign(bit, sub) == -1:
                    term = -term
                key = sub | bit
                acc[key] = acc[key] + term if key in acc else term
    return KForm(form.degree, acc)


def coefficient_matrix(images):
    masks = sorted({m for f in images for m, _ in f.mask_items()})
    row_of = {m: i for i, m in enumerate(masks)}
    matrix = [[ZERO] * len(images) for _ in masks]
    for j, f in enumerate(images):
        for m, c in f.mask_items():
            matrix[row_of[m]][j] = c
    return matrix


def nullspace_on_forms(op, degree):
    domain = BLADES[degree]
    images = [op(KForm(degree, {m: ONE})) for m in domain]
    kernel = linalg.nullspace(coefficient_matrix(images), ncols=len(domain))
    return [KForm(degree, dict(zip(domain, vec))) for vec in kernel]


def old_apply(images, form):
    pos = BLADE_POSITION[form.degree]
    out = KForm(form.degree)
    for m, c in form.mask_items():
        out = out + c * images[pos[m]]
    return out


def as_forms(op):
    return [KForm(op.degree, {m: FieldScalar.of(c) for m, c in img.items()})
            for img in op.images]


# -- operands -------------------------------------------------------------------

jordan_matrices = st.sampled_from(enumerate_diagrams()).map(
    lambda d: representative(d).matrix)

_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5).map(
    lambda x: FieldScalar(Q(x.numerator, x.denominator)))
_surds = st.sampled_from([ZERO, ONE, -ONE, SQRT2, -SQRT3, ONE + SQRT2,
                          FieldScalar(Q(1, 3), 0, 1)])


def rank_one_nilpotents(entries):
    """w ⊗ v♭ with <v, w> = 0 exactly, w made orthogonal to v."""
    def build(v, raw):
        w = v.dot(v) * raw - v.dot(raw) * v
        return Endo.tensor(w, v.flat())

    vecs = st.lists(entries, min_size=8, max_size=8).map(Vector)
    return st.builds(build, vecs.filter(bool), vecs).filter(bool)


rational_nilpotents = rank_one_nilpotents(_rationals).filter(
    lambda a: any(x.rational_value().denominator != 1
                  for row in a.rows for x in row))
surd_nilpotents = rank_one_nilpotents(_surds).filter(
    lambda a: not is_rational(a))
matrices = st.one_of(jordan_matrices, rational_nilpotents, surd_nilpotents)


# -- ρ(A) as an operator --------------------------------------------------------

@settings(max_examples=20)
@given(matrices, st.sampled_from([2, 4]))
def test_rho_operator_matches_rho_per_blade(a, degree):
    op = rho_operator(a, degree)
    assert len(op.images) == len(BLADES[degree])
    for m, image in zip(BLADES[degree], as_forms(op)):
        assert image == old_rho(a, KForm(degree, {m: ONE}))


@given(jordan_matrices, st.sampled_from([2, 4]))
def test_integer_matrices_give_integer_operators(a, degree):
    op = rho_operator(a, degree) @ rho_operator(a, degree)
    assert all(type(c) is int for img in op.images for c in img.values())


@settings(max_examples=20)
@given(matrices, forms(4, max_terms=8))
def test_apply_matches_rho_and_the_running_sum(a, x):
    op = rho_operator(a, 4)
    assert op.apply(x) == rho(a, x) == old_rho(a, x)
    assert op.apply(x) == old_apply(as_forms(op), x)
    assert op(x) == op.apply(x)


@settings(max_examples=20)
@given(matrices, matrices, st.sampled_from([2, 4]))
def test_composition_matches_image_by_image_apply(a, b, degree):
    p, q = rho_operator(a, degree), rho_operator(b, degree)
    composed = as_forms(p @ q)
    assert composed == [old_apply(as_forms(p), img) for img in as_forms(q)]
    assert composed == [old_rho(a, old_rho(b, KForm(degree, {m: ONE})))
                        for m in BLADES[degree]]


@settings(max_examples=20)
@given(matrices, matrices, forms(2, max_terms=8))
def test_sums_and_scaling_act_blade_by_blade(a, b, x):
    p, q = rho_operator(a, 2), rho_operator(b, 2)
    assert (p + q)(x) == p(x) + q(x)
    assert (p - q)(x) == p(x) - q(x)
    assert p - p == FormOperator.zero(2)


def test_projector_products_match_image_by_image_apply():
    ps = projectors()
    for p, q in ((ps.p7, ps.p7), (ps.p27, ps.p35), (ps.p1, ps.p27)):
        assert as_forms(p @ q) == [old_apply(as_forms(p), img)
                                   for img in as_forms(q)]


# -- kernels --------------------------------------------------------------------

@settings(max_examples=20)
@given(matrices, st.sampled_from([2, 4]))
def test_kernel_matches_dense_nullspace(a, degree):
    r = rho_operator(a, degree)
    for op in (r, r @ r):
        images = as_forms(op)
        dense = linalg.nullspace(coefficient_matrix(images), ncols=len(images))
        assert [[vec.get(j, ZERO) for j in range(len(images))]
                for vec in op.kernel()] == dense
    assert [KForm(degree, {BLADES[degree][j]: c for j, c in vec.items()})
            for vec in (r @ r).kernel()] == nullspace_on_forms(
                lambda b: old_rho(a, old_rho(a, b)), degree)


def test_integer_kernel_never_builds_a_field_matrix(monkeypatch):
    a = representative(enumerate_diagrams()[0]).matrix
    square = rho_operator(a, 4) @ rho_operator(a, 4)

    def refuse(*args, **kwargs):
        raise AssertionError("an integer operator reached linalg.echelon")

    monkeypatch.setattr(linalg, "echelon", refuse)
    assert len(square.kernel()) == 15  # the (8) row of the classification


def test_stabilizer_map_kernel_and_pivots():
    omega = KForm.blade(1, 2, 3, 4)
    units = [Endo.unit(i, j) for i in range(1, 9) for j in range(1, 9)]
    op = FormOperator.of_forms(4, [rho(a, omega) for a in units])
    kernel = op.kernel()
    # ρ(E(i,j))e^{1234} is nonzero only for j ≤ 4 < i (16 distinct blades)
    # and for i = j ≤ 4 (four times e^{1234}): rank 17
    assert len(kernel) == 64 - 17
    assert op.rank() == len(op.pivots()) == 64 - len(kernel)
    for vec in kernel:
        a = Endo([[vec.get(8 * i + j, ZERO) for j in range(8)]
                  for i in range(8)])
        assert not rho(a, omega)


def test_apply_checks_the_degree():
    with pytest.raises(ValueError):
        FormOperator.identity(4).apply(KForm.blade(1, 2))
