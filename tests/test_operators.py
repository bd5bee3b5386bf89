"""FormOperator and ρ against the per-blade code they replaced.

The oracles are that code, kept in ``_oracles.py`` and below: ``rho``
applied term by term, ρ(A) built blade by blade and slot by slot from A's
columns, the images of the basis blades computed one ``rho`` call at a
time, a dense coefficient matrix with one row per occurring blade, its
kernel by Gauss–Jordan in the field (``field_nullspace``), and ``apply``
as a running sum ``out = out + c * image``.  ``rho_operator`` (in
``_oracles.py``) wraps ``rho_images``, the images of all basis blades
from every (entry, blade) pair of A, as a FormOperator of FieldScalar
images; ``images_rho`` sums those images for one form, the way ``rho``
did before it walked each blade's slots down A's columns.  The operators cover
integer Jordan representatives (integer values) and rank-one nilpotents
with non-integer rational entries, over denominators up to 5 or over the
primes 3, 7 and 11; ρ itself also runs on diagonal, sparse and dense
matrices of every coefficient family.  ``apply``, ``@``, ``+`` and ``-``,
which read the images through their numerator view, are checked against
the FieldScalar code they replaced (``old_operator_*``) on random
operators with integer and rational images.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from spin7lab.cayley import (build_omega, image_dimension, projectors,
                             sl8_basis, so8_basis)
from spin7lab.classify import enumerate_diagrams, representative
from spin7lab.exterior.blades import BLADE_POSITION, BLADES
from spin7lab.exterior.endo import Endo, rho
from spin7lab.exterior import forms as forms_module
from spin7lab.exterior.forms import FormOperator, KForm, inner
from spin7lab.exterior.scalars import ONE, ZERO, FieldScalar, Q, to_numerators
from spin7lab.sampling import random_rank_one_nilpotent

from _oracles import (coefficient_matrix, count_calls, count_function_calls,
                      diagonal, field_nullspace, images_rho,
                      nullspace_on_forms, operator_kernel,
                      old_operator_apply,
                      old_operator_product, old_operator_sum, old_rho,
                      old_rho_operator, rho_operator)
from _strategies import (coefficient_families, entry_families, forms,
                         mixed_endos, mixed_forms, seeded_entry, sparse_endos)


# -- the old per-blade path, kept as the oracle ---------------------------------

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
_prime_denominators = st.sampled_from([ZERO, ONE, -ONE, FieldScalar(Q(2, 7)),
                                      FieldScalar(Q(-5, 11)),
                                      FieldScalar(Q(4, 3))])


def rank_one_nilpotents(entries):
    """w ⊗ v♭ with <v, w> = 0 exactly, w made orthogonal to v."""
    def build(v, raw):
        w = inner(v, v) * raw - inner(v, raw) * v
        return Endo.tensor(w, v)

    vecs = st.lists(entries, min_size=8, max_size=8).map(KForm.vector)
    return st.builds(build, vecs.filter(bool), vecs).filter(bool)


def _non_integer(a):
    return any(x.quadruple()[0].denominator != 1 for row in a.rows for x in row)


rational_nilpotents = rank_one_nilpotents(_rationals).filter(_non_integer)
prime_denominator_nilpotents = rank_one_nilpotents(
    _prime_denominators).filter(_non_integer)
matrices = st.one_of(jordan_matrices, rational_nilpotents,
                     prime_denominator_nilpotents)


# -- ρ(A) as an operator --------------------------------------------------------

@settings(max_examples=20)
@given(matrices, st.sampled_from([2, 4]))
def test_rho_operator_matches_rho_per_blade(a, degree):
    op = rho_operator(a, degree)
    assert len(op.images) == len(BLADES[degree])
    for m, image in zip(BLADES[degree], as_forms(op)):
        assert image == old_rho(a, KForm(degree, {m: ONE}))


diagonal_endos = st.sampled_from(coefficient_families).flatmap(
    lambda coeffs: st.lists(coeffs, min_size=8, max_size=8)).map(
        lambda entries: diagonal(*entries))


@settings(max_examples=60)
@given(st.one_of(diagonal_endos, sparse_endos, mixed_endos), st.integers(1, 4))
def test_rho_operator_matches_the_slot_by_slot_code(a, degree):
    expected = [old_rho(a, KForm(degree, {m: ONE})) for m in BLADES[degree]]
    assert as_forms(rho_operator(a, degree)) == expected
    assert as_forms(old_rho_operator(a, degree)) == expected


@settings(max_examples=80)
@given(st.one_of(diagonal_endos, sparse_endos, mixed_endos),
       st.integers(0, 8).flatmap(lambda k: mixed_forms(k, 8)))
def test_rho_matches_the_summed_blade_images(a, x):
    # diagonal, sparse and dense A, and forms of every degree, each with
    # integer or non-integer rational coefficients
    assert rho(a, x) == images_rho(a, x)


def test_diagonal_matrices_scale_each_blade_by_its_diagonal_sum():
    entries = [1, -1, 2, 0, 3, -3, 5, Q(1, 2)]
    a = diagonal(*entries)
    for degree in range(1, 5):
        for m, image in zip(BLADES[degree], as_forms(rho_operator(a, degree))):
            total = sum(FieldScalar.of(x) for p, x in enumerate(entries)
                        if m >> p & 1)
            # e^{12}, e^{56} and e^{1256} sum to zero and have no image
            assert image == KForm(degree, {m: total})


@settings(max_examples=60)
@given(entry_families, entry_families, st.integers(0, 8),
       st.randoms(use_true_random=True))
def test_rho_matches_the_oracle(a_family, x_family, degree, rng):
    # about half of the entries of A are zero
    a = Endo([[seeded_entry[a_family](rng) if rng.random() < 0.5 else 0
               for _ in range(8)] for _ in range(8)])
    masks = BLADES[degree]
    x = KForm(degree, {m: FieldScalar.of(seeded_entry[x_family](rng))
                       for m in rng.sample(masks, min(5, len(masks)))})
    assert rho(a, x) == old_rho(a, x)


def test_rational_rho_multiplies_no_field_scalars(monkeypatch):
    a = Endo([[Q((3 * i - 5 * j) % 7 - 3, 1 + (i + j) % 4) for j in range(8)]
              for i in range(8)])
    x = KForm(4, {m: FieldScalar(Q(k - 20, 3)) for k, m
                  in enumerate(BLADES[4]) if k % 3})
    calls = count_calls(monkeypatch, "__mul__")
    out = rho(a, x)
    assert calls == {"__mul__": 0}
    monkeypatch.undo()
    assert out and out == old_rho(a, x)


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
    assert p - p == FormOperator(2, [{}] * len(BLADES[2])) and not p - p


def random_operator(family, degree, rng):
    """Up to four FieldScalar terms per image, drawn from the family."""
    masks = BLADES[degree]
    images = []
    for _ in masks:
        image = {m: FieldScalar.of(seeded_entry[family](rng))
                 for m in rng.sample(masks, rng.randint(0, 4))}
        images.append({m: x for m, x in image.items() if x})
    return FormOperator(degree, images)


@settings(max_examples=40)
@given(entry_families, entry_families, st.sampled_from([2, 4]),
       st.randoms(use_true_random=True))
def test_numerator_view_matches_the_field_scalar_path(p_family, q_family,
                                                      degree, rng):
    p = random_operator(p_family, degree, rng)
    q = random_operator(q_family, degree, rng)
    x = KForm(degree, {m: FieldScalar.of(seeded_entry[q_family](rng))
                       for m in rng.sample(BLADES[degree], 5)})
    assert p.apply(x) == old_operator_apply(p, x)
    product, total, difference = p @ q, p + q, p - q
    assert product == old_operator_product(p, q)
    assert total == old_operator_sum(p, q)
    assert difference == old_operator_sum(p, q, -1)
    # results are read through their own views in turn
    assert difference @ p == old_operator_product(old_operator_sum(p, q, -1),
                                                  p)
    assert total(x) == old_operator_apply(old_operator_sum(p, q), x)
    assert all(type(c) is FieldScalar for op in (product, total, difference)
               for img in op.images for c in img.values())


def test_projectors_compose_and_apply_without_field_products(monkeypatch):
    ps, omega = projectors(), build_omega().omega
    a = FieldScalar(Q(5, 7)) * random_rank_one_nilpotent(
        random.Random("test-operators:spy"))
    calls = count_calls(monkeypatch, "__mul__")
    resolved = ps.is_resolution()
    image = ps.p27(rho(a, omega))
    assert calls == {"__mul__": 0}
    monkeypatch.undo()
    assert resolved and not image and a


def test_projector_products_match_image_by_image_apply():
    ps = projectors()
    for p, q in ((ps.p7, ps.p7), (ps.p27, ps.p35), (ps.p1, ps.p27)):
        assert as_forms(p @ q) == [old_apply(as_forms(p), img)
                                   for img in as_forms(q)]


def test_projector_square_compares_without_dividing(monkeypatch):
    # == cross-multiplies the two numerator views; neither is divided
    p7 = projectors().p7
    calls = []
    original = forms_module.from_numerators
    monkeypatch.setattr(forms_module, "from_numerators",
                        lambda *args: calls.append(args) or original(*args))
    square = p7 @ p7
    assert square == p7 and p7 == square and hash(square) == hash(p7)
    assert square != 2 * p7 and square != p7 - p7
    assert calls == []


@settings(max_examples=40)
@given(entry_families, st.sampled_from([2, 4]), st.integers(2, 9),
       st.randoms(use_true_random=True))
def test_equality_cross_multiplies_views_in_any_terms(
        family, degree, k, rng):
    p = random_operator(family, degree, rng)
    den, images = p._denom, p._nums
    image_built = FormOperator(degree, [dict(img) for img in p.images])
    # a view over k·den, not in lowest terms
    scaled_view = FormOperator._of_numerators(
        degree, [{m: k * x for m, x in img.items()} for img in images],
        k * den)
    for op in (image_built, scaled_view, old_operator_sum(p, p, 0)):
        assert op == p and p == op
        assert hash(op) == hash(p)
    assert (k * p == p) == (not p)
    assert p != FormOperator(degree + 1, p.images)


def _scribble(images, degree):
    """Edit what ``images`` returned: one entry set to 5, image 1 emptied."""
    images[0][BLADES[degree][0]] = FieldScalar(5)
    images[1].clear()


def _readout(op):
    out = (op.images, hash(op))
    return out + (op.rows, op.to_record()) if isinstance(op, Endo) else out


@settings(max_examples=20)
@given(entry_families, st.sampled_from([2, 4]),
       st.randoms(use_true_random=True))
def test_editing_what_images_returns_changes_no_operator(family, degree, rng):
    given_images = [dict(img) for img in
                    random_operator(family, degree, rng).images]
    pristine = [dict(img) for img in given_images]
    rows = [[img.get(1 << i, 0) for img in
             random_operator(family, 1, rng).images] for i in range(8)]
    p, a = FormOperator(degree, given_images), Endo(rows)
    _scribble(a.images, 1)  # before a's first operation
    _scribble(given_images, degree)  # the list p was built from
    twin = FormOperator(degree, pristine)
    identity_rows = Endo.identity().rows
    for op, same in ((p, twin), (p @ p, twin @ twin), (a, Endo(rows)),
                     (Endo.identity(), Endo(identity_rows))):
        before = _readout(op)
        assert before == _readout(same) and op == same and same == op
        _scribble(op.images, op.degree)
        assert _readout(op) == before and op == same and same == op


def test_rank_and_kernel_eliminate_the_int_view(monkeypatch):
    # the int rows of the view go straight to linalg: no image is divided
    # into FieldScalars for linalg to view again
    ps = projectors()
    omega = build_omega().omega
    op = FormOperator.of_forms(4, [rho(a, omega) for a in so8_basis()])
    viewed = count_function_calls(monkeypatch, to_numerators)
    divided = count_calls(monkeypatch, "from_ratio")
    assert image_dimension(sl8_basis()) == 42 and ps.ranks() == (1, 7, 27, 35)
    assert (len(viewed), divided["from_ratio"]) == (0, 0)
    kernel = operator_kernel(op)
    assert len(kernel) == 21 and all(vec[max(vec)] == ONE for vec in kernel)
    assert viewed == []


# -- kernels --------------------------------------------------------------------

@settings(max_examples=20)
@given(matrices, st.sampled_from([2, 4]))
def test_kernel_matches_dense_nullspace(a, degree):
    r = rho_operator(a, degree)
    for op in (r, r @ r):
        images = as_forms(op)
        dense = field_nullspace(coefficient_matrix(images), len(images))
        assert [[vec.get(j, ZERO) for j in range(len(images))]
                for vec in operator_kernel(op)] == dense
    assert [KForm(degree, {BLADES[degree][j]: c for j, c in vec.items()})
            for vec in operator_kernel(r @ r)] == nullspace_on_forms(
                lambda b: old_rho(a, old_rho(a, b)), degree)


def test_stabilizer_map_kernel_and_pivots():
    omega = KForm.from_terms(4, [((1, 2, 3, 4), 1)])
    units = [Endo.unit(i, j) for i in range(1, 9) for j in range(1, 9)]
    op = FormOperator.of_forms(4, [rho(a, omega) for a in units])
    kernel = operator_kernel(op)
    # ρ(E(i,j))e^{1234} is nonzero only for j ≤ 4 < i (16 distinct blades)
    # and for i = j ≤ 4 (four times e^{1234}): rank 17
    assert len(kernel) == 64 - 17
    assert op.rank() == 64 - len(kernel)
    for vec in kernel:
        a = Endo([[vec.get(8 * i + j, ZERO) for j in range(8)]
                  for i in range(8)])
        assert not rho(a, omega)


def test_apply_checks_the_degree():
    with pytest.raises(ValueError):
        FormOperator.identity(4).apply(KForm.from_terms(2, [((1, 2), 1)]))
