"""The Cayley 4-form, its stabilizer, and the 1+7+27+35 decomposition.

The form itself is rebuilt here by an independent expansion of
(e¹+ie²)∧(e³+ie⁴)∧(e⁵+ie⁶)∧(e⁷+ie⁸) using a local sign convention
(inversion counting on index sequences), so the fourteen signed terms are
cross-checked against a second derivation rather than copied.
"""

import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from spin7lab.cayley import (DecompositionProjectors, FormOperator,
                             _matchings, build_omega, image_dimension,
                             pair_contraction_cube, perturb_rank_one,
                             projectors, skew_perturbation, sl8_basis,
                             so8_basis, stabilizer_algebra)
from spin7lab.exterior import linalg
from spin7lab.exterior.endo import Endo, exp_nilpotent, pullback, rho
from spin7lab.exterior.blades import BLADES
from spin7lab.exterior.forms import (KForm, Vector, _wedged, hodge_star,
                                     inner, wedge)
from spin7lab.exterior.linalg import rank
from spin7lab.exterior.scalars import FieldScalar, Q
from spin7lab.sampling import (random_form, random_independent_pair,
                               random_orthogonal_pair,
                               random_rank_one_nilpotent)

from _oracles import (commutator, count_calls, flatten, gram_p7, is_skew,
                      old_pair_contraction_cube, trace)
from _strategies import coefficient_families, mixed_forms

OMEGA = build_omega().omega
VOL = KForm.from_terms(8, [((1, 2, 3, 4, 5, 6, 7, 8), 1)])


def seeded(name: str) -> random.Random:
    return random.Random(f"test-cayley:{name}")


# -- independent reconstruction of the form -----------------------------------

def _inversion_sign(seq):
    inv = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
              if seq[i] > seq[j])
    return -1 if inv & 1 else 1


def _expand_re_beta():
    """Re[(e1+ie2)(e3+ie4)(e5+ie6)(e7+ie8)] by binary expansion."""
    pairs = [(1, 2), (3, 4), (5, 6), (7, 8)]
    terms = {}
    for picks in product((0, 1), repeat=4):
        n_imag = sum(picks)
        if n_imag % 2:  # imaginary part; dropped by Re
            continue
        sign = -1 if n_imag == 2 else 1  # i^2 = -1, i^4 = +1
        indices = tuple(pairs[k][p] for k, p in enumerate(picks))
        terms[tuple(sorted(indices))] = sign * _inversion_sign(indices)
    return terms


def _expand_alpha_squared_half():
    """(e12+e34+e56+e78)² / 2: the six cross terms, all +1."""
    pairs = [(1, 2), (3, 4), (5, 6), (7, 8)]
    return {tuple(sorted(p + q)): _inversion_sign(p + q)
            for p, q in combinations(pairs, 2)}


def test_omega_matches_independent_expansion():
    expected = dict(_expand_alpha_squared_half())
    for idx, coeff in _expand_re_beta().items():
        expected[idx] = expected.get(idx, 0) + coeff
    got = {idx: c for idx, c in OMEGA.terms()}
    assert got == {idx: FieldScalar(c) for idx, c in expected.items()}
    assert len(got) == 14
    assert all(c == FieldScalar(1) or c == FieldScalar(-1)
               for c in got.values())


def test_omega_splits_into_its_two_layers():
    s = build_omega()
    assert s.omega == s.alpha2 + s.re_beta
    assert len(s.alpha2.mask_items()) == 6 and len(s.re_beta.mask_items()) == 8
    assert inner(s.alpha2, s.re_beta) == FieldScalar(0)


def test_omega_normalization():
    assert inner(OMEGA, OMEGA) == FieldScalar(14)
    assert hodge_star(OMEGA) == OMEGA
    assert wedge(OMEGA, OMEGA) == 14 * VOL


# -- the stabilizer ---------------------------------------------------------

def test_stabilizer_dimension_and_membership():
    basis = stabilizer_algebra()
    assert len(basis) == 21
    for a in basis:
        assert not rho(a, OMEGA)
        assert is_skew(a)
    flat = [flatten(a) for a in basis]
    assert rank(flat) == 21


def test_stabilizer_is_closed_under_bracket():
    basis = stabilizer_algebra()
    flat = [flatten(a) for a in basis]
    rng = seeded("bracket")
    for _ in range(8):
        a, b = rng.choice(basis), rng.choice(basis)
        assert rank(flat + [flatten(commutator(a, b))]) == 21


def test_orbit_dimensions():
    assert len(sl8_basis()) == 63
    assert len(so8_basis()) == 28
    assert all(not trace(a) for a in sl8_basis())
    assert all(is_skew(a) for a in so8_basis())
    assert image_dimension(sl8_basis()) == 42
    assert image_dimension(so8_basis()) == 7


def test_orbit_dimension_counts_stabilizer():
    # rank of ρ(·)Ω on sl(8) = 63 - dim(stabilizer ∩ sl(8)); the stabilizer
    # is skew hence traceless, so the full 21 dimensions sit inside sl(8)
    assert 63 - image_dimension(sl8_basis()) == 21


# -- the four projectors -------------------------------------------------------

def test_projector_ranks_and_resolution():
    ps = projectors()
    assert ps.ranks() == (1, 7, 27, 35)
    assert ps.is_resolution()


def test_resolution_rejects_a_non_idempotent_split_of_the_identity():
    # 2p1 + p7 + (p27 - p1) + p35 still sums to I, but 2p1 is not idempotent
    ps = projectors()
    doubled = FormOperator(4, [{m: 2 * c for m, c in img.items()}
                               for img in ps.p1.images])
    bad = DecompositionProjectors(p1=doubled, p7=ps.p7, p27=ps.p27 - ps.p1,
                                  p35=ps.p35)
    assert sum(bad.all()[1:], bad.p1) == FormOperator.identity(4)
    assert not bad.is_resolution()


def test_projector_action_on_omega():
    ps = projectors()
    assert ps.p1(OMEGA) == OMEGA
    for p in (ps.p7, ps.p27, ps.p35):
        assert not p(OMEGA)


def test_p1_is_inner_projection_onto_omega_line():
    ps = projectors()
    rng = seeded("p1")
    for _ in range(5):
        x = random_form(rng, 4)
        assert ps.p1(x) == (inner(x, OMEGA) / 14) * OMEGA


def test_star_eigenvalues_of_projector_images():
    ps = projectors()
    rng = seeded("star")
    for _ in range(5):
        x = random_form(rng, 4) + OMEGA  # make sure the p1 part is nonzero
        assert hodge_star(ps.p1(x)) == ps.p1(x)
        assert hodge_star(ps.p7(x)) == ps.p7(x)
        assert hodge_star(ps.p27(x)) == ps.p27(x)
        assert hodge_star(ps.p35(x)) == -ps.p35(x)


def test_projector_images_are_inner_orthogonal():
    ps = projectors()
    rng = seeded("orthogonal")
    x, y = random_form(rng, 4), random_form(rng, 4)
    blocks = [p(x) for p in ps.all()]
    other = [p(y) for p in ps.all()]
    for i, bi in enumerate(blocks):
        for j, oj in enumerate(other):
            if i != j:
                assert inner(bi, oj) == FieldScalar(0)


def test_p7_is_the_gram_projection_and_is_built_without_elimination(
        monkeypatch):
    # Schur's lemma gives p7 as Σ T⟨T, ·⟩/32 over the 28 images T of
    # so8_basis(); the oracle projects orthogonally onto their span by the
    # Gram normal equations, eliminating in the field only
    def refused(*args, **kwargs):
        raise AssertionError("projectors() reached linalg")

    for name in (*linalg.__all__, "_integer_rref"):
        monkeypatch.setattr(linalg, name, refused)
    built = projectors.__wrapped__()
    assert built.p7 == gram_p7()
    monkeypatch.undo()
    assert built.p7 == projectors().p7
    assert built.ranks() == (1, 7, 27, 35)


def test_p7_image_is_rho_of_skew():
    # Λ⁴₇ = ρ(so(8))Ω: the p7 projector lands in the skew orbit directions
    ps = projectors()
    rng = seeded("p7-skew")
    v, w = random_orthogonal_pair(rng)
    skew = Endo.tensor(w, v.flat()) - Endo.tensor(v, w.flat())
    delta = rho(skew, OMEGA)
    assert ps.p7(delta) == delta


# -- contraction cube and rank-one perturbations ---------------------------------

def test_contraction_cube_basis_value():
    cube = pair_contraction_cube(Vector.basis(7), Vector.basis(8), OMEGA)
    assert cube == KForm.from_terms(6, [((1, 2, 3, 4, 5, 6), -6)])


def test_contraction_cube_cubic_scaling():
    rng = seeded("cube-scaling")
    u, v = random_orthogonal_pair(rng)
    lam, mu = FieldScalar(Q(3, 2)), FieldScalar(-2)
    scaled = pair_contraction_cube(lam * u, mu * v, OMEGA)
    assert scaled == (lam ** 3 * mu ** 3) * \
        pair_contraction_cube(u, v, OMEGA)


def test_contraction_cube_is_antisymmetric_under_swap():
    rng = seeded("cube-swap")
    u, v = random_orthogonal_pair(rng)
    # q = u⌟v⌟Ω flips sign under the swap, so the cube flips too
    assert pair_contraction_cube(v, u, OMEGA) == \
        -pair_contraction_cube(u, v, OMEGA)


_family_vectors = st.sampled_from(coefficient_families).flatmap(
    lambda c: st.lists(c, min_size=8, max_size=8)).map(Vector)


@settings(max_examples=40, deadline=None)
@given(_family_vectors, _family_vectors, mixed_forms(4, 10))
def test_contraction_cube_matches_contract_and_wedge(u, v, a):
    # ints and non-integer rationals in each of u, v and a
    assert pair_contraction_cube(u, v, a) == old_pair_contraction_cube(u, v, a)


def test_contraction_cube_is_taken_of_four_forms_only():
    u, v = Vector.basis(1), Vector.basis(2)
    for a in (KForm.from_terms(2, [((1, 2), 1)]),
              KForm.from_terms(3, [((1, 2, 3), 1)])):
        with pytest.raises(ValueError):
            pair_contraction_cube(u, v, a)


def test_each_matching_sign_is_the_wedge_of_its_two_blades():
    table = _matchings()
    assert [m for m, _ in table] == list(BLADES[6])
    for m, matchings in table:
        assert len({frozenset(pairs) for _sign, *pairs in matchings}) == 15
        for sign, x, y, z in matchings:
            assert x | y | z == m and all(b.bit_count() == 2 for b in (x, y, z))
            assert _wedged({x: 1}, _wedged({y: 1}, {z: 1})) == {m: sign}


def test_contraction_cube_of_omega_matches_contract_and_wedge():
    rng = seeded("cube-oracle")
    for _ in range(10):
        u, v = (Vector([Q(rng.randint(-9, 9), rng.choice([1, 2, 3, 5, 7]))
                        for _ in range(8)]) for _ in range(2))
        assert pair_contraction_cube(u, v, OMEGA) == \
            old_pair_contraction_cube(u, v, OMEGA)


def test_rational_contraction_cube_multiplies_no_field_scalars(monkeypatch):
    u = Vector([Q(1, 2), 0, Q(-3, 5), 1, 0, 2, Q(1, 7), 0])
    v = Vector([0, Q(2, 3), 1, 0, Q(-1, 4), 0, 3, 1])
    calls = count_calls(monkeypatch, "__mul__")
    cube = pair_contraction_cube(u, v, OMEGA)
    assert calls == {"__mul__": 0}
    monkeypatch.undo()
    assert cube and cube == old_pair_contraction_cube(u, v, OMEGA)


def test_rational_cayley_identities_make_no_field_scalar_arithmetic(
        monkeypatch):
    # the four identities of the rank-one sweep, on inputs drawn (and
    # projectors built) before counting: ρ, the projections, exp, the Λ⁴
    # pullback, Ω + t·ρ(A)Ω and every comparison stay on int views
    ps = projectors()
    rng = seeded("field-free-identities")
    samples = [(random_rank_one_nilpotent(rng), random_form(rng, 4),
                random_independent_pair(rng)) for _ in range(3)]
    calls = count_calls(monkeypatch, "__mul__", "__add__", "__radd__",
                        "inverse")
    for a, form, (u, v) in samples:
        delta = rho(a, OMEGA)
        assert not ps.p1(delta) and not ps.p27(delta)
        assert not rho(a, rho(a, form))
        for t in (1, -3, Q(5, 7)):
            assert pullback(exp_nilpotent(t * a), OMEGA) == OMEGA + t * delta
        assert pair_contraction_cube(u, v, OMEGA)
    assert calls == dict.fromkeys(("__mul__", "__add__", "__radd__",
                                   "inverse"), 0)


def test_perturbation_requires_orthogonality():
    with pytest.raises(ValueError):
        perturb_rank_one(Vector.basis(1), Vector.basis(1), 1)


def test_perturbation_is_affine_in_t():
    rng = seeded("affine")
    v, w = random_orthogonal_pair(rng)
    base = perturb_rank_one(v, w, 0)
    assert base == OMEGA
    step = perturb_rank_one(v, w, 1) - OMEGA
    assert perturb_rank_one(v, w, "5/7") == OMEGA + FieldScalar.of("5/7") * step
    assert step == rho(Endo.tensor(w, v.flat()), OMEGA)


def test_rank_one_direction_avoids_1_and_27():
    ps = projectors()
    rng = seeded("module")
    for _ in range(10):
        a = random_rank_one_nilpotent(rng)
        delta = rho(a, OMEGA)
        assert not ps.p1(delta)
        assert not ps.p27(delta)
        assert delta == ps.p7(delta) + ps.p35(delta)


def test_skew_perturbation_is_pure_type_seven():
    ps = projectors()
    rng = seeded("skew")
    for _ in range(10):
        v, w = random_orthogonal_pair(rng)
        delta = skew_perturbation(v, w)
        assert delta == ps.p7(delta)
        assert not ps.p1(delta) and not ps.p27(delta) and not ps.p35(delta)


def test_skew_perturbation_is_rho_of_the_skew_part():
    rng = seeded("skew-rho")
    v, w = random_orthogonal_pair(rng)
    skew = Endo.tensor(w, v.flat()) - Endo.tensor(v, w.flat())
    assert skew_perturbation(v, w) == rho(skew, OMEGA)
