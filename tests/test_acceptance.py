"""Acceptance gate: the eleven headline guarantees of the laboratory.

Each test verifies one guarantee end to end, with the stated sample count
and an explicit wall-clock budget, and prints a single PASS line (visible
under `pytest -s` / `-rA`).  Everything here is exact arithmetic — the
assertions are equalities over Q, never approximate.
"""

import random
import time
from itertools import combinations

from spin7lab.cayley import (build_omega, image_dimension,
                             pair_contraction_cube, projectors,
                             skew_perturbation, sl8_basis, so8_basis,
                             stabilizer_algebra)
from spin7lab.classify import classification_report, enumerate_diagrams
from spin7lab.exterior.endo import exp_nilpotent, pullback, rho
from spin7lab.exterior.forms import KForm, basis_blades, hodge_star
from spin7lab.exterior.scalars import ONE, ZERO, FieldScalar
from spin7lab.harness.checks import QUOTED_CUBE_DISPLAY
from spin7lab.invariant.bryant_salamon import (InvariantField,
                                               build_bryant_salamon,
                                               build_metric,
                                               lemma_invariant_forms,
                                               metric_lie_derivative,
                                               perturbed_form,
                                               proposition_display)
from spin7lab.invariant.chamber import (ChamberForm, ChamberScalar,
                                        lie_derivative, maurer_cartan_d)
from spin7lab.invariant.liealg import (N_GENERATORS, SP1_PLUS,
                                       build_lie_frame, normalizer)
from spin7lab.sampling import (random_even_scalar, random_form,
                               random_independent_pair,
                               random_rank_one_nilpotent)


def _rng(name):
    return random.Random(f"acceptance:{name}")


def _pass(label, elapsed, budget):
    assert elapsed < budget, (
        f"{label} took {elapsed:.1f}s, over the {budget:.0f}s budget")
    print(f"PASS {label}: {elapsed:.2f}s (budget {budget:.0f}s)")


def test_01_stabilizer_and_orbit_dimensions():
    started = time.perf_counter()
    assert len(stabilizer_algebra()) == 21
    assert image_dimension(sl8_basis()) == 42
    assert 63 - image_dimension(sl8_basis()) == 21
    assert image_dimension(so8_basis()) == 7
    _pass("[01] stabilizer dim 21, orbit image dim 42",
          time.perf_counter() - started, 10.0)


def test_02_four_form_decomposition():
    started = time.perf_counter()
    ps = projectors()
    assert ps.ranks() == (1, 7, 27, 35)
    assert ps.is_resolution()
    for op in ps.all():
        assert op.is_idempotent()
    omega = build_omega().omega
    rng = _rng("star-split")
    for _ in range(10):
        x = random_form(rng, 4) + omega  # offset keeps every component nonzero
        for op, sign in ((ps.p1, 1), (ps.p7, 1), (ps.p27, 1), (ps.p35, -1)):
            part = op(x)
            assert hodge_star(part) == FieldScalar(sign) * part
    _pass("[02] projector ranks (1,7,27,35), idempotent, star split",
          time.perf_counter() - started, 10.0)


def test_03_contraction_cube_nondegeneracy():
    started = time.perf_counter()
    omega = build_omega().omega
    rng = _rng("nondegeneracy")
    for _ in range(200):
        u, v = random_independent_pair(rng)
        assert pair_contraction_cube(u, v, omega)
    # the cube is homogeneous of degree three in each argument
    u, v = random_independent_pair(_rng("scaling"))
    lam, mu = FieldScalar("3/2"), FieldScalar(-2)
    scaled = pair_contraction_cube(lam * u, mu * v, omega)
    lam_mu = lam * mu
    assert scaled == lam_mu * lam_mu * lam_mu * \
        pair_contraction_cube(u, v, omega)
    _pass("[03] contraction cube nonzero on 200 independent pairs",
          time.perf_counter() - started, 30.0)


def test_04_rank_one_perturbations_square_to_zero():
    started = time.perf_counter()
    omega = build_omega().omega
    rng = _rng("square-zero")
    for _ in range(100):
        a = random_rank_one_nilpotent(rng)
        x = random_form(rng, 4)
        assert not rho(a, rho(a, x))
    ts = (FieldScalar(1), FieldScalar(-3), FieldScalar("5/7"))
    rng = _rng("exp-pullback")
    for _ in range(10):
        a = random_rank_one_nilpotent(rng)
        delta = rho(a, omega)
        for t in ts:
            assert pullback(exp_nilpotent(t * a), omega) == omega + t * delta
    _pass("[04] rho(A)^2 = 0 for 100 rank-one nilpotents; exp pullback affine",
          time.perf_counter() - started, 30.0)


def test_05_classification_of_nilpotent_orbits():
    started = time.perf_counter()
    diagrams = enumerate_diagrams()
    assert len(diagrams) == 22 and len(set(diagrams)) == 22
    report = classification_report()
    assert len(report.rows) == 22
    admissible = {d.parts for d in report.admissible}
    assert admissible == {(2, 1, 1, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1, 1, 1)}
    excluded = [c for c, _ in report.rows if c.verdict == "excluded"]
    assert len(excluded) == 20
    assert all(c.pair is not None for c in excluded)
    assert not any(c.verdict == "unresolved" for c, _ in report.rows)
    # the four chain diagrams need certificates built from pairs of w-duals
    chains = {(3, 2, 2, 1), (2, 2, 2, 2), (2, 2, 2, 1, 1),
              (2, 2, 1, 1, 1, 1)}
    for cert, _ in report.rows:
        if cert.diagram.parts in chains:
            labels = [lv.label for lv in cert.pair]
            assert len(labels) == 2
            assert all(label.startswith("w") for label in labels)
    _pass("[05] only (2,1^6) and (1^8) admissible; 20 exclusion certificates",
          time.perf_counter() - started, 900.0)


def test_06_rank_one_directions_avoid_1_and_27():
    started = time.perf_counter()
    ps = projectors()
    omega = build_omega().omega
    rng = _rng("membership")
    for _ in range(50):
        delta = rho(random_rank_one_nilpotent(rng), omega)
        assert not ps.p1(delta)
        assert not ps.p27(delta)
        assert delta == ps.p7(delta) + ps.p35(delta)
    rng = _rng("skew")
    for _ in range(10):
        u, v = random_independent_pair(rng)
        delta = skew_perturbation(u, v)
        assert delta == ps.p7(delta)
    _pass("[06] 50 rank-one directions land in 7+35; skew ansatz lands in 7",
          time.perf_counter() - started, 60.0)


def test_07_lie_frame_is_consistent():
    started = time.perf_counter()
    frame = build_lie_frame()
    basis = [tuple(ONE if a == i else ZERO for a in range(N_GENERATORS))
             for i in range(N_GENERATORS)]
    for i, j, k in combinations(range(N_GENERATORS), 3):
        t1 = frame.bracket_coords(basis[i],
                                  frame.bracket_coords(basis[j], basis[k]))
        t2 = frame.bracket_coords(basis[j],
                                  frame.bracket_coords(basis[k], basis[i]))
        t3 = frame.bracket_coords(basis[k],
                                  frame.bracket_coords(basis[i], basis[j]))
        assert not any(a + b + c for a, b, c in zip(t1, t2, t3))
    for slot in range(11):
        dd = maurer_cartan_d(
            maurer_cartan_d(ChamberForm.generator(slot), frame), frame)
        assert not dd
    h = [basis[i] for i in SP1_PLUS]
    assert len(normalizer(frame, h)) == 6
    _pass("[07] Jacobi identity, d^2 = 0, normalizer dim 6",
          time.perf_counter() - started, 10.0)


def test_08_cohomogeneity_one_form_is_closed():
    started = time.perf_counter()
    frame = build_lie_frame()
    bs = build_bryant_salamon()
    assert bs.phi == proposition_display()
    assert not maurer_cartan_d(bs.phi, frame)
    for form in lemma_invariant_forms():
        assert not maurer_cartan_d(form, frame)
        for slot in (4, 5, 6):
            assert not lie_derivative(slot, form, frame)
    _pass("[08] displayed 4-form matches, d(Phi) = 0, invariant-forms lemma",
          time.perf_counter() - started, 60.0)


def test_09_invariant_perturbations_stay_closed():
    started = time.perf_counter()
    frame = build_lie_frame()
    bs = build_bryant_salamon()
    t = ChamberScalar.monomial(1, 2, 0)
    triples = [(ChamberScalar.of(1), ChamberScalar.of(0), ChamberScalar.of(0)),
               (t * t, t ** 4 + 1, 3 * t)]
    rng = _rng("even-triples")
    triples += [tuple(random_even_scalar(rng) for _ in range(3))
                for _ in range(5)]
    for triple in triples:
        form = perturbed_form(InvariantField.of(*triple), bs)
        assert form != bs.phi
        assert not maurer_cartan_d(form, frame)
    _pass("[09] 7 invariant perturbations of Phi remain closed",
          time.perf_counter() - started, 120.0)


def test_10_diagonal_generators_are_killing():
    started = time.perf_counter()
    frame = build_lie_frame()
    metric = build_metric()
    for slot in (4, 5, 6):
        assert not metric_lie_derivative(slot, metric, frame)
    _pass("[10] L_A g = 0 for the three residual symmetry generators",
          time.perf_counter() - started, 10.0)


def test_11_cube_display_discrepancy_is_recorded():
    started = time.perf_counter()
    omega = build_omega().omega
    cube = pair_contraction_cube(*basis_blades(1)[6:], omega)
    expected = KForm.from_terms(6, [((1, 2, 3, 4, 5, 6), -6)])
    assert cube == expected        # the recomputed value
    assert cube                    # nonvanishing is all the argument needs
    computed_display = {f"e^{{{''.join(map(str, idx))}}}": str(c)
                        for idx, c in cube.terms()}
    assert computed_display == {"e^{123456}": "-6"}
    assert QUOTED_CUBE_DISPLAY not in computed_display  # quoted text differs
    _pass("[11] (e7 -| e8 -| Omega)^3 is nonzero; display discrepancy logged",
          time.perf_counter() - started, 10.0)
