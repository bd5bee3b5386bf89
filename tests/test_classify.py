"""Nilpotent orbit classification: which Jordan types admit perturbations.

The kernel dimensions and certificate pairs below were computed once with
this library and frozen; the tests re-derive them from scratch on every run,
so any regression in the exterior algebra or the linear algebra shows up as
a mismatch against these constants.
"""

import random
import sys
from collections import Counter
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from spin7lab.cayley import build_omega
from spin7lab.classify import (Certificate, LabeledVector, YoungDiagram,
                               _DUALS, _candidate_pairs,
                               _square_rows,
                               classification_report,
                               cubic_vanishes_on_subspace, enumerate_diagrams,
                               find_certificate, jordan_type_of, kernel_space,
                               representative)
from spin7lab.exterior import endo, forms, linalg, scalars
from spin7lab.exterior.blades import BLADES
from spin7lab.exterior.endo import Endo, rho
from spin7lab.exterior.forms import FormOperator, KForm, Vector, contract
from spin7lab.exterior.scalars import ZERO, FieldScalar, Q
from spin7lab.sampling import random_rank_one_nilpotent, random_unimodular

from _oracles import (count_calls, diagonal, is_nilpotent, kernel_basis,
                      old_cubic_vanishes, old_jordan_type, old_kernel_basis,
                      old_rho, operator_kernel_vectors, operator_square_rows,
                      rho_images)
from _strategies import rationals, small_ints

# dim {ω ∈ Λ⁴ : ρ(A)²ω = 0} for the canonical nilpotent of each Jordan type
KERNEL_DIMS = {
    (8,): 15,
    (7, 1): 18,
    (6, 2): 22,
    (6, 1, 1): 22,
    (5, 3): 26,
    (5, 2, 1): 28,
    (5, 1, 1, 1): 28,
    (4, 4): 30,
    (4, 3, 1): 34,
    (4, 2, 2): 35,
    (4, 2, 1, 1): 36,
    (4, 1, 1, 1, 1): 36,
    (3, 3, 2): 42,
    (3, 3, 1, 1): 42,
    (3, 2, 2, 1): 48,
    (3, 2, 1, 1, 1): 50,
    (3, 1, 1, 1, 1, 1): 50,
    (2, 2, 2, 2): 52,
    (2, 2, 2, 1, 1): 60,
    (2, 2, 1, 1, 1, 1): 64,
    (2, 1, 1, 1, 1, 1, 1): 70,
    (1, 1, 1, 1, 1, 1, 1, 1): 70,
}

# deterministic witness pair found by the fixed search order, per diagram
CERTIFICATE_PAIRS = {
    (8,): ("w1", "v2"),
    (7, 1): ("w1", "v2"),
    (6, 2): ("w1", "w7"),
    (6, 1, 1): ("w1", "v2"),
    (5, 3): ("w1", "w6"),
    (5, 2, 1): ("w1", "w6"),
    (5, 1, 1, 1): ("w1", "v2"),
    (4, 4): ("w1", "w5"),
    (4, 3, 1): ("w1", "w5"),
    (4, 2, 2): ("w1", "w5"),
    (4, 2, 1, 1): ("w1", "w5"),
    (4, 1, 1, 1, 1): ("w1", "v2"),
    (3, 3, 2): ("w1", "w4"),
    (3, 3, 1, 1): ("w1", "w4"),
    (3, 2, 2, 1): ("w1", "w4"),
    (3, 2, 1, 1, 1): ("w1", "w4"),
    (3, 1, 1, 1, 1, 1): ("w1", "v2"),
    (2, 2, 2, 2): ("w1", "w3"),
    (2, 2, 2, 1, 1): ("w1", "w3"),
    (2, 2, 1, 1, 1, 1): ("w1", "w3"),
}

ADMISSIBLE = {(2, 1, 1, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1, 1, 1)}


def seeded(name: str) -> random.Random:
    return random.Random(f"test-classify:{name}")


def _partitions_of(n, maxpart=None):
    """Independent partition generator for the enumeration cross-check."""
    maxpart = n if maxpart is None else maxpart
    if n == 0:
        yield ()
        return
    for first in range(min(n, maxpart), 0, -1):
        for rest in _partitions_of(n - first, first):
            yield (first,) + rest


# -- diagram enumeration ------------------------------------------------------

def test_every_partition_of_eight_appears_once():
    diagrams = enumerate_diagrams()
    assert len(diagrams) == 22
    assert {d.parts for d in diagrams} == set(_partitions_of(8))
    for d in diagrams:
        assert sum(d.parts) == 8
        assert list(d.parts) == sorted(d.parts, reverse=True)


def test_diagram_validation():
    assert YoungDiagram((4, 3, 1)).parts == (4, 3, 1)
    with pytest.raises(ValueError):
        YoungDiagram((1, 3, 4))  # must be non-increasing
    with pytest.raises(ValueError):
        YoungDiagram((4, 3))  # must sum to 8
    with pytest.raises(ValueError):
        YoungDiagram((9, -1))  # parts must be positive


# -- canonical representatives and jordan types ----------------------------------

def test_representative_round_trips_through_jordan_type():
    for d in enumerate_diagrams():
        a = representative(d).matrix
        assert is_nilpotent(a)
        assert jordan_type_of(a) == d


def test_jordan_type_rejects_non_nilpotent():
    # the cyclic shift e^j -> e^(j+1 mod 8) has A^7 != 0 and A^8 = I
    cycle = Endo([[1 if r == (c + 1) % 8 else 0 for c in range(8)]
                  for r in range(8)])
    for a in (Endo.identity(), cycle):
        with pytest.raises(ValueError):
            jordan_type_of(a)


def test_jordan_type_is_a_conjugation_invariant():
    rng = seeded("conjugation")
    for d in enumerate_diagrams():
        a = representative(d).matrix
        g, g_inv = random_unimodular(rng)
        assert jordan_type_of(g @ a @ g_inv) == d


def test_jordan_type_of_a_conjugate_builds_no_field_scalar_rows(monkeypatch):
    # g·A·g⁻¹ is kept as int numerators, which the ranks read as they are
    rng = seeded("conjugation-spy")
    for d in enumerate_diagrams():
        a = representative(d).matrix
        g, g_inv = random_unimodular(rng)
        calls = count_calls(monkeypatch, "from_ratio")
        assert jordan_type_of(g @ a @ g_inv) == d
        assert calls == {"from_ratio": 0}
        monkeypatch.undo()


def _scaled_conjugates(rng, d):
    """q·g·D·N·D⁻¹·g⁻¹ for the representative N of d, a unimodular g, a
    non-integer rational q and a diagonal D with non-integer entries: a
    non-integer rational nilpotent of type d."""
    g, g_inv = random_unimodular(rng)
    entries = [Q(rng.randint(1, 9), rng.choice([2, 3, 5, 7]))
               for _ in range(8)]
    scale = diagonal(*entries)
    unscale = diagonal(*(1 / x for x in entries))
    q = Q(rng.choice([-7, -2, 3, 5]), rng.choice([3, 4, 5]))
    return q * (g @ scale @ representative(d).matrix @ unscale @ g_inv)


def test_jordan_type_matches_the_endo_power_oracle():
    # conjugated integer representatives and non-integer rational nilpotents
    rng = seeded("jordan-oracle")
    for d in enumerate_diagrams():
        g, g_inv = random_unimodular(rng)
        conjugate = g @ representative(d).matrix @ g_inv
        rational = _scaled_conjugates(rng, d)
        # every type but the zero map has a non-integer entry
        assert any(x.quadruple()[0].denominator > 1
                   for row in rational.rows for x in row) == bool(conjugate)
        for a in (conjugate, rational):
            assert jordan_type_of(a).parts == old_jordan_type(a) == d.parts


def _refuse(*args):
    raise AssertionError("a rational Jordan type left the int path")


def test_rational_jordan_type_stays_on_ints(monkeypatch):
    # no FieldScalar product or inverse, no Endo product and no FieldScalar
    # elimination for a rational A
    rng = seeded("jordan-spy")
    matrices = [_scaled_conjugates(rng, d) for d in enumerate_diagrams()]
    calls = count_calls(monkeypatch, "__mul__", "inverse")
    monkeypatch.setattr(Endo, "__matmul__", _refuse)
    monkeypatch.setattr(linalg, "echelon", _refuse)
    types = [jordan_type_of(a) for a in matrices]
    assert calls == {"__mul__": 0, "inverse": 0}
    monkeypatch.undo()
    assert types == list(enumerate_diagrams())


def test_rank_one_nilpotents_have_minimal_type():
    rng = seeded("rank-one-type")
    for _ in range(10):
        a = random_rank_one_nilpotent(rng)
        assert jordan_type_of(a) == YoungDiagram((2, 1, 1, 1, 1, 1, 1))


# -- kernel spaces -----------------------------------------------------------

def test_kernel_dimensions_match_frozen_table():
    got = {d.parts: kernel_space(d).dimension for d in enumerate_diagrams()}
    assert got == KERNEL_DIMS


def test_kernel_basis_is_killed_by_rho_squared():
    d = YoungDiagram((3, 2, 2, 1))
    a = representative(d).matrix
    space = kernel_space(d)
    assert space.dimension == KERNEL_DIMS[(3, 2, 2, 1)]
    for form in kernel_basis(space):
        assert not rho(a, rho(a, form))


def test_full_kernel_exactly_for_admissible_types():
    for d in enumerate_diagrams():
        full = kernel_space(d).dimension == 70
        assert full == (d.parts in ADMISSIBLE)


def _chains_and_weights(d):
    """The generator mask of each Jordan chain of the representative, and
    the H-weight of each generator (bit 0 first) for a Jacobson–Morozov
    triple: k−1, k−3, …, 1−k along a chain of size k, up to one sign."""
    chains, weights = [], []
    for start, size in d.blocks():
        chains.append(((1 << size) - 1) << (start - 1))
        weights += [2 * i - (size - 1) for i in range(size)]
    return chains, weights


def test_kernel_dimensions_follow_from_sl2_weights():
    # ρ(A) shifts the H-weight by 2, so ker ρ(A)² holds the top two weights
    # of each sl₂-string of Λ⁴ (one, for a string of length 1); a string
    # meets exactly one of the weights 0 and 1, and, when of length 2 or
    # more, exactly one of 1 and 2: dim = m(0) + 2m(1) + m(2)
    for d in enumerate_diagrams():
        chains, weights = _chains_and_weights(d)
        m = Counter(sum(weights[i] for i in idx)
                    for idx in combinations(range(8), 4))
        space = kernel_space(d)
        assert m[0] + 2 * m[1] + m[2] == space.dimension == KERNEL_DIMS[d.parts]
        # ρ(A)² keeps the bits per chain and adds 4 to the weight, so each
        # kernel vector lies in one (bits per chain, weight) block
        for vec in space.vectors:
            grades = {(tuple((BLADES[4][j] & c).bit_count() for c in chains),
                       sum(w for i, w in enumerate(weights)
                           if BLADES[4][j] >> i & 1)) for j in vec}
            assert len(grades) == 1, (d, vec)


# -- integer kernels against the dense FieldScalar elimination ------------------

@pytest.fixture(scope="module")
def old_kernels():
    """The canonical kernel basis of each diagram by the old dense path."""
    return {d.parts: old_kernel_basis(representative(d).matrix)
            for d in enumerate_diagrams()}


def _dense(vectors):
    return [[FieldScalar.of(vec.get(j, 0)) for j in range(len(BLADES[4]))]
            for vec in vectors]


def test_int_kernel_vectors_span_the_dense_kernel(old_kernels):
    for d in enumerate_diagrams():
        a = representative(d).matrix
        space = kernel_space(d)
        for vec in space.vectors:
            assert gcd(*vec.values()) == 1
            assert vec[max(vec)] > 0
            form = KForm(4, {BLADES[4][j]: FieldScalar.of(x)
                             for j, x in vec.items()})
            assert not old_rho(a, old_rho(a, form))
        ints = _dense(space.vectors)
        canonical = [[dict(omega.mask_items()).get(m, ZERO) for m in BLADES[4]]
                     for omega in old_kernels[d.parts]]
        dim = KERNEL_DIMS[d.parts]
        assert space.dimension == dim
        assert linalg.rank(ints) == linalg.rank(canonical) == dim
        assert linalg.rank(ints + canonical) == dim


def test_kernel_basis_is_the_old_canonical_basis(old_kernels):
    for d in enumerate_diagrams():
        assert kernel_basis(kernel_space(d)) == old_kernels[d.parts]


def test_kernel_vectors_match_the_squared_operator():
    # ρ(A) @ ρ(A) as FormOperators, transposed, on primitive rows
    for d in enumerate_diagrams():
        assert list(kernel_space(d).vectors) == \
            operator_kernel_vectors(representative(d).matrix)


def test_representative_columns_hold_the_chain_steps():
    rep = representative(YoungDiagram((3, 2, 2, 1)))
    # e^1 -> e^2 -> e^3, e^4 -> e^5, e^6 -> e^7 and e^8 -> 0, 1-based
    assert rep.columns == ({2: 1}, {4: 1}, {}, {16: 1}, {}, {64: 1}, {}, {})
    assert rep.matrix == Endo([[1 if (i, j) in {(1, 0), (2, 1), (4, 3), (6, 5)}
                                else 0 for j in range(8)] for i in range(8)])


def _bits(mask):
    return [1 << i for i in range(8) if mask >> i & 1]


def test_shift_images_and_square_rows_match_the_operators():
    # ρ(A)e^m = Σ e^(m+b), each +1, over the bits b of m & steps & ~(m >> 1)
    for d in enumerate_diagrams():
        rep = representative(d)
        steps = rep.steps
        shifted = [{m + b: 1 for b in _bits(m & steps & ~(m >> 1))}
                   for m in BLADES[4]]
        assert shifted == rho_images(rep.columns, BLADES[4])
        assert _square_rows(steps) == operator_square_rows(rep.matrix)


def test_kernel_space_makes_no_operator_or_field_product(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("kernel_space left the int row path")

    monkeypatch.setattr(FormOperator, "__matmul__", refuse)
    monkeypatch.setattr(forms, "_combine", refuse)
    monkeypatch.setattr(endo, "_combine", refuse)
    monkeypatch.setattr(linalg, "echelon", refuse)
    calls = count_calls(monkeypatch, "__mul__")
    dims = [kernel_space(d).dimension for d in enumerate_diagrams()]
    assert calls == {"__mul__": 0}
    monkeypatch.undo()
    assert dims == list(KERNEL_DIMS.values())


# -- the integer cubic against contraction and wedge on FieldScalars ------------

def _contracted_by_forms(u, v, space):
    """The nonzero u⌟v⌟ωᵢ of the kernel vectors, by FieldScalar contract."""
    forms = [KForm(4, {BLADES[4][j]: FieldScalar.of(x) for j, x in vec.items()})
             for vec in space.vectors]
    return [q for q in (contract(u, contract(v, w)) for w in forms) if q]


def _pair_contractions(u, v, vectors):
    """The nonzero u⌟v⌟ωᵢ of the kernel vectors as Σ uᵢ·vⱼ·e_i⌟e_j⌟ωᵢ over
    i ≠ j, each pair by ``forms._pair_contracted``."""
    qs = []
    for vec in vectors:
        terms = {BLADES[4][j]: x for j, x in vec.items()}
        qs.append(forms._combine(
            (forms._pair_contracted(1 << i, 1 << j, terms), x * y)
            for i, x in enumerate(u.components)
            for j, y in enumerate(v.components) if i != j and x and y))
    return [q for q in qs if q]


def _as_forms(qs):
    return [KForm(2, {m: FieldScalar.of(c) for m, c in q.items()}) for q in qs]


def test_pair_contractions_match_contract_on_every_candidate_pair():
    for d in enumerate_diagrams():
        space = kernel_space(d)
        for a, b in _candidate_pairs(space.representative):
            u, v = Vector.basis(a + 1), Vector.basis(b + 1)
            assert _as_forms(_pair_contractions(u, v, space.vectors)) == \
                _contracted_by_forms(u, v, space)


_int_or_rational_vectors = st.sampled_from([small_ints, rationals]).flatmap(
    lambda c: st.lists(c, min_size=8, max_size=8)).map(Vector)


@settings(max_examples=30)
@given(st.sampled_from(enumerate_diagrams()), _int_or_rational_vectors,
       _int_or_rational_vectors)
def test_pair_contractions_match_contract_on_dense_vectors(d, u, v):
    space = kernel_space(d)
    assert _as_forms(_pair_contractions(u, v, space.vectors)) == \
        _contracted_by_forms(u, v, space)


def test_int_cubic_agrees_on_every_candidate_pair(old_kernels):
    verdicts = []
    for d in enumerate_diagrams():
        space = kernel_space(d)
        for a, b in _candidate_pairs(space.representative):
            got = cubic_vanishes_on_subspace(a, b, space)
            assert got == old_cubic_vanishes(_DUALS[a], _DUALS[b],
                                             old_kernels[d.parts])
            verdicts.append(got)
    assert len(verdicts) == 616
    assert True in verdicts and False in verdicts


def test_certificates_multiply_no_field_scalars(monkeypatch):
    # and take no numerator view: every binding of scalars.to_numerators
    # in the package is counted
    calls = count_calls(monkeypatch, "__mul__", "inverse")
    original, views = scalars.to_numerators, []

    def counted(*args):
        views.append(args)
        return original(*args)

    for module in list(sys.modules.values()):
        if (module.__name__.startswith("spin7lab")
                and getattr(module, "to_numerators", None) is original):
            monkeypatch.setattr(module, "to_numerators", counted)
    assert linalg.to_numerators is counted
    certs = [find_certificate(d) for d in enumerate_diagrams()]
    assert calls == {"__mul__": 0, "inverse": 0} and views == []
    monkeypatch.undo()
    assert [c.dim_kernel for c in certs] == list(KERNEL_DIMS.values())


# -- certificates -----------------------------------------------------------

def test_certificate_table():
    for d in enumerate_diagrams():
        cert = find_certificate(d)
        assert cert.diagram == d
        assert cert.dim_kernel == KERNEL_DIMS[d.parts]
        if d.parts in ADMISSIBLE:
            assert cert.verdict == "admissible"
            assert cert.pair is None
        else:
            assert cert.verdict == "excluded"
            labels = (cert.pair[0].label, cert.pair[1].label)
            assert labels == CERTIFICATE_PAIRS[d.parts]


def test_certificates_really_kill_the_cubic():
    # re-run the vanishing check for each frozen witness pair
    for d in enumerate_diagrams():
        if d.parts in ADMISSIBLE:
            continue
        cert = find_certificate(d)
        a, b = (_DUALS.index(w.vector) for w in cert.pair)
        assert cubic_vanishes_on_subspace(a, b, kernel_space(d))


def test_cubic_does_not_vanish_on_the_full_space():
    # (e7, e8) has a nonzero cube against the Cayley form itself, which lies
    # in the full kernel of the admissible types
    d = YoungDiagram((1, 1, 1, 1, 1, 1, 1, 1))
    assert not cubic_vanishes_on_subspace(6, 7, kernel_space(d))


def test_cubic_needs_two_distinct_dual_indices():
    space = kernel_space(YoungDiagram((4, 4)))
    for a, b in ((3, 3), (-1, 2), (0, 8)):
        with pytest.raises(ValueError):
            cubic_vanishes_on_subspace(a, b, space)


def test_certificate_records_serialize():
    cert = find_certificate(YoungDiagram((4, 4)))
    rec = cert.to_record()
    assert rec["diagram"] == [4, 4]
    assert rec["verdict"] == "excluded"
    assert rec["dim_kernel"] == 30
    assert rec["pair"]["u"]["label"] == "w1"
    assert len(rec["pair"]["v"]["components"]) == 8


@settings(max_examples=60)
@given(st.lists(st.fractions(max_denominator=12), min_size=8, max_size=8))
def test_labeled_vector_record_prints_components_as_fractions(components):
    rec = LabeledVector(Vector(components), "w1").to_record()
    assert rec == {"label": "w1",
                   "components": [str(Q(c)) for c in components]}


# -- the full report -----------------------------------------------------------

def test_classification_report_admissible_set():
    report = classification_report()
    assert [d.parts for d in report.admissible] == \
        [(2, 1, 1, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1, 1, 1)]
    assert len(report.rows) == 22


def test_report_is_deterministic_up_to_timings():
    a = classification_report()
    b = classification_report()
    assert [c.to_record() for c, _ in a.rows] == \
        [c.to_record() for c, _ in b.rows]
