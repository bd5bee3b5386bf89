"""Endomorphisms of the covector space and their two induced actions on forms.

rho is the derivation (Lie-algebra) action, pullback the multiplicative
(group) extension; the two are linked through the exponential, which these
tests check exactly on nilpotent inputs.
"""

import random
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from spin7lab.classify import YoungDiagram, enumerate_diagrams, representative
from spin7lab.exterior.blades import BLADES
from spin7lab.exterior.endo import Endo, exp_nilpotent, pullback, rho
from spin7lab.exterior.forms import (Covector, FormOperator, KForm, Vector,
                                     blade_pullback, wedge)
from spin7lab.exterior.scalars import SQRT2, ZERO, FieldScalar, Q
from spin7lab.sampling import random_rank_one_nilpotent, random_unimodular

from _oracles import (apply, commutator, count_calls, diagonal, is_nilpotent,
                      is_skew, old_exp_nilpotent,
                      old_operator_product, old_operator_sum,
                      random_nilpotent, trace)
from _oracles import blade_pullback as old_blade_pullback
from _strategies import (coefficient_families, entry_families, forms,
                         identity_plus_sparse, mixed_endos, mixed_forms,
                         seeded_entry, small_ints, sparse_endos)

endos = st.lists(st.lists(small_ints, min_size=8, max_size=8),
                 min_size=8, max_size=8).map(Endo)


def seeded(name: str) -> random.Random:
    return random.Random(f"test-endo:{name}")


# -- basic matrix algebra -----------------------------------------------------

@given(endos, endos)
def test_matmul_matches_composition_on_covectors(a, b):
    alpha = Covector(range(1, 9))
    assert apply(a @ b, alpha) == apply(a, apply(b, alpha))


@given(mixed_endos, mixed_endos)
def test_matmul_matches_the_dense_sum(a, b):
    cols = list(zip(*b.rows))
    dense = Endo([[sum((x * y for x, y in zip(row, col)), ZERO)
                   for col in cols] for row in a.rows])
    assert (a @ b).rows == dense.rows


def test_constructors():
    assert apply(Endo.unit(2, 5), Covector.basis(5)) == Covector.basis(2)
    assert not apply(Endo.unit(2, 5), Covector.basis(4))
    d = diagonal(1, 2, 3, 4, 5, 6, 7, 8)
    assert apply(d, Covector.basis(3)) == 3 * Covector.basis(3)
    assert trace(d) == FieldScalar(36)
    with pytest.raises(ValueError):
        diagonal(1, 2, 3)
    with pytest.raises(ValueError):
        Endo([[1, 2], [3, 4]])


@given(mixed_endos, mixed_endos)
def test_results_hold_field_scalar_rows_like_the_public_constructor(a, b):
    # the strictly lower triangle of a is nilpotent
    lower = Endo([[x if i > j else 0 for j, x in enumerate(row)]
                  for i, row in enumerate(a.rows)])
    for out in (a @ b, a + b, a - b, -a, FieldScalar(Q(5, 7)) * a, 3 * a,
                exp_nilpotent(lower)):
        assert type(out.rows) is tuple and len(out.rows) == 8
        assert all(type(row) is tuple and len(row) == 8 for row in out.rows)
        assert all(type(x) is FieldScalar for row in out.rows for x in row)
        rebuilt = Endo([list(row) for row in out.rows])
        assert out == rebuilt and hash(out) == hash(rebuilt)
    # the public constructor still coerces
    assert all(type(x) is FieldScalar for row in Endo([[1] * 8] * 8).rows
               for x in row)


def test_unit_rejects_indices_outside_one_to_eight():
    # a column mask 1 << 8 would be a blade outside R^8
    for i, j in ((9, 1), (0, 3), (1, 9), (3, 0)):
        with pytest.raises(ValueError, match="out of range"):
            Endo.unit(i, j)


@given(mixed_endos, mixed_endos)
def test_endo_algebra_is_the_operator_algebra_on_one_forms(a, b):
    # an Endo is the FormOperator on Λ¹ whose image j is the column A e^j
    p, q = FormOperator(1, a.images), FormOperator(1, b.images)
    assert a.images == tuple({1 << i: row[j] for i, row in enumerate(a.rows)
                              if row[j]} for j in range(8))
    for endo, op, oracle in ((a @ b, p @ q, old_operator_product(p, q)),
                             (a + b, p + q, old_operator_sum(p, q)),
                             (a - b, p - q, old_operator_sum(p, q, -1))):
        assert type(endo) is Endo and type(op) is FormOperator
        assert endo == op == oracle and oracle == endo
        assert endo.images == op.images == oracle.images


@given(mixed_endos, mixed_endos, st.sampled_from([Q(5, 7), -3, Q(-9, 4)]))
def test_view_built_and_image_built_operators_compare_and_hash_alike(a, b, s):
    # each build runs again for every twin, so that it is compared and
    # hashed before its images are read
    for build in (lambda: a @ b, lambda: s * a, lambda: a - b, lambda: -b):
        images = build().images
        for twin in (FormOperator(1, images), Endo(build().rows)):
            assert build() == twin and twin == build()
            assert hash(build()) == hash(twin)
            assert len({build(), twin}) == 1


@given(st.sampled_from(coefficient_families).flatmap(
    lambda c: st.tuples(*[st.lists(c, min_size=8, max_size=8)] * 2)))
def test_tensor_on_numerators_matches_the_entrywise_build(entries):
    v, alpha = Vector(entries[0]), Covector(entries[1])
    expected = Endo([[alpha.components[i] * v.components[j] for j in range(8)]
                     for i in range(8)])
    assert Endo.tensor(v, alpha) == expected
    assert Endo.tensor(v, alpha).rows == expected.rows


def test_tensor_is_rank_one():
    v = Vector([1, 2, 0, 0, 1, 0, 0, 0])
    alpha = Covector([0, 0, 3, 4, 0, 0, 0, 0])
    t = Endo.tensor(v, alpha)
    assert t.rank() == 1
    # as a map on covectors: eps -> eps(v) * alpha
    eps = Covector([1, 1, 1, 1, 1, 1, 1, 1])
    evaluated = sum((c for c in v.components), ZERO)
    assert apply(t, eps) == evaluated * alpha


def test_predicates():
    n = Endo.unit(1, 2)
    assert is_nilpotent(n) and not is_nilpotent(Endo.identity())
    skew = Endo.unit(1, 2) - Endo.unit(2, 1)
    assert is_skew(skew) and not is_skew(Endo.unit(1, 2))
    with pytest.raises(ValueError, match="surd"):
        SQRT2 * Endo.identity()


# -- rho: the derivation action ------------------------------------------------

@given(sparse_endos, forms(2), forms(2))
def test_rho_is_linear(a, x, y):
    assert rho(a, x + y) == rho(a, x) + rho(a, y)


@given(sparse_endos, forms(2), forms(2))
def test_rho_is_a_derivation_over_wedge(a, x, y):
    assert rho(a, wedge(x, y)) == wedge(rho(a, x), y) + wedge(x, rho(a, y))


@given(sparse_endos, sparse_endos, forms(3))
def test_rho_is_a_lie_algebra_action(a, b, x):
    lhs = rho(commutator(a, b), x)
    rhs = rho(a, rho(b, x)) - rho(b, rho(a, x))
    assert lhs == rhs


def test_rho_on_one_forms_is_matrix_action():
    a = Endo.unit(3, 1) + 2 * Endo.unit(5, 1)
    assert rho(a, KForm.from_terms(1, [((1,), 1)])) == \
        KForm.from_terms(1, [((3,), 1)]) + KForm.from_terms(1, [((5,), 2)])


# -- pullback: the multiplicative action ----------------------------------------

@given(identity_plus_sparse, identity_plus_sparse, mixed_forms(3))
def test_pullback_is_functorial(a, b, x):
    assert pullback(a @ b, x) == pullback(a, pullback(b, x))


@given(forms(4))
def test_pullback_of_identity(x):
    assert pullback(Endo.identity(), x) == x


@given(identity_plus_sparse, mixed_forms(2), mixed_forms(2))
def test_pullback_is_multiplicative_over_wedge(a, x, y):
    assert pullback(a, wedge(x, y)) == wedge(pullback(a, x), pullback(a, y))


def test_pullback_of_rank_one_shift_is_identity_plus_rho():
    # Λ(1 + A) = 1 + ρ(A) exactly when A has rank one: two slots through A
    # wedge the same covector line, which dies
    rng = seeded("rank-one")
    from spin7lab.sampling import random_form, random_rank_one_nilpotent
    for _ in range(10):
        a = random_rank_one_nilpotent(rng)
        x = random_form(rng, 4)
        assert pullback(Endo.identity() + a, x) == x + rho(a, x)


def test_pullback_scaling_weights_by_degree():
    two = 2 * Endo.identity()
    x = KForm.from_terms(3, [((1, 2, 3), 1)])
    assert pullback(two, x) == 8 * x
    third = FieldScalar(Q(1, 3)) * Endo.identity()
    assert pullback(third, FieldScalar(Q(5, 2)) * x) == FieldScalar(Q(5, 54)) * x


def generator_images(l_map):
    """The 1-forms L e^j that the oracle wedges."""
    return [KForm(1, {1 << i: row[j] for i, row in enumerate(l_map.rows)})
            for j in range(8)]


@settings(max_examples=60)
@given(entry_families, entry_families, st.integers(0, 8),
       st.sets(st.integers(0, 7), max_size=2), st.randoms(use_true_random=True))
def test_pullback_matches_the_per_blade_oracle(l_family, x_family, degree,
                                               zero_columns, rng):
    # dense maps, and singular ones with zero image columns
    l_map = Endo([[0 if j in zero_columns else seeded_entry[l_family](rng)
                   for j in range(8)] for _ in range(8)])
    masks = BLADES[degree]
    x = KForm(degree, {m: FieldScalar.of(seeded_entry[x_family](rng))
                       for m in rng.sample(masks, min(3, len(masks)))})
    images = generator_images(l_map)
    expected = old_blade_pullback(x, images)
    assert pullback(l_map, x) == expected
    assert blade_pullback(x, images) == expected


@pytest.mark.parametrize("t", ["1", "-3", "5/7"])
def test_pullback_along_the_checked_exponentials_matches_the_oracle(t):
    from spin7lab.cayley import build_omega
    from spin7lab.sampling import random_rank_one_nilpotent
    rng = seeded(f"exp-oracle:{t}")
    omega = build_omega().omega
    for _ in range(2):
        l_map = exp_nilpotent(FieldScalar(t) * random_rank_one_nilpotent(rng))
        assert pullback(l_map, omega) == \
            old_blade_pullback(omega, generator_images(l_map))


@settings(max_examples=80)
@given(entry_families, st.integers(1, 8), st.booleans(),
       st.sets(st.integers(0, 7), max_size=2), st.randoms(use_true_random=True))
def test_pullback_matches_the_oracle_in_every_degree(family, degree, dense,
                                                     zero_columns, rng):
    # dense images (all eight entries) or sparse ones (one or two), with
    # up to two zero images, and forms of up to six blades
    entry = seeded_entry[family]

    def image(j):
        if j in zero_columns:
            return KForm(1)
        slots = range(8) if dense else rng.sample(range(8), rng.randint(1, 2))
        return KForm(1, {1 << i: FieldScalar.of(entry(rng)) for i in slots})

    images = [image(j) for j in range(8)]
    masks = BLADES[degree]
    x = KForm(degree, {m: FieldScalar.of(entry(rng))
                       for m in rng.sample(masks, min(6, len(masks)))})
    expected = old_blade_pullback(x, images)
    assert blade_pullback(x, images) == expected
    l_map = Endo([[dict(images[j].mask_items()).get(1 << i, 0)
                   for j in range(8)] for i in range(8)])
    assert pullback(l_map, x) == expected


def test_rational_pullback_multiplies_no_field_scalars(monkeypatch):
    rng = seeded("spy")
    l_map = Endo([[Q(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(8)]
                  for _ in range(8)])
    x = KForm(4, {m: FieldScalar(Q(rng.randint(1, 9), 3))
                  for m in (0b1111, 0b110011, 0b11000011, 0b10101010)})
    calls = []
    original = FieldScalar.__mul__

    def counted(self, other):
        calls.append(other)
        return original(self, other)

    monkeypatch.setattr(FieldScalar, "__mul__", counted)
    monkeypatch.setattr(FieldScalar, "__rmul__", counted)
    out = pullback(l_map, x)
    assert not calls
    monkeypatch.undo()
    assert out and out == old_blade_pullback(x, generator_images(l_map))


# -- exponential ---------------------------------------------------------------

def test_exp_nilpotent_is_a_group_homomorphism():
    rng = seeded("exp")
    for _ in range(6):
        a = random_nilpotent(rng)
        assert exp_nilpotent(a) @ exp_nilpotent(-a) == Endo.identity()


def test_exp_of_the_full_jordan_block_uses_every_term():
    # J^7 != 0 = J^8, so exp(J) has 1/(r - c)! on and below the diagonal
    j = representative(YoungDiagram((8,))).matrix
    e = exp_nilpotent(j)
    assert e.rows == tuple(
        tuple(FieldScalar(Q(1, factorial(r - c))) if r >= c else ZERO
              for c in range(8)) for r in range(8))
    assert e @ exp_nilpotent(-j) == Endo.identity()


# the cyclic shift e^j -> e^(j+1 mod 8): A^7 != 0 and A^8 = I
CYCLE = Endo([[1 if r == (c + 1) % 8 else 0 for c in range(8)]
              for r in range(8)])


def jordan_exponential_inputs():
    """The 22 Jordan representatives scaled by 5/7 and by −9/4, each also
    conjugated by a seeded unimodular matrix."""
    rng = seeded("exp-jordan")
    for diagram in enumerate_diagrams():
        j = representative(diagram).matrix
        g, g_inv = random_unimodular(rng)
        for s in (FieldScalar(Q(5, 7)), FieldScalar(Q(-9, 4))):
            yield s * j
            yield s * (g @ j @ g_inv)


def test_exp_nilpotent_matches_the_endo_power_loop():
    inputs = list(jordan_exponential_inputs())
    assert len(inputs) == 88
    for a in inputs:
        assert exp_nilpotent(a) == old_exp_nilpotent(a)


def test_rational_exp_nilpotent_makes_no_endo_products(monkeypatch):
    a = FieldScalar(Q(5, 7)) * random_rank_one_nilpotent(seeded("spy-exp"))
    calls = count_calls(monkeypatch, "__matmul__", cls=Endo)
    out = exp_nilpotent(a)
    assert calls == {"__matmul__": 0}
    monkeypatch.undo()
    assert out == old_exp_nilpotent(a) != Endo.identity()


@pytest.mark.parametrize("t", [1, -3, Q(5, 7)])
def test_exponential_pullback_stays_on_numerators(monkeypatch, t):
    # t·A, exp and Λ⁴ pass A's int numerators along: no FieldScalar
    # product, and no division until the output's coefficients are read
    from spin7lab.cayley import build_omega
    omega = build_omega().omega
    a = random_rank_one_nilpotent(seeded(f"spy-exp-pullback:{t}"))
    calls = count_calls(monkeypatch, "__mul__", "from_ratio")
    out = pullback(exp_nilpotent(t * a), omega)
    assert calls == {"__mul__": 0, "from_ratio": 0}
    assert len(out.mask_items()) == 70 == calls["from_ratio"]
    monkeypatch.undo()
    assert out == omega + FieldScalar.of(t) * rho(a, omega)


@given(mixed_endos, st.sampled_from([0, Q(5, 7), -3, Q(-9, 4)]))
def test_scaling_matches_the_entrywise_product(a, s):
    expected = Endo([[FieldScalar.of(s) * x for x in row] for row in a.rows])
    assert s * a == a * s == expected


@given(mixed_endos, mixed_endos, st.sampled_from([Q(5, 7), -3, Q(-9, 4)]))
def test_an_endo_built_from_numerators_compares_like_its_rows(a, b, s):
    # each build runs twice: one result is compared before its rows are read
    lower = Endo([[x if i > j else 0 for j, x in enumerate(row)]
                  for i, row in enumerate(a.rows)])
    for build in (lambda: a @ b, lambda: s * a, lambda: b * s,
                  lambda: exp_nilpotent(lower), lambda: s * (a @ b)):
        rebuilt = Endo([list(row) for row in build().rows])
        assert build() == rebuilt and rebuilt == build()
        assert hash(build()) == hash(rebuilt)
        assert build().to_record() == rebuilt.to_record()
        assert bool(build()) == bool(rebuilt) == any(map(any, rebuilt.rows))


def test_exp_nilpotent_rejects_non_nilpotent():
    for a in (Endo.identity(), CYCLE):
        with pytest.raises(ValueError):
            exp_nilpotent(a)


def test_pullback_of_exp_equals_exp_of_rho():
    rng = seeded("exp-rho")
    from spin7lab.sampling import random_form
    for _ in range(4):
        a = random_nilpotent(rng)
        x = random_form(rng, 3, nterms=4)
        lhs = pullback(exp_nilpotent(a), x)
        # exp(ρ(A)) as a finite series: ρ(A) is nilpotent on forms
        rhs = KForm.zero(3)
        term = x
        k = 0
        while term:
            rhs = rhs + term
            k += 1
            term = FieldScalar(Q(1, k)) * rho(a, term)
            assert k <= 32, "rho of a nilpotent matrix must be nilpotent"
        assert lhs == rhs
