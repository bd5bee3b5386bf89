"""Seeded random generators for property tests and spot checks.

All draws use small integers (|entry| <= 9) so that exact arithmetic stays
cheap; every function takes an explicit random.Random so results are
reproducible from a seed.
"""

from __future__ import annotations

import random

from .exterior.blades import DIM, mask_of
from .exterior.forms import KForm, inner, wedge
from .exterior.endo import Endo

__all__ = ["random_vector", "random_nonzero_vector", "random_orthogonal_pair",
           "random_independent_pair", "random_form",
           "random_rank_one_nilpotent", "random_unimodular",
           "random_even_scalar"]


def random_vector(rng: random.Random) -> KForm:
    return KForm.vector([rng.randint(-9, 9) for _ in range(DIM)])


def random_nonzero_vector(rng: random.Random) -> KForm:
    while True:
        v = random_vector(rng)
        if v:
            return v


def random_independent_pair(rng: random.Random) -> tuple[KForm, KForm]:
    """Two exactly linearly independent integer vectors: u∧v ≠ 0."""
    while True:
        u = random_nonzero_vector(rng)
        v = random_nonzero_vector(rng)
        if wedge(u, v):
            return u, v


def random_orthogonal_pair(rng: random.Random) -> tuple[KForm, KForm]:
    """Nonzero integer vectors with <v, w> = 0 exactly (Gram-Schmidt step)."""
    while True:
        v = random_nonzero_vector(rng)
        raw = random_vector(rng)
        w = inner(v, v) * raw - inner(v, raw) * v
        if w:
            return v, w


def random_form(rng: random.Random, degree: int, nterms: int = 6) -> KForm:
    acc: dict[int, int] = {}
    for _ in range(nterms):
        sign, mask = mask_of(rng.sample(range(1, DIM + 1), degree))
        acc[mask] = acc.get(mask, 0) + sign * rng.randint(-9, 9)
    return KForm._of_numerators(degree, {m: c for m, c in acc.items() if c})


def random_rank_one_nilpotent(rng: random.Random) -> Endo:
    """w ⊗ v♭ with <v, w> = 0: a traceless square-zero rank-one map."""
    v, w = random_orthogonal_pair(rng)
    return Endo.tensor(w, v)


def random_unimodular(rng: random.Random) -> tuple[Endo, Endo]:
    """(g, g^{-1}) as a product of six integer shears; exact inverse free."""
    g = Endo.identity()
    g_inv = Endo.identity()
    for _ in range(6):
        i, j = rng.sample(range(1, DIM + 1), 2)
        c = rng.choice([-2, -1, 1, 2])
        shear = Endo.identity() + c * Endo.unit(i, j)
        unshear = Endo.identity() - c * Endo.unit(i, j)
        g = g @ shear
        g_inv = unshear @ g_inv
    return g, g_inv


def random_even_scalar(rng: random.Random):
    """A random polynomial of degree at most 4 in t = s² (even in s) with
    small integer coefficients; suitable as a perturbation coefficient."""
    from .invariant.chamber import _ZERO_SCALAR, ChamberScalar
    out = _ZERO_SCALAR
    for _ in range(rng.randint(1, 4)):
        coeff = rng.randint(-9, 9)
        out = out + ChamberScalar.monomial(coeff, 2 * rng.randint(0, 4), 0)
    return out
