"""The Cayley 4-form on R^8, its stabilizer, and the split of Λ⁴.

Builds Ω = α²/2 + Re β from the standard complex coordinates, computes the
21-dimensional annihilator {A : ρ(A)Ω = 0} by exact elimination, realizes
the decomposition Λ⁴ = Λ⁴₁ ⊕ Λ⁴₇ ⊕ Λ⁴₂₇ ⊕ Λ⁴₃₅ through four exact
projectors, and provides the degeneracy cube (u⌟v⌟a)³ together with the
rank-one perturbation Ω + t·v♭∧(w⌟Ω).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .exterior import linalg
from .exterior.blades import blades_of_degree
from .exterior.forms import (KForm, Vector, coefficient_matrix, contract,
                             hodge_star, inner, wedge)
from .exterior.endo import Endo, rho
from .exterior.scalars import ONE, ZERO, Q, FieldScalar

__all__ = ["CayleyStructure", "FormOperator", "DecompositionProjectors",
           "build_omega", "stabilizer_algebra", "so8_basis", "sl8_basis",
           "image_dimension", "projectors", "pair_contraction_cube",
           "perturb_rank_one", "skew_perturbation"]


@lru_cache(maxsize=None)
def _blade_positions(degree: int) -> dict[int, int]:
    return {m: i for i, m in enumerate(blades_of_degree(degree))}


class FormOperator:
    """A linear operator on Λ^k, stored as the images of the basis blades."""

    __slots__ = ("degree", "images")

    def __init__(self, degree: int, images: Sequence[KForm]):
        expected = len(blades_of_degree(degree))
        if len(images) != expected:
            raise ValueError(f"need {expected} images for degree {degree}")
        self.degree = degree
        self.images = tuple(images)

    @staticmethod
    def identity(degree: int) -> "FormOperator":
        return FormOperator(degree, [KForm(degree, {m: ONE})
                                     for m in blades_of_degree(degree)])

    @staticmethod
    def zero(degree: int) -> "FormOperator":
        return FormOperator(degree, [KForm(degree)] * len(blades_of_degree(degree)))

    def apply(self, form: KForm) -> KForm:
        if form.degree != self.degree:
            raise ValueError("operator degree mismatch")
        pos = _blade_positions(self.degree)
        out = KForm(self.degree)
        for m, c in form.mask_items():
            out = out + c * self.images[pos[m]]
        return out

    __call__ = apply

    def __add__(self, other: "FormOperator") -> "FormOperator":
        return FormOperator(self.degree, [a + b for a, b in
                                          zip(self.images, other.images)])

    def __sub__(self, other: "FormOperator") -> "FormOperator":
        return FormOperator(self.degree, [a - b for a, b in
                                          zip(self.images, other.images)])

    def __neg__(self) -> "FormOperator":
        return FormOperator(self.degree, [-a for a in self.images])

    def __rmul__(self, scalar) -> "FormOperator":
        s = FieldScalar.of(scalar)
        return FormOperator(self.degree, [s * a for a in self.images])

    __mul__ = __rmul__

    def __matmul__(self, other: "FormOperator") -> "FormOperator":
        return FormOperator(self.degree, [self.apply(img) for img in other.images])

    def __eq__(self, other):
        return (isinstance(other, FormOperator)
                and self.degree == other.degree and self.images == other.images)

    def __hash__(self):
        return hash((self.degree, self.images))

    def matrix(self) -> list[list[FieldScalar]]:
        """Dense matrix: columns in canonical blade order, one row per blade
        that occurs in an image."""
        return coefficient_matrix(self.images)

    def rank(self) -> int:
        return linalg.rank(self.matrix())

    def is_idempotent(self) -> bool:
        return self @ self == self


@dataclass(frozen=True)
class CayleyStructure:
    """Ω = α²/2 + Re β with its two building blocks kept separate."""

    omega: KForm
    alpha2: KForm
    re_beta: KForm


@dataclass(frozen=True)
class DecompositionProjectors:
    """Exact projectors onto Λ⁴₁, Λ⁴₇, Λ⁴₂₇, Λ⁴₃₅."""

    p1: FormOperator
    p7: FormOperator
    p27: FormOperator
    p35: FormOperator

    def all(self) -> tuple[FormOperator, ...]:
        return (self.p1, self.p7, self.p27, self.p35)

    def ranks(self) -> tuple[int, int, int, int]:
        return tuple(p.rank() for p in self.all())  # type: ignore[return-value]

    def is_resolution(self) -> bool:
        """Idempotent, pairwise annihilating, summing to the identity."""
        ps = self.all()
        total = ps[0] + ps[1] + ps[2] + ps[3]
        if total != FormOperator.identity(4):
            return False
        for i, p in enumerate(ps):
            for j, q in enumerate(ps):
                prod = p @ q
                if i == j:
                    if prod != p:
                        return False
                elif prod != FormOperator.zero(4):
                    return False
        return True


@lru_cache(maxsize=1)
def build_omega() -> CayleyStructure:
    alpha = KForm.from_terms(2, [((1, 2), 1), ((3, 4), 1), ((5, 6), 1),
                                 ((7, 8), 1)])
    alpha2 = FieldScalar(Q(1, 2)) * wedge(alpha, alpha)
    re_beta = KForm.from_terms(4, [
        ((1, 3, 5, 7), 1), ((1, 3, 6, 8), -1), ((1, 4, 5, 8), -1),
        ((1, 4, 6, 7), -1), ((2, 3, 5, 8), -1), ((2, 3, 6, 7), -1),
        ((2, 4, 5, 7), -1), ((2, 4, 6, 8), 1),
    ])
    return CayleyStructure(omega=alpha2 + re_beta, alpha2=alpha2,
                           re_beta=re_beta)


def _gl8_basis() -> list[Endo]:
    """Elementary matrices E(i,j): e^j -> e^i, row-major order."""
    return [Endo.unit(i, j) for i in range(1, 9) for j in range(1, 9)]


def so8_basis() -> list[Endo]:
    return [Endo.unit(i, j) - Endo.unit(j, i)
            for i in range(1, 9) for j in range(i + 1, 9)]


def sl8_basis() -> list[Endo]:
    off = [Endo.unit(i, j) for i in range(1, 9) for j in range(1, 9) if i != j]
    diag = [Endo.unit(i, i) - Endo.unit(i + 1, i + 1) for i in range(1, 8)]
    return off + diag


@lru_cache(maxsize=1)
def stabilizer_algebra() -> tuple[Endo, ...]:
    """Canonical basis of {A ∈ gl(8) : ρ(A)Ω = 0}; 21-dimensional."""
    omega = build_omega().omega
    gens = _gl8_basis()
    matrix = coefficient_matrix([rho(a, omega) for a in gens])
    kernel = linalg.nullspace(matrix, ncols=len(gens))
    out = []
    for vec in kernel:
        rows = [[vec[i * 8 + j] for j in range(8)] for i in range(8)]
        out.append(Endo(rows))
    return tuple(out)


def image_dimension(generators: Sequence[Endo]) -> int:
    """dim span{ρ(A)Ω : A in the given list}."""
    omega = build_omega().omega
    return linalg.rank(coefficient_matrix([rho(a, omega) for a in generators]))


@lru_cache(maxsize=1)
def projectors() -> DecompositionProjectors:
    omega = build_omega().omega
    blades = blades_of_degree(4)
    norm_inv = inner(omega, omega).inverse()

    p1 = FormOperator(4, [(inner(KForm(4, {m: ONE}), omega) * norm_inv) * omega
                          for m in blades])

    half = FieldScalar(Q(1, 2))
    p35 = FormOperator(4, [half * (KForm(4, {m: ONE})
                                   - hodge_star(KForm(4, {m: ONE})))
                           for m in blades])

    # Λ⁴₇ = ρ(so(8))Ω: keep the 7 images at pivot columns as a basis, then
    # project orthogonally via the exact Gram normal equations.
    images = [rho(a, omega) for a in so8_basis()]
    _, pivots = linalg.echelon(coefficient_matrix(images))
    span = [images[j] for j in pivots]
    gram = [[inner(a, b) for b in span] for a in span]
    gram_inv = linalg.invert(gram)
    images7 = []
    for m in blades:
        b = KForm(4, {m: ONE})
        rhs = [inner(g, b) for g in span]
        coords = [sum((gram_inv[i][j] * rhs[j] for j in range(len(span))),
                      ZERO) for i in range(len(span))]
        img = KForm(4)
        for x, g in zip(coords, span):
            img = img + x * g
        images7.append(img)
    p7 = FormOperator(4, images7)

    p27 = FormOperator.identity(4) - p1 - p7 - p35
    return DecompositionProjectors(p1=p1, p7=p7, p27=p27, p35=p35)


def pair_contraction_cube(u: Vector, v: Vector, a: KForm) -> KForm:
    """(u⌟v⌟a)³ ∈ Λ⁶; the pair contraction is degenerate iff this vanishes."""
    q = contract(u, contract(v, a))
    return wedge(q, wedge(q, q))


def perturb_rank_one(v: Vector, w: Vector, t) -> KForm:
    """Ω + t·v♭∧(w⌟Ω), the rank-one perturbation along A = w ⊗ v♭."""
    if v.dot(w):
        raise ValueError("rank-one perturbation requires α(v)=0")
    omega = build_omega().omega
    delta = wedge(v.flat().form(), contract(w, omega))
    return omega + FieldScalar.of(t) * delta


def skew_perturbation(v: Vector, w: Vector) -> KForm:
    """δ = v♭∧(w⌟Ω) − w♭∧(v⌟Ω); lands in Λ⁴₇."""
    omega = build_omega().omega
    return (wedge(v.flat().form(), contract(w, omega))
            - wedge(w.flat().form(), contract(v, omega)))
