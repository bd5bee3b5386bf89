"""The Cayley 4-form on R^8, its stabilizer, and the split of Λ⁴.

Builds Ω = α²/2 + Re β from the standard complex coordinates, computes the
21-dimensional annihilator {A : ρ(A)Ω = 0} by exact elimination, realizes
the decomposition Λ⁴ = Λ⁴₁ ⊕ Λ⁴₇ ⊕ Λ⁴₂₇ ⊕ Λ⁴₃₅ through four exact
projectors, and provides the degeneracy cube (u⌟v⌟a)³ together with the
rank-one perturbation Ω + t·v♭∧(w⌟Ω).

The projectors are FormOperators (exterior.forms): one {mask: coefficient}
dict per basis 4-blade, applied and composed with one accumulator per
output blade.  All four are rational, so they are applied and composed on
int numerators over one denominator per projector, and a rational ρ(A)Ω
is projected without a FieldScalar product.  The stabilizer and the orbit
dimensions are the kernel and the rank of the map A ↦ ρ(A)Ω, a
FormOperator from gl(8) into Λ⁴.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .exterior import linalg
from .exterior.blades import BLADES, pair_sign_mask
from .exterior.forms import (FormOperator, KForm, Vector, _wedged, contract,
                             hodge_star, inner, wedge)
from .exterior.endo import Endo, rho
from .exterior.scalars import (ONE, ZERO, Q, FieldScalar, from_numerators,
                               to_numerators)

__all__ = ["CayleyStructure", "FormOperator", "DecompositionProjectors",
           "build_omega", "stabilizer_algebra", "so8_basis", "sl8_basis",
           "image_dimension", "projectors", "pair_contraction_cube",
           "perturb_rank_one", "skew_perturbation"]


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
        """Idempotent, pairwise annihilating, summing to the identity.

        Only the sum and the 12 cross products are composed: Σⱼ pⱼ = I and
        pᵢpⱼ = 0 for i ≠ j give pᵢ = pᵢ·Σⱼ pⱼ = pᵢ², so idempotence
        follows."""
        ps = self.all()
        zero = FormOperator.zero(4)
        return (ps[0] + ps[1] + ps[2] + ps[3] == FormOperator.identity(4)
                and all(p @ q == zero for i, p in enumerate(ps)
                        for j, q in enumerate(ps) if i != j))


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
    op = FormOperator.of_forms(4, [rho(a, omega) for a in _gl8_basis()])
    return tuple(Endo([[vec.get(i * 8 + j, ZERO) for j in range(8)]
                       for i in range(8)]) for vec in op.kernel())


def image_dimension(generators: Sequence[Endo]) -> int:
    """dim span{ρ(A)Ω : A in the given list}."""
    omega = build_omega().omega
    return FormOperator.of_forms(4, [rho(a, omega) for a in generators]).rank()


@lru_cache(maxsize=1)
def projectors() -> DecompositionProjectors:
    omega = build_omega().omega
    blades = [KForm(4, {m: ONE}) for m in BLADES[4]]
    norm_inv = inner(omega, omega).inverse()

    p1 = FormOperator.of_forms(4, [(inner(b, omega) * norm_inv) * omega
                                   for b in blades])

    half = FieldScalar(Q(1, 2))
    p35 = FormOperator.of_forms(4, [half * (b - hodge_star(b)) for b in blades])

    # Λ⁴₇ = ρ(so(8))Ω: keep the 7 images at pivot columns as a basis, then
    # project orthogonally via the exact Gram normal equations.
    images = [rho(a, omega) for a in so8_basis()]
    span = [images[j] for j in FormOperator.of_forms(4, images).pivots()]
    span_op = FormOperator.of_forms(4, span)
    gram_inv = linalg.invert([[inner(a, b) for b in span] for a in span])
    images7 = []
    for b in blades:
        rhs = [inner(g, b) for g in span]
        images7.append(span_op.image(
            [sum((x * y for x, y in zip(row, rhs)), ZERO) for row in gram_inv]))
    p7 = FormOperator.of_forms(4, images7)

    p27 = FormOperator.identity(4) - p1 - p7 - p35
    return DecompositionProjectors(p1=p1, p7=p7, p27=p27, p35=p35)


def _pair_contracted(u: Vector, v: Vector, masks, vectors) -> tuple[int, list]:
    """(d, [d·(u⌟v⌟ω) for ω in vectors]), ω as (j, coefficient of masks[j])
    items, with d = den² for the numerator view of u and v over den: a
    blade m holding e_a and e_b goes to m ^ b ^ a with the sign of
    ``blades.pair_sign_mask``."""
    den, rows = to_numerators([u.components, v.components])
    us, vs = ([(1 << i, c) for i, c in row.items()] for row in rows)
    pairs = [(a | b, pair_sign_mask(a, b), x * y)
             for a, x in us for b, y in vs if a != b]
    qs = []
    for items in vectors:
        acc: dict = {}
        for j, x in items:
            m = masks[j]
            for ab, sign_mask, w in pairs:
                if (m & ab) == ab:
                    term = -w * x if (m & sign_mask).bit_count() & 1 else w * x
                    acc[m ^ ab] = acc.get(m ^ ab, 0) + term
        qs.append({m: c for m, c in acc.items() if c})
    return den * den, qs


def pair_contraction_cube(u: Vector, v: Vector, a: KForm) -> KForm:
    """(u⌟v⌟a)³ ∈ Λ⁶; the pair contraction is degenerate iff this vanishes.

    q = u⌟v⌟a is built on the numerator view of a, u and v
    (``scalars.to_numerators``), cubed with ``forms._wedged`` and divided
    once per coefficient by the cube of its denominator."""
    masks, coeffs = zip(*a.mask_items()) if a else ((), ())
    den_a, (numerators,) = to_numerators([coeffs])
    den_uv, (q,) = _pair_contracted(u, v, masks, [numerators.items()])
    return KForm(3 * a.degree - 6, from_numerators(
        _wedged(q, _wedged(q, q)), (den_a * den_uv) ** 3))


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
