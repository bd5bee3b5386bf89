"""The Cayley 4-form on R^8, its stabilizer, and the split of Λ⁴.

Builds Ω = α²/2 + Re β from the standard complex coordinates, computes the
21-dimensional annihilator {A : ρ(A)Ω = 0} by exact elimination, realizes
the decomposition Λ⁴ = Λ⁴₁ ⊕ Λ⁴₇ ⊕ Λ⁴₂₇ ⊕ Λ⁴₃₅ through four exact
projectors (p1, p7 and p35 in closed form, p27 the remainder, with no
elimination), and provides the degeneracy cube (u⌟v⌟a)³, read off the
Pfaffians of u⌟v⌟a on the 28 six-blades, together with the rank-one
perturbation Ω + t·v♭∧(w⌟Ω).

The projectors are FormOperators (exterior.forms): one {mask: coefficient}
dict per basis 4-blade, applied and composed with one accumulator per
output blade.  All four are rational, so they are applied and composed on
int numerators over one denominator per projector, and a rational ρ(A)Ω
is projected without a FieldScalar product.  The stabilizer and the orbit
dimensions are the kernel and the rank of the map A ↦ ρ(A)Ω, a
FormOperator from gl(8) into Λ⁴; the elements of gl(8) are Endos, the
same operator type on Λ¹.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .exterior.blades import BLADES, wedge_sign
from .exterior.forms import (FormOperator, KForm, Vector, _combine,
                             _pair_contracted, contract, hodge_star, inner,
                             wedge)
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
        return (ps[0] + ps[1] + ps[2] + ps[3] == FormOperator.identity(4)
                and not any(p @ q for i, p in enumerate(ps)
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
    """p1 = Ω⟨Ω, ·⟩/|Ω|², p35 = (1 − ∗)/2, p7 by Schur's lemma and p27 the
    remainder, with no elimination.  The 28 images T_ij = ρ(E_ij − E_ji)Ω
    of ``so8_basis()`` come from a basis of so(8) that is orthogonal, with
    equal norms, for the Ad-invariant trace form, so M = Σ T_ij⟨T_ij, ·⟩ is
    Spin(7)-equivariant; its image Λ⁴₇ = ρ(so(8))Ω is irreducible, so
    M = μ·p7 with μ = tr M/7 = Σ|T_ij|²/7 = 224/7 = 32.  The checks
    ``projector-ranks`` and ``resolution-of-identity`` check the result."""
    omega = build_omega().omega
    blades = [KForm(4, {m: ONE}) for m in BLADES[4]]
    norm_inv = inner(omega, omega).inverse()

    p1 = FormOperator.of_forms(4, [(inner(b, omega) * norm_inv) * omega
                                   for b in blades])

    half = FieldScalar(Q(1, 2))
    p35 = FormOperator.of_forms(4, [half * (b - hodge_star(b)) for b in blades])

    images = [dict(rho(a, omega).mask_items()) for a in so8_basis()]
    mu_inv = 7 / sum((c * c for t in images for c in t.values()), ZERO)
    p7 = FormOperator(4, [_combine((t, mu_inv * t[m]) for t in images
                                   if m in t) for m in BLADES[4]])

    p27 = FormOperator.identity(4) - p1 - p7 - p35
    return DecompositionProjectors(p1=p1, p7=p7, p27=p27, p35=p35)


def pair_contraction_cube(u: Vector, v: Vector, a: KForm) -> KForm:
    """(u⌟v⌟a)³ ∈ Λ⁶ for a 4-form a; the pair contraction is degenerate
    iff this vanishes.

    On one numerator view of u, v and a over den
    (``scalars.to_numerators``), q = den³·(u⌟v⌟a) is the sum of
    (u_i·v_j − u_j·v_i)·e_i⌟e_j⌟a over the nonzero minors i < j, each
    pair contracted on masks by ``forms._pair_contracted``.  A 2-form
    cubed is 3! times its Pfaffians: the coefficient of q³ on a 6-blade M
    is 6·Pf(q|_M), the signed sum of q_a·q_b·q_c over the perfect
    matchings {a, b, c} of M (``_matchings``), divided once by den⁹."""
    if a.degree != 4:
        raise ValueError("the contraction cube is taken of a 4-form")
    den, (us, vs, terms) = to_numerators(
        [u.components, v.components, dict(a.mask_items())])
    minors = ((i, j, us.get(i, 0) * vs.get(j, 0) - us.get(j, 0) * vs.get(i, 0))
              for i in range(8) for j in range(i + 1, 8))
    q = _combine((_pair_contracted(1 << i, 1 << j, terms), w)
                 for i, j, w in minors if w)
    cube = {}
    for m, matchings in _matchings():
        total = 0
        for sign, x, y, z in matchings:
            if x in q and y in q and z in q:
                term = q[x] * q[y] * q[z]
                total = total + term if sign > 0 else total - term
        if total:
            cube[m] = 6 * total
    return KForm(6, from_numerators(cube, den ** 9))


@lru_cache(maxsize=1)
def _matchings() -> tuple:
    """(M, its 15 perfect matchings) for each 6-blade M, a matching as
    (sign, a, b, c): three disjoint 2-blades with a∧b∧c = sign·e^M."""
    return tuple((m, tuple(_pairings(m))) for m in BLADES[6])


def _pairings(m: int):
    """(sign, 2-blade, …) for each perfect matching of the generators of
    m, the lowest generator paired first; sign is that of the wedge of the
    2-blades against e^m."""
    if not m:
        yield (1,)
        return
    low = m & -m
    rest = m ^ low
    t = rest
    while t:
        b = t & -t
        t ^= b
        for sign, *pairs in _pairings(rest ^ b):
            yield (sign * wedge_sign(low | b, rest ^ b), low | b, *pairs)


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
