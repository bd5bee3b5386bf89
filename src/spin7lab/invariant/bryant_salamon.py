"""The Bryant-Salamon 4-form on the chamber and its invariant perturbations.

Everything is assembled from quaternion-valued one-forms exactly as the
geometry dictates: α = ds − s(iA⁴+jA⁵+kA⁶) along the section a = s, the
spinor form ω = X⁴+iX¹+jX²+kX³, the two-form triples B = ½ᾱ∧α and
½ω̄∧ω, and Φ = f²ψ₁ + fgψ₂ + g²ψ₃ with f = 4w⁻², g = 5w³ (the radial
functions 4(1+t)^{-2/5} and 5(1+t)^{3/5} in chamber variables).  The
quaternion-valued forms are ``liealg.Quaternion``s of chamber forms, and
ᾱ∧α is their Hamilton product with ``forms.wedge`` for the product of
parts.

The perturbation machinery adds dt∧(Y⌟Φ) for an invariant field Y along
A₄, A₅, A₆ with even coefficients (smoothness at s = 0), checks
closedness and the mechanism d(dt∧Y⌟Φ) = −dt∧L_YΦ symbolically, and
exhibits the rank-one orbit witness Λ⁴(Id + Y⊗dt)Φ = Φ + dt∧(Y⌟Φ).
The Killing check runs the symmetric-tensor Lie derivative against the
induced metric.
"""

from __future__ import annotations

from functools import lru_cache

from .._record import Record
from ..exterior.forms import (KForm, _combine, _contractions,
                              blade_pullback, wedge)
from ..exterior.scalars import ZERO, FieldScalar, Q
from .liealg import LieFrame, Quaternion
from .chamber import (COFRAME_NAMES, ChamberForm, ChamberScalar, N_COFRAME,
                      S, _ZERO_SCALAR, maurer_cartan_d)

__all__ = ["BryantSalamon", "build_bryant_salamon",
           "proposition_display", "InvariantField", "perturbed_form",
           "closure_mechanism_holds", "closure_mechanism_sides",
           "orbit_witness_holds", "orbit_witness_sides", "InvariantMetric",
           "build_metric", "metric_lie_derivative", "lemma_invariant_forms",
           "pointwise_rank_one_check", "DT"]

DT = ChamberScalar.monomial(2, 1, 0)  # dt = 2s ds as a coefficient of ds

_A = {4: 4, 5: 5, 6: 6}          # coframe slots of A⁴, A⁵, A⁶
_X = {1: 7, 2: 8, 3: 9, 4: 10}   # coframe slots of X¹..X⁴


class BryantSalamon(Record):
    """The 4-form Φ together with every intermediate ingredient."""

    phi: ChamberForm                       # Φ = f²ψ₁ + fgψ₂ + g²ψ₃
    psi1: ChamberForm
    psi2: ChamberForm
    psi3: ChamberForm
    f: ChamberScalar                       # 4w⁻²
    g: ChamberScalar                       # 5w³
    fiber_forms: tuple[ChamberForm, ChamberForm, ChamberForm]


@lru_cache(maxsize=1)
def build_bryant_salamon() -> BryantSalamon:
    ds = ChamberForm.generator(0)
    a4, a5, a6 = (ChamberForm.generator(_A[i]) for i in (4, 5, 6))
    x1, x2, x3, x4 = (ChamberForm.generator(_X[i]) for i in (1, 2, 3, 4))

    alpha = Quaternion(ds, -(S * a4), -(S * a5), -(S * a6))  # da − aφ, a = s
    spinor = Quaternion(x4, x1, x2, x3)

    half = Q(1, 2)
    b_full = half * alpha.conjugate().product(alpha, wedge)
    fiber_full = half * spinor.conjugate().product(spinor, wedge)
    if b_full.w or fiber_full.w:
        raise ArithmeticError("quaternionic two-forms must be imaginary")
    b_forms = (b_full.x, b_full.y, b_full.z)
    fiber_forms = (fiber_full.x, fiber_full.y, fiber_full.z)

    psi1 = alpha.w.wedge(alpha.x).wedge(alpha.y).wedge(alpha.z)
    psi2 = sum((b.wedge(o) for b, o in zip(b_forms, fiber_forms)),
               ChamberForm.zero(4))
    psi3 = spinor.w.wedge(spinor.x).wedge(spinor.y).wedge(spinor.z)

    f = ChamberScalar.monomial(4, 0, -2)
    g = ChamberScalar.monomial(5, 0, 3)
    phi = (f * f) * psi1 + (f * g) * psi2 + (g * g) * psi3
    return BryantSalamon(phi=phi, psi1=psi1, psi2=psi2, psi3=psi3, f=f, g=g,
                         fiber_forms=fiber_forms)


def proposition_display() -> ChamberForm:
    """The pulled-back 4-form exactly as displayed, transcribed to (s, w).

    −(dt/2)∧(t f² A⁴⁵⁶ + f g Σ Aⁱ∧Ωᵢ) − t f g Σ (A-pair)∧Ωᵢ − g² X¹²³⁴
    with dt/2 = s ds, t = s², f = 4w⁻², g = 5w³, and the Ωᵢ written out as
    the fixed X-form combinations.
    """
    ds = ChamberForm.generator(0)
    blade = ChamberForm.blade
    omega1 = -blade(_X[1], _X[4]) - blade(_X[2], _X[3])
    omega2 = -blade(_X[2], _X[4]) + blade(_X[1], _X[3])
    omega3 = -blade(_X[3], _X[4]) - blade(_X[1], _X[2])

    f = ChamberScalar.monomial(4, 0, -2)
    g = ChamberScalar.monomial(5, 0, 3)
    t = ChamberScalar.monomial(1, 2, 0)
    half_dt = ChamberScalar.monomial(1, 1, 0)   # dt/2 = s ds

    a456 = blade(_A[4], _A[5], _A[6])
    a_waves = (ChamberForm.generator(_A[4]).wedge(omega1)
               + ChamberForm.generator(_A[5]).wedge(omega2)
               + ChamberForm.generator(_A[6]).wedge(omega3))
    paired = (blade(_A[5], _A[6]).wedge(omega1)
              + blade(_A[6], _A[4]).wedge(omega2)
              + blade(_A[4], _A[5]).wedge(omega3))

    out = -(half_dt * ds.wedge((t * f * f) * a456 + (f * g) * a_waves))
    out = out - (t * f * g) * paired
    out = out - (g * g) * blade(_X[1], _X[2], _X[3], _X[4])
    return out


class InvariantField(Record):
    """Y = aA₄ + bA₅ + cA₆, the general invariant vector field, for any
    chamber scalars a, b, c.  ``perturbed_form`` wants them even in s, as
    functions of t = s²: that is smoothness at s = 0, not closedness, since
    Φ + dt∧(Y⌟Φ) is closed for Y = (s, 0, 0) and (s³, 2s, −s) as well."""

    a: ChamberScalar
    b: ChamberScalar
    c: ChamberScalar

    @staticmethod
    def of(a, b, c) -> "InvariantField":
        return InvariantField(ChamberScalar.of(a), ChamberScalar.of(b),
                              ChamberScalar.of(c))

    def coefficients(self) -> tuple[tuple[int, ChamberScalar], ...]:
        return ((_A[4], self.a), (_A[5], self.b), (_A[6], self.c))

    def is_even(self) -> bool:
        return all(c.is_even_in_s() for c in (self.a, self.b, self.c))

    def contract(self, form: ChamberForm) -> ChamberForm:
        """Y⌟form = Σ y_slot·(e_slot⌟form) in ChamberScalar arithmetic, the
        e_slot⌟form from one walk ``forms._contractions`` up to A⁶ and
        summed per output blade; ValueError on anything but a ChamberForm."""
        if type(form) is not ChamberForm:
            raise ValueError("Y⌟ contracts a ChamberForm only")
        pieces = _contractions(form._nums, _A[6] + 1)
        return ChamberForm._of_numerators(form.degree - 1, _combine(
            (pieces[slot], y) for slot, y in self.coefficients() if y))


def _dt_wedge(form: ChamberForm) -> ChamberForm:
    """dt∧form in one pass: dt = 2s ds, ds is slot 0, so each blade without
    ds gains bit 0 (sign +1) and its coefficient the factor 2s."""
    return ChamberForm._of_numerators(form.degree + 1, {
        m | 1: c._scaled(DT) for m, c in form._nums.items() if not m & 1})


def perturbed_form(field: InvariantField, bs: BryantSalamon) -> ChamberForm:
    """Φ + dt∧(Y⌟Φ) in chamber variables (dt = 2s ds)."""
    if not field.is_even():
        raise ValueError("perturbation coefficients must be even functions of s")
    return bs.phi + _dt_wedge(field.contract(bs.phi))


def closure_mechanism_sides(field: InvariantField, bs: BryantSalamon,
                            frame: LieFrame) -> tuple:
    """(d(dt∧Y⌟Φ), −dt∧L_YΦ): equal sides of the identity behind
    closedness.  Y⌟Φ is contracted once for both sides, and Cartan's
    L_YΦ = d(Y⌟Φ) + Y⌟dΦ is written out; dΦ is computed, not assumed 0."""
    y_phi = field.contract(bs.phi)
    lie = maurer_cartan_d(y_phi, frame) + field.contract(
        maurer_cartan_d(bs.phi, frame))
    return maurer_cartan_d(_dt_wedge(y_phi), frame), -_dt_wedge(lie)


def closure_mechanism_holds(field: InvariantField, bs: BryantSalamon,
                            frame: LieFrame) -> bool:
    """d(dt∧Y⌟Φ) = −dt∧L_YΦ (``closure_mechanism_sides``)."""
    lhs, rhs = closure_mechanism_sides(field, bs, frame)
    return lhs == rhs


def orbit_witness_sides(field: InvariantField, bs: BryantSalamon) -> tuple:
    """(Λ⁴(Id + Y⊗dt)Φ, the perturbed form): equal when the orbit witness
    holds.

    Y⊗dt is rank one and square zero over the chamber ring (dt(Y) = 0), so
    this realizes the perturbation as a pointwise GL-orbit move.
    """
    ds = ChamberForm.generator(0)
    images = [ChamberForm.generator(k) for k in range(N_COFRAME)]
    for slot, coeff in field.coefficients():
        images[slot] = images[slot] + (DT * coeff) * ds
    return blade_pullback(bs.phi, images), perturbed_form(field, bs)


def orbit_witness_holds(field: InvariantField, bs: BryantSalamon) -> bool:
    """Λ⁴(Id + Y⊗dt) maps Φ to the perturbed form (``orbit_witness_sides``)."""
    lhs, rhs = orbit_witness_sides(field, bs)
    return lhs == rhs


class InvariantMetric:
    """A symmetric 2-tensor over the coframe with exact coefficients."""

    __slots__ = ("entries",)

    def __init__(self, entries: dict[tuple[int, int], ChamberScalar]):
        self.entries = {}
        for (i, j), c in entries.items():
            if c:
                self.entries[(min(i, j), max(i, j))] = c

    def get(self, i: int, j: int) -> ChamberScalar:
        return self.entries.get((min(i, j), max(i, j)), _ZERO_SCALAR)

    def __bool__(self):
        return bool(self.entries)

    def __eq__(self, other):
        return isinstance(other, InvariantMetric) and self.entries == other.entries

    def is_diagonal(self) -> bool:
        return all(i == j for i, j in self.entries)

    def has_positive_coefficients(self) -> bool:
        """Each stored coefficient is a positive-rational combination of
        monomials in s and w, hence positive wherever s, w > 0."""
        for c in self.entries.values():
            if not all(co.is_positive_rational() for _, _, co in c.sorted_terms()):
                return False
        return True

    def to_record(self) -> dict:
        return {"entries": [{"slots": [i, j],
                             "names": [COFRAME_NAMES[i], COFRAME_NAMES[j]],
                             "coefficient": c.to_record()}
                            for (i, j), c in sorted(self.entries.items())]}


def build_metric() -> InvariantMetric:
    """f(ds² + s²((A⁴)²+(A⁵)²+(A⁶)²)) + g((X¹)²+…+(X⁴)²)."""
    bs = build_bryant_salamon()
    s2 = ChamberScalar.monomial(1, 2, 0)
    entries = {(0, 0): bs.f}
    for i in (4, 5, 6):
        entries[(_A[i], _A[i])] = bs.f * s2
    for i in (1, 2, 3, 4):
        entries[(_X[i], _X[i])] = bs.g
    return InvariantMetric(entries)


def metric_lie_derivative(slot: int, metric: InvariantMetric,
                          frame: LieFrame) -> InvariantMetric:
    """(L_X g)_ij = −Σ_k c^k_{Xi} g_kj − Σ_k c^k_{Xj} g_ik for a generator X.

    Metric coefficients depend on s only, and generator fields are tangent
    to the orbits, so the X(g_ij) term vanishes; slot 0 (the s-direction)
    commutes with every generator.
    """
    # c[i][k] = c^k_{slot,i} over coframe slots; ds (slot 0) brackets to zero
    c = [[frame.structure[slot - 1][i - 1][k - 1] if slot and i and k
          else ZERO for k in range(N_COFRAME)] for i in range(N_COFRAME)]
    out: dict[tuple[int, int], ChamberScalar] = {}
    for i in range(N_COFRAME):
        for j in range(i, N_COFRAME):
            total = _ZERO_SCALAR
            for k in range(N_COFRAME):
                if c[i][k] and metric.get(k, j):
                    total = total - metric.get(k, j) * c[i][k]
                if c[j][k] and metric.get(i, k):
                    total = total - metric.get(i, k) * c[j][k]
            out[(i, j)] = total
    return InvariantMetric(out)


def lemma_invariant_forms() -> tuple[ChamberForm, ChamberForm]:
    """The two orbit-restricted pieces every invariant field annihilates:
    A⁵⁶∧Ω₁ + A⁶⁴∧Ω₂ + A⁴⁵∧Ω₃ and X¹²³⁴."""
    bs = build_bryant_salamon()
    blade = ChamberForm.blade
    o1, o2, o3 = bs.fiber_forms
    first = (blade(_A[5], _A[6]).wedge(o1) + blade(_A[6], _A[4]).wedge(o2)
             + blade(_A[4], _A[5]).wedge(o3))
    second = blade(_X[1], _X[2], _X[3], _X[4])
    return first, second


def pointwise_rank_one_check(field: InvariantField, s_value) -> dict:
    """The flat rank-one criterion replayed on Ω at one chamber point, with
    v = 2s₀e₁ (dt = 2s ds) and w = Y(s₀) on e2..e4 (A4..A6): for w ≠ 0,
    the rank, square and Jordan type of w ⊗ v♭ and whether
    Λ⁴(Id + w⊗v♭)Ω = Ω + v♭∧(w⌟Ω).  Nothing ties Φ to Ω here: ROADMAP
    item 1 measured Φ pointwise in the orbit of −Ω, not Ω (same stabilizer)."""
    from ..cayley import build_omega, perturb_rank_one
    from ..classify import jordan_type_of
    from ..exterior.endo import Endo, pullback

    s0 = FieldScalar.of(s_value)
    if not (s0.is_rational() and s0.is_positive_rational()):
        raise ValueError("chamber sample points must be positive rationals")
    values = [c.evaluate(s0) for c in (field.a, field.b, field.c)]
    record = {"s": str(s0), "field_value": [str(x) for x in values]}
    v = KForm.vector((s0 + s0, 0, 0, 0, 0, 0, 0, 0))
    w = KForm.vector((0, *values, 0, 0, 0, 0))
    if not w:
        record.update(trivial=True, in_orbit=True)
        return record
    endo = Endo.tensor(w, v)
    perturbed = perturb_rank_one(v, w, 1)
    omega = build_omega().omega
    in_orbit = (pullback(Endo.identity() + endo, omega) == perturbed)
    record.update(
        trivial=False,
        rank=endo.rank(),
        square_zero=not (endo @ endo),
        jordan_type=list(jordan_type_of(endo).parts),
        in_orbit=in_orbit,
    )
    return record
