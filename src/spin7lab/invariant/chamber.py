"""Exact function ring and coframe calculus on the cohomogeneity-one chamber.

Radial functions live in the ring F[s, w, w⁻¹]/(w⁵ − 1 − s²) over
F = Q(sqrt2, sqrt3): the substitution s = sqrt(t), w = (1 + s²)^{1/5}
turns every fractional power appearing in the geometry into a Laurent
polynomial, so d, wedge and Lie derivatives stay exact.  The derivation is
determined by ∂_s w = (2/5) s w⁻⁴.

ChamberForm is the shared sparse exterior algebra (exterior.forms) over
the 11 coframe generators {ds, A¹..A⁶, X¹..X⁴}, addressed by 0-based slots;
the differential combines ∂_s on coefficients with the Maurer-Cartan
equation de^k = −Σ_{i<j} c^k_{ij} e^i∧e^j.  It sums the raw, unreduced
(s, w) terms of all contributions and makes one canonicalization per
output blade; canonical forms are unique, so the result does not depend
on the order of summation.
"""

from __future__ import annotations

from typing import Iterable

from ..exterior.blades import contract_sign, indices_of, mask_of, wedge_sign
from ..exterior.forms import Form, contract_generator
from ..exterior.scalars import ZERO, Q, FieldScalar
from .liealg import LieFrame, N_GENERATORS, build_lie_frame

__all__ = ["ChamberScalar", "ChamberForm", "COFRAME_NAMES", "S", "W", "W_INV",
           "T", "coframe_differentials", "maurer_cartan_d", "contract_generator",
           "lie_derivative"]

COFRAME_NAMES = ("ds", "A1", "A2", "A3", "A4", "A5", "A6",
                 "X1", "X2", "X3", "X4")
N_COFRAME = len(COFRAME_NAMES)

_TWO_FIFTHS = FieldScalar(Q(2, 5))
# constants a ChamberScalar accepts as operands, as FieldScalar does
_CONSTANTS = (int, Q, FieldScalar)


class ChamberScalar:
    """An element of F[s, w, w⁻¹]/(w⁵ − 1 − s²) in canonical form.

    Stored as a map (s_exp, net_w_exp) -> FieldScalar where the net
    exponents are those of the unique representative numerator·w^{-k} with
    k minimal and numerator w-degrees in 0..4.
    """

    __slots__ = ("terms",)

    def __init__(self, raw: dict[tuple[int, int], FieldScalar] | None = None):
        self.terms = _canonical(raw or {})

    # -- constructors ---------------------------------------------------

    @staticmethod
    def of(x) -> "ChamberScalar":
        if isinstance(x, ChamberScalar):
            return x
        return ChamberScalar({(0, 0): FieldScalar.of(x)})

    @staticmethod
    def _coerce(x):
        if isinstance(x, ChamberScalar):
            return x
        if isinstance(x, _CONSTANTS):
            return ChamberScalar({(0, 0): FieldScalar.of(x)})
        return None

    @staticmethod
    def monomial(coeff, s_exp: int = 0, w_exp: int = 0) -> "ChamberScalar":
        return ChamberScalar({(s_exp, w_exp): FieldScalar.of(coeff)})

    @staticmethod
    def from_terms(entries: Iterable[tuple[int, int, object]]) -> "ChamberScalar":
        raw: dict[tuple[int, int], FieldScalar] = {}
        for s_exp, w_exp, coeff in entries:
            key = (s_exp, w_exp)
            raw[key] = raw.get(key, ZERO) + FieldScalar.of(coeff)
        return ChamberScalar(raw)

    # -- ring structure ---------------------------------------------------

    def __add__(self, other):
        other = ChamberScalar._coerce(other)
        if other is None:
            return NotImplemented
        raw = dict(self.terms)
        _add_terms(raw, other.terms.items())
        return ChamberScalar(raw)

    __radd__ = __add__

    def __sub__(self, other):
        other = ChamberScalar._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = ChamberScalar._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        out = ChamberScalar.__new__(ChamberScalar)
        out.terms = {k: -c for k, c in self.terms.items()}
        return out

    def __mul__(self, other):
        if isinstance(other, _CONSTANTS):
            return self._scaled(FieldScalar.of(other))
        if not isinstance(other, ChamberScalar):
            return NotImplemented
        # a canonical form times a nonzero constant is still canonical
        if _is_constant_term(other.terms):
            return self._scaled(other.terms[(0, 0)])
        if _is_constant_term(self.terms):
            return other._scaled(self.terms[(0, 0)])
        raw: dict[tuple[int, int], FieldScalar] = {}
        _add_terms(raw, _product_terms(self.terms, other.terms))
        return ChamberScalar(raw)

    __rmul__ = __mul__

    def _scaled(self, s: FieldScalar) -> "ChamberScalar":
        if not s:
            return ChamberScalar()
        out = ChamberScalar.__new__(ChamberScalar)
        out.terms = {k: s * c for k, c in self.terms.items()}
        return out

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined in the ring")
        out = ChamberScalar.of(1)
        for _ in range(n):
            out = out * self
        return out

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, _CONSTANTS):
            other = ChamberScalar.of(other)
        if not isinstance(other, ChamberScalar):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # a constant equals its FieldScalar (or int, or Q), so it must hash like it
        if self.is_constant():
            return hash(self.terms.get((0, 0), ZERO))
        return hash(frozenset(self.terms.items()))

    # -- calculus and predicates -----------------------------------------

    def derivative(self) -> "ChamberScalar":
        """∂_s, with ∂_s w = (2/5) s w⁻⁴."""
        raw: dict[tuple[int, int], FieldScalar] = {}
        _add_terms(raw, _derivative_terms(self.terms))
        return ChamberScalar(raw)

    def is_even_in_s(self) -> bool:
        return all(a % 2 == 0 for (a, _e) in self.terms)

    def is_constant(self) -> bool:
        return all(k == (0, 0) for k in self.terms)

    def evaluate(self, s_value) -> FieldScalar:
        """Value at a rational point of the s-axis; defined for w-free
        elements only (the canonical form of a genuine w-power never has
        w-exponent zero everywhere)."""
        s_value = FieldScalar.of(s_value)
        out = ZERO
        for (a, e), c in self.terms.items():
            if e:
                raise ValueError("cannot evaluate a w-dependent coefficient at a point")
            out = out + c * s_value ** a
        return out

    def sorted_terms(self) -> list[tuple[int, int, FieldScalar]]:
        return [(a, e, c) for (a, e), c in sorted(self.terms.items())]

    def to_record(self) -> dict:
        return {"terms": [{"s_exp": a, "w_exp": e,
                           "coeff": c.to_record()}
                          for a, e, c in self.sorted_terms()]}

    @staticmethod
    def from_record(record: dict) -> "ChamberScalar":
        raw = {}
        for t in record["terms"]:
            raw[(int(t["s_exp"]), int(t["w_exp"]))] = FieldScalar.from_record(
                t["coeff"])
        return ChamberScalar(raw)

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for a, e, c in self.sorted_terms():
            mono = "*".join(filter(None, [
                f"({c})", f"s^{a}" if a else "", f"w^{e}" if e else ""]))
            bits.append(mono)
        return " + ".join(bits)

    __repr__ = __str__


def _is_constant_term(terms: dict) -> bool:
    """Whether a canonical term map is one nonzero constant."""
    return len(terms) == 1 and (0, 0) in terms


# Raw term maps (s_exp, w_exp) -> FieldScalar need not be canonical; the
# helpers below build and sum them, and ChamberScalar(raw) reduces once.

def _add_terms(raw: dict[tuple[int, int], FieldScalar], items) -> None:
    """Add (key, coefficient) pairs into a raw term map."""
    for key, c in items:
        prev = raw.get(key)
        raw[key] = c if prev is None else prev + c


def _product_terms(x: dict, y: dict):
    """The raw terms of the product of two term maps, unsummed."""
    for (a1, e1), c1 in x.items():
        for (a2, e2), c2 in y.items():
            yield (a1 + a2, e1 + e2), c1 * c2


def _derivative_terms(terms: dict):
    """The raw terms of ∂_s, with ∂_s w = (2/5) s w⁻⁴, unsummed."""
    for (a, e), c in terms.items():
        if a:
            yield (a - 1, e), FieldScalar(a) * c
        if e:
            yield (a + 1, e - 5), (_TWO_FIFTHS * FieldScalar(e)) * c


def _canonical(raw: dict[tuple[int, int], FieldScalar]) -> dict[tuple[int, int], FieldScalar]:
    """Reduce to the unique representative with minimal w-denominator."""
    terms = {k: c for k, c in raw.items() if c}
    if not terms:
        return {}
    shift = max(0, -min(e for (_a, e) in terms))
    # numerator form: all w-exponents >= 0
    num: dict[tuple[int, int], FieldScalar] = {}
    for (a, e), c in terms.items():
        num[(a, e + shift)] = num.get((a, e + shift), ZERO) + c
    # reduce w-degree into 0..4 using w⁵ = 1 + s²
    while True:
        high = [(a, e) for (a, e) in num if e >= 5]
        if not high:
            break
        for a, e in high:
            c = num.pop((a, e))
            for key in ((a, e - 5), (a + 2, e - 5)):
                num[key] = num.get(key, ZERO) + c
        num = {k: c for k, c in num.items() if c}
    # minimality: divide numerator by w while the shift allows and the
    # w⁰ layer is divisible by 1 + s² in F[s]
    while shift > 0:
        layer0 = {a: c for (a, e), c in num.items() if e == 0}
        quotient = _divide_by_one_plus_s2(layer0)
        if quotient is None:
            break
        nxt: dict[tuple[int, int], FieldScalar] = {}
        for (a, e), c in num.items():
            if e:
                nxt[(a, e - 1)] = nxt.get((a, e - 1), ZERO) + c
        for a, c in quotient.items():
            nxt[(a, 4)] = nxt.get((a, 4), ZERO) + c
        num = {k: c for k, c in nxt.items() if c}
        shift -= 1
        if not num:
            break
    return {(a, e - shift): c for (a, e), c in num.items()}


def _divide_by_one_plus_s2(poly: dict[int, FieldScalar]) -> dict[int, FieldScalar] | None:
    """Exact quotient of a polynomial in s by (1 + s²), or None."""
    if not poly:
        return {}
    rem = dict(poly)
    out: dict[int, FieldScalar] = {}
    for deg in range(max(rem), 1, -1):
        c = rem.get(deg)
        if not c:
            continue
        out[deg - 2] = c
        rem.pop(deg)
        low = rem.get(deg - 2, ZERO) - c
        if low:
            rem[deg - 2] = low
        else:
            rem.pop(deg - 2, None)
    return None if any(rem.values()) else out


S = ChamberScalar.monomial(1, 1, 0)
W = ChamberScalar.monomial(1, 0, 1)
W_INV = ChamberScalar.monomial(1, 0, -1)
T = S * S

_ZERO_SCALAR = ChamberScalar()
_ONE_SCALAR = ChamberScalar.of(1)


def _slots(mask: int) -> tuple[int, ...]:
    return tuple(i - 1 for i in indices_of(mask))


class ChamberForm(Form):
    """Exterior form over the 11 chamber coframe generators."""

    __slots__ = ()
    generators = N_COFRAME
    _scalar = staticmethod(ChamberScalar.of)

    @property
    def terms(self) -> dict[int, ChamberScalar]:
        return self._terms

    @staticmethod
    def generator(slot: int) -> "ChamberForm":
        """The coframe covector for a slot: 0 = ds, 1..6 = A, 7..10 = X."""
        if not 0 <= slot < N_COFRAME:
            raise ValueError(f"slot {slot} out of range 0..{N_COFRAME - 1}")
        return ChamberForm(1, {1 << slot: _ONE_SCALAR})

    @staticmethod
    def blade(*slots: int, coeff=1) -> "ChamberForm":
        sign, mask = mask_of([s + 1 for s in slots], N_COFRAME)
        if sign == 0:
            return ChamberForm(len(slots))
        c = ChamberScalar.of(coeff)
        return ChamberForm(len(slots), {mask: c if sign == 1 else -c})

    @staticmethod
    def scalar(coeff) -> "ChamberForm":
        return ChamberForm(0, {0: ChamberScalar.of(coeff)})

    def coefficient(self, *slots: int) -> ChamberScalar:
        sign, mask = mask_of([s + 1 for s in slots], N_COFRAME)
        if sign == 0:
            return _ZERO_SCALAR
        got = self._terms.get(mask, _ZERO_SCALAR)
        return got if sign == 1 else -got

    def blades(self) -> list[tuple[tuple[int, ...], ChamberScalar]]:
        return sorted(((_slots(m), c) for m, c in self._terms.items()),
                      key=lambda sc: sc[0])

    def __str__(self):
        if not self._terms:
            return "0"
        bits = []
        for slots, c in self.blades():
            label = "^".join(COFRAME_NAMES[s] for s in slots) or "1"
            bits.append(f"[{c}] {label}")
        return "  +  ".join(bits)

    __repr__ = __str__

    def to_record(self) -> dict:
        return {"degree": self.degree,
                "terms": [{"slots": list(slots),
                           "names": [COFRAME_NAMES[s] for s in slots],
                           "coefficient": c.to_record()}
                          for slots, c in self.blades()]}

    @staticmethod
    def from_record(record: dict) -> "ChamberForm":
        acc: dict[int, ChamberScalar] = {}
        for t in record["terms"]:
            mask = 0
            for slot in t["slots"]:
                mask |= 1 << int(slot)
            acc[mask] = ChamberScalar.from_record(t["coefficient"])
        return ChamberForm(int(record["degree"]), acc)


def coframe_differentials(frame: LieFrame) -> tuple[ChamberForm, ...]:
    """d(e^k) = −Σ_{i<j} c^k_{ij} e^i ∧ e^j for each coframe slot.

    Built afresh on every call; ``frame.coframe_differentials`` keeps the
    one built for that frame object.
    """
    out = [ChamberForm.zero(2)]  # d(ds) = 0
    for k in range(N_GENERATORS):
        acc: dict[int, ChamberScalar] = {}
        for i in range(N_GENERATORS):
            for j in range(i + 1, N_GENERATORS):
                c = frame.structure[i][j][k]
                if c:
                    # slots are generator index + 1 (slot 0 is ds)
                    mask = (1 << (i + 1)) | (1 << (j + 1))
                    acc[mask] = acc.get(mask, _ZERO_SCALAR) - ChamberScalar.of(c)
        out.append(ChamberForm(2, acc))
    return tuple(out)


def maurer_cartan_d(form: ChamberForm,
                    frame: LieFrame | None = None) -> ChamberForm:
    """Exterior derivative: ∂_s on coefficients plus Maurer-Cartan terms.

    d(c·e^I) = ∂_s c ds∧e^I + c Σ_{k∈I} de^k∧(e_k⌟e^I); de^k has even
    degree, so moving it to the front costs no sign.  The raw (s, w) terms
    of every contribution are summed per output blade, with signs from
    contract_sign/wedge_sign: one canonicalization per output blade.
    """
    frame = frame or build_lie_frame()
    dgen = frame.coframe_differentials
    acc: dict[int, dict[tuple[int, int], FieldScalar]] = {}
    for mask, coeff in form.terms.items():
        if not mask & 1:  # ds is slot 0, so ds∧e^I has sign +1
            _add_terms(acc.setdefault(mask | 1, {}),
                       _derivative_terms(coeff.terms))
        t = mask
        while t:
            bit = t & -t
            t ^= bit
            slot = bit.bit_length() - 1
            sub = mask ^ bit
            s_out = contract_sign(slot, mask)
            for m, structure in dgen[slot].terms.items():
                if m & sub:
                    continue
                if s_out * wedge_sign(m, sub) == -1:
                    structure = -structure
                _add_terms(acc.setdefault(m | sub, {}),
                           _product_terms(structure.terms, coeff.terms))
    return ChamberForm(form.degree + 1,
                       {m: ChamberScalar(raw) for m, raw in acc.items()})


def lie_derivative(slot: int, form: ChamberForm,
                   frame: LieFrame | None = None) -> ChamberForm:
    """Cartan formula L_X = d ∘ ι_X + ι_X ∘ d for a coframe-dual generator."""
    frame = frame or build_lie_frame()
    inner = maurer_cartan_d(contract_generator(slot, form), frame)
    outer = contract_generator(slot, maurer_cartan_d(form, frame))
    return inner + outer
