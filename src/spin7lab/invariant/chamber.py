"""Exact function ring and coframe calculus on the cohomogeneity-one chamber.

Radial functions live in the ring F[s, w, w⁻¹]/(w⁵ − 1 − s²) over
F = Q(sqrt2, sqrt3): the substitution s = sqrt(t), w = (1 + s²)^{1/5}
turns every fractional power appearing in the geometry into a Laurent
polynomial, so d, wedge and Lie derivatives stay exact.  The derivation is
determined by ∂_s w = (2/5) s w⁻⁴.

ChamberForm is the shared sparse exterior algebra (exterior.forms) over
the 11 coframe generators {ds, A¹..A⁶, X¹..X⁴}, addressed by 0-based slots;
the differential combines ∂_s on coefficients with the Maurer-Cartan
equation de^k = −Σ_{i<j} c^k_{ij} e^i∧e^j, read from the frame's constants
into one table of numerators per frame (``LieFrame.maurer_cartan_table``).
d, ∂_s and products without a w-free monomial factor c·s^a sum raw (s, w)
terms on the numerator view of their inputs (``scalars.to_numerators``;
w⁵ = 1 + s², division by the monic 1 + s² and 5∂_s keep int numerators
integral); each output scalar is canonicalized once, each term divided once.
"""

from __future__ import annotations

from math import comb
from typing import Iterable

from ..exterior.blades import indices_of, mask_of
from ..exterior.forms import Form, contract_generator
from ..exterior.scalars import (ONE, ZERO, Q, FieldScalar, from_numerators,
                                to_numerators)
from .liealg import LieFrame, N_GENERATORS, build_lie_frame

__all__ = ["ChamberScalar", "ChamberForm", "COFRAME_NAMES", "S", "W", "W_INV",
           "T", "maurer_cartan_d", "contract_generator", "lie_derivative"]

COFRAME_NAMES = ("ds", "A1", "A2", "A3", "A4", "A5", "A6",
                 "X1", "X2", "X3", "X4")
N_COFRAME = len(COFRAME_NAMES)

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
        if isinstance(x, (ChamberScalar, *_CONSTANTS)):
            return ChamberScalar.of(x)
        return None

    @staticmethod
    def monomial(coeff, s_exp: int = 0, w_exp: int = 0) -> "ChamberScalar":
        return ChamberScalar({(s_exp, w_exp): FieldScalar.of(coeff)})

    @staticmethod
    def from_terms(entries: Iterable[tuple[int, int, object]]) -> "ChamberScalar":
        raw: dict[tuple[int, int], FieldScalar] = {}
        _add_terms(raw, (((a, e), FieldScalar.of(c)) for a, e, c in entries))
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
        # by a w-free monomial c·s^a (a constant when a = 0): see _scaled
        for x, y in ((self, other), (other, self)):
            if len(y.terms) == 1:
                ((a, e), c), = y.terms.items()
                if not e:
                    return x._scaled(c, a)
        den, (x, y) = to_numerators([self.terms, other.terms])
        raw: dict = {}
        _add_products(raw, x, y)
        return _over(raw, den * den)

    __rmul__ = __mul__

    def _scaled(self, c: FieldScalar, a: int = 0) -> "ChamberScalar":
        """self·c·s^a, without re-canonicalizing: 1 + s² is coprime to s over
        F, so the w⁰-layer divisibility test that fixes the canonical form
        gives the same answer on s^a times a numerator.  By 1 it is self."""
        if not c:
            return ChamberScalar()
        if not a and c == ONE:
            return self
        out = ChamberScalar.__new__(ChamberScalar)
        out.terms = {(b + a, e): c * x for (b, e), x in self.terms.items()}
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
        """∂_s, with ∂_s w = (2/5) s w⁻⁴, as 5∂_s divided by 5."""
        den, (terms,) = to_numerators([self.terms])
        raw: dict = {}
        _add_terms(raw, _derivative_terms(terms))
        return _over(raw, 5 * den)

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


# Raw term maps (s_exp, w_exp) -> coefficient need not be canonical.  The
# helpers below build, sum and reduce them on ints or on FieldScalars:
# every sum starts from its first term, never from ZERO.

def _over(raw: dict, den: int) -> ChamberScalar:
    """raw/den, canonicalized once, then divided once per term."""
    out = ChamberScalar.__new__(ChamberScalar)
    out.terms = from_numerators(_canonical(raw), den)
    return out


def _add_terms(raw: dict, items) -> None:
    """Add (key, coefficient) pairs into a raw term map."""
    for key, c in items:
        prev = raw.get(key)
        raw[key] = c if prev is None else prev + c


def _add_scaled(raw: dict, k, terms: dict) -> None:
    """Add k times a term map into raw."""
    for key, c in terms.items():
        prev = raw.get(key)
        raw[key] = k * c if prev is None else prev + k * c


def _add_products(raw: dict, x: dict, y: dict) -> None:
    """Add the raw terms of the product of two term maps into raw."""
    for (a1, e1), c1 in x.items():
        for (a2, e2), c2 in y.items():
            key = (a1 + a2, e1 + e2)
            prev = raw.get(key)
            raw[key] = c1 * c2 if prev is None else prev + c1 * c2


def _derivative_terms(terms: dict, factor: int = 1):
    """The raw terms of factor·5∂_s (∂_s w = (2/5) s w⁻⁴), unsummed."""
    for (a, e), c in terms.items():
        if a:
            yield (a - 1, e), 5 * factor * a * c
        if e:
            yield (a + 1, e - 5), 2 * factor * e * c


def _canonical(raw: dict) -> dict:
    """Reduce to the unique representative with minimal w-denominator."""
    terms = {k: c for k, c in raw.items() if c}
    if not terms:
        return {}
    exponents = [e for _a, e in terms]
    shift = max(0, -min(exponents))
    # numerator form with w-degrees in 0..4: w^(5q + r) = (1 + s²)^q w^r
    if max(exponents) + shift < 5:
        if not shift:
            return terms
        num = {(a, e + shift): c for (a, e), c in terms.items()}
    else:
        num = {}
        for (a, e), c in terms.items():
            q, r = divmod(e + shift, 5)
            # the binomials of q = 1 are both 1
            _add_terms(num, (((a + 2 * j, r), c if q == 1 else comb(q, j) * c)
                             for j in range(q + 1)))
        num = {k: c for k, c in num.items() if c}
    # minimality: divide numerator by w while the shift allows and the
    # w⁰ layer is divisible by 1 + s² in F[s]
    while shift > 0:
        quotient = _divide_by_one_plus_s2(
            {a: c for (a, e), c in num.items() if e == 0})
        if quotient is None:
            break
        # w-degrees 1..4 drop to 0..3, so the quotient's w⁴ layer is new
        num = {(a, e - 1): c for (a, e), c in num.items() if e}
        num.update(((a, 4), c) for a, c in quotient.items())
        shift -= 1
    return {(a, e - shift): c for (a, e), c in num.items()}


def _divide_by_one_plus_s2(poly: dict) -> dict | None:
    """Exact quotient of a polynomial in s by the monic 1 + s², or None;
    integral on int coefficients.  The quotient has no zero coefficients."""
    rem = dict(poly)
    out: dict = {}
    for deg in range(max(rem, default=1), 1, -1):
        c = rem.pop(deg, 0)
        if not c:
            continue
        out[deg - 2] = c
        prev = rem.get(deg - 2)
        rem[deg - 2] = -c if prev is None else prev - c
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

    def to_record(self) -> dict:
        return {"degree": self.degree,
                "terms": [{"slots": list(slots),
                           "names": [COFRAME_NAMES[s] for s in slots],
                           "coefficient": c.to_record()}
                          for slots, c in self.blades()]}


def _maurer_cartan_table(frame: LieFrame) -> tuple[int, tuple]:
    """(D_frame, 5·de^k per coframe slot), de^k = −Σ_{i<j} c^k_ij e^i∧e^j
    read from ``frame.structure`` (generator i is slot i + 1; d(ds) = 0):
    per blade e^i∧e^j, (its mask, the bits from i to below j, 5·numerator
    of −c^k_ij, its negation), an int over D_frame or, with a surd, a
    FieldScalar."""
    structure = frame.structure
    entries = [(k + 1, 2 << i | 2 << j, structure[i][j][k])
               for k in range(N_GENERATORS) for i in range(N_GENERATORS)
               for j in range(i + 1, N_GENERATORS) if structure[i][j][k]]
    den, (nums,) = to_numerators([[c for _, _, c in entries]])
    table: list[list] = [[] for _ in range(N_COFRAME)]
    for i, (slot, m, _) in enumerate(entries):
        five = -5 * nums[i]
        low = m & -m
        table[slot].append((m, ((m ^ low) - 1) ^ (low - 1), five, -five))
    return den, tuple(map(tuple, table))


def maurer_cartan_d(form: ChamberForm,
                    frame: LieFrame | None = None) -> ChamberForm:
    """Exterior derivative: ∂_s on coefficients plus Maurer-Cartan terms.

    d(c·e^I) = ∂_s c ds∧e^I + c Σ_{k∈I} de^k∧(e_k⌟e^I); de^k has even
    degree, so moving it to the front costs no sign.  The constants of
    5·de^k come from ``frame.maurer_cartan_table``, built once per frame
    object, as numerators over D_frame.  The raw (s, w) terms of 5·d are
    summed per output blade on the numerator view of the form (over
    D_form), each Maurer-Cartan term as one numerator times a term map,
    then canonicalized once and divided by 5·D_form·D_frame per term.
    """
    frame = frame or build_lie_frame()
    frame_den, dgen = frame.maurer_cartan_table
    den, maps = to_numerators([c.terms for c in form.terms.values()])
    acc: dict[int, dict] = {}
    for mask, terms in zip(form.terms, maps):
        if not mask & 1:  # ds is slot 0, so ds∧e^I has sign +1
            # over 5·D_form·D_frame, ∂_s(n/D_form) is 5∂_s(n)·D_frame
            _add_terms(acc.setdefault(mask | 1, {}),
                       _derivative_terms(terms, frame_den))
        t = mask
        while t:
            bit = t & -t
            t ^= bit
            sub = mask ^ bit
            # contract_sign(slot, mask) times wedge_sign(m, sub), which flips
            # once per generator of sub between the two generators of m
            odd = (mask & (bit - 1)).bit_count()
            for m, between, five, negated in dgen[bit.bit_length() - 1]:
                if not m & sub:
                    _add_scaled(acc.setdefault(m | sub, {}), negated
                                if (odd + (sub & between).bit_count()) & 1
                                else five, terms)
    return ChamberForm(form.degree + 1, {m: _over(raw, 5 * den * frame_den)
                                         for m, raw in acc.items()})


def lie_derivative(slot: int, form: ChamberForm,
                   frame: LieFrame | None = None) -> ChamberForm:
    """Cartan formula L_X = d ∘ ι_X + ι_X ∘ d for a coframe-dual generator."""
    frame = frame or build_lie_frame()
    inner = maurer_cartan_d(contract_generator(slot, form), frame)
    outer = contract_generator(slot, maurer_cartan_d(form, frame))
    return inner + outer
