"""Exact function ring and coframe calculus on the cohomogeneity-one chamber.

Radial functions live in the ring Q[s, w, w⁻¹]/(w⁵ − 1 − s²): the
substitution s = sqrt(t), w = (1 + s²)^{1/5} turns every fractional power
appearing in the geometry into a Laurent polynomial, so d, wedge and Lie
derivatives stay exact.  The derivation is determined by ∂_s w = (2/5) s w⁻⁴.

A ChamberScalar is held only as the int numerator view of its canonical
(s, w) terms, read from ints, ``Q``, 'p/q' strings or rational FieldScalars
as they are (a surd coefficient or a float is refused), which are divided
out on every read; sums, products, ∂_s and d sum raw terms on views over one
denominator (w⁵ = 1 + s², division by the monic 1 + s² and 5∂_s keep int
numerators integral), and ``_over`` canonicalizes and reduces each once.
A product by the unit returns its operand.

ChamberForm is the shared sparse exterior algebra (exterior.forms) over
the 11 coframe generators {ds, A¹..A⁶, X¹..X⁴}, addressed by 0-based slots;
the differential combines ∂_s on coefficients with the Maurer-Cartan
equation de^k = −Σ_{i<j} c^k_{ij} e^i∧e^j, read from the frame's constants
into one 2-form of numerators per slot, once per frame
(``LieFrame.maurer_cartan_table``).  d reads one row of 5·d(e^I) per source
blade, built from them by the derivation rule Σ_k de^k∧(e_k⌟e^I) on the
engine's one contraction walk and wedge on first use and kept on the frame
(``LieFrame.maurer_cartan_rows``); an output blade whose raw sum cancels to
all zeros is dropped without being canonicalized.
"""

from __future__ import annotations

from math import comb

from ..exterior.blades import indices_of, mask_of
from ..exterior.forms import (Form, _combine, _contractions, _lcm_view,
                              _lowest, _wedged, contract_generator)
from ..exterior.scalars import (Q, FieldScalar, _ratio, from_numerators,
                                to_numerators)
from .liealg import LieFrame, N_GENERATORS

__all__ = ["ChamberScalar", "ChamberForm", "COFRAME_NAMES", "S", "W", "W_INV",
           "T", "maurer_cartan_d", "contract_generator", "lie_derivative"]

COFRAME_NAMES = ("ds", "A1", "A2", "A3", "A4", "A5", "A6",
                 "X1", "X2", "X3", "X4")
N_COFRAME = len(COFRAME_NAMES)

# constants a ChamberScalar accepts as operands, as FieldScalar does
_CONSTANTS = (int, Q, FieldScalar)


class ChamberScalar:
    """An element of Q[s, w, w⁻¹]/(w⁵ − 1 − s²): the (s_exp, net_w_exp) terms
    of its representative numerator·w^{-k} with k minimal and numerator
    w-degrees in 0..4, kept as a view (den, {(s_exp, w_exp): n}) of ints over
    a positive den with gcd 1.  ``==`` and ``hash`` read the view; the
    FieldScalar ``terms`` are divided out of it on every read."""

    __slots__ = ("_denom", "_nums")

    def __init__(self, raw: dict | None = None):
        den, (nums,) = to_numerators([raw or {}])
        x = _over(nums, den)
        self._denom, self._nums = x._denom, x._nums

    @property
    def terms(self) -> dict[tuple[int, int], FieldScalar]:
        return from_numerators(self._nums, self._denom)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def of(x) -> "ChamberScalar":
        return x if isinstance(x, ChamberScalar) else ChamberScalar.monomial(x)

    @staticmethod
    def monomial(coeff, s_exp: int = 0, w_exp: int = 0) -> "ChamberScalar":
        # canonical for |w_exp| < 5: one term's w⁰-layer never has 1 + s²
        if isinstance(coeff, (int, Q)) and -5 < w_exp < 5:
            q = Q(coeff)
            return _make(q.denominator, {(s_exp, w_exp): q.numerator} if q else {})
        return ChamberScalar({(s_exp, w_exp): coeff})

    # -- ring structure ---------------------------------------------------

    def __add__(self, other):
        return _summed(self, _operand(other), 1)

    __radd__ = __add__

    def __sub__(self, other):
        return _summed(self, _operand(other), -1)

    def __rsub__(self, other):
        return _summed(_operand(other), self, -1)

    def __neg__(self):
        return _make(self._denom, {k: -c for k, c in self._nums.items()})

    def __mul__(self, other):
        if other is _ONE_SCALAR:
            return self
        other = _operand(other)
        if other is None:
            return NotImplemented
        # by a w-free monomial c·s^a (a constant when a = 0): see _scaled
        for x, y in ((self, other), (other, self)):
            if len(y._nums) == 1:
                (_a, e), = y._nums
                if not e:
                    return x._scaled(y)
        raw: dict = {}
        _add_products(raw, self._nums, other._nums)
        return _over(raw, self._denom * other._denom)

    __rmul__ = __mul__

    def _scaled(self, m: "ChamberScalar") -> "ChamberScalar":
        """self·m for a nonzero w-free monomial m = (n/d)·s^a, uncanonicalized:
        1 + s² is coprime to s over Q, so the w⁰-layer test that fixes the
        canonical form agrees on s^a times a numerator.  By 1 it is self."""
        ((a, _), n), = m._nums.items()
        if not a and m._denom == 1 and n == 1:
            return self
        return _make(*_lowest({(b + a, e): n * c
                               for (b, e), c in self._nums.items()},
                              self._denom * m._denom))

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined in the ring")
        out = _ONE_SCALAR
        for _ in range(n):
            out = out * self
        return out

    def __bool__(self):
        return bool(self._nums)

    def __eq__(self, other):
        if type(other) is FieldScalar and not other.is_rational():
            return False  # the ring is over Q: no element of it is a surd
        other = _operand(other)
        return NotImplemented if other is None else (
            self._denom == other._denom and self._nums == other._nums)

    def __hash__(self):
        # a constant equals its FieldScalar (or int, or Q), so it must hash like it
        if self.is_constant():
            return hash(Q(self._nums.get((0, 0), 0), self._denom))
        return hash((self._denom, frozenset(self._nums.items())))

    # -- calculus and predicates -----------------------------------------

    def derivative(self) -> "ChamberScalar":
        """∂_s, with ∂_s w = (2/5) s w⁻⁴, as 5∂_s divided by 5."""
        raw: dict = {}
        _add_terms(raw, _derivative_terms(self._nums))
        return _over(raw, 5 * self._denom)

    def is_even_in_s(self) -> bool:
        return all(a % 2 == 0 for (a, _e) in self._nums)

    def is_constant(self) -> bool:
        return all(k == (0, 0) for k in self._nums)

    def evaluate(self, s_value) -> FieldScalar:
        """Value at a rational point s = p/q, for w-free elements only (a
        genuine w-power never has w-exponent zero everywhere): by Horner on
        the view, Σ n_a p^a q^(top − a) over den·q^top."""
        if any(e for _a, e in self._nums):
            raise ValueError("cannot evaluate a w-dependent coefficient at a point")
        p, q = _ratio(s_value)
        acc, q_power = 0, 1
        for a in range(max((a for a, _e in self._nums), default=0), -1, -1):
            acc = acc * p + self._nums.get((a, 0), 0) * q_power
            q_power = q_power * q if a else q_power
        return FieldScalar.from_ratio(acc, self._denom * q_power)

    def sorted_terms(self) -> list[tuple[int, int, FieldScalar]]:
        return [(a, e, c) for (a, e), c in sorted(self.terms.items())]

    def to_record(self) -> dict:
        return {"terms": [{"s_exp": a, "w_exp": e,
                           "coeff": c.to_record()}
                          for a, e, c in self.sorted_terms()]}

    def __str__(self):
        if not self._nums:
            return "0"
        bits = []
        for a, e, c in self.sorted_terms():
            mono = "*".join(filter(None, [
                f"({c})", f"s^{a}" if a else "", f"w^{e}" if e else ""]))
            bits.append(mono)
        return " + ".join(bits)

    __repr__ = __str__


def _operand(x) -> ChamberScalar | None:
    """A ChamberScalar or constant operand as a ChamberScalar, else None."""
    if type(x) is ChamberScalar:
        return x
    return ChamberScalar.monomial(x) if isinstance(x, _CONSTANTS) else None


def _make(den: int, nums: dict) -> ChamberScalar:
    out = object.__new__(ChamberScalar)
    out._denom, out._nums = den, nums
    return out


# Raw term maps (s_exp, w_exp) -> int numerator need not be canonical.  The
# helpers below build, sum and reduce them: every sum starts from its first
# term, never from 0.

def _over(raw: dict, den: int) -> ChamberScalar:
    """raw/den, canonicalized once and reduced by one gcd."""
    nums = _canonical(raw)
    return _make(*_lowest(nums, den)) if nums else _ZERO_SCALAR


def _summed(x, y, sign: int):
    """x + sign·y on their lcm view; NotImplemented for a refused operand."""
    if x is None or y is None:
        return NotImplemented
    den, (raw, other) = _lcm_view((x, y))
    raw = dict(raw)
    _add_scaled(raw, sign, other)
    return _over(raw, den)


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


_ZERO_SCALAR = _make(1, {})
_ONE_SCALAR = ChamberScalar.of(1)
S = ChamberScalar.monomial(1, 1, 0)
W = ChamberScalar.monomial(1, 0, 1)
W_INV = ChamberScalar.monomial(1, 0, -1)
T = S * S


def _slots(mask: int) -> tuple[int, ...]:
    return tuple(i - 1 for i in indices_of(mask))


class ChamberForm(Form):
    """Exterior form over the 11 chamber coframe generators."""

    __slots__ = ()
    generators = N_COFRAME

    @staticmethod
    def _view(coeffs: dict) -> tuple[int, dict]:
        return 1, {m: x for m, c in coeffs.items()
                   if (x := ChamberScalar.of(c))}

    @property
    def terms(self) -> dict[int, ChamberScalar]:
        """{mask: coefficient}, a copy of the form's own map."""
        return dict(self._nums)

    @staticmethod
    def generator(slot: int) -> "ChamberForm":
        """The coframe covector for a slot: 0 = ds, 1..6 = A, 7..10 = X."""
        if not 0 <= slot < N_COFRAME:
            raise ValueError(f"slot {slot} out of range 0..{N_COFRAME - 1}")
        return ChamberForm._of_numerators(1, {1 << slot: _ONE_SCALAR})

    @staticmethod
    def blade(*slots: int, coeff=1) -> "ChamberForm":
        sign, mask = mask_of([s + 1 for s in slots], N_COFRAME)
        if sign == 0:
            return ChamberForm(len(slots))
        c = ChamberScalar.of(coeff)
        return ChamberForm(len(slots), {mask: c if sign == 1 else -c})

    def coefficient(self, *slots: int) -> ChamberScalar:
        sign, mask = mask_of([s + 1 for s in slots], N_COFRAME)
        if sign == 0:
            return _ZERO_SCALAR
        got = self._nums.get(mask, _ZERO_SCALAR)
        return got if sign == 1 else -got

    def blades(self) -> list[tuple[tuple[int, ...], ChamberScalar]]:
        return sorted(((_slots(m), c) for m, c in self._nums.items()),
                      key=lambda sc: sc[0])

    def to_record(self) -> dict:
        return {"degree": self.degree,
                "terms": [{"slots": list(slots),
                           "names": [COFRAME_NAMES[s] for s in slots],
                           "coefficient": c.to_record()}
                          for slots, c in self.blades()]}


def _maurer_cartan_table(frame: LieFrame) -> tuple[int, tuple]:
    """(D_frame, the 2-form 5·de^k per coframe slot k as {mask: int} over
    D_frame), de^k = −Σ_{i<j} c^k_ij e^i∧e^j read from ``frame.structure``
    (generator i is slot i + 1; d(ds) = 0); ValueError on a frame with a
    surd constant."""
    structure = frame.structure
    den, dgen = to_numerators([{}] + [
        {2 << i | 2 << j: structure[i][j][k] for i in range(N_GENERATORS)
         for j in range(i + 1, N_GENERATORS)} for k in range(N_GENERATORS)])
    return den, tuple({m: -5 * n for m, n in dk.items()} for dk in dgen)


def _maurer_cartan_row(mask: int, dgen: tuple) -> dict:
    """Σ_{k∈I} 5·de^k∧(e_k⌟e^I) for the blade e^I of this mask (the
    derivation rule of d, de^k even), the e_k⌟e^I from one walk over the
    blade (``forms._contractions``), as {target mask: int over D_frame},
    zero sums dropped."""
    return _combine((_wedged(dk, piece), 1) for dk, piece in
                    zip(dgen, _contractions({mask: 1}, N_COFRAME)) if piece)


def maurer_cartan_d(form: ChamberForm, frame: LieFrame) -> ChamberForm:
    """Exterior derivative: ∂_s on coefficients plus Maurer-Cartan terms.

    d(c·e^I) = ∂_s c ds∧e^I + c·d(e^I), with 5·d(e^I) read from its row in
    ``frame.maurer_cartan_rows`` (built on the mask's first use).  The raw
    (s, w) terms of 5·d are summed per output blade on the coefficients'
    views over their lcm D_form; a blade whose raw sum is all zero is
    dropped, and every other one is canonicalized once."""
    frame_den, dgen = frame.maurer_cartan_table
    rows = frame.maurer_cartan_rows
    den, maps = _lcm_view(form._nums.values())
    acc: dict[int, dict] = {}
    for mask, terms in zip(form._nums, maps):
        if not mask & 1:  # ds is slot 0, so ds∧e^I has sign +1
            # over 5·D_form·D_frame, ∂_s(n/D_form) is 5∂_s(n)·D_frame
            _add_terms(acc.setdefault(mask | 1, {}),
                       _derivative_terms(terms, frame_den))
        row = rows.get(mask)
        if row is None:
            row = rows[mask] = _maurer_cartan_row(mask, dgen)
        for target, five in row.items():
            _add_scaled(acc.setdefault(target, {}), five, terms)
    # a nonzero raw map can still be 0 modulo w⁵ − 1 − s²: _over decides
    return ChamberForm._of_numerators(form.degree + 1, {
        m: c for m, raw in acc.items()
        if any(raw.values()) and (c := _over(raw, 5 * den * frame_den))})


def lie_derivative(slot: int, form: ChamberForm,
                   frame: LieFrame) -> ChamberForm:
    """Cartan formula L_X = d ∘ ι_X + ι_X ∘ d for a coframe-dual generator."""
    inner = maurer_cartan_d(contract_generator(slot, form), frame)
    outer = contract_generator(slot, maurer_cartan_d(form, frame))
    return inner + outer
