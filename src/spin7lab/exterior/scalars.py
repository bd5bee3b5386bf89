"""Exact arithmetic in the real field Q(sqrt2, sqrt3).

Every scalar in the library is a + b*sqrt2 + c*sqrt3 + d*sqrt6 with
rational a, b, c, d, stored as four integer numerators over one positive
integer denominator in lowest terms (gcd(a, b, c, d, den) == 1).  The
representation is canonical, so equality and hashing compare parts, and
each result is normalized by a single gcd.  The field is closed under the
four arithmetic operations; inversion goes through the two Galois
conjugations (sqrt2 -> -sqrt2 and sqrt3 -> -sqrt3), which push the norm
down to a plain integer.

Rationals come in as int, ``Q`` (``fractions.Fraction``) or 'p/q' strings
and go out as ``Q``.  Floats are refused: no floating point is used
anywhere.

The numerator view.  The sparse sum-and-multiply code of the library
(``Endo @``, ``rho``, ``pullback``, the contraction cube, the views that
``KForm`` and ``ChamberScalar`` keep and integer elimination) reads its
coefficients through one pair of functions, and no other module looks
inside a scalar:

* ``to_numerators(maps)`` takes term maps ({key: scalar}) or rows
  (sequences, keyed by position) and returns (den, one {key: int} map per
  input), the numerators of the nonzero coefficients over den, the lcm of
  all their denominators;
* ``from_numerators(terms, den)`` divides each term once on the way back.

The engine runs over Q: ``to_numerators`` raises ValueError on a
coefficient with a surd, so every view holds ints.  Surds stay in the
scalars themselves, for ``liealg``'s Killing-orthonormal frame.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Q = Fraction

__all__ = ["Q", "FieldScalar", "ZERO", "ONE", "SQRT2", "SQRT3", "SQRT6",
           "to_numerators", "from_numerators"]


def _ratio(x) -> tuple[int, int]:
    """(numerator, denominator) in lowest terms of an int, Q or 'p/q'
    string; ValueError on a string with a zero denominator."""
    if isinstance(x, int):
        return int(x), 1
    if isinstance(x, str):
        try:
            x = Fraction(x.replace(" ", ""))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


class FieldScalar:
    """An element (a + b*sqrt2 + c*sqrt3 + d*sqrt6)/den with integer parts."""

    __slots__ = ("_a", "_b", "_c", "_d", "_den")

    def __init__(self, a=0, b=0, c=0, d=0):
        parts = (_ratio(a), _ratio(b), _ratio(c), _ratio(d))
        # over the lcm of reduced denominators the parts are already coprime
        den = lcm(*(q for _, q in parts))
        self._a, self._b, self._c, self._d = (p * (den // q) for p, q in parts)
        self._den = den

    # -- construction -------------------------------------------------

    @staticmethod
    def of(x) -> "FieldScalar":
        if isinstance(x, FieldScalar):
            return x
        out = _coerce(x)
        return FieldScalar(x) if out is NotImplemented else out

    @staticmethod
    def from_ratio(numerator: int, denominator: int) -> "FieldScalar":
        """numerator/denominator for ints, the denominator nonzero."""
        if denominator == 1:
            return _canonical(numerator, 0, 0, 0, 1)
        return _reduced(numerator, 0, 0, 0, denominator)

    def quadruple(self) -> tuple[Q, Q, Q, Q]:
        den = self._den
        return (Fraction(self._a, den), Fraction(self._b, den),
                Fraction(self._c, den), Fraction(self._d, den))

    def to_record(self) -> dict:
        """JSON-ready parts a, b, c, d as ``str(Q)`` prints them."""
        return dict(zip("abcd", map(str, self.quadruple())))

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if type(other) is not FieldScalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        n1, n2 = self._den, other._den
        if n1 == n2:
            return _reduced(self._a + other._a, self._b + other._b,
                            self._c + other._c, self._d + other._d, n1)
        return _reduced(self._a * n2 + other._a * n1, self._b * n2 + other._b * n1,
                        self._c * n2 + other._c * n1, self._d * n2 + other._d * n1,
                        n1 * n2)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not FieldScalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        n1, n2 = self._den, other._den
        if n1 == n2:
            return _reduced(self._a - other._a, self._b - other._b,
                            self._c - other._c, self._d - other._d, n1)
        return _reduced(self._a * n2 - other._a * n1, self._b * n2 - other._b * n1,
                        self._c * n2 - other._c * n1, self._d * n2 - other._d * n1,
                        n1 * n2)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return _canonical(-self._a, -self._b, -self._c, -self._d, self._den)

    def __mul__(self, other):
        if type(other) is not FieldScalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a1, b1, c1, d1 = self._a, self._b, self._c, self._d
        a2, b2, c2, d2 = other._a, other._b, other._c, other._d
        den = self._den * other._den
        if not (b1 or c1 or d1 or b2 or c2 or d2):  # cheap rational fast path
            a = a1 * a2
            g = gcd(a, den)
            return _canonical(a // g, 0, 0, 0, den // g)
        return _reduced(*_product(a1, b1, c1, d1, a2, b2, c2, d2), den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not FieldScalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- Galois conjugation and inversion -----------------------------

    def inverse(self) -> "FieldScalar":
        a, b, c, d, den = self._a, self._b, self._c, self._d, self._den
        if not (b or c or d):
            if not a:
                raise ZeroDivisionError("field scalar is zero")
            return _reduced(den, 0, 0, 0, a)
        # X = a + b√2 + c√3 + d√6 times its sqrt2-conjugate lands in Q(sqrt3),
        # and that times its sqrt3-conjugate is the integer norm of X
        pa, _, pc, _ = _product(a, b, c, d, a, -b, c, -d)
        norm = pa * pa - 3 * pc * pc
        na, nb, nc, nd = _product(a, -b, c, -d, pa, 0, -pc, 0)
        return _reduced(den * na, den * nb, den * nc, den * nd, norm)

    # -- predicates ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._a or self._b or self._c or self._d)

    def is_rational(self) -> bool:
        return not (self._b or self._c or self._d)

    def is_positive_rational(self) -> bool:
        return self.is_rational() and self._a > 0

    def __eq__(self, other) -> bool:
        if type(other) is not FieldScalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return (self._a == other._a and self._den == other._den
                and self._b == other._b and self._c == other._c
                and self._d == other._d)

    def __hash__(self):
        # a rational scalar equals its int/Fraction, so it must hash like it
        if not (self._b or self._c or self._d):
            return hash(Fraction(self._a, self._den))
        return hash((self._a, self._b, self._c, self._d, self._den))

    # -- display -------------------------------------------------------

    def __repr__(self):
        return "FieldScalar({}, {}, {}, {})".format(*self.quadruple())

    def __str__(self):
        """A rational as ``str(Q)`` prints it, which the reports read; a
        surd as its repr."""
        if self._b or self._c or self._d:
            return repr(self)
        return str(self._a) if self._den == 1 else f"{self._a}/{self._den}"


def to_numerators(maps) -> tuple[int, list[dict]]:
    """(den, one {key: int numerator} map per term map or row), keeping the
    nonzero coefficients only, den the lcm of all their denominators;
    ValueError on a coefficient with a surd."""
    den = 1
    for m in maps:
        for x in (m.values() if isinstance(m, dict) else m):
            if x._b or x._c or x._d:
                raise ValueError(f"the engine runs over Q: a surd {x!r}")
            if den % x._den:
                den = lcm(den, x._den)
    return den, [{k: x._a * (den // x._den) for k, x in
                  (m.items() if isinstance(m, dict) else enumerate(m)) if x._a}
                 for m in maps]


def from_numerators(terms: dict, den: int) -> dict:
    """{key: numerator/den} for int numerators."""
    return {k: FieldScalar.from_ratio(n, den) for k, n in terms.items()}


_new = object.__new__


def _canonical(a: int, b: int, c: int, d: int, den: int) -> FieldScalar:
    """A scalar from parts that are already in canonical form."""
    x = _new(FieldScalar)
    x._a = a
    x._b = b
    x._c = c
    x._d = d
    x._den = den
    return x


def _reduced(a: int, b: int, c: int, d: int, den: int) -> FieldScalar:
    """(a + b√2 + c√3 + d√6)/den for a nonzero den, reduced by one gcd."""
    g = gcd(a, b, c, d, den)
    if den < 0:
        g = -g
    if g != 1:
        a //= g
        b //= g
        c //= g
        d //= g
        den //= g
    return _canonical(a, b, c, d, den)


def _product(a1, b1, c1, d1, a2, b2, c2, d2):
    """Numerators of (a1 + b1√2 + c1√3 + d1√6)(a2 + b2√2 + c2√3 + d2√6)."""
    return (a1 * a2 + 2 * b1 * b2 + 3 * c1 * c2 + 6 * d1 * d2,
            a1 * b2 + b1 * a2 + 3 * (c1 * d2 + d1 * c2),
            a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2),
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2)


def _coerce(x):
    """An int or Q operand as a scalar, else NotImplemented."""
    if type(x) is int:
        return _canonical(x, 0, 0, 0, 1)
    if isinstance(x, Fraction):
        return _canonical(x.numerator, 0, 0, 0, x.denominator)
    if isinstance(x, int):  # bool and other int subclasses
        return _canonical(int(x), 0, 0, 0, 1)
    return NotImplemented


ZERO = FieldScalar(0)
ONE = FieldScalar(1)
SQRT2 = FieldScalar(0, 1)
SQRT3 = FieldScalar(0, 0, 1)
SQRT6 = FieldScalar(0, 0, 0, 1)
