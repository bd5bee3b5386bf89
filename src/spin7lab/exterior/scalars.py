"""Exact arithmetic in the real field Q(sqrt2, sqrt3).

Every scalar in the library is a quadruple (a, b, c, d) of rationals
representing a + b*sqrt2 + c*sqrt3 + d*sqrt6.  The field is closed under
the four arithmetic operations; inversion goes through the two Galois
conjugations (sqrt2 -> -sqrt2 and sqrt3 -> -sqrt3), which push the norm
down to a plain rational.  No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction

try:  # gmpy2 is optional but much faster; Fraction is the portable fallback
    from gmpy2 import mpq as Q  # type: ignore[import-untyped]
except ImportError:  # pragma: no cover
    Q = Fraction

__all__ = ["Q", "FieldScalar", "ZERO", "ONE", "SQRT2", "SQRT3", "SQRT6", "rational"]

_RatLike = (int, Fraction, type(Q(0)))


def rational(x) -> "Q":
    """Coerce an int, Fraction, mpq or 'p/q' string to the rational backend."""
    if isinstance(x, str):
        return Q(x.replace(" ", ""))
    return Q(x)


class FieldScalar:
    """An element a + b*sqrt2 + c*sqrt3 + d*sqrt6 with rational a, b, c, d."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a=0, b=0, c=0, d=0):
        self.a = Q(a)
        self.b = Q(b)
        self.c = Q(c)
        self.d = Q(d)

    # -- construction -------------------------------------------------

    @staticmethod
    def of(x) -> "FieldScalar":
        if isinstance(x, FieldScalar):
            return x
        if isinstance(x, _RatLike):
            return FieldScalar(x)
        if isinstance(x, str):
            return FieldScalar(rational(x))
        raise TypeError(f"cannot interpret {x!r} as a field scalar")

    @staticmethod
    def from_quadruple(parts) -> "FieldScalar":
        a, b, c, d = parts
        return FieldScalar(rational(a), rational(b), rational(c), rational(d))

    def quadruple(self):
        return (self.a, self.b, self.c, self.d)

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldScalar(self.a + other.a, self.b + other.b,
                           self.c + other.c, self.d + other.d)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldScalar(self.a - other.a, self.b - other.b,
                           self.c - other.c, self.d - other.d)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return FieldScalar(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = other.a, other.b, other.c, other.d
        if not (b1 or c1 or d1 or b2 or c2 or d2):  # cheap rational fast path
            return FieldScalar(a1 * a2)
        return FieldScalar(
            a1 * a2 + 2 * b1 * b2 + 3 * c1 * c2 + 6 * d1 * d2,
            a1 * b2 + b1 * a2 + 3 * (c1 * d2 + d1 * c2),
            a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2),
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
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

    def conj_sqrt2(self) -> "FieldScalar":
        """The automorphism sqrt2 -> -sqrt2 (also flips sqrt6)."""
        return FieldScalar(self.a, -self.b, self.c, -self.d)

    def conj_sqrt3(self) -> "FieldScalar":
        """The automorphism sqrt3 -> -sqrt3 (also flips sqrt6)."""
        return FieldScalar(self.a, self.b, -self.c, -self.d)

    def inverse(self) -> "FieldScalar":
        if not self:
            raise ZeroDivisionError("field scalar is zero")
        partial = self * self.conj_sqrt2()      # lands in Q(sqrt3)
        norm = partial.a * partial.a - 3 * partial.c * partial.c  # plain rational
        num = self.conj_sqrt2() * partial.conj_sqrt3()
        inv = Q(1) / norm
        return FieldScalar(num.a * inv, num.b * inv, num.c * inv, num.d * inv)

    # -- predicates ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.a or self.b or self.c or self.d)

    def is_rational(self) -> bool:
        return not (self.b or self.c or self.d)

    def rational_value(self):
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.a

    def is_positive_rational(self) -> bool:
        return self.is_rational() and self.a > 0

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self.a == other.a and self.b == other.b
                and self.c == other.c and self.d == other.d)

    def __hash__(self):
        # a rational scalar equals its int/Fraction, so it must hash like it
        if not (self.b or self.c or self.d):
            return hash(self.a)
        return hash((self.a, self.b, self.c, self.d))

    # -- display -------------------------------------------------------

    def __repr__(self):
        return f"FieldScalar({self.a}, {self.b}, {self.c}, {self.d})"

    def __str__(self):
        if not self:
            return "0"
        pieces = []
        for coeff, tag in ((self.a, ""), (self.b, "sqrt2"),
                           (self.c, "sqrt3"), (self.d, "sqrt6")):
            if not coeff:
                continue
            if not tag:
                body = str(coeff)
            elif coeff == 1:
                body = tag
            elif coeff == -1:
                body = "-" + tag
            else:
                body = f"{coeff}*{tag}"
            if pieces and not body.startswith("-"):
                pieces.append("+ " + body)
            elif pieces:
                pieces.append("- " + body[1:])
            else:
                pieces.append(body)
        return " ".join(pieces)


def _coerce(x):
    if isinstance(x, FieldScalar):
        return x
    if isinstance(x, _RatLike):
        return FieldScalar(x)
    return NotImplemented


ZERO = FieldScalar(0)
ONE = FieldScalar(1)
SQRT2 = FieldScalar(0, 1)
SQRT3 = FieldScalar(0, 0, 1)
SQRT6 = FieldScalar(0, 0, 0, 1)
