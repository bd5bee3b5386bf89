"""Endomorphisms of the covector space and their exterior extensions.

An Endo is an 8x8 exact matrix acting on covectors: entry (i, j) is the
coefficient of e^i in the image of e^j.  Two extensions to Λ^k matter here:

* ``rho(A, a)`` — the derivation (Lie-algebra) action, replacing one slot
  at a time; ``rho_operator(A, k)`` is the same action built once as a
  FormOperator on Λ^k;
* ``pullback(L, a)`` — the multiplicative (group) action Λ^k L.

For nilpotent A the two are linked by pullback(exp A) = exp(rho A).

Rational matrices run on Python ints, over one common denominator each:
``@`` and ``pullback`` of a rational form divide once per output entry,
and any surd entry keeps the FieldScalar path.
"""

from __future__ import annotations

from math import factorial

from . import linalg
from .blades import BLADES, DIM, contract_sign, wedge_sign
from .scalars import ZERO, FieldScalar, _integer_matrix
from .forms import (Covector, FormOperator, KForm, Vector, _combine,
                    _pulled_back, blade_pullback)

__all__ = ["Endo", "rho", "rho_operator", "pullback", "exp_nilpotent"]


class Endo:
    """An exact linear map on covectors; rows[i][j] = ⟨e^i | A e^j⟩."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rs = tuple(tuple(FieldScalar.of(x) for x in row) for row in rows)
        if len(rs) != DIM or any(len(r) != DIM for r in rs):
            raise ValueError(f"need an {DIM}x{DIM} matrix")
        self.rows = rs

    # -- construction ---------------------------------------------------

    @staticmethod
    def zero() -> "Endo":
        return Endo([[0] * DIM for _ in range(DIM)])

    @staticmethod
    def identity() -> "Endo":
        return Endo([[1 if i == j else 0 for j in range(DIM)]
                     for i in range(DIM)])

    @staticmethod
    def unit(i: int, j: int) -> "Endo":
        """The elementary map e^j -> e^i (1-based), all else to zero."""
        return Endo([[1 if (r, c) == (i - 1, j - 1) else 0
                      for c in range(DIM)] for r in range(DIM)])

    @staticmethod
    def tensor(v: Vector, alpha: Covector) -> "Endo":
        """v ⊗ alpha as a map on covectors: ε -> ε(v) · alpha."""
        return Endo([[alpha.components[i] * v.components[j]
                      for j in range(DIM)] for i in range(DIM)])

    # -- algebra ----------------------------------------------------------

    def __add__(self, other: "Endo") -> "Endo":
        if not isinstance(other, Endo):
            return NotImplemented
        return Endo([[a + b for a, b in zip(r1, r2)]
                     for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other: "Endo") -> "Endo":
        if not isinstance(other, Endo):
            return NotImplemented
        return Endo([[a - b for a, b in zip(r1, r2)]
                     for r1, r2 in zip(self.rows, other.rows)])

    def __neg__(self) -> "Endo":
        return Endo([[-a for a in r] for r in self.rows])

    def __rmul__(self, scalar) -> "Endo":
        s = FieldScalar.of(scalar)
        return Endo([[s * a for a in r] for r in self.rows])

    __mul__ = __rmul__

    def __matmul__(self, other: "Endo") -> "Endo":
        """Two rational factors multiply as int matrices over their common
        denominators, and each entry is divided once by den_a·den_b."""
        if not isinstance(other, Endo):
            return NotImplemented
        left, right = _integer_matrix(self.rows), _integer_matrix(other.rows)
        if left is None or right is None:
            return Endo(_product(self.rows, other.rows, ZERO))
        den = left[0] * right[0]
        return Endo([[FieldScalar.from_ratio(n, den) for n in row]
                     for row in _product(left[1], right[1], 0)])

    def __eq__(self, other):
        return isinstance(other, Endo) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __bool__(self):
        return any(any(row) for row in self.rows)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"Endo[{body}]"

    # -- actions and predicates ------------------------------------------

    def rank(self) -> int:
        return linalg.rank(self.rows)

    def to_record(self) -> dict:
        """JSON-ready record; rationals as strings, bit-exact round-trip."""
        return {"rows": [[x.to_record() for x in row] for row in self.rows]}

    @staticmethod
    def from_record(record: dict) -> "Endo":
        return Endo([[FieldScalar.from_record(x) for x in row]
                     for row in record["rows"]])


def _product(rows_a, rows_b, zero) -> list[list]:
    """The matrix product over any ring: row i is Σ_j a_ij·(row j of b),
    summed over nonzero entries only."""
    nonzero = [[(k, b) for k, b in enumerate(row) if b] for row in rows_b]
    out = []
    for row in rows_a:
        acc = [zero] * DIM
        for a, entries in zip(row, nonzero):
            if a:
                for k, b in entries:
                    acc[k] = acc[k] + a * b
        out.append(acc)
    return out


def _columns(rows) -> list[list[tuple[int, object]]]:
    """Column p of a matrix as its nonzero (bit of e^i, entry) pairs."""
    return [[(1 << i, row[p]) for i, row in enumerate(rows) if row[p]]
            for p in range(DIM)]


def _rho_image(columns, m: int) -> dict:
    """ρ(A)e^m as a {blade: coefficient} dict: each slot p of the blade
    replaced by e^i for every nonzero a_ip.  Diagonal entries send e^m to
    itself once per slot, so a coefficient may sum to zero."""
    acc: dict = {}
    t = m
    while t:
        low = t & -t
        t ^= low
        p = low.bit_length() - 1
        sub = m ^ low
        s_out = contract_sign(p, m)
        for bit, entry in columns[p]:
            if sub & bit:
                continue
            term = entry if s_out * wedge_sign(bit, sub) == 1 else -entry
            prev = acc.get(sub | bit)
            acc[sub | bit] = term if prev is None else prev + term
    return acc


def rho(a: Endo, form: KForm) -> KForm:
    """Derivation action: replace each slot of each blade by its image."""
    columns = _columns(a.rows)
    return KForm(form.degree, _combine((_rho_image(columns, m), coeff)
                                       for m, coeff in form.mask_items()))


def rho_operator(a: Endo, degree: int) -> FormOperator:
    """ρ(A) on Λ^degree, built once from the nonzero entries of A.

    An integer matrix gives an integer operator (int coefficients), so
    its powers and their kernels never touch FieldScalar arithmetic.
    """
    ints = _integer_matrix(a.rows)
    columns = _columns(ints[1] if ints and ints[0] == 1 else a.rows)
    return FormOperator(degree, [
        {key: c for key, c in _rho_image(columns, m).items() if c}
        for m in BLADES[degree]])


def pullback(l_map: Endo, form: KForm) -> KForm:
    """Λ^k L: each covector slot is mapped through L and the images are
    wedged, on the int numerators of a rational L and form, with one
    division by den(L)^k·den(form) per output coefficient."""
    items = list(form.mask_items())
    matrix = _integer_matrix(l_map.rows)
    values = _integer_matrix([[c for _, c in items]])
    if matrix is None or values is None or not form.degree:
        return blade_pullback(form, [KForm(1, dict(column))
                                     for column in _columns(l_map.rows)])
    (den_l, rows), (den_f, (numerators,)) = matrix, values
    terms = _pulled_back({m: n for (m, _), n in zip(items, numerators)},
                         [dict(column) for column in _columns(rows)])
    den = den_l ** form.degree * den_f
    return KForm(form.degree, {m: FieldScalar.from_ratio(n, den)
                               for m, n in terms.items()})


def exp_nilpotent(a: Endo) -> Endo:
    """exp of a nilpotent matrix as the finite series Σ A^k/k!, summed in
    one power loop that stops at the first zero power; A^8 ≠ 0 means A is
    not nilpotent."""
    acc = Endo.identity()
    power = a
    for k in range(1, DIM):
        if not power:
            return acc
        acc = acc + FieldScalar.from_ratio(1, factorial(k)) * power
        power = power @ a
    if power:
        raise ValueError("exp_nilpotent requires nilpotent input")
    return acc
