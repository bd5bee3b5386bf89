"""Endomorphisms of the covector space and their exterior extensions.

An Endo is an 8x8 exact matrix acting on covectors: entry (i, j) is the
coefficient of e^i in the image of e^j.  Two extensions to Λ^k matter here:

* ``rho(A, a)`` — the derivation (Lie-algebra) action, replacing one slot
  at a time; ``_rho_images`` builds it on the basis blades from the
  nonzero entries of A, for ``rho`` and for the classifier's ρ(A)²;
* ``pullback(L, a)`` — the multiplicative (group) action Λ^k L.

For nilpotent A the two are linked by pullback(exp A) = exp(rho A).

``@``, ``rho``, ``pullback`` and ``exp_nilpotent`` sum and multiply on the
numerator view of their inputs (``scalars.to_numerators``) and divide once
per output entry.  Results skip the public constructor's coercion.
"""

from __future__ import annotations

from math import factorial

from . import linalg
from .blades import DIM
from .scalars import ZERO, FieldScalar, from_numerators, to_numerators
from .forms import Covector, KForm, Vector, _combine, _pulled_back

__all__ = ["Endo", "rho", "pullback", "exp_nilpotent"]


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
        return _trusted([alpha.components[i] * v.components[j]
                         for j in range(DIM)] for i in range(DIM))

    # -- algebra ----------------------------------------------------------

    def __add__(self, other: "Endo") -> "Endo":
        if not isinstance(other, Endo):
            return NotImplemented
        return _trusted([a + b for a, b in zip(r1, r2)]
                        for r1, r2 in zip(self.rows, other.rows))

    def __sub__(self, other: "Endo") -> "Endo":
        if not isinstance(other, Endo):
            return NotImplemented
        return _trusted([a - b for a, b in zip(r1, r2)]
                        for r1, r2 in zip(self.rows, other.rows))

    def __neg__(self) -> "Endo":
        return _trusted([-a for a in r] for r in self.rows)

    def __rmul__(self, scalar) -> "Endo":
        s = FieldScalar.of(scalar)
        return _trusted([s * a for a in r] for r in self.rows)

    __mul__ = __rmul__

    def __matmul__(self, other: "Endo") -> "Endo":
        """The product of the numerator views of the factors, each entry
        divided once by den_a·den_b."""
        if not isinstance(other, Endo):
            return NotImplemented
        den_a, left = to_numerators(self.rows)
        den_b, right = to_numerators(other.rows)
        return _of_numerators(_product(left, right), den_a * den_b)

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
        """JSON-ready record: the rows, rationals as strings."""
        return {"rows": [[x.to_record() for x in row] for row in self.rows]}


def _trusted(rows) -> Endo:
    """An Endo of eight rows of eight FieldScalars, taken as they are."""
    e = object.__new__(Endo)
    e.rows = tuple(map(tuple, rows))
    return e


def _of_numerators(rows, den: int) -> Endo:
    """The Endo of sparse {column: numerator} rows over den."""
    return _trusted((row.get(k, ZERO) for k in range(DIM))
                    for row in (from_numerators(r, den) for r in rows))


def _product(rows_a, rows_b) -> list[dict]:
    """The product of two matrices of sparse {column: entry} rows over any
    ring: row i is Σ_j a_ij·(row j of b), zero sums pruned."""
    return [_combine((rows_b[j], a) for j, a in row.items()) for row in rows_a]


def _columns(rows) -> list[dict]:
    """Column p of a matrix of sparse rows as a {bit of e^i: entry} dict."""
    columns: list[dict] = [{} for _ in range(DIM)]
    for i, row in enumerate(rows):
        for p, x in row.items():
            columns[p][1 << i] = x
    return columns


def _rho_images(columns, masks) -> list[dict]:
    """ρ(A)e^m for each blade m of ``masks``, from the nonzero entries a_ip
    of A: a blade with e^p, and without e^i unless i = p, sends a_ip to
    m ^ p | i, negated if m has an odd number of generators strictly
    between i and p.  Diagonal entries may sum to zero coefficients."""
    images = [{} for _ in masks]
    for p, column in enumerate(columns):
        bit_p = 1 << p
        for bit_i, entry in column.items():
            both, negated = bit_p | bit_i, -entry
            between = (abs(bit_i - bit_p) - min(bit_i, bit_p)
                       if bit_i != bit_p else 0)
            for image, m in zip(images, masks):
                if (m & both) == bit_p:
                    key = m ^ bit_p | bit_i
                    image[key] = image.get(key, 0) + (
                        negated if (m & between).bit_count() & 1 else entry)
    return images


def _on_numerators(a: Endo, form: KForm, action, den_power: int) -> KForm:
    """action(term map of the form, columns of A) on the numerator views
    of A and the form, divided once by den(A)^den_power·den(form) per
    output coefficient."""
    den_a, rows = to_numerators(a.rows)
    den_f, (terms,) = to_numerators([dict(form.mask_items())])
    return KForm(form.degree, from_numerators(action(terms, _columns(rows)),
                                              den_a ** den_power * den_f))


def rho(a: Endo, form: KForm) -> KForm:
    """Derivation action: replace each slot of each blade by its image."""
    return _on_numerators(a, form, lambda terms, columns: _combine(zip(
        _rho_images(columns, list(terms)), terms.values())), 1)


def pullback(l_map: Endo, form: KForm) -> KForm:
    """Λ^k L: each covector slot is mapped through L and the images are
    wedged, the last one of each blade straight into the output
    (``forms._pulled_back``)."""
    if not form.degree:
        return form
    return _on_numerators(l_map, form, _pulled_back, form.degree)


def exp_nilpotent(a: Endo) -> Endo:
    """exp of a nilpotent matrix as the finite series Σ A^k/k!.

    The numerator rows N of A, over den, are raised to powers with
    ``_product`` until a power is zero; A^8 ≠ 0 means A is not nilpotent.
    With A^n the last nonzero power, the series is summed over the common
    denominator den^n·n!, the k-th term weighted by den^(n-k)·n!/k!, and
    divided once per entry."""
    den, rows = to_numerators(a.rows)
    powers = [[{i: 1} for i in range(DIM)], rows]
    while any(powers[-1]):
        if len(powers) > DIM:
            raise ValueError("exp_nilpotent requires nilpotent input")
        powers.append(_product(powers[-1], rows))
    n = len(powers) - 2
    weights = [den ** (n - k) * (factorial(n) // factorial(k))
               for k in range(n + 1)]
    return _of_numerators(
        [_combine((power[i], w) for power, w in zip(powers, weights))
         for i in range(DIM)], den ** n * factorial(n))
