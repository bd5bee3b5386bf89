"""Endomorphisms of the covector space and their exterior extensions.

An Endo is the FormOperator (see forms.py) on Λ¹: an 8x8 rational matrix
acting on covectors, its image j the 1-form A e^j = Σ_i a_ij e^i stored as
{bit of e^i: a_ij}.  ``rows`` reads entry (i, j), the coefficient of e^i
in the image of e^j.  Two extensions to Λ^k matter here:

* ``rho(A, a)`` — the derivation (Lie-algebra) action, replacing one slot
  at a time: each generator p of each blade is walked down image p of A
  into one accumulator (``_rho_terms``);
* ``pullback(L, a)`` — the multiplicative (group) action Λ^k L.

For nilpotent A the two are linked by pullback(exp A) = exp(rho A).

The numerator view.  An Endo, like every FormOperator, is held only as
the numerator view of its images, ints over one denominator (a surd
entry raises ValueError); ``rows`` and ``images`` are divided out of it
on every read.  ``rho``, ``pullback``, ``exp_nilpotent`` and the
classifier's ``jordan_type_of``, like the ``@``, sums and scaling that an
Endo inherits, sum and multiply on that view, and a KForm is its
numerator view, so ``rho`` and ``pullback`` divide nothing:
``pullback(exp_nilpotent(t * a), Ω) == Ω + t·ρ(A)Ω`` stays on ints from
A to the comparison.
"""

from __future__ import annotations

from math import factorial

from .blades import DIM
from .scalars import ZERO, FieldScalar, to_numerators
from .forms import (Covector, FormOperator, KForm, Vector, _combine,
                    _composed, _pruned, _pulled_back)

__all__ = ["Endo", "rho", "pullback", "exp_nilpotent"]


class Endo(FormOperator):
    """A rational linear map on covectors; rows[i][j] = ⟨e^i | A e^j⟩."""

    __slots__ = ()

    def __init__(self, rows):
        rs = tuple(tuple(FieldScalar.of(x) for x in row) for row in rows)
        if len(rs) != DIM or any(len(r) != DIM for r in rs):
            raise ValueError(f"need an {DIM}x{DIM} matrix")
        super().__init__(1, [{1 << i: r[j] for i, r in enumerate(rs) if r[j]}
                             for j in range(DIM)])

    @property
    def rows(self) -> tuple:
        """The entries as eight tuples of eight FieldScalars."""
        images = self.images
        return tuple(tuple(img.get(1 << i, ZERO) for img in images)
                     for i in range(DIM))

    # -- construction ---------------------------------------------------

    @staticmethod
    def identity() -> "Endo":
        return Endo._of_numerators(1, [{1 << i: 1} for i in range(DIM)], 1)

    @staticmethod
    def unit(i: int, j: int) -> "Endo":
        """The elementary map e^j -> e^i (1-based), all else to zero."""
        if not (1 <= i <= DIM and 1 <= j <= DIM):
            raise ValueError(f"unit indices ({i}, {j}) out of range 1..{DIM}")
        images: list[dict] = [{} for _ in range(DIM)]
        images[j - 1] = {1 << (i - 1): 1}
        return Endo._of_numerators(1, images, 1)

    @staticmethod
    def tensor(v: Vector, alpha: Covector) -> "Endo":
        """v ⊗ alpha as a map on covectors: ε -> ε(v) · alpha; image j is
        v_j·alpha, built on one numerator view of v and alpha."""
        den, (vs, alphas) = to_numerators([v.components, alpha.components])
        return Endo._of_numerators(
            1, [{1 << i: a * vs[j] for i, a in alphas.items()} if j in vs
                else {} for j in range(DIM)], den * den)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"Endo[{body}]"

    def to_record(self) -> dict:
        """JSON-ready record: the rows, rationals as strings."""
        return {"rows": [[x.to_record() for x in row] for row in self.rows]}


def _rho_terms(terms: dict, columns: list[dict]) -> dict:
    """ρ(A) of a term map, blade by blade and slot by slot: generator p of
    blade m is walked down image p of A, and a_ip·c goes to m ^ p | i,
    negated if m has an odd number of generators strictly between i and p,
    and dropped if m holds i ≠ p.  Diagonal entries may sum to zero, which
    is pruned."""
    slots = []
    for p, column in enumerate(columns):
        bit_p = 1 << p
        slots.append([(0, 0, 0, x) if bit_i == bit_p else
                      (bit_i, bit_i | bit_p,
                       abs(bit_i - bit_p) - min(bit_i, bit_p), x)
                      for bit_i, x in column.items()])
    acc: dict = {}
    for m, c in terms.items():
        t = m
        while t:
            bit = t & -t
            t ^= bit
            for blocked, swap, between, x in slots[bit.bit_length() - 1]:
                if m & blocked:
                    continue
                key = m ^ swap
                prev = acc.get(key)
                if (m & between).bit_count() & 1:
                    acc[key] = -(c * x) if prev is None else prev - c * x
                else:
                    acc[key] = c * x if prev is None else prev + c * x
    return _pruned(acc)


def _on_numerators(a: Endo, form: KForm, action, den_power: int) -> KForm:
    """action(numerators of the form, numerator images of A) over
    den(A)^den_power·den(form)."""
    return KForm._of_numerators(form.degree, action(form._nums, a._nums),
                                a._denom ** den_power * form._denom)


def rho(a: Endo, form: KForm) -> KForm:
    """Derivation action: replace each slot of each blade by its image."""
    return _on_numerators(a, form, _rho_terms, 1)


def pullback(l_map: Endo, form: KForm) -> KForm:
    """Λ^k L: each covector slot is mapped through L and the images are
    wedged, the last one of each blade straight into the output
    (``forms._pulled_back``)."""
    if not form.degree:
        return form
    return _on_numerators(l_map, form, _pulled_back, form.degree)


def exp_nilpotent(a: Endo) -> Endo:
    """exp of a nilpotent matrix as the finite series Σ A^k/k!.

    The numerator images N of A, over den, are raised to powers with
    ``forms._composed`` until a power is zero; A^8 ≠ 0 means A is not
    nilpotent.  With A^n the last nonzero power, the series is summed over
    the common denominator den^n·n!, the k-th term weighted by
    den^(n-k)·n!/k!, and kept as the view of the result."""
    den, images = a._denom, a._nums
    powers = [[{1 << i: 1} for i in range(DIM)], images]
    while any(powers[-1]):
        if len(powers) > DIM:
            raise ValueError("exp_nilpotent requires nilpotent input")
        powers.append(_composed(powers[-1], images, 1))
    n = len(powers) - 2
    weights = [den ** (n - k) * (factorial(n) // factorial(k))
               for k in range(n + 1)]
    return Endo._of_numerators(
        1, [_combine((power[j], w) for power, w in zip(powers, weights))
            for j in range(DIM)], den ** n * factorial(n))
