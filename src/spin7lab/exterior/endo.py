"""Endomorphisms of the covector space and their exterior extensions.

An Endo is the FormOperator (see forms.py) on Λ¹: an 8x8 rational matrix
acting on covectors, its image j the 1-form A e^j = Σ_i a_ij e^i stored as
{bit of e^i: a_ij}.  ``rows`` reads entry (i, j), the coefficient of e^i
in the image of e^j.  Two extensions to Λ^k matter here:

* ``rho(A, a)`` — the derivation (Lie-algebra) action, replacing one slot
  at a time: Σ_p (A e^p)∧(e_p⌟a), each e_p⌟a of one contraction walk
  wedged on image p of A by the engine's one-generator wedge, into one
  accumulator (``_rho_terms``);
* ``pullback(L, a)`` — the multiplicative (group) action Λ^k L.

For nilpotent A the two are linked by pullback(exp A) = exp(rho A).

The numerator view.  An Endo, like every FormOperator, is held only as
the numerator view of its images, ints over one denominator, read from
its entries as they are (a surd entry raises ValueError, a float
TypeError); ``rows`` and ``images`` are divided out of it
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
from .scalars import ZERO
from .forms import (FormOperator, KForm, _check_vectors, _combine, _composed,
                    _contractions, _pruned, _pulled_back, _wedge_step,
                    _wedge_steps)

__all__ = ["Endo", "rho", "pullback", "exp_nilpotent"]


class Endo(FormOperator):
    """A rational linear map on covectors; rows[i][j] = ⟨e^i | A e^j⟩."""

    __slots__ = ()

    def __init__(self, rows):
        rs = tuple(map(tuple, rows))
        if len(rs) != DIM or any(len(r) != DIM for r in rs):
            raise ValueError(f"need an {DIM}x{DIM} matrix")
        super().__init__(1, [{1 << i: r[j] for i, r in enumerate(rs)}
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
    def tensor(v: KForm, alpha: KForm) -> "Endo":
        """v ⊗ alpha as a map on covectors, v and alpha 1-forms: ε -> ε(v)·
        alpha; image j is v_j·alpha, on the int views of v and alpha."""
        _check_vectors(v, alpha)
        vs = v._nums
        return Endo._of_numerators(
            1, [{m: a * vs[1 << j] for m, a in alpha._nums.items()}
                if 1 << j in vs else {} for j in range(DIM)],
            v._denom * alpha._denom)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"Endo[{body}]"

    def to_record(self) -> dict:
        """JSON-ready record: the rows, rationals as strings."""
        return {"rows": [[x.to_record() for x in row] for row in self.rows]}


def _rho_terms(terms: dict, columns: list[dict], degree: int) -> dict:
    """ρ(A) of a term map of degree k as the derivation rule
    Σ_p (A e^p)∧(e_p⌟ω) = Σ_p (e_p⌟ω)∧(A e^p)·(−1)^(k−1): the contractions
    by every generator p, from one ``forms._contractions`` walk, each
    wedged on image p by the one-generator step of blade pullback, into
    one accumulator.  Diagonal entries may sum to zero, which is pruned."""
    acc: dict = {}
    for piece, step in zip(_contractions(terms, DIM),
                           _wedge_steps(columns, degree % 2 * 2 - 1)):
        _wedge_step(acc, piece, step)
    return _pruned(acc)


def rho(a: Endo, form: KForm) -> KForm:
    """Derivation action: replace each slot of each blade by its image."""
    return KForm._of_numerators(form.degree, _rho_terms(
        form._nums, a._nums, form.degree), a._denom * form._denom)


def pullback(l_map: Endo, form: KForm) -> KForm:
    """Λ^k L: each covector slot is mapped through L and the images are
    wedged, the last one of each blade straight into the output
    (``forms._pulled_back``), over den(L)^k·den(form)."""
    if not form.degree:
        return form
    return KForm._of_numerators(form.degree, _pulled_back(
        form._nums, l_map._nums), l_map._denom ** form.degree * form._denom)


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
