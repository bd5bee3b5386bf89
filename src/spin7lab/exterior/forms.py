"""Sparse exterior algebra over any coefficient ring, and its R^8 instance.

A Form is a degree and its numerator view: ``_nums`` maps blade masks (see
blades.py) to nonzero numerators over one positive int ``_denom``.  A KForm
(R^8 over Q) holds ints with gcd(den, numerators) = 1, viewed once from
its rational FieldScalar coefficients (``scalars.to_numerators``, which
refuses a surd), and divides them out only when read; a ChamberForm (the
eleven chamber coframe generators) holds its coefficients over 1.
The engine below (add, negate, scale, wedge, contraction, blade
pullback) only adds, negates and multiplies numerators and dens, so the
same code serves both; it builds each result by ``Form._of_numerators``.
Every interior product is read from one walk over each blade by the
generators below a count (``_contractions``).  Blade pullback wedges on
one image term at a time, with its signs from a table per generator
count, and adds the last wedge of each blade straight into the output.
Every blade sign lives here and in blades.py: ``endo.pullback`` is blade
pullback on R^8, and the two derivations D(ω) = Σ_k D(e^k)∧(e_k⌟ω) are
built from that walk and a wedge, ``endo.rho`` with the one-image wedge step
of blade pullback, and the Maurer–Cartan rows of the chamber d
(``chamber._maurer_cartan_row``) with ``_wedged``.

On R^8 the metric is the standard Euclidean one with {e^1..e^8}
orthonormal and orientation e^{12345678}, which fixes the Hodge star and
the musical isomorphisms.  So a vector v is its metric-dual 1-form,
v♭ = v, one KForm of degree 1 (``KForm.vector``), and ``contract(v, a)``
reads v's int view.  The interior product contracts the first slot.

A FormOperator is a linear map into Λ^k over Q held as the numerator
view of the images of a domain basis, one {mask: int} dict per basis
vector over one den.  On Λ^k itself the domain basis is the blade order
of ``blades.BLADES``.  ``endo.Endo`` is the FormOperator on Λ¹, an 8x8
matrix whose image j is its column j.  Applying, composing
(``_composed``, which also raises the powers of ``endo.exp_nilpotent``
and ``classify.jordan_type_of``), adding and scaling operators sum every
contribution into one accumulator per output blade, on the views; the
FieldScalar ``images`` are divided out only when read.  Its rank and
kernel are all it asks of elimination: both hand ``linalg`` one sparse
{column: int} row per occurring blade, in mask order.
"""

from __future__ import annotations

from functools import cache
from math import gcd, lcm
from typing import Callable, Sequence

from . import linalg
from .blades import (BLADE_POSITION, BLADES, DIM, FULL_MASK, _sign_mask,
                     complement_sign, indices_of, mask_of)
from .scalars import ZERO, FieldScalar, from_numerators, to_numerators

__all__ = ["Form", "KForm", "FormOperator", "add", "negate", "scale",
           "wedge", "contract_generator", "blade_pullback", "contract",
           "hodge_star", "inner", "basis_blades"]


class Form:
    """A homogeneous exterior form over ``generators`` covectors, held as
    its canonical numerator view (``_denom``, ``_nums``): ``==`` and
    ``hash`` compare views.

    Subclasses set the generator count, ``_view``, which takes a map of
    coefficients (whatever their ring coerces) to its view, zeros dropped,
    and ``_lowest``, which puts numerators over a den in lowest terms (by
    default, as they are).
    """

    __slots__ = ("degree", "_denom", "_nums")
    generators: int
    _view: Callable

    def __init__(self, degree: int, terms: dict | None = None):
        if not 0 <= degree:
            raise ValueError("degree must be nonnegative")
        self._denom, self._nums = self._view(terms or {})
        for m in self._nums:
            if m < 0 or m >> self.generators or m.bit_count() != degree:
                raise ValueError(f"{m:#b} is not a blade of degree {degree}"
                                 f" on {self.generators} generators")
        self.degree = degree

    @classmethod
    def _of_numerators(cls, degree: int, nums: dict, den: int = 1):
        """nums/den for numerators the engine has just built, trusted to
        hold masks of this degree and no zero: only ``_lowest`` runs."""
        if degree < 0:  # contraction is the one step that lowers a degree
            raise ValueError("cannot contract a scalar")
        out = object.__new__(cls)
        out.degree = degree
        out._denom, out._nums = cls._lowest(nums, den)
        return out

    _lowest = staticmethod(lambda nums, den: (den, nums))

    @classmethod
    def zero(cls, degree: int):
        return cls._of_numerators(degree, {})

    def mask_items(self):
        return self._nums.items()

    def __bool__(self):
        return bool(self._nums)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self._nums == other._nums and self._denom == other._denom:
            return self.degree == other.degree or not self._nums
        return False

    def __hash__(self):
        # the blades fix the degree, and zero forms of any degree are equal
        return hash((self._denom, frozenset(self._nums.items())))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return add(self, other)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return add(self, negate(other))

    def __neg__(self):
        return negate(self)

    def __rmul__(self, scalar):
        return scale(scalar, self)

    __mul__ = __rmul__

    def wedge(self, other):
        return wedge(self, other)

    __xor__ = wedge

    def __repr__(self):
        return f"{type(self).__name__}({self.to_record()})"


# -- the engine: public functions, written once for every Form ----------------


def add(a: Form, b: Form) -> Form:
    if a.degree != b.degree and a._nums and b._nums:
        raise ValueError("cannot add forms of different degrees")
    den, (left, right) = _lcm_view((a, b))
    acc = dict(left)
    for m, c in right.items():
        prev = acc.get(m)
        acc[m] = c if prev is None else prev + c
    return type(a)._of_numerators(a.degree if a._nums else b.degree,
                                  _pruned(acc), den)


def negate(a: Form) -> Form:
    return type(a)._of_numerators(
        a.degree, {m: -c for m, c in a._nums.items()}, a._denom)


def scale(s, a: Form) -> Form:
    """s·a for any s that a's ring coerces, on the views of s and a."""
    den, view = a._view({0: s})
    n = view.get(0)
    return type(a)._of_numerators(a.degree, {
        m: n * c for m, c in a._nums.items()} if n else {}, den * a._denom)


def wedge(a: Form, b: Form) -> Form:
    return type(a)._of_numerators(a.degree + b.degree, _wedged(
        a._nums, b._nums), a._denom * b._denom)


def _lcm_view(views) -> tuple[int, list[dict]]:
    """(D, the numerators of each view over D), D the lcm of their dens:
    of forms, or of ChamberScalars, which are held as views too."""
    den = lcm(*(f._denom for f in views))
    return den, [f._nums if f._denom == den else
                 {m: x * (den // f._denom) for m, x in f._nums.items()}
                 for f in views]


def _lowest(nums: dict, den: int) -> tuple[int, dict]:
    """(den, nums) of int numerators over a positive den, divided by their
    gcd."""
    g = gcd(den, *nums.values())
    return ((den, nums) if g == 1 else
            (den // g, {m: x // g for m, x in nums.items()}))


def _wedged(terms1: dict, terms2: dict) -> dict:
    """The wedge of two term maps, in one accumulator per blade; zero sums
    are pruned."""
    acc: dict = {}
    right = [(m2, c2, _sign_mask(m2)) for m2, c2 in terms2.items()]
    for m1, c1 in terms1.items():
        for m2, c2, sign_mask in right:
            if m1 & m2:
                continue
            m = m1 | m2
            prev = acc.get(m)
            term = -(c1 * c2) if (m1 & sign_mask).bit_count() & 1 else c1 * c2
            acc[m] = term if prev is None else prev + term
    return {m: c for m, c in acc.items() if c}


def contract_generator(slot: int, a: Form) -> Form:
    """Interior product with the dual of generator ``slot`` (0-based),
    contracting the first slot."""
    if not 0 <= slot < a.generators:
        raise ValueError(f"slot {slot} out of range 0..{a.generators - 1}")
    return type(a)._of_numerators(
        a.degree - 1, _contractions(a._nums, slot + 1)[slot], a._denom)


def _contractions(terms: dict, generators: int) -> list[dict]:
    """[e_p⌟ω for each p < generators] of a term map ω over any ring that
    negates, in one walk over each blade's generators below that count:
    pulling e_p to the front passes the generators of the blade below p,
    so the signs along a blade go +, −, +, …"""
    out: list[dict] = [{} for _ in range(generators)]
    below = (1 << generators) - 1
    for m, c in terms.items():
        t = m & below
        while t:
            low = t & -t
            out[low.bit_length() - 1][m ^ low] = c
            t ^= low
            c = -c
    return out


def blade_pullback(a: Form, images: Sequence[Form]) -> Form:
    """Λ^k of the map sending generator i to the 1-form images[i], of a's
    type: every blade becomes the wedge of its generators' images."""
    if len(images) != a.generators:
        raise ValueError(f"need one image per generator, got {len(images)}")
    if any(type(image) is not type(a) for image in images):
        raise ValueError(f"every image must be a {type(a).__name__}")
    if a.degree == 0:
        return a
    den, maps = _lcm_view(images)
    return type(a)._of_numerators(a.degree, _pulled_back(a._nums, maps),
                                  a._denom * den ** a.degree)


def _pulled_back(terms: dict, images: Sequence[dict]) -> dict:
    """Σ c·(wedge of the images of m's generators) over the nonempty
    blades m of ``terms``, on term maps over any coefficient ring.

    A wedge step walks the nonzero terms of one image and reads each sign
    from ``_sign_table``.  The wedge of a blade's first generators (its
    prefix) is built once per call and shared by the blades that start so.
    The image of the last generator j goes straight into the output,
    wedged once onto Σ c·prefix over the blades that end in j."""
    steps = _wedge_steps(images)
    prefixes = {1 << i: image for i, image in enumerate(images)}
    ending: dict = {}
    acc: dict = {}
    for m, coeff in terms.items():
        j = m.bit_length() - 1
        prefix, t = 0, m ^ (1 << j)
        while t:
            low = t & -t
            t ^= low
            if (prefix | low) not in prefixes:
                prefixes[prefix | low] = _pruned(_wedge_step(
                    {}, prefixes[prefix], steps[low.bit_length() - 1]))
            prefix |= low
        if not prefix:  # a 1-form blade: its coefficient times its image
            _wedge_step(acc, {0: coeff}, steps[j])
        else:
            ending.setdefault(j, []).append((prefixes[prefix], coeff))
    for j, pairs in ending.items():
        _wedge_step(acc, _combine(pairs), steps[j])
    return _pruned(acc)


def _wedge_step(acc: dict, piece: dict, step) -> dict:
    """Add piece∧(Σ c·e^b) over the (sign row, b, c) of ``step`` into acc."""
    for pm, pc in piece.items():
        for row, b, c in step:
            sign = row[pm]
            if sign:
                m = pm | b
                prev = acc.get(m)
                if sign > 0:
                    acc[m] = pc * c if prev is None else prev + pc * c
                else:
                    acc[m] = -(pc * c) if prev is None else prev - pc * c
    return acc


def _wedge_steps(images: Sequence[dict], sign: int = 1) -> list[list]:
    """Per image Σ c·e^b, the (sign row, b, sign·c) terms that
    ``_wedge_step`` wedges on, the rows read from ``_sign_table``."""
    signs = _sign_table(len(images))
    return [[(signs[b.bit_length() - 1], b, c if sign > 0 else -c)
             for b, c in image.items()] for image in images]


@cache
def _sign_table(generators: int) -> tuple:
    """Row j holds the sign of e^m∧e^j against e^(m|j) for every mask m:
    0 when m holds j, else −1 to the number of generators of m above j."""
    return tuple([0 if m >> j & 1 else 1 - 2 * ((m >> j).bit_count() & 1)
                  for m in range(1 << generators)] for j in range(generators))


def _pruned(acc: dict) -> dict:
    return {m: x for m, x in acc.items() if x}


def _combine(pairs) -> dict:
    """Σ s·terms over (terms, s) pairs of term maps and coefficients, in
    one accumulator per blade; zero sums are pruned."""
    acc: dict = {}
    for terms, s in pairs:
        for m, c in terms.items():
            term = s * c
            prev = acc.get(m)
            acc[m] = term if prev is None else prev + term
    return {m: x for m, x in acc.items() if x}


class KForm(Form):
    """A homogeneous form on R^8 over Q, degree 0..8, addressed by 1-based
    indices."""

    __slots__ = ()
    generators = DIM

    @staticmethod
    def _view(coeffs: dict) -> tuple[int, dict]:
        den, (nums,) = to_numerators([{m: FieldScalar.of(c)
                                       for m, c in coeffs.items()}])
        return den, nums  # already in lowest terms

    _lowest = staticmethod(_lowest)

    # -- construction --------------------------------------------------

    @staticmethod
    def from_terms(degree: int, terms) -> "KForm":
        """Build from (indices, coeff) pairs; unsorted indices are canonicalized."""
        acc: dict[int, FieldScalar] = {}
        for indices, coeff in terms:
            sign, mask = mask_of(indices)
            if sign:
                acc[mask] = acc.get(mask, ZERO) + sign * FieldScalar.of(coeff)
        return KForm(degree, acc)

    @staticmethod
    def vector(components) -> "KForm":
        """The 1-form Σ c_i e^i of 8 exact components c_1..c_8."""
        comps = tuple(components)
        if len(comps) != DIM:
            raise ValueError(f"expected {DIM} components, got {len(comps)}")
        return KForm(1, {1 << i: c for i, c in enumerate(comps)})

    # -- inspection -----------------------------------------------------

    def components(self) -> list[FieldScalar]:
        """The 8 coefficients of a 1-form, e^1 first."""
        _check_vectors(self)
        out = [ZERO] * DIM
        for m, n in self._nums.items():
            out[m.bit_length() - 1] = FieldScalar.from_ratio(n, self._denom)
        return out

    def mask_items(self):
        """(mask, FieldScalar) pairs, divided out of the view on each read."""
        return from_numerators(self._nums, self._denom).items()

    def terms(self) -> list[tuple[tuple[int, ...], FieldScalar]]:
        """Sorted (indices, coefficient) pairs; the canonical readout."""
        return [(indices_of(m), c)
                for m, c in sorted(self.mask_items(),
                                   key=lambda mc: indices_of(mc[0]))]

    def to_record(self) -> dict:
        """JSON-ready record: the sorted terms, rationals as strings."""
        return {
            "degree": self.degree,
            "terms": [
                {"indices": list(indices),
                 "coeff": c.to_record()}
                for indices, c in self.terms()
            ],
        }


# -- operations specific to R^8 ----------------------------------------------


def _check_vectors(*vs) -> None:
    """ValueError unless each of vs is a vector of R^8, a KForm of degree
    1: the masks of any other degree would be misread as slots."""
    for v in vs:
        if type(v) is not KForm or v.degree != 1:
            raise ValueError(f"a vector of R^{DIM} is a KForm of degree 1")


def contract(v: KForm, a: KForm) -> KForm:
    """Interior product v ⌟ a by a vector v, contracting the first slot:
    Σ v_p·(e_p⌟a) over the int view of v."""
    _check_vectors(v)
    pieces = _contractions(a._nums, DIM)
    return KForm._of_numerators(a.degree - 1, _combine(
        (pieces[m.bit_length() - 1], n) for m, n in v._nums.items()),
        v._denom * a._denom)


def hodge_star(a: KForm) -> KForm:
    """Euclidean Hodge star with orientation e^{12345678}."""
    return KForm._of_numerators(DIM - a.degree, {
        FULL_MASK ^ m: complement_sign(m) * c for m, c in a._nums.items()},
        a._denom)


def inner(a: KForm, b: KForm) -> FieldScalar:
    """The inner product with {e^I} orthonormal: sum of matched coefficients."""
    if len(b._nums) < len(a._nums):
        a, b = b, a
    total = sum(c * b._nums[m] for m, c in a._nums.items() if m in b._nums)
    return FieldScalar.from_ratio(total, a._denom * b._denom)


def basis_blades(k: int) -> list[KForm]:
    return [KForm._of_numerators(k, {m: 1}) for m in BLADES[k]]


class FormOperator:
    """A linear map into Λ^degree, held as the numerator view of its images
    (``_denom``, ``_nums``): ``_nums[j]`` is the {mask: numerator} dict of
    the image of the j-th domain basis vector, over ``_denom``.

    With one image per basis blade of Λ^degree, in ``BLADES`` order, it is
    an operator on Λ^degree, as ``apply``, ``@`` and ``identity`` assume;
    ``endo.Endo`` is the one on Λ¹.  The view holds ints over one
    denominator, not always in lowest terms, and refuses a surd
    (``scalars.to_numerators``); the {mask: FieldScalar} ``images`` are
    divided out of it on every read.  ``==`` cross-multiplies views,
    ``hash`` reads their nonzero pattern; of elimination it has ``rank``
    and ``kernel``, on the int view.
    """

    __slots__ = ("degree", "_denom", "_nums")

    def __init__(self, degree: int, images: Sequence[dict]):
        self.degree = degree
        self._denom, self._nums = to_numerators(images)

    @classmethod
    def _of_numerators(cls, degree: int, images: list[dict], den: int):
        """The operator of these int numerator images over den."""
        op = object.__new__(cls)
        op.degree, op._denom, op._nums = degree, den, images
        return op

    @property
    def images(self) -> tuple:
        """The {mask: FieldScalar} images, divided out of the view."""
        return tuple(from_numerators(img, self._denom) for img in self._nums)

    @staticmethod
    def of_forms(degree: int, forms: Sequence[KForm]) -> "FormOperator":
        """The map sending the j-th coordinate vector to forms[j]."""
        den, maps = _lcm_view(forms)
        return FormOperator._of_numerators(degree, maps, den)

    @staticmethod
    def identity(degree: int) -> "FormOperator":
        return FormOperator.of_forms(degree, basis_blades(degree))

    def apply(self, form: KForm) -> KForm:
        if form.degree != self.degree:
            raise ValueError("operator degree mismatch")
        pos = BLADE_POSITION[self.degree]
        return KForm._of_numerators(self.degree, _combine(
            (self._nums[pos[m]], c) for m, c in form._nums.items()),
            self._denom * form._denom)

    __call__ = apply

    def __matmul__(self, other: "FormOperator") -> "FormOperator":
        if not isinstance(other, FormOperator):
            return NotImplemented
        return self._of_numerators(
            self.degree, _composed(self._nums, other._nums, self.degree),
            self._denom * other._denom)

    def __add__(self, other: "FormOperator") -> "FormOperator":
        if not isinstance(other, FormOperator):
            return NotImplemented
        return self._summed(other, 1)

    def __sub__(self, other: "FormOperator") -> "FormOperator":
        if not isinstance(other, FormOperator):
            return NotImplemented
        return self._summed(other, -1)

    def _summed(self, other: "FormOperator", sign: int) -> "FormOperator":
        """self + sign·other over the lcm of the two denominators."""
        den_a, den_b = self._denom, other._denom
        den = lcm(den_a, den_b)
        scale_a, scale_b = den // den_a, sign * (den // den_b)
        images = [_combine(((a, scale_a), (b, scale_b)))
                  for a, b in zip(self._nums, other._nums)]
        return self._of_numerators(self.degree, images, den)

    def __rmul__(self, scalar) -> "FormOperator":
        """s·self on the numerator views of s and self."""
        den_s, (s,) = to_numerators([(FieldScalar.of(scalar),)])
        n = s.get(0)
        return self._of_numerators(
            self.degree, [{k: n * x for k, x in img.items()} if n else {}
                          for img in self._nums], self._denom * den_s)

    __mul__ = __rmul__

    def __neg__(self) -> "FormOperator":
        return -1 * self

    def __eq__(self, other):
        if not isinstance(other, FormOperator) or self.degree != other.degree:
            return False
        den_a, left = self._denom, self._nums
        den_b, right = other._denom, other._nums
        return len(left) == len(right) and all(
            a.keys() == b.keys() and all(x * den_b == b[m] * den_a
                                         for m, x in a.items())
            for a, b in zip(left, right))

    def __hash__(self):
        return hash((self.degree,
                     tuple(frozenset(img) for img in self._nums)))

    def __bool__(self):
        return any(self._nums)

    def _rows(self) -> list[dict]:
        """One {column: int numerator} row per occurring blade, in mask
        order."""
        rows: dict = {}
        for j, img in enumerate(self._nums):
            for m, c in img.items():
                rows.setdefault(m, {})[j] = c
        return [rows[m] for m in sorted(rows)]

    def rank(self) -> int:
        return len(linalg._integer_rref(self._rows()))

    def kernel(self) -> list[dict[int, FieldScalar]]:
        """Canonical kernel basis as sparse coordinate vectors, one per free
        column with 1 there (the vectors of ``linalg.nullspace``)."""
        return [linalg.unit_in_free_column(vec) for vec in
                linalg.integer_nullspace(self._rows(), len(self._nums))]

    def is_idempotent(self) -> bool:
        return self @ self == self


def _composed(left: Sequence[dict], right: Sequence[dict],
              degree: int) -> list[dict]:
    """The images of L∘R from those of L and R on Λ^degree, over any ring:
    image j is Σ c·left[position of m] over the terms c·e^m of right[j],
    zero sums pruned."""
    pos = BLADE_POSITION[degree]
    return [_combine((left[pos[m]], c) for m, c in img.items())
            for img in right]
