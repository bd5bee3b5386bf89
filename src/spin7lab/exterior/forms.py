"""Sparse exterior algebra over any coefficient ring, and its R^8 instance.

A Form stores a degree and a map from blade masks (see blades.py) to
coefficients; zero coefficients are pruned eagerly so equality is
structural.  The engine below (add, negate, scale, wedge, contraction by
one generator, blade pullback) only adds, negates and multiplies the
coefficients it is given, so the same code serves KForm (the eight
covectors of R^8 over Q(sqrt2, sqrt3)), ChamberForm (the eleven chamber
coframe generators over the chamber ring) and the int numerators of a
rational ``endo.pullback``.  Blade pullback wedges on one image term at a
time, with its signs from a table per generator count, and adds the last
wedge of each blade straight into the output.

On R^8 the metric is the standard Euclidean one with {e^1..e^8}
orthonormal and orientation e^{12345678}, which fixes the Hodge star and
the musical isomorphisms.  The interior product contracts the first slot.

A FormOperator is a linear map into Λ^k stored as the images of a domain
basis, one {mask: coefficient} dict per basis vector; on Λ^k itself the
domain basis is the blade order of ``blades.BLADES``.  ``endo.Endo`` is
the FormOperator on Λ¹, an 8x8 matrix whose image j is its column j.
Applying, composing (``_composed``, which also raises the powers of
``endo.exp_nilpotent`` and ``classify.jordan_type_of``), adding and
scaling operators, like contracting by a vector, sum every contribution
into one accumulator per output blade, on the numerator view of the
FieldScalar images (``scalars.to_numerators``, taken once per operator):
ints over one denominator for rational images, FieldScalars over 1 with a
surd.  An operator built from int numerators keeps them as its view.  Its
rank and kernel are all it asks of elimination: both hand ``linalg`` one
sparse {column: coefficient} row per occurring blade, in mask order, and
reduce it over Q only.
"""

from __future__ import annotations

from functools import cache
from math import lcm
from typing import Callable, Sequence

from . import linalg
from .blades import (BLADE_POSITION, BLADES, DIM, FULL_MASK, _sign_mask,
                     complement_sign, contract_sign, indices_of, mask_of,
                     pair_sign_mask)
from .scalars import ONE, ZERO, FieldScalar, from_numerators, to_numerators

__all__ = ["Form", "Vector", "Covector", "KForm", "FormOperator", "add",
           "negate", "scale", "wedge", "contract_generator", "blade_pullback",
           "contract", "hodge_star", "inner", "basis_blades"]


class _EightTuple:
    """Shared implementation for vectors and covectors (8 exact components)."""

    __slots__ = ("components",)

    def __init__(self, components):
        comps = tuple(FieldScalar.of(c) for c in components)
        if len(comps) != DIM:
            raise ValueError(f"expected {DIM} components, got {len(comps)}")
        self.components = comps

    @classmethod
    def zero(cls):
        return cls((0,) * DIM)

    @classmethod
    def basis(cls, i: int):
        if not 1 <= i <= DIM:
            raise ValueError(f"basis index {i} out of range 1..{DIM}")
        return cls(tuple(ONE if k == i - 1 else ZERO for k in range(DIM)))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self)(tuple(a + b for a, b in
                                zip(self.components, other.components)))

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self)(tuple(a - b for a, b in
                                zip(self.components, other.components)))

    def __neg__(self):
        return type(self)(tuple(-a for a in self.components))

    def __rmul__(self, scalar):
        s = FieldScalar.of(scalar)
        return type(self)(tuple(s * a for a in self.components))

    __mul__ = __rmul__

    def __eq__(self, other):
        return type(other) is type(self) and self.components == other.components

    def __hash__(self):
        return hash((type(self).__name__, self.components))

    def __bool__(self):
        return any(self.components)

    def __repr__(self):
        inner_ = ", ".join(str(c) for c in self.components)
        return f"{type(self).__name__}({inner_})"


class Vector(_EightTuple):
    """A tangent vector v = sum v_i e_i."""

    def flat(self) -> "Covector":
        """Musical isomorphism: the metric is Euclidean, so components copy."""
        return Covector(self.components)

    def dot(self, other: "Vector") -> FieldScalar:
        return sum((a * b for a, b in zip(self.components, other.components)),
                   ZERO)


class Covector(_EightTuple):
    """A one-form alpha = sum alpha_i e^i."""

    def form(self) -> "KForm":
        return KForm(1, {1 << i: c for i, c in enumerate(self.components) if c})


class Form:
    """A homogeneous exterior form over ``generators`` covectors.

    Subclasses set the generator count and ``_scalar``, which coerces a
    multiplier into their coefficient ring once per product, never per term.
    """

    __slots__ = ("degree", "_terms")
    generators: int
    _scalar: Callable

    def __init__(self, degree: int, terms: dict | None = None):
        if not 0 <= degree:
            raise ValueError("degree must be nonnegative")
        self.degree = degree
        self._terms = {m: c for m, c in (terms or {}).items() if c}
        for m in self._terms:
            if m.bit_count() != degree:
                raise ValueError(f"blade {indices_of(m)} has wrong degree")

    @classmethod
    def zero(cls, degree: int):
        return cls(degree)

    def mask_items(self):
        return self._terms.items()

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self._terms == other._terms:
            return self.degree == other.degree or not self._terms
        return False

    def __hash__(self):
        # the blades fix the degree, and zero forms of any degree are equal
        return hash(frozenset(self._terms.items()))

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
        return scale(self._scalar(scalar), self)

    __mul__ = __rmul__

    def wedge(self, other):
        return wedge(self, other)

    __xor__ = wedge

    def __repr__(self):
        return f"{type(self).__name__}({self.to_record()})"


# -- the engine: public functions, written once for every Form ----------------


def add(a: Form, b: Form) -> Form:
    if a.degree != b.degree and a._terms and b._terms:
        raise ValueError("cannot add forms of different degrees")
    acc = dict(a._terms)
    for m, c in b._terms.items():
        prev = acc.get(m)
        acc[m] = c if prev is None else prev + c
    return type(a)(a.degree if a._terms else b.degree, acc)


def negate(a: Form) -> Form:
    return type(a)(a.degree, {m: -c for m, c in a._terms.items()})


def scale(s, a: Form) -> Form:
    """s·a for a coefficient s already in a's ring."""
    if not s:
        return type(a)(a.degree)
    return type(a)(a.degree, {m: s * c for m, c in a._terms.items()})


def wedge(a: Form, b: Form) -> Form:
    return type(a)(a.degree + b.degree, _wedged(a._terms, b._terms))


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
    if a.degree == 0:
        raise ValueError("cannot contract a scalar")
    return type(a)(a.degree - 1, _contracted(slot, a._terms))


def _contracted(slot: int, terms: dict) -> dict:
    bit = 1 << slot
    out = {}
    for m, c in terms.items():
        sign = contract_sign(slot, m)
        if sign:
            out[m ^ bit] = c if sign == 1 else -c
    return out


def _pair_contracted(a: int, b: int, terms: dict) -> dict:
    """e_a⌟e_b⌟ of a term map for generator bits a ≠ b: each blade m
    holding both goes to m ^ a ^ b with the sign of
    ``blades.pair_sign_mask``."""
    ab = a | b
    sign_mask = pair_sign_mask(a, b)
    return {m ^ ab: -c if (m & sign_mask).bit_count() & 1 else c
            for m, c in terms.items() if m & ab == ab}


def blade_pullback(a: Form, images: Sequence[Form]) -> Form:
    """Λ^k of the map sending generator i to the 1-form images[i]: every
    blade becomes the wedge of its generators' images."""
    if len(images) != a.generators:
        raise ValueError(f"need one image per generator, got {len(images)}")
    if a.degree == 0:
        return a
    return type(a)(a.degree,
                   _pulled_back(a._terms, [f._terms for f in images]))


def _pulled_back(terms: dict, images: Sequence[dict]) -> dict:
    """Σ c·(wedge of the images of m's generators) over the nonempty
    blades m of ``terms``, on term maps over any coefficient ring.

    A wedge step walks the nonzero terms of one image and reads each sign
    from ``_sign_table``.  The wedge of a blade's first generators (its
    prefix) is built once per call and shared by the blades that start so.
    The image of the last generator j goes straight into the output: a
    one-term image with the blade's coefficient folded into it, a longer
    one wedged once onto Σ c·prefix over the blades that end in j."""
    signs = _sign_table(len(images))
    steps = [[(signs[b.bit_length() - 1], b, c) for b, c in image.items()]
             for image in images]
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
        elif len(steps[j]) > 1:
            ending.setdefault(j, []).append((prefixes[prefix], coeff))
        else:
            _wedge_step(acc, prefixes[prefix],
                        [(row, b, coeff * c) for row, b, c in steps[j]])
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
    """A homogeneous form on R^8 over Q(sqrt2, sqrt3), degree 0..8,
    addressed by 1-based indices."""

    __slots__ = ()
    generators = DIM
    _scalar = staticmethod(FieldScalar.of)

    # -- construction --------------------------------------------------

    @staticmethod
    def from_terms(degree: int, terms) -> "KForm":
        """Build from (indices, coeff) pairs; unsorted indices are canonicalized."""
        acc: dict[int, FieldScalar] = {}
        for indices, coeff in terms:
            sign, mask = mask_of(indices)
            if sign == 0:
                continue
            c = sign * FieldScalar.of(coeff)
            acc[mask] = acc.get(mask, ZERO) + c
        return KForm(degree, acc)

    # -- inspection -----------------------------------------------------

    def terms(self) -> list[tuple[tuple[int, ...], FieldScalar]]:
        """Sorted (indices, coefficient) pairs; the canonical readout."""
        return [(indices_of(m), c)
                for m, c in sorted(self._terms.items(),
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


def contract(v: Vector, a: KForm) -> KForm:
    """Interior product v ⌟ a, contracting the first slot."""
    if a.degree == 0:
        raise ValueError("cannot contract a scalar")
    return KForm(a.degree - 1, _combine(
        (_contracted(slot, a._terms), comp)
        for slot, comp in enumerate(v.components) if comp))


def hodge_star(a: KForm) -> KForm:
    """Euclidean Hodge star with orientation e^{12345678}."""
    acc = {}
    for m, c in a._terms.items():
        s = complement_sign(m)
        acc[FULL_MASK ^ m] = s * c
    return KForm(DIM - a.degree, acc)


def inner(a: KForm, b: KForm) -> FieldScalar:
    """The inner product with {e^I} orthonormal: sum of matched coefficients."""
    if len(b._terms) < len(a._terms):
        a, b = b, a
    total = ZERO
    for m, c in a._terms.items():
        other = b._terms.get(m)
        if other is not None:
            total = total + c * other
    return total


def basis_blades(k: int) -> list[KForm]:
    return [KForm(k, {m: ONE}) for m in BLADES[k]]


class FormOperator:
    """A linear map into Λ^degree: ``images[j]`` is the {mask: FieldScalar}
    dict of the image of the j-th domain basis vector.

    With one image per basis blade of Λ^degree, in ``BLADES`` order, it is
    an operator on Λ^degree, as ``apply``, ``@`` and ``identity`` assume;
    ``endo.Endo`` is the one on Λ¹.  ``apply``, ``@``, ``+``, ``-``,
    scaling and ``bool`` read the images through their numerator view,
    computed on first use: int numerators over one denominator when all
    are rational, the FieldScalars over 1 when one has a surd.  An
    operator that they build from int numerators keeps them as its view,
    not always in lowest terms, and divides them into its ``images`` only
    when those are read; surd results are divided at once, so a kept view
    is an int view.  ``==`` and ``hash`` read the images.  Of elimination
    it has ``rank`` and ``kernel`` only, both over Q.
    """

    __slots__ = ("degree", "_images", "_view")

    def __init__(self, degree: int, images: Sequence[dict]):
        self.degree = degree
        self._images = tuple(images)
        self._view = None

    @classmethod
    def _of_numerators(cls, degree: int, images: list[dict], den: int):
        """The operator of these numerator images over den.  Int numerators
        are kept as its view; with a FieldScalar among them (a surd view,
        whose quotients may all be rational) all are divided at once, so
        that a kept view is an int view exactly when the images are
        rational, as ``linalg._int_rows`` assumes."""
        op = object.__new__(cls)
        op.degree = degree
        if any(type(x) is not int for img in images for x in img.values()):
            op._images = tuple(from_numerators(img, den) for img in images)
            op._view = None
        else:
            op._images, op._view = None, (den, images)
        return op

    @property
    def images(self) -> tuple:
        """The {mask: FieldScalar} images; divided out of the numerator view
        on first read by an operator built from one."""
        if self._images is None:
            den, images = self._view
            self._images = tuple(from_numerators(img, den) for img in images)
        return self._images

    def _numerators(self) -> tuple[int, list]:
        """(den, numerator images), kept once computed."""
        if self._view is None:
            self._view = to_numerators(self._images)
        return self._view

    @staticmethod
    def of_forms(degree: int, forms: Sequence[KForm]) -> "FormOperator":
        """The map sending the j-th coordinate vector to forms[j]."""
        return FormOperator(degree, [f._terms for f in forms])

    @staticmethod
    def identity(degree: int) -> "FormOperator":
        return FormOperator(degree, [{m: ONE} for m in BLADES[degree]])

    def apply(self, form: KForm) -> KForm:
        if form.degree != self.degree:
            raise ValueError("operator degree mismatch")
        den, images = self._numerators()
        den_f, (terms,) = to_numerators([form._terms])
        pos = BLADE_POSITION[self.degree]
        return KForm(self.degree, from_numerators(_combine(
            (images[pos[m]], c) for m, c in terms.items()), den * den_f))

    __call__ = apply

    def __matmul__(self, other: "FormOperator") -> "FormOperator":
        if not isinstance(other, FormOperator):
            return NotImplemented
        den_a, left = self._numerators()
        den_b, right = other._numerators()
        return self._of_numerators(
            self.degree, _composed(left, right, self.degree), den_a * den_b)

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
        den_a, left = self._numerators()
        den_b, right = other._numerators()
        den = lcm(den_a, den_b)
        scale_a, scale_b = den // den_a, sign * (den // den_b)
        images = [_combine(((a, scale_a), (b, scale_b)))
                  for a, b in zip(left, right)]
        return self._of_numerators(self.degree, images, den)

    def __rmul__(self, scalar) -> "FormOperator":
        """s·self on the numerator views of s and self."""
        den_s, (s,) = to_numerators([(FieldScalar.of(scalar),)])
        n = s.get(0)
        den, images = self._numerators()
        return self._of_numerators(
            self.degree, [{k: n * x for k, x in img.items()} if n else {}
                          for img in images], den * den_s)

    __mul__ = __rmul__

    def __neg__(self) -> "FormOperator":
        return -1 * self

    def __eq__(self, other):
        return (isinstance(other, FormOperator)
                and self.degree == other.degree and self.images == other.images)

    def __hash__(self):
        return hash((self.degree,
                     tuple(frozenset(img.items()) for img in self.images)))

    def __bool__(self):
        return any(self._numerators()[1])

    def _rows(self) -> list[dict]:
        """One {column: coefficient} row per occurring blade, in mask order."""
        rows: dict = {}
        for j, img in enumerate(self.images):
            for m, c in img.items():
                rows.setdefault(m, {})[j] = c
        return [rows[m] for m in sorted(rows)]

    def rank(self) -> int:
        return linalg.rank(self._rows())

    def kernel(self) -> list[dict[int, FieldScalar]]:
        """Canonical kernel basis as sparse coordinate vectors, one per free
        column with 1 there (the vectors of ``linalg.nullspace``)."""
        return [{j: x for j, x in enumerate(vec) if x} for vec in
                linalg.nullspace(self._rows(), ncols=len(self.images))]

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
