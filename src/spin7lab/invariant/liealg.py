"""The Lie algebra sp(2) as anti-Hermitian quaternionic 2x2 matrices.

The ten generators split as two sp(1) factors (diagonal imaginary units)
and a quaternionic off-diagonal part.  Two normalizations of the same
basis are exposed:

* build_lie_frame() scales the off-diagonal generators by 1/2 and leaves
  the diagonal ones plain.  This is the connection normalization: the
  structure constants are the rationals {±1, ±2, ±1/2}, and it is the
  frame in which the cohomogeneity-one coframe calculus closes the
  Bryant-Salamon 4-form (the radial coefficients 4(1+t)^{-2/5} and
  5(1+t)^{3/5} are tuned to exactly these curvature constants).
* build_orthonormal_frame() scales by 1/sqrt(12) and 1/sqrt(24), making
  the basis orthonormal for the Killing metric (Killing matrix -Id), which
  is checked over Q on build_integer_frame() and ORTHONORMAL_SQUARED_SCALES.

These frames and build_integer_frame() (the unscaled basis e_i) take
their structure constants from one table c_ij^k built on Python ints for
the e_i, whose brackets an exactness guard rebuilds from their nonzero
coordinates; the frame of generators s_i·e_i has the constants
c_ij^k·s_i·s_j/s_k.  A frame holds only those constants
(``chamber.COFRAME_NAMES[1:]`` names the generators) and gives the
bracket, the Killing form, and infinitesimal normalizers of subalgebras.

``Quaternion`` holds the one Hamilton table of the package
(``Quaternion.product``), over any ring and any product of parts: ``*``
multiplies int or FieldScalar parts, and ``bryant_salamon`` wedges chamber
forms with it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

from ..exterior import linalg
from ..exterior.scalars import ONE, ZERO, Q, FieldScalar

__all__ = ["Quaternion", "QuatMat2", "LieFrame", "build_lie_frame",
           "build_orthonormal_frame", "build_integer_frame",
           "ORTHONORMAL_SQUARED_SCALES", "killing_matrix", "normalizer",
           "is_subalgebra", "generator_coords", "SP1_PLUS", "SP1_MINUS"]

N_GENERATORS = 10
SP1_PLUS = (0, 1, 2)    # A1, A2, A3
SP1_MINUS = (3, 4, 5)   # A4, A5, A6


class Quaternion:
    """w + xi + yj + zk with parts from any ring, used as given: ints and
    FieldScalars here, the chamber forms of ``bryant_salamon``."""

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w=0, x=0, y=0, z=0):
        self.w, self.x, self.y, self.z = w, x, y, z

    def __add__(self, other):
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other):
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __neg__(self):
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def product(self, other: "Quaternion", times) -> "Quaternion":
        """The Hamilton product, its parts multiplied by ``times``: ``*``
        of the ring, or the wedge of quaternion-valued forms."""
        w1, x1, y1, z1 = self.w, self.x, self.y, self.z
        w2, x2, y2, z2 = other.w, other.x, other.y, other.z
        return Quaternion(
            times(w1, w2) - times(x1, x2) - times(y1, y2) - times(z1, z2),
            times(w1, x2) + times(x1, w2) + times(y1, z2) - times(z1, y2),
            times(w1, y2) - times(x1, z2) + times(y1, w2) + times(z1, x2),
            times(w1, z2) + times(x1, y2) - times(y1, x2) + times(z1, w2),
        )

    def __mul__(self, other):
        if not isinstance(other, Quaternion):
            return Quaternion(self.w * other, self.x * other,
                              self.y * other, self.z * other)
        return self.product(other, operator.mul)

    def __rmul__(self, s):
        return Quaternion(s * self.w, s * self.x, s * self.y, s * self.z)

    def conjugate(self):
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def __eq__(self, other):
        return (isinstance(other, Quaternion) and self.w == other.w
                and self.x == other.x and self.y == other.y
                and self.z == other.z)

    def __hash__(self):
        return hash((self.w, self.x, self.y, self.z))

    def __bool__(self):
        return bool(self.w or self.x or self.y or self.z)

    def __repr__(self):
        return f"Quaternion({self.w}, {self.x}, {self.y}, {self.z})"


_I = Quaternion(0, 1, 0, 0)
_J = Quaternion(0, 0, 1, 0)
_K = Quaternion(0, 0, 0, 1)
_ONE_Q = Quaternion(1, 0, 0, 0)
_ZERO_Q = Quaternion()


class QuatMat2:
    """A 2x2 quaternionic matrix ((a, b), (c, d))."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = a, b, c, d

    def __add__(self, other):
        return QuatMat2(self.a + other.a, self.b + other.b,
                        self.c + other.c, self.d + other.d)

    def __sub__(self, other):
        return QuatMat2(self.a - other.a, self.b - other.b,
                        self.c - other.c, self.d - other.d)

    def __matmul__(self, other):
        return QuatMat2(self.a * other.a + self.b * other.c,
                        self.a * other.b + self.b * other.d,
                        self.c * other.a + self.d * other.c,
                        self.c * other.b + self.d * other.d)

    def __rmul__(self, scalar):
        return QuatMat2(scalar * self.a, scalar * self.b,
                        scalar * self.c, scalar * self.d)

    def bracket(self, other):
        return self @ other - other @ self

    def __eq__(self, other):
        return (isinstance(other, QuatMat2) and self.a == other.a
                and self.b == other.b and self.c == other.c
                and self.d == other.d)

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))


# 1/sqrt(12) = sqrt3/6 and 1/sqrt(24) = sqrt6/12, exactly in the field
_CONNECTION_SCALES = (FieldScalar(1), FieldScalar("1/2"))
_ORTHONORMAL_SCALES = (FieldScalar(0, 0, Q(1, 6), 0),     # sqrt(3)/6 = 1/sqrt(12)
                       FieldScalar(0, 0, 0, Q(1, 12)))    # sqrt(6)/12 = 1/sqrt(24)
ORTHONORMAL_SQUARED_SCALES = (Q(1, 12),) * 6 + (Q(1, 24),) * 4  # per generator


def _basis_matrices() -> tuple[QuatMat2, ...]:
    """The unscaled int basis e_1..e_10: A1..A6 the imaginary units on the
    diagonal, X1..X4 the off-diagonal i, j, k and 1."""
    diag = lambda p, q: QuatMat2(p, _ZERO_Q, _ZERO_Q, q)
    off = lambda q: QuatMat2(_ZERO_Q, q, -q.conjugate(), _ZERO_Q)
    return (diag(_I, _ZERO_Q), diag(_J, _ZERO_Q), diag(_K, _ZERO_Q),
            diag(_ZERO_Q, _I), diag(_ZERO_Q, _J), diag(_ZERO_Q, _K),
            off(_I), off(_J), off(_K), off(_ONE_Q))


def _decompose(m: QuatMat2) -> tuple:
    """Coordinates of an anti-Hermitian matrix in ``_basis_matrices()``."""
    if m.a.w or m.d.w:
        raise ValueError("diagonal entries must be imaginary")
    return (m.a.x, m.a.y, m.a.z, m.d.x, m.d.y, m.d.z,
            m.b.x, m.b.y, m.b.z, m.b.w)


@dataclass(frozen=True)
class LieFrame:
    """The exact structure constants c[i][j][k] of ten generators, named by
    ``chamber.COFRAME_NAMES[1:]``; a frame holds nothing else."""

    structure: tuple[tuple[tuple[FieldScalar, ...], ...], ...]

    def bracket_coords(self, x: Sequence[FieldScalar],
                       y: Sequence[FieldScalar]) -> tuple[FieldScalar, ...]:
        out = [ZERO] * N_GENERATORS
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                cij = self.structure[i][j]
                f = xi * yj
                for k in range(N_GENERATORS):
                    if cij[k]:
                        out[k] = out[k] + f * cij[k]
        return tuple(out)

    @cached_property
    def maurer_cartan_table(self) -> tuple:
        """The constants of 5·d(e^k) that ``chamber.maurer_cartan_d`` reads,
        as numerators over one denominator, built once per frame object."""
        from .chamber import _maurer_cartan_table
        return _maurer_cartan_table(self)

    def with_structure(self, structure) -> "LieFrame":
        """A frame with replaced structure constants (fault injection)."""
        return LieFrame(structure=structure)


def _frame_from_scales(a_scale: FieldScalar, x_scale: FieldScalar) -> LieFrame:
    """The frame of generators s_i·e_i, s_i = a_scale for A1..A6 and
    x_scale for X1..X4.  The table [e_i, e_j] = Σ c_ij^k e_k is built once
    on the unscaled integer basis ``_basis_matrices()``; the exactness
    guard rebuilds each bracket from its nonzero int coordinates and raises
    ArithmeticError if it does not close; each nonzero constant is scaled
    once, by s_i·s_j/s_k, into a FieldScalar."""
    basis = _basis_matrices()
    scales = (a_scale,) * 6 + (x_scale,) * 4
    inverses = (a_scale.inverse(),) * 6 + (x_scale.inverse(),) * 4
    structure = [[[ZERO] * N_GENERATORS for _ in basis] for _ in basis]
    for i, mi in enumerate(basis):
        for j, mj in enumerate(basis):
            br = mi.bracket(mj)
            rebuilt = QuatMat2(_ZERO_Q, _ZERO_Q, _ZERO_Q, _ZERO_Q)
            for k, c in enumerate(_decompose(br)):
                if c:
                    rebuilt = rebuilt + c * basis[k]
                    structure[i][j][k] = scales[i] * scales[j] * inverses[k] * c
            if rebuilt != br:
                raise ArithmeticError("bracket does not close in the basis")
    return LieFrame(structure=tuple(tuple(map(tuple, p)) for p in structure))


@lru_cache(maxsize=1)
def build_lie_frame() -> LieFrame:
    """The connection-normalized frame (structure constants ±1, ±2, ±1/2)."""
    return _frame_from_scales(*_CONNECTION_SCALES)


@lru_cache(maxsize=1)
def build_orthonormal_frame() -> LieFrame:
    """The same basis rescaled to be Killing-orthonormal (Killing = -Id)."""
    return _frame_from_scales(*_ORTHONORMAL_SCALES)


def build_integer_frame() -> LieFrame:
    """The unscaled basis, built anew on each call: Killing matrix
    -diag(12 (6 times), 24 (4 times))."""
    return _frame_from_scales(ONE, ONE)


def killing_matrix(frame: LieFrame) -> list[list[FieldScalar]]:
    """B(e_i, e_j) = tr(ad_i ad_j) from the structure constants."""
    n = N_GENERATORS
    c = frame.structure
    out = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            total = ZERO
            for k in range(n):
                cjk = c[j][k]
                for l in range(n):
                    if cjk[l] and c[i][l][k]:
                        total = total + cjk[l] * c[i][l][k]
            out[i][j] = total
            out[j][i] = total
    return out


def is_subalgebra(frame: LieFrame,
                  basis: Sequence[Sequence[FieldScalar]]) -> bool:
    rows = [list(b) for b in basis]
    dim = linalg.rank(rows)
    return all(linalg.rank(rows + [list(frame.bracket_coords(x, y))]) == dim
               for x in basis for y in basis)


def normalizer(frame: LieFrame,
               basis: Sequence[Sequence[FieldScalar]]) -> list[list[FieldScalar]]:
    """Basis of n(h) = {x : [h, x] ⊆ h}, computed infinitesimally.

    Valid as the normalizer of the corresponding connected subgroup.
    Raises if the input does not span a subalgebra.
    """
    if basis and not is_subalgebra(frame, basis):
        raise ValueError("normalizer input must be a subalgebra")
    if not basis:
        return [generator_coords(i) for i in range(N_GENERATORS)]
    span, pivots = linalg.echelon([list(b) for b in basis])
    free = [c for c in range(N_GENERATORS) if c not in pivots]
    rows = []
    for h in span:
        # [h, e_i] mod span: one condition row per off-pivot coordinate
        images = [frame.bracket_coords(h, generator_coords(i))
                  for i in range(N_GENERATORS)]
        rows += [[img[c] - sum((img[p] * row[c] for row, p in zip(span, pivots)
                                if img[p] and row[c]), ZERO)
                  for img in images] for c in free]
    return linalg.nullspace(rows, ncols=N_GENERATORS)


def generator_coords(index: int) -> list[FieldScalar]:
    return [ONE if i == index else ZERO for i in range(N_GENERATORS)]
