"""Reference helpers that only the tests use, kept out of the package."""

from spin7lab.exterior.blades import DIM
from spin7lab.exterior.scalars import ZERO, FieldScalar


def trace(a):
    return sum((a.rows[i][i] for i in range(DIM)), ZERO)


def flatten(a):
    return [x for row in a.rows for x in row]


def is_skew(a):
    return all(a.rows[i][j] == -a.rows[j][i]
               for i in range(DIM) for j in range(i, DIM))


def conj_sqrt2(x):
    """The automorphism sqrt2 -> -sqrt2 (also flips sqrt6)."""
    a, b, c, d = x.quadruple()
    return FieldScalar(a, -b, c, -d)


def conj_sqrt3(x):
    """The automorphism sqrt3 -> -sqrt3 (also flips sqrt6)."""
    a, b, c, d = x.quadruple()
    return FieldScalar(a, b, -c, -d)


def is_anti_hermitian(m):
    """m + m* = 0 for a 2x2 quaternion matrix."""
    a, b, c, d = (m.a + m.a.conjugate(), m.b + m.c.conjugate(),
                  m.c + m.b.conjugate(), m.d + m.d.conjugate())
    return not (a or b or c or d)
