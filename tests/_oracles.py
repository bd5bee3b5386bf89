"""Reference helpers that only the tests use, kept out of the package."""

from spin7lab.exterior.blades import DIM
from spin7lab.exterior.endo import Endo
from spin7lab.exterior.forms import Covector, wedge
from spin7lab.exterior.scalars import ZERO, FieldScalar
from spin7lab.sampling import random_unimodular


def trace(a):
    return sum((a.rows[i][i] for i in range(DIM)), ZERO)


def flatten(a):
    return [x for row in a.rows for x in row]


def is_skew(a):
    return all(a.rows[i][j] == -a.rows[j][i]
               for i in range(DIM) for j in range(i, DIM))


def apply(a, alpha):
    """The image of a covector under an Endo."""
    return Covector(tuple(
        sum((row[j] * alpha.components[j] for j in range(DIM)), ZERO)
        for row in a.rows))


def diagonal(*entries):
    if len(entries) != DIM:
        raise ValueError(f"need {DIM} diagonal entries")
    return Endo([[entries[i] if i == j else 0 for j in range(DIM)]
                 for i in range(DIM)])


def is_rational(a):
    return all(x.is_rational() for row in a.rows for x in row)


def is_nilpotent(a):
    p = a
    for _ in range(3):  # A^8 via three squarings
        if not p:
            return True
        p = p @ p
    return not p


def commutator(a, b):
    return a @ b - b @ a


def random_nilpotent(rng, max_rank=3):
    """A nilpotent matrix of rank <= max_rank, conjugated off Jordan form."""
    starts = []
    pos = 1
    rank = 0
    while pos <= DIM and rank < max_rank:
        size = rng.randint(1, min(DIM - pos + 1, max_rank - rank + 1))
        if size >= 2:
            starts.append((pos, size))
            rank += size - 1
        pos += size
    n = Endo.zero()
    for start, size in starts:
        for k in range(size - 1):
            n = n + Endo.unit(start + k + 1, start + k)
    g, g_inv = random_unimodular(rng)
    return g @ n @ g_inv


def blade_pullback(a, images):
    """Λ^k of the map sending generator i to images[i], with every blade's
    wedge of images built from scratch and summed into a running total."""
    if a.degree == 0:
        return a
    out = type(a).zero(a.degree)
    for m, coeff in a.mask_items():
        low = m & -m
        piece = images[low.bit_length() - 1]
        t = m ^ low
        while t and piece:
            low = t & -t
            t ^= low
            piece = wedge(piece, images[low.bit_length() - 1])
        out = out + piece * coeff
    return out


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
