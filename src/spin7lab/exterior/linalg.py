"""Exact dense linear algebra over Q(sqrt2, sqrt3).

Matrices are lists of rows of FieldScalar.  Forward elimination
cross-multiplies each row below the pivot and divides by the previous
pivot, as Bareiss does, but it skips rows whose entry in the pivot column
is already zero.  That breaks Bareiss's exact-division invariant, so the
division happens in the field and intermediate entries need not stay
integral or small; the results are exact all the same.  The final reduced
form is normalized with field division.  Everything is deterministic: the
same matrix always yields the same echelon basis.
"""

from __future__ import annotations

from .scalars import ONE, ZERO, FieldScalar

__all__ = ["echelon", "rref", "rank", "nullspace", "solve", "invert"]

Matrix = list[list[FieldScalar]]


def _copy(rows: Matrix) -> Matrix:
    return [list(r) for r in rows]


def echelon(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Row-echelon form and pivot columns (Bareiss-style forward pass)."""
    m = _copy(rows)
    if not m:
        return m, []
    ncols = len(m[0])
    pivots: list[int] = []
    prev = ONE
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
        piv = m[r][c]
        for i in range(r + 1, len(m)):
            f = m[i][c]
            if not f:
                continue
            row_i, row_r = m[i], m[r]
            m[i] = [(piv * row_i[j] - f * row_r[j]) / prev
                    for j in range(ncols)]
            m[i][c] = ZERO
        pivots.append(c)
        prev = piv
        r += 1
        if r == len(m):
            break
    return m, pivots


def rref(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row-echelon form (unit pivots, zeros above) and pivot columns.

    Only the nonzero rows are returned; the RREF is the canonical
    representative of the row space, so downstream bases are deterministic.
    """
    m, pivots = echelon(rows)
    m = m[: len(pivots)]
    for k in reversed(range(len(pivots))):
        c = pivots[k]
        inv = m[k][c].inverse()
        m[k] = [x * inv for x in m[k]]
        for i in range(k):
            f = m[i][c]
            if f:
                row_i, row_k = m[i], m[k]
                m[i] = [a - f * b for a, b in zip(row_i, row_k)]
    return m, pivots


def rank(rows: Matrix) -> int:
    return len(echelon(rows)[1])


def nullspace(rows: Matrix, ncols: int | None = None) -> list[list[FieldScalar]]:
    """Canonical kernel basis: one vector per free column, unit in that slot."""
    if rows:
        ncols = len(rows[0])
    elif ncols is None:
        raise ValueError("nullspace of an empty matrix needs an explicit width")
    r, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [ZERO] * ncols
        v[f] = ONE
        for row, c in zip(r, pivots):
            if row[f]:
                v[c] = -row[f]
        basis.append(v)
    return basis


def solve(rows: Matrix, rhs: list[FieldScalar]) -> list[FieldScalar]:
    """The unique solution of A x = b; raises if none exists or it is not unique."""
    if not rows:
        raise ValueError("linear system has no unique solution")
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    if ncols in pivots:
        raise ValueError("linear system is inconsistent")
    if len(pivots) != ncols:
        raise ValueError("linear system has no unique solution")
    x = [ZERO] * ncols
    for row, c in zip(red, pivots):
        x[c] = row[ncols]
    return x


def invert(rows: Matrix) -> Matrix:
    """Exact inverse of a square matrix; raises on singular input."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    aug = [list(r) + [ONE if i == j else ZERO for j in range(n)]
           for i, r in enumerate(rows)]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)) or len(pivots) != n:
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]
