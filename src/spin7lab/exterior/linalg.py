"""Exact dense linear algebra over Q(sqrt2, sqrt3).

Matrices are lists of rows of FieldScalar.  Every elimination goes through
``echelon``, which returns the reduced row-echelon form (RREF, also an
echelon form) and picks its arithmetic from the entries:

* When every entry is rational, the rows are taken in the numerator view
  of ``scalars.to_numerators``, as sparse {column: int} dicts over one
  denominator.  They are reduced one at a time into a Gauss–Jordan basis:
  a row is cleared in a column by cross-multiplying, p/g times it minus
  f/g times the basis row with pivot p, where f is its own entry and
  g = gcd(p, f), and every result is divided by its content (the gcd of
  its entries).  Each division is therefore exact, and no field inversion
  happens.  Only the final RREF goes back to FieldScalar, one reduced
  fraction per nonzero entry.
* A matrix with a surd entry is reduced by Gauss–Jordan in the field, with
  one inversion per pivot.

``integer_nullspace`` takes a matrix that is already sparse integer rows
(the rows of ρ(A)² in the classifier) straight to the integer Gauss–Jordan
and returns primitive integer kernel vectors, with no dense matrix and no
FieldScalar at all.  The columns of one-entry rows are dropped first, and
since clearing makes a row primitive, only a row that enters the basis
uncleared is divided by its content.

The RREF of a matrix is unique, so both paths give the same canonical
bases, and the same matrix always yields the same result.
"""

from __future__ import annotations

from math import gcd, lcm

from .scalars import ONE, ZERO, FieldScalar, from_numerators, to_numerators

__all__ = ["echelon", "rref", "rank", "nullspace", "integer_nullspace",
           "invert"]

Matrix = list[list[FieldScalar]]
SparseRow = dict[int, int]


def echelon(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row-echelon form and pivot columns.

    The result has as many rows as the input: the nonzero rows of the RREF
    in pivot order, then zero rows.  This and ``classify.jordan_type_of``
    are the two places that branch on the numerator view, because each
    runs a different algorithm on ints (``_integer_rref``) than in the
    field (``_field_rref``).
    """
    if not rows:
        return [], []
    ncols = len(rows[0])
    _den, sparse = to_numerators(rows)
    if not _on_ints(sparse):
        return _field_rref(rows, ncols)
    basis = _integer_rref(sparse)
    pivots = sorted(basis)
    reduced = []
    for c in pivots:
        row = from_numerators(basis[c], basis[c][c])
        reduced.append([row.get(j, ZERO) for j in range(ncols)])
    reduced.extend([ZERO] * ncols for _ in range(len(rows) - len(pivots)))
    return reduced, pivots


def _on_ints(sparse: list[SparseRow]) -> bool:
    """Whether a numerator view holds ints, not its surd fallback."""
    return all(type(x) is int for row in sparse for x in row.values())


def _primitive(row: SparseRow) -> SparseRow:
    """The row divided by its content, the gcd of its entries."""
    g = gcd(*row.values())
    return {j: v // g for j, v in row.items()} if g > 1 else row


def _cleared(row: SparseRow, basis_row: SparseRow, c: int) -> SparseRow:
    """(p/g)·row − (f/g)·basis_row, made primitive, with p = basis_row[c],
    f = row[c] and g = gcd(p, f): zero in column c."""
    p, f = basis_row[c], row[c]
    g = gcd(p, f)
    p, f = p // g, f // g
    out = {j: p * v for j, v in row.items()} if p != 1 else dict(row)
    for j, v in basis_row.items():
        x = out.get(j, 0) - f * v
        if x:
            out[j] = x
        else:
            del out[j]
    return _primitive(out)


def _integer_rref(rows: list[SparseRow]) -> dict[int, SparseRow]:
    """Gauss–Jordan basis of the row space: pivot column -> primitive row
    whose first nonzero entry is in that column and which is zero in every
    other pivot column.  ``_cleared`` returns primitive rows, so only an
    input row that enters uncleared is divided by its content."""
    basis: dict[int, SparseRow] = {}
    for row in rows:
        # clearing a pivot column brings in only non-pivot columns
        pivots = [c for c in row if c in basis]
        for c in pivots:
            row = _cleared(row, basis[c], c)
        if not row:
            continue
        if not pivots:
            row = _primitive(row)
        c = min(row)
        for b, basis_row in basis.items():
            if c in basis_row:
                basis[b] = _cleared(basis_row, row, c)
        basis[c] = row
    return basis


def _field_rref(rows: Matrix, ncols: int) -> tuple[Matrix, list[int]]:
    """Gauss–Jordan in the field: one inversion per pivot, zero rows last."""
    m = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = m[r][c].inverse()
        pivot_row = m[r] = [x * inv for x in m[r]]
        for i, row in enumerate(m):
            f = row[c]
            if f and i != r:
                m[i] = [a - f * b for a, b in zip(row, pivot_row)]
        pivots.append(c)
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
    return m[: len(pivots)], pivots


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


def integer_nullspace(rows: list[SparseRow], ncols: int) -> list[SparseRow]:
    """Per free column f, in order, the vector of ``nullspace`` for f made
    a primitive int vector, positive in f, for a matrix given as sparse
    integer rows, primitive or not.  A one-entry row's column is zero in
    every kernel vector, so that row is dropped and its column leaves the
    other rows before the elimination; a row without such a column goes in
    as it is.  The other entries sit in pivot columns left of f; a free
    column that no basis row holds gives {f: 1}."""
    fixed = {c for row in rows if len(row) == 1 for c in row}
    rows = [row if fixed.isdisjoint(row)
            else {j: x for j, x in row.items() if j not in fixed}
            for row in rows if len(row) > 1]
    basis = _integer_rref([row for row in rows if row])
    fixed.update(basis)  # a basis row is zero in the other pivot columns
    entries: dict[int, list] = {f: [] for f in range(ncols) if f not in fixed}
    for c, row in basis.items():
        for f, x in row.items():
            if f != c:
                entries[f].append((c, x, row[c]))
    out = []
    for f, column in entries.items():
        if not column:
            out.append({f: 1})
            continue
        scale = lcm(*(p for _, _, p in column))
        out.append(_primitive({f: scale, **{c: -x * (scale // p)
                                            for c, x, p in column}}))
    return out


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
