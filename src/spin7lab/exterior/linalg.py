"""Exact linear algebra over Q.

Matrices are lists of rows of rational FieldScalars, dense or as sparse
{column: entry} dicts.  Every elimination is one sparse integer
Gauss–Jordan (``_integer_rref``) on the numerator view of the rows
(``scalars.to_numerators``: sparse {column: int} dicts over one
denominator, which leaves the row space as it is; ValueError on a surd
entry).  The rows are reduced one at a time into a Gauss–Jordan basis: a
row is cleared in a column by cross-multiplying, p/g times it minus f/g
times the basis row with pivot p, where f is its own entry and
g = gcd(p, f), and every result is divided by its content (the gcd of
its entries).  Each division is therefore exact, and no field inversion
happens.  ``rank`` counts the pivots of that basis; only ``echelon``,
which ``liealg.normalizer`` uses, takes it back to FieldScalar, one
reduced fraction per nonzero entry of the RREF.  No matrix is inverted.

``integer_nullspace`` builds every kernel basis: it takes sparse integer
rows (the rows of ρ(A)² in the classifier) straight to the integer
Gauss–Jordan and returns primitive integer kernel vectors, with no dense
matrix and no FieldScalar at all.  The columns of one-entry rows are
dropped first, and since clearing makes a row primitive, only a row that
enters the basis uncleared is divided by its content.
``unit_in_free_column`` divides such a vector by its entry in its free
column, for ``nullspace`` and ``forms.FormOperator.kernel``.

The RREF of a matrix is unique, so the same matrix always yields the same
canonical bases.
"""

from __future__ import annotations

from math import gcd, lcm

from .scalars import ZERO, FieldScalar, from_numerators, to_numerators

__all__ = ["echelon", "rank", "nullspace", "integer_nullspace",
           "unit_in_free_column"]

Matrix = list[list[FieldScalar]]
SparseRow = dict[int, int]


def echelon(rows: Matrix) -> tuple[Matrix, list[int]]:
    """The nonzero rows of the reduced row-echelon form (unit pivots, zeros
    above and below) in pivot order, and the pivot columns.  The RREF is
    canonical, so bases built from it are deterministic.  Raises ValueError
    on a surd entry."""
    if not rows:
        return [], []
    ncols = len(rows[0])
    basis = _integer_rref(to_numerators(rows)[1])
    pivots = sorted(basis)
    reduced = []
    for c in pivots:
        row = from_numerators(basis[c], basis[c][c])
        reduced.append([row.get(j, ZERO) for j in range(ncols)])
    return reduced, pivots


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


def rank(rows: Matrix) -> int:
    return len(_integer_rref(to_numerators(rows)[1]))


def nullspace(rows: Matrix, ncols: int) -> list[list[FieldScalar]]:
    """Canonical kernel basis of a matrix with ``ncols`` columns, dense or
    sparse rows: one vector per free column, unit in that slot, each vector
    of ``integer_nullspace`` over its entry in that column (its largest
    key)."""
    return [[vec.get(j, ZERO) for j in range(ncols)] for vec in
            map(unit_in_free_column,
                integer_nullspace(to_numerators(rows)[1], ncols))]


def unit_in_free_column(vec: SparseRow) -> dict[int, FieldScalar]:
    """An ``integer_nullspace`` vector divided by its entry in its free
    column (its largest key), as sparse FieldScalars."""
    return from_numerators(vec, vec[max(vec)])


def integer_nullspace(rows: list[SparseRow], ncols: int) -> list[SparseRow]:
    """Per free column f, in order, the primitive int kernel vector that is
    positive in f and zero in every other free column, for a matrix given
    as sparse integer rows, primitive or not.  A one-entry row's column is
    zero in every kernel vector, so that row is dropped and its column
    leaves the other rows before the elimination; a row without such a
    column goes in as it is.  The other entries sit in pivot columns left
    of f; a free column that no basis row holds gives {f: 1}."""
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

