"""Exact linear algebra over Q.

Matrices are eliminated by sparse integer Gauss–Jordan with content
normalization, and an entry with a surd is refused.  Gauss–Jordan in the
field (``_oracles.field_rref``) and the kernel read off it
(``_oracles.field_nullspace``) are the references the integer path is
compared with; no reference calls the integer elimination.
"""

from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from spin7lab.exterior import linalg
from spin7lab.exterior.endo import Endo
from spin7lab.exterior.forms import FormOperator
from spin7lab.exterior.linalg import echelon, integer_nullspace, nullspace, rank
from spin7lab.exterior.scalars import (ONE, SQRT2, SQRT3, ZERO, FieldScalar,
                                       Q, to_numerators)

from _oracles import field_nullspace, field_rref, solve
from _strategies import small_ints


def fs_matrix(rows):
    return [[FieldScalar.of(x) for x in r] for r in rows]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [[sum((a[i][p] * b[p][j] for p in range(k)), ZERO)
             for j in range(m)] for i in range(n)]


def mat_vec(a, x):
    return [sum((row[j] * x[j] for j in range(len(x))), ZERO) for row in a]


square_matrices = st.lists(
    st.lists(small_ints, min_size=4, max_size=4),
    min_size=4, max_size=4).map(fs_matrix)


@given(square_matrices)
def test_rank_equals_transpose_rank(m):
    mt = [list(col) for col in zip(*m)]
    assert rank(m) == rank(mt)


@given(square_matrices)
def test_rank_nullity(m):
    assert rank(m) + len(nullspace(m, 4)) == 4


@given(square_matrices)
def test_nullspace_vectors_are_killed(m):
    for v in nullspace(m, 4):
        assert all(not c for c in mat_vec(m, v))


@given(square_matrices)
def test_rref_is_idempotent_and_canonical(m):
    red, pivots = echelon(m)
    assert len(red) == len(pivots) == rank(m)
    red2, pivots2 = echelon(red)
    assert red2 == red and pivots2 == pivots
    for row, c in zip(red, pivots):
        assert row[c] == ONE
    assert pivots == sorted(pivots)


def test_echelon_keeps_row_space():
    m = fs_matrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    ech, pivots = echelon(m)
    assert pivots == [0, 1]
    assert rank(ech) == rank(m) == 2


def test_irrational_pivots():
    # are refused, as elimination runs over Q, though [[1, sqrt2], [sqrt3, 1]]
    # is invertible over Q(sqrt2, sqrt3); an Endo or FormOperator with a
    # surd is refused when it is built
    m = [[ONE, SQRT2], [SQRT3, ONE]]
    for eliminate in (echelon, rank, lambda m: nullspace(m, 2),
                      lambda m: SQRT2 * Endo.unit(1, 2),
                      lambda m: FormOperator(1, [{1: m[0][1]}, {1: m[1][1]}])):
        with pytest.raises(ValueError, match="surd"):
            eliminate(m)


def test_solve_unique_system():
    m = fs_matrix([[2, 1], [1, -1]])
    rhs = [FieldScalar(4), FieldScalar(-1)]
    x = solve(m, rhs)
    assert mat_vec(m, x) == rhs
    assert x == [FieldScalar(1), FieldScalar(2)]


def test_solve_rejects_inconsistent_and_underdetermined():
    with pytest.raises(ValueError):
        solve(fs_matrix([[1, 1], [1, 1]]),
              [FieldScalar(0), FieldScalar(1)])
    with pytest.raises(ValueError):
        solve(fs_matrix([[1, 1]]), [FieldScalar(1)])
    with pytest.raises(ValueError):
        solve([], [])


def test_nullspace_of_empty_matrix_needs_width():
    assert nullspace([], 3) == [[ONE, ZERO, ZERO], [ZERO, ONE, ZERO],
                                [ZERO, ZERO, ONE]]


def test_rank_of_rank_one_product():
    col = fs_matrix([[1], [2], [3], [4]])
    row = fs_matrix([[5, 6, 7, 8]])
    assert rank(mat_mul(col, row)) == 1


def test_nullspace_is_canonical_per_free_column():
    # x + 2y + 3z = 0: free columns y, z give the two canonical generators
    basis = nullspace(fs_matrix([[1, 2, 3]]), 3)
    assert basis == [[FieldScalar(-2), ONE, ZERO],
                     [FieldScalar(-3), ZERO, ONE]]


def test_sparse_rows_take_their_width_from_their_largest_column():
    # a sparse row is as wide as its largest column, not its entry count
    sparse = [{0: 1, 5: 2}, {3: 1}]
    dense = [[1, 0, 0, 0, 0, 2], [0, 0, 0, 1, 0, 0]]
    assert echelon(sparse) == echelon(dense) == (dense, [0, 3])
    assert nullspace(sparse, 6) == nullspace(dense, 6)


def test_a_column_beyond_the_width_is_refused():
    for rows in ([{0: 1, 5: 2}], [[1, 0, 0, 2]], [{0: 1}, {3: 1}]):
        with pytest.raises(ValueError, match="beyond the 3 columns"):
            nullspace(rows, 3)


# -- the integer path against the field code -----------------------------------

_entries = st.one_of(st.just(0), st.just(0), small_ints,
                     st.fractions(min_value=-9, max_value=9, max_denominator=6))


@st.composite
def rational_matrices(draw):
    """Non-square rational matrices, often with zero and repeated rows."""
    ncols = draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(_entries, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=7))
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))),
                    list(draw(st.sampled_from(rows))))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * ncols)
    return [[FieldScalar(Q(x)) for x in row] for row in rows]


def _field_reference(m):
    """echelon, rank and nullspace of m computed by the field code alone."""
    reduced = field_rref(m)
    return reduced, len(reduced[1]), field_nullspace(m, len(m[0]))


@settings(max_examples=100)
@given(rational_matrices())
def test_sparse_rows_eliminate_as_the_dense_rows(m):
    # with a nonzero entry in the last column, the sparse rows are as wide
    width = len(m[0])
    m = m + [[ZERO] * (width - 1) + [ONE]]
    sparse = [{j: x for j, x in enumerate(row) if x} for row in m]
    assert echelon(sparse) == echelon(m)
    assert rank(sparse) == rank(m)
    assert nullspace(sparse, width) == nullspace(m, width)


@settings(max_examples=150)
@given(rational_matrices())
def test_integer_path_matches_field_code(m):
    assert echelon(m) == field_rref(m)
    assert (echelon(m), rank(m), nullspace(m, len(m[0]))) == \
        _field_reference(m)


@settings(max_examples=150)
@given(rational_matrices())
def test_integer_nullspace_is_the_nullspace_made_primitive(m):
    ncols = len(m[0])
    vectors = integer_nullspace(to_numerators(m)[1], ncols)
    canonical = field_nullspace(m, ncols)
    assert len(vectors) == len(canonical)
    for vec, expected in zip(vectors, canonical):
        free = max(vec)
        assert vec[free] > 0 and gcd(*vec.values()) == 1
        assert all(type(x) is int and x for x in vec.values())
        assert [FieldScalar.from_ratio(vec.get(j, 0), vec[free])
                for j in range(ncols)] == expected


_int_matrices = st.integers(1, 7).flatmap(lambda n: st.lists(
    st.lists(st.integers(-3, 3), min_size=n, max_size=n),
    min_size=1, max_size=7))


@settings(max_examples=150)
@given(_int_matrices, st.lists(st.integers(-6, 6).filter(bool), min_size=18,
                               max_size=18), st.booleans(), st.integers(0, 7))
def test_integer_nullspace_ignores_the_content_of_its_rows(m, factors, twos,
                                                          single):
    # rows times arbitrary nonzero ints, each row twice, a row of 2s and a
    # one-entry row
    ncols = len(m[0])
    if twos:
        m = m + [[2] * ncols]
    if single < ncols:
        m = m + [[3 if j == single else 0 for j in range(ncols)]]
    rows = [{j: x for j, x in enumerate(row) if x} for row in m]
    primitive = [{j: x // gcd(*row.values()) for j, x in row.items()}
                 for row in rows if row]
    scaled = [{j: f * x for j, x in row.items()}
              for f, row in zip(factors, rows + rows)]
    vectors = integer_nullspace(scaled, ncols)
    assert vectors == integer_nullspace(primitive, ncols)
    basis = linalg._integer_rref(scaled)
    assert all(gcd(*row.values()) == 1 for row in basis.values())
    assert [[FieldScalar.from_ratio(vec.get(j, 0), vec[max(vec)])
             for j in range(ncols)] for vec in vectors] == \
        field_nullspace(fs_matrix(m), ncols)


@settings(max_examples=100)
@given(st.lists(_int_matrices, min_size=1, max_size=4), st.data())
def test_integer_nullspace_eliminates_column_disjoint_groups_apart(blocks,
                                                                   data):
    # a block-diagonal matrix whose blocks sit on interleaved, disjoint
    # column sets, as the weight blocks of ρ(A)² in the classifier do
    ncols = sum(len(block[0]) for block in blocks)
    columns = data.draw(st.permutations(range(ncols)))
    whole, start = [], 0
    for block in blocks:
        width = len(block[0])
        cols = columns[start:start + width]
        start += width
        whole += [{cols[k]: x for k, x in enumerate(row) if x}
                  for row in block]
    vectors = integer_nullspace(whole, ncols)
    dense = [[row.get(j, 0) for j in range(ncols)] for row in whole]
    assert [[FieldScalar.from_ratio(vec.get(j, 0), vec[max(vec)])
             for j in range(ncols)] for vec in vectors] == \
        field_nullspace(fs_matrix(dense), ncols)


def _count_inverses(monkeypatch) -> list[int]:
    calls = [0]
    original = FieldScalar.inverse

    def counted(self):
        calls[0] += 1
        return original(self)

    monkeypatch.setattr(FieldScalar, "inverse", counted)
    return calls


def test_rational_elimination_never_inverts(monkeypatch):
    calls = _count_inverses(monkeypatch)
    m = fs_matrix([[Q(1, 2), Q(-3, 4), 5], [2, Q(7, 3), 0], [Q(5, 6), 1, Q(1, 9)]])
    assert len(nullspace(m + [m[0]], 3)) == 0
    # the inverse from the RREF of [m | I]
    identity = fs_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    red, pivots = echelon([row + unit for row, unit in zip(m, identity)])
    assert pivots == [0, 1, 2]
    inv = [row[3:] for row in red]
    assert mat_mul(m, inv) == identity
    assert solve(m, [ONE, ZERO, ONE]) == mat_vec(inv, [ONE, ZERO, ONE])
    assert calls == [0]


def test_surd_matrix_with_integer_rows_takes_the_field_path(monkeypatch):
    # The surd row is √2 times the first row plus (0, 0, 1).  linalg refuses
    # the matrix before any inversion; only the field reference reduces it,
    # with one inversion per pivot.
    calls = _count_inverses(monkeypatch)
    one, two = FieldScalar(1), FieldScalar(2)
    m = [[one, two, FieldScalar(3)],
         [SQRT2, two * SQRT2, FieldScalar(3) * SQRT2 + one],
         [two, FieldScalar(4), FieldScalar(7)]]
    for eliminate in (echelon, rank, lambda m: nullspace(m, 3)):
        with pytest.raises(ValueError, match="surd"):
            eliminate(m)
    assert calls == [0]
    red, pivots = field_rref(m)
    assert calls == [len(pivots)]  # one inversion per pivot
    assert pivots == [0, 2]
    assert red == [[ONE, two, ZERO], [ZERO, ZERO, ONE]]
    assert _field_reference(m)[1:] == (2, [[FieldScalar(-2), ONE, ZERO]])
