"""Exact linear algebra: echelon forms, kernels, the coordinate solver and
characteristic polynomials."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from confsalg.scalars import Scalar, ZERO, ONE, ALPHA, IMAG
from confsalg.linalg import (kernel, coordinates, charpoly, row_space,
                             tpoly_str, Subspace, el_add_into)


def S(n):
    return Scalar.from_int(n)


def M(rows):
    return [[S(x) for x in row] for row in rows]


def sparse(rows):
    """The sparse elements {column: value} of dense rows."""
    return [{c: S(x) if isinstance(x, int) else x
             for c, x in enumerate(row) if x} for row in rows]


def dot(x: dict, y: dict):
    return sum((c * y[k] for k, c in x.items() if k in y), ZERO)


def combination(basis, y: dict) -> dict:
    """The sum of y[k] * basis[k]."""
    out = {}
    for k, c in y.items():
        el_add_into(out, basis[k], c)
    return out


def test_row_space_reduces_to_identity():
    sub = row_space([{0: S(2)}, {1: S(3)}], 2)
    assert sub.pivots == [0, 1]
    assert sub.rows == [{0: ONE}, {1: ONE}]


def test_rank_and_kernel():
    A = sparse([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert row_space(A, 3).dim == 2
    ker = kernel(A, 3)
    assert ker == [{0: S(-1), 1: S(-1), 2: ONE}]
    for row in A:
        assert dot(row, ker[0]) == ZERO


def test_coordinates_small_cases():
    # (3, 1) = 2 (1, 1) + (1, -1)
    coords = coordinates(sparse([[1, 1], [1, -1]]), 2)
    assert coords({0: S(3), 1: S(1)}) == {0: S(2), 1: ONE}
    # in a larger space: (2, 3, 5) = 2 (1, 0, 1) + 3 (0, 1, 1)
    coords = coordinates(sparse([[1, 0, 1], [0, 1, 1]]), 3)
    assert coords({0: S(2), 1: S(3), 2: S(5)}) == {0: S(2), 1: S(3)}
    # the solver rejects a dependent basis, a zero vector included
    for basis in ([[1, 2], [1, 2]], [[1, 0], [0, 1], [2, 3]], [[0, 0]]):
        with pytest.raises(ValueError):
            coordinates(sparse(basis), 2)
    # and gives None outside the span: (0, 1, 0) is not in it
    assert coords({1: ONE}) is None
    empty = coordinates([], 2)
    assert empty({}) == {} and empty({0: ONE}) is None


def test_charpoly_companion():
    # companion matrix of t^3 - 2t - 5
    A = sparse([[0, 0, 5], [1, 0, 2], [0, 1, 0]])
    cp = charpoly(A)
    assert tpoly_str(cp) == "t^3-2*t-5"


def test_charpoly_of_empty_matrix():
    assert tpoly_str(charpoly([])) == "1"


def tpoly_mul(x, y):
    """The product of two polynomials in t, low-first coefficient lists, as
    `charpoly` returns them; the tests build expected polynomials with it."""
    out = [ZERO] * (len(x) + len(y) - 1)
    for j, cx in enumerate(x):
        if not cx:
            continue
        for k, cy in enumerate(y):
            if cy:
                out[j + k] = out[j + k] + cx * cy
    return out


def test_tpoly_mul():
    # (t - 1)(t + 1) = t^2 - 1
    p = tpoly_mul([-ONE, ONE], [ONE, ONE])
    assert p == [-ONE, ZERO, ONE]


def test_charpoly_symbolic():
    A = sparse([[ALPHA, ONE], [ONE, ALPHA]])
    cp = charpoly(A)
    # (t - a - 1)(t - a + 1)
    want = tpoly_mul([-ALPHA - ONE, ONE], [-ALPHA + ONE, ONE])
    assert cp == want


def test_subspace_dedup_and_contains():
    sub = Subspace(3)
    assert sub.add({0: S(1), 1: S(2)})
    assert not sub.add({0: S(2), 1: S(4)})
    assert sub.add({2: S(1)})
    assert sub.dim == 2
    assert sub.contains({0: S(3), 1: S(6), 2: S(5)})
    assert not sub.contains({1: S(1)})


rows3 = st.lists(
    st.lists(st.integers(min_value=-4, max_value=4), min_size=3,
             max_size=3),
    min_size=3, max_size=3)


@given(rows3)
@settings(max_examples=60, deadline=None)
def test_rank_plus_nullity(rows):
    A = sparse(rows)
    assert row_space(A, 3).dim + len(kernel(A, 3)) == 3


square_entries = st.one_of(st.integers(min_value=-3, max_value=3).map(S),
                           st.sampled_from([ALPHA, IMAG]))


@st.composite
def square_matrices(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    return draw(st.lists(st.lists(square_entries, min_size=n, max_size=n),
                         min_size=n, max_size=n))


@given(square_matrices())
@settings(max_examples=40, deadline=None)
def test_cayley_hamilton(A):
    """p(A) = 0 for the characteristic polynomial p of A, with entries
    in Q(i)(a); A^k is formed here, not by the code under test."""
    n = len(A)
    cp = charpoly(sparse(A))
    assert len(cp) == n + 1 and cp[n] == ONE
    acc = [[ZERO] * n for _ in range(n)]
    power = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    for c in cp:
        for i in range(n):
            for j in range(n):
                acc[i][j] = acc[i][j] + c * power[i][j]
        power = [[sum((A[i][k] * power[k][j] for k in range(n)), ZERO)
                  for j in range(n)] for i in range(n)]
    assert all(x == ZERO for row in acc for x in row)


entries = st.integers(min_value=-3, max_value=3)


@st.composite
def matrices(draw, nrows=None, ncols=None):
    nrows = nrows or draw(st.integers(min_value=1, max_value=4))
    ncols = ncols or draw(st.integers(min_value=1, max_value=4))
    return M(draw(st.lists(st.lists(entries, min_size=ncols,
                                    max_size=ncols),
                           min_size=nrows, max_size=nrows)))


def columns(A) -> list:
    """The columns of a dense matrix as sparse elements."""
    return sparse(zip(*A))


@given(matrices())
@settings(max_examples=80, deadline=None)
def test_coordinates_dependence_check(A):
    """The columns of A are dependent exactly when the matrix has a kernel;
    when they are independent, each column has coordinates e_k."""
    basis, nrows, ncols = columns(A), len(A), len(A[0])
    dependent = row_space(basis, nrows).dim < ncols
    assert dependent == bool(kernel(sparse(A), ncols))
    if not dependent:
        coords = coordinates(basis, nrows)
        assert [coords(b) for b in basis] == [{k: ONE} for k in range(ncols)]


@given(matrices(), st.data())
@settings(max_examples=120, deadline=None)
def test_coordinates_checks_itself(A, data):
    """coordinates raises ValueError exactly on a dependent basis; over an
    independent one its map gives None exactly for an x outside the span,
    and the coefficients of x otherwise.  x is drawn either as a
    combination of the basis or as any vector."""
    basis, nrows = columns(A), len(A)
    span = row_space(basis, nrows)
    if span.dim < len(basis):
        with pytest.raises(ValueError):
            coordinates(basis, nrows)
        return
    coords = coordinates(basis, nrows)
    if data.draw(st.booleans()):
        x = combination(basis, sparse([data.draw(st.lists(
            entries, min_size=len(basis), max_size=len(basis)))])[0])
    else:
        x = sparse([data.draw(st.lists(entries, min_size=nrows,
                                       max_size=nrows))])[0]
    y = coords(x)
    if span.contains(x):
        assert y is not None and combination(basis, y) == x
    else:
        assert y is None


@given(st.one_of(matrices(3, 3), matrices()), st.data())
@settings(max_examples=80, deadline=None)
def test_coordinates_solves(A, data):
    """The coordinates of x = sum y_k b_k over independent b_k are y, and
    in a full basis every x is their combination."""
    basis, nrows = columns(A), len(A)
    if row_space(basis, nrows).dim < len(basis):
        return
    coords = coordinates(basis, nrows)
    y = sparse([data.draw(st.lists(entries, min_size=len(basis),
                                   max_size=len(basis)))])[0]
    x = combination(basis, y)
    assert coords(x) == y
    assert combination(basis, coords(x)) == x
    if len(basis) == nrows:
        # square and invertible: every x is in the span
        x = sparse([data.draw(st.lists(entries, min_size=nrows,
                                       max_size=nrows))])[0]
        assert combination(basis, coords(x)) == x


scalar_entries = st.sampled_from([ZERO, ZERO, ONE, S(-2), ALPHA, ONE + ALPHA,
                                  Scalar.from_fraction(Fraction(1, 3))])


@st.composite
def rows_in_two_orders(draw):
    """Up to 5 rows of width up to 4, integer or symbolic, and a
    permutation of them."""
    ncols = draw(st.integers(min_value=1, max_value=4))
    cell = draw(st.sampled_from([entries.map(S), scalar_entries]))
    rows = draw(st.lists(st.lists(cell, min_size=ncols, max_size=ncols),
                         max_size=5))
    return ncols, rows, draw(st.permutations(rows))


@given(rows_in_two_orders())
@settings(max_examples=100, deadline=None)
def test_subspace_basis_is_independent_of_insertion_order(case):
    """The reduced echelon basis depends only on the span, which is what
    lets kernel and coordinates read it off any Subspace.  Rows are
    sparse: no stored zero, least key at the pivot, and a reduced vector
    keeps no pivot key."""
    ncols, rows, shuffled = case
    rows, shuffled = sparse(rows), sparse(shuffled)
    a, b = row_space(rows, ncols), row_space(shuffled, ncols)
    assert a.pivots == b.pivots == sorted(a.pivots)
    assert a.rows == b.rows
    for row, pc in zip(a.rows, a.pivots):
        assert [row.get(p, ZERO) for p in a.pivots] == [
            ONE if p == pc else ZERO for p in a.pivots]
        assert all(row.values())
        assert min(row) == pc
    assert all(a.contains(row) for row in rows)
    for c in range(ncols):
        assert not set(a.reduce({c: ONE})) & set(a.pivots)


@st.composite
def stacked_pairs(draw):
    """Matrices B and C of one width up to 5, each with 1 to 4 rows,
    integer or symbolic."""
    ncols = draw(st.integers(min_value=1, max_value=5))
    cell = draw(st.sampled_from([entries.map(S), scalar_entries]))
    row = st.lists(cell, min_size=ncols, max_size=ncols)
    return (draw(st.lists(row, min_size=1, max_size=4)),
            draw(st.lists(row, min_size=1, max_size=4)))


@given(stacked_pairs())
@settings(max_examples=150, deadline=None)
def test_stacked_kernel_equals_kernel_in_kernel_coordinates(case):
    """kernel(B + C) is the round trip through K = kernel(B): solve C in
    K's coordinates and map back.  Both are reduced echelon bases of the
    same subspace, so they agree vector for vector, in order."""
    B, C = case
    ncols = len(B[0])
    B, C = sparse(B), sparse(C)
    K = kernel(B, ncols)
    CK = [{i: x for i, k in enumerate(K) if (x := dot(row, k))} for row in C]
    round_trip = [combination(K, v) for v in kernel(CK, len(K))]
    assert kernel(B + C, ncols) == round_trip


@st.composite
def sparse_rows(draw):
    """Up to 5 sparse rows of width up to 5, integer or symbolic, zero rows
    included."""
    ncols = draw(st.integers(min_value=1, max_value=5))
    cell = draw(st.sampled_from([entries.map(S), scalar_entries]))
    rows = draw(st.lists(st.lists(cell, min_size=ncols, max_size=ncols),
                         max_size=5))
    return ncols, sparse(rows)


@given(sparse_rows())
@settings(max_examples=150, deadline=None)
def test_kernel_is_the_unit_normalised_null_basis(case):
    """One vector per non-pivot column f: it kills every row, is 1 at f and
    0 at the other non-pivot columns, stores no zero and has ascending
    keys."""
    ncols, rows = case
    ker = kernel(rows, ncols)
    sub = row_space(rows, ncols)
    assert len(ker) == ncols - sub.dim
    free = [f for f in range(ncols) if f not in sub.by_pivot]
    for f, v in zip(free, ker):
        assert all(dot(row, v) == ZERO for row in rows)
        assert [v.get(g, ZERO) for g in free] == [
            ONE if g == f else ZERO for g in free]
        assert all(v.values())
        assert list(v) == sorted(v)
    assert kernel([], ncols) == [{f: ONE} for f in range(ncols)]
