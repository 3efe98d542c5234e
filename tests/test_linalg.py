"""Exact linear algebra: echelon forms, solvers, characteristic
polynomials."""
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from confsalg.scalars import Scalar, ZERO, ONE, ALPHA
from confsalg.linalg import (rank, kernel, left_inverse, charpoly, row_space,
                             tpoly_mul, tpoly_str, Subspace, mat_mul,
                             mat_vec, el_from_list)


def S(n):
    return Scalar.from_int(n)


def M(rows):
    return [[S(x) for x in row] for row in rows]


def test_row_space_reduces_to_identity():
    sub = row_space([{0: S(2)}, {1: S(3)}], 2)
    assert sub.pivots == [0, 1]
    assert sub.rows == [{0: ONE}, {1: ONE}]


def test_rank_and_kernel():
    A = M([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert rank(A) == 2
    ker = kernel(A)
    assert len(ker) == 1
    for row in A:
        assert sum((row[k] * ker[0][k] for k in range(3)), ZERO) == ZERO


def test_left_inverse_small_cases():
    X = left_inverse(M([[1, 1], [1, -1]]))
    assert mat_vec(X, [S(3), S(1)]) == [S(2), S(1)]
    assert left_inverse(M([[1, 1], [2, 2]])) is None
    # tall: the extra row is the sum of the first two
    X = left_inverse(M([[1, 0], [0, 1], [1, 1]]))
    assert mat_mul(X, M([[1, 0], [0, 1], [1, 1]])) == M([[1, 0], [0, 1]])
    assert left_inverse(M([[1, 0, 2], [0, 1, 3]])) is None


def test_charpoly_companion():
    # companion matrix of t^3 - 2t - 5
    A = M([[0, 0, 5], [1, 0, 2], [0, 1, 0]])
    cp = charpoly(A)
    assert tpoly_str(cp) == "t^3-2*t-5"


def test_charpoly_of_empty_matrix():
    assert tpoly_str(charpoly([])) == "1"


def test_tpoly_mul():
    # (t - 1)(t + 1) = t^2 - 1
    p = tpoly_mul([-ONE, ONE], [ONE, ONE])
    assert p == [-ONE, ZERO, ONE]


def test_charpoly_symbolic():
    A = [[ALPHA, ONE], [ONE, ALPHA]]
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
    A = M(rows)
    assert rank(A) + len(kernel(A)) == 3


@given(rows3)
@settings(max_examples=40, deadline=None)
def test_cayley_hamilton(rows):
    A = M(rows)
    cp = charpoly(A)
    acc = [[ZERO] * 3 for _ in range(3)]
    power = [[ONE if i == j else ZERO for j in range(3)] for i in range(3)]
    for c in cp:
        for i in range(3):
            for j in range(3):
                acc[i][j] = acc[i][j] + c * power[i][j]
        power = mat_mul(A, power)
    assert all(x == ZERO for row in acc for x in row)


entries = st.integers(min_value=-3, max_value=3)


@st.composite
def matrices(draw, nrows=None, ncols=None):
    nrows = nrows or draw(st.integers(min_value=1, max_value=4))
    ncols = ncols or draw(st.integers(min_value=1, max_value=4))
    return M(draw(st.lists(st.lists(entries, min_size=ncols,
                                    max_size=ncols),
                           min_size=nrows, max_size=nrows)))


@given(matrices())
@settings(max_examples=80, deadline=None)
def test_left_inverse_none_iff_rank_deficient(A):
    X = left_inverse(A)
    ncols = len(A[0])
    assert (X is None) == (rank(A) < ncols)
    if X is not None:
        ident = [[ONE if r == c else ZERO for c in range(ncols)]
                 for r in range(ncols)]
        assert mat_mul(X, A) == ident


@given(st.one_of(matrices(3, 3), matrices()), st.data())
@settings(max_examples=80, deadline=None)
def test_left_inverse_solves(A, data):
    """X b solves A x = b for every b in the column space of A."""
    X = left_inverse(A)
    if X is None:
        return
    y = [S(v) for v in data.draw(st.lists(entries, min_size=len(A[0]),
                                          max_size=len(A[0])))]
    b = mat_vec(A, y)
    assert mat_vec(X, b) == y
    assert mat_vec(A, mat_vec(X, b)) == b
    if len(A) == len(A[0]):
        # square and invertible: every b is in the column space
        b = [S(v) for v in data.draw(st.lists(entries, min_size=len(A),
                                              max_size=len(A)))]
        assert mat_vec(A, mat_vec(X, b)) == b


scalar_entries = st.sampled_from([ZERO, ZERO, ONE, S(-2), ALPHA, ONE + ALPHA,
                                  Scalar.from_fraction(Fraction(1, 3))])


@st.composite
def mat_vec_inputs(draw):
    """A matrix of any shape up to 4 x 4 (zero rows and columns included)
    and a vector of its width, each row and the vector possibly all zero."""
    nrows = draw(st.integers(min_value=0, max_value=4))
    ncols = draw(st.integers(min_value=0, max_value=4))
    line = st.one_of(st.just([ZERO] * ncols),
                     st.lists(scalar_entries, min_size=ncols,
                              max_size=ncols))
    return draw(st.lists(line, min_size=nrows, max_size=nrows)), draw(line)


@given(mat_vec_inputs())
@settings(max_examples=100, deadline=None)
def test_mat_vec_matches_dense_definition(inputs):
    A, v = inputs
    dense = [sum((row[c] * v[c] for c in range(len(v))), ZERO) for row in A]
    assert mat_vec(A, v) == dense


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
    lets rank, kernel and left_inverse read it off any Subspace.  Rows are
    sparse: no stored zero, least key at the pivot, and a reduced vector
    keeps no pivot key."""
    ncols, rows, shuffled = case
    rows, shuffled = ([el_from_list(r) for r in rs] for rs in (rows, shuffled))
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
    K = kernel(B)
    CK = [list(r) for r in zip(*(mat_vec(C, k) for k in K))] if K else \
        [[] for _ in C]
    round_trip = [[sum((v[i] * K[i][c] for i in range(len(K)) if v[i]),
                       ZERO) for c in range(len(B[0]))]
                  for v in kernel(CK)]
    assert kernel(B + C) == round_trip
