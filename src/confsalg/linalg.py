"""Exact linear algebra over the scalar field: sparse elements and dense
matrices.

A sparse element is a dict {key: Scalar} that never stores a zero value;
`el_add_into` and `el_scale` keep that invariant, and every accumulation of
sparse elements goes through them.  Scalars are canonical, so two sparse
elements are equal exactly when the dicts are `==`, and an element is zero
exactly when the dict is empty.

Matrices are lists of rows, rows are lists of `Scalar`.  `Subspace` is the
one reduced row echelon form, built up one vector at a time by Gaussian
elimination, which is exact over the field.  `row_space` spans a list of
rows with it, and `rank`, `kernel` and `left_inverse` read its rows and
pivots.  Its other users are the closures (`ideal_closure`, the Clifford
left ideals, `extend_v_map`'s graph), the builder's change of basis and
F-extension, and the case solver of the exclusion sweeps.
"""
from __future__ import annotations

from .scalars import Scalar, ZERO, ONE


def el_scale(x: dict, c: Scalar) -> dict:
    if not c:
        return {}
    return {k: v * c for k, v in x.items()}


def el_add_into(acc: dict, x: dict, c: Scalar = ONE) -> None:
    """acc += c * x, dropping every key whose value cancels."""
    if not c:
        return
    for k, v in x.items():
        s = acc.get(k)
        s = v * c if s is None else s + v * c
        if s:
            acc[k] = s
        elif k in acc:
            del acc[k]


def mat_vec(A, v):
    """A v, summing each row over the nonzero entries of v from left to
    right."""
    nz = [(c, x) for c, x in enumerate(v) if x]
    return [sum((row[c] * x for c, x in nz), ZERO) for row in A]


def mat_mul(A, B):
    n, m, p = len(A), len(B), len(B[0]) if B else 0
    out = [[ZERO] * p for _ in range(n)]
    for r in range(n):
        Ar = A[r]
        for k in range(m):
            c = Ar[k]
            if not c:
                continue
            Bk = B[k]
            row = out[r]
            for j in range(p):
                if Bk[j]:
                    row[j] = row[j] + c * Bk[j]
    return out


def rank(rows) -> int:
    return row_space(rows, len(rows[0]) if rows else 0).dim


def kernel(rows):
    """Basis of the right kernel of the matrix, one vector per non-pivot
    column."""
    if not rows:
        return []
    ncols = len(rows[0])
    sub = row_space(rows, ncols)
    basis = []
    for f in range(ncols):
        if f in sub.pivots:
            continue
        v = [ZERO] * ncols
        v[f] = ONE
        for row, pc in zip(sub.rows, sub.pivots):
            if row[f]:
                v[pc] = -row[f]
        basis.append(v)
    return basis


def left_inverse(A):
    """X with X A = I, read off the reduced form of [A | I]; None when the
    columns of A are dependent.  For b in the column space of A, X b is
    the unique solution of A x = b."""
    if not A:
        return []
    nrows, ncols = len(A), len(A[0])
    sub = row_space([list(row) + [ONE if r == c else ZERO
                                  for c in range(nrows)]
                     for r, row in enumerate(A)], ncols + nrows)
    if sub.pivots[:ncols] != list(range(ncols)):
        return None
    return [row[ncols:] for row in sub.rows[:ncols]]


def charpoly(A):
    """Coefficients of det(t*I - A), low degree first, monic of degree n.

    Uses the Faddeev-LeVerrier recursion, which stays in the field.
    """
    n = len(A)
    coeffs = [ZERO] * (n + 1)
    coeffs[n] = ONE
    N = [[ONE if r == c else ZERO for c in range(n)] for r in range(n)]
    for k in range(1, n + 1):
        M = mat_mul(A, N)
        tr = sum((M[j][j] for j in range(n)), ZERO)
        ck = -(tr / Scalar.from_int(k))
        coeffs[n - k] = ck
        N = [[M[r][c] + (ck if r == c else ZERO) for c in range(n)]
             for r in range(n)]
    return coeffs


def tpoly_mul(x, y):
    out = [ZERO] * (len(x) + len(y) - 1)
    for j, cx in enumerate(x):
        if not cx:
            continue
        for k, cy in enumerate(y):
            if cy:
                out[j + k] = out[j + k] + cx * cy
    return out


def tpoly_str(coeffs, var: str = "t") -> str:
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if not c:
            continue
        if k == 0:
            body = str(c)
            if "+" in body[1:] or "-" in body[1:]:
                body = "(%s)" % body
            parts.append(body)
            continue
        v = var if k == 1 else "%s^%d" % (var, k)
        if c == ONE:
            parts.append(v)
        else:
            cs = str(c)
            if "+" in cs[1:] or "-" in cs[1:] or "/" in cs:
                cs = "(%s)" % cs
            parts.append("%s*%s" % (cs, v))
    if not parts:
        return "0"
    out = parts[0]
    for t in parts[1:]:
        out += t if t.startswith("-") else "+" + t
    return out


class Subspace:
    """A subspace kept as its reduced echelon basis: `rows` in increasing
    order of `pivots`, each row 1 at its pivot and 0 at every other pivot.
    That basis depends only on the subspace, not on the order in which
    vectors are added."""

    def __init__(self, dim: int):
        self.dim_ambient = dim
        self.rows = []      # echelon rows, each normalized to pivot 1
        self.pivots = []    # pivot column per row

    def reduce(self, vec):
        vec = list(vec)
        for row, pc in zip(self.rows, self.pivots):
            if vec[pc]:
                f = vec[pc]
                vec = [x - f * y for x, y in zip(vec, row)]
        return vec

    def contains(self, vec) -> bool:
        return all(not x for x in self.reduce(vec))

    def add(self, vec) -> bool:
        """Insert a vector; returns True when the dimension grew."""
        if self.dim == self.dim_ambient:
            return False
        res = self.reduce(vec)
        for c, x in enumerate(res):
            if x:
                inv = x.inv()
                res = [y * inv for y in res]
                # back-substitute into existing rows
                for k in range(len(self.rows)):
                    if self.rows[k][c]:
                        f = self.rows[k][c]
                        self.rows[k] = [a - f * b
                                        for a, b in zip(self.rows[k], res)]
                pos = 0
                while pos < len(self.pivots) and self.pivots[pos] < c:
                    pos += 1
                self.rows.insert(pos, res)
                self.pivots.insert(pos, c)
                return True
        return False

    @property
    def dim(self) -> int:
        return len(self.rows)


def row_space(rows, dim: int) -> Subspace:
    """The Subspace of the length-dim vectors spanned by `rows`."""
    sub = Subspace(dim)
    for row in rows:
        sub.add(row)
    return sub
