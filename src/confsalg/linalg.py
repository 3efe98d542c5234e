"""Exact linear algebra over the scalar field: sparse elements and one
sparse row echelon form.

A sparse element is a dict {key: Scalar} that never stores a zero value;
`el_add_into` and `el_scale` keep that invariant, and every accumulation of
sparse elements goes through them, but for five loops that add on their
own for speed.  `reconstruct._add_into` (out += c d^(j) x on flat
elements, through which every row of monomial products is formed, and
products and shifts are added into a sum) keeps the same invariant.  The
flat accumulators do not: the two adds of `algebra._join`, and in (C3)
`reconstruct._add_at`, for its terms 1 and 2, and the inline add of its
term 3.  Each keeps a sum that cancels to zero until the end, where it
only asks which sums are nonzero, and never hands its dict on as an
element.
Scalars are canonical, so two sparse elements are equal exactly when the
dicts are `==`, and an element is zero exactly when the dict is empty.

`Subspace` is the one reduced row echelon form, built up one vector at a
time by exact Gaussian elimination.  Its rows are sparse elements keyed by
column, and it keeps them keyed by pivot.  `row_space`, `add`, `reduce`,
`contains` and `kernel` take sparse elements, and `coordinates`, the one
solver, solves in a basis of them and checks itself: it raises
ValueError on a dependent basis, and its map gives None for a vector
outside the span.  A matrix is a list of sparse rows, for `charpoly` as
for the rest.
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


def charpoly(A):
    """Coefficients of det(t*I - A) for the square matrix A of sparse rows,
    low degree first, monic of degree n.

    Uses the Faddeev-LeVerrier recursion, which stays in the field: with
    N = I, each step forms M = A N, whose row r is the sum of A[r][j] N[j],
    reads the next coefficient c = -tr(M)/k and sets N = M + c I.
    """
    n = len(A)
    coeffs = [ZERO] * n + [ONE]
    N = [{r: ONE} for r in range(n)]
    for k in range(1, n + 1):
        M = [{} for _ in A]
        for out, row in zip(M, A):
            for j, c in row.items():
                el_add_into(out, N[j], c)
        tr = sum((M[r].get(r, ZERO) for r in range(n)), ZERO)
        ck = -(tr / Scalar.from_int(k))
        coeffs[n - k] = ck
        for r in range(n):
            el_add_into(M[r], {r: ONE}, ck)
        N = M
    return coeffs


def tpoly_str(coeffs) -> str:
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
        v = "t" if k == 1 else "t^%d" % k
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
    for part in parts[1:]:
        out += part if part.startswith("-") else "+" + part
    return out


class Subspace:
    """A subspace kept as its reduced echelon basis `by_pivot`, which maps
    each pivot column to its row.  A row is a sparse element whose least
    column is its pivot, where it is 1, and which has no entry at any other
    pivot.  That basis depends only on the subspace, not on the order in
    which vectors are added.  `dim_ambient` is the dimension of the space
    the vectors lie in: once the span fills it, `add` returns at once."""

    def __init__(self, dim: int):
        self.dim_ambient = dim
        self.by_pivot = {}

    @property
    def pivots(self) -> list:
        return sorted(self.by_pivot)

    @property
    def rows(self) -> list:
        return [self.by_pivot[pc] for pc in self.pivots]

    @property
    def dim(self) -> int:
        return len(self.by_pivot)

    def reduce(self, vec: dict) -> dict:
        """vec minus the combination of rows that clears every pivot.  A
        row is 0 at the other pivots, so one pass over the pivots of vec
        does it."""
        out = dict(vec)
        for pc, c in vec.items():
            row = self.by_pivot.get(pc)
            if row:
                el_add_into(out, row, -c)
        return out

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def add(self, vec: dict) -> bool:
        """Insert a vector; returns True when the dimension grew."""
        if self.dim == self.dim_ambient:
            return False
        res = self.reduce(vec)
        if not res:
            return False
        pc = min(res)
        res = el_scale(res, res[pc].inv())
        # back-substitute into the existing rows, which are replaced, not
        # changed, so that a row read earlier stays as it was
        for p, row in self.by_pivot.items():
            f = row.get(pc)
            if f:
                row = dict(row)
                el_add_into(row, res, -f)
                self.by_pivot[p] = row
        self.by_pivot[pc] = res
        return True


def row_space(rows, dim: int) -> Subspace:
    """The Subspace spanned by the sparse elements `rows` in a space of
    dimension dim."""
    sub = Subspace(dim)
    for row in rows:
        sub.add(row)
    return sub


def kernel(rows, ncols: int) -> list:
    """Basis of the vectors on columns below ncols that every sparse row
    kills: one vector per non-pivot column f of the reduced rows, 1 at f
    and 0 at the other non-pivot columns, with keys in column order.  With
    no rows, the unit vectors."""
    sub = row_space(rows, ncols)
    basis = {f: [(f, ONE)] for f in range(ncols) if f not in sub.by_pivot}
    for pc, row in sub.by_pivot.items():
        for f, c in row.items():
            if f != pc:
                basis[f].append((pc, -c))
    return [dict(sorted(v)) for v in basis.values()]


def coordinates(basis, ncols: int):
    """The map x -> {k: c} with x the sum of c * basis[k], for the sparse
    elements `basis` on columns below ncols; the map gives None for an x
    outside their span.  Reducing (x | 0) by the graph rows (basis[k] | e_k)
    leaves (0 | -c), in the order of k, and a residue with a key below
    ncols for an x outside the span.  Raises ValueError on a dependent
    basis, which leaves a graph row with its pivot at or past ncols."""
    graph = row_space(({**b, ncols + k: ONE} for k, b in enumerate(basis)),
                      ncols + len(basis))
    if graph.by_pivot and max(graph.by_pivot) >= ncols:
        raise ValueError("dependent basis")

    def coords(x: dict):
        res = sorted(graph.reduce(x).items())
        if res and res[0][0] < ncols:
            return None
        return {k - ncols: -c for k, c in res}
    return coords
