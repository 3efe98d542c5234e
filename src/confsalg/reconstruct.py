"""Reconstruction of the full conformal superalgebra from its reduced
subspace.

The (n)-products are rebuilt from the reduced bracket tables through the
j-part coefficients, extended to derivatives by the multinomial rule, and
checked against the conformal axioms.  Mode brackets and the change of
conformal vector live here as well.

Inside, everything runs on integer indices.  `ReconstructedAlgebra` gives
each basis id its position p in the basis of N vectors, and the monomial
d^(k) a, in the divided powers of d (the translation generator), has the
flat index k*N + p.  A flat element is a sparse element {index: Scalar}
(the invariant of `linalg`: no zero is stored).
`ReconstructedAlgebra.row`, the one monomial kernel, gives the row of two
monomials: a term (n, p, v) for each term of their nonzero product at each
n, in increasing n, the form of `algebra`'s join index.  `product`, on
flat elements, is a loop of it.  The one table, `base`, holds the rows of
the basis pairs with a nonzero product, built from `R.join_index` with
the `coeff_G` factors applied.  One loop, `_add_into`, adds c d^(j) x
into a sum, for the formation of a row from `base` and for the addition
of products and shifts alike.  The binomial factors of the
derivative rules come from a small int -> Scalar cache.
`ReducedAlgebra.vector` of an element of the reduced algebra is its flat
element of degree 0.

Each `ReconstructedAlgebra` keeps one memo of rows, keyed by the pair (ix,
iy).  It starts with the rows of `base`; any other row is formed in one
pass of the product formula over the row in `base` of the basis pair
under it, with () for a pair whose products all vanish.  Only monomials of
d-degree at most R.max_n() + 1 enter it, the flat indices below (max_n +
2)*N, so its size is set by the table, not by the bounds a caller such as
`check_C_axioms` runs at.  Rows of higher degree are formed per call.

`check_C_axioms` is the second of the two oracles; P, in `algebra`, is the
first.  It joins `base` itself, reads every monomial product from a
row, adds (C3)'s sums into one flat accumulator, and never calls
`algebra`'s joins.  Like P and H it counts every instance of its full
loops up to the stop, so a passing Report has `checked` = 3N + N^2 (n_max
+ 1) (1 + (d_max + 1)^2 + (N + d_max)(m_max + 1)).  What it shares with
P, and the test that pins each apart from both oracles:
`coeff_G` (test_coeff_G_solves_the_L2_recurrence, from the L_(2)
recurrence), the loading of a `ReducedAlgebra`
(test_json_round_trip_is_byte_identical, test_golden_files_are_byte_stable),
`Scalar` (test_ring_laws, test_division_matches_fraction_arithmetic) and
`linalg`'s sparse element helpers (test_element_arithmetic).
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .scalars import Scalar, ONE, TWO, HALF
from .linalg import coordinates, el_add_into, el_scale, kernel
from .algebra import (W_A, W_F, W_L, W_V, ReducedAlgebra, Report,
                      check_bounds, coeff_G, physical_basis, require_axioms)


@lru_cache(maxsize=256)
def _int(n: int) -> Scalar:
    """Scalar.from_int(n), cached: the factors of the derivative rules are
    few small integers."""
    return Scalar.from_int(n)


def binom_ff(m: int, j: int) -> Fraction:
    """C(m, j) by falling factorials, valid for negative m."""
    num = 1
    for t in range(j):
        num *= m - t
    return Fraction(num, factorial(j))


def _add_into(out: dict, terms, c: Scalar, j: int, N: int):
    """out += c d^(j) x in place, for the flat element x with the terms (p,
    v): the one loop here that adds into a sparse element, which forms
    monomial rows and adds products and shifts.  d^(j) d^(i) = C(i+j, i)
    d^(i+j) on divided powers."""
    for p, v in terms:
        if c is not ONE:
            v = v * c
        if j:
            v = v * _int(comb(p // N + j, j))
            p += j * N
        old = out.get(p)
        if old is not None:
            v = old + v
            if not v:
                del out[p]
                continue
        out[p] = v


def _add_at(acc: dict, base: int, stride: int, row: tuple, c: Scalar,
            top: int):
    """acc[base + n * stride + p] += c v in place for each term (n, p, v)
    of a row with n <= top: the add of (C3)'s flat accumulator, where a sum
    that cancels stays as a zero."""
    get = acc.get
    for n, p, v in row:
        if n > top:
            break
        if c is not ONE:
            v = v * c
        p += base + n * stride
        s = get(p)
        acc[p] = v if s is None else s + v


def _at(row: tuple, n: int) -> dict:
    """The product at n of a row, as a flat element."""
    return {p: v for m, p, v in row if m == n}


class ReconstructedAlgebra:
    """K[d]-span of a reduced algebra with the full (n)-products.

    `pos` maps each basis id to its position and `ids` reads it back.

    The memo's degree bound stays because a memo without it is a little
    faster and much larger.  On CK6 (2 vCPUs, Python 3.11.7), C(10,10,4),
    the CLI's default C, took 0.547 s of CPU without the bound and 0.657 s
    with it (least of ten alternating processes; medians 0.786 and 0.832
    s), while the CLI's max RSS rose from 20.5 to 23.9 MB (13,125 memo rows
    of 48,275 terms against 4,725 of 11,958), and at C(8,8,8) from 20.7 to
    42.6 MB (42,525 rows of 254,061 terms)."""

    def __init__(self, R: ReducedAlgebra):
        self.R = R
        self.ids = [b.id for b in R.basis]
        self.N = N = len(self.ids)
        self.pos = R.index
        # base[pa][pb]: the row of the basis pair (pa, pb), for each pair
        # with a nonzero product, in increasing pb; a stored <a n b> adds
        # its terms, times coeff_G, as d^(j) (...) at m = n - j
        w, self.base = [b.weight for b in R.basis], [{} for _ in range(N)]
        for pa, sa in R.join_index.items():
            for pb in sorted(sa):
                row = [(nj - j, j * N + pt, c * Scalar.from_fraction(g))
                       for nj, pt, c in sa[pb] for j in range(nj + 1)
                       if (g := coeff_G(w[pa], w[pb], nj - j, j))]
                if row:
                    self.base[pa][pb] = tuple(sorted(row, key=lambda t: t[:2]))
        # _rows[(ix, iy)]: the row of ix and iy (see `row`), from the rows
        # of base on, for ix and iy below _memo_bound, the monomials of
        # d-degree <= max_n + 1
        self._rows = {(pa, pb): row for pa, sa in enumerate(self.base)
                      for pb, row in sa.items()}
        self._memo_bound = (R.max_n() + 2) * N

    def product(self, x: dict, y: dict, n: int) -> dict:
        """x_(n) y for flat elements and a natural number n: the sum of
        cx cy (ix_(n) iy) over the terms cx ix of x and cy iy of y, each
        read from the row of (ix, iy).  The dict returned is new on each
        call."""
        if n < 0:
            raise ValueError("products are defined for natural n")
        row, N, out = self.row, self.N, {}
        for ix, cx in x.items():
            for iy, cy in y.items():
                terms = _at(row(ix, iy), n)
                if terms:
                    _add_into(out, terms.items(),
                              cy if cx is ONE else cx * cy, 0, N)
        return out

    def row(self, ix: int, iy: int) -> tuple:
        """The row ((n, p, v), ...) of the monomials at flat indices ix and
        iy: a term (n, p, v) for each term v p of each nonzero ix_(n) iy,
        in increasing n, () if all vanish.  Read from the memo, or formed
        by `_form` and, below the bound, stored.  The one monomial kernel:
        every product of two monomials is read from a row."""
        row = self._rows.get((ix, iy))
        if row is None:
            row = self._form(ix, iy)
            if ix < self._memo_bound and iy < self._memo_bound:
                self._rows[ix, iy] = row
        return row

    def _form(self, ix: int, iy: int) -> tuple:
        """The row of ix and iy, in one pass of the product formula
        (d^(k) a)_(n) d^(l) b
            = (-1)^k C(n, k) sum_h C(n-k, h) d^(l-h) (a_(n-k-h) b)
        over the terms of a_(m) b in the row of (a, b) in `base`: each
        adds into n = k + m + h for every h <= l.  So the n of a row lie in
        k <= n <= k + l + reach[a][b], the largest m of a stored a_(m) b."""
        N = self.N
        k, pa = divmod(ix, N)
        l, pb = divmod(iy, N)
        ab, out = self.base[pa].get(pb, ()), {}
        for h in range(l + 1):
            for m, p, v in ab:
                n = k + m + h
                c = comb(n, k) * comb(m + h, h)
                _add_into(out.setdefault(n, {}), ((p, v),),
                          _int(-c if k % 2 else c), l - h, N)
        return tuple((n, p, v) for n in sorted(out)
                     for p, v in out[n].items())

    def shift(self, x: dict, j: int) -> dict:
        """d^(j) x for a flat element x, as a new dict."""
        out = {}
        _add_into(out, x.items(), ONE, j, self.N)
        return out


def reconstruct(R: ReducedAlgebra) -> ReconstructedAlgebra:
    return ReconstructedAlgebra(R)


# -- axiom checks -----------------------------------------------------------


def check_C_axioms(RA, m_max: int | None = None, n_max: int | None = None,
                   d_max: int = 4, max_failures: int = 20) -> Report:
    """(C1), (C2), (C3) and the conformal-vector operator identities.

    Every product of two monomials, d^(k) a at flat index k*N + p(a), is
    read from `RA.row` of the pair, the terms of its nonzero products at
    every n, in increasing n.  A row is read only for a pair whose basis
    pair has a row in `RA.base`, and an instance that no row reaches is
    counted as checked without being visited.  Below N is `R.max_n()` and
    reach[a][b] the largest m of a stored a_(m) b.  a_(m) b has d-degree
    at most N - m, and (d^(k) a)_(m) d^(l) b is zero unless k <= m <= k +
    l + reach[a][b], so its row holds no m outside that.  So (C1) is live
    only at n <= N + 1, (C2) at n <= N + 2 d_max and (C3) at m + n <= 2N +
    d_max (below), and an unset m_max or n_max is their complete bound, b =
    2 (N + d_max) and at least 2.

    (C1) runs over all basis pairs; both sides vanish unless a_(n-1) b is
    stored, at 1 <= n <= N + 1.  On a basis pair it cannot fail: the
    product formula builds (d a)_(n) b from the row of (a, b) in `base`,
    which is a_(n-1) b's, with the factor -n.  What it still compares is
    two memo entries, the rows of (d a, b) and of (a, b), so it catches a
    memo entry that went wrong.

    (C2) runs over all basis pairs, shifted by d^(k) and d^(l) for k, l <=
    d_max, and visits those with a stored product either way; on any other
    pair both sides vanish.  At shifts (k, l) it is live only at n <= N +
    k + l: past that (d^(k) a)_(n) d^(l) b vanishes, and so does each
    d^(j) (y_(n+j) x) on the right.  The row of y and x, nonzero at l <= m
    <= k + l + reach[b][a], is read once for all n at these shifts, and
    each term of y_(m) x added with its d^(j) shift, j = m - n.

    (C3) runs over all basis triples (a, b, c).  Only a = ids[0] is
    d-shifted, by d^(k) for k <= d_max.  That is a cost shortcut, not a
    consequence of (C1), which compares the product kernel with itself:
    `test_C_shift_of_ids0_loses_no_verdict` checks that shifting every a
    reaches the same verdicts (ROADMAP item 9).  The identity is joined one
    pair (a, b) at a time, and each term v u of a monomial product, times
    its factor, is added straight into one flat dict at the key instance *
    F + u, for the instance (position(c), k, m, n) and F past every flat
    index a term reaches; a sum that cancels stays until the end:
        term 1: each stored b_(n) c, then (d^(k) a)_(m) of its terms;
        term 2: each (d^(k) a)_(m) c, then b_(n) of its terms, with the
                sign (-1)^{|a||b|+1} taken into the rows of a once per a;
        term 3: each (d^(k) a)_(j) b, then (.)_(s) c, s = m + n - j, for
                the c its terms reach.
    Each m, n or s runs, per monomial, over the nonzero products of its
    row, which lie where reach lets them be nonzero.  At a's shift k (C3)
    is live only at m + n <= 2N + k: term 1 needs m <= k + N + deg(b_(n) c)
    <= k + 2N - n, term 2 n <= N + deg((d^(k) a)_(m) c) <= 2N - m + k, and
    term 3 s + j <= N + j + deg((d^(k) a)_(j) b) <= 2N + k.

    Failures come in the order of the loops over (a, b, c, k, m, n), and
    `checked` counts the instances of those loops up to the failure that
    fills the Report, or all 3B + B^2 (n_max + 1) (1 + (d_max + 1)^2 +
    (B + d_max)(m_max + 1)) of them for B = R.dim, where B + d_max counts
    the (a, k) of (C3).
    """
    check_bounds({"m_max": m_max, "n_max": n_max, "d_max": d_max})
    if isinstance(RA, ReducedAlgebra):
        RA = ReconstructedAlgebra(RA)
    R = RA.R
    rep = Report(max_failures=max_failures)
    ids, N, stored, row = RA.ids, RA.N, RA.base, RA.row
    top, pL, par = R.max_n(), R.index[R.L], [b.parity for b in R.basis]
    m_max = max(2, 2 * (top + d_max)) if m_max is None else m_max
    n_max = max(2, 2 * (top + d_max)) if n_max is None else n_max
    pairs = [(pa, pb) for pa, sa in enumerate(stored) for pb in sa]

    # conformal vector: L_(0) = d, L_(1) = weight, L_(2) on derivatives
    for pa, a in enumerate(ids):
        rep.checked += 3
        la = row(pL, pa)
        if _at(la, 0) != {N + pa: ONE}:
            rep.fail("L_(0) is not d on %s" % a)
        wa = R.basis[pa].weight
        w = Scalar.from_fraction(wa)
        if _at(la, 1) != ({pa: w} if w else {}):
            rep.fail("L_(1) eigenvalue wrong on %s" % a)
        ok2 = True
        for k in range(0, d_max + 1):
            got = _at(row(pL, k * N + pa), 2)
            # on divided powers: L_(2) d^{(k)} a = (k-1+2w) d^{(k-1)} a
            coeff = k - 1 + 2 * wa
            want = {} if (k == 0 or not coeff) else \
                {(k - 1) * N + pa: Scalar.from_fraction(coeff)}
            if got != want:
                ok2 = False
        if not ok2:
            rep.fail("L_(2) derivative rule fails on %s" % a)
        if rep.full:
            return rep

    # (C1): (d a)_(n) b = -n a_(n-1) b; both sides vanish unless a_(n-1) b
    # is stored, so only the stored pairs at 1 <= n <= N + 1 are visited
    base, width = rep.checked, n_max + 1
    for pa, pb in pairs:
        ab, dab = row(pa, pb), row(N + pa, pb)
        for n in range(1, min(n_max, top + 1) + 1):
            rhs = {p: v * _int(-n) for m, p, v in ab if m == n - 1}
            if _at(dab, n) != rhs and rep.fail(
                    "(C1) fails: a=%s b=%s n=%d" % (ids[pa], ids[pb], n)):
                rep.checked = base + (pa * N + pb) * width + n + 1
                return rep
    rep.checked = base + N * N * width

    # (C2): x_(n) y = (-1)^{pq} sum_j (-1)^{j+n+1} d^{(j)} (y_(n+j) x), over
    # the pairs with a stored product either way; past n = k + l + N both
    # sides vanish
    base, D, signs = rep.checked, d_max + 1, (_int(-1), ONE)
    for pa, pb in sorted(set(pairs) | {(pb, pa) for pa, pb in pairs}):
        a, b = ids[pa], ids[pb]
        pq = par[pa] * par[pb]
        ab, ba = pb in stored[pa], pa in stored[pb]
        for k in range(D):
            ix = k * N + pa
            for l in range(D):
                iy, live = l * N + pb, k + l + top
                xy = row(ix, iy) if ab else ()
                yx = row(iy, ix) if ba else ()
                for n in range(min(n_max, live) + 1):
                    # each term of y_(m) x, m = n + j, shifted by d^(j)
                    rhs = {}
                    for m, p, v in yx:
                        if m >= n:
                            _add_into(rhs, ((p, v),), signs[(m + pq) % 2],
                                      m - n, N)
                    if _at(xy, n) != rhs and rep.fail(
                            "(C2) fails: a=%s b=%s k=%d l=%d n=%d"
                            % (a, b, k, l, n)):
                        rep.checked = base + (((pa * N + pb) * D + k) * D
                                              + l) * width + n + 1
                        return rep
    rep.checked = base + N * N * D * D * width

    # (C3): a_(m)(b_(n)c) = (-1)^{pq} b_(n)(a_(m)c)
    #       + sum_j C(m,j) (a_(j)b)_(m+n-j) c, joined one pair (a, b) at a
    # time into the flat dict acc, keyed (instance offset in the loops) * F
    # + flat index, F past the d-degree 2 max_n + d_max of every term
    W, F = (m_max + 1) * width, (2 * top + d_max + 1) * N
    # bcs[pb]: (pc, n, iy, position, v) for each term v iy of each nonzero
    # b_(n) c with n <= n_max, read from the row of (b, c) in RA.base
    bcs = [[(pc, n, iy, iy % N, v) for pc, bc in sb.items()
            for n, iy, v in bc if n <= n_max] for sb in stored]
    # spread[j, t]: (m * width + n, -C(m, j)) for term 3's (m, n) in the
    # bounds with m >= j and m + n = t
    spread = {}
    for pa, a in enumerate(ids):
        K, sa = d_max + 1 if pa == 0 else 1, stored[pa]
        # t2[|a||b|][k]: (offset of (c, k, m, 0) times F, iz, position, v)
        # for each term v iz of each nonzero (d^(k) a)_(m) c, m <= m_max,
        # with v times term 2's sign (-1)^{|a||b|+1}
        ac = [[(((pc * K + k) * W + m * width) * F, iz, iz % N, v)
               for pc in sa for m, iz, v in row(k * N + pa, pc)
               if m <= m_max] for k in range(K)]
        t2 = ([[(off, iz, p, -v) for off, iz, p, v in ak] for ak in ac], ac)
        for pb, b in enumerate(ids):
            sb, acc, ac2 = stored[pb], {}, t2[par[pa] * par[pb]]
            get = acc.get
            for k in range(K):
                ia = k * N + pa
                # term 1: (d^(k) a)_(m) of each term d^(l) p of b_(n) c
                for pc, n, iy, p, v in bcs[pb]:
                    if p in sa:
                        _add_at(acc, ((pc * K + k) * W + n) * F, width * F,
                                row(ia, iy), v, m_max)
                # term 2: b_(n) of each term d^(l) p of (d^(k) a)_(m) c
                for off, iz, p, v in ac2[k]:
                    if p in sb:
                        _add_at(acc, off, F, row(pb, iz), v, n_max)
                # term 3: (.)_(s) c of each term w d^(i) p of (d^(k) a)_(j)
                # b, into each (m, n) with m + n = s + j times -C(m, j)
                for j, iu, w in row(ia, pb) if pb in sa else ():
                    if j > m_max:
                        break
                    for pc in stored[iu % N]:
                        off = (pc * K + k) * W
                        for s, q, u in row(iu, pc):
                            t = s + j
                            if t > m_max + n_max:
                                break
                            cs = spread.get((j, t))
                            if cs is None:
                                cs = spread[j, t] = [
                                    (m * width + t - m, _int(-comb(m, j)))
                                    for m in range(max(j, t - n_max),
                                                   min(m_max, t) + 1)]
                            if w is not ONE:
                                u = u * w
                            for o, c in cs:
                                o = (off + o) * F + q
                                v, old = u * c, get(o)
                                acc[o] = v if old is None else old + v
            for key in sorted({q // F for q, v in acc.items() if v}):
                pck, mn = divmod(key, W)
                pc, k = divmod(pck, K)
                if rep.fail("(C3) fails: a=%s b=%s c=%s k=%d m=%d n=%d"
                            % ((a, b, ids[pc], k) + divmod(mn, width))):
                    rep.checked += key + 1
                    return rep
            rep.checked += N * K * W
    return rep


# -- mode brackets ----------------------------------------------------------


def mode_bracket(RA, a_el: dict, m: int, b_el: dict, n: int) -> dict:
    """[a_(m), b_(n)] as {(basis_id, mode): Scalar}."""
    if isinstance(RA, ReducedAlgebra):
        RA = ReconstructedAlgebra(RA)
    x, y = RA.R.vector(a_el), RA.R.vector(b_el)
    out = {}
    for j in range(RA.R.max_n() + 2):
        cj = binom_ff(m, j)
        if not cj:
            continue
        s = m + n - j
        for ix, c in RA.product(x, y, j).items():
            # (d^{(i)} x)_(s) = (-1)^i C(s, i) x_(s - i)
            i, p = divmod(ix, RA.N)
            ci = -binom_ff(s, i) if i % 2 else binom_ff(s, i)
            el_add_into(out, {(RA.ids[p], s - i): c},
                        Scalar.from_fraction(cj * ci))
    return out


# -- change of conformal vector ---------------------------------------------


def _null_quadruple(R: ReducedAlgebra) -> dict:
    """The weight-1 invariant e1 . e2 o e3 o e4 written in the null basis:
    -(1/4) (D1+Db1) . (D1-Db1) o ((D2+Db2) o (D2-Db2))."""
    for bid in ("D2", "Db2", "D1", "Db1"):
        if bid not in R.index:
            raise NotN4Shape("missing null-basis vector %r" % bid)
    e = R.basis_element

    def pm(p, q, sign):
        out = dict(e(p))
        el_add_into(out, e(q), Scalar.from_int(sign))
        return out

    x = R.circ(pm("D2", "Db2", 1), pm("D2", "Db2", -1))
    x = R.circ(pm("D1", "Db1", -1), x)
    x = R.bullet(pm("D1", "Db1", 1), x)
    return el_scale(x, Scalar.from_fraction(Fraction(-1, 4)))


class NotN4Shape(ValueError):
    pass


class AxiomVFails(ValueError):
    pass


def change_conformal_vector(RA, alpha: Scalar) -> ReducedAlgebra:
    """The algebra with conformal vector L_a = L - (a/2) d(e1.e2oe3oe4),
    presented on its own reduced subspace.

    The new reduced subspace is the kernel of L_a(2) on a window of
    d-degrees, and its weight-w part is the kernel of L_a(2) stacked on
    L_a(1) - w; the parts must be one vector at weight 2, which becomes
    L_a, and N vectors in all.  Products are read back through the d^(0)
    coordinates of the window over the d^(j)-shifted new basis.  All of it
    runs on flat elements, so the window of d-degrees below k is the flat
    indices below k*N."""
    if isinstance(RA, ReducedAlgebra):
        RA = ReconstructedAlgebra(RA)
    R, N, product = RA.R, RA.N, RA.product
    U = _null_quadruple(R)
    if not U:
        raise NotN4Shape("the quadruple invariant vanishes")
    La = {RA.pos[R.L]: ONE}
    el_add_into(La, RA.shift(R.vector(U), 1), -(alpha * HALF))

    # axiom (V) for the new vector
    if product(La, La, 1) != el_scale(La, TWO):
        raise AxiomVFails("L_(1) L != 2L for the new vector")
    if product(La, La, 2) or product(La, La, 3):
        raise AxiomVFails("higher self-products of the new vector")

    def window(z: dict, deg: int) -> dict:
        if z and max(z) >= deg * N:
            raise AxiomVFails("operator leaves the window")
        return z

    def rows_of(cols) -> list:
        """The sparse rows of the matrix with sparse columns cols."""
        rows = {}
        for c, col in enumerate(cols):
            for r, v in col.items():
                rows.setdefault(r, {})[c] = v
        return list(rows.values())

    # the new reduced subspace lies in the d-degrees below kdeg
    kdeg = 3
    nwin = kdeg * N
    op2 = rows_of(window(product(La, {c: ONE}, 2), kdeg + 2)
                  for c in range(nwin))
    nker = len(kernel(op2, nwin))
    if nker != N:
        raise AxiomVFails("new reduced subspace has dimension %d" % nker)

    # weight decomposition of the kernel under the new L_(1)
    op1 = [window(product(La, {c: ONE}, 1), kdeg + 2) for c in range(nwin)]
    parts = []
    for wt in (W_L, W_V, W_A, W_F):
        lam = Scalar.from_fraction(wt)
        shifted = []
        for c, col in enumerate(op1):
            col = dict(col)
            el_add_into(col, {c: ONE}, -lam)
            shifted.append(col)
        parts.append(kernel(op2 + rows_of(shifted), nwin))
    lpart, vpart, apart, fpart = parts
    if len(lpart) != 1 or sum(map(len, parts)) != N:
        raise AxiomVFails("new weights are not physical")
    new_basis = physical_basis(["V%d" % k for k in range(1, len(vpart) + 1)],
                               len(apart), len(fpart))
    # the weight-2 vector is L_a itself
    new_els = [La] + vpart + apart + fpart
    names = [b.id for b in new_basis]
    els = dict(zip(names, new_els))

    # decomposition: express window elements over d^{(j)} B_new, the basis
    # vector k shifted by d^{(j)} at k * (jmax + 1) + j
    jmax = 3
    ndec = (kdeg + jmax) * N
    cols = [RA.shift(v, j) for v in new_els for j in range(jmax + 1)]
    try:
        coords = coordinates(cols, ndec)
    except ValueError:
        raise AxiomVFails("derivatives of the new basis are dependent")

    def zero_part(z: dict) -> dict:
        """The d^(0) coordinates of z, keyed by new basis name."""
        part = coords(window(z, kdeg + jmax))
        if part is None:
            raise AxiomVFails("product outside the span of the new basis")
        return {names[k // (jmax + 1)]: c for k, c in part.items()
                if k % (jmax + 1) == 0}

    products = {}
    for x in names:
        for y in names:
            for n in (0, 1, 2):
                el = zero_part(product(els[x], els[y], n))
                if n == 2:
                    if x == y == "L":
                        if el:
                            raise AxiomVFails("L_(2) L nonzero")
                    elif el:
                        raise AxiomVFails(
                            "second product %s, %s not primary" % (x, y))
                elif el:
                    products[(n, x, y)] = el
    out = ReducedAlgebra(new_basis, "L", products)
    require_axioms(out, AxiomVFails, "changed algebra violates axioms:\n")
    return out
