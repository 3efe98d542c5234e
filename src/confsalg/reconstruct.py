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
(the invariant of `linalg`: no zero is stored).  One table, keyed by the
position pairs (a, b) with a nonzero product, holds for each m the terms of
the nonzero a_(m) b, flat, with the `coeff_G` factors applied.
`ReconstructedAlgebra.monomial` gives the terms of the product of two
monomials, `monomial_into`, the one monomial kernel, adds c times them in
place, and `product`, on flat elements, is a loop of it over term pairs.
One loop, `_add_into`, adds c d^(j) x into a sum, for the formation of a
product from table rows and for its addition alike.  The binomial factors
of the derivative rules come from a small int -> Scalar cache.
`ReducedAlgebra.vector` of an element of the reduced algebra is its flat
element of degree 0.

Each `ReconstructedAlgebra` keeps a memo of the products of two monomials,
keyed by (ix, iy, n), with () for a zero.  Only monomials of d-degree at
most R.max_n() + 1 enter it, the flat indices below (max_n + 2)*N, and a
product zero by degree (n < k or n > k + l + max_n) is never formed, so
its size is set by the table, not by the bounds a caller such as
`check_C_axioms` runs at.  Products of higher degree are formed per call.

`check_C_axioms` is the second of the two oracles; P, in `algebra`, is the
first.  It joins the table itself, reads every monomial product through
`monomial`, and never calls `algebra`'s joins.  Like
P and H it counts every instance of its full loops up to the stop, so a
passing Report has `checked` = 3N + N^2 (n_max + 1) (1 + (d_max + 1)^2 +
(N + d_max)(m_max + 1)).  What
it shares with P, and the test that pins each apart from both oracles:
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
    monomial products and adds them.  d^(j) d^(i) = C(i+j, i) d^(i+j) on
    divided powers."""
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


class ReconstructedAlgebra:
    """K[d]-span of a reduced algebra with the full (n)-products.

    `pos` maps each basis id to its position and `ids` reads it back.

    The memo's degree bound stays because a memo without it is hardly
    faster and much larger.  On CK6 (2 vCPUs, Python 3.11.7), C(4,4,4)
    took 0.463-0.499 s of CPU without the bound and 0.485-0.515 s with it,
    five runs each, while max RSS rose from 21.4 to 29.7 MB (44,772 memo
    entries against 11,823), and at C(8,8,8) from 21.7 to 73.0 MB
    (228,606 entries)."""

    def __init__(self, R: ReducedAlgebra):
        self.R = R
        self.ids = [b.id for b in R.basis]
        self.N = N = len(self.ids)
        self.pos = pos = R.index
        # table[(pa, pb)][m]: the terms (i*N + pc, v) of a_(m) b = sum_i
        # d^(i) (...), the stored products times their coeff_G factors
        self._table = table = {}
        for (nj, a, b), el in R.products.items():
            pa, pb = pos[a], pos[b]
            for j in range(nj + 1):
                g = coeff_G(R.weight(a), R.weight(b), nj - j, j)
                if g:
                    g = Scalar.from_fraction(g)
                    table.setdefault((pa, pb), {}).setdefault(
                        nj - j, []).extend(
                            (j * N + pos[x], c * g) for x, c in el.items())
        # _memo[(ix, iy, n)]: the terms of ix_(n) iy, () for a zero, for ix
        # and iy below _memo_bound, the monomials of d-degree <= max_n + 1
        self._memo = {}
        self._top = R.max_n()
        self._memo_bound = (self._top + 2) * N

    def product(self, x: dict, y: dict, n: int) -> dict:
        """x_(n) y for flat elements and a natural number n: the sum of
        cx cy (ix_(n) iy) over the terms cx ix of x and cy iy of y, each
        added by `monomial_into`.  The dict returned is new on each call."""
        if n < 0:
            raise ValueError("products are defined for natural n")
        into, out = self.monomial_into, {}
        for ix, cx in x.items():
            for iy, cy in y.items():
                into(out, ix, iy, n, cy if cx is ONE else cx * cy)
        return out

    def monomial(self, ix: int, iy: int, n: int) -> tuple:
        """The terms (p, v) of ix_(n) iy for the monomials at flat indices
        ix and iy and a natural n, () for a zero: () if k > n or n > k + l
        + R.max_n() for (d^(k) a)_(n) d^(l) b, else read from the memo or
        formed by `_form` and, below the bound, stored."""
        terms = self._memo.get((ix, iy, n))
        if terms is None:
            k, l = ix // self.N, iy // self.N
            if k > n or n > k + l + self._top:
                return ()
            terms = self._form(ix, iy, n)
            if ix < self._memo_bound and iy < self._memo_bound:
                self._memo[ix, iy, n] = terms
        return terms

    def monomial_into(self, out: dict, ix: int, iy: int, n: int, c: Scalar):
        """out += c (ix_(n) iy) in place: the one monomial kernel, which
        adds the terms of `monomial`."""
        _add_into(out, self.monomial(ix, iy, n), c, 0, self.N)

    def _form(self, ix: int, iy: int, n: int) -> tuple:
        """The terms of ix_(n) iy, for k <= n, by the product formula
        (d^(k) a)_(n) d^(l) b
            = (-1)^k C(n, k) sum_h C(n-k, h) d^(l-h) (a_(n-k-h) b)
        on the rows a_(m) b of the table."""
        N = self.N
        k, pa = divmod(ix, N)
        l, pb = divmod(iy, N)
        row, out = self._table.get((pa, pb), {}), {}
        sign_k = comb(n, k) if k % 2 == 0 else -comb(n, k)
        for h in range(min(l, n - k) + 1):
            ab = row.get(n - k - h)
            if ab:
                _add_into(out, ab, _int(sign_k * comb(n - k, h)), l - h, N)
        return tuple(out.items())

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
    read through `RA.monomial`, from the memo, and added into a sum in
    place, scaled, by `RA.monomial_into` or, in (C2), by `_add_into` with
    its d^(j) shift.  A product is taken only where some entry of
    `RA._table` reaches, and an instance that no product reaches is counted
    as checked without being visited.  Below N is `R.max_n()` and
    reach[a][b] the largest m of a stored a_(m) b.  a_(m) b has d-degree at
    most N - m, and (d^(k) a)_(m) d^(l) b is zero unless k <= m <= k + l +
    reach[a][b].  So (C1) is live only at n <= N + 1, (C2) at n <= N +
    2 d_max and (C3) at m + n <= 2N + d_max (below), and an unset m_max or
    n_max is their complete bound, b = 2 (N + d_max) and at least 2.

    (C1) runs over all basis pairs; both sides vanish unless a_(n-1) b is
    stored, at 1 <= n <= N + 1.  On a basis pair it cannot fail: the
    product formula builds (d a)_(n) b from the same table row as a_(n-1) b,
    with the factor -n.  What it still compares is two entries of the
    product memo, `RA.monomial` of (d a, b, n) and of (a, b, n - 1), so it
    catches a memo entry that went wrong.

    (C2) runs over all basis pairs, shifted by d^(k) and d^(l) for k, l <=
    d_max, and visits those with a stored product either way; on any other
    pair both sides vanish.  At shifts (k, l) it is live only at n <= N +
    k + l: past that (d^(k) a)_(n) d^(l) b vanishes, and so does each
    d^(j) (y_(n+j) x) on the right.  Each y_(m) x, nonzero at l <= m <= k +
    l + reach[b][a], is taken once for all n at these shifts, and added
    with each of its d^(j) shifts.

    (C3) runs over all basis triples (a, b, c).  Only a = ids[0] is
    d-shifted, by d^(k) for k <= d_max.  That is a cost shortcut, not a
    consequence of (C1), which compares the product kernel with itself:
    `test_C_shift_of_ids0_loses_no_verdict` checks that shifting every a
    reaches the same verdicts (ROADMAP item 9).  The identity is joined one
    pair (a, b) at a time, and the kernel adds each monomial product
    straight into the sum of its instance (position(c), k, m, n):
        term 1: each stored b_(n) c, then (d^(k) a)_(m) of its terms;
        term 2: each (d^(k) a)_(m) c, then b_(n) of its terms;
        term 3: each (d^(k) a)_(j) b, then (.)_(s) c, s = m + n - j, for
                the c its terms reach.
    Each m, n or s runs, per monomial, only where reach lets its product be
    nonzero.  At a's shift k (C3) is live only at m + n <= 2N + k: term 1
    needs m <= k + N + deg(b_(n) c) <= k + 2N - n, term 2 n <= N +
    deg((d^(k) a)_(m) c) <= 2N - m + k, and term 3 s + j <= N + j +
    deg((d^(k) a)_(j) b) <= 2N + k.

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
    ids, N, table, monomial = RA.ids, RA.N, RA._table, RA.monomial
    top, pL = R.max_n(), RA.pos[R.L]
    m_max = max(2, 2 * (top + d_max)) if m_max is None else m_max
    n_max = max(2, 2 * (top + d_max)) if n_max is None else n_max
    # reach[p][q]: the largest m of the stored p_(m) q, for the q with one
    pairs, reach = sorted(table), [{} for _ in ids]
    for pa, pb in pairs:
        reach[pa][pb] = max(table[pa, pb])

    # conformal vector: L_(0) = d, L_(1) = weight, L_(2) on derivatives
    for pa, a in enumerate(ids):
        rep.checked += 3
        if dict(monomial(pL, pa, 0)) != {N + pa: ONE}:
            rep.fail("L_(0) is not d on %s" % a)
        w = Scalar.from_fraction(R.weight(a))
        if dict(monomial(pL, pa, 1)) != ({pa: w} if w else {}):
            rep.fail("L_(1) eigenvalue wrong on %s" % a)
        ok2 = True
        for k in range(0, d_max + 1):
            got = dict(monomial(pL, k * N + pa, 2))
            # on divided powers: L_(2) d^{(k)} a = (k-1+2w) d^{(k-1)} a
            coeff = k - 1 + 2 * R.weight(a)
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
        for n in range(1, min(n_max, top + 1) + 1):
            rhs = {p: v * _int(-n) for p, v in monomial(pa, pb, n - 1)}
            if dict(monomial(N + pa, pb, n)) != rhs and rep.fail(
                    "(C1) fails: a=%s b=%s n=%d" % (ids[pa], ids[pb], n)):
                rep.checked = base + (pa * N + pb) * width + n + 1
                return rep
    rep.checked = base + N * N * width

    # (C2): x_(n) y = (-1)^{pq} sum_j (-1)^{j+n+1} d^{(j)} (y_(n+j) x), over
    # the pairs with a stored product either way; past n = k + l + N both
    # sides vanish, and each product is taken only where reach allows
    base, D, signs = rep.checked, d_max + 1, (_int(-1), ONE)
    for pa, pb in sorted(set(pairs) | {(pb, pa) for pa, pb in pairs}):
        a, b = ids[pa], ids[pb]
        pq = R.parity(a) * R.parity(b)
        rab, rba = reach[pa].get(pb, -1), reach[pb].get(pa, -1)
        for k in range(D):
            ix = k * N + pa
            for l in range(D):
                iy, live = l * N + pb, k + l + top
                # yx[m] = (d^(l) b)_(m) d^(k) a, zero past m = k + l + rba
                yx = [monomial(iy, ix, m) for m in range(k + l + rba + 1)]
                for n in range(min(n_max, live) + 1):
                    rhs = {}
                    for j in range(max(0, l - n), k + l + rba - n + 1):
                        _add_into(rhs, yx[n + j],
                                  signs[(j + n + pq) % 2], j, N)
                    lhs = monomial(ix, iy, n) if k <= n <= k + l + rab else ()
                    if dict(lhs) != rhs and rep.fail(
                            "(C2) fails: a=%s b=%s k=%d l=%d n=%d"
                            % (a, b, k, l, n)):
                        rep.checked = base + (((pa * N + pb) * D + k) * D
                                              + l) * width + n + 1
                        return rep
    rep.checked = base + N * N * D * D * width

    # (C3): a_(m)(b_(n)c) = (-1)^{pq} b_(n)(a_(m)c)
    #       + sum_j C(m,j) (a_(j)b)_(m+n-j) c, joined one pair (a, b) at a
    # time: `into` adds each monomial product straight into the sum of its
    # instance (pc, k, m, n), keyed by that instance's offset in the loops
    W, into = (m_max + 1) * width, RA.monomial_into
    # bcs[pb]: (pc, n, terms of b_(n) c) for each stored b_(n) c, n <= n_max
    bcs = [[(pc, n, [(iy, iy // N, iy % N, v) for iy, v in row])
            for pc in reach[pb] for n, row in table[pb, pc].items()
            if n <= n_max] for pb in range(N)]
    # negc[j][m] = -C(m, j) for term 3's m, live up to 2 max_n + d_max
    live = range(min(m_max, 2 * top + d_max) + 1)
    negc = [[_int(-comb(m, j)) for m in live] for j in live]
    for pa, a in enumerate(ids):
        K, ra = d_max + 1 if pa == 0 else 1, reach[pa]
        # acs[k]: (pc, m, terms of (d^(k) a)_(m) c) for the nonzero ones
        acs = [[(pc, m, [(iz, iz // N, iz % N, v) for iz, v in z])
                for pc, r in ra.items()
                for m in range(k, min(m_max, k + r) + 1)
                if (z := monomial(k * N + pa, pc, m))]
               for k in range(K)]
        for pb, b in enumerate(ids):
            t2_sign = _int(1 if R.parity(a) * R.parity(b) % 2 else -1)
            rb, acc = reach[pb], {}
            for k in range(K):
                ia = k * N + pa
                # term 1: (d^(k) a)_(m) of each term d^(l) p of b_(n) c,
                # nonzero at k <= m <= k + l + reach[a][p]
                for pc, n, y in bcs[pb]:
                    off = (pc * K + k) * W + n
                    for iy, l, p, v in y:
                        for m in range(k, min(m_max, k + l + ra.get(
                                p, -l - 1)) + 1):
                            into(acc.setdefault(off + m * width, {}),
                                 ia, iy, m, v)
                # term 2: b_(n) of each term d^(l) p of (d^(k) a)_(m) c,
                # nonzero at n <= l + reach[b][p]
                for pc, m, z in acs[k]:
                    off = (pc * K + k) * W + m * width
                    for iz, l, p, v in z:
                        v = v * t2_sign
                        for n in range(min(n_max, l + rb.get(p, -l - 1)) + 1):
                            into(acc.setdefault(off + n, {}), pb, iz, n, v)
                # term 3: (.)_(s) c of each term d^(i) p of (d^(k) a)_(j) b,
                # nonzero at i <= s <= i + reach[p][c], into each (m, n)
                # with m + n = s + j times negc[j][m] = -C(m, j)
                for j in range(k, min(m_max, k + ra.get(pb, -1)) + 1):
                    for iu, w in monomial(ia, pb, j):
                        i, p = divmod(iu, N)
                        for pc, r in reach[p].items():
                            off = (pc * K + k) * W
                            for s in range(i, min(i + r, m_max + n_max - j)
                                           + 1):
                                for m in range(max(j, s + j - n_max),
                                               min(m_max, s + j) + 1):
                                    into(acc.setdefault(
                                        off + m * width + s + j - m, {}),
                                        iu, pc, s, w * negc[j][m])
            for key in sorted(key for key, el in acc.items() if el):
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
