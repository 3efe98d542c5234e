"""Reconstruction of the full conformal superalgebra from its reduced
subspace.

Elements are finite polynomials in the divided powers of d (the translation
generator), stored as d-polynomials {degree: element}.  A d-polynomial holds
no empty degree and its elements hold no zero coefficient (the sparse-element
invariant of `linalg`), so two d-polynomials are equal exactly when the dicts
are `==`, and zero exactly when the dict is empty; `dp_add_into` keeps this.

The (n)-products are rebuilt from the reduced bracket tables through the
j-part coefficients, extended to derivatives by the multinomial rule, and
checked against the conformal axioms.  Mode brackets and the change of
conformal vector live here as well.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .scalars import Scalar, ZERO, ONE, HALF
from .linalg import el_add_into, el_scale, kernel, left_inverse, mat_vec
from .algebra import (BasisVector, ReducedAlgebra, Report, check_bounds,
                      coeff_G, require_axioms)


# -- d-polynomial helpers ---------------------------------------------------


def dpoly(el: dict, j: int = 0) -> dict:
    return {j: dict(el)} if el else {}


def dp_add_into(acc: dict, x: dict, c: Scalar = ONE, shift: int = 0) -> None:
    """acc += c * d^(shift) x, with d^(shift) d^(i) = C(i+shift, i) d^(i+shift)
    on divided powers; a degree whose element cancels is dropped."""
    for i, el in x.items():
        j = i + shift
        tgt = acc.setdefault(j, {})
        el_add_into(tgt, el, c * Scalar.from_int(comb(j, i)) if i and shift
                    else c)
        if not tgt:
            del acc[j]


def binom_ff(m: int, j: int) -> Fraction:
    """C(m, j) by falling factorials, valid for negative m."""
    num = 1
    for t in range(j):
        num *= m - t
    return Fraction(num, factorial(j))


class ReconstructedAlgebra:
    """K[d]-span of a reduced algebra with the full (n)-products."""

    def __init__(self, R: ReducedAlgebra):
        self.R = R
        self._memo = {}

    def basis_product(self, a: str, b: str, n: int) -> dict:
        """a_(n) b for reduced basis vectors, as a d-polynomial."""
        key = (a, b, n)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        R = self.R
        wa, wb = R.weight(a), R.weight(b)
        out = {}
        j = 0
        while n + j <= R.max_n():
            el = R.products.get((n + j, a, b))
            if el:
                g = coeff_G(wa, wb, n, j)
                if g:
                    out[j] = el_scale(el, Scalar.from_fraction(g))
            j += 1
        self._memo[key] = out
        return out

    def full_product(self, x: dict, y: dict, n: int) -> dict:
        """x_(n) y for d-polynomials, n a natural number."""
        if n < 0:
            raise ValueError("products are defined for natural n")
        out = {}
        for k, xel in x.items():
            for l, yel in y.items():
                for j in range(l + 1):
                    if n - k - j < 0 or k + j > n:
                        continue
                    mult = comb(n, k) * comb(n - k, j)
                    if not mult:
                        continue
                    if k % 2:
                        mult = -mult
                    for a, ca in xel.items():
                        for b, cb in yel.items():
                            base = self.basis_product(a, b, n - k - j)
                            if not base:
                                continue
                            dp_add_into(out, base,
                                        ca * cb * Scalar.from_int(mult), l - j)
        return out

    def partners(self, a: str) -> set:
        """Basis ids with some nonzero product against a, on either side,
        read off the partner index of the reduced algebra."""
        R = self.R
        out = set(R.right_partners(a))
        out.update(x for x in R.index if a in R.right_partners(x))
        return out


def reconstruct(R: ReducedAlgebra) -> ReconstructedAlgebra:
    return ReconstructedAlgebra(R)


# -- axiom checks -----------------------------------------------------------


def check_C_axioms(RA, m_max: int = 4, n_max: int = 4,
                   d_max: int = 4, max_failures: int = 20) -> Report:
    """(C1), (C2), (C3) and the conformal-vector operator identities.

    (C1) runs over all basis pairs.  (C2) runs over the basis pairs with a
    nonzero product, both arguments shifted by d^(k) for k <= d_max.  (C3)
    runs over the basis triples (a, b, c) whose c is a partner of a, of b or
    of a term of some a_(j) b; for any other c every term vanishes.  Only
    a = ids[0] is d-shifted in (C3), by d^(k) for k <= d_max; (C1) ties the
    other shifts to unshifted instances.
    """
    check_bounds({"m_max": m_max, "n_max": n_max, "d_max": d_max})
    if isinstance(RA, ReducedAlgebra):
        RA = ReconstructedAlgebra(RA)
    R = RA.R
    rep = Report()
    ids = [b.id for b in R.basis]
    L = R.L

    # conformal vector: L_(0) = d, L_(1) = weight, L_(2) on derivatives
    Lel = {0: {L: ONE}}
    for a in ids:
        ael = {0: {a: ONE}}
        rep.checked += 3
        if RA.full_product(Lel, ael, 0) != {1: {a: ONE}}:
            rep.fail("L_(0) is not d on %s" % a, max_failures)
        w = Scalar.from_fraction(R.weight(a))
        if RA.full_product(Lel, ael, 1) != ({0: {a: w}} if w else {}):
            rep.fail("L_(1) eigenvalue wrong on %s" % a, max_failures)
        ok2 = True
        for k in range(0, d_max + 1):
            got = RA.full_product(Lel, {k: {a: ONE}}, 2)
            # on divided powers: L_(2) d^{(k)} a = (k-1+2w) d^{(k-1)} a
            coeff = k - 1 + 2 * R.weight(a)
            want = {} if (k == 0 or not coeff) else \
                {k - 1: {a: Scalar.from_fraction(coeff)}}
            if got != want:
                ok2 = False
        if not ok2:
            rep.fail("L_(2) derivative rule fails on %s" % a, max_failures)
        if len(rep.failures) >= max_failures:
            return rep

    # (C1): (d a)_(n) b = -n a_(n-1) b
    for a in ids:
        for b in ids:
            for n in range(n_max + 1):
                rep.checked += 1
                lhs = RA.full_product({1: {a: ONE}}, {0: {b: ONE}}, n)
                rhs = {}
                if n:
                    rhs = RA.full_product({0: {a: ONE}}, {0: {b: ONE}},
                                          n - 1)
                    rhs = {j: el_scale(el, Scalar.from_int(-n))
                           for j, el in rhs.items()}
                if lhs != rhs:
                    rep.fail("(C1) fails: a=%s b=%s n=%d" % (a, b, n),
                             max_failures)
                    if len(rep.failures) >= max_failures:
                        return rep

    # (C2): x_(n) y = (-1)^{pq} sum_j (-1)^{j+n+1} d^{(j)} (y_(n+j) x)
    for a in ids:
        for b in ids:
            if b not in R.right_partners(a) and a not in R.right_partners(b):
                continue
            pq = R.parity(a) * R.parity(b)
            for k in range(d_max + 1):
                for l in range(d_max + 1):
                    x = {k: {a: ONE}}
                    y = {l: {b: ONE}}
                    for n in range(n_max + 1):
                        rep.checked += 1
                        lhs = RA.full_product(x, y, n)
                        rhs = {}
                        jmax = k + l + R.max_n() + 1
                        for j in range(jmax + 1):
                            sgn = 1 if (j + n + 1) % 2 == 0 else -1
                            if pq % 2:
                                sgn = -sgn
                            dp_add_into(rhs, RA.full_product(y, x, n + j),
                                        Scalar.from_int(sgn), j)
                        if lhs != rhs:
                            rep.fail("(C2) fails: a=%s b=%s k=%d l=%d n=%d"
                                     % (a, b, k, l, n), max_failures)
                            if len(rep.failures) >= max_failures:
                                return rep

    # (C3): a_(m)(b_(n)c) = (-1)^{pq} b_(n)(a_(m)c)
    #       + sum_j C(m,j) (a_(j)b)_(m+n-j) c
    # The inner products are computed outside the (m, n) loops: a_(j) b once
    # per (a, b, k), b_(n) c per (a, b, c), a_(m) c per (a, b, c, k), and
    # (a_(j) b)_(s) c per (a, b, c, k) for each (j, s) the pairs share.
    for a in ids:
        for b in ids:
            xb = {0: {b: ONE}}
            ab = [RA.full_product({0: {a: ONE}}, xb, j)
                  for j in range(R.max_n() + 1)]
            rel = RA.partners(a) | RA.partners(b)
            for t in ab:
                for el in t.values():
                    for x in el:
                        rel |= RA.partners(x)
            pq = R.parity(a) * R.parity(b)
            t2_sign = Scalar.from_int(1 if pq % 2 else -1)
            ajb_by_k = {}
            for c in ids:
                if c not in rel:
                    continue
                xc = {0: {c: ONE}}
                bc = [RA.full_product(xb, xc, n) for n in range(n_max + 1)]
                for k in range(d_max + 1):
                    xa = {k: {a: ONE}}
                    if k not in ajb_by_k:
                        ajb_by_k[k] = [RA.full_product(xa, xb, j)
                                       for j in range(m_max + 1)]
                    ajb = ajb_by_k[k]
                    ac = [RA.full_product(xa, xc, m)
                          for m in range(m_max + 1)]
                    t3s = {}
                    for m in range(m_max + 1):
                        for n in range(n_max + 1):
                            rep.checked += 1
                            lhs = RA.full_product(xa, bc[n], m)
                            t2 = RA.full_product(xb, ac[m], n)
                            dp_add_into(lhs, t2, t2_sign)
                            for j in range(m + 1):
                                if not ajb[j]:
                                    continue
                                s = m + n - j
                                t3 = t3s.get((j, s))
                                if t3 is None:
                                    t3 = t3s[(j, s)] = RA.full_product(
                                        ajb[j], xc, s)
                                dp_add_into(lhs, t3,
                                            Scalar.from_int(-comb(m, j)))
                            if lhs:
                                rep.fail(
                                    "(C3) fails: a=%s b=%s c=%s k=%d "
                                    "m=%d n=%d" % (a, b, c, k, m, n),
                                    max_failures)
                                if len(rep.failures) >= max_failures:
                                    return rep
                    if k == 0 and d_max and a != ids[0]:
                        # derivative shifts on the first argument are
                        # exercised for one row; (C1) ties the rest
                        break
    return rep


# -- mode brackets ----------------------------------------------------------


def mode_bracket(RA, a_el: dict, m: int, b_el: dict, n: int) -> dict:
    """[a_(m), b_(n)] as {(basis_id, mode): Scalar}."""
    if isinstance(RA, ReducedAlgebra):
        RA = ReconstructedAlgebra(RA)
    out = {}
    for j in range(RA.R.max_n() + 2):
        cj = binom_ff(m, j)
        if not cj:
            continue
        prod = RA.full_product(dpoly(a_el), dpoly(b_el), j)
        s = m + n - j
        for i, el in prod.items():
            # (d^{(i)} x)_(s) = (-1)^i C(s, i) x_(s - i)
            ci = -binom_ff(s, i) if i % 2 else binom_ff(s, i)
            el_add_into(out, {(x, s - i): cx for x, cx in el.items()},
                        Scalar.from_fraction(cj * ci))
    return out


# -- change of conformal vector ---------------------------------------------


def _null_quadruple(R: ReducedAlgebra) -> dict:
    """The weight-1 invariant e1 . e2 o e3 o e4 written in the null basis:
    -(1/4) (D1+Db1) . (D1-Db1) o ((D2+Db2) o (D2-Db2))."""
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
    L_a(1) - w.  Products are read back through the d^(0) coordinates of
    the window over the d^(j)-shifted new basis."""
    if isinstance(RA, ReducedAlgebra):
        RA = ReconstructedAlgebra(RA)
    R = RA.R
    try:
        U = _null_quadruple(R)
    except KeyError as exc:
        raise NotN4Shape("missing null-basis vector %s" % exc) from None
    if not U:
        raise NotN4Shape("the quadruple invariant vanishes")
    La = {0: {R.L: ONE}}
    dp_add_into(La, {1: U}, -(alpha * HALF))

    # axiom (V) for the new vector
    two = RA.full_product(La, La, 1)
    want = {j: el_scale(el, Scalar.from_int(2)) for j, el in La.items()}
    if two != want:
        raise AxiomVFails("L_(1) L != 2L for the new vector")
    if RA.full_product(La, La, 2) or RA.full_product(La, La, 3):
        raise AxiomVFails("higher self-products of the new vector")

    # window of d-degrees for the new reduced subspace: coordinates (j, a)
    # at j * len(ids) + (position of a), for j < kdeg
    kdeg = 3
    ids = [b.id for b in R.basis]
    pos = {a: k for k, a in enumerate(ids)}

    def dense(z: dict, deg: int) -> list:
        out = [ZERO] * (deg * len(ids))
        for j, el in z.items():
            if j >= deg:
                raise AxiomVFails("operator leaves the window")
            for x, c in el.items():
                out[j * len(ids) + pos[x]] = c
        return out

    def opmat(n: int):
        cols = [dense(RA.full_product(La, {j: {a: ONE}}, n), kdeg + 2)
                for j in range(kdeg) for a in ids]
        return [list(row) for row in zip(*cols)]

    op2 = opmat(2)
    nker = len(kernel(op2))
    if nker != len(ids):
        raise AxiomVFails("new reduced subspace has dimension %d" % nker)

    # weight decomposition of the kernel under the new L_(1)
    op1 = opmat(1)
    new_basis, new_dps = [], []
    counters = {}
    for wt, prefix in ((Fraction(2), "L"), (Fraction(3, 2), "V"),
                       (Fraction(1), "A"), (Fraction(1, 2), "F")):
        lam = Scalar.from_fraction(wt)
        shifted = [[x - lam if r == c else x for c, x in enumerate(row)]
                   for r, row in enumerate(op1)]
        for vec in kernel(op2 + shifted):
            if prefix == "L":
                nm = "L"
            else:
                counters[prefix] = counters.get(prefix, 0) + 1
                nm = "%s%d" % (prefix, counters[prefix])
            par = 0 if wt.denominator == 1 else 1
            new_basis.append(BasisVector(nm, wt, par))
            dp = {}
            for k, c in enumerate(vec):
                if c:
                    dp.setdefault(k // len(ids), {})[ids[k % len(ids)]] = c
            new_dps.append(dp)
    if len(new_basis) != len(ids):
        raise AxiomVFails("new weights are not physical")
    # normalize the weight-2 vector to L_a itself
    lpos = next(k for k, b in enumerate(new_basis) if b.weight == 2)
    new_dps[lpos] = La
    names = [b.id for b in new_basis]
    dps = dict(zip(names, new_dps))

    # decomposition operator: express window elements over d^{(j)} B_new
    jmax = 3
    cols = []
    for dp in new_dps:
        for j in range(jmax + 1):
            col = {}
            dp_add_into(col, dp, ONE, j)
            cols.append(dense(col, kdeg + jmax))
    dec = left_inverse([list(row) for row in zip(*cols)])
    if dec is None:
        raise AxiomVFails("derivatives of the new basis are dependent")
    # only the d^(0) coordinates are ever read
    dec0 = dec[::jmax + 1]

    def zero_part(z: dict) -> dict:
        part = mat_vec(dec0, dense(z, kdeg + jmax))
        return {nm: s for nm, s in zip(names, part) if s}

    products = {}
    for x in names:
        for y in names:
            for n in (0, 1, 2):
                z = RA.full_product(dps[x], dps[y], n)
                el = zero_part(z)
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
    require_axioms(out, AxiomVFails, "changed algebra")
    return out
