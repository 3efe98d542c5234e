"""Reduced subspaces of conformal superalgebras.

A `ReducedAlgebra` stores a finite weight-homogeneous basis, a distinguished
conformal vector L of weight 2, and sparse tables of indexed bilinear products
labelled by a non-negative integer n.  The weight rule for products is
weight(a <n> b) = weight(a) + weight(b) - n - 1 and parities add modulo 2.

For the physical case (weights in {2, 3/2, 1, 1/2}) only the <0> and the <1>
products survive; two derived products are used throughout:

    a o b = (a <1> b) / (wt(a) + wt(b) - 2)    (0 when the weight sum is 2)
    a . b = a <0> b

All checkers return a `Report` listing failing instances instead of raising.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb

from . import scalars
from .scalars import Scalar, ZERO, ONE
from .linalg import Subspace, el_add_into, el_scale, kernel

# ---------------------------------------------------------------------------
# structure coefficients
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def coeff_G(da: Fraction, db: Fraction, n: int, j: int) -> Fraction:
    """The coefficient relating the j-th derivative part of a degree-n
    product to the reduced <n+j> product."""
    s = da + db - n - j - 1
    if not (s <= 0 and (2 * s).denominator == 1):
        out = Fraction(1)
        for k in range(j):
            out *= Fraction(2 * da - n - j - 1 + k, 1) / (2 * s + k)
        return out
    if da + db - n - 1 == 0 and j == 0:
        return Fraction(1)
    return Fraction(0)


def _comb0(n: int, k: int) -> int:
    if k < 0 or n < 0 or k > n:
        return 0
    return comb(n, k)


@lru_cache(maxsize=None)
def coeff_F(da: Fraction, db: Fraction, m: int, n: int, t: int) -> Fraction:
    out = Fraction(0)
    for k in range(t + 1):
        c = _comb0(m, t - k) * _comb0(m + n + k - t, k)
        if c:
            g = coeff_G(da, db, t - k, k)
            if g:
                out += (-1) ** k * c * g
    return out


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

# Elements are sparse dicts {basis_id: Scalar} with no zero value; see
# `linalg` for the helpers that keep this invariant.


@dataclass(frozen=True)
class BasisVector:
    id: str
    weight: Fraction
    parity: int


@dataclass
class Report:
    ok: bool = True
    checked: int = 0
    failures: list = field(default_factory=list)

    def fail(self, msg: str, cap: int = 20) -> None:
        self.ok = False
        if len(self.failures) < cap:
            self.failures.append(msg)

    def summary(self) -> str:
        if self.ok:
            return "ok (%d instances checked)" % self.checked
        return "FAILED (%d instances checked, %d failures)\n%s" % (
            self.checked, len(self.failures),
            "\n".join("  " + f for f in self.failures))


PHYSICAL_WEIGHTS = {Fraction(2), Fraction(3, 2), Fraction(1), Fraction(1, 2)}

# Largest product index a table may store.  The checkers loop over every n
# up to the largest stored one; the catalog tables stop at n = 1.
MAX_N = 64


def check_bounds(bounds: dict) -> None:
    """Raise ValueError unless every named checker bound lies in
    0..MAX_N."""
    for name, value in bounds.items():
        if not 0 <= value <= MAX_N:
            raise ValueError("%s must lie in 0..%d" % (name, MAX_N))


class ReducedAlgebra:
    """A finite-dimensional reduced subspace with its indexed products."""

    def __init__(self, basis, L: str, products=None):
        self.basis = list(basis)
        self.L = L
        self.index = {b.id: k for k, b in enumerate(self.basis)}
        if len(self.index) != len(self.basis):
            raise ValueError("duplicate basis ids")
        if L not in self.index:
            raise ValueError("conformal vector %r not in basis" % L)
        for b in self.basis:
            if b.parity not in (0, 1):
                raise ValueError("basis vector %r has parity %r"
                                 % (b.id, b.parity))
        self.products = {}
        if products:
            for (n, a, b), el in products.items():
                if not 0 <= n <= MAX_N:
                    raise ValueError("product <%s %d %s>: n outside 0..%d"
                                     % (a, n, b, MAX_N))
                unknown = [x for x in (a, b, *el) if x not in self.index]
                if unknown:
                    raise ValueError("product <%s %d %s> names ids outside "
                                     "the basis: %r" % (a, n, b, unknown))
                el = {k: v for k, v in el.items() if v}
                if el:
                    self.products[(n, a, b)] = el
        # the table is not changed after construction
        self._max_n = max((n for (n, _, _) in self.products), default=0)

    # -- basic lookups ------------------------------------------------------

    def weight(self, bid: str) -> Fraction:
        return self.basis[self.index[bid]].weight

    def parity(self, bid: str) -> int:
        return self.basis[self.index[bid]].parity

    @property
    def dim(self) -> int:
        return len(self.basis)

    def max_n(self) -> int:
        return self._max_n

    def basis_element(self, bid: str) -> dict:
        return {bid: ONE}

    def weight_dims(self) -> dict:
        out = {}
        for b in self.basis:
            out[b.weight] = out.get(b.weight, 0) + 1
        return out

    def vector(self, el: dict) -> list:
        v = [ZERO] * self.dim
        for k, c in el.items():
            v[self.index[k]] = c
        return v

    def element(self, vec) -> dict:
        return {self.basis[k].id: c for k, c in enumerate(vec) if c}

    # -- products -----------------------------------------------------------

    def product_basis(self, n: int, a: str, b: str) -> dict:
        return self.products.get((n, a, b), {})

    def product_n(self, x: dict, n: int, y: dict) -> dict:
        out = {}
        for a, ca in x.items():
            for b, cb in y.items():
                tab = self.products.get((n, a, b))
                if tab:
                    el_add_into(out, tab, ca * cb)
        return out

    def circ(self, x: dict, y: dict) -> dict:
        out = {}
        for a, ca in x.items():
            da = self.weight(a)
            for b, cb in y.items():
                d = da + self.weight(b) - 2
                if d == 0:
                    continue
                tab = self.products.get((1, a, b))
                if tab:
                    el_add_into(out, tab, ca * cb / Scalar.from_fraction(d))
        return out

    def bullet(self, x: dict, y: dict) -> dict:
        return self.product_n(x, 0, y)

    def clifford_act(self, v: dict, x: dict) -> dict:
        out = self.circ(v, x)
        el_add_into(out, self.bullet(v, x))
        return out

    # -- graded pieces ------------------------------------------------------

    def component(self, x: dict, w: Fraction) -> dict:
        return {k: c for k, c in x.items() if self.weight(k) == w}

    def space(self, w: Fraction) -> list:
        return [b.id for b in self.basis if b.weight == w]

    def coeff_of_L(self, x: dict) -> Scalar:
        """The coefficient of L of an element known to lie in span(L)."""
        for k in x:
            if k != self.L:
                raise ValueError("element not proportional to %s: %r"
                                 % (self.L, x))
        return x.get(self.L, ZERO)

    # -- derived bilinear data ---------------------------------------------

    def inner_product(self, u: dict, v: dict) -> Scalar:
        return self.coeff_of_L(self.bullet(u, v))

    def inner_gram(self):
        V = [self.basis_element(b) for b in self.space(Fraction(3, 2))]
        return [[self.inner_product(u, v) for v in V] for u in V]

    def eta(self, u: dict, v: dict, w: dict) -> dict:
        return self.bullet(u, self.circ(v, w))

    def form_wedge(self, u, v, w, z) -> Scalar:
        """(u^v, w^z) on the wedge square of the weight-3/2 space."""
        return self.coeff_of_L(self.bullet(u, self.eta(v, w, z)))

    def wedge_gram(self, pairs):
        """Gram matrix of the wedge-square form for an ordered list of
        wedge pairs (u, v) of elements."""
        return [[self.form_wedge(u, v, w, z) for (w, z) in pairs]
                for (u, v) in pairs]

    def form_wedge3(self, u1, u2, u3, v1, v2, v3) -> Scalar:
        """The invariant pairing on the third wedge power of the
        weight-3/2 space."""
        x = self.circ(v1, self.circ(v2, v3))
        x = self.bullet(u1, x)
        x = self.bullet(u2, x)
        x = self.bullet(u3, x)
        return self.coeff_of_L(x)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        order = self.index
        prods = []
        for (n, a, b) in sorted(self.products,
                                key=lambda k: (k[0], order[k[1]], order[k[2]])):
            el = self.products[(n, a, b)]
            terms = [{"coeff": str(el[t]), "basis": t}
                     for t in sorted(el, key=lambda t: order[t])]
            prods.append({"n": n, "a": a, "b": b, "terms": terms})
        doc = {
            "basis": [{"id": b.id, "weight": str(b.weight), "parity": b.parity}
                      for b in self.basis],
            "L": self.L,
            "products": prods,
        }
        return json.dumps(doc, indent=2) + "\n"

    @staticmethod
    def from_json(text: str) -> "ReducedAlgebra":
        doc = json.loads(text)
        basis = [BasisVector(b["id"], Fraction(b["weight"]), int(b["parity"]))
                 for b in doc["basis"]]
        products = {}
        for p in doc["products"]:
            key = (int(p["n"]), p["a"], p["b"])
            if key in products:
                raise ValueError("product <%s %d %s> is listed twice"
                                 % (key[1], key[0], key[2]))
            el = {}
            for t in p["terms"]:
                if t["basis"] in el:
                    raise ValueError("product <%s %d %s> lists term %s twice"
                                     % (key[1], key[0], key[2], t["basis"]))
                el[t["basis"]] = scalars.parse(t["coeff"])
            products[key] = el
        return ReducedAlgebra(basis, doc["L"], products)

    # -- mutation helper (for sensitivity tests) ---------------------------

    def sign_mutations(self):
        """Yield (label, algebra) pairs, each with exactly one structure
        constant negated."""
        for key in sorted(self.products,
                          key=lambda k: (k[0], self.index[k[1]],
                                         self.index[k[2]])):
            for t in sorted(self.products[key], key=lambda t: self.index[t]):
                prods = {k: dict(v) for k, v in self.products.items()}
                prods[key][t] = -prods[key][t]
                label = "<%s %d %s> term %s" % (key[1], key[0], key[2], t)
                yield label, ReducedAlgebra(self.basis, self.L, prods)


# ---------------------------------------------------------------------------
# axiom checkers
# ---------------------------------------------------------------------------


def check_well_formed(R: ReducedAlgebra) -> Report:
    """Weight and parity bookkeeping of the stored tables, plus the
    vanishing bound (every stored product has a finite n and correct
    gradings)."""
    rep = Report()
    for (n, a, b), el in R.products.items():
        w = R.weight(a) + R.weight(b) - n - 1
        p = (R.parity(a) + R.parity(b)) % 2
        for t, c in el.items():
            rep.checked += 1
            if R.weight(t) != w:
                rep.fail("<%s %d %s>: term %s has weight %s, expected %s"
                         % (a, n, b, t, R.weight(t), w))
            if R.parity(t) != p:
                rep.fail("<%s %d %s>: term %s has parity %d, expected %d"
                         % (a, n, b, t, R.parity(t), p))
    return rep


def check_P_axioms(R: ReducedAlgebra, m_max: int = 4, n_max: int = 4,
                   max_failures: int = 20) -> Report:
    """Skew symmetry, the quadratic identity for m <= m_max and n <= n_max,
    and the conformal-vector conditions, over all basis triples."""
    check_bounds({"m_max": m_max, "n_max": n_max})
    rep = check_well_formed(R)
    ids = [b.id for b in R.basis]
    nb = R.max_n() + 1

    # skew symmetry
    for n in range(nb):
        for a in ids:
            pa = R.parity(a)
            for b in ids:
                rep.checked += 1
                lhs = R.product_basis(n, a, b)
                rhs = R.product_basis(n, b, a)
                sign = -ONE if (n + pa * R.parity(b)) % 2 == 0 else ONE
                if lhs != el_scale(rhs, sign):
                    rep.fail("skew fails: <%s %d %s>" % (a, n, b),
                             max_failures)

    # conformal vector conditions
    L = R.L
    rep.checked += 1
    if R.parity(L) != 0 or R.weight(L) != 2:
        rep.fail("conformal vector must be even of weight 2", max_failures)
    if R.product_basis(1, L, L) != {L: Scalar.from_int(2)}:
        rep.fail("<L 1 L> != 2L", max_failures)
    for a in ids:
        rep.checked += 1
        if R.product_basis(0, L, a):
            rep.fail("<L 0 %s> != 0" % a, max_failures)
        want = {a: Scalar.from_fraction(R.weight(a))} if R.weight(a) else {}
        if R.product_basis(1, L, a) != want:
            rep.fail("<L 1 %s> is not weight * %s" % (a, a), max_failures)
        two = R.product_basis(2, L, a)
        if any(R.weight(t) != 0 for t in two):
            rep.fail("<L 2 %s> is not central of weight 0" % a, max_failures)
    for w in R.weight_dims():
        if w < 0:
            rep.fail("forbidden weight %s" % w, max_failures)

    # the quadratic identity
    wt = {b.id: b.weight for b in R.basis}
    par = {b.id: b.parity for b in R.basis}
    prods = R.products
    for a in ids:
        da, pa = wt[a], par[a]
        for b in ids:
            db, pb = wt[b], par[b]
            sgn = -ONE if (pa * pb) % 2 else ONE
            for c in ids:
                dc = wt[c]
                for m in range(m_max + 1):
                    for n in range(n_max + 1):
                        acc = {}
                        live = False
                        for j in range(m + 1):
                            inner = prods.get((n + j, b, c))
                            if not inner:
                                continue
                            g = coeff_G(db, dc, n, j)
                            if not g:
                                continue
                            cj = Scalar.from_fraction(comb(m, j) * g)
                            for t, ct in inner.items():
                                outer = prods.get((m - j, a, t))
                                if outer:
                                    live = True
                                    el_add_into(acc, outer, cj * ct)
                        for j in range(n + 1):
                            inner = prods.get((m + j, a, c))
                            if not inner:
                                continue
                            g = coeff_G(da, dc, m, j)
                            if not g:
                                continue
                            cj = sgn * Scalar.from_fraction(comb(n, j) * g)
                            for t, ct in inner.items():
                                outer = prods.get((n - j, b, t))
                                if outer:
                                    live = True
                                    el_add_into(acc, outer, -(cj * ct))
                        for j in range(m + n + 1):
                            inner = prods.get((j, a, b))
                            if not inner:
                                continue
                            f = coeff_F(da, db, m, n, j)
                            if not f:
                                continue
                            cf = Scalar.from_fraction(f)
                            for t, ct in inner.items():
                                outer = prods.get((m + n - j, t, c))
                                if outer:
                                    live = True
                                    el_add_into(acc, outer, -(cf * ct))
                        rep.checked += 1
                        if acc:
                            rep.fail(
                                "identity fails: a=%s b=%s c=%s m=%d n=%d"
                                % (a, b, c, m, n), max_failures)
                        if not live:
                            continue
                        if not rep.ok and len(rep.failures) >= max_failures:
                            return rep
    return rep


def require_axioms(R: ReducedAlgebra, exc_type, what: str) -> None:
    """Raise exc_type unless R passes P(2,2) and then H."""
    rep = check_P_axioms(R, 2, 2)
    if rep.ok:
        rep = check_H_axioms(R)
    if not rep.ok:
        raise exc_type("%s violates axioms:\n%s" % (what, rep.summary()))


def is_physical_shape(R: ReducedAlgebra) -> bool:
    if any(b.weight not in PHYSICAL_WEIGHTS for b in R.basis):
        return False
    if len(R.space(Fraction(2))) != 1:
        return False
    for b in R.basis:
        want = 0 if b.weight.denominator == 1 else 1
        if b.parity != want:
            return False
    return all(n <= 1 for (n, _, _) in R.products)


def check_H_axioms(R: ReducedAlgebra, max_failures: int = 20) -> Report:
    """The identities satisfied by the two derived products of a physical
    algebra: unit laws, graded symmetry, associativity of the even product,
    the Leibniz rules and the Clifford-square law."""
    rep = Report()
    if not is_physical_shape(R):
        rep.fail("not of physical shape "
                 "(weights, parities or product indices are off)")
        return rep
    ids = [b.id for b in R.basis]
    L = R.basis_element(R.L)
    els = {a: R.basis_element(a) for a in ids}
    par = {b.id: b.parity for b in R.basis}
    V = R.space(Fraction(3, 2))
    A = R.space(Fraction(1))
    F = R.space(Fraction(1, 2))

    for a in ids:
        rep.checked += 1
        if R.circ(L, els[a]) != els[a]:
            rep.fail("L o %s != %s" % (a, a), max_failures)
        if R.bullet(L, els[a]):
            rep.fail("L . %s != 0" % a, max_failures)

    for a in ids:
        for b in ids:
            rep.checked += 1
            sign = -ONE if par[a] * par[b] else ONE
            if R.circ(els[a], els[b]) != \
                    el_scale(R.circ(els[b], els[a]), sign):
                rep.fail("o-symmetry fails: %s, %s" % (a, b), max_failures)
            if R.bullet(els[a], els[b]) != \
                    el_scale(R.bullet(els[b], els[a]), -sign):
                rep.fail(".-antisymmetry fails: %s, %s" % (a, b), max_failures)
    # inner product lands in span(L)
    for u in V:
        for v in V:
            rep.checked += 1
            try:
                R.inner_product(els[u], els[v])
            except ValueError:
                rep.fail("%s . %s is not in span(L)" % (u, v), max_failures)

    for a in ids:
        ea, pa = els[a], par[a]
        for b in ids:
            eb, pb = els[b], par[b]
            sgn_ab = -1 if pa * pb else 1
            for c in ids:
                ec = els[c]
                rep.checked += 1
                # even product associativity and commutativity
                lhs = R.circ(ea, R.circ(eb, ec))
                rhs = R.circ(R.circ(ea, eb), ec)
                if lhs != rhs:
                    rep.fail("o-associativity fails: %s,%s,%s" % (a, b, c),
                             max_failures)
                # odd product Jacobi
                jac = R.bullet(ea, R.bullet(eb, ec))
                el_add_into(jac, R.bullet(eb, R.bullet(ea, ec)),
                            -ONE if sgn_ab > 0 else ONE)
                el_add_into(jac, R.bullet(R.bullet(ea, eb), ec), -ONE)
                if jac:
                    rep.fail(".-Jacobi fails: %s,%s,%s" % (a, b, c),
                             max_failures)
                if not rep.ok and len(rep.failures) >= max_failures:
                    return rep

    # weight-1 elements act as derivations of the even product
    for a in A:
        ea = els[a]
        for x in ids:
            for y in ids:
                rep.checked += 1
                lhs = R.bullet(ea, R.circ(els[x], els[y]))
                rhs = R.circ(R.bullet(ea, els[x]), els[y])
                el_add_into(rhs, R.circ(els[x], R.bullet(ea, els[y])))
                if lhs != rhs:
                    rep.fail("derivation law fails: %s on %s o %s"
                             % (a, x, y), max_failures)

    # mixed Leibniz rule on V x V x F
    for u in V:
        for v in V:
            for f in F:
                rep.checked += 1
                lhs = R.circ(els[u], R.bullet(els[v], els[f]))
                rhs = R.bullet(R.circ(els[u], els[v]), els[f])
                el_add_into(rhs, R.circ(R.bullet(els[u], els[v]), els[f]))
                if lhs != rhs:
                    rep.fail("mixed Leibniz fails: %s,%s,%s" % (u, v, f),
                             max_failures)

    # polarized Clifford-square law on V and A
    for iu, u in enumerate(V):
        for w in V[iu:]:
            inner2 = Scalar.from_int(2) * R.inner_product(els[u], els[w])
            for x in V + A:
                rep.checked += 1
                lhs = R.clifford_act(els[u], R.clifford_act(els[w], els[x]))
                el_add_into(lhs, R.clifford_act(
                    els[w], R.clifford_act(els[u], els[x])))
                if lhs != el_scale(els[x], inner2):
                    rep.fail("square law fails: %s,%s on %s" % (u, w, x),
                             max_failures)
    return rep


# ---------------------------------------------------------------------------
# ideals, center, simplicity
# ---------------------------------------------------------------------------


def center(R: ReducedAlgebra) -> list:
    """Basis of the center (elements killed by every product with every
    basis vector)."""
    rows = []
    ids = [b.id for b in R.basis]
    for n in range(R.max_n() + 1):
        for b in ids:
            for r in range(R.dim):
                row = [ZERO] * R.dim
                live = False
                for k, a in enumerate(ids):
                    el = R.products.get((n, a, b))
                    if el:
                        c = el.get(R.basis[r].id)
                        if c:
                            row[k] = c
                            live = True
                if live:
                    rows.append(row)
    if not rows:
        return [R.element(v) for v in
                ([ONE if i == j else ZERO for j in range(R.dim)]
                 for i in range(R.dim))]
    return [R.element(v) for v in kernel(rows)]


def ideal_closure(R: ReducedAlgebra, seeds) -> Subspace:
    """Smallest subspace containing the seeds and closed under all left
    products by basis vectors."""
    sub = Subspace(R.dim)
    for s in seeds:
        sub.add(R.vector(s))
    ids = [b.id for b in R.basis]
    ns = sorted({n for (n, _, _) in R.products})
    pos = 0
    frontier = [R.element(row) for row in sub.rows]
    while frontier:
        new_frontier = []
        for s in frontier:
            for n in ns:
                for a in ids:
                    prod = R.product_n(R.basis_element(a), n, s)
                    if prod and sub.add(R.vector(prod)):
                        new_frontier.append(prod)
        frontier = new_frontier
        pos += 1
        if pos > R.dim + 1:
            raise RuntimeError("ideal closure failed to stabilize")
    return sub


def f3_subspace(R: ReducedAlgebra) -> list:
    """The weight-1/2 elements annihilated by every triple of successive
    odd-product actions from the weight-3/2 space."""
    F = R.space(Fraction(1, 2))
    V = R.space(Fraction(3, 2))
    if not F:
        return []
    rows = []
    for v1 in V:
        for v2 in V:
            for v3 in V:
                images = []
                for f in F:
                    x = R.bullet(R.basis_element(v3), R.basis_element(f))
                    x = R.bullet(R.basis_element(v2), x)
                    x = R.bullet(R.basis_element(v1), x)
                    images.append(x)
                for r in range(R.dim):
                    rid = R.basis[r].id
                    row = [img.get(rid, ZERO) for img in images]
                    if any(row):
                        rows.append(row)
    if not rows:
        return [R.basis_element(f) for f in F]
    ker = kernel(rows)
    return [{F[k]: c for k, c in enumerate(v) if c} for v in ker]


# ---------------------------------------------------------------------------
# null-basis conventions
# ---------------------------------------------------------------------------
#
# Catalog algebras name their weight-3/2 basis D1, Db1, D2, Db2, ... with an
# optional extra orthonormal vector e<N> in odd dimension.  The inner product
# is (Di, Dbj) = delta_ij, the D's isotropic, (e, e) = 1.


def null_pairs(R: ReducedAlgebra):
    """(pairs, odd) where pairs = [(D1, Db1), ...] and odd is the leftover
    orthonormal generator id or None.  Raises if V is not named by the
    null-basis convention."""
    V = R.space(Fraction(3, 2))
    ds, dbs, odd = {}, {}, None
    for v in V:
        if v.startswith("Db"):
            dbs[int(v[2:])] = v
        elif v.startswith("D"):
            ds[int(v[1:])] = v
        elif v.startswith("e"):
            if odd is not None:
                raise ValueError("two odd generators")
            odd = v
        else:
            raise ValueError("unrecognized null-basis id %r" % v)
    if sorted(ds) != sorted(dbs) or sorted(ds) != list(range(1, len(ds) + 1)):
        raise ValueError("unpaired null generators")
    return [(ds[k], dbs[k]) for k in sorted(ds)], odd


def wedge_basis(R: ReducedAlgebra):
    """The fixed ordered basis of the wedge square of V: first the diagonal
    wedges Dbi ^ Di, then per pair i < j the four mixed wedges, then the
    wedges with the odd generator."""
    pairs, odd = null_pairs(R)
    out = [(db, d) for (d, db) in pairs]
    n = len(pairs)
    for i in range(n):
        di, dbi = pairs[i]
        for j in range(i + 1, n):
            dj, dbj = pairs[j]
            out += [(di, dj), (dbi, dj), (di, dbj), (dbi, dbj)]
    if odd is not None:
        for (d, db) in pairs:
            out += [(d, odd), (db, odd)]
    return out


def form_V_wedge_V(R: ReducedAlgebra):
    """Gram matrix of the invariant form on the wedge square of V, on the
    fixed wedge basis order."""
    wb = [(R.basis_element(u), R.basis_element(v)) for (u, v) in wedge_basis(R)]
    return R.wedge_gram(wb)


def form_V3(R: ReducedAlgebra):
    """Gram matrix of the invariant form on the third wedge power of V,
    on the lexicographic triple basis."""
    V = R.space(Fraction(3, 2))
    triples = [(V[i], V[j], V[k])
               for i in range(len(V))
               for j in range(i + 1, len(V))
               for k in range(j + 1, len(V))]
    e = R.basis_element
    return [[R.form_wedge3(e(u1), e(u2), e(u3), e(v1), e(v2), e(v3))
             for (v1, v2, v3) in triples]
            for (u1, u2, u3) in triples]


def alpha_matrix(R: ReducedAlgebra):
    """alpha[i][j] defined by Di . Dbi . Dj o Dbj = alpha_{i,j} L."""
    pairs, _ = null_pairs(R)
    e = R.basis_element
    out = []
    for (di, dbi) in pairs:
        row = []
        for (dj, dbj) in pairs:
            x = R.circ(e(dj), e(dbj))
            x = R.bullet(e(dbi), x)
            x = R.bullet(e(di), x)
            row.append(R.coeff_of_L(x))
        out.append(row)
    return out


@dataclass
class SimplicityResult:
    simple: bool
    reason: str
    witness: dict | None = None


def is_simple(R: ReducedAlgebra) -> SimplicityResult:
    """Simplicity test.

    With a nonzero weight-3/2 space this is: the inner product is
    nondegenerate and the triple-annihilated part of the weight-1/2 space
    vanishes.  Otherwise every basis vector must generate the whole space.
    """
    cen = center(R)
    if cen:
        return SimplicityResult(False, "nonzero center", cen[0])
    V = R.space(Fraction(3, 2))
    if V:
        gram = R.inner_gram()
        ker = kernel(gram) if gram else []
        if ker:
            witness = {V[k]: c for k, c in enumerate(ker[0]) if c}
            return SimplicityResult(False, "degenerate inner product",
                                    witness)
        f3 = f3_subspace(R)
        if f3:
            return SimplicityResult(False,
                                    "triple-annihilated weight-1/2 vector",
                                    f3[0])
        return SimplicityResult(True, "nondegenerate inner product and "
                                      "trivial triple annihilator")
    for b in R.basis:
        if ideal_closure(R, [R.basis_element(b.id)]).dim != R.dim:
            return SimplicityResult(False,
                                    "proper ideal generated by %s" % b.id,
                                    R.basis_element(b.id))
    return SimplicityResult(True, "every basis vector generates everything")


def is_simple_physical(R: ReducedAlgebra) -> SimplicityResult:
    if not is_physical_shape(R):
        raise ValueError("not a physical algebra")
    return is_simple(R)


def quotient(R: ReducedAlgebra, ideal: Subspace) -> ReducedAlgebra:
    """Quotient by a weight-homogeneous ideal, presented on the basis
    vectors at non-pivot coordinates."""
    pivots = set(ideal.pivots)
    keep = [k for k in range(R.dim) if k not in pivots]
    if R.index[R.L] in pivots:
        raise ValueError("ideal contains the conformal vector")
    new_basis = [R.basis[k] for k in keep]

    def project(el: dict) -> dict:
        vec = ideal.reduce(R.vector(el))
        return {R.basis[k].id: vec[k] for k in keep if vec[k]}

    kept_ids = {b.id for b in new_basis}
    products = {}
    for (n, a, b), el in R.products.items():
        if a in kept_ids and b in kept_ids:
            proj = project(el)
            if proj:
                products[(n, a, b)] = proj
    return ReducedAlgebra(new_basis, R.L, products)
