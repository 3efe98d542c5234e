"""Reduced subspaces of conformal superalgebras.

A `ReducedAlgebra` stores a finite weight-homogeneous basis, a distinguished
conformal vector L of weight 2, and sparse tables of indexed bilinear products
labelled by a non-negative integer n.  The weight rule for products is
weight(a <n> b) = weight(a) + weight(b) - n - 1 and parities add modulo 2.

For the physical case (weights in {2, 3/2, 1, 1/2}) only the <0> and the <1>
products survive; two derived products are used throughout:

    a o b = (a <1> b) / (wt(a) + wt(b) - 2)    (0 when the weight sum is 2)
    a . b = a <0> b

Both are read from read-only tables keyed by basis pair, through the one
kernel that `product_n` also uses: the o table, with its divisions done, is
built on first use, and the . table is the <0> slice of the stored products.

All checkers return a `Report` listing failing instances instead of raising.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from math import comb

from . import scalars
from .scalars import Scalar, ZERO, ONE, MINUS_ONE, TWO
from .linalg import Subspace, el_add_into, el_scale, kernel, row_space

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


@lru_cache(maxsize=None)
def coeff_F(da: Fraction, db: Fraction, m: int, n: int, t: int) -> Fraction:
    """Term 3's coefficient of the quadratic identity, for m, n >= 0 and t
    <= m + n, where both binomials have a natural upper index."""
    out = Fraction(0)
    for k in range(t + 1):
        c = comb(m, t - k) * comb(m + n + k - t, k)
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
    """A checker's verdict `ok`, its count of instances `checked`, and at
    most `max_failures` failure messages: the cap bounds the list, not the
    verdict.  Once `full` (failed, with the cap reached) the checker stops
    at its next stopping point; at a cap <= 0 no failure is listed."""
    ok: bool = True
    checked: int = 0
    failures: list = field(default_factory=list)
    max_failures: int = 20

    @property
    def full(self) -> bool:
        return not self.ok and len(self.failures) >= self.max_failures

    def fail(self, msg: str) -> bool:
        """Record a failure; return whether the Report is now full."""
        self.ok = False
        if len(self.failures) < self.max_failures:
            self.failures.append(msg)
        return self.full

    def summary(self) -> str:
        if self.ok:
            return "ok (%d instances checked)" % self.checked
        return "FAILED (%d instances checked, %d failures)\n%s" % (
            self.checked, len(self.failures),
            "\n".join("  " + f for f in self.failures))


# The weights of L, the supercharges V, the currents A and the fermions F
W_L, W_V, W_A, W_F = Fraction(2), Fraction(3, 2), Fraction(1), Fraction(1, 2)
PHYSICAL_WEIGHTS = {W_L, W_V, W_A, W_F}


def physical_basis(vnames, na: int, nf: int) -> list:
    """The basis of a physical algebra: L, then vnames at weight 3/2,
    A1..A<na> at 1 and F1..F<nf> at 1/2, each odd exactly when its weight
    is half-integral."""
    return ([BasisVector("L", W_L, 0)]
            + [BasisVector(v, W_V, 1) for v in vnames]
            + [BasisVector("A%d" % k, W_A, 0) for k in range(1, na + 1)]
            + [BasisVector("F%d" % k, W_F, 1) for k in range(1, nf + 1)])


# Largest checker bound.  A table may store n up to MAX_N // 2, so that P's
# complete bound, twice the largest stored n, is one the checkers accept;
# the catalog tables stop at n = 1.
MAX_N = 64


def check_bounds(bounds: dict) -> None:
    """Raise ValueError unless every named checker bound that is set lies
    in 0..MAX_N."""
    for name, value in bounds.items():
        if value is not None and not 0 <= value <= MAX_N:
            raise ValueError("%s must lie in 0..%d" % (name, MAX_N))


_WEIGHT = re.compile(r"-?([0-9]+)(?:/([0-9]+))?")


def _weight(value) -> Fraction:
    """A weight as `to_json` writes it: a JSON integer, or a string N or
    N/M with an optional minus sign and at most MAX_DIGITS digits in each
    part.  Other forms, exponents in particular, are rejected, and so is a
    weight <= 0 (see `check_well_formed`)."""
    text = str(value) if type(value) is int else value
    m = _WEIGHT.fullmatch(text) if isinstance(text, str) else None
    if not m or any(g and len(g) > scalars.MAX_DIGITS for g in m.groups()):
        raise ValueError("bad weight %.40r" % (value,))
    if Fraction(text) <= 0:
        raise ValueError("weight %s is not positive" % text)
    return Fraction(text)


def _json_typed(value, kind: type, what: str):
    """value when its type is exactly kind, int for a JSON integer, str for
    a JSON string or dict for a JSON object; floats, booleans and the other
    kinds are rejected."""
    if type(value) is not kind:
        raise ValueError("%s must be a JSON %s, not %.40r" % (
            what, {int: "integer", str: "string", dict: "object"}[kind],
            value))
    return value


def _json_objects(value, what: str) -> list:
    """value when it is a JSON array of objects."""
    if type(value) is not list or any(type(x) is not dict for x in value):
        raise ValueError("%s must be a JSON array of objects, not %.40r"
                         % (what, value))
    return value


def _mul(table: dict, x: dict, y: dict) -> dict:
    """The bilinear extension to elements x, y of a basis-pair table
    {(a, b): element}."""
    out = {}
    for a, ca in x.items():
        for b, cb in y.items():
            tab = table.get((a, b))
            if tab:
                el_add_into(out, tab, ca * cb)
    return out


def _join_index(entries, pos) -> dict:
    """The join index {pa: {pb: ((n, pt, c), ...)}} of entries ((n, a, b),
    el): a term (n, pt, c) for each term c t of each <a n b>, every id given
    by its basis position in pos.  One flat tuple per pair keeps the index
    small; a stored product has about one term."""
    out = {}
    for (n, a, b), el in entries:
        row = out.setdefault(pos[a], {})
        pb = pos[b]
        row[pb] = row.get(pb, ()) + tuple((n, pos[t], c)
                                          for t, c in el.items())
    return out


class ReducedAlgebra:
    """A finite-dimensional reduced subspace with its indexed products.

    `__init__` also builds `_by_n`, {n: {(a, b): <a n b>}}.  P's joins
    (`_join`) read `join_index`, the stored products keyed by basis
    position, and the weight position of each basis position from
    `weight_positions`, both built on first use, so a table rejected before
    the quadratic identity never builds them.  The derived products
    read the read-only tables `circ_table`, built on first use, and
    `bullet_table`, the stored <0> products."""

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
        index = self.index
        if products:
            for (n, a, b), el in products.items():
                if not 0 <= n <= MAX_N // 2:
                    raise ValueError("product <%s %d %s>: n outside 0..%d"
                                     % (a, n, b, MAX_N // 2))
                if not (a in index and b in index
                        and el.keys() <= index.keys()):
                    unknown = [x for x in (a, b, *el) if x not in index]
                    raise ValueError("product <%s %d %s> names ids outside "
                                     "the basis: %r" % (a, n, b, unknown))
                # an element with no zero is kept as given, not copied
                if not all(el.values()):
                    el = {k: v for k, v in el.items() if v}
                if el:
                    self.products[(n, a, b)] = el
        # the table is not changed after construction, and neither are the
        # elements it shares with the caller; _by_n holds the same elements
        self._by_n = {}
        for (n, a, b), el in self.products.items():
            self._by_n.setdefault(n, {})[a, b] = el
        self._max_n = max(self._by_n, default=0)

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

    def vector(self, el: dict) -> dict:
        """el keyed by basis position, the column order of a Subspace."""
        return {self.index[k]: c for k, c in el.items()}

    def element(self, vec: dict) -> dict:
        """The element of a vector keyed by basis position, in basis
        order."""
        return {self.basis[k].id: vec[k] for k in sorted(vec)}

    # -- products -----------------------------------------------------------

    def product_basis(self, n: int, a: str, b: str) -> dict:
        return self.products.get((n, a, b), {})

    @cached_property
    def weight_positions(self) -> tuple:
        """(weights, at): the distinct basis weights in increasing order
        and, for each basis position, the position of its weight in that
        list; read only.  Tables keyed by positions avoid hashing
        Fractions."""
        weights = sorted(self.weight_dims())
        return weights, [weights.index(b.weight) for b in self.basis]

    @cached_property
    def join_index(self) -> dict:
        """{pa: {pb: ((n, pt, c), ...)}}: the terms c t of each stored
        <a n b>, a, b and t given by basis position; read only."""
        return _join_index(self.products.items(), self.index)

    @cached_property
    def circ_table(self) -> dict:
        """{(a, b): a o b} over the stored <a 1 b> whose weight sum is not 2;
        read only.  One reciprocal is made per pair of weights."""
        (weights, at), index = self.weight_positions, self.index
        out, inv = {}, {}
        for (a, b), el in self._by_n.get(1, {}).items():
            k = at[index[a]], at[index[b]]
            if k not in inv:
                d = weights[k[0]] + weights[k[1]] - 2
                inv[k] = Scalar.from_fraction(1 / d) if d else ZERO
            if inv[k]:
                out[a, b] = el_scale(el, inv[k])
        return out

    @property
    def bullet_table(self) -> dict:
        """{(a, b): a . b} over the stored <a 0 b>; read only."""
        return self._by_n.get(0, {})

    def product_n(self, x: dict, n: int, y: dict) -> dict:
        return _mul(self._by_n.get(n, {}), x, y)

    def circ(self, x: dict, y: dict) -> dict:
        return _mul(self.circ_table, x, y)

    def bullet(self, x: dict, y: dict) -> dict:
        return _mul(self.bullet_table, x, y)

    def clifford_act(self, v: dict, x: dict) -> dict:
        out = self.circ(v, x)
        el_add_into(out, self.bullet(v, x))
        return out

    # -- graded pieces ------------------------------------------------------

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

    def inner_gram(self) -> list:
        """The inner products (u, v) = u . v on the weight-3/2 space as
        sparse rows: row i is {j: (V_i, V_j)}."""
        V = [self.basis_element(b) for b in self.space(W_V)]
        return [{j: c for j, v in enumerate(V)
                 if (c := self.coeff_of_L(self.bullet(u, v)))} for u in V]

    def form_wedge(self, u, v, w, z) -> Scalar:
        """(u^v, w^z) = u . (v . (w o z)) on the wedge square of the
        weight-3/2 space."""
        return self.coeff_of_L(self.bullet(u, self.bullet(v, self.circ(w, z))))

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
        doc = _json_typed(json.loads(text), dict, "the document")
        try:
            basis = [BasisVector(_json_typed(b["id"], str, "basis id"),
                                 _weight(b["weight"]),
                                 _json_typed(b["parity"], int, "parity"))
                     for b in _json_objects(doc["basis"], "basis")]
            products = {}
            for p in _json_objects(doc["products"], "products"):
                key = (_json_typed(p["n"], int, "product index n"),
                       _json_typed(p["a"], str, "product id a"),
                       _json_typed(p["b"], str, "product id b"))
                if key in products:
                    raise ValueError("product <%s %d %s> is listed twice"
                                     % (key[1], key[0], key[2]))
                el = {}
                for t in _json_objects(p["terms"], "terms"):
                    tb = _json_typed(t["basis"], str, "term basis")
                    if tb in el:
                        raise ValueError(
                            "product <%s %d %s> lists term %s twice"
                            % (key[1], key[0], key[2], tb))
                    el[tb] = scalars.parse(_json_typed(t["coeff"], str,
                                                       "term coeff"))
                products[key] = el
            L = _json_typed(doc["L"], str, "L")
        except KeyError as exc:
            raise ValueError("missing field %s" % exc) from None
        return ReducedAlgebra(basis, L, products)

    # -- mutation helper (for sensitivity tests) ---------------------------

    def sign_mutations(self):
        """Yield (label, algebra) pairs, each with exactly one structure
        constant negated."""
        for key in sorted(self.products,
                          key=lambda k: (k[0], self.index[k[1]],
                                         self.index[k[2]])):
            for t in sorted(self.products[key], key=lambda t: self.index[t]):
                # the elements are never changed, so the mutant shares all
                # but the mutated one, which is copied here
                prods = dict(self.products)
                prods[key] = el = dict(prods[key])
                el[t] = -el[t]
                label = "<%s %d %s> term %s" % (key[1], key[0], key[2], t)
                yield label, ReducedAlgebra(self.basis, self.L, prods)


# ---------------------------------------------------------------------------
# axiom checkers
# ---------------------------------------------------------------------------


def check_well_formed(R: ReducedAlgebra, max_failures: int = 20) -> Report:
    """Weight and parity bookkeeping of the stored tables, plus the
    vanishing bound (every stored product has a finite n and correct
    gradings).  A basis weight w <= 0 is reported, uncounted: then
    L_(2) d^(k) a = (k - 1 + 2w) d^(k-1) a vanishes for some k >= 1, and
    the quasi-primary d^(k) a is outside the reduced description.

    Only the stored products are visited, one instance per term; a pair
    with no stored product has nothing to check and adds nothing to
    `checked`.  Weights are compared as positions in
    `R.weight_positions`, with one expected weight per (n, weight of a,
    weight of b)."""
    rep = Report(max_failures=max_failures)
    for b in R.basis:
        if b.weight <= 0:
            rep.fail("basis vector %s has weight %s, not positive"
                     % (b.id, b.weight))
    (weights, at), index = R.weight_positions, R.index
    par = {b.id: b.parity for b in R.basis}
    expected = {}
    for (n, a, b), el in R.products.items():
        key = n, at[index[a]], at[index[b]]
        if key not in expected:
            w = weights[key[1]] + weights[key[2]] - n - 1
            expected[key] = w, weights.index(w) if w in weights else -1
        w, e = expected[key]
        p = (par[a] + par[b]) % 2
        rep.checked += len(el)
        for t in el:
            if at[index[t]] != e:
                rep.fail("<%s %d %s>: term %s has weight %s, expected %s"
                         % (a, n, b, t, weights[at[index[t]]], w))
            if par[t] != p:
                rep.fail("<%s %d %s>: term %s has parity %d, expected %d"
                         % (a, n, b, t, par[t], p))
    return rep


def _graded_asymmetric(table: dict, f: int, par: dict) -> list:
    """The pairs (a, b) of a basis-pair table {(a, b): element}, each with
    its swap, that break the graded symmetry a b = (-1)^(f + |a||b|) b a; a
    pair with no entry either way holds."""
    bad = []
    for (a, b), el in table.items():
        swap = table.get((b, a), {})
        if (f + par[a] * par[b]) % 2:
            swap = {k: -c for k, c in swap.items()}
        if el != swap:
            bad += [(a, b), (b, a)]
    return bad


def _join(R, index: dict, pa: int, pb: int, coeffs, odd: int, width: int,
          left: dict = None) -> dict:
    """The three terms of an identity on (a, b, c), for every c at once, a
    and b given by basis position, joined over a join index `index`
    (`ReducedAlgebra.join_index`'s form); the rows of a are read from
    `left` when it is given:

        term 1: each term ct t of a stored <b i c>, then <a o t>;
        term 2: each term ct t of a stored <a i c>, then <b o t>;
        term 3: each term ct t of a stored <a i b>, then <t o c>.

    Each term v u of the outer product adds k ct v u at key position(c) *
    width + off for each (off, k) in coeffs(term, x, y, i)[o], x and y the
    weight positions of the inner pair; coeffs gives None for an i with no
    coefficient at any o.  Term 2 is asked for as term -2 when a and b are
    not both odd, and its coefficients then carry the sign
    (-1)^(|a||b| + 1).  The sums are kept in one flat dict keyed key * dim
    + position(u), where a cancelled sum stays until the end.  Returns
    {key: whether its sum is nonzero} over every key that a term reached."""
    wat, dim, acc = R.weight_positions[1], R.dim, {}
    get = acc.get
    ra, rb = (index if left is None else left).get(pa, {}), index.get(pb, {})
    for term, x, inner, outer in ((1, wat[pb], rb, ra),
                                  (2 if odd else -2, wat[pa], ra, rb)):
        for pc, prods in inner.items():
            base, y = pc * width, wat[pc]
            for i, pt, ct in prods:
                outs = outer.get(pt)
                lists = outs and coeffs(term, x, y, i)
                for o, pu, v in outs if lists else ():
                    for off, k in lists[o]:
                        f = ct if k is ONE else k * ct
                        q = (base + off) * dim + pu
                        v_f = v if f is ONE else v * f
                        s = get(q)
                        acc[q] = v_f if s is None else s + v_f
    wa, wb = wat[pa], wat[pb]
    for i, pt, ct in ra.get(pb, ()):
        lists = coeffs(3, wa, wb, i)
        for pc, prods in index.get(pt, {}).items() if lists else ():
            base = pc * width
            for o, pu, v in prods:
                for off, k in lists[o]:
                    f = ct if k is ONE else k * ct
                    q = (base + off) * dim + pu
                    v_f = v if f is ONE else v * f
                    s = get(q)
                    acc[q] = v_f if s is None else s + v_f
    out = {}
    for q, s in acc.items():
        if s:
            out[q // dim] = True
        else:
            out.setdefault(q // dim, False)
    return out


def check_P_axioms(R: ReducedAlgebra, m_max: int | None = None,
                   n_max: int | None = None,
                   max_failures: int = 20) -> Report:
    """Skew symmetry, the quadratic identity for m <= m_max and n <= n_max,
    and the conformal-vector conditions, over all basis triples.  An unset
    bound is the complete one, 2 max_n and at least 2: past m + n = 2
    max_n every instance of the identity is vacuous.

    The quadratic identity is joined one pair (a, b) at a time by `_join`
    over `R.join_index`, instance (c, m, n) at key (position(c) * (m_max +
    1) + m) * (n_max + 1) + n.  An instance no term reaches holds
    unvisited, so the cost does not grow with the bounds, and only the
    reached keys whose sum is nonzero fail.  Failures come in key order,
    that of the full loop over a, b, c, m, n.  `checked` counts the
    instances of that loop, all of them or those up to a stop: the failure
    that fills the Report or, for a Report full before the identity, the
    first instance, as in H.

    Skew symmetry counts all (max_n + 1) * dim**2 instances (n, a, b) in
    `checked` but visits only the stored <a n b>, each against its swap,
    and reports the failing pairs in the order (n, a, b) of the full loop;
    a pair with no stored product either way holds and is counted as
    checked without being visited."""
    top = R.max_n()
    m_max = max(2, 2 * top) if m_max is None else m_max
    n_max = max(2, 2 * top) if n_max is None else n_max
    check_bounds({"m_max": m_max, "n_max": n_max})
    rep = check_well_formed(R, max_failures)
    ids = [b.id for b in R.basis]
    idx = R.index
    par = {b.id: b.parity for b in R.basis}

    # skew symmetry; the identity holds for (n, a, b) exactly when it holds
    # for (n, b, a), so the stored products find every failing pair
    rep.checked += (top + 1) * R.dim ** 2
    bad = {(n, a, b) for n, table in R._by_n.items()
           for a, b in _graded_asymmetric(table, n + 1, par)}
    for n, a, b in sorted(bad, key=lambda k: (k[0], idx[k[1]], idx[k[2]])):
        rep.fail("skew fails: <%s %d %s>" % (a, n, b))

    # conformal vector conditions
    L = R.L
    rep.checked += 1
    if R.parity(L) != 0 or R.weight(L) != 2:
        rep.fail("conformal vector must be even of weight 2")
    if R.product_basis(1, L, L) != {L: TWO}:
        rep.fail("<L 1 L> != 2L")
    for a in ids:
        rep.checked += 1
        if R.product_basis(0, L, a):
            rep.fail("<L 0 %s> != 0" % a)
        want = {a: Scalar.from_fraction(R.weight(a))} if R.weight(a) else {}
        if R.product_basis(1, L, a) != want:
            rep.fail("<L 1 %s> is not weight * %s" % (a, a))
        two = R.product_basis(2, L, a)
        if any(R.weight(t) != 0 for t in two):
            rep.fail("<L 2 %s> is not central of weight 0" % a)

    # the quadratic identity, one pair (a, b) at a time
    if rep.full:
        rep.checked += 1
        return rep
    coeffs = _quadratic_coeffs(R.weight_positions[0], m_max, n_max, top)
    width = (m_max + 1) * (n_max + 1)
    index, grid = R.join_index, rep.checked
    for pa, a in enumerate(ids):
        for pb, b in enumerate(ids):
            sums = _join(R, index, pa, pb, coeffs, par[a] * par[b], width)
            at = grid + 1 + (pa * R.dim + pb) * R.dim * width
            for key in sorted(k for k, nonzero in sums.items() if nonzero):
                m, n = divmod(key % width, n_max + 1)
                if rep.fail("identity fails: a=%s b=%s c=%s m=%d n=%d"
                            % (a, b, ids[key // width], m, n)):
                    rep.checked = at + key
                    return rep
    rep.checked = grid + R.dim ** 3 * width
    return rep


@lru_cache(maxsize=None)
def _g_scalar(wx: Fraction, wy: Fraction, p: int, q: int, j: int,
              sign: int) -> Scalar:
    return Scalar.from_fraction(sign * comb(p, j) * coeff_G(wx, wy, q, j))


@lru_cache(maxsize=None)
def _f_scalar(wx: Fraction, wy: Fraction, m: int, n: int, j: int) -> Scalar:
    return Scalar.from_fraction(-coeff_F(wx, wy, m, n, j))


def _quadratic_coeffs(weights: list, m_max: int, n_max: int, top: int):
    """The coefficients of the quadratic identity as `_join` reads them:
    coeffs(term, x, y, i)[o], for o <= top, lists the (m * (n_max + 1) +
    n, k) over the (m, n) in bounds that the product indices (i, o) reach,
    with k != 0, x and y being positions in `weights`; it is None when no
    o has one:

        term 1 at m = o + j, n = i - j:  k = C(m, j) coeff_G(wb, wc, n, j);
        term 2 at m = i - j, n = o + j:  k = C(n, j) coeff_G(wa, wc, m, j),
                                         and -k as term -2;
        term 3 at m + n = i + o:         k = -coeff_F(wa, wb, m, n, i).

    Lists are made on first use, from Scalars that `_g_scalar` and
    `_f_scalar` keep for the process, so only the (m, n, j) a join reaches
    are visited, whatever the bounds."""
    w = n_max + 1

    def pairs(term, wx, wy, i, o):
        if term == 3:
            s = i + o
            return tuple((m * w + s - m, k)
                         for m in range(max(0, s - n_max), min(m_max, s) + 1)
                         if (k := _f_scalar(wx, wy, m, s - m, i)))
        pmax, qmax = (m_max, n_max) if term == 1 else (n_max, m_max)
        out = []
        for j in range(max(0, i - qmax), min(i, pmax - o) + 1):
            p, q = o + j, i - j
            if k := _g_scalar(wx, wy, p, q, j, -1 if term < 0 else 1):
                out.append((p * w + q if term == 1 else q * w + p, k))
        return tuple(out)

    @lru_cache(maxsize=None)
    def coeffs(term, x, y, i):
        lists = tuple(pairs(term, weights[x], weights[y], i, o)
                      for o in range(top + 1))
        return lists if any(lists) else None

    return coeffs


def require_axioms(R: ReducedAlgebra, exc_type, prefix: str) -> None:
    """The one gate between a table and a verdict: raise
    exc_type(prefix + summary of the failing Report) unless R passes
    P at its complete bounds, and then H when R has physical shape."""
    rep = check_P_axioms(R)
    if rep.ok and is_physical_shape(R):
        rep = check_H_axioms(R)
    if not rep.ok:
        raise exc_type(prefix + rep.summary())


def is_physical_shape(R: ReducedAlgebra) -> bool:
    if any(b.weight not in PHYSICAL_WEIGHTS for b in R.basis):
        return False
    if len(R.space(W_L)) != 1:
        return False
    for b in R.basis:
        want = 0 if b.weight.denominator == 1 else 1
        if b.parity != want:
            return False
    return all(n <= 1 for (n, _, _) in R.products)


@lru_cache(maxsize=None)
def _derived_coeffs(term, x, y, i):
    """`_join`'s coefficients of a o (b o c) - (a o b) o c on the o index,
    whose products carry the index f = 0, and of a . (b . c) -
    (-1)^(|a||b|) b . (a . c) - (a . b) . c on the . index, f = 1, at key
    offset f; the o identity has no term 2."""
    if abs(term) == 2 and i == 0:
        return None
    k = MINUS_ONE if term in (-2, 3) else ONE
    return (((0, k),), ()) if i == 0 else ((), ((1, k),))


@lru_cache(maxsize=None)
def _derivation_coeffs(term, x, y, i):
    """`_join`'s coefficients of a . (x o y) - x o (a . y) - (a . x) o y on
    the pair (a, x), a of weight 1 and so even: a's rows are read from the
    . index (index 1) and all others from the o index (index 0), so every
    path has its coefficient.  Term 1 reaches a row of a's, terms -2 and 3
    an o row."""
    k = MINUS_ONE if term in (-2, 3) else ONE
    return ((), ((0, k),)) if term == 1 else (((0, k),), ())


def check_H_axioms(R: ReducedAlgebra, max_failures: int = 20) -> Report:
    """The identities satisfied by the two derived products of a physical
    algebra: unit laws, graded symmetry, associativity of the even product,
    the Leibniz rules and the Clifford-square law.

    o-associativity and the .-Jacobi identity are joined by `_join` one
    pair (a, b) at a time, over join indexes of the o and the . table, the
    triple (a, b, c) at keys 2 * position(c) + f, f = 0 for o and 1 for .;
    the derivation law one pair (a, x) at a time over the same two
    indexes, keyed by position(y).  A triple no term reaches holds
    unvisited, and only the reached keys whose sum is nonzero fail.
    Failures come in the order of the full loops, and H stops at the
    failure that fills the Report in any section: `checked` counts the
    instances of the full loops, all of them or those up to that one, and
    a Report full before the triples stops at the first one.  Graded
    symmetry visits only the stored o and . pairs, each against its swap,
    and counts all dim**2."""
    rep = Report(max_failures=max_failures)
    if not is_physical_shape(R):
        rep.fail("not of physical shape "
                 "(weights, parities or product indices are off)")
        return rep
    ids = [b.id for b in R.basis]
    els = {a: R.basis_element(a) for a in ids}
    par = {b.id: b.parity for b in R.basis}
    V = R.space(W_V)
    A = R.space(W_A)
    F = R.space(W_F)
    # the products of two basis vectors are read from the tables
    C, B, no = R.circ_table, R.bullet_table, {}

    for a in ids:
        rep.checked += 1
        if C.get((R.L, a), no) != els[a]:
            rep.fail("L o %s != %s" % (a, a))
        if (R.L, a) in B:
            rep.fail("L . %s != 0" % a)

    # graded symmetry of o (f = 0) and . (f = 1); as for skew symmetry in
    # P, the stored pairs find every failing pair and its swap
    rep.checked += R.dim ** 2
    bad = {(a, b, f) for f, table in enumerate((C, B))
           for a, b in _graded_asymmetric(table, f, par)}
    idx, family = R.index, ("o-symmetry", ".-antisymmetry")
    for a, b, f in sorted(bad, key=lambda k: (idx[k[0]], idx[k[1]], k[2])):
        rep.fail("%s fails: %s, %s" % (family[f], a, b))
    # inner product lands in span(L); the square law below reads these
    # values and skips the pairs reported here
    inner = {}
    for u in V:
        for v in V:
            rep.checked += 1
            try:
                inner[u, v] = R.coeff_of_L(B.get((u, v), no))
            except ValueError:
                rep.fail("%s . %s is not in span(L)" % (u, v))

    # o-associativity and the .-Jacobi identity, one pair (a, b) at a time
    if rep.full:
        rep.checked += 1
        return rep
    circ, dot = (_join_index((((f, x, y), el)
                              for (x, y), el in table.items()), idx)
                 for f, table in enumerate((C, B)))
    grid = rep.checked
    for pa, a in enumerate(ids):
        for pb, b in enumerate(ids):
            odd = par[a] * par[b]
            sums = _join(R, circ, pa, pb, _derived_coeffs, odd, 2)
            sums.update(_join(R, dot, pa, pb, _derived_coeffs, odd, 2))
            at = grid + 1 + (pa * R.dim + pb) * R.dim
            for key in sorted(k for k, nonzero in sums.items() if nonzero):
                rep.fail("%s fails: %s,%s,%s" % (
                    ("o-associativity", ".-Jacobi")[key % 2], a, b,
                    ids[key // 2]))
                if rep.full:
                    rep.checked = at + key // 2
                    return rep
    rep.checked = grid + R.dim ** 3

    # weight-1 elements act as derivations of the even product, joined one
    # pair (a, x) at a time
    grid = rep.checked
    rep.checked += len(A) * R.dim ** 2
    for ia, a in enumerate(A):
        for px, x in enumerate(ids):
            sums = _join(R, circ, idx[a], px, _derivation_coeffs,
                         par[a] * par[x], 1, left=dot)
            at = grid + 1 + (ia * R.dim + px) * R.dim
            for key in sorted(k for k, nonzero in sums.items() if nonzero):
                if rep.fail("derivation law fails: %s on %s o %s"
                            % (a, x, ids[key])):
                    rep.checked = at + key
                    return rep

    # mixed Leibniz rule on V x V x F
    for u in V:
        for v in V:
            for f in F:
                rep.checked += 1
                lhs = R.circ(els[u], B.get((v, f), no))
                rhs = R.bullet(C.get((u, v), no), els[f])
                el_add_into(rhs, R.circ(B.get((u, v), no), els[f]))
                if lhs != rhs and rep.fail(
                        "mixed Leibniz fails: %s,%s,%s" % (u, v, f)):
                    return rep

    # polarized Clifford-square law on V and A
    for iu, u in enumerate(V):
        for w in V[iu:]:
            if (u, w) not in inner:
                continue
            inner2 = TWO * inner[u, w]
            for x in V + A:
                rep.checked += 1
                lhs = R.clifford_act(els[u], R.clifford_act(els[w], els[x]))
                el_add_into(lhs, R.clifford_act(
                    els[w], R.clifford_act(els[u], els[x])))
                if lhs != el_scale(els[x], inner2) and rep.fail(
                        "square law fails: %s,%s on %s" % (u, w, x)):
                    return rep
    return rep


# ---------------------------------------------------------------------------
# ideals, center, simplicity
# ---------------------------------------------------------------------------


def center(R: ReducedAlgebra) -> list:
    """Basis of the center (elements killed by every product with every
    basis vector)."""
    # one row per (n, b, r): the coefficient of basis vector r in a_(n) b,
    # in the column of a
    rows = {}
    for (n, a, b), el in R.products.items():
        for r, c in el.items():
            rows.setdefault((n, b, r), {})[R.index[a]] = c
    return [R.element(v) for v in kernel(rows.values(), R.dim)]


def ideal_closure(R: ReducedAlgebra, seeds) -> Subspace:
    """Smallest subspace containing the seeds and closed under all left
    products by basis vectors.  A round after the first has a frontier only
    if the one before it grew `sub`, so there are at most dim + 1 rounds."""
    sub = row_space((R.vector(s) for s in seeds), R.dim)
    ids = [b.id for b in R.basis]
    ns = sorted({n for (n, _, _) in R.products})
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
    return sub


def f3_subspace(R: ReducedAlgebra) -> list:
    """The weight-1/2 elements annihilated by every triple of successive
    odd-product actions from the weight-3/2 space."""
    F = R.space(W_F)
    V = R.space(W_V)
    if not F:
        return []
    # one row per (v1, v2, v3, r): the coefficient of basis vector r in
    # v1 . (v2 . (v3 . f)), in the column of f; each inner product is formed
    # once, and the kernel depends only on the span of the rows
    rows = {}
    for k, f in enumerate(F):
        for v3 in V:
            x3 = R.bullet(R.basis_element(v3), R.basis_element(f))
            for v2 in V:
                x2 = R.bullet(R.basis_element(v2), x3)
                for v1 in V:
                    for r, c in R.bullet(R.basis_element(v1), x2).items():
                        rows.setdefault((v1, v2, v3, r), {})[k] = c
    return [{F[k]: c for k, c in v.items()} for v in kernel(rows.values(),
                                                             len(F))]


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
    V = R.space(W_V)
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
    fixed wedge basis order, as sparse rows."""
    wb = [(R.basis_element(u), R.basis_element(v)) for (u, v) in wedge_basis(R)]
    return [{c: g for c, g in enumerate(R.form_wedge(u, v, w, z)
                                         for (w, z) in wb) if g}
            for (u, v) in wb]


def form_V3(R: ReducedAlgebra):
    """Gram matrix of the invariant form
    (u1^u2^u3, v1^v2^v3) = u3 . (u2 . (u1 . (v1 o (v2 o v3)))) on the third
    wedge power of V, on the lexicographic triple basis, as sparse rows."""
    triples = [tuple(map(R.basis_element, t))
               for t in combinations(R.space(W_V), 3)]

    def pair(u, v):
        x = R.circ(v[0], R.circ(v[1], v[2]))
        return R.coeff_of_L(R.bullet(u[2], R.bullet(u[1], R.bullet(u[0], x))))

    return [{c: g for c, g in enumerate(pair(u, v) for v in triples) if g}
            for u in triples]


def alpha_matrix(R: ReducedAlgebra):
    """alpha[i][j] defined by Di . Dbi . Dj o Dbj = alpha_{i,j} L."""
    pairs, _ = null_pairs(R)
    e = R.basis_element
    return [[R.form_wedge(e(di), e(dbi), e(dj), e(dbj)) for (dj, dbj) in pairs]
            for (di, dbi) in pairs]


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
    V = R.space(W_V)
    if V:
        ker = kernel(R.inner_gram(), len(V))
        if ker:
            witness = {V[k]: c for k, c in ker[0].items()}
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
    if R.index[R.L] in ideal.by_pivot:
        raise ValueError("ideal contains the conformal vector")
    new_basis = [b for k, b in enumerate(R.basis)
                 if k not in ideal.by_pivot]
    kept_ids = {b.id for b in new_basis}
    products = {}
    for (n, a, b), el in R.products.items():
        if a in kept_ids and b in kept_ids:
            proj = R.element(ideal.reduce(R.vector(el)))
            if proj:
                products[(n, a, b)] = proj
    return ReducedAlgebra(new_basis, R.L, products)
