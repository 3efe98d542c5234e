"""Clifford algebra on a null basis, its regular module decomposition, and
the Grassmann-polynomial spinor representation.

Generators are ordered D1 < Db1 < D2 < Db2 < ... < e_N (the last only in odd
dimension).  Words are strictly increasing generator tuples; the rewriting
rules are Di*Dbi + Dbi*Di = 2, anticommutation for all other pairs, Di^2 =
Dbi^2 = 0 and e_N^2 = 1.  Coefficients of the rewriting are integers, so
normal ordering is cached per word pair.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product

from .scalars import Scalar, ZERO, ONE
from .linalg import Subspace


class Clifford:
    """Cl(V) for dim V = 2*npairs (+1 when odd=True)."""

    def __init__(self, npairs: int, odd: bool = False):
        self.npairs = npairs
        self.odd = odd
        self.ngens = 2 * npairs + (1 if odd else 0)
        names = []
        for k in range(1, npairs + 1):
            names += ["D%d" % k, "Db%d" % k]
        if odd:
            names.append("e%d" % self.ngens)
        self.gen_names = names
        self.words = []
        for r in range(self.ngens + 1):
            self.words.extend(combinations(range(self.ngens), r))
        self.word_index = {w: k for k, w in enumerate(self.words)}
        self.dim = len(self.words)

    # -- generator bookkeeping ---------------------------------------------

    def _square(self, g: int) -> int:
        return 1 if (self.odd and g == 2 * self.npairs) else 0

    def _paired(self, g: int, h: int) -> int:
        if max(g, h) < 2 * self.npairs and g // 2 == h // 2 and g != h:
            return 1
        return 0

    def gen_pairing(self, g: int, h: int) -> int:
        if g == h:
            return self._square(g)
        return self._paired(g, h)

    @lru_cache(maxsize=None)
    def _word_times_gen(self, word: tuple, g: int):
        """Normal form of word * g as ((word, int_coeff), ...)."""
        if not word or word[-1] < g:
            return ((word + (g,), 1),)
        h = word[-1]
        rest = word[:-1]
        if h == g:
            s = self._square(g)
            return ((rest, s),) if s else ()
        # h > g: use hg = 2(h,g) - gh
        out = {}
        if self._paired(h, g):
            out[rest] = 2
        for w, c in self._word_times_gen(rest, g):
            w2 = w + (h,)
            out[w2] = out.get(w2, 0) - c
        return tuple((w, c) for w, c in out.items() if c)

    @lru_cache(maxsize=None)
    def word_mul(self, w1: tuple, w2: tuple):
        terms = {w1: 1}
        for g in w2:
            nxt = {}
            for w, c in terms.items():
                for w3, c3 in self._word_times_gen(w, g):
                    nxt[w3] = nxt.get(w3, 0) + c * c3
            terms = {w: c for w, c in nxt.items() if c}
        return tuple(terms.items())

    # -- elements ----------------------------------------------------------

    def mul(self, x: dict, y: dict) -> dict:
        out = {}
        for wx, cx in x.items():
            for wy, cy in y.items():
                c = cx * cy
                for w, k in self.word_mul(wx, wy):
                    s = out.get(w, ZERO) + c * Scalar.from_int(k)
                    if s:
                        out[w] = s
                    elif w in out:
                        del out[w]
        return out

    def gen(self, g: int) -> dict:
        return {(g,): ONE}

    def one(self) -> dict:
        return {(): ONE}

    def vector(self, x: dict) -> list:
        v = [ZERO] * self.dim
        for w, c in x.items():
            v[self.word_index[w]] = c
        return v

    def element(self, vec) -> dict:
        return {self.words[k]: c for k, c in enumerate(vec) if c}

    def word_shift(self, w: tuple) -> tuple:
        """Multidegree shift in {-1,0,1}^n of a normal word (e_N ignored)."""
        t = [0] * self.npairs
        for g in w:
            if g < 2 * self.npairs:
                t[g // 2] += 1 if g % 2 == 0 else -1
        return tuple(t)

    # -- regular module decomposition --------------------------------------

    def d_word(self, w) -> tuple:
        """The generator word D^w, w in {0,1}^npairs (0 -> D, 1 -> Db)."""
        return tuple(2 * k + wk for k, wk in enumerate(w))

    def module_generator(self, w, sign: int = 0) -> dict:
        """D^w, or D^w * (1 + sign*e_N) in odd dimension."""
        base = {self.d_word(w): ONE}
        if not sign:
            return base
        e = self.gen(2 * self.npairs)
        out = dict(self.mul(base, e))
        for k, c in base.items():
            s = out.get(k, ZERO) + (c if sign > 0 else -c)
            if s:
                out[k] = s
            elif k in out:
                del out[k]
        return out

    def left_ideal(self, gens) -> Subspace:
        """Span of {x * g : x a basis word, g in gens} as a subspace."""
        sub = Subspace(self.dim)
        for g in gens:
            for w in self.words:
                sub.add(self.vector(self.mul({w: ONE}, g)))
        return sub

    def module_decompose(self):
        """(label, generator, Subspace) triples for the canonical direct
        sum decomposition of the left regular module."""
        out = []
        for w in product((0, 1), repeat=self.npairs):
            if self.odd:
                for sign in (1, -1):
                    gen = self.module_generator(w, sign)
                    label = "M%s(%s)" % ("+" if sign > 0 else "-",
                                         "".join(map(str, w)))
                    out.append((label, gen, self.left_ideal([gen])))
            else:
                gen = self.module_generator(w)
                label = "M(%s)" % "".join(map(str, w))
                out.append((label, gen, self.left_ideal([gen])))
        return out

    def is_irreducible(self, sub: Subspace) -> bool:
        """Every spanning element generates the whole submodule."""
        for row in sub.rows:
            gen = self.element(row)
            if self.left_ideal([gen]).dim != sub.dim:
                return False
        return True


# ---------------------------------------------------------------------------
# spinor representation on Grassmann polynomials
# ---------------------------------------------------------------------------
#
# The even-dimensional part acts on C[x_1..x_n] with Grassmann variables by
# Di = c * (x_i wedge) and Dbi = c * (contraction d/dx_i), where c is a formal
# constant with c^2 = 2.  Scalars inside this representation are pairs
# (a, b) meaning a + b*c.

CExt = tuple  # (Scalar, Scalar)

CX_ZERO = (ZERO, ZERO)
CX_ONE = (ONE, ZERO)
CX_C = (ZERO, ONE)
TWO = Scalar.from_int(2)


def cx_add(x: CExt, y: CExt) -> CExt:
    return (x[0] + y[0], x[1] + y[1])


def cx_mul(x: CExt, y: CExt) -> CExt:
    return (x[0] * y[0] + TWO * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def cx_scale(x: CExt, c: Scalar) -> CExt:
    return (x[0] * c, x[1] * c)


class OddGeneratorInEvenRep(ValueError):
    pass


def _gp_set(poly: dict, mono: frozenset, val: CExt) -> None:
    if val[0] or val[1]:
        poly[mono] = val
    elif mono in poly:
        del poly[mono]


def gp_add_into(acc: dict, x: dict, c: CExt = CX_ONE) -> None:
    for m, v in x.items():
        _gp_set(acc, m, cx_add(acc.get(m, CX_ZERO), cx_mul(v, c)))


def gp_wedge(i: int, poly: dict) -> dict:
    """x_i * poly with the sign of moving x_i into sorted position."""
    out = {}
    for m, v in poly.items():
        if i in m:
            continue
        sign = sum(1 for j in m if j < i) % 2
        _gp_set(out, m | {i}, v if sign == 0 else cx_scale(v, -ONE))
    return out


def gp_contract(i: int, poly: dict) -> dict:
    out = {}
    for m, v in poly.items():
        if i not in m:
            continue
        sign = sum(1 for j in m if j < i) % 2
        _gp_set(out, m - {i}, v if sign == 0 else cx_scale(v, -ONE))
    return out


def spinor_rep(cl: Clifford, x: dict, f: dict) -> dict:
    """Apply a Clifford element to a Grassmann polynomial."""
    out = {}
    for word, coeff in x.items():
        cur = f
        for g in reversed(word):
            if g >= 2 * cl.npairs:
                raise OddGeneratorInEvenRep(
                    "odd generator has no action in the even representation")
            i = g // 2 + 1
            cur = gp_wedge(i, cur) if g % 2 == 0 else gp_contract(i, cur)
            cur = {m: cx_mul(v, CX_C) for m, v in cur.items()}
        gp_add_into(out, cur, (coeff, ZERO))
    return out


def grassmann_monomials(n: int):
    return [frozenset(c) for r in range(n + 1)
            for c in combinations(range(1, n + 1), r)]


# ---------------------------------------------------------------------------
# quotients by sums of regular submodules, and multidegree projections
# ---------------------------------------------------------------------------


class CliffordQuotient:
    """Cl(V) / I for I a sum of regular submodules, with the induced left
    multiplication and the multidegree projections."""

    def __init__(self, cl: Clifford, kernel_gens):
        self.cl = cl
        self.ideal = cl.left_ideal(kernel_gens) if kernel_gens \
            else Subspace(cl.dim)
        pivots = set(self.ideal.pivots)
        self.keep = [k for k in range(cl.dim) if k not in pivots]
        self.keep_words = [cl.words[k] for k in self.keep]
        self.dim = len(self.keep)

    def reduce(self, x: dict) -> dict:
        """Canonical representative supported on non-pivot words."""
        vec = self.ideal.reduce(self.cl.vector(x))
        return {self.cl.words[k]: vec[k] for k in self.keep if vec[k]}

    def lmul(self, x: dict, u: dict) -> dict:
        return self.reduce(self.cl.mul(x, u))

    def multidegree_components(self, u: dict) -> dict:
        """u's class split by multidegree.  The rewriting rules only ever
        delete a paired (D_i, Db_i), so the shift tuple of the canonical
        representative's words is well defined."""
        u = self.reduce(u)
        out = {}
        for w, c in u.items():
            t = self.cl.word_shift(w)
            out.setdefault(t, {})[w] = c
        return out
