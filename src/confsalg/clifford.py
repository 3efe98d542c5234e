"""Clifford algebra on a null basis and its regular module decomposition.

Generators are ordered D1 < Db1 < D2 < Db2 < ... < e_N (the last only in odd
dimension).  Words are strictly increasing generator tuples, listed by length
and then lexicographically in `words`; the rewriting rules are Di*Dbi +
Dbi*Di = 2, anticommutation for all other pairs, Di^2 = Dbi^2 = 0 and e_N^2 =
1.  Coefficients of the rewriting are integers, so normal ordering is cached
per word pair, once per shape (npairs, odd).  Elements are sparse {word
index: Scalar} dicts, accumulated through `linalg.el_add_into`; the word
index is the column of a `Subspace`, so a quotient Cl(V)/I is the
`Subspace` of a left ideal I, and the class of x is `I.reduce(x)`.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product

from .scalars import Scalar, ONE, MINUS_ONE, TWO
from .linalg import Subspace, el_add_into, row_space


class Clifford:
    """Cl(V) for dim V = 2*npairs (+1 when odd=True).

    Cl(V) depends only on its shape, so `Clifford(npairs, odd)` returns the
    one instance of that shape: every build shares its word tables and its
    normal-ordering caches, all of which are read only."""

    _shapes = {}

    def __new__(cls, npairs: int, odd: bool = False):
        key = (npairs, bool(odd))
        if key in cls._shapes:
            return cls._shapes[key]
        self = cls._shapes[key] = super().__new__(cls)
        self.npairs, self.odd = key
        self.ngens = 2 * npairs + (1 if odd else 0)
        names = []
        for k in range(1, npairs + 1):
            names += ["D%d" % k, "Db%d" % k]
        if odd:
            names.append("e%d" % self.ngens)
        # tuples: every user of the shape reads the same two tables
        self.gen_names = tuple(names)
        self.words = tuple(w for r in range(self.ngens + 1)
                           for w in combinations(range(self.ngens), r))
        self.word_index = {w: k for k, w in enumerate(self.words)}
        self.dim = len(self.words)
        return self

    # -- generator bookkeeping ---------------------------------------------

    def partner(self, g: int) -> int:
        """The generator h with (g, h) = 1: Di and Dbi pair with each other
        and e_N with itself; every other pair of generators is orthogonal."""
        return g ^ 1 if g < 2 * self.npairs else g

    def gen_pairing(self, g: int, h: int) -> int:
        return int(self.partner(g) == h)

    # The two normal-ordering caches hand out dicts shared by every user of
    # the shape: read only.

    @lru_cache(maxsize=None)
    def _word_times_gen(self, word: tuple, g: int) -> dict:
        """Normal form of word * g as {word: Scalar}."""
        if not word or word[-1] < g:
            return {word + (g,): ONE}
        h = word[-1]
        rest = word[:-1]
        if h == g:
            return {rest: ONE} if self.gen_pairing(g, g) else {}
        # h > g: use hg = 2(h,g) - gh
        out = {rest: TWO} if self.gen_pairing(h, g) else {}
        el_add_into(out, {w + (h,): c for w, c in
                          self._word_times_gen(rest, g).items()}, MINUS_ONE)
        return out

    @lru_cache(maxsize=None)
    def word_mul(self, i: int, j: int) -> dict:
        """Normal form of words[i] * words[j] as {word index: Scalar}."""
        terms = {self.words[i]: ONE}
        for g in self.words[j]:
            nxt = {}
            for w, c in terms.items():
                el_add_into(nxt, self._word_times_gen(w, g), c)
            terms = nxt
        return {self.word_index[w]: c for w, c in terms.items()}

    # -- elements ----------------------------------------------------------

    def mul(self, x: dict, y: dict) -> dict:
        out = {}
        for kx, cx in x.items():
            for ky, cy in y.items():
                el_add_into(out, self.word_mul(kx, ky), cx * cy)
        return out

    def gen(self, g: int) -> dict:
        return {self.word_index[(g,)]: ONE}

    def one(self) -> dict:
        return {0: ONE}

    # -- regular module decomposition --------------------------------------

    def d_word(self, w) -> tuple:
        """The generator word D^w, w in {0,1}^npairs (0 -> D, 1 -> Db)."""
        return tuple(2 * k + wk for k, wk in enumerate(w))

    def module_generator(self, w, sign: int = 0) -> dict:
        """D^w, or D^w * (1 + sign*e_N) in odd dimension."""
        base = {self.word_index[self.d_word(w)]: ONE}
        if not sign:
            return base
        out = self.mul(base, self.gen(2 * self.npairs))
        el_add_into(out, base, Scalar.from_int(sign))
        return out

    def left_ideal(self, gens) -> Subspace:
        """Span of {x * g : x a basis word, g in gens} as a subspace."""
        return row_space((self.mul({k: ONE}, g)
                          for g in gens for k in range(self.dim)), self.dim)

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
            if self.left_ideal([row]).dim != sub.dim:
                return False
        return True
