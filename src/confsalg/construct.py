"""Builders for physical conformal superalgebras on Clifford quotients.

The input data is a null-basis space V, a symmetric form on the wedge square
of V, and a choice of regular submodules to quotient by.  The builder
realizes the reduced space as Cl(V)/I, grades it by weight through the
image filtration of the Clifford-to-algebra map, computes all products of
weight-3/2 elements by Clifford left multiplication, and completes products
of composite elements by solving single-unknown instances of the quadratic
identity.

The same module houses the F-extended construction (the two dim-V = 4
algebras whose weight-1/2 part is not in the Clifford image) and the
finite case sweeps that exclude the remaining dimensions.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from math import comb

from .scalars import Scalar, ZERO, ONE
from .linalg import (Subspace, el_add_into, el_scale, kernel, left_inverse,
                     mat_vec)
from .algebra import (BasisVector, ReducedAlgebra, coeff_G, coeff_F,
                      require_axioms, is_simple)
from .clifford import Clifford, CliffordQuotient

W_L = Fraction(2)
W_V = Fraction(3, 2)
W_A = Fraction(1)
W_F = Fraction(1, 2)


class InconsistentSpec(Exception):
    """The input data does not admit the claimed algebra."""


class UnderdeterminedSpec(Exception):
    """The completion has leftover degrees of freedom."""


# ---------------------------------------------------------------------------
# wedge-square forms
# ---------------------------------------------------------------------------


def assemble_wedge_form(npairs: int, odd: bool, alpha) -> dict:
    """The invariant form on wedge squares determined by the off-diagonal
    invariants alpha[i][j] (Scalars), with the forced universal entries:

        (Di ^ Dbi, Di ^ Dbi) = 1
        (Di ^ Dbi, Dj ^ Dbj) = alpha_ij
        (Di ^ Dj,  Dbi ^ Dbj) = -(1 + alpha_ij)
        (Dbi ^ Dj, Di ^ Dbj)  = -(1 - alpha_ij)
        (Dbi ^ e,  Di ^ e)    = -1        (odd dimension)

    and zero elsewhere.  Keys are pairs of increasing generator-index
    pairs; the dict stores both symmetric orders.
    """
    form = {}

    def put(p, q, val):
        if val:
            form[(p, q)] = val
            form[(q, p)] = val

    for i in range(npairs):
        di, dbi = 2 * i, 2 * i + 1
        put((di, dbi), (di, dbi), ONE)
        for j in range(i + 1, npairs):
            dj, dbj = 2 * j, 2 * j + 1
            a = alpha[i][j]
            put((di, dbi), (dj, dbj), a)
            put((di, dj), (dbi, dbj), -(ONE + a))
            put((dbi, dj), (di, dbj), -(ONE - a))
    if odd:
        e = 2 * npairs
        for i in range(npairs):
            put((2 * i + 1, e), (2 * i, e), -ONE)
    return form


def wedge_lookup(form: dict, a: int, b: int, c: int, d: int) -> Scalar:
    """(g_a ^ g_b, g_c ^ g_d) with antisymmetry in each slot pair."""
    if a == b or c == d:
        return ZERO
    sign = 1
    if a > b:
        a, b = b, a
        sign = -sign
    if c > d:
        c, d = d, c
        sign = -sign
    val = form.get(((a, b), (c, d)))
    if val is None:
        return ZERO
    return val if sign > 0 else -val


@dataclass
class BuilderSpec:
    npairs: int
    odd: bool
    wedge_form: dict
    kernel_words: list = field(default_factory=list)
    # kernel_words: tuples w in {0,1}^npairs, or (w, sign) in odd dimension

    @staticmethod
    def from_alpha(npairs, odd, alpha, kernel_words=()):
        return BuilderSpec(npairs, odd,
                           assemble_wedge_form(npairs, odd, alpha),
                           list(kernel_words))


# ---------------------------------------------------------------------------
# the quotient builder
# ---------------------------------------------------------------------------


class _Builder:
    def __init__(self, spec: BuilderSpec):
        self.spec = spec
        self.cl = Clifford(spec.npairs, spec.odd)
        gens = []
        for kw in spec.kernel_words:
            if spec.odd:
                w, sign = kw
                gens.append(self.cl.module_generator(tuple(w), sign))
            else:
                gens.append(self.cl.module_generator(tuple(kw)))
        self.quot = CliffordQuotient(self.cl, gens)
        self.qindex = {w: k for k, w in enumerate(self.quot.keep_words)}
        self.gen_ids = list(range(self.cl.ngens))
        self.gen_names = self.cl.gen_names
        # V inner product in the null basis is the generator pairing
        self.partner = {}
        for g in self.gen_ids:
            if g < 2 * spec.npairs:
                self.partner[g] = g ^ 1
            else:
                self.partner[g] = g

    # -- eta from the wedge form -------------------------------------------

    def eta(self, v: int, w: int, z: int) -> dict:
        """eta(v, w, z) as a Clifford element, solved from
        (x, eta(v,w,z)) = (x ^ v, w ^ z) using the null pairing."""
        out = {}
        for g in self.gen_ids:
            c = wedge_lookup(self.spec.wedge_form, self.partner[g], v, w, z)
            if c:
                out[(g,)] = c
        return out

    # -- composite classes in the quotient ---------------------------------

    def _cls(self, cl_el: dict) -> dict:
        return self.quot.reduce(cl_el)

    def class_one(self) -> dict:
        return self._cls({(): ONE})

    def class_gen(self, g: int) -> dict:
        return self._cls({(g,): ONE})

    def class_a(self, u: int, v: int) -> dict:
        """u o v = [uv] - (u,v)[1]."""
        cl = self.cl
        el = cl.mul(cl.gen(u), cl.gen(v))
        el_add_into(el, cl.one(), Scalar.from_int(-cl.gen_pairing(u, v)))
        return self._cls(el)

    def _triple(self, u: int, v: int, w: int) -> dict:
        """The Clifford element uvw - eta(u,v,w) - (v,w)u."""
        cl = self.cl
        el = cl.mul(cl.gen(u), cl.mul(cl.gen(v), cl.gen(w)))
        el_add_into(el, self.eta(u, v, w), -ONE)
        el_add_into(el, cl.gen(u), Scalar.from_int(-cl.gen_pairing(v, w)))
        return el

    def class_f(self, u: int, v: int, w: int) -> dict:
        """u o (v o w) = [uvw] - [eta(u,v,w)] - (v,w)[u]."""
        return self._cls(self._triple(u, v, w))

    def class_g(self, u: int, v: int, w: int, z: int) -> dict:
        """u . (v o (w o z)) = [uvwz] - [u eta(v,w,z)] - (w,z)[uv]."""
        return self._cls(self.cl.mul(self.cl.gen(u), self._triple(v, w, z)))

    # -- basis selection ----------------------------------------------------

    def select_basis(self):
        q = self.quot
        span = Subspace(q.dim)
        one = self.class_one()
        if not span.add(self._qvec(one)):
            raise InconsistentSpec("the identity class vanishes "
                                  "(zero algebra)")
        vrows = []
        for g in self.gen_ids:
            c = self.class_gen(g)
            if not span.add(self._qvec(c)):
                raise InconsistentSpec(
                    "generator %s collapses in the quotient"
                    % self.gen_names[g])
            vrows.append(c)

        a_chosen, f_chosen = [], []
        for u, v in combinations(self.gen_ids, 2):
            c = self.class_a(u, v)
            if c and span.add(self._qvec(c)):
                a_chosen.append((("a", u, v), c))
        for v, w in combinations(self.gen_ids, 2):
            for u in self.gen_ids:
                c = self.class_f(u, v, w)
                if c and span.add(self._qvec(c)):
                    f_chosen.append((("f", u, v, w), c))
        if span.dim < q.dim:
            for w, z in combinations(self.gen_ids, 2):
                for v in self.gen_ids:
                    for u in self.gen_ids:
                        if span.dim == q.dim:
                            break
                        c = self.class_g(u, v, w, z)
                        if c and span.add(self._qvec(c)):
                            a_chosen.append((("g", u, v, w, z), c))
        if span.dim != q.dim:
            raise InconsistentSpec(
                "image filtration spans %d of %d quotient dimensions"
                % (span.dim, q.dim))
        return one, vrows, a_chosen, f_chosen

    def _qvec(self, cls: dict) -> list:
        v = [ZERO] * self.quot.dim
        for w, c in cls.items():
            v[self.qindex[w]] = c
        return v

    # -- main build ---------------------------------------------------------

    def build(self) -> ReducedAlgebra:
        one, vrows, a_chosen, f_chosen = self.select_basis()
        names = ["L"] + [self.gen_names[g] for g in self.gen_ids]
        weights = [W_L] + [W_V] * len(self.gen_ids)
        classes = [one] + vrows
        for k, (_, c) in enumerate(a_chosen):
            names.append("A%d" % (k + 1))
            weights.append(W_A)
            classes.append(c)
        for k, (_, c) in enumerate(f_chosen):
            names.append("F%d" % (k + 1))
            weights.append(W_F)
            classes.append(c)
        self.names = names
        self.weights = {n: w for n, w in zip(names, weights)}
        self.parities = {n: (0 if w.denominator == 1 else 1)
                         for n, w in self.weights.items()}
        # change of basis between quotient coordinates and the named basis
        n = self.quot.dim
        cols = [self._qvec(c) for c in classes]
        self.inv = left_inverse([[cols[c][r] for c in range(n)]
                                 for r in range(n)])
        if self.inv is None:
            raise InconsistentSpec("graded basis is not a basis")
        self.classes = dict(zip(names, classes))

        self.table = {}
        self._row_memo = {}
        _fill_L(self.table, self.weights)
        self._fill_V()
        self._fill_composites(a_chosen, f_chosen)

        basis = [BasisVector(nm, self.weights[nm], self.parities[nm])
                 for nm in names]
        return ReducedAlgebra(basis, "L", self.table)

    # -- coordinates --------------------------------------------------------

    def to_reduced(self, cls: dict) -> dict:
        return {nm: s for nm, s in
                zip(self.names, mat_vec(self.inv, self._qvec(cls))) if s}

    def to_class(self, el: dict) -> dict:
        out = {}
        for nm, c in el.items():
            el_add_into(out, self.classes[nm], c)
        return out

    def component(self, el: dict, wt: Fraction) -> dict:
        return {k: c for k, c in el.items() if self.weights[k] == wt}

    # -- product engine -----------------------------------------------------

    def v_product(self, v_el: dict, y_el: dict) -> dict:
        """Products <v n y> of a weight-3/2 element with anything, from the
        Clifford left action split by weight."""
        gname_to_idx = {self.gen_names[g]: g for g in self.gen_ids}
        cl_v = {(gname_to_idx[nm],): c for nm, c in v_el.items()}
        out = {0: {}, 1: {}}
        by_weight = {}
        for nm, c in y_el.items():
            by_weight.setdefault(self.weights[nm], {})[nm] = c
        for wy, part in by_weight.items():
            cls = self.to_class(part)
            prod = self.quot.reduce(self.cl.mul(cl_v, cls))
            red = self.to_reduced(prod)
            el_add_into(out[0], self.component(red, wy + W_F))
            circ = self.component(red, wy - W_F)
            d = W_V + wy - 2
            if d and circ:
                el_add_into(out[1], el_scale(circ, Scalar.from_fraction(d)))
        return out

    def prod_low(self, el: dict, n: int, b_el: dict) -> dict:
        """<el n b> for el supported on L and the weight-3/2 part."""
        out = {}
        Lc = el.get("L")
        if Lc:
            if n == 1:
                for nm, c in b_el.items():
                    w = self.weights[nm]
                    if w:
                        s = Lc * c * Scalar.from_fraction(w)
                        el_add_into(out, {nm: s})
        v_el = self.component(el, W_V)
        if v_el and n <= 1:
            el_add_into(out, self.v_product(v_el, b_el)[n])
        rest = {nm: c for nm, c in el.items()
                if nm != "L" and self.weights[nm] != W_V}
        if rest:
            raise InconsistentSpec("unexpected high-height factor %r" % rest)
        return out

    # -- composite product rows --------------------------------------------

    def comp_row(self, tag, n: int, b: str) -> dict:
        key = (tag, n, b)
        if key in self._row_memo:
            return self._row_memo[key]
        if n >= 2:
            val = {}
        else:
            val = self._solve_comp(tag, n, b)
        self._row_memo[key] = val
        return val

    def comp_prod(self, tag, n: int, B_el: dict) -> dict:
        if n >= 2:
            return {}
        out = {}
        for b, c in B_el.items():
            el_add_into(out, self.comp_row(tag, n, b), c)
        return out

    def _comp_data(self, tag):
        """(v_element, t, y_element, y_weight, y_parity, y_prod, scale)."""
        kind = tag[0]
        if kind == "a":
            _, u, v = tag
            v_el = {self.gen_names[u]: ONE}
            y_el = {self.gen_names[v]: ONE}
            return v_el, 1, y_el, W_V, 1, \
                (lambda n, B: self.prod_low(y_el, n, B)), ONE
        if kind == "f":
            _, u, v, w = tag
            v_el = {self.gen_names[u]: ONE}
            y_tag = ("a", v, w)
            y_el = self.to_reduced(self.class_a(v, w))
            return v_el, 1, y_el, W_A, 0, \
                (lambda n, B: self.comp_prod(y_tag, n, B)), \
                Scalar.from_int(2)
        if kind == "g":
            _, u, v, w, z = tag
            v_el = {self.gen_names[u]: ONE}
            y_tag = ("f", v, w, z)
            y_el = self.to_reduced(self.class_f(v, w, z))
            return v_el, 0, y_el, W_F, 1, \
                (lambda n, B: self.comp_prod(y_tag, n, B)), ONE
        raise ValueError(tag)

    def _solve_comp(self, tag, n0: int, b: str) -> dict:
        """<(scale * <v t y>) n0 b> via one quadratic-identity instance with
        the composite as the single unknown."""
        v_el, t, y_el, wy, py, y_prod, scale = self._comp_data(tag)
        wb = self.weights[b]
        b_el = {b: ONE}
        s = t + n0
        for m in range(s + 1):
            n = s - m
            coeff = coeff_F(W_V, wy, m, n, t)
            if coeff:
                break
        else:
            raise InconsistentSpec("no usable identity instance for %r" % (tag,))

        # left-hand side of the identity with (a, b, c) = (v, y, basis b)
        lhs = {}
        for j in range(m + 1):
            g = coeff_G(wy, wb, n, j)
            if not g:
                continue
            inner = y_prod(n + j, b_el)
            if not inner:
                continue
            outer = self.prod_low(v_el, m - j, inner) if m - j <= 1 else {}
            el_add_into(lhs, outer, Scalar.from_fraction(comb(m, j) * g))
        sign = -ONE if (1 * py) % 2 == 0 else ONE
        for j in range(n + 1):
            g = coeff_G(W_V, wb, m, j)
            if not g:
                continue
            inner = self.prod_low(v_el, m + j, b_el) if m + j <= 1 else {}
            if not inner:
                continue
            outer = y_prod(n - j, inner)
            el_add_into(lhs, outer,
                        sign * Scalar.from_fraction(comb(n, j) * g))
        # known right-hand side terms (composites <v j y> with j != t)
        vy = self.v_product(v_el, y_el)
        for j in range(s + 1):
            if j == t:
                continue
            f = coeff_F(W_V, wy, m, n, j)
            if not f:
                continue
            vj = vy.get(j, {})
            if not vj:
                continue
            term = self.prod_low(vj, s - j, b_el) if s - j <= 1 else {}
            el_add_into(lhs, term, -Scalar.from_fraction(f))
        unknown = el_scale(lhs, Scalar.from_fraction(coeff).inv())
        return el_scale(unknown, scale)

    # -- table filling ------------------------------------------------------

    def _fill_V(self):
        for g in self.gen_ids:
            gnm = self.gen_names[g]
            v_el = {gnm: ONE}
            for b in self.names:
                res = self.v_product(v_el, {b: ONE})
                for n in (0, 1):
                    if (n, gnm, b) in self.table:
                        continue
                    _put(self.table, n, gnm, b, res[n])
                    pb = self.parities[b]
                    sgn = -ONE if (n + pb) % 2 == 0 else ONE
                    _put(self.table, n, b, gnm, el_scale(res[n], sgn))

    def _fill_composites(self, a_chosen, f_chosen):
        items = [("A%d" % (k + 1), tag)
                 for k, (tag, _) in enumerate(a_chosen)]
        items += [("F%d" % (k + 1), tag)
                  for k, (tag, _) in enumerate(f_chosen)]
        for nm, tag in items:
            for b in self.names:
                for n in (0, 1):
                    _put(self.table, n, nm, b, self.comp_row(tag, n, b))


def _put(table: dict, n: int, a: str, b: str, el: dict) -> None:
    el = {k: c for k, c in el.items() if c}
    if el:
        table[(n, a, b)] = el


def _fill_L(table: dict, weights: dict) -> None:
    """<L 1 x> = <x 1 L> = wt(x) x for every x of nonzero weight."""
    for nm, w in weights.items():
        if w:
            _put(table, 1, "L", nm, {nm: Scalar.from_fraction(w)})
            _put(table, 1, nm, "L", {nm: Scalar.from_fraction(w)})


def build_from_spec(spec: BuilderSpec, validate: bool = True) -> ReducedAlgebra:
    R = _Builder(spec).build()
    if validate:
        require_axioms(R, InconsistentSpec, "built algebra")
    return R


def iota_cl4_span(spec: BuilderSpec) -> tuple:
    """(dim of the classes of words of length <= 4, quotient dim)."""
    b = _Builder(spec)
    sub = Subspace(b.quot.dim)
    for w in b.cl.words:
        if len(w) <= 4:
            sub.add(b._qvec(b.quot.reduce({w: ONE})))
    return sub.dim, b.quot.dim


# ---------------------------------------------------------------------------
# the F-extended algebras on the S2 base
# ---------------------------------------------------------------------------


def _wedge3_basis(nv: int):
    return list(combinations(range(nv), 3))


def _wedge3_insert(out, idxs, coeff):
    """Add coeff * (v_{i} ^ v_{j} ^ v_{k}) in sorted convention."""
    if len(set(idxs)) < 3:
        return
    # parity of the permutation taking idxs to sorted order
    inversions = sum(idxs[a] > idxs[b] for a, b in combinations(range(3), 2))
    el_add_into(out, {tuple(sorted(idxs)): coeff},
                -ONE if inversions % 2 else ONE)


def build_f_extension(base: ReducedAlgebra, j0_vectors) -> ReducedAlgebra:
    """Extend a Clifford-image algebra with no weight-1/2 part by an
    abstract F dual to (V ^ V ^ V) / J0, with every product forced by the
    invariance of the triple pairing.

    `j0_vectors` are coordinate vectors over the lexicographic triple basis
    of the wedge cube of V.
    """
    V = base.space(W_V)
    A0 = base.space(W_A)
    nv = len(V)
    vidx = {v: k for k, v in enumerate(V)}
    w3 = _wedge3_basis(nv)
    w3idx = {t: k for k, t in enumerate(w3)}
    nw = len(w3)

    j0 = Subspace(nw)
    for vec in j0_vectors:
        j0.add(list(vec))
    comp = [k for k in range(nw) if k not in set(j0.pivots)]
    nf = len(comp)

    def jpair_row(t_idx: int):
        """J(w3-basis-element t, f_l) for l = 1..nf."""
        vec = [ZERO] * nw
        vec[t_idx] = ONE
        red = j0.reduce(vec)
        return [red[c] for c in comp]

    jmat = [jpair_row(t) for t in range(nw)]   # nw x nf
    jinv = left_inverse(jmat)
    if jinv is None:
        raise InconsistentSpec("triple pairing is degenerate on F")

    # inner product and dual basis on V
    gram = base.inner_gram()
    gram_inv = left_inverse(gram)
    if gram_inv is None:
        raise InconsistentSpec("degenerate inner product on the base")

    def act_V_matrix(avec_products) -> list:
        """nv x nv matrix of u -> a . u given a's 0-product with V."""
        M = [[ZERO] * nv for _ in range(nv)]
        for j, u in enumerate(V):
            img = avec_products(u)
            for v, c in img.items():
                M[vidx[v]][j] = c
        return M

    def derive_W3(M):
        """Derivation action on the wedge cube from the action M on V."""
        out = [[ZERO] * nw for _ in range(nw)]
        for col, (i, j, k) in enumerate(w3):
            acc = {}
            for slot in range(3):
                t = (i, j, k)
                src = t[slot]
                for r in range(nv):
                    c = M[r][src]
                    if c:
                        idxs = list(t)
                        idxs[slot] = r
                        _wedge3_insert(acc, tuple(idxs), c)
            for key, c in acc.items():
                out[w3idx[key]][col] = c
        return out

    def act_F_matrix(W3M) -> list:
        """F-action forced by J(a w, f) + J(w, a f) = 0."""
        out = [[ZERO] * nf for _ in range(nf)]
        for l in range(nf):
            rhs = []
            for t in range(nw):
                s = sum((W3M[r][t] * jmat[r][l]
                         for r in range(nw) if W3M[r][t]), ZERO)
                rhs.append(-s)
            part = mat_vec(jinv, rhs)
            if mat_vec(jmat, part) != rhs:
                raise InconsistentSpec(
                    "the null space of the triple pairing is not invariant")
            for r in range(nf):
                out[r][l] = part[r]
        return out

    # The weight-1 space is spanned by the base A and the formal products
    # v . f.  Each formal element carries three forced operators: its action
    # on V, its action on F, and the map u -> u o a into F.  An element is
    # zero exactly when all three vanish and the same stays true under the
    # derivation action of everything else (such elements span an ideal
    # missing L, hence die in the simple target).
    na0 = len(A0)
    formal = [("base", a) for a in A0]
    formal += [("vf", kv, l) for kv in range(nv) for l in range(nf)]
    nwa = len(formal)

    MVs, MFs, SGs = [], [], []
    base_MF = {}
    for a in A0:
        MV = act_V_matrix(lambda u, a=a: base.product_basis(0, a, u))
        MF = act_F_matrix(derive_W3(MV))
        base_MF[a] = MF
        MVs.append(MV)
        MFs.append(MF)
        SGs.append([[ZERO] * nv for _ in range(nf)])   # V o (base A) = 0
    for kv in range(nv):
        for l in range(nf):
            # a = v . f_l ; (x, u . a) = J(x ^ u ^ v, f_l), a . u = -u . a
            MV = [[ZERO] * nv for _ in range(nv)]
            for ju in range(nv):
                w = [ZERO] * nv
                for x in range(nv):
                    acc = {}
                    _wedge3_insert(acc, (x, ju, kv), ONE)
                    s = ZERO
                    for key, c in acc.items():
                        s = s + c * jmat[w3idx[key]][l]
                    w[x] = s
                for r, s in enumerate(mat_vec(gram_inv, w)):
                    MV[r][ju] = -s
            MF = act_F_matrix(derive_W3(MV))
            # u o (v . f_l) = (u o v) . f_l + (u, v) f_l
            SG = [[ZERO] * nv for _ in range(nf)]
            for ju, u in enumerate(V):
                circ_uv = base.product_basis(1, u, V[kv])
                for a2, c in circ_uv.items():
                    MF2 = base_MF[a2]
                    for m in range(nf):
                        if MF2[m][l]:
                            SG[m][ju] = SG[m][ju] + c * MF2[m][l]
                if gram[ju][kv]:
                    SG[l][ju] = SG[l][ju] + gram[ju][kv]
            MVs.append(MV)
            MFs.append(MF)
            SGs.append(SG)

    def encode(k):
        MV, MF, SG = MVs[k], MFs[k], SGs[k]
        return [MV[r][c] for r in range(nv) for c in range(nv)] + \
               [MF[r][c] for r in range(nf) for c in range(nf)] + \
               [SG[r][c] for r in range(nf) for c in range(nv)]

    cols = [encode(k) for k in range(nwa)]
    erows = [[cols[c][r] for c in range(nwa)] for r in range(len(cols[0]))]
    K = kernel(erows)

    # derivation action of each formal element on the formal space
    def der_column(b: int, x: int) -> list:
        out = [ZERO] * nwa
        tb, tx = formal[b], formal[x]
        if tx[0] == "base":
            if tb[0] == "base":
                br = base.product_basis(0, tb[1], tx[1])
                for a2, c in br.items():
                    out[A0.index(a2)] = c
                return out
            # b = u . f_g, a base:  b . a = -a . b
            col = der_column(x, b)
            return [-c if c else ZERO for c in col]
        _, kv, l = tx
        MV, MF = MVs[b], MFs[b]
        for r in range(nv):
            if MV[r][kv]:
                out[na0 + r * nf + l] = out[na0 + r * nf + l] + MV[r][kv]
        for m in range(nf):
            if MF[m][l]:
                out[na0 + kv * nf + m] = out[na0 + kv * nf + m] + MF[m][l]
        return out

    ders = [[der_column(b, x) for x in range(nwa)] for b in range(nwa)]

    def der_apply(b: int, vec: list) -> list:
        out = [ZERO] * nwa
        for x, c in enumerate(vec):
            if c:
                col = ders[b][x]
                for r in range(nwa):
                    if col[r]:
                        out[r] = out[r] + c * col[r]
        return out

    # largest derivation-invariant subspace of the encoding kernel
    nrows = list(K)
    while True:
        sub = Subspace(nwa)
        for row in nrows:
            sub.add(row)
        if not nrows:
            break
        cons = []
        for b in range(nwa):
            imgs = [sub.reduce(der_apply(b, row)) for row in nrows]
            for coord in range(nwa):
                if any(img[coord] for img in imgs):
                    cons.append([img[coord] for img in imgs])
        if not cons:
            break
        ker = kernel(cons)
        if len(ker) == len(nrows):
            break
        nrows = [[sum((kv2[i] * nrows[i][c] for i in range(len(nrows))
                       if kv2[i]), ZERO) for c in range(nwa)]
                 for kv2 in ker]

    nullsub = Subspace(nwa)
    for row in nrows:
        nullsub.add(row)
    span = Subspace(nwa)
    for row in nullsub.rows:
        span.add(list(row))

    def formal_unit(k: int) -> list:
        unit = [ZERO] * nwa
        unit[k] = ONE
        return unit

    chosen = [k for k in range(nwa) if span.add(formal_unit(k))]
    na = len(chosen)

    amat_cols = [list(r) for r in nullsub.rows] + \
                [formal_unit(k) for k in chosen]
    # square and invertible: the chosen units complete the null rows
    ainv = left_inverse([[amat_cols[c][r] for c in range(len(amat_cols))]
                         for r in range(nwa)])
    nnull = len(nullsub.rows)

    def a_coords(wvec) -> dict:
        part = mat_vec(ainv, wvec)
        return {"A%d" % (k + 1): c
                for k, c in enumerate(part[nnull:]) if c}

    anames = ["A%d" % (k + 1) for k in range(na)]
    fnames = ["F%d" % (l + 1) for l in range(nf)]
    basis = [BasisVector("L", W_L, 0)]
    basis += [BasisVector(v, W_V, 1) for v in V]
    basis += [BasisVector(a, W_A, 0) for a in anames]
    basis += [BasisVector(f, W_F, 1) for f in fnames]
    weights = {b.id: b.weight for b in basis}

    ops = {nm: (MVs[k], MFs[k], SGs[k]) for nm, k in zip(anames, chosen)}
    fidx = {nm: k for nm, k in zip(anames, chosen)}

    base_a_coords = {a: a_coords(formal_unit(k))
                     for k, a in enumerate(A0)}

    def vf_coords(kv: int, l: int) -> dict:
        return a_coords(formal_unit(na0 + kv * nf + l))

    table = {}
    _fill_L(table, weights)

    # V x V
    for i, u in enumerate(V):
        for j, v in enumerate(V):
            _put(table, 0, u, v, {"L": gram[i][j]})
            circ = base.product_basis(1, u, v)   # lands in base A
            out = {}
            for a, c in circ.items():
                el_add_into(out, base_a_coords[a], c)
            _put(table, 1, u, v, out)

    # A actions and V o A
    half = Scalar.from_fraction(Fraction(1, 2))
    for anm in anames:
        MV, MF, SG = ops[anm]
        for j, u in enumerate(V):
            img = {V[r]: MV[r][j] for r in range(nv) if MV[r][j]}
            _put(table, 0, anm, u, img)
            _put(table, 0, u, anm, el_scale(img, -ONE))
            circ = {fnames[m]: SG[m][j] for m in range(nf) if SG[m][j]}
            _put(table, 1, u, anm, el_scale(circ, half))
            _put(table, 1, anm, u, el_scale(circ, half))
        for l, fnm in enumerate(fnames):
            img = {fnames[r]: MF[r][l] for r in range(nf) if MF[r][l]}
            _put(table, 0, anm, fnm, img)
            _put(table, 0, fnm, anm, el_scale(img, -ONE))

    # V . F -> A
    for kv, v in enumerate(V):
        for l, fnm in enumerate(fnames):
            el = vf_coords(kv, l)
            _put(table, 0, v, fnm, el)
            _put(table, 0, fnm, v, el)

    # A . A through the derivation action on the formal span
    for a1 in anames:
        for a2 in anames:
            img = der_apply(fidx[a1], formal_unit(fidx[a2]))
            _put(table, 0, a1, a2, a_coords(img))

    R = ReducedAlgebra(basis, "L", table)
    require_axioms(R, InconsistentSpec, "extension")
    return R


# ---------------------------------------------------------------------------
# exclusion sweeps
# ---------------------------------------------------------------------------


@dataclass
class CaseReport:
    dimv: int
    unknowns: list
    constraints: list          # [[affine factor, ...], ...]
    satisfiable: bool
    solutions: list            # list of value tuples over unknowns
    verdicts: dict             # solution tuple -> short verdict string
    notes: list


def _pair_constraints(npairs: int):
    """The factored identities forced on the pair invariants in even
    dimension: for distinct i, j, k both
    (a_ij + a_jk)(a_ik + 1) = 0 and (a_ij - a_jk)(a_ik - 1) = 0."""
    def var(i, j):
        return "a%d%d" % (min(i, j) + 1, max(i, j) + 1)
    cons = []
    for i, j, k in product(range(npairs), repeat=3):
        if len({i, j, k}) != 3:
            continue
        f1 = (0, {var(i, j): 1, var(j, k): 1})
        f2 = (1, {var(i, k): 1})
        cons.append([f1, f2])
        g1 = (0, {var(i, j): 1, var(j, k): -1})
        g2 = (-1, {var(i, k): 1})
        cons.append([g1, g2])
    unknowns = sorted({v for c in cons for f in c for v in f[1]})
    return unknowns, cons


def _odd_constraints():
    """Odd dimension >= 5: the projection argument forces the generic pair
    invariant to equal both -2 and +2."""
    return ["a12"], [[(2, {"a12": 1})], [(-2, {"a12": 1})]]


def _solve_factored(unknowns, constraints):
    """All common zeros of the factored constraints, by branching on which
    affine factor of each constraint vanishes.

    Each equation row is (c_1, ..., c_nu, k) meaning sum c_i x_i + k = 0;
    systems are kept in reduced echelon form over Fractions.
    """
    nu = len(unknowns)
    uidx = {u: k for k, u in enumerate(unknowns)}
    solutions = []
    seen = set()

    def to_vec(form):
        vec = [Fraction(0)] * nu + [Fraction(form[0])]
        for v, c in form[1].items():
            vec[uidx[v]] += c
        return vec

    def reduce(rows, vec):
        vec = list(vec)
        for row in rows:
            pc = next(k for k in range(nu) if row[k])
            if vec[pc]:
                f = vec[pc] / row[pc]
                vec = [x - f * y for x, y in zip(vec, row)]
        return vec

    def with_eq(rows, vec):
        """rows plus the equation vec, or None when inconsistent."""
        res = reduce(rows, vec)
        lead = next((k for k in range(nu) if res[k]), None)
        if lead is None:
            return None if res[nu] else rows
        res = [x / res[lead] for x in res]
        out = []
        for row in rows:
            if row[lead]:
                row = [x - row[lead] * y for x, y in zip(row, res)]
            out.append(row)
        out.append(res)
        out.sort(key=lambda r: next(k for k in range(nu) if r[k]))
        return out

    def walk(rows, k):
        if k == len(constraints):
            if len(rows) < nu:
                raise UnderdeterminedSpec(
                    "constraint system leaves free parameters")
            vals = [Fraction(0)] * nu
            for row in rows:
                pc = next(i for i in range(nu) if row[i])
                vals[pc] = -row[nu] / row[pc]
            pt = tuple(vals)
            if pt not in seen:
                seen.add(pt)
                solutions.append(pt)
            return
        factors = constraints[k]
        residuals = [reduce(rows, to_vec(f)) for f in factors]
        if any(not any(res) for res in residuals):
            # some factor already vanishes identically on this branch
            walk(rows, k + 1)
            return
        for res in residuals:
            new = with_eq(rows, res)
            if new is not None:
                walk(new, k + 1)

    walk([], 0)
    solutions.sort()
    return solutions


def _zero_branch(npairs: int, alpha_vals: dict) -> bool:
    """True when every generator word has a vanishing pair factor, which
    collapses the whole algebra."""
    for w in product((0, 1), repeat=npairs):
        ok = False
        for i in range(npairs):
            for j in range(i + 1, npairs):
                a = alpha_vals[(i, j)]
                if 1 + (-1) ** (w[i] + w[j]) * a == 0:
                    ok = True
        if not ok:
            return False
    return True


CK6_KERNEL = [(1, 1, 1), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
# three null pairs, every pair invariant zero
CK6_SPEC = BuilderSpec.from_alpha(3, False, [[ZERO] * 3] * 3, CK6_KERNEL)


def exclusion_sweep(dimv: int) -> CaseReport:
    if dimv in (5, 7):
        unknowns, cons = _odd_constraints()
        sols = _solve_factored(unknowns, cons)
        notes = ["UNSAT: a12 forced to both 2 and -2"] if not sols else []
        return CaseReport(dimv, unknowns, cons, bool(sols), sols, {}, notes)
    if dimv not in (6, 8):
        raise ValueError("sweep covers dimensions 5-8")
    npairs = dimv // 2
    unknowns, cons = _pair_constraints(npairs)
    sols = _solve_factored(unknowns, cons)
    verdicts = {}
    notes = []
    for pt in sols:
        vals = {}
        for name, val in zip(unknowns, pt):
            i, j = int(name[1]) - 1, int(name[2]) - 1
            vals[(i, j)] = val
        if any(v for v in pt):
            if _zero_branch(npairs, vals):
                verdicts[pt] = "zero algebra (every word has a vanishing pair)"
            else:
                verdicts[pt] = "unclassified"
        else:
            if dimv == 6:
                R = build_from_spec(CK6_SPEC)
                s = is_simple(R)
                verdicts[pt] = ("simple algebra of dimension %d"
                                % R.dim if s.simple else
                                "non-simple algebra")
            else:
                # all pair invariants zero in dimension 8: the image of
                # length <= 4 words cannot fill the 256-dimensional space,
                # so some module generator dies; flipping one digit at a
                # time through the mixed Leibniz rule kills them all.
                low = sum(comb(dimv, k) for k in range(5))
                full = 2 ** dimv
                assert low < full
                reached = {(0,) * npairs}
                frontier = [(0,) * npairs]
                while frontier:
                    w = frontier.pop()
                    for b in range(npairs):
                        w2 = tuple((d + 1) % 2 if k == b else d
                                   for k, d in enumerate(w))
                        if w2 not in reached:
                            reached.add(w2)
                            frontier.append(w2)
                assert len(reached) == 2 ** npairs
                verdicts[pt] = ("zero algebra (word image dimension %d < %d "
                                "forces a dead generator; digit flips "
                                "propagate to all %d)"
                                % (low, full, 2 ** npairs))
    return CaseReport(dimv, unknowns, cons, bool(sols), sols, verdicts, notes)
