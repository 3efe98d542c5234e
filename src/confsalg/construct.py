"""Builders for physical conformal superalgebras on Clifford quotients.

The input data is a null-basis space V, a symmetric form on the wedge square
of V, and a choice of regular submodules to quotient by.  The builder
realizes the reduced space as Cl(V)/I: I is the `Subspace` of the left ideal
the submodules generate, and the class of a Clifford element, keyed by word
index, is its `I.reduce`.  It grades Cl(V)/I by weight through the image
filtration of the Clifford-to-algebra map, computes all products of
weight-3/2 elements by Clifford left multiplication, and fills the products
of each weight-1 element a from the derivation of Cl(V)/I that extends the
action v -> a . v on V: weight-1 vectors act by derivations.

The same module houses the F-extended construction (the two dim-V = 4
algebras whose weight-1/2 part is not in the Clifford image) and the
finite case sweeps that exclude the remaining dimensions.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from math import comb

from .scalars import Scalar, ZERO, ONE, MINUS_ONE, HALF
from .linalg import (Subspace, coordinates, el_add_into, el_scale, kernel,
                     row_space)
from .algebra import (W_A, W_F, W_V, ReducedAlgebra, is_simple,
                      physical_basis, require_axioms)
from .clifford import Clifford


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
            put((2 * i + 1, e), (2 * i, e), MINUS_ONE)
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
        self.ideal = self.cl.left_ideal(gens)
        self.qdim = self.cl.dim - self.ideal.dim

    # -- eta from the wedge form -------------------------------------------

    def eta(self, v: int, w: int, z: int) -> dict:
        """eta(v, w, z) as a Clifford element, solved from
        (x, eta(v,w,z)) = (x ^ v, w ^ z) using the null pairing."""
        cl, out = self.cl, {}
        for g in range(cl.ngens):
            c = wedge_lookup(self.spec.wedge_form, cl.partner(g), v, w, z)
            if c:
                out[cl.word_index[(g,)]] = c
        return out

    # -- composite classes in the quotient ---------------------------------

    def class_a(self, u: int, v: int) -> dict:
        """u o v = [uv] - (u,v)[1]."""
        cl = self.cl
        el = cl.mul(cl.gen(u), cl.gen(v))
        el_add_into(el, cl.one(), Scalar.from_int(-cl.gen_pairing(u, v)))
        return self.ideal.reduce(el)

    def _triple(self, u: int, v: int, w: int) -> dict:
        """The Clifford element uvw - eta(u,v,w) - (v,w)u."""
        cl = self.cl
        el = cl.mul(cl.gen(u), cl.mul(cl.gen(v), cl.gen(w)))
        el_add_into(el, self.eta(u, v, w), MINUS_ONE)
        el_add_into(el, cl.gen(u), Scalar.from_int(-cl.gen_pairing(v, w)))
        return el

    def class_f(self, u: int, v: int, w: int) -> dict:
        """u o (v o w) = [uvw] - [eta(u,v,w)] - (v,w)[u]."""
        return self.ideal.reduce(self._triple(u, v, w))

    def class_g(self, u: int, triple: dict) -> dict:
        """u . (v o (w o z)) = [uvwz] - [u eta(v,w,z)] - (w,z)[uv], given
        triple = `_triple(v, w, z)`."""
        return self.ideal.reduce(self.cl.mul(self.cl.gen(u), triple))

    # -- basis selection ----------------------------------------------------

    def select_basis(self):
        cl, reduce, qdim = self.cl, self.ideal.reduce, self.qdim
        gens = range(cl.ngens)
        span = Subspace(qdim)
        one = reduce(cl.one())
        if not span.add(one):
            raise InconsistentSpec("the identity class vanishes "
                                  "(zero algebra)")
        vrows = []
        for g in gens:
            c = reduce(cl.gen(g))
            if not span.add(c):
                raise InconsistentSpec(
                    "generator %s collapses in the quotient"
                    % cl.gen_names[g])
            vrows.append(c)

        a_chosen, f_chosen = [], []
        for u, v in combinations(gens, 2):
            c = self.class_a(u, v)
            if c and span.add(c):
                a_chosen.append(c)
        for v, w in combinations(gens, 2):
            for u in gens:
                c = self.class_f(u, v, w)
                if c and span.add(c):
                    f_chosen.append(c)
        for w, z in combinations(gens, 2):
            for v in gens:
                if span.dim == qdim:
                    break
                t = self._triple(v, w, z)
                for u in gens:
                    c = self.class_g(u, t)
                    if c and span.add(c):
                        a_chosen.append(c)
                        if span.dim == qdim:
                            break
        if span.dim != qdim:
            raise InconsistentSpec(
                "image filtration spans %d of %d quotient dimensions"
                % (span.dim, qdim))
        return one, vrows, a_chosen, f_chosen

    # -- main build ---------------------------------------------------------

    def build(self) -> ReducedAlgebra:
        one, vrows, a_chosen, f_chosen = self.select_basis()
        basis = physical_basis(self.cl.gen_names, len(a_chosen),
                               len(f_chosen))
        names = [b.id for b in basis]
        classes = [one] + vrows + a_chosen + f_chosen
        self.names = names
        self.weights = {b.id: b.weight for b in basis}
        self.parities = {b.id: b.parity for b in basis}
        # coordinates in the named basis; select_basis added each class to
        # its span, so the classes are independent
        self.coords = coordinates(classes, self.cl.dim)
        self.classes = dict(zip(names, classes))

        self.table = {}
        _fill_L(self.table, self.weights, self.parities)
        self._fill_V()
        for nm in names:
            if self.weights[nm] == W_A:
                self._fill_A(nm)
        return ReducedAlgebra(basis, "L", self.table)

    def to_reduced(self, cls: dict) -> dict:
        return {self.names[k]: c
                for k, c in self.coords(cls).items()}

    # -- table filling ------------------------------------------------------

    def _fill_V(self):
        """<g n b> for each generator g and basis name b of weight wb, from
        the class of g times the class of b: its weight wb + 1/2 part is
        <g 0 b>, and its weight wb - 1/2 part times 3/2 + wb - 2 is <g 1 b>.
        The skew partner <b n g> is stored with each."""
        cl = self.cl
        for g, gnm in enumerate(cl.gen_names):
            for b in self.names:
                wb = self.weights[b]
                red = self.to_reduced(
                    self.ideal.reduce(cl.mul(cl.gen(g), self.classes[b])))
                res = [{k: c for k, c in red.items()
                        if self.weights[k] == wb + W_F},
                       el_scale({k: c for k, c in red.items()
                                 if self.weights[k] == wb - W_F},
                                Scalar.from_fraction(W_V + wb - 2))]
                for n in (0, 1):
                    if (n, gnm, b) not in self.table:
                        _put(self.table, self.parities, n, gnm, b, res[n])

    def _fill_A(self, a: str):
        """<a 0 b> for a weight-1 name a and every basis name b, with
        <b 0 a> = -<a 0 b> unless b has weight 1: such a b computes <b 0 a>
        on its own turn, so both orders are stored as computed and P's skew
        check compares them.  A weight-1 vector acts by derivations, so a
        acts on Cl(V)/I as the even derivation D_a extending v -> a . v on
        V, read off the stored <a 0 v>: for a word w = g_1 ... g_k of b's
        class, D_a(w) = sum_i g_1 ... g_(i-1) (a . g_i) g_(i+1) ... g_k.
        Every other product of a is zero by weight or stored by _fill_L and
        _fill_V."""
        cl, windex = self.cl, self.cl.word_index
        act = [{windex[(cl.gen_names.index(v),)]: c for v, c in
                self.table.get((0, a, gnm), {}).items()}
               for gnm in cl.gen_names]
        for b in self.names:
            der = {}
            for k, c in self.classes[b].items():
                w = cl.words[k]
                for i, g in enumerate(w):
                    el_add_into(der, cl.mul(cl.mul({windex[w[:i]]: c},
                                                   act[g]),
                                            {windex[w[i + 1:]]: ONE}))
            el = self.to_reduced(self.ideal.reduce(der))
            if self.weights[b] == W_A:
                _store(self.table, (0, a, b), el)
            else:
                _put(self.table, self.parities, 0, a, b, el)


def _store(table: dict, key: tuple, el: dict) -> None:
    el = {k: c for k, c in el.items() if c}
    if el:
        table[key] = el


def _put(table: dict, par: dict, n: int, a: str, b: str, el: dict) -> None:
    """Store <a n b> and then its skew partner
    <b n a> = (-1)^(n + 1 + |a||b|) <a n b>, each if nonzero."""
    _store(table, (n, a, b), el)
    odd = (n + 1 + par[a] * par[b]) % 2
    _store(table, (n, b, a), el_scale(el, MINUS_ONE) if odd else el)


def _fill_L(table: dict, weights: dict, par: dict) -> None:
    """<L 1 x> = <x 1 L> = wt(x) x for every x of nonzero weight."""
    for nm, w in weights.items():
        if w:
            _put(table, par, 1, "L", nm, {nm: Scalar.from_fraction(w)})


def build_from_spec(spec: BuilderSpec, validate: bool = True) -> ReducedAlgebra:
    R = _Builder(spec).build()
    if validate:
        require_axioms(R, InconsistentSpec, "built algebra violates axioms:\n")
    return R


def iota_cl4_span(spec: BuilderSpec) -> tuple:
    """(dim of the classes of words of length <= 4, quotient dim)."""
    b = _Builder(spec)
    sub = row_space((b.ideal.reduce({k: ONE})
                     for k, w in enumerate(b.cl.words) if len(w) <= 4),
                    b.qdim)
    return sub.dim, b.qdim


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
                MINUS_ONE if inversions % 2 else ONE)


def build_f_extension(base: ReducedAlgebra, j0_vectors) -> ReducedAlgebra:
    """Extend a Clifford-image algebra with no weight-1/2 part by an
    abstract F dual to (V ^ V ^ V) / J0, with every product forced by the
    invariance of the triple pairing.

    `j0_vectors` are sparse elements keyed by position in the lexicographic
    triple basis of the wedge cube of V; a zero entry is dropped.  Every
    operator below is a list of sparse columns: column c is {row: entry}.

    The weight-1 part is the formal span of the base A and the products
    v . f modulo N, the common kernel of the V-action MV and the map
    SG: u -> u o a.  N is invariant under the derivation action D_b of
    every formal b: `act_F` makes MF the contragredient action, the Gram
    form is invariant and `der_column` is the Leibniz rule, so
    MV(D_b x) = [MV(b), MV(x)], MF(D_b x) = [MF(b), MF(x)] and
    SG(D_b x) = MF(b) SG(x) - SG(x) MV(b).
    """
    V = base.space(W_V)
    A0 = base.space(W_A)
    nv = len(V)
    vidx = {v: k for k, v in enumerate(V)}
    w3 = _wedge3_basis(nv)
    w3idx = {t: k for k, t in enumerate(w3)}
    nw = len(w3)

    # column l of jmat is J(w3-basis element t, f_l) over t: the kernel
    # vectors of J0, independent by construction, so jmat_coords solves
    # jmat x = rhs, or gives None when it has no solution
    jmat = kernel([{k: c for k, c in v.items() if c} for v in j0_vectors],
                  nw)
    nf = len(jmat)
    jmat_coords = coordinates(jmat, nw)

    # inner product and dual basis on V; the Gram matrix is symmetric, so
    # its rows are its columns and gram_coords solves gram y = w
    gram = base.inner_gram()
    try:
        gram_coords = coordinates(gram, nv)
    except ValueError:
        raise InconsistentSpec("degenerate inner product on the base")

    def derive_W3(M) -> list:
        """Derivation action on the wedge cube from the action M on V."""
        out = []
        for t in w3:
            acc = {}
            for slot in range(3):
                for r, c in M[t[slot]].items():
                    idxs = list(t)
                    idxs[slot] = r
                    _wedge3_insert(acc, tuple(idxs), c)
            out.append({w3idx[key]: c for key, c in acc.items()})
        return out

    def act_F(W3M) -> list:
        """F-action forced by J(a w, f) + J(w, a f) = 0."""
        out = []
        for jl in jmat:
            rhs = {}
            for t, col in enumerate(W3M):
                s = sum((c * jl[r] for r, c in col.items() if r in jl), ZERO)
                if s:
                    rhs[t] = -s
            part = jmat_coords(rhs)
            if part is None:
                raise InconsistentSpec(
                    "the null space of the triple pairing is not invariant")
            out.append(part)
        return out

    # The weight-1 space is spanned by the base A and the formal products
    # v . f.  Each formal element carries three forced operators: its action
    # MV on V, its action MF = act_F(derive_W3(MV)) on F, and the map SG:
    # u -> u o a into F.  MF is linear in MV, so an element is zero exactly
    # when MV and SG vanish.  Such elements span an ideal missing L, hence
    # die in the simple target; the identities in the docstring make their
    # span N invariant under every D_b.
    na0 = len(A0)
    formal = [("base", a) for a in A0]
    formal += [("vf", kv, l) for kv in range(nv) for l in range(nf)]
    nwa = len(formal)

    MVs, MFs, SGs = [], [], []
    for a in A0:
        # u -> a . u on V
        MV = [{vidx[v]: c for v, c in base.product_basis(0, a, u).items()}
              for u in V]
        MVs.append(MV)
        MFs.append(act_F(derive_W3(MV)))
        SGs.append([{} for _ in range(nv)])   # V o (base A) = 0
    for kv in range(nv):
        for l in range(nf):
            # a = v . f_l ; (x, u . a) = J(x ^ u ^ v, f_l), a . u = -u . a
            MV = []
            for ju in range(nv):
                w = {}
                for x in range(nv):
                    acc = {}
                    _wedge3_insert(acc, (x, ju, kv), ONE)
                    s = sum((c * jmat[l].get(w3idx[key], ZERO)
                             for key, c in acc.items()), ZERO)
                    if s:
                        w[x] = s
                MV.append(el_scale(gram_coords(w), MINUS_ONE))
            MF = act_F(derive_W3(MV))
            # u o (v . f_l) = (u o v) . f_l + (u, v) f_l
            SG = []
            for ju, u in enumerate(V):
                col = {}
                for a2, c in base.product_basis(1, u, V[kv]).items():
                    el_add_into(col, MFs[A0.index(a2)][l], c)
                el_add_into(col, {l: ONE}, gram[ju].get(kv, ZERO))
                SG.append(col)
            MVs.append(MV)
            MFs.append(MF)
            SGs.append(SG)

    # the encoding of formal element k: one row per entry of MV and SG
    erows = {}
    for k in range(nwa):
        for op, M in enumerate((MVs[k], SGs[k])):
            for c, col in enumerate(M):
                for r, v in col.items():
                    erows.setdefault((op, r, c), {})[k] = v

    # derivation action of each formal element on the formal space
    def der_column(b: int, x: int) -> dict:
        tb, tx = formal[b], formal[x]
        if tx[0] == "base":
            if tb[0] == "base":
                br = base.product_basis(0, tb[1], tx[1])
                return {A0.index(a2): c for a2, c in br.items()}
            # b = u . f_g, a base:  b . a = -a . b
            return el_scale(der_column(x, b), MINUS_ONE)
        _, kv, l = tx
        out = {na0 + r * nf + l: c for r, c in MVs[b][kv].items()}
        el_add_into(out, {na0 + kv * nf + m: c
                          for m, c in MFs[b][l].items()})
        return out

    units = [{x: ONE} for x in range(nwa)]
    nullsub = row_space(kernel(erows.values(), nwa), nwa)
    nullrows = nullsub.rows
    chosen = [k for k in range(nwa) if nullsub.add(units[k])]
    na = len(chosen)
    # the chosen units complete the null rows to a basis
    nnull = len(nullrows)
    coords = coordinates(nullrows + [units[k] for k in chosen], nwa)
    basis = physical_basis(V, na, nf)
    anames = [b.id for b in basis if b.weight == W_A]
    fnames = [b.id for b in basis if b.weight == W_F]

    def a_coords(wvec: dict) -> dict:
        return {anames[k - nnull]: c
                for k, c in coords(wvec).items() if k >= nnull}

    weights = {b.id: b.weight for b in basis}
    par = {b.id: b.parity for b in basis}

    table = {}
    _fill_L(table, weights, par)

    # V x V, each order computed, so P's skew check compares the two
    for i, u in enumerate(V):
        for j, v in enumerate(V):
            _store(table, (0, u, v), {"L": gram[i].get(j, ZERO)})
            circ = base.product_basis(1, u, v)   # lands in base A
            _store(table, (1, u, v),
                   a_coords({A0.index(a): c for a, c in circ.items()}))

    # A actions and V o A
    for anm, k in zip(anames, chosen):
        MV, MF, SG = MVs[k], MFs[k], SGs[k]
        for j, u in enumerate(V):
            img = {V[r]: c for r, c in sorted(MV[j].items())}
            _put(table, par, 0, anm, u, img)
            circ = {fnames[m]: c for m, c in sorted(SG[j].items())}
            _put(table, par, 1, u, anm, el_scale(circ, HALF))
        for l, fnm in enumerate(fnames):
            img = {fnames[r]: c for r, c in sorted(MF[l].items())}
            _put(table, par, 0, anm, fnm, img)

    # V . F -> A
    for kv, v in enumerate(V):
        for l, fnm in enumerate(fnames):
            _put(table, par, 0, v, fnm, a_coords(units[na0 + kv * nf + l]))

    # A . A through the derivation action on the formal span, both orders
    for a1, k1 in zip(anames, chosen):
        for a2, k2 in zip(anames, chosen):
            _store(table, (0, a1, a2), a_coords(der_column(k1, k2)))

    R = ReducedAlgebra(basis, "L", table)
    require_axioms(R, InconsistentSpec, "extension violates axioms:\n")
    return R


# ---------------------------------------------------------------------------
# exclusion sweeps
# ---------------------------------------------------------------------------


@dataclass
class CaseReport:
    dimv: int
    unknowns: list
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

    An equation is a sparse row {i: c_i, nu: k} meaning sum c_i x_i + k =
    0, with x_i the unknown in column i, and a branch is the `Subspace` its
    equations span; a pivot in column nu means 0 = 1.  The solutions are
    tuples of Fractions.
    """
    nu = len(unknowns)
    uidx = {u: k for k, u in enumerate(unknowns)}
    solutions = set()

    def to_row(form):
        terms = [(uidx[v], c) for v, c in form[1].items()] + [(nu, form[0])]
        return {k: Scalar.from_fraction(c) for k, c in terms if c}

    def walk(sub, k):
        if k == len(constraints):
            if sub.dim < nu:
                raise UnderdeterminedSpec(
                    "constraint system leaves free parameters")
            # rows are x_i + k_i = 0 in pivot order i = 0..nu-1
            solutions.add(tuple(Fraction(str(-row.get(nu, ZERO)))
                                for row in sub.rows))
            return
        rows = [to_row(f) for f in constraints[k]]
        if any(sub.contains(row) for row in rows):
            # some factor already vanishes identically on this branch
            walk(sub, k + 1)
            return
        for row in rows:
            new = row_space(sub.rows + [row], nu + 1)
            if nu not in new.by_pivot:
                walk(new, k + 1)

    walk(Subspace(nu + 1), 0)
    return sorted(solutions)


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
        return CaseReport(dimv, unknowns, bool(sols), sols, {}, notes)
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
                verdicts[pt] = ("zero algebra (word image dimension %d < %d "
                                "forces a dead generator; digit flips "
                                "propagate to all %d)"
                                % (low, 2 ** dimv, 2 ** npairs))
    return CaseReport(dimv, unknowns, bool(sols), sols, verdicts, notes)
