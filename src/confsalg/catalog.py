"""The nine simple physical conformal superalgebras, by name.

Vir is spanned by the conformal vector alone.  K1, K2, K3, S2, N4alpha and
CK6 come out of the Clifford-module solver; W2 is the weight-1/2 extension
of S2 whose triple pairing has the two-dimensional radical; N4 is N4alpha
at alpha = 0 with the conformal vector moved by the weight-1 invariant.
Frozen solver outputs for W2 and CK6 live under golden/; a stability test
compares fresh builds against them, and nothing builds from them.
"""
from __future__ import annotations

import os
from fractions import Fraction

from .scalars import Scalar, ZERO, ONE, IMAG, ALPHA
from .linalg import Subspace, charpoly, el_add_into, tpoly_str
from .algebra import BasisVector, ReducedAlgebra, form_V_wedge_V, is_simple
from .construct import (BuilderSpec, build_from_spec, build_f_extension,
                        CK6_SPEC)

NAMES = ("Vir", "K1", "K2", "K3", "S2", "W2", "N4", "N4alpha", "CK6")

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


class UnknownName(ValueError):
    pass


class InvalidParams(ValueError):
    pass


def _vir() -> ReducedAlgebra:
    return ReducedAlgebra([BasisVector("L", Fraction(2), 0)], "L",
                          {(1, "L", "L"): {"L": Scalar.from_int(2)}})


def _s2() -> ReducedAlgebra:
    m1 = Scalar.from_int(-1)
    spec = BuilderSpec.from_alpha(2, False, [[ZERO, m1], [m1, ZERO]],
                                  kernel_words=[(0, 0), (1, 1)])
    return build_from_spec(spec)


def _n4alpha(alpha: Scalar) -> ReducedAlgebra:
    spec = BuilderSpec.from_alpha(2, False, [[ZERO, alpha], [alpha, ZERO]])
    return build_from_spec(spec)


# J0 = Span{D1 ^ Db1 ^ D2, D1 ^ D2 ^ Db2} over the triple basis in
# lexicographic order of (D1, Db1, D2, Db2)
_W2_J0 = ((0, 1, 2), (0, 2, 3))


def _build(name: str, alpha=None) -> ReducedAlgebra:
    if name == "Vir":
        return _vir()
    if name == "K1":
        return build_from_spec(BuilderSpec.from_alpha(0, True, []))
    if name == "K2":
        return build_from_spec(BuilderSpec.from_alpha(1, False, [[ZERO]]))
    if name == "K3":
        return build_from_spec(BuilderSpec.from_alpha(1, True, [[ZERO]]))
    if name == "S2":
        return _s2()
    if name == "W2":
        from .construct import _wedge3_basis
        w3 = _wedge3_basis(4)
        vecs = []
        for t in _W2_J0:
            vec = [ZERO] * len(w3)
            vec[w3.index(t)] = ONE
            vecs.append(vec)
        return build_f_extension(_s2(), vecs)
    if name == "N4alpha":
        return _n4alpha(alpha if alpha is not None else ALPHA)
    if name == "N4":
        from .reconstruct import change_conformal_vector
        return change_conformal_vector(_n4alpha(ZERO), ONE)
    if name == "CK6":
        return build_from_spec(CK6_SPEC)
    raise UnknownName("no catalog algebra named %r" % name)


_cache = {}


def build(name: str, alpha=None) -> ReducedAlgebra:
    """A catalog algebra by name.  alpha is accepted only for N4alpha and
    may be a Scalar, Fraction, int or scalar literal string."""
    if name not in NAMES:
        raise UnknownName("no catalog algebra named %r" % name)
    if alpha is not None:
        if name != "N4alpha":
            raise InvalidParams("%s takes no parameter" % name)
        alpha = _coerce_scalar(alpha)
    key = (name, str(alpha) if alpha is not None else None)
    if key not in _cache:
        _cache[key] = _build(name, alpha)
    return _cache[key]


def _coerce_scalar(alpha) -> Scalar:
    if isinstance(alpha, Scalar):
        return alpha
    if isinstance(alpha, int):
        return Scalar.from_int(alpha)
    if isinstance(alpha, Fraction):
        return Scalar.from_fraction(alpha)
    if isinstance(alpha, str):
        from .scalars import parse, ScalarParseError
        try:
            return parse(alpha)
        except ScalarParseError as exc:
            raise InvalidParams("bad scalar literal: %s" % exc)
    raise InvalidParams("cannot interpret %r as a scalar" % (alpha,))


# -- golden files -----------------------------------------------------------


def golden_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, "%s.json" % name.lower())


def load_golden(name: str) -> ReducedAlgebra:
    with open(golden_path(name)) as fh:
        return ReducedAlgebra.from_json(fh.read())


# -- linear maps between algebras -------------------------------------------


def extend_v_map(R1: ReducedAlgebra, R2: ReducedAlgebra, phi: dict):
    """Extend a partial map (typically L and the weight-3/2 generators)
    to all of R1 by closing under products.  Returns a full basis map or
    None when the closure is inconsistent or does not span.

    The map is kept as the span of its graph vectors (x | f(x)).  A pivot
    past the R1 block means two images for one source; at full rank, row k
    of the reduced graph is (e_k | f(e_k))."""
    n1 = R1.dim
    graph = Subspace(n1 + R2.dim)

    def add(el1, el2) -> bool:
        if not graph.add(R1.vector(el1) + R2.vector(el2)):
            return False
        if graph.pivots[-1] >= n1:
            raise ValueError("inconsistent images")
        return True

    pairs = [(R1.basis_element(k), dict(v)) for k, v in phi.items()]
    try:
        for el1, el2 in pairs:
            add(el1, el2)
        frontier = list(pairs)
        known = list(pairs)
        ns = sorted({n for (n, _, _) in R1.products})
        while frontier and graph.dim < n1:
            new = []
            for x1, x2 in known:
                for y1, y2 in frontier:
                    for n in ns:
                        z1 = R1.product_n(x1, n, y1)
                        z2 = R2.product_n(x2, n, y2)
                        if (z1 or z2) and add(z1, z2):
                            new.append((z1, z2))
            known.extend(new)
            frontier = new
    except ValueError:
        return None
    if graph.dim != n1:
        return None
    return {b.id: R2.element(row[n1:])
            for b, row in zip(R1.basis, graph.rows)}


def iso_check(R1: ReducedAlgebra, R2: ReducedAlgebra, f: dict) -> bool:
    """True iff the basis map f is an isomorphism of reduced algebras."""
    if R1.dim != R2.dim:
        return False
    if set(f) != {b.id for b in R1.basis}:
        return False
    from .linalg import rank
    mat = [[f[b.id].get(c.id, ZERO) for b in R1.basis] for c in R2.basis]
    if rank(mat) != R1.dim:
        return False

    def fmap(el):
        out = {}
        for k, c in el.items():
            el_add_into(out, f[k], c)
        return out

    # fmap drops the zero coefficients a map file may list
    if fmap(R1.basis_element(R1.L)) != R2.basis_element(R2.L):
        return False

    nmax = max(R1.max_n(), R2.max_n())
    for a in R1.basis:
        for b in R1.basis:
            for n in range(nmax + 1):
                lhs = fmap(R1.products.get((n, a.id, b.id), {}))
                rhs = R2.product_n(f[a.id], n, f[b.id])
                if lhs != rhs:
                    return False
    return True


def swap_map(R_plus: ReducedAlgebra, R_minus: ReducedAlgebra):
    """The isomorphism N4alpha(a) -> N4alpha(-a) induced by exchanging
    the first two orthonormal generators: D1 -> i*Db1, Db1 -> -i*D1."""
    phi = {
        "L": R_minus.basis_element("L"),
        "D1": {"Db1": IMAG},
        "Db1": {"D1": -IMAG},
        "D2": R_minus.basis_element("D2"),
        "Db2": R_minus.basis_element("Db2"),
    }
    return extend_v_map(R_plus, R_minus, phi)


# -- invariants -------------------------------------------------------------


def invariant_signature(R: ReducedAlgebra) -> dict:
    """Weight dimensions, the characteristic polynomial of the wedge-square
    Gram matrix in the null frame, and simplicity.  The polynomial is "1"
    when V is trivial and None when V is not named by the null convention."""
    dims = {str(w): n for w, n in sorted(R.weight_dims().items())}
    try:
        cp = tpoly_str(charpoly(form_V_wedge_V(R)))
    except ValueError:
        cp = None
    return {"dims": dims, "charpoly": cp,
            "simple": is_simple(R).simple}


def triple_form_condition(R: ReducedAlgebra):
    """The single entry, up to sign, filling the Gram matrix of the triple
    wedge pairing; None when the entries are not all alike.  Nonvanishing
    of the returned scalar is the nondegeneracy condition of the pairing
    and hence, for the four-supercharge family, of simplicity."""
    from .algebra import form_V3
    V = R.space(Fraction(3, 2))
    F = R.space(Fraction(1, 2))
    if len(V) != 4 or not F:
        return None
    vals = {}
    for row in form_V3(R):
        for c in row:
            if c:
                vals[str(c)] = c
    if not vals:
        return ZERO
    reps, seen = [], set()
    for s, c in sorted(vals.items()):
        if s not in seen:
            seen.add(s)
            seen.add(str(-c))
            reps.append(c)
    if len(reps) != 1:
        return None
    c = reps[0]
    return -c if str(c).startswith("-") else c
