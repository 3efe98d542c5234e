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

from .scalars import (Scalar, ZERO, ONE, MINUS_ONE, IMAG, ALPHA,
                      ScalarParseError, parse)
from .linalg import Subspace, charpoly, el_add_into, row_space, tpoly_str
from .algebra import (W_F, W_V, ReducedAlgebra, form_V3, form_V_wedge_V,
                      is_simple, physical_basis)
from .construct import (BuilderSpec, build_from_spec, build_f_extension,
                        CK6_SPEC, _wedge3_basis)
from .reconstruct import change_conformal_vector

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


class UnknownName(ValueError):
    pass


class InvalidParams(ValueError):
    pass


# J0 = Span{D1 ^ Db1 ^ D2, D1 ^ D2 ^ Db2} over the triple basis in
# lexicographic order of (D1, Db1, D2, Db2)
_W2_J0 = ((0, 1, 2), (0, 2, 3))

# name -> recipe(alpha), in catalog order; alpha is None except for N4alpha
_RECIPES = {
    "Vir": lambda _: ReducedAlgebra(
        physical_basis((), 0, 0), "L",
        {(1, "L", "L"): {"L": Scalar.from_int(2)}}),
    "K1": lambda _: build_from_spec(BuilderSpec.from_alpha(0, True, [])),
    "K2": lambda _: build_from_spec(
        BuilderSpec.from_alpha(1, False, [[ZERO]])),
    "K3": lambda _: build_from_spec(
        BuilderSpec.from_alpha(1, True, [[ZERO]])),
    "S2": lambda _: build_from_spec(BuilderSpec.from_alpha(
        2, False, [[ZERO, MINUS_ONE], [MINUS_ONE, ZERO]], [(0, 0), (1, 1)])),
    "W2": lambda _: build_f_extension(
        build("S2"), [{_wedge3_basis(4).index(t): ONE} for t in _W2_J0]),
    "N4": lambda _: change_conformal_vector(build("N4alpha", 0), ONE),
    "N4alpha": lambda alpha: build_from_spec(BuilderSpec.from_alpha(
        2, False, [[ZERO, alpha], [alpha, ZERO]])),
    "CK6": lambda _: build_from_spec(CK6_SPEC),
}

NAMES = tuple(_RECIPES)


_cache = {}


def build(name: str, alpha=None) -> ReducedAlgebra:
    """A catalog algebra by name.  alpha is accepted only for N4alpha and
    may be a Scalar, Fraction, int or scalar literal string; N4alpha's
    default is the symbol a, so build("N4alpha") is build("N4alpha", "a")."""
    if name not in NAMES:
        raise UnknownName("no catalog algebra named %r" % name)
    if name == "N4alpha":
        alpha = ALPHA if alpha is None else _coerce_scalar(alpha)
    elif alpha is not None:
        raise InvalidParams("%s takes no parameter" % name)
    key = (name, str(alpha) if alpha is not None else None)
    if key not in _cache:
        _cache[key] = _RECIPES[name](alpha)
    return _cache[key]


def _coerce_scalar(alpha) -> Scalar:
    if isinstance(alpha, Scalar):
        return alpha
    if isinstance(alpha, int):
        return Scalar.from_int(alpha)
    if isinstance(alpha, Fraction):
        return Scalar.from_fraction(alpha)
    if isinstance(alpha, str):
        try:
            return parse(alpha)
        except ScalarParseError as exc:
            raise InvalidParams("bad scalar literal: %s" % exc)
    raise InvalidParams("cannot interpret %r as a scalar" % (alpha,))


# -- golden files -----------------------------------------------------------


def golden_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, "%s.json" % name.lower())


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
        vec = R1.vector(el1)
        vec.update((n1 + k, c) for k, c in R2.vector(el2).items())
        if not graph.add(vec):
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
    return {b.id: R2.element({k - n1: c for k, c in row.items() if k >= n1})
            for b, row in zip(R1.basis, graph.rows)}


def iso_check(R1: ReducedAlgebra, R2: ReducedAlgebra, f: dict) -> bool:
    """True iff the basis map f is an isomorphism of reduced algebras.
    Raises ValueError when a key names an id outside R1's basis or an
    image one outside R2's; a key missing from f is a plain False."""
    for src, img in f.items():
        if src not in R1.index:
            raise ValueError("map key %r is outside the source basis" % src)
        unknown = [t for t in img if t not in R2.index]
        if unknown:
            raise ValueError("image of %s names ids outside the target "
                             "basis: %r" % (src, unknown))
    if R1.dim != R2.dim:
        return False
    if set(f) != {b.id for b in R1.basis}:
        return False
    # the images must be independent; a map file may list zero coefficients
    images = ({R2.index[t]: c for t, c in f[b.id].items() if c}
              for b in R1.basis)
    if row_space(images, R2.dim).dim != R1.dim:
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
    of the returned scalar is the nondegeneracy condition of the pairing;
    it decides simplicity on the N4alpha family only (the pairing vanishes
    identically on W2 and N4, which are simple)."""
    V = R.space(W_V)
    F = R.space(W_F)
    if len(V) != 4 or not F:
        return None
    vals = {}
    for row in form_V3(R):
        for c in row.values():
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
