"""Catalog builds, frozen solver outputs, maps between algebras and the
family invariants."""
import hashlib
from fractions import Fraction

import pytest

from confsalg.scalars import Scalar, ZERO, ONE, ALPHA, IMAG, parse
from confsalg.algebra import (ReducedAlgebra, is_physical_shape, is_simple,
                              ideal_closure, quotient, form_V_wedge_V)
from confsalg.linalg import charpoly, tpoly_str
from confsalg import catalog
from confsalg.catalog import (build, golden_path, extend_v_map,
                              iso_check, swap_map, invariant_signature,
                              triple_form_condition, UnknownName,
                              InvalidParams, NAMES)

DIMS = {"Vir": 1, "K1": 2, "K2": 4, "K3": 8, "S2": 8, "W2": 12,
        "N4": 16, "N4alpha": 16, "CK6": 32}


@pytest.mark.parametrize("name", NAMES)
def test_dimensions_and_shape(name):
    R = build(name)
    assert R.dim == DIMS[name]
    assert is_physical_shape(R)


def test_weight_splits():
    w = {Fraction(2): "L", Fraction(3, 2): "V", Fraction(1): "A",
         Fraction(1, 2): "F"}
    splits = {
        "S2": (1, 4, 3, 0),
        "W2": (1, 4, 5, 2),
        "N4alpha": (1, 4, 7, 4),
        "CK6": (1, 6, 15, 10),
    }
    for name, (l, v, a, f) in splits.items():
        dims = build(name).weight_dims()
        assert dims.get(Fraction(2), 0) == l
        assert dims.get(Fraction(3, 2), 0) == v
        assert dims.get(Fraction(1), 0) == a
        assert dims.get(Fraction(1, 2), 0) == f


def test_bad_names_and_params():
    with pytest.raises(UnknownName):
        build("K5")
    with pytest.raises(InvalidParams):
        build("S2", alpha=2)
    with pytest.raises(InvalidParams):
        build("N4alpha", alpha=object())


def test_alpha_coercion():
    half = build("N4alpha", "1/2")
    assert half is build("N4alpha", Fraction(1, 2))
    assert half is build("N4alpha", Scalar.from_fraction(Fraction(1, 2)))
    # the default alpha is the symbol a, under one cache entry
    assert build("N4alpha") is build("N4alpha", "a")
    assert build("N4alpha") is build("N4alpha", ALPHA)


def test_golden_files_are_byte_stable():
    for name in ("W2", "CK6"):
        fresh = build(name).to_json()
        with open(golden_path(name)) as fh:
            text = fh.read()
        assert text == fresh
        assert ReducedAlgebra.from_json(text).dim == DIMS[name]


# -- maps -------------------------------------------------------------------


def test_extend_v_map_identity():
    R = build("S2")
    phi = {k: {k: ONE} for k in ("L", "D1", "Db1", "D2", "Db2")}
    f = extend_v_map(R, R, phi)
    assert f is not None
    for b in R.basis:
        assert f[b.id] == {b.id: ONE}
    assert iso_check(R, R, f)


def test_extend_v_map_detects_mismatch():
    R0 = build("N4alpha", 0)
    R2 = build("N4alpha", 2)
    phi = {k: {k: ONE} for k in ("L", "D1", "Db1", "D2", "Db2")}
    assert extend_v_map(R0, R2, phi) is None


def test_extend_v_map_needs_a_spanning_closure():
    """L alone closes to span(L) under the products of S2."""
    R = build("S2")
    assert extend_v_map(R, R, {"L": {"L": ONE}}) is None


def test_swap_map_symbolic():
    Rp = build("N4alpha", ALPHA)
    Rm = build("N4alpha", -ALPHA)
    f = swap_map(Rp, Rm)
    assert f is not None
    assert iso_check(Rp, Rm, f)


def test_iso_check_rejects_non_maps():
    R = build("K2")
    f = {b.id: {b.id: ONE} for b in R.basis}
    assert iso_check(R, R, f)
    bad = dict(f)
    bad["D1"] = {"Db1": ONE}          # D1 and Db1 share an image
    assert not iso_check(R, R, bad)
    assert not iso_check(R, build("K3"), f)


@pytest.mark.parametrize("src,img", [
    # <D1 0 Db1> = L, but 2*D1 . Db1 = 2L: a product is not preserved
    ("D1", {"D1": Scalar.from_int(2)}),
    # independent images, but L does not go to L
    ("L", {"L": Scalar.from_int(2)}),
])
def test_iso_check_rejects_non_homomorphisms(src, img):
    R = build("K2")
    f = {b.id: {b.id: ONE} for b in R.basis}
    f[src] = img
    assert not iso_check(R, R, f)


# -- invariants -------------------------------------------------------------


def test_signature_separates_the_family():
    s0 = invariant_signature(build("N4alpha", 0))
    s2 = invariant_signature(build("N4alpha", 2))
    assert s0["dims"] == s2["dims"] == {"2": 1, "3/2": 4, "1": 7, "1/2": 4}
    assert s0["simple"] and s2["simple"]
    assert s0["charpoly"] != s2["charpoly"]


def test_signature_handles_renamed_bases():
    sig = invariant_signature(build("N4"))
    assert sig["simple"]
    assert sig["charpoly"] is None    # basis is not in the null convention
    assert invariant_signature(build("Vir"))["charpoly"] == "1"


def test_triple_form_condition():
    cond = triple_form_condition(build("N4alpha", ALPHA))
    assert cond in (ONE - ALPHA * ALPHA, ALPHA * ALPHA - ONE)
    assert triple_form_condition(build("N4alpha", 1)) == ZERO
    assert triple_form_condition(build("N4alpha", parse("1/2"))) != ZERO
    assert triple_form_condition(build("S2")) is None


def test_degenerate_members_are_not_simple():
    from confsalg.algebra import is_simple_physical
    for a in (0, 2, Fraction(1, 2)):
        assert is_simple_physical(build("N4alpha", a)).simple
    for a in (1, -1):
        res = is_simple_physical(build("N4alpha", a))
        assert not res.simple
        assert res.witness
    assert is_simple_physical(build("N4")).simple


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def el_str(R, el):
    return ",".join("%s:%s" % (k, el[k]) for k in sorted(el, key=R.index.get))


# SHA-256 of one line per algebra: the is_simple verdict, reason and
# witness and, for a non-simple one, the SHA-256 of the quotient by the
# ideal its witness generates; fixed before the echelon rows became sparse.
SIMPLICITY_SHA256 = \
    "25a203c8d6403ddfe12fdef4e43f848fdc5807e72d183bd14d451d97b6b5e508"
# SHA-256 of the map swap_map(N4alpha(a), N4alpha(-a)), one line per
# source id; fixed at the same commit.
SWAP_MAP_SHA256 = \
    "f1509def2651bd28e3efccdc6e06a1f88e39bbce1ecb28690a5cf5b1641967d9"


def test_simplicity_witnesses_and_quotients_are_pinned():
    lines = []
    for name, a in [(nm, None) for nm in NAMES] + \
            [("N4alpha", a) for a in (1, -1, 2)]:
        R = build(name, a)
        res = is_simple(R)
        line = [name, str(a), str(res.simple), res.reason,
                el_str(R, res.witness or {})]
        if not res.simple:
            Q = quotient(R, ideal_closure(R, [res.witness]))
            line.append(sha256(Q.to_json()))
        lines.append("|".join(line))
    assert [ln.split("|")[2] for ln in lines[-3:]] == ["False", "False",
                                                       "True"]
    assert sha256("\n".join(lines)) == SIMPLICITY_SHA256


def test_swap_map_is_pinned():
    Rp, Rm = build("N4alpha", ALPHA), build("N4alpha", -ALPHA)
    f = swap_map(Rp, Rm)
    text = "\n".join("%s|%s" % (b.id, el_str(Rm, f[b.id])) for b in Rp.basis)
    assert sha256(text) == SWAP_MAP_SHA256


# SHA-256 of one line per algebra: its invariant_signature, its
# triple_form_condition, and the characteristic polynomial of its wedge
# Gram matrix, or the ValueError text where the null convention does not
# name its V; fixed while the Gram matrix was still a dense list of rows.
INVARIANTS_SHA256 = \
    "4ce8fcb09d4ac88c064790ab2531f7358c2229d85513d65c6e94bcca2a660329"


def test_invariants_are_pinned():
    cases = [(nm, None) for nm in NAMES] + \
        [("N4alpha", a) for a in (0, 1, -1, 2, Fraction(1, 2), IMAG)]
    lines = []
    for name, a in cases:
        R = build(name, a)
        sig = invariant_signature(R)
        try:
            cp = tpoly_str(charpoly(form_V_wedge_V(R)))
        except ValueError as exc:
            cp = "ValueError: %s" % exc
        lines.append("|".join([
            name, str(a), repr(sorted(sig["dims"].items())),
            str(sig["charpoly"]), str(sig["simple"]),
            str(triple_form_condition(R)), cp]))
    assert sha256("\n".join(lines)) == INVARIANTS_SHA256
