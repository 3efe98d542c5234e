"""Acceptance gate.

Eleven end-to-end criteria over the whole package: catalog axioms,
reconstruction, simplicity, invariants, isomorphisms, case exclusions,
dimensions, module decomposition, mode algebra, golden stability and
mutation sensitivity.  Everything is exact equality."""
import random
from fractions import Fraction

import pytest

from confsalg.scalars import Scalar, ZERO, ONE, ALPHA
from confsalg.linalg import charpoly
from confsalg.algebra import (check_P_axioms, check_H_axioms,
                              is_simple_physical, form_V_wedge_V)
from confsalg.construct import (assemble_wedge_form, wedge_lookup,
                                exclusion_sweep)
from confsalg.clifford import Clifford
from confsalg.reconstruct import reconstruct, check_C_axioms, mode_bracket
from confsalg import catalog
from confsalg.catalog import (build, swap_map, iso_check, golden_path,
                              invariant_signature, triple_form_condition,
                              NAMES)
from test_linalg import tpoly_mul


def all_nine():
    for name in NAMES:
        yield name, build(name)


# 1. every catalog member satisfies the product and physical axioms

@pytest.mark.parametrize("name", NAMES)
def test_01_catalog_axioms(name):
    R = build(name)
    rep = check_P_axioms(R, 4, 4)
    assert rep.ok, rep.summary()
    rep = check_H_axioms(R)
    assert rep.ok, rep.summary()


# 2. the reconstructed full products satisfy the conformal axioms

@pytest.mark.parametrize("name", NAMES)
def test_02_reconstruction_axioms(name):
    rep = check_C_axioms(reconstruct(build(name)), 4, 4, 4)
    assert rep.ok, rep.summary()


# 3. simplicity across the four-supercharge family

def test_03_simplicity():
    for a in (0, 2, Fraction(1, 2)):
        assert is_simple_physical(build("N4alpha", a)).simple
    for a in (1, -1):
        assert not is_simple_physical(build("N4alpha", a)).simple
    cond = triple_form_condition(build("N4alpha", ALPHA))
    assert cond in (ONE - ALPHA * ALPHA, ALPHA * ALPHA - ONE)
    assert is_simple_physical(build("N4")).simple


# 4. the symbolic invariant form and its characteristic polynomial

def test_04_invariant_form():
    R = build("N4alpha", ALPHA)
    G = form_V_wedge_V(R)
    want = assemble_wedge_form(2, False, [[ZERO, ALPHA], [ALPHA, ZERO]])
    # basis order: Db1^D1, Db2^D2, D1^D2, Db1^D2, D1^Db2, Db1^Db2
    frame = [(1, 0), (3, 2), (0, 2), (1, 2), (0, 3), (1, 3)]
    for r, (a, b) in enumerate(frame):
        for c, (x, y) in enumerate(frame):
            assert G[r].get(c, ZERO) == wedge_lookup(want, a, b, x, y), (r, c)

    cp = charpoly(G)
    # ((t+1)^2 - a^2) ((t-1)^2 - a^2)^2 in low-first coefficients
    a2 = ALPHA * ALPHA
    plus = [ONE - a2, Scalar.from_int(2), ONE]
    minus = [ONE - a2, Scalar.from_int(-2), ONE]
    want_cp = tpoly_mul(plus, tpoly_mul(minus, minus))
    assert cp == want_cp


# 5. the generator swap is an isomorphism onto the opposite parameter

def test_05_swap_isomorphism_and_separation():
    Rp = build("N4alpha", ALPHA)
    Rm = build("N4alpha", -ALPHA)
    f = swap_map(Rp, Rm)
    assert f is not None and iso_check(Rp, Rm, f)

    def subst(poly, a):
        return [c.subs(Scalar.from_int(a)) for c in poly]

    cp = charpoly(form_V_wedge_V(Rp))
    cp0 = subst(cp, 0)
    cp2 = subst(cp, 2)
    assert cp0 == charpoly(form_V_wedge_V(build("N4alpha", 0)))
    assert cp2 == charpoly(form_V_wedge_V(build("N4alpha", 2)))
    assert cp0 != cp2
    s0 = invariant_signature(build("N4alpha", 0))
    s2 = invariant_signature(build("N4alpha", 2))
    assert s0["charpoly"] != s2["charpoly"]
    # factored forms: (t+1)^2 (t-1)^4 and (t+3)(t-1)(t-3)^2 (t+1)^2
    lin = lambda r: [Scalar.from_int(-r), ONE]
    f0 = tpoly_mul(tpoly_mul(lin(-1), lin(-1)),
                   tpoly_mul(tpoly_mul(lin(1), lin(1)),
                             tpoly_mul(lin(1), lin(1))))
    f2 = tpoly_mul(tpoly_mul(lin(-3), lin(1)),
                   tpoly_mul(tpoly_mul(lin(3), lin(3)),
                             tpoly_mul(lin(-1), lin(-1))))
    assert cp0 == f0
    assert cp2 == f2


# 6. the finite case sweeps

def test_06_exclusions():
    for d in (5, 7):
        rep = exclusion_sweep(d)
        assert not rep.satisfiable
        assert any("2 and -2" in n for n in rep.notes)
    rep6 = exclusion_sweep(6)
    sols6 = {tuple(int(v) for v in s) for s in rep6.solutions}
    assert sols6 == {(0, 0, 0), (-1, -1, -1), (-1, 1, 1), (1, -1, 1),
                     (1, 1, -1)}
    for s in rep6.solutions:
        if any(s):
            assert "zero algebra" in rep6.verdicts[s]
        else:
            assert "simple algebra" in rep6.verdicts[s]
    rep8 = exclusion_sweep(8)
    sols8 = {tuple(int(v) for v in s) for s in rep8.solutions}
    assert sols8 == {
        (0, 0, 0, 0, 0, 0),
        (1, 1, 1, -1, -1, -1), (1, 1, -1, -1, 1, 1),
        (1, -1, 1, 1, -1, 1), (1, -1, -1, 1, 1, -1),
        (-1, 1, -1, 1, -1, 1), (-1, 1, 1, 1, 1, -1),
        (-1, -1, 1, -1, 1, 1), (-1, -1, -1, -1, -1, -1)}
    assert all("zero algebra" in rep8.verdicts[s] for s in rep8.solutions)


# 7. dimensions per weight, recomputed from the conformal action

EXPECTED_SPLITS = {
    "Vir": {2: 1},
    "K1": {2: 1, Fraction(3, 2): 1},
    "K2": {2: 1, Fraction(3, 2): 2, 1: 1},
    "K3": {2: 1, Fraction(3, 2): 3, 1: 3, Fraction(1, 2): 1},
    "S2": {2: 1, Fraction(3, 2): 4, 1: 3},
    "W2": {2: 1, Fraction(3, 2): 4, 1: 5, Fraction(1, 2): 2},
    "N4": {2: 1, Fraction(3, 2): 4, 1: 7, Fraction(1, 2): 4},
    "N4alpha": {2: 1, Fraction(3, 2): 4, 1: 7, Fraction(1, 2): 4},
    "CK6": {2: 1, Fraction(3, 2): 6, 1: 15, Fraction(1, 2): 10},
}


@pytest.mark.parametrize("name", NAMES)
def test_07_dimensions(name):
    R = build(name)
    want = {Fraction(w): n for w, n in EXPECTED_SPLITS[name].items()}
    assert R.weight_dims() == want
    assert R.dim == sum(want.values())
    # independent: read each weight off the L eigenvalue in the products
    counted = {}
    for b in R.basis:
        img = R.product_basis(1, R.L, b.id)
        assert set(img) == {b.id}
        w = img[b.id]
        counted[str(w)] = counted.get(str(w), 0) + 1
    assert counted == {str(Scalar.from_fraction(w)): n
                       for w, n in want.items()}


# 8. complete reducibility of the regular Clifford module

@pytest.mark.parametrize("npairs", [1, 2, 3])
def test_08_module_decomposition(npairs):
    cl = Clifford(npairs)
    mods = cl.module_decompose()
    assert len(mods) == 2 ** npairs
    assert sum(sub.dim for _, _, sub in mods) == cl.dim == 4 ** npairs
    for _, _, sub in mods:
        assert sub.dim == 2 ** npairs
        assert cl.is_irreducible(sub)


# 9. the mode algebra

def test_09_virasoro_modes():
    RA = reconstruct(build("Vir"))
    for m in range(-5, 6):
        for n in range(-5, 6):
            br = mode_bracket(RA, {"L": ONE}, m, {"L": ONE}, n)
            want = {("L", m + n - 1): Scalar.from_int(m - n)} \
                if m != n else {}
            assert br == want


def test_09_random_mode_identities():
    RA = reconstruct(build("K3"))
    R = RA.R
    rng = random.Random(20240)
    names = [b.id for b in R.basis]

    def bra(x, y):
        out = {}
        for (a, m), ca in x.items():
            for (b, n), cb in y.items():
                for key, c in mode_bracket(RA, {a: ONE}, m,
                                           {b: ONE}, n).items():
                    v = out.get(key, ZERO) + ca * cb * c
                    if v:
                        out[key] = v
                    elif key in out:
                        del out[key]
        return out

    def sgn(a, b):
        return Scalar.from_int(-1 if R.parity(a) and R.parity(b) else 1)

    for _ in range(100):
        a, b, c = (rng.choice(names) for _ in range(3))
        m, n, p = (rng.randint(-3, 3) for _ in range(3))
        xa, xb, xc = {(a, m): ONE}, {(b, n): ONE}, {(c, p): ONE}
        # antisymmetry
        lhs, rhs = bra(xa, xb), bra(xb, xa)
        for key in set(lhs) | set(rhs):
            assert lhs.get(key, ZERO) == \
                -sgn(a, b) * rhs.get(key, ZERO)
        # Jacobi: [a,[b,c]] = [[a,b],c] + (-1)^{|a||b|} [b,[a,c]]
        left = bra(xa, bra(xb, xc))
        right = bra(bra(xa, xb), xc)
        mid = bra(xb, bra(xa, xc))
        for key in set(left) | set(right) | set(mid):
            assert left.get(key, ZERO) == \
                right.get(key, ZERO) + sgn(a, b) * mid.get(key, ZERO)


# 10. frozen solver outputs

def test_10_golden_stability():
    for name in ("W2", "CK6"):
        with open(golden_path(name)) as fh:
            assert fh.read() == build(name).to_json()


# 11. sensitivity to any single sign flip

def test_11_mutation_sensitivity():
    R = build("N4alpha", 0)
    labels = []
    for label, M in R.sign_mutations():
        ok = check_H_axioms(M, max_failures=1).ok and \
            check_P_axioms(M, 2, 2, max_failures=1).ok
        if ok:
            labels.append(label)
    assert labels == []
