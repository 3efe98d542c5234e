"""Reduced algebras: coefficient functions, axiom checkers, ideals and
invariant forms."""
from fractions import Fraction

import pytest

from confsalg.scalars import Scalar, ZERO, ONE
from confsalg.algebra import (coeff_G, coeff_F, BasisVector, ReducedAlgebra,
                              el_add_into, el_scale,
                              check_well_formed, check_P_axioms,
                              check_H_axioms, is_physical_shape, center,
                              ideal_closure, quotient, f3_subspace,
                              is_simple, null_pairs, alpha_matrix,
                              form_V_wedge_V)
from confsalg import catalog

H = Fraction(1, 2)


# -- coefficient functions --------------------------------------------------


def test_coeff_G_j_zero_is_one():
    for da in (Fraction(2), Fraction(3, 2), Fraction(1)):
        for db in (Fraction(2), Fraction(1, 2)):
            for n in range(4):
                assert coeff_G(da, db, n, 0) in (Fraction(1), Fraction(0))


def test_coeff_G_first_derivative_of_conformal_action():
    # the j = 1 coefficient of L acting with n = 0 is 1/weight
    for w in (Fraction(2), Fraction(3, 2), Fraction(1), H):
        assert coeff_G(Fraction(2), w, 0, 1) == Fraction(1) / w


def test_coeff_G_vanishes_on_negative_half_integers():
    # s = da + db - n - j - 1 in -N/2 kills the coefficient
    assert coeff_G(H, H, 0, 1) == 0
    assert coeff_G(Fraction(1), H, 1, 1) == 0


def test_coeff_G_product_formula_spot_value():
    # j = 2, da = db = 2, n = 0: (2*2-0-2-1)(2*2-0-2-1+1) over
    # (2(4-0-2-1))(2(4-0-2-1)+1)
    assert coeff_G(Fraction(2), Fraction(2), 0, 2) == \
        Fraction(1 * 2, 2 * 3)


def test_coeff_F_top_term_reduces_to_G():
    # with t = 0 only k = 0 contributes
    for m in range(3):
        for n in range(3):
            assert coeff_F(Fraction(3, 2), Fraction(3, 2), m, n, 0) == \
                coeff_G(Fraction(3, 2), Fraction(3, 2), m, 0) * 1


# -- element helpers --------------------------------------------------------


def test_element_arithmetic():
    x = {"a": ONE, "b": Scalar.from_int(2)}
    el_add_into(x, {"b": Scalar.from_int(-2), "c": ONE})
    assert x == {"a": ONE, "c": ONE}
    assert el_scale(x, ZERO) == {}


# -- reduced algebra plumbing -----------------------------------------------


def vir():
    return catalog.build("Vir")


def test_weight_rule_enforced():
    bad = ReducedAlgebra(
        [BasisVector("L", Fraction(2), 0), BasisVector("X", Fraction(1), 0)],
        "L",
        {(1, "L", "L"): {"L": Scalar.from_int(2)},
         (1, "X", "X"): {"X": ONE}})
    rep = check_well_formed(bad)
    assert not rep.ok


def test_json_round_trip_is_byte_identical():
    R = catalog.build("S2")
    text = R.to_json()
    again = ReducedAlgebra.from_json(text)
    assert again.to_json() == text
    assert again.dim == R.dim
    assert again.weight("D1") == Fraction(3, 2)


def test_product_n_bilinearity():
    R = catalog.build("K3")
    x = R.basis_element("D1")
    y = dict(R.basis_element("Db1"))
    el_add_into(y, R.basis_element("e3"), Scalar.from_int(3))
    lhs = R.product_n(x, 0, y)
    rhs = dict(R.product_n(x, 0, R.basis_element("Db1")))
    el_add_into(rhs, R.product_n(x, 0, R.basis_element("e3")),
                Scalar.from_int(3))
    assert lhs == rhs


def test_physical_shape():
    assert is_physical_shape(catalog.build("K2"))
    assert is_physical_shape(vir())


def test_axiom_checkers_accept_virasoro():
    assert check_P_axioms(vir(), 4, 4).ok
    assert check_H_axioms(vir()).ok


def test_axiom_checkers_catch_mutations():
    R = catalog.build("K2")
    for label, M in R.sign_mutations():
        ok = check_P_axioms(M, 2, 2, max_failures=1).ok and \
            check_H_axioms(M, max_failures=1).ok
        assert not ok, label


def test_failure_report_carries_instances():
    R = catalog.build("K2")
    label, M = next(iter(R.sign_mutations()))
    rep = check_P_axioms(M, 2, 2)
    if rep.ok:
        rep = check_H_axioms(M)
    assert not rep.ok
    assert rep.failures
    assert "FAILED" in rep.summary()


# -- ideals and simplicity --------------------------------------------------


def test_center_trivial_on_catalog():
    for nm in ("Vir", "K1", "S2"):
        assert center(catalog.build(nm)) == []


def test_ideal_and_quotient_of_degenerate_family_member():
    R = catalog.build("N4alpha", 1)
    res = is_simple(R)
    assert not res.simple
    assert res.witness
    sub = ideal_closure(R, [res.witness])
    assert 0 < sub.dim < R.dim
    Q = quotient(R, sub)
    assert Q.dim == R.dim - sub.dim
    assert check_P_axioms(Q, 2, 2).ok


def test_f3_subspace_trivial_for_simple_members():
    for nm in ("K3", "W2", "CK6"):
        assert f3_subspace(catalog.build(nm)) == []


# -- null basis and forms ---------------------------------------------------


def test_null_pairs_convention():
    pairs, odd = null_pairs(catalog.build("K3"))
    assert pairs == [("D1", "Db1")]
    assert odd == "e3"
    pairs, odd = null_pairs(catalog.build("CK6"))
    assert len(pairs) == 3 and odd is None


def test_inner_gram_is_null_pairing():
    R = catalog.build("S2")
    gram = R.inner_gram()
    # (Di, Dbi) = 1 and isotropic otherwise, in the basis order D1 Db1 D2 Db2
    want = [[ZERO, ONE, ZERO, ZERO], [ONE, ZERO, ZERO, ZERO],
            [ZERO, ZERO, ZERO, ONE], [ZERO, ZERO, ONE, ZERO]]
    assert gram == want


def test_alpha_matrix_values():
    assert alpha_matrix(catalog.build("S2")) == \
        [[ONE, -ONE], [-ONE, ONE]]
    m = alpha_matrix(catalog.build("N4alpha", 2))
    two = Scalar.from_int(2)
    assert m == [[ONE, two], [two, ONE]]


def test_wedge_form_is_symmetric():
    R = catalog.build("N4alpha")
    G = form_V_wedge_V(R)
    n = len(G)
    for i in range(n):
        for j in range(n):
            assert G[i][j] == G[j][i]
