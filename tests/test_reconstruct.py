"""Full products from the reduced data, mode brackets, and moving the
conformal vector."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from confsalg.scalars import Scalar, ZERO, ONE
from confsalg.algebra import (BasisVector, ReducedAlgebra, check_P_axioms,
                              check_H_axioms, is_physical_shape)
from confsalg.reconstruct import (dpoly, dp_add_into, binom_ff,
                                  reconstruct, check_C_axioms, mode_bracket,
                                  change_conformal_vector, NotN4Shape)
from confsalg import catalog


def S(n):
    return Scalar.from_int(n)


def test_dpoly_helpers():
    x = dpoly({"a": ONE}, 2)
    assert x == {2: {"a": ONE}}
    assert dpoly({}, 1) == {}
    # d^(1) d^(2) a = C(3, 2) d^(3) a on divided powers
    y = {}
    dp_add_into(y, x, S(2), 1)
    assert y == {3: {"a": S(6)}}
    dp_add_into(x, dpoly({"a": -ONE}, 2))
    assert x == {}


def test_binom_ff_negative_upper_index():
    # falling factorial form, valid for negative m
    assert binom_ff(-1, 2) == Fraction(1)
    assert binom_ff(-2, 1) == Fraction(-2)
    assert binom_ff(3, 2) == Fraction(3)
    assert binom_ff(2, 3) == Fraction(0)


def test_virasoro_products():
    RA = reconstruct(catalog.build("Vir"))
    L = dpoly({"L": ONE})
    assert RA.full_product(L, L, 1) == {0: {"L": S(2)}}
    # the 0 product is the derivative of L, in divided powers
    assert RA.full_product(L, L, 0) == {1: {"L": ONE}}
    with pytest.raises(ValueError):
        RA.full_product(L, L, -1)


def test_products_extend_to_derivatives():
    RA = reconstruct(catalog.build("K2"))
    # L_(1) d^{(k)} a = (k + w) d^{(k)} a for a of weight w
    a = dpoly({"D1": ONE}, 2)
    got = RA.full_product(dpoly({"L": ONE}), a, 1)
    want = {2: {"D1": Scalar.from_fraction(Fraction(2) + Fraction(3, 2))}}
    assert got == want


@pytest.mark.parametrize("name", ["Vir", "K2", "S2"])
def test_full_products_store_no_zero(name):
    # the sparse invariant on every product that C(1,1,1) forms: no zero
    # coefficient, no empty d-degree
    RA = reconstruct(catalog.build(name))
    full_product = RA.full_product
    seen = []

    def checked(x, y, n):
        out = full_product(x, y, n)
        assert all(el and all(el.values()) for el in out.values())
        seen.append(bool(out))
        return out

    RA.full_product = checked
    assert check_C_axioms(RA, 1, 1, 1).ok
    assert any(seen)


def central_virasoro():
    """Virasoro with a central vector: <L 1 L> = 2L, <L 3 L> = C/2."""
    return ReducedAlgebra(
        [BasisVector("L", Fraction(2), 0), BasisVector("C", Fraction(0), 0)],
        "L", {(1, "L", "L"): {"L": S(2)},
              (3, "L", "L"): {"C": Scalar.from_fraction(Fraction(1, 2))}})


def test_central_virasoro_reports():
    # C has weight 0, so L_(1) C = 0: the expected value must be the empty
    # d-polynomial, never {0: {"C": 0}}.  P accepts this algebra while C
    # rejects it; the C failures are pinned exactly as the checker gives them.
    R = central_virasoro()
    assert check_P_axioms(R, 4, 4).summary() == "ok (221 instances checked)"
    rep = check_C_axioms(R, 4, 4, 4)
    c2 = ["(C2) fails: a=L b=L k=0 l=%d n=%d" % inst for inst in (
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (1, 3),
        (2, 0), (2, 1), (2, 2), (2, 3), (2, 4),
        (3, 0), (3, 1), (3, 2), (3, 3), (3, 4), (4, 0))]
    assert (rep.ok, rep.checked) == (False, 47)
    assert rep.failures == ["L_(0) is not d on C",
                            "L_(2) derivative rule fails on C"] + c2


@pytest.mark.parametrize("bounds", [
    (-1, 0, 0), (0, -1, 0), (0, 0, -1), (65, 0, 0), (0, 10000, 0),
    (0, 0, 65)])
def test_checker_bounds_are_value_errors(bounds):
    R = catalog.build("Vir")
    m, n, d = bounds
    with pytest.raises(ValueError, match="must lie in 0..64"):
        check_C_axioms(R, m, n, d)
    if d == 0:
        with pytest.raises(ValueError, match="must lie in 0..64"):
            check_P_axioms(R, m, n)


@pytest.mark.parametrize("name,dmax", [("Vir", 4), ("K2", 4), ("S2", 2)])
def test_reconstruction_axioms(name, dmax):
    rep = check_C_axioms(reconstruct(catalog.build(name)), 4, 4, dmax)
    assert rep.ok, rep.summary()


@pytest.mark.parametrize("name", ["K2", "S2"])
def test_reconstruction_axioms_reject_sign_mutants(name):
    # K1 is left out: its <e1 0 e1> mutant is K1 rescaled by e1 -> i*e1
    passed = [label for label, M in catalog.build(name).sign_mutations()
              if check_C_axioms(M, 2, 2, 1).ok]
    assert passed == []


def test_reconstruction_axioms_failure_list():
    R = catalog.build("S2")
    M = dict(R.sign_mutations())["<L 1 L> term L"]
    rep = check_C_axioms(M, 2, 2, 1)
    c3 = ["(C3) fails: a=L b=L c=%s k=%d m=%d n=%d" % inst for inst in (
        ("D1", 0, 0, 1), ("D1", 0, 0, 2), ("D1", 0, 1, 0), ("D1", 0, 2, 0),
        ("D1", 1, 1, 1), ("D1", 1, 1, 2), ("D1", 1, 2, 0),
        ("Db1", 0, 0, 1), ("Db1", 0, 0, 2), ("Db1", 0, 1, 0),
        ("Db1", 0, 2, 0), ("Db1", 1, 1, 1), ("Db1", 1, 1, 2),
        ("Db1", 1, 2, 0),
        ("D2", 0, 0, 1), ("D2", 0, 0, 2), ("D2", 0, 1, 0))]
    assert (rep.ok, rep.checked) == (False, 814)
    assert rep.failures == ["L_(0) is not d on L",
                            "L_(1) eigenvalue wrong on L",
                            "L_(2) derivative rule fails on L"] + c3


def test_virasoro_mode_algebra():
    RA = reconstruct(catalog.build("Vir"))
    L = {"L": ONE}
    for m in range(-5, 6):
        for n in range(-5, 6):
            br = mode_bracket(RA, L, m, L, n)
            want = {}
            if m != n:
                want[("L", m + n - 1)] = S(m - n)
            assert br == want


modes = st.integers(min_value=-4, max_value=4)
ids = st.sampled_from(["L", "D1", "Db1"])


@given(ids, modes, ids, modes)
@settings(max_examples=40, deadline=None)
def test_mode_bracket_antisymmetry(a, m, b, n):
    RA = reconstruct(catalog.build("K2"))
    pa, pb = RA.R.parity(a), RA.R.parity(b)
    lhs = mode_bracket(RA, {a: ONE}, m, {b: ONE}, n)
    rhs = mode_bracket(RA, {b: ONE}, n, {a: ONE}, m)
    sign = S(-1 if pa * pb == 0 else 1)
    for key in set(lhs) | set(rhs):
        assert lhs.get(key, ZERO) == sign * rhs.get(key, ZERO)


# -- change of conformal vector ---------------------------------------------


def test_change_rejects_wrong_shape():
    with pytest.raises(NotN4Shape):
        change_conformal_vector(catalog.build("K2"), ONE)


def test_change_at_zero_reproduces_the_base_profile():
    R0 = catalog.build("N4alpha", 0)
    R = change_conformal_vector(R0, ZERO)
    assert R.dim == R0.dim
    assert R.weight_dims() == R0.weight_dims()
    assert is_physical_shape(R)
    assert check_P_axioms(R, 2, 2).ok
    assert check_H_axioms(R).ok


def test_change_yields_a_simple_physical_algebra():
    from confsalg.algebra import is_simple
    R = catalog.build("N4")
    assert R.dim == 16
    assert R.weight_dims() == {Fraction(2): 1, Fraction(3, 2): 4,
                               Fraction(1): 7, Fraction(1, 2): 4}
    assert is_physical_shape(R)
    assert is_simple(R).simple
    assert check_P_axioms(R, 3, 3).ok
    assert check_H_axioms(R).ok
