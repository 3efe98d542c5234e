"""Reduced algebras: coefficient functions, axiom checkers, ideals and
invariant forms."""
import hashlib
import random
from fractions import Fraction
from functools import lru_cache, partial
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from confsalg.scalars import Scalar, ZERO, ONE, IMAG, ALPHA
from confsalg.algebra import (coeff_G, coeff_F, BasisVector, ReducedAlgebra,
                              Report, el_add_into, el_scale,
                              check_well_formed, check_P_axioms,
                              check_H_axioms, is_physical_shape, center,
                              require_axioms,
                              ideal_closure, quotient, f3_subspace,
                              is_simple, null_pairs, alpha_matrix,
                              form_V_wedge_V, physical_basis)
from confsalg.reconstruct import check_C_axioms
from confsalg import algebra, catalog

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


def _g_by_recurrence(wa, wb, n, j) -> Fraction:
    """g(n, j) in a_(n) b = sum_j g(n, j) d^(j) <a n+j b>, from the L_(2)
    action on quasi-primary a and b: L_(2) (a_(n) b) = (2 wa - n - 2)
    a_(n+1) b and L_(2) d^(j) x = (j - 1 + 2 wx) d^(j-1) x, so
    g(n, j) (j - 1 + 2 wx) = (2 wa - n - 2) g(n+1, j-1) with g(n, 0) = 1,
    wx = wa + wb - n - j - 1 being the weight of <a n+j b>."""
    if j == 0:
        return Fraction(1)
    wx = wa + wb - n - j - 1
    return (2 * wa - n - 2) * _g_by_recurrence(wa, wb, n + 1, j - 1) / \
        (j - 1 + 2 * wx)


def test_coeff_G_solves_the_L2_recurrence():
    """coeff_G is what the recurrence gives wherever <a n+j b> has positive
    weight, also at weights above the catalog's 2; at target weight <= 0 it
    is 0, but for the j = 0 part of a product landing in weight 0, which is
    the product itself (g(n, 0) = 1).  C's product table and P's
    coefficients both read coeff_G, so their agreement cannot pin it."""
    weights = [Fraction(k, 2) for k in range(1, 13)]
    positive = 0
    for wa in weights:
        for wb in weights:
            for n in range(8):
                for j in range(8):
                    wx = wa + wb - n - j - 1
                    if wx > 0:
                        want = _g_by_recurrence(wa, wb, n, j)
                        positive += 1
                    else:
                        want = Fraction(wx == 0 and j == 0)
                    assert coeff_G(wa, wb, n, j) == want, (wa, wb, n, j)
    assert positive == 3128


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


def test_well_formed_report_on_a_malformed_table_is_pinned():
    # <V 1 L> has a term of wrong weight and parity, T has weight 1/3,
    # <L 0 V> expects weight 5/2, which no basis vector has, and Z has
    # weight 0; the values are those of the loop over every term
    R = ReducedAlgebra(
        [BasisVector("L", Fraction(2), 0), BasisVector("V", Fraction(3, 2), 1),
         BasisVector("A", Fraction(1), 0), BasisVector("T", Fraction(1, 3), 0),
         BasisVector("Z", Fraction(0), 0)],
        "L",
        {(1, "L", "L"): {"L": Scalar.from_int(2)},
         (1, "V", "L"): {"A": ONE, "V": ONE},
         (0, "L", "V"): {"V": ONE},
         (0, "T", "T"): {"Z": ONE, "T": ONE},
         (1, "T", "L"): {"T": ONE},
         (0, "V", "V"): {"L": ONE, "A": ONE}})
    rep = check_well_formed(R)
    assert (rep.ok, rep.checked) == (False, 9)
    assert rep.failures == [
        "basis vector Z has weight 0, not positive",
        "<V 1 L>: term A has weight 1, expected 3/2",
        "<V 1 L>: term A has parity 0, expected 1",
        "<L 0 V>: term V has weight 3/2, expected 5/2",
        "<T 0 T>: term Z has weight 0, expected -1/3",
        "<T 0 T>: term T has weight 1/3, expected -1/3",
        "<V 0 V>: term A has weight 1, expected 2"]
    rep = check_well_formed(R, max_failures=2)
    assert (rep.ok, rep.checked, rep.failures) == (
        False, 9, ["basis vector Z has weight 0, not positive",
                   "<V 1 L>: term A has weight 1, expected 3/2"])


def test_negative_weight_is_reported_once():
    # Virasoro with a weight -1 vector C and <L 1 C> = <C 1 L> = -C: the
    # weight is a well-formedness failure, and P adds no second report of it
    m1 = Scalar.from_int(-1)
    R = ReducedAlgebra(
        [BasisVector("L", Fraction(2), 0), BasisVector("C", Fraction(-1), 0)],
        "L", {(1, "L", "L"): {"L": Scalar.from_int(2)},
              (1, "L", "C"): {"C": m1}, (1, "C", "L"): {"C": m1}})
    rep = check_P_axioms(R, 2, 2)
    assert (rep.ok, rep.checked) == (False, 86)
    assert [f for f in rep.failures if "weight" in f] == [
        "basis vector C has weight -1, not positive"]
    assert rep.failures[1:] == [
        "identity fails: a=L b=L c=C m=0 n=2",
        "identity fails: a=L b=L c=C m=2 n=0",
        "identity fails: a=L b=C c=L m=0 n=2",
        "identity fails: a=L b=C c=L m=1 n=1",
        "identity fails: a=C b=L c=L m=1 n=1",
        "identity fails: a=C b=L c=L m=2 n=0"]


def test_one_sided_table_reports_are_pinned():
    # K2 with <Db1 0 D1>, <D1 1 Db1> and <L 1 A1> stored without their
    # swaps, and <A1 0 A1> = A1, which is not skew; the values are those of
    # the loops over every pair
    K2 = catalog.build("K2")
    drop = {(0, "D1", "Db1"), (1, "Db1", "D1"), (1, "A1", "L")}
    products = {k: v for k, v in K2.products.items() if k not in drop}
    products[0, "A1", "A1"] = {"A1": ONE}
    M = ReducedAlgebra(K2.basis, "L", products)
    P = check_P_axioms(M, 2, 2, max_failures=1000)
    H = check_H_axioms(M, max_failures=1000)
    assert (P.ok, P.checked, len(P.failures)) == (False, 626, 48)
    assert (H.ok, H.checked, len(H.failures)) == (False, 113, 23)
    assert P.failures[:8] == [
        "skew fails: <D1 0 Db1>", "skew fails: <Db1 0 D1>",
        "skew fails: <A1 0 A1>", "skew fails: <L 1 A1>",
        "skew fails: <D1 1 Db1>", "skew fails: <Db1 1 D1>",
        "skew fails: <A1 1 L>",
        "identity fails: a=D1 b=D1 c=Db1 m=0 n=1"]
    assert H.failures[:8] == [
        "o-symmetry fails: L, A1",
        "o-symmetry fails: D1, Db1", ".-antisymmetry fails: D1, Db1",
        "o-symmetry fails: Db1, D1", ".-antisymmetry fails: Db1, D1",
        "o-symmetry fails: A1, L", ".-antisymmetry fails: A1, A1",
        "o-associativity fails: D1,Db1,L"]


@pytest.mark.parametrize("name", ["K2", "S2"])
def test_sign_mutations_leave_the_parent_alone(name):
    R = catalog.build(name)
    before = {k: dict(v) for k, v in R.products.items()}
    count = 0
    for label, M in R.sign_mutations():
        count += 1
        assert M.products.keys() == R.products.keys(), label
        changed = [(k, t) for k, el in R.products.items() for t in el
                   if M.products[k].get(t) != el[t]]
        assert all(M.products[k].keys() == el.keys()
                   for k, el in R.products.items()), label
        assert len(changed) == 1, label
        (k, t), = changed
        assert M.products[k][t] == -R.products[k][t], label
    assert count == sum(len(el) for el in before.values())
    assert R.products == before


def test_checkers_keep_to_max_failures():
    # an L term added to every product of K2 breaks the grading of most of
    # them, which P reports before its other families
    K2 = catalog.build("K2")
    products = {}
    for key, el in K2.products.items():
        products[key] = dict(el)
        el_add_into(products[key], {"L": ONE})
    M = ReducedAlgebra(K2.basis, "L", products)
    for rep in (check_P_axioms(M, 2, 2, max_failures=1),
                check_H_axioms(M, max_failures=1),
                check_C_axioms(M, 2, 2, 1, max_failures=1)):
        assert not rep.ok
        assert len(rep.failures) <= 1


def test_verdict_does_not_depend_on_max_failures():
    # the cap bounds the listed failures; a cap <= 0 lists none, and the
    # checkers still answer FAILED on every sign mutant
    for name in ("K2", "S2"):
        for label, M in catalog.build(name).sign_mutations():
            for check in (lambda cap: check_P_axioms(M, 2, 2, cap),
                          lambda cap: check_H_axioms(M, cap),
                          lambda cap: check_C_axioms(M, 2, 2, 1, cap)):
                verdicts = set()
                for cap in (-1, 0, 1, 20):
                    rep = check(cap)
                    assert len(rep.failures) <= max(cap, 0), (label, cap)
                    verdicts.add(rep.ok)
                assert verdicts == {False}, label
    # H's shape failure keeps to the cap as well
    W3 = ReducedAlgebra([BasisVector("L", Fraction(2), 0),
                         BasisVector("W", Fraction(3), 0)], "L", {})
    assert [(rep.ok, rep.failures) for rep in (check_H_axioms(W3, 0),
                                               check_H_axioms(W3, 1))] == [
        (False, []),
        (False, ["not of physical shape "
                 "(weights, parities or product indices are off)"])]


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


def test_physical_weight_with_the_wrong_parity():
    """{L, F1} with F1 even at weight 1/2: every weight is physical, the
    parity is not, so the shape is not physical and H does not apply."""
    half = Scalar.from_fraction(Fraction(1, 2))
    R = ReducedAlgebra([BasisVector("L", Fraction(2), 0),
                        BasisVector("F1", Fraction(1, 2), 0)], "L",
                       {(1, "L", "L"): {"L": Scalar.from_int(2)},
                        (1, "L", "F1"): {"F1": half},
                        (1, "F1", "L"): {"F1": half}})
    assert not is_physical_shape(R)
    assert check_H_axioms(R).failures == [
        "not of physical shape "
        "(weights, parities or product indices are off)"]


def test_physical_basis_layout():
    """L, the named weight-3/2 vectors, then A1.. and F1..; the parity is
    read here from twice the weight, not from the layout's own rule."""
    basis = physical_basis(("D1", "Db1"), 2, 1)
    assert [(b.id, b.weight) for b in basis] == [
        ("L", 2), ("D1", Fraction(3, 2)), ("Db1", Fraction(3, 2)),
        ("A1", 1), ("A2", 1), ("F1", Fraction(1, 2))]
    assert all(b.parity == (2 * b.weight) % 2 for b in basis)
    assert physical_basis((), 0, 0) == vir().basis


def test_axiom_checkers_accept_virasoro():
    assert check_P_axioms(vir(), 4, 4).ok
    assert check_H_axioms(vir()).ok


def test_axiom_checkers_catch_mutations():
    R = catalog.build("K2")
    for label, M in R.sign_mutations():
        ok = check_P_axioms(M, 2, 2, max_failures=1).ok and \
            check_H_axioms(M, max_failures=1).ok
        assert not ok, label


def _not_skew():
    """A table stored on one side only, with products at n = 0, 1, 2."""
    basis = [BasisVector("L", Fraction(2), 0), BasisVector("u", 3 * H, 1),
             BasisVector("v", 3 * H, 1), BasisVector("x", Fraction(1), 0),
             BasisVector("f", H, 1)]
    one, two = ONE, Scalar.from_int(2)
    return ReducedAlgebra(basis, "L", {
        (1, "L", "L"): {"L": two},
        (0, "L", "x"): {"x": one},
        (0, "u", "v"): {"L": one, "x": -one},
        (1, "v", "x"): {"v": one},
        (0, "x", "u"): {"u": two},
        (2, "x", "f"): {"x": -one},
        (1, "f", "u"): {"f": one, "v": one},
    })


def _seeded_table(rng):
    """A table of non-physical shape: weights in 1/2..4, products at n up
    to 5, about half of them stored with their swap."""
    basis = [BasisVector("L", Fraction(2), 0)] + [
        BasisVector("x%d" % k, Fraction(rng.randint(1, 8), 2),
                    rng.randint(0, 1)) for k in range(rng.randint(1, 5))]
    ids = [b.id for b in basis]
    coeffs = [ONE, -ONE, Scalar.from_int(2), IMAG,
              Scalar.from_fraction(Fraction(1, 3))]
    products = {(1, "L", "L"): {"L": Scalar.from_int(2)}}
    for _ in range(rng.randint(1, 14)):
        n, a, b = rng.randint(0, 5), rng.choice(ids), rng.choice(ids)
        products[n, a, b] = {t: rng.choice(coeffs)
                             for t in rng.sample(ids, rng.randint(1, 2))}
        if rng.random() < 0.5:
            products[n, b, a] = dict(products[n, a, b])
    return ReducedAlgebra(basis, "L", products)


def _reference_cases(case):
    if case == "not skew":
        return [_not_skew()]
    if case == "w6 table":
        return [_w6_table()]
    if case == "no products":
        return [ReducedAlgebra([BasisVector("L", Fraction(2), 0)], "L")]
    if case == "seeded tables":
        rng = random.Random(20)
        return [_seeded_table(rng) for _ in range(50)]
    if case.endswith(" mutants"):
        name = case.split()[0]
        R = catalog.build("N4alpha", 0) if name == "N4alpha(0)" else \
            catalog.build(name)
        return [M for _, M in R.sign_mutations()]
    return [catalog.build(case)]


def _replay(events, cap):
    """(ok, checked, failures) of the Report that a checker with failure
    cap `cap` gives on the events of its full loops: ("fail", message),
    ("stop", checked) where the loops stop once the Report is full, and
    ("end", checked)."""
    rep = Report(max_failures=cap)
    for kind, value in events:
        if kind == "fail":
            rep.fail(value)
        elif kind == "end" or rep.full:
            rep.checked = value
            if kind == "stop":
                break
    return rep.ok, rep.checked, rep.failures


def _reference_reports(events, caps=(0, 1, 3, 20)) -> dict:
    """{cap: _replay(events, cap)}, reading the event generator once and
    only as far as the largest cap needs; a smaller cap stops no later."""
    seen = []
    top = _replay((seen.append(e) or e for e in events), max(caps))
    return {cap: _replay(seen, cap) if cap < max(caps) else top
            for cap in caps}


_scalar = lru_cache(maxsize=None)(Scalar.from_fraction)


def _pair_products(R) -> dict:
    """{(x, y): {n: <x n y>}} over the stored products."""
    pair = {}
    for (n, x, y), el in R.products.items():
        pair.setdefault((x, y), {})[n] = el
    return pair


def _quadratic_terms(R, pair, a, b, c, m, n) -> tuple:
    """(sum, live) of the quadratic identity on (a, b, c) at (m, n), with
    its coefficients straight from coeff_G and coeff_F: the sum of its
    terms, and whether some term has a nonzero coefficient and a stored
    outer product.  Each sum over j runs over the stored inner products
    <b i c>, <a i c> and <a i b>; `pair` is _pair_products(R)."""
    prods, w = R.products, R.weight
    sign = 1 if R.parity(a) * R.parity(b) else -1
    acc, live = {}, False
    for i, inner in pair.get((b, c), {}).items():
        j = i - n
        for t, ct in inner.items() if 0 <= j <= m else ():
            outer = prods.get((m - j, a, t))
            k = outer and comb(m, j) * coeff_G(w(b), w(c), n, j)
            if k:
                el_add_into(acc, outer, _scalar(k) * ct)
                live = True
    for i, inner in pair.get((a, c), {}).items():
        j = i - m
        for t, ct in inner.items() if 0 <= j <= n else ():
            outer = prods.get((n - j, b, t))
            k = outer and sign * comb(n, j) * coeff_G(w(a), w(c), m, j)
            if k:
                el_add_into(acc, outer, _scalar(k) * ct)
                live = True
    for j, inner in pair.get((a, b), {}).items():
        for t, ct in inner.items() if j <= m + n else ():
            outer = prods.get((m + n - j, t, c))
            k = outer and -coeff_F(w(a), w(b), m, n, j)
            if k:
                el_add_into(acc, outer, _scalar(k) * ct)
                live = True
    return acc, live


def _reference_P(R, m_max, n_max):
    """check_P_axioms as the events of plain loops: skew symmetry over
    every (n, a, b), and the quadratic identity over every (a, b, c, m, n)
    by _quadratic_terms, stopping after any instance of the identity, as
    _reference_H stops after any triple."""
    rep = check_well_formed(R, max_failures=10 ** 6)
    for f in rep.failures:
        yield "fail", f
    checked = rep.checked
    ids = [b.id for b in R.basis]
    w = {b.id: b.weight for b in R.basis}
    par = {b.id: b.parity for b in R.basis}
    P, L = R.product_basis, R.L
    for n in range(R.max_n() + 1):
        for a in ids:
            for b in ids:
                checked += 1
                sign = _scalar(Fraction((-1) ** (n + 1 + par[a] * par[b])))
                if P(n, a, b) != el_scale(P(n, b, a), sign):
                    yield "fail", "skew fails: <%s %d %s>" % (a, n, b)
    checked += 1
    if par[L] != 0 or w[L] != 2:
        yield "fail", "conformal vector must be even of weight 2"
    if P(1, L, L) != {L: Scalar.from_int(2)}:
        yield "fail", "<L 1 L> != 2L"
    for a in ids:
        checked += 1
        if P(0, L, a):
            yield "fail", "<L 0 %s> != 0" % a
        if P(1, L, a) != ({a: _scalar(w[a])} if w[a] else {}):
            yield "fail", "<L 1 %s> is not weight * %s" % (a, a)
        if any(w[t] != 0 for t in P(2, L, a)):
            yield "fail", "<L 2 %s> is not central of weight 0" % a
    pair = _pair_products(R)
    for a in ids:
        for b in ids:
            for c in ids:
                for m in range(m_max + 1):
                    for n in range(n_max + 1):
                        acc = _quadratic_terms(R, pair, a, b, c, m, n)[0]
                        checked += 1
                        if acc:
                            yield "fail", ("identity fails: a=%s b=%s c=%s "
                                           "m=%d n=%d" % (a, b, c, m, n))
                        yield "stop", checked
    yield "end", checked


def _P_join(R, m_max, n_max, a, b) -> dict:
    """check_P_axioms' join on the pair (a, b): {key: whether its sum is
    nonzero} over the keys (position(c) * (m_max + 1) + m) * (n_max + 1) +
    n it reaches."""
    coeffs = algebra._quadratic_coeffs(R.weight_positions[0], m_max, n_max,
                                       R.max_n())
    return algebra._join(R, R.join_index, R.index[a], R.index[b], coeffs,
                         R.parity(a) * R.parity(b), (m_max + 1) * (n_max + 1))


def _live_thirds(R, a, b, m_max=2, n_max=2) -> set:
    """The c of the instances on (a, b) that P's join reaches."""
    width = (m_max + 1) * (n_max + 1)
    return {R.basis[key // width].id
            for key in _P_join(R, m_max, n_max, a, b)}


@pytest.mark.parametrize("case", catalog.NAMES + (
    "K2 mutants", "K3 mutants", "S2 mutants", "not skew", "seeded tables",
    "w6 table"))
def test_live_thirds_hold_every_nonzero_term(case):
    """P and H visit only the instances their joins reach: for P the live
    thirds c of each pair (a, b) at the (m, n) reached, for H the triples
    of o-associativity and the .-Jacobi identity and the (a, x, y) of the
    derivation law.  That is sound only if no term of those identities is
    nonzero at any other instance.  P is joined at (2, 2), (1, 3) and its
    complete bound."""
    for R in _reference_cases(case):
        ids = [b.id for b in R.basis]
        pair = _pair_products(R)
        bound = max(2, 2 * R.max_n())
        for m_max, n_max in ((2, 2), (1, 3), (bound, bound)):
            width = (m_max + 1) * (n_max + 1)
            for a in ids:
                for b in ids:
                    reached = _P_join(R, m_max, n_max, a, b)
                    for key in range(R.dim * width):
                        if key in reached:
                            continue
                        c = ids[key // width]
                        m, n = divmod(key % width, n_max + 1)
                        assert not _quadratic_terms(
                            R, pair, a, b, c, m, n)[1], (case, a, b, c, m, n)
        if not is_physical_shape(R):
            continue
        circ, dot = (algebra._join_index(
            (((f, x, y), el) for (x, y), el in table.items()), R.index)
            for f, table in enumerate((R.circ_table, R.bullet_table)))
        e = {x: R.basis_element(x) for x in ids}
        o = {(x, y): R.circ(e[x], e[y]) for x in ids for y in ids}
        d = {(x, y): R.bullet(e[x], e[y]) for x in ids for y in ids}
        for pa, a in enumerate(ids):
            for pb, b in enumerate(ids):
                odd = R.parity(a) * R.parity(b)
                reached = set()
                for index in (circ, dot):
                    reached.update(algebra._join(
                        R, index, pa, pb, algebra._derived_coeffs, odd, 2))
                for ic, c in enumerate(ids):
                    if 2 * ic not in reached:
                        assert not R.circ(e[a], o[b, c]) and \
                            not R.circ(o[a, b], e[c]), (case, a, b, c)
                    if 2 * ic + 1 not in reached:
                        assert not R.bullet(e[a], d[b, c]) and \
                            not R.bullet(e[b], d[a, c]) and \
                            not R.bullet(d[a, b], e[c]), (case, a, b, c)
        for a in R.space(Fraction(1)):
            for px, x in enumerate(ids):
                reached = algebra._join(R, circ, R.index[a], px,
                                        algebra._derivation_coeffs,
                                        R.parity(a) * R.parity(x), 1,
                                        left=dot)
                for iy, y in enumerate(ids):
                    if iy not in reached:
                        assert not R.bullet(e[a], o[x, y]) and \
                            not R.circ(d[a, x], e[y]) and \
                            not R.circ(e[x], d[a, y]), (case, a, x, y)


def test_live_thirds_prune():
    R = _not_skew()
    # <u 0 v> has the term x and <x 0 u> is stored: the term
    # <<u 0 v> 0 u> of the identity on (u, v, u) is nonzero
    assert "u" in _live_thirds(R, "u", "v")
    assert _live_thirds(R, "L", "f") == set()
    ck6 = catalog.build("CK6")
    ids = [b.id for b in ck6.basis]
    live = sum(len(_live_thirds(ck6, a, b)) for a in ids for b in ids)
    assert live < ck6.dim ** 3 // 2


@pytest.mark.parametrize("case", catalog.NAMES + (
    "K2 mutants", "K3 mutants", "S2 mutants", "not skew", "seeded tables"))
def test_P_matches_reference_loop(case):
    """P's joins give the Report of the full loops: (ok, checked, failures)
    agree at every bound and cap."""
    for R in _reference_cases(case):
        for bounds in ((0, 0), (2, 2), (4, 4), (5, 1), (1, 6)):
            want = _reference_reports(_reference_P(R, *bounds))
            for cap, report in want.items():
                rep = check_P_axioms(R, *bounds, max_failures=cap)
                assert (rep.ok, rep.checked, rep.failures) == report, \
                    (case, bounds, cap)


def test_full_before_the_identity_P_stops_like_H():
    """A P Report full before the quadratic identity counts the instances
    before it and the identity's first, and stops, as an H Report full
    before its triples counts the first triple.  Whether a Report is full
    there is read off the failures of an uncapped Report."""
    later = ("identity", "o-associativity", ".-Jacobi", "derivation",
             "mixed Leibniz", "square law")
    cases = [_not_skew()] + [M for name in ("K2", "S2")
                             for _, M in catalog.build(name).sign_mutations()]
    stops = {"P": 0, "H": 0}
    for R in cases:
        checks = [("P", partial(check_P_axioms, R, 2, 2),
                   check_well_formed(R).checked +
                   (R.max_n() + 1) * R.dim ** 2 + 1 + R.dim)]
        if is_physical_shape(R):
            checks.append(("H", partial(check_H_axioms, R), R.dim +
                           R.dim ** 2 + len(R.space(Fraction(3, 2))) ** 2))
        for name, check, before in checks:
            early = [f for f in check(max_failures=10 ** 6).failures
                     if not f.startswith(later)]
            for cap in (0, 1):
                if len(early) >= max(cap, 1):
                    rep = check(max_failures=cap)
                    assert (rep.checked, rep.failures) == \
                        (before + 1, early[:cap]), (name, cap)
                    stops[name] += 1
    assert min(stops.values()) > 0


def _reference_H(R):
    """check_H_axioms as the events of plain loops over every pair and
    triple, with products formed by R.circ and R.bullet, stopping after
    any instance from the o-associativity and .-Jacobi loop on."""
    if not is_physical_shape(R):
        yield "fail", ("not of physical shape "
                       "(weights, parities or product indices are off)")
        yield "end", 0
        return
    ids = [b.id for b in R.basis]
    par = {b.id: b.parity for b in R.basis}
    V, A, F = (R.space(Fraction(k, 2)) for k in (3, 2, 1))
    circ, bullet, act = R.circ, R.bullet, R.clifford_act
    e = {x: R.basis_element(x) for x in ids}
    # the products of two basis vectors
    o = {(x, y): circ(e[x], e[y]) for x in ids for y in ids}
    d = {(x, y): bullet(e[x], e[y]) for x in ids for y in ids}
    checked = 0
    for a in ids:
        checked += 1
        if o[R.L, a] != e[a]:
            yield "fail", "L o %s != %s" % (a, a)
        if d[R.L, a]:
            yield "fail", "L . %s != 0" % a
    for a in ids:
        for b in ids:
            checked += 1
            for f, (name, ab) in enumerate((("o-symmetry", o),
                                            (".-antisymmetry", d))):
                sign = Scalar.from_int((-1) ** (f + par[a] * par[b]))
                if ab[a, b] != el_scale(ab[b, a], sign):
                    yield "fail", "%s fails: %s, %s" % (name, a, b)
    inner = {}
    for u in V:
        for v in V:
            checked += 1
            try:
                inner[u, v] = R.coeff_of_L(d[u, v])
            except ValueError:
                yield "fail", "%s . %s is not in span(L)" % (u, v)
    for a in ids:
        for b in ids:
            sign = ONE if par[a] * par[b] else -ONE
            for c in ids:
                checked += 1
                if circ(e[a], o[b, c]) != circ(o[a, b], e[c]):
                    yield "fail", "o-associativity fails: %s,%s,%s" % (
                        a, b, c)
                jac = bullet(e[a], d[b, c])
                el_add_into(jac, bullet(e[b], d[a, c]), sign)
                el_add_into(jac, bullet(d[a, b], e[c]), -ONE)
                if jac:
                    yield "fail", ".-Jacobi fails: %s,%s,%s" % (a, b, c)
                yield "stop", checked
    for a in A:
        for x in ids:
            for y in ids:
                checked += 1
                rhs = circ(d[a, x], e[y])
                el_add_into(rhs, circ(e[x], d[a, y]))
                if bullet(e[a], o[x, y]) != rhs:
                    yield "fail", "derivation law fails: %s on %s o %s" % (
                        a, x, y)
                yield "stop", checked
    for u in V:
        for v in V:
            for f in F:
                checked += 1
                rhs = bullet(o[u, v], e[f])
                el_add_into(rhs, circ(d[u, v], e[f]))
                if circ(e[u], d[v, f]) != rhs:
                    yield "fail", "mixed Leibniz fails: %s,%s,%s" % (u, v, f)
                yield "stop", checked
    for iu, u in enumerate(V):
        for w in V[iu:]:
            if (u, w) not in inner:
                continue
            for x in V + A:
                checked += 1
                lhs = act(e[u], act(e[w], e[x]))
                el_add_into(lhs, act(e[w], act(e[u], e[x])))
                if lhs != el_scale(e[x], Scalar.from_int(2) * inner[u, w]):
                    yield "fail", "square law fails: %s,%s on %s" % (u, w, x)
                yield "stop", checked
    yield "end", checked


@pytest.mark.parametrize("case", catalog.NAMES + (
    "K2 mutants", "K3 mutants", "S2 mutants", "W2 mutants",
    "N4alpha(0) mutants"))
def test_H_matches_reference_loop(case):
    """H's joins give the Report of the full loops at every cap, also for a
    Report already full before the triples, which stops at the first."""
    for R in _reference_cases(case):
        for cap, report in _reference_reports(_reference_H(R)).items():
            rep = check_H_axioms(R, max_failures=cap)
            assert (rep.ok, rep.checked, rep.failures) == report, (case, cap)


def _doubled(name, n, x, y):
    """The catalog algebra `name` with <x n y> and <y n x> doubled."""
    R = catalog.build(name)
    products = dict(R.products)
    for key in ((n, x, y), (n, y, x)):
        products[key] = el_scale(products[key], Scalar.from_int(2))
    return ReducedAlgebra(R.basis, R.L, products)


@pytest.mark.parametrize("args, first, checked", [
    (("S2", 1, "D1", "Db1"), "derivation law fails: A2 on D1 o Db1", 675),
    (("K2", 0, "D1", "Db1"), "square law fails: D1,D1 on Db1", 106)])
def test_H_stops_once_full_after_the_triples(args, first, checked):
    """Tables that first fail H after the triples: the Report stops at
    the failure that fills it, with `checked` at that failure's position,
    as the reference loop that stops gives at every cap."""
    R = _doubled(*args)
    for cap, report in _reference_reports(_reference_H(R)).items():
        rep = check_H_axioms(R, max_failures=cap)
        assert (rep.ok, rep.checked, rep.failures) == report, cap
    rep = check_H_axioms(R, max_failures=1)
    assert (rep.checked, rep.failures) == (checked, [first])
    assert check_H_axioms(R, max_failures=10 ** 6).checked > checked


def _w_table(weight: Fraction, n: int):
    """L of weight 2 and a W of the given weight, odd when that is
    half-integral, with <L 1 L> = 2L, <L 1 W> = <W 1 L> = weight * W and
    <W n W> = L."""
    w = Scalar.from_fraction(weight)
    return ReducedAlgebra(
        [BasisVector("L", Fraction(2), 0),
         BasisVector("W", weight, weight.denominator - 1)],
        "L", {(1, "L", "L"): {"L": Scalar.from_int(2)},
              (1, "L", "W"): {"W": w}, (1, "W", "L"): {"W": w},
              (n, "W", "W"): {"L": ONE}})


def _w6_table():
    """An even W of weight 6 with <W 9 W> = L."""
    return _w_table(Fraction(6), 9)


def test_w6_table_P_reports_are_pinned():
    """The pinned table whose stored n (9) exceeds the bounds: P(4,4)
    holds, and P(6,6) fails first at m + n = 10; the values are those of
    the loops over every instance."""
    R = _w6_table()
    rep = check_P_axioms(R, 4, 4)
    assert (rep.ok, rep.checked, rep.failures) == (True, 247, [])
    rep = check_P_axioms(R, 6, 6)
    assert (rep.ok, rep.checked) == (False, 439)
    assert rep.failures[0] == "identity fails: a=L b=W c=W m=4 n=6"


def test_P_work_does_not_grow_with_the_bounds(monkeypatch):
    """CK6 stores n <= 1, so the joins reach no instance beyond m, n <= 2:
    from P(2,2) to P(64,64) they join the same products and make the same
    scalar products, and every instance is counted."""
    joins, muls = [], []
    real_coeffs, real_mul = algebra._quadratic_coeffs, Scalar.__mul__

    def counting_coeffs(*args):
        coeffs = real_coeffs(*args)
        return lambda *key: joins.append(key) or coeffs(*key)

    monkeypatch.setattr(algebra, "_quadratic_coeffs", counting_coeffs)
    monkeypatch.setattr(Scalar, "__mul__",
                        lambda x, y: muls.append(1) or real_mul(x, y))
    ck6, work = catalog.build("CK6"), []
    for bound in (2, 4, 64):
        del joins[:], muls[:]
        rep = check_P_axioms(ck6, bound, bound)
        assert rep.ok and rep.checked == check_well_formed(ck6).checked + \
            2 * 32 ** 2 + 33 + 32 ** 3 * (bound + 1) ** 2
        work.append((len(joins), len(muls)))
    assert work[0] == work[1] == work[2] and min(work[0]) > 0


def test_n4alpha0_mutant_reports_are_pinned():
    """P(2,2) and H on the sign mutants of N4alpha(0), all 199 at
    max_failures=1 and every 20th at max_failures=20: (ok, checked,
    failures) match, by digest, what the loops over every triple gave,
    but for three H Reports at max_failures=20 that fill at a mixed-Leibniz
    failure, where H stops and so counts fewer."""
    mutants = list(catalog.build("N4alpha", 0).sign_mutations())
    assert len(mutants) == 199
    for cap, sample, digest in (
            (1, mutants, "ebd6e6777fdc05becbe3462596d7b53b"
                         "15fe4c7c6ab5d91450409eae95ab2ed5"),
            (20, mutants[::20], "6fb0ad8ed1e1381b3432a3b5a584130d"
                                "d67567800bfad1c70a7f0d1c0d4505bf")):
        lines = []
        for label, M in sample:
            for name, rep in (
                    ("P", check_P_axioms(M, 2, 2, max_failures=cap)),
                    ("H", check_H_axioms(M, max_failures=cap))):
                lines.append("%s: %s %s %d %r" % (label, name, rep.ok,
                                                  rep.checked, rep.failures))
        if cap == 1:
            assert lines[:2] == [
                "<D1 0 Db1> term L: P False 729 "
                "['skew fails: <D1 0 Db1>']",
                "<D1 0 Db1> term L: H False 289 "
                "['.-antisymmetry fails: D1, Db1']"]
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
            digest, cap


# 13 H Reports of K3 and S2 mutants fill at their derivation-law or
# square-law failure; since H stops there, only their `checked` differs
# from the per-call digest
PH_REPORTS_SHA256 = \
    "04df924e86f2cf464d2934bf14e32f46ef7538af473e4260f0e17863c7c8ef94"


def test_PH_reports_are_pinned():
    """P(4,4) and H on every catalog algebra and on symbolic N4alpha(a),
    and P(2,2) and H at max_failures=20 on every sign mutant of K2, K3 and
    S2: (ok, checked, failures) match, by digest, what the checkers gave
    when each derived product was computed per call."""
    lines = []

    def add(label, R, m, n):
        for name, rep in (("P", check_P_axioms(R, m, n, max_failures=20)),
                          ("H", check_H_axioms(R, max_failures=20))):
            lines.append("%s|%s|%s|%d|%s" % (label, name, rep.ok, rep.checked,
                                             "|".join(rep.failures)))

    for name in catalog.NAMES:
        add(name, catalog.build(name), 4, 4)
    add("N4alpha(a)", catalog.build("N4alpha", "a"), 4, 4)
    mutants = 0
    for name in ("K2", "K3", "S2"):
        for label, M in catalog.build(name).sign_mutations():
            add("%s %s" % (name, label), M, 2, 2)
            mutants += 1
    assert mutants == 118
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
        PH_REPORTS_SHA256


# -- derived-product tables -------------------------------------------------


def _weight_two_pair():
    """<X 1 X> lands in weight 0, so X o X is 0 although <X 1 X> is not."""
    return ReducedAlgebra(
        [BasisVector("L", Fraction(2), 0), BasisVector("X", Fraction(1), 0),
         BasisVector("Z", Fraction(0), 0)],
        "L", {(1, "L", "L"): {"L": Scalar.from_int(2)},
              (1, "L", "X"): {"X": ONE}, (1, "X", "L"): {"X": ONE},
              (1, "X", "X"): {"Z": ONE}, (0, "X", "X"): {"Z": ONE}})


def _table_case(name):
    if name == "weight-two pair":
        return _weight_two_pair()
    if name == "N4alpha(a)":
        return catalog.build("N4alpha", "a")
    return catalog.build(name)


def _seeded_element(R, rng):
    ids = [b.id for b in R.basis]
    coeffs = [ONE, Scalar.from_int(-3), Scalar.from_fraction(Fraction(2, 5)),
              IMAG + ONE, ALPHA]
    return {bid: rng.choice(coeffs)
            for bid in rng.sample(ids, min(len(ids), 4))}


def _snapshot(R):
    return ({k: dict(v) for k, v in R.products.items()},
            {k: dict(v) for k, v in R.circ_table.items()},
            {k: dict(v) for k, v in R.bullet_table.items()})


@pytest.mark.parametrize("name", catalog.NAMES + (
    "N4alpha(a)", "weight-two pair"))
def test_derived_product_tables(name):
    """circ and bullet agree with the per-pair formulas on seeded elements,
    hand out fresh dicts, and leave the tables as they were through the
    checkers, the simplicity test and an isomorphism check."""
    R = _table_case(name)
    before = _snapshot(R)
    rng = random.Random(name)
    for _ in range(20):
        x, y = _seeded_element(R, rng), _seeded_element(R, rng)
        want = {}
        for a, ca in x.items():
            for b, cb in y.items():
                d = R.weight(a) + R.weight(b) - 2
                if d:
                    el_add_into(want, R.product_basis(1, a, b),
                                ca * cb / Scalar.from_fraction(d))
        assert R.circ(x, y) == want
        assert R.bullet(x, y) == R.product_n(x, 0, y)
        # the results are fresh dicts: changing one changes no table
        pair = ({next(iter(x)): ONE}, {next(iter(y)): ONE})
        for product in (R.circ, R.bullet):
            for u, v in ((x, y), pair):
                first = product(u, v)
                kept = dict(first)
                first.clear()
                first[R.L] = Scalar.from_int(7)
                assert product(u, v) == kept
    assert not [k for k in R.circ_table
                if R.weight(k[0]) + R.weight(k[1]) == 2]
    check_H_axioms(R)
    is_simple(R)
    catalog.iso_check(R, R, {b.id: {b.id: ONE} for b in R.basis})
    assert _snapshot(R) == before


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


def test_is_simple_on_a_degenerate_inner_product():
    """{L, V1} with no V1 . V1 product: the inner product on V is zero."""
    R = ReducedAlgebra([BasisVector("L", Fraction(2), 0),
                        BasisVector("V1", Fraction(3, 2), 1)], "L",
                       {(1, "L", "L"): {"L": Scalar.from_int(2)},
                        (1, "L", "V1"): {"V1": Scalar.from_fraction(
                            Fraction(3, 2))},
                        (1, "V1", "L"): {"V1": Scalar.from_fraction(
                            Fraction(3, 2))}})
    res = is_simple(R)
    assert (res.simple, res.reason, res.witness) == \
        (False, "degenerate inner product", {"V1": ONE})


def test_is_simple_on_a_proper_ideal():
    """{L, A} with <L 1 A> = <A 1 L> = A passes P(2,2), and A spans an
    ideal without L."""
    R = ReducedAlgebra([BasisVector("L", Fraction(2), 0),
                        BasisVector("A", Fraction(1), 0)], "L",
                       {(1, "L", "L"): {"L": Scalar.from_int(2)},
                        (1, "L", "A"): {"A": ONE},
                        (1, "A", "L"): {"A": ONE}})
    assert check_P_axioms(R, 2, 2).ok
    res = is_simple(R)
    assert (res.simple, res.reason, res.witness) == \
        (False, "proper ideal generated by A", {"A": ONE})


def test_f3_subspace_trivial_for_simple_members():
    for nm in ("K3", "W2", "CK6"):
        assert f3_subspace(catalog.build(nm)) == []


@pytest.mark.parametrize("alpha", [1, -1])
def test_f3_subspace_of_degenerate_members_is_pinned(alpha):
    # at alpha^2 = 1 every triple of V-actions kills the weight-1/2 space
    assert f3_subspace(catalog.build("N4alpha", alpha)) == \
        [{"F1": ONE}, {"F2": ONE}, {"F3": ONE}, {"F4": ONE}]


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
    # (Di, Dbi) = 1 and isotropic otherwise, in the basis order D1 Db1 D2
    # Db2; sparse rows store no zero
    want = [{1: ONE}, {0: ONE}, {3: ONE}, {2: ONE}]
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
            assert G[i].get(j, ZERO) == G[j].get(i, ZERO)


# -- the axiom gate ---------------------------------------------------------


class Rejected(Exception):
    pass


def test_gate_skips_H_on_a_table_of_non_physical_shape():
    """Vir + Vir on L = L1 + L2, M = L1 - L2: two weight-2 vectors, so H
    does not apply; it passes P(2,2) and the gate lets it through."""
    two = Scalar.from_int(2)
    R = ReducedAlgebra([BasisVector("L", Fraction(2), 0),
                        BasisVector("M", Fraction(2), 0)], "L",
                       {(1, "L", "L"): {"L": two}, (1, "M", "M"): {"L": two},
                        (1, "L", "M"): {"M": two}, (1, "M", "L"): {"M": two}})
    assert not is_physical_shape(R)
    assert check_P_axioms(R, 2, 2).ok
    require_axioms(R, Rejected, "never raised: ")


def test_gate_runs_P_to_twice_the_largest_stored_n():
    """The w = 6 table stores <W 9 W>, so the gate runs P(18,18), where
    the identity fails; P(2,2) alone would let it through."""
    R = _w6_table()
    assert check_P_axioms(R, 2, 2).ok
    with pytest.raises(Rejected) as info:
        require_axioms(R, Rejected, "w6: ")
    assert str(info.value).startswith(
        "w6: FAILED (2278 instances checked, 20 failures)\n"
        "  identity fails: a=L b=W c=W m=3 n=7\n")


def test_a_stored_n_is_capped_at_32():
    """A table may store n up to 32, so P's complete bound, twice the
    largest stored n, is at most 64, the largest the checkers accept: on an
    odd W of weight 35/2 with <W 32 W> = L, P at its unset bounds is
    P(64,64), and the gate refuses the table."""
    with pytest.raises(ValueError, match=r"<W 33 W>: n outside 0\.\.32$"):
        _w_table(35 * H, 33)
    R = _w_table(35 * H, 32)
    unset, at_64 = check_P_axioms(R), check_P_axioms(R, 64, 64)
    assert (unset.ok, unset.checked, unset.failures) == (
        at_64.ok, at_64.checked, at_64.failures)
    with pytest.raises(Rejected) as info:
        require_axioms(R, Rejected, "w32: ")
    assert str(info.value).startswith(
        "w32: FAILED (14256 instances checked, 20 failures)\n"
        "  identity fails: a=L b=W c=W m=3 n=30\n")


def _assert_complete_at_the_unset_bounds(R, d):
    """Past b = 2 (max_n + d), at least 2, no instance of C at d_max = d
    can fail, nor, at d = 0, any of P: at their unset bounds they give the
    failures that they give at b + 2."""
    b, cap = max(2, 2 * (R.max_n() + d)), 10 ** 6

    def outcome(rep):
        return rep.ok, rep.failures

    if d == 0:
        assert outcome(check_P_axioms(R, max_failures=cap)) == outcome(
            check_P_axioms(R, b + 2, b + 2, cap))
    assert outcome(check_C_axioms(R, d_max=d, max_failures=cap)) == outcome(
        check_C_axioms(R, b + 2, b + 2, d, cap))


COMPLETENESS_CASES = ("Vir", "K1", "K2", "K3", "S2", "W2", "w6 table",
                      "K2 mutants", "K3 mutants", "S2 mutants")


@pytest.mark.parametrize("case", COMPLETENESS_CASES)
def test_P_and_C_at_d_max_0_are_complete_at_twice_the_stored_n(case):
    for R in _reference_cases(case):
        _assert_complete_at_the_unset_bounds(R, 0)


@pytest.mark.parametrize("case", COMPLETENESS_CASES)
def test_C_at_d_max_1_and_2_is_complete_at_its_unset_bounds(case):
    """(C2) at shifts (k, l) stays live up to n = max_n + k + l, past
    twice the stored n."""
    for R in _reference_cases(case):
        for d in (1, 2):
            _assert_complete_at_the_unset_bounds(R, d)


@given(st.integers(0, 2 ** 32))
@settings(max_examples=100, deadline=None)
def test_P_and_C_at_d_max_0_are_complete_on_seeded_tables(seed):
    """Most seeded tables fail, so the failure lists compared are real."""
    _assert_complete_at_the_unset_bounds(_seeded_table(random.Random(seed)),
                                         0)


@given(st.integers(0, 2 ** 32))
@settings(max_examples=100, deadline=None)
def test_C_at_d_max_1_and_2_is_complete_on_seeded_tables(seed):
    R = _seeded_table(random.Random(seed))
    for d in (1, 2):
        _assert_complete_at_the_unset_bounds(R, d)


@pytest.mark.parametrize("case", ("no products", "K2", "w6 table"))
def test_unset_bounds_are_twice_max_n_plus_d_max(case):
    """An unset bound of P, or of C at d_max = d, is b = 2 (max_n + d), at
    least 2, with d = 0 for P: the Report, `checked` included, is the one
    at (b, b).  A lone L with no stored product has max_n = 0, so b = 2
    there at d = 0."""
    (R,) = _reference_cases(case)
    for d in range(3):
        b = max(2, 2 * (R.max_n() + d))
        pairs = [(check_C_axioms(R, d_max=d), check_C_axioms(R, b, b, d))]
        if d == 0:
            pairs.append((check_P_axioms(R), check_P_axioms(R, b, b)))
        for unset, given_b in pairs:
            assert (unset.ok, unset.checked, unset.failures) == (
                given_b.ok, given_b.checked, given_b.failures), (case, d)


def test_gate_raises_the_given_type_with_the_prefix():
    mutant = dict(catalog.build("K2").sign_mutations())["<D1 0 Db1> term L"]
    with pytest.raises(Rejected) as info:
        require_axioms(mutant, Rejected, "mutant: ")
    assert str(info.value).startswith(
        "mutant: FAILED (628 instances checked, 18 failures)\n"
        "  skew fails: <D1 0 Db1>")
