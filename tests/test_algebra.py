"""Reduced algebras: coefficient functions, axiom checkers, ideals and
invariant forms."""
import hashlib
import random
from fractions import Fraction

import pytest

from confsalg.scalars import Scalar, ZERO, ONE, IMAG, ALPHA
from confsalg.algebra import (coeff_G, coeff_F, BasisVector, ReducedAlgebra,
                              el_add_into, el_scale,
                              check_well_formed, check_P_axioms,
                              check_H_axioms, is_physical_shape, center,
                              require_axioms,
                              ideal_closure, quotient, f3_subspace,
                              is_simple, null_pairs, alpha_matrix,
                              form_V_wedge_V)
from confsalg.reconstruct import check_C_axioms
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


def _live_cases(case):
    if case == "not skew":
        return [_not_skew()]
    if case.endswith(" mutants"):
        return [M for _, M in catalog.build(case.split()[0]).sign_mutations()]
    return [catalog.build(case)]


def _some_term_nonzero(R, a, b, c) -> bool:
    """Whether a term of the quadratic identity on (a, b, c), at any
    product indices, or of o-associativity or the .-Jacobi identity on
    (a, b, c) is nonzero, computed from the products alone."""
    e = R.basis_element
    ns = range(R.max_n() + 1)
    for n1 in ns:
        for n2 in ns:
            if R.product_n(e(a), n1, R.product_basis(n2, b, c)) or \
                    R.product_n(e(b), n1, R.product_basis(n2, a, c)) or \
                    R.product_n(R.product_basis(n2, a, b), n1, e(c)):
                return True
    ea, eb, ec = e(a), e(b), e(c)
    return any((R.circ(ea, R.circ(eb, ec)), R.circ(R.circ(ea, eb), ec),
                R.bullet(ea, R.bullet(eb, ec)),
                R.bullet(eb, R.bullet(ea, ec)),
                R.bullet(R.bullet(ea, eb), ec)))


@pytest.mark.parametrize("case", catalog.NAMES + (
    "K2 mutants", "K3 mutants", "S2 mutants", "not skew"))
def test_live_thirds_hold_every_nonzero_term(case):
    """P and H skip the c outside R.live_thirds(a, b); that is sound only if
    no term of their identities is nonzero there."""
    for R in _live_cases(case):
        ids = [b.id for b in R.basis]
        for a in ids:
            for b in ids:
                live = R.live_thirds(a, b)
                for c in ids:
                    if c not in live:
                        assert not _some_term_nonzero(R, a, b, c), \
                            (case, a, b, c)


def test_live_thirds_prune():
    R = _not_skew()
    # <u 0 v> has the term x and <x 0 u> is stored: the term
    # <<u 0 v> 0 u> of the identity on (u, v, u) is nonzero
    assert "u" in R.live_thirds("u", "v")
    assert R.live_thirds("L", "f") == set()
    ck6 = catalog.build("CK6")
    ids = [b.id for b in ck6.basis]
    live = sum(len(ck6.live_thirds(a, b)) for a in ids for b in ids)
    assert live < ck6.dim ** 3 // 2


def test_n4alpha0_mutant_reports_are_pinned():
    """P(2,2) and H on the sign mutants of N4alpha(0), all 199 at
    max_failures=1 and every 20th at max_failures=20: (ok, checked,
    failures) match, by digest, what the loops over every triple gave."""
    mutants = list(catalog.build("N4alpha", 0).sign_mutations())
    assert len(mutants) == 199
    for cap, sample, digest in (
            (1, mutants, "a28fd921fb335105eac233eaddeb5356"
                         "322f278bae93e301eaf949045c425d0a"),
            (20, mutants[::20], "8bdac366f6d554c8a91cdb5374c73c6f"
                                "5c2697eee51fb939d59762dba8482e42")):
        lines = []
        for label, M in sample:
            for name, rep in (
                    ("P", check_P_axioms(M, 2, 2, max_failures=cap)),
                    ("H", check_H_axioms(M, max_failures=cap))):
                lines.append("%s: %s %s %d %r" % (label, name, rep.ok,
                                                  rep.checked, rep.failures))
        if cap == 1:
            assert lines[:2] == [
                "<D1 0 Db1> term L: P False 731 "
                "['skew fails: <D1 0 Db1>']",
                "<D1 0 Db1> term L: H False 289 "
                "['.-antisymmetry fails: D1, Db1']"]
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
            digest, cap


PH_REPORTS_SHA256 = \
    "53893247e399b86b91e94d27b6a0cfe8887e95f9ffe1de803261775c5ee604a7"


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


def test_gate_raises_the_given_type_with_the_prefix():
    mutant = dict(catalog.build("K2").sign_mutations())["<D1 0 Db1> term L"]
    with pytest.raises(Rejected) as info:
        require_axioms(mutant, Rejected, "mutant: ")
    assert str(info.value).startswith(
        "mutant: FAILED (628 instances checked, 18 failures)\n"
        "  skew fails: <D1 0 Db1>")
