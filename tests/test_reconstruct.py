"""Full products from the reduced data, mode brackets, and moving the
conformal vector."""
import hashlib
from fractions import Fraction
from functools import lru_cache
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from confsalg.scalars import Scalar, ZERO, ONE, ALPHA, IMAG
from confsalg.algebra import (BasisVector, ReducedAlgebra, check_P_axioms,
                              check_H_axioms, coeff_G, is_physical_shape)
from confsalg.linalg import el_add_into, el_scale
from confsalg.reconstruct import (ReconstructedAlgebra, binom_ff,
                                  reconstruct, check_C_axioms,
                                  mode_bracket, change_conformal_vector,
                                  NotN4Shape, AxiomVFails)
from confsalg import catalog
import confsalg.reconstruct as reconstruct_mod
from test_algebra import (_reference_cases, _reference_reports, _scalar,
                          _w6_table)


def S(n):
    return Scalar.from_int(n)


def test_shift_on_divided_powers():
    # d^(j) d^(k) a = C(k+j, j) d^(k+j) a, with d^(k) a at index k*N + p
    RA = reconstruct(catalog.build("K2"))
    N, L, D1 = RA.N, RA.pos["L"], RA.pos["D1"]
    x = {2 * N + L: S(2), D1: ONE}
    assert RA.shift(x, 1) == {3 * N + L: S(6), N + D1: ONE}
    assert RA.shift(x, 2) == {4 * N + L: S(12), 2 * N + D1: ONE}
    assert RA.shift(x, 0) == x and RA.shift({}, 3) == {}
    el_add_into(x, {2 * N + L: S(-2), D1: -ONE})
    assert x == {}


def test_binom_ff_negative_upper_index():
    # falling factorial form, valid for negative m
    assert binom_ff(-1, 2) == Fraction(1)
    assert binom_ff(-2, 1) == Fraction(-2)
    assert binom_ff(3, 2) == Fraction(3)
    assert binom_ff(2, 3) == Fraction(0)


def test_virasoro_products():
    RA = reconstruct(catalog.build("Vir"))
    L = {0: ONE}
    assert RA.product(L, L, 1) == {0: S(2)}
    # the 0 product is the derivative of L, in divided powers
    assert RA.product(L, L, 0) == {1: ONE}
    with pytest.raises(ValueError):
        RA.product(L, L, -1)


def test_products_extend_to_derivatives():
    RA = reconstruct(catalog.build("K2"))
    # L_(1) d^{(k)} a = (k + w) d^{(k)} a for a of weight w
    a = {2 * RA.N + RA.pos["D1"]: ONE}
    got = RA.product({RA.pos["L"]: ONE}, a, 1)
    assert got == {2 * RA.N + RA.pos["D1"]:
                   Scalar.from_fraction(Fraction(2) + Fraction(3, 2))}


@pytest.mark.parametrize("name", ["Vir", "K2", "S2"])
def test_full_products_store_no_zero(name):
    # the sparse invariant on every row that C(1,1,1) leaves in the memo:
    # no zero coefficient and no term twice, the n of a row increasing
    RA = reconstruct(catalog.build(name))
    assert check_C_axioms(RA, 1, 1, 1).ok
    rows = list(RA._rows.values())
    assert any(rows)
    for row in rows:
        assert [n for n, _, _ in row] == sorted(n for n, _, _ in row)
        assert all(v for _, _, v in row)
        assert len({(n, p) for n, p, _ in row}) == len(row)


def central_virasoro():
    """Virasoro with a central vector: <L 1 L> = 2L, <L 3 L> = C/2."""
    return ReducedAlgebra(
        [BasisVector("L", Fraction(2), 0), BasisVector("C", Fraction(0), 0)],
        "L", {(1, "L", "L"): {"L": S(2)},
              (3, "L", "L"): {"C": Scalar.from_fraction(Fraction(1, 2))}})


def test_central_virasoro_reports():
    # C has weight 0, so L_(1) C = 0: the expected value must be the empty
    # d-polynomial, never {0: {"C": 0}}.  Both oracles reject this algebra:
    # P for the non-positive weight alone (not counted in `checked`), and C
    # with the failures pinned exactly as the checker gives them.
    R = central_virasoro()
    rep = check_P_axioms(R, 4, 4)
    assert (rep.ok, rep.checked) == (False, 221)
    assert rep.failures == ["basis vector C has weight 0, not positive"]
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


_int = lru_cache(maxsize=None)(Scalar.from_int)


def _reference_C(R, m_max, n_max, d_max, shift_every_a=False):
    """check_C_axioms as the events of its loops over every instance, each
    formed by RA.product: (C1) over every basis pair and n; (C2) over every
    basis pair, every (k, l, n) and every j up to k + l + N + 1; (C3) over
    every (a, b, c, k, m, n), with only a = ids[0] d-shifted, or every a
    when shift_every_a is set.  A stop follows each failure, and each basis
    vector of the conformal-vector checks."""
    RA = reconstruct(R)
    ids, N, product, top = RA.ids, RA.N, RA.product, R.max_n()
    par = [R.parity(x) for x in ids]
    checked = 0
    Lel = {RA.pos[R.L]: ONE}
    for pa, a in enumerate(ids):
        checked += 3
        if product(Lel, {pa: ONE}, 0) != {N + pa: ONE}:
            yield "fail", "L_(0) is not d on %s" % a
        w = R.weight(a)
        if product(Lel, {pa: ONE}, 1) != (
                {pa: Scalar.from_fraction(w)} if w else {}):
            yield "fail", "L_(1) eigenvalue wrong on %s" % a
        for k in range(d_max + 1):
            coeff = k - 1 + 2 * w
            want = {(k - 1) * N + pa: Scalar.from_fraction(coeff)} \
                if k and coeff else {}
            if product(Lel, {k * N + pa: ONE}, 2) != want:
                yield "fail", "L_(2) derivative rule fails on %s" % a
                break
        yield "stop", checked
    for pa, a in enumerate(ids):
        for pb, b in enumerate(ids):
            for n in range(n_max + 1):
                checked += 1
                rhs = el_scale(product({pa: ONE}, {pb: ONE}, n - 1),
                               _int(-n)) if n else {}
                if product({N + pa: ONE}, {pb: ONE}, n) != rhs:
                    yield "fail", "(C1) fails: a=%s b=%s n=%d" % (a, b, n)
                    yield "stop", checked
    for pa, a in enumerate(ids):
        for pb, b in enumerate(ids):
            for k in range(d_max + 1):
                for l in range(d_max + 1):
                    x, y = {k * N + pa: ONE}, {l * N + pb: ONE}
                    for n in range(n_max + 1):
                        checked += 1
                        rhs = {}
                        for j in range(k + l + top + 2):
                            sign = (-1) ** (j + n + 1 + par[pa] * par[pb])
                            el_add_into(rhs, RA.shift(product(y, x, n + j), j),
                                        _int(sign))
                        if product(x, y, n) != rhs:
                            yield "fail", ("(C2) fails: a=%s b=%s k=%d l=%d "
                                           "n=%d" % (a, b, k, l, n))
                            yield "stop", checked
    inner = {}

    def basis(ix, iy, n):
        """The product of two flat monomials, formed once."""
        if (ix, iy, n) not in inner:
            inner[ix, iy, n] = product({ix: ONE}, {iy: ONE}, n)
        return inner[ix, iy, n]

    for pa, a in enumerate(ids):
        for pb, b in enumerate(ids):
            xb = {pb: ONE}
            sign = _int(1 if par[pa] * par[pb] else -1)
            for pc, c in enumerate(ids):
                xc = {pc: ONE}
                for k in range(d_max + 1 if pa == 0 or shift_every_a else 1):
                    xa, t3 = {k * N + pa: ONE}, {}
                    for m in range(m_max + 1):
                        for n in range(n_max + 1):
                            checked += 1
                            bc, ac = basis(pb, pc, n), basis(k * N + pa, pc, m)
                            lhs = product(xa, bc, m) if bc else {}
                            if ac:
                                el_add_into(lhs, product(xb, ac, n), sign)
                            for j in range(m + 1):
                                ab = basis(k * N + pa, pb, j)
                                if ab and (j, m + n - j) not in t3:
                                    t3[j, m + n - j] = product(ab, xc,
                                                               m + n - j)
                                el_add_into(lhs, t3.get((j, m + n - j), {}),
                                            _int(-comb(m, j)))
                            if lhs:
                                yield "fail", ("(C3) fails: a=%s b=%s c=%s "
                                               "k=%d m=%d n=%d"
                                               % (a, b, c, k, m, n))
                                yield "stop", checked
    yield "end", checked


def _C_cases(case):
    if case == "w6 table":
        return [_w6_table()]
    if case == "central Vir":
        return [central_virasoro()]
    if case == "N4alpha(a)":
        return [catalog.build("N4alpha", "a")]
    return _reference_cases(case)


@pytest.mark.parametrize("case", catalog.NAMES + (
    "N4alpha(a)", "K2 mutants", "K3 mutants", "S2 mutants", "w6 table",
    "central Vir", "seeded tables"))
def test_C_matches_reference_loop(case):
    """C's joins give the Report of the loops over every instance: (ok,
    checked, failures) agree at each bound and d_max and at every cap.  CK6
    and the sign mutants run at the benchmark's C bounds only, the small
    tables at two more, past their stored n."""
    bounds = ((2, 1, 1), (1, 2, 0))
    if case == "CK6" or case.endswith(" mutants"):
        bounds = bounds[:1]
    elif case in ("w6 table", "central Vir", "seeded tables"):
        bounds += ((3, 5, 2), (7, 1, 3))
    for R in _C_cases(case):
        for b in bounds:
            want = _reference_reports(_reference_C(R, *b))
            for cap, report in want.items():
                rep = check_C_axioms(R, *b, max_failures=cap)
                assert (rep.ok, rep.checked, rep.failures) == report, \
                    (case, b, cap)


@pytest.mark.parametrize("case", tuple(
    name for name in catalog.NAMES if name != "CK6") + (
    "K2 mutants", "K3 mutants", "S2 mutants", "w6 table", "central Vir",
    "seeded tables"))
def test_C_shift_of_ids0_loses_no_verdict(case):
    """(C3) d-shifts only a = ids[0]; the loops that d-shift every a reach
    the same verdict at each bound.  CK6 is left out for time."""
    for R in _C_cases(case):
        for b in ((2, 1, 1), (1, 2, 0)):
            every = all(kind != "fail" for kind, _ in
                        _reference_C(R, *b, shift_every_a=True))
            assert every == check_C_axioms(R, *b).ok, (case, b)


def _C_grid(R, m_max, n_max, d_max) -> int:
    """The instances of C's full loops: 3 per basis vector, (C1) over every
    (a, b, n), (C2) over every (a, b, k, l, n) and (C3) over every (a, b,
    c, k, m, n), where only a = ids[0] has d_max + 1 values of k."""
    N = R.dim
    return 3 * N + N * N * (n_max + 1) * (
        1 + (d_max + 1) ** 2 + (N + d_max) * (m_max + 1))


@pytest.mark.parametrize("case", catalog.NAMES + ("N4alpha(a)",))
def test_passing_C_reports_count_the_full_grid(case):
    """A passing Report counts every instance, whatever the table stores;
    CK6 runs at the benchmark's C bounds only."""
    (R,) = _C_cases(case)
    for b in ((2, 1, 1),) if case == "CK6" else \
            ((2, 1, 1), (1, 2, 0), (3, 3, 2)):
        rep = check_C_axioms(R, *b)
        assert (rep.ok, rep.checked) == (True, _C_grid(R, *b)), (case, b)


def test_C_work_does_not_grow_with_the_bounds(monkeypatch):
    """CK6 stores n <= 1, so no term of (C1)-(C3) on it reaches past m, n
    <= 3 at d_max = 1: C(4,4,1) and C(64,64,1) make the same calls to
    `row`, from which every product of C is read, and every instance of the
    full loops is counted."""
    calls, real = [], ReconstructedAlgebra.row
    monkeypatch.setattr(ReconstructedAlgebra, "row",
                        lambda *args: calls.append(1) or real(*args))
    ck6, work = catalog.build("CK6"), []
    for bound in (4, 64):
        del calls[:]
        rep = check_C_axioms(ck6, bound, bound, 1)
        assert rep.ok and rep.checked == _C_grid(ck6, bound, bound, 1)
        work.append(len(calls))
    assert work[0] == work[1] > 0


def _reference_product(RA, x, y, n):
    """x_(n) y from the stored products and coeff_G alone, term by term,
    with no table and no memo: on basis vectors
    a_(m) b = sum_i coeff_G(wa, wb, m, i) d^(i) <a m+i b>, and
    (d^(k) a)_(n) d^(l) b
        = (-1)^k C(n, k) sum_j C(n-k, j) d^(l-j) (a_(n-k-j) b)
    with d^(s) d^(i) = C(i+s, i) d^(i+s) on divided powers."""
    R, N, out = RA.R, RA.N, {}
    ids, pos, top = [b.id for b in R.basis], R.index, R.max_n()
    for ix, cx in x.items():
        k, a = ix // N, ids[ix % N]
        for iy, cy in y.items():
            l, b = iy // N, ids[iy % N]
            for j in range(min(l, n - k) + 1):
                m, s = n - k - j, l - j
                for i in range(top - m + 1):
                    ab = R.products.get((m + i, a, b))
                    g = ab and coeff_G(R.weight(a), R.weight(b), m, i)
                    if g:
                        f = (-1) ** k * comb(n, k) * comb(n - k, j) * \
                            comb(i + s, i) * g
                        el_add_into(out, {(i + s) * N + pos[t]: v
                                          for t, v in ab.items()},
                                    _scalar(f) * cx * cy)
    return out


@pytest.mark.parametrize("case", catalog.NAMES + ("w6 table", "central Vir"))
def test_product_matches_the_formula_on_monomials(case):
    """RA.product agrees with the formula on every pair of monomials
    d^(k) a, d^(l) b with k, l <= max_n + 3, on both sides of the memo's
    degree bound max_n + 1, at every n <= k + max_n + 1, with unit and with
    other coefficients.  A repeated call gives an equal dict that is a new
    object, and changing a result changes no later one."""
    (R,) = _C_cases(case)
    RA, top = reconstruct(R), R.max_n()
    N, cx, cy = RA.N, S(-3), IMAG + ONE
    monomials = range((top + 4) * N)
    for ix in monomials:
        for iy in monomials:
            for n in range(ix // N + top + 2):
                x, y = {ix: ONE}, {iy: ONE}
                want = _reference_product(RA, x, y, n)
                got = RA.product(x, y, n)
                assert got == want, (case, ix, iy, n)
                again = RA.product(x, y, n)
                assert again == got and again is not got
                for key in list(got):
                    got[key] = -got[key]
                got[-1] = ONE
                assert RA.product(x, y, n) == want
                assert RA.product({ix: cx}, {iy: cy}, n) == \
                    el_scale(want, cx * cy)
    assert 0 < len(RA._rows)


@pytest.mark.parametrize("case", catalog.NAMES + ("w6 table",))
def test_the_memo_starts_with_the_rows_of_the_stored_pairs(case):
    """Right after `reconstruct`, the memo holds the row of each basis pair
    with a nonzero product and nothing else: the products the formula
    gives at every n, in increasing (n, p), each the row in `RA.base`."""
    (R,) = _C_cases(case)
    RA, top, want = reconstruct(R), R.max_n(), {}
    for pa in range(RA.N):
        for pb in range(RA.N):
            row = tuple((n, p, v) for n in range(top + 1) for p, v in sorted(
                _reference_product(RA, {pa: ONE}, {pb: ONE}, n).items()))
            if row:
                want[pa, pb] = row
    assert RA._rows == want and len(want) > 0
    for (pa, pb), row in RA._rows.items():
        assert RA.base[pa][pb] is row
    assert sum(map(len, RA.base)) == len(want)


def test_C_forms_no_row_of_a_stored_pair(monkeypatch):
    """C reads the row of a stored basis pair from the memo it starts
    with: C at d_max = 1 on CK6 forms other rows, but none of those."""
    RA, formed = reconstruct(catalog.build("CK6")), []
    real = ReconstructedAlgebra._form
    monkeypatch.setattr(ReconstructedAlgebra, "_form",
                        lambda RA, ix, iy: formed.append((ix, iy))
                        or real(RA, ix, iy))
    assert check_C_axioms(RA, d_max=1).ok
    N = RA.N
    assert formed and not [(ix, iy) for ix, iy in formed
                           if ix < N and iy < N and real(RA, ix, iy)]


def test_memo_is_bounded_by_the_table():
    """The memo holds only the rows of monomials of d-degree at most max_n
    + 1, so it holds the same entries after C at d_max = 2 as at d_max = 5,
    and no n outside k <= n <= k + l + max_n.  No stored term is zero, and
    C reads no row of a pair whose products all vanish."""
    R = catalog.build("K3")
    top, memos = R.max_n(), []
    for d_max in (2, 5):
        RA = reconstruct(R)
        assert check_C_axioms(RA, 3, 3, d_max).ok
        bound, N = (top + 2) * RA.N, RA.N
        for (ix, iy), row in RA._rows.items():
            assert ix < bound and iy < bound and type(row) is tuple and row
            for n, p, v in row:
                assert ix // N <= n <= ix // N + iy // N + top and v
        memos.append(RA._rows)
    assert memos[0] == memos[1] and len(memos[0]) > 0


def test_a_second_C_forms_no_product(monkeypatch):
    """A row holds the products of a pair at every n, so a second C(2,1,1)
    on the same reconstruction of CK6 forms nothing by the product formula
    and gives an equal Report."""
    formed, real = [], ReconstructedAlgebra._form
    monkeypatch.setattr(ReconstructedAlgebra, "_form",
                        lambda *args: formed.append(1) or real(*args))
    RA, reports = reconstruct(catalog.build("CK6")), []
    for _ in range(2):
        del formed[:]
        rep = check_C_axioms(RA, 2, 1, 1)
        reports.append((rep.ok, rep.checked, rep.failures, len(formed)))
    assert reports[0][:3] == reports[1][:3] and reports[0][0]
    assert reports[0][3] > 0 and reports[1][3] == 0


@pytest.mark.parametrize("name", ["K2", "S2"])
def test_a_full_memo_leaves_mutant_reports_unchanged(name):
    """A failing sign mutant gets the same Report from a fresh
    reconstruction as from one whose memo a run of C with no cap on the
    failures has filled, at a cap of 20 and of 3."""
    for label, M in catalog.build(name).sign_mutations():
        full = reconstruct(M)
        check_C_axioms(full, 2, 2, 1, max_failures=10 ** 6)
        for cap in (20, 3):
            fresh = check_C_axioms(reconstruct(M), 2, 2, 1, max_failures=cap)
            again = check_C_axioms(full, 2, 2, 1, max_failures=cap)
            assert not fresh.ok, label
            assert (again.ok, again.checked, again.failures) == \
                (fresh.ok, fresh.checked, fresh.failures), label


def _flip_D1_0_Db1(RA):
    """Flip the sign of the first term of D1_(0) Db1 in its memo row."""
    key = (RA.pos["D1"], RA.pos["Db1"])
    (n, p, v), *rest = RA._rows[key]
    assert n == 0
    RA._rows[key] = ((n, p, -v), *rest)


def test_C_rejects_a_wrong_memo_entry():
    """C reads the memoized products and does not trust them: one sign
    flipped in the product D1_(0) Db1 of the memo row of D1 and Db1 on CK6
    fails (C1), whose two sides are two memo rows, and (C2)."""
    RA = reconstruct(catalog.build("CK6"))
    assert check_C_axioms(RA, 2, 1, 1).ok
    _flip_D1_0_Db1(RA)
    rep = check_C_axioms(RA, 2, 1, 1)
    assert not rep.ok
    assert rep.failures[:2] == ["(C1) fails: a=D1 b=Db1 n=1",
                                "(C2) fails: a=D1 b=Db1 k=0 l=0 n=0"]


def test_C3_reads_the_memo():
    """(C3) adds the memo's rows into its sums, not a copy of them: with
    one sign of CK6's D1_(0) Db1 flipped in its memo row and a cap that
    lets the check run on, (C3) fails on 171 instances after the (C1) and
    (C2) failures."""
    RA = reconstruct(catalog.build("CK6"))
    assert check_C_axioms(RA, 2, 1, 1).ok
    _flip_D1_0_Db1(RA)
    assert check_C_axioms(RA, 2, 1, 1, max_failures=4).failures == [
        "(C1) fails: a=D1 b=Db1 n=1",
        "(C2) fails: a=D1 b=Db1 k=0 l=0 n=0",
        "(C2) fails: a=Db1 b=D1 k=0 l=0 n=0",
        "(C3) fails: a=L b=D1 c=Db1 k=0 m=1 n=0"]
    rep = check_C_axioms(RA, 2, 1, 1, max_failures=1000)
    assert rep.checked == _C_grid(RA.R, 2, 1, 1)
    assert sum(f.startswith("(C3)") for f in rep.failures) == 171


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
    assert (rep.ok, rep.checked) == (False, 1042)
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


# SHA-256 of to_json() of change_conformal_vector(N4alpha(0), alpha), fixed
# before the kernels were taken in window coordinates; alpha = 1 is N4.
CHANGED_JSON_SHA256 = [
    (ZERO, "b1415169e6ced9ac78c301116f43ed139655e628868e2c84feb3f842449ab3c3"),
    (ONE, "99995a09544788342b5e624e4fbecfbf1783cb07868e2c3d1b8598cdc0f1bb1b"),
    (Scalar.from_fraction(Fraction(1, 2)),
     "059cf2192cc342753c820872a349a6b10dbec4c167e7c1a17baa4796638f4d6d"),
    (S(-1), "00d46e7709fb1b50fcf44528f156fbbecf0aedac79d254827f9ef4b5842d8c5c"),
    (ALPHA, "dcdc9df8fbb7d1e6ff5d7a99eee2a541a390632d9c00291ae961892f617742b0"),
]


@pytest.mark.parametrize("alpha,digest", CHANGED_JSON_SHA256,
                         ids=["0", "1", "1/2", "-1", "a"])
def test_change_outputs_are_pinned(alpha, digest):
    R = change_conformal_vector(catalog.build("N4alpha", 0), alpha)
    assert hashlib.sha256(R.to_json().encode()).hexdigest() == digest


@pytest.mark.parametrize("name,exc,message", [
    ("K2", NotN4Shape, "missing null-basis vector 'D2'"),
    ("S2", NotN4Shape, "the quadruple invariant vanishes"),
    ("CK6", AxiomVFails, "new reduced subspace has dimension 35"),
])
def test_change_errors_are_pinned(name, exc, message):
    with pytest.raises(exc) as info:
        change_conformal_vector(catalog.build(name), ONE)
    assert type(info.value) is exc
    assert str(info.value) == message


def _patched_change(monkeypatch, name, patch):
    """change_conformal_vector(N4alpha(0), 1) with reconstruct.<name>
    replaced by patch(original)."""
    monkeypatch.setattr(reconstruct_mod, name,
                        patch(getattr(reconstruct_mod, name)))
    return change_conformal_vector(catalog.build("N4alpha", 0), ONE)


def _dependent(coordinates):
    def patched(basis, ncols):
        raise ValueError("dependent")
    return patched


def _off_span(coordinates):
    return lambda basis, ncols: lambda x: None


@pytest.mark.parametrize("patch,message", [
    (_dependent, "derivatives of the new basis are dependent"),
    (_off_span, "product outside the span of the new basis"),
], ids=["dependent", "off-span"])
def test_change_reports_the_solver_outcomes(monkeypatch, patch, message):
    with pytest.raises(AxiomVFails) as info:
        _patched_change(monkeypatch, "coordinates", patch)
    assert str(info.value) == message


def _reweighted(moves):
    """A patch of `kernel` that passes the result of its i-th call through
    moves[i]: call 1 is the whole new subspace, calls 2-5 its parts of
    weight 2, 3/2, 1 and 1/2."""
    def patch(kernel):
        calls = []

        def patched(rows, ncols):
            calls.append(ncols)
            out = kernel(rows, ncols)
            return moves[len(calls)](out) if len(calls) in moves else out
        return patched
    return patch


@pytest.mark.parametrize("moves", [
    # no weight-2 vector; a weight-1 vector counted twice keeps N
    {2: lambda out: [], 4: lambda out: out + out[:1]},
    # two weight-2 vectors; one weight-3/2 vector fewer keeps N
    {2: lambda out: out * 2, 3: lambda out: out[1:]},
], ids=["no-L", "two-L"])
def test_change_needs_one_weight_2_vector(monkeypatch, moves):
    with pytest.raises(AxiomVFails) as info:
        _patched_change(monkeypatch, "kernel", _reweighted(moves))
    assert str(info.value) == "new weights are not physical"


def _self_product(n, skip, value):
    """A patch of ReconstructedAlgebra.product: the product of an element
    with itself at n gives value(x) once `skip` such products have been
    formed.  change_conformal_vector forms L_a (n) L_a first, at n = 1 and
    n = 2, and later each new basis vector with itself, L_a first."""
    def patch(real):
        calls = []

        def patched(self, x, y, k):
            if x is y and k == n:
                calls.append(k)
                if len(calls) > skip:
                    return value(x)
            return real(self, x, y, k)
        return patched
    return patch


def _off_window(real):
    """A patch of ReconstructedAlgebra.product whose L_a (2) c, for the
    window vectors c, lies past the window."""
    return lambda self, x, y, n: \
        {10 ** 6: ONE} if x is not y and n == 2 else real(self, x, y, n)


@pytest.mark.parametrize("patch,message", [
    (_self_product(1, 0, lambda x: {}), "L_(1) L != 2L for the new vector"),
    (_self_product(2, 0, dict), "higher self-products of the new vector"),
    (_off_window, "operator leaves the window"),
    (_self_product(2, 1, dict), "L_(2) L nonzero"),
    (_self_product(2, 2, dict), "second product V1, V1 not primary"),
], ids=["L1", "L2-L3", "window", "L2 of L", "not primary"])
def test_change_reports_axiom_V_failures(monkeypatch, patch, message):
    monkeypatch.setattr(ReconstructedAlgebra, "product",
                        patch(ReconstructedAlgebra.product))
    with pytest.raises(AxiomVFails) as info:
        change_conformal_vector(catalog.build("N4alpha", 0), ONE)
    assert str(info.value) == message


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


# -- pinned outputs -----------------------------------------------------------
#
# Digests fixed before the reconstruction moved to integer indices: the
# Reports of C(2,2,1) and a grid of full products and mode brackets must not
# change with the representation of the product table.


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


def _report_line(label, rep) -> str:
    # failures keep the order the checker gives them
    return "%s|%s|%d|%s" % (label, rep.ok, rep.checked,
                            "|".join(rep.failures))


C_REPORTS_SHA256 = \
    "caf8cbdacc4378e8d967e8343228e13c22d1f8f4448d36701728c91efeb1f966"


def test_C_reports_are_pinned():
    lines = []
    for name, alpha in (("Vir", None), ("K1", None), ("K2", None),
                        ("K3", None), ("S2", None), ("W2", None),
                        ("N4", None), ("N4alpha", "a")):
        R = catalog.build(name, alpha) if alpha else catalog.build(name)
        lines.append(_report_line(name, check_C_axioms(R, 2, 2, 1)))
    for name in ("K2", "S2"):
        for label, M in catalog.build(name).sign_mutations():
            lines.append(_report_line("%s %s" % (name, label),
                                      check_C_axioms(M, 2, 2, 1)))
    assert _digest(lines) == C_REPORTS_SHA256


C_CAP1_REPORTS_SHA256 = \
    "e1bcf3a228e8220698f11a1435a49628000999759a1640186296cc810c35a06f"


def test_C_reports_at_one_failure_are_pinned():
    """C(2,2,1) at max_failures=1 on every sign mutant of K2 and S2: each
    check stops at its first failure, after the same instances."""
    lines = []
    for name in ("K2", "S2"):
        for label, M in catalog.build(name).sign_mutations():
            rep = check_C_axioms(M, 2, 2, 1, max_failures=1)
            assert not rep.ok and len(rep.failures) == 1
            lines.append(_report_line("%s %s" % (name, label), rep))
    assert len(lines) == 64
    assert _digest(lines) == C_CAP1_REPORTS_SHA256


def _flat_str(RA, z) -> str:
    """A flat element as "degree id coefficient" terms."""
    return ";".join(sorted("%d %s %s" % (ix // RA.N, RA.ids[ix % RA.N], c)
                           for ix, c in z.items()))


def _degree_part(RA, z, k) -> dict:
    """The coefficients of d^(k) in the flat element z, keyed by id."""
    return {RA.ids[ix % RA.N]: c for ix, c in z.items() if ix // RA.N == k}


def _grid(R):
    """Multi-term flat elements with terms in d-degrees 0 to 3.  With N = 2
    the two keys (3-k)*N + (i+1)%N and (3-k)*N + (i+3)%N coincide, and the
    later value is kept."""
    N = R.dim
    coeffs = [ONE, S(-2), Scalar.from_fraction(Fraction(3, 2)), IMAG + ONE]
    out = []
    for k in range(4):
        for i in range(N):
            out.append({k * N + i: coeffs[k],
                        (3 - k) * N + (i + 1) % N: ONE,
                        (3 - k) * N + (i + 3) % N: coeffs[(k + i) % 4]})
    return out


PRODUCTS_SHA256 = \
    "b5fbd7b361aaa5fee79a9849c9b0b8dffd8d451f51bb08b49b4497bc6f003a67"


def test_full_products_and_mode_brackets_are_pinned():
    lines = []
    for label, R in (("K2", catalog.build("K2")),
                     ("N4alpha(a)", catalog.build("N4alpha", "a")),
                     ("central Vir", central_virasoro())):
        RA = reconstruct(R)
        grid = _grid(R)
        for u, x in enumerate(grid):
            for v, y in enumerate(grid):
                if (u + 2 * v) % 5:
                    continue
                for n in range(6):
                    lines.append("%s %d %d %d full %s" % (
                        label, u, v, n, _flat_str(RA, RA.product(x, y, n))))
                a_el = _degree_part(RA, x, min(x) // RA.N)
                b_el = _degree_part(RA, y, max(y) // RA.N)
                for m, n in ((-2, 1), (0, 0), (1, -1), (2, 2)):
                    br = mode_bracket(RA, a_el, m, b_el, n)
                    lines.append("%s %d %d %d %d mode %s" % (
                        label, u, v, m, n, ";".join(sorted(
                            "%s %d %s" % (x_, s, c)
                            for (x_, s), c in br.items()))))
    assert _digest(lines) == PRODUCTS_SHA256
