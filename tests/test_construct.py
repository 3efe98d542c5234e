"""Solver-side construction: wedge-form assembly, the Clifford-image
builders, the weight-1/2 extension and the finite case sweeps."""
import gc
import hashlib
import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, product

import pytest

import confsalg
from confsalg.scalars import Scalar, ZERO, ONE, ALPHA
from confsalg import catalog
from confsalg.algebra import (BasisVector, ReducedAlgebra, check_P_axioms,
                              check_H_axioms, is_simple)
from confsalg.clifford import Clifford
from confsalg.reconstruct import check_C_axioms
from confsalg.construct import (assemble_wedge_form, wedge_lookup,
                                BuilderSpec, build_from_spec,
                                build_f_extension, iota_cl4_span,
                                InconsistentSpec, UnderdeterminedSpec,
                                exclusion_sweep, CK6_KERNEL, _wedge3_basis,
                                _odd_constraints, _solve_factored)

F1 = Fraction(1)


def S(n):
    return Scalar.from_int(n)


def test_wedge_form_two_pairs_symbolic():
    # generators ordered D1 Db1 D2 Db2; all forced values in terms of the
    # single off-diagonal parameter
    form = assemble_wedge_form(2, False, [[ZERO, ALPHA], [ALPHA, ZERO]])
    assert wedge_lookup(form, 1, 0, 1, 0) == ONE          # (Db1^D1, Db1^D1)
    assert wedge_lookup(form, 1, 0, 3, 2) == ALPHA        # (Db1^D1, Db2^D2)
    assert wedge_lookup(form, 0, 2, 1, 3) == -(ONE + ALPHA)
    assert wedge_lookup(form, 1, 2, 0, 3) == -(ONE - ALPHA)
    assert wedge_lookup(form, 0, 2, 0, 3) == ZERO
    # antisymmetry of the wedge arguments
    assert wedge_lookup(form, 0, 1, 2, 3) == \
        -wedge_lookup(form, 1, 0, 2, 3)


def test_wedge_form_odd_generator():
    form = assemble_wedge_form(1, True, [[ZERO]])
    # (Db1 ^ e3, D1 ^ e3) = -1
    assert wedge_lookup(form, 1, 2, 0, 2) == -ONE
    assert wedge_lookup(form, 0, 2, 1, 2) == -ONE
    assert wedge_lookup(form, 0, 2, 0, 2) == ZERO


@pytest.mark.parametrize("npairs,odd,kernel,dim", [
    (0, True, [], 2),
    (1, False, [], 4),
    (1, True, [], 8),
    (3, False, CK6_KERNEL, 32),
])
def test_builder_dimensions(npairs, odd, kernel, dim):
    alpha = [[ZERO] * npairs for _ in range(npairs)]
    spec = BuilderSpec.from_alpha(npairs, odd, alpha, kernel_words=kernel)
    R = build_from_spec(spec)
    assert R.dim == dim
    # independent count: dimension of the span of word classes
    classes, qdim = iota_cl4_span(spec)
    assert classes == qdim == dim


def test_builder_weight_splits_match_clifford_grading():
    spec = BuilderSpec.from_alpha(3, False, [[ZERO] * 3] * 3,
                                  kernel_words=CK6_KERNEL)
    R = build_from_spec(spec)
    dims = R.weight_dims()
    assert dims == {Fraction(2): 1, Fraction(3, 2): 6,
                    Fraction(1): 15, Fraction(1, 2): 10}


def test_builder_validates():
    # a full kernel collapses the quotient and must be rejected
    spec = BuilderSpec.from_alpha(1, False, [[ZERO]],
                                  kernel_words=[(0,), (1,)])
    with pytest.raises(InconsistentSpec):
        build_from_spec(spec)


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# SHA-256 of to_json() of the builder's catalog outputs, fixed before the
# weight-1 rows were filled from the derivation action; W2 and CK6 are
# pinned by their golden files.
BUILT_JSON_SHA256 = [
    ("K1", None,
     "ee2821f15043124106ec1bc7c7096f2219e0f9ccb4f615243d1688213c460cdf"),
    ("K2", None,
     "9ff9c5632a24708048572d9a4d21f9cdf025e786e91774a5d0117585621659b6"),
    ("K3", None,
     "f351fa8b610ffc25f4100e6037e9d282679af9fabf7942617413f7554970e89a"),
    ("S2", None,
     "f8e6dede71b9e27db7bbc5231652bf253c7bb08de9c0f76dccd5bad7171f3bca"),
    ("N4alpha", None,
     "f9860cb25c1036f763c242ac8df88b0471361c4d63a96683991b18e8e21f6037"),
    ("N4alpha", "1/2",
     "f81afb0a7b64eb45a2453c233b628ea6cefbc5d754efd5211b070e290a6a87f9"),
]


@pytest.mark.parametrize("name,alpha,digest", BUILT_JSON_SHA256,
                         ids=["K1", "K2", "K3", "S2", "N4alpha-a",
                              "N4alpha-1/2"])
def test_builder_outputs_are_pinned(name, alpha, digest):
    assert sha256(catalog.build(name, alpha).to_json()) == digest


# Two null pairs, alpha in (0, -1, a), and every subset of the four kernel
# words in order of size: the outcome of each spec is the SHA-256 of
# to_json() or "InconsistentSpec", and the digest is that of the outcomes
# joined by newlines, fixed before the weight-1 rows were filled from the
# derivation action.
GRID_SHA256 = \
    "0d1fa10a4e1627176027f583b57ea8e20be9616386dea1b5a7acab07b22c24ac"


GRID_SPECS = [BuilderSpec.from_alpha(2, False, [[ZERO, alpha], [alpha, ZERO]],
                                    list(words))
              for alpha in (ZERO, S(-1), ALPHA) for r in range(5)
              for words in combinations(product((0, 1), repeat=2), r)]


def _grid_outcome(spec):
    try:
        return sha256(build_from_spec(spec).to_json())
    except InconsistentSpec:
        return "InconsistentSpec"


def test_builder_grid_outcomes_are_pinned():
    outcomes = [_grid_outcome(spec) for spec in GRID_SPECS]
    assert len(outcomes) == 48
    assert sum(o != "InconsistentSpec" for o in outcomes) == 11
    assert sha256("\n".join(outcomes)) == GRID_SHA256


def test_builds_share_one_clifford_per_shape():
    """All 48 builds of the grid share one Cl(2), whichever order they run
    in: built in reverse, the grid gives the pinned outcomes."""
    outcomes = [_grid_outcome(spec) for spec in reversed(GRID_SPECS)]
    assert sha256("\n".join(reversed(outcomes))) == GRID_SHA256
    gc.collect()
    assert sum(isinstance(o, Clifford) and (o.npairs, o.odd) == (2, False)
               for o in gc.get_objects()) == 1
    assert Clifford(1, True) is Clifford(1, odd=True)


def s2():
    m1 = S(-1)
    return build_from_spec(BuilderSpec.from_alpha(
        2, False, [[ZERO, m1], [m1, ZERO]], kernel_words=[(0, 0), (1, 1)]))


def w3_unit(t):
    return {_wedge3_basis(4).index(t): ONE}


def test_f_extension_full_f():
    R = build_f_extension(s2(), [])
    assert R.dim == 16
    assert check_P_axioms(R, 3, 3).ok
    assert check_H_axioms(R).ok
    assert is_simple(R).simple


def test_f_extension_two_dim_radical():
    R = build_f_extension(s2(), [w3_unit((0, 1, 2)), w3_unit((0, 2, 3))])
    assert R.dim == 12
    assert R.weight_dims()[Fraction(1, 2)] == 2
    assert check_H_axioms(R).ok
    assert is_simple(R).simple


def test_f_extension_rejects_odd_dimensional_radical():
    with pytest.raises(InconsistentSpec):
        build_f_extension(s2(), [w3_unit((0, 1, 2))])


def test_f_extension_rejects_a_degenerate_base():
    """{L, V1} with only the L-rows has a zero Gram matrix on V, which
    the solver for the dual basis rejects."""
    three_halves = Scalar.from_fraction(Fraction(3, 2))
    base = ReducedAlgebra(
        [BasisVector("L", Fraction(2), 0),
         BasisVector("V1", Fraction(3, 2), 1)], "L",
        {(1, "L", "L"): {"L": Scalar.from_int(2)},
         (1, "L", "V1"): {"V1": three_halves},
         (1, "V1", "L"): {"V1": three_halves}})
    with pytest.raises(InconsistentSpec) as info:
        build_f_extension(base, [])
    assert str(info.value) == "degenerate inner product on the base"


def j0_family(lam):
    """J0(lam) = span{e0 + lam e3, lam e1 - e2}, with e0..e3 the triples of
    `_wedge3_basis(4)`: the J0 that S2's weight-1 action leaves invariant
    form this projective line, since Lambda^3 V is two isomorphic doublets.
    lam = 0 gives W2's J0, written here with its zero entries."""
    return [{0: ONE, 3: lam}, {1: lam, 2: -ONE}]


def test_f_extension_drops_zero_entries_of_J0():
    R = build_f_extension(s2(), j0_family(ZERO))
    with open(catalog.golden_path("W2")) as fh:
        assert R.to_json() == fh.read()


@pytest.mark.parametrize("lam", [S(2), ALPHA], ids=["2", "a"])
def test_f_extension_on_the_J0_family(lam):
    """Off lam = 0 the family still builds W2's invariants: a simple
    12-dimensional algebra that passes P, H and C."""
    R = build_f_extension(s2(), j0_family(lam))
    assert catalog.invariant_signature(R) == {
        "dims": {"1/2": 2, "1": 5, "3/2": 4, "2": 1},
        "charpoly": "t^6-2*t^5-4*t^4+8*t^3", "simple": True}
    assert check_P_axioms(R, 2, 2).ok
    assert check_H_axioms(R).ok
    assert check_C_axioms(R, 2, 2, 1).ok


# SHA-256 of to_json() of the extension with the full F (no radical), and
# the exact message for the odd radical, fixed while the extension's
# operators were dense matrices.
F_EXTENSION_FULL_SHA256 = \
    "821e083e596e246f85cd3b564f811bfa671a88da2e567258b3b5977bf0daa398"


def test_f_extension_full_f_is_pinned():
    R = build_f_extension(s2(), [])
    assert R.dim == 16
    assert sha256(R.to_json()) == F_EXTENSION_FULL_SHA256


def test_f_extension_odd_radical_message_is_pinned():
    with pytest.raises(InconsistentSpec) as info:
        build_f_extension(s2(), [w3_unit((0, 1, 2))])
    assert str(info.value) == \
        "the null space of the triple pairing is not invariant"


# -- case sweeps ------------------------------------------------------------


def test_sweep_odd_dimensions_unsat():
    for d in (5, 7):
        rep = exclusion_sweep(d)
        assert not rep.satisfiable
        assert rep.solutions == []
        assert any("2 and -2" in note for note in rep.notes)


def _is_fraction_tuples(sols):
    return all(type(v) is Fraction for s in sols for v in s)


def test_solver_two_root_factor():
    # x (x - 1) = 0
    sols = _solve_factored(["x"], [[(0, {"x": 1}), (-1, {"x": 1})]])
    assert sols == [(0,), (1,)]
    assert _is_fraction_tuples(sols)


def test_solver_odd_dimension_pair_is_unsat():
    assert _solve_factored(*_odd_constraints()) == []


def test_solver_rejects_a_free_variable():
    with pytest.raises(UnderdeterminedSpec):
        _solve_factored(["x", "y"], [[(0, {"x": 1})]])


def test_solver_lists_each_solution_once():
    # x = 0 makes the first factor of the second constraint vanish already
    sols = _solve_factored(["x"], [[(0, {"x": 1})],
                                   [(0, {"x": 2}), (-1, {"x": 1})]])
    assert sols == [(0,)]
    # x y = 0 and x - y = 0: both branches reach the origin
    sols = _solve_factored(["x", "y"], [[(0, {"x": 1}), (0, {"y": 1})],
                                        [(0, {"x": 1, "y": -1})]])
    assert sols == [(0, 0)]
    # 2x = 1 and y (y + x) = 0: rational values
    sols = _solve_factored(["x", "y"],
                           [[(-1, {"x": 2})],
                            [(0, {"y": 1}), (0, {"y": 1, "x": 1})]])
    assert sols == [(Fraction(1, 2), Fraction(-1, 2)),
                    (Fraction(1, 2), Fraction(0))]
    assert _is_fraction_tuples(sols)


def test_sweep_dim6_solutions():
    rep = exclusion_sweep(6)
    assert _is_fraction_tuples(rep.solutions)
    sols = {tuple(int(v) for v in s) for s in rep.solutions}
    assert sols == {(0, 0, 0), (-1, -1, -1), (-1, 1, 1), (1, -1, 1),
                    (1, 1, -1)}
    for s in rep.solutions:
        verdict = rep.verdicts[s]
        if all(v == 0 for v in s):
            assert "simple algebra of dimension 32" in verdict
        else:
            assert "zero algebra" in verdict


def test_sweep_dim6_builds_CK6_without_the_catalog():
    """A fresh interpreter runs the dim-6 sweep; the construct layer builds
    CK6 from its spec and never imports the catalog layer above it."""
    src = os.path.dirname(os.path.dirname(confsalg.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    script = ("import sys\n"
              "from confsalg.construct import exclusion_sweep\n"
              "rep = exclusion_sweep(6)\n"
              "print('confsalg.catalog' in sys.modules)\n"
              "print(rep.verdicts[(0, 0, 0)])\n")
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "False\nsimple algebra of dimension 32\n"


def test_sweep_dim8_solutions():
    rep = exclusion_sweep(8)
    sols = {tuple(int(v) for v in s) for s in rep.solutions}
    assert sols == {
        (0, 0, 0, 0, 0, 0),
        (1, 1, 1, -1, -1, -1), (1, 1, -1, -1, 1, 1),
        (1, -1, 1, 1, -1, 1), (1, -1, -1, 1, 1, -1),
        (-1, 1, -1, 1, -1, 1), (-1, 1, 1, 1, 1, -1),
        (-1, -1, 1, -1, 1, 1), (-1, -1, -1, -1, -1, -1)}
    assert all("zero algebra" in rep.verdicts[s] for s in rep.solutions)


def test_sweep_dim8_solutions_satisfy_the_constraints():
    # independent re-check of the branch solver on the full sweep output
    rep = exclusion_sweep(8)
    idx = {}
    names = rep.unknowns
    for s in rep.solutions:
        a = {}
        for nm, v in zip(names, s):
            i, j = int(nm[1]), int(nm[2])
            a[(i, j)] = a[(j, i)] = v
        for i in range(1, 5):
            for j in range(1, 5):
                for k in range(1, 5):
                    if len({i, j, k}) < 3:
                        continue
                    assert (a[(i, j)] + a[(j, k)]) * (a[(i, k)] + 1) == 0
                    assert (a[(i, j)] - a[(j, k)]) * (a[(i, k)] - 1) == 0


# The quotient Cl(V)/I, the image span of words of length <= 4 and the
# unvalidated build, for the CK6 kernel and three dim-8 zero-branch kernels:
# the first 8 words (generator D1 collapses), the CK6-like five words (the
# image spans 152 of 176 dimensions) and the 8 even-weight words (a table of
# dimension 128).  Each digest is the SHA-256 of the words at no pivot of
# the kernel's left ideal, its iota_cl4_span and its outcome (the
# InconsistentSpec message or the SHA-256 of to_json()), fixed before the
# echelon rows became sparse; the dim8-even digest was recomputed when the
# builder began to store both computed orders of the weight-1 products.
WORDS4 = list(product((0, 1), repeat=4))
QUOTIENT_BUILDS_SHA256 = [
    (3, CK6_KERNEL,
     "46fc6b5cf28d17179188915c4fc8fc60781c227ae03b43704496b37692a1d4d1"),
    (4, WORDS4[:8],
     "7d0f149f8c6a12cf733414bf7b2f0b9a1192ddab0a95dc1a4e6ab54a54a88f3b"),
    (4, [(1, 1, 1, 1), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
         (0, 0, 0, 1)],
     "8ec934d9b0a4ba19e473c61a631b66e91cb40dc6495457bc8420599ce2b6898b"),
    (4, [w for w in WORDS4 if sum(w) % 2 == 0],
     "331ce6649f36942f50499fe67691f44a56a9621cd99b7edf7a9ee94218bbabb9"),
]


@pytest.mark.parametrize("npairs,words,digest", QUOTIENT_BUILDS_SHA256,
                         ids=["CK6", "dim8-first8", "dim8-five",
                              "dim8-even"])
def test_quotient_builds_are_pinned(npairs, words, digest):
    cl = Clifford(npairs)
    ideal = cl.left_ideal([cl.module_generator(w) for w in words])
    keep_words = [w for k, w in enumerate(cl.words)
                  if k not in ideal.by_pivot]
    spec = BuilderSpec.from_alpha(npairs, False, [[ZERO] * npairs] * npairs,
                                  words)
    try:
        outcome = sha256(build_from_spec(spec, validate=False).to_json())
    except InconsistentSpec as exc:
        outcome = str(exc)
    text = "%r|%r|%s" % (keep_words, iota_cl4_span(spec), outcome)
    assert sha256(text) == digest


def test_weight1_products_keep_both_computed_orders():
    # on the dim-8 even-word kernel the builder computes <A1 0 A44> and
    # <A44 0 A1> on the turns of A1 and A44, and they disagree; storing
    # both lets P's skew check report it before any identity failure
    spec = BuilderSpec.from_alpha(4, False, [[ZERO] * 4] * 4,
                                  [w for w in WORDS4 if sum(w) % 2 == 0])
    rep = check_P_axioms(build_from_spec(spec, validate=False), 0, 0,
                         max_failures=3)
    assert not rep.ok
    assert rep.failures[0] == "skew fails: <A1 0 A44>"


# The odd-dimension builder on signed module generators D^w (1 + s e_N):
# for one null pair every subset of the four signed words, for two null
# pairs (a12 = 0 and a12 = a) every subset of at most two of the eight.
# One line per spec: its kernel words, iota_cl4_span and its outcome (the
# SHA-256 of the validated build's to_json() or the InconsistentSpec
# message); one digest per group.  The grid holds a dim-8 build, a vanishing
# identity, collapses of D1, Db1 and e3, a filtration spanning 31 of 32
# dimensions and axiom violations.  Recomputed when the builder began to
# store both computed orders of the weight-1 products, which changed the
# failure lists or instance counts of 76 rejections, and again when a P
# Report full before the quadratic identity began to stop at its first
# instance, which lowered the instance counts of 72 rejections by 2.
ODD_GRID_SHA256 = {
    (1, "0"):
        "3fa2cf015f0cf1cf22cc2d2624188ae9f508d68422cd62ed86696dfe7c0c7556",
    (2, "0"):
        "3a6f785eae30e2ab10c2ae3622b643226306f55ef0327c925516574be203306b",
    (2, "a"):
        "4c314af354a4faa3718e5009dafcb37a6d2551d5c0b78d5aab6f941c50a94a78",
}


def _odd_grid_lines(npairs, a12):
    signed = [(w, s) for w in product((0, 1), repeat=npairs)
              for s in (1, -1)]
    alpha = [[ZERO, a12], [a12, ZERO]] if npairs == 2 else [[ZERO]]
    lines = []
    for k in range(len(signed) + 1 if npairs == 1 else 3):
        for words in combinations(signed, k):
            spec = BuilderSpec.from_alpha(npairs, True, alpha, words)
            try:
                outcome = sha256(build_from_spec(spec).to_json())
            except InconsistentSpec as exc:
                outcome = str(exc)
            lines.append("%r|%r|%s" % (words, iota_cl4_span(spec), outcome))
    return lines


def test_odd_builder_grid_outcomes_are_pinned():
    outcomes = []
    for (npairs, a12), digest in ODD_GRID_SHA256.items():
        lines = _odd_grid_lines(npairs, ZERO if a12 == "0" else ALPHA)
        assert sha256("\n".join(lines)) == digest
        outcomes += [ln.split("|", 2)[2] for ln in lines]
    assert len(outcomes) == 90
    firsts = {o.splitlines()[0] for o in outcomes}
    assert {"the identity class vanishes (zero algebra)",
            "generator D1 collapses in the quotient",
            "generator Db1 collapses in the quotient",
            "generator e3 collapses in the quotient",
            "image filtration spans 31 of 32 quotient dimensions",
            "built algebra violates axioms:"} <= firsts
    assert sum(len(o) == 64 for o in outcomes) == 1
