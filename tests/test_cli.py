"""End-to-end runs of the command-line front end."""
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from confsalg import catalog, cli
from confsalg.cli import main
from confsalg.construct import InconsistentSpec, UnderdeterminedSpec
from test_algebra import _w6_table


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_catalog_lists_names(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    assert out.split() == list(catalog.NAMES)


def test_build_round_trip(tmp_path, capsys):
    path = tmp_path / "s2.json"
    code, out, _ = run(capsys, "build", "S2", "-o", str(path))
    assert code == 0 and out == ""
    assert path.read_text() == catalog.build("S2").to_json()
    code, out, _ = run(capsys, "build", "K1")
    assert code == 0
    assert out == catalog.build("K1").to_json()


def test_build_errors(capsys):
    assert run(capsys, "build", "K5")[0] == 2
    assert run(capsys, "build", "S2", "--alpha", "2")[0] == 2
    assert run(capsys, "build", "N4alpha", "--alpha", "1+")[0] == 2


def _raise(exc):
    def patched(*args, **kwargs):
        raise exc("no solution")
    return patched


@pytest.mark.parametrize("module,name,exc,argv", [
    (catalog, "build", InconsistentSpec, ["build", "K2"]),
    (cli, "exclusion_sweep", UnderdeterminedSpec, ["exclude", "--dimv", "6"]),
], ids=["build", "exclude"])
def test_solver_errors_exit_3(capsys, monkeypatch, module, name, exc, argv):
    """A solver inconsistency exits 3 with the error on stderr only."""
    monkeypatch.setattr(module, name, _raise(exc))
    assert run(capsys, *argv) == (3, "", "error: no solution\n")


def test_verify_ok_and_failing(tmp_path, capsys):
    good = tmp_path / "k2.json"
    run(capsys, "build", "K2", "-o", str(good))
    code, out, _ = run(capsys, "verify", str(good), "--axioms", "P,H,C",
                       "--mmax", "3", "--nmax", "3", "--dmax", "2")
    assert code == 0
    assert "P:" in out and "H:" in out and "C:" in out

    R = catalog.build("K2")
    label, M = next(iter(R.sign_mutations()))
    bad = tmp_path / "bad.json"
    bad.write_text(M.to_json())
    code, out, _ = run(capsys, "verify", str(bad), "--axioms", "P,H",
                       "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert not all(doc[a]["ok"] for a in doc)


def test_verify_input_errors(tmp_path, capsys):
    assert run(capsys, "verify", str(tmp_path / "missing.json"))[0] == 2
    junk = tmp_path / "junk.json"
    junk.write_text("{not json")
    assert run(capsys, "verify", str(junk))[0] == 2
    good = tmp_path / "vir.json"
    run(capsys, "build", "Vir", "-o", str(good))
    assert run(capsys, "verify", str(good), "--axioms", "Q")[0] == 2
    dup = _vir_doc()
    dup["basis"] *= 2
    junk.write_text(json.dumps(dup))
    assert run(capsys, "verify", str(junk)) == (
        2, "", "error: cannot parse %s: duplicate basis ids\n" % junk)


def test_verify_P_on_an_odd_conformal_vector(tmp_path, capsys):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({
        "basis": [{"id": "L", "weight": "3/2", "parity": 1}],
        "L": "L", "products": []}))
    code, out, err = run(capsys, "verify", str(path), "--axioms", "P")
    assert (code, err) == (1, "")
    assert "  conformal vector must be even of weight 2\n" in out


@pytest.mark.parametrize("axioms,runs", [
    ("P,P", ["P"]), ("p,P", ["P"]), ("C,C", ["C"]),
    ("H,p,h,C,P", ["H", "P", "C"]),
])
def test_verify_runs_each_axiom_once(tmp_path, capsys, monkeypatch, axioms,
                                     runs):
    import confsalg.cli as cli_mod
    path = tmp_path / "vir.json"
    run(capsys, "build", "Vir", "-o", str(path))
    calls = []

    def counting(family, checker):
        def wrapped(*args, **kwargs):
            calls.append(family)
            return checker(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(cli_mod, "check_P_axioms",
                        counting("P", cli_mod.check_P_axioms))
    monkeypatch.setattr(cli_mod, "check_H_axioms",
                        counting("H", cli_mod.check_H_axioms))
    monkeypatch.setattr(cli_mod, "check_C_axioms",
                        counting("C", cli_mod.check_C_axioms))
    code, out, _ = run(capsys, "verify", str(path), "--axioms", axioms,
                       "--mmax", "2", "--nmax", "2", "--dmax", "1")
    assert code == 0
    assert calls == runs
    assert [line.split(":")[0] for line in out.splitlines()] == runs


@pytest.mark.parametrize("flag,value", [
    ("--mmax", "-1"), ("--nmax", "-1"), ("--dmax", "-1"), ("--mmax", "65"),
    ("--nmax", "10000"), ("--dmax", "65"),
])
def test_verify_bounds_are_input_errors(tmp_path, capsys, flag, value):
    path = tmp_path / "vir.json"
    run(capsys, "build", "Vir", "-o", str(path))
    code, out, err = run(capsys, "verify", str(path), "--axioms", "P,C",
                         flag, value)
    assert code == 2 and out == ""
    assert err == "error: %s must lie in 0..64\n" % flag


def test_invariants_output(tmp_path, capsys):
    path = tmp_path / "n4a0.json"
    run(capsys, "build", "N4alpha", "--alpha", "0", "-o", str(path))
    code, out, _ = run(capsys, "invariants", str(path), "--format", "json")
    assert code == 0
    sig = json.loads(out)
    assert sig["dims"] == {"2": 1, "3/2": 4, "1": 7, "1/2": 4}
    assert sig["simple"] is True
    assert sig["charpoly"].startswith("t^6")
    code, out, _ = run(capsys, "invariants", str(path))
    assert "dims: " in out and "simple: true" in out


def test_simplicity_degenerate_member(tmp_path, capsys):
    path = tmp_path / "n4a1.json"
    run(capsys, "build", "N4alpha", "--alpha", "1", "-o", str(path))
    code, out, _ = run(capsys, "simplicity", str(path))
    assert code == 1
    assert "not simple; witness ideal generator in F³:" in out

    path2 = tmp_path / "n4a.json"
    run(capsys, "build", "N4alpha", "-o", str(path2))
    code, out, _ = run(capsys, "simplicity", str(path2), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["simple"] is True
    assert doc["nondegeneracy_condition"] in ("1-a^2", "-1+a^2", "a^2-1")


@pytest.mark.parametrize("name", ["W2", "N4"])
def test_simplicity_omits_a_vanishing_pairing_on_a_simple_algebra(
        tmp_path, capsys, name):
    """The triple pairing vanishes identically on W2 and N4, which are
    simple; its condition 0 != 0 would contradict the verdict."""
    path = tmp_path / "alg.json"
    run(capsys, "build", name, "-o", str(path))
    assert run(capsys, "simplicity", str(path)) == (0, "simple\n", "")
    code, out, _ = run(capsys, "simplicity", str(path), "--format", "json")
    assert code == 0
    assert "nondegeneracy_condition" not in json.loads(out)


def test_simplicity_keeps_a_vanishing_pairing_on_a_non_simple_algebra(
        tmp_path, capsys):
    path = tmp_path / "n4a1.json"
    run(capsys, "build", "N4alpha", "--alpha", "1", "-o", str(path))
    code, out, _ = run(capsys, "simplicity", str(path))
    assert code == 1
    assert out.splitlines()[-1] == "triple pairing nondegenerate iff 0 != 0"


def test_isocheck(tmp_path, capsys):
    pa = tmp_path / "p.json"
    pb = tmp_path / "m.json"
    run(capsys, "build", "N4alpha", "--alpha", "2", "-o", str(pa))
    run(capsys, "build", "N4alpha", "--alpha", "-2", "-o", str(pb))
    f = catalog.swap_map(catalog.build("N4alpha", 2),
                         catalog.build("N4alpha", -2))
    mp = tmp_path / "map.json"
    mp.write_text(json.dumps({src: {dst: str(c) for dst, c in img.items()}
                              for src, img in f.items()}))
    code, out, _ = run(capsys, "isocheck", str(pa), str(pb),
                       "--map", str(mp))
    assert code == 0 and "isomorphism verified" in out

    # the identity is a linear bijection fixing L, but the products of
    # N4alpha(2) and N4alpha(-2) differ
    ident = tmp_path / "ident.json"
    ident.write_text(json.dumps({b.id: {b.id: "1"}
                                 for b in catalog.build("N4alpha", 2).basis}))
    assert run(capsys, "isocheck", str(pa), str(pb), "--map", str(ident)) \
        == (1, "not an isomorphism\n", "")

    bad = tmp_path / "badmap.json"
    bad.write_text(json.dumps({"L": {"L": "1"}}))
    code, out, _ = run(capsys, "isocheck", str(pa), str(pb),
                       "--map", str(bad))
    assert code == 1 and "not an isomorphism" in out
    assert run(capsys, "isocheck", str(pa), str(pb),
               "--map", str(tmp_path / "none.json"))[0] == 2


def test_isocheck_image_outside_the_target_basis_is_an_input_error(
        tmp_path, capsys):
    # L and a weight-1 C with <L 1 L> = 2L; C's image names an unknown id
    path = tmp_path / "a.json"
    path.write_text(json.dumps({
        "basis": [{"id": "L", "weight": "2", "parity": 0},
                  {"id": "C", "weight": "1", "parity": 0}],
        "L": "L",
        "products": [{"n": 1, "a": "L", "b": "L",
                      "terms": [{"coeff": "2", "basis": "L"}]}]}))
    mp = tmp_path / "map.json"
    mp.write_text(json.dumps({"L": {"L": "1"},
                              "C": {"C": "1", "ZZZ": "5"}}))
    code, out, err = run(capsys, "isocheck", str(path), str(path),
                         "--map", str(mp))
    assert code == 2 and out == ""
    assert err.startswith("error: bad map entry") and "ZZZ" in err


def test_isocheck_key_outside_the_source_basis_is_an_input_error(
        tmp_path, capsys):
    path = tmp_path / "k1.json"
    path.write_text(catalog.build("K1").to_json())
    mp = tmp_path / "map.json"
    mp.write_text(json.dumps({"L": {"L": "1"}, "e1": {"e1": "1"},
                              "ZZZ": {"L": "1"}}))
    code, out, err = run(capsys, "isocheck", str(path), str(path),
                         "--map", str(mp))
    assert code == 2 and out == ""
    assert err.startswith("error: bad map entry") and "ZZZ" in err
    # a key missing from the map stays a check failure
    mp.write_text(json.dumps({"L": {"L": "1"}}))
    code, out, _ = run(capsys, "isocheck", str(path), str(path),
                       "--map", str(mp))
    assert code == 1 and "not an isomorphism" in out


@pytest.mark.parametrize("coeff", [1, None])
def test_isocheck_non_string_coefficient_is_an_input_error(tmp_path, capsys,
                                                           coeff):
    path = tmp_path / "k1.json"
    path.write_text(catalog.build("K1").to_json())
    mp = tmp_path / "map.json"
    mp.write_text(json.dumps({"L": {"L": coeff}, "e1": {"e1": "1"}}))
    code, out, err = run(capsys, "isocheck", str(path), str(path),
                         "--map", str(mp))
    assert code == 2 and out == ""
    assert err.startswith("error: bad map entry")


def test_exclude_text(capsys):
    code, out, _ = run(capsys, "exclude", "--dimv", "5")
    assert code == 0
    assert "UNSAT: a12 forced to both 2 and -2" in out
    code, out, _ = run(capsys, "exclude", "--dimv", "6")
    assert code == 0
    assert "5 solution(s)" in out
    assert "simple algebra of dimension 32" in out
    assert run(capsys, "exclude", "--dimv", "4")[0] == 2


def test_exclude_json(capsys):
    code, out, _ = run(capsys, "exclude", "--dimv", "8", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["satisfiable"] is True
    assert len(doc["solutions"]) == 9


def _vir_doc():
    return json.loads(catalog.build("Vir").to_json())


def _rename_L(doc, new):
    """Vir's document with its one id written as new wherever it occurs."""
    doc["basis"][0]["id"] = doc["L"] = new
    p = doc["products"][0]
    p["a"] = p["b"] = p["terms"][0]["basis"] = new


@pytest.mark.parametrize("mutate", [
    lambda d: d["products"].append(
        {"n": 0, "a": "L", "b": "X", "terms": [{"coeff": "1", "basis": "L"}]}),
    lambda d: d["products"][0]["terms"].append({"coeff": "1", "basis": "X"}),
    lambda d: d["products"][0].update(n=-1),
    lambda d: d["products"][0].update(n=10 ** 300),
    lambda d: d["basis"][0].update(parity=2),
    lambda d: d["basis"][0].update(weight="2/0"),
    lambda d: d["basis"][0].update(weight=float("inf")),
    lambda d: d["basis"][0].update(weight="1e1000000"),
    lambda d: d["basis"][0].update(weight="2.5"),
    lambda d: d["basis"][0].update(weight="0"),
    lambda d: d["basis"][0].update(weight="-1/2"),
    lambda d: '{"basis": ' + "[" * 100000 + "]" * 100000 + "}",
    lambda d: d["products"].append(json.loads(json.dumps(d["products"][0]))),
    lambda d: d["products"][0]["terms"].append(
        {"coeff": "3", "basis": d["products"][0]["terms"][0]["basis"]}),
    lambda d: d["basis"][0].update(parity=1.9),
    lambda d: d["basis"][0].update(parity="1"),
    lambda d: d["basis"][0].update(parity=True),
    lambda d: d["products"][0].update(n=1.5),
    lambda d: d["products"][0].update(n="1"),
    lambda d: d["products"][0].update(n=True),
    lambda d: _rename_L(d, 7),
    lambda d: _rename_L(d, True),
    lambda d: _rename_L(d, 1.5),
    lambda d: d["basis"][0].update(id=["L"]),
    lambda d: d.update(L=None),
    lambda d: d["products"][0].update(a=7),
    lambda d: d["products"][0].update(b={"L": 1}),
    lambda d: d["products"][0]["terms"][0].update(basis=7),
], ids=["unknown-key", "unknown-term", "negative-n", "huge-n", "parity",
        "zero-denominator", "infinite-weight", "exponent-weight",
        "decimal-weight", "zero-weight", "negative-weight", "deep-nesting",
        "duplicate-key", "duplicate-term", "float-parity", "string-parity",
        "bool-parity", "float-n", "string-n", "bool-n", "int-ids",
        "bool-ids", "float-ids", "list-id", "null-L", "int-a", "object-b",
        "int-term"])
def test_malformed_tables_are_input_errors(tmp_path, capsys, mutate):
    doc = _vir_doc()
    path = tmp_path / "bad.json"
    path.write_text(mutate(doc) or json.dumps(doc))
    for cmd in ("verify", "simplicity"):
        code, out, err = run(capsys, cmd, str(path))
        assert code == 2, (cmd, out)
        assert err.startswith("error: cannot parse")


@pytest.mark.parametrize("mutate,field", [
    (lambda d: d.update(basis=d["basis"][0]), "basis must be"),
    (lambda d: d["products"][0].update(terms=[5]), "terms must be"),
    (lambda d: d["products"][0]["terms"][0].update(coeff=2),
     "term coeff must be"),
    (lambda d: json.dumps([d]), "the document must be"),
    (lambda d: "null", "the document must be"),
    (lambda d: d.pop("basis") and None, "missing field 'basis'"),
    (lambda d: d["products"][0]["terms"][0].pop("coeff") and None,
     "missing field 'coeff'"),
], ids=["object-basis", "int-term", "int-coeff", "list-document",
        "null-document", "missing-basis", "missing-coeff"])
def test_malformed_json_names_the_field(tmp_path, capsys, mutate, field):
    doc = _vir_doc()
    path = tmp_path / "bad.json"
    path.write_text(mutate(doc) or json.dumps(doc))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot parse") and field in err, err


def _table_doc(weights: dict, prods=()):
    """The document of the basis {id: weight}, with L first, whose
    products are the L-rows <L 1 b> = <b 1 L> = wt(b) b and then prods,
    each (n, a, b, {basis: coeff})."""
    rows = [(1, "L", b, {b: w}) for b, w in weights.items()]
    rows += [(1, b, "L", {b: w}) for b, w in weights.items() if b != "L"]
    return {"basis": [{"id": b, "weight": w, "parity": 1 if "/" in w else 0}
                      for b, w in weights.items()],
            "L": "L",
            "products": [{"n": n, "a": a, "b": b,
                          "terms": [{"coeff": c, "basis": t}
                                    for t, c in el.items()]}
                         for n, a, b, el in list(rows) + list(prods)]}


def _off_span_doc():
    """L; u, v of weight 3/2; x of weight 1; with the L-rows,
    <u 1 v> = <v 1 u> = x and <u 0 v> = L + x, which leaves span(L)."""
    return _table_doc({"L": "2", "u": "3/2", "v": "3/2", "x": "1"},
                      [(1, "u", "v", {"x": "1"}), (1, "v", "u", {"x": "1"}),
                       (0, "u", "v", {"L": "1", "x": "1"})])


@pytest.mark.parametrize("cmd", ["simplicity", "invariants"])
def test_bullet_product_outside_span_L_is_an_input_error(tmp_path, capsys,
                                                          cmd):
    path = tmp_path / "offspan.json"
    path.write_text(json.dumps(_off_span_doc()))
    code, out, err = run(capsys, cmd, str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot analyse %s: element not "
                          "proportional to L" % path)


def test_verify_H_reports_off_span_table(tmp_path, capsys):
    path = tmp_path / "offspan.json"
    path.write_text(json.dumps(_off_span_doc()))
    code, out, err = run(capsys, "verify", str(path), "--axioms", "H")
    assert code == 1 and err == ""
    assert "  u . v is not in span(L)\n" in out


def test_simplicity_on_a_degenerate_inner_product(tmp_path, capsys):
    """{L, V1} with only the L-rows: V1 . V1 = 0, so V1 is the witness."""
    path = tmp_path / "lv.json"
    path.write_text(json.dumps(_table_doc({"L": "2", "V1": "3/2"})))
    assert run(capsys, "simplicity", str(path)) == (
        1, "not simple; degenerate inner product\nwitness: (1)*V1\n", "")
    code, out, _ = run(capsys, "simplicity", str(path), "--format", "json")
    assert code == 1
    assert json.loads(out)["witness"] == {"V1": "1"}


def test_simplicity_on_a_proper_ideal(tmp_path, capsys):
    """{L, A} with <L 1 A> = <A 1 L> = A: A spans an ideal without L."""
    path = tmp_path / "la.json"
    path.write_text(json.dumps(_table_doc({"L": "2", "A": "1"})))
    code, out, _ = run(capsys, "simplicity", str(path))
    assert code == 1
    assert out.splitlines()[0] == "not simple; proper ideal generated by A"


def test_verify_H_needs_a_physical_algebra(tmp_path, capsys):
    """Vir + Vir, on L and the second Virasoro vector W, has two
    weight-2 vectors, so H does not apply."""
    path = tmp_path / "virvir.json"
    path.write_text(json.dumps(_table_doc(
        {"L": "2", "W": "2"}, [(1, "W", "W", {"W": "2"})])))
    code, out, err = run(capsys, "verify", str(path), "--axioms", "H")
    assert (code, out) == (2, "")
    assert "H axioms need a physical algebra" in err


def test_verify_H_needs_the_physical_parity(tmp_path, capsys):
    """{L, F1} with F1 even at weight 1/2: the weights are physical, the
    parity is not, so H does not apply."""
    doc = _table_doc({"L": "2", "F1": "1/2"})
    doc["basis"][1]["parity"] = 0
    path = tmp_path / "even_f.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", str(path), "--axioms", "H")
    assert (code, out) == (2, "")
    assert "H axioms need a physical algebra" in err


@pytest.mark.parametrize("cmd", ["simplicity", "invariants"])
def test_non_algebra_gets_no_verdict(tmp_path, capsys, cmd):
    """K2's <D1 0 Db1> term L sign mutant fails P(2,2); neither command
    may call it simple."""
    mutant = dict(catalog.build("K2").sign_mutations())["<D1 0 Db1> term L"]
    path = tmp_path / "k2mut.json"
    path.write_text(mutant.to_json())
    code, out, err = run(capsys, cmd, str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: %s is not a conformal superalgebra: "
                          "FAILED (628 instances checked, 18 failures)\n"
                          "  skew fails: <D1 0 Db1>\n" % path)


@pytest.mark.parametrize("cmd", ["simplicity", "invariants"])
def test_table_failing_P_at_its_stored_degree_gets_no_verdict(tmp_path,
                                                              capsys, cmd):
    """The w = 6 table passes P(2,2) and P(4,4) but stores <W 9 W>, so the
    gate runs P(18,18), which fails; neither command may call it simple."""
    path = tmp_path / "w6.json"
    path.write_text(_w6_table().to_json())
    code, out, err = run(capsys, cmd, str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: %s is not a conformal superalgebra: "
                          "FAILED (2278 instances checked, 20 failures)\n"
                          "  identity fails: a=L b=W c=W m=3 n=7\n" % path)


def test_a_stored_n_above_32_is_an_input_error(tmp_path, capsys):
    """<W 33 W> is refused on load; <W 32 W> loads, and the gate's P(64,64)
    refuses it."""
    def doc(n):
        return json.dumps(_table_doc({"L": "2", "W": "35/2"},
                                     [(n, "W", "W", {"L": "1"})]))
    w33, w32 = tmp_path / "w33.json", tmp_path / "w32.json"
    w33.write_text(doc(33))
    w32.write_text(doc(32))
    code, out, err = run(capsys, "verify", str(w33))
    assert code == 2 and out == ""
    assert err == ("error: cannot parse %s: product <W 33 W>: n outside "
                   "0..32\n" % w33)
    code, out, err = run(capsys, "simplicity", str(w32))
    assert code == 2 and out == ""
    assert err.startswith("error: %s is not a conformal superalgebra: "
                          "FAILED (14256 instances checked, 20 failures)\n"
                          "  identity fails: a=L b=W c=W m=3 n=30\n" % w32)


def test_verify_P_defaults_to_its_complete_bound(tmp_path, capsys):
    """An unset --mmax or --nmax runs P at its complete bound, twice the
    largest stored n and at least 2: the w = 6 table passes P(4,4) but
    fails P(18,18), and a physical table runs P(2,2)."""
    path = tmp_path / "w6.json"
    path.write_text(_w6_table().to_json())
    code, out, _ = run(capsys, "verify", str(path), "--axioms", "P")
    assert code == 1
    assert out.startswith("P: FAILED (2278 instances checked, 20 failures)\n"
                          "  identity fails: a=L b=W c=W m=3 n=7\n")
    assert run(capsys, "verify", str(path), "--axioms", "P",
               "--mmax", "4", "--nmax", "4")[:2] == (
        0, "P: ok (247 instances checked)\n")
    code, out, _ = run(capsys, "verify", str(path), "--axioms", "P",
                       "--mmax", "4")
    assert code == 1 and "m=4 n=6" in out
    k2 = tmp_path / "k2.json"
    k2.write_text(catalog.build("K2").to_json())
    assert run(capsys, "verify", str(k2), "--axioms", "P") == run(
        capsys, "verify", str(k2), "--axioms", "P", "--mmax", "2",
        "--nmax", "2") == (0, "P: ok (628 instances checked)\n", "")


def test_verify_C_defaults_to_its_complete_bound(tmp_path, capsys):
    """An unset --mmax or --nmax runs C at its complete bound, b = 2
    (max_n + d_max) and at least 2, where --dmax defaults to 4: K2 runs
    C(10,10,4), and C(4,4,1) at --dmax 1.  b is worked out, not given, so
    it may pass 64: on an odd W of weight 35/2 with <W 32 W> = L, C at
    --dmax 1 runs at b = 66 (28501 is the stop's position in the loops
    with n <= 66) and fails, while --mmax 65 stays an input error."""
    k2 = tmp_path / "k2.json"
    k2.write_text(catalog.build("K2").to_json())
    assert run(capsys, "verify", str(k2), "--axioms", "C") == run(
        capsys, "verify", str(k2), "--axioms", "C", "--mmax", "10",
        "--nmax", "10") == (0, "C: ok (20076 instances checked)\n", "")
    assert run(capsys, "verify", str(k2), "--axioms", "C", "--dmax", "1") \
        == run(capsys, "verify", str(k2), "--axioms", "C", "--mmax", "4",
               "--nmax", "4", "--dmax", "1")
    w32 = tmp_path / "w32.json"
    w32.write_text(json.dumps(_table_doc({"L": "2", "W": "35/2"},
                                         [(32, "W", "W", {"L": "1"})])))
    code, out, _ = run(capsys, "verify", str(w32), "--axioms", "C",
                       "--dmax", "1")
    assert code == 1
    assert out.startswith("C: FAILED (28501 instances checked, 20 failures)\n"
                          "  (C3) fails: a=L b=W c=W k=0 m=3 n=0\n")
    assert run(capsys, "verify", str(w32), "--axioms", "C",
               "--mmax", "65") == (2, "", "error: --mmax must lie in 0..64\n")


SEEDS = {name: catalog.build(name).to_json() for name in ("Vir", "K1")}
LITERAL = st.text(alphabet="0123456789ia()+-*/^ ", max_size=24)
JSON_LEAF = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                      LITERAL,
                      st.sampled_from(["L", "e1", "X", "1/2", "3/2", ""]))
JSON_VALUE = st.recursive(
    JSON_LEAF, lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["n", "a", "b", "id", "coeff"]),
                        inner, max_size=3)),
    max_leaves=6)


def _paths(node, prefix=()):
    yield prefix
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for k, v in items:
        yield from _paths(v, prefix + (k,))


@st.composite
def garbled(draw):
    text = SEEDS[draw(st.sampled_from(sorted(SEEDS)))]
    kind = draw(st.sampled_from(["text", "value", "literal"]))
    if kind == "text":
        for _ in range(draw(st.integers(min_value=1, max_value=4))):
            i = draw(st.integers(min_value=0, max_value=len(text)))
            j = draw(st.integers(min_value=i, max_value=min(len(text), i + 8)))
            text = text[:i] + draw(st.text(
                alphabet='{}[]",:-0123456789eLXia/ ', max_size=4)) + text[j:]
        return text
    doc = json.loads(text)
    if kind == "literal":
        terms = [t for p in doc["products"] for t in p["terms"]]
        draw(st.sampled_from(terms))["coeff"] = draw(LITERAL)
        return json.dumps(doc)
    path = draw(st.sampled_from(list(_paths(doc))[1:]))
    node = doc
    for k in path[:-1]:
        node = node[k]
    node[path[-1]] = draw(JSON_VALUE)
    return json.dumps(doc)


MAP_ID = st.sampled_from(["L", "e1", "X"])
GARBLED_MAP = st.one_of(JSON_VALUE, st.dictionaries(
    MAP_ID, st.one_of(JSON_VALUE, st.dictionaries(MAP_ID, JSON_VALUE,
                                                  max_size=2)),
    max_size=3))


@given(garbled(), GARBLED_MAP)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_garbled_input_never_raises(tmp_path, capsys, text, mapping):
    path = tmp_path / "garbled.json"
    path.write_text(text)
    for cmd in ("verify", "simplicity"):
        assert main([cmd, str(path)]) in (0, 1, 2, 3)
    seed = tmp_path / "k1.json"
    seed.write_text(SEEDS["K1"])
    mp = tmp_path / "map.json"
    mp.write_text(json.dumps(mapping))
    assert main(["isocheck", str(seed), str(seed), "--map", str(mp)]) \
        in (0, 1, 2)
    capsys.readouterr()
