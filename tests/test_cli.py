"""End-to-end runs of the command-line front end."""
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from confsalg.cli import main
from confsalg import catalog


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

    bad = tmp_path / "badmap.json"
    bad.write_text(json.dumps({"L": {"L": "1"}}))
    code, out, _ = run(capsys, "isocheck", str(pa), str(pb),
                       "--map", str(bad))
    assert code == 1 and "not an isomorphism" in out
    assert run(capsys, "isocheck", str(pa), str(pb),
               "--map", str(tmp_path / "none.json"))[0] == 2


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


@pytest.mark.parametrize("mutate", [
    lambda d: d["products"].append(
        {"n": 0, "a": "L", "b": "X", "terms": [{"coeff": "1", "basis": "L"}]}),
    lambda d: d["products"][0]["terms"].append({"coeff": "1", "basis": "X"}),
    lambda d: d["products"][0].update(n=-1),
    lambda d: d["products"][0].update(n=10 ** 300),
    lambda d: d["basis"][0].update(parity=2),
    lambda d: d["basis"][0].update(weight="2/0"),
    lambda d: d["basis"][0].update(weight=float("inf")),
    lambda d: '{"basis": ' + "[" * 100000 + "]" * 100000 + "}",
    lambda d: d["products"].append(json.loads(json.dumps(d["products"][0]))),
    lambda d: d["products"][0]["terms"].append(
        {"coeff": "3", "basis": d["products"][0]["terms"][0]["basis"]}),
], ids=["unknown-key", "unknown-term", "negative-n", "huge-n", "parity",
        "zero-denominator", "infinite-weight", "deep-nesting",
        "duplicate-key", "duplicate-term"])
def test_malformed_tables_are_input_errors(tmp_path, capsys, mutate):
    doc = _vir_doc()
    path = tmp_path / "bad.json"
    path.write_text(mutate(doc) or json.dumps(doc))
    for cmd in ("verify", "simplicity"):
        code, out, err = run(capsys, cmd, str(path))
        assert code == 2, (cmd, out)
        assert err.startswith("error: cannot parse")


def _off_span_doc():
    """L; u, v of weight 3/2; x of weight 1; with the L-rows,
    <u 1 v> = <v 1 u> = x and <u 0 v> = L + x, which leaves span(L)."""
    weights = {"L": "2", "u": "3/2", "v": "3/2", "x": "1"}
    prods = []
    for b, w in weights.items():
        prods.append({"n": 1, "a": "L", "b": b,
                      "terms": [{"coeff": w, "basis": b}]})
        if b != "L":
            prods.append({"n": 1, "a": b, "b": "L",
                          "terms": [{"coeff": w, "basis": b}]})
    prods += [{"n": 1, "a": "u", "b": "v",
               "terms": [{"coeff": "1", "basis": "x"}]},
              {"n": 1, "a": "v", "b": "u",
               "terms": [{"coeff": "1", "basis": "x"}]},
              {"n": 0, "a": "u", "b": "v",
               "terms": [{"coeff": "1", "basis": "L"},
                         {"coeff": "1", "basis": "x"}]}]
    return {"basis": [{"id": b, "weight": w, "parity": 1 if "/" in w else 0}
                      for b, w in weights.items()],
            "L": "L", "products": prods}


@pytest.mark.parametrize("cmd", ["simplicity", "invariants"])
def test_bullet_product_outside_span_L_is_an_input_error(tmp_path, capsys,
                                                          cmd):
    path = tmp_path / "offspan.json"
    path.write_text(json.dumps(_off_span_doc()))
    code, out, err = run(capsys, cmd, str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot analyse %s: element not "
                          "proportional to L" % path)


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


@given(garbled())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_garbled_input_never_raises(tmp_path, capsys, text):
    path = tmp_path / "garbled.json"
    path.write_text(text)
    for cmd in ("verify", "simplicity"):
        assert main([cmd, str(path)]) in (0, 1, 2, 3)
    capsys.readouterr()
