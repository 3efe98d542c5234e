"""The three workloads, as one cold pass each, checked against oracle.py.

A pass calls the package only through its public API, as a user script or
the confsalg command line would.  Each pass is divided into groups of
verdicts; a group that raises counts every verdict it had left as failed.

ck6       CK6 built from its spec, checked against its golden file, then
          P(1,0), H, C(2,1,1) and is_simple_physical.  The headline case;
          C's d_max of 1 feeds reconstruct.full_product d-shifted inputs.
          Its input is fixed; the seed is unused.
family    the symbolic N4alpha(a) and N4alpha(-a): P(2,2), H and C(1,1,1)
          on coefficients that are polynomials in a, the invariant form's
          characteristic polynomial, the triple-pairing condition and the
          swap isomorphism; then N4alpha at a seeded rational alpha and at
          alpha = 1 and -1, judged by is_simple_physical; then all single
          sign flips of N4alpha(0), each of which both H and P(2,2) must
          reject.
classify  Vir, K1, K2, K3, S2 and W2 through confsalg.cli.main in process
          (build -o, verify --axioms P,H, simplicity, all with --format
          json), W2's output against its golden file, and the exclusion
          sweeps for dim V = 5..8.  The seed orders the algebras and the
          sweeps.  N4 is left out: its build moves the conformal vector
          through reconstruct.full_product, and classify is the workload
          that never reaches reconstruct.

The bounds of P, H and C are lower than the full P(4,4) and C(4,4,4) so
that a pass lasts seconds, not minutes.  perfbench/README.md gives the
measured share of each step and layer in a pass of each workload.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import time
from fractions import Fraction

import oracle
from confsalg import catalog, cli
from confsalg.algebra import (check_H_axioms, check_P_axioms,
                              form_V_wedge_V, is_simple_physical)
from confsalg.construct import BuilderSpec, build_from_spec
from confsalg.linalg import charpoly
from confsalg.reconstruct import check_C_axioms, reconstruct
from confsalg.scalars import ZERO, Scalar

class Pass:
    """Verdicts, step times and work counts of one pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.steps = []          # [algebra, step, seconds]
        self.checked = {}        # "P" / "H" / "C" -> sum of Report.checked
        self._left = 0

    def verdict(self, label: str, ok: bool) -> None:
        self.attempted += 1
        self._left -= 1
        if not ok:
            self.failed += 1
            self.errors.append(label)

    @contextlib.contextmanager
    def group(self, label: str, verdicts: int):
        """A run of `verdicts` verdicts; if it raises, the rest fail."""
        self._left = verdicts
        try:
            yield
        except Exception as exc:  # a raising verdict is a wrong verdict
            self.errors.append("%s raised %s: %s"
                               % (label, type(exc).__name__, exc))
        if self._left > 0:
            self.attempted += self._left
            self.failed += self._left
        self._left = 0

    @contextlib.contextmanager
    def step(self, algebra: str, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.steps.append([algebra, name, time.perf_counter() - t0])

    def report(self, axiom: str, rep) -> bool:
        self.checked[axiom] = self.checked.get(axiom, 0) + rep.checked
        return rep.ok


def _dims_ok(R, name: str) -> bool:
    return R.weight_dims() == oracle.weight_dims(name)


def _golden_ok(name: str, text: str) -> bool:
    with open(catalog.golden_path(name), "rb") as fh:
        golden = fh.read()
    data = text.encode()
    return data == golden and \
        hashlib.sha256(data).hexdigest() == oracle.GOLDEN_SHA256[name]


# -- ck6 ---------------------------------------------------------------------


def run_ck6(p: Pass, seed: int, workdir: str) -> None:
    with p.group("CK6", 6):
        zeros = [[ZERO] * 3 for _ in range(3)]
        spec = BuilderSpec.from_alpha(3, False, zeros,
                                      kernel_words=oracle.CK6_KERNEL_WORDS)
        with p.step("CK6", "build"):
            R = build_from_spec(spec, validate=False)
        p.verdict("CK6 weight dims", _dims_ok(R, "CK6"))
        with p.step("CK6", "golden"):
            p.verdict("CK6 golden file", _golden_ok("CK6", R.to_json()))
        with p.step("CK6", "P(1,0)"):
            p.verdict("CK6 P", p.report("P", check_P_axioms(R, 1, 0)))
        with p.step("CK6", "H"):
            p.verdict("CK6 H", p.report("H", check_H_axioms(R)))
        with p.step("CK6", "C(2,1,1)"):
            rep = check_C_axioms(reconstruct(R), 2, 1, 1)
            p.verdict("CK6 C", p.report("C", rep))
        with p.step("CK6", "simple"):
            p.verdict("CK6 simple", is_simple_physical(R).simple)


# -- family ------------------------------------------------------------------


def seeded_alpha(seed: int) -> Fraction:
    """A rational alpha other than 0, 1 and -1, drawn from the seed.  The
    pass builds those three anyway, and the catalog would serve a repeat
    from its cache, so every seed costs the same number of builds."""
    rng = random.Random(seed)
    while True:
        alpha = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if alpha * alpha not in (0, 1):
            return alpha


def _symbolic_ok(values, want) -> bool:
    """values: Scalars in a; want(a) -> ints, compared at sample points."""
    for a in oracle.SAMPLE_POINTS:
        at = Scalar.from_int(a)
        if [str(v.subs(at)) for v in values] != [str(w) for w in want(a)]:
            return False
    return True


def run_family(p: Pass, seed: int, workdir: str) -> None:
    with p.group("N4alpha(a)", 8):
        with p.step("N4alpha", "build"):
            A = catalog.build("N4alpha", "a")
        p.verdict("N4alpha(a) weight dims", _dims_ok(A, "N4alpha"))
        with p.step("N4alpha", "build -a"):
            Am = catalog.build("N4alpha", "-a")
        p.verdict("N4alpha(-a) weight dims", _dims_ok(Am, "N4alpha"))
        with p.step("N4alpha", "P(2,2)"):
            p.verdict("N4alpha(a) P", p.report("P", check_P_axioms(A, 2, 2)))
        with p.step("N4alpha", "H"):
            p.verdict("N4alpha(a) H", p.report("H", check_H_axioms(A)))
        with p.step("N4alpha", "C(1,1,1)"):
            rep = check_C_axioms(reconstruct(A), 1, 1, 1)
            p.verdict("N4alpha(a) C", p.report("C", rep))
        with p.step("N4alpha", "invariants"):
            cp = charpoly(form_V_wedge_V(A))
            p.verdict("N4alpha(a) charpoly",
                      _symbolic_ok(cp, oracle.charpoly_at))
            cond = catalog.triple_form_condition(A)
            p.verdict("N4alpha(a) triple condition", cond is not None and any(
                _symbolic_ok([cond], lambda a: [
                    oracle.triple_condition_at(a, sign)]) for sign in (1, -1)))
        with p.step("N4alpha", "swap iso"):
            f = catalog.swap_map(A, Am)
            p.verdict("N4alpha swap isomorphism",
                      f is not None and catalog.iso_check(A, Am, f))

    for alpha in (seeded_alpha(seed), Fraction(1), Fraction(-1)):
        label = "N4alpha(%s)" % alpha
        with p.group(label, 1):
            with p.step("N4alpha", "build alpha"):
                R = catalog.build("N4alpha", str(alpha))
            with p.step("N4alpha", "simple alpha"):
                p.verdict(label + " simple iff alpha^2 != 1",
                          is_simple_physical(R).simple
                          == oracle.n4alpha_simple(alpha))

    with p.group("N4alpha(0) mutants", 2 * oracle.N4ALPHA0_MUTANTS + 1):
        with p.step("N4alpha", "build alpha"):
            R0 = catalog.build("N4alpha", 0)
        with p.step("N4alpha", "mutants"):
            n = 0
            for label, M in R0.sign_mutations():
                n += 1
                h = p.report("H", check_H_axioms(M, max_failures=1))
                p.verdict("mutant %s rejected by H" % label, not h)
                ok = p.report("P", check_P_axioms(M, 2, 2, max_failures=1))
                p.verdict("mutant %s rejected by P(2,2)" % label, not ok)
        p.verdict("N4alpha(0) mutant count", n == oracle.N4ALPHA0_MUTANTS)


# -- classify ----------------------------------------------------------------


CLASSIFY_NAMES = ("Vir", "K1", "K2", "K3", "S2", "W2")


def _cli(argv):
    """Run the command line in process: (exit code, parsed JSON or None)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    text = out.getvalue()
    return code, (json.loads(text) if text.strip() else None)


def _file_dims(path: str) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    dims = {}
    for b in doc["basis"]:
        w = Fraction(b["weight"])
        dims[w] = dims.get(w, 0) + 1
    return dims


def run_classify(p: Pass, seed: int, workdir: str) -> None:
    rng = random.Random(seed)
    names = list(CLASSIFY_NAMES)
    rng.shuffle(names)
    for name in names:
        path = os.path.join(workdir, "%s.json" % name.lower())
        with p.group(name, 8 if name == "W2" else 7):
            with p.step(name, "build"):
                code, _ = _cli(["build", name, "-o", path])
            p.verdict(name + " build exit", code == oracle.CLI_EXIT["build"])
            p.verdict(name + " weight dims",
                      _file_dims(path) == oracle.weight_dims(name))
            if name == "W2":
                with p.step(name, "golden"), open(path) as fh:
                    p.verdict("W2 golden file", _golden_ok("W2", fh.read()))
            with p.step(name, "verify P(4,4),H"):
                code, doc = _cli(["verify", path, "--axioms", "P,H",
                                  "--format", "json"])
            p.verdict(name + " verify exit", code == oracle.CLI_EXIT["verify"])
            for ax in ("P", "H"):
                p.checked[ax] = p.checked.get(ax, 0) + doc[ax]["checked"]
                p.verdict("%s %s" % (name, ax), doc[ax]["ok"] is True)
            with p.step(name, "simplicity"):
                code, doc = _cli(["simplicity", path, "--format", "json"])
            p.verdict(name + " simplicity exit",
                      code == oracle.CLI_EXIT["simplicity"])
            p.verdict(name + " simple", doc["simple"] is True)

    dims = sorted(oracle.SWEEP_SOLUTIONS)
    rng.shuffle(dims)
    for d in dims:
        label = "exclude %d" % d
        with p.group(label, 3):
            with p.step("sweep", "dimv %d" % d):
                code, doc = _cli(["exclude", "--dimv", str(d),
                                  "--format", "json"])
            p.verdict(label + " exit", code == oracle.CLI_EXIT["exclude"])
            want = oracle.SWEEP_SOLUTIONS[d]
            if want is None:
                p.verdict(label + " UNSAT", doc["satisfiable"] is False
                          and doc["solutions"] == [])
                p.verdict(label + " reason", any("2 and -2" in n
                                                 for n in doc["notes"]))
                continue
            sols = sorted(tuple(int(Fraction(v)) for v in s)
                          for s in doc["solutions"])
            p.verdict(label + " solutions",
                      doc["satisfiable"] is True and sols == want)
            verdicts = {tuple(int(Fraction(v)) for v in k.split(",")): v
                        for k, v in doc["verdicts"].items()}
            p.verdict(label + " verdicts", sorted(verdicts) == want and all(
                oracle.sweep_verdict_word(d, s) in verdicts[s] for s in want))


RUNNERS = {"ck6": run_ck6, "family": run_family, "classify": run_classify}
