"""Command-line front end.

Subcommands: catalog, build, verify, invariants, simplicity, isocheck,
exclude.  All scalar output uses the exact literal grammar; weights are
serialized as fraction strings.  Exit codes: 0 success, 1 check failure,
2 input error, 3 solver inconsistency.
"""
from __future__ import annotations

import argparse
import json
import sys

from .scalars import parse as parse_scalar
from .algebra import (ReducedAlgebra, check_bounds, check_P_axioms,
                      check_H_axioms, is_simple, is_physical_shape)
from .construct import (InconsistentSpec, UnderdeterminedSpec,
                        exclusion_sweep)
from . import catalog

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_INPUT = 2
EXIT_SOLVER = 3


class CliError(Exception):
    def __init__(self, code, msg):
        super().__init__(msg)
        self.code = code


def _load_algebra(path: str) -> ReducedAlgebra:
    try:
        with open(path) as fh:
            return ReducedAlgebra.from_json(fh.read())
    except OSError as exc:
        raise CliError(EXIT_INPUT, "cannot read %s: %s" % (path, exc))
    except (ValueError, KeyError, TypeError, ArithmeticError,
            RecursionError) as exc:
        raise CliError(EXIT_INPUT, "cannot parse %s: %s" % (path, exc))


def _emit(doc, text_lines, fmt):
    if fmt == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def cmd_catalog(args) -> int:
    for name in catalog.NAMES:
        print(name)
    return EXIT_OK


def cmd_build(args) -> int:
    try:
        R = catalog.build(args.name, args.alpha)
    except catalog.UnknownName as exc:
        raise CliError(EXIT_INPUT, str(exc))
    except catalog.InvalidParams as exc:
        raise CliError(EXIT_INPUT, str(exc))
    except (InconsistentSpec, UnderdeterminedSpec) as exc:
        raise CliError(EXIT_SOLVER, str(exc))
    text = R.to_json()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        check_bounds({"--" + flag: getattr(args, flag)
                      for flag in ("mmax", "nmax", "dmax")})
    except ValueError as exc:
        raise CliError(EXIT_INPUT, str(exc))
    R = _load_algebra(args.path)
    axioms = [a.strip().upper() for a in args.axioms.split(",") if a.strip()]
    bad = [a for a in axioms if a not in ("P", "H", "C")]
    if bad or not axioms:
        raise CliError(EXIT_INPUT, "axioms must be a subset of P,H,C")
    reports = {}
    for a in axioms:
        if a == "P":
            reports["P"] = check_P_axioms(R, args.mmax, args.nmax)
        elif a == "H":
            if not is_physical_shape(R):
                raise CliError(EXIT_INPUT,
                               "H axioms need a physical algebra")
            reports["H"] = check_H_axioms(R)
        else:
            from .reconstruct import check_C_axioms
            reports["C"] = check_C_axioms(R, args.mmax, args.nmax,
                                          args.dmax)
    ok = all(r.ok for r in reports.values())
    doc = {a: {"ok": r.ok, "checked": r.checked, "failures": r.failures}
           for a, r in reports.items()}
    _emit(doc, ["%s: %s" % (a, r.summary()) for a, r in reports.items()],
          args.format)
    return EXIT_OK if ok else EXIT_CHECK


def cmd_invariants(args) -> int:
    R = _load_algebra(args.path)
    try:
        sig = catalog.invariant_signature(R)
    except ValueError as exc:
        # e.g. a weight-3/2 bullet product outside span(L)
        raise CliError(EXIT_INPUT, "cannot analyse %s: %s" % (args.path, exc))
    lines = ["dims: " + " ".join("%s:%d" % (w, n)
                                 for w, n in sig["dims"].items()),
             "charpoly: %s" % (sig["charpoly"] or "-"),
             "simple: %s" % ("true" if sig["simple"] else "false")]
    _emit(sig, lines, args.format)
    return EXIT_OK


def _el_str(el: dict) -> str:
    return " + ".join("(%s)*%s" % (c, k) for k, c in sorted(el.items()))


def cmd_simplicity(args) -> int:
    R = _load_algebra(args.path)
    try:
        res = is_simple(R)
        cond = catalog.triple_form_condition(R)
    except ValueError as exc:
        raise CliError(EXIT_INPUT, "cannot analyse %s: %s" % (args.path, exc))
    doc = {"simple": res.simple, "reason": res.reason}
    lines = []
    if res.simple:
        lines.append("simple")
    elif res.reason.startswith("triple-annihilated"):
        lines.append("not simple; witness ideal generator in F³: %s"
                     % _el_str(res.witness))
    else:
        lines.append("not simple; %s" % res.reason)
        if res.witness:
            lines.append("witness: %s" % _el_str(res.witness))
    if res.witness:
        doc["witness"] = {k: str(c) for k, c in res.witness.items()}
    if cond is not None:
        doc["nondegeneracy_condition"] = str(cond)
        lines.append("triple pairing nondegenerate iff %s != 0" % cond)
    _emit(doc, lines, args.format)
    return EXIT_OK if res.simple else EXIT_CHECK


def cmd_isocheck(args) -> int:
    R1 = _load_algebra(args.patha)
    R2 = _load_algebra(args.pathb)
    try:
        with open(args.map) as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:
        raise CliError(EXIT_INPUT, "cannot read map file: %s" % exc)
    if not isinstance(raw, dict):
        raise CliError(EXIT_INPUT, "map file must be an object")
    try:
        f = {src: {dst: parse_scalar(c) for dst, c in img.items()}
             for src, img in raw.items()}
    except (ValueError, AttributeError) as exc:
        raise CliError(EXIT_INPUT, "bad map entry: %s" % exc)
    ok = catalog.iso_check(R1, R2, f)
    _emit({"isomorphism": ok},
          ["isomorphism verified" if ok else "not an isomorphism"],
          args.format)
    return EXIT_OK if ok else EXIT_CHECK


def cmd_exclude(args) -> int:
    try:
        rep = exclusion_sweep(args.dimv)
    except ValueError as exc:
        raise CliError(EXIT_INPUT, str(exc))
    except (InconsistentSpec, UnderdeterminedSpec) as exc:
        raise CliError(EXIT_SOLVER, str(exc))
    doc = {"dimv": rep.dimv, "unknowns": rep.unknowns,
           "satisfiable": rep.satisfiable,
           "solutions": [[str(v) for v in sol] for sol in rep.solutions],
           "verdicts": {",".join(str(v) for v in sol): verdict
                        for sol, verdict in rep.verdicts.items()},
           "notes": rep.notes}
    lines = ["dim V = %d, unknowns: %s" % (rep.dimv,
                                           " ".join(rep.unknowns))]
    if not rep.satisfiable:
        lines += rep.notes
    else:
        lines.append("%d solution(s)" % len(rep.solutions))
        for sol in rep.solutions:
            lines.append("  (%s): %s"
                         % (", ".join(str(v) for v in sol),
                            rep.verdicts.get(sol, "")))
        lines += rep.notes
    _emit(doc, lines, args.format)
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="confsalg",
        description="exact computer algebra for physical conformal "
                    "superalgebras")
    sub = p.add_subparsers(dest="cmd", required=True)

    def add_format(sp):
        sp.add_argument("--format", choices=("text", "json"),
                        default="text")

    sp = sub.add_parser("catalog", help="list catalog algebra names")
    sp.set_defaults(func=cmd_catalog)

    sp = sub.add_parser("build", help="build a catalog algebra as JSON")
    sp.add_argument("name")
    sp.add_argument("--alpha", default=None,
                    help="parameter for N4alpha, exact scalar literal")
    sp.add_argument("-o", "--output", default=None)
    sp.set_defaults(func=cmd_build)

    sp = sub.add_parser("verify", help="check axioms of an algebra file")
    sp.add_argument("path")
    sp.add_argument("--axioms", default="P,H")
    sp.add_argument("--mmax", type=int, default=4)
    sp.add_argument("--nmax", type=int, default=4)
    sp.add_argument("--dmax", type=int, default=4)
    add_format(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("invariants", help="invariant signature")
    sp.add_argument("path")
    add_format(sp)
    sp.set_defaults(func=cmd_invariants)

    sp = sub.add_parser("simplicity", help="simplicity test")
    sp.add_argument("path")
    add_format(sp)
    sp.set_defaults(func=cmd_simplicity)

    sp = sub.add_parser("isocheck", help="verify a basis map is an "
                                         "isomorphism")
    sp.add_argument("patha")
    sp.add_argument("pathb")
    sp.add_argument("--map", required=True,
                    help="JSON file {src: {dst: coeff}}")
    add_format(sp)
    sp.set_defaults(func=cmd_isocheck)

    sp = sub.add_parser("exclude", help="finite case sweep for a "
                                        "supercharge dimension")
    sp.add_argument("--dimv", type=int, required=True)
    add_format(sp)
    sp.set_defaults(func=cmd_exclude)
    return p


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
