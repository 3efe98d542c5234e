"""Spans around the public calls into each confsalg module.

The tracer wraps names from the table below in place, for the life of one
pass process, and changes no code in the package.  A name is rebound in its
own module and in every confsalg module that imported it, so calls made
inside the package go through the wrapper too.  Scalar arithmetic is not
wrapped: it runs millions of times per pass, so its cost stays with the
caller's self time and is measured by the scalar microbenchmarks instead.

Every call updates per-name aggregates (calls, self time, inclusive time of
outermost calls per group, time by parent).  Calls to names marked `keep`
in the table, which are called rarely, are also kept as individual spans in
memory and written out when the pass ends.  A layer's self time is its
spans' durations minus the part covered by child spans.
"""
from __future__ import annotations

import importlib
import inspect
import time

# module -> [(qualified name, group, keep)]
# A group is what a metric is read from: its time is the inclusive time of
# calls not nested inside another call of the same group.
TARGETS = {
    "scalars": [("parse", "scalars.parse", False)],
    "linalg": [
        ("rref", "linalg.rref", False),
        ("rank", "linalg.rank", False),
        ("kernel", "linalg.kernel", False),
        ("linsolve", "linalg.linsolve", False),
        ("charpoly", "linalg.charpoly", True),
        ("Subspace.add", "linalg.subspace", False),
        ("Subspace.coords", "linalg.subspace", False),
        ("Subspace.contains", "linalg.subspace", False),
    ],
    "clifford": [
        ("Clifford.word_mul", "clifford.word_mul", False),
        ("Clifford.mul", "clifford.mul", False),
        ("Clifford.left_ideal", "clifford.left_ideal", True),
        ("Clifford.module_decompose", "clifford.module_decompose", True),
        ("CliffordQuotient.reduce", "clifford.quotient", False),
        ("CliffordQuotient.lmul", "clifford.quotient", False),
        ("spinor_rep", "clifford.spinor_rep", False),
    ],
    "algebra": [
        ("coeff_G", "algebra.coeff_G", False),
        ("coeff_F", "algebra.coeff_F", False),
        ("ReducedAlgebra.max_n", "algebra.max_n", False),
        ("ReducedAlgebra.from_json", "algebra.from_json", True),
        ("ReducedAlgebra.to_json", "algebra.to_json", True),
        ("check_well_formed", "algebra.well_formed", True),
        ("check_P_axioms", "algebra.P", True),
        ("check_H_axioms", "algebra.H", True),
        ("is_simple", "algebra.simple", True),
        ("is_simple_physical", "algebra.simple", True),
        ("ideal_closure", "algebra.ideal_closure", False),
        ("form_V_wedge_V", "algebra.forms", True),
        ("form_V3", "algebra.forms", True),
    ],
    "construct": [
        ("build_from_spec", "construct.build", True),
        ("build_f_extension", "construct.build", True),
        ("exclusion_sweep", "construct.sweep", True),
    ],
    "reconstruct": [
        ("reconstruct", "reconstruct.reconstruct", True),
        ("check_C_axioms", "reconstruct.C", True),
        ("change_conformal_vector", "reconstruct.change_conformal", True),
        ("ReconstructedAlgebra.full_product", "reconstruct.full_product",
         False),
        ("ReconstructedAlgebra.basis_product", "reconstruct.basis_product",
         False),
    ],
    "catalog": [
        ("build", "catalog.build", True),
        ("invariant_signature", "catalog.invariants", True),
        ("triple_form_condition", "catalog.invariants", True),
        ("swap_map", "catalog.iso", True),
        ("extend_v_map", "catalog.iso", True),
        ("iso_check", "catalog.iso", True),
    ],
    "cli": [
        ("main", "cli.main", True),
        ("cmd_build", "cli.cmd", True),
        ("cmd_verify", "cli.cmd", True),
        ("cmd_simplicity", "cli.cmd", True),
        ("cmd_exclude", "cli.cmd", True),
        ("cmd_invariants", "cli.cmd", True),
    ],
}

MODULES = tuple(TARGETS)

# groups whose return value is a Report: its `checked` and `ok` are recorded
REPORT_GROUPS = ("algebra.P", "algebra.H", "reconstruct.C")


class Tracer:
    """Collects spans for one pass.  Not thread-safe: a pass is one thread."""

    def __init__(self):
        self.calls = {}       # key -> number of calls
        self.self_s = {}      # key -> self time
        self.group_s = {}     # group -> inclusive time of outermost calls
        self.by_parent = {}   # key -> {parent key or "": inclusive time}
        self.checked = {}     # group -> sum of Report.checked
        self.reject_s = {}    # group -> time of outermost calls not ok
        self.spans = []       # (key, parent key, start, end)
        self.missing = []     # names in TARGETS the package lacks
        self._stack = []      # open frames: [key, start, child time]
        self._depth = {}      # group -> open calls
        self._undo = []

    # -- installing ---------------------------------------------------------

    def install(self):
        mods = {name: importlib.import_module("confsalg." + name)
                for name in MODULES}
        for modname, entries in TARGETS.items():
            mod = mods[modname]
            for qual, group, keep in entries:
                owner, attr = _resolve(mod, qual)
                if owner is None:
                    self.missing.append("%s.%s" % (modname, qual))
                    continue
                raw = inspect.getattr_static(owner, attr)
                key = "%s.%s" % (modname, qual)
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(
                        self._wrap(key, group, raw.__func__, keep))
                else:
                    wrapped = self._wrap(key, group, raw, keep)
                self._rebind(owner, attr, raw, wrapped)
                if owner is mod:
                    for other in mods.values():
                        if other is not mod:
                            for k, v in list(vars(other).items()):
                                if v is raw:
                                    self._rebind(other, k, raw, wrapped)

    def _rebind(self, owner, attr, old, new):
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def uninstall(self):
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    def _wrap(self, key, group, fn, keep):
        stack, depth = self._stack, self._depth
        calls, self_s, group_s = self.calls, self.self_s, self.group_s
        by_parent, spans = self.by_parent, self.spans
        report = group in REPORT_GROUPS
        checked, reject_s = self.checked, self.reject_s
        clock = time.perf_counter
        calls[key] = 0
        self_s[key] = 0.0
        group_s.setdefault(group, 0.0)

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else ""
            outer = not depth.get(group)
            depth[group] = depth.get(group, 0) + 1
            frame = [key, clock(), 0.0]
            stack.append(frame)
            ok = True
            try:
                result = fn(*args, **kwargs)
                if report:
                    checked[group] = checked.get(group, 0) + result.checked
                    ok = result.ok
                return result
            finally:
                end = clock()
                stack.pop()
                depth[group] -= 1
                dur = end - frame[1]
                calls[key] += 1
                self_s[key] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if outer:
                    group_s[group] += dur
                    if report and not ok:
                        reject_s[group] = reject_s.get(group, 0.0) + dur
                per = by_parent.setdefault(key, {})
                per[parent] = per.get(parent, 0.0) + dur
                if keep:
                    spans.append((key, parent, frame[1], end))

        return traced

    # -- reading ------------------------------------------------------------

    def summary(self) -> dict:
        """Aggregates as plain JSON-ready data."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "group_s": dict(self.group_s),
            "by_parent": self.by_parent,
            "checked": dict(self.checked),
            "reject_s": dict(self.reject_s),
            "missing": list(self.missing),
        }

    def span_records(self, origin: float) -> list:
        return [[k, p, round(s - origin, 6), round(e - origin, 6)]
                for k, p, s, e in self.spans]


def _resolve(mod, qual):
    parts = qual.split(".")
    owner = mod
    for p in parts[:-1]:
        owner = getattr(owner, p, None)
        if owner is None:
            return None, None
    if not hasattr(owner, parts[-1]):
        return None, None
    return owner, parts[-1]


def layer_metrics(summary: dict, pass_s: float) -> dict:
    """Per-layer metrics of one traced pass, from Tracer.summary()."""
    calls, self_s = summary["calls"], summary["self_s"]
    group_s, checked = summary["group_s"], summary["checked"]
    by_parent = summary["by_parent"]

    def module_self(mod):
        return sum(v for k, v in self_s.items() if k.startswith(mod + "."))

    def parent_time(key, parent_prefix):
        return sum(v for parent, v in by_parent.get(key, {}).items()
                   if parent.startswith(parent_prefix))

    validate = sum(parent_time("algebra." + k, "construct.build_from_spec")
                   for k in ("check_P_axioms", "check_H_axioms"))
    out = {
        "linalg.calls": sum(v for k, v in calls.items()
                            if k.startswith("linalg.")),
        "construct.build_self_s": group_s.get("construct.build", 0.0)
        - validate,
        "construct.validate_s": validate,
        "construct.sweep_s": group_s.get("construct.sweep", 0.0),
        "algebra.P_s": group_s.get("algebra.P", 0.0),
        "algebra.P_checked": checked.get("algebra.P", 0),
        "algebra.P_reject_s": summary["reject_s"].get("algebra.P", 0.0),
        "algebra.H_s": group_s.get("algebra.H", 0.0),
        "algebra.H_checked": checked.get("algebra.H", 0),
        "algebra.simple_s": group_s.get("algebra.simple", 0.0),
        "algebra.max_n_calls": calls.get("algebra.ReducedAlgebra.max_n", 0),
        "reconstruct.C_s": group_s.get("reconstruct.C", 0.0),
        "reconstruct.C_checked": checked.get("reconstruct.C", 0),
        "reconstruct.full_product_calls":
            calls.get("reconstruct.ReconstructedAlgebra.full_product", 0),
        "reconstruct.full_product_self_s":
            self_s.get("reconstruct.ReconstructedAlgebra.full_product", 0.0),
        "reconstruct.basis_product_calls":
            calls.get("reconstruct.ReconstructedAlgebra.basis_product", 0),
        "catalog.build_s": group_s.get("catalog.build", 0.0),
        "catalog.invariants_s": group_s.get("catalog.invariants", 0.0),
        "catalog.iso_s": group_s.get("catalog.iso", 0.0),
        "cli.json_load_s": parent_time("algebra.ReducedAlgebra.from_json",
                                       "cli."),
    }
    attributed = 0.0
    for mod in MODULES:
        s = module_self(mod)
        out["%s.self_s" % mod] = s
        attributed += s
    out["trace.outside_s"] = pass_s - attributed
    return out
