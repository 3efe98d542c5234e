"""Cold-pass benchmark for confsalg.

    python3 perfbench/run.py --workload ck6|family|classify --seed N
        --seconds S --trace 0|1

Run from the root of a source checkout.  Each pass is a fresh interpreter
(perfbench/worker.py), so it starts with cold catalog and lru caches, as a
command-line invocation does.  One client, one pass at a time, no worker
threads: a closed loop that keeps starting passes until S seconds have gone
and at least MIN_PASSES have run.  Every verdict of every pass is checked
against the known answers in perfbench/oracle.py.

--trace 0 prints the end-to-end metrics:
  pass_s            median wall time of a completed pass, spawn to exit,
                    rescaled to a fixed machine speed by perfbench/speed.py's
                    reference loop, sampled during the pass.  The raw median
                    is printed as pass_wall_s.
  setup_s           median time from spawn until the package's modules are
                    imported, over SETUP_SPAWNS import-only spawns and every
                    pass, rescaled by SPEED_SAMPLES reference loops timed
                    just before each spawn.
  peak_rss_mb       median peak resident memory of a pass.
  verdict_ok_share  1 - error_rate: the share of verdicts and exit codes
                    that match the known answer and did not raise.

--trace 1 alternates untraced and traced passes, at least MIN_PASSES of
each, and prints the per-layer metrics: medians over the traced passes of the spans perfbench/tracing.py
records, with times rescaled as pass_s, the scalar microbenchmarks of
perfbench/micro.py, and trace.overhead_s, the median traced pass_s minus
the median untraced pass_s.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A full record of the run, with the
environment, every pass, the per-step times, work counts and (traced) the
spans, is written to .bench_out/ in the checkout.  Work counts must repeat
exactly between passes and between runs of the same source and seed; any
count that differs is flagged on standard error and in the record.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from statistics import median

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(HERE, "worker.py")

MIN_PASSES = 2
SPEED_SAMPLES = 20    # reference loops timed before each spawn
SETUP_SPAWNS = 10
DEADLINE_S = 165      # a run must end within 180 s


class BenchError(Exception):
    pass


class Spec:
    """Workload and metric names, with units, from BENCHMARK.json."""

    def __init__(self, path: str):
        with open(path) as fh:
            doc = json.load(fh)
        self.workloads = [w["name"] for w in doc["workloads"]]
        self.end_to_end = [m["name"] for m in doc["end_to_end"]]
        self.per_layer = [m["name"] for m in doc["per_layer"]]
        self.units = {m["name"]: m["unit"]
                      for m in doc["end_to_end"] + doc["per_layer"]}


def source_hash() -> str:
    """Hash of the package and of the benchmark: the code whose work
    counts must repeat."""
    h = hashlib.sha256()
    for top in (os.path.join(SRC, "confsalg"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


class Runner:
    def __init__(self, seed: int, start: float):
        self.seed = seed
        self.start = start
        self.tmp = os.path.join(OUT, "tmp-%d" % os.getpid())
        self.workdir = os.path.join(self.tmp, "work")
        os.makedirs(self.workdir, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        # string hashing, and so set order, is fixed by the seed
        self.env["PYTHONHASHSEED"] = str(seed % 4294967296)
        self.spawns = 0

    def spawn(self, mode: str, *args) -> tuple:
        """(wall seconds, result dict or None, error text)."""
        self.spawns += 1
        out = os.path.join(self.tmp, "r%d.json" % self.spawns)
        budget = DEADLINE_S - (time.monotonic() - self.start)
        if budget <= 1:
            raise BenchError("out of time before a %s spawn" % mode)
        before = [speed.sample() for _ in range(SPEED_SAMPLES)]
        t0 = time.monotonic()
        try:
            res = subprocess.run(
                [sys.executable, WORKER, mode, repr(t0), out] + list(args),
                cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=budget)
        except subprocess.TimeoutExpired:
            return time.monotonic() - t0, None, "timed out"
        wall = time.monotonic() - t0
        if res.returncode != 0 or not os.path.exists(out):
            return wall, None, res.stderr.strip()[-2000:]
        with open(out) as fh:
            data = json.load(fh)
        os.remove(out)
        data["setup_s"] = speed.scale(data["setup_s"], before)
        return wall, data, ""

    def pass_(self, workload: str, trace: bool) -> dict:
        wall, data, err = self.spawn("pass", workload, str(self.seed),
                                     "1" if trace else "0", self.workdir)
        if data is None:
            return {"wall_s": wall, "scaled_s": wall, "crashed": err}
        data["wall_s"] = wall
        samples = data["speed_samples_s"]
        data["scaled_s"] = speed.scale(wall - sum(samples), samples)
        return data

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


def completed(passes: list) -> list:
    """The passes that ran to the end; it is an error if none did."""
    ok = [p for p in passes if "crashed" not in p]
    if not ok:
        raise BenchError("every pass crashed; the last said: %s"
                         % passes[-1]["crashed"])
    return ok


def tally(passes: list) -> tuple:
    """(attempted, failed, error lines) over passes; a crashed pass fails
    as many verdicts as a completed one attempted."""
    done = [p["attempted"] for p in passes if "crashed" not in p]
    per_pass = max(done) if done else 1
    attempted = failed = 0
    errors = []
    for k, p in enumerate(passes):
        if "crashed" in p:
            attempted += per_pass
            failed += per_pass
            errors.append("pass %d crashed: %s" % (k, p["crashed"]))
        else:
            attempted += p["attempted"]
            failed += p["failed"]
            errors += ["pass %d: %s" % (k, e) for e in p["errors"]]
    return attempted, failed, errors


def count_flags(passes: list, key_fn) -> list:
    """Counts that differ between passes of one run."""
    seen = {}
    for k, p in enumerate(passes):
        if "crashed" not in p:
            key = json.dumps(key_fn(p), sort_keys=True)
            seen.setdefault(key, []).append(k)
    if len(seen) <= 1:
        return []
    return ["work counts differ between passes: %s"
            % " vs ".join(str(v) for v in seen.values())]


def cross_run_flags(name: str, src: str, counts) -> list:
    """Compare with the counts of the last run of this source, workload,
    seed and trace setting."""
    path = os.path.join(OUT, "counts", name + ".json")
    flags = []
    if os.path.exists(path):
        with open(path) as fh:
            old = json.load(fh)
        if old["source"] == src and old["counts"] != counts:
            flags.append("work counts differ from the previous run of "
                         "this source and seed (%s)" % path)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"source": src, "counts": counts}, fh, sort_keys=True)
    return flags


def step_table(passes: list) -> list:
    """Median seconds per (algebra, step) over completed passes."""
    cells = {}
    for p in passes:
        if "crashed" in p:
            continue
        per = {}
        for alg, step, s in p["steps"]:
            per[(alg, step)] = per.get((alg, step), 0.0) + s
        for k, s in per.items():
            cells.setdefault(k, []).append(s)
    return [[a, s, median(v)] for (a, s), v in cells.items()]


def run_untraced(r: Runner, workload: str, seconds: int,
                 spec: Spec) -> tuple:
    setups = []
    for _ in range(SETUP_SPAWNS):
        _, data, err = r.spawn("import")
        if data is None:
            raise BenchError("import failed: " + err)
        setups.append(data["setup_s"])
    passes = []
    t0 = time.monotonic()
    while len(passes) < MIN_PASSES or time.monotonic() - t0 < seconds:
        if passes and time.monotonic() - r.start + \
                1.5 * passes[-1]["wall_s"] > DEADLINE_S:
            break
        passes.append(r.pass_(workload, False))
    ok = completed(passes)
    setups += [p["setup_s"] for p in ok]
    attempted, failed, _ = tally(passes)
    metrics = {
        "pass_s": median([p["scaled_s"] for p in ok]),
        "setup_s": median(setups),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in ok]),
        "verdict_ok_share": 1.0 - failed / attempted,
    }
    counts = ok[0]["counts"]
    flags = count_flags(passes, lambda p: p["counts"])
    extra = {"setup_samples_s": setups,
             "pass_wall_s": median([p["wall_s"] for p in ok])}
    return passes, metrics, counts, flags, extra


def run_traced(r: Runner, workload: str, seconds: int,
               spec: Spec) -> tuple:
    from tracing import layer_metrics
    _, data, err = r.spawn("micro")
    if data is None:
        raise BenchError("microbenchmarks failed: " + err)
    micro = data["micro"]
    plain, traced = [], []
    t0 = time.monotonic()
    while len(traced) < MIN_PASSES or time.monotonic() - t0 < seconds:
        if traced and time.monotonic() - r.start + \
                3 * traced[-1]["wall_s"] > DEADLINE_S:
            break
        order = (False, True) if len(traced) % 2 == 0 else (True, False)
        for trace in order:
            (traced if trace else plain).append(r.pass_(workload, trace))
    ok = completed(traced)
    layers = []
    for p in ok:
        m = layer_metrics(p["trace"], p["wall_s"])
        m["catalog.golden_s"] = sum((s for _, step, s in p["steps"]
                                     if step == "golden"), 0.0)
        # times at the nominal machine speed, as pass_s
        factor = speed.scale(1.0, p["speed_samples_s"])
        m = {k: v * factor if spec.units.get(k) == "s" else v
             for k, v in m.items()}
        caches = p["counts"]["caches"]
        m["clifford.word_mul_hits"], m["clifford.word_mul_misses"] = \
            caches["word_mul"]
        m["algebra.coeff_G_hits"], m["algebra.coeff_G_misses"] = \
            caches["coeff_G"]
        layers.append(m)
    metrics = dict(micro)
    for name in spec.per_layer:
        if name in metrics or name == "trace.overhead_s":
            continue
        metrics[name] = median([m[name] for m in layers])
    metrics["trace.overhead_s"] = \
        median([p["scaled_s"] for p in ok]) - \
        median([p["scaled_s"] for p in completed(plain)])
    passes = plain + traced
    counts = ok[0]["counts"]
    flags = count_flags(plain, lambda p: p["counts"]) + \
        count_flags(traced, lambda p: p["counts"])
    extra = {"traced_passes": len(traced), "untraced_passes": len(plain),
             "layers_per_pass": layers,
             "spans": ok[0]["spans"],
             "missing_targets": ok[0]["trace"]["missing"]}
    for p in passes:
        p.pop("spans", None)
    return passes, metrics, counts, flags, extra


def main(argv=None) -> int:
    spec = Spec(os.path.join(ROOT, "BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=spec.workloads)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.monotonic()
    if not os.path.isfile(os.path.join(SRC, "confsalg", "__init__.py")):
        print("error: no confsalg package under %s; run from the root of a "
              "source checkout" % SRC, file=sys.stderr)
        return 2

    env = {"python": platform.python_version(),
           "implementation": platform.python_implementation(),
           "machine": platform.machine(), "nproc": os.cpu_count(),
           "loadavg_before": list(os.getloadavg()),
           "commit": commit(), "code_sha256": source_hash(),
           "workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace}
    r = Runner(args.seed, start)
    try:
        # compile the package's bytecode before anything is timed
        _, data, err = r.spawn("import")
        if data is None:
            raise BenchError("import failed: " + err)
        run = run_traced if args.trace else run_untraced
        passes, metrics, counts, flags, extra = \
            run(r, args.workload, args.seconds, spec)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        r.close()
    env["loadavg_after"] = list(os.getloadavg())
    name = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    flags += cross_run_flags(name, env["code_sha256"], counts)
    attempted, failed, errors = tally(passes)
    steps = step_table(passes)
    record = {"environment": env, "metrics": metrics,
              "attempted": attempted, "failed": failed, "errors": errors,
              "count_flags": flags, "work_counts": counts, "steps": steps,
              "passes": passes}
    record.update(extra)
    path = os.path.join(OUT, name + ".json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    for line in errors[:20] + flags:
        print(line, file=sys.stderr)
    print("environment: " + json.dumps(env, sort_keys=True))
    print("passes: %d, verdicts: %d attempted, %d failed, error_rate %.6f"
          % (len(passes), attempted, failed, failed / attempted))
    for alg, step, s in steps:
        print("step %-8s %-18s %9.4f s" % (alg, step, s))
    for name, value in metrics.items():
        print("%-36s %14.6f %s" % (name, value, spec.units[name]))
    if "pass_wall_s" in extra:
        print("%-36s %14.6f s" % ("pass_wall_s", extra["pass_wall_s"]))
    print("record: %s" % os.path.relpath(path, ROOT))
    names = spec.per_layer if args.trace else spec.end_to_end
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": spec.units[n]}
                    for n in names}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
