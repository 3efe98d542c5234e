"""One cold pass in a fresh interpreter, started by perfbench/run.py.

    python3 perfbench/worker.py MODE SPAWN_TIME OUT
        [WORKLOAD SEED TRACE WORKDIR]

MODE is `import` (set-up only), `pass` or `micro`.  SPAWN_TIME is the
parent's time.monotonic() just before it started this process; the clock is
system-wide, so the difference to the moment the package is imported is
the set-up time.  The result is written as JSON to OUT; a pass includes the
machine-speed samples (perfbench/speed.py) taken while it ran.
"""
import time
import sys

# set-up: the eight modules of the public API
import confsalg.cli            # noqa: E402  (imports all but reconstruct)
import confsalg.reconstruct    # noqa: E402,F401

READY = time.monotonic()

import json      # noqa: E402
import resource  # noqa: E402

from speed import Speedometer  # noqa: E402


def _cache_counts() -> dict:
    from confsalg import algebra, clifford
    out = {}
    for name, fn in (("coeff_G", algebra.coeff_G),
                     ("coeff_F", algebra.coeff_F),
                     ("word_mul", clifford.Clifford.word_mul)):
        info = fn.cache_info()
        out[name] = [info.hits, info.misses]
    return out


def run_pass(workload: str, seed: int, trace: bool, workdir: str) -> dict:
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    # imported after install, so that its names are the wrapped ones
    import workloads
    p = workloads.Pass()
    t0 = time.perf_counter()
    with Speedometer() as speed:
        workloads.RUNNERS[workload](p, seed, workdir)
    work_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    out = {"attempted": p.attempted, "failed": p.failed,
           "errors": p.errors[:20], "steps": p.steps, "work_s": work_s,
           "speed_samples_s": speed.samples,
           "counts": {"checked": p.checked, "caches": _cache_counts()}}
    if tracer is not None:
        out["trace"] = tracer.summary()
        out["spans"] = tracer.span_records(t0)
        out["counts"]["calls"] = tracer.calls
    return out


def main() -> None:
    mode, spawn, out_path = sys.argv[1], float(sys.argv[2]), sys.argv[3]
    result = {"setup_s": READY - spawn}
    if mode == "pass":
        workload, seed, trace, workdir = sys.argv[4:8]
        result.update(run_pass(workload, int(seed), trace == "1", workdir))
    elif mode == "micro":
        import micro
        result["micro"] = micro.run()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    with open(out_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
