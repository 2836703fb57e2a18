#!/usr/bin/env python3
"""cimark benchmark: one workload per process, closed loop, one thread.

    python3 perfbench/run.py --workload battery-ci --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

--trace 0 times the workload with no instrumentation and reports the
end-to-end metrics. --trace 1 times it untraced for half the run, then
wraps every layer boundary (spans.py) for the other half and reports the
per-layer metrics. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the lines before it give the
environment, the output digest and every metric with its unit.
"""

import os

# Pin BLAS/OpenMP pools before numpy loads: overlapping_sums_test calls
# np.linalg.solve, and a thread pool would measure the scheduler.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPS = 5

# The shared hosts this runs on change a vCPU's speed by up to 1.6x in
# regimes lasting seconds to minutes, which moves raw wall times between
# runs by 20-45%. op_s and setup_s are therefore reported at a nominal
# speed: scaled by the time of a fixed reference loop measured around each
# call, to the speed at which that loop takes NOMINAL_REF_S (about its time
# on an uncontended 2.0 GHz Xeon vCPU). See README.
NOMINAL_REF_S = 0.036


def import_cimark():
    """Import cimark from this checkout's src/, afresh: module-level work
    (tables, lazy kernels after warm-up) counts towards set-up each time."""
    for name in [m for m in sys.modules if m == "cimark" or m.startswith("cimark.")]:
        del sys.modules[name]
    cm = importlib.import_module("cimark")
    importlib.import_module("cimark.cli")
    if os.path.dirname(os.path.dirname(os.path.abspath(cm.__file__))) != SRC:
        raise ImportError(f"cimark resolved to {cm.__file__}, not this checkout's src/")
    return cm


def environment(cm) -> dict:
    import numpy
    import scipy
    return {
        "numba_enabled": bool(cm.NUMBA_ENABLED),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def reference_s() -> float:
    """Wall time of a fixed pure-Python loop: the yardstick for the vCPU's
    current speed. It is benchmark code, so no change to cimark moves it."""
    t0 = time.perf_counter()
    x = 1
    for _ in range(120_000):
        x ^= (x << 13) & 0xFFFFFFFF
        x ^= x >> 17
        x ^= (x << 5) & 0xFFFFFFFF
    return time.perf_counter() - t0


def timed(fn):
    """(result, wall seconds, seconds at nominal speed) of one call: the
    wall time scaled by NOMINAL_REF_S over the mean of the reference loop
    timed just before and just after the call."""
    before = reference_s()
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    return result, wall, wall * 2 * NOMINAL_REF_S / (before + reference_s())


def set_up(name, seed, tmpdir, tracer):
    """SETUP_REPS times: import, build the inputs, one warm-up call.
    Returns the last (package, workload) and the median set-up seconds at
    nominal speed."""
    import workloads

    def once():
        cm = import_cimark()
        wl = workloads.build(name, cm, seed, tracer, tmpdir)
        wl.warmup()
        return cm, wl

    times = []
    for _ in range(SETUP_REPS):
        (cm, wl), _, nominal = timed(once)
        times.append(nominal)
    return cm, wl, statistics.median(times)


class Phase:
    """A closed loop of operations for a fixed wall time; gates run between
    operations, outside the timed region."""

    def __init__(self, wl, seed, seconds, tracer, first_op=0):
        self.wall, self.nominal, self.failed, self.digest = [], [], 0, None
        deadline = time.perf_counter() + seconds
        i = first_op
        while not self.wall or time.perf_counter() < deadline:
            rng = random.Random(f"perfbench-gates:{seed}:{i}")
            t_iter = time.perf_counter()
            tracer.enabled = tracer.installed
            try:
                out, wall, nominal = timed(wl.op)
                tracer.enabled = False
                tracer.end_op()
                problems = wl.check(out, rng)
                digest = wl.digest(out)
                self.digest = self.digest or digest
                if digest != self.digest:
                    problems.append("output differs from the run's first operation")
            except Exception:  # an operation that raises counts as failed
                wall = nominal = time.perf_counter() - t_iter
                problems = [traceback.format_exc()]
            finally:
                tracer.enabled = False
            self.wall.append(wall)
            self.nominal.append(nominal)
            if problems:
                self.failed += 1
                print(f"op {i} failed: " + "; ".join(problems), file=sys.stderr)
            i += 1

    @property
    def op_s(self):
        return statistics.median(self.nominal)


def run_one(args) -> int:
    import spans
    tracer = spans.Tracer()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmpdir:
        cm, wl, setup_s = set_up(args.workload, args.seed, tmpdir, tracer)
        if args.trace:
            plain = Phase(wl, args.seed, args.seconds / 2, tracer)
            tracer.install(cm)
            traced = Phase(wl, args.seed, args.seconds / 2, tracer, len(plain.wall))
            tracer.unpatch()
            phases = [plain, traced]
            delta = wl.work / traced.op_s - wl.work / plain.op_s
            metrics = spans.per_layer(tracer, len(traced.wall), {wl.unit: delta})
        else:
            phases = [Phase(wl, args.seed, args.seconds, tracer)]
    attempted = sum(len(p.wall) for p in phases)
    failed = sum(p.failed for p in phases)
    if len({p.digest for p in phases}) > 1:
        failed = max(failed, 1)
        print("traced and untraced outputs differ", file=sys.stderr)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    op_s = phases[0].op_s
    if not args.trace:
        metrics = {
            "op_s": {"value": op_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} ops {attempted}")
    print("env " + json.dumps(environment(cm), sort_keys=True))
    print(f"digest sha256:{phases[0].digest}")
    summary = {
        "op_s": (op_s, "s"),
        "op_wall_s": (statistics.median(phases[0].wall), "s"),
        f"{wl.unit}_per_s": (wl.work / op_s, f"{wl.unit}/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "fail_ratio": (failed / attempted, "ratio"),
    }
    for name, (value, unit) in summary.items():
        print(f"{name:<14}{value:>16.6g} {unit}")
    if args.trace:
        for name, m in metrics.items():
            print(f"{name:<34}{m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    import workloads
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "cimark", "__init__.py")):
        print(f"error: no cimark sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="wall time of the measured loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
