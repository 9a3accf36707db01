"""Benchmark for dirw: one closed-loop client, in-process calls, checked outputs.

Run from the root of a dirw checkout:

    python3 perfbench/run.py --workload escape2d --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run. ``--trace 1``
spends half the time untraced and half with spans recorded around dirw's
public functions, and prints the per-layer metrics and the tracing overhead.
Human-readable detail comes first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The
full report, span table included, is also written to
``.perfbench/results/``.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

# One BLAS thread (<= nproc everywhere): steadier on shared machines. It must
# be set before numpy is first imported, here and in the setup probes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

NPROC = len(os.sched_getaffinity(0))  # before main() pins to one CPU
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

#: Fresh processes timed for setup_s; the median is reported.
SETUP_PROBES = 7
DEFAULT_SEED = 20260809  # the acceptance suite's escape seed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("escape2d", "lsq1000", "solve-trace"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKDIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def setup_probe(workload, workdir):
    """Time import + Problem/config construction + warm-up in this fresh process."""
    start = time.perf_counter()
    from workloads import WORKLOADS  # imports numpy and dirw

    WORKLOADS[workload].setup(workdir)
    print(repr(time.perf_counter() - start))


def measure_setup(args, workdir, reference):
    """Set-up times of fresh processes, each with the host speed (reference
    time over nominal) measured just before it."""
    times = []
    for _ in range(SETUP_PROBES):
        speed = reference() / Reference.NOMINAL_S
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe", workdir],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        times.append((float(proc.stdout.strip().splitlines()[-1]), speed))
    return times


class Reference:
    """Fixed work that tracks the host's speed: interpreter loop, small numpy
    calls, dense matvecs, float formatting and string building, the mix
    dirw's operations are made of.

    The host's speed drifts by up to 2x over minutes, and that drift moves
    every operation alike. Each rate is therefore also reported corrected:
    scaled by the reference time measured around the operation, over
    ``NOMINAL_S``.
    """

    #: The reference's time at nominal speed (about its median on an Intel
    #: Xeon at 2.1 GHz); a fixed scale, so corrected rates read in 1/s.
    NOMINAL_S = 0.025
    #: Operations shorter than this share the previous reference time.
    EVERY_S = 0.5

    def __init__(self):
        import numpy as np

        self.A = np.random.default_rng(0).normal(size=(500, 1000))
        self.x = np.ones(1000)
        self.v = np.array([0.3, -1.2])
        self.w = np.array([0.1, 0.2])
        self.floats = np.random.default_rng(1).normal(size=400).tolist()
        self.np = np

    def __call__(self):
        np, v, w = self.np, self.v, self.w
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        for _ in range(1000):
            np.sum(np.maximum(np.abs(v) - w, 0.0) * np.sign(v))
        for _ in range(20):
            self.A @ self.x
        for _ in range(25):
            json.dumps(self.floats)
        for _ in range(60):
            "".join("+" if t > 0 else "-" if t < 0 else "0" for t in self.floats)
        return time.perf_counter() - start


def measure(workload, state, seconds, reference, tracer=None):
    """Closed loop: start the next operation only after the previous returns,
    until another operation of typical length would overrun ``seconds``.

    The reference runs between operations, at most every ``EVERY_S``; each
    operation's host speed is the mean of the references around it.
    """
    results, walls, refs = [], [], []
    begin = time.perf_counter()
    ref_at = -Reference.EVERY_S
    while True:
        start = time.perf_counter()
        if start - ref_at >= Reference.EVERY_S:
            refs.append(reference())
            ref_at = start
        try:
            if tracer is None:
                result = workload.op(state)
            else:
                result = tracer.span("op", workload.op, state)
        except Exception as exc:  # a crashing operation is a failed operation
            result = {"stages": {}, "rate": 0.0, "digest": "",
                      "failures": [f"{type(exc).__name__}: {exc}"]}
        result["op_s"] = sum(result["stages"].values())
        result["ref"] = len(refs) - 1
        results.append(result)
        now = time.perf_counter()
        walls.append(now - start)
        if now - begin + statistics.median(walls) > seconds:
            break
    refs.append(reference())
    for result in results:
        i = result.pop("ref")
        result["speed"] = (refs[i] + refs[i + 1]) / 2 / Reference.NOMINAL_S  # > 1: slow
    return results


def summarize(values, tail_high=True):
    """(median, 90th or 10th percentile, count); the tail is the worse side."""
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], 1
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return statistics.median(values), deciles[8] if tail_high else deciles[0], len(values)


def stage_report(workload, results):
    """The workload's named end-to-end timings, as (name, unit, median, tail, n)."""
    rows = []
    ok = [r for r in results if not r["failures"]]
    for stage in ok[0]["stages"] if ok else ():
        times = [r["stages"][stage] for r in ok]
        if stage.startswith("escape_"):
            rates = [workload.inits / t for t in times]
            rows.append((stage[:-2] + "_inits_per_s", "1/s", *summarize(rates, False)))
        else:
            rows.append((stage, "s", *summarize(times)))
    return rows


def blas_threads():
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return getattr(handle, symbol)()
    return None


def git_sha():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(loose):
        with open(loose) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return None


def provenance():
    import numpy as np

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), None)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    package = os.path.join(SRC, "dirw")
    loc = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                loc[name[:-3]] = sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": NPROC,
        "pinned_cpu": max(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_sha": git_sha(),
        "loc": loc,
        "loc_total": sum(loc.values()),
    }


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dirw", "__init__.py")):
        print(f"error: no dirw sources under {SRC}; run from a dirw checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # Both vCPUs of a shared host can run at different speeds: keep the
    # operations, the reference and the set-up probes on one of them.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.setup_probe:
        setup_probe(args.workload, args.setup_probe)
        return 0

    import dirw
    from tracing import Tracer, consistency_errors, layer_metrics
    from workloads import WORKLOADS

    if not os.path.abspath(dirw.__file__).startswith(SRC + os.sep):
        print(f"error: imported dirw from {dirw.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload.prepare(args.seed, workdir)
        reference = Reference()
        reference()
        setup_times = measure_setup(args, workdir, reference)
        state = workload.setup(workdir)
        untraced_s = args.seconds / 2 if args.trace else args.seconds
        untraced = measure(workload, state, untraced_s, reference)
        traced, tracer = [], None
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = measure(workload, state, args.seconds / 2, reference, tracer)
            finally:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Every operation has the same inputs, so every digest must agree,
    # traced or not.
    digest = next((r["digest"] for r in untraced if not r["failures"]), None)
    for r in untraced + traced:
        if not r["failures"] and r["digest"] != digest:
            r["failures"].append("output digest differs from the first operation")
    results = untraced + traced
    failed = sum(1 for r in results if r["failures"])
    self_check = []
    if tracer is not None and traced:
        self_check = consistency_errors(tracer, len(traced), workload.expected_calls())

    def corrected_op_s(rs):
        return statistics.median(r["op_s"] / r["speed"] for r in rs)

    setup_raw_s = statistics.median(t for t, _ in setup_times)
    setup_s = statistics.median(t / speed for t, speed in setup_times)
    ok = [r for r in untraced if not r["failures"]]
    raw_rate = statistics.median(r["rate"] for r in ok) if ok else 0.0
    norm_rate = statistics.median(r["rate"] * r["speed"] for r in ok) if ok else 0.0
    reference_ms = statistics.median(r["speed"] for r in untraced) * Reference.NOMINAL_S * 1e3
    if args.trace:
        metrics = layer_metrics(tracer, len(traced), corrected_op_s(untraced),
                                corrected_op_s(traced))
        metrics["process.peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
        metrics["host.reference_ms"] = {"value": reference_ms, "unit": "ms"}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "work_per_norm_s": {"value": norm_rate, "unit": "1/s"},
        }

    stages = stage_report(workload, untraced)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "client": "closed loop, 1 client, --workers 1",
        "provenance": provenance(),
        "setup_s_samples": setup_times,
        "stages": [dict(zip(("name", "unit", "median", "tail", "n"), row)) for row in stages],
        "peak_rss_mb": peak_rss_mb,
        "work_per_s": raw_rate,
        "work_per_norm_s": norm_rate,
        "reference_ms": reference_ms,
        "digest": digest,
        "failures": [f for r in results for f in r["failures"]][:20],
        "self_check_errors": self_check,
        "metrics": metrics,
    }
    if tracer is not None:
        report["spans"] = [
            {"name": name, "parent": parent, "calls": c, "total_s": t, "self_s": s}
            for (name, parent), (c, t, s) in sorted(tracer.spans.items(), key=str)
        ]
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    path = os.path.join(OUT, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} ({report['client']})")
    print("provenance " + json.dumps(report["provenance"], sort_keys=True))
    print(f"setup_s median={setup_s:.4f} s corrected for host speed, "
          f"{setup_raw_s:.4f} s as measured, over {len(setup_times)} fresh processes")
    for name, unit, med, tail, n in stages:
        side = "p10" if unit == "1/s" else "p90"
        print(f"{name} median={med:.5g} {side}={tail:.5g} {unit} n={n}")
    print(f"work_per_s median={raw_rate:.6g} 1/s as measured; work_per_norm_s "
          f"median={norm_rate:.6g} 1/s corrected for host speed "
          f"(reference median {reference_ms:.4g} ms, nominal {Reference.NOMINAL_S * 1e3:g} ms)")
    print(f"peak_rss_mb {peak_rss_mb:.2f} MB")
    print(f"failed_fraction {failed}/{len(results)} = {failed / len(results):.4g}")
    print(f"output digest {digest}")
    for line in report["failures"] + self_check:
        print(f"FAILED {line}")
    if tracer is not None:
        ops = len(traced)
        print(f"spans per operation ({ops} traced operations): name <- parent  "
              "calls  total_ms  self_ms")
        for s in report["spans"]:
            print(f"  {s['name']} <- {s['parent']}  {s['calls'] / ops:.6g}  "
                  f"{s['total_s'] / ops * 1e3:.4f}  {s['self_s'] / ops * 1e3:.4f}")
    print(f"report written to {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": failed == 0 and not self_check and bool(untraced),
        "attempted": len(results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
