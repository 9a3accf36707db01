"""First-call against warm timings of the single-call figures in ROADMAP item 1.

Run from the root of a dirw checkout, once per fresh process:

    python3 perfbench/first_call.py [--seed 1]

Each figure is timed on its first call in this process and then as the
median of five further calls, with the benchmark's one BLAS thread. The
difference says whether a one-process figure was a first-call effect.
"""

import argparse
import os
import statistics
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def first_and_warm(fn, repeats=5):
    start = time.perf_counter()
    fn()
    first = time.perf_counter() - start
    warm = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        warm.append(time.perf_counter() - start)
    return first, statistics.median(warm)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import numpy as np

    from dirw import analysis, problems, regularizers, solvers
    from workloads import Lsq1000, sparse_recovery

    lsq = Lsq1000()
    A, b = sparse_recovery(args.seed, lsq.m, lsq.n, lsq.k)
    problem = problems.Problem(problems.SmoothTerm("least_squares", A, b),
                               regularizers.Regularizer("LPN", lsq.p), lsq.lam)
    rows = [
        ("L estimate, power iteration, m=500 n=1000", "ms", 1e3,
         first_and_warm(problem.estimate_lipschitz_gradient)),
        ("eigvalsh of A'A, m=500 n=1000", "ms", 1e3,
         first_and_warm(lambda: np.linalg.eigvalsh(A.T @ A))),
    ]
    M = np.random.default_rng(args.seed).normal(size=(60, 60))
    rows.append(("symmetric_eigen, k=60", "s", 1.0,
                 first_and_warm(lambda: analysis.symmetric_eigen(M + M.T))))
    bench = problems.benchmark2d()
    for alg in ("DIRL1", "DIRL2"):
        config = solvers.SolverConfig(alg)
        iterations = solvers.run(config, bench, np.array([3.0, 3.0])).iterations
        first, warm = first_and_warm(
            lambda: solvers.run(config, bench, np.array([3.0, 3.0])))
        rows.append((f"run() on benchmark2d from (3, 3), {alg}, {iterations} iterations",
                     "us/iteration", 1e6 / iterations, (first, warm)))
    for name, unit, scale, (first, warm) in rows:
        print(f"{name}: first call {first * scale:.4g} {unit}, warm {warm * scale:.4g} {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
