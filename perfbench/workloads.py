"""Benchmark workloads: seeded inputs, one closed-loop operation, output checks.

Each workload has three parts:

* ``prepare(seed, workdir)`` generates the inputs from the seed and writes
  them to files; the program sees only these files and arrays.
* ``setup(workdir)`` is what ``setup_s`` times in a fresh process: build the
  Problem and configs through dirw's public API and run the first-call
  warm-up (each call path once, on a 3-iteration or 1-start budget).
* ``op(state)`` runs one operation and returns its stage timings, its rate
  of work completed per second, an output digest and the failed checks.

Calls go through module attributes (``solvers.run``, ``cli.main``) so that
the tracer's patches see them.
"""

import contextlib
import hashlib
import io
import json
import os
import time

import numpy as np

from dirw import analysis, cli, jacobians, problems, regularizers, solvers


def _sha256(*paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _cli(argv):
    """In-process ``dirw`` call; returns (exit code, captured stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


#: Seed of the one least-squares instance per size that every run relabels.
BASE_SEED = 0


def sparse_recovery(seed, m, n, k, noise=0.01):
    """A ~ N(0, 1/m), k planted entries of +-(1..2), b = A x + noise.

    The instance is drawn once from ``BASE_SEED``; ``seed`` permutes and
    sign-flips the rows of [A | b]. That leaves f, A'A and every iterate
    unchanged up to rounding, so each seed is the same problem in another
    layout. Fresh draws need 5x different iteration counts (944-5180 for
    lsq1000 over seeds 100-119), which would swamp any change to the program.
    """
    rng = np.random.default_rng(BASE_SEED)
    A = rng.normal(0.0, 1.0 / np.sqrt(m), (m, n))
    x = np.zeros(n)
    planted = rng.choice(n, k, replace=False)
    x[planted] = rng.choice([-1.0, 1.0], k) * rng.uniform(1.0, 2.0, k)
    b = A @ x + noise * rng.normal(size=m)
    relabel = np.random.default_rng(seed)
    rows = relabel.permutation(m)
    signs = relabel.choice([-1.0, 1.0], m)
    return A[rows] * signs[:, None], b[rows] * signs


class Escape2d:
    """``dirw escape`` on benchmark2d, DIRL1 then DIRL2, one client.

    Thousands of 2-D solves: per-call validation and Python overhead
    dominate; eigensolves and L estimates are trivial.
    """

    name = "escape2d"
    #: Starts per ``dirw escape`` call, per algorithm.
    inits = 25
    algorithms = ("DIRL1", "DIRL2")

    def prepare(self, seed, workdir):
        for alg in self.algorithms:
            for tag, inits in (("", self.inits), ("warm-", 1)):
                config = {
                    "problem": "benchmark2d",
                    "solver": {"algorithm": alg},
                    "num_inits": inits,
                    "init_box": [[-3, -3], [3, 3]],
                    "seed": seed,
                    "saddle_radius": 1e-3,
                }
                with open(os.path.join(workdir, f"{tag}{alg}.json"), "w") as fh:
                    json.dump(config, fh)

    def setup(self, workdir):
        problems.benchmark2d()
        for alg in self.algorithms:
            with open(os.path.join(workdir, f"{alg}.json")) as fh:
                cli.ExperimentConfig.from_dict(json.load(fh))
            warm = os.path.join(workdir, f"warm-{alg}")
            code, err = _cli(["escape", "--config", warm + ".json",
                              "--out", warm + "-summary.json", "--workers", "1"])
            if code != 0:
                raise RuntimeError(f"escape warm-up exited {code}: {err}")
        return workdir

    def op(self, workdir):
        stages, digests, failures = {}, [], []
        for alg in self.algorithms:
            config = os.path.join(workdir, f"{alg}.json")
            out = os.path.join(workdir, f"{alg}-summary.json")
            start = time.perf_counter()
            code, err = _cli(["escape", "--config", config, "--out", out,
                              "--workers", "1"])
            stages[f"escape_{alg.lower()}_s"] = time.perf_counter() - start
            if code != 0:
                failures.append(f"{alg}: exit code {code}: {err.strip()}")
                continue
            digests.append(_sha256(out))
            with open(out) as fh:
                summary = json.load(fh)
            basins = summary["basins"]
            if summary["fraction_at_saddle"] != 0:
                failures.append(f"{alg}: fraction_at_saddle={summary['fraction_at_saddle']}")
            if sum(basins.values()) != self.inits:
                failures.append(f"{alg}: basins sum to {sum(basins.values())}")
            if "failed" in basins:
                failures.append(f"{alg}: {basins['failed']} failed starts")
        return {"stages": stages, "rate": 2 * self.inits / sum(stages.values()),
                "digest": ":".join(digests), "failures": failures}

    def expected_calls(self):
        return {"cli.run_escape": 2, "solvers.run": 2 * self.inits,
                "rng.make_rng": 2 * self.inits}


class Lsq1000:
    """``run()`` with DIRL1 from zeros on a 500 x 1000 least-squares problem,
    then classify + stationary Jacobian + equivalence check at the limit.

    Iterations are dense-matvec bound; the analysis phase is pure-Python
    eigensolves on the ~60-entry support plus repeated A'A products.
    """

    name = "lsq1000"
    m, n, k = 500, 1000, 60
    lam, p = 0.05, 0.5

    def prepare(self, seed, workdir):
        A, b = sparse_recovery(seed, self.m, self.n, self.k)
        np.savez(os.path.join(workdir, "lsq1000.npz"), A=A, b=b)

    def setup(self, workdir):
        with np.load(os.path.join(workdir, "lsq1000.npz")) as data:
            A, b = data["A"], data["b"]
        problem = problems.Problem(
            problems.SmoothTerm("least_squares", A, b),
            regularizers.Regularizer("LPN", self.p),
            self.lam,
        )
        config = solvers.SolverConfig("DIRL1")
        x0 = np.zeros(self.n)
        solvers.run(solvers.SolverConfig("DIRL1", max_iter=3), problem, x0)
        return problem, config, x0

    def op(self, state):
        problem, config, x0 = state
        start = time.perf_counter()
        trace = solvers.run(config, problem, x0)
        solved = time.perf_counter()
        limit = trace.limit_x
        report = analysis.classify_stationary_point(problem, limit)
        jac = jacobians.dirl1_jacobian(problem, limit, config.alpha, config.beta,
                                       config.mu, config.eps_decay)
        equiv = jacobians.saddle_unstable_equivalence(
            problem, limit, config.alpha, config.beta, config.mu, "DIRL1")
        done = time.perf_counter()
        failures = []
        if not trace.converged:
            failures.append(f"not converged after {trace.iterations} iterations")
        if not trace.final_residual <= 1e-6:
            failures.append(f"active residual {trace.final_residual:.3e} > 1e-6")
        if report.classification != analysis.CLASS_STRICT_LOCAL_MIN:
            failures.append(f"limit classified {report.classification}")
        if not equiv.consistent:
            failures.append(f"equivalence check inconsistent: {equiv.detail}")
        h = hashlib.sha256(limit.tobytes())
        h.update(jac.spectrum.tobytes())
        h.update(f"{trace.iterations}:{report.classification}".encode())
        return {"stages": {"solve_s": solved - start, "analyze_s": done - solved},
                "rate": 1.0 / (done - start), "digest": h.hexdigest(), "failures": failures,
                "iterations": trace.iterations, "support": len(report.pattern.active)}

    def expected_calls(self):
        return {"solvers.run": 1, "jacobians.stationary_jacobian": 2,
                "jacobians.equivalence": 1}


class SolveTrace:
    """``dirw solve --trace-full --out`` with DIRL2 from zeros on a generated
    100 x 200 least-squares problem file: the single-solve loop plus
    per-iterate recording and trace writing.
    """

    name = "solve-trace"
    m, n, k = 100, 200, 20
    lam, p = 0.05, 0.5

    def prepare(self, seed, workdir):
        A, b = sparse_recovery(seed, self.m, self.n, self.k)
        spec = {"smooth": {"kind": "least_squares", "A": A.tolist(), "b": b.tolist()},
                "regularizer": {"family": "LPN", "p": self.p}, "lambda": self.lam}
        with open(os.path.join(workdir, "problem.json"), "w") as fh:
            json.dump(spec, fh)
        for name, config in (("solver", {"algorithm": "DIRL2"}),
                             ("warm-solver", {"algorithm": "DIRL2", "max_iter": 3})):
            with open(os.path.join(workdir, f"{name}.json"), "w") as fh:
                json.dump(config, fh)

    def setup(self, workdir):
        problem_path = os.path.join(workdir, "problem.json")
        problems.load_problem(problem_path)
        cli.load_solver_config(os.path.join(workdir, "solver.json"))
        code, err = _cli(["solve", "--config", os.path.join(workdir, "warm-solver.json"),
                          "--problem", problem_path, "--x0", "zeros",
                          "--out", os.path.join(workdir, "warm"), "--trace-full"])
        if code != 2:  # the 3-iteration budget is exhausted on purpose
            raise RuntimeError(f"solve warm-up exited {code}: {err}")
        return workdir

    def op(self, workdir):
        prefix = os.path.join(workdir, "run")
        start = time.perf_counter()
        code, err = _cli(["solve", "--config", os.path.join(workdir, "solver.json"),
                          "--problem", os.path.join(workdir, "problem.json"),
                          "--x0", "zeros", "--out", prefix, "--trace-full"])
        elapsed = time.perf_counter() - start
        result = {"stages": {"cli_solve_s": elapsed}, "rate": 0.0, "digest": "",
                  "failures": []}
        if code != 0:
            result["failures"].append(f"exit code {code}: {err.strip()}")
            return result
        paths = [prefix + ext for ext in (".json", ".csv", ".states.jsonl")]
        with open(paths[0]) as fh:
            iterations = json.load(fh)["iterations"]
        with open(paths[1]) as fh:
            rows = fh.read().splitlines()[1:]
        with open(paths[2]) as fh:
            states = fh.read().splitlines()
        csv_k = [int(row.split(",", 1)[0]) for row in rows]
        jsonl_k = [json.loads(line)["k"] for line in (states[0], states[-1])]
        failures = result["failures"]
        if len(states) != iterations + 1:
            failures.append(f"{len(states)} JSONL lines for {iterations} iterations")
        if csv_k != list(range(iterations + 1)):
            failures.append(f"CSV has {len(rows)} rows, not k = 0..{iterations}")
        if jsonl_k != [0, len(states) - 1]:
            failures.append(f"JSONL k runs {jsonl_k}, not 0..{len(states) - 1}")
        last = json.loads(states[-1])
        if float(rows[-1].split(",")[3]) != max(last["eps"]):
            failures.append("last CSV eps_inf differs from the last JSONL state")
        result.update(rate=1.0 / elapsed, digest=_sha256(*paths), iterations=iterations)
        return result

    def expected_calls(self):
        return {"solvers.run": 1, "cli.load_problem": 1, "solvers.trace_write": 2}


WORKLOADS = {w.name: w for w in (Escape2d(), Lsq1000(), SolveTrace())}
