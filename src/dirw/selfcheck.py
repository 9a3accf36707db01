"""Self-contained property suites runnable from the command line.

Each check returns a CheckResult; a fresh build passes all of them. The
regularizer-facing checks accept injected regularizer instances so that a
deliberately broken implementation is caught (and so user-defined
penalties can be screened the same way).
"""

import math
from dataclasses import dataclass

import numpy as np

from ._rng import make_rng
from .analysis import check_support_identification, symmetric_eigen
from .jacobians import finite_difference_jacobian, full_jacobian
from .problems import benchmark2d
from .regularizers import Regularizer
from .solvers import (
    SolverConfig,
    dirl1_subproblem,
    dirl1_weights,
    dirl2_subproblem,
    dirl2_weights,
    fixed_point_map,
    run,
    soft_threshold,
)

DEFAULT_REGULARIZERS = (
    Regularizer("EXP", 1.0),
    Regularizer("LOG", 2.0),
    Regularizer("FRA", 1.5),
    Regularizer("LPN", 0.5),
    Regularizer("TAN", 2.0),
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name, passed, detail=""):
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def check_derivative_consistency(regularizers=None, seed=0, samples=100):
    """r' and r'' match central differences at 1e-6 relative on [0.1, 10]."""
    regs = DEFAULT_REGULARIZERS if regularizers is None else regularizers
    rng = make_rng(seed, "selfcheck", 0)
    for reg in regs:
        ts = rng.uniform(0.1, 10.0, samples)
        for t in ts:
            h = 1e-6 * max(1.0, t)
            fd1 = (reg.value(t + h) - reg.value(t - h)) / (2.0 * h)
            d1 = reg.derivative(t)
            if abs(d1 - fd1) > 1e-6 * max(1.0, abs(d1)):
                return _result(
                    "derivative-consistency", False,
                    f"{reg.family}: r'({t:.4f})={d1!r} vs FD {fd1!r}",
                )
            fd2 = (reg.derivative(t + h) - reg.derivative(t - h)) / (2.0 * h)
            d2 = reg.second_derivative(t)
            if abs(d2 - fd2) > 1e-6 * max(1.0, abs(d2)):
                return _result(
                    "derivative-consistency", False,
                    f"{reg.family}: r''({t:.4f})={d2!r} vs FD {fd2!r}",
                )
    return _result("derivative-consistency", True, f"{len(regs)} regularizers")


def check_concavity(regularizers=None, seed=1, samples=100):
    """Chords lie below the graph on (0, inf) and weights are monotone."""
    regs = DEFAULT_REGULARIZERS if regularizers is None else regularizers
    rng = make_rng(seed, "selfcheck", 1)
    for reg in regs:
        for _ in range(samples):
            t1, t2 = np.sort(rng.uniform(1e-3, 10.0, 2))
            if t1 == t2:
                continue
            for theta in (0.25, 0.5, 0.75):
                mid = theta * t1 + (1 - theta) * t2
                chord = theta * reg.value(t1) + (1 - theta) * reg.value(t2)
                if reg.value(mid) < chord - 1e-12:
                    return _result(
                        "concavity", False, f"{reg.family} chord above graph at {mid}"
                    )
            if reg.derivative(t1) < reg.derivative(t2) - 1e-12:
                return _result(
                    "concavity", False, f"{reg.family} weights not monotone"
                )
    return _result("concavity", True, f"{len(regs)} regularizers")


def check_nonexpansiveness(seed=2, tuples=100_000, dim=10):
    """||S_w(z) - S_v(u)|| <= ||z - u|| + ||w - v|| on random finite data."""
    rng = make_rng(seed, "selfcheck", 2)
    z = rng.normal(0.0, 3.0, (tuples, dim))
    u = rng.normal(0.0, 3.0, (tuples, dim))
    w = rng.uniform(0.0, 3.0, (tuples, dim))
    v = rng.uniform(0.0, 3.0, (tuples, dim))
    lhs = np.linalg.norm(soft_threshold(z, w) - soft_threshold(u, v), axis=1)
    rhs = np.linalg.norm(z - u, axis=1) + np.linalg.norm(w - v, axis=1)
    bad = int(np.sum(lhs > rhs + 1e-12))
    return _result(
        "soft-threshold-nonexpansive", bad == 0, f"{tuples} tuples, {bad} violations"
    )


def check_descent_and_convergence():
    """Both solvers descend monotonically and converge on the 2-D benchmark.

    run() itself raises on any descent or telescope violation, so reaching
    a converged trace is the assertion.
    """
    prob = benchmark2d()
    for algorithm in ("DIRL1", "DIRL2"):
        trace = run(SolverConfig(algorithm), prob, np.array([3.0, 3.0]))
        if not trace.converged:
            return _result("descent-and-convergence", False, f"{algorithm} stalled")
        values = [rec.F_perturbed for rec in trace.records]
        drops = np.diff(values)
        if np.any(drops > 1e-10 * np.maximum(1.0, np.abs(values[:-1]))):
            return _result(
                "descent-and-convergence", False, f"{algorithm} not monotone"
            )
    return _result("descent-and-convergence", True, "both algorithms")


def check_fixed_point_consistency():
    """Converged limits are fixed points of the unrelaxed subproblem map."""
    prob = benchmark2d()
    for algorithm in ("DIRL1", "DIRL2"):
        config = SolverConfig(algorithm)
        trace = run(config, prob, np.array([3.0, 3.0]))
        x = trace.final_x
        grad = prob.gradient_smooth(x)
        if algorithm == "DIRL1":
            w = dirl1_weights(x, np.zeros_like(x), prob.reg)
            y = dirl1_subproblem(x, grad, w, config.beta, prob.lam)
        else:
            u = dirl2_weights(x, np.zeros_like(x), prob.reg)
            y = dirl2_subproblem(x, grad, u, config.beta, prob.lam)
        gap = float(np.linalg.norm(x - y))
        if gap > 10.0 * config.tol_step:
            return _result(
                "fixed-point-consistency", False, f"{algorithm} gap {gap!r}"
            )
    return _result("fixed-point-consistency", True, "both algorithms")


def check_jacobian_fd(seed=3, points=20, h=1e-6, tol=1e-5):
    """Analytic one-step Jacobians match central differences away from kinks."""
    prob = benchmark2d()
    rng = make_rng(seed, "selfcheck", 3)
    for algorithm in ("DIRL1", "DIRL2"):
        config = SolverConfig(algorithm)
        T = fixed_point_map(config, prob)
        done = 0
        while done < points:
            x = rng.uniform(0.1, 2.0, 2) * rng.choice([-1.0, 1.0], 2)
            eps = rng.uniform(0.1, 1.0, 2)
            if algorithm == "DIRL1":
                grad = prob.gradient_smooth(x)
                w = dirl1_weights(x, eps, prob.reg)
                margin = np.abs(np.abs(x - grad / config.beta) - prob.lam * w / config.beta)
                if np.min(margin) < 10 * h:  # too close to a threshold kink
                    continue
            v = np.concatenate([x, eps])
            dev = float(
                np.max(
                    np.abs(
                        full_jacobian(prob, config, x, eps)
                        - finite_difference_jacobian(T, v, h)
                    )
                )
            )
            if dev > tol:
                return _result(
                    "jacobian-finite-difference", False,
                    f"{algorithm} deviation {dev:.2e} at x={x}, eps={eps}",
                )
            done += 1
    return _result("jacobian-finite-difference", True, f"{points} points per algorithm")


def check_eigen_reconstruction(seed=4, matrices=20, max_size=32):
    """symmetric_eigen returns ascending eigenpairs with M V = V diag(vals)."""
    rng = make_rng(seed, "selfcheck", 4)
    for _ in range(matrices):
        n = int(rng.integers(1, max_size + 1))
        B = rng.normal(0.0, 1.0, (n, n))
        M = 0.5 * (B + B.T)
        vals, vecs = symmetric_eigen(M)
        if np.any(np.diff(vals) < 0.0):
            return _result("eigen-reconstruction", False, "eigenvalues not ascending")
        err = np.max(np.abs(M @ vecs - vecs * vals))
        if err > 1e-8 * max(1.0, np.linalg.norm(M)):
            return _result(
                "eigen-reconstruction", False, f"residual {err:.2e} at n={n}"
            )
    return _result("eigen-reconstruction", True, f"{matrices} random matrices")


def check_support_identification_run(window=50):
    """Sign fingerprints freeze over the tail of a converged DIRL1 run."""
    prob = benchmark2d()
    trace = run(SolverConfig("DIRL1"), prob, np.array([3.0, 3.0]))
    ok = trace.converged and check_support_identification(trace, window)
    return _result("support-identification", ok, f"window {window}")


ALL_CHECKS = (
    check_derivative_consistency,
    check_concavity,
    check_nonexpansiveness,
    check_descent_and_convergence,
    check_fixed_point_consistency,
    check_jacobian_fd,
    check_eigen_reconstruction,
    check_support_identification_run,
)


def run_all():
    results = []
    for check in ALL_CHECKS:
        try:
            results.append(check())
        except Exception as exc:  # a crashed check is a failed check
            results.append(
                CheckResult(name=check.__name__, passed=False, detail=repr(exc))
            )
    return results
