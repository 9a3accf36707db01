"""The serial DIRL1/DIRL2 iteration computes what it always did, and checks
each array once.

``old_step`` is the one-step kernel as it was written before the objective
took one predicate and the step formed each quantity once: the reference
for the bits. ``run`` with the current kernel must give the same records,
iterates, limit and diagnostics as ``run`` with ``old_step`` in its place,
and must fail at the same iteration with the same message.
"""

import dataclasses
import math

import numpy as np
import pytest

from dirw import regularizers, solvers
from dirw.errors import NumericalFailure
from dirw.problems import Problem, SmoothTerm, benchmark2d
from dirw.regularizers import Regularizer
from dirw.solvers import (
    IterateState,
    SolverConfig,
    dirl1_weights,
    dirl2_weights,
    run,
    soft_threshold,
)

# -- oracle: the kernel as it was ---------------------------------------------


def old_dirl1_subproblem(x, grad, w, beta, lam):
    x = np.asarray(x, dtype=float)
    return soft_threshold(x - grad / beta, lam * np.asarray(w, dtype=float) / beta)


def old_dirl2_subproblem(x, grad, u, beta, lam):
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if not (u >= 0.0).all():
        raise ValueError("weights must be nonnegative")
    return np.where(np.isinf(u), 0.0, (x - grad / beta) / (1.0 + (2.0 * lam / beta) * u))


def old_model(algorithm, problem, x, eps, beta):
    grad = problem.smooth.gradient(x)
    if algorithm == "DIRL1":
        w = dirl1_weights(x, eps, problem.reg)
        return grad, old_dirl1_subproblem(x, grad, w, beta, problem.lam)
    u = dirl2_weights(x, eps, problem.reg)
    return grad, old_dirl2_subproblem(x, grad, u, beta, problem.lam)


def old_perturbed_value(algorithm, problem, x, eps):
    x = problem.check_vector(x)
    eps = problem._check_eps(x, eps)
    t = np.abs(x) + eps if algorithm == "DIRL1" else np.hypot(x, eps)
    return problem.smooth.value(x) + problem.penalty_value(t)


def old_descent_check(F_old, F_new, k):
    if not math.isfinite(F_new):
        raise NumericalFailure(
            f"perturbed objective is not finite at iteration {k}: {F_new!r}",
            iteration=k,
        )
    if F_new > F_old + solvers.DESCENT_SLACK * max(1.0, abs(F_old)):
        raise NumericalFailure(
            f"perturbed objective increased at iteration {k}: "
            f"{F_old!r} -> {F_new!r}",
            iteration=k,
        )


def old_step(algorithm, state, config, problem):
    x, k = state.x, state.k + 1
    try:
        grad, y = old_model(algorithm, problem, x, state.eps, config.beta)
        x_new = (1.0 - config.alpha) * x + config.alpha * y
        eps_new = config.eps_factor * state.eps
        step_norm = float(np.abs(x_new - x).max())
        if not math.isfinite(step_norm) and x_new.shape == np.shape(x):
            raise NumericalFailure(
                f"step is not finite at iteration {k}: {step_norm!r}", iteration=k
            )
        F_new = old_perturbed_value(algorithm, problem, x_new, eps_new)
    except (NumericalFailure, TypeError, ValueError):
        problem.check_vector(x)
        raise
    old_descent_check(state.F_perturbed, F_new, k)
    return IterateState(
        k=k,
        x=x_new,
        eps=eps_new,
        y=y,
        F_perturbed=F_new,
        step_norm=step_norm,
        prox_center_inf=float(np.abs(x - grad / config.beta).max()),
        step=x_new - x,  # what the run loop formed as state.x - prev.x
    )


# -- comparison ------------------------------------------------------------------


def fingerprint(config, problem, x0):
    """Everything ``run`` returns, as bits, or the failure it raised."""
    try:
        trace = run(config, problem, x0)
    except NumericalFailure as exc:
        return ("raised", exc.iteration, str(exc))
    return {
        "records": [(r.k, r.F_perturbed.hex(), r.step_norm.hex(), r.eps_inf.hex(),
                     r.support_bits) for r in trace.records],
        "final_x": trace.final_x.tobytes(),
        "final_eps": trace.final_eps.tobytes(),
        "limit_x": trace.limit_x.tobytes(),
        "tail": [x.tobytes() for x in trace.tail],
        "iterations": trace.iterations,
        "converged": trace.converged,
        "final_residual": trace.final_residual.hex(),
        "diagnostics": repr(trace.diagnostics),
    }


def oracle_fingerprint(monkeypatch, config, problem, x0):
    calls = []

    def step(*args):
        calls.append(1)
        return old_step(*args)

    with monkeypatch.context() as m:
        m.setattr(solvers, "_step", step)
        m.setattr(solvers, "_perturbed_value", old_perturbed_value)
        out = fingerprint(config, problem, x0)
    assert calls, "run no longer goes through solvers._step; point the oracle at the kernel"
    return out


def _least_squares(m=30, n=50):
    gen = np.random.default_rng(11)
    A = gen.normal(0.0, 1.0 / np.sqrt(m), (m, n))
    x_true = np.zeros(n)
    x_true[:5] = [1.5, -1.0, 2.0, -1.2, 1.1]
    b = A @ x_true + 0.01 * gen.normal(size=m)
    return Problem(SmoothTerm("least_squares", A, b), Regularizer("LPN", 0.5), 0.05)


def _unbounded_below():
    # x1 grows by 1 + alpha/beta per step until F reaches -inf.
    return Problem(SmoothTerm("quadratic", np.diag([-1.0, 2.0]), np.zeros(2)),
                   Regularizer("LOG", 1.0), 1.0)


BENCH_STARTS = [(3.0, 3.0), (-2.5, 0.7), (0.1, -3.0), (1e-9, 0.3)]


# beta = 4 (the default) divides exactly; beta = 3.3 does not.
@pytest.mark.parametrize("beta", [4.0, 3.3])
@pytest.mark.parametrize("eps_decay", ["damped", "geometric"])
@pytest.mark.parametrize("algorithm", ["DIRL1", "DIRL2"])
def test_run_matches_old_kernel_on_benchmark2d(monkeypatch, algorithm, eps_decay, beta):
    problems = [benchmark2d(), Problem(benchmark2d().smooth, Regularizer("EXP", 1.0), 1.0)]
    config = SolverConfig(algorithm, beta=beta, eps_decay=eps_decay)
    starts = [*BENCH_STARTS, *np.random.default_rng(5).uniform(-3.0, 3.0, (4, 2))]
    for problem in problems:
        for x0 in starts:
            x0 = np.array(x0)
            want = oracle_fingerprint(monkeypatch, config, problem, x0)
            assert fingerprint(config, problem, x0) == want, (problem.reg, x0)


@pytest.mark.parametrize("beta", [4.0, 3.3])
@pytest.mark.parametrize("eps_decay", ["damped", "geometric"])
@pytest.mark.parametrize("algorithm", ["DIRL1", "DIRL2"])
def test_run_matches_old_kernel_on_least_squares(monkeypatch, algorithm, eps_decay, beta):
    problem = _least_squares()
    config = SolverConfig(algorithm, beta=beta, eps_decay=eps_decay, max_iter=300)
    for x0 in (np.zeros(50), np.random.default_rng(6).normal(size=50)):
        want = oracle_fingerprint(monkeypatch, config, problem, x0)
        assert fingerprint(config, problem, x0) == want


def _state_bits(state):
    return {f.name: (v.tobytes() if isinstance(v, np.ndarray) else repr(v))
            for f in dataclasses.fields(state) for v in [getattr(state, f.name)]}


@pytest.mark.parametrize("beta", [4.0, 3.3])
@pytest.mark.parametrize("eps_decay", ["damped", "geometric"])
@pytest.mark.parametrize("algorithm", ["DIRL1", "DIRL2"])
def test_step_matches_old_step(algorithm, eps_decay, beta):
    """Every field of every state, the step that the telescoped bound sums
    too, which no output of run shows."""
    config = SolverConfig(algorithm, beta=beta, eps_decay=eps_decay)
    for problem, x0 in [(benchmark2d(), np.array([3.0, 3.0])),
                        (benchmark2d(), np.array([-0.4, 1e-3])),
                        (_least_squares(), np.random.default_rng(6).normal(size=50))]:
        state = solvers.make_initial_state(config, problem, x0)
        for _ in range(60):
            new = solvers._step(algorithm, state, config, problem)
            assert _state_bits(new) == _state_bits(old_step(algorithm, state, config, problem))
            state = new


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("algorithm", ["DIRL1", "DIRL2"])
def test_run_fails_where_old_kernel_fails(monkeypatch, algorithm):
    problem = _unbounded_below()
    config = SolverConfig(algorithm)
    for x0 in (np.array([1e154, 0.0]), np.array([-3e152, 2.0])):
        want = oracle_fingerprint(monkeypatch, config, problem, x0)
        assert want[0] == "raised" and want[1] >= 1
        assert fingerprint(config, problem, x0) == want


@pytest.mark.parametrize("algorithm", ["DIRL1", "DIRL2"])
def test_telescoped_bound_sums_the_steps(monkeypatch, algorithm):
    """Steps that move x without lowering F break the telescoped bound; run
    must raise it with the bound summed from the steps, as it always did."""
    problem, config = benchmark2d(), SolverConfig(algorithm, max_iter=5)
    state = solvers.make_initial_state(config, problem, np.array([3.0, 3.0]))
    sum_sq = 0.0
    for _ in range(5):
        new = old_step(algorithm, state, config, problem)
        dx = new.x - state.x
        sum_sq += float((dx * dx).sum())
        state = new
    lower = (config.beta / config.alpha - 2.0 / 2.0) * sum_sq  # L = 2
    step = solvers._step

    def flat_step(algorithm, state, config, problem):
        new = step(algorithm, state, config, problem)
        new.F_perturbed = state.F_perturbed
        return new

    monkeypatch.setattr(solvers, "_step", flat_step)
    with pytest.raises(NumericalFailure) as err:
        run(config, problem, np.array([3.0, 3.0]))
    assert str(err.value) == f"telescoped descent bound violated: drop={0.0!r} < {lower!r}"
    assert err.value.iteration == 5


# -- validation at the boundary --------------------------------------------------


def _count_checks(monkeypatch, config, problem, x0):
    counts = {"check_vector": 0, "_check_eps": 0, "_prepare": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    with monkeypatch.context() as m:
        m.setattr(Problem, "check_vector", counting("check_vector", Problem.check_vector))
        m.setattr(Problem, "_check_eps", counting("_check_eps", Problem._check_eps))
        m.setattr(regularizers, "_prepare", counting("_prepare", regularizers._prepare))
        trace = run(config, problem, x0)
    assert not trace.converged
    return counts, trace.iterations


@pytest.mark.parametrize("algorithm", ["DIRL1", "DIRL2"])
@pytest.mark.parametrize("problem", ["benchmark2d", "least_squares"])
def test_each_iteration_checks_one_array(monkeypatch, algorithm, problem):
    """Per iteration: no x or eps check, and one domain check, r' in the weights.

    The objective guards x_new and eps_new with its own single predicate, so
    a check added back into the loop changes these counts.
    """
    prob = benchmark2d() if problem == "benchmark2d" else _least_squares()
    x0 = np.full(prob.dimension, 3.0)
    short, k_short = _count_checks(monkeypatch, SolverConfig(algorithm, max_iter=20), prob, x0)
    long, k_long = _count_checks(monkeypatch, SolverConfig(algorithm, max_iter=40), prob, x0)
    assert (k_short, k_long) == (20, 40)
    per_iteration = {name: (long[name] - short[name]) / 20 for name in long}
    assert per_iteration == {"check_vector": 0, "_check_eps": 0, "_prepare": 1}
