"""The serial DIRL1/DIRL2 iteration computes what it always did, and checks
each array once.

``old_step`` is the one-step kernel as it was written before the objective
took one predicate and the step formed each quantity once: the reference
for the bits. It also forms, after the fact and the plain way, the radius
and product that ``run``'s loop now carries from each objective call to the
next step, and sets the carry's ``radius`` and ``product`` to them, so that
those fields can be compared too. ``run`` with the current kernel must give the same records, iterates,
limit and diagnostics as ``run`` with ``old_step`` in its place, and must
fail at the same iteration with the same message.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from dirw import problems, regularizers, solvers
from dirw.errors import NumericalFailure
from dirw.problems import Problem, SmoothTerm, benchmark2d
from dirw.regularizers import CustomRegularizer, Regularizer
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


def old_parts(algorithm, problem, x, eps):
    """The radius and product that the objective now hands to the next step."""
    radius = np.abs(x) + eps if algorithm == "DIRL1" else np.hypot(x, eps)
    smooth = problem.smooth
    product = smooth.A @ x if smooth.kind == "quadratic" else smooth.A @ x - smooth.b
    return radius, product


def old_make_initial_state(config, problem, x0, *, _carry=None):
    x0 = np.array(x0, dtype=float)
    eps = config.initial_eps(problem.dimension)
    F0 = old_perturbed_value(config.algorithm, problem, x0, eps)
    if not math.isfinite(F0):
        raise NumericalFailure(f"perturbed objective is not finite at iteration 0: {F0!r}",
                               iteration=0)
    if _carry is not None:
        _carry.radius, _carry.product = old_parts(config.algorithm, problem, x0, eps)
    return IterateState(k=0, x=x0, eps=eps, y=x0.copy(), F_perturbed=F0, step_norm=math.inf)


def old_step(algorithm, state, config, problem, carry=None):
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
    if carry is not None:
        carry.radius, carry.product = old_parts(algorithm, problem, x_new, eps_new)
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
        "states": [(x.tobytes(), eps.tobytes()) for x, eps in trace.states],
        "limit_x": trace.limit_x.tobytes(),
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
        m.setattr(solvers, "make_initial_state", old_make_initial_state)
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
    cases = [benchmark2d(), Problem(benchmark2d().smooth, Regularizer("EXP", 1.0), 1.0)]
    config = SolverConfig(algorithm, beta=beta, eps_decay=eps_decay)
    starts = [*BENCH_STARTS, *np.random.default_rng(5).uniform(-3.0, 3.0, (4, 2))]
    for problem in cases:
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


def _bits(parts):
    return [v.tobytes() for v in parts]


def _carry_bits(carry):
    """The radius and product that ``carry`` hands on; these terms are below
    the damped update's gate, so it hands on no gradient and no row block."""
    assert carry.gradient is carry.idx is carry.rows is None
    return _bits((carry.radius, carry.product))


@pytest.mark.parametrize("beta", [4.0, 3.3])
@pytest.mark.parametrize("eps_decay", ["damped", "geometric"])
@pytest.mark.parametrize("algorithm", ["DIRL1", "DIRL2"])
def test_step_matches_old_step(algorithm, eps_decay, beta):
    """Every field of every state, the step that the telescoped bound sums
    and the radius and product carried to the next step too, which no
    output of run shows. A step without a carry steps to the same bits."""
    config = SolverConfig(algorithm, beta=beta, eps_decay=eps_decay)
    for problem, x0 in [(benchmark2d(), np.array([3.0, 3.0])),
                        (benchmark2d(), np.array([-0.4, 1e-3])),
                        (_least_squares(), np.random.default_rng(6).normal(size=50))]:
        carry = solvers._Carry()
        state = solvers.make_initial_state(config, problem, x0, _carry=carry)
        assert _state_bits(state) == _state_bits(old_make_initial_state(config, problem, x0))
        assert _carry_bits(carry) == _bits(old_parts(algorithm, problem, x0, state.eps))
        for _ in range(60):
            bare = solvers._step(algorithm, state, config, problem, None)
            new = solvers._step(algorithm, state, config, problem, carry)
            assert _state_bits(new) == _state_bits(old_step(algorithm, state, config, problem))
            assert _state_bits(bare) == _state_bits(new)
            assert _carry_bits(carry) == _bits(old_parts(algorithm, problem, new.x, new.eps))
            state = new


@pytest.mark.parametrize("algorithm", ["DIRL1", "DIRL2"])
def test_step_of_the_other_algorithms_state_forms_its_radius(algorithm):
    """A DIRL2 step of a DIRL1 state (or the reverse), given no carried
    radius, forms its own, and hands on the radius and product of its new
    x and eps."""
    other = "DIRL2" if algorithm == "DIRL1" else "DIRL1"
    problem, config = benchmark2d(), SolverConfig(other)
    state = solvers.make_initial_state(config, problem, np.array([1.3, -2.1]))
    new = solvers._step(algorithm, state, config, problem, None)
    assert _state_bits(new) == _state_bits(old_step(algorithm, state, config, problem))
    carry = solvers._Carry()
    assert _state_bits(solvers._step(algorithm, state, config, problem, carry)) == _state_bits(new)
    assert _carry_bits(carry) == _bits(old_parts(algorithm, problem, new.x, new.eps))


@pytest.mark.parametrize("algorithm", ["DIRL1", "DIRL2"])
def test_step_with_another_problem_or_x_forms_its_own_parts(algorithm):
    """A state stepped with a problem other than the one that built it, or
    given a new x or eps, and no carried radius and product, forms them
    from its own problem, x and eps, and hands on those of the new x and
    eps."""
    config = SolverConfig(algorithm)
    built_for = benchmark2d()
    other = Problem(SmoothTerm("least_squares", [[0.2, -0.1], [0.05, 0.3]], [0.1, -0.2]),
                    built_for.reg, built_for.lam)
    state = solvers.make_initial_state(config, built_for, np.array([1.3, -2.1]))
    for problem, start in [(other, state),
                           (built_for, dataclasses.replace(state, x=np.array([0.4, 0.2]))),
                           (built_for, dataclasses.replace(state, eps=2.0 * state.eps))]:
        carry = solvers._Carry()
        new = solvers._step(algorithm, start, config, problem, carry)
        assert _state_bits(new) == _state_bits(old_step(algorithm, start, config, problem))
        assert _state_bits(solvers._step(algorithm, start, config, problem, None)) == _state_bits(new)
        assert _carry_bits(carry) == _bits(old_parts(algorithm, problem, new.x, new.eps))


@pytest.mark.parametrize("algorithm", ["DIRL1", "DIRL2"])
def test_zero_radius_matches_old_kernel(monkeypatch, algorithm):
    """eps underflows to 0 under geometric decay, and x_1 = 0 stays 0: the
    carried radius then holds a 0, which takes the weights' masked path."""
    config = SolverConfig(algorithm, eps0=1e-300, mu=1e-5, eps_decay="geometric", max_iter=40)
    for problem in (benchmark2d(), Problem(benchmark2d().smooth, Regularizer("EXP", 1.0), 1.0)):
        x0 = np.array([0.0, 0.3])
        trace = run(config, problem, x0, trace_full=True)
        x, eps = trace.states[-1]
        assert x[0] == 0.0 and not eps.any()
        want = oracle_fingerprint(monkeypatch, config, problem, x0)
        assert fingerprint(config, problem, x0) == want


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

    def flat_step(algorithm, state, config, problem, carry):
        new = step(algorithm, state, config, problem, carry)
        new.F_perturbed = state.F_perturbed
        return new

    monkeypatch.setattr(solvers, "_step", flat_step)
    with pytest.raises(NumericalFailure) as err:
        run(config, problem, np.array([3.0, 3.0]))
    assert str(err.value) == (f"telescoped descent bound violated at iteration 5: "
                              f"drop={0.0!r} < {lower!r}")
    assert err.value.iteration == 5


# -- validation at the boundary --------------------------------------------------


def _count_checks(monkeypatch, config, problem, x0):
    counts = {"check_vector": 0, "_check_eps": 0, "_prepare": 0, "radius": 0,
              "_quietly": 0, "weight check": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    with monkeypatch.context() as m:
        m.setattr(Problem, "check_vector", counting("check_vector", Problem.check_vector))
        m.setattr(Problem, "_check_eps", counting("_check_eps", Problem._check_eps))
        m.setattr(regularizers, "_prepare", counting("_prepare", regularizers._prepare))
        for name in ("_l1_radius", "_l2_radius"):
            m.setattr(problems, name, counting("radius", getattr(problems, name)))
        m.setattr(problems, "_quietly", counting("_quietly", problems._quietly))
        m.setattr(solvers, "_nonnegative", counting("weight check", solvers._nonnegative))
        trace = run(config, problem, x0)
    assert not trace.converged
    return counts, trace.iterations


def _custom_log():
    """LOG with p = 1 as a CustomRegularizer, whose r' the loop cannot vouch for."""
    return CustomRegularizer(np.log1p, lambda t: 1.0 / (1.0 + t),
                             lambda t: -1.0 / (1.0 + t) ** 2, 1.0, -1.0)


@pytest.mark.parametrize("algorithm", ["DIRL1", "DIRL2"])
@pytest.mark.parametrize("problem", ["benchmark2d", "least_squares", "custom"])
def test_each_iteration_checks_one_array(monkeypatch, algorithm, problem):
    """Per iteration: no x, eps or domain check, one radius formed, no
    error-state switch, and a weight check only for a custom penalty.

    The objective guards x_new and eps_new with its own single predicate,
    and its radius, formed with warnings on, goes on to the next step's
    weights, which test only t > 0. A built-in penalty's weights are r'
    values at checked points, so the subproblem takes them unchecked. So a
    check, a second radius or an errstate switch added back into the loop
    changes these counts.
    """
    if problem == "custom":
        prob = Problem(benchmark2d().smooth, _custom_log(), 1.0)
    else:
        prob = benchmark2d() if problem == "benchmark2d" else _least_squares()
    x0 = np.full(prob.dimension, 3.0)
    short, k_short = _count_checks(monkeypatch, SolverConfig(algorithm, max_iter=20), prob, x0)
    long, k_long = _count_checks(monkeypatch, SolverConfig(algorithm, max_iter=40), prob, x0)
    assert (k_short, k_long) == (20, 40)
    per_iteration = {name: (long[name] - short[name]) / 20 for name in long}
    assert per_iteration == {"check_vector": 0, "_check_eps": 0, "_prepare": 0, "radius": 1,
                             "_quietly": 0, "weight check": int(problem == "custom")}


def _failing_run(monkeypatch, step, make_initial_state, config, problem, x0):
    """The steps that ``run`` took with ``step`` and the ValueError it raised."""
    calls = []

    def counted(*args):
        calls.append(1)
        return step(*args)

    with monkeypatch.context() as m:
        m.setattr(solvers, "_step", counted)
        m.setattr(solvers, "make_initial_state", make_initial_state)
        with pytest.raises(ValueError) as err:
            run(config, problem, x0)
    return len(calls), str(err.value)


@pytest.mark.parametrize("algorithm", ["DIRL1", "DIRL2"])
def test_custom_penalty_with_a_negative_derivative_fails_where_old_kernel_fails(
        monkeypatch, algorithm):
    """r'(t) = t - 0.05 turns negative once |x_1| + eps_1 falls below 0.05:
    the subproblem refuses that weight at the iteration the old kernel did."""
    reg = CustomRegularizer(lambda t: 0.5 * t * t - 0.05 * t, lambda t: t - 0.05,
                            lambda t: 1.0, 1.0)
    problem = Problem(benchmark2d().smooth, reg, 1.0)
    config, x0 = SolverConfig(algorithm), np.array([3.0, 3.0])
    want = _failing_run(monkeypatch, old_step, old_make_initial_state, config, problem, x0)
    got = _failing_run(monkeypatch, solvers._step, solvers.make_initial_state,
                       config, problem, x0)
    message = "thresholds" if algorithm == "DIRL1" else "weights"
    assert got == want == (want[0], f"{message} must be nonnegative") and want[0] > 1


# -- warnings ----------------------------------------------------------------------


def warned(fn, *args):
    """What a call returned (as state bits) or raised, and the warnings it
    gave in order, under numpy's default floating-point handling; and what
    it raised with every warning raised as an error."""
    out = []
    for action in ("always", "error"):
        with np.errstate(all="warn", under="ignore"), \
                warnings.catch_warnings(record=action == "always") as caught:
            warnings.simplefilter(action)
            try:
                result = _state_bits(fn(*args))
            except Exception as exc:  # the exception is the outcome
                result = ("raised", type(exc), str(exc))
        out.append(result)
        if caught is not None:
            out.append([(w.category, str(w.message)) for w in caught])
    return out


def _flat(b):
    return Problem(SmoothTerm("quadratic", np.zeros((2, 2)), b), Regularizer("LOG", 1.0), 1.0)


@pytest.mark.parametrize("x0_2", [0.5, math.inf])
@pytest.mark.parametrize("algorithm", ["DIRL1", "DIRL2"])
def test_initial_objective_warns_as_the_old_kernel(algorithm, x0_2):
    """t_1 = |x0_1| + eps0 (hypot) overflows. With a finite x0 the objective,
    which forms t with warnings on, gives the old kernel's one warning and
    then its error; an infinite x0 is refused before t is formed, with no
    warning, as the old kernel refused it."""
    problem, config = _flat(np.zeros(2)), SolverConfig(algorithm, eps0=1.5e308)
    x0 = np.array([1.5e308, x0_2])
    want = warned(old_make_initial_state, config, problem, x0)
    assert len(want[1]) == math.isfinite(x0_2) and want[2][0] == "raised"
    assert warned(solvers.make_initial_state, config, problem, x0) == want


@pytest.mark.parametrize("algorithm, eps_1", [("DIRL1", 0.7e308), ("DIRL2", 1.2e308)])
def test_step_from_an_unchecked_eps_warns_as_the_old_kernel(algorithm, eps_1):
    """A state built by hand with eps_2 < 0 (|x_2| + eps_2 > 0, so the
    weights take it): x_1 grows so that t_1 overflows in the objective. The
    old kernel refuses eps_new before it forms t, and gives no warning; so
    does the step, which checks an eps that no objective call accepted."""
    problem = _flat(np.array([-0.5e308, 0.0]))
    config = SolverConfig(algorithm, alpha=0.9, beta=1.0, mu=0.99, eps_decay="geometric")
    state = IterateState(0, np.array([1e308, 1.0]), np.array([eps_1, -0.5]),
                         np.zeros(2), math.inf, math.inf)
    want = warned(old_step, algorithm, state, config, problem)
    assert want == [("raised", ValueError, "eps must be nonnegative and finite"), [],
                    ("raised", ValueError, "eps must be nonnegative and finite")]
    assert warned(solvers._step, algorithm, state, config, problem, None) == want
