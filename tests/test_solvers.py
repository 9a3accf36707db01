import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import types

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dirw.analysis import CLASS_STRICT_SADDLE, SUPPORT_TOL, classify_stationary_point, support
from dirw.errors import ConfigValidationError, NumericalFailure
from dirw.problems import Problem, SmoothTerm, benchmark2d
from dirw.regularizers import FAMILIES, CustomRegularizer, Regularizer
from dirw.solvers import (
    _JSONL_CHUNK,
    ALGORITHMS,
    TAIL_WINDOW,
    IterateState,
    SolverConfig,
    TraceRecord,
    _record,
    dirl1_step,
    dirl1_subproblem,
    dirl1_weights,
    dirl2_step,
    dirl2_subproblem,
    dirl2_weights,
    fixed_point_map,
    make_initial_state,
    run,
    soft_threshold,
    solution_map,
    trace_states_to_jsonl,
    trace_to_csv,
    validate_config,
)


def test_soft_threshold_cases():
    assert soft_threshold(np.array([3.0]), np.array([1.0]))[0] == 2.0
    assert soft_threshold(np.array([-0.5]), np.array([1.0]))[0] == 0.0
    assert soft_threshold(np.array([5.0]), np.array([np.inf]))[0] == 0.0
    out = soft_threshold(np.array([-2.0, 0.3]), np.array([0.5, 0.5]))
    assert np.allclose(out, [-1.5, 0.0])
    # exact tie at the kink lands on zero
    assert soft_threshold(np.array([0.5]), np.array([0.5]))[0] == 0.0
    with pytest.raises(ValueError):
        soft_threshold(np.array([1.0]), np.array([-0.1]))


def test_soft_threshold_nonexpansive(rng):
    z = rng.normal(0, 3, (10_000, 10))
    u = rng.normal(0, 3, (10_000, 10))
    w = rng.uniform(0, 3, (10_000, 10))
    v = rng.uniform(0, 3, (10_000, 10))
    lhs = np.linalg.norm(soft_threshold(z, w) - soft_threshold(u, v), axis=1)
    rhs = np.linalg.norm(z - u, axis=1) + np.linalg.norm(w - v, axis=1)
    assert np.all(lhs <= rhs + 1e-12)


def test_dirl1_weights():
    reg = Regularizer("LPN", 0.5)
    w = dirl1_weights(np.array([4.0, 0.0]), np.array([0.0, 1.0]), reg)
    assert np.allclose(w, [0.25, 0.5])
    # t = 0 falls back to the one-sided limit
    assert dirl1_weights(np.zeros(1), np.zeros(1), reg)[0] == math.inf
    exp = Regularizer("EXP", 1.0)
    assert dirl1_weights(np.zeros(1), np.array([1e-14]), exp)[0] == pytest.approx(1.0)
    assert dirl1_weights(np.zeros(1), np.zeros(1), exp)[0] == 1.0
    # weights shrink as |x| + eps grows
    t = np.array([0.5, 1.0, 2.0])
    w2 = dirl1_weights(t, np.zeros(3), reg)
    assert np.all(np.diff(w2) < 0.0)


def test_dirl1_subproblem_composition():
    # x - grad/beta = (3, -0.1), lam w / beta = (1, 1)
    y = dirl1_subproblem(
        np.array([3.0, -0.1]), np.array([1.0, 1.0]), 1.0, 1.0
    )
    assert np.allclose(y, [2.0, 0.0])


def test_dirl1_subproblem_is_model_argmin(rng):
    # per-coordinate grid search over the separable model
    for _ in range(20):
        n = 3
        x = rng.normal(size=n)
        grad = rng.normal(size=n)
        w = rng.uniform(0.1, 2.0, n)
        beta = rng.uniform(0.5, 4.0)
        lam = rng.uniform(0.1, 2.0)
        y = dirl1_subproblem(x - grad / beta, w, beta, lam)

        def model(i, t):
            return grad[i] * (t - x[i]) + 0.5 * beta * (t - x[i]) ** 2 + lam * w[i] * abs(t)

        for i in range(n):
            grid = np.linspace(x[i] - 5.0, x[i] + 5.0, 4001)
            grid = np.append(grid, [0.0, y[i]])
            vals = [model(i, t) for t in grid]
            assert model(i, y[i]) <= min(vals) + 1e-9


def test_dirl1_fixed_point_at_stationary_point(bench):
    x_star = np.array([0.0, 1.0])
    grad = bench.gradient_smooth(x_star)
    w = dirl1_weights(x_star, np.zeros(2), bench.reg)
    y = dirl1_subproblem(x_star - grad / 4.0, w, 4.0, bench.lam)
    assert np.allclose(y, x_star, atol=1e-14)


def test_dirl1_step_examples(bench):
    config = SolverConfig("DIRL1", alpha=0.5, mu=0.5, beta=4.0)
    state = make_initial_state(config, bench, np.array([2.0, 1.0]))
    new = dirl1_step(state, config, bench)
    assert np.allclose(new.x, 0.5 * state.x + 0.5 * new.y)
    assert np.allclose(new.eps, 0.75)  # 1 - 0.5*(1-0.5)
    geo = SolverConfig("DIRL1", alpha=0.5, mu=0.1, beta=4.0, eps_decay="geometric")
    state_g = make_initial_state(geo, bench, np.array([2.0, 1.0]))
    new_g = dirl1_step(state_g, geo, bench)
    assert np.allclose(new_g.eps, 0.1)


def test_damped_interpolation_is_exact(bench, rng):
    config = SolverConfig("DIRL1", alpha=0.2)
    state = make_initial_state(config, bench, rng.uniform(-3, 3, 2))
    for _ in range(25):
        new = dirl1_step(state, config, bench)
        assert np.allclose(new.x, (1 - 0.2) * state.x + 0.2 * new.y, atol=1e-16)
        state = new


def _small_least_squares():
    gen = np.random.default_rng(7)
    A = gen.normal(0.0, 1.0 / np.sqrt(6), (6, 4))
    return Problem(SmoothTerm("least_squares", A, gen.normal(size=6)),
                   Regularizer("LPN", 0.5), 0.1)


@pytest.mark.parametrize("eps_decay", ["damped", "geometric"])
@pytest.mark.parametrize("algorithm", ["DIRL1", "DIRL2"])
@pytest.mark.parametrize("problem", ["benchmark2d", "least_squares"])
def test_step_iterates_the_analysed_map(problem, algorithm, eps_decay, rng):
    """run()'s step is bitwise the map T that the Jacobians analyse; y is S's x-part."""
    prob = benchmark2d() if problem == "benchmark2d" else _small_least_squares()
    config = SolverConfig(algorithm, eps_decay=eps_decay)
    step = dirl1_step if algorithm == "DIRL1" else dirl2_step
    T = fixed_point_map(config, prob)
    S = solution_map(config, prob)
    n = prob.dimension
    for _ in range(5):
        state = make_initial_state(config, prob, rng.uniform(-3, 3, n))
        for _ in range(20):
            v = np.concatenate([state.x, state.eps])
            new = step(state, config, prob)
            Tv = T(v)
            assert np.array_equal(new.x, Tv[:n])
            assert np.array_equal(new.eps, Tv[n:])
            assert np.array_equal(new.y, S(v)[:n])
            state = new


def test_descent_violation_raises(bench):
    config = SolverConfig("DIRL1", alpha=0.9, beta=4.0)
    state = make_initial_state(config, bench, np.array([3.0, 3.0]))
    # lie about the current objective so any step looks like an increase
    state.F_perturbed = state.F_perturbed - 10.0
    with pytest.raises(NumericalFailure) as err:
        dirl1_step(state, config, bench)
    assert err.value.iteration == 1


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_non_finite_initial_objective_raises(bench):
    with pytest.raises(NumericalFailure, match="not finite") as err:
        run(SolverConfig("DIRL1"), bench, [1e200, 1e200])
    assert err.value.iteration == 0


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_objective_overflow_during_run_raises():
    # Unbounded below: x1 grows by 1 + alpha/beta per step until F hits -inf.
    prob = Problem(
        SmoothTerm("quadratic", np.diag([-1.0, 2.0]), np.zeros(2)),
        Regularizer("LOG", 1.0),
        1.0,
    )
    with pytest.raises(NumericalFailure, match="not finite") as err:
        run(SolverConfig("DIRL1"), prob, [1e154, 0.0])
    assert err.value.iteration >= 1


def _one_d_concave():
    return Problem(SmoothTerm("quadratic", [[-1.0]], [0.0]), Regularizer("LOG", 1.0), 1.0)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("step", [dirl1_step, dirl2_step])
def test_non_finite_step_raises_typed_failure(step):
    # f = -x^2/2 doubles x in the model step at beta = 1: y = 2x overflows.
    algorithm = "DIRL1" if step is dirl1_step else "DIRL2"
    config = SolverConfig(algorithm, beta=1.0)
    x = np.array([1.5e308])
    state = IterateState(k=4, x=x, eps=np.ones(1), y=x, F_perturbed=-math.inf,
                         step_norm=1.0)
    with pytest.raises(NumericalFailure, match="step is not finite") as err:
        step(state, config, _one_d_concave())
    assert err.value.iteration == 5


@pytest.mark.parametrize("step", [dirl1_step, dirl2_step])
@pytest.mark.parametrize("x, message", [
    (np.array([np.nan, 1.0]), "x must be finite"),
    (np.array([np.inf, 1.0]), "x must be finite"),
    (np.array([1.0, 2.0, 3.0]), r"x has shape \(3,\), expected \(2,\)"),
    (np.array([[1.0, 2.0]]), r"x has shape \(1, 2\), expected \(2,\)"),
])
def test_step_rejects_bad_state_x(bench, step, x, message):
    """The loop does not check x again, but a hand-built bad state is still refused."""
    config = SolverConfig("DIRL1" if step is dirl1_step else "DIRL2")
    state = IterateState(k=0, x=x, eps=np.ones(2), y=x, F_perturbed=1.0, step_norm=1.0)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match=message):
        step(state, config, bench)


@pytest.mark.parametrize("make_map", [solution_map, fixed_point_map])
@pytest.mark.parametrize("algorithm", ["DIRL1", "DIRL2"])
@pytest.mark.parametrize("v, message", [
    ([np.nan, 1.0, 1.0, 1.0], "x must be finite"),
    ([1.0, -np.inf, 1.0, 1.0], "x must be finite"),
    ([1.0], r"x has shape \(1,\), expected \(2,\)"),
    (np.ones((2, 2)), r"x has shape \(2, 2\), expected \(2,\)"),
])
def test_maps_reject_bad_x(bench, make_map, algorithm, v, message):
    apply = make_map(SolverConfig(algorithm), bench)
    with pytest.raises(ValueError, match=message):
        apply(v)


@pytest.mark.parametrize("make_map", [solution_map, fixed_point_map])
@pytest.mark.parametrize("algorithm", ["DIRL1", "DIRL2"])
@pytest.mark.parametrize("v", [[0.5, 1.0, np.nan, 0.1], [0.5, 1.0, 0.0, np.nan]])
def test_maps_refuse_nan_eps(bench, make_map, algorithm, v):
    # A NaN in x is test_maps_reject_bad_x's; the maps check only the x half.
    apply = make_map(SolverConfig(algorithm), bench)
    with pytest.raises(ValueError, match="x and eps must not hold NaN"):
        apply(v)


@pytest.mark.parametrize("weights", [dirl1_weights, dirl2_weights])
@pytest.mark.parametrize("family", ["LPN", "EXP"])
@pytest.mark.parametrize("x, eps", [
    ([0.5, np.nan], [1.0, 0.1]),
    ([0.0, np.nan], [0.0, 0.0]),
    ([0.5, 1.0], [np.nan, 0.1]),
    ([0.0, 1.0], [0.0, np.nan]),
    (np.nan, 1.0),
    (0.0, np.nan),
])
def test_weights_refuse_nan(weights, family, x, eps):
    with pytest.raises(ValueError, match="x and eps must not hold NaN"):
        weights(np.array(x), np.array(eps), Regularizer(family, 0.5))


def test_dirl2_weights():
    reg = Regularizer("LPN", 0.5)
    assert dirl2_weights(np.array([1.0]), np.zeros(1), reg)[0] == pytest.approx(0.25)
    assert dirl2_weights(np.zeros(1), np.zeros(1), reg)[0] == math.inf
    u = dirl2_weights(np.array([3.0]), np.array([4.0]), reg)
    assert u[0] == pytest.approx(reg.derivative(5.0) / 10.0)


def test_dirl2_weights_overflow_to_inf_without_a_warning():
    # A finite r'(z) over a tiny 2 z overflows to inf, the weight that pins
    # y_i to 0; the suite turns a RuntimeWarning into an error.
    reg = Regularizer("LPN", 0.5)
    assert dirl2_weights(np.array([1e-310, 1.0]), np.zeros(2), reg)[0] == math.inf
    assert dirl2_weights(np.array([1e-310, 0.0]), np.zeros(2), reg).tolist() == [math.inf] * 2
    # A long solve whose pinned coordinate's z falls that low; final_x has the
    # bits that the same solve gave before, with the warning ignored.
    problem = Problem(SmoothTerm("quadratic", np.diag([2.0, 0.1]), np.array([0.3, -2.5])),
                      reg, 1.0)
    trace = run(SolverConfig("DIRL2"), problem, np.array([3.0, 3.0]))
    assert trace.converged and trace.iterations == 4251
    assert [v.hex() for v in trace.final_x.tolist()] == [
        "-0x0.0000000000002p-1022", "0x1.7fa9b38565e8ep+4"]


def test_dirl2_subproblem():
    y = dirl2_subproblem(np.array([2.0]), np.array([0.5]), 1.0, 1.0)
    assert y[0] == pytest.approx(1.0)
    y0 = dirl2_subproblem(np.array([2.0]), np.array([np.inf]), 1.0, 1.0)
    assert y0[0] == 0.0


def test_dirl2_subproblem_overflow_to_zero_without_a_warning():
    # With 2 lam/beta = 2 > 1, a finite u near the float maximum overflows
    # (2 lam/beta) u to inf, and center / inf is y_i = +-0, the limit of a
    # huge weight, so no warning is due. The bits, zero signs included, are
    # those of the same formula with the overflow ignored.
    center = np.array([-3.0, 2.0, 0.5, -0.5])
    u = np.array([1.5e308, np.finfo(float).max, 1.0, np.inf])
    y = dirl2_subproblem(center, u, 1.0, 1.0)
    with np.errstate(over="ignore"):
        want = np.where(np.isinf(u), 0.0, center / (1.0 + 2.0 * u))
    assert y.tobytes() == want.tobytes()
    assert [math.copysign(1.0, v) for v in y[:2]] == [-1.0, 1.0] and y[:2].tolist() == [0.0, 0.0]


def test_long_dirl2_solve_near_the_fold_does_not_warn():
    # benchmark2d with lam = 2.15, just below the fold at lam* = (10/3) sqrt(5/12),
    # started 1e-4 above the saddle (0, s), where s is the smaller root of
    # lam = 5 sqrt(x) - 4 x^(3/2). The zero coordinate's u grows like
    # eps^(-3/2) until (2 lam/beta) u, with 2 lam/beta = 1.075, overflows;
    # under the suite's filterwarnings = error, a warning would fail the run.
    lam, s = 2.15, 0.39792591316349973
    assert abs(5.0 * math.sqrt(s) - 4.0 * s**1.5 - lam) < 1e-12
    bench = benchmark2d()
    trace = run(SolverConfig("DIRL2", eps0=1e-12), Problem(bench.smooth, bench.reg, lam),
                np.array([0.0, s + 1e-4]))
    assert trace.converged and trace.iterations == 5897
    assert [v.hex() for v in trace.final_x.tolist()] == ["0x0.0p+0", "0x1.be263aa019b51p-2"]


def _near_the_fold():
    """benchmark2d's term at lam = 2.15, and the saddle's x2: the smaller root
    s of lam = 5 sqrt(x) - 4 x^(3/2), bisected on (0, 5/12), where the right
    side increases, to the first float at which it reaches lam."""
    lam, lo, hi = 2.15, 0.0, 5.0 / 12.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if 5.0 * math.sqrt(mid) - 4.0 * mid**1.5 < lam else (lo, mid)
    assert abs(5.0 * math.sqrt(hi) - 4.0 * hi**1.5 - lam) < 1e-12
    bench = benchmark2d()
    return Problem(bench.smooth, bench.reg, lam), hi


@pytest.mark.parametrize("algorithm", ["DIRL1", "DIRL2"])
def test_support_lower_bound_is_below_the_limit_support(algorithm):
    # A limit nonzero x_i has lam r'(|x_i|) < beta C, so |x_i| exceeds the t
    # that solves lam r'(t) = beta C. The limit's nonzero here is 0.4357, and
    # the bound is 0.1017; lam r'(t) = C gave 1.627, above it, and with it an
    # L_r of 0.12 and a lipeomorphism_lhs below 1.
    problem, s = _near_the_fold()
    trace = run(SolverConfig(algorithm, eps0=1e-12), problem, np.array([0.0, s + 1e-4]))
    nonzero = np.abs(trace.limit_x[trace.limit_x != 0.0])
    assert trace.converged and nonzero.size == 1
    diag = trace.diagnostics
    assert 0.0 < diag["support_lower_bound"] <= nonzero.min()
    assert diag["support_lower_bound"] == pytest.approx(0.1017, abs=1e-4)
    assert diag["weight_curvature_bound"] == pytest.approx(7.712, abs=1e-3)
    assert diag["lipeomorphism_lhs"] == pytest.approx(1.389, abs=1e-3)
    assert diag["lipeomorphism_ok"] is False


@pytest.mark.parametrize("algorithm", ["DIRL1", "DIRL2"])
def test_run_near_a_saddle_is_not_reported_converged_at_it(algorithm):
    # Started 1e-8 above the strict saddle (0, s), the step along the
    # unstable mode stays below tol_step for ten iterations, but it grows
    # from step to step, so the stop rule does not count it.
    problem, s = _near_the_fold()
    trace = run(SolverConfig(algorithm, eps0=1e-12), problem, np.array([0.0, s + 1e-8]))
    at_saddle = (classify_stationary_point(problem, trace.limit_x).classification
                 == CLASS_STRICT_SADDLE)
    assert not (trace.converged and at_saddle)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_run_leaves_out_a_support_lower_bound_beyond_the_floats(algorithm):
    # C = |x0| puts the t of lam r'(t) = beta C near 1e600, whose power
    # raised OverflowError out of run; it is left out, as an unbracketed one is.
    problem = Problem(SmoothTerm("least_squares", [[0.0]], [0.0]), Regularizer("LPN", 0.5), 1.0)
    trace = run(SolverConfig(algorithm), problem, np.array([6.62210513e-301]))
    assert trace.converged and "support_lower_bound" not in trace.diagnostics


def _stop_without_the_contraction_test(trace):
    """The iteration at which the stop rule fired before it asked each step
    to be no larger than the last, read off a run recorded at every step; or
    None where it would not have fired in that run."""
    config, small = trace.config, 0
    for record in trace.records[1:]:
        small = small + 1 if record.step_norm <= config.tol_step else 0
        if small >= 10 and record.eps_inf <= config.tol_eps:
            return record.k
    return None


@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data(), family=st.sampled_from(FAMILIES), algorithm=st.sampled_from(ALGORITHMS))
def test_stop_rule_still_stops_where_steps_reach_the_rounding_floor(data, family, algorithm):
    """At a minimum the steps end at the rounding floor, where they can go up
    and down by an ulp; the stop rule must still fire within the budget of
    every run whose steps, counted without the contraction test, met it.
    Entries of A in [-1, 1] with m, n <= 5 keep L <= 25, below 2 beta / alpha."""
    m, n = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    entries = lambda lo, hi: st.floats(lo, hi, allow_subnormal=False)
    A = data.draw(hnp.arrays(np.float64, (m, n), elements=entries(-1.0, 1.0)))
    b = data.draw(hnp.arrays(np.float64, m, elements=entries(-2.0, 2.0)))
    x0 = data.draw(hnp.arrays(np.float64, n, elements=entries(-3.0, 3.0)))
    p = data.draw(entries(0.1, 0.9) if family == "LPN" else entries(0.2, 5.0))
    lam = data.draw(entries(0.05, 2.0))
    problem = Problem(SmoothTerm("least_squares", A, b), Regularizer(family, p), lam)
    trace = run(SolverConfig(algorithm, max_iter=20_000), problem, x0)
    fired = _stop_without_the_contraction_test(trace)
    assume(fired is not None)  # a run too slow for either rule says nothing of this one
    assert trace.converged, (fired, [r.step_norm for r in trace.records[-12:]])


def test_dirl2_subproblem_stationarity(rng):
    # grad_i + beta (y - x)_i + 2 lam u_i y_i = 0 at the model minimizer
    for _ in range(20):
        n = 4
        x = rng.normal(size=n)
        grad = rng.normal(size=n)
        u = rng.uniform(0.05, 5.0, n)
        beta = rng.uniform(0.5, 4.0)
        lam = rng.uniform(0.1, 2.0)
        y = dirl2_subproblem(x - grad / beta, u, beta, lam)
        res = grad + beta * (y - x) + 2.0 * lam * u * y
        assert np.max(np.abs(res)) <= 1e-10


def test_dirl2_step_geometric(bench):
    config = SolverConfig("DIRL2", alpha=0.5, mu=0.1, eps_decay="geometric")
    state = make_initial_state(config, bench, np.array([2.0, 1.0]))
    new = dirl2_step(state, config, bench)
    assert np.allclose(new.eps, 0.1)
    assert np.allclose(new.x, 0.5 * state.x + 0.5 * new.y)


@pytest.mark.parametrize("algorithm", ["DIRL1", "DIRL2"])
def test_run_converges_on_benchmark(bench, algorithm):
    trace = run(SolverConfig(algorithm), bench, np.array([3.0, 3.0]))
    assert trace.converged
    assert trace.final_residual <= 1e-6
    assert trace.limit_x[0] == 0.0
    x2 = trace.limit_x[1]
    stationary = (0.0, (3.0 - 2.0 * math.sqrt(2.0)) / 4.0, 1.0)
    assert min(abs(x2 - s) for s in stationary) <= 1e-6
    # monotone objective along the recorded iterations
    F = np.array([rec.F_perturbed for rec in trace.records])
    assert np.all(np.diff(F) <= 1e-10 * np.maximum(1.0, np.abs(F[:-1])))
    # final steps all below tolerance
    tail_steps = [rec.step_norm for rec in trace.records[-10:]]
    assert all(s <= trace.config.tol_step for s in tail_steps)


@pytest.mark.parametrize("algorithm", ["DIRL1", "DIRL2"])
def test_run_telescoped_descent(bench, algorithm):
    config = SolverConfig(algorithm)
    trace = run(config, bench, np.array([3.0, 3.0]), trace_full=True)
    xs = np.asarray([x for x, _ in trace.states])
    sum_sq = float(np.sum((xs[1:] - xs[:-1]) ** 2))
    drop = trace.records[0].F_perturbed - trace.records[-1].F_perturbed
    bound = (config.beta / config.alpha - 1.0) * sum_sq  # L = 2
    assert drop >= bound - 1e-8 * trace.iterations


@pytest.mark.parametrize("algorithm", ["DIRL1", "DIRL2"])
def test_fixed_point_consistency(bench, algorithm):
    config = SolverConfig(algorithm)
    trace = run(config, bench, np.array([3.0, 3.0]))
    x = trace.final_x
    grad = bench.gradient_smooth(x)
    if algorithm == "DIRL1":
        y = dirl1_subproblem(x - grad / 4.0, dirl1_weights(x, np.zeros(2), bench.reg), 4.0, 1.0)
    else:
        y = dirl2_subproblem(x - grad / 4.0, dirl2_weights(x, np.zeros(2), bench.reg), 4.0, 1.0)
    assert np.linalg.norm(x - y) <= 10.0 * config.tol_step


def test_run_stays_at_stationary_start(bench):
    config = SolverConfig("DIRL1", eps0=1e-12, max_iter=200)
    x_star = np.array([0.0, 1.0])
    trace = run(config, bench, x_star)
    assert np.max(np.abs(trace.final_x - x_star)) <= 10.0 * config.tol_step


def test_run_zero_budget(bench):
    trace = run(SolverConfig("DIRL1", max_iter=0), bench, np.array([1.0, 1.0]))
    assert not trace.converged
    assert trace.iterations == 0
    assert len(trace.records) == 1
    assert trace.records[0].step_norm == math.inf


def test_run_is_deterministic(bench):
    a = run(SolverConfig("DIRL2"), bench, np.array([2.0, -1.0]))
    b = run(SolverConfig("DIRL2"), bench, np.array([2.0, -1.0]))
    assert a.iterations == b.iterations
    assert np.array_equal(a.final_x, b.final_x)
    assert a.records == b.records


def test_validate_config(bench):
    ok = validate_config(SolverConfig("DIRL1", alpha=0.5, beta=1.0), bench)
    assert ok.ok and not ok.hard_errors  # beta > alpha*L/2 = 0.5
    bad = validate_config(SolverConfig("DIRL1", alpha=0.99, beta=0.1), bench)
    assert not bad.ok and "beta" in bad.hard_errors[0]
    with pytest.raises(ConfigValidationError):
        run(SolverConfig("DIRL1", alpha=0.99, beta=0.1), bench, np.zeros(2))


def test_validate_config_checks_beta_against_an_upper_bound_on_L():
    # L = 2 exactly on diag(2, 2); beta one ulp above alpha*L/2 passes an
    # exact comparison but not one against L raised by LAPACK's rounding margin.
    prob = Problem(
        SmoothTerm("quadratic", np.diag([2.0, 2.0]), np.zeros(2)),
        Regularizer("EXP", 1.0),
        1.0,
    )
    alpha = 0.5
    L = prob.estimate_lipschitz_gradient()
    assert L == 2.0
    beta = float(np.nextafter(alpha * L / 2.0, np.inf))
    report = validate_config(SolverConfig("DIRL1", alpha=alpha, beta=beta), prob)
    assert not report.ok and "rounding margin" in report.hard_errors[0]
    assert report.lipschitz_gradient == L
    with pytest.raises(ConfigValidationError):
        run(SolverConfig("DIRL1", alpha=alpha, beta=beta), prob, np.zeros(2))
    assert validate_config(SolverConfig("DIRL1", alpha=alpha, beta=1.001 * beta), prob).ok


def test_validate_lipeomorphism_margin():
    # alpha (2 + L/beta + lam L_r / beta + mu) = 0.2 * 2.4 = 0.48 < 1
    prob = Problem(
        SmoothTerm("quadratic", 2.0 * np.eye(2), np.zeros(2)),
        Regularizer("EXP", 1.0),
        1.0,
    )
    report = validate_config(SolverConfig("DIRL1", alpha=0.2, beta=10.0, mu=0.1), prob)
    assert report.lipeomorphism_lhs == pytest.approx(0.48, abs=1e-12)
    assert not any("invertibility inequality alpha" in w for w in report.warnings)
    # tighter parameters violate the sufficient condition -> warning, not error
    report2 = validate_config(SolverConfig("DIRL1", alpha=0.45, beta=10.0, mu=0.1), prob)
    assert report2.ok
    assert any("invertibility" in w for w in report2.warnings)


def test_validate_warns_dirl2_for_lipschitz_regularizer(bench):
    # Every penalty with a finite r'(0+): the built-ins and a custom one.
    custom = CustomRegularizer(lambda t: t / (1.0 + t), lambda t: 1.0 / (1.0 + t) ** 2,
                               lambda t: -2.0 / (1.0 + t) ** 3, 1.0, -2.0)
    for reg in [*(Regularizer(family, 1.0) for family in ("EXP", "LOG", "FRA", "TAN")), custom]:
        report = validate_config(SolverConfig("DIRL2"), Problem(bench.smooth, reg, 1.0))
        assert any("smoothness condition fails" in w for w in report.warnings), reg
    report_lpn = validate_config(SolverConfig("DIRL2"), bench)
    assert not any("smoothness condition fails" in w for w in report_lpn.warnings)


def test_custom_regularizer_without_second_derivative_at_zero_runs(bench):
    # r'(0+) = 1 is finite, and r''(0+) was not given: the invertibility
    # inequality cannot be evaluated, which is a warning, not an error.
    reg = CustomRegularizer(lambda t: t / (1 + t), lambda t: 1 / (1 + t) ** 2,
                            lambda t: -2 / (1 + t) ** 3, 1.0)
    problem = Problem(bench.smooth, reg, 1.0)
    report = validate_config(SolverConfig("DIRL1"), problem)
    assert report.ok and report.lipeomorphism_lhs is None
    assert any("invertibility inequality not checkable" in w for w in report.warnings)
    trace = run(SolverConfig("DIRL1"), problem, [3, 3])
    assert trace.converged and "lipeomorphism_lhs" not in trace.diagnostics


def test_validate_checks_a_custom_penalty_against_assumption1(bench):
    # The loop takes r' without checking its domain again, so a custom
    # penalty is checked once per solve, before the first step, on a grid.
    convex = CustomRegularizer(lambda t: t + t**2, lambda t: 1.0 + 2.0 * t, lambda t: 2.0,
                               1.0, 2.0)
    concave = CustomRegularizer(lambda t: t / (1.0 + t), lambda t: 1.0 / (1.0 + t) ** 2,
                                lambda t: -2.0 / (1.0 + t) ** 3, 1.0, -2.0)
    failing = CustomRegularizer(lambda t: t, lambda t: math.log(-t), lambda t: 0.0, 1.0, 0.0)
    builtins = [bench.reg, *(Regularizer(family, 1.0) for family in ("EXP", "LOG", "FRA", "TAN"))]
    for algorithm in ("DIRL1", "DIRL2"):
        config = SolverConfig(algorithm)

        def warnings(reg):
            return [w for w in validate_config(config, Problem(bench.smooth, reg, 1.0)).warnings
                    if "custom penalty" in w]

        assert [w.split(" on the grid")[0] for w in warnings(convex)] == [
            "custom penalty fails Assumption 1"]
        assert warnings(failing) == [
            "custom penalty: Assumption 1 not checkable: math domain error"]
        for reg in [concave, *builtins]:
            assert warnings(reg) == [], reg


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig("DIRL3")
    with pytest.raises(ValueError):
        SolverConfig("DIRL1", alpha=1.0)
    with pytest.raises(ValueError):
        SolverConfig("DIRL1", mu=0.0)
    with pytest.raises(ValueError):
        SolverConfig("DIRL1", eps0=0.0)
    with pytest.raises(ValueError):
        SolverConfig("DIRL1", eps_decay="linear")
    with pytest.raises(ValueError):
        SolverConfig.from_dict({"algorithm": "DIRL1", "bogus": 1})
    cfg = SolverConfig.from_dict(SolverConfig("DIRL2", eps0=[1.0, 2.0]).to_dict())
    assert cfg.algorithm == "DIRL2"
    assert np.allclose(cfg.initial_eps(2), [1.0, 2.0])
    with pytest.raises(ValueError):
        cfg.initial_eps(3)


@pytest.mark.parametrize("field, value", [
    ("alpha", math.nan), ("beta", math.inf), ("beta", math.nan),
    ("mu", math.inf), ("tol_step", math.inf), ("tol_eps", math.nan),
    ("beta", "4"), ("beta", True), ("mu", [0.3]), ("tol_step", None),
    ("tol_eps", [1e-10]), ("eps0", True), ("eps0", "1"), ("eps0", [1.0, True]),
])
def test_solver_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match="finite|lie in"):
        SolverConfig("DIRL1", **{field: value})


def test_solver_config_rejects_an_empty_eps0():
    # an empty list used to pass every entry check and fail only in run
    with pytest.raises(ValueError, match="^eps0 must be a positive number or a non-empty list"):
        SolverConfig("DIRL1", eps0=[])
    with pytest.raises(ValueError, match="^solver config: eps0 "):
        SolverConfig.from_dict({"algorithm": "DIRL1", "eps0": []})


@pytest.mark.parametrize("value", [math.inf, 10.5, True, -1, "100"])
def test_solver_config_rejects_non_integer_max_iter(value):
    with pytest.raises(ValueError, match="max_iter"):
        SolverConfig("DIRL1", max_iter=value)
    assert SolverConfig("DIRL1", max_iter=np.int64(5)).max_iter == 5


def test_solver_config_is_frozen_and_typed():
    cfg = SolverConfig.from_dict({"algorithm": "DIRL2", "beta": 4, "eps0": [1, 2]})
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.alpha = 0.5
    assert type(cfg.beta) is float and cfg.eps0 == (1.0, 2.0)
    assert SolverConfig.from_dict(cfg.to_dict()) == cfg


def test_eps_strictly_decreasing(bench):
    config = SolverConfig("DIRL1", max_iter=50)
    state = make_initial_state(config, bench, np.array([1.0, 1.0]))
    for _ in range(10):
        new = dirl1_step(state, config, bench)
        assert np.all(new.eps < state.eps)
        assert np.all(new.eps > 0.0)
        state = new


def test_trace_csv_round_trip(bench, tmp_path):
    trace = run(SolverConfig("DIRL1", max_iter=40), bench, np.array([1.0, 0.5]))
    path = tmp_path / "trace.csv"
    trace_to_csv(trace, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "F_perturbed", "step_norm", "eps_inf", "support_bits"]
    assert len(rows) == len(trace.records) + 1
    k, F, step, eps_inf, bits = rows[1]
    assert int(k) == 0
    assert float(F) == trace.records[0].F_perturbed
    assert float(step) == math.inf
    assert set(rows[-1][4]) <= {"+", "-", "0"}


def _csv_writer_bytes(records):
    """The CSV of ``records`` as ``csv.writer`` writes it: the oracle for trace_to_csv."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["k", "F_perturbed", "step_norm", "eps_inf", "support_bits"])
    for rec in records:
        writer.writerow([rec.k, repr(rec.F_perturbed), repr(rec.step_norm),
                         repr(rec.eps_inf), rec.support_bits])
    return buf.getvalue().encode()


def test_trace_csv_is_csv_writer_bytes(bench, tmp_path):
    trace = run(SolverConfig("DIRL1"), bench, np.array([1.0, 0.5]), record_every=50)
    assert trace.records[0].step_norm == math.inf and len(trace.records) > 2
    edge = dataclasses.replace(trace, records=[
        TraceRecord(0, math.nan, math.inf, -0.0, "+-0"),
        TraceRecord(1, -math.inf, 5e-324, 1e16, "0+-"),
        TraceRecord(2, 1e-05, -0.0, math.nan, "--00++"),
    ])
    for case in (trace, edge):
        path = tmp_path / "trace.csv"
        trace_to_csv(case, path)
        assert path.read_bytes() == _csv_writer_bytes(case.records)


def test_trace_jsonl_export(bench, tmp_path):
    trace = run(SolverConfig("DIRL1", max_iter=10), bench, np.array([1.0, 0.5]),
                trace_full=True)
    path = tmp_path / "states.jsonl"
    trace_states_to_jsonl(trace, path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == trace.iterations + 1
    first = json.loads(lines[0])
    assert first["k"] == 0 and first["x"] == [1.0, 0.5]
    # a bare run keeps only the last TAIL_WINDOW states, so they start at
    # k = 0 only when it takes fewer than TAIL_WINDOW iterations
    bare = run(SolverConfig("DIRL1", max_iter=TAIL_WINDOW), bench, np.array([1.0, 0.5]))
    assert bare.iterations == TAIL_WINDOW and len(bare.states) == TAIL_WINDOW
    with pytest.raises(ValueError, match="does not start at k = 0"):
        trace_states_to_jsonl(bare, path)
    short = tmp_path / "short.jsonl"
    trace_states_to_jsonl(run(SolverConfig("DIRL1", max_iter=TAIL_WINDOW - 1), bench,
                              np.array([1.0, 0.5])), short)
    twin = tmp_path / "twin.jsonl"
    trace_states_to_jsonl(run(SolverConfig("DIRL1", max_iter=TAIL_WINDOW - 1), bench,
                              np.array([1.0, 0.5]), trace_full=True), twin)
    assert short.read_bytes() == twin.read_bytes()
    assert len(short.read_text().splitlines()) == TAIL_WINDOW


def test_record_thinning(bench):
    full = run(SolverConfig("DIRL1"), bench, np.array([3.0, 3.0]))
    thin = run(SolverConfig("DIRL1"), bench, np.array([3.0, 3.0]), record_every=50)
    assert len(thin.records) < len(full.records)
    assert thin.records[-1].k == full.records[-1].k
    assert thin.converged and thin.iterations == full.iterations


#: Entries on both sides of the support threshold, signed zeros and subnormals.
FINGERPRINT_ENTRIES = st.one_of(
    st.sampled_from((
        SUPPORT_TOL, -SUPPORT_TOL, math.nextafter(SUPPORT_TOL, 1.0),
        -math.nextafter(SUPPORT_TOL, 1.0), math.nextafter(SUPPORT_TOL, 0.0),
        0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-309, math.nan,
    )),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(max_examples=200, deadline=None, database=None)
@given(y=hnp.arrays(np.float64, st.integers(0, 40), elements=FINGERPRINT_ENTRIES))
def test_record_bits_are_the_support_fingerprint(y):
    state = IterateState(k=0, x=y, eps=np.ones(1), y=y, F_perturbed=0.0, step_norm=0.0)
    assert _record(state, 1.0).support_bits == support(y).bits


def test_tail_keeps_the_last_iterates_as_a_list(bench):
    for max_iter in (3, 200):
        config = SolverConfig("DIRL1", max_iter=max_iter)
        full = run(config, bench, np.array([3.0, 3.0]), trace_full=True)
        bare = run(config, bench, np.array([3.0, 3.0]))
        assert type(full.states) is list and type(bare.states) is list
        assert len(full.states) == full.iterations + 1
        assert len(bare.states) == min(bare.iterations + 1, TAIL_WINDOW)
        for (x, eps), (x_full, eps_full) in zip(bare.states, full.states[-TAIL_WINDOW:]):
            assert x.tobytes() == x_full.tobytes() and eps.tobytes() == eps_full.tobytes()
        # each state is kept once: final_x is the last state's array, uncopied
        assert full.final_x is full.states[-1][0] and bare.final_x is bare.states[-1][0]


def _eps_inf_bits(trace):
    """Each record's eps_inf, and the max of the eps it records, as hex lists."""
    return ([r.eps_inf.hex() for r in trace.records],
            [float(trace.states[r.k][1].max()).hex() for r in trace.records])


@pytest.mark.parametrize("eps0", [1.0, [1.0, 0.3]])
@pytest.mark.parametrize("eps_decay", ["damped", "geometric"])
@pytest.mark.parametrize("algorithm", ["DIRL1", "DIRL2"])
def test_record_eps_inf_is_the_max_of_eps(bench, algorithm, eps_decay, eps0):
    config = SolverConfig(algorithm, eps_decay=eps_decay, eps0=eps0)
    trace = run(config, bench, np.array([3.0, 3.0]), trace_full=True)
    assert trace.converged and len(trace.records) == trace.iterations + 1
    got, want = _eps_inf_bits(trace)
    assert got == want


@pytest.mark.parametrize("eps_decay", ["damped", "geometric"])
@pytest.mark.parametrize("d, iterations", [(0.1, 4251), (0.08, 5308)])
def test_record_eps_inf_is_exact_down_to_underflow(d, iterations, eps_decay):
    # f = x'diag(2, d)x / 2 + (0.3, -2.5)'x: long DIRL2 LPN solves in which
    # eps falls to subnormals (damped, d = 0.08) or to 0 (geometric)
    problem = Problem(SmoothTerm("quadratic", np.diag([2.0, d]), np.array([0.3, -2.5])),
                      Regularizer("LPN", 0.5), 1.0)
    trace = run(SolverConfig("DIRL2", eps_decay=eps_decay), problem, np.array([3.0, 3.0]),
                trace_full=True)
    assert trace.converged and trace.iterations == iterations
    got, want = _eps_inf_bits(trace)
    assert got == want
    # every kept state passed the objective's check, so --trace-full writes no Infinity
    assert all(np.isfinite(x).all() and np.isfinite(eps).all() for x, eps in trace.states)
    last = trace.records[-1].eps_inf
    if eps_decay == "geometric":
        assert last == 0.0
    elif d == 0.08:
        assert 0.0 < last < sys.float_info.min


#: A quiet NaN whose payload differs from math.nan's.
OTHER_NAN = float(np.int64(0x7FF8_0000_0000_0ABC).view(np.float64))

#: Signed zeros, subnormals, the float extremes, NaNs of both signs and
#: another payload, and +-inf.
STATE_ENTRIES = st.one_of(
    st.sampled_from((
        0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e308, -1e308,
        sys.float_info.max, math.nan, -math.nan, math.inf, -math.inf, OTHER_NAN,
    )),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def state_vectors(draw):
    """A float vector of 0 to 12 entries: drawn, uniform, or a strided or reversed view."""
    n = draw(st.integers(0, 12))
    layout = draw(st.sampled_from(("drawn", "uniform", "strided", "reversed")))
    if layout == "uniform":
        return np.full(n, draw(STATE_ENTRIES))
    if layout == "strided":
        return draw(hnp.arrays(np.float64, 2 * n, elements=STATE_ENTRIES))[::2]
    v = draw(hnp.arrays(np.float64, n, elements=STATE_ENTRIES))
    return v[::-1] if layout == "reversed" else v


def _oracle_lines(states):
    return "".join(json.dumps({"k": k, "x": x.tolist(), "eps": eps.tolist()}) + "\n"
                   for k, (x, eps) in enumerate(states)).encode()


@settings(max_examples=300, deadline=None, database=None)
@given(states=st.lists(st.tuples(state_vectors(), state_vectors()), min_size=1, max_size=4))
@example(states=[(np.array([0.0, -0.0, 0.0, 1.5]), np.array([math.nan, math.inf, -math.inf, 2.0])),
                 (np.zeros(0), np.full(3, 5e-324)), (np.array([-0.0]), np.array([1e308]))])
@example(states=[(np.zeros(0), np.full(3, -0.0)), (np.full(3, 0.0), np.full(3, math.nan)),
                 (np.full(4, math.inf), np.array([math.nan, OTHER_NAN]))])
def test_trace_jsonl_lines_are_json_dumps(states):
    trace = types.SimpleNamespace(states=states, iterations=len(states) - 1)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "states.jsonl")
        trace_states_to_jsonl(trace, path)
        with open(path, "rb") as fh:
            assert fh.read() == _oracle_lines(states)


#: Any finite float64, from its 64-bit pattern: signed zeros and subnormals included.
FINITE_FLOATS = st.integers(0, 2**64 - 1).filter(lambda b: (b >> 52) & 0x7FF != 0x7FF).map(
    lambda b: float(np.uint64(b).view(np.float64)))


@settings(max_examples=200, deadline=None, database=None)
@given(uniform=st.lists(st.tuples(FINITE_FLOATS, st.integers(1, 50)), min_size=1, max_size=12),
       others=st.lists(state_vectors(), max_size=6), order=st.randoms(use_true_random=False))
def test_trace_jsonl_uniform_rows_keep_their_own_values(uniform, others, order):
    """Rows of one finite bit pattern each send one value to the kernel; mixed
    in one chunk with bulk, NaN/inf and empty rows, every row gets its own
    value back. 0.0 and -0.0 rows sit side by side, so rows merged by value
    instead of by bit pattern show."""
    rows = [np.full(n, value) for value, n in uniform] + others
    rows += [np.full(3, math.nan), np.array([1.5, -math.inf]), np.zeros(0)]
    order.shuffle(rows)
    rows[:0] = [np.zeros(2), np.full(4, -0.0)]
    if len(rows) % 2:
        rows.append(np.full(5, 0.25))
    states = list(zip(rows[::2], rows[1::2]))
    assert sum(x.size + eps.size for x, eps in states) <= _JSONL_CHUNK
    trace = types.SimpleNamespace(states=states, iterations=len(states) - 1)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "states.jsonl")
        trace_states_to_jsonl(trace, path)
        with open(path, "rb") as fh:
            assert fh.read() == _oracle_lines(states)


def test_trace_jsonl_of_a_run_with_an_eps0_tuple(tmp_path):
    """A run from an eps0 of two distinct values, whose eps underflows to 0."""
    problem = _small_least_squares()
    eps0 = tuple(1e-300 if i % 3 else 0.5 for i in range(problem.dimension))
    config = SolverConfig("DIRL2", eps0=eps0, mu=1e-3, eps_decay="geometric", max_iter=120,
                          tol_step=5e-324)
    trace = run(config, problem, np.zeros(problem.dimension), trace_full=True)
    assert not trace.states[-1][1].any() and trace.states[3][1].any()
    path = tmp_path / "states.jsonl"
    trace_states_to_jsonl(trace, path)
    assert path.read_bytes() == _oracle_lines(trace.states)


def test_trace_jsonl_over_several_chunks_is_json_dumps(tmp_path):
    """Ragged and empty rows, uniform and non-uniform eps rows, rows with NaN
    and infinities, and states larger than a chunk, first and later, over
    several chunks."""
    rng = np.random.default_rng(29)
    states = []
    for k in range(90):
        n = int(rng.integers(1, 300)) if k % 7 else 0
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
        eps = np.full(n, 0.9**k) if k % 3 else rng.random(n) * 10.0 ** -k
        states.append((x, eps))
    states[5] = (np.array([1.0, math.nan, -math.inf, -0.0]), np.array([math.inf, 0.25, 0.25]))
    states[6] = (np.full(3, math.nan), np.array([0.0, -0.0, 5e-324]))
    for k in (0, 40):
        states[k] = (rng.standard_normal(_JSONL_CHUNK + 1), np.full(_JSONL_CHUNK + 1, 1e-3))
    assert sum(x.size + eps.size for x, eps in states) > 5 * _JSONL_CHUNK
    trace = types.SimpleNamespace(states=states, iterations=len(states) - 1)
    path = tmp_path / "states.jsonl"
    trace_states_to_jsonl(trace, path)
    assert path.read_bytes() == _oracle_lines(states)


#: escape with each algorithm, a least-squares run with classify and a solve
#: without --trace-full, all under the directory argv[1]; prints whether the
#: float kernel got imported.
NO_STATES_FILE = """
import json, os, sys
import numpy as np
from dirw.analysis import classify_stationary_point
from dirw.cli import main
from dirw.problems import Problem, SmoothTerm
from dirw.regularizers import Regularizer
from dirw.solvers import SolverConfig, run

experiment = os.path.join(sys.argv[1], "experiment.json")
for algorithm in ("DIRL1", "DIRL2"):
    with open(experiment, "w") as fh:
        json.dump({"problem": "benchmark2d", "solver": {"algorithm": algorithm}, "num_inits": 2,
                   "init_box": [[-3, -3], [3, 3]], "seed": 3}, fh)
    assert main(["escape", "--config", experiment,
                 "--out", os.path.join(sys.argv[1], "escape.json")]) == 0
gen = np.random.default_rng(5)
A = gen.normal(size=(30, 60)) / np.sqrt(30)
problem = Problem(SmoothTerm("least_squares", A, gen.normal(size=30)),
                  Regularizer("LPN", 0.5), 0.05)
classify_stationary_point(problem, run(SolverConfig("DIRL1"), problem, np.zeros(60)).final_x)
assert main(["solve", "--x0", "3,3", "--out", os.path.join(sys.argv[1], "run")]) == 0
print("dirw._floatrepr" in sys.modules)
"""


def test_only_a_states_file_imports_the_float_kernel(tmp_path):
    """Work that writes no states file leaves dirw._floatrepr unimported, in a
    fresh interpreter: it has tables to build and nothing else needs it."""
    import dirw

    src = os.path.dirname(os.path.dirname(dirw.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-W", "error", "-c", NO_STATES_FILE, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"
