import math

import numpy as np
import pytest

from dirw.analysis import (
    CLASS_STRICT_LOCAL_MIN,
    CLASS_STRICT_SADDLE,
    SaddleReport,
    classify_stationary_point,
    hessian_norm,
    support,
    symmetric_eigen,
)
from dirw.cli import _tail_sample_points
from dirw.errors import NonStationaryPointError, NumericalFailure
from dirw.jacobians import (
    FixedPointJacobian,
    dirl1_jacobian,
    dirl2_jacobian,
    estimate_map_lipschitz,
    finite_difference_jacobian,
    full_jacobian,
    saddle_unstable_equivalence,
    unstable_fixed_point_check,
)
from dirw.problems import Problem, SmoothTerm
from dirw.regularizers import CustomRegularizer, Regularizer
from dirw.solvers import SolverConfig, fixed_point_map, run, solution_map

ALPHA, BETA, MU = 0.2, 4.0, 0.3


def test_dirl1_jacobian_at_minimum(bench):
    jac = dirl1_jacobian(bench, [0.0, 1.0], ALPHA, BETA, MU)
    assert jac.active == (1,) and jac.inactive == (0,)
    # block eigenvalue 1 - (alpha/beta) * 1.75, structural 1-alpha and
    # relaxation factor 1 - alpha(1-mu) with multiplicity n
    assert np.allclose(np.sort(jac.spectrum), [0.8, 0.86, 0.86, 0.9125], atol=1e-12)
    assert jac.scalar_J == pytest.approx(0.8)
    assert jac.scalar_eps == pytest.approx(0.86)
    assert not unstable_fixed_point_check(jac)


def test_dirl1_jacobian_at_saddle(bench, saddle_x2):
    jac = dirl1_jacobian(bench, [0.0, saddle_x2], ALPHA, BETA, MU)
    expected = 1.0 - (ALPHA / BETA) * (2.0 - 0.25 * saddle_x2**-1.5)
    assert expected == pytest.approx(2.3071068, abs=1e-6)
    assert jac.spectrum[-1] == pytest.approx(expected, abs=1e-9)
    assert unstable_fixed_point_check(jac)


def test_dirl1_jacobian_rejects_nonstationary(bench):
    with pytest.raises(NonStationaryPointError):
        dirl1_jacobian(bench, [1.0, 1.0], ALPHA, BETA, MU)


@pytest.mark.parametrize("jacobian", [dirl1_jacobian, dirl2_jacobian])
def test_jacobian_gate_is_the_classification_gate(bench, jacobian):
    with pytest.raises(NonStationaryPointError) as direct:
        classify_stationary_point(bench, [1.0, 1.0])
    with pytest.raises(NonStationaryPointError,
                       match=r"^point is not stationary: residual=.*, margin=") as err:
        jacobian(bench, [1.0, 1.0], ALPHA, BETA, MU)
    assert str(err.value) == str(direct.value)
    assert err.value.residual == direct.value.residual


def test_dirl2_jacobian_at_minimum(bench):
    jac = dirl2_jacobian(bench, [0.0, 1.0], ALPHA, BETA, MU)
    # active-block scaling 1 + (lam/beta) r'(1)/1 = 1.125 divides the
    # restricted Hessian before the spectral map
    expected = 1.0 - (ALPHA / BETA) * 1.75 / 1.125
    assert jac.spectrum[-1] == pytest.approx(expected, abs=1e-12)
    assert not unstable_fixed_point_check(jac)


def test_dirl2_jacobian_at_saddle(bench, saddle_x2):
    jac = dirl2_jacobian(bench, [0.0, saddle_x2], ALPHA, BETA, MU)
    r = bench.reg
    P = 1.0 + 0.25 * r.derivative(saddle_x2) / saddle_x2
    expected = 1.0 - (ALPHA / BETA) * (2.0 - 0.25 * saddle_x2**-1.5) / P
    assert expected > 1.0 + 1e-6
    assert jac.spectrum[-1] == pytest.approx(expected, abs=1e-9)
    assert unstable_fixed_point_check(jac)


def test_dirl2_jacobian_requires_lpn_or_full_support():
    prob = Problem(
        SmoothTerm("quadratic", 2.0 * np.eye(2), np.array([0.0, -2.5])),
        Regularizer("EXP", 1.0),
        1.0,
    )
    # (0, x2) stationary points of this objective keep coordinate 1 inactive
    x2 = 1.097159736276423  # solves 2(x2 - 5/4) + e^{-x2} = 0
    with pytest.raises(ValueError):
        dirl2_jacobian(prob, [0.0, x2], ALPHA, BETA, MU)


def test_dirl2_block_eigenvalue_exactly_one_when_hessian_vanishes():
    # restricted Hessian 0 at x* = 1 (see the degenerate construction),
    # J* empty so the weighted-l2 Jacobian applies; the map has a unit
    # eigenvalue exactly.
    h = math.exp(-1.0)
    prob = Problem(
        SmoothTerm("quadratic", np.array([[h]]), np.array([-2.0 * h])),
        Regularizer("EXP", 1.0),
        1.0,
    )
    jac = dirl2_jacobian(prob, [1.0], ALPHA, BETA, MU)
    assert np.max(jac.spectrum) == pytest.approx(1.0, abs=1e-12)
    assert not unstable_fixed_point_check(jac)


def test_unstable_check_boundary():
    # a strict saddle's report, so the verdict asks for instability
    saddle = SaddleReport(restricted=-np.eye(1), eigenvalues=-np.ones(1),
                          pattern=support([1.0, 0.0]))
    jac = FixedPointJacobian(
        config=SolverConfig("DIRL1", ALPHA, BETA, MU), saddle=saddle,
        block_II=np.eye(1), off_IJ=np.zeros((1, 1)), off_Ieps=np.zeros(1),
        block_eigenvalues=np.array([1.0]),
    )
    assert (jac.dimension, jac.active, jac.inactive) == (2, (0,), (1,))
    assert not unstable_fixed_point_check(jac) and not jac.consistent
    jac.block_eigenvalues = np.array([0.9125])
    assert jac.spectrum.tolist() == [0.8, 0.86, 0.86, 0.9125]
    assert not unstable_fixed_point_check(jac) and not jac.consistent
    jac.block_eigenvalues = np.array([2.307])
    assert unstable_fixed_point_check(jac) and jac.consistent
    assert jac.detail == "strict saddle must be unstable"


def _lasso_limit():
    """A 20 x 40 least-squares problem and its DIRL1 limit, which has
    inactive coordinates."""
    gen = np.random.default_rng(3)
    A = gen.normal(0.0, 1.0 / np.sqrt(20), (20, 40))
    x_true = np.zeros(40)
    x_true[:4] = [1.5, -1.0, 2.0, -1.2]
    prob = Problem(SmoothTerm("least_squares", A, A @ x_true + 0.01 * gen.normal(size=20)),
                   Regularizer("LPN", 0.5), 0.05)
    return prob, run(SolverConfig("DIRL1"), prob, np.zeros(40)).limit_x


def test_spectrum_keeps_the_bytes_of_its_sorted_union(bench, saddle_x2):
    """``spectrum`` is formed on read; its bytes are those of the sorted
    union that the Jacobian once stored, which perfbench hashes."""
    lasso, limit = _lasso_limit()
    cases = [(jacobian, bench, [0.0, x2]) for jacobian in (dirl1_jacobian, dirl2_jacobian)
             for x2 in (saddle_x2, 1.0)] + [(dirl1_jacobian, lasso, limit)]
    for jacobian, prob, x_star in cases:
        jac = jacobian(prob, x_star, ALPHA, BETA, MU)
        stored = np.sort(np.concatenate([jac.block_eigenvalues,
                                         np.full(len(jac.inactive), 1.0 - ALPHA),
                                         np.full(prob.dimension, 1.0 - ALPHA * (1.0 - MU))]))
        assert jac.spectrum.tobytes() == stored.tobytes()
    assert jac.inactive and jac.active


def test_finite_difference_recovers_linear_map(rng):
    # no truncation error on a linear map, so a larger h avoids the
    # rounding amplification of tiny steps
    M = rng.normal(size=(6, 6))
    J = finite_difference_jacobian(lambda v: M @ v, rng.normal(size=6), h=1e-4)
    assert np.max(np.abs(J - M)) <= 1e-10 * max(1.0, np.max(np.abs(M)))


def test_finite_difference_flags_bad_column():
    def bad(v):
        return np.array([1.0 / (v[1] - 1.0)])

    # columns other than 1 keep v[1] = 1, so the first one already blows up
    with pytest.raises(NumericalFailure, match="column 0"):
        finite_difference_jacobian(bad, np.array([0.0, 1.0]), h=1e-6)


def _smooth_points(prob, config, rng, count):
    """``count`` seeded (x, eps) pairs; DIRL1 ones lie 1e-5 or more from its
    threshold kink."""
    n = prob.dimension
    while count:
        x = rng.uniform(0.1, 2.0, n) * rng.choice([-1.0, 1.0], n)
        eps = rng.uniform(0.1, 1.0, n)
        if config.algorithm == "DIRL1":
            grad = prob.gradient_smooth(x)
            w = np.atleast_1d(prob.reg.derivative(np.abs(x) + eps))
            margin = np.abs(np.abs(x - grad / config.beta) - prob.lam * w / config.beta)
            if np.min(margin) < 1e-5:
                continue
        yield x, eps
        count -= 1


@pytest.mark.parametrize("algorithm", ["DIRL1", "DIRL2"])
def test_analytic_matches_fd_at_smooth_points(bench, algorithm, rng):
    config = SolverConfig(algorithm, alpha=ALPHA, beta=BETA, mu=MU)
    T = fixed_point_map(config, bench)
    for x, eps in _smooth_points(bench, config, rng, 20):
        fd = finite_difference_jacobian(T, np.concatenate([x, eps]), h=1e-6)
        an = full_jacobian(bench, config, x, eps)
        assert np.max(np.abs(fd - an)) <= 1e-5


def _reference_full_jacobian(problem, config, x, eps):
    """``full_jacobian`` as one function, before S's partials were split out."""
    n = problem.dimension
    x = np.asarray(x, dtype=float)
    eps = np.asarray(eps, dtype=float)
    alpha, beta, lam = config.alpha, config.beta, problem.lam
    grad = problem.gradient_smooth(x)
    hess = problem.hessian_smooth()
    if config.algorithm == "DIRL1":
        t = np.abs(x) + eps
        w = np.atleast_1d(problem.reg.derivative(t))
        rpp = np.atleast_1d(problem.reg.second_derivative(t))
        z = x - grad / beta
        on = np.abs(z) > lam * w / beta
        ds_x = np.where(on[:, None], np.eye(n) - hess / beta, 0.0)
        d_eps = np.where(on, -np.sign(z) * (lam / beta) * rpp, 0.0)
        ds_x[np.diag_indices(n)] += d_eps * np.sign(x)
    else:
        z = np.hypot(x, eps)
        pos = z > 0.0
        g = np.zeros(n)
        gp = np.zeros(n)
        rp = np.atleast_1d(problem.reg.derivative(z[pos]))
        rpp = np.atleast_1d(problem.reg.second_derivative(z[pos]))
        denom = z[pos] + (lam / beta) * rp
        g[pos] = z[pos] / denom
        gp[pos] = -(lam / beta) * (rpp * z[pos] - rp) / denom**2
        c = x - grad / beta
        ds_x = g[:, None] * (np.eye(n) - hess / beta)
        with np.errstate(invalid="ignore"):
            xi_over_z = np.where(pos, x / np.where(pos, z, 1.0), 0.0)
            ei_over_z = np.where(pos, eps / np.where(pos, z, 1.0), 0.0)
        ds_x[np.diag_indices(n)] += gp * xi_over_z * c
        d_eps = gp * ei_over_z * c

    full = np.zeros((2 * n, 2 * n))
    full[:n, :n] = (1.0 - alpha) * np.eye(n) + alpha * ds_x
    full[:n, n:] = alpha * np.diag(d_eps)
    full[n:, n:] = config.eps_factor * np.eye(n)
    return full


@pytest.mark.parametrize("algorithm", ["DIRL1", "DIRL2"])
def test_full_jacobian_bits_match_reference(bench, algorithm, rng):
    # lam/beta that is not a power of two, so a reordered product shows
    config = SolverConfig(algorithm, alpha=ALPHA, beta=3.7, mu=MU)
    prob3 = _all_active_3d()[0]
    for prob in (bench, Problem(prob3.smooth, prob3.reg, 0.7)):
        for x, eps in _smooth_points(prob, config, rng, 20):
            expected = _reference_full_jacobian(prob, config, x, eps)
            assert full_jacobian(prob, config, x, eps).tobytes() == expected.tobytes()


def test_analytic_matches_fd_at_stationary_points(bench, saddle_x2):
    # support coordinates only for the weighted-l1 map (the inactive
    # directions are only one-sidedly smooth in eps at the boundary)
    config1 = SolverConfig("DIRL1", alpha=ALPHA, beta=BETA, mu=MU)
    T1 = fixed_point_map(config1, bench)
    for x2 in (1.0, saddle_x2):
        jac = dirl1_jacobian(bench, [0.0, x2], ALPHA, BETA, MU)
        full = jac.assemble_full()
        # column 1: active x coordinate; column 3: its relaxation entry,
        # which exercises the off_Ieps block
        fd = finite_difference_jacobian(T1, np.array([0.0, x2, 0.0, 0.0]), 1e-7,
                                        columns=[1, 3])
        assert np.max(np.abs(fd - full[:, [1, 3]])) <= 1e-5
        assert abs(jac.off_Ieps[0]) > 1e-3
    # the weighted-l2 map is two-sidedly smooth at (x, eps) = (0, 0)
    config2 = SolverConfig("DIRL2", alpha=ALPHA, beta=BETA, mu=MU)
    T2 = fixed_point_map(config2, bench)
    for x2 in (1.0, saddle_x2):
        jac = dirl2_jacobian(bench, [0.0, x2], ALPHA, BETA, MU)
        fd = finite_difference_jacobian(T2, np.array([0.0, x2, 0.0, 0.0]), 1e-7)
        assert np.max(np.abs(fd - jac.assemble_full())) <= 1e-5


def coupled_problem():
    A = np.array([[2.0, 0.3], [0.3, 2.0]])
    return Problem(
        SmoothTerm("quadratic", A, np.array([0.0, -2.5])), Regularizer("LPN", 0.5), 1.0
    )


def test_off_diagonal_block_against_fd():
    # nonseparable smooth term exercises the active-inactive coupling
    prob = coupled_problem()
    trace = run(SolverConfig("DIRL1"), prob, np.array([1.0, 2.0]))
    assert trace.converged
    x_star = trace.limit_x
    assert x_star[0] == 0.0 and x_star[1] > 0.1
    for algorithm, builder in (("DIRL1", dirl1_jacobian), ("DIRL2", dirl2_jacobian)):
        config = SolverConfig(algorithm, alpha=ALPHA, beta=BETA, mu=MU)
        jac = builder(prob, x_star, ALPHA, BETA, MU)
        assert abs(jac.off_IJ[0, 0]) > 1e-3
        T = fixed_point_map(config, prob)
        fd = finite_difference_jacobian(T, np.concatenate([x_star, np.zeros(2)]),
                                        1e-7, columns=[0, 1])
        full = jac.assemble_full()
        assert np.max(np.abs(fd - full[:, :2])) <= 1e-5


@pytest.mark.parametrize("algorithm", ["DIRL1", "DIRL2"])
def test_triangular_spectrum_matches_general_eigensolver(bench, saddle_x2, algorithm):
    builder = dirl1_jacobian if algorithm == "DIRL1" else dirl2_jacobian
    for x2 in (1.0, saddle_x2):
        jac = builder(bench, [0.0, x2], ALPHA, BETA, MU)
        general = np.sort(np.linalg.eigvals(jac.assemble_full()).real)
        assert np.max(np.abs(general - jac.spectrum)) <= 1e-6


def test_congruence_preserves_eigenvalue_signs(rng):
    for _ in range(100):
        n = int(rng.integers(1, 8))
        B = rng.normal(size=(n, n))
        H = 0.5 * (B + B.T)
        P = rng.uniform(0.1, 10.0, n)
        inv_sqrt = 1.0 / np.sqrt(P)
        congruent = inv_sqrt[:, None] * H * inv_sqrt[None, :]
        vals_h, _ = symmetric_eigen(H)
        vals_c, _ = symmetric_eigen(congruent)
        assert (vals_h[0] < 0.0) == (vals_c[0] < 0.0)


def test_no_eigenvalue_near_zero(bench, saddle_x2):
    # alpha < beta/rho holds for defaults (rho ~ 26.15, beta/rho ~ 0.153)
    for x2, builder in ((1.0, dirl1_jacobian), (saddle_x2, dirl1_jacobian),
                        (1.0, dirl2_jacobian), (saddle_x2, dirl2_jacobian)):
        jac = builder(bench, [0.0, x2], ALPHA, BETA, MU)
        assert np.min(np.abs(jac.spectrum)) > 1e-10


def test_saddle_unstable_equivalence(bench, saddle_x2):
    eq = saddle_unstable_equivalence(bench, [0.0, saddle_x2], ALPHA, BETA, MU, "DIRL1")
    assert eq.saddle.classification == CLASS_STRICT_SADDLE
    assert unstable_fixed_point_check(eq) and eq.consistent
    assert eq.detail == "strict saddle must be unstable"
    eq2 = saddle_unstable_equivalence(bench, [0.0, 1.0], ALPHA, BETA, MU, "DIRL1")
    assert eq2.saddle.classification == CLASS_STRICT_LOCAL_MIN
    assert not unstable_fixed_point_check(eq2) and eq2.consistent
    assert eq2.alpha_below_beta_over_rho
    assert eq2.detail == "strict local minimum must have contracting active block"
    eq3 = saddle_unstable_equivalence(bench, [0.0, saddle_x2], ALPHA, BETA, MU, "DIRL2")
    eq4 = saddle_unstable_equivalence(bench, [0.0, 1.0], ALPHA, BETA, MU, "DIRL2")
    assert (eq3.config.algorithm, eq4.config.algorithm) == ("DIRL2", "DIRL2")
    assert ((eq3.saddle.classification, eq4.saddle.classification)
            == (eq.saddle.classification, eq2.saddle.classification))
    assert unstable_fixed_point_check(eq3) and eq3.consistent
    assert not unstable_fixed_point_check(eq4) and eq4.consistent


def test_equivalence_refuses_an_unknown_algorithm(bench, saddle_x2):
    # "dirl1" once fell through to the DIRL2 Jacobian
    with pytest.raises(ValueError, match="^algorithm must be one of"):
        saddle_unstable_equivalence(bench, [0.0, saddle_x2], ALPHA, BETA, MU, "dirl1")


@pytest.mark.parametrize("jacobian", [dirl1_jacobian, dirl2_jacobian])
def test_jacobian_refuses_an_unknown_eps_decay(bench, jacobian):
    # "Damped" once read as geometric, giving scalar_eps = mu
    with pytest.raises(ValueError, match="^eps_decay must be one of"):
        jacobian(bench, [0.0, 1.0], ALPHA, BETA, MU, eps_decay="Damped")


@pytest.mark.parametrize("jacobian", [dirl1_jacobian, dirl2_jacobian])
def test_jacobian_refuses_a_negative_beta(bench, jacobian):
    with pytest.raises(ValueError, match="^beta must be a finite number"):
        jacobian(bench, [0.0, 1.0], ALPHA, -BETA, MU)


def _on_axis_roots(reg):
    """The roots in (0, 2] of 2(x2 - 5/4) + r'(x2), the on-axis stationarity
    condition of benchmark2d's smooth term at lambda = 1, by bisection."""
    def g(t):
        return 2.0 * (t - 1.25) + float(reg.derivative(t))

    grid = np.linspace(1e-6, 2.0, 4001)
    values = np.array([g(t) for t in grid])
    roots = []
    for i in np.flatnonzero(np.sign(values[:-1]) != np.sign(values[1:])):
        lo, hi = grid[i], grid[i + 1]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if (g(mid) > 0.0) == (g(lo) > 0.0) else (lo, mid)
        roots.append(0.5 * (lo + hi))
    return roots


@pytest.mark.parametrize("family, p, saddle_x2, minimum_x2, saddle_rho, minimum_rho", [
    ("EXP", 3.0, 0.0839, 1.2103, 1.2498, 0.9119),
    ("LOG", 3.0, 0.1023, 0.8143, 1.1634, 0.9380),
    ("FRA", 0.3, 0.0542, 1.1817, 1.5753, 0.9092),
    ("TAN", 0.3, 0.2427, 1.1425, 1.2284, 0.9176),
    ("LPN", 0.5, 0.0429, 1.0, 2.3071, 0.9125),
])
def test_verdict_across_the_penalty_class(bench, family, p, saddle_x2, minimum_x2,
                                          saddle_rho, minimum_rho):
    """DIRL1's verdict holds at the on-axis saddle and the upper minimum of
    benchmark2d's smooth term under each built-in penalty at lambda = 1."""
    reg = Regularizer(family, p)
    prob = Problem(bench.smooth, reg, 1.0)
    saddle, minimum = _on_axis_roots(reg)
    assert (saddle, minimum) == pytest.approx((saddle_x2, minimum_x2), abs=1e-4)
    at_saddle = dirl1_jacobian(prob, [0.0, saddle], ALPHA, BETA, MU)
    at_minimum = dirl1_jacobian(prob, [0.0, minimum], ALPHA, BETA, MU)
    assert at_saddle.consistent and at_minimum.consistent
    assert at_saddle.saddle.classification == CLASS_STRICT_SADDLE
    assert unstable_fixed_point_check(at_saddle)
    assert np.abs(at_saddle.block_eigenvalues).max() == pytest.approx(saddle_rho, abs=1e-4)
    assert at_minimum.saddle.classification == CLASS_STRICT_LOCAL_MIN
    assert at_minimum.alpha_below_beta_over_rho and not unstable_fixed_point_check(at_minimum)
    assert np.abs(at_minimum.block_eigenvalues).max() == pytest.approx(minimum_rho, abs=1e-4)


def test_dirl2_boundary_partials_vanish(bench):
    # d S^x_1 / d x_1 along (x_1, eps_1) = (t, t) -> 0 as t -> 0
    config = SolverConfig("DIRL2", alpha=ALPHA, beta=BETA, mu=MU)
    S = solution_map(config, bench)
    partials = []
    for t in (1e-2, 1e-3, 1e-4):
        point = np.array([t, 1.0, t, 0.0])
        col = finite_difference_jacobian(S, point, h=t / 100.0, columns=[0])
        partials.append(abs(col[0, 0]))
    assert partials[0] > partials[1] > partials[2]
    assert partials[2] < 1e-2


def _fd_map_lipschitz(config, problem, points):
    """The central-difference estimate of L_S that the analytic one replaced."""
    S = solution_map(config, problem)
    best = 0.0
    for v in points:
        J = finite_difference_jacobian(S, np.asarray(v, dtype=float))
        vals, _ = symmetric_eigen(J.T @ J)
        best = max(best, math.sqrt(max(float(vals[-1]), 0.0)))
    return best


def test_estimate_map_lipschitz(bench, rng):
    # interior points on benchmark2d and on a coupled 3-D problem, and the
    # tail points that `dirw solve` samples, for every penalty family
    config = SolverConfig("DIRL2", alpha=ALPHA, beta=BETA, mu=MU)
    for family in ("EXP", "LOG", "FRA", "LPN", "TAN"):
        reg = Regularizer(family, 0.5)
        prob2 = Problem(bench.smooth, reg, bench.lam)
        prob3 = Problem(_all_active_3d()[0].smooth, reg, 1.0)
        trace = run(config, prob2, np.array([3.0, 3.0]))
        assert trace.converged
        for prob, points in (
            (prob2, [np.concatenate([rng.uniform(0.5, 2.0, 2), rng.uniform(0.5, 1.0, 2)])
                     for _ in range(5)]),
            (prob3, [np.concatenate([rng.uniform(0.5, 2.0, 3), rng.uniform(0.5, 1.0, 3)])
                     for _ in range(5)]),
            (prob2, _tail_sample_points(trace)),
        ):
            L_S = estimate_map_lipschitz(config, prob, points)
            assert 0.0 < L_S < 10.0
            assert abs(L_S - _fd_map_lipschitz(config, prob, points)) <= 1e-8 * L_S


def test_estimate_map_lipschitz_where_lpn_curvature_overflows(bench):
    # r''(z) of LPN overflows at z = 1e-250, which eps reaches after about
    # 3800 iterations; the row takes its z -> 0 limit, 0, as at z = 0
    config = SolverConfig("DIRL2", alpha=ALPHA, beta=BETA, mu=MU)
    points = [np.array([0.0, 1.0, 1e-250, 1e-250]), np.array([1e-300, 1.0, 1e-250, 0.0])]
    L_S = estimate_map_lipschitz(config, bench, points)
    assert abs(L_S - _fd_map_lipschitz(config, bench, points)) <= 1e-8 * L_S
    full = full_jacobian(bench, config, points[0][:2], points[0][2:])
    assert full[0].tolist() == [1.0 - ALPHA, 0.0, 0.0, 0.0]
    # a NaN is not an overflow: it reaches the Jacobian and is refused there
    nan_curvature = CustomRegularizer(lambda t: t**0.5, lambda t: 0.5 * t**-0.5,
                                      lambda t: math.nan, math.inf)
    with pytest.raises(NumericalFailure, match="non-finite"):
        estimate_map_lipschitz(config, Problem(bench.smooth, nan_curvature, 1.0),
                               [np.array([1.0, 1.0, 0.5, 0.5])])


def _loop_assembled(jac):
    """The element-by-element builder that ``assemble_full`` replaced."""
    n = jac.dimension
    full = np.zeros((2 * n, 2 * n))
    act = list(jac.active)
    inact = list(jac.inactive)
    if act:
        full[np.ix_(act, act)] = jac.block_II
        if inact:
            full[np.ix_(act, inact)] = jac.off_IJ
        for row, i in enumerate(act):
            full[i, n + i] = jac.off_Ieps[row]
    for j in inact:
        full[j, j] = jac.scalar_J
    for i in range(n):
        full[n + i, n + i] = jac.scalar_eps
    return full


def _all_active_3d():
    """A 3-D problem with a coupled Hessian and a stationary point at
    (1, -1, 1), where every coordinate is active (LPN p = 0.5, r'(1) = 0.5)."""
    A = np.array([[2.0, 0.3, 0.1], [0.3, 2.0, 0.2], [0.1, 0.2, 2.0]])
    x_star = np.array([1.0, -1.0, 1.0])
    b = -A @ x_star - 0.5 * np.sign(x_star)
    return Problem(SmoothTerm("quadratic", A, b), Regularizer("LPN", 0.5), 1.0), x_star


@pytest.mark.parametrize("jacobian", [dirl1_jacobian, dirl2_jacobian])
def test_assemble_full_matches_loop_builder(bench, saddle_x2, jacobian):
    prob3, x3 = _all_active_3d()
    cases = [
        (bench, [0.0, saddle_x2]),
        (bench, [0.0, 1.0]),
        (bench, [0.0, 0.0]),  # no active coordinates
        (prob3, x3),  # no inactive coordinates
    ]
    for prob, x_star in cases:
        jac = jacobian(prob, x_star, ALPHA, BETA, MU)
        assert jac.assemble_full().tobytes() == _loop_assembled(jac).tobytes()
    assert jac.active == (0, 1, 2) and np.all(jac.block_II != 0.0)


def _classified_points(bench, saddle_x2):
    """benchmark2d's saddle, minimum and origin, the coupled problem's DIRL1
    limit and the all-active 3-D point."""
    coupled = coupled_problem()
    limit = run(SolverConfig("DIRL1"), coupled, np.array([1.0, 2.0])).limit_x
    return [(bench, np.array([0.0, saddle_x2])), (bench, np.array([0.0, 1.0])),
            (bench, np.zeros(2)), (coupled, limit), _all_active_3d()]


@pytest.mark.parametrize("jacobian", [dirl1_jacobian, dirl2_jacobian])
def test_jacobian_is_built_on_one_classification(bench, saddle_x2, jacobian):
    labels = set()
    for prob, x_star in _classified_points(bench, saddle_x2):
        jac = jacobian(prob, x_star, ALPHA, BETA, MU)
        direct = classify_stationary_point(prob, x_star)
        assert jac.saddle.classification == direct.classification
        assert jac.saddle.eigenvalues.tobytes() == direct.eigenvalues.tobytes()
        assert jac.saddle.restricted.tobytes() == direct.restricted.tobytes()
        assert hessian_norm(jac.saddle) == hessian_norm(direct)
        if jacobian is dirl1_jacobian:
            # P = I: the block eigenvalues are the spectral map of H's eigenvalues
            expected = 1.0 - (ALPHA / BETA) * jac.saddle.eigenvalues
            assert jac.block_eigenvalues.tobytes() == expected.tobytes()
        eq = saddle_unstable_equivalence(prob, x_star, ALPHA, BETA, MU, jac.config.algorithm)
        assert eq.saddle.classification == direct.classification
        assert eq.block_eigenvalues.tobytes() == jac.block_eigenvalues.tobytes()
        assert eq.consistent
        # the verdict does not depend on the relaxation mode
        geometric = jacobian(prob, x_star, ALPHA, BETA, MU, eps_decay="geometric")
        assert geometric.scalar_eps == MU != jac.scalar_eps
        assert unstable_fixed_point_check(eq) == unstable_fixed_point_check(geometric)
        assert (geometric.consistent, geometric.detail) == (eq.consistent, eq.detail)
        assert geometric.block_eigenvalues.tobytes() == eq.block_eigenvalues.tobytes()
        labels.add(direct.classification)
    assert labels == {CLASS_STRICT_LOCAL_MIN, CLASS_STRICT_SADDLE}
