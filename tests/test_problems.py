import copy
import json
import math
import pickle

import numpy as np
import pytest

from dirw.problems import (
    BENCHMARK2D_SADDLE_X2,
    BENCHMARK2D_STATIONARY,
    Problem,
    SmoothTerm,
    benchmark2d,
    load_problem,
    problem_from_dict,
)
from dirw.regularizers import CustomRegularizer, Regularizer
from dirw.solvers import SolverConfig, run


def least_squares_identity(n, reg=None, lam=1.0):
    smooth = SmoothTerm("least_squares", np.eye(n), np.zeros(n))
    return Problem(smooth, reg or Regularizer("EXP", 1.0), lam)


def test_benchmark_objective_values(bench):
    assert bench.objective_value([0.0, 1.0]) == pytest.approx(1.0625, abs=1e-15)
    assert bench.objective_value([0.0, 0.0]) == pytest.approx(25.0 / 16.0, abs=1e-15)
    assert bench.objective_value([0.0, 1.0]) < bench.objective_value([0.0, 0.0])


def test_objective_at_zero_is_smooth_value(bench):
    assert bench.objective_value(np.zeros(2)) == bench.smooth.value(np.zeros(2))


def test_least_squares_objective_example():
    prob = least_squares_identity(2)
    val = prob.objective_value([1.0, 0.0])
    assert val == pytest.approx(0.5 + 1.0 - math.exp(-1.0), abs=1e-12)


def test_perturbed_l1(bench):
    x = np.array([0.3, -1.2])
    assert bench.perturbed_value_l1(x, np.zeros(2)) == bench.objective_value(x)
    n = 2
    assert bench.perturbed_value_l1(np.zeros(n), np.ones(n)) == pytest.approx(
        bench.smooth.value(np.zeros(n)) + n, abs=1e-12
    )
    eps = np.array([0.8, 0.4])
    assert bench.perturbed_value_l1(x, eps) >= bench.perturbed_value_l1(x, eps / 2)
    with pytest.raises(ValueError):
        bench.perturbed_value_l1(x, np.array([0.1, -0.1]))


def test_perturbed_l2():
    prob = Problem(
        SmoothTerm("quadratic", np.array([[2.0]]), np.array([0.0])),
        Regularizer("LPN", 0.5),
        1.0,
    )
    x, eps = np.array([3.0]), np.array([4.0])
    expected = prob.smooth.value(x) + math.sqrt(5.0)  # r(sqrt(9+16)) = 5**0.5
    assert prob.perturbed_value_l2(x, eps) == pytest.approx(expected, abs=1e-12)
    assert prob.perturbed_value_l2(x, np.zeros(1)) == prob.objective_value(x)


def test_perturbed_l2_single_coordinate(bench):
    eps = np.array([1.0, 0.0])
    expected = bench.smooth.value(np.zeros(2)) + bench.reg.value(1.0)
    assert bench.perturbed_value_l2(np.zeros(2), eps) == pytest.approx(expected, abs=1e-14)


def test_gradient_and_hessian_closed_forms():
    quad = Problem(
        SmoothTerm("quadratic", 2.0 * np.eye(2), np.zeros(2)),
        Regularizer("EXP", 1.0),
        1.0,
    )
    assert np.allclose(quad.gradient_smooth([1.0, 2.0]), [2.0, 4.0])
    assert np.allclose(quad.hessian_smooth(), 2.0 * np.eye(2))
    ls = Problem(
        SmoothTerm("least_squares", np.eye(2), np.ones(2)),
        Regularizer("EXP", 1.0),
        1.0,
    )
    assert np.allclose(ls.gradient_smooth(np.zeros(2)), [-1.0, -1.0])


def test_gradient_matches_finite_difference(rng):
    A = rng.normal(size=(5, 4))
    b = rng.normal(size=5)
    prob = Problem(SmoothTerm("least_squares", A, b), Regularizer("LOG", 1.0), 0.7)
    for _ in range(50):
        x = rng.normal(size=4)
        g = prob.gradient_smooth(x)
        fd = np.zeros(4)
        for j in range(4):
            e = np.zeros(4)
            e[j] = 1e-6
            fd[j] = (prob.smooth.value(x + e) - prob.smooth.value(x - e)) / 2e-6
        assert np.max(np.abs(g - fd)) <= 1e-6 * max(1.0, np.max(np.abs(g)))


def test_lipschitz_estimates():
    quad = Problem(
        SmoothTerm("quadratic", np.diag([1.0, 3.0]), np.zeros(2)),
        Regularizer("EXP", 1.0),
        1.0,
    )
    assert quad.estimate_lipschitz_gradient() == pytest.approx(3.0, rel=1e-8)
    ls = least_squares_identity(3)
    assert ls.estimate_lipschitz_gradient() == pytest.approx(1.0, rel=1e-8)
    shear = Problem(
        SmoothTerm("least_squares", np.array([[1.0, 1.0], [0.0, 1.0]]), np.zeros(2)),
        Regularizer("EXP", 1.0),
        1.0,
    )
    assert shear.estimate_lipschitz_gradient() == pytest.approx(
        (3.0 + math.sqrt(5.0)) / 2.0, rel=1e-7
    )
    indefinite = Problem(
        SmoothTerm("quadratic", np.diag([1.0, -3.0]), np.zeros(2)),
        Regularizer("EXP", 1.0),
        1.0,
    )
    assert indefinite.estimate_lipschitz_gradient() == pytest.approx(3.0, rel=1e-7)


def _exp_problem(smooth):
    return Problem(smooth, Regularizer("EXP", 1.0), 1.0)


def _power_iteration(H, rel_tol=1e-8, max_iter=10000):
    """The power-iteration L estimate that LAPACK replaced, kept as an oracle."""
    v = np.cos(np.arange(H.shape[0]) + 0.5) + 1.5
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(max_iter):
        norm = np.linalg.norm(H @ v)
        if abs(norm - est) <= rel_tol * max(1.0, norm):
            return float(norm)
        est = norm
        v = (H @ v) / norm
    return float(est)


@pytest.mark.parametrize("shape", [(30, 50), (50, 30)])
def test_lipschitz_least_squares_is_spectral_norm_squared(shape):
    A = np.random.default_rng(7).normal(size=shape)
    prob = _exp_problem(SmoothTerm("least_squares", A, np.zeros(shape[0])))
    assert prob.estimate_lipschitz_gradient() == pytest.approx(
        np.linalg.norm(A, 2) ** 2, rel=1e-12
    )


def test_lipschitz_quadratic_indefinite_and_zero():
    rng = np.random.default_rng(8)
    B = rng.normal(size=(6, 6))
    A = 0.5 * (B + B.T)
    vals = np.linalg.eigvalsh(A)
    prob = _exp_problem(SmoothTerm("quadratic", A, np.zeros(6)))
    assert vals[0] < 0.0 < vals[-1]
    assert prob.estimate_lipschitz_gradient() == pytest.approx(np.max(np.abs(vals)), rel=1e-12)
    zero = _exp_problem(SmoothTerm("quadratic", np.zeros((3, 3)), np.zeros(3)))
    assert zero.estimate_lipschitz_gradient() == 0.0
    zero_ls = _exp_problem(SmoothTerm("least_squares", np.zeros((2, 4)), np.zeros(2)))
    assert zero_ls.estimate_lipschitz_gradient() == 0.0


def test_lipschitz_not_below_power_iteration():
    # The 500 x 1000 sparse-recovery matrix where power iteration gives
    # 5.736023 against the true 5.736027.
    m, n = 500, 1000
    A = np.random.default_rng(0).normal(0.0, 1.0 / np.sqrt(m), (m, n))
    prob = Problem(SmoothTerm("least_squares", A, np.zeros(m)), Regularizer("LPN", 0.5), 0.05)
    L = prob.estimate_lipschitz_gradient()
    old = _power_iteration(A.T @ A)
    assert old == pytest.approx(5.736023, abs=5e-7)
    assert L >= old
    assert L == pytest.approx(np.linalg.norm(A, 2) ** 2, rel=1e-12)


def test_least_squares_hessian_is_cached_and_read_only():
    A = np.random.default_rng(9).normal(size=(5, 3))
    smooth = SmoothTerm("least_squares", A, np.zeros(5))
    H = smooth.hessian()
    assert smooth.hessian() is H
    assert not H.flags.writeable
    assert np.array_equal(H, A.T @ A)
    with pytest.raises(ValueError):
        H[0, 0] = 1.0
    pert = _exp_problem(smooth).perturbed_linearly(np.zeros(3))
    assert np.array_equal(pert.smooth.hessian(), H)


@pytest.mark.parametrize("kind, shape", [("quadratic", (3, 3)), ("least_squares", (6, 4)),
                                         ("least_squares", (4, 6))])
def test_lipschitz_is_one_eigensolve_per_smooth_term(monkeypatch, kind, shape):
    gen = np.random.default_rng(4)
    A = gen.normal(size=shape)
    if kind == "quadratic":
        A = A + A.T
    smooth = SmoothTerm(kind, A, gen.normal(size=shape[0]))
    want = copy.deepcopy(smooth)._lipschitz_gradient()  # an unshared term's eigensolve
    eigvalsh, calls = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda M: calls.append(M.shape) or eigvalsh(M))
    for lam, x0 in [(0.1, np.zeros(shape[1])), (0.3, np.ones(shape[1])), (0.1, -np.ones(shape[1]))]:
        problem = Problem(smooth, Regularizer("LPN", 0.5), lam)
        run(SolverConfig("DIRL1", beta=50.0, max_iter=5), problem, x0)
        assert problem.estimate_lipschitz_gradient().hex() == want.hex()
    assert len(calls) == 1
    for twin in (copy.deepcopy(smooth), pickle.loads(pickle.dumps(smooth))):
        assert twin._lipschitz is None  # a copy starts empty
        L = Problem(twin, Regularizer("LPN", 0.5), 1.0).estimate_lipschitz_gradient()
        assert L.hex() == want.hex()
    assert len(calls) == 3


def test_load_problem_rejects_boolean_lambda(tmp_path, bench):
    data = bench.to_dict()
    data["lambda"] = True
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="lambda"):
        load_problem(path)


@pytest.mark.parametrize("section, update, field", [
    ("regularizer", {"p": "0.5"}, "p"),
    ("regularizer", {"family": "EXP", "p": True}, "p"),
    ("regularizer", {"p": [0.5]}, "p"),
    ("smooth", {"c": "1"}, "c"),
    ("smooth", {"c": [1]}, "c"),
    ("smooth", {"A": [["2", "0"], ["0", "2"]]}, "A"),
    ("smooth", {"A": [[True, False], [False, True]]}, "A"),
    ("smooth", {"b": ["0", "-2.5"]}, "b"),
    ("smooth", {"b": [False, True]}, "b"),
    ("smooth", {"b": [[0.0], [-2.5]]}, "b"),  # a matrix where a vector belongs
])
def test_problem_from_dict_rejects_mistyped_field(bench, section, update, field):
    data = bench.to_dict()
    data[section].update(update)
    with pytest.raises(ValueError, match=f"invalid problem file: field '{field}'"):
        problem_from_dict(data)


def test_benchmark_stationary_roots(saddle_x2):
    # On-axis stationary x2 solve 4 s^3 - 5 s + 1 = 0 with s = sqrt(x2).
    for x2 in (1.0, saddle_x2):
        s = math.sqrt(x2)
        assert abs(4.0 * s**3 - 5.0 * s + 1.0) < 1e-12
    assert saddle_x2 == pytest.approx(0.0428932, abs=1e-7)
    assert len(BENCHMARK2D_STATIONARY) == 3


def test_dimension_checks(bench):
    with pytest.raises(ValueError):
        bench.objective_value([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        bench.objective_value([np.inf, 0.0])
    with pytest.raises(ValueError):
        bench.perturbed_value_l1([1.0, 2.0], [0.1])


def test_smooth_term_validation():
    with pytest.raises(ValueError):
        SmoothTerm("quadratic", np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2))
    with pytest.raises(ValueError):
        SmoothTerm("quadratic", np.eye(2), np.zeros(3))
    with pytest.raises(ValueError):
        SmoothTerm("least_squares", np.ones((3, 2)), np.zeros(2))
    with pytest.raises(ValueError):
        SmoothTerm("cubic", np.eye(2), np.zeros(2))
    with pytest.raises(ValueError):
        Problem(SmoothTerm("quadratic", np.eye(2), np.zeros(2)), Regularizer("EXP", 1.0), 0.0)


def test_immutability(bench):
    with pytest.raises(AttributeError):
        bench.lam = 2.0
    with pytest.raises(ValueError):
        bench.smooth.A[0, 0] = 5.0  # frozen array


def test_load_problem_round_trip(tmp_path, bench):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(bench.to_dict()))
    loaded = load_problem(path)
    assert loaded.dimension == 2
    assert loaded.reg == bench.reg
    assert loaded.lam == bench.lam
    x = np.array([0.7, -0.2])
    assert loaded.objective_value(x) == bench.objective_value(x)


def test_load_problem_rejects_bad_lpn_exponent(tmp_path, bench):
    data = bench.to_dict()
    data["regularizer"]["p"] = 1.5
    path = tmp_path / "bad_p.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="'p'"):
        load_problem(path)


def test_load_problem_rejects_asymmetric_quadratic(tmp_path, bench):
    data = bench.to_dict()
    data["smooth"]["A"] = [[2.0, 0.5], [0.0, 2.0]]
    path = tmp_path / "bad_A.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="'A'"):
        load_problem(path)


def test_load_problem_rejects_garbage(tmp_path, bench):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="JSON"):
        load_problem(path)
    data = bench.to_dict()
    del data["lambda"]
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="lambda"):
        load_problem(path)
    data = bench.to_dict()
    data["regularizer"]["family"] = "MCP"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="family"):
        load_problem(path)


def test_linear_perturbation():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(4, 3))
    b = rng.normal(size=4)
    prob = Problem(SmoothTerm("least_squares", A, b), Regularizer("LPN", 0.5), 0.5)
    v = rng.normal(size=3)
    pert = prob.perturbed_linearly(v)
    for _ in range(10):
        x = rng.normal(size=3)
        assert pert.objective_value(x) == pytest.approx(
            prob.objective_value(x) - v @ x, rel=1e-12, abs=1e-12
        )
        assert np.allclose(pert.gradient_smooth(x), prob.gradient_smooth(x) - v)


def test_least_squares_constant_is_part_of_f():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(4, 3))
    b = rng.normal(size=4)
    smooth = SmoothTerm("least_squares", A, b, 100.0)
    assert smooth.value(np.zeros(3)) == 0.5 * float(b @ b) + 100.0
    v = rng.normal(size=3)
    pert = Problem(smooth, Regularizer("LPN", 0.5), 0.5).perturbed_linearly(v)
    for _ in range(10):
        x = rng.normal(size=3)
        assert pert.smooth.value(x) == pytest.approx(smooth.value(x) - v @ x, rel=1e-12)


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


def _same_penalty(a, b, t):
    assert _bits(a.value(t)) == _bits(b.value(t))
    assert _bits(a.derivative(t[t > 0])) == _bits(b.derivative(t[t > 0]))
    assert a.derivative_at_zero_plus() == b.derivative_at_zero_plus()


@pytest.mark.parametrize("copier", [lambda o: pickle.loads(pickle.dumps(o)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_problems_and_regularizers_pickle_and_deepcopy(copier, rng):
    t = np.concatenate([[0.0, 5e-324, 1e-3, 1.0, 1e6], rng.uniform(0, 5, 20)])
    for family, p in [("EXP", 1.0), ("LOG", 2.0), ("FRA", 1.5), ("LPN", 0.5), ("TAN", 2.0)]:
        reg = Regularizer(family, p)
        twin = copier(reg)
        assert type(twin) is Regularizer and twin == reg
        _same_penalty(reg, twin, t)
    A = rng.normal(size=(6, 4))
    lsq = Problem(SmoothTerm("least_squares", A, rng.normal(size=6)), Regularizer("LPN", 0.5), 0.3)
    for problem in (benchmark2d(), lsq):
        n = problem.dimension
        x, eps = rng.normal(size=n), rng.uniform(0.1, 1.0, n)
        problem.perturbed_value_l1(x, eps)  # fills the product memo
        problem.hessian_smooth()  # fills the Gram cache of a least-squares term
        twin = copier(problem)
        assert type(twin) is Problem and twin.lam == problem.lam
        assert twin.smooth._memo == (None, None) and twin.smooth._gram is None
        assert not twin.smooth.A.flags.writeable
        assert twin.perturbed_value_l1(x, eps) == problem.perturbed_value_l1(x, eps)
        assert twin.perturbed_value_l2(x, eps) == problem.perturbed_value_l2(x, eps)
        assert _bits(twin.gradient_smooth(x)) == _bits(problem.gradient_smooth(x))
        _same_penalty(problem.reg, twin.reg, t)


def test_custom_regularizer_copies_through_its_callbacks():
    t = np.array([0.0, 1e-3, 0.5, 2.0])
    reg = CustomRegularizer(np.log1p, lambda s: 1.0 / (1.0 + s), lambda s: -1.0 / (1.0 + s) ** 2,
                            1.0)
    _same_penalty(reg, copy.deepcopy(reg), t)
    with pytest.raises(ValueError, match="second_derivative_at_zero"):
        copy.deepcopy(reg).second_derivative_at_zero_plus()
    with pytest.raises((pickle.PicklingError, AttributeError)):  # a lambda does not pickle
        pickle.dumps(reg)
    reg = CustomRegularizer(np.log1p, np.reciprocal, np.negative, 2.0, -4.0)
    twin = pickle.loads(pickle.dumps(reg))
    _same_penalty(reg, twin, t)
    assert twin.second_derivative_at_zero_plus() == -4.0
