import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dirw.analysis import (
    CLASS_DEGENERATE,
    CLASS_STRICT_LOCAL_MIN,
    CLASS_STRICT_SADDLE,
    SNAP_RATIO,
    SNAP_SMALL,
    SUPPORT_TOL,
    _sign_string,
    check_support_identification,
    classify_stationary_point,
    extrapolate_limit,
    restricted_hessian,
    stationarity_residual,
    support,
    symmetric_eigen,
)
from dirw.errors import NonStationaryPointError, NumericalFailure
from dirw.problems import Problem, SmoothTerm
from dirw.regularizers import Regularizer
from dirw.solvers import SolverConfig, run


def test_support_basic():
    pat = support(np.array([0.0, 1.0, -2.0]))
    assert pat.active == (1, 2)
    assert pat.inactive == (0,)
    assert list(pat.signs) == [0, 1, -1]
    assert pat.bits == "0+-"
    assert support(np.zeros(4)).active == ()
    assert support(np.array([1e-12, 1.0]), tol=1e-10).active == (1,)
    with pytest.raises(ValueError):
        support(np.zeros(2), tol=-1.0)


SIGN_ENTRIES = st.one_of(
    st.sampled_from((math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                     1e-10, -1e-10, 2.2250738585072014e-308)),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)


@settings(max_examples=300, deadline=None, database=None)
@given(x=hnp.arrays(np.float64, st.integers(0, 50), elements=SIGN_ENTRIES),
       tol=st.sampled_from((0.0, 5e-324, SUPPORT_TOL, 1.0)) | st.floats(0.0, 1e300))
def test_sign_string_is_the_support_bits(x, tol):
    # |x_i| > tol picks the sign; NaN, zeros of either sign and |x_i| <= tol read 0.
    want = "".join("0" if not abs(v) > tol else "+" if v > 0.0 else "-" for v in x.tolist())
    assert _sign_string(x, tol) == support(x, tol).bits == want


def old_sign_string(x, tol):
    """The fingerprint as it was built before: one byte array, assigned three times."""
    chars = np.full(x.shape, 48, dtype=np.uint8)  # b"0"
    chars[x > tol] = 43  # b"+"
    chars[x < -tol] = 45  # b"-"
    return chars.tobytes().decode("ascii")


#: A quiet NaN with a payload and a negative NaN, beside math.nan.
NAN_PAYLOADS = tuple(float(np.int64(bits).view(np.float64))
                     for bits in (0x7FF8_0000_0000_0ABC, -0x0008_0000_0000_0000))


@st.composite
def adversarial_signs(draw):
    """An array and a tol >= 0 whose entries sit on and next to +-tol, among
    NaNs of other payloads and signs, signed zeros, subnormals and +-inf;
    as float64 (contiguous, strided or reversed) or as the int signs that
    ``SupportPattern.bits`` passes."""
    tol = draw(st.sampled_from((0.0, 5e-324, SUPPORT_TOL, 1.0, math.inf)) | st.floats(0.0, 1e300))
    near = (tol, -tol, np.nextafter(tol, math.inf), -np.nextafter(tol, math.inf),
            np.nextafter(tol, 0.0), -np.nextafter(tol, 0.0))
    entries = st.sampled_from(near + NAN_PAYLOADS) | SIGN_ENTRIES
    layout = draw(st.sampled_from(("contiguous", "strided", "reversed", "int")))
    if layout == "int":
        return draw(hnp.arrays(np.int64, st.integers(0, 50), elements=st.integers(-1, 1))), tol
    x = draw(hnp.arrays(np.float64, st.integers(0, 100), elements=entries))
    return {"contiguous": x, "strided": x[::2], "reversed": x[::-1]}[layout], tol


@settings(max_examples=500, deadline=None, database=None)
@given(case=adversarial_signs())
def test_sign_string_matches_the_three_assignment_construction(case):
    x, tol = case
    assert _sign_string(x, tol) == old_sign_string(x, tol)


def test_stationarity_at_benchmark_points(bench, saddle_x2):
    rep = stationarity_residual(bench, np.array([0.0, 1.0]))
    assert rep.residual_active == pytest.approx(0.0, abs=1e-14)
    assert rep.margin_inactive == math.inf
    assert rep.is_stationary
    # grad_2 f = 2(0.5 - 1.25) = -1.5 against the penalty pull 0.5*0.5**-0.5
    rep2 = stationarity_residual(bench, np.array([0.0, 0.5]))
    assert rep2.residual_active == pytest.approx(abs(-1.5 + 0.5 / math.sqrt(0.5)), abs=1e-12)
    assert rep2.residual_active == pytest.approx(0.79289, abs=1e-5)
    assert not rep2.is_stationary
    origin = stationarity_residual(bench, np.zeros(2))
    assert origin.margin_inactive == math.inf
    assert origin.is_stationary
    saddle = stationarity_residual(bench, np.array([0.0, saddle_x2]))
    assert saddle.is_stationary


def test_margin_for_lipschitz_regularizer():
    # grad f(0) = (2, 0) exceeds lam * r'(0+) = 1 in coordinate 1.
    prob = Problem(
        SmoothTerm("quadratic", np.eye(2), np.array([2.0, 0.0])),
        Regularizer("EXP", 1.0),
        1.0,
    )
    rep = stationarity_residual(prob, np.zeros(2))
    assert rep.margin_inactive == pytest.approx(-1.0, abs=1e-12)
    assert not rep.is_stationary


def test_restricted_hessian_values(bench, saddle_x2):
    pat = support(np.array([0.0, 1.0]))
    H = restricted_hessian(bench, np.array([0.0, 1.0]), pat)
    assert H.shape == (1, 1)
    assert H[0, 0] == pytest.approx(1.75, abs=1e-15)
    Hs = restricted_hessian(
        bench, np.array([0.0, saddle_x2]), support(np.array([0.0, saddle_x2]))
    )
    assert Hs[0, 0] == pytest.approx(2.0 - 0.25 * saddle_x2**-1.5, abs=1e-9)
    assert Hs[0, 0] == pytest.approx(-26.1421356, abs=1e-6)
    # diagonal quadratic: entry a_ii + lam r''(|x_i|)
    prob = Problem(
        SmoothTerm("quadratic", np.diag([3.0, 5.0]), np.zeros(2)),
        Regularizer("LOG", 1.0),
        2.0,
    )
    x = np.array([0.0, 1.5])
    H2 = restricted_hessian(prob, x, support(x))
    assert H2[0, 0] == pytest.approx(5.0 + 2.0 * prob.reg.second_derivative(1.5))


def test_symmetric_eigen_small_cases():
    vals, vecs = symmetric_eigen(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(vals, [1.0, 2.0, 3.0])
    vals2, _ = symmetric_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(vals2, [1.0, 3.0], atol=1e-12)
    vals1, vecs1 = symmetric_eigen(np.array([[-26.145]]))
    assert vals1[0] == -26.145 and vecs1[0, 0] == 1.0


def test_symmetric_eigen_random_reconstruction(rng):
    for _ in range(100):
        n = int(rng.integers(1, 51))
        B = rng.normal(size=(n, n))
        M = 0.5 * (B + B.T)
        vals, vecs = symmetric_eigen(M)
        assert np.all(np.diff(vals) >= 0.0)
        scale = max(1.0, np.linalg.norm(M))
        assert np.max(np.abs(M @ vecs - vecs * vals)) <= 1e-8 * scale
        assert np.max(np.abs(vecs.T @ vecs - np.eye(n))) <= 1e-10
        # independent oracle
        assert np.allclose(vals, np.sort(np.linalg.eigvalsh(M)), atol=1e-9 * scale)


def test_symmetric_eigen_rejects_asymmetric():
    with pytest.raises(ValueError):
        symmetric_eigen(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        symmetric_eigen(np.ones((2, 3)))


def test_classification_benchmark(bench, saddle_x2):
    rep = classify_stationary_point(bench, np.array([0.0, 1.0]))
    assert rep.classification == CLASS_STRICT_LOCAL_MIN
    assert rep.lambda_min == pytest.approx(1.75, abs=1e-10)
    reps = classify_stationary_point(bench, np.array([0.0, saddle_x2]))
    assert reps.classification == CLASS_STRICT_SADDLE
    assert reps.lambda_min == pytest.approx(2.0 - 0.25 * saddle_x2**-1.5, abs=1e-6)
    origin = classify_stationary_point(bench, np.zeros(2))
    assert origin.classification == CLASS_STRICT_LOCAL_MIN
    assert origin.eigenvalues.size == 0
    assert not origin.negative_definite


def test_classification_rejects_nonstationary(bench):
    with pytest.raises(NonStationaryPointError) as err:
        classify_stationary_point(bench, np.array([1.0, 1.0]))
    assert err.value.residual > 1.0


def test_degenerate_classification():
    # 1-D problem tuned so the restricted Hessian vanishes at x* = 1:
    # f(x) = 0.5 h x^2 + b x with h = e^-1, b = -2 e^-1, EXP penalty p=1.
    h = math.exp(-1.0)
    prob = Problem(
        SmoothTerm("quadratic", np.array([[h]]), np.array([-2.0 * h])),
        Regularizer("EXP", 1.0),
        1.0,
    )
    rep = classify_stationary_point(prob, np.array([1.0]))
    assert rep.classification == CLASS_DEGENERATE
    assert abs(rep.lambda_min) <= 1e-12


def test_saddle_report_serializes(bench):
    rep = classify_stationary_point(bench, np.array([0.0, 1.0]))
    d = rep.to_dict()
    assert d["classification"] == "StrictLocalMin"
    assert d["eigenvalues"] == [1.75]
    assert d["support_bits"] == "0+"


def grid_values(prob, center, radius, points=101):
    g1 = np.linspace(center[0] - radius, center[0] + radius, points)
    g2 = np.linspace(center[1] - radius, center[1] + radius, points)
    vals = np.empty((points, points))
    for i, a in enumerate(g1):
        for j, b in enumerate(g2):
            vals[i, j] = prob.perturbed_value_l1(np.array([a, b]), 0.0)
    return vals


def test_grid_bruteforce_matches_classification(bench, saddle_x2):
    # Strict local minima are grid-minimal on a small surrounding patch.
    for point in ((0.0, 1.0), (0.0, 0.0)):
        vals = grid_values(bench, point, 1e-2, points=101)
        center = bench.perturbed_value_l1(np.array(point), 0.0)
        assert center <= vals.min() + 1e-15
    # The saddle is a maximum along the x2-axis and non-minimal in the plane.
    axis = np.linspace(saddle_x2 - 1e-2, saddle_x2 + 1e-2, 101)
    axis_vals = [bench.perturbed_value_l1(np.array([0.0, t]), 0.0) for t in axis]
    center = bench.perturbed_value_l1(np.array([0.0, saddle_x2]), 0.0)
    assert center >= max(axis_vals) - 1e-12
    plane = grid_values(bench, (0.0, saddle_x2), 1e-2, points=101)
    assert plane.min() < center - 1e-12


def test_check_support_identification(bench):
    trace = run(SolverConfig("DIRL1"), bench, np.array([3.0, 3.0]))
    assert trace.converged
    assert check_support_identification(trace, 50)
    with pytest.raises(ValueError):
        check_support_identification(trace, len(trace.records) + 1)


def test_extrapolate_limit():
    # geometric decay in coordinate 0, constant active coordinate 1
    ks = np.arange(60)
    xs = np.stack([1e-5 * 0.8**ks, np.full(60, 0.7)], axis=1)
    limit = extrapolate_limit(xs)
    assert limit[0] == 0.0
    assert limit[1] == 0.7
    # a small but non-decaying coordinate survives
    xs2 = np.stack([np.full(60, 3e-5), np.full(60, 0.7)], axis=1)
    limit2 = extrapolate_limit(xs2)
    assert limit2[0] == 3e-5
    # below support tolerance snaps to zero regardless
    xs3 = np.stack([np.full(60, 1e-12), np.full(60, 0.7)], axis=1)
    assert extrapolate_limit(xs3)[0] == 0.0


def _extrapolate_reference(xs):
    """The per-coordinate loop, kept as an oracle."""
    X = np.asarray(xs, dtype=float)
    limit = X[-1].copy()
    for i in range(X.shape[1]):
        v = np.abs(X[:, i])
        if v[-1] <= SUPPORT_TOL:
            limit[i] = 0.0
            continue
        if v[-1] > SNAP_SMALL or np.any(v[:-1] == 0.0):
            continue
        if np.median(v[1:] / v[:-1]) <= SNAP_RATIO:
            limit[i] = 0.0
    return limit


def _random_column(rng, k):
    kind = rng.integers(5)
    if kind == 0:  # flat, at any scale
        col = np.full(k, 10.0 ** rng.uniform(-12, 1))
    elif kind == 1:  # geometric, around the SNAP_RATIO boundary or below it
        ratio = rng.choice([rng.uniform(0.5, 1.05), SNAP_RATIO, 0.9989, 0.9991])
        col = 10.0 ** rng.uniform(-9, -2) * ratio ** np.arange(k)
    elif kind == 2:  # noise
        col = 10.0 ** rng.uniform(-12, 0, k)
    elif kind == 3:  # exact values at the thresholds
        col = np.full(k, rng.choice([SUPPORT_TOL, SNAP_SMALL, 0.0, -0.0]))
    else:
        col = rng.normal(size=k) * 1e-5
    if rng.random() < 0.3:
        col = col * rng.choice([-1.0, 1.0], k)  # sign flips
    if rng.random() < 0.2:
        col[rng.integers(k)] = 0.0
    return col


def test_extrapolate_limit_matches_the_loop():
    rng = np.random.default_rng(20240817)
    windows = [np.full((64, 1000), 5e-5) * 0.9 ** np.arange(64)[:, None]]  # all candidates
    for _ in range(3000):
        k, n = int(rng.integers(2, 65)), int(rng.integers(0, 9))
        windows.append(np.stack([_random_column(rng, k) for _ in range(n)], axis=1)
                       if n else np.empty((k, 0)))
    for xs in windows:
        assert extrapolate_limit(xs).tobytes() == _extrapolate_reference(xs).tobytes()


def _support_reference(x, tol):
    """The generator-based support split, kept as an oracle."""
    signs = np.where(np.abs(x) > tol, np.sign(x), 0.0).astype(int)
    active = tuple(int(i) for i in np.nonzero(signs)[0])
    inactive = tuple(int(i) for i in np.nonzero(signs == 0)[0])
    bits = "".join("+" if s > 0 else "-" if s < 0 else "0" for s in signs)
    return active, inactive, bits


def test_support_matches_reference(rng):
    tol = 1e-10
    specials = np.array([tol, -tol, 0.0, -0.0, 2 * tol, -2 * tol, 0.5 * tol, 1.0, -1.0])
    for trial in range(200):
        n = int(rng.integers(0, 1001)) if trial else 1000
        x = rng.normal(0.0, 1e-9, n)
        mask = rng.random(n) < 0.5
        x[mask] = rng.choice(specials, int(mask.sum()))
        pat = support(x, tol)
        active, inactive, bits = _support_reference(x, tol)
        assert pat.active == active
        assert pat.inactive == inactive
        assert pat.bits == bits
        assert all(type(i) is int for i in pat.active + pat.inactive)
    assert support(np.array([-0.0, tol, -tol])).bits == "000"


def test_symmetric_eigen_wraps_lapack_failure(monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NumericalFailure, match="did not converge"):
        symmetric_eigen(np.eye(3))


def test_symmetric_eigen_empty():
    vals, vecs = symmetric_eigen(np.zeros((0, 0)))
    assert vals.shape == (0,) and vecs.shape == (0, 0)
