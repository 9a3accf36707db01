"""The input checks of the solver loop accept and reject what they always did.

Each check is written with as few numpy reductions as possible. The oracles
below are the earlier, plainly written predicates; every property asserts
that the current function and its oracle accept the same inputs, return
the same bytes and raise the same exception type with the same message.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dirw.problems import Problem, SmoothTerm
from dirw.regularizers import FAMILIES, Regularizer, _prepare
from dirw.solvers import (
    SolverConfig,
    _Carry,
    dirl1_weights,
    dirl2_subproblem,
    dirl2_weights,
    soft_threshold,
)

SETTINGS = settings(max_examples=200, deadline=None, database=None)

SPECIAL = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308)
ELEMENTS = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-3.0, 3.0),
)
SHAPES = st.one_of(st.just(()), st.integers(0, 1000).map(lambda n: (n,)))


def arrays(shape=SHAPES):
    return hnp.arrays(np.float64, shape, elements=ELEMENTS)


@st.composite
def pairs(draw):
    """Two arrays of one shape: 0-d, empty or up to 1000 entries."""
    shape = draw(SHAPES)
    return draw(arrays(st.just(shape))), draw(arrays(st.just(shape)))


def _regularizer(family, p):
    return Regularizer(family, 0.5 if family == "LPN" and p >= 1.0 else p)


REGULARIZERS = st.builds(
    _regularizer, st.sampled_from(FAMILIES), st.sampled_from((0.1, 0.5, 2.0))
)


def outcome(fn, *args):
    """What a call did: its exception, or the type, dtype, shape and bytes of its result."""
    with np.errstate(all="ignore"):
        try:
            out = fn(*args)
        except Exception as exc:  # the exception is the outcome
            return ("raised", type(exc), str(exc))
    if isinstance(out, tuple):
        return tuple(_value(v) for v in out)
    return _value(out)


def _value(v):
    if isinstance(v, np.ndarray):
        return ("array", v.dtype.str, v.shape, v.tobytes())
    return (type(v), repr(v))


# -- oracles: the predicates as they were before the loop was tightened ------


def old_prepare(t, positive):
    arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("evaluation point must be finite")
    if positive:
        if np.any(arr <= 0.0):
            raise ValueError("evaluation point must be > 0")
    elif np.any(arr < 0.0):
        raise ValueError("evaluation point must be >= 0")
    return arr, arr.ndim == 0


def old_check_vector(n, x):
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"x has shape {x.shape}, expected ({n},)")
    if not np.all(np.isfinite(x)):
        raise ValueError("x must be finite")
    return x


def old_check_eps(x, eps):
    eps = np.asarray(eps, dtype=float)
    if eps.ndim == 0:
        eps = np.full_like(x, float(eps))
    if eps.shape != x.shape:
        raise ValueError("eps must have the same length as x")
    if np.any(eps < 0.0) or not np.all(np.isfinite(eps)):
        raise ValueError("eps must be nonnegative and finite")
    return eps


def old_soft_threshold(z, w):
    z = np.asarray(z, dtype=float)
    w = np.asarray(w, dtype=float)
    if np.any(w < 0.0) or np.any(np.isnan(w)):
        raise ValueError("thresholds must be nonnegative")
    return np.sign(z) * np.maximum(np.abs(z) - w, 0.0)


def old_dirl1_weights(x, eps, reg):
    t = np.abs(np.asarray(x, dtype=float)) + np.asarray(eps, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("|x_i| + eps_i must be nonnegative")
    if np.any(np.isnan(t)):  # refused, where the mask would give r'(0+)
        raise ValueError("x and eps must not hold NaN")
    w = np.full(t.shape, reg.derivative_at_zero_plus())
    pos = t > 0.0
    if np.any(pos):
        w[pos] = np.atleast_1d(reg.derivative(t[pos]))
    return w


def old_dirl2_weights(x, eps, reg):
    z = np.hypot(np.asarray(x, dtype=float), np.asarray(eps, dtype=float))
    if np.any(np.isnan(z)):  # refused, where the mask would give inf
        raise ValueError("x and eps must not hold NaN")
    u = np.full(z.shape, math.inf)
    pos = z > 0.0
    if np.any(pos):
        u[pos] = np.atleast_1d(reg.derivative(z[pos])) / (2.0 * z[pos])
    return u


def old_dirl2_subproblem(x, grad, u, beta, lam):
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if np.any(u < 0.0) or np.any(np.isnan(u)):
        raise ValueError("weights must be nonnegative")
    return np.where(np.isinf(u), 0.0, (x - grad / beta) / (1.0 + (2.0 * lam / beta) * u))


# -- properties ----------------------------------------------------------------

DIMENSIONS = (0, 1, 2, 5, 1000)
PROBLEMS = {
    n: Problem(SmoothTerm("quadratic", np.eye(n), np.zeros(n)), Regularizer("LPN", 0.5), 1.0)
    for n in DIMENSIONS
}


@pytest.mark.parametrize("positive", [True, False], ids=["positive", "nonnegative"])
@SETTINGS
@given(t=arrays())
def test_prepare_matches_oracle(positive, t):
    assert outcome(_prepare, t, positive) == outcome(old_prepare, t, positive)


@SETTINGS
@given(t=st.sampled_from(SPECIAL), positive=st.booleans())
def test_prepare_matches_oracle_on_python_floats(t, positive):
    assert outcome(_prepare, t, positive) == outcome(old_prepare, t, positive)


@SETTINGS
@given(n=st.sampled_from(DIMENSIONS), x=arrays(), same_shape=st.booleans(),
       data=st.data())
def test_check_vector_matches_oracle(n, x, same_shape, data):
    if same_shape:
        x = data.draw(arrays(st.just((n,))))
    assert outcome(PROBLEMS[n].check_vector, x) == outcome(old_check_vector, n, x)


@SETTINGS
@given(pair=pairs(), eps0=st.none() | ELEMENTS)
def test_check_eps_matches_oracle(pair, eps0):
    x, eps = pair
    x = np.atleast_1d(x)
    if eps0 is not None:
        eps = np.float64(eps0)
    # _check_eps reads only its arguments, not the problem's dimension.
    assert outcome(PROBLEMS[1]._check_eps, x, eps) == outcome(old_check_eps, x, eps)


@SETTINGS
@given(pair=pairs())
def test_soft_threshold_matches_oracle(pair):
    z, w = pair
    assert outcome(soft_threshold, z, w) == outcome(old_soft_threshold, z, w)


@SETTINGS
@given(pair=pairs(), reg=REGULARIZERS)
def test_dirl1_weights_match_oracle(pair, reg):
    x, eps = pair
    assert outcome(dirl1_weights, x, eps, reg) == outcome(old_dirl1_weights, x, eps, reg)


@SETTINGS
@given(pair=pairs(), reg=REGULARIZERS)
def test_dirl2_weights_match_oracle(pair, reg):
    x, eps = pair
    assert outcome(dirl2_weights, x, eps, reg) == outcome(old_dirl2_weights, x, eps, reg)


@SETTINGS
@given(pair=pairs(), beta=st.sampled_from((0.5, 4.0)), lam=st.sampled_from((0.05, 1.0)))
def test_dirl2_subproblem_matches_oracle(pair, beta, lam):
    x, u = pair
    grad = np.ones_like(x)
    assert outcome(dirl2_subproblem, x - grad / beta, u, beta, lam) == outcome(
        old_dirl2_subproblem, x, grad, u, beta, lam
    )


def old_penalty_value(problem, t):
    return problem.lam * float(np.sum(problem.reg.value(t)))


@SETTINGS
@given(t=arrays() | st.sampled_from(SPECIAL))
def test_penalty_value_matches_oracle(t):
    problem = PROBLEMS[2]
    assert outcome(problem.penalty_value, t) == outcome(old_penalty_value, problem, t)


def old_perturbed_value_l1(problem, x, eps):
    x = problem.check_vector(x)
    eps = problem._check_eps(x, eps)
    return problem.smooth.value(x) + problem.penalty_value(np.abs(x) + eps)


def old_perturbed_value_l2(problem, x, eps):
    x = problem.check_vector(x)
    eps = problem._check_eps(x, eps)
    return problem.smooth.value(x) + problem.penalty_value(np.hypot(x, eps))


def outcome_warned(fn, *args):
    """``outcome`` under numpy's default floating-point handling, with every
    warning raised as an error as under ``-W error``: the warnings a call
    gives, and where it gives them, count too."""
    with np.errstate(all="warn", under="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = fn(*args)
        except Exception as exc:  # the exception is the outcome
            return ("raised", type(exc), str(exc))
    return _value(out)


OBJECTIVE_PROBLEMS = [
    Problem(SmoothTerm("quadratic", np.diag(np.arange(1.0, n + 1)), np.full(n, -0.5), 0.25),
            Regularizer(family, 0.5), 0.7)
    for n in (0, 1, 2, 5) for family in ("LPN", "LOG")
]
OBJECTIVES = [
    ("l1", "perturbed_value_l1", old_perturbed_value_l1),
    ("l2", "perturbed_value_l2", old_perturbed_value_l2),
]


@st.composite
def objective_args(draw):
    """A problem, an x of its dimension or another shape, and an eps that is a
    same-shape, 0-d or mismatched array, a numpy or Python float, or a list."""
    problem = draw(st.sampled_from(OBJECTIVE_PROBLEMS))
    n = problem.dimension
    x = draw(arrays(st.just((n,)) | SHAPES))
    kind = draw(st.sampled_from(("same", "same", "same", "0-d", "other", "float64",
                                 "float", "list")))
    if kind == "same":
        eps = draw(arrays(st.just(x.shape)))
    elif kind == "0-d":
        eps = draw(arrays(st.just(())))
    elif kind == "other":
        eps = draw(arrays())
    elif kind == "float64":
        eps = np.float64(draw(ELEMENTS))
    elif kind == "float":
        eps = draw(ELEMENTS)
    else:
        eps = draw(arrays(st.just(x.shape))).tolist()
    return problem, x, eps


@pytest.mark.parametrize("name, method, oracle", OBJECTIVES, ids=[o[0] for o in OBJECTIVES])
@SETTINGS
@given(args=objective_args())
def test_perturbed_value_matches_oracle(name, method, oracle, args):
    problem, x, eps = args
    current = getattr(problem, method)
    assert outcome(current, x, eps) == outcome(oracle, problem, x, eps)
    assert outcome_warned(current, x, eps) == outcome_warned(oracle, problem, x, eps)


@pytest.mark.parametrize("name, method, oracle", OBJECTIVES, ids=[o[0] for o in OBJECTIVES])
@pytest.mark.parametrize("x, eps", [
    ([1.0, 2.0], [0.5]),  # mismatched shapes
    ([1.0, 2.0], [[0.5, 0.5]]),
    ([1.0, 2.0, 3.0], [0.5, 0.5, 0.5]),
    ([1.0, 2.0], 0.5),  # 0-d eps, as a float and as arrays
    ([1.0, 2.0], np.float64(0.5)),
    ([1.0, 2.0], np.array(0.5)),
    ([1.0, 2.0], np.array(-0.5)),
    ([1.0, 2.0], np.array(math.nan)),
    ([math.nan, 2.0], [0.5, 0.5]),  # NaN in x, in eps, in both
    ([1.0, 2.0], [0.5, math.nan]),
    ([math.nan, 2.0], [math.nan, 0.5]),
    ([math.inf, 2.0], [0.5, 0.5]),  # +-inf in x and in eps
    ([-math.inf, 2.0], [0.5, -math.inf]),
    ([1.0, 2.0], [math.inf, 0.5]),
    ([1.0, 2.0], [0.5, -math.inf]),
    ([-0.0, 0.0], [-0.0, 0.0]),  # -0.0 passes as 0
    ([-0.0, 2.0], np.array(-0.0)),
    ([1.0, 2.0], [0.5, -1e-300]),  # negative eps
    ([1e308, 2.0], [1e308, 0.5]),  # |x| + eps overflows; so does hypot
    ([-1e308, 2.0], np.array(1e308)),
    ([5e-324, 2.0], [5e-324, 0.5]),  # subnormal entries
])
def test_perturbed_value_matches_oracle_on_edge_cases(name, method, oracle, x, eps):
    problem = OBJECTIVE_PROBLEMS[4]  # n = 2, LPN
    assert problem.dimension == 2
    x = np.array(x)
    current = getattr(problem, method)
    assert outcome(current, x, eps) == outcome(oracle, problem, x, eps)
    assert outcome_warned(current, x, eps) == outcome_warned(oracle, problem, x, eps)


# -- the check-once path ------------------------------------------------------

CARRY_PROBLEMS = [
    *OBJECTIVE_PROBLEMS,
    *(Problem(SmoothTerm("least_squares", [[1.0, -2.0, 0.5], [0.25, 3.0, -1.0]], [0.5, -1.0]),
              _regularizer(family, 0.5), 0.3) for family in FAMILIES),
]
POSITIVE = st.sampled_from((5e-324, 1e-300, 2.2250738585072014e-308, 1.0, 1e308)) | st.floats(
    5e-324, 1e308)


@st.composite
def scheduled_args(draw):
    """A problem, an x of its dimension and the eps that ``run`` holds after k
    steps of a ``SolverConfig`` schedule: a scalar or tuple eps0 > 0 scaled
    by the damped or geometric factor at each step, as the step scales it,
    on to entries that underflow to 0."""
    problem = draw(st.sampled_from(CARRY_PROBLEMS))
    n = problem.dimension
    scalar = n == 0 or draw(st.booleans())
    eps0 = draw(POSITIVE) if scalar else tuple(draw(st.lists(POSITIVE, min_size=n, max_size=n)))
    config = SolverConfig("DIRL1", alpha=draw(st.sampled_from((0.2, 0.9)) | st.floats(0.01, 0.99)),
                          mu=draw(st.sampled_from((0.3, 1e-5)) | st.floats(1e-9, 0.99)),
                          eps0=eps0, eps_decay=draw(st.sampled_from(("damped", "geometric"))))
    eps = config.initial_eps(n)
    for _ in range(draw(st.sampled_from((0, 1, 40)) | st.integers(0, 6000))):
        eps = config.eps_factor * eps
    return problem, draw(arrays(st.just((n,)))), eps


def _warnings_and_outcome(fn, *args):
    """The sorted warnings that a call gives under numpy's default
    floating-point handling, and its outcome with warnings ignored."""
    with np.errstate(all="warn", under="ignore"), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            fn(*args)
        except Exception:  # the outcome below records it
            pass
    return sorted((w.category.__name__, str(w.message)) for w in caught), outcome(fn, *args)


@pytest.mark.parametrize("name, method, oracle", OBJECTIVES, ids=[o[0] for o in OBJECTIVES])
@SETTINGS
@given(args=scheduled_args())
@example(args=(OBJECTIVE_PROBLEMS[4], np.array([1e308, 2.0]), np.array([1e308, 0.5])))
def test_check_once_objective_matches_the_plain_one(name, method, oracle, args):
    """``run``'s objective call (with a carry), over the eps that a
    ``SolverConfig`` schedule gives, returns the bits, raises the errors and
    gives the warnings of a direct call; where both the product and the
    radius overflow, their warnings come in the other order. A carry that
    it accepts into holds the radius and product of x and eps."""
    problem, x, eps = args
    carry = _Carry()
    current = getattr(problem, method)
    checked = _warnings_and_outcome(lambda x, eps: current(x, eps, _parts=carry), x, eps)
    assert checked == _warnings_and_outcome(current, x, eps)
    assert checked[1] == outcome(oracle, problem, x, eps)
    if carry.radius is not None:
        with np.errstate(all="ignore"):  # a product can overflow where t does not
            radius = np.abs(x) + eps if name == "l1" else np.hypot(x, eps)
            product = problem.smooth._product(x)
        assert carry.radius.tobytes() == radius.tobytes()
        assert carry.product.tobytes() == product.tobytes()
