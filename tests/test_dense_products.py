"""The smooth term and the solver form A x (A x - b for least squares) once
per point.

``SmoothTerm.value`` and ``SmoothTerm.gradient`` each form that product;
the solver's objective call forms it once per iterate and the next step
takes its gradient from it. The properties below check that every result
equals the unshared formula bit for bit, however the points repeat or
change in place, and that ``run`` does one product per objective
evaluation plus one A'r per least-squares step.

Every product goes through ``ndarray.dot``, which at small n costs about a
third of the ``@`` gufunc. A property below pins that ``.dot`` and ``@``
give the same bytes for every contraction of length 2 or more, and differ
at most in the sign of a zero at length 1.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dirw.problems import SMOOTH_KINDS, Problem, SmoothTerm
from dirw.regularizers import Regularizer
from dirw.solvers import SolverConfig, run

SETTINGS = settings(max_examples=200, deadline=None, database=None)

ENTRIES = st.one_of(st.sampled_from((0.0, -0.0, 5e-324, -1.0)), st.floats(-1e3, 1e3))


def formula(term, name, x):
    """value or gradient written out in full, with no shared product."""
    A, b = term.A, term.b
    if term.kind == "quadratic":
        if name == "value":
            return float((0.5 * x).dot(A.dot(x)) + b.dot(x) + term.c)
        return A.dot(x) + b
    if name == "value":
        res = A.dot(x) - b
        return float((0.5 * res).dot(res)) + term.c
    return A.T.dot(A.dot(x) - b)


def bits(out):
    if isinstance(out, float):
        return struct.pack("<d", out)
    return out.dtype.str, out.shape, out.tobytes()


@st.composite
def terms_and_points(draw):
    kind = draw(st.sampled_from(SMOOTH_KINDS))
    n = draw(st.integers(1, 4))
    m = n if kind == "quadratic" else draw(st.integers(1, 5))
    A = draw(hnp.arrays(np.float64, (m, n), elements=ENTRIES))
    if kind == "quadratic":
        A = (A + A.T) / 2.0  # exactly symmetric: IEEE addition commutes
    b = draw(hnp.arrays(np.float64, (m,), elements=ENTRIES))
    term = SmoothTerm(kind, A, b, draw(st.floats(-1e3, 1e3)))
    points = draw(st.lists(hnp.arrays(np.float64, (n,), elements=ENTRIES),
                           min_size=1, max_size=3))
    # (point index, action, coordinate, new entry); the actions are applied in
    # order to the same arrays, so a point can be read, changed and read again.
    actions = draw(st.lists(
        st.tuples(st.integers(0, len(points) - 1),
                  st.sampled_from(("value", "gradient", "copy", "negate", "set", "int")),
                  st.integers(0, n - 1), ENTRIES),
        max_size=12,
    ))
    return term, points, actions


def check(term, name, x):
    assert bits(getattr(term, name)(x)) == bits(formula(term, name, x)), name


@SETTINGS
@given(case=terms_and_points())
def test_value_and_gradient_equal_the_unshared_formulas(case):
    term, points, actions = case
    x = points[0]
    zeros = np.zeros_like(x)
    # The fixed opening: a repeated x; an x changed in place between value
    # and gradient; -0.0 against 0.0; int arrays, one with x's own bytes.
    for name in ("value", "gradient", "value", "gradient"):
        check(term, name, x)
    check(term, "value", x)
    x[0] = -x[0] if x[0] else 1.0
    check(term, "gradient", x)
    check(term, "value", zeros)
    check(term, "gradient", -zeros)
    check(term, "value", -zeros)
    check(term, "gradient", zeros)
    check(term, "value", x)
    check(term, "gradient", x.view(np.int64))
    check(term, "value", x.astype(np.int64))
    check(term, "gradient", x.astype(np.int64))
    for i, action, j, entry in actions:
        y = points[i]
        if action == "copy":
            check(term, "gradient", y.copy())
        elif action == "negate":
            y[j] = -y[j]
        elif action == "set":
            y[j] = entry
        elif action == "int":
            check(term, "value", y.view(np.int64))
        else:
            check(term, action, y)


@pytest.mark.parametrize("kind", SMOOTH_KINDS)
def test_object_arrays_are_never_reused(kind):
    # An object array's bytes are pointers: here they stay the same while the
    # value behind one of them changes in place.
    term = SmoothTerm(kind, [[2.0, 1.0], [1.0, 3.0]], [1.0, -1.0])
    x = np.empty(2, dtype=object)
    x[0], x[1] = np.array(1.0), np.array(2.0)
    term.value(x)
    x[0][...] = 5.0
    assert term.gradient(x).tolist() == formula(term, "gradient", x).tolist()


class CountingMatrix(np.ndarray):
    """A matrix that counts its matrix-vector products by shape, through
    ``.dot`` or ``@``."""

    counts = None

    def _count(self, other):
        if np.ndim(other) == 1:
            CountingMatrix.counts[self.shape] = CountingMatrix.counts.get(self.shape, 0) + 1

    def dot(self, other):
        self._count(other)
        return np.asarray(self).dot(other)

    def __matmul__(self, other):
        self._count(other)
        return np.asarray(self) @ other


@pytest.mark.parametrize("algorithm", ["DIRL1", "DIRL2"])
@pytest.mark.parametrize("kind", SMOOTH_KINDS)
def test_run_does_one_product_per_objective_call(kind, algorithm, monkeypatch):
    gen = np.random.default_rng(3)
    if kind == "quadratic":
        M = gen.normal(size=(5, 5))
        A, b = (M @ M.T) / 5.0, gen.normal(size=5)
    else:
        A, b = gen.normal(0.0, 1.0 / np.sqrt(6), (6, 5)), gen.normal(size=6)
    problem = Problem(SmoothTerm(kind, A, b), Regularizer("LPN", 0.5), 0.1)
    object.__setattr__(problem.smooth, "A", problem.smooth.A.view(CountingMatrix))
    monkeypatch.setattr(CountingMatrix, "counts", {})
    calls = {"objective": 0, "gradient": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for method in ("perturbed_value_l1", "perturbed_value_l2"):
        monkeypatch.setattr(Problem, method, counted("objective", getattr(Problem, method)))
    monkeypatch.setattr(SmoothTerm, "gradient", counted("gradient", SmoothTerm.gradient))

    trace = run(SolverConfig(algorithm, max_iter=60), problem, gen.uniform(-3, 3, 5))

    assert trace.iterations == 60 and calls["objective"] == 61
    # Each step takes its gradient from the product that the objective call
    # at its x formed; only the stationarity residual at the extrapolated
    # limit asks the term for a gradient, and forms its own product.
    assert calls["gradient"] == 1
    if kind == "least_squares":  # plus one A'r per step and one at the limit
        assert CountingMatrix.counts == {(6, 5): 62, (5, 6): 61}
    else:
        assert CountingMatrix.counts == {(5, 5): 62}


# -- ndarray.dot against @ ------------------------------------------------------

PRODUCT_ENTRIES = st.one_of(st.sampled_from((0.0, -0.0, 5e-324, 1.0, -1.0)),
                            st.floats(allow_nan=False, allow_infinity=False))


def same_bytes_or_zero_sign(dot, matmul, length):
    """``.dot`` and ``@`` agree byte for byte; at contraction length 1 an
    exact zero may differ in sign."""
    dot, matmul = np.asarray(dot), np.asarray(matmul)
    assert (dot.dtype, dot.shape) == (matmul.dtype, matmul.shape)
    if length >= 2:
        assert dot.tobytes() == matmul.tobytes()
    else:
        assert np.array_equal(dot, matmul, equal_nan=True)
        same = dot.view(np.int64) == matmul.view(np.int64)
        assert ((dot == 0.0) | same).all()


@st.composite
def products(draw):
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    A = draw(hnp.arrays(np.float64, (m, n), elements=PRODUCT_ENTRIES))
    if draw(st.booleans()):
        A = np.asfortranarray(A)
    x, v = (draw(hnp.arrays(np.float64, (n,), elements=PRODUCT_ENTRIES)) for _ in range(2))
    r = draw(hnp.arrays(np.float64, (m,), elements=PRODUCT_ENTRIES))
    return A, x, v, r


@SETTINGS
@given(case=products())
def test_dot_equals_matmul(case):
    A, x, v, r = case
    n, m = x.size, r.size
    with np.errstate(all="ignore"):  # the products may overflow; the bits are compared
        same_bytes_or_zero_sign(A.dot(x), A @ x, n)
        same_bytes_or_zero_sign(A.T.dot(r), A.T @ r, m)
        same_bytes_or_zero_sign(x.dot(v), x @ v, n)


@pytest.mark.parametrize("name", ["value", "gradient"])
@pytest.mark.parametrize("kind", SMOOTH_KINDS)
def test_a_scalar_x_is_refused(kind, name):
    # A.dot(2.0) is 2 A, where A @ 2.0 raised: the term refuses a scalar itself.
    term = SmoothTerm(kind, [[2.0, 1.0], [1.0, 3.0]], [1.0, -1.0])
    for x in (2.0, np.float64(2.0), np.array(2.0)):
        with pytest.raises(ValueError, match="x must be a vector, got a scalar"):
            getattr(term, name)(x)
