"""A DIRL1 step on a large term forms the next A x from the last one and the
support of y, and on a least-squares term with n <= 4m the next gradient
too; both stay as close to the dense products as one step's rounding.

``SmoothTerm._damped_product`` gives A x_new = (1-alpha) A x + alpha A y,
less b for least squares, reading only y's columns of A, and the gradient
(1-alpha) g + alpha (G y - A'b) from y's rows of G = A'A. The rows gathered
for one support are kept until the support changes. Setting
``problems._DAMPED_MIN_SIZE`` to inf before a term is built keeps that term
on the dense ``A.dot(x)`` and ``A.T.dot(r)`` path, which is the reference
here.

The bounds were measured on the two instances below and on four more seeds
of each, under OpenBLAS with one thread and with two: the carried product
stayed within 4.9 eps (|A||x| + |b|) of ``A.dot(x) - b``, the carried
gradient within 0.69 eps |A'|(|A||x| + |b|) of ``A.T.dot(A.dot(x) - b)``,
the limits within 2.5e-15 (|x|inf about 2) and every F_perturbed within
3.9e-15 relative, with the dense path's iteration count and support strings.
"""

import copy
import math
import pickle

import numpy as np
import pytest

from dirw import analysis, problems, solvers
from dirw.problems import Problem, SmoothTerm
from dirw.regularizers import Regularizer
from dirw.solvers import SolverConfig, run

EPS = np.finfo(float).eps

#: The carried product against the dense one, in units of eps (|A||x| + |b|).
PRODUCT_BOUND = 16.0
#: The carried gradient against the dense one, in units of eps |A'|(|A||x| + |b|).
GRADIENT_BOUND = 4.0
#: The limits against the dense path's, absolute (|x|inf is about 2).
LIMIT_BOUND = 1e-14
#: Each record's F_perturbed against the dense path's, relative.
F_BOUND = 1e-14


def least_squares(m=256, n=1024, k=16, seed=7):
    """A ~ N(0, 1/m) with k planted entries of +-(1..2) and noise 0.01: A has
    2^18 entries, at the gate."""
    gen = np.random.default_rng(seed)
    A = gen.normal(0.0, 1.0 / np.sqrt(m), (m, n))
    x = np.zeros(n)
    planted = gen.choice(n, k, replace=False)
    x[planted] = gen.choice([-1.0, 1.0], k) * gen.uniform(1.0, 2.0, k)
    b = A @ x + 0.01 * gen.normal(size=m)
    return Problem(SmoothTerm("least_squares", A, b), Regularizer("LPN", 0.5), 0.05)


def quadratic(n=512, k=16, seed=8):
    """The normal equations of a planted least-squares problem with n/2 rows,
    as an exactly symmetric quadratic with n^2 = 2^18 entries."""
    gen = np.random.default_rng(seed)
    G = gen.normal(0.0, 1.0 / np.sqrt(n // 2), (n // 2, n))
    A = G.T @ G
    x = np.zeros(n)
    planted = gen.choice(n, k, replace=False)
    x[planted] = gen.choice([-1.0, 1.0], k) * gen.uniform(1.0, 2.0, k)
    h = G @ x + 0.01 * gen.normal(size=n // 2)
    return Problem(SmoothTerm("quadratic", 0.5 * (A + A.T), -(G.T @ h)),
                   Regularizer("LPN", 0.5), 0.05)


INSTANCES = {"least_squares": least_squares, "quadratic": quadratic}


def dense(monkeypatch, make):
    """The instance, built with the gate off: its term never takes the update."""
    with monkeypatch.context() as m:
        m.setattr(problems, "_DAMPED_MIN_SIZE", math.inf)
        return make()


def checked_run(monkeypatch, config, problem):
    """``run``, asserting after every step that the carried product is within
    PRODUCT_BOUND of the dense one and a carried gradient within
    GRADIENT_BOUND; returns the trace, the number of steps that took the
    update and the number that carried a gradient."""
    step, update = solvers._step, SmoothTerm._damped_product
    updates, gradients = [], []

    def counted(term, product, gradient, y, alpha):
        out = update(term, product, gradient, y, alpha)
        updates.append(out is not None)
        return out

    def checked(algorithm, state, config, problem, carry):
        new = step(algorithm, state, config, problem, carry)
        s = problem.smooth
        scale = np.abs(s.A).dot(np.abs(new.x))
        if s.kind == "least_squares":
            scale += np.abs(s.b)
        product = s._product(new.x)
        error = np.abs(carry[1] - product)
        assert (error <= PRODUCT_BOUND * EPS * scale).all(), (new.k, (error / (EPS * scale)).max())
        gradients.append(len(carry) == 3)
        if len(carry) == 3:
            scale = np.abs(s.A).T.dot(scale)
            error = np.abs(carry[2] - s.A.T.dot(product))
            assert (error <= GRADIENT_BOUND * EPS * scale).all(), (
                new.k, (error / (EPS * scale)).max())
        return new

    with monkeypatch.context() as m:
        m.setattr(solvers, "_step", checked)
        m.setattr(SmoothTerm, "_damped_product", counted)
        trace = run(config, problem, np.zeros(problem.dimension))
    return trace, sum(updates), sum(gradients)


def bits(trace):
    return ([(r.k, r.F_perturbed.hex(), r.step_norm.hex(), r.eps_inf.hex(), r.support_bits)
             for r in trace.records],
            [(x.tobytes(), eps.tobytes()) for x, eps in trace.states],
            trace.limit_x.tobytes(), trace.converged, repr(trace.diagnostics))


@pytest.mark.parametrize("kind", INSTANCES)
def test_dirl1_update_stays_within_rounding_of_the_dense_path(kind, monkeypatch):
    config = SolverConfig("DIRL1")
    reference = dense(monkeypatch, INSTANCES[kind])
    problem = INSTANCES[kind]()
    want = run(config, reference, np.zeros(reference.dimension))
    got, updates, gradients = checked_run(monkeypatch, config, problem)

    assert reference.smooth._columns is False  # the dense path never formed the cache
    assert updates >= got.iterations // 2  # the update ran on most steps
    # A least-squares term with n = 4m carries the gradient with every product update.
    assert gradients == (updates if kind == "least_squares" else 0)
    assert (got.iterations, got.converged) == (want.iterations, True)
    assert [r.support_bits for r in got.records] == [r.support_bits for r in want.records]
    assert (analysis.classify_stationary_point(problem, got.limit_x).classification
            == analysis.classify_stationary_point(reference, want.limit_x).classification
            == analysis.CLASS_STRICT_LOCAL_MIN)
    assert np.abs(got.limit_x - want.limit_x).max() <= LIMIT_BOUND
    for g, w in zip(got.records, want.records):
        assert abs(g.F_perturbed - w.F_perturbed) <= F_BOUND * abs(w.F_perturbed), g.k


def test_dirl2_keeps_the_dense_bits(monkeypatch):
    # DIRL2's y is zero only where hypot(x, eps) is, so it is dense and the
    # gate sends every step to A.dot(x).
    config = SolverConfig("DIRL2")
    reference = dense(monkeypatch, least_squares)
    problem = least_squares()
    assert bits(run(config, problem, np.zeros(1024))) == bits(
        run(config, reference, np.zeros(1024)))
    assert problem.smooth._columns is None  # above the gate, but never formed
    assert problem.smooth._gram is None


def test_term_below_the_gate_never_forms_the_cache():
    gen = np.random.default_rng(11)
    A = gen.normal(0.0, 1.0 / np.sqrt(30), (30, 50))
    b = A[:, :3].sum(axis=1)
    problem = Problem(SmoothTerm("least_squares", A, b), Regularizer("LPN", 0.5), 0.05)
    trace = run(SolverConfig("DIRL1"), problem, np.zeros(50))
    assert trace.records[-1].support_bits.count("0") > 40  # y was sparse
    assert problem.smooth._columns is False
    y = np.zeros(50)
    y[0] = 1.0
    term = problem.smooth
    assert term._damped_product(term._product(y), term.gradient(y), y, 0.2) is None
    assert term._gram is None


@pytest.mark.parametrize("copier", [lambda o: pickle.loads(pickle.dumps(o)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_copies_are_rebuilt_without_the_cache(copier):
    config = SolverConfig("DIRL1", max_iter=300)
    problem = least_squares()
    want = bits(run(config, problem, np.zeros(1024)))
    term = problem.smooth
    assert isinstance(term._columns, np.ndarray)  # the update ran
    assert term._gathered is not None and term._atb is not None
    twin = copier(problem)
    assert twin.smooth._columns is None
    assert all(v is None for v in (twin.smooth._gathered, twin.smooth._atb, twin.smooth._gram))
    assert bits(run(config, twin, np.zeros(1024))) == want


def test_cache_reads_columns_of_a():
    gen = np.random.default_rng(2)
    n = 512
    M = gen.normal(size=(n, n))
    S = 0.5 * (M + M.T)
    y = np.zeros(n)
    y[gen.choice(n, 20, replace=False)] = gen.normal(size=20)
    x = gen.normal(size=n)
    # Symmetric only within 1e-12: the cache is A', not A.
    skew = 1e-13 * np.triu(np.ones((n, n)), 1)
    cases = {"symmetric": SmoothTerm("quadratic", S, np.zeros(n)),
             "nearly symmetric": SmoothTerm("quadratic", S + skew, np.zeros(n)),
             "least squares, C order": SmoothTerm("least_squares", M, gen.normal(size=n)),
             "least squares, F order": SmoothTerm("least_squares", np.asfortranarray(M),
                                                  gen.normal(size=n))}
    for name, term in cases.items():
        z = 0.8 * x + 0.2 * y
        got, _ = term._damped_product(term._product(x), term.gradient(x), y, 0.2)
        scale = np.abs(term.A).dot(np.abs(z)) + np.abs(term.b)
        assert (np.abs(got - term._product(z)) <= PRODUCT_BOUND * EPS * scale).all(), name
        assert term._columns.flags.c_contiguous, name
        assert np.array_equal(term._columns, term.A.T), name
    assert cases["symmetric"]._columns is cases["symmetric"].A
    assert not np.shares_memory(cases["nearly symmetric"]._columns, cases["nearly symmetric"].A)
    assert np.shares_memory(cases["least squares, F order"]._columns,
                            cases["least squares, F order"].A)  # A' is C-ordered already


def test_wide_term_never_forms_the_gram_matrix(monkeypatch):
    # n = 16 m: G would hold 16x A's entries, so the product is updated and
    # the gradient stays A'r.
    gen = np.random.default_rng(5)
    m, n = 128, 2048
    A = gen.normal(0.0, 1.0 / np.sqrt(m), (m, n))
    b = A[:, :8].sum(axis=1) + 0.01 * gen.normal(size=m)
    problem = Problem(SmoothTerm("least_squares", A, b), Regularizer("LPN", 0.5), 0.05)
    trace, updates, gradients = checked_run(monkeypatch, SolverConfig("DIRL1", max_iter=300),
                                            problem)
    assert updates >= trace.iterations // 2 and gradients == 0
    term = problem.smooth
    assert isinstance(term._columns, np.ndarray)
    assert all(v is None for v in (term._gram, term._gathered[2], term._atb))


def test_gathered_rows_follow_the_support():
    """Supports S1, S2, S1 in turn give the bits of a term that has gathered
    nothing, so a kept gather never serves another support's rows."""
    problem = least_squares()
    gen = np.random.default_rng(3)
    n = problem.dimension
    x = gen.normal(size=n)
    ys = []
    for size in (40, 60):
        y = np.zeros(n)
        y[gen.choice(n, size, replace=False)] = gen.normal(size=size)
        ys.append(y)
    ys.append(0.5 * ys[0])  # S1 again, other values
    term = problem.smooth
    product, gradient = term._product(x), term.gradient(x)
    for y in ys:
        fresh = least_squares().smooth
        want = fresh._damped_product(product, gradient, y, 0.2)
        got = term._damped_product(product, gradient, y, 0.2)
        assert [v.tobytes() for v in got] == [v.tobytes() for v in want]
        assert np.array_equal(term._gathered[0], np.flatnonzero(y))
