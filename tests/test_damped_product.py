"""A DIRL1 step on a large term forms the next A x from the last one and the
support of y, and on a least-squares term with n <= 4m the next gradient
too; both stay as close to the dense products as one step's rounding.

``SmoothTerm._damped_product`` gives A x_new = (1-alpha) A x + alpha A y,
less b for least squares, reading only y's columns of A, and the gradient
(1-alpha) g + alpha (G y - A'b) from y's rows of G = A'A. ``run``'s carry
holds those rows as one block: gathered when an index outside it enters
y's support, and dropped in place as the support shrinks. Setting
``problems._DAMPED_MIN_SIZE`` to inf before a term is built keeps that term
on the dense ``A.dot(x)`` and ``A.T.dot(r)`` path, which is the reference
here.

The bounds were measured on the three instances below (256 x 1024 and
384 x 768 least squares, a 512 x 512 quadratic) and on four more seeds of
each, and on perfbench's 500 x 1000 lsq1000 at three seeds, under OpenBLAS
with one thread and with two: the carried product stayed within 4.9 eps
(|A||x| + |b|) of ``A.dot(x) - b``, the carried gradient within 0.70 eps
|A'|(|A||x| + |b|) of ``A.T.dot(A.dot(x) - b)``, the limits within 3.3e-15
(|x|inf about 2) and every F_perturbed within 4.2e-15 relative, with the
dense path's iteration count and support strings.
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
    GRADIENT_BOUND; returns the trace, the support size |S| of y on each step
    that took the update, the number of steps that carried a gradient and
    the row block that the run's carry held at the end."""
    step, update = solvers._step, SmoothTerm._damped_product
    sizes, gradients, carries = [], [], []

    def counted(term, product, gradient, y, alpha, block):
        out = update(term, product, gradient, y, alpha, block)
        if out is not None:
            sizes.append(np.count_nonzero(y))
        return out

    def checked(algorithm, state, config, problem, carry):
        new = step(algorithm, state, config, problem, carry)
        carries.append(carry)
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
    return trace, sizes, sum(gradients), carries[-1].block


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
    got, sizes, gradients, _ = checked_run(monkeypatch, config, problem)

    assert reference.smooth._columns is False  # the dense path never formed the cache
    assert len(sizes) >= got.iterations // 2  # the update ran on most steps
    # A least-squares term with n = 4m carries the gradient with every product update.
    assert gradients == (len(sizes) if kind == "least_squares" else 0)
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


def test_gate_of_a_term_that_carries_the_gradient_is_m(monkeypatch):
    """With n = 2m, steps with n/4 < |S| <= m take the update too: G's rows
    cost 2n|S| <= 2mn, the flops of A'r."""
    config = SolverConfig("DIRL1")
    make = lambda: least_squares(m=384, n=768)  # 2^18 * 9/8 entries
    reference = dense(monkeypatch, make)
    problem = make()
    want = run(config, reference, np.zeros(768))
    got, sizes, gradients, _ = checked_run(monkeypatch, config, problem)

    assert any(768 // 4 < size <= 384 for size in sizes)
    assert max(sizes) <= 384 and gradients == len(sizes)
    assert (got.iterations, got.converged) == (want.iterations, True)
    assert [r.support_bits for r in got.records] == [r.support_bits for r in want.records]
    assert (analysis.classify_stationary_point(problem, got.limit_x).classification
            == analysis.classify_stationary_point(reference, want.limit_x).classification
            == analysis.CLASS_STRICT_LOCAL_MIN)


class Untouchable:
    """A row block that fails on any read or write."""

    def _fail(self, *args):
        raise AssertionError("the block was touched")

    __bool__ = __len__ = __iter__ = __getitem__ = __setitem__ = _fail


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
    assert term._damped_product(term._product(y), term.gradient(y), y, 0.2, Untouchable()) is None
    assert term._gram is None


@pytest.mark.parametrize("algorithm", ["DIRL1", "DIRL2"])
def test_step_below_the_gate_neither_reads_nor_builds_a_block(algorithm, monkeypatch):
    """escape2d's 2 x 2 and solve-trace's 100 x 200 terms: the update returns
    before it looks at the run's block, so their steps do no more work."""
    gen = np.random.default_rng(4)
    A = gen.normal(0.0, 0.1, (100, 200))
    wide = Problem(SmoothTerm("least_squares", A, A[:, :5].sum(axis=1)),
                   Regularizer("LPN", 0.5), 0.05)
    step, blocks = solvers._step, []

    def guarded(algorithm, state, config, problem, carry):
        if state.k == 0:
            carry.block = Untouchable()
        blocks.append(carry.block)
        return step(algorithm, state, config, problem, carry)

    for problem in (problems.benchmark2d(), wide):
        blocks.clear()
        with monkeypatch.context() as m:
            m.setattr(solvers, "_step", guarded)
            trace = run(SolverConfig(algorithm), problem, np.ones(problem.dimension))
        assert len(blocks) == trace.iterations > 10
        assert all(type(block) is Untouchable for block in blocks)
        assert problem.smooth._columns is False


@pytest.mark.parametrize("copier", [lambda o: pickle.loads(pickle.dumps(o)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_copies_are_rebuilt_without_the_cache(copier, monkeypatch):
    config = SolverConfig("DIRL1", max_iter=300)
    problem = least_squares()
    trace, _, _, block = checked_run(monkeypatch, config, problem)
    term = problem.smooth
    assert isinstance(term._columns, np.ndarray)  # the update ran
    # The run held the support rows [A'_S | G_S]; the term holds only its own caches.
    assert block[1].shape == (block[0].size, 256 + 1024) and term._atb is not None
    twin = copier(problem)
    assert twin.smooth._columns is None
    assert all(v is None for v in (twin.smooth._atb, twin.smooth._gram))
    got, _, _, twin_block = checked_run(monkeypatch, config, twin)
    assert bits(got) == bits(trace)
    assert [v.tobytes() for v in twin_block] == [v.tobytes() for v in block]


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
        got, _ = term._damped_product(term._product(x), term.gradient(x), y, 0.2, [])
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
    trace, sizes, gradients, block = checked_run(
        monkeypatch, SolverConfig("DIRL1", max_iter=300), problem)
    assert len(sizes) >= trace.iterations // 2 and gradients == 0
    assert max(sizes) <= n // 4  # the gate of a term that carries no gradient
    term = problem.smooth
    assert isinstance(term._columns, np.ndarray)
    assert block[1].shape == (block[0].size, m)  # A's columns only, no rows of G
    assert term._gram is None and term._atb is None


def test_a_runs_bits_are_its_own():
    """The block's row order is the run's own drop history: two runs on one
    term, a run on a pickled twin, and a run after an unrelated run on the
    same term all give the same bits."""
    config = SolverConfig("DIRL1")
    problem = least_squares()
    want = bits(run(config, problem, np.zeros(1024)))
    assert bits(run(config, problem, np.zeros(1024))) == want
    assert bits(run(config, pickle.loads(pickle.dumps(problem)), np.zeros(1024))) == want
    other = Problem(problem.smooth, problem.reg, 0.08)
    run(SolverConfig("DIRL1", alpha=0.3), other, np.full(1024, 0.1))
    assert bits(run(config, problem, np.zeros(1024))) == want


@pytest.mark.parametrize("kind", INSTANCES)
def test_block_drops_rows_in_place_and_gathers_on_a_new_index(kind, monkeypatch):
    """Supports S1 > S2 > S3 take one gather; the block's rows are the
    cache rows at its indices; an index outside the block gathers again.
    Each product and gradient stays within the bounds of the dense ones."""
    problem = INSTANCES[kind]()
    term, n = problem.smooth, problem.dimension
    gen = np.random.default_rng(3)
    x = gen.normal(size=n)
    s1 = gen.choice(n, 60, replace=False)
    outside = np.setdiff1d(np.arange(n), s1)[:2]
    supports = [s1, s1[:40], s1[5:25], np.concatenate([s1[5:25], outside])]
    gather, gathers = SmoothTerm._support_rows, []

    def counted(term, support):
        gathers.append(support.size)
        return gather(term, support)

    monkeypatch.setattr(SmoothTerm, "_support_rows", counted)
    product, gradient, block = term._product(x), term.gradient(x), []
    for support, gathered in zip(supports, [[60], [60], [60], [60, 22]]):
        y = np.zeros(n)
        y[support] = gen.normal(size=support.size)
        got, got_gradient = term._damped_product(product, gradient, y, 0.2, block)
        assert gathers == gathered
        idx, rows = block
        assert np.array_equal(np.sort(idx), np.flatnonzero(y)) and rows.flags.c_contiguous
        want = term._columns[idx]
        if kind == "least_squares":
            want = np.concatenate((want, term._gram[idx]), axis=1)
        assert np.array_equal(rows, want)
        z = 0.8 * x + 0.2 * y
        scale = np.abs(term.A).dot(np.abs(z)) + np.abs(term.b) * (kind == "least_squares")
        assert (np.abs(got - term._product(z)) <= PRODUCT_BOUND * EPS * scale).all()
        if kind == "least_squares":
            error = np.abs(got_gradient - term.gradient(z))
            assert (error <= GRADIENT_BOUND * EPS * np.abs(term.A).T.dot(scale)).all()
        else:
            assert got_gradient is None
