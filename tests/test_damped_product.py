"""A DIRL1 step on a large least-squares term with n <= 4m forms the next
A x - b and the next gradient from the last ones and the support of y; both
stay as close to the dense products as one step's rounding.

``SmoothTerm._damped_product`` gives A x_new - b = (1-alpha) (A x - b) +
alpha (A y - b), reading only y's columns of A, and the gradient
(1-alpha) g + alpha (G y - A'b) from y's rows of G = A'A. ``run``'s carry
holds those rows as one block (``idx`` and ``rows``): gathered when an index
outside it enters y's support, and dropped in place as the support shrinks.
Setting ``problems._DAMPED_MIN_SIZE`` to inf before a term is built keeps
that term on the dense ``A.dot(x)`` and ``A.T.dot(r)`` path, which is the
reference here; a quadratic term and a least-squares term with n > 4m stay
on it above the size gate too.

The bounds were measured on the 256 x 1024 and 384 x 768 instances below
and on four more seeds of each, and on perfbench's 500 x 1000 lsq1000 at
three seeds, under OpenBLAS with one thread and with two: the carried
product stayed within 4.9 eps (|A||x| + |b|) of ``A.dot(x) - b``, the
carried gradient within 0.70 eps |A'|(|A||x| + |b|) of
``A.T.dot(A.dot(x) - b)``, the limits within 3.3e-15 (|x|inf about 2) and
every F_perturbed within 4.2e-15 relative, with the dense path's iteration
count and support strings. The 1024 x 256 instance at five seeds, whose
every step takes the update, gave 2.8 eps, 1.75 eps, 4.4e-15 and 1.2e-15.
"""

import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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


def tall():
    """A 1024 x 256 least-squares term: y never has more than m nonzeros, so
    every DIRL1 step takes the update, from a dense y on."""
    return least_squares(m=1024, n=256, seed=9)


INSTANCES = {"least_squares": least_squares, "tall": tall}


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


def wide(m=128, n=2048, seed=5):
    """A least-squares term with n = 16 m: G would hold 16x A's entries."""
    gen = np.random.default_rng(seed)
    A = gen.normal(0.0, 1.0 / np.sqrt(m), (m, n))
    b = A[:, :8].sum(axis=1) + 0.01 * gen.normal(size=m)
    return Problem(SmoothTerm("least_squares", A, b), Regularizer("LPN", 0.5), 0.05)


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
    the run's carry as it held them at the end."""
    step, update = solvers._step, SmoothTerm._damped_product
    sizes, gradients, carries = [], [], []

    def counted(term, product, gradient, y, alpha, carry):
        out = update(term, product, gradient, y, alpha, carry)
        if out is not None:
            sizes.append(np.count_nonzero(y))
        return out

    def checked(algorithm, state, config, problem, carry):
        new = step(algorithm, state, config, problem, carry)
        carries.append(carry)
        s = problem.smooth
        scale = np.abs(s.A).dot(np.abs(new.x)) + np.abs(s.b)
        product = s._product(new.x)
        error = np.abs(carry.product - product)
        assert (error <= PRODUCT_BOUND * EPS * scale).all(), (new.k, (error / (EPS * scale)).max())
        gradients.append(carry.gradient is not None)
        if carry.gradient is not None:
            scale = np.abs(s.A).T.dot(scale)
            error = np.abs(carry.gradient - s.A.T.dot(product))
            assert (error <= GRADIENT_BOUND * EPS * scale).all(), (
                new.k, (error / (EPS * scale)).max())
        return new

    with monkeypatch.context() as m:
        m.setattr(solvers, "_step", checked)
        m.setattr(SmoothTerm, "_damped_product", counted)
        trace = run(config, problem, np.zeros(problem.dimension))
    return trace, sizes, sum(gradients), carries[-1]


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

    assert not reference.smooth._damped and problem.smooth._damped
    if kind == "tall":
        assert len(sizes) == got.iterations  # every step took the update
    else:
        assert len(sizes) >= got.iterations // 2  # the update ran on most steps
    assert gradients == len(sizes)  # each update carried the gradient with the product
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
    assert problem.smooth._damped  # above the gate, but never taken
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
    """A row block, or an update, that fails on any use."""

    def _fail(self, *args):
        raise AssertionError("the block was touched")

    __bool__ = __len__ = __iter__ = __getitem__ = __setitem__ = __call__ = _fail


def test_term_below_the_gate_never_forms_the_cache():
    gen = np.random.default_rng(11)
    A = gen.normal(0.0, 1.0 / np.sqrt(30), (30, 50))
    b = A[:, :3].sum(axis=1)
    problem = Problem(SmoothTerm("least_squares", A, b), Regularizer("LPN", 0.5), 0.05)
    trace = run(SolverConfig("DIRL1"), problem, np.zeros(50))
    assert trace.records[-1].support_bits.count("0") > 40  # y was sparse
    term = problem.smooth
    assert not term._damped
    assert term._gram is None and term._atb is None


@pytest.mark.parametrize("algorithm", ["DIRL1", "DIRL2"])
def test_step_below_the_gate_neither_reads_nor_builds_a_block(algorithm, monkeypatch):
    """escape2d's 2 x 2 and solve-trace's 100 x 200 terms: the step never
    calls the update nor looks at the run's block, so it does no more work."""
    gen = np.random.default_rng(4)
    A = gen.normal(0.0, 0.1, (100, 200))
    wide = Problem(SmoothTerm("least_squares", A, A[:, :5].sum(axis=1)),
                   Regularizer("LPN", 0.5), 0.05)
    step, blocks = solvers._step, []

    def guarded(algorithm, state, config, problem, carry):
        if state.k == 0:
            carry.idx = carry.rows = Untouchable()
        blocks.append((carry.idx, carry.rows))
        return step(algorithm, state, config, problem, carry)

    for problem in (problems.benchmark2d(), wide):
        blocks.clear()
        with monkeypatch.context() as m:
            m.setattr(solvers, "_step", guarded)
            m.setattr(SmoothTerm, "_damped_product", Untouchable())
            trace = run(SolverConfig(algorithm), problem, np.ones(problem.dimension))
        assert len(blocks) == trace.iterations > 10
        assert all(type(v) is Untouchable for block in blocks for v in block)
        assert not problem.smooth._damped


def keeps_the_dense_bits(monkeypatch, make, config):
    """A term above the size gate that the update does not serve: its run
    gives the bytes of the same term built with the gate off, never calls
    the update, and forms neither G, A'b nor a row block. Returns the trace."""
    reference, problem = dense(monkeypatch, make), make()
    term = problem.smooth
    assert term.A.size >= problems._DAMPED_MIN_SIZE and not term._damped
    want = run(config, reference, np.zeros(problem.dimension))
    step, carries = solvers._step, []

    def kept(algorithm, state, config, problem, carry):
        carries.append(carry)
        return step(algorithm, state, config, problem, carry)

    with monkeypatch.context() as m:
        m.setattr(solvers, "_step", kept)
        m.setattr(SmoothTerm, "_damped_product", Untouchable())
        got = run(config, problem, np.zeros(problem.dimension))
    assert bits(got) == bits(want)
    assert carries and all(c.idx is c.rows is None for c in carries)
    assert term._gram is None and term._atb is None
    return got


def test_large_quadratic_keeps_the_dense_bits(monkeypatch):
    # A quadratic term's gradient, product + b, is already cheap.
    trace = keeps_the_dense_bits(monkeypatch, quadratic, SolverConfig("DIRL1"))
    assert trace.converged and trace.records[-1].support_bits.count("0") > 512 - 64


def test_wide_term_never_forms_the_gram_matrix(monkeypatch):
    # n = 16 m: G would hold 16x A's entries, so every product stays dense,
    # though y's support falls below m.
    trace = keeps_the_dense_bits(monkeypatch, wide, SolverConfig("DIRL1", max_iter=300))
    assert trace.records[-1].support_bits.count("0") >= 2048 - 128


@pytest.mark.parametrize("copier", [lambda o: pickle.loads(pickle.dumps(o)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_copies_are_rebuilt_without_the_cache(copier, monkeypatch):
    config = SolverConfig("DIRL1", max_iter=300)
    problem = least_squares()
    trace, sizes, _, carry = checked_run(monkeypatch, config, problem)
    term = problem.smooth
    assert sizes  # the update ran
    # The run held the support rows [A'_S | G_S]; the term holds only its own caches.
    assert carry.rows.shape == (carry.idx.size, 256 + 1024)
    assert term._gram is not None and term._atb is not None
    twin = copier(problem)
    assert twin.smooth._damped
    assert all(v is None for v in (twin.smooth._atb, twin.smooth._gram))
    got, _, _, twin_carry = checked_run(monkeypatch, config, twin)
    assert bits(got) == bits(trace)
    assert twin_carry.idx.tobytes() == carry.idx.tobytes()
    assert twin_carry.rows.tobytes() == carry.rows.tobytes()


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


def assert_within_bounds(term, x, y, alpha, got):
    """The update's product and gradient against the dense ones at
    (1-alpha) x + alpha y, in units of the summands' scale: eps (|A| s + |b|)
    and eps |A'| (|A| s + |b|) with s = (1-alpha) |x| + alpha |y|, which is
    |z| unless x and y cancel."""
    product, gradient = got
    z = (1.0 - alpha) * x + alpha * y
    scale = np.abs(term.A).dot((1.0 - alpha) * np.abs(x) + alpha * np.abs(y)) + np.abs(term.b)
    assert (np.abs(product - term._product(z)) <= PRODUCT_BOUND * EPS * scale).all()
    error = np.abs(gradient - term.gradient(z))
    assert (error <= GRADIENT_BOUND * EPS * np.abs(term.A).T.dot(scale)).all()


@pytest.mark.parametrize("kind", INSTANCES)
def test_block_drops_rows_in_place_and_gathers_on_a_new_index(kind, monkeypatch):
    """Supports S1 > S2 > S3 take one gather; the block's rows are A's
    columns and G's rows at its indices; an index outside the block gathers
    again. Each product and gradient stays within the bounds of the dense ones."""
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
    product, gradient, carry = term._product(x), term.gradient(x), solvers._Carry()
    for support, gathered in zip(supports, [[60], [60], [60], [60, 22]]):
        y = np.zeros(n)
        y[support] = gen.normal(size=support.size)
        got = term._damped_product(product, gradient, y, 0.2, carry)
        assert gathers == gathered
        idx, rows = carry.idx, carry.rows
        assert np.array_equal(np.sort(idx), np.flatnonzero(y)) and rows.flags.c_contiguous
        assert np.array_equal(rows, np.concatenate((term.A[:, idx].T, term._gram[idx]), axis=1))
        assert_within_bounds(term, x, y, 0.2, got)


# Entries of magnitude 1e-3 or more, or 0: no product underflows, where an
# error bound relative to the summands would not hold.
NONZERO = st.one_of(st.floats(-4.0, -1e-3), st.floats(1e-3, 4.0))
ENTRIES = st.one_of(st.just(0.0), st.floats(-2.0, -1e-3), st.floats(1e-3, 2.0))


@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_drop_rule_keeps_the_rows_of_the_support(data):
    """Random terms with n <= 4m (C- or F-ordered A, the gate patched down)
    and random runs of supports that shrink, grow or tie, each from the
    last: after each update the block holds exactly y's support, its rows
    are ``A[:, idx].T`` and ``G[idx]``, it was gathered again only when an
    index outside it entered, and the product and gradient are within the
    bounds. A y with more than m nonzeros leaves the update and the block
    alone."""
    m = data.draw(st.integers(1, 8), "m")
    n = data.draw(st.integers(1, 4 * m), "n")
    # Each entry drawn (no fill value), so that A's columns differ.
    A = data.draw(hnp.arrays(np.float64, (m, n), elements=ENTRIES, fill=st.nothing()), "A")
    if data.draw(st.booleans(), "Fortran order"):
        A = np.asfortranarray(A)
    b = data.draw(hnp.arrays(np.float64, m, elements=ENTRIES), "b")
    x = data.draw(hnp.arrays(np.float64, n, elements=ENTRIES), "x")
    alpha = data.draw(st.floats(0.05, 0.95), "alpha")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(problems, "_DAMPED_MIN_SIZE", 1)
        term = SmoothTerm("least_squares", A, b)
    assert term._damped
    gather, gathers = SmoothTerm._support_rows, []

    def counted(term, support):
        gathers.append(support.size)
        return gather(term, support)

    product, gradient, carry = term._product(x), term.gradient(x), solvers._Carry()
    support = np.zeros(0, dtype=np.intp)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SmoothTerm, "_support_rows", counted)
        for _ in range(data.draw(st.integers(2, 8), "steps")):
            move = data.draw(st.sampled_from(("shrink", "tie", "grow")), "move")
            kept = support
            if move != "tie" and support.size:  # a random subset: the drops leave holes
                kept = data.draw(st.lists(st.sampled_from(support), unique=True,
                                          max_size=support.size - (move == "shrink")), "kept")
            added = []
            if move == "grow":  # indices that may lie outside the block
                added = data.draw(st.lists(st.integers(0, n - 1), unique=True, min_size=1,
                                           max_size=m + 1), "added")
            support = np.union1d(np.array(kept, dtype=np.intp), added).astype(np.intp)
            y = np.zeros(n)
            y[support] = data.draw(hnp.arrays(np.float64, support.size, elements=NONZERO), "y_S")
            idx, rows, gathered = carry.idx, carry.rows, len(gathers)
            inside = idx is not None and np.isin(support, idx).all()
            got = term._damped_product(product, gradient, y, alpha, carry)
            if support.size > m:
                assert got is None and carry.idx is idx and carry.rows is rows
                assert len(gathers) == gathered
                continue
            assert len(gathers) == gathered + (not inside)
            idx, rows = carry.idx, carry.rows
            assert np.array_equal(np.sort(idx), support) and rows.flags.c_contiguous
            assert np.array_equal(rows[:, :m], A[:, idx].T)
            assert np.array_equal(rows[:, m:], term.hessian()[idx])
            assert_within_bounds(term, x, y, alpha, got)
