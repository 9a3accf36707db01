"""Composite objectives F(x) = f(x) + lambda * sum_i r(|x_i|).

The smooth term f is one of two dense constant-Hessian kinds, which keeps
the gradient-Lipschitz constant global and exactly computable:

    quadratic       f(x) = 0.5 x'Ax + b'x + c     (A symmetric)
    least_squares   f(x) = 0.5 ||Ax - b||^2 + c

Problems are immutable after construction and can be loaded from the JSON
format documented in :func:`load_problem`.
"""

import json
import math

import numpy as np

from .errors import json_object, real, real_array
from .regularizers import Regularizer

SMOOTH_KINDS = ("quadratic", "least_squares")


def _frozen(a):
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


#: The fewest entries of A for which a DIRL1 step may form A x and the gradient
#: from the support of y (``SmoothTerm._damped_product``); a smaller term always
#: forms them densely.
_DAMPED_MIN_SIZE = 2**18


def _operand(x):
    """x, refused if it is a scalar, which ``A.dot`` would take as a scale factor."""
    if np.ndim(x) == 0:
        raise ValueError("x must be a vector, got a scalar")
    return x


def _l1_radius(x, eps):
    """t = |x| + eps, the radius at which DIRL1 takes r and r'."""
    return np.abs(x) + eps


#: z = hypot(x, eps), the radius at which DIRL2 takes r and r'.
_l2_radius = np.hypot


@np.errstate(all="ignore")
def _quietly(radius, x, eps):
    """radius(x, eps) without floating-point warnings: the caller checks the
    result, and recomputes it with warnings when the check fails."""
    return radius(x, eps)


class SmoothTerm:
    """Dense smooth term with closed-form gradient and (constant) Hessian.

    ``value`` and ``gradient`` each form the one dense product A x (A x - b
    for least squares). The solver forms it once per iterate, in the
    objective, and takes the next step's gradient from it through
    ``_gradient_at``. A least-squares term with at least
    ``_DAMPED_MIN_SIZE`` entries and n <= 4m (``_damped``, decided once,
    here) lets a DIRL1 step whose y is sparse form the next product and
    gradient from these ones and y's support instead (``_damped_product``),
    through y's columns of A and rows of the Gram matrix G = A'A
    (``hessian``, n^2 entries, formed on first use if the analysis has not
    formed it) and A'b (formed once). The term keeps only these per-term
    caches; the rows of y's support that the update reads are held by the
    caller, ``solvers.run``, for one run.

    Every product goes through ``ndarray.dot``: at the solver's small n the
    dispatch of the ``@`` gufunc costs more than the product itself. For a
    contraction of length 2 or more both run the same BLAS kernels and give
    the same bits. At length 1 (n = 1, or A'r for a least-squares term with
    one row) ``.dot`` keeps the sign of an exactly-zero product, which ``@``
    returns as +0.0; A'b is formed with ``@``, as ``Problem.perturbed_linearly``
    has always formed it.
    """

    __slots__ = ("kind", "A", "b", "c", "_gram", "_lipschitz", "_damped", "_atb")

    def __init__(self, kind, A, b, c=0.0):
        if kind not in SMOOTH_KINDS:
            raise ValueError(f"kind must be one of {SMOOTH_KINDS}, got {kind!r}")
        A = _frozen(np.atleast_2d(real_array("A", A)))
        b = _frozen(np.atleast_1d(real_array("b", b)))
        c = real("c", c)
        if A.ndim != 2 or (kind == "quadratic" and A.shape[0] != A.shape[1]):
            raise ValueError(f"A must be a matrix, square for a quadratic term, got {A.shape}")
        if b.shape != A.shape[:1]:
            raise ValueError(f"b must have one entry per row of A, got {b.shape} for A {A.shape}")
        if kind == "quadratic" and not np.allclose(A, A.T, rtol=0.0, atol=1e-12):
            raise ValueError("A must be symmetric within 1e-12")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "_gram", None)
        object.__setattr__(self, "_lipschitz", None)
        # With n <= 4m, G has at most 4x A's entries and its rows cost no more than A'r.
        object.__setattr__(self, "_damped", kind == "least_squares"
                           and A.size >= _DAMPED_MIN_SIZE and A.shape[1] <= 4 * A.shape[0])
        object.__setattr__(self, "_atb", None)

    def __setattr__(self, name, value):
        raise AttributeError("SmoothTerm is immutable")

    def __reduce__(self):  # rebuilt and re-validated; the caches start empty
        return SmoothTerm, (self.kind, self.A, self.b, self.c)

    @property
    def dimension(self):
        return self.A.shape[1]

    def _product(self, x):
        """A x for a quadratic term, A x - b for least squares."""
        return self.A.dot(x) if self.kind == "quadratic" else self.A.dot(x) - self.b

    def _damped_product(self, product, gradient, y, alpha, carry):
        """``(self._product(z), g)`` at z = (1-alpha) x + alpha y, g the
        gradient at z, from ``product = self._product(x)`` and ``gradient``,
        the gradient at x; or None where y has more than m nonzeros. Only a
        term with ``_damped`` set takes it.

        The product is (1-alpha) A x + alpha (A y - b), and g is
        (1-alpha) gradient + alpha (G y - A'b) with G = A'A. A y and G y
        read only y's support, through the row block ``carry.idx`` and
        ``carry.rows`` that the caller keeps from step to step (both None
        before the first gather): row i of the C-contiguous ``rows`` is
        column ``idx[i]`` of A followed by row ``idx[i]`` of G
        (``hessian``), so one ``y[idx].dot(rows)`` gives A y and G y
        together. For |S| <= m, G's rows cost 2n|S| <= 2mn flops, no more
        than A'r.

        The reweighted-l1 subproblem identifies the support of its
        solution, so DIRL1's y is sparse and its support only shrinks once
        it is small. While the support lies inside ``idx``, each row whose
        entry of y is zero is dropped in place: its slot takes a surviving
        row from the block's tail and the block is truncated, which copies
        only the dropped rows. An index outside ``idx`` gathers the block
        again, in the order of the support. The rows' order is the caller's
        drop history, so a run's bits depend only on that run.

        The rounding error of each carried quantity against the dense one at
        the rounded (1-alpha) x + alpha y is scaled by 1 - alpha at each
        further step, so it stays near one step's rounding over alpha and
        does not grow with the step count: tests hold the product within
        16 eps (|A||x| + |b|) and the gradient within 4 eps
        |A'|(|A||x| + |b|).
        """
        m, count = self.A.shape[0], np.count_nonzero(y)
        if count > m:
            return None
        idx, rows = carry.idx, carry.rows
        if idx is not None:
            ys = y[idx]
        if idx is None or np.count_nonzero(ys) != count:  # an index outside the block
            idx = np.flatnonzero(y)
            rows = self._support_rows(idx)
            ys = y[idx]
        elif count < idx.size:  # drop the rows whose entry of y is zero
            holes = np.flatnonzero(ys[:count] == 0.0)
            tail = np.flatnonzero(ys[count:]) + count
            idx[holes] = idx[tail]
            rows[holes] = rows[tail]
            ys[holes] = ys[tail]
            idx, rows, ys = idx[:count], rows[:count], ys[:count]
        carry.idx, carry.rows = idx, rows
        Ay = ys.dot(rows)
        Ay, Gy = Ay[:m], Ay[m:]
        Ay -= self.b
        Gy -= self._transposed_b()
        return (1.0 - alpha) * product + alpha * Ay, (1.0 - alpha) * gradient + alpha * Gy

    def _support_rows(self, support):
        """A fresh C-contiguous array of ``support``'s columns of A, as rows,
        followed by its rows of G."""
        # The cached G once formed: hessian() is called only to form it, once per term.
        gram = self.hessian() if self._gram is None else self._gram
        m = self.A.shape[0]
        # Two slice copies: np.concatenate(axis=1) took 5x as long at 498 x 1500.
        rows = np.empty((support.size, m + gram.shape[1]))
        rows[:, :m] = self.A[:, support].T
        rows[:, m:] = gram[support]
        return rows

    def _transposed_b(self):
        """A'b of a least-squares term, read-only, formed on first use."""
        if self._atb is None:
            atb = self.A.T @ self.b
            atb.setflags(write=False)
            object.__setattr__(self, "_atb", atb)
        return self._atb

    def value(self, x):
        return self._value_at(x, self._product(_operand(x)))

    def _value_at(self, x, product):
        """f(x), given ``product = self._product(x)``."""
        if self.kind == "quadratic":
            return float((0.5 * x).dot(product) + self.b.dot(x) + self.c)
        return float((0.5 * product).dot(product)) + self.c

    def gradient(self, x):
        return self._gradient_at(self._product(_operand(x)))

    def _gradient_at(self, product):
        """The gradient at the x whose ``self._product(x)`` is ``product``."""
        if self.kind == "quadratic":
            return product + self.b
        return self.A.T.dot(product)

    def hessian(self):
        """The constant Hessian, read-only: A, or A'A formed on first use."""
        if self.kind == "quadratic":
            return self.A
        if self._gram is None:
            gram = self.A.T @ self.A
            gram.setflags(write=False)
            object.__setattr__(self, "_gram", gram)
        return self._gram

    def _lipschitz_gradient(self):
        """The largest Hessian eigenvalue magnitude, computed on first use."""
        if self._lipschitz is None:
            if self.kind == "quadratic":
                M = self.A
            elif self.A.shape[0] < self.A.shape[1]:
                M = self.A @ self.A.T
            else:
                M = self.hessian()
            vals = np.linalg.eigvalsh(M)
            object.__setattr__(self, "_lipschitz", float(max(abs(vals[0]), abs(vals[-1]))))
        return self._lipschitz

    def to_dict(self):
        return {"kind": self.kind, "A": self.A.tolist(), "b": self.b.tolist(), "c": self.c}


class Problem:
    """Smooth term plus lambda-scaled separable penalty."""

    __slots__ = ("smooth", "reg", "lam")

    def __init__(self, smooth, reg, lam):
        lam = real("lambda", lam, 0.0)
        object.__setattr__(self, "smooth", smooth)
        object.__setattr__(self, "reg", reg)
        object.__setattr__(self, "lam", lam)

    def __setattr__(self, name, value):
        raise AttributeError("Problem is immutable")

    def __reduce__(self):
        return Problem, (self.smooth, self.reg, self.lam)

    @property
    def dimension(self):
        return self.smooth.dimension

    def check_vector(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise ValueError(
                f"x has shape {x.shape}, expected ({self.dimension},)"
            )
        if not np.isfinite(x).all():
            raise ValueError("x must be finite")
        return x

    def _check_eps(self, x, eps):
        eps = np.asarray(eps, dtype=float)
        if eps.ndim == 0:
            eps = np.full_like(x, float(eps))
        if eps.shape != x.shape:
            raise ValueError("eps must have the same length as x")
        if not ((eps >= 0.0) & (eps < math.inf)).all():  # NaN fails both
            raise ValueError("eps must be nonnegative and finite")
        return eps

    def penalty_value(self, t):
        """lambda * sum_i r(t_i) for nonnegative t."""
        r = self.reg.value(t)  # a float for scalar t
        return self.lam * float(r.sum() if isinstance(r, np.ndarray) else np.sum(r))

    def perturbed_value_l1(self, x, eps, *, _parts=None):
        """f(x) + lambda * sum_i r(|x_i| + eps_i); equals F(x) at eps = 0.

        One predicate checks x, eps and r's domain; see ``_perturbed_value``.
        """
        return self._perturbed_value(x, eps, _l1_radius, _parts)

    def perturbed_value_l2(self, x, eps, *, _parts=None):
        """f(x) + lambda * sum_i r(sqrt(x_i^2 + eps_i^2)).

        One predicate checks x, eps and r's domain; see ``_perturbed_value``.
        """
        return self._perturbed_value(x, eps, _l2_radius, _parts)

    def _perturbed_value(self, x, eps, radius, parts):
        """f(x) + lambda * sum_i r(t_i) with t = radius(x, eps).

        For a float x of the problem's dimension and a float array eps of
        x's shape or 0-d, one predicate guards the whole call: eps >= 0 and
        t < inf. A finite t needs a finite x and eps, and NaN fails both
        comparisons, so r(t) is taken without checking t again. Anything
        else goes through ``check_vector``, ``_check_eps`` and
        ``penalty_value`` in turn, which raise the errors and warnings that
        name the array at fault.

        ``parts``, the solver's ``_Carry``, names what the next step takes:
        when the predicate accepted x and eps it receives the checked t as
        ``radius`` and ``smooth._product(x)`` as ``product``, so the next
        step neither forms nor checks either again; a fallback clears its
        radius, product and gradient. A product that it comes holding, the
        one the step formed from the last (``SmoothTerm._damped_product``),
        is taken in place of a dense ``smooth._product(x)``.
        The solver passes it only with a finite x and an eps >= 0 and finite,
        for which only an overflow of t can warn: so t is formed with
        warnings on, once, and a t that fails the predicate is not formed
        again. Any other call forms t quietly and, if the predicate fails,
        once more with warnings after x and eps have passed their checks.
        """
        x = np.asarray(x, dtype=float)
        t = None  # a t formed with warnings on: the checks below take it as it is
        if (x.shape == (self.dimension,) and type(eps) is np.ndarray
                and eps.dtype is x.dtype and eps.shape in (x.shape, ())):
            t = _quietly(radius, x, eps) if parts is None else radius(x, eps)
            if np.count_nonzero((eps >= 0.0) & (t < math.inf)) == t.size:
                r = self.reg._value_in_domain(t)
                product = None if parts is None else parts.product
                if product is None:
                    product = self.smooth._product(x)
                if parts is not None:
                    parts.radius, parts.product = t, product
                return self.smooth._value_at(x, product) + self.lam * float(np.add.reduce(r))
            if parts is None:  # formed quietly: formed again below, with warnings
                t = None
        if parts is not None:  # the next step forms its own
            parts.radius = parts.product = parts.gradient = None
        x = self.check_vector(x)
        eps = self._check_eps(x, eps)
        return self.smooth.value(x) + self.penalty_value(radius(x, eps) if t is None else t)

    def gradient_smooth(self, x):
        return self.smooth.gradient(self.check_vector(x))

    def hessian_smooth(self):
        # Hessian is constant for both smooth-term kinds.
        return self.smooth.hessian()

    def estimate_lipschitz_gradient(self):
        """Largest Hessian eigenvalue magnitude, computed by LAPACK.

        For least squares this is the top eigenvalue of the smaller Gram
        matrix: A A' when A has fewer rows than columns, else A'A. The
        smooth term is immutable, so it keeps the value: one eigensolve
        serves every run on it.
        """
        return self.smooth._lipschitz_gradient()

    def perturbed_linearly(self, v):
        """The problem with smooth term f(x) - <v, x> (same penalty).

        Both smooth kinds are quadratics, so the perturbed problem is
        expressed as an explicit quadratic term.
        """
        v = np.asarray(v, dtype=float)
        if v.shape != (self.dimension,):
            raise ValueError("perturbation length must match the dimension")
        s = self.smooth
        if s.kind == "quadratic":
            smooth = SmoothTerm("quadratic", s.A, s.b - v, s.c)
        else:
            smooth = SmoothTerm(
                "quadratic", s.hessian(), -s._transposed_b() - v, 0.5 * float(s.b @ s.b) + s.c
            )
        return Problem(smooth, self.reg, self.lam)

    def to_dict(self):
        return {
            "smooth": self.smooth.to_dict(),
            "regularizer": self.reg.to_dict(),
            "lambda": self.lam,
        }


def benchmark2d():
    """The canonical 2-D test problem.

    f(x) = x1^2 + (x2 - 5/4)^2 with the square-root penalty (LPN, p = 1/2)
    and lambda = 1. Its stationary points all lie on the x2-axis at
    x2 in {0, (3 - 2 sqrt(2))/4, 1}: a spurious minimum at the origin, a
    strict saddle, and the global minimum.
    """
    A = np.array([[2.0, 0.0], [0.0, 2.0]])
    b = np.array([0.0, -2.5])
    c = 25.0 / 16.0
    return Problem(SmoothTerm("quadratic", A, b, c), Regularizer("LPN", 0.5), 1.0)


#: x2 value of the on-axis strict saddle of :func:`benchmark2d`.
BENCHMARK2D_SADDLE_X2 = (3.0 - 2.0 * math.sqrt(2.0)) / 4.0

#: The three stationary points of :func:`benchmark2d`.
BENCHMARK2D_STATIONARY = (
    (0.0, 0.0),
    (0.0, BENCHMARK2D_SADDLE_X2),
    (0.0, 1.0),
)


def problem_from_dict(data):
    """Build a validated Problem from parsed JSON. Every message starts with
    'invalid problem file', and below the root names the object or field at fault."""
    data = json_object("invalid problem file", data, ("smooth", "regularizer", "lambda"), ())
    try:
        sm = json_object("smooth", data["smooth"], ("kind", "A", "b"), ("c",))
        smooth = SmoothTerm(**sm)
        return Problem(smooth, Regularizer.from_dict(data["regularizer"]), data["lambda"])
    except ValueError as exc:
        # Every message above leads with the name of the offending object or field.
        field = str(exc).split()[0]
        raise ValueError(f"invalid problem file: field {field!r}: {exc}") from exc


def load_problem(path):
    """Load and fully validate a problem definition from a JSON file.

    Schema::

        {"smooth": {"kind": "quadratic"|"least_squares",
                    "A": [[...]], "b": [...], "c": 0.0},
         "regularizer": {"family": "EXP"|"LOG"|"FRA"|"LPN"|"TAN", "p": 0.5},
         "lambda": 1.0}
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid problem file: not valid JSON: {exc}") from exc
    return problem_from_dict(data)
