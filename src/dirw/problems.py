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


class SmoothTerm:
    """Dense smooth term with closed-form gradient and (constant) Hessian.

    ``value`` and ``gradient`` share the one dense product A x (A x - b for
    least squares) through a one-entry memo keyed on x's dtype, shape and
    bytes: the solver asks for the objective at each new iterate and then
    for the gradient at the same point. The memoized array never leaves
    the term, and an x changed in place reads as a new key.
    """

    __slots__ = ("kind", "A", "b", "c", "_gram", "_memo")

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
        object.__setattr__(self, "_memo", (None, None))

    def __setattr__(self, name, value):
        raise AttributeError("SmoothTerm is immutable")

    def __reduce__(self):  # rebuilt and re-validated; _gram and _memo start empty
        return SmoothTerm, (self.kind, self.A, self.b, self.c)

    @property
    def dimension(self):
        return self.A.shape[1]

    def _product(self, x):
        """A x for a quadratic term, A x - b for least squares, memoized."""
        x = np.asarray(x)
        # The bytes of an object array are pointers, which do not pin its values.
        key = None if x.dtype.hasobject else (x.dtype, x.shape, x.tobytes())
        memo_key, memo_out = self._memo
        if key is not None and key == memo_key:
            return memo_out
        out = self.A @ x if self.kind == "quadratic" else self.A @ x - self.b
        # One tuple, swapped whole: a thread sharing the term can lose the
        # reuse but never read a key with another key's product.
        object.__setattr__(self, "_memo", (key, out))
        return out

    def value(self, x):
        if self.kind == "quadratic":
            return float(0.5 * x @ self._product(x) + self.b @ x + self.c)
        res = self._product(x)
        return float(0.5 * res @ res) + self.c

    def gradient(self, x):
        if self.kind == "quadratic":
            return self._product(x) + self.b
        return self.A.T @ self._product(x)

    def hessian(self):
        """The constant Hessian, read-only: A, or A'A formed on first use."""
        if self.kind == "quadratic":
            return self.A
        if self._gram is None:
            gram = self.A.T @ self.A
            gram.setflags(write=False)
            object.__setattr__(self, "_gram", gram)
        return self._gram

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

    def objective_value(self, x):
        """F(x) = f(x) + lambda * sum_i r(|x_i|)."""
        x = self.check_vector(x)
        return self.smooth.value(x) + self.penalty_value(np.abs(x))

    def perturbed_value_l1(self, x, eps):
        """f(x) + lambda * sum_i r(|x_i| + eps_i); equals F(x) at eps = 0."""
        x = self.check_vector(x)
        eps = self._check_eps(x, eps)
        return self.smooth.value(x) + self.penalty_value(np.abs(x) + eps)

    def perturbed_value_l2(self, x, eps):
        """f(x) + lambda * sum_i r(sqrt(x_i^2 + eps_i^2))."""
        x = self.check_vector(x)
        eps = self._check_eps(x, eps)
        return self.smooth.value(x) + self.penalty_value(np.hypot(x, eps))

    def gradient_smooth(self, x):
        return self.smooth.gradient(self.check_vector(x))

    def hessian_smooth(self):
        # Hessian is constant for both smooth-term kinds.
        return self.smooth.hessian()

    def estimate_lipschitz_gradient(self):
        """Largest Hessian eigenvalue magnitude, computed by LAPACK.

        For least squares this is the top eigenvalue of the smaller Gram
        matrix: A A' when A has fewer rows than columns, else A'A.
        """
        s = self.smooth
        if s.kind == "quadratic":
            M = s.A
        elif s.A.shape[0] < s.A.shape[1]:
            M = s.A @ s.A.T
        else:
            M = s.hessian()
        vals = np.linalg.eigvalsh(M)
        return float(max(abs(vals[0]), abs(vals[-1])))

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
                "quadratic", s.hessian(), -(s.A.T @ s.b) - v, 0.5 * float(s.b @ s.b) + s.c
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
