"""Concave sparsity-inducing penalties r(t) on t = |x_i| >= 0.

Five built-in parametric families are provided, all continuous and concave
on [0, inf) with r(0) = 0 and r'(t) >= 0:

    EXP   r(t) = 1 - exp(-p t)
    LOG   r(t) = log(1 + p t)
    FRA   r(t) = t / (t + p)
    LPN   r(t) = t**p           (0 < p < 1)
    TAN   r(t) = arctan(t / p)

They split into two classes by the one-sided derivative at zero: EXP, LOG,
FRA and TAN have r'(0+) < inf (Lipschitz at zero), while LPN has
r'(0+) = inf. The infinity is represented by ``math.inf`` and is expected
by downstream weight computations.
"""

import math
from dataclasses import dataclass

import numpy as np

FAMILIES = ("EXP", "LOG", "FRA", "LPN", "TAN")


def _prepare(t, positive):
    """Validate the evaluation point(s) and return (array, was_scalar)."""
    arr = np.asarray(t, dtype=float)
    in_domain = arr > 0.0 if positive else arr >= 0.0
    if not (in_domain & (arr < math.inf)).all():  # NaN fails both comparisons
        if not np.isfinite(arr).all():
            raise ValueError("evaluation point must be finite")
        raise ValueError(
            "evaluation point must be > 0" if positive else "evaluation point must be >= 0"
        )
    return arr, arr.ndim == 0


def _ret(arr, scalar):
    return float(arr) if scalar else arr


class Regularizer:
    """One of the built-in penalty families, frozen after construction.

    Parameters
    ----------
    family : str
        One of ``FAMILIES``.
    p : float
        Family parameter; must be positive, and inside (0, 1) for LPN.
    """

    __slots__ = ("family", "p")

    def __init__(self, family, p):
        if family not in FAMILIES:
            raise ValueError(f"unknown regularizer family {family!r}")
        p = float(p)
        if not math.isfinite(p) or p <= 0.0:
            raise ValueError("p must be positive and finite")
        if family == "LPN" and not 0.0 < p < 1.0:
            raise ValueError("p must satisfy 0 < p < 1 for the LPN family")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("Regularizer is immutable")

    def __repr__(self):
        return f"Regularizer({self.family!r}, p={self.p})"

    def __eq__(self, other):
        return (
            isinstance(other, Regularizer)
            and self.family == other.family
            and self.p == other.p
        )

    def __hash__(self):
        return hash((self.family, self.p))

    def value(self, t):
        """r(t) for t >= 0; r(0) = 0 for every family."""
        t, scalar = _prepare(t, positive=False)
        p = self.p
        if self.family == "EXP":
            out = 1.0 - np.exp(-p * t)
        elif self.family == "LOG":
            out = np.log1p(p * t)
        elif self.family == "FRA":
            out = t / (t + p)
        elif self.family == "LPN":
            out = t**p
        else:  # TAN
            out = np.arctan(t / p)
        return _ret(out, scalar)

    def derivative(self, t):
        """r'(t) for t > 0; strictly positive on (0, inf)."""
        t, scalar = _prepare(t, positive=True)
        p = self.p
        if self.family == "EXP":
            out = p * np.exp(-p * t)
        elif self.family == "LOG":
            out = p / (1.0 + p * t)
        elif self.family == "FRA":
            out = p / (t + p) ** 2
        elif self.family == "LPN":
            out = p * t ** (p - 1.0)
        else:  # TAN
            out = p / (t**2 + p**2)
        return _ret(out, scalar)

    def second_derivative(self, t):
        """r''(t) for t > 0; nonpositive on (0, inf) by concavity."""
        t, scalar = _prepare(t, positive=True)
        p = self.p
        if self.family == "EXP":
            out = -(p**2) * np.exp(-p * t)
        elif self.family == "LOG":
            out = -(p**2) / (1.0 + p * t) ** 2
        elif self.family == "FRA":
            out = -2.0 * p / (t + p) ** 3
        elif self.family == "LPN":
            out = p * (p - 1.0) * t ** (p - 2.0)
        else:  # TAN
            out = -2.0 * p * t / (t**2 + p**2) ** 2
        return _ret(out, scalar)

    def derivative_at_zero_plus(self):
        """r'(0+): p for EXP/LOG, 1/p for FRA/TAN, inf for LPN."""
        if self.family in ("EXP", "LOG"):
            return self.p
        if self.family in ("FRA", "TAN"):
            return 1.0 / self.p
        return math.inf

    def second_derivative_at_zero_plus(self):
        """r''(0+): -inf for LPN, 0 for TAN, finite negative otherwise."""
        p = self.p
        if self.family == "EXP":
            return -(p**2)
        if self.family == "LOG":
            return -(p**2)
        if self.family == "FRA":
            return -2.0 / p**2
        if self.family == "TAN":
            return 0.0
        return -math.inf

    @property
    def lipschitz_at_zero(self):
        return self.family != "LPN"

    def classify(self):
        return RegularizerClass(
            lipschitz_at_zero=self.lipschitz_at_zero,
            derivative_at_zero=self.derivative_at_zero_plus(),
        )

    def to_dict(self):
        return {"family": self.family, "p": self.p}

    @staticmethod
    def from_dict(d):
        return Regularizer(d["family"], d["p"])


class CustomRegularizer:
    """User-supplied penalty defined by callbacks, same contract as built-ins.

    The callbacks must implement a penalty satisfying the concavity and
    monotonicity conditions checked by :func:`check_assumption1`; nothing
    is verified at construction time.
    """

    family = "CUSTOM"

    def __init__(
        self,
        value,
        derivative,
        second_derivative,
        derivative_at_zero,
        second_derivative_at_zero=None,
    ):
        self._value = value
        self._derivative = derivative
        self._second_derivative = second_derivative
        self._d0 = float(derivative_at_zero)
        self._d20 = None if second_derivative_at_zero is None else float(second_derivative_at_zero)
        if not self._d0 > 0.0:
            raise ValueError("derivative_at_zero must be > 0")

    def value(self, t):
        t, scalar = _prepare(t, positive=False)
        return _ret(np.vectorize(self._value, otypes=[float])(t), scalar)

    def derivative(self, t):
        t, scalar = _prepare(t, positive=True)
        return _ret(np.vectorize(self._derivative, otypes=[float])(t), scalar)

    def second_derivative(self, t):
        t, scalar = _prepare(t, positive=True)
        return _ret(np.vectorize(self._second_derivative, otypes=[float])(t), scalar)

    def derivative_at_zero_plus(self):
        return self._d0

    def second_derivative_at_zero_plus(self):
        if self._d20 is None:
            raise ValueError("second_derivative_at_zero was not provided")
        return self._d20

    @property
    def lipschitz_at_zero(self):
        return math.isfinite(self._d0)

    def classify(self):
        return RegularizerClass(self.lipschitz_at_zero, self._d0)


@dataclass(frozen=True)
class RegularizerClass:
    """Behaviour of r' at the origin, which governs weight blow-up."""

    lipschitz_at_zero: bool
    derivative_at_zero: float


@dataclass(frozen=True)
class Assumption1Report:
    """Numeric check of the concave-penalty conditions on a sample grid."""

    value_at_zero_ok: bool
    derivative_nonnegative: bool
    derivative_nonincreasing: bool
    second_derivative_nonpositive: bool
    derivative_at_zero_positive: bool

    @property
    def holds(self):
        return (
            self.value_at_zero_ok
            and self.derivative_nonnegative
            and self.derivative_nonincreasing
            and self.second_derivative_nonpositive
            and self.derivative_at_zero_positive
        )


def check_assumption1(reg, grid):
    """Check r(0)=0, r' >= 0 nonincreasing, r'' <= 0 and r'(0+) > 0 on ``grid``.

    ``grid`` must be strictly increasing with all entries > 0.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    if np.any(grid <= 0.0) or np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must be strictly increasing and positive")
    d1 = np.atleast_1d(reg.derivative(grid))
    d2 = np.atleast_1d(reg.second_derivative(grid))
    return Assumption1Report(
        value_at_zero_ok=abs(reg.value(0.0)) <= 1e-12,
        derivative_nonnegative=bool(np.all(d1 >= 0.0)),
        derivative_nonincreasing=bool(np.all(np.diff(d1) <= 0.0)),
        second_derivative_nonpositive=bool(np.all(d2 <= 0.0)),
        derivative_at_zero_positive=reg.derivative_at_zero_plus() > 0.0,
    )


@dataclass(frozen=True)
class Assumption4Report:
    """Trend of r'(z) and z r''(z)/r'(z)^2 along a sequence z -> 0+.

    ``holds`` is the smoothness condition needed by the weighted-l2
    subproblem map: r'(z) must diverge and the ratio must vanish.
    Families with r'(0+) < inf fail the first condition outright.
    """

    points: np.ndarray
    derivative_values: np.ndarray
    ratio_values: np.ndarray
    weight_diverges: bool
    ratio_vanishes: bool

    @property
    def holds(self):
        return self.weight_diverges and self.ratio_vanishes


def check_assumption4(reg, sequence):
    """Evaluate the weighted-l2 smoothness conditions along ``sequence``.

    ``sequence`` must be strictly decreasing positive values heading to 0.
    """
    z = np.asarray(sequence, dtype=float)
    if z.size < 2:
        raise ValueError("sequence must have at least two points")
    if np.any(z <= 0.0) or np.any(np.diff(z) >= 0.0):
        raise ValueError("sequence must be strictly decreasing and positive")
    d1 = np.atleast_1d(reg.derivative(z))
    d2 = np.atleast_1d(reg.second_derivative(z))
    ratio = z * d2 / d1**2
    diverges = (
        not math.isfinite(reg.derivative_at_zero_plus())
        and bool(np.all(np.diff(d1) > 0.0))
    )
    mags = np.abs(ratio)
    vanishes = bool(np.all(np.diff(mags) < 0.0)) and mags[-1] < mags[0]
    return Assumption4Report(
        points=z,
        derivative_values=d1,
        ratio_values=ratio,
        weight_diverges=diverges,
        ratio_vanishes=vanishes,
    )


def derivative_inverse(reg, target, bracket=(1e-300, 1e12)):
    """Solve r'(t) = target for t > 0 (r' is decreasing on (0, inf)).

    Used to bound nonzero coordinates of stationary points away from zero
    when r'(0+) = inf. LPN has a closed form; other regularizers are
    inverted by bisection.
    """
    if not target > 0.0:
        raise ValueError("target must be > 0")
    if getattr(reg, "family", None) == "LPN":
        # p t^(p-1) = target  =>  t = (target/p)^(1/(p-1))
        return (target / reg.p) ** (1.0 / (reg.p - 1.0))
    if target >= reg.derivative_at_zero_plus():
        raise ValueError("target is not in the range of r'")
    lo, hi = bracket
    while reg.derivative(hi) > target:
        hi *= 2.0
        if hi > 1e300:
            raise ValueError("failed to bracket the inverse")
    for _ in range(200):
        mid = math.sqrt(lo * hi) if lo > 0 else 0.5 * (lo + hi)
        if reg.derivative(mid) > target:
            lo = mid
        else:
            hi = mid
    return hi
