"""Concave sparsity-inducing penalties r(t) on t = |x_i| >= 0.

Each built-in family is one row of ``_ROWS``: r(t), r'(t), r''(t), r'(0+)
and r''(0+) as functions of the parameter p. All are continuous and
concave on [0, inf) with r(0) = 0 and r'(t) >= 0:

    EXP   r(t) = 1 - exp(-p t)
    LOG   r(t) = log(1 + p t)
    FRA   r(t) = t / (t + p)
    LPN   r(t) = t**p           (0 < p < 1)
    TAN   r(t) = arctan(t / p)

A :class:`CustomRegularizer` builds its row from callbacks; both share one
implementation of every method. EXP, LOG, FRA and TAN have r'(0+) < inf
(Lipschitz at zero), LPN has r'(0+) = ``math.inf``, which the weight
computations expect; ``lipschitz_at_zero`` is ``isfinite(r'(0+))``.
"""

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import json_object, real

#: r, r', r'' as functions of (t, p) and r'(0+), r''(0+) as functions of p.
_Row = namedtuple(
    "_Row", "value derivative second_derivative derivative_at_zero second_derivative_at_zero"
)

_ROWS = {
    "EXP": _Row(
        lambda t, p: 1.0 - np.exp(-p * t),
        lambda t, p: p * np.exp(-p * t),
        lambda t, p: -(p**2) * np.exp(-p * t),
        lambda p: p,
        lambda p: -(p**2),
    ),
    "LOG": _Row(
        lambda t, p: np.log1p(p * t),
        lambda t, p: p / (1.0 + p * t),
        lambda t, p: -(p**2) / (1.0 + p * t) ** 2,
        lambda p: p,
        lambda p: -(p**2),
    ),
    "FRA": _Row(
        lambda t, p: t / (t + p),
        lambda t, p: p / (t + p) ** 2,
        lambda t, p: -2.0 * p / (t + p) ** 3,
        lambda p: 1.0 / p,
        # p**2 underflows to 0 below about 1.5e-162; the limit is then -inf.
        lambda p: -2.0 / p**2 if p**2 > 0.0 else -math.inf,
    ),
    "LPN": _Row(
        lambda t, p: t**p,
        lambda t, p: p * t ** (p - 1.0),
        lambda t, p: p * (p - 1.0) * t ** (p - 2.0),
        lambda p: math.inf,
        lambda p: -math.inf,
    ),
    "TAN": _Row(
        lambda t, p: np.arctan(t / p),
        lambda t, p: p / (t**2 + p**2),
        lambda t, p: -2.0 * p * t / (t**2 + p**2) ** 2,
        lambda p: 1.0 / p,
        lambda p: 0.0,
    ),
}

FAMILIES = tuple(_ROWS)


def _prepare(t, positive):
    """Validate the evaluation point(s) and return (array, was_scalar)."""
    arr = np.asarray(t, dtype=float)
    in_domain = arr > 0.0 if positive else arr >= 0.0
    # NaN fails both comparisons.
    if np.count_nonzero(in_domain & (arr < math.inf)) != arr.size:
        if not np.isfinite(arr).all():
            raise ValueError("evaluation point must be finite")
        raise ValueError(
            "evaluation point must be > 0" if positive else "evaluation point must be >= 0"
        )
    return arr, arr.ndim == 0


def _ret(arr, scalar):
    return float(arr) if scalar else arr


class _Penalty:
    """The penalty contract, evaluated through ``self._row`` at ``self.p``."""

    __slots__ = ()

    def value(self, t):
        """r(t) for t >= 0; r(0) = 0 for every family."""
        t, scalar = _prepare(t, positive=False)
        return _ret(self._row.value(t, self.p), scalar)

    def _value_in_domain(self, t):
        """r(t) for a float array t that the caller has checked lies in [0, inf)."""
        return self._row.value(t, self.p)

    def derivative(self, t):
        """r'(t) for t > 0; strictly positive on (0, inf)."""
        t, scalar = _prepare(t, positive=True)
        return _ret(self._row.derivative(t, self.p), scalar)

    def _derivative_in_domain(self, t):
        """r'(t) for a float array t that the caller has checked lies in (0, inf)."""
        return self._row.derivative(t, self.p)

    def second_derivative(self, t):
        """r''(t) for t > 0; nonpositive on (0, inf) by concavity."""
        t, scalar = _prepare(t, positive=True)
        return _ret(self._row.second_derivative(t, self.p), scalar)

    def derivative_at_zero_plus(self):
        """r'(0+): p for EXP/LOG, 1/p for FRA/TAN, inf for LPN."""
        return self._row.derivative_at_zero(self.p)

    def second_derivative_at_zero_plus(self):
        """r''(0+): -inf for LPN, 0 for TAN, finite negative otherwise."""
        return self._row.second_derivative_at_zero(self.p)

    @property
    def lipschitz_at_zero(self):
        """Whether r'(0+) is finite, which keeps the l1 weights bounded."""
        return math.isfinite(self.derivative_at_zero_plus())


class Regularizer(_Penalty):
    """One of the built-in penalty families, frozen after construction.

    Parameters
    ----------
    family : str
        One of ``FAMILIES``.
    p : float
        Family parameter; must be positive, and inside (0, 1) for LPN.
    """

    __slots__ = ("family", "p", "_row")

    def __init__(self, family, p):
        if family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")
        p = real("p", p, 0.0, 1.0 if family == "LPN" else math.inf)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "_row", _ROWS[family])

    def __setattr__(self, name, value):
        raise AttributeError("Regularizer is immutable")

    def __reduce__(self):  # rebuilt through __init__; the row is not pickled
        return Regularizer, (self.family, self.p)

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

    def to_dict(self):
        return {"family": self.family, "p": self.p}

    @staticmethod
    def from_dict(d):
        """The regularizer from parsed JSON; each error starts with 'regularizer' or a field."""
        d = json_object("regularizer", d, ("family", "p"), ())
        return Regularizer(d["family"], d["p"])


def _second_derivative_at_zero_missing(p):
    raise ValueError("second_derivative_at_zero was not provided")


class CustomRegularizer(_Penalty):
    """User-supplied penalty defined by callbacks, same contract as built-ins.

    The callbacks must implement a penalty satisfying the concavity and
    monotonicity conditions checked by :func:`check_assumption1`; nothing
    is verified at construction time. Its row ignores ``p``.
    """

    family = "CUSTOM"
    p = None

    def __init__(self, value, derivative, second_derivative, derivative_at_zero,
                 second_derivative_at_zero=None):
        d0 = float(derivative_at_zero)
        d20 = None if second_derivative_at_zero is None else float(second_derivative_at_zero)
        if not d0 > 0.0:
            raise ValueError("derivative_at_zero must be > 0")
        self._callbacks = (value, derivative, second_derivative, d0, d20)
        self._row = _Row(
            lambda t, p: np.vectorize(value, otypes=[float])(t),
            lambda t, p: np.vectorize(derivative, otypes=[float])(t),
            lambda t, p: np.vectorize(second_derivative, otypes=[float])(t),
            lambda p: d0,
            _second_derivative_at_zero_missing if d20 is None else lambda p: d20,
        )

    def __reduce__(self):  # pickles whenever the callbacks do
        return CustomRegularizer, self._callbacks


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


def derivative_inverse(reg, target):
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
    lo, hi = 1e-300, 1e12
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
