"""Every penalty method gives the bits it gave before the row table.

The oracles below are the earlier classes: a five-way ``if family ==``
chain per method for the built-in families, and a second set of methods
for callback penalties. Each property asserts that the current method and
its oracle return the same type, dtype, shape and bytes, raise the same
exception type with the same message, and issue the same warnings. The
one intended difference: FRA's r''(0+) = -2/p**2 reads -inf where p**2
underflows to 0, where the oracle raised ZeroDivisionError.
"""

import math
import struct
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dirw.regularizers import FAMILIES, CustomRegularizer, Regularizer, _prepare, _ret

SETTINGS = settings(max_examples=300, deadline=None, database=None)

SPECIAL = (0.0, -0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf, -1.0, -5e-324)
ELEMENTS = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(0.0, 10.0),
)
SCALARS = st.one_of(ELEMENTS, ELEMENTS.map(np.float64), ELEMENTS.map(np.array))


def points(max_size=1000):
    """A Python float, a numpy scalar, a 0-d array, or 0 to ``max_size`` entries."""
    return st.one_of(
        SCALARS,
        hnp.arrays(np.float64, st.integers(0, max_size).map(lambda n: (n,)), elements=ELEMENTS),
    )


#: p strictly inside (0, 1) for LPN, near both bounds included.
LPN_P = st.one_of(
    st.sampled_from((5e-324, 1e-300, 1e-12, 0.5, math.nextafter(1.0, 0.0))),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
#: p in (0, inf) for the other families; the tiny values make 1/p and p**2
#: overflow or underflow.
OTHER_P = st.one_of(
    st.sampled_from((5e-324, 1e-310, 1e-300, 1e-160, 1e-154, 1.0, 1e154, 1e308)),
    st.floats(0.0, exclude_min=True, allow_infinity=False),
)


@st.composite
def family_and_p(draw):
    family = draw(st.sampled_from(FAMILIES))
    return family, draw(LPN_P if family == "LPN" else OTHER_P)


def outcome(fn, *args):
    """The exception of a call, or its result's type and bits, plus its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fn(*args)
        except Exception as exc:  # the exception is the outcome
            out = ("raised", type(exc), str(exc))
    if isinstance(out, np.ndarray):
        out = ("array", out.dtype.str, out.shape, out.tobytes())
    elif isinstance(out, float):
        out = (type(out), struct.pack("<d", out))
    return out, [(w.category, str(w.message)) for w in caught]


# -- oracles: the classes as they were before the row table -------------------


class OldRegularizer:
    def __init__(self, family, p):
        self.family, self.p = family, p

    def value(self, t):
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
        if self.family in ("EXP", "LOG"):
            return self.p
        if self.family in ("FRA", "TAN"):
            return 1.0 / self.p
        return math.inf

    def second_derivative_at_zero_plus(self):
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


class OldCustomRegularizer:
    def __init__(self, value, derivative, second_derivative, derivative_at_zero,
                 second_derivative_at_zero=None):
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


# -- properties ----------------------------------------------------------------

METHODS = ("value", "derivative", "second_derivative")
LIMITS = ("derivative_at_zero_plus", "second_derivative_at_zero_plus")


@SETTINGS
@given(fp=family_and_p(), t=points())
@example(fp=("FRA", 5e-324), t=1.0)  # 1/p overflows: r'(0+) reads inf
@example(fp=("FRA", 1e-200), t=1.0)  # p**2 underflows: r''(0+) reads -inf
@example(fp=("TAN", 1e-310), t=np.array([0.0, 1e308]))
@example(fp=("LPN", 5e-324), t=np.array(5e-324))
def test_builtin_matches_oracle(fp, t):
    new, old = Regularizer(*fp), OldRegularizer(*fp)
    for name in METHODS:
        assert outcome(getattr(new, name), t) == outcome(getattr(old, name), t), name
    for name in LIMITS:
        want = outcome(getattr(old, name))
        if want[0][:2] == ("raised", ZeroDivisionError):
            assert (fp[0], name, fp[1] ** 2) == ("FRA", "second_derivative_at_zero_plus", 0.0)
            want = outcome(lambda: -math.inf)
        assert outcome(getattr(new, name)) == want, name
    # One rule for every penalty: Lipschitz at zero iff r'(0+) is finite. It
    # is the old family rule wherever 1/p does not overflow to inf.
    d0 = old.derivative_at_zero_plus()
    assert new.lipschitz_at_zero is math.isfinite(d0)
    if math.isfinite(d0):
        assert new.lipschitz_at_zero is old.lipschitz_at_zero


def _callbacks():
    # r'' divides by t**2, which underflows to 0 below about 1e-162.
    return (
        lambda t: 1.0 - math.exp(-2.0 * t),
        lambda t: 2.0 * math.exp(-2.0 * t),
        lambda t: -1.0 / t**2,
    )


def _construct(cls, args):
    """(instance, None), or (None, the exception's type and message)."""
    try:
        return cls(*args), None
    except Exception as exc:  # the exception is the outcome
        return None, (type(exc), str(exc))


@SETTINGS
@given(
    t=points(max_size=200),
    d0=st.one_of(st.sampled_from((0.0, -1.0, math.inf, math.nan, "abc")), st.floats()),
    d20=st.one_of(st.none(), st.sampled_from((-4.0, "abc")), st.floats()),
)
@example(t=1.0, d0=2.0, d20=None)  # r''(0+) missing
@example(t=np.array([0.0, 0.5]), d0=0.0, d20=-4.0)  # derivative_at_zero <= 0
def test_custom_matches_oracle(t, d0, d20):
    args = (*_callbacks(), d0, d20)
    new, new_error = _construct(CustomRegularizer, args)
    old, old_error = _construct(OldCustomRegularizer, args)
    assert new_error == old_error
    if new is None:
        return
    for name in METHODS:
        assert outcome(getattr(new, name), t) == outcome(getattr(old, name), t), name
    for name in LIMITS:
        assert outcome(getattr(new, name)) == outcome(getattr(old, name)), name
    assert new.lipschitz_at_zero is old.lipschitz_at_zero
