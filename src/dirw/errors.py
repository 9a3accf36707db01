"""Exception types shared across the package, and the typed readers that
every config and problem-file object and field goes through. A number is a
Python or numpy int or float: booleans, strings, None, lists in scalar fields,
NaN and +-inf are refused with a ValueError that starts with the field name.
"""

import math

import numpy as np


class NumericalFailure(RuntimeError):
    """An iterative routine broke an invariant it is supposed to maintain.

    Carries enough context (iteration index, offending quantity) to
    reproduce the failure.
    """

    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration


class ConfigValidationError(ValueError):
    """A solver configuration violates a hard parameter bound."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NonStationaryPointError(ValueError):
    """A point handed to a stationary-point-only routine is not stationary."""

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


def json_object(name, data, required, optional):
    """``data`` if it is a dict with every key of ``required`` and no key outside
    ``required`` and ``optional``; otherwise a ValueError starting with ``name``."""
    if not isinstance(data, dict):
        raise ValueError(f"{name} must be a JSON object, got {data!r}")
    for key in required:
        if key not in data:
            raise ValueError(f"{name} is missing field {key!r}")
    unknown = [key for key in data if key not in required and key not in optional]
    if unknown:
        raise ValueError(f"{name} has unknown fields {unknown}")
    return data


#: The types that count as numbers; ``bool`` is a subclass of ``int`` and is refused.
_NUMBERS = (int, float, np.integer, np.floating)


def real(name, value, low=-math.inf, high=math.inf):
    """``value`` as a float strictly between ``low`` and ``high`` (so finite)."""
    try:
        x = float(value) if isinstance(value, _NUMBERS) and type(value) is not bool else math.nan
    except OverflowError:  # an int beyond the float range
        x = math.inf
    if low < x < high:  # NaN fails both
        return x
    raise ValueError(f"{name} must be a finite number in ({low:g}, {high:g}), got {value!r}")


def integer(name, value, low):
    """``value`` as an int of at least ``low``; floats such as 3.0 are refused."""
    if isinstance(value, (int, np.integer)) and type(value) is not bool and value >= low:
        return int(value)
    raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def real_array(name, value):
    """``value``, a number or a nested list of numbers, as a finite float array.

    A numeric ndarray is converted as a whole (no copy when it is already
    float64). Anything else is checked entry by entry, because numpy casts
    a boolean inside a list of numbers to 0 or 1 without complaint.
    """
    if isinstance(value, np.ndarray) and value.dtype.kind in "iuf":
        arr = value.astype(float, copy=False)
    else:
        try:
            entries = np.array(value, dtype=object)
            bad = sorted({t.__name__ for t in set(map(type, entries.flat))
                          if not issubclass(t, _NUMBERS) or t is bool})
            if bad:
                raise TypeError(f"found {', '.join(bad)}")
            arr = entries.astype(float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{name} must hold finite numbers only: {exc}") from exc
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must hold finite numbers only")
    return arr
