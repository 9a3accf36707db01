"""``_floatrepr.reprs`` against CPython's ``repr``, the oracle it must match."""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dirw._floatrepr import reprs


def _bits(x):
    return int(np.float64(x).view(np.uint64))


def _texts(patterns, lengths):
    values = np.asarray(patterns, dtype=np.uint64).view(np.float64)
    return [text.decode("ascii") for text in reprs(values, lengths)]


@settings(max_examples=500, deadline=None, database=None)
@given(bits=st.integers(0, 2**64 - 1))
@example(bits=_bits(0.0))
@example(bits=_bits(-0.0))
@example(bits=_bits(5e-324))
@example(bits=_bits(2.225073858507201e-308))
@example(bits=_bits(2.2250738585072014e-308))
@example(bits=_bits(1.7976931348623157e308))
@example(bits=_bits(9999999999999998.0))
@example(bits=_bits(1e16))
@example(bits=_bits(1e-4))
@example(bits=_bits(1e-5))
@example(bits=_bits(0.1))
@example(bits=_bits(2.0**53 + 2))
@example(bits=_bits(2.0**63))
@example(bits=_bits(1e22))
@example(bits=_bits(1e23))
@example(bits=_bits(1e-100))
@example(bits=_bits(1e100))
def test_each_finite_pattern_is_its_repr(bits):
    x = float(np.uint64(bits).view(np.float64))
    assume(np.isfinite(x))
    assert _texts([bits], [1]) == [repr(x)]


def test_bulk_sweep_matches_repr_row_by_row():
    """2**18 random patterns, every power of two with its neighbours one ulp
    away, all of either sign, split into ragged rows (some empty)."""
    rng = np.random.default_rng(20261020)
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    near = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    values = np.concatenate([rng.integers(0, 2**64, 2**18, dtype=np.uint64, endpoint=False)
                             .view(np.float64), near, -near])
    values = values[np.isfinite(values)]
    magnitude = np.abs(values)
    # Both of Ryu's branches (e2 >= 0 from 2**54 up) and subnormals.
    assert (magnitude >= 2.0**54).sum() > 1000 and (magnitude < 2.0**54).sum() > 1000
    assert ((magnitude > 0) & (magnitude < 2.2250738585072014e-308)).sum() > 100
    cuts = np.sort(rng.integers(0, values.size + 1, values.size // 20))
    lengths = np.diff(np.concatenate(([0], cuts, [values.size])))
    assert (lengths == 0).any()

    texts = [text.decode("ascii") for text in reprs(values, lengths)]
    bounds = np.concatenate(([0], np.cumsum(lengths))).tolist()
    expected = [", ".join(map(repr, values[a:b].tolist())) for a, b in zip(bounds[:-1], bounds[1:])]
    assert texts == expected
