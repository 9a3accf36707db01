import math

import numpy as np
import pytest

from dirw.regularizers import (
    CustomRegularizer,
    Regularizer,
    check_assumption1,
    check_assumption4,
    derivative_inverse,
)

ALL = [
    Regularizer("EXP", 1.0),
    Regularizer("LOG", 2.0),
    Regularizer("FRA", 1.5),
    Regularizer("LPN", 0.5),
    Regularizer("TAN", 2.0),
]


def test_closed_form_values():
    assert Regularizer("LPN", 0.5).value(4.0) == pytest.approx(2.0, abs=1e-15)
    assert Regularizer("EXP", 1.0).value(0.0) == 0.0
    assert Regularizer("LOG", 2.0).value(0.5) == pytest.approx(math.log(2.0), abs=1e-12)


def test_closed_form_derivatives():
    assert Regularizer("LPN", 0.5).derivative(4.0) == pytest.approx(0.25, abs=1e-15)
    # FRA approaches its zero limit 1/p from below t = 0.
    fra = Regularizer("FRA", 1.0)
    assert fra.derivative(1e-9) == pytest.approx(1.0, rel=1e-8)
    assert fra.derivative_at_zero_plus() == pytest.approx(1.0)
    assert Regularizer("TAN", 2.0).derivative(2.0) == pytest.approx(0.25, abs=1e-15)


def test_closed_form_second_derivatives():
    assert Regularizer("LPN", 0.5).second_derivative(4.0) == pytest.approx(-0.03125, abs=1e-15)
    exp = Regularizer("EXP", 1.0)
    assert exp.second_derivative(1e-12) == pytest.approx(-1.0, rel=1e-9)
    assert exp.second_derivative_at_zero_plus() == -1.0
    assert Regularizer("LOG", 1.0).second_derivative(1.0) == pytest.approx(-0.25, abs=1e-15)


def test_derivative_at_zero_plus():
    assert Regularizer("EXP", 3.0).derivative_at_zero_plus() == 3.0
    assert Regularizer("LPN", 0.5).derivative_at_zero_plus() == math.inf
    assert Regularizer("FRA", 2.0).derivative_at_zero_plus() == 0.5


def test_value_at_zero_is_zero_everywhere():
    for reg in ALL:
        assert reg.value(0.0) == 0.0


def test_constructor_rejections():
    with pytest.raises(ValueError):
        Regularizer("LPN", 1.5)
    with pytest.raises(ValueError):
        Regularizer("LPN", 0.0)
    with pytest.raises(ValueError):
        Regularizer("EXP", -1.0)
    with pytest.raises(ValueError):
        Regularizer("SCAD", 1.0)


def test_domain_errors():
    reg = Regularizer("EXP", 1.0)
    with pytest.raises(ValueError):
        reg.value(-1.0)
    with pytest.raises(ValueError):
        reg.value(math.nan)
    with pytest.raises(ValueError):
        reg.derivative(0.0)
    with pytest.raises(ValueError):
        reg.second_derivative(-2.0)


@pytest.mark.parametrize("reg", ALL, ids=lambda r: r.family)
def test_derivative_matches_finite_difference(reg, rng):
    for t in rng.uniform(0.1, 10.0, 100):
        h = 1e-6 * max(1.0, t)
        fd = (reg.value(t + h) - reg.value(t - h)) / (2.0 * h)
        d = reg.derivative(t)
        assert abs(d - fd) <= 1e-6 * max(1.0, abs(d))
        fd2 = (reg.derivative(t + h) - reg.derivative(t - h)) / (2.0 * h)
        d2 = reg.second_derivative(t)
        assert abs(d2 - fd2) <= 1e-6 * max(1.0, abs(d2))


@pytest.mark.parametrize("reg", ALL, ids=lambda r: r.family)
def test_concavity_and_monotone_weights(reg, rng):
    for _ in range(100):
        t1, t2 = np.sort(rng.uniform(1e-3, 10.0, 2))
        for theta in (0.25, 0.5, 0.75):
            mid = theta * t1 + (1.0 - theta) * t2
            chord = theta * reg.value(t1) + (1.0 - theta) * reg.value(t2)
            assert reg.value(mid) >= chord - 1e-12
        assert reg.derivative(t1) >= reg.derivative(t2) - 1e-12
        assert reg.derivative(t2) >= 0.0
        assert reg.second_derivative(t1) <= 1e-15


@pytest.mark.parametrize("reg", ALL, ids=lambda r: r.family)
def test_classification_matches_empirical_blowup(reg):
    assert reg.lipschitz_at_zero == (reg.family != "LPN")
    assert reg.derivative_at_zero_plus() > 0.0
    values = [reg.derivative(10.0**-k) for k in range(1, 13)]
    blows_up = values[-1] > 1e4 * max(1.0, values[0])
    assert blows_up == (not reg.lipschitz_at_zero)


def test_assumption1_reports():
    grid = np.logspace(-2, 1, 200)
    assert check_assumption1(Regularizer("EXP", 1.0), grid).holds
    assert check_assumption1(Regularizer("LPN", 0.5), grid).holds
    for reg in ALL:
        assert check_assumption1(reg, grid).holds
    with pytest.raises(ValueError):
        check_assumption1(Regularizer("EXP", 1.0), [])
    with pytest.raises(ValueError):
        check_assumption1(Regularizer("EXP", 1.0), [1.0, 0.5])


def test_assumption4_holds_only_for_lpn():
    zs = np.power(10.0, -np.arange(1, 9, dtype=float))
    for reg in ALL:
        report = check_assumption4(reg, zs)
        assert report.holds == (reg.family == "LPN")


def test_assumption4_lpn_ratio_formula():
    # z r''(z)/r'(z)^2 = ((p-1)/p) z^(1-p) for the power penalty
    for p in (0.5, 0.9):
        reg = Regularizer("LPN", p)
        zs = np.power(10.0, -np.arange(1, 7, dtype=float))
        report = check_assumption4(reg, zs)
        expected = (p - 1.0) / p * zs ** (1.0 - p)
        assert np.allclose(report.ratio_values, expected, rtol=1e-12)
    reg = Regularizer("LPN", 0.9)
    val = 1e-6 * reg.second_derivative(1e-6) / reg.derivative(1e-6) ** 2
    assert abs(val) == pytest.approx((1.0 / 9.0) * 10.0**-0.6, rel=1e-12)
    assert abs(val) == pytest.approx(0.0279098, abs=1e-6)


def test_assumption4_rejects_nonmonotone_sequence():
    with pytest.raises(ValueError):
        check_assumption4(Regularizer("LPN", 0.5), [0.1, 0.5, 0.01])


def test_custom_regularizer_matches_builtin():
    ref = Regularizer("EXP", 2.0)
    custom = CustomRegularizer(
        value=lambda t: 1.0 - math.exp(-2.0 * t),
        derivative=lambda t: 2.0 * math.exp(-2.0 * t),
        second_derivative=lambda t: -4.0 * math.exp(-2.0 * t),
        derivative_at_zero=2.0,
        second_derivative_at_zero=-4.0,
    )
    ts = np.linspace(0.05, 5.0, 17)
    assert np.allclose(custom.value(ts), ref.value(ts))
    assert np.allclose(custom.derivative(ts), ref.derivative(ts))
    assert custom.lipschitz_at_zero
    assert check_assumption1(custom, np.logspace(-2, 1, 50)).holds


def test_mutated_second_derivative_is_caught():
    # A sign error in r'' must trip the derivative-consistency suite.
    from dirw.selfcheck import check_derivative_consistency

    broken = CustomRegularizer(
        value=lambda t: 1.0 - math.exp(-t),
        derivative=lambda t: math.exp(-t),
        second_derivative=lambda t: math.exp(-t),  # wrong sign
        derivative_at_zero=1.0,
    )
    result = check_derivative_consistency([broken])
    assert not result.passed


def test_serialization_round_trip():
    reg = Regularizer("LPN", 0.5)
    assert reg.to_dict() == {"family": "LPN", "p": 0.5}
    assert Regularizer.from_dict(reg.to_dict()) == reg


def test_immutable():
    reg = Regularizer("EXP", 1.0)
    with pytest.raises(AttributeError):
        reg.p = 2.0


def test_derivative_inverse():
    reg = Regularizer("LPN", 0.5)
    target = 7.3
    t = derivative_inverse(reg, target)
    assert reg.derivative(t) == pytest.approx(target, rel=1e-12)
    log = Regularizer("LOG", 2.0)
    t2 = derivative_inverse(log, 1.0)
    assert log.derivative(t2) == pytest.approx(1.0, rel=1e-9)
    with pytest.raises(ValueError):
        derivative_inverse(log, 5.0)  # above r'(0+) = 2
