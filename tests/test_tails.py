import math

import numpy as np
import pytest
from scipy.integrate import quad

from lcmoments.errors import InvalidArgumentError
from lcmoments.tails import (
    TABLE_MIN_TOP,
    TailFunction,
    exponential,
    linear,
    power,
    tabulated,
    tail_from_spec,
)

TABLE_T = (0.0, 1.0, 2.0, 10.0)
TABLE_N = (0.0, 1.0, 3.0, 80.0)  # slopes 1, 2, 9.625


def test_linear_value_inverse_roundtrip():
    tail = linear(3.0)
    assert tail.value(2.0) == pytest.approx(6.0)
    assert tail.inverse(6.0) == pytest.approx(2.0)
    ts = np.linspace(0.0, 5.0, 11)
    np.testing.assert_allclose(tail.inverse(tail.value(ts)), ts, rtol=1e-14)


def test_exponential_is_isotropic():
    tail = exponential()
    assert tail.rate == pytest.approx(math.sqrt(2.0))
    assert tail.variance() == pytest.approx(1.0, rel=1e-14)


def test_power_default_scale_gives_unit_variance():
    for alpha in (1.0, 1.5, 2.0, 3.0, 6.0):
        tail = power(alpha)
        assert tail.variance() == pytest.approx(1.0, rel=1e-12)
        moment, _ = quad(lambda t: 2.0 * t * math.exp(-tail.value(t)), 0.0, np.inf)
        assert moment == pytest.approx(1.0, rel=1e-9)


def test_power_alpha_one_is_the_exponential():
    tail = power(1.0)
    assert tail.kind == "linear"
    assert tail.value(1.7) == pytest.approx(exponential().value(1.7), rel=1e-14)
    # the power closed forms divide by alpha - 1, so no power tail has alpha = 1
    with pytest.raises(InvalidArgumentError):
        TailFunction(kind="power", alpha=1.0, scale=0.7)


def test_power_alpha_two_is_the_squared_rate():
    tail = power(2.0)
    assert tail.scale == pytest.approx(1.0)
    assert tail.value(1.3) == pytest.approx(1.69)


def test_tail_validation():
    with pytest.raises(InvalidArgumentError):
        linear(0.0)
    with pytest.raises(InvalidArgumentError):
        linear(-1.0)
    with pytest.raises(InvalidArgumentError):
        power(0.5)
    for alpha in (1.0, 2.0):  # alpha = 1 would be the linear tail of rate 1/scale
        for scale in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(InvalidArgumentError):
                power(alpha, scale=scale)


@pytest.mark.parametrize("kwargs", [
    dict(kind="linear", rate=-math.sqrt(2.0)),  # variance 1, negative GK value
    dict(kind="power", alpha=2.0, scale=-1.0),  # variance 1, GK nan
    dict(kind="gauss"),
    dict(kind="tabulated", knots_t=(0.0, 1.0), knots_n=(0.0, 1.0)),  # top below 64
    dict(kind="linear", rate=math.inf),
    dict(kind="power", alpha=math.inf, scale=1.0),
    dict(kind="power", alpha=3.0, scale=math.nan),
])
def test_direct_construction_is_checked_like_the_factories(kwargs):
    with pytest.raises(InvalidArgumentError):
        TailFunction(**kwargs)


def test_tabulated_constructor_stores_float_tuples():
    tail = TailFunction("tabulated", knots_t=list(TABLE_T), knots_n=[int(v) for v in TABLE_N])
    assert tail == tabulated(TABLE_T, TABLE_N)
    assert hash(tail) == hash(tabulated(TABLE_T, TABLE_N))
    for knots in (tail.knots_t, tail.knots_n):
        assert isinstance(knots, tuple)
        assert all(type(v) is float for v in knots)


def test_tabulated_evaluates_piecewise():
    tail = tabulated(TABLE_T, TABLE_N)
    assert tail.value(0.5) == pytest.approx(0.5)
    assert tail.value(1.5) == pytest.approx(2.0)
    assert tail.inverse(2.0) == pytest.approx(1.5)
    assert tail.value(99.0) == pytest.approx(80.0)  # clamped past the table
    assert tail.inverse(500.0) == pytest.approx(10.0)
    assert tail.sup_value == 80.0


def test_tabulated_validation():
    with pytest.raises(InvalidArgumentError):
        tabulated((0.0, 1.0), (0.5, 80.0))  # N(0) != 0
    with pytest.raises(InvalidArgumentError):
        tabulated((0.0, 1.0, 1.0), (0.0, 1.0, 80.0))  # flat t step
    with pytest.raises(InvalidArgumentError):
        tabulated((0.0, 1.0, 2.0), (0.0, 50.0, 80.0))  # concave slopes
    with pytest.raises(InvalidArgumentError):
        tabulated((0.0, 1.0), (0.0, 10.0))  # top below TABLE_MIN_TOP
    assert TABLE_MIN_TOP == 64.0


@pytest.mark.parametrize("knots_t,knots_n", [
    ((0.0, math.inf), (0.0, 100.0)),
    ((0.0, 1.0), (0.0, math.inf)),
    ((0.0, 1.0, math.nan), (0.0, 1.0, 80.0)),
    ((0.0, 1.0, 2.0), (0.0, 1.0, -math.inf)),
])
def test_tabulated_knots_must_be_finite(knots_t, knots_n):
    # an infinite knot passes the order and convexity rules; its variance is nan
    with pytest.raises(InvalidArgumentError, match="tabulated knots must be finite"):
        tabulated(knots_t, knots_n)


def test_tabulated_variance_matches_quadrature():
    tail = tabulated(TABLE_T, TABLE_N)
    integral, _ = quad(lambda t: 2.0 * t * math.exp(-tail.value(t)), 0.0, 10.0)
    clamp_mass = math.exp(-80.0) * 100.0
    assert tail.variance() == pytest.approx(integral + clamp_mass, rel=1e-9)


def test_tabulated_variance_of_linear_table_matches_closed_form():
    rate = math.sqrt(2.0)
    tail = tabulated((0.0, 50.0), (0.0, 50.0 * rate))
    assert tail.variance() == pytest.approx(2.0 / rate ** 2, rel=1e-12)


def test_tilt_argmax_linear_switches_at_the_rate():
    tail = linear(2.0)
    assert tail.tilt_argmax(1.0, 1.0, 5.0) == 0.0  # b < lam * rate
    assert tail.tilt_argmax(3.0, 1.0, 5.0) == 5.0  # b > lam * rate
    assert tail.tilt_argmax(0.0, 1.0, 5.0) == 0.0


def test_tilt_argmax_power_matches_stationary_point():
    tail = power(2.0, scale=1.0)  # b t - lam t^2 peaks at b / (2 lam)
    assert tail.tilt_argmax(3.0, 1.0, 10.0) == pytest.approx(1.5)
    assert tail.tilt_argmax(3.0, 1.0, 1.0) == 1.0  # capped


def test_tilt_argmax_tabulated_stops_at_the_kink():
    tail = tabulated(TABLE_T, TABLE_N)
    assert tail.tilt_argmax(1.5, 1.0, 10.0) == 1.0  # slope jumps 1 -> 2 at t = 1
    assert tail.tilt_argmax(5.0, 1.0, 10.0) == 2.0  # slope jumps 2 -> 9.625 at t = 2
    assert tail.tilt_argmax(100.0, 1.0, 10.0) == 10.0
    assert tail.tilt_argmax(0.5, 1.0, 10.0) == 0.0


def test_tilt_argmax_is_the_grid_maximizer():
    grid = np.linspace(0.0, 10.0, 200_001)
    for tail in (linear(1.3), power(2.0), power(3.0), tabulated(TABLE_T, TABLE_N)):
        for b, lam in ((0.7, 0.4), (2.0, 1.0), (5.0, 0.3)):
            t_star = tail.tilt_argmax(b, lam, 10.0)
            best = float(np.max(b * grid - lam * tail.value(grid)))
            assert b * t_star - lam * tail.value(t_star) >= best - 1e-7


def test_tail_from_spec():
    assert tail_from_spec("exp") == exponential()
    assert tail_from_spec("pow:alpha=2") == power(2.0)
    for bad in ("poisson", "pow:alpha=", "pow:beta=2", "pow:alpha=x"):
        with pytest.raises(InvalidArgumentError):
            tail_from_spec(bad)


def test_factories_reject_nothing_silently():
    tail = TailFunction.linear(1.0)
    assert tail.kind == "linear"
    assert tail.sup_value == math.inf
