import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfc

from lcmoments.errors import (
    InvalidArgumentError,
    SolverError,
    UnboundedProgramError,
)
from lcmoments.families import GaussianStd, UniformBall, UniformCube, product_exponential
from lcmoments.surrogates import (
    ball_moment_estimate,
    bobkov_nazarov_upper,
    gaussian_band,
    gaussian_pnorm,
    gluskin_kwapien,
    gluskin_kwapien_estimate,
    hitczenko_lower,
    level_set_moment_estimate,
    surrogate_bundle,
    tail_bounds,
)
from lcmoments.tails import exponential, linear, power, tabulated

TABLE = tabulated((0.0, 1.0, 2.0, 10.0), (0.0, 1.0, 3.0, 80.0))


# -- gaussian moment constants --------------------------------------------------

def test_gaussian_pnorm_integer_moments():
    assert gaussian_pnorm(2.0) == pytest.approx(1.0, rel=1e-15)
    assert gaussian_pnorm(4.0) == pytest.approx(3.0 ** 0.25, rel=1e-14)
    assert gaussian_pnorm(6.0) == pytest.approx(15.0 ** (1 / 6), rel=1e-14)
    assert gaussian_pnorm(1.0) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-14)


@pytest.mark.parametrize("p", [1.0, 2.5, 7.3, 19.0, 50.0])
def test_gaussian_pnorm_matches_quadrature(p):
    integral, _ = quad(lambda x: x ** p * math.exp(-0.5 * x * x), 0.0, np.inf,
                       epsabs=0.0, epsrel=1e-13)
    expected = (2.0 * integral / math.sqrt(2.0 * math.pi)) ** (1.0 / p)
    assert gaussian_pnorm(p) == pytest.approx(expected, rel=1e-11)


def test_gaussian_pnorm_rejects_small_p():
    with pytest.raises(InvalidArgumentError):
        gaussian_pnorm(0.5)
    with pytest.raises(InvalidArgumentError):
        gaussian_pnorm(math.inf)


# -- rearrangement surrogates ---------------------------------------------------

def test_hitczenko_lower_values():
    a = (3.0, -1.0, 2.0, 0.5)
    assert hitczenko_lower(a, 2.0) == pytest.approx(5.0 + math.sqrt(2.0 * 1.25))
    assert hitczenko_lower(a, 4.0) == pytest.approx(6.5)
    # single coordinate: the head is everything
    assert hitczenko_lower((2.0,), 8.0) == pytest.approx(2.0)


def test_hitczenko_lower_is_continuous_in_p():
    a = (1.0, 0.8, 0.6, 0.4, 0.2)
    ps = np.linspace(2.0, 6.0, 401)
    vals = np.array([hitczenko_lower(a, float(p)) for p in ps])
    assert np.max(np.abs(np.diff(vals))) < 0.05


def test_bobkov_nazarov_upper_values():
    a = (3.0, -4.0)
    assert bobkov_nazarov_upper(a, 2.0) == pytest.approx(2.0 * 4.0 + math.sqrt(2.0) * 5.0)
    assert bobkov_nazarov_upper((1.0,), 9.0) == pytest.approx(12.0)


def test_moment_order_validation():
    for fn in (hitczenko_lower, bobkov_nazarov_upper):
        with pytest.raises(InvalidArgumentError):
            fn((1.0,), 1.5)
    a = (1.0, 0.5, 0.25)
    with pytest.raises(InvalidArgumentError):
        surrogate_bundle(a, math.nan, family=product_exponential(3))
    with pytest.raises(InvalidArgumentError):
        gluskin_kwapien_estimate(a, [exponential()] * 3, math.nan)


# -- the level-set support program ---------------------------------------------

def test_gk_exponential_closed_form():
    tails = [exponential()] * 3
    b = (0.5, 2.0, 1.0)
    for p in (2.0, 5.5, 32.0):
        assert gluskin_kwapien(b, tails, p) == pytest.approx(
            p * 2.0 / math.sqrt(2.0), rel=1e-12)


def test_gk_linear_rates_pick_best_ratio():
    tails = [linear(1.0), linear(4.0)]
    # coordinate 2 pays 4 per unit: ratios are 1.0 and 0.75, coordinate 1 wins
    assert gluskin_kwapien((1.0, 3.0), tails, 6.0) == pytest.approx(6.0, rel=1e-12)


def test_gk_mixed_linear_quadratic_oracle():
    # maximize t1 + t2 subject to sqrt(2) t1 + t2^2 <= 2:
    # stationary at t2 = sqrt(2)/2, value 5 sqrt(2)/4
    value = gluskin_kwapien((1.0, 1.0), [exponential(), power(2.0, scale=1.0)], 2.0)
    assert value == pytest.approx(5.0 * math.sqrt(2.0) / 4.0, rel=1e-9)


def test_gk_power_closed_form():
    # all-quadratic tails: value = sqrt(p) * ||(b_i s_i)||_2
    scales = (1.0, 0.5, 2.0)
    b = (1.0, 2.0, 0.7)
    tails = [power(2.0, scale=s) for s in scales]
    expected = math.sqrt(3.0) * math.sqrt(sum((bi * si) ** 2
                                              for bi, si in zip(b, scales)))
    assert gluskin_kwapien(b, tails, 3.0) == pytest.approx(expected, rel=1e-9)


def test_gk_single_coordinate_uses_the_whole_budget():
    assert gluskin_kwapien((3.0,), [TABLE], 2.5) == pytest.approx(
        3.0 * TABLE.inverse(2.5), rel=1e-12)
    assert gluskin_kwapien((2.0, 0.0), [exponential(), exponential()], 4.0) \
        == pytest.approx(4.0 * 2.0 / math.sqrt(2.0), rel=1e-12)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("p", [2.0, 5.5, 32.0])
def test_gk_tied_exponential_coordinates_share_the_budget(k, p):
    # every coordinate flips from 0 to its cap at the same multiplier, so the
    # finish must split the budget between them (theta = 1/k)
    b = 0.8
    assert gluskin_kwapien((b,) * k, [exponential()] * k, p) == pytest.approx(
        p * b / math.sqrt(2.0), rel=1e-12)


@pytest.mark.parametrize("b,tails,p", [
    ((0.5, 2.0, 1.0), [exponential()] * 3, 8.0),
    ((1.0, 2.0, 0.7), [power(2.0, scale=s) for s in (1.0, 0.5, 2.0)], 3.0),
    ((1.0, 0.7, 0.4), [exponential(), power(1.5), TABLE], 16.0),
    ((3.0, 1.0), [TABLE, TABLE], 2.5),
])
def test_gk_bisection_stops_when_its_bracket_collapses(monkeypatch, b, tails, p):
    import lcmoments.surrogates as surrogates

    calls = []
    evaluate = surrogates._TiltBlock.evaluate

    def counted(block, lam):
        calls.append(lam)
        return evaluate(block, lam)

    monkeypatch.setattr(surrogates._TiltBlock, "evaluate", counted)
    gluskin_kwapien(b, tails, p)
    # the lower bracket end plus at most 63 halvings of the bit patterns of
    # the doubles in [5e-324, inf]
    assert len(calls) <= 64


@pytest.mark.parametrize("b,tails,p,expected", [
    # the gain-to-cost ratios b_i / slope_i (1e-13, 2.5e-14, 1e15) lie far
    # outside [1e-12, 1e12]
    ((1.0,), [linear(1e13)], 2.0, 2e-13),
    ((1.0, 0.5), [linear(1e13), linear(2e13)], 4.0, 4e-13),
    ((1.0, 1.0), [linear(1e-15)] * 2, 2.0, 2e15),
])
def test_gk_bisects_the_multiplier_over_every_double(b, tails, p, expected):
    assert gluskin_kwapien(b, tails, p) == pytest.approx(expected, rel=1e-12)


TABLE_WIDE = tabulated((0.0, 0.5, 1.5, 3.0, 12.0), (0.0, 0.4, 1.6, 4.6, 70.0))

# linear, power (alpha 1 to 3), tabulated and mixed tails; at p = 3 the cap
# of TABLE falls exactly on its knot t = 2
PIECE_MIXES = [
    ([exponential(), linear(0.7), linear(2.5), exponential()], 5.5),
    ([power(a) for a in (1.0, 1.004, 2.0, 3.0)], 7.0),
    ([power(1.0, scale=0.6), power(1.004, scale=1.3), power(2.0), power(3.0, scale=0.8)], 12.0),
    ([TABLE, TABLE_WIDE, TABLE, TABLE_WIDE], 2.5),
    ([TABLE, TABLE, TABLE_WIDE, exponential()], 3.0),
    ([exponential(), power(1.004), power(2.0), TABLE, linear(3.0), power(1.0), TABLE_WIDE],
     3.0),
]


def _coordinatewise_totals(b, tails, p, lam):
    gain = spent = 0.0
    for bi, tail in zip(b, tails):
        t = tail.tilt_argmax(float(bi), lam, tail.inverse(p))
        gain += bi * t
        spent += tail.value(t)
    return gain, spent


@pytest.mark.parametrize("tails,p", PIECE_MIXES)
def test_tilt_block_totals_match_the_coordinatewise_tilt(tails, p):
    import lcmoments.surrogates as surrogates

    rng = np.random.default_rng(len(tails))
    b = rng.uniform(0.1, 2.0, len(tails))
    b[0] = 0.0  # a zero coefficient takes no piece and no budget
    block = surrogates._TiltBlock(b, tails, p)
    lams = np.concatenate([[1e-12, 1e12], np.exp(rng.uniform(-8.0, 8.0, 300))])
    for lam in lams:
        gain, spent = block.evaluate(float(lam))
        want_gain, want_spent = _coordinatewise_totals(b, tails, p, float(lam))
        assert gain == pytest.approx(want_gain, rel=1e-12)
        assert spent == pytest.approx(want_spent, rel=1e-12)


def _fractional_knapsack(b, tails, p):
    """Fill the linear pieces of piecewise-linear tails greedily by b / slope."""
    pieces = []
    for bi, tail in zip(b, tails):
        cap = tail.inverse(p)
        if tail.kind == "tabulated":
            knots = list(zip(tail.knots_t, tail.knots_n))
        else:
            knots = [(0.0, 0.0), (cap, tail.value(cap))]
        for (t0, n0), (t1, n1) in zip(knots, knots[1:]):
            if bi > 0.0 and t0 < cap:
                t1 = min(t1, cap)
                cost = tail.value(t1) - n0
                pieces.append((bi * (t1 - t0) / cost, bi * (t1 - t0), cost))
    value, budget = 0.0, p
    for _, gain, cost in sorted(pieces, reverse=True):
        share = min(1.0, budget / cost)
        value += share * gain
        budget -= share * cost
        if budget <= 0.0:
            break
    return value


@pytest.mark.parametrize("seed", range(12))
def test_gk_matches_the_fractional_knapsack_on_piecewise_linear_tails(seed):
    rng = np.random.default_rng(seed)
    menu = [exponential(), linear(0.7), linear(2.5), power(1.0, scale=0.6), TABLE,
            TABLE_WIDE]
    d = int(rng.integers(1, 9))
    tails = [menu[i] for i in rng.integers(0, len(menu), d)]
    b = rng.uniform(0.05, 3.0, d)
    b[rng.random(d) < 0.2] = 0.0
    p = 3.0 if seed % 3 == 0 else float(rng.uniform(2.0, 32.0))
    assert gluskin_kwapien(b, tails, p) == pytest.approx(
        _fractional_knapsack(b, tails, p), rel=1e-12)


PIECEWISE_LINEAR_BLOCKS = [
    ((0.5, 2.0, 1.0), [exponential()] * 3, 8.0),
    ((1.0, 3.0), [linear(1.0), linear(4.0)], 6.0),
    ((0.8, 0.8, 0.8), [exponential()] * 3, 5.5),
    ((1.0, 0.0, 0.4), [power(1.0, scale=0.6), exponential(), TABLE], 16.0),
    ((3.0, 1.0), [TABLE, TABLE], 2.5),
    ((1.0, 0.7, 0.2), [TABLE, TABLE_WIDE, linear(2.5)], 3.0),
    # slack: the caps are jointly feasible within the budget
    ((1.0,), [TABLE], 70.0),
]


@pytest.mark.parametrize("b,tails,p", PIECEWISE_LINEAR_BLOCKS)
def test_gk_solves_piecewise_linear_blocks_with_one_evaluation(monkeypatch, b, tails, p):
    import lcmoments.surrogates as surrogates

    calls = []
    evaluate = surrogates._TiltBlock.evaluate

    def counted(block, lam):
        calls.append(lam)
        return evaluate(block, lam)

    monkeypatch.setattr(surrogates._TiltBlock, "evaluate", counted)
    value = gluskin_kwapien(b, tails, p)
    # the knapsack finish evaluates the block once, at its multiplier, for
    # the dual guard; the slack return evaluates nothing
    assert len(calls) <= 1
    assert value == pytest.approx(_fractional_knapsack(b, tails, p), rel=1e-14)


def test_gk_with_a_subnormal_power_coefficient_raises_no_warning():
    # b s / alpha underflows to 0 for the second coordinate, which then
    # contributes nothing
    tails = [power(2.0), power(2.0)]
    assert gluskin_kwapien((1.0, 5e-324), tails, 2.0) == pytest.approx(
        gluskin_kwapien((1.0,), tails[:1], 2.0), rel=1e-12)


def test_gk_zero_vector_is_zero():
    assert gluskin_kwapien((0.0, 0.0), [exponential()] * 2, 4.0) == 0.0


def test_gk_monotone_in_p():
    tails = [exponential(), power(2.0), TABLE]
    b = (1.0, 0.7, 0.4)
    values = [gluskin_kwapien(b, tails, p) for p in (2.0, 3.0, 4.0, 8.0, 16.0)]
    assert all(v1 >= v0 - 1e-12 for v0, v1 in zip(values, values[1:]))


def test_gk_validation():
    with pytest.raises(InvalidArgumentError):
        gluskin_kwapien((1.0, 2.0), [exponential()], 4.0)
    with pytest.raises(InvalidArgumentError):
        gluskin_kwapien((-1.0,), [exponential()], 4.0)
    with pytest.raises(InvalidArgumentError):
        gluskin_kwapien((math.nan,), [exponential()], 4.0)


def test_gk_unbounded_when_the_table_runs_out():
    with pytest.raises(UnboundedProgramError):
        gluskin_kwapien((1.0,), [TABLE], 80.0)


def test_gk_estimate_splits_head_and_tail():
    a = (2.0, 1.0, 0.5, 0.25)
    tails = [exponential()] * 4
    p = 2.0
    head = p * 2.0 / math.sqrt(2.0)
    tail = math.sqrt(p) * math.sqrt(0.5 ** 2 + 0.25 ** 2)
    assert gluskin_kwapien_estimate(a, tails, p) == pytest.approx(head + tail, rel=1e-12)


def test_gk_estimate_uses_block_tails():
    # the largest coefficient sits on the cheap tail only when selected
    tails = [linear(10.0), exponential()]
    a = (0.1, 3.0)
    value = gluskin_kwapien_estimate(a, tails, 2.0)
    direct = gluskin_kwapien((0.1, 3.0), tails, 2.0)
    assert value == pytest.approx(direct, rel=1e-12)


# -- ball and level-set estimates ------------------------------------------------

def test_ball_moment_estimate_closed_forms():
    # q = 2: euclidean head, q' = 2
    assert ball_moment_estimate((1.0, 0.0, 0.0), 2.0, 2.0) == pytest.approx(math.sqrt(2.0))
    # q = 1: q' = inf, head is the max entry
    a = (1.0, 1.0)
    assert ball_moment_estimate(a, 1.0, 2.0) == pytest.approx(2.0 * 1.0)
    with pytest.raises(InvalidArgumentError):
        ball_moment_estimate(a, 0.5, 2.0)


def test_ball_moment_estimate_flat_vector():
    n, p, q = 8, 4.0, 2.0
    a = np.full(n, n ** -0.5)
    head = math.sqrt(min(p, n)) * math.sqrt(4.0 / n)
    tail = math.sqrt(p) * math.sqrt(4.0 / n)
    assert ball_moment_estimate(a, q, p) == pytest.approx(head + tail, rel=1e-12)


def test_level_set_estimate_matches_family_geometry():
    a = (1.0, -0.5, 0.25)
    p = 2.0
    cube_head = math.sqrt(3.0) * 1.5
    gauss_head = math.sqrt(2.0 * p) * math.sqrt(1.25)
    tail = math.sqrt(p) * 0.25
    assert level_set_moment_estimate(a, UniformCube(3), p) == pytest.approx(
        cube_head + tail, rel=1e-12)
    assert level_set_moment_estimate(a, GaussianStd(3), p) == pytest.approx(
        gauss_head + tail, rel=1e-12)
    fam = product_exponential(3)
    assert level_set_moment_estimate(a, fam, p) == pytest.approx(
        gluskin_kwapien_estimate(a, fam.tails, p), rel=1e-12)


def test_level_set_estimate_checks_dimensions():
    with pytest.raises(InvalidArgumentError):
        level_set_moment_estimate((1.0, 2.0), UniformCube(3), 2.0)


# -- gaussian band ---------------------------------------------------------------

def test_gaussian_band_components():
    band = gaussian_band((0.6, 0.8), 4.0)
    quartic = math.sqrt(0.6 ** 4 + 0.8 ** 4)
    assert band.lower == 0.0  # clamped: the quartic term swamps gamma_4
    assert band.upper_indep == pytest.approx(3.0 ** 0.25 + 4.0 * 0.8, rel=1e-12)
    assert band.upper_klartag == pytest.approx(3.0 ** 0.25 + 32.0 * quartic, rel=1e-12)
    assert band.indep_valid


def test_gaussian_band_positive_lower_for_spread_vectors():
    n = 100
    a = np.full(n, n ** -0.5)
    band = gaussian_band(a, 2.0)
    assert band.lower == pytest.approx(1.0 - 2.0 * math.sqrt(3.0) * 0.1, rel=1e-12)
    assert not band.indep_valid  # p < 3
    assert band.lower < band.upper_indep <= band.upper_klartag + 1e-12


def test_gaussian_band_rejects_zero_vector():
    with pytest.raises(InvalidArgumentError):
        gaussian_band((0.0, 0.0), 4.0)


# -- moment curve to tail witnesses ----------------------------------------------

def test_tail_bounds_structure():
    curve = {2.0: 1.0, 4.0: 1.5, 8.0: 2.5}
    summary = tail_bounds(curve)
    assert summary.doubling_constant == pytest.approx(5.0 / 3.0)
    assert summary.upper_points[0] == (math.e * 1.0, pytest.approx(math.exp(-2.0)))
    level, bound = summary.lower_points[-1]
    assert level == pytest.approx(2.5 * 0.6)
    assert bound == pytest.approx(math.exp(-8.0))
    assert summary.upper_at(0.1) == 1.0
    assert summary.upper_at(math.e * 1.6) == pytest.approx(math.exp(-4.0))


def test_tail_bounds_validation():
    with pytest.raises(InvalidArgumentError):
        tail_bounds({})
    with pytest.raises(InvalidArgumentError):
        tail_bounds({1.0: 1.0, 2.0: 1.2})
    with pytest.raises(InvalidArgumentError):
        tail_bounds({2.0: 1.0, 3.0: 1.2})  # no (p, 2p) pair
    with pytest.raises(InvalidArgumentError):
        tail_bounds({2.0: 1.5, 4.0: 1.0})  # decreasing
    with pytest.raises(InvalidArgumentError):
        tail_bounds({2.0: -1.0, 4.0: 1.0})


def test_tail_bounds_witnesses_hold_for_the_gaussian():
    curve = {p: gaussian_pnorm(p) for p in (2.0, 4.0, 8.0, 16.0)}
    summary = tail_bounds(curve)
    for level, bound in summary.upper_points:
        assert erfc(level / math.sqrt(2.0)) <= bound * (1.0 + 1e-12)
    for level, bound in summary.lower_points:
        assert erfc(level / math.sqrt(2.0)) >= bound * (1.0 - 1e-12)


# -- bundle dispatch --------------------------------------------------------------

def test_surrogate_bundle_dispatch():
    a = (1.0, 0.5, 0.25)
    exp_bundle = surrogate_bundle(a, 4.0, family=product_exponential(3))
    assert exp_bundle.gk is not None and exp_bundle.momunc is not None
    assert exp_bundle.bqn is None
    ball_bundle = surrogate_bundle(a, 4.0, family=UniformBall.isotropic(3, 2.0))
    assert ball_bundle.bqn is not None and ball_bundle.momunc is not None
    assert ball_bundle.gk is None
    bare = surrogate_bundle(a, 4.0)
    assert bare.gk is None and bare.bqn is None and bare.momunc is None
    assert bare.hitczenko <= 2.0 * bare.bn_upper


BUNDLE_SPECS = ["exp", "ball:q=1", "ball:q=1.5", "ball:q=2", "ball:q=3", "cube", "gauss",
                "product:pow:alpha=2"]
ORDERS = (2.0, 3.5, 8.0, 32.0)


def _bundle_fields(bundle):
    return (bundle.hitczenko, bundle.bn_upper, bundle.gk, bundle.bqn, bundle.momunc,
            bundle.band.lower, bundle.band.upper_indep, bundle.band.upper_klartag)


@pytest.mark.parametrize("spec", BUNDLE_SPECS)
@pytest.mark.parametrize("exponent", [1000, -1000])
def test_bundle_scales_exactly_by_a_power_of_two(spec, exponent):
    from lcmoments.families import family_from_spec

    a = np.array([0.3, -1.7, 0.0, 1.7, 0.05, -0.9])
    family = family_from_spec(spec, a.size)
    factor = 2.0 ** exponent
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        base = surrogate_bundle(a, ORDERS, family=family)
        scaled = surrogate_bundle(a * factor, ORDERS, family=family)
    for b0, b1 in zip(base, scaled):
        for v0, v1 in zip(_bundle_fields(b0), _bundle_fields(b1)):
            assert (v0 is None and v1 is None) or v1 == v0 * factor
        assert b1.band.indep_valid == b0.band.indep_valid


def test_bundle_at_tiny_scale_keeps_its_quartic_correction():
    # unscaled, sum a_i^4 underflows to 0 at 1e-200 and the lower band rose
    # to the center, above the moment it bounds
    cube = UniformCube(3)
    tiny = surrogate_bundle((1e-200, 5e-201, 1e-201), 4.0, family=cube)
    unit = surrogate_bundle((1.0, 0.5, 0.1), 4.0, family=cube)
    assert unit.band.lower == 0.0
    assert tiny.band.lower == 0.0
    assert tiny.band.upper_klartag == pytest.approx(1e-200 * unit.band.upper_klartag,
                                                    rel=1e-14, abs=0.0)


def test_bundle_at_huge_scale_does_not_overflow():
    family = product_exponential(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge = surrogate_bundle((1e160, 1e160, 1.0), 4.0, family=family)
    unit = surrogate_bundle((1.0, 1.0, 1e-160), 4.0, family=family)
    for v0, v1 in zip(_bundle_fields(unit), _bundle_fields(huge)):
        assert (v0 is None and v1 is None) or v1 == pytest.approx(1e160 * v0, rel=1e-15)


def test_bundle_orders_are_all_checked_before_any_surrogate(monkeypatch):
    import lcmoments.surrogates as surrogates

    def fail(*args, **kwargs):
        raise AssertionError("a surrogate ran before every order was checked")

    monkeypatch.setattr(surrogates, "gluskin_kwapien", fail)
    monkeypatch.setattr(surrogates, "_level_set_support", fail)
    family = product_exponential(3)
    for orders in ([4.0, math.nan], [4.0, 1.5], [4.0, math.inf], [], [[4.0]]):
        with pytest.raises(InvalidArgumentError):
            surrogate_bundle((1.0, 0.5, 0.25), orders, family=family)


def test_bundle_rejects_the_zero_vector():
    with pytest.raises(InvalidArgumentError):
        surrogate_bundle((0.0, 0.0), (2.0, 4.0), family=product_exponential(2))


def test_surrogate_bundle_invariant_guard():
    with pytest.raises(SolverError):
        from lcmoments.surrogates import SurrogateBundle, GaussianBand
        SurrogateBundle(p=2.0, hitczenko=10.0, bn_upper=1.0, gk=None, bqn=None,
                        momunc=None,
                        band=GaussianBand(0.0, 1.0, 1.0, False))
