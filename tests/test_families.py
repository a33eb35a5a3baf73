import math
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import betainc

from lcmoments.errors import InvalidArgumentError, OutOfRangeError, UnsupportedFamilyError
from lcmoments.families import (
    GaussianStd,
    ProductFamily,
    UniformBall,
    UniformCube,
    family_from_spec,
    isotropic_radius,
    level_set_support,
    log_density,
    marginal_cdf,
    marginal_quantile,
    product_exponential,
)
from lcmoments.tails import exponential, linear, power

# root of w^3 - 3w + 1 = 0 in (0, 1): the 0.75-quantile of the n=3, q=2
# marginal in ball-radius units
CUBIC_ROOT = 0.34729635533386069770


# -- isotropic radius -----------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 8, 64])
def test_isotropic_radius_euclidean_closed_form(n):
    assert isotropic_radius(n, 2.0) == pytest.approx(math.sqrt(n + 2.0), rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 64])
def test_isotropic_radius_crosspolytope_closed_form(n):
    expected = math.sqrt((n + 1.0) * (n + 2.0) / 2.0)
    assert isotropic_radius(n, 1.0) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("n,q", [(3, 3.0), (5, 1.5), (10, 4.0)])
def test_isotropic_radius_matches_quadrature(n, q):
    s = (n - 1.0) / q
    mass, _ = quad(lambda u: (1.0 - u ** q) ** s, 0.0, 1.0)
    second, _ = quad(lambda u: u * u * (1.0 - u ** q) ** s, 0.0, 1.0)
    assert isotropic_radius(n, q) == pytest.approx(math.sqrt(mass / second), rel=1e-9)


def test_isotropic_radius_validation():
    with pytest.raises(InvalidArgumentError):
        isotropic_radius(0, 2.0)
    with pytest.raises(InvalidArgumentError):
        isotropic_radius(3, 0.5)


def test_isotropic_radius_rejects_a_lost_moment_ratio(monkeypatch):
    import lcmoments.families as families

    # a second-moment ratio of e^-10 puts r = e^5 far outside its n^{1/q} window
    monkeypatch.setattr(families, "betaln", lambda x, y: -10.0 * x)
    with pytest.raises(OutOfRangeError):
        isotropic_radius(3, 2.0)


def test_isotropic_ball_coordinate_has_unit_variance():
    for n, q in ((2, 2.0), (3, 1.0), (6, 3.0)):
        ball = UniformBall.isotropic(n, q)
        us = np.linspace(1e-7, 1.0 - 1e-7, 20_001)
        xs = marginal_quantile(ball, us)
        second = np.trapezoid(xs * xs, us)
        assert second == pytest.approx(1.0, abs=2e-3)


# -- family construction ---------------------------------------------------------

def test_product_family_requires_isotropy():
    ProductFamily(tails=(exponential(), power(2.0)))  # unit variance: accepted
    with pytest.raises(InvalidArgumentError):
        ProductFamily(tails=(linear(1.0),))  # variance 2


def test_product_family_shape():
    fam = product_exponential(4)
    assert fam.n == 4
    assert fam.is_linear
    assert not ProductFamily(tails=(power(2.0),)).is_linear


def test_ball_validation():
    with pytest.raises(InvalidArgumentError):
        UniformBall(n=0, q=2.0, r=1.0)
    with pytest.raises(InvalidArgumentError):
        UniformBall(n=2, q=0.9, r=1.0)
    with pytest.raises(InvalidArgumentError):
        UniformBall(n=2, q=2.0, r=0.0)
    with pytest.raises(InvalidArgumentError):
        GaussianStd(0)
    with pytest.raises(InvalidArgumentError):
        UniformCube(-1)


# -- densities --------------------------------------------------------------------

def test_log_density_gaussian():
    g = GaussianStd(2)
    at_zero = log_density(g, (0.0, 0.0))
    assert at_zero == pytest.approx(-math.log(2.0 * math.pi))
    assert log_density(g, (1.0, 2.0)) == pytest.approx(at_zero - 2.5)


def test_log_density_cube():
    c = UniformCube(3)
    inside = log_density(c, (0.0, 1.0, -1.5))
    assert inside == pytest.approx(-3.0 * math.log(2.0 * math.sqrt(3.0)))
    assert log_density(c, (2.0, 0.0, 0.0)) == -math.inf


def test_log_density_one_dimensional_ball_matches_cube():
    # r B_2^1 with isotropic r = sqrt(3) is the same law as the 1-D cube
    ball = UniformBall.isotropic(1, 2.0)
    assert ball.r == pytest.approx(math.sqrt(3.0))
    assert log_density(ball, (0.5,)) == pytest.approx(
        log_density(UniformCube(1), (0.5,)), rel=1e-12)
    assert log_density(ball, (2.0,)) == -math.inf


def test_log_density_exponential_product():
    fam = product_exponential(2)
    rate = math.sqrt(2.0)
    expected = 2.0 * math.log(rate / 2.0) - rate * (1.0 + 0.5)
    assert log_density(fam, (1.0, -0.5)) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(UnsupportedFamilyError):
        log_density(ProductFamily(tails=(power(2.0), power(2.0))), (0.0, 0.0))


def test_log_density_shape_check():
    with pytest.raises(InvalidArgumentError):
        log_density(GaussianStd(2), (1.0,))


# -- level-set support functionals -------------------------------------------------

def test_level_set_support_linear_product():
    fam = product_exponential(3)
    value = level_set_support(fam, (0, 1, 2), (1.0, 0.5, 0.2), 4.0)
    assert value == pytest.approx(4.0 / math.sqrt(2.0), rel=1e-12)
    # the budget scales the reach linearly
    assert level_set_support(fam, (1,), (0.5,), 8.0) == pytest.approx(
        8.0 * 0.5 / math.sqrt(2.0), rel=1e-12)


def test_level_set_support_gaussian_and_cube():
    assert level_set_support(GaussianStd(4), (1, 3), (3.0, 4.0), 2.0) \
        == pytest.approx(10.0, rel=1e-12)
    assert level_set_support(UniformCube(3), (0, 2), (1.0, -2.0), 7.0) \
        == pytest.approx(3.0 * math.sqrt(3.0), rel=1e-12)


def test_level_set_support_ball_block():
    ball = UniformBall.isotropic(3, 2.0)
    p = 2.0
    # k = 1: q-ball of radius r (1 - e^{-pq/(n-k)})^{1/q}
    expected = ball.r * math.sqrt(1.0 - math.exp(-2.0 * p / 2.0))
    assert level_set_support(ball, (0,), (1.0,), p) == pytest.approx(expected, rel=1e-12)
    # k = n: the level set is the whole ball
    full = level_set_support(ball, (0, 1, 2), (1.0, 1.0, 1.0), p)
    assert full == pytest.approx(ball.r * math.sqrt(3.0), rel=1e-12)


def test_level_set_support_crosspolytope_uses_sup_norm():
    ball = UniformBall.isotropic(4, 1.0)
    value = level_set_support(ball, (0, 1), (2.0, -3.0), 3.0)
    radius = ball.r * (1.0 - math.exp(-3.0 * 1.0 / 2.0))
    assert value == pytest.approx(radius * 3.0, rel=1e-12)


def test_level_set_radius_matches_the_marginal_density_ratio():
    # finite differences of the closed-form Beta CDF confirm that the density
    # drops by exactly e^{-p} at the level-set boundary; this pins the
    # (n - k)/q exponent of the section density
    ball = UniformBall.isotropic(5, 2.0)
    p = 3.0
    x_star = level_set_support(ball, (0,), (1.0,), p)
    h = 1e-4
    dens_at = marginal_cdf(ball, x_star + h) - marginal_cdf(ball, x_star - h)
    dens_zero = marginal_cdf(ball, h) - marginal_cdf(ball, -h)
    assert dens_at / dens_zero == pytest.approx(math.exp(-p), rel=1e-3)


def test_level_set_support_validation():
    ball = UniformBall.isotropic(3, 2.0)
    with pytest.raises(InvalidArgumentError):
        level_set_support(ball, (), (), 2.0)
    with pytest.raises(InvalidArgumentError):
        level_set_support(ball, (3,), (1.0,), 2.0)
    with pytest.raises(InvalidArgumentError):
        level_set_support(ball, (0,), (1.0, 2.0), 2.0)
    with pytest.raises(InvalidArgumentError):
        level_set_support(ball, (0,), (1.0,), 0.0)
    with pytest.raises(UnsupportedFamilyError):
        level_set_support(ProductFamily(tails=(power(2.0),)), (0,), (1.0,), 2.0)


# -- ball coordinate marginal -------------------------------------------------------

def test_marginal_cdf_matches_incomplete_beta():
    for n, q in ((3, 2.0), (4, 1.0), (6, 3.0)):
        ball = UniformBall.isotropic(n, q)
        s = (n - 1.0) / q
        xs = np.linspace(0.0, ball.r * 0.999, 50)
        expected = 0.5 + 0.5 * betainc(1.0 / q, s + 1.0, (xs / ball.r) ** q)
        np.testing.assert_allclose(marginal_cdf(ball, xs), expected, atol=1e-8)


def test_marginal_cdf_symmetry_and_clamps():
    ball = UniformBall.isotropic(3, 2.0)
    xs = np.linspace(-ball.r, ball.r, 33)
    np.testing.assert_allclose(marginal_cdf(ball, xs) + marginal_cdf(ball, -xs),
                               1.0, atol=1e-12)
    assert marginal_cdf(ball, -10.0) == 0.0
    assert marginal_cdf(ball, 10.0) == 1.0
    assert marginal_cdf(ball, 0.0) == pytest.approx(0.5, abs=1e-14)


def test_marginal_quantile_cubic_oracle():
    # for n = 3, q = 2 the right-half CDF is a cubic: the 0.75 point solves
    # w^3 - 3w + 1 = 0 in ball-radius units
    ball = UniformBall.isotropic(3, 2.0)
    expected = math.sqrt(5.0) * CUBIC_ROOT
    assert marginal_quantile(ball, 0.75) == pytest.approx(expected, abs=1e-8)
    assert marginal_quantile(ball, 0.25) == pytest.approx(-expected, abs=1e-8)


def test_marginal_quantile_roundtrip():
    ball = UniformBall.isotropic(4, 1.0)
    us = np.linspace(0.01, 0.99, 197)
    np.testing.assert_allclose(marginal_cdf(ball, marginal_quantile(ball, us)),
                               us, atol=1e-10)


def test_marginal_quantile_domain():
    ball = UniformBall.isotropic(3, 2.0)
    for bad in (0.0, 1.0, -0.1, 1.1, math.nan, [0.5, math.nan]):
        with pytest.raises(InvalidArgumentError):
            marginal_quantile(ball, bad)


def test_marginal_needs_two_dimensions():
    with pytest.raises(InvalidArgumentError):
        marginal_cdf(UniformBall.isotropic(1, 2.0), 0.0)


def test_library_import_leaves_out_scipy_interpolate():
    # the ball marginal is a closed Beta form, so no interpolation tables
    # (and none of the optimize/linalg modules they pull in) are loaded
    code = ("import sys, lcmoments, lcmoments.cli; "
            "print('scipy.interpolate' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_acceptance_import_leaves_out_scipy_integrate():
    # only the quadrature checks need scipy.integrate and what it pulls in
    code = ("import sys, lcmoments.acceptance; "
            "print('scipy.integrate' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_montecarlo_binds_no_logsumexp():
    # the p-norm engine reduces in linear space with numpy; a per-batch
    # scipy call costs more than the sum it computes
    code = ("import lcmoments.montecarlo as mc; "
            "print(hasattr(mc, 'logsumexp'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


# -- family spec parsing ---------------------------------------------------------

def test_family_from_spec_builtins():
    assert family_from_spec("exp", 3) == product_exponential(3)
    assert family_from_spec("gauss", 2) == GaussianStd(2)
    assert family_from_spec("cube", 5) == UniformCube(5)
    ball = family_from_spec("ball:q=1.5", 4)
    assert ball == UniformBall.isotropic(4, 1.5)


def test_family_from_spec_product():
    fam = family_from_spec("product:pow:alpha=2", 3)
    assert isinstance(fam, ProductFamily) and fam.n == 3
    mixed = family_from_spec("product:exp,pow:alpha=2", 2)
    assert mixed.tails[0].kind == "linear"
    assert mixed.tails[1].kind == "power"


def test_family_from_spec_validation():
    for bad in ("triangle", "ball:q=", "ball:r=2", "ball:q=x", "product:"):
        with pytest.raises(InvalidArgumentError):
            family_from_spec(bad, 3)
    with pytest.raises(InvalidArgumentError):
        family_from_spec("product:exp,exp", 3)  # two tails, three coordinates
    with pytest.raises(InvalidArgumentError):
        family_from_spec("exp", 0)
