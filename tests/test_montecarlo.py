import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import betaln, logsumexp
from scipy.stats import sem

import lcmoments.montecarlo as mc
from lcmoments.coeffs import as_coefficients
from lcmoments.errors import InvalidArgumentError, OutOfRangeError
from lcmoments.families import (
    GaussianStd,
    ProductFamily,
    UniformBall,
    UniformCube,
    family_from_spec,
    product_exponential,
)
from lcmoments.harness import ExperimentConfig, coefficient_profile
from lcmoments.surrogates import gaussian_pnorm
from lcmoments.tails import TailFunction
from lcmoments.montecarlo import (
    MAX_MOMENT_ORDER,
    MIN_SAMPLES,
    dependent_vs_independent,
    estimate_fourth_moment,
    estimate_joint_tail,
    estimate_pnorm,
    rademacher_pnorm_exact,
    sample,
)

SEED = 20240817


def test_sample_shapes_and_support():
    rng = np.random.default_rng(1)
    for family in (product_exponential(3), GaussianStd(3), UniformCube(3),
                   UniformBall.isotropic(3, 1.0), UniformBall.isotropic(3, 2.0),
                   UniformBall.isotropic(3, 3.0)):
        x = sample(family, rng, 500)
        assert x.shape == (500, 3)
        assert np.all(np.isfinite(x))
    cube = sample(UniformCube(2), rng, 1000)
    assert np.max(np.abs(cube)) <= math.sqrt(3.0)
    for q in (1.0, 2.0, 3.0):
        ball = UniformBall.isotropic(4, q)
        x = sample(ball, rng, 1000)
        norms = np.sum(np.abs(x) ** q, axis=1) ** (1.0 / q)
        assert np.max(norms) <= ball.r * (1.0 + 1e-12)


def test_sample_is_rng_deterministic():
    fam = UniformBall.isotropic(3, 2.0)
    x1 = sample(fam, np.random.default_rng(7), 100)
    x2 = sample(fam, np.random.default_rng(7), 100)
    np.testing.assert_array_equal(x1, x2)


def test_sample_coordinates_are_isotropic():
    rng = np.random.default_rng(3)
    for family in (product_exponential(2), UniformBall.isotropic(3, 1.0),
                   UniformBall.isotropic(2, 3.0), UniformCube(2)):
        x = sample(family, rng, 200_000)
        second = np.mean(x ** 2, axis=0)
        np.testing.assert_allclose(second, 1.0, atol=0.02)


@pytest.mark.parametrize("q", [3.0, 1e3, 1e20])
def test_ball_sampler_has_the_beta_marginal_moments(q):
    n = 6
    ball = UniformBall.isotropic(n, q)
    x = sample(ball, np.random.default_rng(SEED + 13), 200_000)[:, 0]
    # |X_1| / r = B^{1/q} with B ~ Beta(1/q, (n-1)/q + 1)
    for power, exact in ((2, 1.0), (4, _beta_marginal_fourth(ball))):
        values = x ** power
        stderr = float(np.std(values)) / math.sqrt(values.size)
        assert float(np.mean(values)) == pytest.approx(exact, abs=4.0 * stderr)


def _beta_marginal_fourth(ball):
    """E X_1^4 = r^4 B(a + 4/q, b) / B(a, b) with a = 1/q, b = (n-1)/q + 1."""
    a, b = 1.0 / ball.q, (ball.n - 1.0) / ball.q + 1.0
    return ball.r ** 4 * math.exp(betaln(a + 4.0 / ball.q, b) - betaln(a, b))


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0])
def test_ball_parts_of_the_first_coordinates_match_the_full_sample(q):
    n, m = 5, 200_000
    ball = UniformBall.isotropic(n, q)
    full = sample(ball, np.random.default_rng(SEED + 14), m)
    for k in (1, 3):
        numerator, denom = mc._ball_parts(ball, np.random.default_rng(SEED + 15 + k), m, k)
        assert numerator.shape == (m, k) and denom.shape == (m,)
        head = ball.r * numerator / denom[:, None]
        for j in range(k):
            for power in (2, 4):
                x, y = head[:, j] ** power, full[:, j] ** power
                sigma = math.sqrt((np.var(x) + np.var(y)) / m)
                assert abs(float(np.mean(x) - np.mean(y))) <= 5.0 * sigma


def test_sample_rejects_empty():
    with pytest.raises(InvalidArgumentError):
        sample(GaussianStd(1), np.random.default_rng(0), 0)


@pytest.mark.parametrize("size", [2.5, True, 3.0, "3"])
def test_sample_refuses_a_size_that_is_not_an_integer(size):
    with pytest.raises(InvalidArgumentError, match="sample size must be an integer"):
        sample(GaussianStd(2), np.random.default_rng(0), size)


# -- p-norm estimates -------------------------------------------------------------

def test_estimate_pnorm_exponential_fourth_moment():
    rec = estimate_pnorm(product_exponential(1), (1.0,), 4.0, 100_000, SEED)
    assert rec.value == pytest.approx(6.0 ** 0.25, abs=4.0 * rec.stderr)
    assert rec.stderr > 0.0
    assert rec.n_samples == 100_000


def test_estimate_pnorm_gaussian_moments():
    a = (0.6, -0.8)
    fam = GaussianStd(2)
    rec2 = estimate_pnorm(fam, a, 2.0, 100_000, SEED + 1)
    assert rec2.value == pytest.approx(1.0, abs=4.0 * rec2.stderr)
    rec4 = estimate_pnorm(fam, a, 4.0, 100_000, SEED + 2)
    assert rec4.value == pytest.approx(3.0 ** 0.25, abs=4.0 * rec4.stderr)


def test_estimate_pnorm_laplace_comb_oracle():
    # E(X_1 + 2 X_2)^4 = 6 (1 + 16) + 6 * 4 = 126 for unit-variance Laplace
    rec = estimate_pnorm(product_exponential(2), (1.0, 2.0), 4.0, 400_000, SEED + 3)
    assert rec.value == pytest.approx(126.0 ** 0.25, abs=4.0 * rec.stderr)


def test_estimate_pnorm_cube_second_moment():
    rec = estimate_pnorm(UniformCube(1), (1.0,), 2.0, 50_000, SEED + 4)
    assert rec.value == pytest.approx(1.0, abs=4.0 * rec.stderr)


def test_estimate_pnorm_is_deterministic():
    fam = UniformBall.isotropic(4, 2.0)
    a = (1.0, 0.5, 0.25, 0.0)
    r1 = estimate_pnorm(fam, a, 6.0, 20_000, 99)
    r2 = estimate_pnorm(fam, a, 6.0, 20_000, 99)
    assert r1 == r2
    r3 = estimate_pnorm(fam, a, 6.0, 20_000, 100)
    assert r3.value != r1.value


def test_each_estimate_draws_from_one_generator_per_stream(monkeypatch):
    seeds = []
    default_rng = np.random.default_rng

    def counted(seed):
        seeds.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", counted)
    ball = UniformBall.isotropic(3, 2.0)
    calls = (
        lambda: estimate_pnorm(ball, (1.0, 0.5, 0.2), (2.0, 8.0), 20_000, 3),
        lambda: estimate_fourth_moment(ball, 0, 20_000, 3),
        lambda: estimate_joint_tail(ball, (0.1, 0.1, 0.1), 20_000, 3),
        lambda: dependent_vs_independent(ball, (1.0, 0.5, 0.2), 4.0, 20_000, 3),
    )
    tags = ([mc._TAG_PNORM], [mc._TAG_MOMENT4], [mc._TAG_JOINT],
            [mc._TAG_NA_DEPENDENT, mc._TAG_NA_INDEPENDENT])
    for call, streams in zip(calls, tags):
        seeds.clear()
        call()
        assert seeds == [mc._child_seed(3, tag) for tag in streams]


def test_estimate_pnorm_validation():
    fam = product_exponential(2)
    with pytest.raises(InvalidArgumentError):
        estimate_pnorm(fam, (1.0,), 4.0, 20_000, 0)
    with pytest.raises(InvalidArgumentError):
        estimate_pnorm(fam, (1.0, 1.0), 1.5, 20_000, 0)
    with pytest.raises(OutOfRangeError):
        estimate_pnorm(fam, (1.0, 1.0), MAX_MOMENT_ORDER + 1.0, 20_000, 0)
    with pytest.raises(InvalidArgumentError):
        estimate_pnorm(fam, (0.0, 0.0), 4.0, 20_000, 0)
    with pytest.raises(InvalidArgumentError):
        estimate_pnorm(fam, (1.0, 1.0), 4.0, MIN_SAMPLES - 1, 0)


GRID_ORDERS = (2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0)
GRID_FAMILY_SPECS = ("exp", "ball:q=1", "ball:q=2", "cube")


@pytest.mark.parametrize("spec", GRID_FAMILY_SPECS)
def test_estimate_pnorm_order_vector_matches_scalar_calls(spec):
    fam = family_from_spec(spec, 4)
    a = (1.0, 0.7, 0.49, 0.343)
    records = estimate_pnorm(fam, a, GRID_ORDERS, 20_000, SEED + 20)
    assert isinstance(records, tuple) and len(records) == len(GRID_ORDERS)
    for p, rec in zip(GRID_ORDERS, records):
        assert rec == estimate_pnorm(fam, a, p, 20_000, SEED + 20)


@pytest.mark.parametrize("spec", GRID_FAMILY_SPECS)
def test_estimate_pnorm_order_vector_is_nondecreasing(spec):
    fam = family_from_spec(spec, 16)
    a = np.arange(1, 17, dtype=float) ** -1.0
    values = [rec.value for rec in estimate_pnorm(fam, a, GRID_ORDERS, 20_000, SEED + 21)]
    assert values == sorted(values)


@pytest.mark.parametrize("orders,error", [
    ((2.0, 4.0, MAX_MOMENT_ORDER + 1.0), OutOfRangeError),
    ((4.0, 1.5), InvalidArgumentError),
    ((4.0, math.nan), InvalidArgumentError),
    ((), InvalidArgumentError),
    (((2.0, 4.0),), InvalidArgumentError),
])
def test_estimate_pnorm_order_vector_validated_before_sampling(monkeypatch, orders, error):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before validating the orders")

    monkeypatch.setattr(mc, "_projector", no_sampling)
    with pytest.raises(error):
        estimate_pnorm(product_exponential(2), (1.0, 1.0), orders, 20_000, 0)


# -- the linear-space reduction ---------------------------------------------------------

def _one_draw(plan, n_samples, seed, tag):
    """The engine's one draw of the plan."""
    return plan.draw(np.random.default_rng(mc._child_seed(seed, tag)), n_samples)


def _real_rows(draw, n_samples):
    """(S, e^l, controls, tied) over the N real rows of a draw of N samples,
    laid out flat: the law's row of each of the K = N - 2 tied units, tied =
    N // 3, the K - tied lone units first, then the tied rows of each tilt,
    so that ``_unit_index`` gives each row's unit; ``controls`` is the tuple
    of the draw's J controls (e^l, r_1 and e^l S^2 / E S^2) on those rows.
    An unweighted draw has e^l = 1, no tied rows and no controls."""
    if draw.likelihood is None:
        return draw.s[0], np.ones(n_samples), (), 0
    tied = n_samples // 3
    lone = n_samples - 3 * tied
    s, *controls = (np.concatenate([x[0], x[1, lone:], x[2, lone:]]) for x in draw)
    return s, controls[0], tuple(controls), tied


def _unit_index(n_samples, tied):
    """(unit of every row, number of units) of a draw whose last 3 tied rows
    are tied in threes: row i >= n - 2 tied joins row n - 3 tied + (i - n +
    2 tied) mod tied, and every other row is a unit of its own."""
    units = n_samples - 2 * tied
    index = np.arange(n_samples)
    if tied:
        index[units:] = units - tied + (index[units:] - units) % tied
    return index, units


def _scipy_pnorm_records(plan, scale, p, draw):
    """(value, stderr, ess, top_share) per order of the self-normalised ratio
    estimate by scipy over ``draw``, the ``_real_rows`` of a draw of the
    plan ``(draw, factor)`` of <X, a / scale>, whose rows carry the weights
    e^l: the weighted logsumexp of p log|S| + l less
    that of l for the value, ``scipy.stats.sem`` of the unit sums of the
    ratio residuals u - R e^l of the shifted u = e^l |S|^p through the delta
    method for the stderr, both times the plan's c_p, and the unit sums of u
    for the ESS and the top share."""
    ps = np.atleast_1d(np.asarray(p, dtype=float))
    drawn, likelihood, _, tied = draw
    index, units = _unit_index(drawn.size, tied)
    with np.errstate(divide="ignore"):
        log_abs = np.log(np.abs(drawn * scale))
        ell = np.log(likelihood)
    records = []
    for order in map(float, ps):
        value = math.exp((logsumexp(order * log_abs + ell) - logsumexp(ell)) / order)
        value *= plan.factor(order)
        u = np.exp(order * (log_abs - np.max(log_abs)) + ell)
        total = float(np.sum(u))
        ratio = total / float(np.sum(likelihood))
        # the sum of the units' residual sums has the standard error
        # units * sem, and the ratio that over sum e^l
        residuals = np.bincount(index, u - ratio * likelihood, units)
        se = sem(residuals) * units / float(np.sum(likelihood))
        unit_u = np.bincount(index, u, units)
        records.append((value, value * se / (ratio * order),
                        total ** 2 / float(np.sum(unit_u * unit_u)),
                        float(np.max(unit_u)) / total))
    return records


def _regression(scale, order, drawn, likelihood, controls, tied):
    """(estimate, residuals, unit sums, rounding) of the two-pass
    least-squares fit of a draw at one order: the unit sums Y of u = e^l
    |S|^p / max|S|^p regressed on 1 and the unit sums Z of the J
    ``controls`` (e^l, r_1 and e^l S^2 / E S^2 of a weighted draw, none of
    an unweighted one) by ``numpy.linalg.lstsq``, whose estimate of E u is
    (sum Y - b . (sum Z - N)) / N for the fitted slopes b, and its rounding
    bound, ``_ROUNDING`` times (sum Y + |b . (sum Z - N)|) / N."""
    n_samples = drawn.size
    index, units = _unit_index(n_samples, tied)
    log_abs = np.log(np.abs(drawn * scale))
    u = likelihood * np.exp(order * (log_abs - np.max(log_abs)))
    unit_u = np.bincount(index, u, units)
    sums = np.column_stack([np.ones(units)] + [np.bincount(index, x, units)
                                               for x in controls])
    design = sums - np.concatenate([[0.0], sums[:, 1:].mean(axis=0)])
    coef = np.linalg.lstsq(design, unit_u, rcond=None)[0]
    total = float(np.sum(unit_u))
    correction = float(coef[1:] @ (sums[:, 1:].sum(axis=0) - n_samples))
    return ((total - correction) / n_samples, unit_u - design @ coef, unit_u,
            mc._ROUNDING * (total + abs(correction)) / n_samples)


def _lstsq_pnorm_records(plan, scale, p, draw):
    """(value, stderr, ess, top_share) per order of the regression estimate
    over ``draw``, the ``_real_rows`` of a draw of the plan of <X, a /
    scale> (``_regression``): the value max|S| (estimate)^{1/p} times the
    plan's c_p, the stderr the value times se / (p estimate) with se the
    larger of sqrt(K var) / N, var = sum residual^2 / (K - 1 - J) over the K
    units and J controls, and the rounding bound, and the unit sums of u for
    the ESS and the top share."""
    ps = np.atleast_1d(np.asarray(p, dtype=float))
    drawn, _, controls, tied = draw
    n_samples = drawn.size
    units = n_samples - 2 * tied
    records = []
    for order in map(float, ps):
        estimate, residuals, unit_u, rounding = _regression(scale, order, *draw)
        value = float(np.max(np.abs(drawn * scale))) * estimate ** (1.0 / order)
        value *= plan.factor(order)
        se = max(math.sqrt(float(np.sum(residuals * residuals)) / (units - 1 - len(controls))
                           * units) / n_samples, rounding)
        total = float(np.sum(unit_u))
        records.append((value, value * se / (estimate * order),
                        total ** 2 / float(np.sum(unit_u * unit_u)),
                        float(np.max(unit_u)) / total))
    return records


def _reference_records(plan, scale, p, n_samples, seed, tag):
    """The records of the engine's one draw of the plan of <X, a / scale>:
    the regression reference for a weighted draw, the scipy reduction for
    an unweighted one."""
    draw = _one_draw(plan, n_samples, seed, tag)
    reference = _scipy_pnorm_records if draw.likelihood is None else _lstsq_pnorm_records
    return reference(plan, scale, p, _real_rows(draw, n_samples))


def _assert_matches_scipy(records, expected):
    """Value, stderr, ESS and top share of every record within 1e-13
    relative of the reference."""
    records = records if isinstance(records, tuple) else (records,)
    got = [(rec.value, rec.stderr, rec.ess, rec.top_share) for rec in records]
    np.testing.assert_allclose(got, expected, rtol=1e-13, atol=0.0)


# a prime count of samples, so no chunk of two or more rows divides it
ODD_SAMPLES = 10_007


@pytest.mark.parametrize("spec", GRID_FAMILY_SPECS + ("gauss", "product:pow:alpha=2",
                                                      "ball:q=3"))
def test_estimate_pnorm_matches_the_scipy_reduction(spec):
    fam = family_from_spec(spec, 5)
    a = (1.0, -0.5, 0.25, 0.0, 3.0)
    # the engine's draw plan of <X, a / max|a_i|>
    plan = mc._projector(fam, np.asarray(a) / 3.0)

    # the mixture has N mod 3 lone units, with a row of the law only: 2 at
    # ODD_SAMPLES and 20 000, 0 at 10 005 and 1 at 10 006
    for p, n_samples, seed in ((GRID_ORDERS, ODD_SAMPLES, SEED + 31),
                               (5.5, ODD_SAMPLES, SEED + 32), (32.0, 20_000, SEED + 33),
                               (GRID_ORDERS, 10_005, SEED + 31),
                               (GRID_ORDERS, 10_006, SEED + 31)):
        expected = _reference_records(plan, 3.0, p, n_samples, seed, mc._TAG_PNORM)
        _assert_matches_scipy(estimate_pnorm(fam, a, p, n_samples, seed), expected)


@pytest.mark.parametrize("q", [1.0, 2.0, 3.0])
def test_dependent_vs_independent_matches_the_scipy_reduction(q):
    ball = UniformBall.isotropic(4, q)
    a = (1.0, 0.6, -0.3, 0.1)
    for p in ((3.0, 4.5, 8.0, 32.0), 4.0):
        deps, indeps = dependent_vs_independent(ball, a, p, ODD_SAMPLES, SEED + 34)
        _assert_matches_scipy(deps, _reference_records(
            mc._projector(ball, np.asarray(a)), 1.0, p, ODD_SAMPLES, SEED + 34,
            mc._TAG_NA_DEPENDENT))
        _assert_matches_scipy(indeps, _reference_records(
            mc._twin_projector(ball, np.asarray(a)), 1.0, p, ODD_SAMPLES, SEED + 34,
            mc._TAG_NA_INDEPENDENT))


@pytest.mark.parametrize("spec,a", [
    ("ball:q=3", (1.0, -0.5, 0.25, 0.0, 3.0)),
    ("exp", (1.0, -0.5, 0.25, 0.0, 3.0)),
    # |X_1| = s E^{1/1000} is nearly constant: w - R is a few thousandths of w
    ("product:pow:alpha=1000", (1.0, 0.0, 0.0, 0.0, 0.0)),
    # at the tilts' orders 4 and 32 the cube's controls fit W so closely that
    # the residual sum of squares cancels in the sums: the engine sums the
    # residuals there
    ("cube", (1.0, -0.5, 0.25, 0.0, 3.0)),
], ids=["unweighted", "weighted", "nearly-constant", "weighted-cancelling"])
def test_the_stderr_from_sums_matches_the_two_pass_formula(spec, a):
    # the engine expands the residual sum of squares of its regression on
    # the draw's J controls (none for an unweighted draw, whose residuals
    # are w - R) in sums of w; the reference sums the residuals themselves,
    # exactly rounded
    fam = family_from_spec(spec, 5)
    cv = as_coefficients(a)
    orders = np.array(GRID_ORDERS)
    records = estimate_pnorm(fam, a, orders, ODD_SAMPLES, SEED + 35)
    draw = _real_rows(_one_draw(mc._projector(fam, cv.unit), ODD_SAMPLES, SEED + 35,
                                mc._TAG_PNORM), ODD_SAMPLES)
    _, _, controls, tied = draw
    units = ODD_SAMPLES - 2 * tied
    for order, rec in zip(orders, records):
        mean, residuals, _, rounding = _regression(1.0, order, *draw)
        se = max(math.sqrt(math.fsum(residuals * residuals) / (units - 1 - len(controls))
                           * units) / ODD_SAMPLES, rounding)
        assert rec.stderr == pytest.approx(rec.value * se / (mean * order), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("spec,n,profile", [
    ("exp", 16, "flat"), ("exp", 64, "flat"), ("ball:q=1", 16, "flat"),
    ("exp", 64, "geometric:rho=0.7"), ("cube", 16, "one_hot"),
])
def test_the_stderr_of_closely_correlated_controls_matches_the_lstsq_fit(spec, n, profile):
    # on these grid rows the controls are closely correlated: an error bar
    # from the Gram matrix's inverse drifted up to 2e-13 from the two-pass
    # least-squares fit, one from the orthonormal basis stays within 1e-13
    fam = family_from_spec(spec, n)
    cv = as_coefficients(coefficient_profile(profile, n))
    plan = mc._projector(fam, cv.unit)
    for seed in range(4):
        records = estimate_pnorm(fam, cv.array, GRID_ORDERS, 20_000, seed)
        expected = _reference_records(plan, cv.scale, GRID_ORDERS, 20_000, seed, mc._TAG_PNORM)
        np.testing.assert_allclose([rec.stderr for rec in records],
                                   [ref[1] for ref in expected], rtol=1e-13, atol=0.0)


# the Gaussian mixture draws one normal z per unit, whose three rows, one
# per part, are V_j = c_j z^2 in units of sigma^2, with c_j = 1 / (1 - x_j)
# over the law (x_0 = 0) and the saddles x_j = p_j / (p_j + 1) of the
# orders 4 and 32; a row of V carries e^l = 1 / sum_k alpha_k h_k,
# r_1 = h_1 e^l and e^l V / E V, E V = 1, with h_k = sqrt(1 - x_k)
# e^{x_k V / 2}
_GAUSS_SADDLES = np.array([0.0, 4.0 / 5.0, 32.0 / 33.0])


def _gaussian_unit_mean(f, n_samples):
    """E f(W, E, R, Q) over the normal z of a unit of the Gaussian mixture
    of N samples, by quadrature: W(p) is the unit's sum of e^l V^{p/2} over
    its three rows, E its sum of e^l, R its sum of r_1 and Q its sum of
    e^l V."""
    tied = n_samples // 3
    log_alphas = np.log(np.array([n_samples - 2 * tied, tied, tied]) / n_samples)

    def at(z):
        v = z * z / (1.0 - _GAUSS_SADDLES)
        log_h = 0.5 * np.log1p(-_GAUSS_SADDLES)[:, None] + np.multiply.outer(
            0.5 * _GAUSS_SADDLES, v)
        log_mixture = logsumexp(log_alphas[:, None] + log_h, axis=0)
        likelihood = np.exp(-log_mixture)
        return f(lambda p: float(np.sum(likelihood * v ** (p / 2.0))), float(np.sum(likelihood)),
                 float(np.sum(np.exp(log_h[1] - log_mixture))), float(np.sum(likelihood * v)))

    density = lambda z: math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    return 2.0 * quad(lambda z: at(z) * density(z), 0.0, math.inf, epsabs=0.0, epsrel=1e-8,
                      limit=200)[0]


def _gaussian_residual_variance(p, n_samples):
    """The variance of the residual of a unit's W(p) after its linear
    regression on the unit's (E, R, Q), from the covariances of the four."""
    features = (lambda w, e, r, q: w(p), lambda w, e, r, q: e, lambda w, e, r, q: r,
                lambda w, e, r, q: q)
    means = [_gaussian_unit_mean(f, n_samples) for f in features]
    cov = np.empty((4, 4))
    for i in range(4):
        for j in range(i, 4):
            cov[i, j] = cov[j, i] = _gaussian_unit_mean(
                lambda w, e, r, q: features[i](w, e, r, q) * features[j](w, e, r, q),
                n_samples) - means[i] * means[j]
    return cov[0, 0] - cov[0, 1:] @ np.linalg.solve(cov[1:, 1:], cov[1:, 0])


@pytest.mark.parametrize("seed", range(5))
def test_gaussian_second_moment_stderr_matches_its_known_value(seed):
    # S = <g, a> has E S^2 = ||a||^2 and E S^4 = 3 ||a||^4.  W(2) is the
    # unit's Q, so the regression on (E, R, Q) leaves no residual: ||S||_2
    # comes out exact to rounding, with a bar at the rounding bound.  At
    # p = 4 the regression estimate over the K = N - 2 (N // 3) units gives
    # the stderr ||a|| 3^{1/4} sqrt(K var) / (4 * 3 N) of ||S||_4, var the
    # residual variance of W(4) on (E, R, Q): 0.20 of the ratio estimate's
    # and 0.80 of the regression's on (E, R) alone; over 200 seeds (1000 to
    # 1199) the estimate of it has 0.26% relative noise at N = 10^5
    a = np.array([1.0, -0.5, 0.25, 2.0])
    n_samples = 100_000
    units = n_samples - 2 * (n_samples // 3)
    norm = float(np.linalg.norm(a))
    second, fourth = estimate_pnorm(GaussianStd(4), a, (2.0, 4.0), n_samples, SEED + 40 + seed)
    assert abs(second.value - norm) <= 3.0 * second.stderr <= 3e-12 * norm
    var = _gaussian_residual_variance(4.0, n_samples)
    assert fourth.stderr == pytest.approx(
        norm * 3.0 ** 0.25 * math.sqrt(units * var) / (4.0 * 3.0 * n_samples), rel=0.03)


@pytest.mark.parametrize("spec", ["exp", "ball:q=1", "ball:q=2", "gauss", "cube"])
def test_weighted_second_moments_are_exact_to_rounding(spec):
    # a weighted draw's W(2) is its third control times a constant, so the
    # regression on the three controls reads E S^2 = ||a||_2^2 of every
    # isotropic family to rounding, and its error bar is the rounding
    # bound: at every lone-unit count the record covers the exact norm
    # within three of its stderr, which is at most 1e-12 of it
    for n in (4, 64):
        fam = family_from_spec(spec, n)
        for profile in GRID_PROFILES:
            a = coefficient_profile(profile, n)
            exact = float(np.linalg.norm(a))
            for n_samples in (ODD_SAMPLES, 10_005, 10_006):
                rec = estimate_pnorm(fam, a, 2.0, n_samples, SEED + 37)
                assert abs(rec.value - exact) <= 3.0 * rec.stderr <= 3e-12 * exact, (
                    profile, n, n_samples, rec)


@pytest.mark.parametrize("spec", ["gauss", "cube", "exp", "ball:q=1"])
def test_gauss_and_small_cube_records_do_not_depend_on_the_chunk_budget(monkeypatch, spec):
    # the blocks fill one vector in order from one stream of variates, and
    # the weighted plans lay out their proposal over all samples, so the
    # block size cannot move a record (at n = 5 the BLAS products of the
    # cube and of the mixture's four distinct weights round a row alike in
    # every call of two or more rows; at n >= 8 a matvec rounds the last
    # m mod 4 rows of a call differently); the budget 5 * 97 gives the cube
    # blocks of 97 units, which do not divide its 3 337 units, and the
    # budgets 4 and 1 blocks of one unit, so the mixture's two lone units
    # span two blocks
    fam = family_from_spec(spec, 5)
    pooled = spec in ("exp", "ball:q=1")
    for a, width in (((1.0, -0.5, 0.25, 0.0, 3.0), 4), (np.eye(1, 5)[0], 1),
                     (np.full(5, 0.5), 1 if pooled else 5)):
        records = []
        for budget in (2 ** 15, 2 ** 10, 5 * 97, 4, 1):
            monkeypatch.setattr(mc, "_CHUNK_ENTRIES", budget)
            records.append(estimate_pnorm(fam, a, GRID_ORDERS, ODD_SAMPLES, SEED + 36))
        # a product of one row and two or more columns is a BLAS dot, which
        # rounds a row through another kernel than a call of many rows
        exact = records[1:] if width == 1 or spec == "gauss" else records[1:3]
        assert all(rec == records[0] for rec in exact)
        for rec in records[3:]:
            _assert_matches_scipy(rec, [(r.value, r.stderr, r.ess, r.top_share)
                                        for r in records[0]])


def _recorded_sizes(monkeypatch, name):
    """Patch the module's draw ``name`` to log the row count of every call."""
    sizes = []
    inner = getattr(mc, name)

    def wrapped(*args):
        sizes.append(args[-1])
        return inner(*args)

    monkeypatch.setattr(mc, name, wrapped)
    return sizes


def _recorded_plans(monkeypatch, name):
    """Patch the module's plan builder ``name`` to log, for every plan it
    builds, the sample count of each of its draws."""
    plans = []
    inner = getattr(mc, name)

    def wrapped(*args):
        plan = inner(*args)
        sizes = []
        plans.append(sizes)

        def logged(rng, n):
            sizes.append(n)
            return plan.draw(rng, n)

        return plan._replace(draw=logged)

    monkeypatch.setattr(mc, name, wrapped)
    return plans


class _LoggedDraws:
    """A generator that logs the shape of every array it draws."""

    def __init__(self, rng, shapes):
        self._rng, self._shapes = rng, shapes

    def __getattr__(self, name):
        method = getattr(self._rng, name)
        if not callable(method):
            return method

        def logged(*args, **kwargs):
            out = method(*args, **kwargs)
            self._shapes.append(np.shape(out))
            return out

        return logged


def _logged_shapes(monkeypatch):
    """Log the shape of every array the generators draw."""
    shapes = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: _LoggedDraws(default_rng(seed), shapes))
    return shapes


def _assert_chunks_tile(sizes, n_samples, width):
    rows = mc._CHUNK_ENTRIES // width
    assert max(sizes) * width <= mc._CHUNK_ENTRIES
    assert sizes == [rows] * (n_samples // rows) + [n_samples % rows] * (n_samples % rows > 0)


def _assert_blocks_tile(shapes, parts, width):
    """The two-dimensional draws are (rows, width) blocks of at most
    ``_CHUNK_ENTRIES`` entries that tile, in order, each of the consecutive
    runs of samples whose row counts are ``parts``."""
    matrices = [shape for shape in shapes if len(shape) == 2]
    assert {columns for _, columns in matrices} == {width}
    sizes = [rows for rows, _ in matrices]
    for n_rows in parts:
        blocks = -(-n_rows // (mc._CHUNK_ENTRIES // width))
        _assert_chunks_tile(sizes[:blocks], n_rows, width)
        sizes = sizes[blocks:]
    assert sizes == []


def _mixture_parts(n_samples):
    """Row counts of the runs of variate rows of the defensive mixture: one
    run of N - 2 (N // 3) rows, one per unit, which serve the law and, the
    last N // 3 of them, each tilt too."""
    return [n_samples - 2 * (n_samples // 3)]


@pytest.mark.parametrize("spec", GRID_FAMILY_SPECS + ("gauss",))
def test_every_projection_draw_is_one_chunk_of_the_budget(monkeypatch, spec):
    n, n_samples = 64, 200_000
    fam = family_from_spec(spec, n)
    pooled = spec in ("exp", "ball:q=1")
    gaussian = spec in ("ball:q=2", "gauss")
    plans = _recorded_plans(monkeypatch, "_projector")
    shapes = _logged_shapes(monkeypatch)
    # distinct weights, e_1, and the flat vector, whose 64 equal weights the
    # mixture of exp and ball:q=1 pools into one Gamma(64) column
    for a, width in ((np.linspace(1.0, 0.1, n), n), (np.eye(1, n)[0], 1),
                     (np.full(n, 0.125), 1 if pooled else n)):
        plans.clear()
        shapes.clear()
        estimate_pnorm(fam, a, (2.0, 8.0), n_samples, SEED + 37)
        # one draw of all the samples per estimate
        assert plans == [[n_samples]]
        # the rotation invariant laws draw one column of normals, the others
        # blocks of every live column, once per unit of the mixture
        _assert_blocks_tile(shapes, _mixture_parts(n_samples), 1 if gaussian else width)


def test_every_twin_and_vector_draw_is_one_chunk_of_the_budget(monkeypatch):
    n, n_samples = 64, 200_000
    deps = _recorded_plans(monkeypatch, "_projector")
    indeps = _recorded_plans(monkeypatch, "_twin_projector")
    shapes = _logged_shapes(monkeypatch)
    a = np.where(np.arange(n) % 4 == 3, 0.0, 1.0)
    dependent_vs_independent(UniformBall.isotropic(n, 1.0), a, 4.0, n_samples, SEED + 38)
    assert deps == indeps == [[n_samples]]
    # the ball at q = 1 draws the Laplace sum of the live coordinates, whose
    # 48 equal weights pool into one Gamma(48) column drawn once per unit;
    # the twin draws the three quarters of live coordinates of every sample
    matrices = [shape for shape in shapes if len(shape) == 2]
    assert {columns for _, columns in matrices} == {1, 48}
    _assert_blocks_tile([shape for shape in matrices if shape[1] == 1],
                        _mixture_parts(n_samples), 1)
    _assert_blocks_tile([shape for shape in matrices if shape[1] == 48], [n_samples], 48)
    # joint tails draw whole vectors; 8 is their largest dimension
    vectors = _recorded_sizes(monkeypatch, "sample")
    estimate_joint_tail(product_exponential(8), np.full(8, 0.05), n_samples, SEED + 39)
    _assert_chunks_tile(vectors, n_samples, 8)


def _one_entry_plan(value, target, u):
    """A plan of projected Gaussian draws on u with ``value`` at sample index
    ``target``."""

    def draw(rng, n):
        x = rng.standard_normal((n, 3))
        x[target, 0] = value
        return mc._Draw((x @ u)[None])

    return mc._Plan(draw)


def test_pnorm_record_of_overflowed_projections():
    a = as_coefficients((1.0, 0.5, 2.0))
    orders = np.array([2.0, 4.0, 32.0])
    for bad in (np.inf, np.nan):
        with pytest.raises(OutOfRangeError, match="overflows"):
            mc._pnorm_engine(_one_entry_plan(bad, 6_300, a.unit), a, orders, ODD_SAMPLES, 5,
                             mc._TAG_PNORM)


def test_estimate_pnorm_rejects_an_overflowing_projection():
    with pytest.raises(OutOfRangeError, match="overflows"):
        estimate_pnorm(product_exponential(3), (1e308, 1e308, 1.0), (2.0, 4.0),
                       MIN_SAMPLES, 0)


def test_product_sampler_matches_the_per_column_loop():
    exp, pow2 = TailFunction.exponential(), TailFunction.power(2.0)
    table = TailFunction.tabulated((0.0, 50.0), (0.0, 50.0 * math.sqrt(2.0)))
    for tails in ((exp,) * 5, (exp, pow2, exp, table, pow2, exp), (pow2,)):
        fam = ProductFamily(tails)
        rng = np.random.default_rng(SEED + 35)
        exps = rng.standard_exponential((313, fam.n))
        expected = np.column_stack([t.inverse(exps[:, j]) for j, t in enumerate(tails)])
        expected = mc._random_signs(expected, rng)
        got = mc._sample_tails(fam.tail_columns, fam.n, np.random.default_rng(SEED + 35), 313)
        np.testing.assert_array_equal(got, expected)


# -- the projected draw ------------------------------------------------------------

def _mixed_product(n):
    return family_from_spec("product:" + ",".join(("pow:alpha=2", "exp")[j % 2]
                                                  for j in range(n)), n)


@pytest.mark.parametrize("n", [1, 3, 16])
@pytest.mark.parametrize("build", [
    product_exponential, _mixed_product,
    lambda n: UniformBall.isotropic(n, 1.0), lambda n: UniformBall.isotropic(n, 2.0),
    lambda n: UniformBall.isotropic(n, 3.0), UniformCube, GaussianStd,
], ids=["exp", "product", "ball:q=1", "ball:q=2", "ball:q=3", "cube", "gauss"])
def test_projection_has_the_moments_of_the_full_vector(build, n):
    fam = build(n)
    m = 200_000
    # a signed decreasing vector, and one with zeros and ties
    vectors = [np.linspace(1.0, 0.2, n) * np.where(np.arange(n) % 3 == 1, -1.0, 1.0),
               np.resize([1.0, 1.0, 0.0, -1.0, 0.5, 0.5, 0.0], n)]
    for j, a in enumerate(vectors):
        if not np.any(a):
            continue
        plan = mc._projector(fam, a)
        # a weighted plan's rows carry their weights e^l; its moments are the
        # weighted means, whose noise is that of the units' ratio residuals
        projected, likelihood, _, tied = _real_rows(
            plan.draw(np.random.default_rng(SEED + 40 + 2 * j), m), m)
        index, units = _unit_index(m, tied)
        full = sample(fam, np.random.default_rng(SEED + 41 + 2 * j), m) @ a
        assert projected.shape == likelihood.shape == (m,)
        for power in (2, 4):
            # the plan's p-norm times its c_p is that of <X, a>
            x, y = (plan.factor(power) * projected) ** power, full ** power
            mean = float(np.sum(likelihood * x) / np.sum(likelihood))
            residuals = np.bincount(index, likelihood * (x - mean), units) / np.mean(likelihood)
            sigma = math.sqrt(units * np.var(residuals) / m ** 2 + np.var(y) / m)
            assert abs(mean - float(np.mean(y))) <= 5.0 * sigma


@pytest.mark.parametrize("spec", ["ball:q=2", "gauss"])
def test_rotation_invariant_projections_draw_no_matrix(monkeypatch, spec):
    # S has the law of a normal (times c_p for the ball), so the mixture
    # draws (m, 1) blocks of one normal per unit and never a matrix of the
    # 64 coordinates
    shapes = _logged_shapes(monkeypatch)
    fam = family_from_spec(spec, 64)
    records = estimate_pnorm(fam, np.linspace(1.0, 2.0, 64), GRID_ORDERS, 20_000, SEED)
    assert all(rec.value > 0.0 for rec in records)
    assert shapes and all(len(shape) == 2 for shape in shapes), shapes
    _assert_blocks_tile(shapes, _mixture_parts(20_000), 1)


@pytest.mark.parametrize("profile", ["one_hot", "flat"])
def test_one_hot_and_flat_exp_rows_draw_no_matrix(monkeypatch, profile):
    # e_1 has one distinct weight and the flat vector pools its 64 equal
    # weights into one Gamma(64) column, so the mixture draws (m, 1) blocks
    # of variate rows and never a matrix of the 64 coordinates
    shapes = _logged_shapes(monkeypatch)
    a = np.eye(1, 64)[0] if profile == "one_hot" else np.full(64, 0.125)
    records = estimate_pnorm(product_exponential(64), a, GRID_ORDERS, 20_000, SEED)
    assert all(rec.value > 0.0 for rec in records)
    assert shapes and all(shape[1:] in ((), (1,)) for shape in shapes), shapes


@pytest.mark.parametrize("spec", ["exp", "product:pow:alpha=2", "cube"])
def test_zero_coefficients_are_never_drawn(spec):
    # padding a with zero coordinates leaves the plan, so every record, as it is
    a = np.array([0.7, -1.0, 0.3, 0.3, 2.0])
    records = estimate_pnorm(family_from_spec(spec, 5), a, GRID_ORDERS, ODD_SAMPLES, SEED)
    padded = np.zeros(12)
    padded[[1, 2, 6, 7, 11]] = a
    assert estimate_pnorm(family_from_spec(spec, 12), padded, GRID_ORDERS, ODD_SAMPLES,
                          SEED) == records


def test_exp_records_do_not_depend_on_the_order_of_the_coefficients():
    a = np.array([0.7, -1.0, 0.3, 0.3, 2.0, -0.7, 0.0, 1.5])
    fam = product_exponential(a.size)
    records = estimate_pnorm(fam, a, GRID_ORDERS, ODD_SAMPLES, SEED)
    for perm in (a[::-1], np.roll(a, 3), a[[4, 0, 7, 1, 6, 3, 2, 5]]):
        assert estimate_pnorm(fam, perm, GRID_ORDERS, ODD_SAMPLES, SEED) == records


# -- the defensive mixture of linear-tail projections ---------------------------

GRID_PROFILES = ("one_hot", "flat", "geometric:rho=0.7", "power:alpha=1")


def _laplace_even_moment(weights, k):
    """E S^{2k} of S = sum_i w_i L_i for iid standard Laplace L_i: (2k)! times
    the t^{2k} coefficient of the product polynomial prod_i 1 / (1 - w_i^2 t^2)."""
    coef = np.zeros(k + 1)
    coef[0] = 1.0
    for w in weights:
        for j in range(1, k + 1):
            coef[j] += w * w * coef[j - 1]
    return math.factorial(2 * k) * float(coef[k])


@pytest.mark.parametrize("n", [4, 64])
@pytest.mark.parametrize("profile", GRID_PROFILES)
def test_linear_tail_pnorms_cover_their_exact_values(profile, n):
    # a unit-variance Laplace coordinate is L / sqrt(2); over 8 seeds the
    # z-scores of the grid's top orders centre on 0 and none is wild, and no
    # estimate rests on fewer than 5% of its draws
    a = coefficient_profile(profile, n)
    orders = (2.0, 4.0, 8.0, 16.0, 32.0)
    exact = [_laplace_even_moment(a / math.sqrt(2.0), int(p) // 2) ** (1.0 / p) for p in orders]
    n_samples = 20_000
    zs = []
    for seed in range(8):
        records = estimate_pnorm(product_exponential(n), a, orders, n_samples, SEED + 50 + seed)
        assert all(rec.ess >= 0.05 * n_samples for rec in records)
        zs.append([(rec.value - ref) / rec.stderr for rec, ref in zip(records, exact)])
    zs = np.array(zs)
    assert np.all(np.abs(zs) <= 4.0), zs
    assert np.all(np.abs(zs.mean(axis=0)) <= 1.5), zs.mean(axis=0)


@pytest.mark.parametrize("spec", ["gauss", "ball:q=2"])
def test_gaussian_law_pnorms_cover_their_exact_values(spec):
    # ||<g, a>||_p = ||a|| gamma_p, and the ball's coordinate X_1 has
    # (X_1 / r)^2 ~ Beta(1/2, (n + 1) / 2), so ||<X, a>||_p = ||a|| r
    # (B(p/2 + 1/2, (n + 1) / 2) / B(1/2, (n + 1) / 2))^{1/p}; over the grid's
    # profiles, dimensions and even orders and 8 seeds, the mean z-score of
    # every cell stays near 0, none is wild, and no estimate rests on fewer
    # than 1% of its draws
    orders = tuple(p for p in GRID_ORDERS if p % 2 == 0)
    n_samples = 20_000
    for n in (4, 16, 64):
        fam = family_from_spec(spec, n)
        if spec == "gauss":
            unit = [gaussian_pnorm(p) for p in orders]
        else:
            unit = [fam.r * math.exp((betaln(0.5 * (p + 1.0), 0.5 * (n + 1.0))
                                      - betaln(0.5, 0.5 * (n + 1.0))) / p) for p in orders]
        for profile in GRID_PROFILES:
            a = coefficient_profile(profile, n)
            exact = np.linalg.norm(a) * np.array(unit)
            zs = []
            for seed in range(8):
                records = estimate_pnorm(fam, a, orders, n_samples, seed)
                assert all(rec.ess >= 0.01 * n_samples for rec in records)
                zs.append([(rec.value - ref) / rec.stderr for rec, ref in zip(records, exact)])
            zs = np.array(zs)
            assert np.all(np.abs(zs) <= 4.0), (n, profile, zs)
            assert np.all(np.abs(zs.mean(axis=0)) <= 1.5), (n, profile, zs.mean(axis=0))


def _cube_even_moment(weights, k):
    """E S^{2k} of S = sum_i w_i X_i for iid X_i uniform on [-sqrt(3),
    sqrt(3)]: (2k)! times the t^{2k} coefficient of the product polynomial
    prod_i sum_j w_i^{2j} t^{2j} E X^{2j} / (2j)!, with E X^{2j} = 3^j /
    (2j + 1)."""
    terms = [3.0 ** j / (2 * j + 1) / math.factorial(2 * j) for j in range(k + 1)]
    coef = np.zeros(k + 1)
    coef[0] = 1.0
    for w in weights:
        coef = np.convolve(coef, [term * w ** (2 * j) for j, term in enumerate(terms)])[:k + 1]
    return math.factorial(2 * k) * float(coef[k])


@pytest.mark.parametrize("n", [4, 16, 64])
def test_cube_pnorms_cover_their_exact_values(n):
    # over the grid's profiles and even orders and 8 seeds, the mean z-score
    # of every cell stays near 0, none is wild, and no estimate rests on
    # fewer than 1% of its draws
    orders = tuple(p for p in GRID_ORDERS if p % 2 == 0)
    n_samples = 20_000
    fam = UniformCube(n)
    for profile in GRID_PROFILES:
        a = coefficient_profile(profile, n)
        exact = [_cube_even_moment(a, int(p) // 2) ** (1.0 / p) for p in orders]
        zs = []
        for seed in range(8):
            records = estimate_pnorm(fam, a, orders, n_samples, seed)
            assert all(rec.ess >= 0.01 * n_samples for rec in records)
            zs.append([(rec.value - ref) / rec.stderr for rec, ref in zip(records, exact)])
        zs = np.array(zs)
        assert np.all(np.abs(zs) <= 4.0), (profile, zs)
        assert np.all(np.abs(zs.mean(axis=0)) <= 1.5), (profile, zs.mean(axis=0))


@pytest.mark.parametrize("profile", GRID_PROFILES)
def test_mixture_draws_times_the_normal_moments_are_the_laplace_moments(profile):
    # S = sqrt(V) Z with Z ~ N(0, 1) independent of V, so E S^{2k} =
    # E Z^{2k} E V^k: the weighted even moments of the plan's draws sqrt(V),
    # times those of Z, are the exact moments, within the noise of the
    # units' residual sums
    n, m = 16, 400_000
    a = coefficient_profile(profile, n)
    s, likelihood, _, tied = _real_rows(mc._projector(product_exponential(n), a).draw(
        np.random.default_rng(SEED + 63), m), m)
    index, units = _unit_index(m, tied)
    for k in (1, 2, 4, 8, 16):
        x = s ** (2 * k)
        mean = float(np.sum(likelihood * x) / np.sum(likelihood))
        residuals = np.bincount(index, likelihood * (x - mean), units) / np.mean(likelihood)
        sigma = math.sqrt(units * np.var(residuals)) / m
        normal = gaussian_pnorm(2.0 * k) ** (2 * k)
        exact = _laplace_even_moment(a / math.sqrt(2.0), k)
        assert abs(mean * normal - exact) <= 5.0 * sigma * normal


@pytest.mark.parametrize("n", [1, 4, 64])
def test_mixture_factors_are_the_normal_norm_times_the_exact_constant(n):
    # the Laplace mixture draws sqrt(V), so its c_p is ||Z||_p; the ball at
    # q = 1 multiplies that by the c_p of the BGMN identity
    a = np.linspace(1.0, 0.5, n)
    ball = UniformBall.isotropic(n, 1.0)
    laplace, bgmn = mc._projector(product_exponential(n), a), mc._projector(ball, a)
    for p in (2.0, 4.5, 32.0):
        c_p = ball.r * math.exp((math.lgamma(n + 1.0) - math.lgamma(n + 1.0 + p)) / p)
        assert laplace.factor(p) == gaussian_pnorm(p)
        assert bgmn.factor(p) == pytest.approx(gaussian_pnorm(p) * c_p, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("spec", ["exp", "ball:q=1", "cube"])
@pytest.mark.parametrize("profile", GRID_PROFILES)
def test_ess_never_exceeds_the_number_of_units(spec, profile):
    # (sum w)^2 <= K sum w^2 over K unit sums: a mixture row has
    # N - 2 (N // 3) units
    records = estimate_pnorm(family_from_spec(spec, 16), coefficient_profile(profile, 16),
                             GRID_ORDERS, ODD_SAMPLES, SEED + 64)
    units = ODD_SAMPLES - 2 * (ODD_SAMPLES // 3)
    assert all(rec.ess <= units * (1.0 + 1e-12) for rec in records), records


@pytest.mark.parametrize("profile", ["flat", "one_hot", "geometric:rho=0.7"])
def test_balls_at_q1_keep_their_ess_at_the_top_order(profile):
    # the BGMN identity draws the ball at q = 1 through the Laplace mixture,
    # so its p = 32 estimate rests on many draws, not on one
    n_samples = 20_000
    rec = estimate_pnorm(UniformBall.isotropic(64, 1.0), coefficient_profile(profile, 64),
                         32.0, n_samples, SEED + 61)
    assert rec.ess >= 0.01 * n_samples


@pytest.mark.parametrize("n", [4, 64])
def test_ball_q1_coordinate_pnorms_cover_their_exact_values(n):
    # X_1 = r Y_1 / T with Y_1 standard Laplace and T ~ Gamma(n + 1)
    # independent of X: E|X_1|^p = r^p Gamma(p + 1) Gamma(n + 1) / Gamma(n + 1 + p)
    ball = UniformBall.isotropic(n, 1.0)
    orders = (2.0, 4.0, 32.0)
    exact = [ball.r * math.exp((math.lgamma(p + 1.0) + math.lgamma(n + 1.0)
                                - math.lgamma(n + 1.0 + p)) / p) for p in orders]
    for seed in range(4):
        records = estimate_pnorm(ball, np.eye(1, n)[0], orders, 20_000, SEED + 62 + seed)
        for rec, ref in zip(records, exact):
            assert rec.value == pytest.approx(ref, abs=4.0 * rec.stderr)


@pytest.mark.parametrize("spec,n,profile", [
    ("exp", 1, "one_hot"), ("exp", 16, "flat"), ("exp", 16, "geometric:rho=0.7"),
    ("cube", 1, "one_hot"), ("cube", 16, "flat"), ("cube", 16, "geometric:rho=0.7"),
], ids=["1-one_hot", "16-flat", "16-geometric:rho=0.7", "cube-1-one_hot", "cube-16-flat",
        "cube-16-geometric:rho=0.7"])
def test_mixture_likelihood_ratios_have_mean_one(spec, n, profile):
    # the mean of e^l over the rows has expectation 1 under the mixture, with
    # the noise of its unit sums, and e^l <= 1 / alpha_0 = N / (N - 2 (N // 3))
    plan = mc._projector(family_from_spec(spec, n), coefficient_profile(profile, n))
    n_draws = 1_000_000
    _, likelihood, _, tied = _real_rows(plan.draw(np.random.default_rng(SEED + 60), n_draws),
                                        n_draws)
    index, units = _unit_index(n_draws, tied)
    stderr = float(np.std(np.bincount(index, likelihood, units))) * math.sqrt(units) / n_draws
    assert abs(float(np.mean(likelihood)) - 1.0) <= 4.0 * stderr
    assert float(np.max(likelihood)) <= n_draws / (n_draws - 2 * tied) * (1.0 + 1e-12)


def _tilt_log_ratios(fam, u, s):
    """log h_j(s) of the two tilts of the mixture of <X, u> at the saddles the
    plan takes, for the plan's draws s: log cosh(theta_j s) - log M(theta_j)
    for the cube, eta_j V - log M(theta_j) with V = s^2 for the laws of the
    variance mixture (the ball at q = 1 through the Laplace sum on |u_i|),
    M and eta from the tilts' own definitions."""
    orders = np.array(mc._MIXTURE_ORDERS)
    if isinstance(fam, UniformCube):
        c = math.sqrt(3.0) * np.abs(u[u != 0.0])
        theta = mc._cube_saddles(c, orders)
        b = np.multiply.outer(theta, c)
        log_mgf = np.sum(np.log(np.sinh(b) / b), axis=1)
        x = np.multiply.outer(theta, s)
        return np.logaddexp(x, -x) - math.log(2.0) - log_mgf[:, None]
    if isinstance(fam, ProductFamily) or getattr(fam, "q", None) == 1.0:
        rates = fam.rates if isinstance(fam, ProductFamily) else 1.0
        scales, shapes = np.unique(np.abs(u) / rates, return_counts=True)
    else:
        # the Gaussian, and the ball at q = 2 through the BGMN identity
        sigma = float(np.linalg.norm(u)) / (math.sqrt(2.0) if isinstance(fam, UniformBall) else 1.0)
        scales, shapes = np.array([sigma]), np.array([0.5])
    scales, shapes = scales[scales > 0.0], shapes[scales > 0.0].astype(float)
    top = float(scales[-1])
    r2 = (scales / top) ** 2
    x = mc._saddles(r2, shapes, orders)
    log_mgf = -(np.log1p(-np.multiply.outer(x, r2)) @ shapes)
    return np.multiply.outer(x / (2.0 * top * top), s * s) - log_mgf[:, None]


@pytest.mark.parametrize("spec,a", [
    ("exp", (1.0, -0.5, 0.5, 0.25, 0.8)),
    ("exp", (0.0, 1.0, 0.0, 0.0, 0.0)),
    ("gauss", (1.0, -0.5, 0.5, 0.25, 0.8)),
    ("ball:q=2", (1.0, -0.5, 0.5, 0.25, 0.8)),
    ("cube", (1.0, -0.5, 0.5, 0.25, 0.8)),
], ids=["exp", "exp-e2", "gauss", "ball:q=2", "cube"])
def test_mixture_part_ratios_partition_one(spec, a):
    # the balance-heuristic shares of the three parts, alpha_0 e^l,
    # alpha_1 r_1 and alpha_2 r_2 with r_j = h_j e^l, add up to 1 on every
    # row; r_2 and the mixture density come from the tilts' own h_j, in log
    # space; e^l and r_1 are ratios of densities to the mixture, so their
    # means have expectation 1, and so does the mean of the third control
    # e^l s^2 / E s^2 over the plan's draws s, whose E s^2 is ||u||_2^2
    # (half that for <Y, u> of the ball at q = 2)
    fam = family_from_spec(spec, len(a))
    u = np.array(a) / np.max(np.abs(a))
    m = 300_000
    s, likelihood, (_, ratio, second), tied = _real_rows(
        mc._projector(fam, u).draw(np.random.default_rng(SEED + 65), m), m)
    units = m - 2 * tied
    log_alphas = np.log(np.array([units, tied, tied]) / m)
    log_h = _tilt_log_ratios(fam, u, s)
    log_mixture = logsumexp(np.vstack([np.zeros(m), log_h]) + log_alphas[:, None], axis=0)
    shares = (math.exp(log_alphas[0]) * likelihood + math.exp(log_alphas[1]) * ratio
              + np.exp(log_alphas[2] + log_h[1] - log_mixture))
    assert float(np.max(np.abs(shares - 1.0))) <= 1e-12
    mean_square = float(u @ u) / (2.0 if spec == "ball:q=2" else 1.0)
    np.testing.assert_allclose(second, likelihood * s * s / mean_square, rtol=1e-14, atol=0.0)
    index, _ = _unit_index(m, tied)
    for x in (likelihood, ratio, second):
        stderr = float(np.std(np.bincount(index, x, units))) * math.sqrt(units) / m
        assert abs(float(np.mean(x)) - 1.0) <= 4.0 * stderr


@pytest.mark.parametrize("n_samples", [10_005, 10_006, 10_007])
def test_every_draw_is_a_parts_by_units_array(n_samples):
    # the mixture's draw has one column per unit, K = N - 2t of them for
    # t = N // 3, and one row per part; its first K - t units are lone, with
    # s = e^l = r_1 = 0 in their tilt rows, so that exactly N entries are
    # real rows, on each of which the parts' shares add up to 1
    tied = n_samples // 3
    units, lone = n_samples - 2 * tied, n_samples - 3 * tied
    shares = np.array([units, tied, tied]) / n_samples
    real = np.ones((3, units), bool)
    real[1:, :lone] = False
    assert np.count_nonzero(real) == n_samples
    rng = np.random.default_rng(SEED + 67)
    distinct = np.array([1.0, -0.5, 0.25, 0.8])
    for spec, u in (("exp", np.array([1.0, 1.0, 0.5, 0.5])), ("gauss", distinct),
                    ("ball:q=1", distinct), ("cube", distinct)):
        fam = family_from_spec(spec, 4)
        draw = mc._projector(fam, u).draw(rng, n_samples)
        assert all(x.shape == (3, units) for x in draw)
        assert all(np.all(x[~real] == 0.0) for x in draw)
        assert np.all(draw.s[real] != 0.0)
        r_2 = np.exp(_tilt_log_ratios(fam, u, draw.s[real])[1] + np.log(draw.likelihood[real]))
        total = shares[0] * draw.likelihood[real] + shares[1] * draw.ratio[real]
        total += shares[2] * r_2
        assert float(np.max(np.abs(total - 1.0))) <= 1e-12
    # an unweighted draw is one row of N units
    ball = UniformBall.isotropic(4, 3.0)
    for plan in (mc._projector(ball, distinct), mc._twin_projector(ball, distinct)):
        draw = plan.draw(rng, n_samples)
        assert draw.s.shape == (1, n_samples)
        assert draw.likelihood is None and draw.ratio is None and draw.second is None


@pytest.mark.parametrize("spec", ["exp", "ball:q=1", "ball:q=2", "gauss", "cube"])
def test_control_variates_shrink_the_error_bar(spec):
    # over the grid's cells at seeds 0-3, the regression's stderr is in the
    # median at most 0.6 of the self-normalised ratio estimate's on the same
    # draw
    shrink = []
    for n in (4, 16, 64):
        fam = family_from_spec(spec, n)
        for profile in GRID_PROFILES:
            cv = as_coefficients(coefficient_profile(profile, n))
            plan = mc._projector(fam, cv.unit)
            for seed in range(4):
                records = estimate_pnorm(fam, cv.array, GRID_ORDERS, 20_000, seed)
                ratio = _scipy_pnorm_records(plan, cv.scale, GRID_ORDERS, _real_rows(
                    _one_draw(plan, 20_000, seed, mc._TAG_PNORM), 20_000))
                shrink += [rec.stderr / ref[1] for rec, ref in zip(records, ratio)]
    assert float(np.median(shrink)) <= 0.6, float(np.median(shrink))


def _fit_of(draw, n_samples, controls=3):
    """``mc._fit`` of the unit sums of the first ``controls`` controls of a
    weighted draw of n samples, after a scratch row (row 0)."""
    sums = [np.zeros(draw.s.shape[1])] + [x.sum(axis=0) for x in draw[1:1 + controls]]
    return mc._fit(np.array(sums), n_samples)


def _assert_the_fit_is_refused(cv, plan, seed):
    """The fit of the plan's draw is refused, and the engine keeps the
    self-normalised ratio estimate at every order, a weighted power mean,
    nondecreasing in p."""
    draw = _one_draw(plan, ODD_SAMPLES, seed, mc._TAG_PNORM)
    assert _fit_of(draw, ODD_SAMPLES) is None
    records = mc._pnorm_engine(plan, cv, np.array(GRID_ORDERS), ODD_SAMPLES, seed,
                               mc._TAG_PNORM)
    _assert_matches_scipy(records, _scipy_pnorm_records(plan, cv.scale, GRID_ORDERS,
                                                        _real_rows(draw, ODD_SAMPLES)))
    values = [rec.value for rec in records]
    assert values == sorted(values)


def test_a_negative_unit_weight_keeps_the_ratio_estimate():
    # r_1 + 1 has mean 2, not 1: the regression on it puts many unit
    # weights below 0
    cv = as_coefficients((1.0, -0.5, 0.25, 2.0))
    plan = mc._projector(GaussianStd(4), cv.unit)

    def biased(rng, n):
        draw = plan.draw(rng, n)
        # r_1 + 1 on the real rows; the lone units' tilt rows stay 0
        draw.ratio[...] += 1.0
        draw.ratio[1:, :draw.s.shape[1] - n // 3] = 0.0
        return draw

    _assert_the_fit_is_refused(cv, plan._replace(draw=biased), SEED + 66)


def test_a_duplicated_control_keeps_the_ratio_estimate():
    # a third control that repeats the first adds no direction to the fit:
    # projected on it, it keeps a rounding-noise share of its norm, below
    # _RANK, and the fit is refused
    cv = as_coefficients((1.0, -0.5, 0.25, 2.0))
    plan = mc._projector(GaussianStd(4), cv.unit)

    def duplicated(rng, n):
        draw = plan.draw(rng, n)
        return draw._replace(second=draw.likelihood.copy())

    _assert_the_fit_is_refused(cv, plan._replace(draw=duplicated), SEED + 67)


@pytest.mark.parametrize("controls", [0, 1, 2, 3])
def test_the_fit_basis_is_orthonormal_and_sums_to_zero(controls):
    # on the flat exp row at n = 16, whose controls are closely correlated,
    # the rows of Q of the first J controls are orthonormal and sum to 0,
    # and the unit weights omega_u = 1 - h . q_u sum to K and weight the
    # unit sums of every control to N
    n = 16
    cv = as_coefficients(coefficient_profile("flat", n))
    draw = _one_draw(mc._projector(family_from_spec("exp", n), cv.unit), 20_000, 0,
                     mc._TAG_PNORM)
    units = draw.s.shape[1]
    sums = np.array([x.sum(axis=0) for x in draw[1:1 + controls]]).reshape(controls, units)
    fit = _fit_of(draw, 20_000, controls)
    q = fit.basis
    assert q.shape == (controls, units) and len(fit.slopes) == controls
    np.testing.assert_allclose(np.einsum("ij,kj->ik", q, q), np.eye(controls), rtol=0.0,
                               atol=1e-14)
    assert np.all(np.abs(q.sum(axis=1)) <= 1e-14)
    omega = 1.0 - np.einsum("i,ij->j", np.array(fit.slopes), q)
    assert float(np.sum(omega)) == pytest.approx(units, rel=1e-13)
    np.testing.assert_allclose(sums @ omega, 20_000.0, rtol=1e-12, atol=0.0)


class _FarDraws:
    """A generator whose every Gamma variate is 10^6: variances far beyond
    any double's exponential.  Uniforms are ``uniform``, by default the
    largest double below 1, whose inversion -log1p(-U) = 53 log 2 is the
    farthest exponential that the mixture's inversion can give, and which
    puts every cube coordinate of every part at its upper corner."""

    def __init__(self, uniform=1.0 - 2.0 ** -53):
        self._uniform = uniform

    def standard_gamma(self, shape, out):
        out[...] = 1e6
        return out

    def random(self, out):
        out[...] = self._uniform
        return out


@pytest.mark.parametrize("spec,a,uniform,limit", [
    # distinct weights draw their exponentials by inversion, which gives at
    # most 53 log 2: V stays moderate, and l is about -31 for e_1 and -94
    # for five weights there; tied weights draw Gamma variates, which can be
    # far, where l is below -1e5 and every weight e^l underflows to 0
    # (limit None)
    ("exp", (1.0,), 1.0 - 2.0 ** -53, -20.0),
    ("exp", (1.0, 1.0, 0.5, 0.5, 0.5), 1.0 - 2.0 ** -53, None),
    ("exp", tuple(np.linspace(1.0, 0.5, 5)), 1.0 - 2.0 ** -53, -50.0),
    # uniforms at either end put every row of the cube at a corner, the
    # largest |S| = sqrt(3) sum |u_i|, where l is about -11.5
    ("cube", tuple(np.linspace(1.0, 0.5, 5)), 1.0 - 2.0 ** -53, -10.0),
    ("cube", tuple(np.linspace(1.0, 0.5, 5)), 0.0, -10.0),
], ids=["1", "5", "5-inversion", "cube-1", "cube-0"])
def test_mixture_log_weights_do_not_overflow(spec, a, uniform, limit):
    plan = mc._projector(family_from_spec(spec, len(a)), np.array(a))
    # 600 samples leave no lone unit, 602 two
    for n_samples in (600, 602):
        draw = plan.draw(_FarDraws(uniform), n_samples)
        assert all(np.all(np.isfinite(x)) for x in draw)
        _, likelihood, _, _ = _real_rows(draw, n_samples)
        # the weights e^l come in linear space: every l is finite where it
        # is above -745, and below it e^l underflows to 0
        if limit is None:
            assert np.all(likelihood == 0.0)
        else:
            assert np.all(likelihood > 0.0)
            assert math.log(float(np.max(likelihood))) < limit
            # the only zeros of the draw are the lone units' tilt entries
            lone = np.zeros(draw.s.shape, bool)
            lone[1:, :draw.s.shape[1] - n_samples // 3] = True
            assert all(np.array_equal(x == 0.0, lone) for x in draw)


def test_cube_mixture_takes_a_subnormal_coefficient():
    # beside 256 flat coefficients the saddle of p = 4 is at theta = 0.125,
    # which rounds theta c_i of the subnormal c_i = sqrt(3) 5e-324 to 0
    a = np.append(np.ones(256), 5e-324)
    records = estimate_pnorm(UniformCube(a.size), a, (2.0, 32.0), MIN_SAMPLES, SEED)
    assert all(math.isfinite(rec.value) and rec.ess > 0.01 * MIN_SAMPLES for rec in records)


# ESS / N of the Gaussian mixture tends to (K / N) (E W(p))^2 / E W(p)^2
# over its K units, 0.2949 at p = 2 and 0.2706 at p = 4 at N = 10^5 (plain
# draws of |g|^p: 1/3 and 9/105).  Its ratio to that limit has a standard
# deviation sigma of 0.16% at p = 2 and 0.22% at p = 4 over 200 seeds
# (1000 to 1199): each seed must fall within five sigma of 1 and the mean
# of the eight seeds within five of its own
@pytest.mark.parametrize("p,sigma", [(2.0, 0.0016), (4.0, 0.0022)])
def test_gaussian_ess_tends_to_its_known_share(p, sigma):
    n_samples = 100_000
    units = n_samples - 2 * (n_samples // 3)
    limit = units / n_samples * _gaussian_unit_mean(lambda w, *_: w(p), n_samples) ** 2 / (
        _gaussian_unit_mean(lambda w, *_: w(p) ** 2, n_samples))
    ratios = []
    for seed in range(8):
        rec = estimate_pnorm(GaussianStd(3), (1.0, -0.5, 0.25), p, n_samples, seed)
        ratios.append(rec.ess / n_samples / limit)
    assert all(abs(r - 1.0) <= 5.0 * sigma for r in ratios), ratios
    assert abs(float(np.mean(ratios)) - 1.0) <= 5.0 * sigma / math.sqrt(len(ratios))


@pytest.mark.parametrize("shape", [(1,), (7,), (3, 5), (1001, 3)])
def test_random_signs_flip_only_the_sign_bit(shape):
    rng = np.random.default_rng(SEED + 42)
    mags = rng.standard_exponential(shape)
    x = mc._random_signs(mags.copy(), rng)
    assert x.shape == shape
    np.testing.assert_array_equal(np.abs(x).view(np.uint64), mags.view(np.uint64))
    draws = mc._random_signs(np.ones(100_003), rng)
    share = float(np.mean(draws < 0.0))
    assert abs(share - 0.5) <= 4.0 * math.sqrt(0.25 / draws.size)


@pytest.mark.parametrize("spec", ["exp", "ball:q=1", "ball:q=2", "cube", "gauss"])
def test_scaling_the_coefficients_by_a_power_of_two_scales_every_record(spec):
    fam = family_from_spec(spec, 4)
    a = np.array([3.0, -1.0, 0.5, 0.25]) * 2.0 ** 60
    factor = 2.0 ** -1070
    records = estimate_pnorm(fam, a, GRID_ORDERS, MIN_SAMPLES, SEED + 43)
    scaled = estimate_pnorm(fam, a * factor, GRID_ORDERS, MIN_SAMPLES, SEED + 43)
    for rec, small in zip(records, scaled):
        assert small.value == pytest.approx(rec.value * factor, rel=1e-14, abs=0.0)
        assert small.stderr == pytest.approx(rec.stderr * factor, rel=1e-14, abs=0.0)


# -- coordinate fourth moments ------------------------------------------------------

def test_fourth_moment_known_values():
    rec = estimate_fourth_moment(UniformCube(2), 1, 100_000, SEED + 5)
    assert rec.value == pytest.approx(1.8, abs=4.0 * rec.stderr)
    rec = estimate_fourth_moment(GaussianStd(2), 0, 100_000, SEED + 6)
    assert rec.value == pytest.approx(3.0, abs=4.0 * rec.stderr)
    rec = estimate_fourth_moment(product_exponential(1), 0, 200_000, SEED + 7)
    assert rec.value == pytest.approx(6.0, abs=4.0 * rec.stderr)
    for q in (1.0, 2.0):
        ball = UniformBall.isotropic(5, q)
        rec = estimate_fourth_moment(ball, 2, 200_000, SEED + 8)
        assert rec.value == pytest.approx(_beta_marginal_fourth(ball), abs=4.0 * rec.stderr)


@pytest.mark.parametrize("call", [
    lambda: estimate_pnorm(product_exponential(2), (1.0, 1.0), 4.0, 20_000.0, 0),
    lambda: estimate_pnorm(product_exponential(2), (1.0, 1.0), 4.0, True, 0),
    lambda: estimate_fourth_moment(UniformCube(2), 0, 20_000.0, 0),
    lambda: estimate_fourth_moment(UniformCube(2), 1.0, 20_000, 0),
    lambda: estimate_fourth_moment(UniformCube(2), True, 20_000, 0),
    lambda: estimate_joint_tail(product_exponential(2), (0.1, 0.1), 20_000.0, 0),
    lambda: dependent_vs_independent(UniformBall.isotropic(3, 2.0), (1.0, 1.0, 1.0), 4.0,
                                     20_000.0, 0),
], ids=["pnorm-float-samples", "pnorm-bool-samples", "moment4-float-samples",
        "moment4-float-coordinate", "moment4-bool-coordinate", "joint-float-samples",
        "dep-indep-float-samples"])
def test_estimators_reject_non_integer_counts_before_sampling(monkeypatch, call):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before validating the integer arguments")

    monkeypatch.setattr(np.random, "default_rng", no_sampling)
    with pytest.raises(InvalidArgumentError, match="integer"):
        call()


def test_fourth_moment_coordinate_bounds():
    with pytest.raises(InvalidArgumentError):
        estimate_fourth_moment(UniformCube(2), 2, 20_000, 0)
    with pytest.raises(InvalidArgumentError):
        estimate_fourth_moment(UniformCube(2), -1, 20_000, 0)


# -- joint tails ---------------------------------------------------------------------

def test_joint_tail_exponential_factorizes():
    fam = product_exponential(2)
    t = np.array([0.7, 1.1])
    rec = estimate_joint_tail(fam, t, 400_000, SEED + 8)
    expected = math.exp(-math.sqrt(2.0) * float(np.sum(t)))
    assert rec.value == pytest.approx(expected, abs=4.0 * rec.stderr)


def test_joint_tail_ess_is_its_hit_count():
    fam = product_exponential(3)
    rec = estimate_joint_tail(fam, (0.4, 0.2, 0.5), 20_000, SEED + 8)
    hits = round(rec.value * rec.n_samples)
    assert rec.value * rec.n_samples == pytest.approx(hits, abs=1e-6)
    assert rec.ess == hits and rec.top_share == 1.0 / hits


def test_joint_tail_crosspolytope_corner_oracle():
    # for n = 2, q = 1 the corner mass is ((r - t1 - t2) / r)^2
    ball = UniformBall.isotropic(2, 1.0)
    t = np.array([0.5, 0.8])
    rec = estimate_joint_tail(ball, t, 400_000, SEED + 9)
    expected = ((ball.r - t.sum()) / ball.r) ** 2
    assert rec.value == pytest.approx(expected, abs=4.0 * rec.stderr)


def test_joint_tail_guards():
    fam = product_exponential(2)
    with pytest.raises(OutOfRangeError):
        estimate_joint_tail(fam, (40.0, 40.0), 20_000, 0)  # empirically zero
    with pytest.raises(OutOfRangeError):
        estimate_joint_tail(product_exponential(9), np.zeros(9), 20_000, 0)
    with pytest.raises(InvalidArgumentError):
        estimate_joint_tail(fam, (-1.0, 0.0), 20_000, 0)
    with pytest.raises(InvalidArgumentError):
        estimate_joint_tail(fam, (1.0,), 20_000, 0)


# -- dependent vs independent twin ---------------------------------------------------

@pytest.mark.parametrize("q", [2.0, 1e3])
def test_dependent_twin_matches_on_a_single_coordinate(q):
    # with a = e_1 both runs estimate the same scalar law
    ball = UniformBall.isotropic(3, q)
    dep, ind = dependent_vs_independent(ball, (1.0, 0.0, 0.0), 4.0, 100_000, SEED + 10)
    gap = abs(dep.value - ind.value)
    assert gap <= 4.0 * math.hypot(dep.stderr, ind.stderr)


def test_dependent_twin_loses_on_flat_sums():
    ball = UniformBall.isotropic(3, 1.0)
    dep, ind = dependent_vs_independent(ball, (1.0, 1.0, 1.0), 4.0, 200_000, SEED + 11)
    assert dep.value < ind.value


def test_dependent_twin_on_the_disk_meets_the_closed_fourth_moments():
    # E<X, (1, 1)>^4 is 8 on the isotropic disk and 10 on its independent
    # twin (acceptance._disk_fourth_moments); the delta method carries the
    # 4-norm's error bar to its fourth power
    disk = UniformBall.isotropic(2, 2.0)
    dep, ind = dependent_vs_independent(disk, (1.0, 1.0), 4.0, 200_000, SEED + 70)
    for rec, exact in ((dep, 8.0), (ind, 10.0)):
        assert rec.value ** 4 == pytest.approx(exact, abs=16.0 * rec.value ** 3 * rec.stderr)


@pytest.mark.parametrize("n,q", [(3, 1.0), (4, 1.5), (5, 3.0), (6, 1e3), (6, 1e6),
                                 (2, 1.0), (16, 1.0), (6, 2.0)])
def test_independent_twin_has_the_beta_marginal_moments(n, q):
    ball = UniformBall.isotropic(n, q)
    x = mc._sample_ball_twin(ball, np.random.default_rng(SEED + 12), 200_000, n).ravel()
    # the Gamma construction does not underflow at large q
    assert np.all(x != 0.0)
    # |X*_i| / r = B^{1/q} with B ~ Beta(1/q, (n-1)/q + 1)
    for power, exact in ((2, 1.0), (4, _beta_marginal_fourth(ball))):
        values = x ** power
        stderr = float(np.std(values)) / math.sqrt(values.size)
        assert float(np.mean(values)) == pytest.approx(exact, abs=4.0 * stderr)


def test_dependent_vs_independent_order_vector_matches_scalar_calls():
    ball = UniformBall.isotropic(3, 1.5)
    a = (1.0, 0.6, 0.3)
    orders = (3.0, 4.0, 6.0, 12.0)
    deps, indeps = dependent_vs_independent(ball, a, orders, 20_000, SEED + 13)
    assert len(deps) == len(indeps) == len(orders)
    for p, dep, ind in zip(orders, deps, indeps):
        assert (dep, ind) == dependent_vs_independent(ball, a, p, 20_000, SEED + 13)


@pytest.mark.parametrize("orders,error", [
    ((3.0, 4.0, MAX_MOMENT_ORDER + 1.0), OutOfRangeError),
    ((4.0, 2.0), InvalidArgumentError),
    ((4.0, math.nan), InvalidArgumentError),
    ((), InvalidArgumentError),
])
def test_dependent_vs_independent_orders_validated_before_sampling(monkeypatch, orders,
                                                                    error):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before validating the orders")

    monkeypatch.setattr(mc, "_projector", no_sampling)
    monkeypatch.setattr(mc, "_twin_projector", no_sampling)
    with pytest.raises(error):
        dependent_vs_independent(UniformBall.isotropic(3, 2.0), (1.0, 1.0, 1.0), orders,
                                 20_000, 0)


def test_dependent_vs_independent_refuses_a_zero_vector_like_estimate_pnorm():
    ball = UniformBall.isotropic(3, 2.0)
    messages = []
    for call in (estimate_pnorm, dependent_vs_independent):
        with pytest.raises(InvalidArgumentError) as info:
            call(ball, (0.0, -0.0, 0.0), 4.0, 20_000, 0)
        messages.append(str(info.value))
    assert messages == ["coefficient vector must be nonzero"] * 2


def test_dependent_vs_independent_validation():
    ball = UniformBall.isotropic(3, 2.0)
    with pytest.raises(InvalidArgumentError):
        dependent_vs_independent(UniformCube(3), (1.0, 1.0, 1.0), 4.0, 20_000, 0)
    with pytest.raises(InvalidArgumentError):
        dependent_vs_independent(ball, (1.0, 1.0, 1.0), 2.0, 20_000, 0)  # p < 3
    with pytest.raises(OutOfRangeError):
        dependent_vs_independent(ball, (1.0, 1.0, 1.0), 33.0, 20_000, 0)
    with pytest.raises(InvalidArgumentError):
        dependent_vs_independent(UniformBall.isotropic(1, 2.0), (1.0,), 4.0, 20_000, 0)


# -- exact rademacher sums ------------------------------------------------------------

def test_rademacher_exact_small_cases():
    assert rademacher_pnorm_exact((1.0, 1.0, 1.0), 3.0) == pytest.approx(
        (60.0 / 8.0) ** (1.0 / 3.0), rel=1e-13)
    assert rademacher_pnorm_exact((1.0, 1.0), 2.0) == pytest.approx(
        math.sqrt(2.0), rel=1e-13)
    assert rademacher_pnorm_exact((5.0,), 7.0) == pytest.approx(5.0)
    assert rademacher_pnorm_exact((0.0, 0.0), 4.0) == 0.0


def test_rademacher_exact_p2_is_l2():
    rng = np.random.default_rng(12)
    for _ in range(20):
        a = rng.standard_normal(int(rng.integers(1, 13)))
        assert rademacher_pnorm_exact(a, 2.0) == pytest.approx(
            float(np.sqrt(np.sum(a * a))), rel=1e-12)


def test_rademacher_exact_does_not_overflow_at_huge_coefficients():
    with np.errstate(all="raise"):
        value = rademacher_pnorm_exact([1e308, 1e308], 2.0)
    assert math.isfinite(value)
    assert value == pytest.approx(math.sqrt(2.0) * 1e308, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("shift", [600, -600])
def test_rademacher_exact_scales_exactly_by_powers_of_two(shift):
    rng = np.random.default_rng(13)
    for _ in range(10):
        a = rng.standard_normal(int(rng.integers(1, 13)))
        for p in (2.0, 3.5, 16.0):
            assert rademacher_pnorm_exact(np.ldexp(a, shift), p) == math.ldexp(
                rademacher_pnorm_exact(a, p), shift)


def test_rademacher_exact_guards():
    with pytest.raises(OutOfRangeError):
        rademacher_pnorm_exact(np.ones(21), 2.0)
    with pytest.raises(InvalidArgumentError):
        rademacher_pnorm_exact((1.0,), 0.5)


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0])
def test_ball_parts_at_one_coordinate_draw_the_einsum_bits(q):
    # the one-coordinate marginal (the independent twin's draw) must give
    # the bits of the einsum row sums of the general k path
    ball = UniformBall.isotropic(6, q)
    m = 313
    numerator, denom = mc._ball_parts(ball, np.random.default_rng(SEED + 40), m, 1)
    rng = np.random.default_rng(SEED + 40)
    if q == 2.0:
        g = rng.standard_normal(m).reshape(m, 1)
        h = rng.standard_gamma((ball.n - 1) / 2.0 + 1.0, size=m)
        want_num, want_denom = g, np.sqrt(np.einsum("ij,ij->i", g, g) + 2.0 * h)
    else:
        mags, powers = mc._gamma_root(q, rng, *np.empty((3, m, 1)))
        h = rng.standard_gamma((ball.n - 1) / q + 1.0, size=m)
        want_denom = (np.einsum("ij->i", powers) + h) ** (1.0 / q)
        want_num = mc._random_signs(mags, rng)
    assert np.array_equal(numerator.view(np.uint64), want_num.view(np.uint64))
    assert np.array_equal(denom.view(np.uint64), want_denom.view(np.uint64))


# -- one seed rule -------------------------------------------------------------------

_RULE_BALL = UniformBall.isotropic(3, 2.0)
SEEDED_CALLS = {
    "estimate_pnorm": lambda seed: estimate_pnorm(
        _RULE_BALL, (1.0, 0.5, -0.2), (2.0, 8.0), MIN_SAMPLES, seed),
    "estimate_fourth_moment": lambda seed: estimate_fourth_moment(
        _RULE_BALL, 1, MIN_SAMPLES, seed),
    "estimate_joint_tail": lambda seed: estimate_joint_tail(
        _RULE_BALL, (0.1, 0.2, 0.1), MIN_SAMPLES, seed),
    "dependent_vs_independent": lambda seed: dependent_vs_independent(
        _RULE_BALL, (1.0, 0.5, -0.2), (3.0, 8.0), MIN_SAMPLES, seed),
    "ExperimentConfig": lambda seed: ExperimentConfig(
        families=("exp",), profiles=("flat",), n_list=(3,), p_grid=(2.0,),
        n_samples=MIN_SAMPLES, seed=seed),
}


@pytest.mark.parametrize("name", list(SEEDED_CALLS))
@pytest.mark.parametrize("seed", [1.5, True, "3"], ids=["float", "bool", "str"])
def test_a_seed_that_is_not_an_integer_is_refused(name, seed):
    with pytest.raises(InvalidArgumentError, match="seed must be"):
        SEEDED_CALLS[name](seed)


@pytest.mark.parametrize("name", list(SEEDED_CALLS))
@pytest.mark.parametrize("seed", [np.int64(0), np.int64(-3), np.uint64(2 ** 64 - 1)],
                         ids=["zero", "negative", "top"])
def test_a_numpy_integer_seed_is_its_int(name, seed):
    assert SEEDED_CALLS[name](seed) == SEEDED_CALLS[name](int(seed))
