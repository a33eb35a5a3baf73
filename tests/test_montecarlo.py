import math

import numpy as np
import pytest
from scipy.special import betaln, logsumexp

import lcmoments.montecarlo as mc
from lcmoments.errors import InvalidArgumentError, OutOfRangeError
from lcmoments.families import (
    GaussianStd,
    ProductFamily,
    UniformBall,
    UniformCube,
    family_from_spec,
    product_exponential,
)
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

    monkeypatch.setattr(mc, "_project", no_sampling)
    with pytest.raises(error):
        estimate_pnorm(product_exponential(2), (1.0, 1.0), orders, 20_000, 0)


# -- the linear-space reduction ---------------------------------------------------------

def _scipy_pnorm_pairs(sampler, a, p, n_samples, seed, tag):
    """(value, stderr) per order by the earlier per-batch, per-order scipy loop."""
    ps = np.atleast_1d(np.asarray(p, dtype=float))
    a = np.asarray(a, dtype=float)
    counts = mc._batch_counts(n_samples)
    rng = np.random.default_rng(mc._child_seed(seed, tag))
    stats = []
    for m in counts:
        x = sampler(rng, m)
        with np.errstate(divide="ignore"):
            log_abs = np.log(np.abs(x @ a))
        stats.append(logsumexp(ps[:, None] * log_abs[None, :], axis=1) - math.log(m))
    weights = np.asarray(counts, dtype=float)
    pairs = []
    for row, order in zip(np.stack(stats, axis=1), ps):
        log_moment = logsumexp(row + np.log(weights)) - math.log(n_samples)
        value = math.exp(log_moment / float(order))
        u = np.exp(row - np.max(row))
        mean_u = float(np.sum(u * weights) / n_samples)
        sd_u = float(np.std(u, ddof=1))
        pairs.append((value, value * sd_u / (math.sqrt(len(row)) * mean_u) / float(order)))
    return pairs


def _assert_matches_scipy(records, expected):
    """Value and stderr of every record within 1e-13 relative of the reference."""
    records = records if isinstance(records, tuple) else (records,)
    got = [(rec.value, rec.stderr) for rec in records]
    np.testing.assert_allclose(got, expected, rtol=1e-13, atol=0.0)


# 10_007 samples split into 23 batches of 157 and 41 of 156: two batch sizes
ODD_SAMPLES = 10_007


@pytest.mark.parametrize("spec", GRID_FAMILY_SPECS + ("gauss", "product:pow:alpha=2",
                                                      "ball:q=3"))
def test_estimate_pnorm_matches_the_per_batch_scipy_reduction(spec):
    fam = family_from_spec(spec, 5)
    a = (1.0, -0.5, 0.25, 0.0, 3.0)

    def draw(rng, m):
        # the engine's draws of <X, a / max|a_i|>, as one column
        return mc._project(fam, np.asarray(a) / 3.0, rng, m)[:, None]

    for p, seed in ((GRID_ORDERS, SEED + 31), (5.5, SEED + 32)):
        expected = _scipy_pnorm_pairs(draw, (3.0,), p, ODD_SAMPLES, seed, mc._TAG_PNORM)
        _assert_matches_scipy(estimate_pnorm(fam, a, p, ODD_SAMPLES, seed), expected)
    expected = _scipy_pnorm_pairs(draw, (3.0,), 32.0, 20_000, SEED + 33, mc._TAG_PNORM)
    _assert_matches_scipy(estimate_pnorm(fam, a, 32.0, 20_000, SEED + 33), expected)


@pytest.mark.parametrize("q", [1.0, 2.0, 3.0])
def test_dependent_vs_independent_matches_the_per_batch_scipy_reduction(q):
    ball = UniformBall.isotropic(4, q)
    a = (1.0, 0.6, -0.3, 0.1)
    for p in ((3.0, 4.5, 8.0, 32.0), 4.0):
        deps, indeps = dependent_vs_independent(ball, a, p, ODD_SAMPLES, SEED + 34)
        _assert_matches_scipy(deps, _scipy_pnorm_pairs(
            lambda rng, m: mc._project(ball, np.asarray(a), rng, m)[:, None], (1.0,), p,
            ODD_SAMPLES, SEED + 34, mc._TAG_NA_DEPENDENT))
        _assert_matches_scipy(indeps, _scipy_pnorm_pairs(
            lambda rng, m: mc._sample_ball_twin(ball, rng, m), a, p, ODD_SAMPLES,
            SEED + 34, mc._TAG_NA_INDEPENDENT))


def _one_entry_sampler(value, batch):
    """Projected Gaussian draws with ``value`` at one entry of the given batch."""
    order = iter(range(mc._BATCHES))

    def draw(u, rng, m):
        x = rng.standard_normal((m, 3))
        if next(order) == batch:
            x[m // 2, 0] = value
        return x @ u

    return draw


def test_pnorm_record_of_zero_and_overflowed_projections():
    a = np.array([1.0, 0.5, 2.0])
    orders = np.array([2.0, 4.0, 32.0])
    records = mc._pnorm_engine(lambda u, rng, m: np.zeros(m), a, orders, ODD_SAMPLES,
                               5, mc._TAG_PNORM)
    assert [(rec.value, rec.stderr) for rec in records] == [(0.0, 0.0)] * len(orders)
    for bad in (np.inf, np.nan):
        with pytest.raises(OutOfRangeError, match="overflows"):
            mc._pnorm_engine(_one_entry_sampler(bad, 40), a, orders, ODD_SAMPLES, 5,
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
        got = mc._sample_product(fam, np.random.default_rng(SEED + 35), 313)
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
    a = np.linspace(1.0, 0.2, n) * np.where(np.arange(n) % 3 == 1, -1.0, 1.0)
    m = 200_000
    projected = mc._project(fam, a, np.random.default_rng(SEED + 40), m)
    full = sample(fam, np.random.default_rng(SEED + 41), m) @ a
    assert projected.shape == (m,)
    for power in (2, 4):
        x, y = projected ** power, full ** power
        sigma = math.sqrt((np.var(x) + np.var(y)) / m)
        assert abs(float(np.mean(x) - np.mean(y))) <= 5.0 * sigma


class _VectorDrawsOnly:
    """A generator that fails on any draw of two or more dimensions."""

    def __init__(self, rng):
        self._rng = rng

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def checked(*args, **kwargs):
            out = method(*args, **kwargs)
            assert np.ndim(out) < 2, f"{name} drew an array of shape {np.shape(out)}"
            return out

        return checked


@pytest.mark.parametrize("spec", ["ball:q=2", "gauss"])
def test_rotation_invariant_projections_draw_no_matrix(monkeypatch, spec):
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: _VectorDrawsOnly(default_rng(seed)))
    fam = family_from_spec(spec, 64)
    records = estimate_pnorm(fam, np.linspace(1.0, 2.0, 64), GRID_ORDERS, 20_000, SEED)
    assert all(rec.value > 0.0 for rec in records)


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

    monkeypatch.setattr(mc, "_batch_stats", no_sampling)
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


@pytest.mark.parametrize("n,q", [(3, 1.0), (4, 1.5), (5, 3.0), (6, 1e3), (6, 1e6),
                                 (2, 1.0), (16, 1.0), (6, 2.0)])
def test_independent_twin_has_the_beta_marginal_moments(n, q):
    ball = UniformBall.isotropic(n, q)
    x = mc._sample_ball_twin(ball, np.random.default_rng(SEED + 12), 200_000).ravel()
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

    monkeypatch.setattr(mc, "_project", no_sampling)
    monkeypatch.setattr(mc, "_sample_ball_twin", no_sampling)
    with pytest.raises(error):
        dependent_vs_independent(UniformBall.isotropic(3, 2.0), (1.0, 1.0, 1.0), orders,
                                 20_000, 0)


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


def test_rademacher_exact_guards():
    with pytest.raises(OutOfRangeError):
        rademacher_pnorm_exact(np.ones(21), 2.0)
    with pytest.raises(InvalidArgumentError):
        rademacher_pnorm_exact((1.0,), 0.5)


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0])
def test_ball_parts_at_one_coordinate_draw_the_einsum_bits(q):
    # the k = 1 row sum is the column itself; it must equal the einsum form
    # of the general k path bit for bit
    ball = UniformBall.isotropic(6, q)
    m = 313
    numerator, denom = mc._ball_parts(ball, np.random.default_rng(SEED + 40), m, 1)
    rng = np.random.default_rng(SEED + 40)
    if q == 2.0:
        g = rng.standard_normal(m).reshape(m, 1)
        h = rng.standard_gamma((ball.n - 1) / 2.0 + 1.0, size=m)
        want_num, want_denom = g, np.sqrt(np.einsum("ij,ij->i", g, g) + 2.0 * h)
    else:
        mags, powers = mc._gamma_root(q, rng, (m, 1))
        h = rng.standard_gamma((ball.n - 1) / q + 1.0, size=m)
        want_denom = (np.einsum("ij->i", powers) + h) ** (1.0 / q)
        want_num = mc._random_signs(mags, rng)
    assert np.array_equal(numerator.view(np.uint64), want_num.view(np.uint64))
    assert np.array_equal(denom.view(np.uint64), want_denom.view(np.uint64))
