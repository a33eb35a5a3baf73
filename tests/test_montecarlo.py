import math

import numpy as np
import pytest
from scipy.special import betaln, logsumexp
from scipy.stats import sem

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

    monkeypatch.setattr(mc, "_projector", no_sampling)
    with pytest.raises(error):
        estimate_pnorm(product_exponential(2), (1.0, 1.0), orders, 20_000, 0)


# -- the linear-space reduction ---------------------------------------------------------

def _scipy_pnorm_records(plan, scale, p, n_samples, seed, tag):
    """(value, stderr, ess, top_share) per order by scipy over all of the
    engine's chunks of the draw plan ``(draw, width)`` of <X, a / scale>: one
    logsumexp for the value, ``scipy.stats.sem`` of the shifted |S|^p
    through the delta method for the stderr, and the sums of the shifted
    |S|^p and of their squares for the ESS and the top share."""
    draw, width = plan
    ps = np.atleast_1d(np.asarray(p, dtype=float))
    rng = np.random.default_rng(mc._child_seed(seed, tag))
    drawn = np.concatenate([draw(rng, m) for m in mc._chunk_rows(n_samples, width)])
    with np.errstate(divide="ignore"):
        log_abs = np.log(np.abs(drawn * scale))
    records = []
    for order in map(float, ps):
        value = math.exp((logsumexp(order * log_abs) - math.log(n_samples)) / order)
        u = np.exp(order * (log_abs - np.max(log_abs)))
        total = float(np.sum(u))
        records.append((value, value * sem(u) / (float(np.mean(u)) * order),
                        total ** 2 / float(np.sum(u * u)), float(np.max(u)) / total))
    return records


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

    for p, seed in ((GRID_ORDERS, SEED + 31), (5.5, SEED + 32)):
        expected = _scipy_pnorm_records(plan, 3.0, p, ODD_SAMPLES, seed, mc._TAG_PNORM)
        _assert_matches_scipy(estimate_pnorm(fam, a, p, ODD_SAMPLES, seed), expected)
    expected = _scipy_pnorm_records(plan, 3.0, 32.0, 20_000, SEED + 33, mc._TAG_PNORM)
    _assert_matches_scipy(estimate_pnorm(fam, a, 32.0, 20_000, SEED + 33), expected)


@pytest.mark.parametrize("q", [1.0, 2.0, 3.0])
def test_dependent_vs_independent_matches_the_scipy_reduction(q):
    ball = UniformBall.isotropic(4, q)
    a = (1.0, 0.6, -0.3, 0.1)
    for p in ((3.0, 4.5, 8.0, 32.0), 4.0):
        deps, indeps = dependent_vs_independent(ball, a, p, ODD_SAMPLES, SEED + 34)
        _assert_matches_scipy(deps, _scipy_pnorm_records(
            mc._projector(ball, np.asarray(a)), 1.0, p, ODD_SAMPLES, SEED + 34,
            mc._TAG_NA_DEPENDENT))
        _assert_matches_scipy(indeps, _scipy_pnorm_records(
            mc._twin_projector(ball, np.asarray(a)), 1.0, p, ODD_SAMPLES, SEED + 34,
            mc._TAG_NA_INDEPENDENT))


@pytest.mark.parametrize("seed", range(5))
def test_gaussian_second_moment_stderr_matches_its_known_value(seed):
    # S = <g, a> has E S^2 = ||a||^2 and Var S^2 = 2 ||a||^4, so the delta
    # method gives the stderr ||a|| / sqrt(2N) of ||S||_2; the iid estimate
    # of it has about 0.6% relative noise at N = 10^5
    a = np.array([1.0, -0.5, 0.25, 2.0])
    n_samples = 100_000
    rec = estimate_pnorm(GaussianStd(4), a, 2.0, n_samples, SEED + 40 + seed)
    assert rec.stderr == pytest.approx(np.linalg.norm(a) / math.sqrt(2 * n_samples), rel=0.03)


@pytest.mark.parametrize("spec", ["gauss", "cube"])
def test_gauss_and_small_cube_records_do_not_depend_on_the_chunk_budget(monkeypatch, spec):
    # the draw concatenates exactly and the reduction runs over the joined
    # samples, so the chunk size cannot move a record (at n = 5 the cube's
    # BLAS matvec rounds a row alike in every call of two or more rows; at
    # n >= 8 it rounds the last m mod 4 rows of a call differently); the
    # budget 5 * 97 gives chunks of 97 rows, which do not divide ODD_SAMPLES
    fam = family_from_spec(spec, 5)
    a = (1.0, -0.5, 0.25, 0.0, 3.0)
    records = []
    for budget in (2 ** 15, 2 ** 10, 5 * 97):
        monkeypatch.setattr(mc, "_CHUNK_ENTRIES", budget)
        records.append(estimate_pnorm(fam, a, GRID_ORDERS, ODD_SAMPLES, SEED + 36))
    assert records[1] == records[0] and records[2] == records[0]


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
    builds, its width and the row count of each of its draws."""
    plans = []
    inner = getattr(mc, name)

    def wrapped(*args):
        draw, width = inner(*args)
        sizes = []
        plans.append((width, sizes))

        def logged(rng, m):
            sizes.append(m)
            return draw(rng, m)

        return logged, width

    monkeypatch.setattr(mc, name, wrapped)
    return plans


def _assert_chunks_tile(sizes, n_samples, width):
    rows = mc._CHUNK_ENTRIES // width
    assert max(sizes) * width <= mc._CHUNK_ENTRIES
    assert sizes == [rows] * (n_samples // rows) + [n_samples % rows] * (n_samples % rows > 0)


@pytest.mark.parametrize("spec", GRID_FAMILY_SPECS + ("gauss",))
def test_every_projection_draw_is_one_chunk_of_the_budget(monkeypatch, spec):
    n, n_samples = 64, 200_000
    plans = _recorded_plans(monkeypatch, "_projector")
    estimate_pnorm(family_from_spec(spec, n), np.linspace(1.0, 0.1, n), (2.0, 8.0),
                   n_samples, SEED + 37)
    ((width, sizes),) = plans
    # the rotation invariant laws draw one column, the others every live one
    assert width == (1 if spec in ("ball:q=2", "gauss") else n)
    _assert_chunks_tile(sizes, n_samples, width)


def test_every_twin_and_vector_draw_is_one_chunk_of_the_budget(monkeypatch):
    n, n_samples = 64, 200_000
    deps = _recorded_plans(monkeypatch, "_projector")
    indeps = _recorded_plans(monkeypatch, "_twin_projector")
    a = np.where(np.arange(n) % 4 == 3, 0.0, 1.0)
    dependent_vs_independent(UniformBall.isotropic(n, 1.0), a, 4.0, n_samples, SEED + 38)
    for ((width, sizes),) in (deps, indeps):
        # the three quarters of live coordinates
        assert width == 48
        _assert_chunks_tile(sizes, n_samples, width)
    # joint tails draw whole vectors; 8 is their largest dimension
    vectors = _recorded_sizes(monkeypatch, "sample")
    estimate_joint_tail(product_exponential(8), np.full(8, 0.05), n_samples, SEED + 39)
    _assert_chunks_tile(vectors, n_samples, 8)


def _one_entry_projector(value, target):
    """A plan builder of projected Gaussian draws of ODD_SAMPLES rows with
    ``value`` at sample index ``target``, whichever chunk holds it."""
    drawn = 0

    def projector(u):
        def draw(rng, m):
            nonlocal drawn
            x = rng.standard_normal((m, 3))
            if drawn <= target < drawn + m:
                x[target - drawn, 0] = value
            drawn += m
            return x @ u

        return draw, 3

    return projector


def test_pnorm_record_of_zero_and_overflowed_projections():
    a = np.array([1.0, 0.5, 2.0])
    orders = np.array([2.0, 4.0, 32.0])
    def zero_plan(u):
        return (lambda rng, m: np.zeros(m)), 3

    for coefs in (a, np.zeros(3)):
        records = mc._pnorm_engine(zero_plan, coefs, orders, ODD_SAMPLES, 5, mc._TAG_PNORM)
        # the zero record weighs every sample alike
        assert [(rec.value, rec.stderr, rec.ess, rec.top_share) for rec in records] == [
            (0.0, 0.0, ODD_SAMPLES, 1.0 / ODD_SAMPLES)] * len(orders)
    for bad in (np.inf, np.nan):
        with pytest.raises(OutOfRangeError, match="overflows"):
            mc._pnorm_engine(_one_entry_projector(bad, 6_300), a, orders, ODD_SAMPLES, 5,
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
        draw, _ = mc._projector(fam, a)
        projected = draw(np.random.default_rng(SEED + 40 + 2 * j), m)
        full = sample(fam, np.random.default_rng(SEED + 41 + 2 * j), m) @ a
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


@pytest.mark.parametrize("profile", ["one_hot", "flat"])
def test_one_hot_and_flat_exp_rows_draw_no_matrix(monkeypatch, profile):
    # e_1 draws one Laplace as a normal scale mixture; the flat vector pools
    # its 64 equal weights into one Gamma(64) draw
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: _VectorDrawsOnly(default_rng(seed)))
    a = np.eye(1, 64)[0] if profile == "one_hot" else np.full(64, 0.125)
    records = estimate_pnorm(product_exponential(64), a, GRID_ORDERS, 20_000, SEED)
    assert all(rec.value > 0.0 for rec in records)


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


# ESS / N of |g|^p tends to (E|g|^p)^2 / E|g|^{2p}; at N = 10^5 its ratio to
# that limit has a standard deviation of 0.5% at p = 2 and 2.9% at p = 4
# (200 seeds; seeds 0-7 of plain normal draws read 0.992-1.004 and
# 0.968-1.022), so each seed must fall within five of them and the mean of
# the eight seeds within five of its own
@pytest.mark.parametrize("p,limit,sigma", [(2.0, 1.0 / 3.0, 0.005), (4.0, 9.0 / 105.0, 0.029)])
def test_gaussian_ess_tends_to_its_known_share(p, limit, sigma):
    n_samples = 100_000
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

    monkeypatch.setattr(mc, "_chunks", no_sampling)
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
