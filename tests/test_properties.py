import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lcmoments.coeffs import (
    excluded_sq_sum,
    head_lq,
    head_sum,
    partial_lq,
    rearrange,
    tail_sq_sum,
    top_index_set,
)
from lcmoments.errors import InvalidArgumentError, MomentsError, UnsupportedFamilyError
from lcmoments.families import ProductFamily, family_from_spec, level_set_support
from lcmoments.harness import ExperimentConfig, coefficient_profile
from lcmoments.montecarlo import MIN_SAMPLES, estimate_pnorm
from lcmoments.surrogates import (
    ball_moment_estimate,
    bobkov_nazarov_upper,
    gaussian_band,
    gaussian_pnorm,
    gluskin_kwapien,
    gluskin_kwapien_estimate,
    hitczenko_lower,
    surrogate_bundle,
)
from lcmoments.tails import TailFunction, tail_from_spec

finite = st.floats(-4.0, 4.0, allow_nan=False)
coeff_vectors = st.tuples(st.floats(0.1, 4.0), st.lists(finite, max_size=9)).map(
    lambda t: np.asarray([t[0], *t[1]]))
orders = st.floats(2.0, 32.0)
scales = st.floats(0.25, 8.0)

tail_members = st.one_of(
    st.floats(0.5, 3.0).map(TailFunction.linear),
    st.floats(1.0, 4.0).map(TailFunction.power),
)
tail_mixes = st.lists(st.tuples(st.floats(0.1, 3.0), tail_members),
                      min_size=1, max_size=4)


def _perm(rng_seed, n):
    return np.random.default_rng(rng_seed).permutation(n)


# -- rearrangement --------------------------------------------------------------------

@given(coeff_vectors, st.integers(0, 2 ** 32 - 1))
def test_rearrange_is_idempotent_and_permutation_invariant(a, seed):
    r = np.asarray(rearrange(a))
    np.testing.assert_array_equal(rearrange(r), r)
    np.testing.assert_array_equal(rearrange(a[_perm(seed, len(a))]), r)
    assert np.all(np.diff(r) <= 0.0)
    assert np.all(r >= 0.0)


@given(coeff_vectors, orders, st.integers(0, 2 ** 32 - 1))
def test_scalar_reductions_are_permutation_and_sign_invariant(a, p, seed):
    b = -a[_perm(seed, len(a))]
    for fn in (head_sum, tail_sq_sum, excluded_sq_sum, hitczenko_lower,
               bobkov_nazarov_upper):
        assert fn(a, p) == fn(b, p)


# -- head and tail identities ----------------------------------------------------------

@given(coeff_vectors, orders)
def test_head_tail_complementarity(a, p):
    total = head_lq(a, p, 2.0) ** 2 + tail_sq_sum(a, p)
    assert total == pytest_approx(float(np.sum(a * a)))


def pytest_approx(x, rel=1e-9):
    import pytest
    return pytest.approx(x, rel=rel, abs=1e-12)


@given(coeff_vectors, orders)
def test_excluded_never_exceeds_interpolated_tail(a, p):
    assert excluded_sq_sum(a, p) <= tail_sq_sum(a, p) + 1e-12


@given(coeff_vectors, orders, st.floats(1.0, 8.0), st.floats(0.0, 8.0))
def test_partial_lq_decreases_in_q(a, p, q, dq):
    idx = top_index_set(a, p)
    hi = partial_lq(a, q + dq, indices=idx)
    lo = partial_lq(a, q, indices=idx)
    assert hi <= lo * (1.0 + 1e-12)


@given(coeff_vectors, orders)
def test_head_sum_nondecreasing_in_p(a, p):
    assert head_sum(a, p + 0.75) >= head_sum(a, p) - 1e-12
    assert tail_sq_sum(a, p + 0.75) <= tail_sq_sum(a, p) + 1e-12


# -- surrogate structure ---------------------------------------------------------------

@given(coeff_vectors, orders, scales)
def test_surrogates_are_positively_homogeneous(a, p, c):
    for fn in (hitczenko_lower, bobkov_nazarov_upper):
        assert fn(c * a, p) == pytest_approx(c * fn(a, p), rel=1e-12)
    for q in (1.0, 2.0):
        assert ball_moment_estimate(c * a, q, p) == pytest_approx(
            c * ball_moment_estimate(a, q, p), rel=1e-12)
    band = gaussian_band(a, p)
    scaled = gaussian_band(c * a, p)
    assert scaled.upper_indep == pytest_approx(c * band.upper_indep, rel=1e-12)
    assert scaled.upper_klartag == pytest_approx(c * band.upper_klartag, rel=1e-12)
    assert scaled.lower == pytest_approx(c * band.lower, rel=1e-12)


@given(coeff_vectors, orders)
def test_hitczenko_between_sup_norm_and_bn_upper(a, p):
    lo = hitczenko_lower(a, p)
    hi = bobkov_nazarov_upper(a, p)
    assert lo >= float(np.max(np.abs(a))) - 1e-12
    assert lo <= hi * (1.0 + 1e-12)
    assert lo <= 2.0 * hi


@given(coeff_vectors, orders, st.floats(0.0, 8.0))
def test_bn_upper_nondecreasing_in_p(a, p, dp):
    p2 = min(p + dp, 32.0)
    assert bobkov_nazarov_upper(a, p2) >= bobkov_nazarov_upper(a, p) - 1e-12


@given(coeff_vectors, orders)
def test_band_is_ordered(a, p):
    band = gaussian_band(a, p)
    center = gaussian_pnorm(p) * float(np.sqrt(np.sum(a * a)))
    assert 0.0 <= band.lower <= center
    assert band.lower <= band.upper_indep + 1e-12
    assert band.lower <= band.upper_klartag + 1e-12
    assert band.upper_indep == pytest_approx(
        center + p * float(np.max(np.abs(a))), rel=1e-12)
    assert band.indep_valid == (p >= 3.0)


@given(st.floats(1.0, 49.0), st.floats(0.01, 1.0))
def test_gaussian_pnorm_nondecreasing_in_p(p, dp):
    assert gaussian_pnorm(p + dp) >= gaussian_pnorm(p)


# -- tail programs ---------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(tail_mixes, orders, scales)
def test_tail_program_value_is_homogeneous_in_weights(mix, p, c):
    b = np.asarray([w for w, _ in mix])
    tails = [t for _, t in mix]
    assert gluskin_kwapien(c * b, tails, p) == pytest_approx(
        c * gluskin_kwapien(b, tails, p), rel=1e-9)


@settings(max_examples=30, deadline=None)
@given(tail_mixes, st.floats(2.0, 28.0), st.floats(0.0, 4.0))
def test_tail_program_value_nondecreasing_in_budget(mix, p, dp):
    b = np.asarray([w for w, _ in mix])
    tails = [t for _, t in mix]
    assert gluskin_kwapien(b, tails, p + dp) >= gluskin_kwapien(b, tails, p) * (1.0 - 1e-9)


@settings(max_examples=30, deadline=None)
@given(tail_mixes, st.floats(2.0, 30.0), st.floats(2.0, 30.0))
def test_tail_program_value_concave_in_budget(mix, p1, p2):
    b = np.asarray([w for w, _ in mix])
    tails = [t for _, t in mix]
    mid = gluskin_kwapien(b, tails, 0.5 * (p1 + p2))
    avg = 0.5 * (gluskin_kwapien(b, tails, p1) + gluskin_kwapien(b, tails, p2))
    assert mid >= avg * (1.0 - 1e-8)


@settings(max_examples=30, deadline=None)
@given(coeff_vectors, orders, scales)
def test_tail_program_estimate_is_homogeneous(a, p, c):
    tails = [TailFunction.exponential()] * len(a)
    assert gluskin_kwapien_estimate(c * a, tails, p) == pytest_approx(
        c * gluskin_kwapien_estimate(a, tails, p), rel=1e-9)


@settings(max_examples=30, deadline=None)
@given(coeff_vectors, orders, st.integers(0, 2 ** 32 - 1))
def test_tail_program_estimate_is_permutation_invariant(a, p, seed):
    tails = [TailFunction.exponential()] * len(a)
    b = a[_perm(seed, len(a))]
    assert gluskin_kwapien_estimate(b, tails, p) == pytest_approx(
        gluskin_kwapien_estimate(a, tails, p), rel=1e-9)


@settings(max_examples=30, deadline=None)
@given(coeff_vectors, orders)
def test_exponential_estimate_dominates_top_block_program(a, p):
    tails = [TailFunction.exponential()] * len(a)
    idx = top_index_set(a, p)
    block = np.abs(np.asarray(a, dtype=float)[list(idx)])
    top_only = gluskin_kwapien(block, [TailFunction.exponential()] * len(idx), p)
    assert gluskin_kwapien_estimate(a, tails, p) >= top_only - 1e-12


# -- sanity against the exact gaussian comparison -------------------------------------

@given(coeff_vectors, st.sampled_from([2.0, 4.0, 6.0, 8.0]))
def test_hitczenko_never_exceeds_gaussian_comparison_scale(a, p):
    # head + sqrt(p) tail is at most the bn majorant which is O(p) ||a||_2
    l2 = float(np.sqrt(np.sum(a * a)))
    assert hitczenko_lower(a, p) <= (p + math.sqrt(p)) * l2 * (1.0 + 1e-12)


# -- one surrogate pass per row ---------------------------------------------------------
#
# The reference below is the per-order evaluation the bundle replaced: one
# sort and one set of partial sums per order, on the unscaled coefficients.


def _ref_lq(x, q):
    top = float(np.max(x)) if x.size else 0.0
    if top == 0.0:
        return 0.0
    return top * float(np.sum((x / top) ** q)) ** (1.0 / q)


def _ref_bundle(a, p, family):
    ar = np.sort(np.abs(a))[::-1]
    n = ar.size
    k, frac = math.floor(p), p - math.floor(p)
    head = float(np.sum(ar)) if k >= n else float(np.sum(ar[:k])) + frac * float(ar[k])
    sq = ar * ar
    tail = 0.0 if k >= n else (1.0 - frac) * float(sq[k]) + float(np.sum(sq[k + 1:]))
    top_k = min(math.ceil(p), n)
    idx = sorted(int(i) for i in np.argsort(-np.abs(a), kind="stable")[:top_k])
    excluded = math.sqrt(p) * math.sqrt(float(np.sum(sq[top_k:])))
    l2 = _ref_lq(ar, 2.0)
    quartic = math.sqrt(float(np.sum(a ** 4))) / l2
    center = gaussian_pnorm(p) * l2
    out = {
        "hitczenko": head + math.sqrt(p) * math.sqrt(tail),
        "bn_upper": p * float(ar[0]) + math.sqrt(p) * l2,
        "gk": None, "bqn": None, "momunc": None,
        "band.lower": max(0.0, center - p * math.sqrt(3.0) * quartic),
        "band.upper_indep": center + p * float(ar[0]),
        "band.upper_klartag": center + p ** 2.5 * quartic,
    }
    if isinstance(family, ProductFamily):
        out["gk"] = gluskin_kwapien(np.abs(a[idx]), [family.tails[i] for i in idx], p) \
            + excluded
    if hasattr(family, "q"):
        q = family.q
        qprime = math.inf if q == 1.0 else q / (q - 1.0)
        if math.isinf(qprime):
            head_q = float(ar[0])
        elif k >= n:
            head_q = _ref_lq(ar, qprime)
        else:
            scaled = ar / ar[0]
            acc = float(np.sum(scaled[:k] ** qprime)) + frac * float(scaled[k] ** qprime)
            head_q = float(ar[0]) * acc ** (1.0 / qprime)
        out["bqn"] = min(p, float(n)) ** (1.0 / q) * head_q + math.sqrt(p) * math.sqrt(tail)
    if family is not None:
        try:
            out["momunc"] = level_set_support(family, idx, a[idx], p) + excluded
        except UnsupportedFamilyError:
            pass
    return out, center


def _fields(bundle):
    return {"hitczenko": bundle.hitczenko, "bn_upper": bundle.bn_upper, "gk": bundle.gk,
            "bqn": bundle.bqn, "momunc": bundle.momunc, "band.lower": bundle.band.lower,
            "band.upper_indep": bundle.band.upper_indep,
            "band.upper_klartag": bundle.band.upper_klartag}


def _unit_variance_table():
    raw = TailFunction.tabulated((0.0, 0.5, 1.5, 3.0, 12.0), (0.0, 0.4, 1.6, 4.6, 70.0))
    return TailFunction.tabulated(np.asarray(raw.knots_t) / math.sqrt(raw.variance()),
                                  raw.knots_n)


BUNDLE_FAMILIES = ("exp", "product:pow:alpha=2", "product:pow:alpha=1", "mixed", "table",
                   "ball:q=1", "ball:q=1.5", "ball:q=2", "ball:q=3", "cube", "gauss", None)


def _bundle_family(kind, n):
    if kind in ("mixed", "table"):
        menu = [_unit_variance_table()] if kind == "table" else [
            TailFunction.exponential(), TailFunction.power(1.5), _unit_variance_table(),
            TailFunction.power(1.0), TailFunction.power(3.0)]
        return ProductFamily(tails=tuple(menu[i % len(menu)] for i in range(n)))
    return None if kind is None else family_from_spec(kind, n)


# ties and zeros are likely: entries come from a small menu as often as not.
# The largest entry is at least 1e-3: below that the reference's unscaled
# fourth powers underflow (the scale-safety tests cover that range).
tied_entries = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.5, -0.5, 2.0]),
                         st.floats(-4.0, 4.0))
tied_vectors = st.lists(tied_entries, min_size=1, max_size=10).filter(
    lambda xs: max(map(abs, xs)) >= 1e-3).map(np.asarray)
order_lists = st.lists(st.one_of(st.sampled_from([2.0, 3.0, 4.0, 8.0, 32.0]),
                                 st.floats(2.0, 32.0)), min_size=1, max_size=5)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(BUNDLE_FAMILIES), tied_vectors, order_lists)
@example("exp", np.asarray([1.0, 1.0, 0.0]), [2.5, 32.0])
@example("ball:q=2", np.asarray([0.0, -2.0]), [3.5, 2.0])
def test_bundle_over_orders_matches_the_per_order_formulas(kind, a, ps):
    family = _bundle_family(kind, a.size)
    bundles = surrogate_bundle(a, ps, family=family)
    assert isinstance(bundles, tuple) and len(bundles) == len(ps)
    for p, bundle in zip(ps, bundles):
        # entry i is the scalar call at p[i], bit for bit
        assert bundle == surrogate_bundle(a, p, family=family)
        assert bundle.p == p
        ref, center = _ref_bundle(a, p, family)
        for name, value in _fields(bundle).items():
            want = ref[name]
            assert (value is None) == (want is None), name
            if want is None:
                continue
            # the lower band is a difference of terms of the size of the
            # center, so its error is relative to the center
            scale = max(abs(want), center) if name == "band.lower" else abs(want)
            assert abs(value - want) <= 1e-14 * scale, (name, value, want)


# -- Monte-Carlo at extreme magnitudes ------------------------------------------------

# finite coefficients whose magnitudes spread over 1e-300 ... 1e300, and zeros
extreme_entries = st.one_of(
    st.just(0.0),
    st.builds(lambda m, e, s: s * m * 10.0 ** e, st.floats(1.0, 9.99),
              st.integers(-300, 299), st.sampled_from([-1.0, 1.0])),
)
mc_family_specs = st.sampled_from(["exp", "product:pow:alpha=2", "gauss", "cube",
                                   "ball:q=1", "ball:q=2"])


@settings(max_examples=100, deadline=None)
@given(mc_family_specs, st.lists(extreme_entries, min_size=1, max_size=6),
       st.lists(orders, min_size=1, max_size=3), st.integers(0, 2 ** 32 - 1))
def test_estimate_pnorm_at_extreme_magnitudes_is_finite_or_rejected(spec, a, ps, seed):
    family = family_from_spec(spec, len(a))
    try:
        records = estimate_pnorm(family, a, ps, MIN_SAMPLES, seed)
    except MomentsError:
        return
    for rec in records:
        assert math.isfinite(rec.value) and rec.value >= 0.0
        assert math.isfinite(rec.stderr) and rec.stderr >= 0.0


@settings(max_examples=100, deadline=None)
@given(mc_family_specs, st.lists(extreme_entries, min_size=1, max_size=6).filter(any),
       st.lists(orders, min_size=1, max_size=3))
def test_surrogate_bundle_at_extreme_magnitudes_is_finite(spec, a, ps):
    family = family_from_spec(spec, len(a))
    for bundle in surrogate_bundle(a, ps, family=family):
        for name, value in _fields(bundle).items():
            assert value is None or (math.isfinite(value) and value >= 0.0), name


# -- spec and config fuzzing -----------------------------------------------------------

def _spec(name, key):
    edge = st.sampled_from(["nan", "inf", "-inf", "0", "-1", "1e308", "", "x", "1,2"])
    values = st.one_of(edge, st.floats().map(repr), st.text(max_size=6))
    return values.map(lambda v: f"{name}:{key}={v}")


tail_specs = st.one_of(st.just("exp"), _spec("pow", "alpha"), st.text(max_size=8))
family_specs = st.one_of(
    st.sampled_from(["exp", "gauss", "cube", "product:", "product:exp,exp"]),
    _spec("ball", "q"),
    st.lists(tail_specs, max_size=4).map(lambda ts: "product:" + ",".join(ts)),
    st.text(max_size=12),
)
profile_specs = st.one_of(
    st.sampled_from(["one_hot", "flat", "explicit:", "explicit:0,0"]),
    _spec("geometric", "rho"),
    _spec("power", "alpha"),
    st.lists(st.one_of(st.sampled_from([0.0, math.nan, math.inf]), st.floats()),
             min_size=1, max_size=5).map(lambda vs: "explicit:" + ",".join(map(repr, vs))),
    st.text(max_size=12),
)
# dimensions stay small: a profile or family materializes n entries
dims = st.integers(-1, 6)


@settings(max_examples=300, deadline=None)
@given(tail_specs)
def test_fuzzed_tail_spec_builds_or_is_rejected(spec):
    try:
        tail = tail_from_spec(spec)
    except InvalidArgumentError:
        return
    assert tail.variance() == pytest_approx(1.0, rel=1e-9)


# a tail field is a sane magnitude or one of the values no tail may take
_bad_fields = st.sampled_from([-1.0, 0.0, math.nan, math.inf])
_tail_fields = st.one_of(st.floats(1e-3, 1e3), _bad_fields)
direct_tails = st.one_of(
    st.builds(lambda rate: dict(kind="linear", rate=rate), _tail_fields),
    st.builds(lambda alpha, scale: dict(kind="power", alpha=alpha, scale=scale),
              st.one_of(st.floats(1.0, 50.0, exclude_min=True), _bad_fields), _tail_fields),
)


@settings(max_examples=300, deadline=None)
@given(direct_tails)
def test_directly_built_tail_is_valid_or_rejected(fields):
    try:
        tail = TailFunction(**fields)
    except InvalidArgumentError:
        return
    var = tail.variance()
    assert math.isfinite(var) and var > 0.0
    value = gluskin_kwapien([1.0], [tail], 4.0)
    assert math.isfinite(value) and value >= 0.0


@settings(max_examples=300, deadline=None)
@given(family_specs, dims)
@example("ball:q=1.7976931348623153e+308", 3)
def test_fuzzed_family_spec_builds_or_is_rejected(spec, n):
    try:
        family = family_from_spec(spec, n)
    except InvalidArgumentError:
        return
    assert family.n == n


@settings(max_examples=300, deadline=None)
@given(profile_specs, dims)
def test_fuzzed_profile_builds_or_is_rejected(spec, n):
    try:
        profile = coefficient_profile(spec, n)
    except InvalidArgumentError:
        return
    assert profile.shape == (n,)
    assert np.all(np.isfinite(profile)) and np.any(profile != 0.0)


json_scalars = st.one_of(st.none(), st.booleans(), st.integers(-3, 40), st.floats(),
                         st.text(max_size=8))
config_fields = {
    "families": st.one_of(st.lists(family_specs, max_size=3), json_scalars),
    "profiles": st.one_of(st.lists(profile_specs, max_size=3), json_scalars),
    "n_list": st.one_of(st.lists(st.one_of(dims, json_scalars), max_size=3), json_scalars),
    "p_grid": st.one_of(st.lists(st.one_of(st.floats(), json_scalars), max_size=3),
                        json_scalars),
    "n_samples": st.one_of(st.integers(0, 10 ** 6), json_scalars),
    "seed": json_scalars,
    "output_dir": json_scalars,
}
VALID_CONFIG = {"families": ["exp"], "profiles": ["flat"], "n_list": [3],
                "p_grid": [2.0, 4.0], "n_samples": 10_000, "seed": 0}


@settings(max_examples=300, deadline=None)
@given(st.sets(st.sampled_from(sorted(config_fields)), max_size=2)
       .flatmap(lambda keys: st.fixed_dictionaries({k: config_fields[k] for k in keys})),
       st.sets(st.sampled_from(sorted(VALID_CONFIG)), max_size=1))
def test_fuzzed_config_mapping_loads_or_is_rejected(patch, dropped):
    data = {k: v for k, v in {**VALID_CONFIG, **patch}.items() if k not in dropped}
    try:
        config = ExperimentConfig.from_mapping(data)
    except InvalidArgumentError:
        return
    for spec in config.profiles:
        built = []
        for n in config.n_list:
            try:
                built.append(coefficient_profile(spec, n))
            except InvalidArgumentError:
                assert spec.strip().startswith("explicit:")
        assert built and all(np.all(np.isfinite(a)) and np.any(a != 0.0) for a in built)
