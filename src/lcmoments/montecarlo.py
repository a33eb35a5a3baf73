"""Monte-Carlo ground truth for moment surrogates.

Reproducibility contract: every estimator draws from one generator seeded
with the child seed (seed, stream tag) and splits its sample budget into
batches that come from that generator one after another, so a record is a
pure function of (seed, n_samples).  ``_child_seed`` is the only seed
derivation: report rows and acceptance checks use it too.  p-th moments are
accumulated in log space and batch-means give the standard error, propagated
through the 1/p power by the delta method.

The p-norm engine keeps each batch's log|<X, a>| vector, stacks the batches
of one size into a block (two blocks when 64 does not divide n_samples) and
reduces every batch of a block in one log-sum-exp pass per order; the batch
means of all orders then go through one more pass.  ``_logsumexp`` repeats
the arithmetic of ``scipy.special.logsumexp`` step by step, so the records
are the same bits as a per-batch, per-order scipy reduction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .coeffs import as_coefficients
from .errors import InvalidArgumentError, OutOfRangeError
from .families import (
    Family,
    GaussianStd,
    ProductFamily,
    UniformBall,
    UniformCube,
    _marginal_beta,
)

__all__ = [
    "EstimateRecord",
    "sample",
    "estimate_pnorm",
    "estimate_fourth_moment",
    "estimate_joint_tail",
    "dependent_vs_independent",
    "rademacher_pnorm_exact",
    "MAX_MOMENT_ORDER",
    "MIN_SAMPLES",
]

MAX_MOMENT_ORDER = 32.0
MIN_SAMPLES = 10_000

# every estimator splits its samples into this many batch-means batches
_BATCHES = 64

_MASK64 = (1 << 64) - 1

# stream tags keep estimators on disjoint streams of one master seed
_TAG_PNORM = 1
_TAG_MOMENT4 = 2
_TAG_JOINT = 3
_TAG_NA_DEPENDENT = 4
_TAG_NA_INDEPENDENT = 5


def _child_seed(seed: int, *path: int) -> int:
    """The first word of SeedSequence((seed mod 2^64, *path)); its zero
    padding makes (seed, tag, 0) the same child as (seed, tag)."""
    ss = np.random.SeedSequence((int(seed) & _MASK64, *path))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class EstimateRecord:
    """One Monte-Carlo estimate with its batch-means standard error."""

    value: float
    stderr: float
    n_samples: int
    seed: int
    batches: int


# -- samplers -----------------------------------------------------------------

def _sample_product(family: ProductFamily, rng: np.random.Generator, size: int) -> np.ndarray:
    """|X_i| = N_i^{-1}(E_i) with E_i ~ Exp(1), one inverse call per distinct tail."""
    exps = rng.standard_exponential((size, family.n))
    signs = rng.integers(0, 2, size=(size, family.n)) * 2 - 1
    groups = family.tail_columns
    if len(groups) == 1:
        return groups[0][0].inverse(exps) * signs
    out = np.empty((size, family.n))
    for tail, cols in groups:
        out[:, cols] = tail.inverse(exps[:, cols])
    return out * signs


def _sample_ball(family: UniformBall, rng: np.random.Generator, size: int) -> np.ndarray:
    """Uniform on r B_q^n via X = r y / (sum |y_i|^q + W)^{1/q}.

    Here |y_i|^q ~ Gamma(1/q, 1) with symmetric signs and W ~ Exp(1); the
    q = 2 path reuses the Gaussian signs (|g|^2 / 2 ~ Gamma(1/2, 1)).  Other
    q draw |y_i| = U_i G_i^{1/q} with G_i ~ Gamma(1 + 1/q) and U_i uniform,
    so |y_i|^q = U_i^q G_i ~ Gamma(1/q): a Gamma(1/q) draw raised to the
    power 1/q underflows to 0 at large q, this product does not.
    """
    n, q, r = family.n, family.q, family.r
    if q == 2.0:
        g = rng.standard_normal((size, n))
        w = rng.standard_exponential(size)
        denom = np.sqrt(0.5 * np.sum(g * g, axis=1) + w)
        return r * (g / math.sqrt(2.0)) / denom[:, None]
    if q == 1.0:
        mags = powers = rng.standard_exponential((size, n))
    else:
        gam = rng.gamma(1.0 + 1.0 / q, size=(size, n))
        u = rng.random((size, n))
        mags = u * gam ** (1.0 / q)
        powers = u ** q * gam
    w = rng.standard_exponential(size)
    signs = rng.integers(0, 2, size=(size, n)) * 2 - 1
    denom = (np.sum(powers, axis=1) + w) ** (1.0 / q)
    return r * signs * mags / denom[:, None]


def _sample_ball_twin(ball: UniformBall, rng: np.random.Generator, size: int) -> np.ndarray:
    """iid coordinates with the ball's marginal law: X*_i = r eps_i B_i^{1/q},
    B_i ~ Beta(1/q, (n-1)/q + 1), eps_i symmetric signs."""
    a, b = _marginal_beta(ball)
    mags = rng.beta(a, b, size=(size, ball.n)) ** (1.0 / ball.q)
    signs = rng.integers(0, 2, size=(size, ball.n)) * 2 - 1
    return ball.r * signs * mags


def sample(family: Family, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` iid vectors from the family as a (size, n) array."""
    if size < 1:
        raise InvalidArgumentError(f"sample size must be >= 1, got {size}")
    if isinstance(family, ProductFamily):
        return _sample_product(family, rng, size)
    if isinstance(family, UniformBall):
        return _sample_ball(family, rng, size)
    if isinstance(family, GaussianStd):
        return rng.standard_normal((size, family.n))
    if isinstance(family, UniformCube):
        return (rng.random((size, family.n)) * 2.0 - 1.0) * math.sqrt(3.0)
    raise InvalidArgumentError(f"unknown family {type(family).__name__}")


# -- batch engine ---------------------------------------------------------------

def _batch_counts(n_samples: int) -> list[int]:
    base, rem = divmod(n_samples, _BATCHES)
    return [base + 1] * rem + [base] * (_BATCHES - rem)


def _validate_batching(n_samples: int) -> None:
    if n_samples < MIN_SAMPLES:
        raise InvalidArgumentError(
            f"n_samples must be >= {MIN_SAMPLES} for stable batch means, got {n_samples}")


def _batch_stats(draw: Callable[[np.random.Generator, int], np.ndarray],
                 statistic: Callable[[np.ndarray], object], n_samples: int, seed: int,
                 tag: int) -> tuple[list, np.ndarray]:
    """``statistic`` of each batch's draw, in batch order, and the batch sizes
    as float weights; the batches come in order from one generator."""
    rng = np.random.default_rng(_child_seed(seed, tag))
    counts = _batch_counts(n_samples)
    stats = [statistic(draw(rng, m)) for m in counts]
    return stats, np.asarray(counts, dtype=float)


def _logsumexp(x: np.ndarray) -> np.ndarray:
    """log sum exp(x) along the last axis, by the steps of
    ``scipy.special.logsumexp``: the max m of the row, the count k of entries
    equal to it, the sum s of exp(x - m) over the others, then
    log1p(s / k) + log(k) + m.  A row whose max is not finite gives that max
    (all -inf gives -inf, a +inf entry +inf, a NaN NaN), as scipy does."""
    top = np.max(x, axis=-1, keepdims=True)
    is_top = x == top
    with np.errstate(invalid="ignore", divide="ignore"):
        s = np.sum(np.exp(np.where(is_top, -np.inf, x) - top), axis=-1)
        k = np.count_nonzero(is_top, axis=-1)
        top = top[..., 0]
        out = np.log1p(s / k) + np.log(k) + top
    return np.where(np.isfinite(top), out, top)


def _pnorm_engine(sampler: Callable[[np.random.Generator, int], np.ndarray],
                  a_arr: np.ndarray, ps: np.ndarray, n_samples: int, seed: int,
                  tag: int) -> tuple[EstimateRecord, ...]:
    """One record per order in ``ps``, every order reduced from the same draws."""

    def log_abs(x: np.ndarray) -> np.ndarray:
        # an overflowing projection is caught by _pnorm_record
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return np.log(np.abs(x @ a_arr))

    stats, weights = _batch_stats(sampler, log_abs, n_samples, seed, tag)
    # log mean of |<X, a>|^p per (order, batch); equal-size batches are
    # adjacent, so each block fills a contiguous run of columns
    log_means = np.empty((len(ps), len(stats)))
    start = 0
    for size, batches in itertools.groupby(stats, key=len):
        block = np.stack(list(batches))
        stop = start + len(block)
        for row, p in zip(log_means, ps):
            row[start:stop] = _logsumexp(p * block) - math.log(size)
        start = stop
    log_moments = _logsumexp(log_means + np.log(weights)) - math.log(n_samples)
    return tuple(_pnorm_record(row, log_moment, weights, float(p), n_samples, seed)
                 for row, log_moment, p in zip(log_means, log_moments, ps))


def _pnorm_record(log_means: np.ndarray, log_moment: float, weights: np.ndarray, p: float,
                  n_samples: int, seed: int) -> EstimateRecord:
    """The record of one order from its per-batch log means and the log of
    the pooled p-th moment."""
    batches = len(log_means)
    shift = np.max(log_means)
    if shift == -math.inf:
        # every projection was exactly 0
        return EstimateRecord(0.0, 0.0, n_samples, int(seed) & _MASK64, batches)
    if not math.isfinite(shift):
        raise OutOfRangeError(
            "sum a_i X_i overflows double precision; rescale the coefficients")
    value = math.exp(log_moment / p)
    u = np.exp(log_means - shift)
    mean_u = float(np.sum(u * weights) / n_samples)
    sd_u = float(np.std(u, ddof=1))
    stderr = value * sd_u / (math.sqrt(batches) * mean_u) / p
    return EstimateRecord(value, stderr, n_samples, int(seed) & _MASK64, batches)


def _check_orders(p: float | Sequence[float], minimum: float) -> np.ndarray:
    """``p`` as a non-empty vector of orders in [minimum, MAX_MOMENT_ORDER]."""
    ps = np.atleast_1d(np.asarray(p, dtype=float))
    if ps.ndim != 1 or ps.size == 0:
        raise InvalidArgumentError(
            f"moment orders must be a number or a non-empty flat sequence, got {p!r}")
    for order in ps:
        if not order >= minimum:
            raise InvalidArgumentError(
                f"moment order must satisfy p >= {minimum:g}, got {order}")
        if order > MAX_MOMENT_ORDER:
            raise OutOfRangeError(
                f"moment order {order} above supported maximum {MAX_MOMENT_ORDER}")
    return ps


def estimate_pnorm(family: Family, a, p: float | Sequence[float], n_samples: int,
                   seed: int) -> EstimateRecord | tuple[EstimateRecord, ...]:
    """Monte-Carlo ||sum a_i X_i||_p with a batch-means standard error.

    ``p`` is one order, which returns one record, or a sequence of orders,
    which returns one record per order, all reduced from the same draws.  An
    order sequence therefore costs about one scalar call, and its values are
    nondecreasing in p (the power-mean inequality on one sample).  Entry i of
    the tuple equals the scalar call at ``p[i]`` with the same seed.
    """
    cv = as_coefficients(a)
    if family.n != cv.n:
        raise InvalidArgumentError(
            f"family dimension {family.n} does not match coefficient length {cv.n}")
    ps = _check_orders(p, 2.0)
    if not np.any(cv.array != 0.0):
        raise InvalidArgumentError("coefficient vector must be nonzero")
    _validate_batching(n_samples)
    records = _pnorm_engine(lambda rng, m: sample(family, rng, m), cv.array,
                            ps, n_samples, seed, _TAG_PNORM)
    return records[0] if np.ndim(p) == 0 else records


def estimate_fourth_moment(family: Family, coordinate: int, n_samples: int,
                           seed: int) -> EstimateRecord:
    """Monte-Carlo E X_j^4 of a single coordinate."""
    if not (0 <= coordinate < family.n):
        raise InvalidArgumentError(f"coordinate {coordinate} outside [0, {family.n})")
    _validate_batching(n_samples)
    stats, weights = _batch_stats(lambda rng, m: sample(family, rng, m),
                                  lambda x: np.mean(x[:, coordinate] ** 4),
                                  n_samples, seed, _TAG_MOMENT4)
    means = np.asarray(stats)
    value = float(np.sum(means * weights) / n_samples)
    stderr = float(np.std(means, ddof=1)) / math.sqrt(_BATCHES)
    return EstimateRecord(value, stderr, n_samples, int(seed) & _MASK64, _BATCHES)


_JOINT_MAX_DIM = 8
_JOINT_MIN_PROB = math.exp(-10.0)


def estimate_joint_tail(family: Family, thresholds, n_samples: int,
                        seed: int) -> EstimateRecord:
    """Empirical P(|X_i| >= t_i for all i) with a binomial standard error.

    Guarded to n <= 8 and estimates above e^{-10}: deeper joint tails are not
    reachable at the supported sample sizes, so the empirical value itself
    enforces the guard.
    """
    t = np.asarray(thresholds, dtype=float)
    if t.shape != (family.n,):
        raise InvalidArgumentError(f"thresholds have shape {t.shape}, expected ({family.n},)")
    if np.any(t < 0) or not np.all(np.isfinite(t)):
        raise InvalidArgumentError("thresholds must be finite and nonnegative")
    if family.n > _JOINT_MAX_DIM:
        raise OutOfRangeError(
            f"joint tails are supported up to dimension {_JOINT_MAX_DIM}, got {family.n}")
    _validate_batching(n_samples)
    stats, _ = _batch_stats(lambda rng, m: sample(family, rng, m),
                            lambda x: int(np.sum(np.all(np.abs(x) >= t[None, :], axis=1))),
                            n_samples, seed, _TAG_JOINT)
    value = sum(stats) / n_samples
    if value < _JOINT_MIN_PROB:
        raise OutOfRangeError(
            f"joint tail estimate {value:.3e} is below the e^-10 reliability guard")
    stderr = math.sqrt(value * (1.0 - value) / n_samples)
    return EstimateRecord(value, stderr, n_samples, int(seed) & _MASK64, _BATCHES)


def dependent_vs_independent(ball: UniformBall, a, p: float | Sequence[float],
                             n_samples: int, seed: int
                             ) -> tuple[EstimateRecord, EstimateRecord] | tuple[
                                 tuple[EstimateRecord, ...], tuple[EstimateRecord, ...]]:
    """||sum a_i X_i||_p for the ball against its independent-marginals twin.

    The twin X* has iid coordinates r eps_i B_i^{1/q} with the closed-form
    Beta marginal of the ball, so each X*_i matches the law of X_i exactly.
    Both runs share the batch structure but draw from disjoint streams of
    the seed.  A scalar ``p`` returns ``(dep, indep)``; a sequence of orders
    returns ``(deps, indeps)``, one record per order, all from one draw of
    each, with entry i equal to the scalar call at ``p[i]``.
    """
    cv = as_coefficients(a)
    if not isinstance(ball, UniformBall):
        raise InvalidArgumentError("dependent/independent comparison is ball-only")
    if ball.n < 2:
        raise InvalidArgumentError("comparison needs dimension >= 2")
    if ball.n != cv.n:
        raise InvalidArgumentError(
            f"family dimension {ball.n} does not match coefficient length {cv.n}")
    # p >= 3 keeps the second derivative of |x|^p convex
    ps = _check_orders(p, 3.0)
    _validate_batching(n_samples)
    deps = _pnorm_engine(lambda rng, m: _sample_ball(ball, rng, m), cv.array,
                         ps, n_samples, seed, _TAG_NA_DEPENDENT)
    indeps = _pnorm_engine(lambda rng, m: _sample_ball_twin(ball, rng, m), cv.array,
                           ps, n_samples, seed, _TAG_NA_INDEPENDENT)
    if np.ndim(p) == 0:
        return deps[0], indeps[0]
    return deps, indeps


_RADEMACHER_MAX_DIM = 20


def rademacher_pnorm_exact(a, p: float) -> float:
    """Exact ||sum a_i eps_i||_p by enumerating all 2^n sign patterns."""
    cv = as_coefficients(a)
    if cv.n > _RADEMACHER_MAX_DIM:
        raise OutOfRangeError(
            f"exact enumeration is supported up to n = {_RADEMACHER_MAX_DIM}, got {cv.n}")
    if p < 1 or not math.isfinite(p):
        raise InvalidArgumentError(f"p must be >= 1, got {p}")
    sums = np.zeros(1)
    for v in cv.values:
        sums = np.concatenate([sums + v, sums - v])
    mags = np.abs(sums)
    top = float(np.max(mags))
    if top == 0.0:
        return 0.0
    return top * float(np.mean((mags / top) ** p)) ** (1.0 / p)
