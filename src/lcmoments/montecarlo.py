"""Monte-Carlo ground truth for moment surrogates.

Reproducibility contract: every estimator draws from one generator seeded
with the child seed (seed, stream tag) and splits its sample budget into
batches that come from that generator one after another, so a record is a
pure function of (seed, n_samples).  ``_child_seed`` is the only seed
derivation: report rows and acceptance checks use it too.  Batch means give
the standard error, propagated through the 1/p power by the delta method.

Every ball draw is ``_ball_parts``, the first k coordinates of the
Barthe-Guedon-Mendelson-Naor form X = r eps y / (sum y_i^q + W)^{1/q}.  One
engine, ``_pnorm_engine``, serves every moment estimator (p-norms, the
dependent/independent comparison, and fourth moments as p = 4 on e_j).  It
draws the projection S = <X, u> with u = a / max|a_i| (``_project``); the
Gaussian and the Euclidean ball are rotation invariant, so there S is drawn
in one dimension.  The engine joins the batches' log|S| into one vector L and
reduces each order in linear space: w = exp(p (L - max L)) stays in [0, 1],
``np.add.reduceat`` sums it per batch, and the p-norm is
max|a_i| e^{max L + log(sum w / n) / p}.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .coeffs import _orders, as_coefficients
from .errors import InvalidArgumentError, OutOfRangeError
from .families import Family, GaussianStd, ProductFamily, UniformBall, UniformCube

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

def _random_signs(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Give every entry of the float64 array ``x`` an independent symmetric
    sign, in place, and return ``x``: one random bit per entry is XORed into
    the IEEE sign bit, so |x| keeps its bits.

    The bits are the generator's raw 64-bit words, unpacked in little-endian
    byte order on every platform; ``Generator.bytes`` would cost about 10 us
    more per call, as much as the whole sign draw on a small batch.
    """
    words = x.view(np.uint64)
    raw = rng.bit_generator.random_raw((x.size + 63) // 64).astype("<u8", copy=False)
    bits = np.unpackbits(raw.view(np.uint8), count=x.size).reshape(x.shape)
    words ^= np.left_shift(bits, 63, dtype=np.uint64)
    return x


def _sample_product(family: ProductFamily, rng: np.random.Generator, size: int) -> np.ndarray:
    """|X_i| = N_i^{-1}(E_i) with E_i ~ Exp(1), one inverse call per distinct tail."""
    exps = rng.standard_exponential((size, family.n))
    groups = family.tail_columns
    if len(groups) == 1:
        return _random_signs(groups[0][0].inverse(exps), rng)
    out = np.empty((size, family.n))
    for tail, cols in groups:
        out[:, cols] = tail.inverse(exps[:, cols])
    return _random_signs(out, rng)


def _gamma_root(q: float, rng: np.random.Generator, shape) -> tuple[np.ndarray, np.ndarray]:
    """(y, y^q) with y^q ~ Gamma(1/q, 1).

    q = 1 is an exponential draw.  Other q draw y = U G^{1/q} with
    G ~ Gamma(1 + 1/q) and U uniform, so y^q = U^q G ~ Gamma(1/q): a
    Gamma(1/q) draw raised to the power 1/q underflows to 0 at large q, this
    product does not.
    """
    if q == 1.0:
        e = rng.standard_exponential(shape)
        return e, e
    gam = rng.standard_gamma(1.0 + 1.0 / q, size=shape)
    u = rng.random(shape)
    return u * gam ** (1.0 / q), u ** q * gam


def _ball_parts(ball: UniformBall, rng: np.random.Generator, m: int,
                k: int) -> tuple[np.ndarray, np.ndarray]:
    """(signed numerator (m, k), row denominator (m,)) of the first k
    coordinates of X = r eps y / (sum y_i^q + W)^{1/q}.

    y_i^q ~ Gamma(1/q, 1) (``_gamma_root``), eps_i are symmetric signs and
    W ~ Exp(1); the other n - k coordinates and W merge into one
    H ~ Gamma((n - k)/q + 1).  k = n is the whole vector, k = 1 the marginal.
    At q = 2, y = |g| / sqrt(2) with g ~ N(0, 1) carries its own sign, and
    both parts are scaled by sqrt(2): g and sqrt(sum_{i<=k} g_i^2 + 2H).
    """
    n, q = ball.n, ball.q
    if q == 2.0:
        # a flat draw, so the one-coordinate projection draws no matrix
        g = rng.standard_normal(m * k).reshape(m, k)
        h = rng.standard_gamma((n - k) / 2.0 + 1.0, size=m)
        # a one-term row sum is the term itself: the same bits as einsum's,
        # without its call overhead
        sq = g[:, 0] * g[:, 0] if k == 1 else np.einsum("ij,ij->i", g, g)
        return g, np.sqrt(sq + 2.0 * h)
    mags, powers = _gamma_root(q, rng, (m, k))
    h = rng.standard_gamma((n - k) / q + 1.0, size=m)
    # at q = 1 mags is powers, so the row sums come before the signs
    total = powers[:, 0] if k == 1 else np.einsum("ij->i", powers)
    denom = (total + h) ** (1.0 / q)
    return _random_signs(mags, rng), denom


def _sample_ball_twin(ball: UniformBall, rng: np.random.Generator, size: int) -> np.ndarray:
    """iid coordinates with the ball's marginal law, (|X*_i| / r)^q ~
    Beta(1/q, (n-1)/q + 1), the law of (|X_i| / r)^q.

    q = 1 inverts the Beta(1, n) CDF: |X*_i| / r = 1 - (1 - U)^{1/n}.  Other q
    draw each coordinate as the k = 1 marginal of ``_ball_parts``.
    """
    n, q = ball.n, ball.q
    if q == 1.0:
        mags = np.expm1(np.log1p(-rng.random((size, n))) / n)
        mags *= -ball.r
        return _random_signs(mags, rng)
    numerator, denom = _ball_parts(ball, rng, size * n, 1)
    return (numerator[:, 0] * (ball.r / denom)).reshape(size, n)


def sample(family: Family, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` iid vectors from the family as a (size, n) array."""
    if size < 1:
        raise InvalidArgumentError(f"sample size must be >= 1, got {size}")
    if isinstance(family, ProductFamily):
        return _sample_product(family, rng, size)
    if isinstance(family, UniformBall):
        numerator, denom = _ball_parts(family, rng, size, family.n)
        return numerator * (family.r / denom)[:, None]
    if isinstance(family, GaussianStd):
        return rng.standard_normal((size, family.n))
    if isinstance(family, UniformCube):
        return (rng.random((size, family.n)) * 2.0 - 1.0) * math.sqrt(3.0)
    raise InvalidArgumentError(f"unknown family {type(family).__name__}")


def _project(family: Family, a: np.ndarray, rng: np.random.Generator, m: int) -> np.ndarray:
    """m iid draws of <X, a> as an (m,) vector, without the (m, n) array
    where the law allows.

    The Gaussian and the Euclidean ball are rotation invariant, so <X, a>
    has the law of ||a||_2 X_1, the k = 1 marginal for the ball.  Other balls
    project the whole signed numerator and divide each row once.
    """
    if isinstance(family, ProductFamily):
        return _sample_product(family, rng, m) @ a
    if isinstance(family, UniformBall):
        if family.q == 2.0:
            numerator, denom = _ball_parts(family, rng, m, 1)
            return (family.r * float(np.linalg.norm(a))) * numerator[:, 0] / denom
        numerator, denom = _ball_parts(family, rng, m, family.n)
        return family.r * (numerator @ a) / denom
    if isinstance(family, GaussianStd):
        return float(np.linalg.norm(a)) * rng.standard_normal(m)
    if isinstance(family, UniformCube):
        u = rng.random((m, family.n))
        u *= 2.0
        u -= 1.0
        return (u @ a) * math.sqrt(3.0)
    raise InvalidArgumentError(f"unknown family {type(family).__name__}")


# -- batch engine ---------------------------------------------------------------

def _batch_counts(n_samples: int) -> list[int]:
    base, rem = divmod(n_samples, _BATCHES)
    return [base + 1] * rem + [base] * (_BATCHES - rem)


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _validate_batching(n_samples: int) -> None:
    if not _is_integer(n_samples):
        raise InvalidArgumentError(f"n_samples must be an integer, got {n_samples!r}")
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


def _pnorm_engine(project: Callable[[np.ndarray, np.random.Generator, int], np.ndarray],
                  a_arr: np.ndarray, ps: np.ndarray, n_samples: int, seed: int,
                  tag: int) -> tuple[EstimateRecord, ...]:
    """One record per order in ``ps``, every order reduced from the same draws.

    ``project(u, rng, m)`` draws m values of <X, u>.  The draws use
    u = a / max|a_i| and every record is max|a_i| times the norm of <X, u>,
    so scaling ``a`` by a power of two scales the records by exactly that
    factor, however small or large, as long as they stay normal doubles.
    """
    # a zero vector projects to 0 and takes the zero record below
    scale = float(np.max(np.abs(a_arr))) or 1.0
    unit = a_arr / scale

    def log_abs(s: np.ndarray) -> np.ndarray:
        # a non-finite projection is caught through the max below
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(np.abs(s))

    stats, weights = _batch_stats(lambda rng, m: project(unit, rng, m), log_abs,
                                  n_samples, seed, tag)
    seed = int(seed) & _MASK64
    logs = np.concatenate(stats)
    top = float(np.max(logs))
    if top == -math.inf:
        # every projection was exactly 0
        return tuple(EstimateRecord(0.0, 0.0, n_samples, seed, _BATCHES) for _ in ps)
    overflow = OutOfRangeError(
        "sum a_i X_i overflows double precision; rescale the coefficients")
    if not math.isfinite(top):
        raise overflow
    shifted = logs - top
    starts = np.cumsum([0] + [len(batch) for batch in stats[:-1]])
    records = []
    for p in map(float, ps):
        # batch means of |<X, u>|^p / e^{p top}, each in [0, 1]
        means = np.add.reduceat(np.exp(p * shifted), starts) / weights
        mean = float(np.sum(means * weights) / n_samples)
        se = float(np.std(means, ddof=1)) / math.sqrt(_BATCHES)
        norm = math.exp(top + math.log(mean) / p)
        value, stderr = scale * norm, scale * (norm * se / (mean * p))
        if not (math.isfinite(value) and math.isfinite(stderr)):
            raise overflow
        records.append(EstimateRecord(value, stderr, n_samples, seed, _BATCHES))
    return tuple(records)


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
    ps = _orders(p, 2.0, MAX_MOMENT_ORDER, OutOfRangeError)
    if not np.any(cv.array != 0.0):
        raise InvalidArgumentError("coefficient vector must be nonzero")
    _validate_batching(n_samples)
    records = _pnorm_engine(functools.partial(_project, family), cv.array, ps, n_samples,
                            seed, _TAG_PNORM)
    return records[0] if np.ndim(p) == 0 else records


def estimate_fourth_moment(family: Family, coordinate: int, n_samples: int,
                           seed: int) -> EstimateRecord:
    """Monte-Carlo E X_j^4: the engine's v = ||X_j||_4 as v^4, with stderr
    4 v^3 se(v), the batch-means standard error of the mean of X_j^4."""
    if not _is_integer(coordinate) or not (0 <= coordinate < family.n):
        raise InvalidArgumentError(
            f"coordinate must be an integer in [0, {family.n}), got {coordinate!r}")
    _validate_batching(n_samples)
    unit = (np.arange(family.n) == coordinate).astype(float)
    (rec,) = _pnorm_engine(functools.partial(_project, family), unit, np.array([4.0]),
                           n_samples, seed, _TAG_MOMENT4)
    return EstimateRecord(rec.value ** 4, 4.0 * rec.value ** 3 * rec.stderr, n_samples,
                          rec.seed, _BATCHES)


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

    The twin X* has iid coordinates drawn from the ball's closed-form
    marginal (``_sample_ball_twin``), so each X*_i matches the law of X_i
    exactly.
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
    ps = _orders(p, 3.0, MAX_MOMENT_ORDER, OutOfRangeError)
    _validate_batching(n_samples)
    deps = _pnorm_engine(functools.partial(_project, ball), cv.array, ps, n_samples, seed,
                         _TAG_NA_DEPENDENT)
    indeps = _pnorm_engine(lambda u, rng, m: _sample_ball_twin(ball, rng, m) @ u, cv.array,
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
