"""Monte-Carlo ground truth for moment surrogates.

Reproducibility contract: every estimator draws its rows in order from one
generator seeded with the child seed (seed, stream tag), in chunks of at most
``_CHUNK_ENTRIES`` entries of the draw's width, so for that budget and a
fixed BLAS build a record is a pure function of (seed, n_samples).  A draw
that goes through a BLAS matvec (the live columns of exp, cube, products and
balls at q != 2) may move in its last bit with the rows of each chunk,
because gemv may round the last rows of a call through another kernel; the
Gaussian draw does not.  ``_child_seed`` is the only seed derivation: report
rows and acceptance checks use it too.  The chunks only bound the memory of
a draw: the rows are iid, so every estimate takes the standard error of the
mean of all of them, propagated through the 1/p power by the delta method,
and reports the effective sample size (sum w)^2 / sum w^2 of its weights.

Every ball draw is ``_ball_parts``, the first k coordinates of the
Barthe-Guedon-Mendelson-Naor form X = r eps y / (sum y_i^q + W)^{1/q}.  One
engine, ``_pnorm_engine``, serves every moment estimator (p-norms, the
dependent/independent comparison, and fourth moments as p = 4 on e_j).  It
draws the projection S = <X, u> with u = a / max|a_i| from a draw plan built
once per estimate (``_projector``), which draws only the variates the law of
S needs.  Coordinates with u_i = 0 are never drawn: products, the cube and
the independent twin draw their k live columns, and balls at q != 2 the
k-coordinate marginal, whose Gamma((n - k)/q + 1) term absorbs the rest.
The Gaussian and the Euclidean ball are rotation invariant, so there S is
drawn in one dimension.  Linear tails are Laplace laws, a Gaussian scale
mixture eps E = sqrt(2 E') Z, so their S is Z sqrt(2 sum_g w_g^2 G_g) with
G_g ~ Gamma(count_g) over the distinct weights w_g = |u_i| / rate_i: equal
weights pool into one draw and no signs are drawn.  The engine joins the
chunks' log|S| into one vector L and reduces each order in linear space:
w = exp(p (L - max L)) stays in [0, 1], the p-norm is
max|a_i| e^{max L + log(mean w) / p}, and the standard error of mean w
comes from sum (w - mean w)^2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .coeffs import _orders, as_coefficients
from .errors import InvalidArgumentError, OutOfRangeError
from .families import Family, GaussianStd, ProductFamily, UniformBall, UniformCube
from .tails import TailFunction

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

# entries of the (rows, width) draw of one chunk, at most, where width is the
# columns a draw plan takes per row; every chunk but the last has
# max(1, _CHUNK_ENTRIES // width) rows
_CHUNK_ENTRIES = 2 ** 15

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
    """One Monte-Carlo estimate with the standard error of its iid samples.

    ``ess`` is the effective sample size (sum w)^2 / sum w^2 of the weights
    w the estimate averages (|S|^p for a p-norm, the hit indicator for a
    joint tail), and ``top_share`` is max w / sum w, the share of the largest
    one.  A few dominant samples show as a small ``ess`` and a large
    ``top_share``; the standard error alone does not show them.
    """

    value: float
    stderr: float
    n_samples: int
    seed: int
    ess: float
    top_share: float


# -- samplers -----------------------------------------------------------------

def _random_signs(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Give every entry of the float64 array ``x`` an independent symmetric
    sign, in place, and return ``x``: one random bit per entry is XORed into
    the IEEE sign bit, so |x| keeps its bits.

    The bits are the generator's raw 64-bit words, unpacked in little-endian
    byte order on every platform; ``Generator.bytes`` would cost about 10 us
    more per call, as much as the whole sign draw on a small chunk.
    """
    words = x.view(np.uint64)
    raw = rng.bit_generator.random_raw((x.size + 63) // 64).astype("<u8", copy=False)
    bits = np.unpackbits(raw.view(np.uint8), count=x.size).reshape(x.shape)
    words ^= np.left_shift(bits, 63, dtype=np.uint64)
    return x


def _sample_tails(groups: Sequence[tuple[TailFunction, np.ndarray]], width: int,
                  rng: np.random.Generator, size: int) -> np.ndarray:
    """(size, width) independent symmetric coordinates, |X_i| = N_i^{-1}(E_i)
    with E_i ~ Exp(1), one inverse call per (tail, columns) group; the
    groups' columns partition range(width)."""
    mags = rng.standard_exponential((size, width))
    # each inverse replaces its exponentials, so a chunk holds no third
    # array of its size while the signs are drawn
    if len(groups) == 1:
        mags = groups[0][0].inverse(mags)
    else:
        for tail, cols in groups:
            mags[:, cols] = tail.inverse(mags[:, cols])
    return _random_signs(mags, rng)


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
    # in place: a chunk holds three arrays of its size, not five
    y = gam ** (1.0 / q)
    y *= u
    u **= q
    u *= gam
    return y, u


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
        h *= 2.0
        # a one-term row sum is the term itself: the same bits as einsum's,
        # without its call overhead
        h += g[:, 0] * g[:, 0] if k == 1 else np.einsum("ij,ij->i", g, g)
        return g, np.sqrt(h, out=h)
    mags, powers = _gamma_root(q, rng, (m, k))
    h = rng.standard_gamma((n - k) / q + 1.0, size=m)
    # at q = 1 mags is powers, so the row sums come before the signs
    h += powers[:, 0] if k == 1 else np.einsum("ij->i", powers)
    del powers   # one chunk-sized array fewer while the signs are drawn
    return _random_signs(mags, rng), np.power(h, 1.0 / q, out=h)


def _sample_ball_twin(ball: UniformBall, rng: np.random.Generator, size: int,
                      k: int) -> np.ndarray:
    """(size, k) iid coordinates with the ball's marginal law, (|X*_i| / r)^q
    ~ Beta(1/q, (n-1)/q + 1), the law of (|X_i| / r)^q.

    q = 1 inverts the Beta(1, n) CDF: |X*_i| / r = 1 - (1 - U)^{1/n}.  Other q
    draw each coordinate as the k = 1 marginal of ``_ball_parts``.
    """
    n, q = ball.n, ball.q
    if q == 1.0:
        mags = np.expm1(np.log1p(-rng.random((size, k))) / n)
        mags *= -ball.r
        return _random_signs(mags, rng)
    numerator, denom = _ball_parts(ball, rng, size * k, 1)
    scaled = np.divide(ball.r, denom, out=denom)
    scaled *= numerator[:, 0]
    return scaled.reshape(size, k)


def sample(family: Family, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` iid vectors from the family as a (size, n) array."""
    if size < 1:
        raise InvalidArgumentError(f"sample size must be >= 1, got {size}")
    if isinstance(family, ProductFamily):
        return _sample_tails(family.tail_columns, family.n, rng, size)
    if isinstance(family, UniformBall):
        numerator, denom = _ball_parts(family, rng, size, family.n)
        return numerator * (family.r / denom)[:, None]
    if isinstance(family, GaussianStd):
        return rng.standard_normal((size, family.n))
    if isinstance(family, UniformCube):
        return (rng.random((size, family.n)) * 2.0 - 1.0) * math.sqrt(3.0)
    raise InvalidArgumentError(f"unknown family {type(family).__name__}")


# -- draw plans -------------------------------------------------------------------

# ``draw(rng, m)`` returns m iid draws of one projection as an (m,) vector
Draw = Callable[[np.random.Generator, int], np.ndarray]


def _laplace_mixture(weights: np.ndarray) -> tuple[Draw, int]:
    """The plan of S = sum_i w_i L_i for iid standard Laplace L_i and w_i > 0.

    L = sqrt(2 E) Z with E ~ Exp(1) and Z ~ N(0, 1), so given the E_i, S is
    normal with variance 2 sum_i w_i^2 E_i; the E_i of equal weights sum to
    one Gamma(count) draw.  S = w_max Z sqrt(2 sum_g (w_g / w_max)^2 G_g)
    over the distinct weights w_g, taken in increasing order so that the
    draw does not depend on the order of the coordinates.  Every count 1 is
    an exponential draw, which is cheaper than ``standard_gamma(1.0)``.
    """
    values, counts = np.unique(weights, return_counts=True)
    top = float(values[-1])
    coef = 2.0 * (values / top) ** 2
    width = values.size
    exponential = bool(np.all(counts == 1))
    # one distinct weight draws vectors with a scalar shape, not a
    # one-column matrix
    shape = float(counts[0]) if width == 1 else counts.astype(float)

    def draw(rng: np.random.Generator, m: int) -> np.ndarray:
        size = m if width == 1 else (m, width)
        if exponential:
            mix = rng.standard_exponential(size)
        else:
            mix = rng.standard_gamma(shape, size=size)
        if width == 1:
            v = mix
            v *= coef[0]
        else:
            v = mix @ coef
        np.sqrt(v, out=v)
        v *= rng.standard_normal(m)
        v *= top
        return v

    return draw, width


def _projector(family: Family, u: np.ndarray) -> tuple[Draw, int]:
    """The draw plan of S = <X, u> for a nonzero u: ``(draw, width)``, where
    ``draw(rng, m)`` returns m iid draws of S as an (m,) vector and ``width``
    is the number of columns it draws per row, which sizes the chunks.

    Only the k coordinates with u_i != 0 are drawn.  The Gaussian and the
    Euclidean ball are rotation invariant, so S has the law of ||u||_2 X_1,
    the k = 1 marginal for the ball.  Other balls draw the signed numerator
    of the k live coordinates, whose H ~ Gamma((n - k)/q + 1) stands for the
    others, and divide each row once.  The cube and products of non-linear
    tails draw their live columns, the latter by the live tails' column
    groups; products of linear tails draw the Gaussian scale mixture of
    ``_laplace_mixture`` on |u_i| / rate_i.
    """
    live = np.flatnonzero(u)
    coefs, k = u[live], live.size
    if isinstance(family, GaussianStd):
        norm = float(np.linalg.norm(u))
        return (lambda rng, m: norm * rng.standard_normal(m)), 1
    if isinstance(family, UniformBall):
        if family.q == 2.0:
            factor = family.r * float(np.linalg.norm(u))

            def ball_l2(rng: np.random.Generator, m: int) -> np.ndarray:
                numerator, denom = _ball_parts(family, rng, m, 1)
                return factor * numerator[:, 0] / denom

            return ball_l2, 1

        def ball(rng: np.random.Generator, m: int) -> np.ndarray:
            numerator, denom = _ball_parts(family, rng, m, k)
            return family.r * (numerator @ coefs) / denom

        return ball, k
    if isinstance(family, UniformCube):
        def cube(rng: np.random.Generator, m: int) -> np.ndarray:
            x = rng.random((m, k))
            x *= 2.0
            x -= 1.0
            return (x @ coefs) * math.sqrt(3.0)

        return cube, k
    if isinstance(family, ProductFamily):
        mask = u != 0.0
        position = np.cumsum(mask) - 1
        groups = tuple((tail, position[cols[mask[cols]]])
                       for tail, cols in family.tail_columns if mask[cols].any())
        if all(tail.kind == "linear" for tail, _ in groups):
            return _laplace_mixture(np.abs(coefs) / family.rates[live])
        return (lambda rng, m: _sample_tails(groups, k, rng, m) @ coefs), k
    raise InvalidArgumentError(f"unknown family {type(family).__name__}")


def _twin_projector(ball: UniformBall, u: np.ndarray) -> tuple[Draw, int]:
    """The draw plan of <X*, u> for the independent twin: its live coordinates."""
    live = np.flatnonzero(u)
    coefs, k = u[live], live.size
    return (lambda rng, m: _sample_ball_twin(ball, rng, m, k) @ coefs), k


# -- chunked engine -------------------------------------------------------------

def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _validate_sample_count(n_samples: int) -> None:
    if not _is_integer(n_samples):
        raise InvalidArgumentError(f"n_samples must be an integer, got {n_samples!r}")
    if n_samples < MIN_SAMPLES:
        raise InvalidArgumentError(
            f"n_samples must be >= {MIN_SAMPLES} for a stable standard error, got {n_samples}")


def _chunk_rows(n_samples: int, width: int) -> list[int]:
    """Row counts of the chunks that draw n_samples rows of ``width`` entries."""
    rows = max(1, _CHUNK_ENTRIES // width)
    full, rest = divmod(n_samples, rows)
    return [rows] * full + [rest] * (rest > 0)


def _chunks(draw: Draw, n_samples: int, width: int, seed: int,
            tag: int) -> Iterator[np.ndarray]:
    """Each chunk's draw of rows of ``width`` entries, in order, all from one
    generator."""
    rng = np.random.default_rng(_child_seed(seed, tag))
    for m in _chunk_rows(n_samples, width):
        yield draw(rng, m)


def _pnorm_engine(projector: Callable[[np.ndarray], tuple[Draw, int]], a_arr: np.ndarray,
                  ps: np.ndarray, n_samples: int, seed: int,
                  tag: int) -> tuple[EstimateRecord, ...]:
    """One record per order in ``ps``, every order reduced from the same draws.

    ``projector(u)`` is the draw plan ``(draw, width)`` of <X, u>, built once
    per estimate.  The draws use u = a / max|a_i| and every record is
    max|a_i| times the norm of <X, u>, so scaling ``a`` by a power of two
    scales the records by exactly that factor, however small or large, as
    long as they stay normal doubles.
    """
    seed = int(seed) & _MASK64
    # every projection exactly 0: equal weights, each a 1/n_samples share
    zero = EstimateRecord(0.0, 0.0, n_samples, seed, float(n_samples), 1.0 / n_samples)
    scale = float(np.max(np.abs(a_arr)))
    if scale == 0.0:
        return (zero,) * len(ps)
    draw, width = projector(a_arr / scale)
    parts = []
    for s in _chunks(draw, n_samples, width, seed, tag):
        # a non-finite projection is caught through the max below
        with np.errstate(divide="ignore", invalid="ignore"):
            parts.append(np.log(np.abs(s)))
    logs = np.concatenate(parts)
    top = float(np.max(logs))
    if top == -math.inf:
        return (zero,) * len(ps)
    overflow = OutOfRangeError(
        "sum a_i X_i overflows double precision; rescale the coefficients")
    if not math.isfinite(top):
        raise overflow
    shifted = logs - top
    records = []
    for p in map(float, ps):
        # w = |<X, u>|^p / e^{p top}, each in [0, 1] and the largest exactly 1
        w = np.exp(p * shifted)
        total = float(np.sum(w))
        mean = total / n_samples
        # the sample variance of w, summed by numpy rather than a BLAS dot
        # so that its bits do not depend on BLAS threading
        w -= mean
        var = float(np.sum(np.square(w, out=w))) / (n_samples - 1)
        se = math.sqrt(var / n_samples)
        norm = math.exp(top + math.log(mean) / p)
        value, stderr = scale * norm, scale * (norm * se / (mean * p))
        if not (math.isfinite(value) and math.isfinite(stderr)):
            raise overflow
        # sum w^2 = sum (w - mean)^2 + n mean^2, and max w = 1
        ess = total * total / ((n_samples - 1) * var + n_samples * mean * mean)
        records.append(EstimateRecord(value, stderr, n_samples, seed, ess, 1.0 / total))
    return tuple(records)


def estimate_pnorm(family: Family, a, p: float | Sequence[float], n_samples: int,
                   seed: int) -> EstimateRecord | tuple[EstimateRecord, ...]:
    """Monte-Carlo ||sum a_i X_i||_p with a delta-method standard error.

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
    _validate_sample_count(n_samples)
    records = _pnorm_engine(functools.partial(_projector, family), cv.array, ps, n_samples,
                            seed, _TAG_PNORM)
    return records[0] if np.ndim(p) == 0 else records


def estimate_fourth_moment(family: Family, coordinate: int, n_samples: int,
                           seed: int) -> EstimateRecord:
    """Monte-Carlo E X_j^4: the engine's v = ||X_j||_4 as v^4, with stderr
    4 v^3 se(v), the standard error of the mean of X_j^4."""
    if not _is_integer(coordinate) or not (0 <= coordinate < family.n):
        raise InvalidArgumentError(
            f"coordinate must be an integer in [0, {family.n}), got {coordinate!r}")
    _validate_sample_count(n_samples)
    unit = (np.arange(family.n) == coordinate).astype(float)
    (rec,) = _pnorm_engine(functools.partial(_projector, family), unit, np.array([4.0]),
                           n_samples, seed, _TAG_MOMENT4)
    # the weights X_j^4 are the same, so are their ESS and top share
    return EstimateRecord(rec.value ** 4, 4.0 * rec.value ** 3 * rec.stderr, n_samples,
                          rec.seed, rec.ess, rec.top_share)


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
    _validate_sample_count(n_samples)
    hits = sum(int(np.sum(np.all(np.abs(x) >= t[None, :], axis=1))) for x in _chunks(
        lambda rng, m: sample(family, rng, m), n_samples, family.n, seed, _TAG_JOINT))
    value = hits / n_samples
    if value < _JOINT_MIN_PROB:
        raise OutOfRangeError(
            f"joint tail estimate {value:.3e} is below the e^-10 reliability guard")
    stderr = math.sqrt(value * (1.0 - value) / n_samples)
    # the weights are the hit indicators: ESS hits, top share 1 / hits
    return EstimateRecord(value, stderr, n_samples, int(seed) & _MASK64, float(hits),
                          1.0 / hits)


def dependent_vs_independent(ball: UniformBall, a, p: float | Sequence[float],
                             n_samples: int, seed: int
                             ) -> tuple[EstimateRecord, EstimateRecord] | tuple[
                                 tuple[EstimateRecord, ...], tuple[EstimateRecord, ...]]:
    """||sum a_i X_i||_p for the ball against its independent-marginals twin.

    The twin X* has iid coordinates drawn from the ball's closed-form
    marginal (``_sample_ball_twin``), so each X*_i matches the law of X_i
    exactly.
    Both runs share the chunks but draw from disjoint streams of the seed.
    A scalar ``p`` returns ``(dep, indep)``; a sequence of orders returns
    ``(deps, indeps)``, one record per order, all from one draw of each,
    with entry i equal to the scalar call at ``p[i]``.
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
    _validate_sample_count(n_samples)
    deps = _pnorm_engine(functools.partial(_projector, ball), cv.array, ps, n_samples, seed,
                         _TAG_NA_DEPENDENT)
    indeps = _pnorm_engine(functools.partial(_twin_projector, ball), cv.array, ps, n_samples,
                           seed, _TAG_NA_INDEPENDENT)
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
    if cv.scale == 0.0:
        return 0.0
    # enumerate on the unit scale a / 2^e with max|a_i| < 2^e, so no sign sum
    # overflows; the power-of-two factor is exact, and so is scaling back
    _, e = math.frexp(cv.scale)
    sums = np.zeros(1)
    for v in np.ldexp(cv.array, -e):
        sums = np.concatenate([sums + v, sums - v])
    mags = np.abs(sums)
    top = float(np.max(mags))
    return float(np.ldexp(top * float(np.mean((mags / top) ** p)) ** (1.0 / p), e))
