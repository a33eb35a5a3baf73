"""Monte-Carlo ground truth for moment surrogates.

Reproducibility contract: every estimator draws all of its samples in order
from one generator seeded with the child seed (seed, stream tag), the p-norm
engine in one call of its draw plan, so for a fixed ``_CHUNK_ENTRIES`` and
BLAS build a record is a pure function of (seed, n_samples).

Every draw is a (parts, units) array: one column per independent unit, one
row per part.  An unweighted draw is (1, N), every sample a unit; the
defensive mixture (below) is (3, K), whose unit is one draw of variates
giving a row of each of its three parts.  ``_fill`` fills either in order
over the ``_blocks`` of its units, the only block loop: the budget
``_CHUNK_ENTRIES`` bounds only a block's (m, width) matrix of variates,
and each plan does its per-sample work (coefficients, weights) once over
the whole array.  A block draws its variates kind by kind, so the
records of balls at q not in {1, 2}, of the independent twin and of products
of non-linear tails, whose blocks draw two or more kinds, depend on the
budget beyond the last bit.  The defensive mixtures (below) of two or more
columns draw one stream of matrix variates, so the budget moves their
records only where a BLAS product rounds the last rows of a call, or a call
of one row, through another kernel, in the last bit.  Mixtures of one
column, whose products have one term, do not depend on it: the Gaussian
laws (``gauss`` and the ball at q = 2), linear tails whose weights
|u_i| / rate_i are all equal (e_j, a flat vector), and the cube on e_j.
The mixture's proposal
and its layout of units depend on the draw plan and N only, never on the
requested orders, so entry i of an order sequence equals the scalar call at
its order.  ``_child_seed`` is the only seed derivation
and holds the only seed rule: a seed is an integer (a Python or numpy int,
never a bool) taken mod 2^64, anything else raises ``InvalidArgumentError``,
and every record's ``seed`` is that reduction.  Report rows and acceptance
checks derive their seeds with it too.  Every estimate takes the standard
error of the sum of its units (the iid one of its samples for an
unweighted draw; conservative under the mixture's fixed shares), from the
residuals of its estimator over the units (the
mixture's regression on its control variates, below), propagated through
the 1/p power by the delta method, and reports the effective sample size
(sum W)^2 / sum W^2 and the top share max W / sum W of its weights W
summed over the units.

Every ball draw but the projections at q = 1 and 2 is ``_ball_parts``, the
first k coordinates of the Barthe-Guedon-Mendelson-Naor form
X = r eps y / (sum y_i^q + W)^{1/q}.  One engine, ``_pnorm_engine``, serves
every moment estimator (p-norms, the dependent/independent comparison, and
fourth moments as p = 4 on e_j).  It draws the projection S = <X, u> with
u = a / max|a_i| from a draw plan built once per estimate (``_projector``),
which draws only the variates the law of S needs.  Coordinates with u_i = 0
are never drawn: products, the cube and the independent twin draw their k
live columns, and balls at q not in {1, 2} the k-coordinate marginal, whose
Gamma((n - k)/q + 1) term absorbs the rest.  The Gaussian is rotation
invariant, so S = ||u||_2 g with g ~ N(0, 1).

The balls at q = 1 and 2 go through the identity itself: X = r Y / T^{1/q}
with iid Y_i of density proportional to e^{-|y|^q} and T = sum |Y_i|^q + W
~ Gamma(n/q + 1), and X is independent of T (Barthe, Guedon, Mendelson and
Naor, Ann. Probab. 33, 2005).  So E|<Y, u>|^p = E|<X, u>|^p E T^{p/q} / r^p,
and the p-norm of <X, u> is c_p times that of <Y, u>, with the exact
constant c_p = r (Gamma(n/q + 1) / Gamma(n/q + 1 + p/q))^{1/p}.  At q = 1
the Y_i are standard Laplace, and the plan draws the Laplace sum <Y, u>
through the linear-tail mixture below; at q = 2 they are N(0, 1/2), so
<Y, u> ~ N(0, ||u||_2^2 / 2) is drawn as a Gaussian (below).  The plan
carries c_p times the mixture's own constant, by which the engine
multiplies value and standard error; the weights, so the ESS and the top
share, are those of <Y, u>.

Linear tails are Laplace laws, a Gaussian scale mixture eps E = sqrt(2 E') Z,
so their S is sqrt(V) Z with Z ~ N(0, 1) independent of
V = 2 sum_g w_g^2 G_g, G_g ~ Gamma(count_g) over the distinct weights
w_g = |u_i| / rate_i: equal weights pool into one draw, exponentials (a
count of 1) come by inversion at every width, and no signs are drawn.  The
normal integrates out, E|S|^p = E|Z|^p E V^{p/2}, so the plan draws sqrt(V)
alone and carries c_p = ||Z||_p.  A Gaussian S = sigma g is a law of the
same form with one column of shape 1/2: |S| = sqrt(V) with V = 2 sigma^2 G
and G = g^2 / 2 ~ Gamma(1/2), drawn from one normal, and c_p = 1.  Plain
draws of either law put |S|^p at high p on a handful of rows, so both draw
V from a defensive mixture (``_mixture`` through ``_variance_mixture``;
Owen and Zhou, JASA 2000): the law itself and its exponential tilts
e^{eta V} / M(theta), eta = theta^2 / 2, at the saddles p / theta =
Lambda'(theta), Lambda = log M, of the orders 4 and ``MAX_MOMENT_ORDER``.
For a Laplace law these are the tilts of S integrated over the normal; for
a Gaussian they widen its variance to sigma^2 (p + 1).  A tilt takes the
same variates with other coefficients, so one draw of variates gives a
unit: one column, with a row of the law and a row of each tilt.  A draw of
N samples takes K = N - 2t units, t = N // 3: the law has the share
alpha_0 = K / N and each tilt alpha_j = t / N, so the first K - t units,
0 to 2, are lone.  Their tilt rows are drawn but set to s = 0 with zero
weights, so they enter no sum and leave max log|S| alone; the other N
entries are the real rows.  Each row carries the balance-heuristic weight
(Veach and Guibas, SIGGRAPH 1995) e^l = 1 / D, the density ratio of the law to the
whole mixture D = alpha_0 + sum_j alpha_j h_j, h_j = e^{eta_j V} /
M(theta_j), and the ratio r_1 = h_1 / D of the first tilt to it: e^l <=
1 / alpha_0, about 3, alpha_0 e^l + alpha_1 r_1 + alpha_2 r_2 = 1 on every
real row, and the means of e^l and of r_1 over the N real rows have
expectation 1.

The cube's S = sum_i c_i V_i, with c_i = sqrt(3) |u_i| and V_i uniform on
[-1, 1], draws from the same mixture (``_cube_mixture``): its law, the
folded map S = <U, 2c> - sum c_i of k uniforms U, and its tilts
e^{theta S} / M(theta), M(theta) = prod_i sinh(theta c_i) / (theta c_i),
at the saddles of the same two orders.  A tilt inverts the CDF of each
tilted V_i at the same uniforms, so one uniform row again gives a row of
every part.  The engine reads |S| alone and the law is symmetric, so a
tilt's ratio to the law enters D as cosh(theta S) / M(theta).  Every other
plan is unweighted, l = 0.

The engine takes L = log|S| in place over the one draw, and reduces each
order in one pass over it: w = e^{p (L - max L)} e^l lies in [0, e^l],
summed in place down the columns into the K unit sums W (``_unit_sums``),
and the p-norm is
c_p max|a_i| e^{max L} R^{1/p} for an estimate R of E w.  An unweighted
draw (l = 0) takes the sample mean R = sum w / N.  A weighted one takes
e^l and r_1 as control variates (Owen and Zhou): their unit sums
z_u = (E_u, R_u) have totals of expectation N, and R is the regression
estimate (sum W - g . c) / N, with the cross sums c = sum_u W_u x_u of the
centred x_u = z_u - mean z, and g = G^{-1} (sum_u z_u - N) for their Gram
matrix G = sum_u x_u x_u^T, built once per estimate (``_fit``).  So
R = sum_u omega_u W_u / N with unit weights omega_u = 1 - g . x_u that do
not depend on p and satisfy sum_u omega_u E_u = N: while every omega_u >= 0
the p-norm is a weighted power mean of |S| over the draw, nondecreasing in
p.  Where one is negative (or G is singular) the estimate keeps at every
order the self-normalised ratio R = sum W / sum E, a weighted power mean
too.  The standard error of R is sqrt(K var) / N over the units, where var
is the residual variance of the regression, (sum W^2 - (sum W)^2 / K -
b . c) / (K - 3) with the fitted slopes b = G^{-1} c, or that of the ratio
residuals W - R E over mean(e^l)^2, (sum W^2 - 2 R sum W E +
R^2 sum E^2) / (K - 1); both come from sums alone, taken by ``einsum``.
Where those sums cancel to less than ``_CANCELLATION`` of sum W^2 (a nearly
constant w, or one the controls fit closely), the engine sums the residuals
instead.  With l = 0 every sample is a unit and this is the plain sample
mean of |S|^p and its iid standard error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .coeffs import CoefficientVector, _orders, as_coefficients
from .errors import InvalidArgumentError, OutOfRangeError
from .families import (Family, GaussianStd, ProductFamily, UniformBall, UniformCube,
                       _check_dimension, _is_integer)
from .surrogates import gaussian_pnorm
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

# entries of a (units, width) matrix that a draw plan draws at once, at
# most: ``_fill`` takes a draw's units in ``_blocks``, of
# max(1, _CHUNK_ENTRIES // width) units each but the last
_CHUNK_ENTRIES = 2 ** 15

# stream tags keep estimators on disjoint streams of one master seed
_TAG_PNORM = 1
_TAG_MOMENT4 = 2
_TAG_JOINT = 3
_TAG_NA_DEPENDENT = 4
_TAG_NA_INDEPENDENT = 5


def _seed_word(seed: int) -> int:
    """The seed rule: an integer by ``_is_integer``, taken mod 2^64."""
    if not _is_integer(seed):
        raise InvalidArgumentError(f"seed must be an integer, got {seed!r}")
    return int(seed) % (1 << 64)


def _child_seed(seed: int, *path: int) -> int:
    """The first word of SeedSequence((seed mod 2^64, *path)); its zero
    padding makes (seed, tag, 0) the same child as (seed, tag).  A seed that
    is not an integer raises (``_seed_word``)."""
    ss = np.random.SeedSequence((_seed_word(seed), *path))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class EstimateRecord:
    """One Monte-Carlo estimate with the standard error of its independent
    units.  For a draw of the defensive mixture, ``value`` is the regression
    estimate on the mixture's control variates and ``stderr`` comes from its
    residuals (module docstring).

    ``ess`` is the effective sample size (sum W)^2 / sum W^2 of the weights W
    the estimate averages, summed over its independent units (e^l |S|^p for
    a p-norm, with the weight e^l of its draw, and the hit indicator for a
    joint tail), so at most the number of units (module docstring), and
    ``top_share`` is max W / sum W, the share of the largest one.  A few
    dominant units show as a small ``ess`` and a large ``top_share``; the
    standard error alone does not show them.
    """

    value: float
    stderr: float
    n_samples: int
    seed: int
    ess: float
    top_share: float


# -- samplers -----------------------------------------------------------------

def _random_signs(x: np.ndarray, rng: np.random.Generator, scratch=None) -> np.ndarray:
    """Give every entry of the float64 array ``x`` an independent symmetric
    sign, in place, and return ``x``: one random bit per entry is XORed into
    the IEEE sign bit, so |x| keeps its bits.  ``scratch``, a uint64 array of
    x's shape, holds the shifted bits (a new array if None).

    The bits are the generator's raw 64-bit words, unpacked in little-endian
    byte order on every platform; ``Generator.bytes`` would cost about 10 us
    more per call, as much as the whole sign draw on a small block.
    """
    words = x.view(np.uint64)
    raw = rng.bit_generator.random_raw((x.size + 63) // 64).astype("<u8", copy=False)
    bits = np.unpackbits(raw.view(np.uint8), count=x.size).reshape(x.shape)
    words ^= np.left_shift(bits, 63, dtype=np.uint64, out=scratch)
    return x


def _sample_tails(groups: Sequence[tuple[TailFunction, np.ndarray]], width: int,
                  rng: np.random.Generator, size: int) -> np.ndarray:
    """(size, width) independent symmetric coordinates, |X_i| = N_i^{-1}(E_i)
    with E_i ~ Exp(1), one inverse call per (tail, columns) group; the
    groups' columns partition range(width)."""
    mags = rng.standard_exponential((size, width))
    # each inverse replaces its exponentials, so a block holds no third
    # array of its size while the signs are drawn
    if len(groups) == 1:
        mags = groups[0][0].inverse(mags)
    else:
        for tail, cols in groups:
            mags[:, cols] = tail.inverse(mags[:, cols])
    return _random_signs(mags, rng)


def _gamma_root(q: float, rng: np.random.Generator, gam: np.ndarray, u: np.ndarray,
                y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(y, y^q) with y^q ~ Gamma(1/q, 1), drawn into the arrays gam, u and y
    of the draw's shape.

    q = 1 is an exponential draw into y.  Other q draw y = U G^{1/q} with
    G ~ Gamma(1 + 1/q) in gam and U uniform in u, which then holds
    y^q = U^q G ~ Gamma(1/q): a Gamma(1/q) draw raised to the power 1/q
    underflows to 0 at large q, this product does not.
    """
    if q == 1.0:
        e = rng.standard_exponential(out=y)
        return e, e
    rng.standard_gamma(1.0 + 1.0 / q, out=gam)
    rng.random(out=u)
    np.power(gam, 1.0 / q, out=y)
    y *= u
    u **= q
    u *= gam
    return y, u


def _ball_parts(ball: UniformBall, rng: np.random.Generator, m: int, k: int,
                work: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(signed numerator (m, k), row denominator (m,)) of the first k
    coordinates of X = r eps y / (sum y_i^q + W)^{1/q}.

    y_i^q ~ Gamma(1/q, 1) (``_gamma_root``), eps_i are symmetric signs and
    W ~ Exp(1); the other n - k coordinates and W merge into one
    H ~ Gamma((n - k)/q + 1).  k = n is the whole vector, k = 1 the marginal.
    At q = 2, y = |g| / sqrt(2) with g ~ N(0, 1) carries its own sign, and
    both parts are scaled by sqrt(2): g and sqrt(sum_{i<=k} g_i^2 + 2H).
    The projections at q = 1 and 2 do not come here (``_projector``); this
    q = 2 branch serves ``sample`` and the independent twin.
    Every array of the draw, the two parts too, lives in the rows of
    ``work``, a (4, >= m k) float buffer (a new one if None), so the blocks
    of one estimate reuse its memory.
    """
    n, q = ball.n, ball.q
    work = np.empty((4, m * k)) if work is None else work
    if q == 2.0:
        # a flat draw, so the twin's one-coordinate marginal draws no matrix
        g = rng.standard_normal(out=work[0, :m * k]).reshape(m, k)
        h = rng.standard_gamma((n - k) / 2.0 + 1.0, out=work[3, :m])
        h *= 2.0
        # a one-term row sum is the term itself: the same bits as einsum's,
        # without its call overhead
        h += (np.multiply(g[:, 0], g[:, 0], out=work[1, :m]) if k == 1
              else np.einsum("ij,ij->i", g, g, out=work[1, :m]))
        return g, np.sqrt(h, out=h)
    mags, powers = _gamma_root(q, rng, *(row[:m * k].reshape(m, k) for row in work[:3]))
    h = rng.standard_gamma((n - k) / q + 1.0, out=work[3, :m])
    # at q = 1 mags is powers, so the row sums come before the signs; row 0
    # of work is free once y^q is drawn, and takes the row sums and signs
    h += powers[:, 0] if k == 1 else np.einsum("ij->i", powers, out=work[0, :m])
    signs = work[0, :m * k].view(np.uint64).reshape(m, k)
    return _random_signs(mags, rng, signs), np.power(h, 1.0 / q, out=h)


def _sample_ball_twin(ball: UniformBall, rng: np.random.Generator, size: int, k: int,
                      work: np.ndarray | None = None) -> np.ndarray:
    """(size, k) iid coordinates with the ball's marginal law, (|X*_i| / r)^q
    ~ Beta(1/q, (n-1)/q + 1), the law of (|X_i| / r)^q, in the rows of
    ``work`` as for ``_ball_parts``.

    q = 1 inverts the Beta(1, n) CDF: |X*_i| / r = 1 - (1 - U)^{1/n}.  Other q
    draw each coordinate as the k = 1 marginal of ``_ball_parts``.
    """
    n, q = ball.n, ball.q
    work = np.empty((4, size * k)) if work is None else work
    if q == 1.0:
        mags = rng.random(out=work[0, :size * k].reshape(size, k))
        np.expm1(np.divide(np.log1p(np.negative(mags, out=mags), out=mags), n, out=mags), out=mags)
        mags *= -ball.r
        return _random_signs(mags, rng, work[1, :size * k].view(np.uint64).reshape(size, k))
    numerator, denom = _ball_parts(ball, rng, size * k, 1, work)
    scaled = np.divide(ball.r, denom, out=denom)
    scaled *= numerator[:, 0]
    return scaled.reshape(size, k)


def sample(family: Family, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` iid vectors from the family as a (size, n) array."""
    _check_dimension(size, "sample size")
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

class _Draw(NamedTuple):
    """One estimate's draw of its projection: ``s``, a (parts, units) array
    (module docstring), and for a weighted plan the weights ``likelihood`` =
    e^l, the density ratios of the law to an importance-sampling proposal,
    and the ratios ``ratio`` = r_1 of a second density, a tilt of the law,
    to the proposal, both of the shape of ``s``; None for an unweighted
    plan, whose l = 0."""

    s: np.ndarray
    likelihood: np.ndarray | None = None
    ratio: np.ndarray | None = None


class _Plan(NamedTuple):
    """The draw plan of one projection: ``draw(rng, n)``, which returns the
    ``_Draw`` of all n samples of one estimate, and ``factor``, the exact
    constant c_p by which the p-norm of the draws is multiplied to give that
    of the projection (1.0 for a plan that draws the projection itself)."""

    draw: Callable[[np.random.Generator, int], _Draw]
    factor: Callable[[float], float] = lambda p: 1.0


def _blocks(size: int, width: int) -> Iterator[tuple[int, int, np.ndarray]]:
    """(lo, hi, work) over the units [0, size) of a draw whose units take
    ``width`` matrix entries each: every block but the last has
    max(1, _CHUNK_ENTRIES // width) units, and ``work`` is one (4, m width)
    float buffer, m the units of the largest block, shared by all blocks, so
    a block allocates no array of its size."""
    rows = max(1, _CHUNK_ENTRIES // width)
    work = np.empty((4, min(rows, size) * width))
    for lo in range(0, size, rows):
        yield lo, min(lo + rows, size), work


def _fill(rng: np.random.Generator, out: np.ndarray, width: int, rows) -> np.ndarray:
    """``out``, a (parts, units) array, filled in order over the ``_blocks``
    of its units by ``rows(rng, block, work)``, which draws the (m, width)
    matrix of a block into ``work`` and writes the parts of its m units into
    the (parts, m) view ``block`` of ``out``."""
    for lo, hi, work in _blocks(out.shape[1], width):
        rows(rng, out[:, lo:hi], work)
    return out


def _filled(width: int, rows) -> _Plan:
    """The unweighted plan whose draw fills a new (1, n) array by ``_fill``."""
    return _Plan(lambda rng, size: _Draw(_fill(rng, np.empty((1, size)), width, rows)))


# the defensive mixture (``_mixture``): the orders whose saddles its two
# tilts sit at
_MIXTURE_ORDERS = (4.0, MAX_MOMENT_ORDER)
_SADDLE_STEPS = 50


def _saddles(r2: np.ndarray, shapes: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """theta^2 at the saddle p / theta = Lambda'(theta) of each order p, for
    Lambda(theta) = -sum_g k_g log(1 - theta^2 r_g^2), given the squares r2
    of r_g in (0, 1] with max r_g = 1 and the Gamma shapes k_g.

    In x = theta^2 the saddle solves f(x) = sum_g k_g 2 x r_g^2 /
    (1 - x r_g^2) = p, with f convex and increasing on [0, 1).  Newton's
    method from x = p / (p + 2 k_top), where f >= p, falls monotonically
    onto the root, which is that start when there is one scale (x = p /
    (p + 1) for the Gaussian's k = 1/2).  Any theta keeps the estimates
    unbiased, so the steps stop at 1e-12 relative.  The sums over g are
    matrix products with a vector of ones, which cost less than ``np.sum``
    along an axis and give a one-term sum its term.
    """
    slopes = 2.0 * shapes * r2
    ones = np.ones(r2.size)
    x = orders / (orders + 2.0 * float(shapes[-1]))
    for _ in range(_SADDLE_STEPS):
        gap = 1.0 - np.multiply.outer(x, r2)
        excess = (slopes * x[:, None] / gap) @ ones - orders
        step = excess / ((slopes / (gap * gap)) @ ones)
        x -= step
        if not np.max(step / x) > 1e-12:
            break
    return x


class _Tilts(NamedTuple):
    """The per-law parts of a defensive mixture (``_mixture``): a law and its
    exponential tilts at the saddles of the two orders of
    ``_MIXTURE_ORDERS``, all drawn from one row of ``width`` variates.

    ``rows(rng, out, work)`` draws the (m, width) variates of a block into
    row 0 of the (4, >= m width) buffer ``work`` and writes the statistic y
    of each unit's three parts into the (3, m) view ``out``, the law's first.
    Tilt j has the density ratio h_j = e^{g_j(y)} / M(theta_j) to the law,
    0 <= g_1 <= g_2, and ``log_mgfs`` holds log M(theta_j); ``factors(y)``
    returns the arrays e^{-g_2(y)} and e^{g_1(y) - g_2(y)}, both in [0, 1],
    each computed the law's own way so that nothing overflows.
    ``finish(y)`` turns y in place into the draws s of the plan."""

    width: int
    rows: Callable[[np.random.Generator, np.ndarray, np.ndarray], None]
    log_mgfs: tuple[float, float]
    factors: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    finish: Callable[[np.ndarray], np.ndarray]


def _mixture(tilts: _Tilts, factor: Callable[[float], float]) -> _Plan:
    """The weighted plan that draws a law and its two tilts (``_Tilts``) as a
    defensive mixture with fixed shares; the plan's c_p is ``factor``.

    A draw of n samples is the (3, K) ``_Draw`` of K = n - 2t units, t =
    n // 3, filled by ``_fill``; the first K - t units are lone, their tilt
    rows set to s = e^l = r_1 = 0 (module docstring).  Each row carries the
    balance-heuristic weight e^l = 1 / D over the shares alpha_0 = K / n and
    alpha_j = t / n, and r_1 = h_1 / D, both from the factors e^{-g_2} and
    e^{g_1 - g_2} of the largest exponent g_2 out, so that no term
    overflows: D e^{-g_2} >= alpha_2 / M(theta_2).
    """
    inv_mgfs = [math.exp(-v) for v in tilts.log_mgfs]

    def draw(rng: np.random.Generator, n: int) -> _Draw:
        # n >= 3, so every part has rows
        tied = n // 3
        units = n - 2 * tied
        y = _fill(rng, np.empty((3, units)), tilts.width, tilts.rows)
        # D e^{-g_2} = alpha_0 e^{-g_2} + alpha_1 e^{g_1 - g_2} / M(theta_1)
        # + alpha_2 / M(theta_2), its reciprocal times e^{-g_2} is e^l and
        # times e^{g_1 - g_2} / M(theta_1) is r_1
        likelihood, ratio = tilts.factors(y)
        ratio *= inv_mgfs[0]
        scaled = likelihood * (units / n)
        scaled += ratio * (tied / n)
        scaled += tied / n * inv_mgfs[1]
        np.reciprocal(scaled, out=scaled)
        likelihood *= scaled
        ratio *= scaled
        s = tilts.finish(y)
        # the lone units' tilt rows are no samples: zero, they enter no sum
        for x in (s, likelihood, ratio):
            x[1:, :units - tied] = 0.0
        return _Draw(s, likelihood, ratio)

    return _Plan(draw, factor)


def _variance_mixture(scales: np.ndarray, shapes: np.ndarray,
                      factor: Callable[[float], float]) -> _Plan:
    """The weighted plan of s = sqrt(V), V = 2 sum_g w_g^2 G_g for increasing
    distinct scales w_g > 0 and independent G_g ~ Gamma(k_g) of the shapes
    k_g, drawn from the defensive ``_mixture`` of the law and two tilts of
    it; the plan's c_p is ``factor``.

    The exponential tilt e^{eta V} / M(theta), eta = theta^2 / 2 and
    M(theta) = prod_g (1 - theta^2 w_g^2)^{-k_g}, takes G_g ~ Gamma(k_g)
    with scale 1 / (1 - theta^2 w_g^2).  In units of w_max the tilt at
    theta_j, with theta_j^2 the saddle (``_saddles``) of order p_j in
    ``_MIXTURE_ORDERS``, so takes the same variates as the law with the
    coefficients 2 r_g^2 / (1 - theta_j^2 r_g^2) over the ratios r_g =
    w_g / w_max: the statistic of a row is V, with g_j = eta_j V.  A variate
    row has one column per scale: exponentials (every shape 1) by inversion,
    Gamma(1/2) (a Gaussian law, V = w^2 Z^2) as Z^2 / 2, at a quarter to a
    third of the cost of numpy's Gamma(1/2), and other shapes by
    ``standard_gamma``.  A block's units give V of all three parts in one
    product with the (3, width) matrix of coefficients.
    """
    top = float(scales[-1])
    ratios = scales / top
    r2 = ratios * ratios
    # eta and coefficients of each part, the law (the tilt at theta = 0)
    # first
    xs = _saddles(r2, shapes, np.array(_MIXTURE_ORDERS))
    gaps = 1.0 - np.multiply.outer(xs, r2)
    eta_1, eta_2 = (0.5 * xs).tolist()
    coefs = np.vstack([2.0 * r2, 2.0 * r2 / gaps])
    # the variates of a block, with their sign or halving in the
    # coefficients
    if np.all(shapes == 1.0):
        # log1p(-U) = -E costs about 0.6 of the ziggurat over a block
        coefs *= -1.0
        variates = lambda rng, mix: np.log1p(np.negative(rng.random(out=mix), out=mix), out=mix)
    elif np.all(shapes == 0.5):
        coefs *= 0.5
        variates = lambda rng, mix: np.square(rng.standard_normal(out=mix), out=mix)
    else:
        # a 0-d shape takes numpy's scalar Gamma path
        shape = shapes.squeeze()
        variates = lambda rng, mix: rng.standard_gamma(shape, out=mix)

    def rows(rng: np.random.Generator, out: np.ndarray, work: np.ndarray) -> None:
        m = out.shape[1]
        mix = variates(rng, work[0, :m * scales.size].reshape(m, -1))
        # one product into contiguous rows of work: the same bits as a
        # product into out, at half its cost for one column
        out[...] = np.dot(coefs, mix.T, out=work[1:].reshape(-1)[:3 * m].reshape(3, m))

    def finish(v: np.ndarray) -> np.ndarray:
        s = np.sqrt(v, out=v)
        s *= top
        return s

    def factors(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ref, gap = np.multiply(v, -eta_2), np.multiply(v, eta_1 - eta_2)
        return np.exp(ref, out=ref), np.exp(gap, out=gap)

    return _mixture(_Tilts(scales.size, rows, tuple((-(np.log(gaps) @ shapes)).tolist()),
                           factors, finish), factor)


def _cube_saddles(c: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """theta at the saddle p / theta = Lambda'(theta) of each order p, for
    Lambda(theta) = sum_i log(sinh b_i / b_i), b_i = theta c_i, given the
    c_i > 0.

    The saddle solves f(theta) = sum_i g(b_i) = p with g(b) = b coth b - 1,
    convex and increasing.  g(b) >= b - 1, so f >= p at theta = (p + k) /
    sum c_i over the k c_i, and Newton's method from there falls
    monotonically onto the root; it stops at 1e-12 relative.  With t =
    tanh b, g(b) = b / t - 1 and g'(b) = (1 - b / t) / t + b, both finite
    at a subnormal b, where coth b overflows.
    """
    ones = np.ones(c.size)
    theta = (orders + c.size) / (c @ ones)
    for _ in range(_SADDLE_STEPS):
        b = np.multiply.outer(theta, c)
        t = np.tanh(b)
        ratio = b / t
        step = ((ratio - 1.0) @ ones - orders) / (((1.0 - ratio) / t + b) @ c)
        theta -= step
        if not np.max(step / theta) > 1e-12:
            break
    return theta


def _cube_mixture(u: np.ndarray) -> _Plan:
    """The weighted plan of S = <X, u> on the cube for u with no zero entry:
    S = sum_i c_i V_i for iid V_i uniform on [-1, 1] and c_i = sqrt(3) |u_i|
    (a sign leaves the law of S as it is), drawn from the defensive
    ``_mixture`` of the law and its tilts e^{theta S} / M(theta) at the
    saddles (``_cube_saddles``) of the orders in ``_MIXTURE_ORDERS``.

    A variate row is k uniforms U_i.  The law's row is S = <U, 2c> -
    sum c_i.  Tilt j takes V_i of density proportional to e^{b_i v}, b_i =
    theta_j c_i, by inversion of the same uniforms: S = sum_i log1p(U_i
    expm1(2 b_i)) / theta_j - sum c_i, with M(theta) = prod_i sinh b_i /
    b_i.  The engine reads |S| alone and the law is symmetric, so each tilt
    enters the weight through its symmetric form cosh(theta_j S) / M(theta_j),
    g_j = log cosh(theta_j |S|).
    """
    # a subnormal c_i could round theta c_i to 0, where the saddle's and
    # M's ratios are 0 / 0; the smallest normal double in its place moves S
    # by less than 1e-307
    c = np.maximum(math.sqrt(3.0) * np.abs(u), np.finfo(float).tiny)
    offset = float(np.sum(c))
    scaled = 2.0 * c
    (theta_1, theta_2) = thetas = _cube_saddles(c, np.array(_MIXTURE_ORDERS)).tolist()
    b = np.multiply.outer(thetas, c)
    growth = np.expm1(2.0 * b)
    steps = [np.full(c.size, 1.0 / theta) for theta in thetas]

    def rows(rng: np.random.Generator, out: np.ndarray, work: np.ndarray) -> None:
        mix = rng.random(out=work[0, :out.shape[1] * c.size].reshape(-1, c.size))
        np.matmul(mix, scaled, out=out[0])
        out[0] -= offset
        inverted = work[1, :mix.size].reshape(mix.shape)
        for row, rates, step in zip(out[1:], growth, steps):
            np.log1p(np.multiply(mix, rates, out=inverted), out=inverted)
            np.matmul(inverted, step, out=row)
            row -= offset

    def factors(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # with x = |S|, A = e^{-theta_1 x}, D = e^{-(theta_2 - theta_1) x} and
        # B = A D = e^{-theta_2 x}, all in [0, 1]: 1 / cosh(theta_2 x) =
        # 2 B / (1 + B^2) and cosh(theta_1 x) / cosh(theta_2 x) =
        # D (1 + A^2) / (1 + B^2)
        x = np.abs(s)
        a = np.multiply(x, -theta_1)
        np.exp(a, out=a)
        d = np.multiply(x, theta_1 - theta_2, out=x)
        np.exp(d, out=d)
        ref = np.multiply(a, d)
        shrink = np.square(ref)
        shrink += 1.0
        np.reciprocal(shrink, out=shrink)
        ref *= shrink
        ref *= 2.0
        gap = np.square(a, out=a)
        gap += 1.0
        gap *= d
        gap *= shrink
        return ref, gap

    return _mixture(_Tilts(c.size, rows, tuple(np.sum(np.log(np.sinh(b) / b), axis=1).tolist()),
                           factors, lambda s: s), lambda p: 1.0)


def _laplace_mixture(weights: np.ndarray) -> _Plan:
    """The weighted plan of S = sum_i w_i L_i for iid standard Laplace L_i and
    w_i > 0: L = sqrt(2 E) Z with E ~ Exp(1) and Z ~ N(0, 1), so S = sqrt(V) Z
    with V = 2 sum_i w_i^2 E_i independent of Z, and E|S|^p = E|Z|^p E V^{p/2}.
    The plan draws s = sqrt(V) through ``_variance_mixture``, the E_i of equal
    weights summed to one Gamma(count) column (increasing weights, so the draw
    does not depend on the order of the coordinates), and its ``factor`` is
    ||Z||_p.  The tilt e^{eta V} / M(theta) of V is the tilt e^{theta s} /
    M(theta) of the law of S integrated over the normal."""
    values, counts = np.unique(weights, return_counts=True)
    return _variance_mixture(values, counts.astype(float), gaussian_pnorm)


def _gaussian_mixture(sigma: float) -> _Plan:
    """The weighted plan of |S| for S ~ N(0, sigma^2): V = S^2 = 2 sigma^2 G
    with G = Z^2 / 2 ~ Gamma(1/2), one column of ``_variance_mixture``, whose
    tilts e^{eta V} / M(theta) widen the normal to the variance sigma^2 / (1 -
    x) at the saddle x = p / (p + 1) of each order; its c_p is 1."""
    return _variance_mixture(np.array([sigma]), np.array([0.5]), lambda p: 1.0)


def _projector(family: Family, u: np.ndarray) -> _Plan:
    """The draw plan of S = <X, u> for a nonzero u.

    Only the k coordinates with u_i != 0 are drawn.  The Gaussian is
    rotation invariant, so S ~ N(0, ||u||_2^2), drawn through
    ``_gaussian_mixture``.  The balls at q = 1 and 2 draw <Y, u> of the BGMN
    identity (module docstring) and multiply its plan's constant by the
    identity's c_p: at q = 1 the sum of iid standard Laplace Y_i, through
    ``_laplace_mixture`` on |u_i|, and at q = 2 the Gaussian
    N(0, ||u||_2^2 / 2).  Other balls draw the signed numerator of the k
    live coordinates, whose H ~ Gamma((n - k)/q + 1) stands for the others,
    and divide each row once.  The cube draws the defensive mixture of
    ``_cube_mixture`` on its live coefficients, products of linear tails
    that of ``_laplace_mixture`` on |u_i| / rate_i, and products of
    non-linear tails their live columns, by the live tails' column groups.
    """
    live = np.flatnonzero(u)
    coefs, k = u[live], live.size
    if isinstance(family, GaussianStd):
        return _gaussian_mixture(float(np.linalg.norm(u)))
    if isinstance(family, UniformBall):
        n, q, r = family.n, family.q, family.r
        if q in (1.0, 2.0):
            # the BGMN identity: c_p = r (Gamma(n/q + 1) / Gamma(n/q + 1 + p/q))^{1/p}
            plan = (_laplace_mixture(np.abs(coefs)) if q == 1.0 else
                    _gaussian_mixture(float(np.linalg.norm(u)) / math.sqrt(2.0)))
            log_gamma = math.lgamma(n / q + 1.0)
            return plan._replace(factor=lambda p: plan.factor(p) * (
                r * math.exp((log_gamma - math.lgamma(n / q + 1.0 + p / q)) / p)))

        def ball(rng: np.random.Generator, out: np.ndarray, work: np.ndarray) -> None:
            numerator, denom = _ball_parts(family, rng, out.shape[1], k, work)
            row = np.matmul(numerator, coefs, out=out[0])
            row *= r
            row /= denom

        return _filled(k, ball)
    if isinstance(family, UniformCube):
        return _cube_mixture(coefs)
    if isinstance(family, ProductFamily):
        mask = u != 0.0
        position = np.cumsum(mask) - 1
        groups = tuple((tail, position[cols[mask[cols]]])
                       for tail, cols in family.tail_columns if mask[cols].any())
        if all(tail.kind == "linear" for tail, _ in groups):
            return _laplace_mixture(np.abs(coefs) / family.rates[live])
        return _filled(k, lambda rng, out, _: np.matmul(
            _sample_tails(groups, k, rng, out.shape[1]), coefs, out=out[0]))
    raise InvalidArgumentError(f"unknown family {type(family).__name__}")


def _twin_projector(ball: UniformBall, u: np.ndarray) -> _Plan:
    """The draw plan of <X*, u> for the independent twin: its live coordinates."""
    live = np.flatnonzero(u)
    coefs, k = u[live], live.size
    return _filled(k, lambda rng, out, work: np.matmul(
        _sample_ball_twin(ball, rng, out.shape[1], k, work), coefs, out=out[0]))


# -- the engine -----------------------------------------------------------------

def _validate_sample_count(n_samples: int) -> int:
    """The sample count as an int: an integer by ``_is_integer``, at least
    ``MIN_SAMPLES``."""
    if not _is_integer(n_samples):
        raise InvalidArgumentError(f"n_samples must be an integer, got {n_samples!r}")
    if n_samples < MIN_SAMPLES:
        raise InvalidArgumentError(
            f"n_samples must be >= {MIN_SAMPLES} for a stable standard error, got {n_samples}")
    return int(n_samples)


def _unit_sums(x: np.ndarray) -> np.ndarray:
    """The sums of the (parts, units) array ``x`` over its units: rows 1..
    are added in place into row 0, which is returned."""
    for row in x[1:]:
        x[0] += row
    return x[0]


# the variance from sums loses about log10(sum W^2 / spread) digits to
# cancellation, where spread is the residual sum of squares; below this share
# of sum W^2 the engine sums the residuals themselves
_CANCELLATION = 2.0 ** -8


class _Fit(NamedTuple):
    """The regression of a weighted draw's unit sums on its two controls
    (``_fit``): ``controls`` (2, K), the centred unit sums x_u = z_u - mean z
    of z_u = (E_u, R_u), the sums of e^l and of r_1 over unit u;
    ``inverse``, the entries (00, 01, 11) of G^{-1} for their Gram matrix
    G = sum_u x_u x_u^T; and ``slopes``, g = G^{-1} (sum_u z_u - N)."""

    controls: np.ndarray
    inverse: tuple[float, float, float]
    slopes: tuple[float, float]


def _fit(likelihoods: np.ndarray, ratios: np.ndarray, n: int) -> _Fit | None:
    """The ``_Fit`` of the unit sums E_u and R_u of a weighted draw of n
    samples (``_unit_sums`` of its e^l and r_1, ``_Draw``), or None where G is
    not positive definite or a unit weight omega_u = 1 - g . x_u is
    negative.

    The totals of E_u and of R_u over the units are those of e^l and r_1
    over the N real rows, of expectation N.  sum_u omega_u = K and
    sum_u omega_u x_u = 0, so sum_u omega_u E_u = sum E - x_E^T G g = N."""
    controls = np.stack((likelihoods, ratios))
    sums = np.sum(controls, axis=1)
    controls -= (sums / likelihoods.size)[:, None]
    (g00, g01), (_, g11) = np.einsum("ij,kj->ik", controls, controls).tolist()
    det = g00 * g11 - g01 * g01
    if not det > 0.0:
        return None
    inverse = (g11 / det, -g01 / det, g00 / det)
    x0, x1 = (sums - n).tolist()
    slopes = (inverse[0] * x0 + inverse[1] * x1, inverse[1] * x0 + inverse[2] * x1)
    if not float(np.max(np.einsum("i,ij->j", np.array(slopes), controls))) <= 1.0:
        return None
    return _Fit(controls, inverse, slopes)


def _pnorm_engine(plan: _Plan, cv: CoefficientVector, ps: np.ndarray, n_samples: int,
                  seed: int, tag: int) -> tuple[EstimateRecord, ...]:
    """One record per order in ``ps``, every order reduced from the same draws.

    ``plan`` is the draw plan of <X, u> for the nonzero vector's
    u = a / max|a_i| (``cv.unit``), built once per estimate by the caller.
    A weighted plan's draw carries its weights e^l and the ratios r_1
    (``_Draw``), and its records are the regression estimates on
    the control variates e^l and r_1 (``_fit``) with the error bar of the
    regression residuals, or, where a unit weight of that regression is
    negative, the self-normalised ratio estimates with their delta-method
    error bar; the ESS and top share are those of the weights e^l |S|^p
    summed over the units (module docstring).  Either way a record is a
    weighted power mean of the draws |S| with weights that do not depend on
    p, so the records are nondecreasing in p.  Every record is multiplied by the plan's c_p, and
    is max|a_i| times the norm of <X, u>, so scaling ``a`` by a power of two
    scales the records by exactly that factor, however small or large, as
    long as they stay normal doubles.  The inputs are checked by the caller
    (``_moment_inputs``); the laws are continuous, so no draw is all zero.
    """
    seed = _seed_word(seed)
    s, likelihood, ratios = plan.draw(np.random.default_rng(_child_seed(seed, tag)), n_samples)
    units = s.shape[1]
    # in place, as the engine owns the draws; a non-finite projection is
    # caught through the max below
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(np.abs(s, out=s), out=s)
    top = float(np.max(logs))
    overflow = OutOfRangeError(
        "sum a_i X_i overflows double precision; rescale the coefficients")
    if not math.isfinite(top):
        raise overflow
    shifted = np.subtract(logs, top, out=logs)
    # an unweighted plan has l = 0: e^l = 1 and its sums are n, so its
    # records are the plain sample mean and its standard error
    fit = None
    if likelihood is not None:
        # e^l and r_1 summed over the units; the loop below still takes e^l
        # entry by entry, r_1 not
        likelihoods = _unit_sums(likelihood.copy())
        fit = _fit(likelihoods, _unit_sums(ratios), n_samples)
    if fit is not None:
        # the regression's omega_u E_u sum to N (``_fit``)
        mean_likelihood = 1.0
    elif likelihood is not None:
        mean_likelihood = float(np.sum(likelihoods)) / n_samples
        likelihood_square_sum = float(np.einsum("i,i->", likelihoods, likelihoods))
    else:
        mean_likelihood, likelihood_square_sum = 1.0, float(n_samples)
    records = []
    w = np.empty(s.shape)
    for p in map(float, ps):
        # w = e^l |<X, u>|^p / e^{p top}, each in [0, e^l], summed over the
        # units into W
        np.multiply(shifted, p, out=w)
        np.exp(w, out=w)
        if likelihood is not None:
            w *= likelihood
        unit_w = _unit_sums(w)
        # sums only, by numpy rather than a BLAS dot so that their bits do
        # not depend on BLAS threading: sum W, sum W^2, max W, and sum W x_u
        # or sum W E_u
        total = float(np.sum(unit_w))
        square_sum = float(np.einsum("i,i->", unit_w, unit_w))
        largest = 1.0 if likelihood is None else float(np.max(unit_w))
        if fit is not None:
            # the regression estimate sum_u omega_u W_u / N = (sum W - g . c)
            # / N of E|<X, u>|^p / e^{p top}, with the cross sums
            # c = sum_u W_u x_u, and its residual sum of squares
            # sum W^2 - (sum W)^2 / K - b . c, b = G^{-1} c the fitted slopes
            c0, c1 = np.einsum("ij,j->i", fit.controls, unit_w).tolist()
            (i00, i01, i11), (g0, g1) = fit.inverse, fit.slopes
            b0, b1 = i00 * c0 + i01 * c1, i01 * c0 + i11 * c1
            ratio = (total - (g0 * c0 + g1 * c1)) / n_samples
            spread = square_sum - total * total / units - (b0 * c0 + b1 * c1)
            if not spread > _CANCELLATION * square_sum:
                # a close fit cancels in the sums: take the residuals
                residuals = unit_w - total / units
                residuals -= np.einsum("i,ij->j", np.array([b0, b1]), fit.controls)
                spread = float(np.einsum("i,i->", residuals, residuals))
            dof = units - 3
        else:
            # the ratio estimate sum W / sum E of E|<X, u>|^p / e^{p top},
            # and its delta-method variance: the sample variance of the
            # unit sums of W - ratio E, expanded in the sums
            cross = total if likelihood is None else float(
                np.einsum("i,i->", unit_w, likelihoods))
            ratio = total / n_samples / mean_likelihood
            spread = square_sum - 2.0 * ratio * cross + ratio * ratio * likelihood_square_sum
            if not spread > _CANCELLATION * square_sum:
                # a nearly constant w cancels in the sums: take the residuals
                residuals = unit_w - (likelihoods * ratio if likelihood is not None else ratio)
                spread = float(np.einsum("i,i->", residuals, residuals))
            dof = units - 1
        var = spread / dof
        # units / n_samples is 1.0 for an unweighted plan, whose records so
        # keep the bits of the iid formula
        se = math.sqrt(var / units) * (units / n_samples) / mean_likelihood
        norm = math.exp(top + math.log(ratio) / p) * plan.factor(p)
        value, stderr = cv.scale * norm, cv.scale * (norm * se / (ratio * p))
        if not (math.isfinite(value) and math.isfinite(stderr)):
            raise overflow
        records.append(EstimateRecord(value, stderr, n_samples, seed,
                                      total * total / square_sum, largest / total))
    return tuple(records)


def _moment_inputs(family: Family, a, p, minimum: float,
                   n_samples: int) -> tuple[CoefficientVector, np.ndarray]:
    """The checked coefficients and orders of a p-norm estimate: ``a`` of the
    family's dimension and nonzero, orders in [minimum, MAX_MOMENT_ORDER] and
    a valid sample count."""
    cv = as_coefficients(a)
    if family.n != cv.n:
        raise InvalidArgumentError(
            f"family dimension {family.n} does not match coefficient length {cv.n}")
    ps = _orders(p, minimum, MAX_MOMENT_ORDER, OutOfRangeError)
    if cv.scale == 0.0:
        raise InvalidArgumentError("coefficient vector must be nonzero")
    _validate_sample_count(n_samples)
    return cv, ps


def estimate_pnorm(family: Family, a, p: float | Sequence[float], n_samples: int,
                   seed: int) -> EstimateRecord | tuple[EstimateRecord, ...]:
    """Monte-Carlo ||sum a_i X_i||_p with a delta-method standard error.

    ``p`` is one order, which returns one record, or a sequence of orders,
    which returns one record per order, all reduced from the same draws.  An
    order sequence therefore costs about one scalar call, and its values are
    nondecreasing in p: each is a weighted power mean of the same draws, with
    weights that do not depend on p (the power-mean inequality).  For the
    defensive mixture these are the unit weights of the regression on its
    control variates where all of them are nonnegative, and the
    self-normalised ratio's weights e^l where one is not (module docstring).
    Entry i of the tuple equals the scalar call at ``p[i]`` with the same
    seed.
    """
    cv, ps = _moment_inputs(family, a, p, 2.0, n_samples)
    records = _pnorm_engine(_projector(family, cv.unit), cv, ps, n_samples, seed, _TAG_PNORM)
    return records[0] if np.ndim(p) == 0 else records


def estimate_fourth_moment(family: Family, coordinate: int, n_samples: int,
                           seed: int) -> EstimateRecord:
    """Monte-Carlo E X_j^4: the engine's v = ||X_j||_4 as v^4, with stderr
    4 v^3 se(v), the standard error of the mean of X_j^4."""
    if not _is_integer(coordinate) or not (0 <= coordinate < family.n):
        raise InvalidArgumentError(
            f"coordinate must be an integer in [0, {family.n}), got {coordinate!r}")
    _validate_sample_count(n_samples)
    unit = as_coefficients(np.arange(family.n) == coordinate)
    (rec,) = _pnorm_engine(_projector(family, unit.unit), unit, np.array([4.0]), n_samples,
                           seed, _TAG_MOMENT4)
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
    # one hit indicator per vector, from blocks of whole vectors
    hit = _fill(np.random.default_rng(_child_seed(seed, _TAG_JOINT)),
                np.empty((1, n_samples), bool), family.n, lambda rng, out, _: np.all(
                    np.abs(sample(family, rng, out.shape[1])) >= t, axis=1, out=out[0]))
    hits = int(np.count_nonzero(hit))
    value = hits / n_samples
    if value < _JOINT_MIN_PROB:
        raise OutOfRangeError(
            f"joint tail estimate {value:.3e} is below the e^-10 reliability guard")
    stderr = math.sqrt(value * (1.0 - value) / n_samples)
    # the weights are the hit indicators: ESS hits, top share 1 / hits
    return EstimateRecord(value, stderr, n_samples, _seed_word(seed), float(hits), 1.0 / hits)


def dependent_vs_independent(ball: UniformBall, a, p: float | Sequence[float],
                             n_samples: int, seed: int
                             ) -> tuple[EstimateRecord, EstimateRecord] | tuple[
                                 tuple[EstimateRecord, ...], tuple[EstimateRecord, ...]]:
    """||sum a_i X_i||_p for the ball against its independent-marginals twin.

    The twin X* has iid coordinates drawn from the ball's closed-form
    marginal (``_sample_ball_twin``), so each X*_i matches the law of X_i
    exactly.
    Both runs draw from disjoint streams of the seed.
    A scalar ``p`` returns ``(dep, indep)``; a sequence of orders returns
    ``(deps, indeps)``, one record per order, all from one draw of each,
    with entry i equal to the scalar call at ``p[i]``.
    """
    if not isinstance(ball, UniformBall):
        raise InvalidArgumentError("dependent/independent comparison is ball-only")
    if ball.n < 2:
        raise InvalidArgumentError("comparison needs dimension >= 2")
    # p >= 3 keeps the second derivative of |x|^p convex
    cv, ps = _moment_inputs(ball, a, p, 3.0, n_samples)
    deps = _pnorm_engine(_projector(ball, cv.unit), cv, ps, n_samples, seed, _TAG_NA_DEPENDENT)
    indeps = _pnorm_engine(_twin_projector(ball, cv.unit), cv, ps, n_samples, seed,
                           _TAG_NA_INDEPENDENT)
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
