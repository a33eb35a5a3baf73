"""Constant-free deterministic surrogates for ||sum_i a_i X_i||_p.

For an unconditional isotropic log-concave vector X and real p >= 2, the
p-norm of S = sum_i a_i X_i is equivalent, up to universal constants, to
deterministic functionals of the coefficient rearrangement a*:

* ``hitczenko_lower``      sum_{i<=p} a*_i + sqrt(p) (sum_{i>p} a*_i^2)^{1/2},
  the Rademacher-sum lower body;
* ``bobkov_nazarov_upper`` p ||a||_inf + sqrt(p) ||a||_2, the two-sided
  exponential upper envelope;
* ``gluskin_kwapien``      sup{sum b_i t_i : sum N_i(t_i) <= p}, the level-set
  support functional of independent coordinates with log-tails N_i;
* ``ball_moment_estimate`` min(p,n)^{1/q} (sum_{i<=p} a*_i^{q'})^{1/q'}
  + sqrt(p) tail, the uniform B_q^n closed form;
* ``level_set_moment_estimate``  support functional of the density level set
  over the top index block plus the sqrt(p) l2 tail;
* ``gaussian_band``        the second-order Gaussian approximation band
  gamma_p ||a||_2 +- quartic corrections.

All surrogates drop the universal constants of the corresponding two-sided
inequalities; the Monte-Carlo harness measures the constants empirically.
Each takes one order p or a sequence of orders, as ``coeffs`` does: a
sequence gives one value per order (an array, or a tuple of bands or
bundles) from one pass over the cached rearrangement, and entry i equals the
call at ``p[i]``.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.special import gammaln

from . import coeffs
from .coeffs import CoefficientVector, _Cuts, _cuts, _orders, _per_order, as_coefficients
from .errors import (
    InvalidArgumentError,
    SolverError,
    UnboundedProgramError,
    UnsupportedFamilyError,
)
from .families import Family, ProductFamily, UniformBall, _level_set_support
from .tails import TailFunction

__all__ = [
    "gaussian_pnorm",
    "hitczenko_lower",
    "bobkov_nazarov_upper",
    "gluskin_kwapien",
    "gluskin_kwapien_estimate",
    "ball_moment_estimate",
    "level_set_moment_estimate",
    "GaussianBand",
    "gaussian_band",
    "TailBoundSummary",
    "tail_bounds",
    "SurrogateBundle",
    "surrogate_bundle",
]


def gaussian_pnorm(p: float) -> float:
    """||N(0,1)||_p = (2^{p/2} Gamma((p+1)/2) / sqrt(pi))^{1/p} via log-Gamma."""
    if p < 1 or not math.isfinite(p):
        raise InvalidArgumentError(f"p must be >= 1, got {p}")
    log_moment = 0.5 * p * math.log(2.0) + gammaln((p + 1.0) / 2.0) - 0.5 * math.log(math.pi)
    return math.exp(log_moment / p)


# Each surrogate is a unit-scale kernel on a CoefficientVector and the cuts
# of a checked order vector, times ``cv.scale``: the public functions check
# the orders and scale one kernel, ``surrogate_bundle`` checks them once and
# scales every kernel.

def _checked(a, p) -> tuple[CoefficientVector, _Cuts]:
    """The coefficient vector and the cuts of the orders p >= 2, all checked."""
    ps = _orders(p, 2.0)
    cv = as_coefficients(a)
    return cv, _cuts(cv, ps)


def _hitczenko(cv: CoefficientVector, c: _Cuts) -> np.ndarray:
    return coeffs._head(cv, c) + c.root * np.sqrt(coeffs._tail_sq(cv, c))


def _bn_upper(cv: CoefficientVector, c: _Cuts) -> np.ndarray:
    return c.ps * cv.sums.unit[0] + c.root * math.sqrt(cv.sums.tail_sq[0])


def hitczenko_lower(a, p: float | Sequence[float]) -> float | np.ndarray:
    """Rademacher-sum moment body: head sum plus sqrt(p) times the l2 tail."""
    cv, c = _checked(a, p)
    return _per_order(cv.scale * _hitczenko(cv, c), p)


def bobkov_nazarov_upper(a, p: float | Sequence[float]) -> float | np.ndarray:
    """Two-sided exponential envelope: p ||a||_inf + sqrt(p) ||a||_2."""
    cv, c = _checked(a, p)
    return _per_order(cv.scale * _bn_upper(cv, c), p)


# -- level-set support functional of independent coordinates -----------------

class _TiltBlock:
    """Totals (sum_i b_i t_i, sum_i N_i(t_i)) of the tilted maximizers at lambda.

    t_i(lambda) maximizes b_i t - lambda N_i(t) over [0, cap_i] with cap_i =
    N_i^{-1}(p), as ``TailFunction.tilt_argmax`` does one coordinate at a
    time.  Linear tails and the segments of tabulated tails (cut at the cap)
    are linear pieces: piece k of coordinate i is taken in full exactly when
    its gain-to-cost ratio b_i / slope_ik exceeds lambda.  The pieces are
    sorted once by that ratio, so their share of the totals at any lambda is
    one searchsorted into cumulative sums.  Power tails (alpha > 1) take
    their stationary point s (b s / (lambda alpha))^{1/(alpha-1)}, clipped at
    the cap, as array expressions over the power coordinates.
    """

    def __init__(self, b: np.ndarray, tails: Sequence[TailFunction], p: float) -> None:
        # coordinates that share a tail share its cap and its pieces
        groups: dict[TailFunction, list[float]] = {}
        for bi, tail in zip(b.tolist(), tails):
            if bi > 0.0:
                groups.setdefault(tail, []).append(bi)
        gains, costs = [np.empty(0)], [np.empty(0)]
        power = []  # (b, alpha, scale, cap) of each power coordinate
        for tail, coefs in groups.items():
            cap = tail.inverse(p)
            if tail.kind == "power":
                power.extend((bi, tail.alpha, tail.scale, cap) for bi in coefs)
                continue
            if tail.kind == "tabulated":
                ts, ns = np.asarray(tail.knots_t), np.asarray(tail.knots_n)
            else:  # linear: one piece up to the cap
                ts, ns = np.array([0.0, cap]), np.array([0.0, tail.value(cap)])
            live = ts[:-1] < cap
            ends = np.minimum(ts[1:][live], cap)
            gains.append(np.multiply.outer(coefs, ends - ts[:-1][live]).ravel())
            costs.append(np.tile(tail.value(ends) - ns[:-1][live], len(coefs)))
        # by decreasing ratio b_i / slope, so the pieces taken at any lambda
        # are a prefix
        gains, costs = np.concatenate(gains), np.concatenate(costs)
        keys = gains / costs
        order = np.argsort(-keys, kind="stable")
        self.keys = keys[order]
        self.neg_keys = -self.keys
        self.cum_gain = np.concatenate(([0.0], np.cumsum(gains[order])))
        self.cum_cost = np.concatenate(([0.0], np.cumsum(costs[order])))
        self.b, self.alpha, self.scale, self.cap = np.array(power).reshape(-1, 4).T
        if not power:
            return
        # log(t_free / cap) = offset - exponent log(lambda), kept in log space
        # because the exponent 1 / (alpha - 1) blows up as alpha -> 1
        self.exponent = 1.0 / (self.alpha - 1.0)
        # a subnormal b_i can underflow b_i s / alpha to 0: its log is -inf,
        # which is the right limit (t_i = 0 at every lambda)
        with np.errstate(divide="ignore"):
            self.offset = np.log(self.scale / self.cap) + self.exponent * np.log(
                self.b * self.scale / self.alpha)

    def evaluate(self, lam: float) -> tuple[float, float]:
        k = self.neg_keys.searchsorted(-lam)
        gain, spent = float(self.cum_gain[k]), float(self.cum_cost[k])
        if self.b.size:
            t = self.cap * np.exp(np.minimum(self.offset - self.exponent * math.log(lam), 0.0))
            gain += float(self.b.dot(t))
            spent += float(((t / self.scale) ** self.alpha).sum())
        return gain, spent

    def knapsack(self, p: float) -> float:
        """The optimum of a block of linear pieces only: a fractional knapsack.

        The pieces, taken whole by decreasing ratio, fill the budget up to the
        last prefix whose cost cum_cost[k] fits; piece k then takes the rest of
        the budget at its ratio, so the optimum is cum_gain[k] + (p -
        cum_cost[k]) key_k and the multiplier is key_k.  One ``evaluate`` at
        that multiplier gives the dual bound the value must not exceed.
        """
        if self.cum_cost[-1] <= p * (1.0 + 1e-12):
            # budget slack even at vanishing multiplier: caps are jointly feasible
            return float(self.cum_gain[-1])
        k = int(self.cum_cost.searchsorted(p, "right")) - 1
        key = float(self.keys[k])
        value = float(self.cum_gain[k]) + (p - float(self.cum_cost[k])) * key
        gain, spent = self.evaluate(key)
        if value > (gain - key * spent + key * p) * (1.0 + 1e-9):
            raise SolverError("primal value exceeds the dual bound")
        return value


def _bits(x: float) -> int:
    """The int64 bit pattern of a double; for x >= 0 it is ordered like x."""
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _double(bits: int) -> float:
    """The double with int64 bit pattern ``bits``, the inverse of ``_bits``."""
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def gluskin_kwapien(b, tails: Sequence[TailFunction], p: float) -> float:
    """sup{sum_i b_i t_i : t_i >= 0, sum_i N_i(t_i) <= p} for b_i >= 0.

    The program is concave with a single budget constraint, so the optimum is
    a saddle of the Lagrangian: for each multiplier lambda the separable
    inner problems max_t (b_i t - lambda N_i(t)) have closed forms, and the
    spent budget phi(lambda) = sum N_i(t_i(lambda)) is nonincreasing.
    Coordinates are capped at N_i^{-1}(p), which never cuts feasible points
    since every N_j is nonnegative.  The objective is linear in t, so only
    the totals (gain, phi) at lambda matter: ``_TiltBlock`` reads them from a
    piece table built once per call (one searchsorted over the sorted linear
    pieces of linear and tabulated tails) plus the closed-form stationary
    points of power tails.

    A block whose positive coefficients all have linear tails is the closed
    form p max_i b_i / rate_i: its best piece alone spends the whole budget.
    Another block without power tails is a fractional knapsack over its
    pieces, solved in one step (``_TiltBlock.knapsack``).  A block with them
    bisects the multiplier over every positive double, halving the int64 bit
    patterns (ordered like the values) of the bracket [5e-324, inf]: at the
    smallest subnormal every coordinate sits at its cap, at infinity nothing
    is spent, and at most 63 halvings collapse the bracket to two adjacent
    floats.  It keeps the totals of the over-budget iterate
    and of the feasible one; between them only coordinates on a linear piece
    move (power tails move by an ulp), so gain and budget are linear on the
    segment and the optimum is gain_hi + theta (gain_lo - gain_hi) with
    theta = (p - phi_hi) / (phi_lo - phi_hi).  Convexity of N keeps this
    point feasible.
    """
    if not (p >= 2.0 and math.isfinite(p)):
        raise InvalidArgumentError(f"moment order must satisfy p >= 2, got {p}")
    b = np.asarray(b, dtype=float)
    if b.ndim != 1 or len(tails) != b.size:
        raise InvalidArgumentError("coefficients and tails must align")
    if np.any(b < 0) or not np.all(np.isfinite(b)):
        raise InvalidArgumentError("coefficients must be finite and nonnegative")
    if not np.any(b > 0):
        return 0.0
    live = [(bi, tail) for bi, tail in zip(b.tolist(), tails) if bi > 0.0]
    if any(tail.sup_value <= p for _, tail in live):
        raise UnboundedProgramError(
            "a positive coefficient has its tail bounded by the budget; "
            "the support functional is infinite")
    if all(tail.kind == "linear" for _, tail in live):
        # the best piece b_i / rate_i alone fills the budget at t_i = p / rate_i
        return p * max(bi / tail.rate for bi, tail in live)
    scale = float(np.max(b))
    block = _TiltBlock(b / scale, tails, p)
    if not block.b.size:
        return scale * block.knapsack(p)

    lo_bits, hi_bits = _bits(5e-324), _bits(math.inf)
    gain_lo, spent_lo = block.evaluate(5e-324)
    if spent_lo <= p * (1.0 + 1e-12):
        # budget slack even at vanishing multiplier: caps are jointly feasible
        return scale * gain_lo
    gain_hi, spent_hi = 0.0, 0.0
    best_dual = math.inf
    while hi_bits - lo_bits > 1:
        mid_bits = (lo_bits + hi_bits) // 2
        mid = _double(mid_bits)
        gain, spent = block.evaluate(mid)
        best_dual = min(best_dual, gain - mid * spent + mid * p)
        if spent > p:
            lo_bits, gain_lo, spent_lo = mid_bits, gain, spent
        else:
            hi_bits, gain_hi, spent_hi = mid_bits, gain, spent

    # spent_lo > p >= spent_hi, and both totals are linear between the iterates
    theta = (p - spent_hi) / (spent_lo - spent_hi)
    value = scale * (gain_hi + theta * (gain_lo - gain_hi))
    if best_dual < math.inf and value > scale * best_dual * (1.0 + 1e-9):
        raise SolverError("primal value exceeds the dual bound")
    return value


def _block_heads(cv: CoefficientVector, c: _Cuts, support) -> np.ndarray:
    """support(index block, unit coefficients on it, p) over the top index
    set of each order."""
    return np.array([support(idx, cv.unit[list(idx)], order)
                     for idx, order in zip(coeffs._index_sets(cv, c), c.ps.tolist())])


def _gk_estimate(cv: CoefficientVector, tails: Sequence[TailFunction], c: _Cuts) -> np.ndarray:
    if len(tails) != cv.n:
        raise InvalidArgumentError("coefficients and tails must align")
    heads = _block_heads(cv, c, lambda idx, block, order: gluskin_kwapien(
        np.abs(block), [tails[i] for i in idx], order))
    return heads + c.root * np.sqrt(coeffs._excluded_sq(cv, c))


def _ball_estimate(cv: CoefficientVector, q: float, c: _Cuts) -> np.ndarray:
    if q < 1 or not math.isfinite(q):
        raise InvalidArgumentError(f"ball exponent must satisfy q >= 1, got {q}")
    qprime = math.inf if q == 1.0 else q / (q - 1.0)
    return np.minimum(c.ps, float(cv.n)) ** (1.0 / q) * coeffs._head_lq(cv, c, qprime) \
        + c.root * np.sqrt(coeffs._tail_sq(cv, c))


def _level_set_estimate(cv: CoefficientVector, family: Family, c: _Cuts) -> np.ndarray:
    if family.n != cv.n:
        raise InvalidArgumentError(
            f"family dimension {family.n} does not match coefficient length {cv.n}")
    # the index sets come from ``coeffs`` itself, so they skip the checks
    heads = _block_heads(cv, c, lambda idx, block, order: _level_set_support(
        family, idx, block, order))
    return heads + c.root * np.sqrt(coeffs._excluded_sq(cv, c))


def gluskin_kwapien_estimate(a, tails: Sequence[TailFunction],
                             p: float | Sequence[float]) -> float | np.ndarray:
    """Level-set support over the top index block plus the sqrt(p) l2 tail."""
    cv, c = _checked(a, p)
    return _per_order(cv.scale * _gk_estimate(cv, tails, c), p)


def ball_moment_estimate(a, q: float, p: float | Sequence[float]) -> float | np.ndarray:
    """Uniform B_q^n closed form: min(p,n)^{1/q} head_{q'} + sqrt(p) l2 tail."""
    cv, c = _checked(a, p)
    return _per_order(cv.scale * _ball_estimate(cv, q, c), p)


def level_set_moment_estimate(a, family: Family,
                              p: float | Sequence[float]) -> float | np.ndarray:
    """Level-set support functional over the top block plus the sqrt(p) tail."""
    cv, c = _checked(a, p)
    return _per_order(cv.scale * _level_set_estimate(cv, family, c), p)


# -- Gaussian approximation band ---------------------------------------------

@dataclass(frozen=True)
class GaussianBand:
    """Two-sided Gaussian approximation of ||S||_p.

    ``lower`` is clamped at zero; ``upper_indep`` requires independent
    coordinates and p >= 3 (``indep_valid`` flags the order condition), while
    ``upper_klartag`` holds for any unconditional isotropic log-concave law.
    """

    lower: float
    upper_indep: float
    upper_klartag: float
    indep_valid: bool


def _bands(cv: CoefficientVector, c: _Cuts) -> tuple[GaussianBand, ...]:
    """The band of each order, evaluated on the unit scale and scaled back."""
    sums = cv.sums
    l2 = math.sqrt(sums.tail_sq[0])
    if l2 == 0.0:
        raise InvalidArgumentError("coefficient vector must be nonzero")
    quartic = math.sqrt(float(sums.sq @ sums.sq)) / l2
    orders = c.ps.tolist()
    center = np.array([gaussian_pnorm(order) for order in orders]) * l2
    columns = (
        np.maximum(0.0, center - c.ps * math.sqrt(3.0) * quartic),
        center + c.ps * sums.unit[0],
        center + c.ps ** 2.5 * quartic,
    )
    return tuple(
        GaussianBand(lower, upper_indep, upper_klartag, indep_valid=order >= 3.0)
        for lower, upper_indep, upper_klartag, order
        in zip(*((cv.scale * column).tolist() for column in columns), orders))


def gaussian_band(a, p: float | Sequence[float]
                  ) -> GaussianBand | tuple[GaussianBand, ...]:
    """gamma_p ||a||_2 with quartic corrections.

    lower        = (gamma_p ||a||_2 - p (3 sum a_i^4)^{1/2} / ||a||_2)_+
    upper_indep  = gamma_p ||a||_2 + p ||a||_inf
    upper_klartag= gamma_p ||a||_2 + p^{5/2} (sum a_i^4)^{1/2} / ||a||_2
    """
    return _per_order(_bands(*_checked(a, p)), p)


# -- tail probability envelopes ----------------------------------------------

@dataclass(frozen=True)
class TailBoundSummary:
    """Tail bounds read off a moment curve p -> ||S||_p.

    ``upper_points`` are Chebyshev witnesses (u, bound) with u = e ||S||_p and
    bound = e^{-p}; ``upper_at(u)`` returns the best bound available at level
    u.  ``lower_points`` are anti-concentration witnesses
    P(|S| >= ||S||_p / c) >= min(1/c, e^{-p}) built from the recorded
    doubling constant c = max_p ||S||_{2p} / ||S||_p.
    """

    upper_points: tuple[tuple[float, float], ...]
    lower_points: tuple[tuple[float, float], ...]
    doubling_constant: float

    def upper_at(self, u: float) -> float:
        best = 1.0
        for level, bound in self.upper_points:
            if level <= u:
                best = min(best, bound)
        return best


def tail_bounds(curve: Mapping[float, float]) -> TailBoundSummary:
    """Convert a moment curve into two-sided tail probability witnesses.

    The curve must be defined on p >= 2, be nondecreasing in p, and contain at
    least one (p, 2p) pair so the doubling constant is observable.
    """
    if not curve:
        raise InvalidArgumentError("moment curve is empty")
    ps = sorted(curve)
    vals = [float(curve[p]) for p in ps]
    if ps[0] < 2:
        raise InvalidArgumentError(f"moment curve starts below p = 2: {ps[0]}")
    if any(v <= 0 or not math.isfinite(v) for v in vals):
        raise InvalidArgumentError("moment curve values must be positive and finite")
    for (p0, v0), (p1, v1) in zip(zip(ps, vals), zip(ps[1:], vals[1:])):
        if v1 < v0 * (1.0 - 1e-12):
            raise InvalidArgumentError(
                f"moment curve must be nondecreasing: ||S||_{p1} < ||S||_{p0}")
    doubling = 0.0
    lookup = dict(zip(ps, vals))
    for p, v in zip(ps, vals):
        for p2, v2 in lookup.items():
            if math.isclose(p2, 2.0 * p, rel_tol=1e-9):
                doubling = max(doubling, v2 / v)
    if doubling == 0.0:
        raise InvalidArgumentError("moment curve needs at least one (p, 2p) pair")
    doubling = max(doubling, 1.0)
    upper = tuple((math.e * v, math.exp(-p)) for p, v in zip(ps, vals))
    lower = tuple((v / doubling, min(1.0 / doubling, math.exp(-p)))
                  for p, v in zip(ps, vals))
    return TailBoundSummary(upper_points=upper, lower_points=lower,
                            doubling_constant=doubling)


# -- bundled evaluation --------------------------------------------------------

@dataclass(frozen=True)
class SurrogateBundle:
    """Every surrogate applicable to one (a, p, family) cell.

    ``gk``, ``bqn`` and ``momunc`` are None when the family does not supply
    the required structure (tails, a ball exponent, or a closed-form level
    set).  Field names double as report column names.
    """

    p: float
    hitczenko: float
    bn_upper: float
    gk: float | None
    bqn: float | None
    momunc: float | None
    band: GaussianBand

    def __post_init__(self) -> None:
        if not self.hitczenko <= 2.0 * self.bn_upper * (1.0 + 1e-12):
            raise SolverError("lower surrogate exceeds twice the upper surrogate")


def surrogate_bundle(a, p: float | Sequence[float], family: Family | None = None
                     ) -> SurrogateBundle | tuple[SurrogateBundle, ...]:
    """Every surrogate applicable to a coefficient vector and family.

    ``p`` is one order, which returns one ``SurrogateBundle``, or a sequence
    of orders, which returns a tuple with one bundle per order; entry i is
    the scalar call at ``p[i]`` bit for bit, since the scalar call is the
    sequence of one order.  Every order is checked before anything is
    computed.  Each surrogate is evaluated once for all orders, from the
    order, unit rearrangement and partial sums the coefficient vector caches
    once.  Every surrogate is 1-homogeneous in a, so each is evaluated on
    u = a / max_i |a_i| and multiplied by max_i |a_i|: no power of a huge or
    tiny entry over- or underflows, and scaling a by a power of two scales
    every field by it exactly.
    """
    cv, c = _checked(a, p)
    gk = bqn = momunc = none = [None] * c.ps.size
    if isinstance(family, ProductFamily):
        gk = (cv.scale * _gk_estimate(cv, family.tails, c)).tolist()
    if isinstance(family, UniformBall):
        bqn = (cv.scale * _ball_estimate(cv, family.q, c)).tolist()
    if family is not None:
        try:
            momunc = (cv.scale * _level_set_estimate(cv, family, c)).tolist()
        except UnsupportedFamilyError:
            momunc = none
    return _per_order(tuple(
        SurrogateBundle(p=order, hitczenko=lo, bn_upper=hi, gk=g, bqn=b, momunc=m, band=band)
        for order, lo, hi, g, b, m, band in zip(
            c.ps.tolist(), (cv.scale * _hitczenko(cv, c)).tolist(),
            (cv.scale * _bn_upper(cv, c)).tolist(), gk, bqn, momunc, _bands(cv, c))), p)
