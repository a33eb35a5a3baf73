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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.special import gammaln

from . import coeffs
from .coeffs import as_coefficients
from .errors import (
    InvalidArgumentError,
    SolverError,
    UnboundedProgramError,
    UnsupportedFamilyError,
)
from .families import Family, ProductFamily, UniformBall, level_set_support
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


def _require_moment_order(p: float) -> None:
    if p < 2 or not math.isfinite(p):
        raise InvalidArgumentError(f"moment order must satisfy p >= 2, got {p}")


def hitczenko_lower(a, p: float) -> float:
    """Rademacher-sum moment body: head sum plus sqrt(p) times the l2 tail."""
    _require_moment_order(p)
    return coeffs.head_sum(a, p) + math.sqrt(p) * math.sqrt(coeffs.tail_sq_sum(a, p))


def bobkov_nazarov_upper(a, p: float) -> float:
    """Two-sided exponential envelope: p ||a||_inf + sqrt(p) ||a||_2."""
    _require_moment_order(p)
    cv = as_coefficients(a)
    return p * coeffs.partial_lq(cv, math.inf, head=cv.n) \
        + math.sqrt(p) * coeffs.partial_lq(cv, 2.0, head=cv.n)


# -- level-set support functional of independent coordinates -----------------

_LAMBDA_LO = 1e-12
_LAMBDA_HI = 1e12


class _TiltBlock:
    """Totals (sum_i b_i t_i, sum_i N_i(t_i)) of the tilted maximizers at lambda.

    t_i(lambda) maximizes b_i t - lambda N_i(t) over [0, cap_i] with cap_i =
    N_i^{-1}(p), as ``TailFunction.tilt_argmax`` does one coordinate at a
    time.  Linear tails, alpha = 1 power tails and the segments of tabulated
    tails (cut at the cap) are linear pieces: piece k of coordinate i is
    taken in full exactly when its gain-to-cost ratio b_i / slope_ik exceeds
    lambda.  The pieces are sorted once by that ratio, so their share of the
    totals at any lambda is one searchsorted into cumulative sums.  Power tails with alpha > 1 take
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
        power = []  # (b, alpha, scale, cap) of each power coordinate with alpha > 1
        for tail, coefs in groups.items():
            cap = tail.inverse(p)
            if tail.kind == "power" and tail.alpha != 1.0:
                power.extend((bi, tail.alpha, tail.scale, cap) for bi in coefs)
                continue
            if tail.kind == "tabulated":
                ts, ns = np.asarray(tail.knots_t), np.asarray(tail.knots_n)
            else:  # linear, or power with alpha = 1: one piece up to the cap
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
        self.neg_keys = -keys[order]
        self.cum_gain = np.concatenate(([0.0], np.cumsum(gains[order])))
        self.cum_cost = np.concatenate(([0.0], np.cumsum(costs[order])))
        self.b, self.alpha, self.scale, self.cap = np.array(power).reshape(-1, 4).T
        # log(t_free / cap) = offset - exponent log(lambda), kept in log space
        # because the exponent 1 / (alpha - 1) blows up as alpha -> 1
        self.exponent = 1.0 / (self.alpha - 1.0)
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


def gluskin_kwapien(b, tails: Sequence[TailFunction], p: float) -> float:
    """sup{sum_i b_i t_i : t_i >= 0, sum_i N_i(t_i) <= p} for b_i >= 0.

    The program is concave with a single budget constraint, so the optimum is
    found by bisecting the Lagrange multiplier: for each lambda the separable
    inner problems max_t (b_i t - lambda N_i(t)) have closed forms, and the
    spent budget phi(lambda) = sum N_i(t_i(lambda)) is nonincreasing.
    Coordinates are capped at N_i^{-1}(p), which never cuts feasible points
    since every N_j is nonnegative.  The objective is linear in t, so a step
    needs only the totals (gain, phi) at lambda: ``_TiltBlock`` reads them
    from a piece table built once per call (one searchsorted over the sorted
    linear pieces of linear, alpha = 1 power and tabulated tails) plus the
    closed-form stationary points of power tails with alpha > 1.  The
    bisection runs until its bracket collapses to two adjacent floats,
    keeping the totals of the over-budget iterate and of the feasible one.
    Between them only coordinates on a linear piece move (power tails move
    by an ulp), so gain and budget are linear on the segment and the optimum
    is gain_hi + theta (gain_lo - gain_hi) with theta = (p - phi_hi) /
    (phi_lo - phi_hi).  Convexity of N keeps this point feasible, and pure
    exponential tails return p max b_i / rate_i to machine accuracy.
    """
    _require_moment_order(p)
    b = np.asarray(b, dtype=float)
    if b.ndim != 1 or len(tails) != b.size:
        raise InvalidArgumentError("coefficients and tails must align")
    if np.any(b < 0) or not np.all(np.isfinite(b)):
        raise InvalidArgumentError("coefficients must be finite and nonnegative")
    if not np.any(b > 0):
        return 0.0
    for bi, tail in zip(b, tails):
        if bi > 0 and tail.sup_value <= p:
            raise UnboundedProgramError(
                "a positive coefficient has its tail bounded by the budget; "
                "the support functional is infinite")
    scale = float(np.max(b))
    block = _TiltBlock(b / scale, tails, p)

    lo, hi = _LAMBDA_LO, _LAMBDA_HI
    gain_lo, spent_lo = block.evaluate(lo)
    if spent_lo <= p * (1.0 + 1e-12):
        # budget slack even at vanishing multiplier: caps are jointly feasible
        return scale * gain_lo
    gain_hi, spent_hi = block.evaluate(hi)
    if spent_hi > p:
        raise SolverError("multiplier bracket does not cover the budget constraint")
    best_dual = math.inf
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        gain, spent = block.evaluate(mid)
        best_dual = min(best_dual, gain - mid * spent + mid * p)
        if spent > p:
            lo, gain_lo, spent_lo = mid, gain, spent
        else:
            hi, gain_hi, spent_hi = mid, gain, spent
        mid = 0.5 * (lo + hi)

    # spent_lo > p >= spent_hi, and both totals are linear between the iterates
    theta = (p - spent_hi) / (spent_lo - spent_hi)
    value = scale * (gain_hi + theta * (gain_lo - gain_hi))
    if best_dual < math.inf and value > scale * best_dual * (1.0 + 1e-9):
        raise SolverError("primal value exceeds the dual bound")
    return value


def gluskin_kwapien_estimate(a, tails: Sequence[TailFunction], p: float) -> float:
    """Level-set support over the top index block plus the sqrt(p) l2 tail."""
    cv = as_coefficients(a)
    if len(tails) != cv.n:
        raise InvalidArgumentError("coefficients and tails must align")
    idx = coeffs.top_index_set(cv, p)
    block = np.abs(cv.array[list(idx)])
    block_tails = [tails[i] for i in idx]
    head = gluskin_kwapien(block, block_tails, p)
    return head + math.sqrt(p) * math.sqrt(coeffs.excluded_sq_sum(cv, p))


def ball_moment_estimate(a, q: float, p: float) -> float:
    """Uniform B_q^n closed form: min(p,n)^{1/q} head_{q'} + sqrt(p) l2 tail."""
    _require_moment_order(p)
    if q < 1 or not math.isfinite(q):
        raise InvalidArgumentError(f"ball exponent must satisfy q >= 1, got {q}")
    cv = as_coefficients(a)
    qprime = math.inf if q == 1.0 else q / (q - 1.0)
    head = coeffs.head_lq(cv, p, qprime)
    return min(p, float(cv.n)) ** (1.0 / q) * head \
        + math.sqrt(p) * math.sqrt(coeffs.tail_sq_sum(cv, p))


def level_set_moment_estimate(a, family: Family, p: float) -> float:
    """Level-set support functional over the top block plus the sqrt(p) tail."""
    _require_moment_order(p)
    cv = as_coefficients(a)
    if family.n != cv.n:
        raise InvalidArgumentError(
            f"family dimension {family.n} does not match coefficient length {cv.n}")
    idx = coeffs.top_index_set(cv, p)
    head = level_set_support(family, idx, cv.array[list(idx)], p)
    return head + math.sqrt(p) * math.sqrt(coeffs.excluded_sq_sum(cv, p))


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


def gaussian_band(a, p: float) -> GaussianBand:
    """gamma_p ||a||_2 with quartic corrections.

    lower        = (gamma_p ||a||_2 - p (3 sum a_i^4)^{1/2} / ||a||_2)_+
    upper_indep  = gamma_p ||a||_2 + p ||a||_inf
    upper_klartag= gamma_p ||a||_2 + p^{5/2} (sum a_i^4)^{1/2} / ||a||_2
    """
    _require_moment_order(p)
    cv = as_coefficients(a)
    l2 = coeffs.partial_lq(cv, 2.0, head=cv.n)
    if l2 == 0.0:
        raise InvalidArgumentError("coefficient vector must be nonzero")
    quartic = math.sqrt(float(np.sum(cv.array ** 4))) / l2
    center = gaussian_pnorm(p) * l2
    return GaussianBand(
        lower=max(0.0, center - p * math.sqrt(3.0) * quartic),
        upper_indep=center + p * coeffs.partial_lq(cv, math.inf, head=cv.n),
        upper_klartag=center + p ** 2.5 * quartic,
        indep_valid=p >= 3.0,
    )


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


def surrogate_bundle(a, p: float, family: Family | None = None) -> SurrogateBundle:
    cv = as_coefficients(a)
    gk = None
    bqn = None
    momunc = None
    if isinstance(family, ProductFamily):
        gk = gluskin_kwapien_estimate(cv, family.tails, p)
    if isinstance(family, UniformBall):
        bqn = ball_moment_estimate(cv, family.q, p)
    if family is not None:
        try:
            momunc = level_set_moment_estimate(cv, family, p)
        except UnsupportedFamilyError:
            momunc = None
    return SurrogateBundle(
        p=p,
        hitczenko=hitczenko_lower(cv, p),
        bn_upper=bobkov_nazarov_upper(cv, p),
        gk=gk,
        bqn=bqn,
        momunc=momunc,
        band=gaussian_band(cv, p),
    )
