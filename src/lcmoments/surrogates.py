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


def _tilt_points(bs: np.ndarray, tails: Sequence[TailFunction], caps: np.ndarray,
                 lam: float) -> np.ndarray:
    return np.array([tail.tilt_argmax(float(b), lam, float(cap))
                     for b, tail, cap in zip(bs, tails, caps)])


def _budget(tails: Sequence[TailFunction], t: np.ndarray) -> float:
    return float(sum(tail.value(float(ti)) for tail, ti in zip(tails, t)))


def gluskin_kwapien(b, tails: Sequence[TailFunction], p: float) -> float:
    """sup{sum_i b_i t_i : t_i >= 0, sum_i N_i(t_i) <= p} for b_i >= 0.

    The program is concave with a single budget constraint, so the optimum is
    found by bisecting the Lagrange multiplier: for each lambda the separable
    inner problems max_t (b_i t - lambda N_i(t)) have closed forms (linear and
    power tails) or a slope scan (tabulated), and the spent budget
    phi(lambda) = sum N_i(t_i(lambda)) is nonincreasing.  Coordinates are
    capped at N_i^{-1}(p), which never cuts feasible points since every N_j is
    nonnegative.  The bisection runs until its bracket collapses to two
    adjacent floats, keeping the over-budget iterate t_lo and the feasible
    iterate t_hi.  Between them only coordinates on a linear piece of their
    tail move (a linear tail, a tabulated segment or a cap; power tails move
    by an ulp), so the budget is linear on the segment and the optimum is
    t_hi + theta (t_lo - t_hi) with theta = (p - phi_hi) / (phi_lo - phi_hi).
    Convexity of N keeps this point feasible, and pure exponential tails
    return p max b_i / rate_i to machine accuracy.
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
    bs = b / scale
    caps = np.array([tail.inverse(p) if bi > 0 else 0.0 for bi, tail in zip(bs, tails)])

    lo, hi = _LAMBDA_LO, _LAMBDA_HI
    t_lo = _tilt_points(bs, tails, caps, lo)
    spent_lo = _budget(tails, t_lo)
    if spent_lo <= p * (1.0 + 1e-12):
        # budget slack even at vanishing multiplier: caps are jointly feasible
        return scale * float(bs @ t_lo)
    t_hi = _tilt_points(bs, tails, caps, hi)
    spent_hi = _budget(tails, t_hi)
    if spent_hi > p:
        raise SolverError("multiplier bracket does not cover the budget constraint")
    best_dual = math.inf
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        t_mid = _tilt_points(bs, tails, caps, mid)
        spent = _budget(tails, t_mid)
        dual = float(bs @ t_mid) - mid * spent + mid * p
        best_dual = min(best_dual, dual)
        if spent > p:
            lo, t_lo, spent_lo = mid, t_mid, spent
        else:
            hi, t_hi, spent_hi = mid, t_mid, spent
        mid = 0.5 * (lo + hi)

    # spent_lo > p >= spent_hi, and the budget is linear between the iterates
    theta = (p - spent_hi) / (spent_lo - spent_hi)
    value = scale * float(bs @ (t_hi + theta * (t_lo - t_hi)))
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
