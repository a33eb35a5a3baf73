"""Unconditional isotropic log-concave families and their level-set geometry.

Four families are provided, each normalized so that every coordinate has
unit variance:

* ``ProductFamily``  -- independent symmetric coordinates given by tail
  functions (the exponential member has density prod (1/sqrt 2) e^{-sqrt2 |x_i|});
* ``GaussianStd``    -- the standard Gaussian;
* ``UniformCube``    -- uniform on [-sqrt 3, sqrt 3]^n;
* ``UniformBall``    -- uniform on r B_q^n; ``UniformBall(n, q)`` derives the
  isotropic radius r = ``isotropic_radius(n, q)``, which is not an argument.

``level_set_support`` evaluates the support functional of the density level
set {g_I >= e^{-p} g_I(0)} of a marginal block I; these sets are exactly the
sub-level sets of -ln(g_I/g_I(0)) and have closed forms for every family
here.  For the uniform ball, a k-coordinate marginal has

    g_I(x) / g_I(0) = (1 - (||x||_q / r)^q)^{(n-k)/q},

since the complementary section is a scaled (n-k)-dimensional q-ball of
radius (r^q - ||x||_q^q)^{1/q}, so the level set is the q-ball of radius
r (1 - e^{-pq/(n-k)})^{1/q}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Union

import numpy as np
from scipy.special import betainc, betaincinv, betaln, gammaln

from .coeffs import _lq
from .errors import InvalidArgumentError, OutOfRangeError, UnsupportedFamilyError
from .tails import TailFunction, _parse_param, tail_from_spec

__all__ = [
    "ProductFamily",
    "UniformBall",
    "GaussianStd",
    "UniformCube",
    "Family",
    "product_exponential",
    "isotropic_radius",
    "log_density",
    "level_set_support",
    "marginal_cdf",
    "marginal_quantile",
    "family_from_spec",
]

_SQRT3 = math.sqrt(3.0)
_ISOTROPY_TOL = 1e-3


@dataclass(frozen=True)
class ProductFamily:
    """Independent symmetric coordinates; tail i has P(|X_i| >= t) = e^{-N_i(t)}."""

    tails: tuple[TailFunction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tails", tuple(self.tails))
        if not self.tails or not all(isinstance(tail, TailFunction) for tail in self.tails):
            raise InvalidArgumentError(
                f"a product family needs one or more TailFunction coordinates, got {self.tails!r}")
        for i, tail in enumerate(self.tails):
            var = tail.variance()
            # a nan variance fails this test too
            if not abs(var - 1.0) <= _ISOTROPY_TOL:
                raise InvalidArgumentError(
                    f"coordinate {i} has variance {var:.6f}; product families must be isotropic")

    @property
    def n(self) -> int:
        return len(self.tails)

    @cached_property
    def is_linear(self) -> bool:
        return all(t.kind == "linear" for t in self.tails)

    @cached_property
    def rates(self) -> np.ndarray:
        """The rate of each coordinate's tail (0 for a non-linear tail)."""
        return np.array([t.rate for t in self.tails])

    @cached_property
    def tail_columns(self) -> tuple[tuple[TailFunction, np.ndarray], ...]:
        """Each distinct tail with the indices of the coordinates that share
        it, in order of first appearance."""
        columns: dict[TailFunction, list[int]] = {}
        for j, tail in enumerate(self.tails):
            columns.setdefault(tail, []).append(j)
        return tuple((tail, np.asarray(cols)) for tail, cols in columns.items())


@dataclass(frozen=True)
class UniformBall:
    """Uniform law on r * B_q^n with the isotropic radius r."""

    n: int
    q: float
    r: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "r", isotropic_radius(self.n, self.q))

    @classmethod
    def isotropic(cls, n: int, q: float) -> "UniformBall":
        return cls(n=n, q=float(q))


@dataclass(frozen=True)
class GaussianStd:
    """Standard Gaussian on R^n."""

    n: int

    def __post_init__(self) -> None:
        _check_dimension(self.n)


@dataclass(frozen=True)
class UniformCube:
    """Uniform law on [-sqrt 3, sqrt 3]^n."""

    n: int

    def __post_init__(self) -> None:
        _check_dimension(self.n)


Family = Union[ProductFamily, UniformBall, GaussianStd, UniformCube]


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_dimension(n, name: str = "dimension") -> None:
    if not _is_integer(n) or n < 1:
        raise InvalidArgumentError(f"{name} must be an integer >= 1, got {n!r}")


def product_exponential(n: int) -> ProductFamily:
    return ProductFamily(tails=tuple(TailFunction.exponential() for _ in range(n)))


def isotropic_radius(n: int, q: float) -> float:
    """Radius r with E X_1^2 = 1 for X uniform on r B_q^n.

    The coordinate marginal of the unit ball is proportional to
    (1 - |x|^q)^{(n-1)/q}, so with the substitution u = x^q the second-moment
    ratio reduces to Beta functions:

        E X_1^2 = B(3/q, (n-1)/q + 1) / B(1/q, (n-1)/q + 1),

    evaluated in log space through B(x, y) = B(1 + x, y) (x + y) / x, so that
    betaln never sees the argument 1/q, which is subnormal at huge q.
    Closed forms follow: q = 2 gives sqrt(n + 2) and q = 1 gives
    sqrt((n+1)(n+2)/2).
    """
    _check_dimension(n)
    if q < 1 or not math.isfinite(q):
        raise InvalidArgumentError(f"ball exponent must satisfy q >= 1, got {q}")
    y = (n - 1) / q + 1.0
    m2 = (math.exp(betaln(1.0 + 3.0 / q, y) - betaln(1.0 + 1.0 / q, y))
          * (3.0 / q + y) / (1.0 / q + y) / 3.0)
    r = 1.0 / math.sqrt(m2)
    # r grows like n^{1/q}; far outside that window the moment ratio is wrong
    if not 0.1 <= r / n ** (1.0 / q) <= 10.0:
        raise OutOfRangeError(
            f"isotropic radius {r!r} at n={n}, q={q} is outside [0.1, 10] * n^(1/q); "
            "the Beta-function moment ratio lost precision")
    return r


def _log_ball_volume(n: int, q: float) -> float:
    """ln vol(B_q^n) = n ln(2 Gamma(1 + 1/q)) - ln Gamma(1 + n/q)."""
    return n * (math.log(2.0) + gammaln(1.0 + 1.0 / q)) - gammaln(1.0 + n / q)


def log_density(family: Family, x) -> float:
    """ln g(x) of the family density (-inf outside the support)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (family.n,):
        raise InvalidArgumentError(f"point has shape {x.shape}, expected ({family.n},)")
    if isinstance(family, GaussianStd):
        return -0.5 * family.n * math.log(2.0 * math.pi) - 0.5 * float(x @ x)
    if isinstance(family, UniformCube):
        if np.max(np.abs(x)) > _SQRT3 * (1.0 + 1e-12):
            return -math.inf
        return -family.n * math.log(2.0 * _SQRT3)
    if isinstance(family, UniformBall):
        if _lq(np.abs(x), family.q) > family.r * (1.0 + 1e-12):
            return -math.inf
        return -(family.n * math.log(family.r) + _log_ball_volume(family.n, family.q))
    if isinstance(family, ProductFamily):
        if not family.is_linear:
            raise UnsupportedFamilyError(
                "closed-form density is only available for linear-tail product members")
        total = 0.0
        for tail, xi in zip(family.tails, x):
            total += math.log(tail.rate / 2.0) - tail.rate * abs(float(xi))
        return total
    raise UnsupportedFamilyError(f"unknown family {type(family).__name__}")


def level_set_support(family: Family, index_set, a_block, p: float) -> float:
    """sup{sum_i a_i x_i : g_I(x) >= e^{-p} g_I(0)} over the marginal block I.

    Closed forms per family (k = |I|):

    * linear product: the level set is {sum rate_i |x_i| <= p}, so the support
      functional is p * max_i |a_i| / rate_i;
    * Gaussian: ball of radius sqrt(2p), giving sqrt(2p) ||a||_2;
    * cube: the whole cube for any p > 0, giving sqrt 3 * sum |a_i|;
    * ball: q-ball of radius r (1 - e^{-pq/(n-k)})^{1/q} (the full section's
      r for k = n), paired with the dual norm ||a||_{q'}.
    """
    if not (p > 0 and math.isfinite(p)):
        raise InvalidArgumentError(f"level-set budget must be positive, got {p}")
    idx = sorted(set(int(i) for i in index_set))
    if len(idx) == 0:
        raise InvalidArgumentError("index set must be non-empty")
    if idx[0] < 0 or idx[-1] >= family.n:
        raise InvalidArgumentError(f"index set outside [0, {family.n})")
    a_block = np.asarray(a_block, dtype=float)
    if a_block.shape != (len(idx),):
        raise InvalidArgumentError(
            f"coefficient block has shape {a_block.shape}, expected ({len(idx)},)")
    return _level_set_support(family, idx, a_block, p)


def _level_set_support(family: Family, idx, a_block: np.ndarray, p: float) -> float:
    """``level_set_support`` on a checked block: distinct indices in range,
    a float array ``a_block`` aligned with them and p > 0."""
    k = len(idx)
    if isinstance(family, ProductFamily):
        if not family.is_linear:
            raise UnsupportedFamilyError(
                "level sets are closed-form only for linear-tail product members")
        return p * float(np.max(np.abs(a_block) / family.rates[list(idx)]))
    if isinstance(family, GaussianStd):
        return math.sqrt(2.0 * p) * _lq(np.abs(a_block), 2.0)
    if isinstance(family, UniformCube):
        return _SQRT3 * float(np.sum(np.abs(a_block)))
    if isinstance(family, UniformBall):
        q = family.q
        qprime = math.inf if q == 1.0 else q / (q - 1.0)
        if k == family.n:
            radius = family.r
        else:
            radius = family.r * (1.0 - math.exp(-p * q / (family.n - k))) ** (1.0 / q)
        return radius * _lq(np.abs(a_block), qprime)
    raise UnsupportedFamilyError(f"unknown family {type(family).__name__}")


# -- ball coordinate marginal ------------------------------------------------

def _marginal_beta(ball: UniformBall) -> tuple[float, float]:
    """(a, b) with |X_1| / r = B^{1/q} for B ~ Beta(a, b) = Beta(1/q, (n-1)/q + 1).

    The marginal density on [-r, r] is proportional to (1 - (|x|/r)^q)^{(n-1)/q};
    the substitution u = (|x|/r)^q turns it into the Beta(a, b) density.
    """
    if ball.n < 2:
        raise InvalidArgumentError("coordinate marginal requires dimension >= 2")
    return 1.0 / ball.q, (ball.n - 1) / ball.q + 1.0


def marginal_cdf(ball: UniformBall, x):
    """CDF of a single ball coordinate, vectorized; clamps outside [-r, r]."""
    a, b = _marginal_beta(ball)
    xv = np.asarray(x, dtype=float)
    u = np.clip(np.abs(xv) / ball.r, 0.0, 1.0) ** ball.q
    out = 0.5 + 0.5 * np.sign(xv) * betainc(a, b, u)
    return float(out) if out.ndim == 0 else out


def marginal_quantile(ball: UniformBall, u):
    """Inverse marginal CDF; defined for u strictly inside (0, 1)."""
    a, b = _marginal_beta(ball)
    uv = np.asarray(u, dtype=float)
    if not np.all((uv > 0.0) & (uv < 1.0)):
        raise InvalidArgumentError("quantile argument must lie strictly inside (0, 1)")
    out = np.sign(uv - 0.5) * ball.r * betaincinv(a, b, np.abs(2.0 * uv - 1.0)) ** (1.0 / ball.q)
    return float(out) if out.ndim == 0 else out


# -- family spec strings -----------------------------------------------------

def family_from_spec(spec: str, n: int) -> Family:
    """Build a family from its CLI string: ``exp``, ``gauss``, ``cube``,
    ``ball:q=<val>``, or ``product:<tail-spec>[,<tail-spec>...]``.

    A single-tail product spec is replicated to all n coordinates; otherwise
    the number of tail specs must equal n.
    """
    spec = spec.strip()
    _check_dimension(n)
    if spec == "exp":
        return product_exponential(n)
    if spec == "gauss":
        return GaussianStd(n=n)
    if spec == "cube":
        return UniformCube(n=n)
    if spec.startswith("ball:"):
        return UniformBall.isotropic(n, _parse_param(spec, "ball", "q"))
    if spec.startswith("product:"):
        parts = [part for part in spec[len("product:"):].split(",") if part.strip()]
        if not parts:
            raise InvalidArgumentError(f"product spec {spec!r} lists no tails")
        tails = [tail_from_spec(part) for part in parts]
        if len(tails) == 1:
            tails = tails * n
        if len(tails) != n:
            raise InvalidArgumentError(
                f"product spec lists {len(tails)} tails but n = {n}")
        return ProductFamily(tails=tuple(tails))
    raise InvalidArgumentError(f"unknown family spec {spec!r}")
