"""Log-tail functions N(t) = -ln P(|X| >= t) of symmetric scalar laws.

A tail function is the budget currency of the level-set maximization: a
coordinate may be pushed out to t at a cost of N(t), and a total budget p
buys the whole feasible set {sum_i N_i(t_i) <= p}.  Three representations
are supported:

* linear      N(t) = rate * t          (two-sided exponential law),
* power       N(t) = (t / scale)^alpha (alpha > 1; alpha = 1 is linear),
* tabulated   piecewise-linear through given knots.

Every N satisfies N(0) = 0, is strictly increasing and convex, and the
constructor checks this per kind, so a direct ``TailFunction(...)`` is checked
like a factory's.  Tabulated tables must climb to at least ``TABLE_MIN_TOP``
so that any supported moment order keeps its constraint active inside the
table; beyond the last knot the law is treated as having no further mass
(evaluation clamps, and sampling returns the last knot with probability
e^{-N_max} <= e^{-64}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import gammaln

from .errors import InvalidArgumentError

__all__ = ["TailFunction", "tail_from_spec", "TABLE_MIN_TOP",
           "linear", "exponential", "power", "tabulated"]

TABLE_MIN_TOP = 64.0

_CONVEXITY_SLACK = 1e-9


@dataclass(frozen=True)
class TailFunction:
    """One coordinate's log-tail N(t) = -ln P(|X| >= t)."""

    kind: str
    rate: float = 0.0
    alpha: float = 0.0
    scale: float = 0.0
    knots_t: tuple[float, ...] = ()
    knots_n: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind == "linear":
            if not (self.rate > 0 and math.isfinite(self.rate)):
                raise InvalidArgumentError(f"linear tail needs rate > 0, got {self.rate}")
        elif self.kind == "power":
            if not (self.scale > 0 and math.isfinite(self.scale)):
                raise InvalidArgumentError(f"power tail needs scale > 0, got {self.scale}")
            # the power closed forms divide by alpha - 1; ``power`` builds
            # alpha = 1 as a linear tail
            if not (self.alpha > 1.0 and math.isfinite(self.alpha)):
                raise InvalidArgumentError(
                    f"a power tail needs alpha > 1 (alpha = 1 is linear), got {self.alpha}")
        elif self.kind == "tabulated":
            ts = np.asarray(self.knots_t, dtype=float)
            ns = np.asarray(self.knots_n, dtype=float)
            if ts.ndim != 1 or ts.shape != ns.shape or ts.size < 2:
                raise InvalidArgumentError("tabulated tail needs two aligned knot arrays")
            if not (np.all(np.isfinite(ts)) and np.all(np.isfinite(ns))):
                raise InvalidArgumentError("tabulated knots must be finite")
            if ts[0] != 0.0 or ns[0] != 0.0:
                raise InvalidArgumentError("tabulated tail must start at N(0) = 0")
            if not (np.all(np.diff(ts) > 0) and np.all(np.diff(ns) > 0)):
                raise InvalidArgumentError("tabulated knots must be strictly increasing")
            slopes = np.diff(ns) / np.diff(ts)
            if np.any(np.diff(slopes) < -_CONVEXITY_SLACK * slopes.max()):
                raise InvalidArgumentError("tabulated tail must be convex (nondecreasing slopes)")
            if ns[-1] < TABLE_MIN_TOP - 1e-9:
                raise InvalidArgumentError(
                    f"tabulated tail must reach N >= {TABLE_MIN_TOP}, got {ns[-1]}")
            object.__setattr__(self, "knots_t", tuple(ts.tolist()))
            object.__setattr__(self, "knots_n", tuple(ns.tolist()))
        else:
            raise InvalidArgumentError(f"unknown tail kind {self.kind!r}")

    # -- constructors -------------------------------------------------

    @classmethod
    def linear(cls, rate: float) -> "TailFunction":
        return cls(kind="linear", rate=float(rate))

    @classmethod
    def exponential(cls) -> "TailFunction":
        """The isotropic two-sided exponential: N(t) = sqrt(2) t."""
        return cls.linear(math.sqrt(2.0))

    @classmethod
    def power(cls, alpha: float, scale: float | None = None) -> "TailFunction":
        """N(t) = (t/scale)^alpha; with scale omitted, calibrated to unit variance.

        E X^2 = integral 2 t e^{-(t/s)^alpha} dt = 2 s^2 Gamma(2/alpha) / alpha,
        so s = sqrt(alpha / (2 Gamma(2/alpha))) gives variance one.  alpha = 1
        is the linear tail of rate 1/s, so the unit-variance default is the
        exponential member.
        """
        if not (alpha >= 1 and math.isfinite(alpha)):
            raise InvalidArgumentError(f"power tail needs alpha >= 1, got {alpha}")
        if scale is None:
            scale = math.sqrt(alpha / (2.0 * math.exp(gammaln(2.0 / alpha))))
        # a scale outside (0, inf) is left to the constructor to refuse
        if alpha == 1.0 and 0.0 < scale < math.inf:
            return cls.linear(1.0 / scale)
        return cls(kind="power", alpha=float(alpha), scale=float(scale))

    @classmethod
    def tabulated(cls, knots_t, knots_n) -> "TailFunction":
        return cls(kind="tabulated", knots_t=knots_t, knots_n=knots_n)

    # -- basic queries -------------------------------------------------

    @property
    def sup_value(self) -> float:
        """Largest N value the representation can certify."""
        return self.knots_n[-1] if self.kind == "tabulated" else math.inf

    @cached_property
    def _slopes(self) -> np.ndarray:
        return np.diff(np.asarray(self.knots_n)) / np.diff(np.asarray(self.knots_t))

    def value(self, t):
        """N(t), vectorized; tabulated tails clamp beyond the last knot."""
        t = np.asarray(t, dtype=float)
        if self.kind == "linear":
            out = self.rate * t
        elif self.kind == "power":
            out = (t / self.scale) ** self.alpha
        else:
            out = np.interp(t, self.knots_t, self.knots_n)
        return float(out) if out.ndim == 0 else out

    def inverse(self, v):
        """Generalized inverse N^{-1}(v) = sup{t : N(t) <= v}, vectorized.

        Tabulated tails clamp at the last knot for v beyond the table.
        """
        v = np.asarray(v, dtype=float)
        if self.kind == "linear":
            out = v / self.rate
        elif self.kind == "power":
            out = v ** (1.0 / self.alpha)
            out *= self.scale
        else:
            out = np.interp(v, self.knots_n, self.knots_t)
        return float(out) if out.ndim == 0 else out

    def variance(self) -> float:
        """E X^2 = integral 2 t e^{-N(t)} dt of the law with this tail."""
        if self.kind == "linear":
            return 2.0 / self.rate ** 2
        if self.kind == "power":
            return 2.0 * self.scale ** 2 * math.exp(gammaln(2.0 / self.alpha)) / self.alpha
        # piecewise closed form; the clamped sampler puts mass e^{-N_max}
        # on the last knot, which contributes the final term
        total = 0.0
        ts = self.knots_t
        ns = self.knots_n
        for k, s in enumerate(self._slopes):
            t0, length, n0 = ts[k], ts[k + 1] - ts[k], ns[k]
            decay = math.exp(-s * length)
            total += 2.0 * math.exp(-n0) * (
                (1.0 - decay * (1.0 + s * length)) / s ** 2
                + t0 * (1.0 - decay) / s)
        total += math.exp(-ns[-1]) * ts[-1] ** 2
        return total

    # -- level-set maximization support ---------------------------------

    def tilt_argmax(self, b: float, lam: float, cap: float) -> float:
        """argmax over [0, cap] of b*t - lam*N(t) (smallest maximizer on ties)."""
        if b <= 0.0:
            return 0.0
        if self.kind == "linear":
            return cap if b > lam * self.rate else 0.0
        if self.kind == "power":
            if cap <= 0.0:
                return 0.0
            # compare in log space: the exponent blows up as alpha -> 1
            exponent = 1.0 / (self.alpha - 1.0)
            log_free = math.log(self.scale) + exponent * math.log(b * self.scale / (lam * self.alpha))
            if log_free >= math.log(cap):
                return cap
            return math.exp(log_free)
        idx = int(np.searchsorted(self._slopes, b / lam, side="left"))
        return min(float(self.knots_t[idx]), cap)


# factory aliases for callers that read better without the class prefix
linear = TailFunction.linear
exponential = TailFunction.exponential
power = TailFunction.power
tabulated = TailFunction.tabulated


def tail_from_spec(spec: str) -> TailFunction:
    """Parse a tail spec string: ``exp`` or ``pow:alpha=<a>``.

    Both members are calibrated to unit variance so that product families
    built from them are isotropic.
    """
    spec = spec.strip()
    if spec == "exp":
        return TailFunction.exponential()
    if spec.startswith("pow:"):
        return TailFunction.power(_parse_param(spec, "pow", "alpha"))
    raise InvalidArgumentError(f"unknown tail spec {spec!r}")


def _parse_param(spec: str, name: str, param: str) -> float:
    """The float value of a ``<name>:<param>=<value>`` spec string."""
    key, _, raw = spec[len(name) + 1:].partition("=")
    if key.strip() != param or not raw:
        raise InvalidArgumentError(f"malformed {name} spec {spec!r}")
    try:
        return float(raw)
    except ValueError as exc:
        raise InvalidArgumentError(f"malformed {name} spec {spec!r}") from exc
