"""Exact reference values for the benchmark's accuracy figures.

Everything here is derived from the laws' definitions with numpy and scipy
only; no lcmoments code is imported, so a defect in the library cannot
hide in its own reference.

Even moments of S = sum_i a_i X_i with independent symmetric X_i follow from
the moment generating series: E S^{2k} is (2k)! times the z^{2k} coefficient
of prod_i sum_j E X_i^{2j} a_i^{2j} z^{2j} / (2j)!.  Every term is positive,
so nothing cancels.  The uniform law on r B_q^n reduces to the same product
through the Dirichlet representation of Barthe, Guedon, Mendelson and Naor
(Ann. Probab. 33 (2005)): with gamma_i ~ Gamma(1/q), W ~ Exp(1) and
T = sum gamma_i + W ~ Gamma(n/q + 1), X = r (eps_i gamma_i^{1/q}) / T^{1/q}
and the direction is independent of T, so

    E <a, X>^{2k} = r^{2k} E (sum a_i eps_i gamma_i^{1/q})^{2k} / E T^{2k/q}.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import betaln, gammaincc, gammaln

SQRT2 = math.sqrt(2.0)


# -- even absolute moments E X^{2j}, j = 0..k, of one coordinate --------------

def linear_tail_moments(rate: float, k: int) -> np.ndarray:
    """|X| ~ Exp(rate): E X^{2j} = (2j)! / rate^{2j}."""
    j = np.arange(k + 1)
    return np.exp(gammaln(2 * j + 1.0) - 2 * j * math.log(rate))


def power_tail_moments(alpha: float, scale: float, k: int) -> np.ndarray:
    """P(|X| >= t) = exp(-(t/scale)^alpha): E X^{2j} = scale^{2j} Gamma(1 + 2j/alpha)."""
    j = np.arange(k + 1)
    return np.exp(2 * j * math.log(scale) + gammaln(1.0 + 2 * j / alpha))


def tabulated_tail_moments(knots_t, knots_n, k: int) -> np.ndarray:
    """Piecewise-linear log-tail through the knots, with the mass e^{-N_max}
    left beyond the last knot placed on it.

    On a segment N(t) = n0 + s (t - t0), so
    int 2j t^{2j-1} e^{-N(t)} dt = 2j e^{s t0 - n0} s^{-2j} Gamma(2j) [Q(2j, s t0) - Q(2j, s t1)]
    with Q the regularized upper incomplete gamma function.
    """
    ts = np.asarray(knots_t, dtype=float)
    ns = np.asarray(knots_n, dtype=float)
    out = np.empty(k + 1)
    out[0] = 1.0
    for j in range(1, k + 1):
        m = 2 * j
        total = 0.0
        for t0, t1, n0, n1 in zip(ts[:-1], ts[1:], ns[:-1], ns[1:]):
            s = (n1 - n0) / (t1 - t0)
            log_front = s * t0 - n0 + gammaln(m + 1.0) - m * math.log(s)
            total += math.exp(log_front) * (gammaincc(m, s * t0) - gammaincc(m, s * t1))
        out[j] = total + math.exp(-ns[-1]) * ts[-1] ** m
    return out


def gauss_moments(k: int) -> np.ndarray:
    """E g^{2j} = (2j)! / (2^j j!)."""
    j = np.arange(k + 1)
    return np.exp(gammaln(2 * j + 1.0) - j * math.log(2.0) - gammaln(j + 1.0))


def cube_moments(k: int) -> np.ndarray:
    """Uniform on [-sqrt 3, sqrt 3]: E X^{2j} = 3^j / (2j + 1)."""
    j = np.arange(k + 1)
    return 3.0 ** j / (2 * j + 1.0)


def ball_marginal_moments(n: int, q: float, r: float, k: int) -> np.ndarray:
    """One coordinate of r B_q^n is r eps B^{1/q} with B ~ Beta(1/q, (n-1)/q + 1)."""
    j = np.arange(k + 1)
    b = (n - 1.0) / q + 1.0
    return np.exp(2 * j * math.log(r) + betaln((1.0 + 2 * j) / q, b) - betaln(1.0 / q, b))


def ball_radius(n: int, q: float) -> float:
    """Radius giving unit coordinate variance on r B_q^n."""
    return 1.0 / math.sqrt(ball_marginal_moments(n, q, 1.0, 1)[1])


# -- the product polynomial ------------------------------------------------------

def independent_even_moment(a, coordinate_moments, k: int) -> float:
    """E (sum a_i X_i)^{2k} for independent symmetric X_i.

    ``coordinate_moments`` is one array of E X_i^{2j}, j = 0..k, shared by all
    coordinates, or a list with one array per coordinate.
    """
    a = np.asarray(a, dtype=float)
    shared = isinstance(coordinate_moments, np.ndarray)
    j = np.arange(k + 1)
    log_fact = gammaln(2 * j + 1.0)
    poly = np.zeros(k + 1)
    poly[0] = 1.0
    for i, ai in enumerate(a):
        if ai == 0.0:
            continue
        mom = coordinate_moments if shared else coordinate_moments[i]
        with np.errstate(divide="ignore"):
            factor = np.exp(np.log(mom[: k + 1]) + 2 * j * math.log(abs(ai)) - log_fact)
        poly = np.convolve(poly, factor)[: k + 1]
    return float(poly[k] * math.exp(log_fact[k]))


def ball_even_moment(a, n: int, q: float, r: float, k: int) -> float:
    """E <a, X>^{2k} for X uniform on r B_q^n (Dirichlet representation)."""
    j = np.arange(k + 1)
    gamma_moments = np.exp(gammaln((1.0 + 2 * j) / q) - gammaln(1.0 / q))
    numerator = independent_even_moment(a, gamma_moments, k)
    shape = n / q + 1.0
    log_t_moment = gammaln(shape + 2.0 * k / q) - gammaln(shape)
    return r ** (2 * k) * numerator * math.exp(-log_t_moment)


def pnorm(moment: float, p: float) -> float:
    return moment ** (1.0 / p)


def even_order(p: float) -> int | None:
    """k with p = 2k, or None when p is not an even integer."""
    if p >= 2 and float(p).is_integer() and int(p) % 2 == 0:
        return int(p) // 2
    return None


# -- exact ||S||_p for the family specs the workloads use ------------------------

def spec_moments(spec: str, k: int):
    """Per-coordinate moments for an independent family spec, or None for balls."""
    if spec == "exp":
        return linear_tail_moments(SQRT2, k)
    if spec == "gauss":
        return gauss_moments(k)
    if spec == "cube":
        return cube_moments(k)
    return None


def exact_pnorm(spec: str, a, p: float) -> float | None:
    """Exact ||<a, X>||_p for ``exp``, ``gauss``, ``cube`` or ``ball:q=<q>``
    at even p; None at other p."""
    k = even_order(p)
    if k is None:
        return None
    n = len(a)
    if spec.startswith("ball:q="):
        q = float(spec[len("ball:q="):])
        return pnorm(ball_even_moment(a, n, q, ball_radius(n, q), k), p)
    return pnorm(independent_even_moment(a, spec_moments(spec, k), k), p)


def exp_joint_tail(thresholds) -> float:
    """P(|X_i| >= t_i for all i) for independent two-sided exponentials of rate sqrt 2."""
    return math.exp(-SQRT2 * float(np.sum(thresholds)))
