"""Coefficient-vector arithmetic: rearrangements, index selection, partial norms.

Every moment surrogate reads its coefficients through this module.  The
central object is the nonincreasing rearrangement a* of (|a_1|, ..., |a_n|);
surrogates split it into a head of the p largest entries and an l2 tail.
Real (non-integer) p is supported by linear interpolation: the head gets the
first floor(p) entries plus a (p - floor(p)) fraction of the next one, and
the tail gives up the same fraction, which keeps every surrogate continuous
in p.  Each reduction takes one order or a sequence of orders: a sequence
returns one value (or index set) per order, all read from the sums a
``CoefficientVector`` caches once, and entry i equals the call at ``p[i]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import InvalidArgumentError

__all__ = [
    "CoefficientVector",
    "as_coefficients",
    "rearrange",
    "top_index_set",
    "partial_lq",
    "head_sum",
    "head_lq",
    "tail_sq_sum",
    "excluded_sq_sum",
]


class _Sums(NamedTuple):
    """The unit rearrangement u* = a* / a*_1 and its partial sums, each of
    length n + 1: a trailing zero lets a head of all n entries plus a zero
    share of entry n + 1 read a real entry."""

    unit: np.ndarray      # u*_1, ..., u*_n, 0
    sq: np.ndarray        # the squares of ``unit``
    head: np.ndarray      # entry k: u*_1 + ... + u*_k
    head_sq: np.ndarray   # entry k: (u*_1)^2 + ... + (u*_k)^2
    tail_sq: np.ndarray   # entry k: (u*_{k+1})^2 + ... + (u*_n)^2


@dataclass(frozen=True)
class CoefficientVector:
    """A finite real coefficient vector with its cached rearrangement.

    Once per vector it caches the stable descending order, the sup norm
    ``scale`` = a*_1 and the unit rearrangement a* / a*_1 with the prefix
    sums of its entries and squares and the suffix sums of its squares
    (``sums``).  Every reduction below reads them at one order or at many,
    on the unit scale, and multiplies by ``scale`` once: no square of a huge
    or tiny entry over- or underflows, and a power-of-two factor of a scales
    every result exactly.
    """

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) == 0:
            raise InvalidArgumentError("coefficient vector must be non-empty")
        if not all(math.isfinite(v) for v in self.values):
            raise InvalidArgumentError("coefficients must be finite")

    @classmethod
    def from_values(cls, values: Iterable[float]) -> "CoefficientVector":
        return cls(tuple(float(v) for v in values))

    @property
    def n(self) -> int:
        return len(self.values)

    @cached_property
    def array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    @cached_property
    def order(self) -> np.ndarray:
        """Indices of a* in the vector: by decreasing |a_i|, ties toward the
        lowest index."""
        return np.argsort(-np.abs(self.array), kind="stable")

    @cached_property
    def abs_sorted(self) -> np.ndarray:
        """|values| sorted nonincreasing (the rearrangement a*)."""
        return np.abs(self.array)[self.order]

    @cached_property
    def rearranged(self) -> tuple[float, ...]:
        return tuple(self.abs_sorted)

    @cached_property
    def scale(self) -> float:
        """max_i |a_i| = a*_1."""
        return float(self.abs_sorted[0])

    @cached_property
    def unit(self) -> np.ndarray:
        """a / max_i |a_i| in the original order (a itself for the zero vector)."""
        return self.array / self.scale if self.scale > 0.0 else self.array

    @cached_property
    def sums(self) -> _Sums:
        unit = np.zeros(self.n + 1)
        np.divide(self.abs_sorted, self.scale or 1.0, out=unit[:-1])
        sq = unit * unit
        # from the smallest square up, so that a small tail keeps its own
        # relative accuracy (a total minus a prefix would not)
        tail_sq = np.zeros(self.n + 1)
        np.add.accumulate(sq[-2::-1], out=tail_sq[-2::-1])
        return _Sums(unit, sq, _prefix_sums(unit), _prefix_sums(sq), tail_sq)


def _prefix_sums(padded: np.ndarray) -> np.ndarray:
    """(n + 1,) prefix sums of the first n entries of an (n + 1,) array."""
    out = np.zeros(padded.size)
    np.add.accumulate(padded[:-1], out=out[1:])
    return out


def as_coefficients(a) -> CoefficientVector:
    if isinstance(a, CoefficientVector):
        return a
    return CoefficientVector.from_values(a)


def rearrange(a) -> tuple[float, ...]:
    """Nonincreasing rearrangement of the absolute coefficients."""
    return as_coefficients(a).rearranged


def _orders(p, minimum: float, maximum: float = math.inf,
            above=InvalidArgumentError) -> np.ndarray:
    """``p`` as a non-empty flat vector of finite orders in [minimum, maximum].

    Every order is checked before the caller computes anything; an order above
    ``maximum`` raises ``above``.
    """
    ps = np.atleast_1d(np.asarray(p, dtype=float))
    if ps.ndim != 1 or ps.size == 0:
        raise InvalidArgumentError(
            f"moment orders must be a number or a non-empty flat sequence, got {p!r}")
    for order in ps.tolist():
        if not order >= minimum:
            raise InvalidArgumentError(f"order must satisfy p >= {minimum:g}, got {order}")
        if order > maximum:
            raise above(f"order {order} above supported maximum {maximum:g}")
        if order == math.inf:
            raise InvalidArgumentError(f"order must be finite, got {order}")
    return ps


def _per_order(values, p):
    """One order gives one value (a Python float for an array), a sequence
    of orders the whole array or tuple."""
    if np.ndim(p) != 0:
        return values
    return values[0].item() if isinstance(values, np.ndarray) else values[0]


# -- unit-scale reductions over checked order vectors -----------------------------

class _Cuts(NamedTuple):
    """Where each order cuts a*: min(p, n) = whole + frac, a head of ``whole``
    entries plus a ``frac`` share of the next one (frac = 0 at whole = n);
    ``size`` = min(ceil(p), n) entries form the top index set."""

    ps: np.ndarray
    root: np.ndarray
    whole: np.ndarray
    frac: np.ndarray
    size: np.ndarray


def _cuts(cv: CoefficientVector, ps: np.ndarray) -> _Cuts:
    clipped = np.minimum(ps, cv.n)
    whole = clipped.astype(np.intp)  # the floor, since clipped >= 0
    frac = clipped - whole
    return _Cuts(ps, np.sqrt(ps), whole, frac, whole + (frac > 0.0))


def _head(cv: CoefficientVector, c: _Cuts) -> np.ndarray:
    sums = cv.sums
    return sums.head[c.whole] + c.frac * sums.unit[c.whole]


def _head_lq(cv: CoefficientVector, c: _Cuts, q: float) -> np.ndarray:
    if math.isinf(q):
        return np.full(c.ps.size, cv.sums.unit[0])
    if q == 2.0:
        powers, sums = cv.sums.sq, cv.sums.head_sq
    else:
        powers = cv.sums.unit ** q
        sums = _prefix_sums(powers)
    return (sums[c.whole] + c.frac * powers[c.whole]) ** (1.0 / q)


def _tail_sq(cv: CoefficientVector, c: _Cuts) -> np.ndarray:
    sums = cv.sums
    return (1.0 - c.frac) * sums.sq[c.whole] + sums.tail_sq[np.minimum(c.whole + 1, cv.n)]


def _excluded_sq(cv: CoefficientVector, c: _Cuts) -> np.ndarray:
    return cv.sums.tail_sq[c.size]


def _index_sets(cv: CoefficientVector, c: _Cuts) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(sorted(cv.order[:k].tolist())) for k in c.size.tolist())


# -- public reductions ---------------------------------------------------------------

def top_index_set(a, p: float | Sequence[float]
                  ) -> tuple[int, ...] | tuple[tuple[int, ...], ...]:
    """Indices (0-based, ascending) of the min(ceil(p), n) largest |a_i|.

    Ties are broken toward the lowest original index, so the selection is a
    deterministic function of the input.  A sequence of orders gives a tuple
    with one index set per order.
    """
    cv = as_coefficients(a)
    return _per_order(_index_sets(cv, _cuts(cv, _orders(p, 2.0))), p)


def _lq(x: np.ndarray, q: float) -> float:
    if x.size == 0:
        return 0.0
    if math.isinf(q):
        return float(np.max(x))
    top = float(np.max(x))
    if top == 0.0:
        return 0.0
    # scale by the max so x**q cannot overflow for large q
    return top * float(np.sum((x / top) ** q)) ** (1.0 / q)


def partial_lq(a, q: float, *, head: int | None = None, tail: int | None = None,
               indices: Sequence[int] | None = None) -> float:
    """l_q norm of a slice of the coefficients.

    Exactly one selector must be given.  ``head=k`` / ``tail=k`` take the k
    largest / k smallest entries of the rearrangement a*; ``indices`` selects
    raw coordinates (as a set, in original order).  ``q`` may be ``math.inf``.
    """
    cv = as_coefficients(a)
    if q < 1:
        raise InvalidArgumentError(f"q must be >= 1, got {q}")
    given = sum(sel is not None for sel in (head, tail, indices))
    if given != 1:
        raise InvalidArgumentError("exactly one of head/tail/indices must be given")
    if head is not None or tail is not None:
        k = head if head is not None else tail
        if not (0 <= k <= cv.n):
            raise InvalidArgumentError(f"slice length {k} outside [0, {cv.n}]")
        x = cv.abs_sorted[:k] if head is not None else cv.abs_sorted[cv.n - k:]
    else:
        idx = sorted(set(int(i) for i in indices))
        if idx and (idx[0] < 0 or idx[-1] >= cv.n):
            raise InvalidArgumentError(f"indices outside [0, {cv.n})")
        x = np.abs(cv.array[idx])
    return _lq(x, q)


def head_sum(a, p: float | Sequence[float]) -> float | np.ndarray:
    """sum_{i <= p} a*_i with linear interpolation at non-integer p."""
    cv = as_coefficients(a)
    return _per_order(cv.scale * _head(cv, _cuts(cv, _orders(p, 0.0))), p)


def head_lq(a, p: float | Sequence[float], q: float) -> float | np.ndarray:
    """(sum_{i <= p} (a*_i)^q)^(1/q) with the same fractional-head convention.

    For q = inf this is max_{i <= p} a*_i = a*_1 (p >= 1 always covers the
    leading entry of a nonincreasing sequence).  The powers are taken on the
    unit scale, so large q cannot overflow.
    """
    cv = as_coefficients(a)
    return _per_order(cv.scale * _head_lq(cv, _cuts(cv, _orders(p, 0.0)), q), p)


def tail_sq_sum(a, p: float | Sequence[float]) -> float | np.ndarray:
    """sum_{i > p} (a*_i)^2, interpolated so head + tail stay complementary."""
    cv = as_coefficients(a)
    return _per_order(cv.scale * (cv.scale * _tail_sq(cv, _cuts(cv, _orders(p, 0.0)))), p)


def excluded_sq_sum(a, p: float | Sequence[float]) -> float | np.ndarray:
    """sum of a_i^2 over coordinates outside the top index set.

    Because the excluded multiset is exactly the n - min(ceil(p), n) smallest
    entries of a*, this equals sum_{i > min(ceil(p), n)} (a*_i)^2.
    """
    cv = as_coefficients(a)
    c = _cuts(cv, _orders(p, 0.0))
    return _per_order(cv.scale * (cv.scale * _excluded_sq(cv, c)), p)
