"""Coefficient-vector arithmetic: rearrangements, index selection, partial norms.

Every moment surrogate reads its coefficients through this module.  The
central object is the nonincreasing rearrangement a* of (|a_1|, ..., |a_n|);
surrogates split it into a head of the p largest entries and an l2 tail.
Real (non-integer) p is supported by linear interpolation: the head gets the
first floor(p) entries plus a (p - floor(p)) fraction of the next one, and
the tail gives up the same fraction, which keeps every surrogate continuous
in p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

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


@dataclass(frozen=True)
class CoefficientVector:
    """A finite real coefficient vector with its cached rearrangement."""

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
    def abs_sorted(self) -> np.ndarray:
        """|values| sorted nonincreasing (the rearrangement a*)."""
        return np.sort(np.abs(self.array))[::-1].copy()

    @cached_property
    def rearranged(self) -> tuple[float, ...]:
        return tuple(self.abs_sorted)


def as_coefficients(a) -> CoefficientVector:
    if isinstance(a, CoefficientVector):
        return a
    return CoefficientVector.from_values(a)


def rearrange(a) -> tuple[float, ...]:
    """Nonincreasing rearrangement of the absolute coefficients."""
    return as_coefficients(a).rearranged


def top_index_set(a, p: float) -> tuple[int, ...]:
    """Indices (0-based, ascending) of the min(ceil(p), n) largest |a_i|.

    Ties are broken toward the lowest original index, so the selection is a
    deterministic function of the input.
    """
    cv = as_coefficients(a)
    if not 2 <= p < math.inf:
        raise InvalidArgumentError(f"p must be finite and >= 2, got {p}")
    k = min(math.ceil(p), cv.n)
    order = np.argsort(-np.abs(cv.array), kind="stable")
    return tuple(sorted(int(i) for i in order[:k]))


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


def _check_order(p: float) -> None:
    if not 0.0 <= p < math.inf:
        raise InvalidArgumentError(f"p must be finite and >= 0, got {p}")


def head_sum(a, p: float) -> float:
    """sum_{i <= p} a*_i with linear interpolation at non-integer p."""
    _check_order(p)
    cv = as_coefficients(a)
    ar = cv.abs_sorted
    k = math.floor(p)
    if k >= cv.n:
        return float(np.sum(ar))
    frac = p - k
    return float(np.sum(ar[:k])) + frac * float(ar[k])


def head_lq(a, p: float, q: float) -> float:
    """(sum_{i <= p} (a*_i)^q)^(1/q) with the same fractional-head convention.

    For q = inf this is max_{i <= p} a*_i = a*_1 (p >= 1 always covers the
    leading entry of a nonincreasing sequence).
    """
    _check_order(p)
    cv = as_coefficients(a)
    ar = cv.abs_sorted
    if math.isinf(q):
        return float(ar[0])
    k = math.floor(p)
    if k >= cv.n:
        return _lq(ar, q)
    frac = p - k
    top = float(ar[0])
    if top == 0.0:
        return 0.0
    scaled = ar / top
    acc = float(np.sum(scaled[:k] ** q)) + frac * float(scaled[k] ** q)
    return top * acc ** (1.0 / q)


def tail_sq_sum(a, p: float) -> float:
    """sum_{i > p} (a*_i)^2, interpolated so head + tail stay complementary."""
    _check_order(p)
    cv = as_coefficients(a)
    ar = cv.abs_sorted
    k = math.floor(p)
    if k >= cv.n:
        return 0.0
    frac = p - k
    sq = ar * ar
    return (1.0 - frac) * float(sq[k]) + float(np.sum(sq[k + 1:]))


def excluded_sq_sum(a, p: float) -> float:
    """sum of a_i^2 over coordinates outside the top index set.

    Because the excluded multiset is exactly the n - min(ceil(p), n) smallest
    entries of a*, this equals sum_{i > min(ceil(p), n)} (a*_i)^2.
    """
    _check_order(p)
    cv = as_coefficients(a)
    k = min(math.ceil(p), cv.n)
    sq = cv.abs_sorted * cv.abs_sorted
    return float(np.sum(sq[k:]))
