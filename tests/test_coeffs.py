import math

import numpy as np
import pytest

from lcmoments.coeffs import (
    CoefficientVector,
    as_coefficients,
    excluded_sq_sum,
    head_lq,
    head_sum,
    partial_lq,
    rearrange,
    tail_sq_sum,
    top_index_set,
)
from lcmoments.errors import InvalidArgumentError

A = (3.0, -1.0, 2.0, 0.5)  # rearrangement (3, 2, 1, 0.5)


def test_rearrange_sorts_absolute_values():
    assert rearrange(A) == (3.0, 2.0, 1.0, 0.5)
    assert rearrange((-2.0,)) == (2.0,)


def test_vector_validation():
    with pytest.raises(InvalidArgumentError):
        CoefficientVector.from_values(())
    with pytest.raises(InvalidArgumentError):
        CoefficientVector.from_values((1.0, math.nan))
    with pytest.raises(InvalidArgumentError):
        CoefficientVector.from_values((math.inf,))


@pytest.mark.parametrize("values", [
    [0.5, -2.0, 7.0], [3, -1, 0], [True, False], np.float32([0.1, -0.3]),
    [1.0, math.nan], [math.inf, 1.0], [-math.inf], [],
])
def test_an_ndarray_converts_like_its_list(values):
    arr = np.asarray(values)
    try:
        expected = CoefficientVector.from_values(list(values))
    except InvalidArgumentError as err:
        with pytest.raises(InvalidArgumentError, match=str(err)):
            CoefficientVector.from_values(arr)
        return
    cv = CoefficientVector.from_values(arr)
    assert cv == expected and all(type(v) is float for v in cv.values)
    np.testing.assert_array_equal(cv.array, expected.array)
    # the vector keeps its own copy of the entries
    arr[0] = 9
    assert cv.array[0] == cv.values[0] == expected.values[0]


def test_as_coefficients_is_idempotent():
    cv = as_coefficients(A)
    assert as_coefficients(cv) is cv
    assert as_coefficients(np.asarray(A)).values == tuple(A)


def test_top_index_set_basic():
    assert top_index_set(A, 2.0) == (0, 2)
    assert top_index_set(A, 2.5) == (0, 1, 2)  # ceil(2.5) = 3 largest
    assert top_index_set(A, 4.0) == (0, 1, 2, 3)
    assert top_index_set(A, 32.0) == (0, 1, 2, 3)  # capped at n


def test_top_index_set_breaks_ties_toward_low_index():
    assert top_index_set((1.0, -1.0, 1.0), 2.0) == (0, 1)
    assert top_index_set((0.5, 1.0, -1.0, 1.0), 2.0) == (1, 2)


def test_top_index_set_rejects_small_p():
    for p in (1.5, math.nan, math.inf):
        with pytest.raises(InvalidArgumentError):
            top_index_set(A, p)


@pytest.mark.parametrize("fn", [head_sum, lambda a, p: head_lq(a, p, 2.0), tail_sq_sum,
                                excluded_sq_sum],
                         ids=["head_sum", "head_lq", "tail_sq_sum", "excluded_sq_sum"])
@pytest.mark.parametrize("p", [-1.0, math.nan, math.inf])
def test_partial_sums_reject_a_bad_order(fn, p):
    with pytest.raises(InvalidArgumentError):
        fn(A, p)


def test_head_sum_integer_and_fractional():
    assert head_sum(A, 2.0) == pytest.approx(5.0)
    assert head_sum(A, 2.5) == pytest.approx(5.5)  # 3 + 2 + 0.5 * 1
    assert head_sum(A, 4.0) == pytest.approx(6.5)
    assert head_sum(A, 9.0) == pytest.approx(6.5)  # past n: plain sum


def test_head_sum_is_continuous_in_p():
    for k in (2, 3):
        below = head_sum(A, k + 1 - 1e-9)
        at = head_sum(A, float(k + 1))
        assert abs(below - at) < 1e-6


def test_head_lq_matches_direct_computation():
    assert head_lq(A, 2.0, 2.0) == pytest.approx(math.sqrt(13.0))
    expected = 3.0 * math.sqrt(1.0 + (2 / 3) ** 2 + 0.5 * (1 / 3) ** 2)
    assert head_lq(A, 2.5, 2.0) == pytest.approx(expected)
    assert head_lq(A, 3.0, math.inf) == 3.0


def test_head_tail_sq_are_complementary():
    total = float(np.sum(np.asarray(A) ** 2))
    for p in (2.0, 2.5, 3.0, 3.7, 4.0, 11.0):
        head = head_lq(A, p, 2.0) ** 2
        assert head + tail_sq_sum(A, p) == pytest.approx(total, rel=1e-12)


def test_tail_sq_sum_values():
    assert tail_sq_sum(A, 2.0) == pytest.approx(1.25)
    assert tail_sq_sum(A, 2.5) == pytest.approx(0.75)
    assert tail_sq_sum(A, 4.0) == 0.0


def test_excluded_sq_sum_tracks_the_index_set():
    for p in (2.0, 2.5, 3.0, 4.0, 17.0):
        idx = set(top_index_set(A, p))
        direct = sum(v * v for i, v in enumerate(A) if i not in idx)
        assert excluded_sq_sum(A, p) == pytest.approx(direct, abs=1e-15)


def test_partial_lq_selectors():
    assert partial_lq(A, 1.0, head=2) == pytest.approx(5.0)
    assert partial_lq(A, 2.0, tail=2) == pytest.approx(math.sqrt(1.25))
    assert partial_lq(A, 2.0, indices=(0, 2)) == pytest.approx(math.sqrt(13.0))
    assert partial_lq(A, math.inf, head=4) == 3.0
    assert partial_lq(A, 2.0, head=0) == 0.0
    assert partial_lq(A, 2.0, indices=()) == 0.0


def test_partial_lq_deduplicates_indices():
    assert partial_lq(A, 1.0, indices=(2, 2, 0)) == pytest.approx(5.0)


def test_partial_lq_selector_validation():
    with pytest.raises(InvalidArgumentError):
        partial_lq(A, 2.0)
    with pytest.raises(InvalidArgumentError):
        partial_lq(A, 2.0, head=1, tail=1)
    with pytest.raises(InvalidArgumentError):
        partial_lq(A, 2.0, head=5)
    with pytest.raises(InvalidArgumentError):
        partial_lq(A, 2.0, indices=(4,))
    with pytest.raises(InvalidArgumentError):
        partial_lq(A, 0.5, head=1)


def test_partial_lq_large_q_does_not_overflow():
    value = partial_lq((1e160, 1e160), 64.0, head=2)
    assert math.isfinite(value)
    assert value == pytest.approx(1e160 * 2.0 ** (1 / 64), rel=1e-12)


# -- order vectors -------------------------------------------------------------------

ORDERS = (0.0, 0.5, 2.0, 2.5, 3.7, 4.0, 11.0)


@pytest.mark.parametrize("fn", [head_sum, lambda a, p: head_lq(a, p, 2.0),
                                lambda a, p: head_lq(a, p, 3.5), tail_sq_sum,
                                excluded_sq_sum],
                         ids=["head_sum", "head_lq2", "head_lq3.5", "tail_sq_sum",
                              "excluded_sq_sum"])
def test_order_vectors_equal_the_scalar_calls(fn):
    values = fn(A, ORDERS)
    assert isinstance(values, np.ndarray) and values.shape == (len(ORDERS),)
    for p, value in zip(ORDERS, values):
        scalar = fn(A, p)
        assert type(scalar) is float and scalar == value


def test_top_index_set_over_orders():
    assert top_index_set(A, (2.0, 2.5, 32.0)) == ((0, 2), (0, 1, 2), (0, 1, 2, 3))


@pytest.mark.parametrize("orders", [(2.0, -1.0), (2.0, math.nan), (math.inf, 2.0), (), ((2.0,),)])
def test_every_order_of_a_vector_is_checked(orders):
    for fn in (head_sum, tail_sq_sum, excluded_sq_sum, lambda a, p: head_lq(a, p, 2.0)):
        with pytest.raises(InvalidArgumentError):
            fn(A, orders)


def test_small_tails_keep_their_relative_accuracy():
    # a total minus a prefix would leave rounding noise of the size of the
    # head here; the suffix sums keep the tail to a few ulps
    a = 0.5 ** np.arange(64)
    for p in (16.0, 32.0, 40.5):
        k = math.floor(p)
        frac = p - k
        want = math.fsum([(1.0 - frac) * a[k] ** 2] + [x * x for x in a[k + 1:]])
        assert tail_sq_sum(a, p) == pytest.approx(want, rel=1e-15, abs=0.0)
        want = math.fsum(x * x for x in a[math.ceil(p):])
        assert excluded_sq_sum(a, p) == pytest.approx(want, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("exponent", [500, -500])
def test_reductions_scale_exactly_by_a_power_of_two(exponent):
    factor = 2.0 ** exponent
    scaled = np.asarray(A) * factor
    for p in (2.0, 2.5, 9.0):
        assert head_sum(scaled, p) == head_sum(A, p) * factor
        assert head_lq(scaled, p, 3.0) == head_lq(A, p, 3.0) * factor
        assert tail_sq_sum(scaled, p) == tail_sq_sum(A, p) * factor ** 2
        assert excluded_sq_sum(scaled, p) == excluded_sq_sum(A, p) * factor ** 2
