"""Tests of the benchmark's own parts: exact references, span arithmetic,
and the grid report's independence of the worker count.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import exact  # noqa: E402
import spans  # noqa: E402


# -- exact references -------------------------------------------------------------

def test_disk_fourth_moments_match_quadrature_oracle():
    # the acceptance suite's disk oracle: r = 2, a = (1, 1) gives 8 and 10
    r = exact.ball_radius(2, 2.0)
    assert r == pytest.approx(2.0, rel=1e-14)
    assert exact.ball_even_moment([1.0, 1.0], 2, 2.0, r, 2) == pytest.approx(8.0, rel=1e-12)
    twin = exact.independent_even_moment([1.0, 1.0], exact.ball_marginal_moments(2, 2.0, r, 2), 2)
    assert twin == pytest.approx(10.0, rel=1e-12)


def test_single_coordinate_fourth_moments():
    assert exact.independent_even_moment([1.0], exact.linear_tail_moments(exact.SQRT2, 2), 2) \
        == pytest.approx(6.0, rel=1e-14)
    assert exact.cube_moments(2)[2] == pytest.approx(9.0 / 5.0, rel=1e-14)
    assert exact.gauss_moments(3)[3] == pytest.approx(15.0, rel=1e-14)


def test_product_polynomial_matches_binomial_expansion():
    m = exact.linear_tail_moments(exact.SQRT2, 2)
    a1, a2 = 0.7, -1.3
    expected = a1 ** 4 * m[2] + 6.0 * a1 ** 2 * a2 ** 2 * m[1] ** 2 + a2 ** 4 * m[2]
    assert exact.independent_even_moment([a1, a2], m, 2) == pytest.approx(expected, rel=1e-13)


def test_gaussian_sum_is_gaussian():
    a = np.array([0.3, -1.1, 0.4, 2.0])
    l2 = float(np.sqrt(np.sum(a * a)))
    for p in (2.0, 8.0, 32.0):
        gamma_p = (2.0 ** (p / 2) * math.gamma((p + 1) / 2) / math.sqrt(math.pi)) ** (1 / p)
        assert exact.exact_pnorm("gauss", a, p) == pytest.approx(gamma_p * l2, rel=1e-12)
    assert exact.exact_pnorm("gauss", a, 3.0) is None


def test_ball_radius_matches_library():
    from lcmoments.families import isotropic_radius

    for n, q in ((3, 1.0), (16, 2.0), (64, 1.0), (7, 3.5)):
        assert exact.ball_radius(n, q) == pytest.approx(isotropic_radius(n, q), rel=1e-12)


def test_tabulated_moments_match_quadrature():
    ts = np.array([0.0, 0.5, 1.3, 2.0, 4.0])
    ns = np.array([0.0, 0.6, 2.2, 4.0, 80.0])
    got = exact.tabulated_tail_moments(ts, ns, 3)
    for j in (1, 2, 3):
        m = 2 * j
        integral = sum(quad(lambda t: m * t ** (m - 1) * math.exp(-np.interp(t, ts, ns)),
                            lo, hi, epsabs=0.0, epsrel=1e-12)[0]
                       for lo, hi in zip(ts[:-1], ts[1:]))
        expected = integral + math.exp(-ns[-1]) * ts[-1] ** m
        assert got[j] == pytest.approx(expected, rel=1e-9)


def test_tabulated_variance_matches_library():
    from lcmoments.tails import TailFunction

    tail = TailFunction.tabulated([0.0, 0.4, 1.0, 2.5], [0.0, 0.5, 2.0, 70.0])
    got = exact.tabulated_tail_moments(tail.knots_t, tail.knots_n, 1)[1]
    assert got == pytest.approx(tail.variance(), rel=1e-12)


# -- span arithmetic ----------------------------------------------------------------

def test_self_time_subtracts_union_of_children():
    parent = spans.Span(1, "run", 0.0, 10.0, None, 0)
    kids = [spans.Span(2, "cell", 1.0, 4.0, 1, 1), spans.Span(3, "cell", 3.0, 6.0, 1, 2),
            spans.Span(4, "cell", 8.0, 9.0, 1, 1)]
    own = spans.self_times([parent, *kids])
    assert own[1] == pytest.approx(10.0 - 6.0)
    assert own[2] == pytest.approx(3.0)


def test_tracer_parents_pool_threads_to_the_main_span():
    from concurrent.futures import ThreadPoolExecutor

    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: None)
    with tracer.span("outer"):
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(lambda _: inner(), range(4)))
    outer = [s for s in tracer.spans if s.name == "outer"][0]
    children = [s for s in tracer.spans if s.name == "inner"]
    assert len(children) == 4
    assert all(s.parent == outer.sid for s in children)


# -- reference speed ----------------------------------------------------------------

def test_round_speeds_come_from_the_kernel_times_of_neighbouring_rounds():
    import run

    ref = run.REFERENCE_S
    tally = run.Tally()
    tally.round_walls = [1.0, 1.0, 1.0, 1.0]
    tally.reference = [ref, ref, 2.0 * ref, 2.0 * ref]
    tally.reference_round = [0, 1, 2, 3]
    assert tally.round_speeds() == pytest.approx([1.0, 1.0, 0.5, 0.5])
    # a round at half speed did its work in twice the time: scaling undoes that
    tally.round_rates = {0: 10.0, 3: 5.0}
    tally.latencies, tally.latency_round = [0.1, 0.2], [0, 3]
    rates, latencies = tally.scaled_timings()
    assert rates == pytest.approx([10.0, 10.0])
    assert latencies == pytest.approx([0.1, 0.1])


def test_scaled_touches_only_times_and_rates():
    import run

    got = run.scaled({"t": (2.0, "s/call"), "r": (2.0, "1/s"), "n": (2.0, "count/round"),
                      "x": (2.0, "ratio")}, 0.5)
    assert got == {"t": (1.0, "s/call"), "r": (4.0, "1/s"), "n": (2.0, "count/round"),
                   "x": (2.0, "ratio")}


# -- grid determinism --------------------------------------------------------------

def test_grid_report_bytes_do_not_depend_on_worker_count(tmp_path, monkeypatch):
    import lcmoments
    import workloads

    monkeypatch.setenv("LCM_WORKERS", "1")   # restored after the test; build() sets it
    grid = workloads.Grid(lcmoments, 7, tmp_path)
    grid.build()
    reports = {}
    for workers in ("1", "2"):
        monkeypatch.setenv("LCM_WORKERS", workers)
        reports[workers] = [op.call()[1] for op in grid.round_ops(0)]
    assert reports["1"] == reports["2"]
    assert all(len(data) > 0 for data in reports["1"])
