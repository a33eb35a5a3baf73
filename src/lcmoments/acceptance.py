"""Acceptance checks tying surrogates to oracles and Monte-Carlo ground truth.

Each check is a pure function of a base seed returning a CheckResult with a
machine-readable detail payload.  Checks are grouped into named suites for
the ``verify`` CLI verb; the full list runs under pytest.  Every random
quantity inside a check is drawn from a generator or estimator seeded with a
child seed of (seed, check tag), so two runs with the same seed produce
identical verdicts.
"""

from __future__ import annotations

import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import beta

from .errors import InvalidArgumentError
from .families import (
    UniformBall,
    _marginal_beta,
    family_from_spec,
    level_set_support,
    product_exponential,
)
from .harness import (
    WORKERS_ENV,
    ExperimentConfig,
    ExperimentResult,
    _reference_surrogate,
    coefficient_profile,
    rows_to_csv_bytes,
    run_experiment,
)
from .montecarlo import (
    _child_seed,
    dependent_vs_independent,
    estimate_fourth_moment,
    estimate_joint_tail,
    estimate_pnorm,
    rademacher_pnorm_exact,
)
from .surrogates import gaussian_band, gaussian_pnorm, gluskin_kwapien
from .tails import TailFunction, exponential, power, tabulated

__all__ = [
    "CheckResult",
    "gk_grid_oracle",
    "run_suite",
    "run_checks",
    "CHECKS",
    "SUITES",
]

# stream tags; the equivalence grid tag is shared so the envelope and the
# quartic probe reuse one set of Monte-Carlo rows
_STREAM_KHINTCHINE = 2
_STREAM_GK_ORACLE = 3
_STREAM_MOMENT4 = 4
_STREAM_GRID = 5
_STREAM_FLAT_BAND = 6
_STREAM_LOWER_BAND = 7
_STREAM_NEG_ASSOC = 9
_STREAM_JOINT_TAIL = 10
_STREAM_DETERMINISM = 11

GRID_FAMILIES = ("exp", "ball:q=1", "ball:q=2", "cube")
GRID_PROFILES = ("one_hot", "flat", "geometric:rho=0.7", "power:alpha=1")
GRID_DIMS = (4, 16, 64)
GRID_ORDERS = (2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0)
GRID_SAMPLES = 1_000_000


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: dict
    seconds: float


def _finish(name: str, passed: bool, detail: dict, start: float) -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail,
                       seconds=round(time.perf_counter() - start, 3))


# -- 1. Gaussian moment constants against adaptive quadrature -----------------

def check_gaussian_moment_quadrature(seed: int) -> CheckResult:
    # scipy.integrate is imported here, where it is used: it loads
    # scipy.optimize, linalg, sparse and spatial (about 25 MB), which no
    # other check needs
    from scipy.integrate import quad

    start = time.perf_counter()
    worst = 0.0
    worst_p = None
    for p in np.arange(1.0, 50.0 + 1e-9, 0.5):
        integral, _ = quad(lambda x, pp=p: x ** pp * math.exp(-0.5 * x * x),
                           0.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=200)
        reference = (2.0 * integral / math.sqrt(2.0 * math.pi)) ** (1.0 / p)
        rel = abs(gaussian_pnorm(float(p)) - reference) / reference
        if rel > worst:
            worst, worst_p = rel, float(p)
    detail = {"max_rel_error": worst, "argmax_p": worst_p, "tolerance": 1e-10}
    return _finish("gaussian_moment_quadrature", worst <= 1e-10, detail, start)


# -- 2. Rademacher sums never exceed the Gaussian constant --------------------

def check_rademacher_gaussian_domination(seed: int) -> CheckResult:
    start = time.perf_counter()
    rng = np.random.default_rng(_child_seed(seed, _STREAM_KHINTCHINE))
    orders = (2.0, 3.0, 4.0, 8.0, 16.0)
    worst = -math.inf
    worst_case = None
    violations = 0
    for _ in range(200):
        n = int(rng.integers(1, 13))
        a = rng.standard_normal(n)
        if not np.any(a):
            a[0] = 1.0
        l2 = float(np.sqrt(np.sum(a * a)))
        for p in orders:
            exact = rademacher_pnorm_exact(a, p)
            bound = gaussian_pnorm(p) * l2
            excess = exact / bound - 1.0
            if excess > worst:
                worst, worst_case = excess, {"n": n, "p": p}
            if excess > 1e-12:
                violations += 1
    detail = {"vectors": 200, "orders": list(orders), "violations": violations,
              "max_excess": worst, "worst_case": worst_case, "tolerance": 1e-12}
    return _finish("rademacher_gaussian_domination", violations == 0, detail, start)


# -- 3. tail-program solver against a refining grid oracle --------------------

# the grid oracle's zoom: points per 1-D grid and refining passes per level
_ORACLE_POINTS = 201
_ORACLE_PASSES = 8


def _alloc_value(bs: np.ndarray, tails: list[TailFunction], budgets: np.ndarray) -> np.ndarray:
    """max{sum b_i N_i^{-1}(s_i) : s_i >= 0, sum s_i <= budget} per entry.

    Recursion over the first coordinate's budget share: the remainder value
    is concave in the share (partial maximization of a concave function), so
    the refining 1-D grid zoom is unimodal and keeps the true argmax inside
    its bracket at every pass.
    """
    budgets = np.maximum(budgets, 0.0)
    if len(tails) == 1:
        return bs[0] * tails[0].inverse(budgets)
    lo = np.zeros_like(budgets)
    hi = budgets.copy()
    best = np.full(budgets.shape, -np.inf)
    frac = np.linspace(0.0, 1.0, _ORACLE_POINTS)
    for _ in range(_ORACLE_PASSES):
        s = lo[..., None] + (hi - lo)[..., None] * frac
        rest = np.maximum(budgets[..., None] - s, 0.0)
        vals = bs[0] * tails[0].inverse(s) \
            + _alloc_value(bs[1:], tails[1:], rest)
        k = np.argmax(vals, axis=-1)[..., None]
        best = np.maximum(best, np.take_along_axis(vals, k, -1)[..., 0])
        center = np.take_along_axis(s, k, -1)[..., 0]
        step = (hi - lo) / (_ORACLE_POINTS - 1)
        lo = np.maximum(0.0, center - step)
        hi = np.minimum(budgets, center + step)
    return best


def gk_grid_oracle(b, tails: list[TailFunction], p: float) -> float:
    """Brute-force sup{sum b_i t_i : sum N_i(t_i) <= p} by refining grids
    over budget allocations.  Every evaluated allocation is feasible, so the
    result is a certified lower bound; cost grows as points*passes per
    dimension, which is practical for the 2-D and 3-D oracle mixes.
    """
    bs = np.asarray(b, dtype=float)
    budget = np.asarray([float(p)])
    return float(_alloc_value(bs, list(tails), budget)[0])


def _random_tabulated(rng: np.random.Generator) -> TailFunction:
    k = int(rng.integers(3, 7))
    dts = rng.uniform(0.3, 1.2, k)
    ts = np.concatenate([[0.0], np.cumsum(dts)])
    slopes = rng.uniform(0.5, 2.0) + np.concatenate(
        [[0.0], np.cumsum(rng.uniform(0.2, 1.5, k - 1))])
    ns = np.concatenate([[0.0], np.cumsum(slopes * dts)])
    if ns[-1] < 80.0:
        ns = ns * (80.0 / ns[-1])
    return tabulated(ts, ns)


def _random_tail(rng: np.random.Generator) -> TailFunction:
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return TailFunction.linear(float(rng.uniform(0.5, 3.0)))
    if kind == 1:
        return power(2.0, scale=float(rng.uniform(0.5, 2.0)))
    return _random_tabulated(rng)


def check_tail_program_grid_oracle(seed: int) -> CheckResult:
    start = time.perf_counter()
    rng = np.random.default_rng(_child_seed(seed, _STREAM_GK_ORACLE))
    worst_rel = 0.0
    worst_case = None
    overshoot = 0
    for trial in range(50):
        d = 2 if trial < 30 else 3
        tails = [_random_tail(rng) for _ in range(d)]
        b = rng.uniform(0.2, 2.0, d)
        p = float(rng.uniform(2.0, 32.0))
        value = gluskin_kwapien(b, tails, p)
        oracle = gk_grid_oracle(b, tails, p)
        if oracle > value * (1.0 + 1e-9):
            overshoot += 1
        rel = abs(value - oracle) / value
        if rel > worst_rel:
            worst_rel, worst_case = rel, {"d": d, "p": p}
    exact_worst = 0.0
    for _ in range(20):
        d = int(rng.integers(1, 7))
        b = rng.uniform(0.1, 3.0, d)
        p = float(rng.uniform(2.0, 32.0))
        value = gluskin_kwapien(b, [exponential()] * d, p)
        closed = p * float(np.max(b)) / math.sqrt(2.0)
        exact_worst = max(exact_worst, abs(value - closed) / closed)
    detail = {"mixes": 50, "max_rel_gap": worst_rel, "worst_case": worst_case,
              "oracle_overshoots": overshoot, "grid_tolerance": 1e-4,
              "exponential_max_rel_error": exact_worst,
              "exponential_tolerance": 1e-10}
    passed = worst_rel <= 1e-4 and exact_worst <= 1e-10 and overshoot == 0
    return _finish("tail_program_grid_oracle", passed, detail, start)


# -- 4. coordinate fourth moments and the exponential extremal ----------------

def check_fourth_moment_extremality(seed: int) -> CheckResult:
    start = time.perf_counter()
    cases = (
        ("exp", 2, 6.0, 0.05),
        ("cube", 2, 1.8, 0.02),
        ("gauss", 2, 3.0, 0.03),
        ("ball:q=1", 3, None, None),
        ("ball:q=2", 3, None, None),
    )
    rows = []
    passed = True
    min_ess = math.inf
    for k, (spec, n, target, window) in enumerate(cases):
        family = family_from_spec(spec, n)
        rec = estimate_fourth_moment(family, 0, 10_000_000, _child_seed(seed, _STREAM_MOMENT4, k))
        ok_window = True
        if target is not None:
            ok_window = abs(rec.value - target) <= window
        ok_extremal = rec.value <= 6.0 + 3.0 * rec.stderr
        passed = passed and ok_window and ok_extremal
        min_ess = min(min_ess, rec.ess)
        rows.append({"family": spec, "value": rec.value, "stderr": rec.stderr,
                     "target": target, "window": window,
                     "within_window": ok_window, "below_exponential": ok_extremal})
    return _finish("fourth_moment_extremality", passed, {"cases": rows, "min_ess": min_ess},
                   start)


# -- 5 + 8. the shared moment-equivalence grid ---------------------------------

@lru_cache(maxsize=2)
def _equivalence_grid(seed: int) -> ExperimentResult:
    config = ExperimentConfig(
        families=GRID_FAMILIES,
        profiles=GRID_PROFILES,
        n_list=GRID_DIMS,
        p_grid=GRID_ORDERS,
        n_samples=GRID_SAMPLES,
        seed=seed,
    )
    return run_experiment(config)


def check_moment_equivalence_envelope(seed: int) -> CheckResult:
    start = time.perf_counter()
    result = _equivalence_grid(_child_seed(seed, _STREAM_GRID))
    lo_bound, hi_bound = 0.1, 10.0
    envelopes = {family: {"min_ratio": env["ref_ratio_min"], "max_ratio": env["ref_ratio_max"],
                          "cells": env["cells"]}
                 for family, env in result.summary["families"].items()}
    violations = []
    for row in result.rows:
        ratio = row.mc_value / _reference_surrogate(row)[1]
        if not lo_bound <= ratio <= hi_bound:
            violations.append({"family": row.family, "n": row.n,
                               "profile": row.profile, "p": row.p, "ratio": ratio})
    detail = {"cells": len(result.rows), "bounds": [lo_bound, hi_bound],
              "envelopes": envelopes, "violations": violations,
              "min_ess": min(row.mc_ess for row in result.rows)}
    return _finish("moment_equivalence_envelope", not violations, detail, start)


def check_quartic_upper_probe(seed: int) -> CheckResult:
    start = time.perf_counter()
    result = _equivalence_grid(_child_seed(seed, _STREAM_GRID))
    worst = 0.0
    worst_cell = None
    for row in result.rows:
        a = coefficient_profile(row.profile, row.n)
        l2 = float(np.sqrt(np.sum(a * a)))
        quartic = float(np.sqrt(np.sum(a ** 4)))
        excess = max(0.0, row.mc_value - gaussian_pnorm(row.p) * l2)
        probe = excess * l2 / (row.p ** 2.5 * quartic)
        if probe > worst:
            worst = probe
            worst_cell = {"family": row.family, "n": row.n,
                          "profile": row.profile, "p": row.p}
    detail = {"max_normalized_excess": worst, "bound": 10.0, "cell": worst_cell,
              "min_ess": min(row.mc_ess for row in result.rows)}
    return _finish("quartic_upper_probe", worst <= 10.0, detail, start)


# -- 6. flat exponential sums sit inside the independent Gaussian band --------

def check_flat_sum_gaussian_band(seed: int) -> CheckResult:
    start = time.perf_counter()
    orders = (3.0, 4.0, 6.0, 8.0)
    rows = []
    passed = True
    min_ess = math.inf
    for k, n in enumerate((16, 64)):
        family = product_exponential(n)
        a = np.full(n, 1.0 / math.sqrt(n))
        records = estimate_pnorm(family, a, orders, 1_000_000,
                                 _child_seed(seed, _STREAM_FLAT_BAND, k))
        for p, rec in zip(orders, records):
            gap = abs(rec.value - gaussian_pnorm(p))
            allowance = p / math.sqrt(n) + 3.0 * rec.stderr
            ok = gap <= allowance
            passed = passed and ok
            min_ess = min(min_ess, rec.ess)
            rows.append({"n": n, "p": p, "mc": rec.value, "gap": gap,
                         "allowance": allowance, "ok": ok})
    return _finish("flat_sum_gaussian_band", passed, {"cells": rows, "min_ess": min_ess},
                   start)


# -- 7. ball moments stay above the quartic-corrected Gaussian lower bound ----

def check_ball_lower_band(seed: int) -> CheckResult:
    start = time.perf_counter()
    rng = np.random.default_rng(_child_seed(seed, _STREAM_LOWER_BAND))
    # the band's lower edge is 0 at every cell of n <= 16, so only the n = 64
    # cells, Gaussian vectors and the flat one, can fail; the check counts
    # the cells with a positive edge (``live_cells``) and needs 20 of them
    vectors = [(q, rng.standard_normal(n)) for q in (1.0, 2.0) for n in (4, 16)
               for _ in range(9)]
    vectors += [(q, a) for q in (1.0, 2.0)
                for a in [rng.standard_normal(64) for _ in range(9)] + [np.ones(64)]]
    cells = live_cells = 0
    violations = []
    worst_slack = min_ess = math.inf
    orders = (2.0, 4.0, 8.0)
    for k, (q, a) in enumerate(vectors):
        n = a.size
        records = estimate_pnorm(UniformBall.isotropic(n, q), a, orders, 200_000,
                                 _child_seed(seed, _STREAM_LOWER_BAND, k))
        for p, rec, band in zip(orders, records, gaussian_band(a, orders)):
            slack = rec.value - (band.lower - 3.0 * rec.stderr)
            worst_slack = min(worst_slack, slack)
            min_ess = min(min_ess, rec.ess)
            cells += 1
            live_cells += band.lower > 0.0
            if slack < 0:
                violations.append({"q": q, "n": n, "p": p, "slack": slack})
    detail = {"cells": cells, "live_cells": live_cells, "violations": violations,
              "min_slack": worst_slack, "min_ess": min_ess}
    return _finish("ball_lower_band", cells >= 100 and live_cells >= 20 and not violations,
                   detail, start)


# -- 9. dependent ball moments never beat the independent twin ----------------

def _disk_fourth_moments() -> tuple[float, float]:
    """E<X, (1, 1)>^4 on the isotropic disk and on its independent twin.

    |X_1| / r = B^{1/q} with B ~ Beta(a, b) (``_marginal_beta``), so m_k =
    E X_1^k = r^k B(a + k/q, b) / B(a, b).  By rotation invariance <X, (1, 1)>
    has the law of sqrt(2) X_1, which gives 4 m_4; the twin's independent
    coordinates give 2 m_4 + 6 m_2^2.
    """
    disk = UniformBall.isotropic(2, 2.0)
    a, b = _marginal_beta(disk)
    m2, m4 = (float(disk.r ** k * beta(a + k / disk.q, b) / beta(a, b)) for k in (2, 4))
    return 4.0 * m4, 2.0 * m4 + 6.0 * m2 * m2


def check_dependent_moment_deficit(seed: int) -> CheckResult:
    start = time.perf_counter()
    orders = (3.0, 4.0, 6.0)
    rows = []
    passed = True
    min_ess = math.inf
    for k, q in enumerate((1.0, 2.0)):
        ball = UniformBall.isotropic(3, q)
        deps, inds = dependent_vs_independent(ball, (1.0, 1.0, 1.0), orders, 10_000_000,
                                              _child_seed(seed, _STREAM_NEG_ASSOC, k))
        for p, dep, ind in zip(orders, deps, inds):
            combined = math.hypot(dep.stderr, ind.stderr)
            ok = dep.value <= ind.value + 3.0 * combined
            passed = passed and ok
            min_ess = min(min_ess, dep.ess, ind.ess)
            rows.append({"q": q, "p": p, "dependent": dep.value,
                         "independent": ind.value, "stderr": combined, "ok": ok})
    dep4, ind4 = _disk_fourth_moments()
    oracle_ok = (abs(dep4 - 8.0) <= 1e-6 and abs(ind4 - 10.0) <= 1e-6
                 and dep4 < ind4)
    passed = passed and oracle_ok
    detail = {"cells": rows, "min_ess": min_ess,
              "disk_oracle": {"dependent_fourth": dep4, "independent_fourth": ind4,
                              "expected": [8.0, 10.0], "ok": oracle_ok}}
    return _finish("dependent_moment_deficit", passed, detail, start)


# -- 10. exponential joint tails factor like the constraint set ---------------

def check_joint_tail_factorization(seed: int) -> CheckResult:
    start = time.perf_counter()
    rng = np.random.default_rng(_child_seed(seed, _STREAM_JOINT_TAIL))
    probes = []
    passed = True
    min_ess = math.inf
    for k in range(20):
        n = 2 + k % 3
        family = product_exponential(n)
        t = rng.uniform(0.2, 2.2, n)
        budget = math.sqrt(2.0) * float(np.sum(t))
        if budget > 8.0:
            t *= 8.0 / budget
        target = math.exp(-math.sqrt(2.0) * float(np.sum(t)))
        rec = estimate_joint_tail(family, t, 4_000_000, _child_seed(seed, _STREAM_JOINT_TAIL, k))
        ok = abs(rec.value - target) <= 3.0 * rec.stderr
        passed = passed and ok
        # a joint tail's ESS is its hit count
        min_ess = min(min_ess, rec.ess)
        probes.append({"n": n, "target": target, "empirical": rec.value,
                       "stderr": rec.stderr, "ok": ok})
    support_worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 5))
        family = product_exponential(n)
        block = rng.uniform(0.1, 2.0, n)
        p = float(rng.uniform(2.0, 32.0))
        lhs = level_set_support(family, tuple(range(n)), block, p)
        rhs = gluskin_kwapien(block, list(family.tails), p)
        support_worst = max(support_worst, abs(lhs - rhs) / max(lhs, 1e-300))
    passed = passed and support_worst <= 1e-12
    detail = {"probes": probes, "min_ess": min_ess,
              "support_vs_program_max_rel": support_worst,
              "support_tolerance": 1e-12}
    return _finish("joint_tail_factorization", passed, detail, start)


# -- 11. worker count never changes the written report -------------------------

@contextmanager
def _workers(count: int):
    previous = os.environ.get(WORKERS_ENV)
    os.environ[WORKERS_ENV] = str(count)
    try:
        yield
    finally:
        if previous is None:
            del os.environ[WORKERS_ENV]
        else:
            os.environ[WORKERS_ENV] = previous


def check_report_determinism(seed: int) -> CheckResult:
    start = time.perf_counter()
    config = ExperimentConfig(
        families=("exp", "ball:q=2"),
        profiles=("flat", "geometric:rho=0.7"),
        n_list=(4,),
        p_grid=(2.0, 4.0),
        n_samples=10_000,
        seed=_child_seed(seed, _STREAM_DETERMINISM),
    )
    with _workers(1):
        serial = rows_to_csv_bytes(run_experiment(config).rows)
    with _workers(3):
        threaded = rows_to_csv_bytes(run_experiment(config).rows)
    detail = {"bytes": len(serial), "identical": serial == threaded,
              "worker_counts": [1, 3]}
    return _finish("report_determinism", serial == threaded, detail, start)


# -- registry ------------------------------------------------------------------

CHECKS = {
    "gaussian_moment_quadrature": check_gaussian_moment_quadrature,
    "rademacher_gaussian_domination": check_rademacher_gaussian_domination,
    "tail_program_grid_oracle": check_tail_program_grid_oracle,
    "fourth_moment_extremality": check_fourth_moment_extremality,
    "moment_equivalence_envelope": check_moment_equivalence_envelope,
    "flat_sum_gaussian_band": check_flat_sum_gaussian_band,
    "ball_lower_band": check_ball_lower_band,
    "quartic_upper_probe": check_quartic_upper_probe,
    "dependent_moment_deficit": check_dependent_moment_deficit,
    "joint_tail_factorization": check_joint_tail_factorization,
    "report_determinism": check_report_determinism,
}

SUITES = {
    "core": ("rademacher_gaussian_domination", "fourth_moment_extremality",
             "moment_equivalence_envelope", "report_determinism"),
    "gk": ("tail_program_grid_oracle", "joint_tail_factorization"),
    "gaussian": ("gaussian_moment_quadrature", "flat_sum_gaussian_band",
                 "ball_lower_band", "quartic_upper_probe"),
    "na": ("dependent_moment_deficit",),
}


def run_checks(names, seed: int) -> list[CheckResult]:
    return [CHECKS[name](seed) for name in names]


def run_suite(suite: str, seed: int) -> list[CheckResult]:
    if suite not in SUITES:
        raise InvalidArgumentError(f"unknown suite {suite!r}; expected one of {sorted(SUITES)}")
    return run_checks(SUITES[suite], seed)
