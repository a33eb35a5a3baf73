"""The three benchmark workloads: grid, surrogates and verify.

Each workload is built from the run seed alone and hands the library only
the inputs generated from it.  A workload is a list of ops per round; the
runner times ``Op.call`` (the library call) and runs ``Op.check`` and
``Op.accuracy`` outside the timed region.

* grid        the acceptance equivalence grid's shape (4 families x 3
              dimensions x 4 profiles x 9 orders = 432 cells) through
              ``harness.run_experiment`` + ``write_report``, one op per
              profile slice of 108 cells, at a reduced sample count.
* surrogates  ``surrogate_bundle`` over product families (linear, power,
              mixed and tabulated tails) and the closed-form families, plus
              direct ``gluskin_kwapien`` solves on small blocks.  No MC.
* verify      ``estimate_fourth_moment``, ``estimate_joint_tail``,
              ``dependent_vs_independent`` and the ball marginal CDF and
              quantile, at reduced sample counts, with a fresh MC seed per
              round.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.special import betainc, betaincinv

import exact

GRID_FAMILIES = ("exp", "ball:q=1", "ball:q=2", "cube")
GRID_PROFILES = ("one_hot", "flat", "geometric:rho=0.7", "power:alpha=1")
GRID_DIMS = (4, 16, 64)
GRID_ORDERS = (2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0)
GRID_SAMPLES = 20_000

VERIFY_SAMPLES = 20_000
MARGINAL_POINTS = 2_000

GK_EXP_TOL = 1e-10
GK_ORACLE_TOL = 1e-4
MARGINAL_TOL = 1e-8


def child_seed(seed: int, *path: int) -> int:
    ss = np.random.SeedSequence((int(seed) & ((1 << 64) - 1),) + tuple(path))
    return int(ss.generate_state(1, np.uint64)[0])


def child_rng(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng(child_seed(seed, *path))


@dataclass
class Op:
    """One timed library call plus its output checks.

    ``check(out)`` returns a list of failure causes (empty when correct);
    ``accuracy(out)`` returns relative errors against exact values.
    ``work`` is what the op counts toward ``ops_per_s``.
    """

    kind: str
    call: Callable[[], object]
    check: Callable[[object], list[str]]
    accuracy: Callable[[object], list[float]] = field(default=lambda out: [])
    work: int = 1


def finite_positive(named_values) -> list[str]:
    """Causes for values that are not finite and positive; None (no such surrogate) passes."""
    return [f"{name}={value!r} is not finite and positive"
            for name, value in named_values
            if value is not None and not (math.isfinite(value) and value > 0.0)]


def finite_nonnegative(named_values) -> list[str]:
    return [f"{name}={value!r} is not finite and nonnegative"
            for name, value in named_values
            if value is not None and not (math.isfinite(value) and value >= 0.0)]


def profile_values(spec: str, n: int) -> np.ndarray:
    """The grid's coefficient profiles, written out independently of the harness."""
    if spec == "one_hot":
        return np.eye(1, n)[0]
    if spec == "flat":
        return np.full(n, 1.0 / math.sqrt(n))
    if spec == "geometric:rho=0.7":
        return 0.7 ** np.arange(n)
    if spec == "power:alpha=1":
        return 1.0 / np.arange(1, n + 1)
    raise ValueError(spec)


def row_checks(row) -> list[str]:
    positive = [(c, getattr(row, c)) for c in (
        "mc_value", "hitczenko", "bn_upper", "gk", "bqn", "momunc",
        "band_up_indep", "band_up_klartag", "ratio_lo", "ratio_hi")]
    nonneg = [("mc_stderr", row.mc_stderr), ("band_lo", row.band_lo)]
    where = f"{row.family} n={row.n} {row.profile} p={row.p:g}: "
    return [where + msg for msg in finite_positive(positive) + finite_nonnegative(nonneg)]


def bundle_checks(bundle, label: str) -> list[str]:
    values = [(name, getattr(bundle, name)) for name in
              ("hitczenko", "bn_upper", "gk", "bqn", "momunc")]
    values += [("band.upper_indep", bundle.band.upper_indep),
               ("band.upper_klartag", bundle.band.upper_klartag)]
    bad = finite_positive(values) + finite_nonnegative([("band.lower", bundle.band.lower)])
    return [f"{label}: {msg}" for msg in bad]


class Workload:
    name = ""

    def __init__(self, lcm, seed: int, out_dir: Path) -> None:
        self.lcm = lcm
        self.seed = seed
        self.out_dir = out_dir
        self.facts: dict = {}

    def build(self) -> None:
        """Construct the families and inputs (counted in set-up)."""

    def warmup(self) -> None:
        """One small op of the workload's kind (counted in set-up)."""

    def round_ops(self, index: int) -> list[Op]:
        raise NotImplementedError


# -- grid ---------------------------------------------------------------------------

class Grid(Workload):
    name = "grid"

    def build(self) -> None:
        lcm = self.lcm
        # Measured rounds run the cells on one worker.  On a 2-vCPU VM the
        # nproc-thread pool was both slower (the cells hold the GIL most of
        # the time) and far noisier from run to run, beyond any usable bound.
        # A traced run times one round on the pool for parallel efficiency.
        self.pool_workers = len(os.sched_getaffinity(0))
        os.environ["LCM_WORKERS"] = "1"
        # one slice per profile: every slice holds all families and dimensions,
        # so the four ops of a round cost about the same (cost follows family
        # and n, not the profile) and their latency percentiles are steady
        configs = [lcm.harness.ExperimentConfig(
            families=GRID_FAMILIES, profiles=(profile,), n_list=GRID_DIMS,
            p_grid=GRID_ORDERS, n_samples=GRID_SAMPLES,
            seed=child_seed(self.seed, i)) for i, profile in enumerate(GRID_PROFILES)]
        self.first_bytes: dict[str, bytes] = {}
        self.exact_cache: dict[tuple, float | None] = {}
        self.ops = [self._slice_op(cfg) for cfg in configs]
        self.facts = {"LCM_WORKERS": 1, "pool_workers": self.pool_workers,
                      "n_samples": GRID_SAMPLES,
                      "cells_per_round": 432, "ops_per_round": len(self.ops)}

    def warmup(self) -> None:
        h = self.lcm.harness
        cfg = h.ExperimentConfig(families=("exp",), profiles=("flat",), n_list=(4,),
                                 p_grid=(2.0,), n_samples=self.lcm.montecarlo.MIN_SAMPLES,
                                 seed=child_seed(self.seed, 99))
        h.write_report(h.run_experiment(cfg), self.out_dir / "warmup")

    def _slice_op(self, cfg) -> Op:
        h = self.lcm.harness
        profile = cfg.profiles[0]
        out = self.out_dir / profile.replace(":", "_").replace("=", "")
        cells = len(GRID_FAMILIES) * len(GRID_DIMS) * len(GRID_ORDERS)

        def call():
            result = h.run_experiment(cfg)
            csv_path, _ = h.write_report(result, out)
            return result, csv_path.read_bytes()

        def check(res) -> list[str]:
            result, data = res
            bad = []
            if len(result.rows) != cells:
                bad.append(f"{profile}: {len(result.rows)} rows, expected {cells}")
            for row in result.rows:
                bad += row_checks(row)
            first = self.first_bytes.setdefault(profile, data)
            if data != first:
                bad.append(f"{profile}: report bytes changed between rounds of one config")
            return bad

        def accuracy(res) -> list[float]:
            errs = []
            for row in res[0].rows:
                key = (row.family, row.n, row.profile, row.p)
                if key not in self.exact_cache:
                    self.exact_cache[key] = exact.exact_pnorm(
                        row.family, profile_values(row.profile, row.n), row.p)
                ref = self.exact_cache[key]
                if ref is not None:
                    errs.append(row.mc_value / ref - 1.0)
            return errs

        return Op("slice", call, check, accuracy, work=cells)

    def round_ops(self, index: int) -> list[Op]:
        return self.ops


# -- surrogates -----------------------------------------------------------------------

SURR_BUNDLES_PER_KIND = 16       # product families: linear, power, mixed, tabulated
SURR_CLOSED_FORM_PER_SPEC = 8    # ball:q=1, 1.5, 2, 3, cube, gauss
SURR_GK_EXP = 8                  # direct GK on exponential blocks (closed-form check)
SURR_GK_SMALL = 12               # direct GK on blocks of dimension <= 3 (grid oracle check)
TABULATED_KNOTS = (4, 6, 7, 9, 10, 12)   # one unit-variance tabulated tail each
P_STRIDE = 5                     # pairs the n ladder with the p strata (coprime to 8 and 16)


def stratified(rng: np.random.Generator, m: int) -> np.ndarray:
    """m points in [0, 1), one in each of m equal strata, in random order."""
    return rng.permutation((np.arange(m) + rng.random(m)) / m)


def strided(rng: np.random.Generator, m: int) -> np.ndarray:
    """m points in [0, 1): point i at a random place in stratum (i * P_STRIDE) mod m.

    Which stratum meets which rung of ``n_ladder`` is fixed, so the cost of
    a round hardly depends on the seed; only the values inside the strata do."""
    return ((np.arange(m) * P_STRIDE) % m + rng.random(m)) / m


def n_ladder(m: int) -> list[int]:
    """m dimensions log-uniform in [4, 256], one at the centre of each stratum."""
    return [int(round(4.0 * 64.0 ** ((i + 0.5) / m))) for i in range(m)]


def coefficient_vector(rng: np.random.Generator, n: int, shape: int) -> np.ndarray:
    if shape == 0:
        a = np.abs(rng.standard_normal(n))
    elif shape == 1:
        a = rng.permutation(np.arange(1, n + 1) ** -rng.uniform(0.5, 2.0))
    elif shape == 2:
        a = rng.uniform(0.0, 0.05, n)
        a[rng.choice(n, size=min(3, n), replace=False)] = rng.uniform(0.5, 2.0, min(3, n))
    else:
        a = 1.0 + 0.1 * rng.standard_normal(n)
    a = a * np.where(rng.random(n) < 0.5, -1.0, 1.0)
    return a


def moment_order(u: float, even: bool) -> float:
    """Even integer in [2, 32] or a non-integer order in (2, 32)."""
    if even:
        return 2.0 * (1 + min(15, int(u * 16)))
    p = 2.0 + 30.0 * u
    return p + 0.5 if float(p).is_integer() else p


def unit_variance_tabulated(lcm, rng: np.random.Generator, knots: int):
    """A convex piecewise-linear log-tail reaching N = 80, rescaled in t to unit variance."""
    dts = rng.uniform(0.3, 1.2, knots)
    ts = np.concatenate([[0.0], np.cumsum(dts)])
    slopes = rng.uniform(0.5, 2.0) + np.concatenate(
        [[0.0], np.cumsum(rng.uniform(0.1, 1.5, knots - 1))])
    ns = np.concatenate([[0.0], np.cumsum(slopes * dts)])
    ns *= 80.0 / ns[-1]
    raw = lcm.tails.TailFunction.tabulated(ts, ns)
    return lcm.tails.TailFunction.tabulated(ts / math.sqrt(raw.variance()), ns)


def small_block_tail(lcm, rng: np.random.Generator, tabulated_pool, kind: int):
    if kind == 0:
        return lcm.tails.TailFunction.linear(float(rng.uniform(0.5, 3.0)))
    if kind == 1:
        return lcm.tails.TailFunction.power(2.0, scale=float(rng.uniform(0.5, 2.0)))
    return tabulated_pool[int(rng.integers(0, len(tabulated_pool)))]


def tail_moments(tail, k: int, cache: dict) -> np.ndarray:
    key = (tail, k)
    if key not in cache:
        if tail.kind == "linear":
            cache[key] = exact.linear_tail_moments(tail.rate, k)
        elif tail.kind == "power":
            cache[key] = exact.power_tail_moments(tail.alpha, tail.scale, k)
        else:
            cache[key] = exact.tabulated_tail_moments(tail.knots_t, tail.knots_n, k)
    return cache[key]


class Surrogates(Workload):
    name = "surrogates"

    def build(self) -> None:
        lcm = self.lcm
        TF = lcm.tails.TailFunction
        rng = child_rng(self.seed, 1)
        self.tabulated = [unit_variance_tabulated(lcm, rng, knots) for knots in TABULATED_KNOTS]
        mixed_pool = [TF.exponential(), TF.power(1.5), TF.power(2.0), TF.power(3.0)]
        self.moment_cache: dict = {}
        ops: list[Op] = []

        kinds = ("linear", "power", "mixed", "tabulated")
        m = SURR_BUNDLES_PER_KIND
        for kind in kinds:
            u_p = strided(rng, m)
            for i, n in enumerate(n_ladder(m)):
                if kind == "linear":
                    family = lcm.families.family_from_spec("exp", n)
                elif kind == "power":
                    family = lcm.families.family_from_spec("product:pow:alpha=2", n)
                else:
                    pool = mixed_pool if kind == "mixed" else self.tabulated
                    family = lcm.families.ProductFamily(tails=tuple(
                        pool[j] for j in rng.integers(0, len(pool), n)))
                a = coefficient_vector(rng, n, i % 4)
                ops.append(self._bundle_op(f"bundle.{kind}", family, a,
                                           moment_order(u_p[i], i % 2 == 0)))

        m = SURR_CLOSED_FORM_PER_SPEC
        for spec in ("ball:q=1", "ball:q=1.5", "ball:q=2", "ball:q=3", "cube", "gauss"):
            u_p = strided(rng, m)
            for i, n in enumerate(n_ladder(m)):
                family = lcm.families.family_from_spec(spec, n)
                a = coefficient_vector(rng, n, i % 4)
                ops.append(self._bundle_op("bundle.closed_form", family, a,
                                           moment_order(u_p[i], i % 2 == 0)))

        for i in range(SURR_GK_EXP):
            d = 1 + i % 6
            ops.append(self._gk_exp_op(rng.uniform(0.1, 3.0, d), float(rng.uniform(2.0, 32.0))))
        for i in range(SURR_GK_SMALL):
            d = 2 if i % 2 == 0 else 3
            tails = [small_block_tail(lcm, rng, self.tabulated, (i + j) % 3) for j in range(d)]
            ops.append(self._gk_oracle_op(rng.uniform(0.2, 2.0, d), tails,
                                          float(rng.uniform(2.0, 32.0))))
        self.ops = [ops[i] for i in rng.permutation(len(ops))]
        self.facts = {"ops_per_round": len(self.ops), "n_range": [4, 256],
                      "p_range": [2.0, 32.0]}

    def warmup(self) -> None:
        fam = self.lcm.families.family_from_spec("exp", 8)
        self.lcm.surrogates.surrogate_bundle(np.linspace(1.0, 0.1, 8), 8.0, family=fam)

    def _exact(self, family, a, p: float) -> float | None:
        k = exact.even_order(p)
        if k is None:
            return None
        fams = self.lcm.families
        if isinstance(family, fams.ProductFamily):
            moments = [tail_moments(t, k, self.moment_cache) for t in family.tails]
            return exact.pnorm(exact.independent_even_moment(a, moments, k), p)
        if isinstance(family, fams.UniformBall):
            return exact.exact_pnorm(f"ball:q={family.q:g}", a, p)
        spec = "cube" if isinstance(family, fams.UniformCube) else "gauss"
        return exact.exact_pnorm(spec, a, p)

    def _bundle_op(self, kind: str, family, a: np.ndarray, p: float) -> Op:
        s = self.lcm.surrogates
        fams = self.lcm.families
        label = f"{kind} n={family.n} p={p:g}"
        ref = {}

        def call():
            return s.surrogate_bundle(a.copy(), p, family=family)

        def accuracy(bundle) -> list[float]:
            if "v" not in ref:
                ref["v"] = self._exact(family, a, p)
            if ref["v"] is None:
                return []
            if isinstance(family, fams.ProductFamily):
                value = bundle.gk
            elif isinstance(family, fams.UniformBall):
                value = bundle.bqn
            else:
                value = bundle.momunc
            return [value / ref["v"] - 1.0]

        return Op(kind, call, lambda out: bundle_checks(out, label), accuracy)

    def _gk_exp_op(self, b: np.ndarray, p: float) -> Op:
        s = self.lcm.surrogates
        tails = [self.lcm.tails.TailFunction.exponential()] * len(b)
        closed = p * float(np.max(b)) / exact.SQRT2

        def check(value) -> list[str]:
            rel = abs(value - closed) / closed
            if rel <= GK_EXP_TOL:
                return []
            return [f"gk exp d={len(b)} p={p:g}: rel error {rel:.3e} vs p max b / sqrt 2"]

        return Op("gk.exp", lambda: s.gluskin_kwapien(b.copy(), tails, p), check)

    def _gk_oracle_op(self, b: np.ndarray, tails, p: float) -> Op:
        s = self.lcm.surrogates
        ref = {}

        def check(value) -> list[str]:
            if "v" not in ref:
                from lcmoments.acceptance import gk_grid_oracle
                ref["v"] = gk_grid_oracle(b, tails, p)
            oracle = ref["v"]
            bad = finite_positive([("gk", value)])
            rel = abs(value - oracle) / value if value else math.inf
            if rel > GK_ORACLE_TOL:
                kinds = ",".join(t.kind for t in tails)
                bad.append(f"gk [{kinds}] p={p:g}: rel gap {rel:.3e} to the grid oracle")
            return bad

        return Op("gk.small", lambda: s.gluskin_kwapien(b.copy(), tails, p), check)

    def round_ops(self, index: int) -> list[Op]:
        return self.ops


# -- verify ------------------------------------------------------------------------------

FOURTH_MOMENT_CASES = (("exp", 2), ("cube", 2), ("gauss", 2), ("ball:q=1", 3), ("ball:q=2", 3))
FOURTH_MOMENT_COORDINATES = (0, 1)
JOINT_TAIL_CASES = ((2, 1.0), (3, 2.0), (4, 3.0), (8, 4.0)) * 2    # (n, -log P)
# (n, q, p); six of a round's 30 ops, so the round's p90 latency falls inside them
DEP_INDEP_CASES = ((3, 1.0, 4.0), (3, 2.0, 4.0), (4, 1.5, 6.0), (5, 1.0, 3.0),
                   (6, 2.0, 6.0), (8, 3.0, 4.0))
FRESH_BALLS = 6


def fourth_moment_exact(spec: str, n: int) -> float:
    if spec.startswith("ball:q="):
        q = float(spec[len("ball:q="):])
        return float(exact.ball_marginal_moments(n, q, exact.ball_radius(n, q), 2)[2])
    return float(exact.spec_moments(spec, 2)[2])


def marginal_cdf_exact(n: int, q: float, r: float, x: np.ndarray) -> np.ndarray:
    u = np.clip(np.abs(x) / r, 0.0, 1.0) ** q
    return 0.5 + 0.5 * np.sign(x) * betainc(1.0 / q, (n - 1.0) / q + 1.0, u)


def marginal_quantile_exact(n: int, q: float, r: float, u: np.ndarray) -> np.ndarray:
    w = betaincinv(1.0 / q, (n - 1.0) / q + 1.0, np.abs(2.0 * u - 1.0))
    return np.sign(u - 0.5) * r * w ** (1.0 / q)


class Verify(Workload):
    name = "verify"

    def build(self) -> None:
        lcm = self.lcm
        fams = lcm.families
        rng = child_rng(self.seed, 2)
        self.fourth = [(spec, fams.family_from_spec(spec, n), j)
                       for spec, n in FOURTH_MOMENT_CASES for j in FOURTH_MOMENT_COORDINATES]
        self.joint = []
        for n, budget in JOINT_TAIL_CASES:
            # random direction, fixed level: P(all |X_i| >= t_i) = e^{-budget}
            t = rng.uniform(0.2, 2.0, n)
            t *= budget / (exact.SQRT2 * float(np.sum(t)))
            self.joint.append((fams.product_exponential(n), t))
        self.dep = [(fams.UniformBall.isotropic(n, q), rng.uniform(0.2, 1.5, n), p)
                    for n, q, p in DEP_INDEP_CASES]
        # balls no other op touches, so the first marginal call on each builds its table
        self.fresh = []
        for u in stratified(rng, FRESH_BALLS):
            n = int(rng.integers(2, 13))
            q = 1.0 + 3.0 * float(u)
            ball = fams.UniformBall.isotropic(n, q)
            x = rng.uniform(-ball.r, ball.r, MARGINAL_POINTS)
            uq = rng.uniform(0.001, 0.999, MARGINAL_POINTS)
            self.fresh.append((ball, x, uq))
        self.facts = {"n_samples": VERIFY_SAMPLES, "marginal_points": MARGINAL_POINTS,
                      "ops_per_round": len(self.fourth) + len(self.joint)
                      + len(self.dep) + len(self.fresh)}

    def warmup(self) -> None:
        mc = self.lcm.montecarlo
        mc.estimate_fourth_moment(self.lcm.families.family_from_spec("exp", 2), 0,
                                  mc.MIN_SAMPLES, child_seed(self.seed, 99))

    def round_ops(self, index: int) -> list[Op]:
        mc = self.lcm.montecarlo
        fams = self.lcm.families
        seeds = (child_seed(self.seed, 3, index, i) for i in itertools.count())
        ops: list[Op] = []
        for spec, family, j in self.fourth:
            ref = fourth_moment_exact(spec, family.n)
            ops.append(Op(
                "fourth_moment",
                lambda family=family, j=j, s=next(seeds): mc.estimate_fourth_moment(
                    family, j, VERIFY_SAMPLES, s),
                lambda rec, spec=spec: [f"fourth moment {spec}: {m}" for m in
                                        finite_positive([("value", rec.value)])],
                lambda rec, ref=ref: [rec.value / ref - 1.0]))
        for family, t in self.joint:
            ref = exact.exp_joint_tail(t)
            ops.append(Op(
                "joint_tail",
                lambda family=family, t=t, s=next(seeds): mc.estimate_joint_tail(
                    family, t.copy(), VERIFY_SAMPLES, s),
                lambda rec, n=family.n: [f"joint tail n={n}: {m}" for m in
                                         finite_positive([("value", rec.value)])],
                lambda rec, ref=ref: [rec.value / ref - 1.0]))
        for ball, a, p in self.dep:
            k = exact.even_order(p)
            refs = None
            if k is not None:
                dep = exact.pnorm(exact.ball_even_moment(a, ball.n, ball.q, ball.r, k), p)
                indep = exact.pnorm(exact.independent_even_moment(
                    a, exact.ball_marginal_moments(ball.n, ball.q, ball.r, k), k), p)
                refs = (dep, indep)
            ops.append(Op(
                "dep_indep",
                lambda ball=ball, a=a, p=p, s=next(seeds): mc.dependent_vs_independent(
                    ball, a.copy(), p, VERIFY_SAMPLES, s),
                lambda recs, ball=ball: [f"dep/indep ball n={ball.n} q={ball.q:g}: {m}"
                                         for m in finite_positive(
                                             [("dependent", recs[0].value),
                                              ("independent", recs[1].value)])],
                (lambda recs, refs=refs: [recs[0].value / refs[0] - 1.0,
                                          recs[1].value / refs[1] - 1.0])
                if refs else (lambda recs: [])))
        for ball, x, uq in self.fresh:
            ops.append(Op(
                "marginal",
                lambda ball=ball, x=x, uq=uq: (fams.marginal_cdf(ball, x.copy()),
                                               fams.marginal_quantile(ball, uq.copy())),
                lambda out, ball=ball, x=x, uq=uq: self._marginal_check(ball, x, uq, out)))
        return ops

    @staticmethod
    def _marginal_check(ball, x, uq, out) -> list[str]:
        cdf, quant = out
        bad = []
        cdf_err = float(np.max(np.abs(cdf - marginal_cdf_exact(ball.n, ball.q, ball.r, x))))
        if not cdf_err <= MARGINAL_TOL:
            bad.append(f"marginal cdf n={ball.n} q={ball.q:.4g}: max abs error {cdf_err:.3e}")
        q_err = float(np.max(np.abs(quant - marginal_quantile_exact(ball.n, ball.q, ball.r, uq))))
        if not q_err <= MARGINAL_TOL * ball.r:
            bad.append(f"marginal quantile n={ball.n} q={ball.q:.4g}: "
                       f"max abs error {q_err:.3e}")
        return bad


WORKLOADS = {w.name: w for w in (Grid, Surrogates, Verify)}
