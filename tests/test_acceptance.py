"""End-to-end acceptance checks.

Each criterion runs through lcmoments.acceptance at a pinned seed and prints
one PASS/FAIL line.  The shared estimation grid is cached inside the module,
so the two grid-backed criteria build it only once per test process.
Every check is marked ``slow``; ``pytest -m "not slow"`` leaves them out and
keeps the fast registry and envelope bookkeeping tests below.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

import lcmoments.acceptance as acceptance
from lcmoments.acceptance import CHECKS, SUITES, run_suite
from lcmoments.errors import InvalidArgumentError
from lcmoments.harness import ExperimentConfig, _reference_surrogate, run_experiment
from lcmoments.montecarlo import EstimateRecord
from lcmoments.surrogates import gaussian_pnorm

SEED = 0

# the checks that read Monte-Carlo estimates, each of which states the
# smallest ESS among them
MC_CHECKS = ("fourth_moment_extremality", "moment_equivalence_envelope",
             "quartic_upper_probe", "flat_sum_gaussian_band", "ball_lower_band",
             "dependent_moment_deficit", "joint_tail_factorization")
# the checks on the equivalence grid, every family of which draws from a
# defensive mixture, so none of its cells rests on a handful of draws
GRID_CHECKS = ("moment_equivalence_envelope", "quartic_upper_probe")


@pytest.mark.slow
@pytest.mark.parametrize("name", list(CHECKS))
def test_acceptance_criterion(name, capsys):
    result = CHECKS[name](SEED)
    status = "PASS" if result.passed else "FAIL"
    with capsys.disabled():
        print(f"[{status}] {name} ({result.seconds:.1f}s)")
    assert result.passed, f"{name} failed: {result.detail}"
    # verify --json writes the detail as it stands
    json.dumps(result.detail)
    assert ("min_ess" in result.detail) == (name in MC_CHECKS)
    if name in MC_CHECKS:
        assert result.detail["min_ess"] >= 1.0
    if name in GRID_CHECKS:
        assert result.detail["min_ess"] >= 0.01 * acceptance.GRID_SAMPLES


def test_registry_suites_partition_the_checks():
    assert list(CHECKS) == [
        "gaussian_moment_quadrature",
        "rademacher_gaussian_domination",
        "tail_program_grid_oracle",
        "fourth_moment_extremality",
        "moment_equivalence_envelope",
        "flat_sum_gaussian_band",
        "ball_lower_band",
        "quartic_upper_probe",
        "dependent_moment_deficit",
        "joint_tail_factorization",
        "report_determinism",
    ]
    listed = [name for names in SUITES.values() for name in names]
    assert set(listed) <= set(CHECKS)
    assert sorted(listed) == sorted(CHECKS)


def test_run_suite_rejects_an_unknown_suite():
    with pytest.raises(InvalidArgumentError, match="unknown suite"):
        run_suite("nope", 0)


def test_envelope_is_the_summary_range_of_each_family(monkeypatch):
    config = ExperimentConfig(
        families=("exp", "ball:q=1", "cube"), profiles=("one_hot", "flat"),
        n_list=(2, 4), p_grid=(2.0, 32.0), n_samples=10_000, seed=3)
    result = run_experiment(config)
    monkeypatch.setattr(acceptance, "_equivalence_grid", lambda seed: result)
    detail = acceptance.check_moment_equivalence_envelope(SEED).detail
    assert detail["cells"] == len(result.rows)
    ratios: dict[str, list[float]] = {}
    for row in result.rows:
        ratios.setdefault(row.family, []).append(row.mc_value / _reference_surrogate(row)[1])
    assert detail["envelopes"] == {
        family: {"min_ratio": min(values), "max_ratio": max(values), "cells": len(values)}
        for family, values in ratios.items()}
    assert [v["ratio"] for v in detail["violations"]] == [
        r for values in ratios.values() for r in values if not 0.1 <= r <= 10.0]


def test_grid_checks_report_the_minimum_ess_of_their_cells(monkeypatch):
    # the power product draws plainly, so its one_hot cell at p = 32 rests
    # on a few draws
    config = ExperimentConfig(
        families=("exp", "ball:q=1", "cube", "product:pow:alpha=2"),
        profiles=("one_hot", "flat"), n_list=(2, 4), p_grid=(2.0, 32.0), n_samples=10_000,
        seed=3)
    result = run_experiment(config)
    monkeypatch.setattr(acceptance, "_equivalence_grid", lambda seed: result)
    floor = min(row.mc_ess for row in result.rows)
    # every cell is counted, a low-ESS one too
    assert floor < 0.01 * config.n_samples
    assert acceptance.check_moment_equivalence_envelope(SEED).detail["min_ess"] == floor
    assert acceptance.check_quartic_upper_probe(SEED).detail["min_ess"] == floor


def _centre_estimates(family, a, orders, n_samples, seed):
    # the Gaussian centre gamma_p ||a||_2 of each order, with a small error bar
    l2 = float(np.linalg.norm(a))
    return tuple(EstimateRecord(gaussian_pnorm(p) * l2, 1e-3, n_samples, seed,
                                float(n_samples), 1.0 / n_samples) for p in orders)


def test_ball_lower_band_takes_its_bound_from_gaussian_band(monkeypatch):
    # estimates at the Gaussian centre sit on or above the band's lower edge,
    # so the check passes; with that edge lifted to the independent upper
    # one, p ||a||_inf above the centre, every cell fails
    monkeypatch.setattr(acceptance, "estimate_pnorm", _centre_estimates)
    assert acceptance.check_ball_lower_band(SEED).passed
    band = acceptance.gaussian_band
    monkeypatch.setattr(acceptance, "gaussian_band", lambda a, p: tuple(
        replace(edges, lower=edges.upper_indep) for edges in band(a, p)))
    result = acceptance.check_ball_lower_band(SEED)
    assert not result.passed
    assert len(result.detail["violations"]) == result.detail["cells"] == 108
