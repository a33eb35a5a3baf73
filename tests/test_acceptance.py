"""End-to-end acceptance checks.

Each criterion runs through lcmoments.acceptance at a pinned seed and prints
one PASS/FAIL line.  The shared estimation grid is cached inside the module,
so the two grid-backed criteria build it only once per test process.
Every check is marked ``slow``; ``pytest -m "not slow"`` leaves them out and
keeps the fast registry and envelope bookkeeping tests below.
"""

import pytest

import lcmoments.acceptance as acceptance
from lcmoments.acceptance import CHECKS, SUITES, run_suite
from lcmoments.errors import InvalidArgumentError
from lcmoments.harness import ExperimentConfig, _reference_surrogate, run_experiment

SEED = 0


@pytest.mark.slow
@pytest.mark.parametrize("name", list(CHECKS))
def test_acceptance_criterion(name, capsys):
    result = CHECKS[name](SEED)
    status = "PASS" if result.passed else "FAIL"
    with capsys.disabled():
        print(f"[{status}] {name} ({result.seconds:.1f}s)")
    assert result.passed, f"{name} failed: {result.detail}"


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
