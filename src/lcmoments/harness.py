"""Experiment harness: configs, coefficient profiles, report generation.

A report run walks the grid family x n x profile x p in a fixed order.  The
unit of Monte-Carlo work is a row (family, n, profile): one draw, seeded from
(config seed, row index), gives the estimate at every order of ``p_grid``,
and one surrogate pass evaluates every applicable surrogate at every order,
giving one CSV row per cell.  Rows are dispatched to a thread pool sized by
the ``LCM_WORKERS`` environment variable, but cells are assembled in grid
order and all randomness is keyed per row, so the written bytes are
identical for any worker count.
"""

from __future__ import annotations

import io
import itertools
import json
import logging
import math
import os
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from .coeffs import CoefficientVector, _orders
from .errors import InvalidArgumentError
from .families import Family, family_from_spec
from .montecarlo import MAX_MOMENT_ORDER, _child_seed, _validate_sample_count, estimate_pnorm
from .surrogates import surrogate_bundle
from .tails import _parse_param

__all__ = [
    "ExperimentConfig",
    "ReportRow",
    "ExperimentResult",
    "build_rows",
    "coefficient_profile",
    "run_experiment",
    "rows_to_csv_bytes",
    "write_report",
    "worker_count",
    "CSV_COLUMNS",
]

logger = logging.getLogger(__name__)

WORKERS_ENV = "LCM_WORKERS"


@dataclass(frozen=True)
class ExperimentConfig:
    """A report grid.  Every field is checked here, for a config built in
    Python and one loaded from JSON alike."""

    families: tuple[str, ...]
    profiles: tuple[str, ...]
    n_list: tuple[int, ...]
    p_grid: tuple[float, ...]
    n_samples: int
    seed: int
    output_dir: str = "out"

    def __post_init__(self) -> None:
        for name, kinds in (("families", (str,)), ("profiles", (str,)), ("n_list", (int,)),
                            ("p_grid", (int, float))):
            object.__setattr__(self, name, _typed_list(getattr(self, name), name, kinds))
        # integer orders are stored as floats, so every report row's p is one
        object.__setattr__(self, "p_grid", tuple(map(float, self.p_grid)))
        _typed(self.seed, "seed", (int,))
        _typed(self.output_dir, "output_dir", (str,))
        if not self.families or not self.profiles or not self.n_list or not self.p_grid:
            raise InvalidArgumentError("families, profiles, n_list and p_grid must be non-empty")
        for name in ("families", "profiles", "n_list"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise InvalidArgumentError(f"{name} has duplicate entries: {list(values)}")
        if any(n < 1 for n in self.n_list):
            raise InvalidArgumentError("dimensions must be >= 1")
        ps = self.p_grid
        _orders(ps, 2.0, MAX_MOMENT_ORDER)
        if any(p1 <= p0 for p0, p1 in zip(ps, ps[1:])):
            raise InvalidArgumentError("p_grid must be strictly increasing")
        _validate_sample_count(self.n_samples)
        for spec in self.families:
            _check_spec("family", spec, self.n_list, family_from_spec)
        for spec in self.profiles:
            _check_spec("profile", spec, self.n_list, coefficient_profile)

    @classmethod
    def from_mapping(cls, data: dict) -> "ExperimentConfig":
        keys = {field.name: field.default is MISSING for field in fields(cls)}
        unknown = set(data) - set(keys)
        if unknown:
            raise InvalidArgumentError(f"unknown config keys: {sorted(unknown)}")
        missing = {name for name, required in keys.items() if required} - set(data)
        if missing:
            raise InvalidArgumentError(f"missing config keys: {sorted(missing)}")
        return cls(**data)

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidArgumentError(f"config is not valid JSON: {exc}") from exc
        except (OSError, UnicodeDecodeError) as exc:
            raise InvalidArgumentError(f"cannot read config {str(path)!r}: {exc}") from exc
        if not isinstance(data, dict):
            raise InvalidArgumentError("config must be a JSON object")
        return cls.from_mapping(data)


def _typed(value, name: str, kinds: tuple[type, ...]):
    # bool is an int subclass, but true/false is never a count or a seed
    if isinstance(value, bool) or not isinstance(value, kinds):
        expected = " or ".join(kind.__name__ for kind in kinds)
        raise InvalidArgumentError(f"config field {name} must be {expected}, got {value!r}")
    return value


def _typed_list(value, name: str, kinds: tuple[type, ...]) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise InvalidArgumentError(f"config field {name} must be a list, got {value!r}")
    return tuple(_typed(entry, f"{name} entry", kinds) for entry in value)


def _check_spec(kind: str, spec: str, n_list: tuple[int, ...], build) -> None:
    """Reject a spec that ``build(spec, n)`` refuses, by raising, at every n
    of the grid.

    A spec that builds at some n only (a multi-tail product or an explicit
    profile, say) is valid; its rows at the other dimensions are skipped at
    run time.
    """
    first_error = None
    for n in n_list:
        try:
            build(spec, n)
            return
        except InvalidArgumentError as exc:
            first_error = first_error or exc
    raise InvalidArgumentError(
        f"{kind} spec {spec!r} applies at no n in {list(n_list)}: {first_error}")


def coefficient_profile(spec: str, n: int) -> np.ndarray:
    """Materialize a coefficient profile at dimension n.

    ``one_hot`` | ``flat`` | ``geometric:rho=<r>`` | ``power:alpha=<a>`` |
    ``explicit:v1,v2,...``.  An explicit profile's entries must be finite and
    not all zero, and it raises ``InvalidArgumentError`` at any n other than
    its length (a report skips such rows).
    """
    spec = spec.strip()
    if n < 1:
        raise InvalidArgumentError(f"dimension must be >= 1, got {n}")
    if spec == "one_hot":
        out = np.zeros(n)
        out[0] = 1.0
        return out
    if spec == "flat":
        return np.full(n, 1.0 / math.sqrt(n))
    if spec.startswith("geometric:"):
        rho = _parse_param(spec, "geometric", "rho")
        if not (0.0 < rho < 1.0):
            raise InvalidArgumentError(f"geometric ratio must lie in (0, 1), got {rho}")
        return rho ** np.arange(n)
    if spec.startswith("power:"):
        alpha = _parse_param(spec, "power", "alpha")
        if not (0.0 < alpha < math.inf):
            raise InvalidArgumentError(f"power decay must be positive and finite, got {alpha}")
        return np.arange(1, n + 1, dtype=float) ** (-alpha)
    if spec.startswith("explicit:"):
        try:
            vals = [float(v) for v in spec[len("explicit:"):].split(",")]
        except ValueError as exc:
            raise InvalidArgumentError(f"malformed explicit profile {spec!r}") from exc
        if not all(map(math.isfinite, vals)) or not any(vals):
            raise InvalidArgumentError(
                f"explicit profile {spec!r} must be finite and not all zero")
        if len(vals) != n:
            raise InvalidArgumentError(
                f"explicit profile {spec!r} has {len(vals)} entries, not n = {n}")
        return np.asarray(vals)
    raise InvalidArgumentError(f"unknown profile spec {spec!r}")


@dataclass(frozen=True)
class ReportRow:
    family: str
    n: int
    profile: str
    p: float
    mc_value: float
    mc_stderr: float
    hitczenko: float
    bn_upper: float
    gk: float | None
    bqn: float | None
    momunc: float | None
    band_lo: float
    band_up_indep: float
    band_up_klartag: float
    ratio_lo: float
    ratio_hi: float


# the report's columns are the row's fields, in order
CSV_COLUMNS = tuple(field.name for field in fields(ReportRow))


@dataclass(frozen=True)
class ExperimentResult:
    rows: tuple[ReportRow, ...]
    summary: dict


def worker_count() -> int:
    raw = os.environ.get(WORKERS_ENV)
    if raw is None:
        return min(8, os.cpu_count() or 1)
    try:
        value = int(raw)
    except ValueError as exc:
        raise InvalidArgumentError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise InvalidArgumentError(f"{WORKERS_ENV} must be >= 1, got {value}")
    return value


def build_rows(family_spec: str, profile_spec: str, family: Family, a: CoefficientVector,
               orders, n_samples: int, seed: int) -> tuple[ReportRow, ...]:
    """One report row per moment order of a (family, n, profile) row.

    A single Monte-Carlo draw, seeded with ``seed``, gives the estimate at
    every order, and a single ``surrogate_bundle`` call gives the surrogates
    at every order.
    """
    estimates = estimate_pnorm(family, a, orders, n_samples, seed)
    bundles = surrogate_bundle(a, orders, family=family)
    rows = []
    for p, mc, bundle in zip(orders, estimates, bundles):
        rows.append(ReportRow(
            family=family_spec,
            n=family.n,
            profile=profile_spec,
            p=p,
            mc_value=mc.value,
            mc_stderr=mc.stderr,
            hitczenko=bundle.hitczenko,
            bn_upper=bundle.bn_upper,
            gk=bundle.gk,
            bqn=bundle.bqn,
            momunc=bundle.momunc,
            band_lo=bundle.band.lower,
            band_up_indep=bundle.band.upper_indep,
            band_up_klartag=bundle.band.upper_klartag,
            ratio_lo=mc.value / bundle.hitczenko,
            ratio_hi=bundle.bn_upper / mc.value,
        ))
    return tuple(rows)


def _skipped(index: int, key, reason: str, why) -> tuple[tuple, str]:
    family_spec, n, profile_spec = key
    logger.info("row %d (%s, n=%d, %s) skipped: %s", index, family_spec, n, profile_spec, why)
    return (), reason


def _run_row(config: ExperimentConfig, index: int, key
             ) -> tuple[tuple[ReportRow, ...], str | None]:
    """The row's cells, or no cells and the reason the row was skipped."""
    family_spec, n, profile_spec = key
    try:
        family = family_from_spec(family_spec, n)
    except InvalidArgumentError as exc:
        return _skipped(index, key, "family spec", exc)
    try:
        values = coefficient_profile(profile_spec, n)
    except InvalidArgumentError as exc:
        # a profile spec that passed the config check fails only by its length
        return _skipped(index, key, "profile length", exc)
    a = CoefficientVector.from_values(values)
    return build_rows(family_spec, profile_spec, family, a, config.p_grid,
                      config.n_samples, _child_seed(config.seed, index)), None


def _reference_surrogate(row: ReportRow) -> tuple[str, float | None]:
    """The surrogate a row's Monte-Carlo value is compared with: ``gk`` for
    product families, ``bqn`` for balls, else ``momunc``.  Only product rows
    carry ``gk`` and only ball rows carry ``bqn``."""
    if row.gk is not None:
        return "gk", row.gk
    if row.bqn is not None:
        return "bqn", row.bqn
    return "momunc", row.momunc


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    keys = list(enumerate(itertools.product(config.families, config.n_list, config.profiles)))
    workers = worker_count()
    if workers == 1:
        outcomes = [_run_row(config, index, key) for index, key in keys]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_row, config, index, key) for index, key in keys]
            outcomes = [fut.result() for fut in futures]
    rows = tuple(row for built, _ in outcomes for row in built)
    skipped_rows = Counter(reason for _, reason in outcomes if reason is not None)
    skipped_by_reason = {reason: count * len(config.p_grid)
                         for reason, count in skipped_rows.items()}

    families_summary = {}
    for family_spec in config.families:
        fam_rows = [r for r in rows if r.family == family_spec]
        if not fam_rows:
            continue
        ref_name, _ = _reference_surrogate(fam_rows[0])
        ref_ratios = []
        for r in fam_rows:
            _, ref = _reference_surrogate(r)
            if ref is not None and ref > 0:
                ref_ratios.append(r.mc_value / ref)
        families_summary[family_spec] = {
            "cells": len(fam_rows),
            "c_lo": max(r.hitczenko / r.mc_value for r in fam_rows),
            "c_hi": max(r.mc_value / r.bn_upper for r in fam_rows),
            "reference": ref_name,
            "ref_ratio_min": min(ref_ratios) if ref_ratios else None,
            "ref_ratio_max": max(ref_ratios) if ref_ratios else None,
        }
    summary = {
        "seed": config.seed,
        "n_samples": config.n_samples,
        "cells": len(rows),
        "skipped": sum(skipped_by_reason.values()),
        "skipped_by_reason": skipped_by_reason,
        "families": families_summary,
    }
    return ExperimentResult(rows=rows, summary=summary)


def _format_field(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def rows_to_csv_bytes(rows) -> bytes:
    """Serialize rows deterministically: fixed column order, 17 significant
    digits, '.' decimal separator, '\\n' line endings, empty fields for
    missing surrogates."""
    buf = io.StringIO()
    buf.write(",".join(CSV_COLUMNS) + "\n")
    for row in rows:
        buf.write(",".join(_format_field(getattr(row, col)) for col in CSV_COLUMNS) + "\n")
    return buf.getvalue().encode("ascii")


def write_report(result: ExperimentResult, out_dir) -> tuple[Path, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "report.csv"
    csv_path.write_bytes(rows_to_csv_bytes(result.rows))
    summary_path = out / "summary.json"
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(result.summary, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return csv_path, summary_path


def row_from_csv_fields(fields_list) -> ReportRow:
    """Inverse of the CSV serialization, for readers of written reports."""
    if len(fields_list) != len(CSV_COLUMNS):
        raise InvalidArgumentError(
            f"expected {len(CSV_COLUMNS)} fields, got {len(fields_list)}")
    kwargs = {}
    for name, raw in zip(CSV_COLUMNS, fields_list):
        if name in ("family", "profile"):
            kwargs[name] = raw
        elif name == "n":
            kwargs[name] = int(raw)
        elif raw == "" and name in ("gk", "bqn", "momunc"):
            kwargs[name] = None
        else:
            kwargs[name] = float(raw)
    return ReportRow(**kwargs)
