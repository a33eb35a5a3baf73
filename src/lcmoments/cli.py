"""Command line front end: estimate, report, verify.

Exit codes: 0 success, 1 verification failure, 2 invalid input (a config
that cannot be read or an output path that cannot be written included).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import asdict
from pathlib import Path

from .coeffs import CoefficientVector
from .errors import MomentsError
from .harness import (
    ExperimentConfig,
    build_rows,
    coefficient_profile,
    rows_to_csv_bytes,
    run_experiment,
    write_report,
)

__all__ = ["main"]


def _parse_orders(raw: str) -> tuple[float, ...]:
    try:
        values = tuple(float(v) for v in raw.replace(",", " ").split())
    except ValueError as exc:
        raise MomentsError(f"malformed moment order list {raw!r}") from exc
    if not values:
        raise MomentsError("at least one moment order is required")
    return values


def _check_writable(path, directory: bool = False) -> None:
    """Refuse an output path that cannot be written, before any work runs and
    without creating or truncating it.  A missing report directory is made by
    ``write_report``, parents included; a file's directory must exist."""
    target = Path(path)
    if target.exists():
        base, need_dir = target, directory
    else:
        base = next(p for p in target.parents if p.exists()) if directory else target.parent
        need_dir = True
    if base.is_dir() != need_dir or not os.access(base, os.W_OK):
        what = "a writable directory" if need_dir else "a writable file"
        raise MomentsError(f"cannot write {str(path)!r}: {str(base)!r} is not {what}")


def _cmd_estimate(args: argparse.Namespace) -> int:
    from .families import family_from_spec

    if args.csv is not None:
        _check_writable(args.csv)
    family = family_from_spec(args.family, args.n)
    a = CoefficientVector.from_values(coefficient_profile(args.profile, args.n))
    rows = build_rows(args.family, args.profile, family, a, _parse_orders(args.p),
                      args.samples, args.seed)
    for row in rows:
        extras = "".join(
            f"  {name}={value:.6g}" for name, value in
            (("gk", row.gk), ("bqn", row.bqn), ("momunc", row.momunc))
            if value is not None)
        print(f"p={row.p:g}  mc={row.mc_value:.6g} (±{row.mc_stderr:.2g}, "
              f"ess={row.mc_ess:.4g}, top_share={row.mc_top_share:.2g})  "
              f"hitczenko={row.hitczenko:.6g}  bn_upper={row.bn_upper:.6g}"
              f"{extras}  band=[{row.band_lo:.6g}, {row.band_up_indep:.6g}]")
    if args.csv is not None:
        Path(args.csv).write_bytes(rows_to_csv_bytes(rows))
        print(f"wrote {args.csv}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    config = ExperimentConfig.from_json_file(args.config)
    out_dir = args.out if args.out is not None else config.output_dir
    _check_writable(out_dir, directory=True)
    result = run_experiment(config)
    csv_path, summary_path = write_report(result, out_dir)
    print(f"wrote {csv_path} ({len(result.rows)} rows, "
          f"{result.summary['skipped']} skipped)")
    print(f"wrote {summary_path}")
    for family, env in result.summary["families"].items():
        print(f"{family}: cells={env['cells']}  c_lo={env['c_lo']:.4g}  "
              f"c_hi={env['c_hi']:.4g}  reference={env['reference']}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .acceptance import run_suite

    if args.json is not None:
        _check_writable(args.json)
    results = run_suite(args.suite, args.seed)
    for check in results:
        status = "PASS" if check.passed else "FAIL"
        print(f"[{status}] {check.name} ({check.seconds:.1f}s)")
    if args.json is not None:
        payload = [asdict(check) for check in results]
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")
    failed = [check.name for check in results if not check.passed]
    if failed:
        print(f"failed checks: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcmoments",
        description="Moment surrogates for linear sums of log-concave coordinates.")
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate",
                         help="Monte-Carlo moments plus surrogates for one cell")
    est.add_argument("--family", required=True,
                     help="family spec: exp | gauss | cube | ball:q=<q> | product:...")
    est.add_argument("--n", type=int, required=True, help="dimension")
    est.add_argument("--profile", required=True,
                     help="one_hot | flat | geometric:rho=<r> | power:alpha=<a> | "
                          "explicit:v1,v2,...")
    est.add_argument("--p", required=True, help="moment orders, comma separated")
    est.add_argument("--samples", type=int, default=1_000_000)
    est.add_argument("--seed", type=int, default=0)
    est.add_argument("--csv", default=None, help="also write rows as CSV")
    est.set_defaults(func=_cmd_estimate)

    rep = sub.add_parser("report", help="run a configured experiment grid")
    rep.add_argument("--config", required=True, help="JSON experiment config")
    rep.add_argument("--out", default=None, help="output directory override")
    rep.set_defaults(func=_cmd_report)

    ver = sub.add_parser("verify", help="run an acceptance suite")
    ver.add_argument("--suite", required=True, help="core | gk | gaussian | na")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--json", default=None, help="write JSON verdicts here")
    ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MomentsError, OSError) as exc:
        # an OSError here is an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
