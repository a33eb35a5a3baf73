"""Compare the Monte-Carlo records of two source trees, call by call.

    python3 tools/record_diff.py --base DIR --head DIR [--json FILE]

Runs one fixed call matrix in each tree, each in its own interpreter with
``PYTHONPATH=<tree>/src``, and compares the records of every call field by
field as hex floats.  The matrix is

* ``estimate_pnorm`` over ``exp``, ``ball:q=1``, ``ball:q=2``, ``gauss``,
  ``cube``, ``ball:q=1.5``, ``ball:q=3``, ``product:pow:alpha=2`` and the
  mixed product ``product:exp,pow:alpha=2`` (linear and power tails
  alternating over the coordinates), at n in {4, 16, 64}, the four grid
  profiles and a two-level tied vector (the first n/2 coefficients 1, the
  others 1/2), and N in {10 007, 20 000}, every call over the grid's nine
  orders;
* ``estimate_fourth_moment`` of coordinate 0 of the same families and
  dimensions, at both N;
* ``dependent_vs_independent`` of the balls at q in {1, 1.5, 2, 3}, at the
  same dimensions, profiles and N, over the grid's orders from 3 up.

A call is ``identical`` when every field of every record has the same bits
in both trees, ``last bits`` when every field is within 1e-13 relative, and
``changed`` otherwise; a changed call states the largest |value_1 -
value_2| / sqrt(stderr_1^2 + stderr_2^2) over its records.  The tool writes
every call's class as JSON (``--json``, default ``record_diff.json``) and
prints a short Markdown table of the classes per call kind and family.  Both
trees must run on one machine and one BLAS build, as a record depends on the
BLAS kernels in its last bits.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

FAMILIES = ("exp", "ball:q=1", "ball:q=2", "gauss", "cube", "ball:q=1.5", "ball:q=3",
            "product:pow:alpha=2", "product:exp,pow:alpha=2")
BALLS = (1, 1.5, 2, 3)
DIMENSIONS = (4, 16, 64)
PROFILES = ("one_hot", "flat", "geometric:rho=0.7", "power:alpha=1", "two_level")
SAMPLE_COUNTS = (10_007, 20_000)
ORDERS = (2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0)
BALL_ORDERS = tuple(p for p in ORDERS if p >= 3.0)
SEED = 11

# a call is "last bits" when every field of every record is this close
LAST_BITS = 1e-13

FIELDS = ("value", "stderr", "ess", "top_share", "n_samples", "seed")


def family_spec(label: str, n: int) -> str:
    """The spec of a matrix family at n: a multi-tail product lists its tails
    over the n coordinates in turn, any other label is its own spec."""
    if label.startswith("product:") and "," in label:
        tails = label[len("product:"):].split(",")
        return "product:" + ",".join(tails[j % len(tails)] for j in range(n))
    return label


def profile_spec(label: str, n: int) -> str:
    """The coefficient profile spec of a matrix profile at n: ``two_level``
    is the explicit vector of n/2 ones, then halves."""
    if label == "two_level":
        return "explicit:" + ",".join(["1"] * (n // 2) + ["0.5"] * (n - n // 2))
    return label


def call_matrix() -> list[dict]:
    """The calls of the matrix, each a dict of its kind, its inputs and the
    ``label`` of its family in the table."""
    calls = []
    for family in FAMILIES:
        for n in DIMENSIONS:
            spec = family_spec(family, n)
            for samples in SAMPLE_COUNTS:
                calls += [{"kind": "pnorm", "family": spec, "label": family, "n": n,
                           "profile": profile_spec(profile, n), "samples": samples}
                          for profile in PROFILES]
                calls.append({"kind": "fourth_moment", "family": spec, "label": family,
                              "n": n, "samples": samples})
    for q in BALLS:
        for n in DIMENSIONS:
            for samples in SAMPLE_COUNTS:
                calls += [{"kind": "dependent", "family": f"ball:q={q}", "label": f"ball:q={q}",
                           "n": n, "profile": profile_spec(profile, n), "samples": samples}
                          for profile in PROFILES]
    return calls


def run_call(call: dict) -> list[dict]:
    """The records of one call as dicts of hex-float fields (in the tree's
    interpreter)."""
    from lcmoments.families import family_from_spec
    from lcmoments.harness import coefficient_profile
    from lcmoments.montecarlo import (dependent_vs_independent, estimate_fourth_moment,
                                      estimate_pnorm)

    family = family_from_spec(call["family"], call["n"])
    if call["kind"] == "pnorm":
        records = estimate_pnorm(family, coefficient_profile(call["profile"], call["n"]),
                                 ORDERS, call["samples"], SEED)
    elif call["kind"] == "fourth_moment":
        records = (estimate_fourth_moment(family, 0, call["samples"], SEED),)
    else:
        deps, indeps = dependent_vs_independent(
            family, coefficient_profile(call["profile"], call["n"]), BALL_ORDERS,
            call["samples"], SEED)
        records = deps + indeps
    return [{name: float(getattr(rec, name)).hex() for name in FIELDS} for rec in records]


def worker() -> int:
    """Read the calls as JSON on stdin and print their records as JSON."""
    import lcmoments

    calls = json.load(sys.stdin)
    json.dump({"module": lcmoments.__file__, "records": [run_call(c) for c in calls]},
              sys.stdout)
    return 0


def tree_records(tree: Path, calls: list[dict]) -> list[list[dict]]:
    """The records of every call, run in a fresh interpreter on ``tree``'s
    source; refuses a run that imported the library from elsewhere."""
    src = (tree / "src").resolve()
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--worker"],
                          input=json.dumps(calls), capture_output=True, text=True, env=env,
                          check=True)
    out = json.loads(proc.stdout)
    if not Path(out["module"]).resolve().is_relative_to(src):
        raise SystemExit(f"record_diff: {tree} imported lcmoments from {out['module']}")
    return out["records"]


def compare(base: list[dict], head: list[dict]) -> dict:
    """The class of one call from its records in both trees."""
    if base == head:
        return {"class": "identical"}
    pairs = [(float.fromhex(b[name]), float.fromhex(h[name]))
             for b, h in zip(base, head) for name in FIELDS]
    if len(base) == len(head) and all(
            x == y or abs(x - y) <= LAST_BITS * max(abs(x), abs(y)) for x, y in pairs):
        return {"class": "last bits"}
    z = max(abs(float.fromhex(b["value"]) - float.fromhex(h["value"]))
            / math.hypot(float.fromhex(b["stderr"]), float.fromhex(h["stderr"]))
            for b, h in zip(base, head))
    return {"class": "changed", "max_abs_z": z}


def table(results: list[dict]) -> str:
    """Markdown counts of the classes per (kind, family), and the largest z
    of the changed calls."""
    counts: dict[tuple[str, str], Counter] = {}
    worst: dict[tuple[str, str], float] = {}
    for res in results:
        key = (res["call"]["kind"], res["call"]["label"])
        counts.setdefault(key, Counter())[res["class"]] += 1
        if res["class"] == "changed":
            worst[key] = max(worst.get(key, 0.0), res["max_abs_z"])
    lines = ["| call | family | identical | last bits | changed | max abs z |",
             "|---|---|---|---|---|---|"]
    for (kind, family), c in counts.items():
        z = f"{worst[kind, family]:.2f}" if (kind, family) in worst else ""
        lines.append(f"| {kind} | `{family}` | {c['identical']} | {c['last bits']} | "
                     f"{c['changed']} | {z} |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path)
    parser.add_argument("--head", type=Path)
    parser.add_argument("--json", type=Path, default=Path("record_diff.json"))
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        return worker()
    if args.base is None or args.head is None:
        parser.error("--base and --head are required")

    calls = call_matrix()
    base, head = tree_records(args.base, calls), tree_records(args.head, calls)
    results = [{"call": call, **compare(b, h)} for call, b, h in zip(calls, base, head)]
    summary = dict(Counter(res["class"] for res in results))
    args.json.write_text(json.dumps({"base": str(args.base), "head": str(args.head),
                                     "summary": summary, "calls": results}, indent=1)
                         + "\n", encoding="utf-8")
    print(table(results))
    print(f"{len(results)} calls: " + ", ".join(f"{v} {k}" for k, v in summary.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
