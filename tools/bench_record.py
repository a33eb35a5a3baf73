"""Record one benchmark run as a point of the committed performance trajectory.

    python3 tools/bench_record.py --label L --workload {grid,surrogates,verify} \
        --seed S [--checkout DIR]

Runs the checkout's own ``perfbench/run.py`` unchanged, always for the
benchmark's 25 s and untraced, so that every point of the trajectory is
measured alike.  It copies the result file that the run writes under
``perfbench/out/``, adds the checkout's git revision and writes
``BENCH_<label>_<workload>.json`` at the root of this repository.
``--checkout`` (default: this repository) records another checkout, for
example a clone of the parent commit, so that the before and after files of a
change come from the same script.  The result file carries the seed, the
sample count, ``nproc``, ``LCM_WORKERS`` and the speed factor in its
``facts``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git_revision(checkout: Path) -> str:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True,
                          text=True, check=True)
    return proc.stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--workload", required=True, choices=("grid", "surrogates", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--checkout", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    if not args.label or not all(c.isalnum() or c in "-." for c in args.label):
        parser.error("--label takes letters, digits, '-' and '.'")

    checkout = args.checkout.resolve()
    command = [sys.executable, "perfbench/run.py", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "25", "--trace", "0"]
    proc = subprocess.run(command, cwd=checkout, check=False)
    if proc.returncode != 0:
        print(f"bench_record: perfbench/run.py exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode
    result_file = (checkout / "perfbench" / "out"
                   / f"result-{args.workload}-{args.seed}-trace0.json")
    record = {"label": args.label, "workload": args.workload, "seed": args.seed,
              "git_revision": git_revision(checkout),
              "command": " ".join(["python3"] + command[1:]),
              **json.loads(result_file.read_text(encoding="utf-8"))}
    target = ROOT / f"BENCH_{args.label}_{args.workload}.json"
    target.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {target.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
