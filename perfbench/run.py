"""lcmoments benchmark.

    python3 perfbench/run.py --workload {grid,surrogates,verify} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  The library is imported from ``src/`` next
to this directory; without it the script exits with code 2 and prints no
result.  One client runs the workload's ops in a closed loop, round after
round, until ``--seconds`` have passed at a round boundary.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a traced run (see README.md).  Every timing is scaled to a
reference machine speed: a fixed kernel that calls no library code runs
between ops, about four times per second of ops, and each round's times
and rates are scaled by how much faster or slower the kernel ran around
that round than ``REFERENCE_S``.  The raw figures and the speed factor
are printed too.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Spans and the full result are
written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
# Median time of reference_kernel() between library ops on a 2-vCPU KVM
# guest ("Intel Xeon Processor", Python 3.11.7, numpy 2.4.6).  It only sets
# the scale of the reported figures; the speed factor of a round is
# REFERENCE_S over the median kernel time in that round and the rounds
# next to it.
REFERENCE_S = 0.0225
CALIBRATE_EVERY_S = 0.25
KERNELS_AT_ONCE = 8              # kernel runs owed after a long op, at most
SPEED_WINDOW = 1                 # rounds on each side whose kernel times count
TIME_UNITS = ("s", "s/round", "s/call", "ms")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_library():
    """Import lcmoments from this checkout's src/ and nowhere else."""
    if not (SRC / "lcmoments" / "__init__.py").is_file():
        fail(f"no lcmoments package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import lcmoments
    import lcmoments.cli  # noqa: F401  (the CLI's import closure: harness, montecarlo, ...)

    if Path(lcmoments.__file__).resolve().parent != SRC / "lcmoments":
        fail(f"lcmoments imported from {lcmoments.__file__}, not from {SRC}")
    return lcmoments


class _Piece:
    """A coordinate of the reference kernel's bisection: a method call per step."""

    __slots__ = ("rate",)

    def __init__(self, rate: float) -> None:
        self.rate = rate

    def value(self, t: float) -> float:
        return self.rate * t + math.log1p(t)


def reference_kernel() -> float:
    """Fixed interpreter and numpy work, about 22 ms; calls no library code.

    A shared host's speed drifts by up to 2x within minutes.  The kernel
    slows with it, so its time measures the speed the library ran at.  It
    mixes the library's kinds of work: a plain arithmetic loop, a
    bisection over Python objects with small arrays (like the GK solver),
    and Monte-Carlo-style draws, projection and moment reduction."""
    import numpy as np

    total = 0.0
    for i in range(1, 40_001):
        total += math.sqrt(i) * 0.5 - (i % 7)
    pieces = [_Piece(0.5 + 0.1 * i) for i in range(16)]
    weights = np.linspace(1.0, 0.1, 16)
    for step in range(150):
        lam = 0.01 * (step + 1)
        ts = np.array([max(0.0, w / lam - piece.rate) for w, piece in zip(weights, pieces)])
        total += float(weights @ ts) - lam * sum(piece.value(t) for piece, t in zip(pieces, ts))
    rng = np.random.default_rng(7)
    for _ in range(40):
        total += float(np.log1p(np.abs(rng.standard_normal(5_000))).sum())
    draws = rng.standard_exponential((20_000, 16)) @ weights
    total += float(np.mean(draws ** 4))
    for _ in range(3):
        x = rng.standard_exponential((5_000, 16)) @ weights
        total += float(np.log(np.mean(np.abs(x) ** 4)))
    return total


def reference_seconds() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def scaled(metrics: dict, speed: float) -> dict:
    """Times times the speed factor, rates over it; other units unchanged."""
    out = {}
    for name, (value, unit) in metrics.items():
        if unit in TIME_UNITS:
            value *= speed
        elif unit == "1/s":
            value /= speed
        out[name] = (value, unit)
    return out


def setup_once(workload: str, seed: int) -> tuple[dict, object]:
    """Import, build families and inputs, one warm-up op; phase times in seconds."""
    t0 = time.perf_counter()
    lcm = import_library()
    t1 = time.perf_counter()
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[workload](lcm, seed, OUT / workload)
    wl.build()
    t2 = time.perf_counter()
    wl.warmup()
    t3 = time.perf_counter()
    return {"setup_s": t3 - t0, "import_s": t1 - t0, "construct_s": t2 - t1,
            "warmup_s": t3 - t2}, wl


def probe_setup(workload: str, seed: int) -> list[dict]:
    """Set up in SETUP_REPEATS fresh interpreters, so each pays the import."""
    phases = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            fail(f"set-up probe exited with code {proc.returncode}")
        phases.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return phases


def machine_facts() -> dict:
    facts = {"nproc": len(os.sched_getaffinity(0)),
             "python": platform.python_version()}
    import numpy
    import scipy

    facts["numpy"] = numpy.__version__
    facts["scipy"] = scipy.__version__
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh
                      if line.startswith("model name")]
        facts["cpu_model"] = models[0] if models else platform.processor()
    except OSError:
        facts["cpu_model"] = platform.processor()
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")) if cache_dir.is_dir() else ():
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            facts[f"L{level}"] = size
    return facts


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    return statistics.quantiles(ordered, n=100, method="inclusive")[int(q) - 1]


class Tally:
    """Per-op timings, failures and accuracy of a run."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.latency_round: list[int] = []
        self.round_rates: dict[int, float] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.errors: list[float] = []
        self.error_round: list[int] = []
        self.round_walls: list[float] = []
        self.reference: list[float] = []
        self.reference_round: list[int] = []
        self._calibrated = time.perf_counter() - CALIBRATE_EVERY_S

    def calibrate(self) -> None:
        """Run the reference kernel once per CALIBRATE_EVERY_S passed; untimed.

        After a long op (a grid slice takes seconds) the kernel runs several
        times, so every workload gets about as many kernel times per second."""
        owed = int((time.perf_counter() - self._calibrated) / CALIBRATE_EVERY_S)
        for _ in range(min(owed, KERNELS_AT_ONCE)):
            self.reference.append(reference_seconds())
            self.reference_round.append(len(self.round_walls))
        if owed:
            self._calibrated = time.perf_counter()

    def speed(self) -> float:
        """The run's speed factor: REFERENCE_S over the median kernel time."""
        return REFERENCE_S / statistics.median(self.reference)

    def round_speeds(self) -> list[float]:
        """Each round's speed factor, from the kernel times within SPEED_WINDOW rounds."""
        near: dict[int, list[float]] = {}
        for seconds, index in zip(self.reference, self.reference_round):
            for r in range(index - SPEED_WINDOW, index + SPEED_WINDOW + 1):
                near.setdefault(r, []).append(seconds)
        return [REFERENCE_S / statistics.median(near.get(r) or self.reference)
                for r in range(len(self.round_walls))]

    def scaled_timings(self) -> tuple[list[float], list[float]]:
        """Round rates and op latencies, each at the speed of its own round."""
        speeds = self.round_speeds()
        rates = [rate / speeds[r] for r, rate in self.round_rates.items()]
        latencies = [dt * speeds[r] for dt, r in zip(self.latencies, self.latency_round)]
        return rates, latencies

    def run_round(self, ops) -> None:
        wall = 0.0
        work, busy = 0, 0.0
        for op in ops:
            self.calibrate()
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                out = op.call()
            except Exception as exc:  # an op that raises counts as failed
                self.failures.append(f"{op.kind}: raised {type(exc).__name__}: {exc}")
                wall += time.perf_counter() - t0
                continue
            dt = time.perf_counter() - t0
            self.latencies.append(dt)
            self.latency_round.append(len(self.round_walls))
            busy += dt
            work += op.work
            causes = op.check(out)
            if causes:
                self.failures.append("; ".join(causes))
            errors = op.accuracy(out)
            self.errors.extend(errors)
            self.error_round.extend([len(self.round_walls)] * len(errors))
            wall += time.perf_counter() - t0
        self.calibrate()
        if busy > 0.0:
            self.round_rates[len(self.round_walls)] = work / busy
        self.round_walls.append(wall)


def end_to_end(tally: Tally, phases: list[dict]) -> tuple[dict, dict]:
    """The end-to-end metrics at reference speed, and as measured."""
    by_round: dict[int, list[float]] = {}
    for error, r in zip(tally.errors, tally.error_round):
        by_round.setdefault(r, []).append(error)
    # median over rounds of each round's RMS: one heavy-tailed MC estimate cannot swing it
    rms = statistics.median((sum(e * e for e in errs) / len(errs)) ** 0.5
                            for errs in by_round.values()) if by_round else None

    def timings(setup, rates, latencies) -> dict:
        return {
            "setup_s": (setup, "s"),
            "ops_per_s": (statistics.median(rates), "1/s"),
            "latency_p50_ms": (1e3 * statistics.median(latencies), "ms"),
            "latency_p90_ms": (1e3 * percentile(latencies, 90), "ms"),
            "rel_err_rms": (rms, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    setup = statistics.median(p["setup_s"] for p in phases)
    raw = timings(setup, tally.round_rates.values(), tally.latencies)
    # set-up runs just before the timed rounds, in the probes: the run's factor scales it
    return timings(setup * tally.speed(), *tally.scaled_timings()), raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("grid", "surrogates", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        phases, _ = setup_once(args.workload, args.seed)
        print(json.dumps(phases))
        return 0

    import_library()   # fail fast, before any child starts, when src/ is missing
    phases = probe_setup(args.workload, args.seed)
    _, wl = setup_once(args.workload, args.seed)
    facts = {**machine_facts(), "workload": args.workload, "seed": args.seed,
             "seconds": args.seconds, "trace": args.trace,
             "LCM_WORKERS": os.environ.get("LCM_WORKERS"), **wl.facts}

    if args.trace:
        metrics, raw, tally = tracing_run(wl, args.seconds, phases)
    else:
        tally = Tally()
        start = time.perf_counter()
        index = 0
        while index == 0 or time.perf_counter() - start < args.seconds:
            tally.run_round(wl.round_ops(index))
            index += 1
        metrics, raw = end_to_end(tally, phases)

    facts["rounds"] = len(tally.round_walls)
    facts["speed"] = tally.speed()
    facts["reference_samples"] = len(tally.reference)
    facts["latency_samples"] = len(tally.latencies)
    facts["accuracy_samples"] = len(tally.errors)
    fail_frac = len(tally.failures) / tally.attempted
    print(f"speed factor {facts['speed']:.4g}: the reference kernel ran in a median "
          f"{REFERENCE_S / facts['speed'] * 1e3:.3g} ms, {REFERENCE_S * 1e3:.3g} ms at reference "
          f"speed; timings below are scaled to it round by round, raw figures in brackets")
    for name, (value, unit) in metrics.items():
        note = f"  (raw {raw[name][0]:.6g})" if raw[name][0] != value else ""
        print(f"{name:34s} {value:.6g} {unit}{note}")
    print(f"{'fail_frac':34s} {fail_frac:.6g} ratio  ({len(tally.failures)} of {tally.attempted} ops)")
    for cause in tally.failures[:20]:
        print(f"failed op: {cause}")
    print("facts " + json.dumps(facts, sort_keys=True))

    correct = not tally.failures and all(v is not None for v, _ in metrics.values())
    line = {"correct": correct, "attempted": tally.attempted, "failed": len(tally.failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({**line, "raw_metrics": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
                   "facts": facts, "failures": tally.failures, "setup_phases": phases,
                   "round_walls": tally.round_walls, "round_rates": list(tally.round_rates.values()),
                   "reference_s": tally.reference, "reference_round": tally.reference_round}, fh, indent=2)
    print(json.dumps(line))
    return 0


def tracing_run(wl, seconds: float, phases: list[dict]) -> tuple[dict, dict, Tally]:
    """Alternate traced and untraced rounds; per-layer figures from the traced ones."""
    tracer = spans.Tracer()
    traced, plain = Tally(), Tally()
    start = time.perf_counter()
    index = 0
    while index < 2 or time.perf_counter() - start < seconds:
        ops = wl.round_ops(index)
        if index % 2 == 0:
            with spans.instrument(tracer):
                traced.run_round(ops)
        else:
            plain.run_round(ops)
        index += 1
    # one more traced round on the harness's thread pool, for parallel efficiency
    pool, pooled = getattr(wl, "pool_workers", 1), Tally()
    pool_tracer = spans.Tracer()
    if pool > 1:
        previous = os.environ["LCM_WORKERS"]
        os.environ["LCM_WORKERS"] = str(pool)
        try:
            with spans.instrument(pool_tracer):
                pooled.run_round(wl.round_ops(index))
        finally:
            os.environ["LCM_WORKERS"] = previous
    tracer.dump(OUT / f"spans-{wl.name}-{wl.seed}.jsonl")
    metrics = per_layer(tracer.spans, len(traced.round_walls), phases)
    pooled_wall = sum(s.seconds for s in pool_tracer.spans if s.name == "harness.run_experiment")
    sequential = cell_seconds(tracer.spans) / len(traced.round_walls)
    metrics["harness.parallel_efficiency"] = (
        sequential / (pooled_wall * pool) if pooled_wall else 0.0, "ratio")
    overhead = statistics.median(traced.round_walls) - statistics.median(plain.round_walls)
    metrics["trace.overhead_s"] = (overhead, "s/round")
    metrics["trace.overhead_frac"] = (overhead / statistics.median(plain.round_walls), "ratio")
    for other in (plain, pooled):
        traced.failures += other.failures
        traced.attempted += other.attempted
        traced.reference += other.reference
    return scaled(metrics, traced.speed()), metrics, traced


def cell_seconds(recorded) -> float:
    """Time in the cells of run_experiment calls: their estimate and bundle spans.

    Summed over the cells, this is the sequential time parallel efficiency
    is measured against (the traced rounds run on one worker)."""
    parents = {s.sid for s in recorded if s.name == "harness.run_experiment"}
    return sum(s.seconds for s in recorded if s.parent in parents
               and s.name in ("montecarlo.estimate_pnorm", "surrogates.surrogate_bundle"))


def per_layer(recorded, rounds: int, phases: list[dict]) -> dict:
    """Per-layer figures from the spans of the traced rounds."""
    own = spans.self_times(recorded)
    by_name: dict[str, list] = {}
    for s in recorded:
        by_name.setdefault(s.name, []).append(s)

    def total(name, keep=lambda s: True) -> float:
        return sum(s.seconds for s in by_name.get(name, ()) if keep(s))

    def mean(name, keep=lambda s: True) -> float:
        picked = [s.seconds for s in by_name.get(name, ()) if keep(s)]
        return sum(picked) / len(picked) if picked else 0.0

    samples = by_name.get("montecarlo.sample", ())
    sample_time = sum(s.seconds for s in samples)
    gk = "surrogates.gluskin_kwapien"
    out = {
        "montecarlo.estimate_s": (total("montecarlo.estimate_pnorm") / rounds, "s/round"),
    }
    for fam in ("exp", "ball_q1", "ball_q2", "cube"):
        out[f"montecarlo.sample_s.{fam}"] = (
            total("montecarlo.sample", lambda s, f=fam: s.attrs["family"] == f) / rounds,
            "s/round")
    out.update({
        "montecarlo.nonsample_s": (sum(own[s.sid] for s in by_name.get(
            "montecarlo.estimate_pnorm", ())) / rounds, "s/round"),
        "montecarlo.draws_per_s": (
            sum(s.attrs["draws"] for s in samples) / sample_time if sample_time else 0.0, "1/s"),
        "montecarlo.fourth_moment_s": (mean("montecarlo.estimate_fourth_moment"), "s/call"),
        "montecarlo.joint_tail_s": (mean("montecarlo.estimate_joint_tail"), "s/call"),
        "montecarlo.dep_indep_s": (mean("montecarlo.dependent_vs_independent"), "s/call"),
        "families.construct_s": (statistics.median(p["construct_s"] for p in phases), "s"),
        "families.marginal_build_s": (mean("families.marginal", lambda s: s.attrs["build"]),
                                      "s/call"),
        "families.marginal_query_s": (mean("families.marginal", lambda s: not s.attrs["build"]),
                                      "s/call"),
        "surrogates.bundle_s": (total("surrogates.surrogate_bundle") / rounds, "s/round"),
    })
    for kind in ("linear", "power", "tabulated"):
        out[f"surrogates.gk_s.{kind}"] = (mean(gk, lambda s, k=kind: s.attrs["kind"] == k),
                                          "s/call")
    out.update({
        "surrogates.gk_calls": (len(by_name.get(gk, ())) / rounds, "count/round"),
        "harness.run_experiment_s": (total("harness.run_experiment") / rounds, "s/round"),
        "harness.write_report_s": (total("harness.write_report") / rounds, "s/round"),
        "harness.report_bytes": (sum(s.attrs.get("bytes", 0) for s in by_name.get(
            "harness.write_report", ())) / rounds, "B/round"),
        "cli.import_s": (statistics.median(p["import_s"] for p in phases), "s"),
    })
    return out


if __name__ == "__main__":
    sys.exit(main())
