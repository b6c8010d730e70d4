"""Benchmark of the nlheat experiment runners, end to end or per layer.

    python3 benchmarks/run.py --workload inflate-d1 --seed 1 --seconds 35 \
        --trace 0

Runs repetitions of the workload (``benchmarks/workload.py``), each in a
fresh interpreter: at least ``MIN_ROUNDS`` of them, and then more as long
as the next one would still end within ``--seconds``.  Repetition r uses
the master seed ``seed * 1000 + r``.  Then it runs the checks that need
every repetition, and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Untraced repetitions run under ``hostspeed.SpeedProbe``, and the end-to-end
times are scaled to the reference host speed it measures.  With
``--trace 1`` repetition 0 also times the nonlinearity by part,
repetition 1 runs under the span tracer, and one more repetition runs;
the traced wall time minus the median untraced one is the tracing
overhead.

Exit status 0 on success, 2 when the source tree or the arguments are
missing, 1 when a repetition fails to run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from workload import ROOT, WORKLOADS

WORKER = Path(__file__).resolve().parent / "workload.py"
#: repetitions per run: the median then drops one hit by a burst of host
#: load, and inflate-d1 pools 3 x 3 trials at N = 1024 for an inflation
#: verdict that misses by chance in about 1 run in 500
MIN_ROUNDS = 3
ROUND_TIMEOUT_S = 150
SEED_STRIDE = 1000
#: single-threaded numerics, so repetitions do not depend on the core count
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

#: metric names and units, in the order they are printed
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: besov config -> property its pooled medians must have
BESOV_EXPECT = {"stats-d1-besov-theta-1.yaml": checks.decreasing,
                "stats-d1-besov-theta0.yaml": checks.flat,
                "stats-d1-besov-theta-2.yaml": checks.decreasing}


class RoundError(RuntimeError):
    """A repetition exited with an error or printed no result."""


def run_child(workload: str, seed: int, *flags: str) -> dict:
    """Run one repetition; returns its report plus ``setup_s``."""
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed), *flags]
    env = {**os.environ, **THREAD_ENV}
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=ROUND_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    report = json.loads(lines[-1])
    report["setup_s"] = report.pop("ready") - spawned
    report["elapsed_s"] = time.monotonic() - spawned
    return report


def pooled_failures(workload: str, rounds) -> int:
    """Checks over every repetition; returns the operations they fail."""
    if workload == "inflate-d1":
        adv = [v for r in rounds for v in r["top_adversarial"]]
        ctl = [v for r in rounds for v in r["top_control"]]
        ok = checks.inflation_verdict_ok(adv, ctl, rounds[0]["top_drift"])
        return 0 if ok else 2 * len(adv)
    if workload == "stats-d1":
        failed = 0
        for i, name in enumerate(WORKLOADS[workload][1:]):
            rows = [row for r in rounds for row in r["besov_norms"][i]]
            if not BESOV_EXPECT[name](checks.besov_medians(rows)):
                failed += len(rows)
        return failed
    return 0


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    rounds, start = [], time.monotonic()
    while len(rounds) < MIN_ROUNDS + trace or time.monotonic() - start \
            + statistics.median(r["elapsed_s"] for r in rounds) <= seconds:
        r = len(rounds)
        flags = []
        if trace and r == 0:
            flags.append("--rhs-bench")
        if trace and r == 1:
            flags.append("--trace")
        rounds.append(run_child(workload, seed * SEED_STRIDE + r, *flags))
        print(f"repetition {r}{' traced' if '--trace' in flags else ''}: "
              f"wall {rounds[-1]['wall_s']:.3f} s, "
              f"setup {rounds[-1]['setup_s']:.3f} s, "
              f"host speed {rounds[-1].get('speed', float('nan')):.3f}",
              file=sys.stderr)

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds) + pooled_failures(workload,
                                                                rounds)
    untraced = [r for i, r in enumerate(rounds) if not (trace and i == 1)]
    host = {
        "host.speed": statistics.median(r["speed"] for r in untraced),
        "host.wall_s": statistics.median(r["wall_s"] for r in untraced),
        "host.setup_s": statistics.median(r["setup_s"] for r in untraced),
    }
    if trace:
        overhead = rounds[1]["wall_s"] - host["host.wall_s"]
        values = {**rounds[0]["layers"], **rounds[1]["layers"], **host,
                  "trace.overhead_s": overhead}
    else:
        # times at the reference host speed (hostspeed.py)
        values = {
            "wall_s": statistics.median(r["wall_s"] * r["speed"]
                                        for r in rounds),
            "setup_s": statistics.median(r["setup_s"] * r["speed"]
                                         for r in rounds),
            "trials_per_s": statistics.median(
                r["trials"] / (r["wall_s"] * r["speed"]) for r in rounds),
            "peak_rss_mib": statistics.median(r["peak_rss_mib"]
                                              for r in rounds),
        }
    section = SPEC["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in section}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nlheat" / "__init__.py").is_file():
        print(f"error: no nlheat source tree under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except (RoundError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
