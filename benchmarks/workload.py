"""One repetition of a benchmark workload, in a fresh interpreter.

Run by ``benchmarks/run.py``; prints one JSON object on its last line.
A fresh process per repetition matters: ``correlation.mode_weight_table``
and ``_perp_square_counts`` are cached per process, and a warm cache would
hide a cost that every real run of ``nlheat`` pays.

    python3 benchmarks/workload.py --workload inflate-d1 --seed 3 [--trace]
        [--rhs-bench]

The process (1) sets up: imports ``nlheat``, loads the workload's YAML
configs and builds the nonlinearity preset, and reports the monotonic
clock when that is done; (2) times the runner calls from the first call to
the last return, under the span tracer with ``--trace`` and otherwise under
the host-speed probe (``hostspeed.py``), whose handler time it subtracts and
whose speed it reports; (3) untimed, checks the outputs against
independent oracles and reports what ``run.py`` needs for the checks over
all repetitions.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

from hostspeed import SpeedProbe

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CONFIGS = BENCH_DIR / "configs"
OUT_DIR = ROOT / ".bench_out"
TRACE_DIR = ROOT / ".bench_trace"

#: workload -> config files, one runner call each, in call order
WORKLOADS = {
    "inflate-d1": ("inflate-d1.yaml",),
    "perturb-dym-d3": ("perturb-dym-d3.yaml",),
    "stats-d1": ("stats-d1-tables.yaml", "stats-d1-besov-theta-1.yaml",
                 "stats-d1-besov-theta0.yaml", "stats-d1-besov-theta-2.yaml"),
}

RHS_MIN_CALLS, RHS_MAX_CALLS, RHS_BUDGET_S = 5, 25, 1.0
RHS_CHECK_POINTS = 16


def setup(workload: str, seed: int):
    """Import nlheat, load the configs with the seed replaced, build the preset."""
    sys.path.insert(0, str(ROOT / "src"))
    import nlheat  # noqa: F401  (the import is part of what set-up measures)
    from nlheat.experiments import ExperimentConfig
    cfgs = [replace(ExperimentConfig.from_yaml(CONFIGS / name), seed=seed)
            for name in WORKLOADS[workload]]
    return cfgs, cfgs[0].nonlinearity_spec()


def run_workload(workload: str, cfgs, out_dir: Path) -> list:
    """The runner calls a user of ``nlheat inflate|perturb|tables|besov`` makes."""
    from nlheat import experiments
    if workload == "inflate-d1":
        return [experiments.run_inflation(cfgs[0])]
    if workload == "perturb-dym-d3":
        return [experiments.run_perturbed_inflation(cfgs[0])]
    return [experiments.run_tables(cfgs[0], out_dir)] + \
        [experiments.run_besov_convergence(c) for c in cfgs[1:]]


# -- untimed correctness pass, per repetition -----------------------------------

def check_inflate(cfgs, results, spec, out_dir) -> dict:
    import checks
    records = results[0]["records"]
    top = [r for r in records if r["radius"] == checks.INFLATE_TOP]
    log_exponent = float(cfgs[0].experiment["log_exponent"])
    return {
        "attempted": 2 * len(records),
        "failed": checks.solve_failures(records)
        + checks.drift_failures(records, log_exponent),
        "trials": len(records),
        "top_adversarial": [r["adversarial"]["zero_mode_sup"] for r in top],
        "top_control": [r["control"]["zero_mode_sup"] for r in top],
        "top_drift": checks.direct_drift_final(
            checks.INFLATE_TOP, checks.horizon(checks.INFLATE_TOP,
                                               log_exponent)),
    }


def check_perturb(cfgs, results, spec, out_dir) -> dict:
    import numpy as np
    import checks
    from nlheat.field import TorusGrid, dealias_points
    from nlheat.solver import nonlinear_rhs_coeffs
    records = results[0]["records"]
    failed = checks.solve_failures(records)
    failed += sum(not checks.finite(e["distance_median"])
                  for e in results[0]["per_radius"].values())
    # the dym RHS on a low-mode field against the tensors evaluated directly
    cfg = cfgs[0]
    M = 2 * max(cfg.radii()) + 1
    grid = TorusGrid(cfg.dim, M, dealias_points(M, cubic=spec.has_cubic()))
    rng = np.random.default_rng(cfg.seed)
    coeffs = checks.low_mode_coeffs(rng, spec.dim_E, cfg.dim, grid.half_band)
    rhs, _ = nonlinear_rhs_coeffs(coeffs, grid, spec)
    points = rng.uniform(0.0, 2.0 * np.pi, (RHS_CHECK_POINTS, cfg.dim))
    if checks.rhs_defect(spec, rhs, coeffs, points) > checks.RHS_RTOL:
        failed = 2 * len(records)
    return {"attempted": 2 * len(records), "failed": failed,
            "trials": len(records)}


def check_stats(cfgs, results, spec, out_dir) -> dict:
    import checks
    tables, besov = results[0], results[1:]
    moment_trials = 2 * int(cfgs[0].experiment["trials"])
    defect = checks.ez_table_defect(out_dir / "ez_bounds.csv",
                                    checks.tables_t_grid())
    failed = moment_trials if not tables["passed"] \
        or defect > checks.EZ_RTOL else 0
    besov_trials = sum(len(b["records"]) for b in besov)
    radii = [b["radii"] for b in besov]
    return {
        "attempted": moment_trials + besov_trials, "failed": failed,
        "trials": moment_trials + besov_trials,
        "besov_norms": [[[rec["norms"][N] for N in r] for rec in b["records"]]
                        for b, r in zip(besov, radii)],
    }


CHECKS = {"inflate-d1": check_inflate, "perturb-dym-d3": check_perturb,
          "stats-d1": check_stats}


# -- per-layer timing of the nonlinearity ---------------------------------------

def rhs_call_times(cfg, spec) -> dict:
    """Median time of one nonlinear_rhs_coeffs call, B part and P part apart.

    On the grid of the workload's largest radius and its first initial datum
    (trial 0, adversarial arm).
    """
    from nlheat.field import TorusGrid, dealias_points
    from nlheat.nonlinearity import NonlinearitySpec
    from nlheat.sampling import GfsSpec, build_adversarial_pair, stream
    from nlheat.solver import nonlinear_rhs_coeffs
    radius = max(cfg.radii())
    M = 2 * radius + 1
    grid = TorusGrid(cfg.dim, M, dealias_points(M, cubic=spec.has_cubic()))
    nc = spec.dim_E
    a, b = cfg.pair
    X, Y = build_adversarial_pair(
        GfsSpec.uniform(grid, cfg.profile_for(radius), nc), a, b,
        [stream(cfg.seed, 0, c) for c in range(nc)],
        [stream(cfg.seed, 0, nc + c) for c in range(nc)])
    eps = float(cfg.experiment.get("epsilon", 1.0)) \
        if cfg.kind == "perturb" else 1.0
    u0 = eps * (X.coeffs + Y.coeffs)
    parts = {
        "nonlinearity.rhs_B_call_s":
            NonlinearitySpec.from_parts(spec.dim, nc, B=spec.B),
        "nonlinearity.rhs_P_call_s":
            NonlinearitySpec.from_parts(spec.dim, nc, p0=spec.p0, p1=spec.p1,
                                        p2=spec.p2, p3=spec.p3),
    }
    out = {}
    for name, part in parts.items():
        nonlinear_rhs_coeffs(u0, grid, part)          # warm-up
        times, spent = [], 0.0
        while len(times) < RHS_MIN_CALLS or (
                spent < RHS_BUDGET_S and len(times) < RHS_MAX_CALLS):
            t0 = time.perf_counter()
            nonlinear_rhs_coeffs(u0, grid, part)
            times.append(time.perf_counter() - t0)
            spent += times[-1]
        out[name] = statistics.median(times)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true",
                        help="record spans and report per-layer metrics")
    parser.add_argument("--rhs-bench", action="store_true",
                        help="also time nonlinear_rhs_coeffs per part")
    args = parser.parse_args(argv)

    cfgs, spec = setup(args.workload, args.seed)
    report = {"ready": time.monotonic()}
    out_dir = OUT_DIR / args.workload / str(args.seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = probe = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer().install()
    else:
        probe = SpeedProbe()
    with probe or contextlib.nullcontext():
        t0 = time.perf_counter()
        results = run_workload(args.workload, cfgs, out_dir)
        report["wall_s"] = time.perf_counter() - t0
    if probe is not None:
        report["wall_s"] -= probe.spent_s
        report["speed"] = probe.speed
    report["peak_rss_mib"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        from spans import layer_metrics
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.write(TRACE_DIR / f"{args.workload}-{args.seed}.jsonl")
        report["layers"] = layer_metrics(tracer.spans)
    report.update(CHECKS[args.workload](cfgs, results, spec, out_dir))
    if args.rhs_bench:
        report["layers"] = rhs_call_times(cfgs[0], spec)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
