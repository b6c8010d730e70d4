"""Command line front end.

Every subcommand is driven by a YAML config (``--config``); ``--seed``,
``--threads`` and ``--out`` override the corresponding config entries.
Exit status: 0 on success, 1 when an experiment ran but its verdict
failed, 2 on configuration or usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from .experiments import (ConfigError, ExperimentConfig, _trial_grid,
                          run_besov_convergence, run_inflation,
                          run_perturbed_inflation, run_remainder_tracking,
                          run_tables, write_csv, write_records_jsonl)
from .gfsf import write_field
from .identities import run_identity_suite
from .sampling import GfsSpec, sample_E_valued, stream
from .solver import solve


def _load_config(args) -> ExperimentConfig:
    if args.config:
        cfg = ExperimentConfig.from_yaml(args.config)
    else:
        raise ConfigError("--config is required for this command")
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.threads is not None:
        overrides["threads"] = args.threads
    if args.out is not None:
        overrides["out"] = args.out
    return replace(cfg, **overrides) if overrides else cfg


def _strip_records(summary: dict) -> dict:
    return {k: v for k, v in summary.items() if k != "records"}


def _emit(summary: dict, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    if "records" in summary:
        write_records_jsonl(out_dir / "records.jsonl", summary["records"])
    (out_dir / "summary.json").write_text(
        json.dumps(_strip_records(summary), sort_keys=True, indent=2,
                   default=str) + "\n")


def _trials_sound(summary: dict) -> bool:
    """Say at which radius a median is not finite or more than half of the
    trials of an arm blew up; True when neither happens at any radius."""
    ok = True
    for N, e in summary["per_radius"].items():
        a, c = e["blowups"], e["control_blowups"]
        if not all(math.isfinite(v) for k, v in e.items() if k.endswith("median")):
            print(f"N={N}: non-finite median ({a} adversarial and "
                  f"{c} control trials blew up)")
            ok = False
        n = sum(r["radius"] == N for r in summary["records"])
        if 2 * max(a, c) > n:
            print(f"N={N}: {a} of {n} adversarial and {c} of {n} control "
                  f"trials blew up")
            ok = False
    return ok


def cmd_sample(args) -> int:
    cfg = _load_config(args)
    nl = cfg.nonlinearity_spec()
    radius = cfg.radii()[0]
    grid = _trial_grid(cfg, radius, nl)
    spec = GfsSpec.uniform(grid, cfg.profile_for(radius), nl.dim_E)
    rngs = [stream(cfg.seed, 0, c) for c in range(nl.dim_E)]
    X = sample_E_valued(spec, rngs)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    write_field(out / "sample.gfsf", X)
    print(f"sampled field: dim={cfg.dim} N={radius} components={nl.dim_E} "
          f"reality_defect={X.reality_defect():.3e}")
    return 0


def cmd_solve(args) -> int:
    cfg = _load_config(args)
    nl = cfg.nonlinearity_spec()
    radius = cfg.radii()[0]
    grid = _trial_grid(cfg, radius, nl)
    spec = GfsSpec.uniform(grid, cfg.profile_for(radius), nl.dim_E)
    rngs = [stream(cfg.seed, 0, c) for c in range(nl.dim_E)]
    u0 = sample_E_valued(spec, rngs)
    traj = solve(u0, nl, cfg.solve_config(radius))
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    if traj.status == "completed":
        write_field(out / "final.gfsf", traj.fields[-1])
    rows = [(t,) + tuple(z) for t, z in
            zip(traj.zero_mode_times, traj.zero_mode_path)]
    write_csv(out / "zero_mode.csv",
              ["t"] + [f"z{c}" for c in range(nl.dim_E)], rows)
    print(f"solve: status={traj.status} steps={len(traj.zero_mode_times) - 1} "
          f"zero_mode_sup={traj.zero_mode_sup():.6g}")
    return 0 if traj.status == "completed" else 1


def cmd_inflate(args) -> int:
    cfg = _load_config(args)
    summary = run_inflation(cfg)
    out = Path(cfg.out)
    _emit(summary, out)
    radii = summary["radii"]
    rows, adv = [], []
    for N in radii:
        e = summary["per_radius"][N]
        rows.append((N, e["adversarial_median"], e["control_median"],
                     e["ratio"], e["blowups"]))
        adv.append(e["adversarial_median"])
        print(f"N={N}: adversarial={e['adversarial_median']:.6g} "
              f"control={e['control_median']:.6g} ratio={e['ratio']:.3g}")
    write_csv(out / "inflation.csv",
              ["radius", "adversarial_median", "control_median", "ratio",
               "blowups"], rows)
    increasing = all(b > a for a, b in zip(adv, adv[1:]))
    print(f"adversarial medians increasing: {increasing}")
    return 0 if _trials_sound(summary) and increasing else 1


def cmd_perturb(args) -> int:
    cfg = _load_config(args)
    summary = run_perturbed_inflation(cfg)
    out = Path(cfg.out)
    _emit(summary, out)
    adv = []
    for N in summary["radii"]:
        e = summary["per_radius"][N]
        adv.append(e["adversarial_median"])
        print(f"N={N}: adversarial={e['adversarial_median']:.6g} "
              f"distance={e['distance_median']:.6g}")
    increasing = all(b > a for a, b in zip(adv, adv[1:]))
    return 0 if _trials_sound(summary) and increasing else 1


def cmd_besov(args) -> int:
    cfg = _load_config(args)
    summary = run_besov_convergence(cfg)
    out = Path(cfg.out)
    _emit(summary, out)
    write_csv(out / "besov.csv", ["radius", "median_norm"],
              [(N, summary["medians"][N]) for N in summary["radii"]])
    for N in summary["radii"]:
        print(f"N={N}: median cauchy norm={summary['medians'][N]:.6g}")
    print(f"decreasing: {summary['decreasing']}")
    return 0 if summary["decreasing"] else 1


def cmd_remainder(args) -> int:
    cfg = _load_config(args)
    summary = run_remainder_tracking(cfg)
    out = Path(cfg.out)
    _emit(summary, out)
    rows = []
    for N in summary["radii"]:
        e = summary["per_radius"][N]
        rows.append((N, e["remainder_median"], e["drift_final_median"]))
        print(f"N={N}: remainder={e['remainder_median']:.6g} "
              f"|I_T|={e['drift_final_median']:.6g}")
    write_csv(out / "remainder.csv",
              ["radius", "remainder_median", "drift_final_median"], rows)
    ok = summary["remainder_spread"] < 1.5 and summary["drift_growing"]
    print(f"remainder spread={summary['remainder_spread']:.3g} "
          f"drift growing={summary['drift_growing']}")
    return 0 if _trials_sound(summary) and ok else 1


def cmd_tables(args) -> int:
    cfg = _load_config(args)
    summary = run_tables(cfg)
    for flag, ok in sorted(summary["flags"].items()):
        print(f"{flag}: {'pass' if ok else 'FAIL'}")
    return 0 if summary["passed"] else 1


def cmd_identities(args) -> int:
    seed = args.seed if args.seed is not None else 7
    results = run_identity_suite(seed=seed)
    worst = 0
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.name}: defect={r.defect:.3e} tol={r.tol:.0e} [{status}]")
        worst |= not r.passed
    return 1 if worst else 0


COMMANDS = {
    "sample": cmd_sample,
    "solve": cmd_solve,
    "inflate": cmd_inflate,
    "perturb": cmd_perturb,
    "besov": cmd_besov,
    "remainder": cmd_remainder,
    "tables": cmd_tables,
    "identities": cmd_identities,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlheat",
        description="Norm-inflation experiments for the nonlinear heat "
                    "equation on the torus.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="YAML experiment configuration")
        p.add_argument("--seed", type=int, help="override the master seed")
        p.add_argument("--threads", type=int, help="worker process count")
        p.add_argument("--out", help="output directory")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return COMMANDS[args.command](args)
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
