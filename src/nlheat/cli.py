"""Command line front end.

Each subcommand but ``identities`` (``--seed`` only) runs a YAML config
(``--config``) of its own kind, ``inflate`` and ``perturb`` as one;
``--seed``, ``--threads`` and ``--out`` override its entries, and the config
is checked whole before any output exists. Exit status: 0 on success, 1 when
a run's verdict failed, 2 on configuration or usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .experiments import (KINDS, ConfigError, ExperimentConfig,
                          run_besov_convergence, run_inflation, run_tables,
                          trial_data, trial_faults, write_csv, write_records_jsonl)
from .gfsf import write_field
from .identities import run_identity_suite
from .solver import solve


def _load_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig.from_yaml(args.config, **{
        key: getattr(args, key) for key in ("seed", "threads", "out")
        if getattr(args, key) is not None})
    if COMMANDS[cfg.kind] is not COMMANDS[args.command]:
        raise ConfigError(f"nlheat {args.command} cannot run a {cfg.kind!r} config")
    return cfg


def _emit(summary: dict, out_dir: Path) -> None:
    write_records_jsonl(out_dir / "records.jsonl", summary["records"])
    (out_dir / "summary.json").write_text(json.dumps(
        {k: v for k, v in summary.items() if k != "records"}, sort_keys=True,
        indent=2, default=str) + "\n")


def _first_data(cfg: ExperimentConfig):
    """Nonlinearity, first radius and trial 0's X at that radius."""
    nl, radius = cfg.nonlinearity_spec(), cfg.radii()[0]
    return nl, radius, trial_data(cfg, nl, radius, 0)[2]


def cmd_sample(args) -> int:
    cfg = _load_config(args)
    nl, radius, X = _first_data(cfg)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    write_field(out / "sample.gfsf", X)
    print(f"sampled field: dim={cfg.dim} N={radius} components={nl.dim_E} "
          f"reality_defect={X.reality_defect():.3e}")
    return 0


def cmd_solve(args) -> int:
    cfg = _load_config(args)
    nl, radius, u0 = _first_data(cfg)
    traj = solve(u0, nl, cfg.solve_config(radius))
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    if traj.status == "completed":
        write_field(out / "final.gfsf", traj.fields[-1])
    rows = [(t,) + tuple(z) for t, z in
            zip(traj.zero_mode_times, traj.zero_mode_path)]
    write_csv(out / "zero_mode.csv",
              ["t"] + [f"z{c}" for c in range(nl.dim_E)], rows)
    print(f"solve: status={traj.status} steps={traj.steps} "
          f"rejected={traj.rejected} h_min={traj.h_min:.6g} "
          f"zero_mode_sup={traj.zero_mode_sup():.6g}")
    return 0 if traj.status == "completed" else 1


def cmd_inflation(args) -> int:
    """``inflate`` and ``perturb``: one run, one verdict."""
    cfg = _load_config(args)
    summary = run_inflation(cfg)
    out = Path(cfg.out)
    _emit(summary, out)
    per_radius = [(N, summary["per_radius"][N]) for N in summary["radii"]]
    for name, keys in (("inflation.csv", ("adversarial_median", "control_median",
                                          "ratio", "blowups")),
                       ("remainder.csv", ("remainder_median", "drift_final_median"))):
        write_csv(out / name, ["radius", *keys],
                  [(N, *(e[k] for k in keys)) for N, e in per_radius])
    for N, e in per_radius:
        print(f"N={N}: shift adversarial={e['adversarial_shift_median']:.6g} "
              f"control={e['control_shift_median']:.6g} |I_T|="
              f"{e['drift_final_median']:.6g} remainder={e['remainder_median']:.6g}")
    for line in trial_faults(summary):
        print(line)
    for name, ok in summary["verdict"].items():
        print(f"{name}: {'pass' if ok else 'FAIL'}")
    return 0 if all(summary["verdict"].values()) else 1


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


def cmd_tables(args) -> int:
    cfg = _load_config(args)
    summary = run_tables(cfg)
    for flag, ok in sorted(summary["flags"].items()):
        print(f"{flag}: {'pass' if ok else 'FAIL'}")
    return 0 if summary["passed"] else 1


def cmd_identities(args) -> int:
    if args.seed < 0:       # as the config's seed is checked
        raise ConfigError(f"seed must be >= 0, got {args.seed}")
    worst = 0
    for dim in (1, 2, 3):
        for r in run_identity_suite(seed=args.seed, dim=dim):
            print(f"d={dim} {r.name}: defect={r.defect:.3e} tol={r.tol:.0e} "
                  f"[{'pass' if r.passed else 'FAIL'}]")
            worst |= not r.passed
    return 1 if worst else 0


COMMANDS = {
    "sample": cmd_sample,
    "solve": cmd_solve,
    "inflate": cmd_inflation,
    "perturb": cmd_inflation,
    "besov": cmd_besov,
    "tables": cmd_tables,
    "identities": cmd_identities,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlheat",
        description="Norm-inflation experiments for the nonlinear heat "
                    "equation on the torus.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in KINDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True,
                       help="YAML experiment configuration")
        p.add_argument("--seed", type=int, help="override the master seed")
        p.add_argument("--threads", type=int, help="worker process count")
        p.add_argument("--out", help="output directory")
    sub.add_parser("identities").add_argument("--seed", type=int, default=7,
                                              help="master seed")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return COMMANDS[args.command](args)
    except ValueError as exc:      # ConfigError is one
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
