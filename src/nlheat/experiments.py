"""Experiment orchestration: configuration, trials, persistence, reports.

Experiments are fully determined by (config, master seed): every random
draw goes through a counter-based stream keyed on the trial index, so
runs are reproducible trial-by-trial and independent of the parallelism
degree.  Per-trial records are emitted as JSON lines and aggregates as
CSV.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dc_field, replace
import csv
import json
import math
from pathlib import Path

import numpy as np

from .besov import DyadicPartition, besov_norm, holder_norm
from .correlation import (ParameterSet, drift_scalar, geometric_grid,
                          moment_experiment_decorrelated, moment_experiment_Z,
                          verify_EZt_bounds, verify_It_bounds)
from .field import SpectralField, TorusGrid, dealias_points
from .nonlinearity import NonlinearitySpec, asymmetry_witness, drift_direction, preset
from .sampling import GfsSpec, VarianceProfile, build_adversarial_pair, \
    sample_E_valued, sample_real_gfs, stream
from .solver import SolveConfig, remainder_norms, solve


class ConfigError(ValueError):
    """Invalid or unknown experiment configuration."""


def _check_keys(section: dict, allowed, where: str):
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


_PROFILE_KEYS = ("kind", "gamma", "log_theta", "loglog_eta", "k0", "floor")
_SOLVER_KEYS = ("scheme", "step_factor", "blowup_threshold", "snapshots")
_EXPERIMENT_KEYS = ("radii", "trials", "log_exponent", "epsilon", "base",
                    "reference_radius", "q", "alpha", "t_min", "t_max",
                    "per_decade", "pair_kind", "axis", "remove_mean")
_PARAM_KEYS = ("delta", "beta", "eta")
_TOP_KEYS = ("kind", "seed", "out", "threads", "grid", "profile",
             "nonlinearity", "pair", "solver", "experiment", "params")

KINDS = ("sample", "solve", "inflate", "perturb", "besov", "remainder", "tables")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, immutable view of one experiment document."""

    kind: str
    seed: int
    dim: int = 1
    out: str = "out"
    threads: int = 1
    profile: dict = dc_field(default_factory=dict)
    nonlinearity: dict = dc_field(default_factory=dict)
    pair: tuple = (0, 1)
    solver: dict = dc_field(default_factory=dict)
    experiment: dict = dc_field(default_factory=dict)
    params: dict = dc_field(default_factory=dict)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config document must be a mapping")
        _check_keys(doc, _TOP_KEYS, "top level")
        if "kind" not in doc or doc["kind"] not in KINDS:
            raise ConfigError(f"kind must be one of {KINDS}")
        if "seed" not in doc:
            raise ConfigError("seed is mandatory (no entropy defaults)")
        grid = doc.get("grid", {})
        _check_keys(grid, ("dim",), "grid")
        profile = dict(doc.get("profile", {"kind": "white"}))
        _check_keys(profile, _PROFILE_KEYS, "profile")
        nl = dict(doc.get("nonlinearity", {"preset": "antisym2"}))
        _check_keys(nl, ("preset", "algebra"), "nonlinearity")
        pair = doc.get("pair", {})
        _check_keys(pair, ("a", "b"), "pair")
        solver = dict(doc.get("solver", {}))
        _check_keys(solver, _SOLVER_KEYS, "solver")
        exp = dict(doc.get("experiment", {}))
        _check_keys(exp, _EXPERIMENT_KEYS, "experiment")
        params = dict(doc.get("params", {}))
        _check_keys(params, _PARAM_KEYS, "params")
        return cls(kind=doc["kind"], seed=int(doc["seed"]),
                   dim=int(grid.get("dim", 1)), out=str(doc.get("out", "out")),
                   threads=int(doc.get("threads", 1)), profile=profile,
                   nonlinearity=nl,
                   pair=(int(pair.get("a", 0)), int(pair.get("b", 1))),
                   solver=solver, experiment=exp, params=params)

    @classmethod
    def from_yaml(cls, path) -> "ExperimentConfig":
        import yaml
        with open(path) as fh:
            return cls.from_dict(yaml.safe_load(fh))

    # -- derived objects -----------------------------------------------------

    def profile_for(self, radius: int) -> VarianceProfile:
        p = self.profile
        kind = p.get("kind", "white")
        if kind == "white":
            return VarianceProfile.white(radius)
        if kind == "power":
            return VarianceProfile.power(radius, float(p.get("gamma", 1 - self.dim)))
        if kind == "powerlog":
            return VarianceProfile.power_log(
                self.dim, radius, float(p.get("log_theta", -1.0)),
                float(p.get("loglog_eta", -1.0)), float(p.get("k0", 3.0)),
                float(p.get("floor", 1.0)))
        raise ConfigError(f"unknown profile kind {kind!r}")

    def nonlinearity_spec(self) -> NonlinearitySpec:
        return preset(self.nonlinearity.get("preset", "antisym2"), self.dim,
                      self.nonlinearity.get("algebra", "so3"))

    def parameter_set(self) -> ParameterSet:
        if self.params:
            ps = ParameterSet(float(self.params.get("delta", 0.875)),
                              float(self.params.get("beta", -0.5)),
                              float(self.params.get("eta", -0.55)))
            ps.check_dim(self.dim)
            return ps
        return ParameterSet.default(self.dim)

    def radii(self) -> list:
        radii = self.experiment.get("radii", [])
        if not radii:
            raise ConfigError("experiment.radii must be a non-empty list")
        return [int(N) for N in radii]

    def trials(self) -> int:
        return int(self.experiment.get("trials", 50))

    def horizon(self, radius: int) -> float:
        M = float(self.experiment.get("log_exponent", 4))
        return math.log(radius) ** (-M)

    def solve_config(self, radius: int) -> SolveConfig:
        T = self.horizon(radius)
        factor = float(self.solver.get("step_factor", 0.5))
        steps = max(1, int(math.ceil(T * radius ** 2 / factor)))
        nsnap = int(self.solver.get("snapshots", 12))
        snaps = tuple(np.geomspace(T / 64.0, T, nsnap))
        return SolveConfig(
            t_end=T, steps=steps,
            scheme=self.solver.get("scheme", "etd-rk2"),
            blowup_threshold=float(self.solver.get("blowup_threshold", 1e8)),
            snapshot_times=snaps)


# -- trial workers (top level for process pools) -------------------------------

def _trial_grid(cfg: ExperimentConfig, radius: int,
                nl: NonlinearitySpec) -> TorusGrid:
    M = 2 * radius + 1
    return TorusGrid(cfg.dim, M, dealias_points(M, nl.has_cubic(), cfg.dim))


def _inflation_trial(args):
    """One (radius, trial) of the inflation experiment, both arms."""
    cfg, radius, trial, base_coeffs, epsilon = args
    nl = cfg.nonlinearity_spec()
    a, b = cfg.pair
    grid = _trial_grid(cfg, radius, nl)
    prof = cfg.profile_for(radius)
    spec = GfsSpec.uniform(grid, prof, nl.dim_E)
    nc = nl.dim_E

    def xs():
        return [stream(cfg.seed, trial, c) for c in range(nc)]

    def ys():
        return [stream(cfg.seed, trial, nc + c) for c in range(nc)]

    X, Y_adv = build_adversarial_pair(spec, a, b, xs(), ys())
    Y_ctl = sample_E_valued(spec, ys())

    params = cfg.parameter_set()
    solve_cfg = cfg.solve_config(radius)
    direction = drift_direction(nl, a, b)
    partition = DyadicPartition()

    def drift(t):
        # quadratic in the Gaussian part, which the data scale by epsilon
        return epsilon ** 2 * drift_scalar(prof, cfg.dim, t, radius=radius) * direction

    out = {"trial": trial, "radius": radius, "seed": cfg.seed}
    for arm, Y in (("adversarial", Y_adv), ("control", Y_ctl)):
        u0 = SpectralField(grid, base_coeffs + epsilon * (X.coeffs + Y.coeffs)) \
            if base_coeffs is not None else \
            SpectralField(grid, epsilon * (X.coeffs + Y.coeffs))
        traj = solve(u0, nl, solve_cfg)
        rec = {
            "status": traj.status,
            "zero_mode_sup": traj.zero_mode_sup(),
            "u0_holder_eta": holder_norm(u0, params.eta, partition),
        }
        if arm == "adversarial" and traj.status == "completed":
            norms = remainder_norms(traj, u0, drift, params.beta_hat, partition)
            rec["remainder_sup"] = float(np.max(norms))
            rec["drift_final"] = float(np.linalg.norm(drift(solve_cfg.t_end)))
        out[arm] = rec
    out["x_checksum"] = float(np.sum(np.abs(X.coeffs)))
    return out


def _besov_trial(args):
    """One trial of the truncation-convergence experiment."""
    cfg, trial = args
    ref = int(cfg.experiment.get("reference_radius", 2048))
    radii = cfg.radii()
    alpha = float(cfg.experiment.get("alpha", -0.5))
    q = cfg.experiment.get("q", "inf")
    q = math.inf if q in ("inf", math.inf, None) else float(q)
    grid = TorusGrid(cfg.dim, 2 * ref + 1, 2 * ref + 2)
    prof = cfg.profile_for(ref)
    X = sample_real_gfs(prof, grid, stream(cfg.seed, trial, 0))
    out = {"trial": trial, "norms": {}}
    for N in radii:
        mask = grid.k_squared > N * N + 1e-9
        diff = SpectralField(grid, np.where(mask, X.coeffs, 0.0))
        out["norms"][N] = besov_norm(diff, alpha, math.inf, q)
    return out


def _map_trials(worker, tasks, threads: int) -> list:
    if threads <= 1 or len(tasks) <= 1:
        return [worker(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, tasks))


# -- experiment drivers --------------------------------------------------------

def run_inflation(cfg: ExperimentConfig, base_coeffs=None,
                  epsilon: float = 1.0) -> dict:
    """Adversarial-vs-control zero-mode growth across the cutoff list.

    Returns per-radius blow-up counts and medians over completed trials for
    both arms, the adversarial remainder statistics, and all trial records.
    """
    nl = cfg.nonlinearity_spec()
    if asymmetry_witness(nl) is None:
        raise ConfigError("nonlinearity has symmetric B: no asymmetry witness")
    records = []
    for radius in cfg.radii():
        tasks = [(cfg, radius, t, base_coeffs, epsilon)
                 for t in range(cfg.trials())]
        records.extend(_map_trials(_inflation_trial, tasks, cfg.threads))
    records.sort(key=lambda r: (r["radius"], r["trial"]))

    summary = {"kind": cfg.kind, "radii": cfg.radii(), "per_radius": {}}
    for radius in cfg.radii():
        rows = [r for r in records if r["radius"] == radius]
        def med(arm, key):      # NaN, without a warning, when none completed
            vals = [r[arm][key] for r in rows if r[arm]["status"] == "completed"]
            return float(np.median(vals)) if vals else math.nan
        entry = {
            "adversarial_median": med("adversarial", "zero_mode_sup"),
            "control_median": med("control", "zero_mode_sup"),
            "remainder_median": med("adversarial", "remainder_sup"),
            "drift_final_median": med("adversarial", "drift_final"),
            "blowups": sum(r["adversarial"]["status"] != "completed" for r in rows),
            "control_blowups": sum(r["control"]["status"] != "completed" for r in rows),
        }
        entry["ratio"] = entry["adversarial_median"] / entry["control_median"]
        summary["per_radius"][radius] = entry
    summary["records"] = records
    return summary


def run_perturbed_inflation(cfg: ExperimentConfig) -> dict:
    """Inflation around a smooth base point x with u0 = x + eps (X + Y)."""
    eps = float(cfg.experiment.get("epsilon", 1.0))
    base = cfg.experiment.get("base", "zero")
    nl = cfg.nonlinearity_spec()
    summary = {"kind": "perturb", "epsilon": eps, "radii": cfg.radii(),
               "per_radius": {}}
    for radius in cfg.radii():
        grid = _trial_grid(cfg, radius, nl)
        if base == "zero":
            base_field = SpectralField.zero(grid, nl.dim_E)
        elif isinstance(base, (list, tuple)):
            base_field = SpectralField.constant(grid, np.asarray(base, float))
        else:
            raise ConfigError("experiment.base must be 'zero' or a vector")
        sub = replace(cfg, experiment={**cfg.experiment, "radii": [radius]})
        res = run_inflation(sub, base_field.coeffs, eps)
        entry = res["per_radius"][radius]
        dists = [r["adversarial"]["u0_holder_eta"] for r in res["records"]]
        entry["distance_median"] = float(np.median(dists))
        summary["per_radius"][radius] = entry
        summary.setdefault("records", []).extend(res["records"])
    return summary


def run_besov_convergence(cfg: ExperimentConfig) -> dict:
    """Cauchy norms |X^N - X^{N_ref}| across N; medians and verdict."""
    tasks = [(cfg, t) for t in range(cfg.trials())]
    records = _map_trials(_besov_trial, tasks, cfg.threads)
    records.sort(key=lambda r: r["trial"])
    radii = cfg.radii()
    medians = {N: float(np.median([r["norms"][N] for r in records]))
               for N in radii}
    vals = [medians[N] for N in radii]
    summary = {
        "kind": "besov", "radii": radii, "medians": medians,
        "decreasing": all(b < a for a, b in zip(vals, vals[1:])),
        "spread": max(vals) / min(vals),
        "records": records,
    }
    return summary


def run_remainder_tracking(cfg: ExperimentConfig) -> dict:
    """Remainder-flat / drift-growing summary from the inflation run."""
    res = run_inflation(cfg)
    rem = [res["per_radius"][N]["remainder_median"] for N in cfg.radii()]
    drift = [res["per_radius"][N]["drift_final_median"] for N in cfg.radii()]
    res["remainder_spread"] = float(np.max(rem) / np.min(rem))   # NaN if any is
    res["drift_growing"] = all(b > a for a, b in zip(drift, drift[1:]))
    return res


# -- tables harness ------------------------------------------------------------

def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def write_csv(path, header, rows) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(x) for x in row])


def run_tables(cfg: ExperimentConfig, out_dir=None) -> dict:
    """All bound-verification tables in one deterministic report.

    Writes ez_bounds.csv, it_bounds.csv, moments.csv, partition.csv under
    the output directory and returns the pass/fail flags.
    """
    out = Path(out_dir or cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    exp = cfg.experiment
    radii = [int(N) for N in exp.get("radii", [16, 32])]
    t_grid = geometric_grid(float(exp.get("t_max", 1e-1)),
                            float(exp.get("t_min", 1e-4)),
                            int(exp.get("per_decade", 40)))
    dim = cfg.dim
    prof_for = cfg.profile_for
    log_corrected = cfg.profile.get("kind") == "powerlog"

    ez = verify_EZt_bounds(prof_for, dim, radii, t_grid,
                           log_corrected=log_corrected)
    write_csv(out / "ez_bounds.csv", ["radius", "upper_ratio", "lower_ratio"],
              list(ez.rows()))

    nl = cfg.nonlinearity_spec()
    a, b = cfg.pair
    direction = drift_direction(nl, a, b)
    it = verify_It_bounds(prof_for, dim, direction, radii, t_grid)
    it_rows = list(it.rows())
    write_csv(out / "it_bounds.csv", ["radius", "upper_ratio", "lower_ratio"],
              it_rows)
    int_rows = [(f"a={abp[0]},b={abp[1]},p={abp[2]}", N, r)
                for abp, d in it.integral_ratio.items()
                for N, r in sorted(d.items())]
    write_csv(out / "it_integral.csv", ["exponents", "radius", "ratio"],
              int_rows)

    params = cfg.parameter_set()
    m_radii = [int(N) for N in exp.get("radii", [16, 32])]
    trials = int(exp.get("trials", 20))
    dec = moment_experiment_decorrelated(
        prof_for, dim, "adversarial", params, 0, trials, m_radii, cfg.seed)
    zexp = moment_experiment_Z(prof_for, dim, params, trials, m_radii, cfg.seed)
    mom_rows = [("decorrelated", N, dec.means[N], dec.q90[N]) for N in dec.radii]
    mom_rows += [("z_centred", N, zexp.means[N], zexp.q90[N]) for N in zexp.radii]
    mom_rows += [("decorrelated_slope", "", dec.slope, ""),
                 ("z_centred_slope", "", zexp.slope, "")]
    write_csv(out / "moments.csv", ["statistic", "radius", "mean", "q90"],
              mom_rows)

    part = DyadicPartition()
    grid = TorusGrid(min(dim, 2), 33, 34)
    mult = part.multipliers(grid)
    partition_defect = float(np.max(np.abs(mult.sum(axis=0) - 1.0)))
    write_csv(out / "partition.csv", ["check", "value"],
              [("partition_of_unity_defect", partition_defect)])

    flags = {
        "ez_bounds": ez.passed,
        "it_bounds": it.passed,
        "moments_flat": abs(dec.slope) < 0.2 and abs(zexp.slope) < 0.2,
        "partition": partition_defect < 1e-10,
    }
    write_csv(out / "flags.csv", ["flag", "passed"],
              sorted(flags.items()))
    return {"kind": "tables", "flags": flags, "passed": all(flags.values()),
            "out": str(out)}


def write_records_jsonl(path, records) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
