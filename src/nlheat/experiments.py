"""Experiment orchestration: configuration, trials, persistence, reports.

Experiments are fully determined by (config, master seed): every random
draw goes through a counter-based stream keyed on the trial index, so
runs are reproducible trial-by-trial and independent of the parallelism
degree.  Per-trial records are emitted as JSON lines and aggregates as
CSV.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
import csv
import json
import math
from pathlib import Path

import numpy as np

from .besov import DyadicPartition, besov_norms
from .correlation import (ParameterSet, drift_scalar, geometric_grid,
                          moment_experiment_decorrelated, moment_experiment_Z,
                          verify_EZt_bounds, verify_It_bounds)
from .field import SpectralField, TorusGrid, dealias_points
from .nonlinearity import NonlinearitySpec, asymmetry_witness, drift_direction, preset
from .sampling import GfsSpec, VarianceProfile, rotated_copy, sample_E_valued, \
    sample_real_gfs, stream
from .solver import SolveConfig, remainder_norms, solve


class ConfigError(ValueError):
    """Invalid or unknown experiment configuration."""


def _check_keys(section: dict, allowed, where: str) -> dict:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a mapping, got {section!r}")
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    return section


def _typed(where: str, value, kind: type):
    """``value`` as a ``kind`` (a list: of ints). A str is kept for the load
    check that reads it, and a null solver.tol selects fixed steps."""
    if kind is str or (value is None and where == "solver.tol"):
        return value
    try:
        return [int(v) for v in value] if kind is list else kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{where} must be {kind.__name__}, got {value!r}") from None


SOLVER_TOL = 1.5e-2     # default solver.tol (null: fixed steps); README says why

#: each section of a config document, its keys and their defaults, which
#: from_dict fills in, each value of its default's type; ``radii`` must be
#: given. ``profile`` keeps the keys given: ``sampling.PROFILES`` holds the rest.
SECTIONS = {
    "grid": {"dim": 1},
    "nonlinearity": {"preset": "antisym2", "algebra": "so3"},
    "pair": {"a": 0, "b": 1},
    "solver": {"tol": SOLVER_TOL, "step_factor": 0.5,
               "blowup_threshold": SolveConfig.blowup_threshold,
               "snapshots": 12},
    "experiment": {"radii": [], "trials": 50, "log_exponent": 4.0,
                   "epsilon": 1.0, "base": "zero", "reference_radius": 2048,
                   "alpha": -0.5, "q": math.inf, "t_min": 1e-4,
                   "t_max": 1e-1, "per_decade": 40},
    "params": {f.name: f.default for f in fields(ParameterSet)},
}
KINDS = ("sample", "solve", "inflate", "perturb", "besov", "tables")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, immutable view of one experiment document: ``from_dict``
    is the one place that checks a run's inputs."""

    kind: str
    seed: int
    dim: int
    out: str
    threads: int
    profile: dict
    nonlinearity: dict
    pair: tuple
    solver: dict
    experiment: dict
    params: dict

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        _check_keys(doc, ("kind", "seed", "out", "threads", "profile",
                          *SECTIONS), "config document")
        if doc.get("kind") not in KINDS:
            raise ConfigError(f"kind must be one of {KINDS}")
        sec = {}
        for name, defaults in SECTIONS.items():
            given = _check_keys(doc.get(name, {}), defaults, name)
            sec[name] = {key: _typed(f"{name}.{key}", given.get(key, default),
                                     type(default))
                         for key, default in defaults.items()}
        # the seed is mandatory: no run draws on entropy
        seed = _typed("seed", doc.get("seed"), int)
        threads = _typed("threads", doc.get("threads", 1), int)
        exp, radii = sec["experiment"], sec["experiment"]["radii"] or [0]
        solver = sec["solver"]
        for where, value, ok, need in (
                ("seed", seed, seed >= 0, ">= 0"),
                ("threads", threads, threads >= 1, ">= 1"),
                ("grid.dim", sec["grid"]["dim"], sec["grid"]["dim"] >= 1, ">= 1"),
                ("experiment.radii", exp["radii"],
                 min(radii) >= 2 and _increasing(radii),
                 "a non-empty, strictly increasing list of radii >= 2"),
                ("experiment.trials", exp["trials"], exp["trials"] >= 1, ">= 1"),
                ("experiment.q", exp["q"], exp["q"] >= 1, ">= 1"),
                ("solver.step_factor", solver["step_factor"],
                 solver["step_factor"] > 0, "> 0"),
                ("solver.tol", solver["tol"],
                 solver["tol"] is None or solver["tol"] > 0, "> 0 or null"),
                ("solver.blowup_threshold", solver["blowup_threshold"],
                 solver["blowup_threshold"] > 0, "> 0"),
                ("solver.snapshots", solver["snapshots"], solver["snapshots"] >= 0,
                 ">= 0"),
                ("experiment.t_min", exp["t_min"], 0 < exp["t_min"] < exp["t_max"],
                 f"> 0 and < experiment.t_max = {exp['t_max']!r}"),
                ("experiment.reference_radius", exp["reference_radius"],
                 doc["kind"] != "besov" or max(radii) < exp["reference_radius"],
                 "above every besov radius")):
            if not ok:
                raise ConfigError(f"{where} must be {need}, got {value!r}")
        dim, pair = sec.pop("grid")["dim"], tuple(sec.pop("pair").values())
        profile = doc.get("profile", {})
        if not isinstance(profile, dict):
            raise ConfigError(f"profile must be a mapping, got {profile!r}")
        profile = {"kind": "white", **{
            key: v if key == "kind" else _typed(f"profile.{key}", v, float)
            for key, v in profile.items()}}
        cfg = cls(kind=doc["kind"], seed=seed, dim=dim,
                  out=str(doc.get("out", "out")), threads=threads,
                  profile=profile, pair=pair, **sec)

        def built(where, build):
            try:
                return build()
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{where}: {exc}") from None

        # every object a run derives, built once so that a bad value fails here
        nl = built("nonlinearity", cfg.nonlinearity_spec)
        built("params", cfg.parameter_set)
        built("profile", lambda: cfg.profile_for(radii[-1]))
        built("pair", lambda: drift_direction(nl, *pair))
        built("experiment.base", lambda: cfg.base_point(nl.dim_E))
        if cfg.kind in ("inflate", "perturb") and asymmetry_witness(nl) is None:
            raise ConfigError("nonlinearity has symmetric B: no asymmetry witness")
        return cfg

    @classmethod
    def from_yaml(cls, path, **overrides) -> "ExperimentConfig":
        """The YAML document at ``path``, its top-level entries replaced by
        ``overrides`` before any check, so that both are checked alike."""
        import yaml
        with open(path) as fh:
            doc = yaml.safe_load(fh)
        return cls.from_dict({**doc, **overrides} if isinstance(doc, dict) else doc)

    # -- derived objects -----------------------------------------------------

    def profile_for(self, radius: int) -> VarianceProfile:
        return VarianceProfile.of_kind(dim=self.dim, cutoff=radius, **self.profile)

    def base_point(self, dim_E: int) -> np.ndarray:
        """``experiment.base`` as a vector in E; ``zero`` is the origin."""
        base = self.experiment["base"]
        x = np.zeros(dim_E) if base == "zero" else np.asarray(base, float)
        if x.shape != (dim_E,) or not np.all(np.isfinite(x)):
            raise ValueError(f"must be zero or {dim_E} finite numbers: {base!r}")
        return x

    def nonlinearity_spec(self) -> NonlinearitySpec:
        return preset(self.nonlinearity["preset"], self.dim,
                      self.nonlinearity["algebra"])

    def parameter_set(self) -> ParameterSet:
        return ParameterSet(**self.params).check_dim(self.dim)

    def radii(self) -> list:
        return list(self.experiment["radii"])

    def horizon(self, radius: int) -> float:
        return math.log(radius) ** -self.experiment["log_exponent"]

    def solve_config(self, radius: int) -> SolveConfig:
        T, solver = self.horizon(radius), self.solver
        steps = max(1, int(math.ceil(T * radius ** 2 / solver["step_factor"])))
        snaps = tuple(np.geomspace(T / 64.0, T, solver["snapshots"]))
        return SolveConfig(t_end=T, steps=steps,
                           blowup_threshold=solver["blowup_threshold"],
                           snapshot_times=snaps, tol=solver["tol"])


# -- trial workers (top level for process pools) -------------------------------

def _trial_grid(cfg: ExperimentConfig, radius: int,
                nl: NonlinearitySpec) -> TorusGrid:
    M = 2 * radius + 1
    return TorusGrid(cfg.dim, M, dealias_points(M, nl.has_cubic(), cfg.dim))


def trial_data(cfg: ExperimentConfig, nl: NonlinearitySpec, radius: int,
               trial: int):
    """Grid, variance profile, X and the adversarial and control Y of one
    (radius, trial): X on streams 0..nc-1 and the control Y on nc..2nc-1,
    each drawn once; the adversarial Y is the control with Y^b := R X^a."""
    grid = _trial_grid(cfg, radius, nl)
    prof = cfg.profile_for(radius)
    spec, nc = GfsSpec.uniform(grid, prof, nl.dim_E), nl.dim_E
    X, Y = (sample_E_valued(spec, [stream(cfg.seed, trial, first + c) for c in range(nc)])
            for first in (0, nc))
    return grid, prof, X, rotated_copy(X, Y, *cfg.pair), Y


def _inflation_trial(args):
    """One (radius, trial) of the inflation experiment, both arms.

    The data are u0 = x + eps (X + Y), with eps = ``experiment.epsilon``
    (default 1) and the constant x = ``experiment.base`` (default 0).
    ``u0_holder_eta`` is the distance |u0 - x|_{C^eta} = |eps (X + Y)|_{C^eta};
    ``steps``, ``rejected``, ``h_min`` and ``sup_max`` are the solve's
    accepted and refused steps, smallest step size and largest finite sup|u|.
    """
    cfg, radius, trial = args
    nl = cfg.nonlinearity_spec()
    grid, prof, X, Y_adv, Y_ctl = trial_data(cfg, nl, radius, trial)
    epsilon, params = cfg.experiment["epsilon"], cfg.parameter_set()
    x = SpectralField.constant(grid, cfg.base_point(nl.dim_E))
    solve_cfg = cfg.solve_config(radius)
    direction = drift_direction(nl, *cfg.pair)

    def drift(t):
        # quadratic in the Gaussian part, which the data scale by epsilon
        return epsilon ** 2 * drift_scalar(prof, cfg.dim, t, radius=radius) * direction

    out = {"trial": trial, "radius": radius, "seed": cfg.seed}
    perts = epsilon * (X.coeffs + np.stack([Y_adv.coeffs, Y_ctl.coeffs]))
    distances = besov_norms(perts, grid, params.eta)
    for arm, coeffs, distance in zip(("adversarial", "control"), perts, distances):
        pert = SpectralField(grid, coeffs)
        u0 = x + pert
        traj = solve(u0, nl, solve_cfg)
        rec = {
            "status": traj.status,
            "zero_mode_sup": traj.zero_mode_sup(),
            "zero_mode_shift": traj.zero_mode_shift(),
            "u0_holder_eta": float(distance),
            "steps": traj.steps,
            "rejected": traj.rejected,
            "h_min": traj.h_min,
            "sup_max": traj.sup_max,
        }
        if arm == "adversarial" and traj.status == "completed":
            norms = remainder_norms(traj, u0, drift, params.beta_hat)
            rec["remainder_sup"] = float(np.max(norms))
            rec["drift_final"] = float(np.linalg.norm(drift(solve_cfg.t_end)))
        out[arm] = rec
    out["x_checksum"] = float(np.sum(np.abs(X.coeffs)))
    return out


def _besov_trial(args):
    """One trial of the truncation-convergence experiment: the B^alpha_{inf,q}
    norms of the tails X - X^N of one X, one stack over the radii N."""
    cfg, trial = args
    exp, radii = cfg.experiment, cfg.radii()
    ref = exp["reference_radius"]
    grid = TorusGrid(cfg.dim, 2 * ref + 1, 2 * ref + 2)
    X = sample_real_gfs(cfg.profile_for(ref), grid, stream(cfg.seed, trial, 0))
    tails = np.stack([np.where(grid.k_squared > N * N + 1e-9, X.coeffs, 0.0)
                      for N in radii])
    norms = besov_norms(tails, grid, exp["alpha"], exp["q"])
    return {"trial": trial, "norms": dict(zip(radii, map(float, norms)))}


def _moment_trend(args):
    """One moment trend of ``run_tables``: ``experiment`` on the config."""
    experiment, cfg, radii, trials = args
    return experiment(cfg.profile_for, cfg.dim, cfg.parameter_set(), trials, radii,
                      cfg.seed)


def _map_trials(worker, tasks, threads: int) -> list:
    """``worker`` over ``tasks``, in task order, in at most ``threads``
    processes and never more than there are tasks."""
    if threads <= 1 or len(tasks) <= 1:
        return [worker(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=min(threads, len(tasks))) as pool:
        return list(pool.map(worker, tasks))


# -- experiment drivers --------------------------------------------------------

def run_inflation(cfg: ExperimentConfig) -> dict:
    """Adversarial-vs-control zero-mode growth across the cutoff list, the
    one runner of ``inflate`` and ``perturb``.

    Per radius: trial and blow-up counts, medians over completed trials
    (and, for ``distance_median``, over all trials). Then the remainder
    spread, whether |I_T| grows, the ``inflation_verdict`` and the records.
    """
    radii = cfg.radii()
    tasks = [(cfg, N, t) for N in radii for t in range(cfg.experiment["trials"])]
    records = _map_trials(_inflation_trial, tasks, cfg.threads)

    summary = {"kind": cfg.kind, "epsilon": cfg.experiment["epsilon"], "radii": radii,
               "per_radius": {}}
    for radius in radii:
        rows = [r for r in records if r["radius"] == radius]
        def med(arm, key):      # NaN when none completed
            return _median([r[arm][key] for r in rows if r[arm]["status"] == "completed"])
        entry = {
            "adversarial_median": med("adversarial", "zero_mode_sup"),
            "control_median": med("control", "zero_mode_sup"),
            "adversarial_shift_median": med("adversarial", "zero_mode_shift"),
            "control_shift_median": med("control", "zero_mode_shift"),
            "remainder_median": med("adversarial", "remainder_sup"),
            "drift_final_median": med("adversarial", "drift_final"),
            "distance_median": _median([r["adversarial"]["u0_holder_eta"] for r in rows]),
            "blowups": sum(r["adversarial"]["status"] != "completed" for r in rows),
            "control_blowups": sum(r["control"]["status"] != "completed" for r in rows),
            "trials": len(rows),
        }
        entry["ratio"] = entry["adversarial_median"] / entry["control_median"]
        summary["per_radius"][radius] = entry
    summary["remainder_spread"] = _spread(_column(summary, "remainder_median"))
    summary["drift_growing"] = _increasing(_column(summary, "drift_final_median"))
    summary["verdict"] = inflation_verdict(summary)
    summary["records"] = records
    return summary


run_perturbed_inflation = run_inflation     # the benchmark's name for it


# -- the inflation verdict -----------------------------------------------------

#: largest control-sup and remainder spread across radii, smallest top-radius
#: adversarial/control shift ratio, and factor within which it must match |I_T|
SPREAD_MAX, SEPARATION_MIN, DRIFT_FACTOR = 1.5, 2.0, 2.0


def _column(summary: dict, key: str) -> list:
    """``key`` per radius; a summary read back from JSON keys radii by str(N)."""
    rows = summary["per_radius"]
    return [(rows.get(N) or rows[str(N)])[key] for N in summary["radii"]]


def _increasing(values) -> bool:
    return all(b > a for a, b in zip(values, values[1:]))


def _median(values) -> float:
    """np.median's value without its numpy.ma import; NaN if a value is, or none."""
    v, m = sorted(values), len(values) // 2
    if not v or any(math.isnan(x) for x in v):
        return math.nan
    return float(v[m] if len(v) % 2 else (v[m - 1] + v[m]) / 2)


def _spread(values) -> float:
    return float(np.max(values) / np.min(values))    # NaN if any value is


def trial_faults(summary: dict) -> list:
    """One line for each radius where a median is not finite, and one for
    each where more than half of the trials of an arm blew up: a median of
    the few trials that survived is not a verdict."""
    faults = []
    for N, e in summary["per_radius"].items():
        a, c, n = e["blowups"], e["control_blowups"], e["trials"]
        if not all(math.isfinite(v) for k, v in e.items() if k.endswith("median")):
            faults.append(f"N={N}: non-finite median ({a} adversarial and "
                          f"{c} control trials blew up)")
        if 2 * max(a, c) > n:
            faults.append(f"N={N}: {a} of {n} adversarial and {c} of {n} "
                          f"control trials blew up")
    return faults


def inflation_verdict(summary: dict) -> dict:
    """The sub-checks of an inflation summary by name; all True is a pass.

    Growth is read off the zero-mode shift max_t |z(t) - z(0)|, blind to the
    base point's own zero mode, so the verdict holds around any base point.
    The last radius is the top one; a NaN median fails each check it enters.
    """
    adv = _column(summary, "adversarial_shift_median")
    ctl = _column(summary, "control_shift_median")
    drift = _column(summary, "drift_final_median")[-1]
    return {
        "trials_sound": not trial_faults(summary),
        "adversarial_growing": _increasing(adv),
        "matches_drift": drift / DRIFT_FACTOR <= adv[-1] <= DRIFT_FACTOR * drift,
        "separated": adv[-1] > SEPARATION_MIN * ctl[-1],
        "control_bounded": _spread(_column(summary, "control_median")) < SPREAD_MAX,
        "remainder_bounded": summary["remainder_spread"] < SPREAD_MAX,
        "drift_growing": summary["drift_growing"],
    }


def run_besov_convergence(cfg: ExperimentConfig) -> dict:
    """Cauchy norms |X^N - X^{N_ref}| across N; medians and verdict."""
    tasks = [(cfg, t) for t in range(cfg.experiment["trials"])]
    records = _map_trials(_besov_trial, tasks, cfg.threads)
    radii = cfg.radii()
    medians = {N: _median([r["norms"][N] for r in records]) for N in radii}
    vals = [medians[N] for N in radii]
    return {"kind": "besov", "radii": radii, "medians": medians,
            "decreasing": all(b < a for a, b in zip(vals, vals[1:])),
            "spread": max(vals) / min(vals), "records": records}


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

    Computes every table, then writes ez_bounds.csv, it_bounds.csv,
    it_integral.csv, moments.csv, partition.csv and flags.csv under the
    output directory, so a fault leaves none of them; returns the pass/fail
    flags. The two moment experiments run as two tasks, in two processes
    when ``threads`` > 1.
    """
    exp, radii = cfg.experiment, cfg.radii()
    t_grid = geometric_grid(exp["t_max"], exp["t_min"], exp["per_decade"])
    log_corrected = cfg.profile["kind"] == "powerlog"

    ez = verify_EZt_bounds(cfg.profile_for, cfg.dim, radii, t_grid,
                           log_corrected=log_corrected)
    direction = drift_direction(cfg.nonlinearity_spec(), *cfg.pair)
    it = verify_It_bounds(cfg.profile_for, cfg.dim, direction, radii, t_grid)
    int_rows = [(f"a={abp[0]},b={abp[1]},p={abp[2]}", N, r)
                for abp, d in it.integral_ratio.items()
                for N, r in sorted(d.items())]

    dec, zexp = _map_trials(_moment_trend, [(f, cfg, radii, exp["trials"]) for f in (
        moment_experiment_decorrelated, moment_experiment_Z)], cfg.threads)
    mom_rows = [("decorrelated", N, dec.means[N], dec.q90[N]) for N in dec.radii]
    mom_rows += [("z_centred", N, zexp.means[N], zexp.q90[N]) for N in zexp.radii]
    mom_rows += [("decorrelated_slope", "", dec.slope, ""),
                 ("z_centred_slope", "", zexp.slope, "")]

    mult = DyadicPartition().multipliers(TorusGrid(min(cfg.dim, 2), 33, 34))
    partition_defect = float(np.max(np.abs(mult.sum(axis=0) - 1.0)))

    flags = {
        "ez_bounds": ez.passed,
        "it_bounds": it.passed,
        "moments_flat": abs(dec.slope) < 0.2 and abs(zexp.slope) < 0.2,
        "partition": partition_defect < 1e-10,
    }
    bounds = ["radius", "upper_ratio", "lower_ratio"]
    out = Path(out_dir or cfg.out)
    for name, header, rows in (
            ("ez_bounds.csv", bounds, list(ez.rows())),
            ("it_bounds.csv", bounds, list(it.rows())),
            ("it_integral.csv", ["exponents", "radius", "ratio"], int_rows),
            ("moments.csv", ["statistic", "radius", "mean", "q90"], mom_rows),
            ("partition.csv", ["check", "value"],
             [("partition_of_unity_defect", partition_defect)]),
            ("flags.csv", ["flag", "passed"], sorted(flags.items()))):
        write_csv(out / name, header, rows)
    return {"kind": "tables", "flags": flags, "passed": all(flags.values()),
            "out": str(out)}


def write_records_jsonl(path, records) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
