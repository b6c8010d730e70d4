"""Experiment orchestration: config validation, determinism, CLI, GFSF."""

import concurrent.futures
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from nlheat import cli, experiments, sampling
from nlheat.cli import main
from nlheat.experiments import (ConfigError, ExperimentConfig,
                                _inflation_trial, run_inflation,
                                run_perturbed_inflation, run_tables)
from nlheat.correlation import ParameterSet, verify_It_bounds
from nlheat.field import SpectralField, TorusGrid
from nlheat.gfsf import read_field, write_field
from nlheat.nonlinearity import SO3
from nlheat.sampling import VarianceProfile, sample_real_gfs, stream


def tiny_doc(**extra):
    doc = {
        "kind": "inflate", "seed": 77, "grid": {"dim": 1},
        "profile": {"kind": "white"},
        "nonlinearity": {"preset": "antisym2"},
        "experiment": {"radii": [8, 16], "trials": 3, "log_exponent": 3},
    }
    doc.update(extra)
    return doc


def fake_trials(blown, changed=()):
    """A stand-in for ``_inflation_trial``: at radius N the first blown[N] =
    (a, c) trials of the adversarial and control arms blow up; the others
    complete, with medians that grow with N and a flat remainder, so every
    sub-check of the verdict passes. ``changed`` maps (N, arm, key) to a
    value that replaces that key in every record at radius N."""
    def arm(blew, sup, **done):
        if blew:
            return {"status": "blewup", "zero_mode_sup": 1e300,
                    "zero_mode_shift": 1e300, "u0_holder_eta": 1.0}
        return {"status": "completed", "zero_mode_sup": sup,
                "zero_mode_shift": sup, "u0_holder_eta": 1.0, **done}

    def fake(args):
        cfg, radius, trial = args
        a, c = blown.get(radius, (0, 0))
        rec = {"trial": trial, "radius": radius, "seed": cfg.seed,
               "adversarial": arm(trial < a, radius + trial, remainder_sup=10.0,
                                  drift_final=float(radius)),
               "control": arm(trial < c, 1.0)}
        for (N, arm_name, key), value in dict(changed).items():
            if N == radius:
                rec[arm_name][key] = value
        return rec
    return fake


#: per sub-check, fake trials (blown, changed) that fail it and no other one
VERDICT_BREAKS = {
    "trials_sound": ({16: (2, 0)}, {}),
    "adversarial_growing": ({}, {(8, "adversarial", "zero_mode_shift"): 40.0}),
    "matches_drift": ({}, {(16, "adversarial", "drift_final"): 100.0}),
    "separated": ({}, {(16, "control", "zero_mode_shift"): 10.0}),
    "control_bounded": ({}, {(16, "control", "zero_mode_sup"): 2.0}),
    "remainder_bounded": ({}, {(16, "adversarial", "remainder_sup"): 20.0}),
    "drift_growing": ({}, {(8, "adversarial", "drift_final"): 20.0}),
}


@pytest.fixture
def fake_pool(monkeypatch):
    """A process pool that starts no process: it maps in this one and
    records the ``max_workers`` of each pool made."""
    made = []

    class FakePool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, worker, tasks):
            return map(worker, tasks)

    # _map_trials imports the pool class from concurrent.futures when it runs
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    return made


class TestConfig:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text(yaml.safe_dump(tiny_doc()))
        cfg = ExperimentConfig.from_yaml(p)
        assert cfg.seed == 77
        assert cfg.radii() == [8, 16]

    def test_seed_mandatory(self):
        doc = tiny_doc()
        del doc["seed"]
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(doc)

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            ExperimentConfig.from_dict(tiny_doc(trails=3))

    def test_unknown_nested_key(self):
        doc = tiny_doc()
        doc["profile"]["gama"] = 1.0
        with pytest.raises(ConfigError, match="profile"):
            ExperimentConfig.from_dict(doc)
        doc = tiny_doc()
        doc["experiment"]["trial"] = 7
        with pytest.raises(ConfigError, match="experiment"):
            ExperimentConfig.from_dict(doc)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(tiny_doc(kind="explode"))

    @pytest.mark.parametrize("profile, key", [
        ({"kind": "white", "gamma": -2.0}, "gamma"),
        ({"kind": "power", "gamma": 0.5, "floor": 2.0}, "floor"),
        ({"kind": "powerlog", "log_theta": -1.0, "gamma": 1.0}, "gamma")])
    def test_profile_keys_the_kind_never_reads_are_rejected(
            self, tmp_path, capsys, profile, key):
        doc = tiny_doc(profile=profile)
        with pytest.raises(ConfigError, match=f"{profile['kind']} profile.*{key}"):
            ExperimentConfig.from_dict(doc)
        p = tmp_path / "c.yaml"
        p.write_text(yaml.safe_dump(doc))
        assert main(["inflate", "--config", str(p),
                     "--out", str(tmp_path / "o")]) == 2
        assert key in capsys.readouterr().err

    def test_unknown_profile_kind_rejected(self):
        with pytest.raises(ConfigError, match="profile kind"):
            ExperimentConfig.from_dict(tiny_doc(profile={"kind": "pink"}))

    @pytest.mark.parametrize("kind", ["identities", "moments", "remainder"])
    def test_kinds_nothing_runs_are_rejected(self, kind):
        with pytest.raises(ConfigError, match="kind"):
            ExperimentConfig.from_dict(tiny_doc(kind=kind))

    @pytest.mark.parametrize("section, key, value", [
        ("experiment", "pair_kind", "control"), ("experiment", "axis", 0),
        ("experiment", "remove_mean", False), ("solver", "scheme", "etd-rk2")])
    def test_keys_nothing_reads_are_rejected(self, tmp_path, capsys,
                                             section, key, value):
        doc = tiny_doc()
        doc.setdefault(section, {})[key] = value
        with pytest.raises(ConfigError, match=section):
            ExperimentConfig.from_dict(doc)
        p = tmp_path / "c.yaml"
        p.write_text(yaml.safe_dump(doc))
        assert main(["inflate", "--config", str(p),
                     "--out", str(tmp_path / "o")]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("dim, name, radius, points", [
        (1, "antisym2", 64, 200), (1, "antisym2", 1024, 3125),
        (2, "dym", 16, 66), (2, "dymh", 8, 35), (3, "dym", 4, 18),
        (3, "dym", 8, 35), (2, "antisym2", 16, 50), (3, "antisym2", 16, 50)])
    def test_trial_grid_sizes(self, dim, name, radius, points):
        # d >= 2 keeps the complex fast sizes; d = 1 takes 5-smooth ones
        cfg = ExperimentConfig.from_dict(tiny_doc(
            grid={"dim": dim}, nonlinearity={"preset": name}))
        grid = experiments.trial_data(cfg, cfg.nonlinearity_spec(), radius, 0)[0]
        assert grid.points_per_axis == points

    def test_profile_dispatch(self):
        cfg = ExperimentConfig.from_dict(tiny_doc(
            profile={"kind": "powerlog", "log_theta": -1.0, "loglog_eta": -1.0}))
        prof = cfg.profile_for(16)
        assert prof.kind == "powerlog"
        assert prof.gamma == 0.0    # 1 - d for d = 1

    def test_minimal_document_loads_with_every_default(self):
        cfg = ExperimentConfig.from_dict(
            {"kind": "inflate", "seed": 1, "experiment": {"radii": [8]}})
        assert (cfg.dim, cfg.pair, cfg.out, cfg.threads) == (1, (0, 1), "out", 1)
        assert cfg.profile == {"kind": "white"}
        assert cfg.nonlinearity == {"preset": "antisym2", "algebra": "so3"}
        assert cfg.params == {"delta": 0.875, "beta": -0.5, "eta": -0.55}
        assert cfg.solver == {"tol": experiments.SOLVER_TOL, "step_factor": 0.5,
                              "blowup_threshold": 1e8, "snapshots": 12}
        assert cfg.experiment == {
            "radii": [8], "trials": 50, "log_exponent": 4.0, "epsilon": 1.0,
            "base": "zero", "reference_radius": 2048, "alpha": -0.5,
            "q": math.inf, "t_min": 1e-4, "t_max": 1e-1, "per_decade": 40}

    @pytest.mark.parametrize("dim", [1, 3])
    def test_bare_profile_and_params_take_the_constructor_defaults(self, dim):
        cfg = ExperimentConfig.from_dict({
            "kind": "inflate", "seed": 1, "grid": {"dim": dim},
            "profile": {"kind": "powerlog"}, "params": {},
            "experiment": {"radii": [4]}})
        assert cfg.profile_for(16) == VarianceProfile(
            "powerlog", 16, gamma=1.0 - dim, log_theta=-1.0, loglog_eta=-1.0,
            k0=3.0, floor=1.0)
        assert cfg.parameter_set() == ParameterSet().check_dim(dim)

    def test_readme_config_block_lists_every_key_with_its_default(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        doc = yaml.safe_load(readme.split("```yaml\n")[1].split("```")[0])
        assert set(doc) == {"kind", "seed", "out", "threads", "profile",
                            *experiments.SECTIONS}
        for name, defaults in experiments.SECTIONS.items():
            assert set(doc[name]) == set(defaults), name
        bare = {"kind": doc["kind"], "seed": doc["seed"],
                "experiment": {"radii": doc["experiment"]["radii"]}}
        assert ExperimentConfig.from_dict(doc) == ExperimentConfig.from_dict(bare)

    @pytest.mark.parametrize("section, key, value", [
        ("solver", None, None), ("experiment", None, [1, 2]),
        ("experiment", "radii", 8), ("seed", None, None),
        ("experiment", "trials", None), ("profile", None, "white"),
        ("seed", None, True), ("threads", None, 2.5), ("experiment", "radii", "48")],
        ids=["solver-empty", "experiment-list", "radii-int", "seed-empty",
             "trials-empty", "profile-word", "seed-bool", "threads-non-integral",
             "radii-str"])
    def test_malformed_values_are_usage_errors_that_name_the_key(
            self, tmp_path, capsys, section, key, value):
        doc = tiny_doc()
        if key is None:
            doc[section] = value
        else:
            doc[section][key] = value
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(doc)
        p = tmp_path / "c.yaml"
        p.write_text(yaml.safe_dump(doc))
        assert main(["inflate", "--config", str(p),
                     "--out", str(tmp_path / "o")]) == 2
        assert (f"{section}.{key}" if key else section) in capsys.readouterr().err

    @pytest.mark.parametrize("kind, section, key, value", [
        ("inflate", "experiment", "radii", [1]),
        ("inflate", "experiment", "radii", [0, 8]),
        ("inflate", "experiment", "trials", 0),
        ("inflate", "solver", "step_factor", 0),
        ("inflate", "solver", "step_factor", -0.5),
        ("besov", "experiment", "reference_radius", 16),
        ("besov", "experiment", "q", 0.5),
        ("inflate", "solver", "tol", 0),
        ("inflate", "solver", "tol", -1e-3),
        ("inflate", "solver", "blowup_threshold", 0),
        ("inflate", "solver", "snapshots", -1),
        ("tables", "experiment", "t_min", 0),
        ("tables", "experiment", "t_max", 1e-5),
        ("inflate", "experiment", "radii", [8.5, 16]),
        ("inflate", "experiment", "trials", 2.7),
        ("inflate", "experiment", "trials", True),
        ("inflate", "experiment", "epsilon", math.nan),
        ("inflate", "experiment", "epsilon", math.inf),
        ("inflate", "experiment", "epsilon", 0.0),
        ("perturb", "experiment", "epsilon", -0.5),
        ("tables", "experiment", "radii", [8, 16]),
        ("tables", "experiment", "per_decade", 0),
        ("inflate", "experiment", "log_exponent", math.nan),
        ("tables", "experiment", "t_max", math.inf),
        ("inflate", "solver", "tol", math.inf),
        ("inflate", "profile", "gamma", math.nan),
        ("besov", "profile", "gamma", -math.inf)],
        ids=["radius-1", "radius-0", "trials-0", "step-factor-0",
             "step-factor-negative", "radius-at-reference", "q-below-1",
             "tol-0", "tol-negative", "blowup-threshold-0", "snapshots-negative",
             "t-min-0", "t-max-below-t-min", "radius-non-integral",
             "trials-non-integral", "trials-bool", "epsilon-nan", "epsilon-inf",
             "epsilon-0", "epsilon-negative", "tables-radii-without-lower-check",
             "per-decade-0",
             "log-exponent-nan", "t-max-inf", "tol-inf", "gamma-nan", "gamma-inf"])
    def test_out_of_range_values_are_usage_errors_that_name_the_key(
            self, tmp_path, capsys, kind, section, key, value):
        doc = tiny_doc(kind=kind)
        doc.setdefault(section, {})[key] = value
        if section == "profile":
            doc["profile"]["kind"] = "power"
        p = tmp_path / "c.yaml"
        p.write_text(yaml.safe_dump(doc))
        assert main([kind, "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"{section}.{key}" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, value", [("seed", -1), ("threads", 0),
                                            ("threads", -2)])
    @pytest.mark.parametrize("given", ["file", "flag"])
    def test_bad_seed_and_threads_name_the_key(self, tmp_path, capsys, key,
                                               value, given):
        doc, flags = tiny_doc(), []
        if given == "file":
            doc[key] = value
        else:
            flags = [f"--{key}", str(value)]
        p = tmp_path / "c.yaml"
        p.write_text(yaml.safe_dump(doc))
        assert main(["inflate", "--config", str(p), *flags,
                     "--out", str(tmp_path / "o")]) == 2
        assert f"error: {key} must be >= " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind", ["inflate", "besov", "tables"])
    @pytest.mark.parametrize("section, value, words", [
        ("params", {"delta": 0.5}, ("params", "delta")),
        ("params", {"eta": 5}, ("params", "eta")),
        ("pair", {"a": 0, "b": 7}, ("pair", "(0, 7)")),
        ("pair", {"a": -1, "b": 0}, ("pair", "(-1, 0)")),
        ("pair", {"a": 1, "b": 1}, ("pair", "(1, 1)")),
        ("nonlinearity", {"preset": "nope"}, ("nonlinearity", "preset")),
        ("nonlinearity", {"preset": "dym", "algebra": "su2"},
         ("nonlinearity", "algebra")),
        ("nonlinearity", {"preset": "dym", "algebra": SO3.tolist()},
         ("nonlinearity", "algebra")),
        ("profile", {"kind": "powerlog", "k0": 2.0}, ("profile", "k0")),
        ("experiment", {"radii": [256, 64, 64]}, ("experiment.radii",)),
        ("experiment", {"radii": [8, 8]}, ("experiment.radii",)),
        ("experiment", {"radii": [8, 16], "base": [1.0]}, ("experiment.base",)),
        ("grid", {"dim": 0}, ("grid.dim",))],
        ids=["delta", "eta", "pair-past-E", "pair-negative", "pair-equal",
             "preset", "algebra", "algebra-as-list", "k0", "radii-falling",
             "radii-repeated", "base", "dim-0"])
    def test_bad_inputs_fail_at_load_naming_the_key(self, tmp_path, capsys,
                                                    kind, section, value, words):
        doc = tiny_doc(kind=kind, **{section: value})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(doc)
        p = tmp_path / "c.yaml"
        p.write_text(yaml.safe_dump(doc))
        assert main([kind, "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert all(word in err for word in words), err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("path", sorted(
        (Path(__file__).parents[1] / "benchmarks" / "configs").glob("*.yaml")),
        ids=lambda path: path.name)
    def test_shipped_configs_load(self, path):
        cfg = ExperimentConfig.from_yaml(path)
        assert cfg.radii() == sorted(set(cfg.radii()))

    def test_empty_radii_rejected(self):
        doc = tiny_doc()
        doc["experiment"]["radii"] = []
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(doc).radii()

    def test_horizon(self):
        import math
        cfg = ExperimentConfig.from_dict(tiny_doc())
        assert cfg.horizon(16) == pytest.approx(math.log(16) ** -3)


class TestInflation:
    def test_trial_replay_identical(self):
        cfg = ExperimentConfig.from_dict(tiny_doc())
        a = _inflation_trial((cfg, 16, 1))
        b = _inflation_trial((cfg, 16, 1))
        assert a == b

    def test_records_carry_solver_health(self):
        cfg = ExperimentConfig.from_dict(tiny_doc())
        rec = _inflation_trial((cfg, 8, 0))
        for arm in ("adversarial", "control"):
            assert type(rec[arm]["steps"]) is int and rec[arm]["steps"] >= 1
            assert type(rec[arm]["rejected"]) is int
            assert math.isfinite(rec[arm]["h_min"]) and rec[arm]["h_min"] > 0
            assert math.isfinite(rec[arm]["sup_max"]) and rec[arm]["sup_max"] > 0
            assert None not in rec[arm].values()

    def test_solver_tol_key(self):
        default = ExperimentConfig.from_dict(tiny_doc()).solve_config(8)
        assert default.tol == experiments.SOLVER_TOL
        fixed = ExperimentConfig.from_dict(tiny_doc(solver={"tol": None}))
        assert fixed.solve_config(8).tol is None
        assert fixed.solve_config(8).steps == default.steps
        rec = _inflation_trial((fixed, 8, 0))
        for arm in ("adversarial", "control"):
            assert rec[arm]["steps"] == default.steps
            assert rec[arm]["rejected"] == 0
            assert rec[arm]["h_min"] == default.t_end / default.steps

    @pytest.mark.parametrize("tol, status", [(None, "blewup"),
                                             (experiments.SOLVER_TOL, "completed")])
    def test_gauge_flow_at_unit_epsilon(self, tol, status):
        # after two fixed steps both arms pass the blow-up threshold; the
        # controller takes both through
        doc = {"kind": "perturb", "seed": 1, "grid": {"dim": 2},
               "profile": {"kind": "powerlog"},
               "nonlinearity": {"preset": "dym", "algebra": "so3"},
               "experiment": {"radii": [8], "trials": 1, "epsilon": 1.0},
               "solver": {"tol": tol}}
        rec = _inflation_trial((ExperimentConfig.from_dict(doc), 8, 0))
        for arm in ("adversarial", "control"):
            assert rec[arm]["status"] == status
            if tol is None:
                assert rec[arm]["steps"] == 2

    def test_thread_count_invariance(self):
        cfg1 = ExperimentConfig.from_dict(tiny_doc())
        cfg2 = ExperimentConfig.from_dict(tiny_doc(threads=2))
        r1 = run_inflation(cfg1)
        r2 = run_inflation(cfg2)
        assert r1["records"] == r2["records"]

    def test_pool_never_outgrows_its_tasks(self, fake_pool):
        for threads, count in ((4, 2), (4, 3), (2, 5)):
            got = experiments._map_trials(abs, [-t for t in range(count)], threads)
            assert got == list(range(count))
        assert fake_pool == [2, 3, 2]

    def test_one_pool_serves_a_sweep(self, monkeypatch, fake_pool):
        monkeypatch.setattr(experiments, "_inflation_trial", fake_trials({}))
        summary = run_inflation(ExperimentConfig.from_dict(tiny_doc(threads=8)))
        assert fake_pool == [6]
        assert [(r["radius"], r["trial"]) for r in summary["records"]] == \
            [(N, t) for N in (8, 16) for t in range(3)]

    def test_control_arm_shares_X(self):
        # both arms of a trial consume identical X streams
        cfg = ExperimentConfig.from_dict(tiny_doc())
        rec = _inflation_trial((cfg, 8, 0))
        grid = TorusGrid(1, 17)
        X1 = sample_real_gfs(VarianceProfile.white(8), grid, stream(77, 0, 0))
        X2 = sample_real_gfs(VarianceProfile.white(8), grid, stream(77, 0, 0))
        assert np.array_equal(X1.coeffs, X2.coeffs)
        assert rec["x_checksum"] > 0

    @pytest.mark.parametrize("extra", [{}, {
        "grid": {"dim": 2}, "profile": {"kind": "power"},
        "nonlinearity": {"preset": "dym", "algebra": "so3"}}])
    def test_trial_data_draws_each_stream_once(self, monkeypatch, extra):
        # the reference: one draw per stream, X on (trial, c) and the control
        # Y on (trial, nc + c); the adversarial Y is the control with Y^b = R X^a
        cfg, trial, calls = ExperimentConfig.from_dict(tiny_doc(**extra)), 2, []
        nl, (a, b) = cfg.nonlinearity_spec(), cfg.pair
        monkeypatch.setattr(sampling, "sample_real_gfs",
                            lambda *args: calls.append(args) or sample_real_gfs(*args))
        grid, prof, X, Y_adv, Y_ctl = experiments.trial_data(cfg, nl, 4, trial)
        nc = nl.dim_E
        assert len(calls) == 2 * nc
        draws = np.concatenate([sample_real_gfs(prof, grid, stream(cfg.seed, trial, s))
                                .coeffs for s in range(2 * nc)])
        assert np.array_equal(X.coeffs, draws[:nc])
        assert np.array_equal(Y_ctl.coeffs, draws[nc:])
        others = [c for c in range(nc) if c != b]
        assert np.array_equal(Y_adv.coeffs[others], Y_ctl.coeffs[others])
        assert np.array_equal(Y_adv.coeffs[b], X.component(a).rotate().coeffs[0])
        assert not np.array_equal(Y_adv.coeffs[b], Y_ctl.coeffs[b])

    def test_missing_witness_rejected(self, monkeypatch):
        # no preset is symmetric, so fake one to exercise the load check
        from nlheat.nonlinearity import NonlinearitySpec
        sym = NonlinearitySpec.from_parts(1, 2)
        monkeypatch.setattr(ExperimentConfig, "nonlinearity_spec",
                            lambda self: sym)
        for kind in ("inflate", "perturb"):
            with pytest.raises(ConfigError, match="witness"):
                ExperimentConfig.from_dict(tiny_doc(kind=kind))
        ExperimentConfig.from_dict(tiny_doc(                   # needs none
            kind="tables", experiment={"radii": [8, 32]}))

    def test_summary_covers_radii(self):
        summary = run_inflation(ExperimentConfig.from_dict(tiny_doc()))
        assert set(summary["per_radius"]) == {8, 16}

    def test_all_blown_up_gives_nan_medians_without_warning(self, tmp_path,
                                                              capsys):
        doc = tiny_doc(solver={"blowup_threshold": 1e-12})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            summary = run_inflation(ExperimentConfig.from_dict(doc))
        for entry in summary["per_radius"].values():
            assert entry["blowups"] == entry["control_blowups"] == 3
            for key in ("adversarial_median", "control_median",
                        "remainder_median", "drift_final_median", "ratio"):
                assert math.isnan(entry[key]), key
        p = tmp_path / "c.yaml"
        p.write_text(yaml.safe_dump(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["inflate", "--config", str(p),
                         "--out", str(tmp_path / "o")]) == 1
        out = capsys.readouterr().out
        assert "N=8: non-finite median" in out and "N=16: non-finite median" in out
        header = (tmp_path / "o" / "inflation.csv").read_text().splitlines()[0]
        assert header == "radius,adversarial_median,control_median,ratio,blowups"
        doc = tiny_doc(kind="perturb", solver={"blowup_threshold": 1e-12})
        doc["experiment"].update(epsilon=0.5, radii=[8])
        p.write_text(yaml.safe_dump(doc))
        assert main(["perturb", "--config", str(p),
                     "--out", str(tmp_path / "q")]) == 1
        assert "N=8: non-finite median" in capsys.readouterr().out

    def test_blown_up_trial_is_excluded_from_medians(self, monkeypatch):
        def fake_trial(args):
            cfg, radius, trial = args
            adv = {"status": "completed", "zero_mode_sup": 1.0 + trial,
                   "zero_mode_shift": 1.0 + trial,
                   "u0_holder_eta": 1.0, "remainder_sup": 10.0 + trial,
                   "drift_final": 5.0}
            if trial == 0:
                adv = {"status": "blewup", "zero_mode_sup": 1e300,
                       "zero_mode_shift": 1e300, "u0_holder_eta": 1.0}
            ctl = {"status": "completed", "zero_mode_sup": 2.0,
                   "zero_mode_shift": 0.5, "u0_holder_eta": 1.0}
            return {"trial": trial, "radius": radius, "seed": cfg.seed,
                    "adversarial": adv, "control": ctl}

        monkeypatch.setattr(experiments, "_inflation_trial", fake_trial)
        summary = run_inflation(ExperimentConfig.from_dict(tiny_doc()))
        for entry in summary["per_radius"].values():
            assert entry["adversarial_median"] == 2.5     # trials 1 and 2 only
            assert entry["remainder_median"] == 11.5
            assert entry["drift_final_median"] == 5.0
            assert entry["ratio"] == 1.25
            assert entry["blowups"] == 1 and entry["control_blowups"] == 0
            assert entry["adversarial_shift_median"] == 2.5
            assert entry["control_shift_median"] == 0.5
            assert entry["trials"] == 3

    @pytest.mark.parametrize("kind", ["inflate", "perturb"])
    def test_blowup_limit_fails_the_verdict(self, monkeypatch, tmp_path, capsys,
                                            kind):
        p = tmp_path / "c.yaml"
        p.write_text(yaml.safe_dump(tiny_doc(kind=kind)))

        def run(blown):
            monkeypatch.setattr(experiments, "_inflation_trial", fake_trials(blown))
            code = main([kind, "--config", str(p), "--out", str(tmp_path / "o")])
            return code, capsys.readouterr().out

        code, out = run({16: (1, 1)})       # 1 of 3 per arm: the verdict stands
        assert code == 0 and "trials blew up" not in out
        code, out = run({16: (2, 0)})
        assert code == 1 and out.count("trials blew up") == 1
        assert "N=16: 2 of 3 adversarial and 0 of 3 control trials blew up" in out
        code, out = run({8: (0, 2)})
        assert code == 1 and out.count("trials blew up") == 1
        assert "N=8: 0 of 3 adversarial and 2 of 3 control trials blew up" in out

    @pytest.mark.parametrize("broken", [None, *VERDICT_BREAKS])
    def test_each_sub_check_fails_on_its_own(self, monkeypatch, tmp_path,
                                             capsys, broken):
        blown, changed = VERDICT_BREAKS.get(broken, ({}, {}))
        monkeypatch.setattr(experiments, "_inflation_trial",
                            fake_trials(blown, changed))
        want = {name: name != broken for name in VERDICT_BREAKS}
        for kind in ("inflate", "perturb"):
            p = tmp_path / f"{kind}.yaml"
            p.write_text(yaml.safe_dump(tiny_doc(kind=kind)))
            out = tmp_path / kind
            code = main([kind, "--config", str(p), "--out", str(out)])
            assert json.loads((out / "summary.json").read_text())["verdict"] == want
            assert code == (1 if broken else 0)
            printed = capsys.readouterr().out
            assert all(f"{name}: {'pass' if ok else 'FAIL'}" in printed
                       for name, ok in want.items())
            assert len((out / "records.jsonl").read_text().splitlines()) == 6
            assert (out / "inflation.csv").read_text().splitlines()[0] == \
                "radius,adversarial_median,control_median,ratio,blowups"
            assert (out / "remainder.csv").read_text().splitlines()[0] == \
                "radius,remainder_median,drift_final_median"

    def test_stored_summary_gives_the_same_verdict(self, monkeypatch, tmp_path):
        # summary.json keys per_radius by str(N); the verdict reads either
        monkeypatch.setattr(experiments, "_inflation_trial",
                            fake_trials(*VERDICT_BREAKS["separated"]))
        summary = run_inflation(ExperimentConfig.from_dict(tiny_doc()))
        cli._emit(summary, tmp_path)
        stored = json.loads((tmp_path / "summary.json").read_text())
        assert set(stored["per_radius"]) == {"8", "16"}
        assert experiments.inflation_verdict(stored) == summary["verdict"]
        assert not all(summary["verdict"].values())

    def test_verdict_holds_around_a_base_point(self, tmp_path, capsys):
        # sup_t |z(t)| includes |x| = 5 and falls with N here (medians 6.12,
        # 6.27, 5.06), while sup_t |z(t) - z(0)| follows |I_T|
        verdicts = []
        for kind in ("inflate", "perturb"):
            doc = tiny_doc(kind=kind, seed=20260823)
            doc["experiment"] = {"radii": [32, 64, 128], "trials": 4,
                                 "epsilon": 1.0, "base": [5.0, 0.0]}
            p = tmp_path / f"{kind}.yaml"
            p.write_text(yaml.safe_dump(doc))
            out = tmp_path / kind
            assert main([kind, "--config", str(p), "--out", str(out)]) == 0
            verdicts.append(json.loads((out / "summary.json").read_text())["verdict"])
        assert verdicts[0] == verdicts[1]
        assert all(verdicts[0].values()) and len(verdicts[0]) == 7

    @pytest.mark.parametrize("radius", [8, 16])
    def test_remainder_spread_is_nan_when_a_median_is(self, monkeypatch,
                                                       tmp_path, capsys, radius):
        monkeypatch.setattr(experiments, "_inflation_trial",
                            fake_trials({radius: (3, 0)}))
        doc = tiny_doc()
        res = run_inflation(ExperimentConfig.from_dict(doc))
        assert math.isnan(res["per_radius"][radius]["remainder_median"])
        assert math.isnan(res["remainder_spread"])
        p = tmp_path / "c.yaml"
        p.write_text(yaml.safe_dump(doc))
        assert main(["inflate", "--config", str(p),
                     "--out", str(tmp_path / "o")]) == 1
        out = capsys.readouterr().out
        assert f"N={radius}: non-finite median (3 adversarial and 0 control" in out
        assert f"N={radius}: 3 of 3 adversarial and 0 of 3 control trials" in out

    def test_perturb_zero_base_matches_inflation(self):
        doc = tiny_doc(kind="perturb")
        doc["experiment"]["epsilon"] = 1.0
        doc["experiment"]["base"] = "zero"
        pert = run_perturbed_inflation(ExperimentConfig.from_dict(doc))
        plain = run_inflation(ExperimentConfig.from_dict(tiny_doc()))
        for ra, rb in zip(pert["records"], plain["records"]):
            assert ra["adversarial"] == rb["adversarial"]

    def test_perturb_scaling(self):
        doc = tiny_doc(kind="perturb")
        doc["experiment"]["epsilon"] = 0.5
        half = run_perturbed_inflation(ExperimentConfig.from_dict(doc))
        for N in half["radii"]:
            assert half["per_radius"][N]["distance_median"] > 0


    def test_distance_is_measured_from_the_base(self):
        # |u0 - x|_{C^eta} is the norm of eps (X + Y), whatever the base x
        runs = []
        for base in ("zero", [5.0, 0.0]):
            doc = tiny_doc(kind="perturb")
            doc["experiment"].update(epsilon=0.5, base=base, radii=[8])
            runs.append(run_perturbed_inflation(ExperimentConfig.from_dict(doc)))
        at_zero, shifted = runs
        assert shifted["per_radius"][8]["distance_median"] == \
            at_zero["per_radius"][8]["distance_median"]
        for ra, rb in zip(at_zero["records"], shifted["records"]):
            for arm in ("adversarial", "control"):
                assert ra[arm]["u0_holder_eta"] == rb[arm]["u0_holder_eta"]
            assert ra["adversarial"]["zero_mode_sup"] != \
                rb["adversarial"]["zero_mode_sup"]

    @pytest.mark.parametrize("base", [[5.0], [5.0, 0.0, 1.0], "one",
                                      ["a", "b"], [float("nan"), 0.0]],
                             ids=["short", "long", "word", "strings", "nan"])
    def test_bad_base_fails_before_any_trial(self, monkeypatch, tmp_path,
                                             capsys, base):
        def no_trial(args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(experiments, "_inflation_trial", no_trial)
        for kind in ("inflate", "perturb"):
            doc = tiny_doc(kind=kind)
            doc["experiment"]["base"] = base
            with pytest.raises(ConfigError, match="experiment.base"):
                run_inflation(ExperimentConfig.from_dict(doc))
            p = tmp_path / "c.yaml"
            p.write_text(yaml.safe_dump(doc))
            assert main([kind, "--config", str(p),
                         "--out", str(tmp_path / "o")]) == 2
            assert "experiment.base" in capsys.readouterr().err

    def test_every_inflation_kind_honours_epsilon_and_base(self):
        runs = {}
        for kind, run in (("inflate", run_inflation),
                          ("perturb", run_perturbed_inflation)):
            doc = tiny_doc(kind=kind)
            doc["experiment"].update(epsilon=0.5, base=[0.25, -0.5],
                                     radii=[8], trials=2)
            runs[kind] = run(ExperimentConfig.from_dict(doc))["records"]
        assert runs["inflate"] == runs["perturb"]
        doc = tiny_doc()
        doc["experiment"].update(radii=[8], trials=2)
        assert run_inflation(ExperimentConfig.from_dict(doc))["records"] != \
            runs["inflate"]

    def test_perturb_drift_scales_with_epsilon_squared(self):
        finals = {}
        for eps in (1.0, 0.5):
            doc = tiny_doc(kind="perturb")
            doc["experiment"].update(epsilon=eps, base="zero", radii=[8],
                                     trials=1)
            res = run_perturbed_inflation(ExperimentConfig.from_dict(doc))
            finals[eps] = res["records"][0]["adversarial"]["drift_final"]
        assert finals[0.5] == pytest.approx(0.25 * finals[1.0], rel=1e-12)


    def test_median_matches_numpy(self):
        rng = np.random.default_rng(3)
        for n in list(range(1, 12)) * 150 + [1000, 1001]:
            vals = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
            vals[rng.random(n) < 0.05] = np.nan
            if rng.random() < 0.3:
                vals = np.round(vals)                    # ties
            got, want = experiments._median(list(vals)), np.median(vals)
            assert type(got) is float
            assert np.array_equal(got, want, equal_nan=True)
        assert math.isnan(experiments._median([]))
        assert experiments._median([math.inf, 1.0, -math.inf]) == 1.0
        assert math.isnan(experiments._median([math.inf, -math.inf]))

    def test_inflation_run_does_not_import_numpy_ma(self):
        # np.median imports numpy.ma on first use, 14-16 ms in a fresh process
        env = {**os.environ, "PYTHONPATH": str(Path(experiments.__file__).parents[1])}
        code = ("import json, sys; from nlheat.experiments import ExperimentConfig, "
                f"run_inflation; run_inflation(ExperimentConfig.from_dict(json.loads("
                f"{json.dumps(json.dumps(tiny_doc()))}))); "
                "print('numpy.ma' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True)
        assert out.stdout.strip() == "False"


class TestTables:
    def base_doc(self):
        return {
            "kind": "tables", "seed": 5, "grid": {"dim": 1},
            "profile": {"kind": "white"},
            "nonlinearity": {"preset": "antisym2"},
            "experiment": {"radii": [8, 32], "trials": 4,
                           "t_min": 1e-3, "t_max": 1e-1},
        }

    def test_tables_run_does_not_import_numpy_ma(self, tmp_path):
        # np.quantile imports numpy.ma on first use, 8-16 ms in a fresh process
        env = {**os.environ, "PYTHONPATH": str(Path(experiments.__file__).parents[1])}
        doc = {**self.base_doc(), "out": str(tmp_path)}
        code = ("import json, sys; from nlheat.experiments import ExperimentConfig, "
                f"run_tables; run_tables(ExperimentConfig.from_dict(json.loads("
                f"{json.dumps(json.dumps(doc))}))); "
                "print('numpy.ma' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True)
        assert out.stdout.strip() == "False"

    def test_radii_need_a_lower_It_check_by_the_rule_of_the_table(self):
        # on the default t grid N = 18 admits no t for the lower |I_t|
        # envelope and N = 19 does: the load check reads verify_It_bounds' rule
        doc = {**self.base_doc(), "experiment": {"radii": [18, 19]}}
        cfg = ExperimentConfig.from_dict(doc)
        rep = verify_It_bounds(cfg.profile_for, 1, [1.0], [18, 19], cfg.t_grid())
        assert rep.lower_ratio[18] is None and rep.lower_ratio[19] is not None
        with pytest.raises(ConfigError, match=r"experiment\.radii .*\[8, 18\]"):
            ExperimentConfig.from_dict({**doc, "experiment": {"radii": [8, 18]}})

    def test_deterministic_output(self, tmp_path):
        cfg = ExperimentConfig.from_dict(self.base_doc())
        run_tables(cfg, tmp_path / "a")
        run_tables(cfg, tmp_path / "b")
        for name in ("ez_bounds.csv", "it_bounds.csv", "moments.csv",
                     "partition.csv", "flags.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes(), name

    def test_moment_experiments_are_two_tasks_at_the_thread_count(
            self, tmp_path, monkeypatch):
        calls = []
        real = experiments._map_trials

        def spy(worker, tasks, threads):
            calls.append((worker, len(tasks), threads))
            return real(worker, tasks, threads)
        monkeypatch.setattr(experiments, "_map_trials", spy)
        cfg = ExperimentConfig.from_dict({**self.base_doc(), "threads": 2})
        run_tables(cfg, tmp_path)
        assert calls == [(experiments._moment_trend, 2, 2)]

    def test_a_fault_in_a_table_leaves_no_output(self, tmp_path, monkeypatch):
        # the moment experiments run after the bound tables; every table is
        # computed before the directory is made
        def fault(worker, tasks, threads):
            raise RuntimeError("moment experiment failed")
        monkeypatch.setattr(experiments, "_map_trials", fault)
        with pytest.raises(RuntimeError):
            run_tables(ExperimentConfig.from_dict(self.base_doc()), tmp_path / "o")
        assert not (tmp_path / "o").exists()

    def test_growing_profile_trips_upper_flag(self, tmp_path):
        doc = self.base_doc()
        doc["profile"] = {"kind": "power", "gamma": 2.0}
        res = run_tables(ExperimentConfig.from_dict(doc), tmp_path / "bad")
        assert not res["flags"]["ez_bounds"]


class TestCli:
    def test_identities_exit_zero(self, capsys):
        assert main(["identities", "--seed", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 36
        assert [l.split()[0] for l in lines] == \
            ["d=1"] * 12 + ["d=2"] * 12 + ["d=3"] * 12
        assert all(l.endswith("[pass]") for l in lines)

    def test_identities_fail_in_one_dimension(self, monkeypatch, capsys):
        suite = cli.run_identity_suite

        def broken_at_d3(seed, dim):
            results = suite(seed=seed, dim=dim)
            if dim == 3:
                results[-1] = replace(results[-1], defect=1.0)
            return results

        monkeypatch.setattr(cli, "run_identity_suite", broken_at_d3)
        assert main(["identities"]) == 1
        failed = [l for l in capsys.readouterr().out.splitlines()
                  if l.endswith("[FAIL]")]
        assert len(failed) == 1 and failed[0].startswith("d=3 ")

    def test_identities_negative_seed_names_the_key(self, capsys):
        assert main(["identities", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert "error: seed must be >= 0, got -1" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flag", [["--config", "/nonexistent.yaml"],
                                      ["--threads", "4"], ["--out", "zz"]])
    def test_identities_rejects_the_flags_it_ignores(self, tmp_path, monkeypatch,
                                                     capsys, flag):
        monkeypatch.chdir(tmp_path)
        assert main(["identities", *flag]) == 2
        assert flag[0] in capsys.readouterr().err
        assert not (tmp_path / "zz").exists()

    @pytest.mark.parametrize("command, kind", [
        ("inflate", "tables"), ("tables", "inflate"), ("perturb", "besov"),
        ("sample", "solve"), ("solve", "tables")])
    def test_a_command_rejects_a_config_of_another_kind(self, tmp_path, capsys,
                                                       command, kind):
        p = tmp_path / "c.yaml"      # radii a tables config may have
        p.write_text(yaml.safe_dump(tiny_doc(kind=kind, experiment={"radii": [8, 32]})))
        assert main([command, "--config", str(p),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"nlheat {command}" in err and repr(kind) in err
        assert not (tmp_path / "o").exists()

    def test_inflation_commands_run_each_others_kinds(self, monkeypatch,
                                                      tmp_path, capsys):
        monkeypatch.setattr(experiments, "_inflation_trial", fake_trials({}))
        for kind in ("inflate", "perturb"):
            p = tmp_path / f"{kind}.yaml"
            p.write_text(yaml.safe_dump(tiny_doc(kind=kind)))
            for command in ("inflate", "perturb"):
                out = tmp_path / command / kind
                assert main([command, "--config", str(p), "--out", str(out)]) == 0
                assert json.loads((out / "summary.json").read_text())["kind"] == kind

    def test_remainder_is_no_subcommand(self, tmp_path, capsys):
        p = tmp_path / "c.yaml"
        p.write_text(yaml.safe_dump(tiny_doc()))
        assert main(["remainder", "--config", str(p)]) == 2
        assert "invalid choice: 'remainder'" in capsys.readouterr().err

    def test_missing_config_is_usage_error(self, capsys):
        assert main(["inflate"]) == 2

    @pytest.mark.parametrize("content", ["kind: inflate\nseed: [1\n", None,
                                         "kind: inflate\n\tseed: 1\n"],
                             ids=["yaml-syntax", "directory", "yaml-tab"])
    def test_unreadable_config_is_usage_error_naming_the_file(
            self, tmp_path, capsys, content):
        p = tmp_path / "c.yaml"
        if content is None:
            p.mkdir()
        else:
            p.write_text(content)
        with pytest.raises(ConfigError, match="c.yaml"):
            ExperimentConfig.from_yaml(p)
        assert main(["inflate", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(p) in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_absent_config_names_the_file(self, tmp_path, capsys):
        p = tmp_path / "absent.yaml"
        assert main(["inflate", "--config", str(p)]) == 2
        assert str(p) in capsys.readouterr().err

    def test_bad_config_is_usage_error(self, tmp_path, capsys):
        p = tmp_path / "c.yaml"
        p.write_text(yaml.safe_dump(tiny_doc(bogus=1)))
        assert main(["inflate", "--config", str(p)]) == 2

    def test_inflate_smoke(self, tmp_path, capsys):
        p = tmp_path / "c.yaml"
        p.write_text(yaml.safe_dump(tiny_doc()))
        code = main(["inflate", "--config", str(p), "--out", str(tmp_path / "o")])
        assert code in (0, 1)
        records = (tmp_path / "o" / "records.jsonl").read_text().splitlines()
        assert len(records) == 6
        rec = json.loads(records[0])
        assert rec["seed"] == 77
        assert (tmp_path / "o" / "inflation.csv").exists()

    def test_sample_writes_field(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text(yaml.safe_dump(tiny_doc(kind="sample")))
        assert main(["sample", "--config", str(p),
                     "--out", str(tmp_path / "s")]) == 0
        f = read_field(tmp_path / "s" / "sample.gfsf")
        assert f.components == 2
        assert f.grid.modes_per_axis == 17

    def test_sample_writes_trial_zero_X(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text(yaml.safe_dump(tiny_doc(kind="sample")))
        assert main(["sample", "--config", str(p),
                     "--out", str(tmp_path / "s")]) == 0
        X = read_field(tmp_path / "s" / "sample.gfsf")
        rec = _inflation_trial((ExperimentConfig.from_dict(tiny_doc()), 8, 0))
        assert float(np.sum(np.abs(X.coeffs))) == rec["x_checksum"]

    def test_solve_blowup_writes_no_final_field(self, tmp_path, capsys):
        p = tmp_path / "c.yaml"
        p.write_text(yaml.safe_dump(tiny_doc(
            kind="solve", solver={"blowup_threshold": 1e-12})))
        out = tmp_path / "s"
        assert main(["solve", "--config", str(p), "--out", str(out)]) == 1
        printed = capsys.readouterr().out
        assert "status=blewup" in printed
        assert "rejected=0 h_min=" in printed
        assert (out / "zero_mode.csv").exists()
        assert not (out / "final.gfsf").exists()

    def test_seed_override(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text(yaml.safe_dump(tiny_doc(kind="sample")))
        main(["sample", "--config", str(p), "--seed", "123",
              "--out", str(tmp_path / "a")])
        main(["sample", "--config", str(p), "--seed", "124",
              "--out", str(tmp_path / "b")])
        fa = read_field(tmp_path / "a" / "sample.gfsf")
        fb = read_field(tmp_path / "b" / "sample.gfsf")
        assert not np.array_equal(fa.coeffs, fb.coeffs)


class TestGfsf:
    def test_round_trip(self, tmp_path):
        grid = TorusGrid(2, 9)
        X = sample_real_gfs(VarianceProfile.white(4), grid, stream(1, 0))
        path = tmp_path / "x.gfsf"
        write_field(path, X)
        back = read_field(path)
        assert np.array_equal(back.coeffs, X.coeffs)
        assert back.grid.dim == 2
        meta = json.loads((tmp_path / "x.gfsf.json").read_text())
        assert meta["modes_per_axis"] == 9

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(ValueError):
            read_field(path)

    @pytest.mark.parametrize("delta", [1, -1])
    def test_wrong_length_rejected(self, tmp_path, delta):
        X = sample_real_gfs(VarianceProfile.white(4), TorusGrid(1, 9),
                            stream(1, 0))
        path = tmp_path / "x.gfsf"
        write_field(path, X)
        raw = path.read_bytes()
        path.write_bytes(raw + b"\x00" if delta > 0 else raw[:-1])
        with pytest.raises(ValueError, match="bytes"):
            read_field(path)
