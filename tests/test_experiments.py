"""Experiment orchestration: config validation, determinism, CLI, GFSF."""

import json
import math
import warnings

import numpy as np
import pytest
import yaml

from nlheat import experiments
from nlheat.cli import main
from nlheat.experiments import (ConfigError, ExperimentConfig,
                                _inflation_trial, _trial_grid, run_inflation,
                                run_perturbed_inflation, run_remainder_tracking,
                                run_tables)
from nlheat.field import SpectralField, TorusGrid
from nlheat.gfsf import read_field, write_field
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


def fake_trials(blown):
    """A stand-in for ``_inflation_trial``: at radius N the first blown[N] =
    (a, c) trials of the adversarial and control arms blow up; the others
    complete, with medians that grow with N and a flat remainder."""
    def arm(blew, sup, **done):
        if blew:
            return {"status": "blewup", "zero_mode_sup": 1e300, "u0_holder_eta": 1.0}
        return {"status": "completed", "zero_mode_sup": sup,
                "u0_holder_eta": 1.0, **done}

    def fake(args):
        cfg, radius, trial, _, _ = args
        a, c = blown.get(radius, (0, 0))
        return {"trial": trial, "radius": radius, "seed": cfg.seed,
                "adversarial": arm(trial < a, radius + trial, remainder_sup=10.0,
                                   drift_final=float(radius)),
                "control": arm(trial < c, 1.0)}
    return fake


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

    @pytest.mark.parametrize("kind", ["identities", "moments"])
    def test_kinds_nothing_runs_are_rejected(self, kind):
        with pytest.raises(ConfigError, match="kind"):
            ExperimentConfig.from_dict(tiny_doc(kind=kind))

    @pytest.mark.parametrize("dim, name, radius, points", [
        (1, "antisym2", 64, 200), (1, "antisym2", 1024, 3125),
        (2, "dym", 16, 66), (2, "dymh", 8, 35), (3, "dym", 4, 18),
        (3, "dym", 8, 35), (2, "antisym2", 16, 50), (3, "antisym2", 16, 50)])
    def test_trial_grid_sizes(self, dim, name, radius, points):
        # d >= 2 keeps the complex fast sizes; d = 1 takes 5-smooth ones
        cfg = ExperimentConfig.from_dict(tiny_doc(
            grid={"dim": dim}, nonlinearity={"preset": name}))
        grid = _trial_grid(cfg, radius, cfg.nonlinearity_spec())
        assert grid.points_per_axis == points

    def test_profile_dispatch(self):
        cfg = ExperimentConfig.from_dict(tiny_doc(
            profile={"kind": "powerlog", "log_theta": -1.0, "loglog_eta": -1.0}))
        prof = cfg.profile_for(16)
        assert prof.kind == "powerlog"
        assert prof.gamma == 0.0    # 1 - d for d = 1

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
        a = _inflation_trial((cfg, 16, 1, None, 1.0))
        b = _inflation_trial((cfg, 16, 1, None, 1.0))
        assert a == b

    def test_thread_count_invariance(self):
        cfg1 = ExperimentConfig.from_dict(tiny_doc())
        cfg2 = ExperimentConfig.from_dict(tiny_doc(threads=2))
        r1 = run_inflation(cfg1)
        r2 = run_inflation(cfg2)
        assert r1["records"] == r2["records"]

    def test_control_arm_shares_X(self):
        # both arms of a trial consume identical X streams
        cfg = ExperimentConfig.from_dict(tiny_doc())
        rec = _inflation_trial((cfg, 8, 0, None, 1.0))
        grid = TorusGrid(1, 17)
        X1 = sample_real_gfs(VarianceProfile.white(8), grid, stream(77, 0, 0))
        X2 = sample_real_gfs(VarianceProfile.white(8), grid, stream(77, 0, 0))
        assert np.array_equal(X1.coeffs, X2.coeffs)
        assert rec["x_checksum"] > 0

    def test_missing_witness_rejected(self, monkeypatch):
        # no preset is symmetric, so fake one to exercise the gate
        from nlheat.nonlinearity import NonlinearitySpec
        cfg = ExperimentConfig.from_dict(tiny_doc())
        sym = NonlinearitySpec.from_parts(1, 2)
        monkeypatch.setattr(ExperimentConfig, "nonlinearity_spec",
                            lambda self: sym)
        with pytest.raises(ConfigError, match="witness"):
            run_inflation(cfg)

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
            cfg, radius, trial, _, _ = args
            adv = {"status": "completed", "zero_mode_sup": 1.0 + trial,
                   "u0_holder_eta": 1.0, "remainder_sup": 10.0 + trial,
                   "drift_final": 5.0}
            if trial == 0:
                adv = {"status": "blewup", "zero_mode_sup": 1e300,
                       "u0_holder_eta": 1.0}
            ctl = {"status": "completed", "zero_mode_sup": 2.0,
                   "u0_holder_eta": 1.0}
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

    @pytest.mark.parametrize("kind", ["inflate", "perturb", "remainder"])
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

    @pytest.mark.parametrize("radius", [8, 16])
    def test_remainder_spread_is_nan_when_a_median_is(self, monkeypatch,
                                                       tmp_path, capsys, radius):
        monkeypatch.setattr(experiments, "_inflation_trial",
                            fake_trials({radius: (3, 0)}))
        doc = tiny_doc(kind="remainder")
        res = run_remainder_tracking(ExperimentConfig.from_dict(doc))
        assert math.isnan(res["per_radius"][radius]["remainder_median"])
        assert math.isnan(res["remainder_spread"])
        p = tmp_path / "c.yaml"
        p.write_text(yaml.safe_dump(doc))
        assert main(["remainder", "--config", str(p),
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


    def test_perturb_drift_scales_with_epsilon_squared(self):
        finals = {}
        for eps in (1.0, 0.5):
            doc = tiny_doc(kind="perturb")
            doc["experiment"].update(epsilon=eps, base="zero", radii=[8],
                                     trials=1)
            res = run_perturbed_inflation(ExperimentConfig.from_dict(doc))
            finals[eps] = res["records"][0]["adversarial"]["drift_final"]
        assert finals[0.5] == pytest.approx(0.25 * finals[1.0], rel=1e-12)


class TestTables:
    def base_doc(self):
        return {
            "kind": "tables", "seed": 5, "grid": {"dim": 1},
            "profile": {"kind": "white"},
            "nonlinearity": {"preset": "antisym2"},
            "experiment": {"radii": [8, 16], "trials": 4,
                           "t_min": 1e-3, "t_max": 1e-1},
        }

    def test_deterministic_output(self, tmp_path):
        cfg = ExperimentConfig.from_dict(self.base_doc())
        run_tables(cfg, tmp_path / "a")
        run_tables(cfg, tmp_path / "b")
        for name in ("ez_bounds.csv", "it_bounds.csv", "moments.csv",
                     "partition.csv", "flags.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes(), name

    def test_growing_profile_trips_upper_flag(self, tmp_path):
        doc = self.base_doc()
        doc["profile"] = {"kind": "power", "gamma": 2.0}
        res = run_tables(ExperimentConfig.from_dict(doc), tmp_path / "bad")
        assert not res["flags"]["ez_bounds"]


class TestCli:
    def test_identities_exit_zero(self, capsys):
        assert main(["identities", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "pass" in out and "FAIL" not in out

    def test_missing_config_is_usage_error(self, capsys):
        assert main(["inflate"]) == 2

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

    def test_solve_blowup_writes_no_final_field(self, tmp_path, capsys):
        p = tmp_path / "c.yaml"
        p.write_text(yaml.safe_dump(tiny_doc(
            kind="solve", solver={"blowup_threshold": 1e-12})))
        out = tmp_path / "s"
        assert main(["solve", "--config", str(p), "--out", str(out)]) == 1
        assert "status=blewup" in capsys.readouterr().out
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
        write_field(path, X, sidecar=False)
        raw = path.read_bytes()
        path.write_bytes(raw + b"\x00" if delta > 0 else raw[:-1])
        with pytest.raises(ValueError, match="bytes"):
            read_field(path)
