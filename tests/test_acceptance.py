"""Acceptance gate: the ten quantitative criteria, one test each.

Each test prints a single CRITERION line with its verdict and headline
numbers.  The inflation run (criteria 6 and 7) is shared via a
module-scoped fixture since it dominates the runtime.
"""

import math

import numpy as np
import pytest

from nlheat.besov import DyadicPartition
from nlheat.correlation import (ParameterSet, compute_Zt, geometric_grid,
                                moment_experiment_decorrelated,
                                moment_experiment_Z, verify_EZt_bounds,
                                verify_It_bounds)
from nlheat.experiments import (ExperimentConfig, inflation_verdict,
                                run_besov_convergence, run_inflation,
                                run_tables)
from nlheat.field import SpectralField, TorusGrid, pointwise_product
from nlheat.nonlinearity import NonlinearitySpec, preset_antisym2, preset_dym
from nlheat.sampling import VarianceProfile, sample_real_gfs, stream
from nlheat.solver import SolveConfig, solve

SEED = 20260823


def report(criterion, passed, detail):
    line = f"CRITERION {criterion}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    assert passed, line


# -- 1: exact identities -------------------------------------------------------

def test_criterion_1_exact_identities():
    """Exact zero-mode identities for the rotation coupling.

    For i = 1 the resonant sums are checked against the lattice formula.
    For i != 1 the paper's display asserts pathwise vanishing, but the two
    half-space sums are equal rather than cancelling: the quantity is
    -2 sum_{n_1>0} n_i |xi_n|^2, which vanishes only in expectation.  The
    exact pathwise content checked here is the antisymmetry
    Pi_0(xi d_i R xi) = -Pi_0(R xi d_i xi) together with exact mean
    cancellation under the n_i sign-flip coupling (see decisions ledger).
    """
    worst_res = worst_perp = worst_heat = worst_sum = 0.0
    part = DyadicPartition()
    for dim in (1, 2, 3):
        grid = TorusGrid(dim, 9)
        prof = VarianceProfile.white(grid.half_band)
        for trial in range(50):
            X = sample_real_gfs(prof, grid, stream(SEED, dim, trial))
            k1 = grid.axis_wavenumbers(0) * np.ones(grid.mode_shape)
            direct = float(np.sum(2.0 * np.where(k1 > 0, k1, 0.0)
                                  * np.abs(X.coeffs[0]) ** 2))
            rx = X.rotate()
            plus = float(pointwise_product(rx, X.derivative(0)).zero_mode()[0])
            minus = float(pointwise_product(X, rx.derivative(0)).zero_mode()[0])
            scale = 1.0 + direct
            worst_res = max(worst_res, abs(plus - direct) / scale,
                            abs(minus + direct) / scale)
            for i in range(1, dim):
                a = float(pointwise_product(X, rx.derivative(i)).zero_mode()[0])
                b = float(pointwise_product(rx, X.derivative(i)).zero_mode()[0])
                worst_perp = max(worst_perp, abs(a + b) / scale)
                flipped = SpectralField(grid, np.flip(X.coeffs, axis=1 + i))
                rf = flipped.rotate()
                c = float(pointwise_product(
                    flipped, rf.derivative(i)).zero_mode()[0])
                worst_perp = max(worst_perp, abs(a + c) / (2 * scale))
        # heat eigenrelation on every mode at once
        t = 0.21
        f = sample_real_gfs(prof, grid, stream(SEED, dim, 999))
        expect = f.coeffs * np.exp(-grid.k_squared * t)
        worst_heat = max(worst_heat,
                         float(np.max(np.abs(f.heat(t).coeffs - expect))))
        top = part.max_level(grid.half_band * math.sqrt(dim))
        mult = part.multipliers(grid)
        total = sum(mult[l + 1] * f.coeffs for l in range(-1, top + 1))
        worst_sum = max(worst_sum, float(np.max(np.abs(total - f.coeffs))))
    ok = worst_res < 1e-10 and worst_perp < 1e-10 \
        and worst_heat < 1e-12 and worst_sum < 1e-10
    report(1, ok, f"resonant defect {worst_res:.2e}, off-axis {worst_perp:.2e}, "
           f"heat {worst_heat:.2e}, block sum {worst_sum:.2e}")


# -- 2: Z identity cross-check -------------------------------------------------

def test_criterion_2_z_identity():
    grid = TorusGrid(2, 17)
    prof = VarianceProfile.white(8)
    t_values = np.geomspace(1e-3, 1.0, 10)
    worst = 0.0
    for trial in range(20):
        X = sample_real_gfs(prof, grid, stream(SEED, 2, trial))
        for t in t_values:
            lhs = compute_Zt(X, float(t))
            Xt = X.heat(float(t))
            rhs = float(pointwise_product(
                Xt.rotate(), Xt.derivative(0)).zero_mode()[0])
            worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    report(2, worst < 1e-10, f"max relative defect {worst:.2e} over 200 pairs")


# -- 3: E Z_t envelopes --------------------------------------------------------

def test_criterion_3_expected_Z_bounds():
    dim = 3
    prof_for = lambda N: VarianceProfile.power_log(dim, N, -1.0, -1.0)
    t_grid = geometric_grid(1e-1, 1e-4, 40)
    rep = verify_EZt_bounds(prof_for, dim, [16, 32, 64], t_grid)
    ok = rep.upper_spread < 2.0 and rep.lower_spread < 2.0 \
        and all(v is not None and v > 0 for v in rep.lower_ratio.values())
    report(3, ok, f"upper spread {rep.upper_spread:.3f}, "
           f"lower spread {rep.lower_spread:.3f} (both < 2 required)")


# -- 4: drift envelopes and weighted integrals ---------------------------------

def test_criterion_4_drift_bounds():
    prof_for = lambda N: VarianceProfile.white(N)
    t_grid = geometric_grid(1e-1, 1e-4, 40)
    direction = np.array([-2.0, 0.0])
    rep = verify_It_bounds(prof_for, 1, direction, [16, 32, 64, 128, 256],
                           t_grid)
    spreads = {abp: max(d.values()) / min(d.values())
               for abp, d in rep.integral_ratio.items()}
    ok = rep.upper_spread < 2.0 and all(s < 3.0 for s in spreads.values())
    detail = ", ".join(f"integral{abp} spread {s:.2f}"
                       for abp, s in sorted(spreads.items()))
    report(4, ok, f"envelope spread {rep.upper_spread:.3f} (< 2), {detail} (< 3)")


# -- 5: moment flatness --------------------------------------------------------

@pytest.mark.slow
def test_criterion_5_moment_flatness():
    prof_for = lambda N: VarianceProfile.white(N)
    radii = [32, 64, 128]
    trials = 200
    flat_params = ParameterSet(delta=0.95, beta=-0.5, eta=-0.55)
    grow_params = ParameterSet(delta=0.8, beta=-0.5, eta=-0.55)
    dec = moment_experiment_decorrelated(prof_for, 1, flat_params, trials,
                                         radii, SEED)
    zexp = moment_experiment_Z(prof_for, 1, flat_params, trials, radii, SEED)
    pos = moment_experiment_decorrelated(prof_for, 1, grow_params, trials,
                                         radii, SEED, remove_mean=False)
    ok = abs(dec.slope) < 0.05 and abs(zexp.slope) < 0.05 and pos.slope > 0.2
    report(5, ok, f"mean-free slope {dec.slope:+.3f}, centred-Z slope "
           f"{zexp.slope:+.3f} (|.| < 0.05), positive control "
           f"{pos.slope:+.3f} (> 0.2)")


# -- 6 & 7: inflation mechanism and remainder tracking -------------------------

@pytest.fixture(scope="module")
def inflation_summary():
    cfg = ExperimentConfig.from_dict({
        "kind": "inflate", "seed": SEED, "grid": {"dim": 1},
        "profile": {"kind": "white"},
        "nonlinearity": {"preset": "antisym2"},
        "experiment": {"radii": [64, 256, 1024], "trials": 100,
                       "log_exponent": 4},
    })
    return run_inflation(cfg)


@pytest.mark.slow
def test_criterion_6_inflation(inflation_summary):
    s = inflation_summary
    adv = [s["per_radius"][N]["adversarial_median"] for N in s["radii"]]
    ctl = [s["per_radius"][N]["control_median"] for N in s["radii"]]
    ratio_top = s["per_radius"][1024]["ratio"]
    increasing = all(b > a for a, b in zip(adv, adv[1:]))
    ctl_spread = max(ctl) / min(ctl)
    ok = increasing and ctl_spread < 1.5 and ratio_top > 2.0
    report(6, ok, f"adversarial medians {[round(v, 2) for v in adv]} "
           f"(increasing={increasing}), control spread {ctl_spread:.3f} "
           f"(< 1.5), ratio at N=1024 {ratio_top:.2f} (> 2)")
    verdict = inflation_verdict(s)
    assert all(verdict.values()), verdict


@pytest.mark.slow
def test_criterion_7_remainder(inflation_summary):
    s = inflation_summary
    rem = [s["per_radius"][N]["remainder_median"] for N in s["radii"]]
    drift = [s["per_radius"][N]["drift_final_median"] for N in s["radii"]]
    rem_spread = max(rem) / min(rem)
    growing = all(b > a for a, b in zip(drift, drift[1:]))
    ok = rem_spread < 1.5 and growing
    report(7, ok, f"remainder medians {[round(v, 2) for v in rem]} "
           f"spread {rem_spread:.3f} (< 1.5), |I_T| medians "
           f"{[round(v, 2) for v in drift]} growing={growing}")
    verdict = inflation_verdict(s)
    assert all(verdict.values()), verdict


# -- 8: convergence dichotomy --------------------------------------------------

@pytest.mark.slow
def test_criterion_8_besov_dichotomy():
    radii = [16, 32, 64, 128, 256, 512, 1024]
    base = {
        "kind": "besov", "seed": SEED, "grid": {"dim": 1},
        "experiment": {"radii": radii, "trials": 50,
                       "reference_radius": 2048, "alpha": -0.5, "q": "inf"},
    }

    def run(theta, eta, q):
        doc = dict(base)
        doc["profile"] = {"kind": "powerlog", "log_theta": theta,
                          "loglog_eta": eta}
        doc["experiment"] = {**base["experiment"], "q": q}
        return run_besov_convergence(ExperimentConfig.from_dict(doc))

    logcase = run(-1.0, -1.0, "inf")
    control = run(0.0, 0.0, "inf")
    strong = run(-2.0, 0.0, 4)
    ok = logcase["decreasing"] and strong["decreasing"] \
        and not control["decreasing"] and control["spread"] < 1.3
    report(8, ok, f"theta=-1 decreasing={logcase['decreasing']}, "
           f"theta=0 control spread {control['spread']:.3f} (< 1.3, flat), "
           f"theta=-2 q=4 decreasing={strong['decreasing']}")


# -- 9: solver orders ----------------------------------------------------------

def test_criterion_9_solver_order():
    spec = preset_dym(2)
    rng = np.random.default_rng(SEED)
    x0 = 0.5 * rng.standard_normal(spec.dim_E)
    grid = TorusGrid(2, 5, 10)
    u0 = SpectralField.constant(grid, x0)
    T = 0.5
    ref = solve(u0, spec, SolveConfig(T, 2048)).zero_mode_path[-1]
    errs = [np.max(np.abs(solve(u0, spec, SolveConfig(T, n)).zero_mode_path[-1]
                          - ref))
            for n in (16, 32, 64)]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]

    lin_grid = TorusGrid(1, 17)
    prof = VarianceProfile.white(8)
    w = sample_real_gfs(prof, lin_grid, stream(SEED, 9))
    traj = solve(w, NonlinearitySpec.from_parts(1, 1), SolveConfig(0.3, 5))
    lin_err = float(np.max(np.abs(traj.fields[-1].coeffs - w.heat(0.3).coeffs)))
    ok = min(orders) >= 1.8 and lin_err < 1e-10
    report(9, ok, f"ETD-RK2 observed orders {[round(o, 2) for o in orders]} "
           f"(>= 1.8), linear-flow defect {lin_err:.2e} (< 1e-10)")


# -- 10: byte-identical tables across thread counts ----------------------------

def test_criterion_10_determinism(tmp_path):
    doc = {
        "kind": "tables", "seed": SEED, "grid": {"dim": 1},
        "profile": {"kind": "white"},
        "nonlinearity": {"preset": "antisym2"},
        "experiment": {"radii": [8, 16], "trials": 6,
                       "t_min": 1e-3, "t_max": 1e-1},
    }
    res = {}
    for threads in (1, 3):
        cfg = ExperimentConfig.from_dict({**doc, "threads": threads})
        out = tmp_path / f"threads{threads}"
        res[threads] = run_tables(cfg, out)
    names = ("ez_bounds.csv", "it_bounds.csv", "it_integral.csv",
             "moments.csv", "partition.csv", "flags.csv")
    same = all((tmp_path / "threads1" / n).read_bytes()
               == (tmp_path / "threads3" / n).read_bytes() for n in names)
    report(10, same, f"{len(names)} CSVs byte-identical for threads in (1, 3)")
