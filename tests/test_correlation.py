"""Drift quantities: exact sums, identities, quadrature, statistics."""

import itertools
import math
import os
from pathlib import Path
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

import nlheat
from nlheat.besov import besov_norms
from nlheat.correlation import (ParameterSet, _quantile, compute_Zt,
                                decorrelated_statistic, drift_scalar,
                                expected_Zt, geometric_grid,
                                graded_quadrature_nodes, mode_weight_table,
                                trend_slope, weighted_drift_integral)
from nlheat.field import SpectralField, TorusGrid, pointwise_product
from nlheat.sampling import VarianceProfile, sample_real_gfs, stream
from spec_helpers import Z_variance


class TestParameterSet:
    def test_defaults_admissible(self):
        ps = ParameterSet().check_dim(1)
        assert -0.5 < ps.beta_hat < 0.0

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            ParameterSet(delta=0.875, beta=0.1, eta=-0.55)

    def test_invalid_eta_sum(self):
        with pytest.raises(ValueError):
            ParameterSet(delta=0.875, beta=-0.7, eta=-0.55)

    def test_dim_constraint(self):
        # delta = 0.7 is admissible in d = 2 (bound 1 - d/4 = 0.5) but not d = 1
        ps = ParameterSet(delta=0.7, beta=-0.8, eta=-0.55)
        ps.check_dim(2)
        with pytest.raises(ValueError):
            ps.check_dim(1)


class TestExactSums:
    def test_white_d1_closed_form(self):
        # d = 1, sigma^2 = 1, N = 2, t = 0: 2*1 + 2*2 = 6
        prof = VarianceProfile.white(2)
        assert expected_Zt(prof, 1, 0.0) == 6.0

    def test_single_conjugate_pair(self):
        # X_1 = X_{-1} = 1 in d = 1: Z_t = 2 e^{-2t}
        grid = TorusGrid(1, 5)
        coeffs = np.zeros((1, 5), complex)
        coeffs[0, 3] = coeffs[0, 1] = 1.0
        X = SpectralField(grid, coeffs)
        for t in (0.0, 0.3, 1.0):
            assert abs(compute_Zt(X, t) - 2.0 * math.exp(-2 * t)) < 1e-14

    def test_modes_on_hyperplane_contribute_nothing(self):
        grid = TorusGrid(2, 5)
        K = grid.half_band
        coeffs = np.zeros((1, 5, 5), complex)
        coeffs[0, K, K + 1] = coeffs[0, K, K - 1] = 1.0   # n_1 = 0
        assert compute_Zt(SpectralField(grid, coeffs), 0.1) == 0.0

    def test_bucketing_matches_direct_lattice_d3(self):
        prof = VarianceProfile.of_kind("powerlog", 3, 5)
        t = 0.07
        direct = 0.0
        for n1 in range(-5, 6):
            for n2 in range(-5, 6):
                for n3 in range(-5, 6):
                    r2 = n1 * n1 + n2 * n2 + n3 * n3
                    if n1 > 0 and r2 <= 25:
                        direct += 2 * n1 * math.exp(-2 * r2 * t) \
                            * prof.sigma2_from_r2(np.array(float(r2)))
        got = expected_Zt(prof, 3, t)
        assert abs(got - direct) < 1e-12 * (1 + direct)

    @pytest.mark.parametrize("dim, radius", [(1, 1), (1, 7), (2, 4), (2, 6),
                                             (3, 3), (3, 5), (4, 3)])
    def test_weight_table_matches_direct_lattice(self, dim, radius):
        # exact: the weights are integer sums times sigma^2 at each n^2
        prof = VarianceProfile.of_kind("powerlog", dim, radius)
        counts = {}
        for n in itertools.product(range(-radius, radius + 1), repeat=dim):
            r2 = sum(x * x for x in n)
            if n[0] > 0 and r2 <= radius * radius:
                counts[r2] = counts.get(r2, 0) + 2 * n[0]
        keys = sorted(counts)
        want = np.array([counts[k] for k in keys], float) \
            * prof.sigma2_from_r2(np.array(keys, float))
        s, w = mode_weight_table(prof, dim, radius)
        assert s.tolist() == keys
        assert np.array_equal(w, want)

    def test_d1_weight_table_is_built_from_n1(self):
        # N entries are non-zero at d = 1: no dense array of N^2 + 1 floats
        prof = VarianceProfile.white(4096)
        tracemalloc.start()
        try:
            s, w = mode_weight_table.__wrapped__(prof, 1, 4096)   # uncached
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(s) == len(w) == 4096
        assert peak < 8 * 2 ** 20

    def test_monotone_decreasing_convex(self):
        prof = VarianceProfile.white(8)
        t = np.linspace(0.0, 1.0, 50)
        ez = expected_Zt(prof, 1, t)
        d1 = np.diff(ez)
        assert np.all(d1 < 0)
        assert np.all(np.diff(d1) > 0)

    def test_identity_against_spectral_product(self):
        # compute_Zt = Pi_0(P_t R X . d_1 P_t X) to 1e-10
        grid = TorusGrid(2, 9)
        prof = VarianceProfile.white(4)
        for trial in range(5):
            X = sample_real_gfs(prof, grid, stream(13, trial))
            t = 0.03 * (trial + 1)
            lhs = compute_Zt(X, t)
            Xt = X.heat(t)
            rhs = float(pointwise_product(Xt.rotate(),
                                          Xt.derivative(0)).zero_mode()[0])
            assert abs(lhs - rhs) < 1e-10 * (1 + abs(lhs))


class TestDrift:
    def test_zero_at_time_zero(self):
        prof = VarianceProfile.white(4)
        assert drift_scalar(prof, 1, 0.0) == 0.0

    def test_one_mode_limit(self):
        # single shell |n| = 1, sigma^2 = 1: I_infty = direction * 1 in d = 1
        prof = VarianceProfile.white(1)
        direction = np.array([3.0, -1.0])
        I = drift_scalar(prof, 1, 50.0) * direction
        assert np.max(np.abs(I - direction)) < 1e-12

    def test_derivative_is_expected_Z(self):
        prof = VarianceProfile.white(8)
        t, h = 0.05, 1e-6
        fd = (drift_scalar(prof, 1, t + h) - drift_scalar(prof, 1, t - h)) / (2 * h)
        assert abs(fd - expected_Zt(prof, 1, t)) < 1e-4 * expected_Zt(prof, 1, t)

    def test_magnitude_nondecreasing(self):
        prof = VarianceProfile("power", 16, gamma=-1.0)
        t = np.linspace(0.0, 0.5, 40)
        mags = drift_scalar(prof, 1, t)
        assert np.all(np.diff(mags) >= 0)


class TestQuadrature:
    def test_nodes_cover_interval(self):
        s, w = graded_quadrature_nodes(0.7, 500)
        assert np.all((s > 0) & (s < 0.7))
        assert abs(np.sum(w) - 0.7) < 1e-4

    def test_beta_function_oracle(self):
        # int_0^t (t-s)^{-1/2} s^{-1/2} ds = pi for every t
        t = 0.37
        s, w = graded_quadrature_nodes(t, 4000)
        got = np.sum(w * (t - s) ** -0.5 * s ** -0.5)
        assert abs(got - math.pi) < 1e-3

    def test_weighted_integral_against_quad(self):
        prof = VarianceProfile.white(8)
        direction = np.array([2.0])
        t, a, b, p = 0.2, -0.5, -0.5, 1.0

        def integrand(s):
            return (t - s) ** a * abs(drift_scalar(prof, 1, s)) * 2.0 * s ** b

        expect, _ = quad(integrand, 0, t, points=[0, t], limit=200)
        got = weighted_drift_integral(prof, 1, 8, direction, t, a, b, p,
                                      nodes=4000)
        assert abs(got - expect) < 1e-3 * expect

    def test_invalid_exponents(self):
        prof = VarianceProfile.white(4)
        with pytest.raises(ValueError):
            weighted_drift_integral(prof, 1, 4, np.ones(1), 0.1, -1.5, 0.0, 1.0)


class TestStatistics:
    def test_monte_carlo_mean_of_Z(self):
        grid = TorusGrid(1, 17)
        prof = VarianceProfile.white(8)
        t = 0.02
        vals = [compute_Zt(sample_real_gfs(prof, grid, stream(31, i)), t)
                for i in range(1000)]
        se = math.sqrt(Z_variance(prof, 1, t) / len(vals))
        assert abs(np.mean(vals) - expected_Zt(prof, 1, t)) < 5 * se

    def test_monte_carlo_variance_of_Z(self):
        grid = TorusGrid(1, 17)
        prof = VarianceProfile.white(8)
        t = 0.05
        vals = np.array([compute_Zt(sample_real_gfs(prof, grid, stream(37, i)), t)
                         for i in range(1000)])
        expect = Z_variance(prof, 1, t)
        # SE of a chi-square-like sample variance ~ sqrt(2/n) * var
        assert abs(np.var(vals, ddof=1) - expect) < 5 * math.sqrt(2.0 / 1000) * expect

    def test_decorrelated_zero_for_flat_fields(self):
        # X constant: d_i P_t Y of a constant Y vanishes
        grid = TorusGrid(1, 17)
        X = SpectralField.constant(grid, [1.0])
        Y = SpectralField.constant(grid, [2.0])
        t_grid = geometric_grid(1.0, 1e-2, 10)
        assert decorrelated_statistic(X, Y, 0, 0.875, -0.5, t_grid) == 0.0

    @pytest.mark.parametrize("dim, modes", [(1, 65), (2, 17)])
    def test_decorrelated_statistic_with_and_without_a_decay_table(self, dim, modes):
        # the moment experiment passes one exp(-t|k|^2) table to every call;
        # either way the value is the weighted max of the per-time norms
        grid = TorusGrid(dim, modes)
        prof = VarianceProfile.white(grid.half_band)
        X = sample_real_gfs(prof, grid, stream(5, dim))
        Y = X.rotate()
        t_grid = geometric_grid(1.0, 1e-3, 10)
        decay = np.exp(-np.multiply.outer(t_grid, grid.k_squared))
        got = decorrelated_statistic(X, Y, 0, 0.875, -0.5, t_grid)
        assert decorrelated_statistic(X, Y, 0, 0.875, -0.5, t_grid,
                                      decay=decay) == got
        prod = pointwise_product(SpectralField(grid, X.coeffs[0] * decay),
                                 SpectralField(grid, Y.derivative(0).coeffs[0] * decay))
        coeffs = prod.coeffs
        coeffs[grid.zero_mode_index] = 0.0
        want = np.max(t_grid ** 0.875 * besov_norms(coeffs, grid, -0.5))
        assert got == pytest.approx(want, rel=1e-9)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_quantile_matches_numpy(self):
        rng = np.random.default_rng(4)
        for n in list(range(1, 80)) * 40:
            vals = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
            if rng.random() < 0.3:
                vals = np.round(vals)                    # ties
            for bad in (np.nan, np.inf, -np.inf):
                vals[rng.random(n) < 0.03] = bad
            q = float(rng.choice([0.1, 0.5, 0.9, 0.99, rng.random()]))
            got = _quantile(vals, q)
            assert type(got) is float
            assert np.array_equal(got, np.quantile(vals, q), equal_nan=True), (vals, q)

    def test_trend_slope_exact_powers(self):
        radii = [16, 32, 64]
        means = [2.0 * N ** 0.5 for N in radii]
        assert abs(trend_slope(radii, means) - 0.5) < 1e-12

    def test_geometric_grid_shape(self):
        g = geometric_grid(1.0, 1e-3, 10)
        assert g[0] == pytest.approx(1e-3)
        assert g[-1] == pytest.approx(1.0)
        ratios = g[1:] / g[:-1]
        assert np.max(np.abs(ratios / ratios[0] - 1.0)) < 1e-10
        with pytest.raises(ValueError):
            geometric_grid(1e-3, 1.0)


@pytest.mark.parametrize("module", ["nlheat", "nlheat.cli"])
def test_import_loads_no_scipy_and_no_process_pool(module):
    # every transform is numpy.fft's; scipy.fft alone costs ~0.26 s and
    # ~19 MiB, and the process pool is imported only when threads > 1
    env = {**os.environ, "PYTHONPATH": str(Path(nlheat.__file__).parents[1])}
    code = (f"import sys, {module}; print(sorted(m for m in sys.modules if "
            "m.split('.')[0] == 'scipy' or m == 'concurrent.futures.process'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"
