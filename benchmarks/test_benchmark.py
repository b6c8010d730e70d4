"""Tests of the benchmark's own code: spans, tracing, host speed, oracles."""

import math
import signal
import time

import numpy as np
import pytest

import checks
import hostspeed
from spans import Span, Tracer, layer_metrics, outermost, self_times

from nlheat import correlation, solver
from nlheat.correlation import (drift_scalar, expected_Zt, geometric_grid,
                                verify_EZt_bounds)
from nlheat.field import TorusGrid, dealias_points
from nlheat.nonlinearity import drift_direction, preset
from nlheat.sampling import VarianceProfile


# -- span arithmetic -----------------------------------------------------------

def _spans():
    return [
        Span("experiments.run_inflation", 0.0, 10.0, -1),
        Span("solver.nonlinear_rhs_coeffs", 1.0, 4.0, 0),
        Span("field.synthesize_coeffs", 1.5, 2.0, 1, size=8),
        Span("field.analyze_values", 3.0, 3.5, 1, size=8),
        Span("besov.holder_norm", 5.0, 9.0, 0),
        Span("besov.besov_norm", 5.5, 8.5, 4),
        Span("field.synthesize_coeffs", 6.0, 8.0, 5, size=32),
    ]


def test_self_time_is_duration_minus_child_coverage():
    assert self_times(_spans()) == pytest.approx(
        [10.0 - 3.0 - 4.0, 3.0 - 0.5 - 0.5, 0.5, 0.5, 4.0 - 3.0, 3.0 - 2.0,
         2.0])


def test_self_time_counts_overlapping_children_once():
    spans = [Span("a.f", 0.0, 10.0, -1), Span("b.g", 1.0, 5.0, 0),
             Span("b.h", 3.0, 6.0, 0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0)


def test_outermost_skips_nested_spans_of_the_same_group():
    spans = _spans()
    names = ("besov.holder_norm", "besov.besov_norm")
    assert outermost(spans, names) == [spans[4]]


def test_layer_metrics_from_spans():
    m = layer_metrics(_spans())
    assert m["field.synthesize_calls"] == 2
    assert m["field.synthesize_s"] == pytest.approx(2.5)
    assert m["field.points_transformed"] == 48
    assert m["solver.rhs_calls"] == 1
    assert m["solver.rhs_s"] == pytest.approx(2.0)
    assert m["besov.holder_s"] == pytest.approx(4.0)
    assert m["besov.besov_s"] == pytest.approx(3.0)
    assert m["besov.dense_points"] == 32
    assert m["besov.batch_bytes"] == 32 * 16
    assert m["experiments.runner_self_s"] == pytest.approx(3.0)
    assert m["solver.step_s"] == 0.0


# -- tracer --------------------------------------------------------------------

def test_tracer_patches_import_sites_and_restores_them():
    original = solver.synthesize_coeffs
    original_table = correlation.mode_weight_table
    spec = preset("antisym2", 1)
    grid = TorusGrid(1, 9, dealias_points(9))
    coeffs = checks.low_mode_coeffs(np.random.default_rng(0), 2, 1, 4)
    tracer = Tracer().install()
    try:
        assert solver.synthesize_coeffs is not original
        solver.nonlinear_rhs_coeffs(coeffs, grid, spec)
        expected_Zt(VarianceProfile.white(4), 1, 0.1, radius=4)
    finally:
        tracer.uninstall()
    assert solver.synthesize_coeffs is original
    assert correlation.mode_weight_table is original_table
    names = [s.name for s in tracer.spans]
    assert names[0] == "solver.nonlinear_rhs_coeffs"
    kids = [s for s in tracer.spans if s.parent == 0]
    assert {s.name for s in kids} == {"field.synthesize_coeffs",
                                      "field.analyze_values"}
    assert all(s.size == 2 * grid.points_per_axis for s in kids
               if s.name == "field.synthesize_coeffs")
    assert "correlation.mode_weight_table" in names


# -- host-speed probe ---------------------------------------------------------

def test_probe_samples_a_busy_region_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.SpeedProbe(period_s=0.01) as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            sum(range(1000))
        wall = time.perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.samples) >= hostspeed.MIN_SAMPLES
    assert 0.0 < probe.spent_s < wall
    assert probe.speed == pytest.approx(
        hostspeed.REFERENCE_S * len(probe.samples) / sum(probe.samples))


def test_probe_samples_at_exit_when_the_region_is_too_short():
    with hostspeed.SpeedProbe(period_s=10.0) as probe:
        pass
    assert len(probe.samples) == hostspeed.MIN_SAMPLES
    assert probe.spent_s == 0.0


# -- oracles on tiny inputs ----------------------------------------------------

def test_direct_drift_matches_hand_sum_and_package():
    t = 0.1
    hand = 2.0 * sum((1.0 - math.exp(-2.0 * n * n * t)) / n
                     for n in (1, 2, 3))
    assert checks.direct_drift_final(3, t) == pytest.approx(hand, rel=1e-14)
    direction = drift_direction(preset("antisym2", 1), 0, 1)
    pkg = drift_scalar(VarianceProfile.white(3), 1, t, radius=3) \
        * np.linalg.norm(direction)
    assert checks.direct_drift_final(3, t) == pytest.approx(pkg, rel=1e-13)


def test_horizon_is_log_power():
    assert checks.horizon(1024) == pytest.approx(math.log(1024) ** -4)


def test_direct_expected_Zt_matches_package():
    hand = 2.0 * math.exp(-0.1) + 4.0 * math.exp(-0.4)
    assert checks.direct_expected_Zt(2, 0.05) == pytest.approx(hand)
    pkg = expected_Zt(VarianceProfile.white(5), 1, 0.05, radius=5)
    assert checks.direct_expected_Zt(5, 0.05) == pytest.approx(pkg, rel=1e-13)


def test_ez_upper_ratio_matches_bounds_report():
    grid = checks.tables_t_grid()
    np.testing.assert_array_equal(grid, geometric_grid(1e-1, 1e-4, 40))
    rep = verify_EZt_bounds(VarianceProfile.white, 1, [4, 8], grid,
                            log_corrected=False)
    for N in (4, 8):
        assert checks.direct_ez_upper_ratio(N, grid) == pytest.approx(
            rep.upper_ratio[N], rel=1e-12)


def test_low_mode_field_is_real():
    c = checks.low_mode_coeffs(np.random.default_rng(1), 3, 2, 3)
    np.testing.assert_allclose(c, np.conj(np.flip(c, axis=(1, 2))))
    assert np.count_nonzero(np.abs(c).sum(axis=0)) <= 9


@pytest.mark.parametrize("name,dim", [("antisym2", 1), ("dym", 3)])
def test_rhs_oracle_agrees_and_detects_a_wrong_coefficient(name, dim):
    spec = preset(name, dim)
    M = 7
    grid = TorusGrid(dim, M, dealias_points(M, cubic=spec.has_cubic()))
    rng = np.random.default_rng(2)
    coeffs = checks.low_mode_coeffs(rng, spec.dim_E, dim, grid.half_band)
    points = rng.uniform(0.0, 2.0 * np.pi, (8, dim))
    rhs, _ = solver.nonlinear_rhs_coeffs(coeffs, grid, spec)
    assert checks.rhs_defect(spec, rhs, coeffs, points) < checks.RHS_RTOL
    wrong = rhs.copy()
    wrong[(0,) + (grid.half_band,) * dim] += 1e-3 * np.abs(rhs).max()
    assert checks.rhs_defect(spec, wrong, coeffs, points) > 1e-5


def test_pooled_verdicts():
    assert checks.inflation_verdict_ok([7.0, 8.0, 9.0], [1.0, 2.0, 5.0], 7.4)
    assert not checks.inflation_verdict_ok([7.0, 8.0], [4.0, 4.5], 7.4)
    assert not checks.inflation_verdict_ok([20.0, 21.0], [1.0, 1.0], 7.4)
    assert checks.decreasing([3.0, 2.0, 1.0])
    assert not checks.decreasing([3.0, 3.0, 1.0])
    assert checks.flat([5.0, 4.5]) and not checks.flat([5.0, 3.0])
    assert checks.besov_medians([[1.0, 4.0], [3.0, 2.0], [2.0, 3.0]]) \
        == [2.0, 3.0]
