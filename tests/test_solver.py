"""ETD-RK2 solver: exactness, order, consistency checks."""

import math
import warnings

import numpy as np
import pytest

from nlheat.besov import besov_norms
from nlheat.field import SpectralField, TorusGrid, dealias_points
from nlheat.nonlinearity import NonlinearitySpec, preset
from nlheat.sampling import VarianceProfile, sample_real_gfs, stream
from nlheat.solver import (SolveConfig, _phi, nonlinear_rhs_coeffs,
                           remainder_norms, solve)

from spec_helpers import (evaluate_rhs_nonlinear, full_cube_solve, permuted,
                          phi1_reference, phi2_reference, picard_nonlinearity)


def zero_spec(dim, dim_E):
    return NonlinearitySpec.from_parts(dim, dim_E)


def random_real(grid, components=1, seed=0):
    prof = VarianceProfile.white(grid.half_band)
    parts = [sample_real_gfs(prof, grid, stream(seed, c))
             for c in range(components)]
    return SpectralField.from_components(parts)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolveConfig(t_end=0.0, steps=4)
        with pytest.raises(ValueError):
            SolveConfig(t_end=1.0, steps=0)
        with pytest.raises(ValueError):
            SolveConfig(t_end=1.0, steps=4, blowup_threshold=-1.0)


class TestMismatch:
    """A spec for another dimension or component count fails loudly."""

    def test_dimension(self):
        grid = TorusGrid(3, 5, 10)
        coeffs = np.zeros((2,) + grid.mode_shape, complex)
        with pytest.raises(ValueError, match="dimension mismatch"):
            nonlinear_rhs_coeffs(coeffs, grid, preset("antisym2", 1))
        with pytest.raises(ValueError, match="dimension mismatch"):
            solve(SpectralField(grid, coeffs), preset("antisym2", 1),
                  SolveConfig(0.1, 2))

    def test_components(self):
        grid = TorusGrid(1, 9)
        coeffs = np.zeros((3,) + grid.mode_shape, complex)
        with pytest.raises(ValueError, match="component mismatch"):
            nonlinear_rhs_coeffs(coeffs, grid, preset("antisym2", 1))
        with pytest.raises(ValueError, match="component mismatch"):
            solve(SpectralField(grid, coeffs), preset("antisym2", 1),
                  SolveConfig(0.1, 2))


class TestLinearFlow:
    @pytest.mark.parametrize("steps", [1, 7])
    def test_heat_flow_exact(self, steps):
        grid = TorusGrid(2, 9)
        u0 = random_real(grid, components=2, seed=1)
        T = 0.3
        traj = solve(u0, zero_spec(2, 2), SolveConfig(T, steps))
        expect = u0.heat(T).coeffs
        assert np.max(np.abs(traj.fields[-1].coeffs - expect)) < 1e-10

    def test_snapshot_times(self):
        grid = TorusGrid(1, 5)
        u0 = random_real(grid, seed=2)
        cfg = SolveConfig(1.0, 10, snapshot_times=(0.5,))
        traj = solve(u0, zero_spec(1, 1), cfg)
        assert traj.times == [0.0, 0.5, 1.0]


class TestOrders:
    def run_linear_ode(self, steps):
        # P(u) = -u with constant data c: exact solution c e^{-T}
        grid = TorusGrid(1, 5)
        spec = NonlinearitySpec.from_parts(1, 1, p1=-np.eye(1))
        u0 = SpectralField.constant(grid, [1.0])
        T = 1.0
        traj = solve(u0, spec, SolveConfig(T, steps))
        return abs(traj.zero_mode_path[-1][0] - math.exp(-T))

    def test_etdrk2_second_order(self):
        errs = [self.run_linear_ode(n) for n in (16, 32, 64)]
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.8, (errs, orders)

    def test_etdrk2_order_on_cubic_ode(self):
        # dym constant-data reduction against a fine reference
        spec = preset("dym", 2)
        rng = np.random.default_rng(4)
        x0 = 0.5 * rng.standard_normal(spec.dim_E)
        grid = TorusGrid(2, 5, 10)
        u0 = SpectralField.constant(grid, x0)
        T = 0.5
        ref = solve(u0, spec, SolveConfig(T, 2048)).zero_mode_path[-1]
        errs = []
        for n in (16, 32, 64):
            z = solve(u0, spec, SolveConfig(T, n)).zero_mode_path[-1]
            errs.append(np.max(np.abs(z - ref)))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.8, (errs, orders)


class TestConsistency:
    def test_hoisted_invariants_are_bit_identical(self):
        """h * phi1 and h * phi2 are computed once per solve; Python groups
        h * phi1 * n0 as (h * phi1) * n0, so the path is bit-identical to
        the per-step update formula below."""
        grid = TorusGrid(1, 129)
        u0 = random_real(grid, components=2, seed=12)
        spec = preset("antisym2", 1)
        cfg = SolveConfig(20 * 0.5 / 64 ** 2, 20)
        h = cfg.t_end / cfg.steps
        z = -grid.k_squared * h
        decay, phi1, phi2 = np.exp(z), phi1_reference(z), phi2_reference(z)
        u, path = u0.coeffs.copy(), [u0.coeffs[:, grid.half_band].real]
        for _ in range(cfg.steps):
            n0, _ = nonlinear_rhs_coeffs(u, grid, spec)
            stage = decay * u + h * phi1 * n0
            n1, _ = nonlinear_rhs_coeffs(stage, grid, spec)
            u = stage + h * phi2 * (n1 - n0)
            path.append(u[:, grid.half_band].real)
        traj = solve(u0, spec, cfg)
        assert traj.status == "completed"
        assert np.array_equal(traj.zero_mode_path, np.array(path))

    def test_one_expm1_phi_equals_masked_references(self):
        # h phi1 and h phi2 at z = -|k|^2 h on the grids of the solves, and
        # at z = 0, either side of the Taylor switch |z| = 1e-6 and beyond
        edge = np.nextafter(1e-6, 1.0)
        special = np.array([0.0, -0.0, 1e-300, -1e-300, 5e-7, -5e-7, 1e-6, -1e-6,
                            edge, -edge, 2e-6, -2e-6, 1e-3, -1.0, 1.0, -40.0, -800.0])
        cases = [(special, 1.0)] + [(-grid.k_squared[..., grid.half_band:] * h, h)
                                    for grid in (TorusGrid(1, 2049), TorusGrid(2, 17),
                                                 TorusGrid(3, 9))
                                    for h in (1e-7, 2.4e-7, 1e-4, 0.3)]
        assert any(np.any((z != 0) & (np.abs(z) <= 1e-6)) for z, _ in cases[1:])
        for z, h in cases:
            hphi1, hphi2 = _phi(z, h)
            assert np.array_equal(hphi1, h * phi1_reference(z))
            assert np.array_equal(hphi2, h * phi2_reference(z))
        phi1, phi2 = _phi(special, 1.0)
        assert phi1[0] == phi1[1] == 1.0 and phi2[0] == phi2[1] == 0.5

    @pytest.mark.parametrize("case", ["d1-controlled", "d1-fixed", "d1-blowup",
                                      "d2-dymh", "d3-dym"])
    def test_half_cube_solve_is_bit_identical_to_full_cube_loop(self, case):
        """``solve`` steps the k_d >= 0 half cube and mirrors each snapshot;
        the reference steps the whole cube, the k_d < 0 half included."""
        name, dim, modes, scale = {
            "d1-controlled": ("antisym2", 1, 129, 1.0),
            "d1-fixed": ("antisym2", 1, 129, 1.0),
            "d2-dymh": ("dymh", 2, 9, 0.3),
            "d3-dym": ("dym", 3, 7, 0.3)}.get(case, (None, 1, 5, 0.0))
        if name:
            spec = preset(name, dim)
            grid = TorusGrid(dim, modes, dealias_points(modes, spec.has_cubic(), dim))
            u0 = random_real(grid, spec.dim_E, seed=dim)
            u0 = SpectralField(grid, scale * u0.coeffs)
        else:   # du/dt = u^2 from 1e160: every stage overflows, h shrinks to 0
            spec = NonlinearitySpec.from_parts(1, 1, p2=np.ones((1, 1, 1)))
            u0 = SpectralField.constant(TorusGrid(1, 5), [1e160])
        t_end = 0.02 if dim == 1 else 0.1
        cfg = SolveConfig(t_end, 8, snapshot_times=(0.3 * t_end, 0.6 * t_end),
                          blowup_threshold=math.inf if name is None else 1e8,
                          tol=None if case == "d1-fixed" else 1e-3)
        got, want = solve(u0, spec, cfg), full_cube_solve(u0, spec, cfg)
        assert got.status == want.status
        assert (got.status == "blewup") == (name is None)
        assert got.blowup_time == want.blowup_time and got.times == want.times
        assert np.array_equal(got.zero_mode_times, want.zero_mode_times)
        assert np.array_equal(got.zero_mode_path, want.zero_mode_path)
        assert (got.sup_max, got.steps, got.rejected, got.h_min) \
            == (want.sup_max, want.steps, want.rejected, want.h_min)
        assert len(got.fields) == len(want.fields) >= 1 + (got.status == "completed")
        for a, b in zip(got.fields, want.fields):
            assert np.array_equal(a.coeffs, b.coeffs)
            assert a.reality_defect() == 0

    def test_zero_mode_ode(self):
        """Finite-difference derivative of the zero-mode path equals the
        recorded nonlinear RHS zero mode within 1% at mid-trajectory."""
        grid = TorusGrid(1, 33)
        u0 = random_real(grid, components=2, seed=6)
        spec = preset("antisym2", 1)
        steps = 400
        T = 0.02
        mid = T / 2
        cfg = SolveConfig(T, steps, snapshot_times=(mid,))
        traj = solve(u0, spec, cfg)
        h = T / steps
        k = steps // 2
        fd = (traj.zero_mode_path[k + 1] - traj.zero_mode_path[k - 1]) / (2 * h)
        u_mid = traj.fields[traj.times.index(mid)]
        rhs = evaluate_rhs_nonlinear(u_mid, spec).zero_mode()
        rel = np.linalg.norm(fd - rhs) / np.linalg.norm(rhs)
        assert rel < 0.01, rel

    def test_permutation_equivariance(self):
        grid = TorusGrid(1, 17)
        u0 = random_real(grid, components=2, seed=7)
        spec = preset("antisym2", 1)
        perm = np.array([1, 0])
        cfg = SolveConfig(0.05, 50)
        a = solve(SpectralField(grid, u0.coeffs[perm]), permuted(spec, perm), cfg)
        b = solve(u0, spec, cfg)
        assert np.max(np.abs(a.fields[-1].coeffs - b.fields[-1].coeffs[perm])) < 1e-12

    def test_truncation_consistency(self):
        """Data band-limited well inside the cube: enlarging the working
        band leaves the trajectory unchanged (dealiasing sufficiency)."""
        small = TorusGrid(1, 17)
        big = TorusGrid(1, 33)
        u0s = SpectralField(
            small, 0.02 * random_real(small, components=2, seed=8).project_band(4).coeffs)
        K_small, K_big = small.half_band, big.half_band
        pad = K_big - K_small
        coeffs = np.zeros((2, 33), complex)
        coeffs[:, pad:pad + 17] = u0s.coeffs
        u0b = SpectralField(big, coeffs)
        spec = preset("antisym2", 1)
        cfg = SolveConfig(0.05, 100)
        a = solve(u0s, spec, cfg).fields[-1].coeffs
        b = solve(u0b, spec, cfg).fields[-1].coeffs[:, pad:pad + 17]
        assert np.max(np.abs(a - b)) < 1e-8

    def test_blowup_detected(self):
        # du/dt = u^2 from u(0) = 5 blows up at t = 0.2
        grid = TorusGrid(1, 5)
        p2 = np.ones((1, 1, 1))
        spec = NonlinearitySpec.from_parts(1, 1, p2=p2)
        u0 = SpectralField.constant(grid, [5.0])
        traj = solve(u0, spec, SolveConfig(0.5, 2000, blowup_threshold=1e6))
        assert traj.status == "blewup"
        assert traj.blowup_time is not None and traj.blowup_time < 0.3
        assert traj.times[-1] <= traj.blowup_time + 1e-12
        assert traj.steps == round(traj.blowup_time / (0.5 / 2000))
        assert traj.sup_max > 1e6

    @pytest.mark.parametrize("tol", [None, 1e-3])
    def test_overflowing_blowup_raises_no_warning(self, tol):
        # u^2 overflows and the transforms see inf: the solve records a
        # blow-up and prints none of numpy's floating-point warnings
        spec = NonlinearitySpec.from_parts(1, 1, p2=np.ones((1, 1, 1)))
        u0 = SpectralField.constant(TorusGrid(1, 5), [1e160])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = solve(u0, spec, SolveConfig(0.5, 20, blowup_threshold=math.inf,
                                               tol=tol))
        assert traj.status == "blewup"

    def test_overflowing_blowup_keeps_sup_max_finite(self, monkeypatch):
        # du/dt = u^2 from u(0) = 1e160: u^2 overflows, so the stage is
        # non-finite and its sup|u| is inf or NaN
        import nlheat.solver as solver_module
        seen, rhs = [], solver_module._rhs

        def recording_rhs(*args):
            out = rhs(*args)
            seen.append(out[1])
            return out

        monkeypatch.setattr(solver_module, "_rhs", recording_rhs)
        spec = NonlinearitySpec.from_parts(1, 1, p2=np.ones((1, 1, 1)))
        u0 = SpectralField.constant(TorusGrid(1, 5), [1e160])
        traj = solve(u0, spec, SolveConfig(0.5, 20, blowup_threshold=math.inf))
        assert traj.status == "blewup" and traj.steps == 0
        assert len(seen) == 2 and not np.isfinite(seen[1])
        assert traj.sup_max == seen[0] == pytest.approx(1e160)

    def test_health_of_a_completed_solve(self):
        grid = TorusGrid(1, 33)
        u0 = random_real(grid, components=2, seed=4)
        traj = solve(u0, preset("antisym2", 1), SolveConfig(0.01, 7))
        assert traj.status == "completed" and traj.steps == 7
        assert isinstance(traj.steps, int)
        sup0 = nonlinear_rhs_coeffs(u0.coeffs, grid, preset("antisym2", 1))[1]
        assert traj.sup_max >= sup0 > 0

    def test_one_checked_layout_per_solve(self, monkeypatch):
        import nlheat.solver as solver_module
        calls, layout = [], solver_module._layout
        monkeypatch.setattr(solver_module, "_layout",
                            lambda *a: calls.append(1) or layout(*a))
        u0 = random_real(TorusGrid(1, 33), components=2, seed=4)
        traj = solve(u0, preset("antisym2", 1), SolveConfig(0.01, 7))
        assert traj.steps == 7 and len(calls) == 1


class TestController:
    """Step-size control (``SolveConfig.tol`` set)."""

    def test_heat_flow_exact_and_no_sliver(self, monkeypatch):
        # N = 0: every error estimate is 0, so h doubles from 1/16 and the
        # 9/16 left after 7/16 is split in two, not taken as 8/16 + 1/16
        import nlheat.solver as solver_module
        monkeypatch.setattr(solver_module, "START_FRACTION", 0.25)
        grid = TorusGrid(2, 9)
        u0 = random_real(grid, components=2, seed=1)
        traj = solve(u0, zero_spec(2, 2), SolveConfig(1.0, 4, tol=1e-3))
        assert traj.status == "completed" and traj.rejected == 0
        assert list(traj.zero_mode_times) == [0, 1 / 16, 3 / 16, 7 / 16,
                                              7 / 16 + 9 / 32, 1.0]
        assert traj.h_min == 1 / 16
        expect = u0.heat(1.0).coeffs
        assert np.max(np.abs(traj.fields[-1].coeffs - expect)) < 1e-10

    def test_snapshots_at_nearest_accepted_boundary(self):
        grid = TorusGrid(1, 33)
        u0 = random_real(grid, components=2, seed=3)
        T = 0.01
        asked = (-1.0, 0.0, 1e-4, 2e-4, 2.5e-4, 1e-3, 3e-3, 7e-3, T, 2 * T)
        traj = solve(u0, preset("antisym2", 1),
                     SolveConfig(T, 8, snapshot_times=asked, tol=1e-3))
        bounds = traj.zero_mode_times
        assert traj.status == "completed" and traj.steps > 8
        assert bounds[-1] == T

        def nearest(s):     # the earlier boundary on a tie
            return bounds[np.argmin(np.abs(bounds - min(max(s, 0.0), T)))]

        assert traj.times == sorted({0.0, T, *(nearest(s) for s in asked)})
        assert len(set(traj.times)) == len(traj.times)
        for t, f in zip(traj.times, traj.fields):
            k = list(bounds).index(t)
            assert np.array_equal(f.coeffs[grid.zero_mode_index].real,
                                  traj.zero_mode_path[k])

    def test_rejection_leaves_u_untouched(self, monkeypatch):
        # a tight tol refuses the first step; the accepted one is then the
        # fixed ETD-RK2 step of the new size from the same u and N(u)
        import nlheat.solver as solver_module
        calls, rhs = [], solver_module._rhs
        monkeypatch.setattr(solver_module, "_rhs",
                            lambda *a: calls.append(1) or rhs(*a))
        grid = TorusGrid(1, 33)
        u0 = random_real(grid, components=2, seed=5)
        spec = preset("antisym2", 1)
        first = solve(u0, spec, SolveConfig(0.01, 1, tol=1e-6))
        assert first.rejected >= 1 and first.status == "completed"
        assert len(calls) == 2 * first.steps + first.rejected
        h = first.zero_mode_times[1]
        again = solve(u0, spec, SolveConfig(0.01, 1, snapshot_times=(h,),
                                            tol=1e-6))
        fixed = solve(u0, spec, SolveConfig(h, 1))
        assert again.times[1] == h
        assert np.array_equal(again.fields[1].coeffs, fixed.fields[-1].coeffs)
        assert first.h_min <= h

    def test_matches_fine_fixed_reference(self):
        grid = TorusGrid(1, 65)
        u0 = random_real(grid, components=2, seed=6)
        spec = preset("antisym2", 1)
        T = 0.02
        ref = solve(u0, spec, SolveConfig(T, 4000)).fields[-1].coeffs
        errs = {}
        for tol in (1e-2, 1e-3):
            traj = solve(u0, spec, SolveConfig(T, 10, tol=tol))
            errs[tol] = np.max(np.abs(traj.fields[-1].coeffs - ref)) \
                / np.max(np.abs(ref))
        assert errs[1e-3] < 1e-3 and errs[1e-3] < errs[1e-2], errs

    def test_non_advancing_step_is_a_blowup(self):
        # du/dt = u^2 from 1e160: N(u) overflows, so every stage is refused
        # and h shrinks until the step no longer moves t
        spec = NonlinearitySpec.from_parts(1, 1, p2=np.ones((1, 1, 1)))
        u0 = SpectralField.constant(TorusGrid(1, 5), [1e160])
        traj = solve(u0, spec, SolveConfig(0.5, 20, blowup_threshold=math.inf,
                                           tol=1e-3))
        assert traj.status == "blewup" and traj.steps == 0
        assert traj.blowup_time == 0.0 and traj.rejected > 100
        assert 0 < traj.h_min < 1e-300
        assert traj.sup_max == pytest.approx(1e160)

    def test_tol_must_be_positive(self):
        for tol in (0.0, -1e-3, float("nan")):
            with pytest.raises(ValueError, match="tol"):
                SolveConfig(1.0, 4, tol=tol)


class TestPicard:
    def test_matches_rhs_of_heat_flow(self):
        grid = TorusGrid(1, 17)
        u0 = random_real(grid, components=2, seed=9)
        spec = preset("antisym2", 1)
        t = 0.01
        got = picard_nonlinearity(u0, t, spec)
        quad = NonlinearitySpec.from_parts(1, 2, B=spec.B)
        expect = evaluate_rhs_nonlinear(u0.heat(t), quad)
        assert np.max(np.abs(got.coeffs - expect.coeffs)) < 1e-14

    def test_zero_bilinear(self):
        grid = TorusGrid(1, 9)
        u0 = random_real(grid, seed=10)
        spec = zero_spec(1, 1)
        assert np.max(np.abs(picard_nonlinearity(u0, 0.1, spec).coeffs)) == 0.0

    def test_requires_positive_time(self):
        grid = TorusGrid(1, 9)
        with pytest.raises(ValueError):
            picard_nonlinearity(random_real(grid), 0.0, zero_spec(1, 1))


def snapshot_remainder_norms(trajectory, u0, drift, alpha):
    """Reference for ``remainder_norms``: one Hoelder norm per snapshot."""
    grid, norms = u0.grid, []
    for t, f in zip(trajectory.times, trajectory.fields):
        coeffs = f.coeffs - u0.heat(t).coeffs
        coeffs[grid.zero_mode_index] -= np.asarray(drift(t), dtype=complex)
        norms.append(besov_norms(coeffs[None], grid, alpha)[0])
    return np.asarray(norms)


class TestRemainder:
    def test_linear_flow_zero_remainder(self):
        grid = TorusGrid(1, 9)
        u0 = random_real(grid, seed=11)
        traj = solve(u0, zero_spec(1, 1), SolveConfig(0.2, 20))
        for norms_of in (remainder_norms, snapshot_remainder_norms):
            assert np.max(norms_of(traj, u0, lambda t: np.zeros(1), -0.25)) < 1e-10

    @pytest.mark.parametrize("dim, modes, spec", [
        (1, 33, preset("antisym2", 1)), (2, 5, preset("dym", 2))], ids=["antisym2", "dym"])
    def test_stacked_norms_equal_per_snapshot_norms(self, dim, modes, spec):
        grid = TorusGrid(dim, modes, 2 * modes)
        u0 = SpectralField(grid, 0.3 * random_real(grid, spec.dim_E, seed=12).coeffs)
        T = 0.05
        traj = solve(u0, spec, SolveConfig(T, 8, snapshot_times=(T / 4, T / 2)))
        assert traj.status == "completed" and len(traj.times) == 4
        direction = np.arange(1.0, spec.dim_E + 1)
        drift = lambda t: 7.0 * t * direction
        assert np.array_equal(remainder_norms(traj, u0, drift, -0.4),
                              snapshot_remainder_norms(traj, u0, drift, -0.4))

    def test_quadrature_oracle(self):
        """Small two-mode data: the remainder is the Duhamel integral of the
        first Picard term up to O(|u0|^3); compare against 64-node quadrature."""
        grid = TorusGrid(1, 17)
        K = grid.half_band
        eps = 1e-3
        coeffs = np.zeros((2, 17), complex)
        coeffs[0, K + 1] = coeffs[0, K - 1] = 0.5 * eps
        coeffs[1, K + 2] = coeffs[1, K - 2] = 0.5 * eps
        u0 = SpectralField(grid, coeffs)
        spec = preset("antisym2", 1)
        T = 0.1
        traj = solve(u0, spec, SolveConfig(T, 400, snapshot_times=(T,)))
        got = traj.fields[-1].coeffs - u0.heat(T).coeffs

        nodes = 64
        s = (np.arange(nodes) + 0.5) * T / nodes
        duhamel = np.zeros_like(coeffs)
        for sj in s:
            term = picard_nonlinearity(u0, sj, spec)
            duhamel += term.heat(T - sj).coeffs * (T / nodes)
        scale = np.max(np.abs(duhamel))
        assert np.max(np.abs(got - duhamel)) < 1e-3 * scale + eps ** 3
