"""Gaussian Fourier series samplers: laws, reality, streams, pairs."""

import numpy as np
import pytest

from nlheat.field import TorusGrid
from nlheat.sampling import (PROFILES, GfsSpec, VarianceProfile,
                             build_adversarial_pair, half_space_mask,
                             sample_E_valued, sample_real_gfs, stream)


def reference_sigma2(p: VarianceProfile, r2) -> np.ndarray:
    """sigma^2 by one formula per kind: 1 for ``white``; the floor below
    |k| = 3, then |k|^gamma for ``power``, times (log|k|)^theta (log log|k|)^eta
    for ``powerlog``."""
    r2 = np.asarray(r2, dtype=float)
    out = np.zeros_like(r2)
    inside = r2 <= p.cutoff ** 2 + 1e-9
    if p.kind == "white":
        out[inside] = 1.0
        return out
    r = np.sqrt(r2)
    small = inside & (r < max(p.k0, 1.0))
    out[small] = p.floor
    rt = r[inside & ~small]
    vals = rt ** p.gamma
    if p.kind == "powerlog":
        vals = vals * np.log(rt) ** p.log_theta \
            * np.log(np.log(rt)) ** p.loglog_eta
    out[inside & ~small] = vals
    return out


class TestVarianceProfile:
    def test_white_inside_cutoff(self):
        p = VarianceProfile.white(4)
        assert p.sigma2_from_r2(9.0) == 1.0
        assert p.sigma2_from_r2(25.0) == 0.0

    def test_power_values(self):
        p = VarianceProfile("power", 8, gamma=-2.0)
        assert abs(p.sigma2_from_r2(16.0) - 1.0 / 16.0) < 1e-14

    def test_powerlog_floor_region(self):
        p = VarianceProfile.of_kind("powerlog", 3, 16)
        assert p.sigma2_from_r2(1.0) == p.floor
        assert p.sigma2_from_r2(4.0) == p.floor
        r = 5.0
        expect = r ** -2 * np.log(r) ** -1 * np.log(np.log(r)) ** -1
        assert abs(p.sigma2_from_r2(25.0) - expect) < 1e-14

    def test_powerlog_requires_k0_above_e(self):
        with pytest.raises(ValueError):
            VarianceProfile("powerlog", 8, gamma=-2.0, k0=2.0)
        with pytest.raises(ValueError, match="k0"):
            VarianceProfile.of_kind("powerlog", 1, 8, k0=2.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            VarianceProfile("pink", 8)
        with pytest.raises(ValueError, match="profile kind"):
            VarianceProfile.of_kind(["white"], 1, 8)

    @pytest.mark.parametrize("profile", [
        VarianceProfile.white(2048), VarianceProfile("power", 2048, gamma=-1.0),
        VarianceProfile("power", 2048, gamma=-2.0),
        *(VarianceProfile.of_kind("powerlog", d, 2048) for d in (1, 2, 3))],
        ids=["white", "power-1", "power-2", "powerlog-d1", "powerlog-d2",
             "powerlog-d3"])
    def test_one_formula_matches_the_per_kind_formulas_bit_for_bit(self, profile):
        r2 = np.arange(0.0, 3 * 2048 ** 2, 7.0)
        assert profile.sigma2_from_r2(r2).tobytes() == \
            reference_sigma2(profile, r2).tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_each_kind_takes_its_table_defaults(self, dim):
        assert VarianceProfile.of_kind("white", dim, 8) == VarianceProfile.white(8)
        assert VarianceProfile.of_kind("power", dim, 8) == \
            VarianceProfile("power", 8, gamma=1.0 - dim)
        assert VarianceProfile.of_kind("power", dim, 8, gamma=-3.0).gamma == -3.0
        assert VarianceProfile.of_kind("powerlog", dim, 8) == VarianceProfile(
            "powerlog", 8, gamma=1.0 - dim, log_theta=-1.0, loglog_eta=-1.0,
            k0=3.0, floor=1.0)
        assert set(PROFILES) == {"white", "power", "powerlog"}

    @pytest.mark.parametrize("kind, key", [("white", "gamma"), ("power", "floor"),
                                           ("powerlog", "gamma")])
    def test_keys_a_kind_does_not_set_are_rejected(self, kind, key):
        with pytest.raises(ValueError, match=f"{kind} profile.*{key}"):
            VarianceProfile.of_kind(kind, 1, 8, **{key: 1.0})


class TestHalfSpace:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_partition_of_nonzero_modes(self, dim):
        grid = TorusGrid(dim, 5)
        mask = half_space_mask(grid)
        flipped = np.flip(mask)
        M = grid.modes_per_axis
        assert int(mask.sum()) == (M ** dim - 1) // 2
        # k and -k never both selected; the zero mode in neither
        assert not np.any(mask & flipped)
        centre = (grid.half_band,) * dim
        assert not mask[centre]


class TestSampler:
    def test_reality(self):
        grid = TorusGrid(2, 9)
        X = sample_real_gfs(VarianceProfile.white(4), grid, stream(1, 0))
        assert X.is_real()
        assert np.max(np.abs(X.zero_mode().imag if np.iscomplexobj(
            X.zero_mode()) else 0.0)) == 0.0

    def test_cutoff_respected(self):
        grid = TorusGrid(2, 17)
        X = sample_real_gfs(VarianceProfile.white(3), grid, stream(1, 1))
        outside = grid.k_squared > 9 + 1e-9
        assert np.max(np.abs(X.coeffs[0][outside])) == 0.0

    def test_coefficient_variance_matches_profile(self):
        # average |X_k|^2 over the half-space and many draws vs sigma^2
        grid = TorusGrid(1, 65)
        prof = VarianceProfile("power", 32, gamma=-1.0)
        mask = half_space_mask(grid)
        acc = np.zeros(grid.mode_shape)
        trials = 400
        for i in range(trials):
            X = sample_real_gfs(prof, grid, stream(7, i))
            acc += np.abs(X.coeffs[0]) ** 2
        acc /= trials
        sig2 = prof.sigma2_from_r2(grid.k_squared)
        sel = mask & (sig2 > 0)
        ratio = acc[sel] / sig2[sel]
        # per-mode sample mean of an exponential-ish variable, SE ~ 1/sqrt(400)
        assert abs(ratio.mean() - 1.0) < 0.02
        assert np.max(np.abs(ratio - 1.0)) < 0.35

    def test_zero_mode_variance(self):
        grid = TorusGrid(1, 9)
        prof = VarianceProfile.white(4)
        zs = [sample_real_gfs(prof, grid, stream(3, i)).zero_mode()[0]
              for i in range(2000)]
        assert abs(np.var(zs) - 1.0) < 0.1

    def test_stream_determinism(self):
        grid = TorusGrid(1, 9)
        prof = VarianceProfile.white(4)
        a = sample_real_gfs(prof, grid, stream(11, 4, 2)).coeffs
        b = sample_real_gfs(prof, grid, stream(11, 4, 2)).coeffs
        c = sample_real_gfs(prof, grid, stream(11, 4, 3)).coeffs
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_component_streams_disjoint(self):
        # X and Y of one trial draw from streams (trial, c) and (trial, nc + c)
        xs = [stream(5, 0, c) for c in range(2)]
        ys = [stream(5, 0, 2 + c) for c in range(2)]
        a = xs[0].standard_normal(4)
        b = ys[0].standard_normal(4)
        assert not np.array_equal(a, b)


class TestPairs:
    def make_spec(self):
        grid = TorusGrid(1, 17)
        return GfsSpec.uniform(grid, VarianceProfile.white(8), 2)

    def test_adversarial_component_is_rotation(self):
        spec = self.make_spec()
        xs = [stream(9, 0, c) for c in range(2)]
        ys = [stream(9, 0, 2 + c) for c in range(2)]
        X, Y = build_adversarial_pair(spec, 0, 1, xs, ys)
        assert np.array_equal(Y.coeffs[1], X.component(0).rotate().coeffs[0])
        assert not np.array_equal(Y.coeffs[0], X.coeffs[0])
        assert Y.is_real()
        # the other components are their own streams' draws, and y_rngs[b] is
        # drawn from too (its draw overwritten)
        def draw(key):
            return sample_real_gfs(spec.profile, spec.grid, stream(9, 0, key)).coeffs[0]
        assert np.array_equal(X.coeffs, [draw(0), draw(1)])
        assert np.array_equal(Y.coeffs[0], draw(2))
        assert not np.array_equal(ys[1].standard_normal(3),
                                  stream(9, 0, 3).standard_normal(3))

    def test_adversarial_same_component_rejected(self):
        spec = self.make_spec()
        with pytest.raises(ValueError):
            build_adversarial_pair(spec, 1, 1, [stream(9, 0, c) for c in range(2)],
                                   [stream(9, 0, 2 + c) for c in range(2)])

    def test_rotation_preserves_law_second_moments(self):
        # |(RX)_k|^2 = |X_k|^2 exactly, so the marginal variances agree
        grid = TorusGrid(1, 33)
        prof = VarianceProfile.white(16)
        X = sample_real_gfs(prof, grid, stream(21, 0))
        assert np.max(np.abs(np.abs(X.rotate().coeffs) - np.abs(X.coeffs))) < 1e-14

    def test_control_pair_independent(self):
        spec = self.make_spec()
        X = sample_E_valued(spec, [stream(9, 1, c) for c in range(2)])
        Y = sample_E_valued(spec, [stream(9, 1, 2 + c) for c in range(2)])
        assert not np.array_equal(X.coeffs, Y.coeffs)

    def test_cutoff_exceeding_band_rejected(self):
        grid = TorusGrid(1, 9)
        with pytest.raises(ValueError):
            GfsSpec.uniform(grid, VarianceProfile.white(8), 1)

    def test_E_valued_needs_matching_streams(self):
        spec = self.make_spec()
        with pytest.raises(ValueError):
            sample_E_valued(spec, [stream(1, 0)])
