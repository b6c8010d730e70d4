"""Littlewood-Paley blocks and Besov norms."""

import math

import numpy as np
import pytest

from nlheat.besov import DyadicPartition, _block_norms, _smooth_step, besov_norms
from nlheat.field import SpectralField, TorusGrid
from nlheat.sampling import VarianceProfile, sample_real_gfs, stream

from test_besov_core import ref_block_sups


def random_field(grid, seed=0):
    prof = VarianceProfile.white(grid.half_band)
    return sample_real_gfs(prof, grid, stream(seed, 0))


def guarded_smooth_step(x):
    """The smooth step as phi(2 - x) / (phi(2 - x) + phi(x - 1)) on the whole
    line, phi(y) = exp(-1/y) for y > 0 and 0 else, with a 0/0 guard and the two
    ends overwritten."""
    x = np.asarray(x, dtype=float)

    def phi(y):
        out = np.zeros_like(y)
        pos = y > 0
        out[pos] = np.exp(-1.0 / y[pos])
        return out

    num = phi(2.0 - x)
    den = num + phi(x - 1.0)
    with np.errstate(invalid="ignore"):
        out = np.where(den > 0, num / np.maximum(den, 1e-300), 0.0)
    out[x <= 1.0] = 1.0
    out[x >= 2.0] = 0.0
    return out


def test_smooth_step_matches_the_guarded_formula_bit_for_bit():
    # a dense grid through 1 and 2, the 50 floats on each side of either end
    # (adjacent positive floats have adjacent bit patterns), +-inf and NaN
    ends = np.array([1.0, 2.0]).view(np.int64)[:, None] + np.arange(-50, 51)
    x = np.concatenate([np.linspace(-1.0, 4.0, 200_001), ends.view(float).ravel(),
                        [-np.inf, np.inf, np.nan, 0.0, -0.0, 1e-300, 1.5]])
    got = _smooth_step(x)
    assert got.tobytes() == guarded_smooth_step(x).tobytes()
    assert not np.isnan(got).any()
    assert _smooth_step(np.nan) == 0.0 and _smooth_step(1.0) == 1.0


class TestPartition:
    def test_supports(self):
        part = DyadicPartition()
        r = np.linspace(0, 4, 401)
        low = part.chi_low(r)
        assert np.all(low[r <= 0.75] == 1.0)
        assert np.all(low[r >= 4.0 / 3.0] == 0.0)
        chi = part.chi(r)
        assert np.all(chi[r <= 0.75] == 0.0)
        assert np.all(chi[r >= 8.0 / 3.0] == 0.0)
        assert np.all((low >= 0) & (low <= 1))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_partition_of_unity_on_lattice(self, dim):
        grid = TorusGrid(dim, 33)
        total = DyadicPartition().multipliers(grid).sum(axis=0)
        assert np.max(np.abs(total - 1.0)) < 1e-10

    def test_at_most_two_levels_active(self):
        part = DyadicPartition()
        r = np.geomspace(0.01, 100.0, 500)
        stack = np.stack([part.chi_level(l, r) for l in range(-1, 10)])
        active = (stack > 1e-12).sum(axis=0)
        assert np.max(active) <= 2

    def test_telescoping_identity(self):
        part = DyadicPartition()
        r = np.linspace(0.1, 3.0, 50)
        lhs = part.chi(r)
        rhs = part.chi_low(r / 2.0) - part.chi_low(r)
        assert np.max(np.abs(lhs - rhs)) == 0.0


class TestBlocks:
    def test_constant_lives_in_lowest_block(self):
        grid = TorusGrid(1, 9)
        c = SpectralField.constant(grid, [2.0])
        mult = DyadicPartition().multipliers(grid)
        assert np.max(np.abs(mult[0] * c.coeffs - c.coeffs)) == 0.0
        for level in range(0, len(mult) - 1):
            assert np.max(np.abs(mult[level + 1] * c.coeffs)) == 0.0

    def test_blocks_sum_to_field(self):
        grid = TorusGrid(2, 17)
        f = random_field(grid, seed=3)
        part = DyadicPartition()
        top = part.max_level(grid.half_band * math.sqrt(2))
        mult = part.multipliers(grid)
        total = sum(mult[l + 1] * f.coeffs for l in range(-1, top + 1))
        assert np.max(np.abs(total - f.coeffs)) < 1e-10

    @pytest.mark.parametrize("dim, largest", [(1, 199), (2, 71), (3, 31)])
    def test_every_level_meets_the_cube(self, dim, largest):
        part = DyadicPartition()
        for M in range(3, largest + 1, 2):
            grid = TorusGrid(dim, M)
            r = grid.half_band * math.sqrt(dim)
            top = part.max_level(r)
            assert 0.75 * 2.0 ** top < r <= 0.75 * 2.0 ** (top + 1)
            mult = part.multipliers(grid)
            assert len(mult) == top + 2
            # chi_top = 1 - chi_low(r / 2^top) rounds to 0 when the corner
            # r lies within about 2% above 0.75 * 2^top (d=3, M=15: 12.12)
            live = mult.reshape(len(mult), -1).any(axis=1)
            assert live[:-1].all(), M
            assert live[-1] or r < 1.021 * 0.75 * 2.0 ** top, M

    def test_single_mode_multiplier(self):
        grid = TorusGrid(1, 17)
        K = grid.half_band
        coeffs = np.zeros((1, 17), complex)
        coeffs[0, K + 3] = coeffs[0, K - 3] = 0.5
        f = SpectralField(grid, coeffs)
        part = DyadicPartition()
        b = part.multipliers(grid)[2 + 1] * f.coeffs
        assert abs(b[0, K + 3] - 0.5 * part.chi_level(2, 3.0)) < 1e-15


class TestNorms:
    def test_constant_norm(self):
        grid = TorusGrid(1, 9)
        c = SpectralField.constant(grid, [-1.7])
        for alpha, q in [(0.5, math.inf), (-0.5, 3.0)]:
            # only the l = -1 block is active: norm = 2^{-alpha} |c|
            expect = 2.0 ** -alpha * 1.7
            assert abs(besov_norms(c.coeffs[None], grid, alpha, q)[0] - expect) < 1e-12

    def test_single_mode_closed_form(self):
        grid = TorusGrid(1, 33)
        K = grid.half_band
        coeffs = np.zeros((1, 33), complex)
        coeffs[0, K + 5] = coeffs[0, K - 5] = 0.6
        f = SpectralField(grid, coeffs)
        part = DyadicPartition()
        alpha, q = -0.4, 3.0
        top = part.max_level(33)
        # sup |Delta_l f| = 1.2 * chi_l(5); plug into the definition directly
        weights = [(2.0 ** (alpha * l) * 1.2 * part.chi_level(l, 5.0)) ** q
                   for l in range(-1, top + 1)]
        expect = sum(weights) ** (1.0 / q)
        got = besov_norms(f.coeffs, grid, alpha, q)[0]
        assert abs(got - expect) < 1e-10 * expect

    def test_homogeneity_and_triangle(self):
        grid = TorusGrid(1, 17)
        f = random_field(grid, 1)
        g = random_field(grid, 2)
        nf, ng, scaled, both = besov_norms(np.stack([
            f.coeffs, g.coeffs, 3.0 * f.coeffs, f.coeffs + g.coeffs]), grid, -0.5)
        assert abs(scaled - 3.0 * nf) < 1e-10 * nf
        assert both <= nf + ng + 1e-12

    def test_linf_dominated_by_lq(self):
        grid = TorusGrid(1, 33)
        f = random_field(grid, 4)
        for q in (1.0, 2.0, 4.0):
            assert besov_norms(f.coeffs, grid, -0.3) <= \
                besov_norms(f.coeffs, grid, -0.3, q) + 1e-12

    def test_vector_field_component_sum(self):
        grid = TorusGrid(1, 9)
        f = random_field(grid, 5)
        doubled = np.concatenate([f.coeffs, f.coeffs])
        assert abs(besov_norms(doubled[None], grid, -0.5)
                   - 2 * besov_norms(f.coeffs, grid, -0.5)) < 1e-12

    def test_batch_matches_scalar_path(self):
        grid = TorusGrid(1, 17)
        fields = [random_field(grid, s) for s in range(4)]
        stack = np.stack([f.coeffs[0] for f in fields])
        batch = besov_norms(stack, grid, -0.5)
        single = [besov_norms(f.coeffs, grid, -0.5)[0] for f in fields]
        assert np.max(np.abs(batch - np.asarray(single))) < 1e-12

    def test_invalid_exponents(self):
        f = random_field(TorusGrid(1, 9))
        for q in (0.5, math.nan):
            with pytest.raises(ValueError, match="q must be >= 1"):
                besov_norms(f.coeffs, f.grid, 0.0, q)


class TestSmoothing:
    def test_heat_smoothing_constant_stable_in_N(self):
        """|P_t f|_{C^{a+g}} <= C t^{-g/2} |f|_{C^a}: fit C at N=32, check it
        holds (with margin 1.5x) at larger N."""
        alpha = -0.5
        ts = np.geomspace(1e-4, 1e-1, 10)
        fitted = {}
        for gamma in (0.5, 1.0):
            consts = []
            for N in (32, 64, 128):
                grid = TorusGrid(1, 2 * N + 1)
                f = random_field(grid, seed=N)
                base = besov_norms(f.coeffs, grid, alpha)[0]
                heated = np.stack([f.heat(t).coeffs for t in ts])
                worst = max(besov_norms(heated, grid, alpha + gamma) * ts ** (gamma / 2))
                consts.append(worst / base)
            fitted[gamma] = consts
        for gamma, consts in fitted.items():
            assert max(consts) <= 1.5 * consts[0], (gamma, consts)

    def test_oversampling_sup_accuracy(self):
        # default dense grid vs a 4x finer one: sup discrepancy <= 2%
        grid = TorusGrid(1, 65)
        f = random_field(grid, 9)
        coarse = _block_norms(f.coeffs[None], grid)[0]
        fine = ref_block_sups(f, points=16 * grid.modes_per_axis)
        nz = fine > 0
        assert np.max(np.abs(coarse[nz] / fine[nz] - 1.0)) < 0.02
