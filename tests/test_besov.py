"""Littlewood-Paley blocks and Besov norms."""

import math

import numpy as np
import pytest

from nlheat.besov import (DyadicPartition, besov_norm, block_lp_norms,
                          holder_norm, holder_norms_batch)
from nlheat.field import SpectralField, TorusGrid
from nlheat.sampling import VarianceProfile, sample_real_gfs, stream


def random_field(grid, seed=0):
    prof = VarianceProfile.white(grid.half_band)
    return sample_real_gfs(prof, grid, stream(seed, 0))


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
        for alpha, p, q in [(0.5, math.inf, math.inf), (-0.5, 2, 3), (1.0, 4, math.inf)]:
            # only the l = -1 block is active: norm = 2^{-alpha} |c|
            expect = 2.0 ** -alpha * 1.7
            assert abs(besov_norm(c, alpha, p, q) - expect) < 1e-12

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
        got = besov_norm(f, alpha, math.inf, q)
        assert abs(got - expect) < 1e-10 * expect

    def test_homogeneity_and_triangle(self):
        grid = TorusGrid(1, 17)
        f = random_field(grid, 1)
        g = random_field(grid, 2)
        alpha = -0.5
        nf = holder_norm(f, alpha)
        assert abs(holder_norm(SpectralField(grid, 3.0 * f.coeffs), alpha) - 3.0 * nf) < 1e-10 * nf
        both = SpectralField(grid, f.coeffs + g.coeffs)
        assert holder_norm(both, alpha) <= nf + holder_norm(g, alpha) + 1e-12

    def test_linf_dominated_by_lq(self):
        grid = TorusGrid(1, 33)
        f = random_field(grid, 4)
        for q in (1.0, 2.0, 4.0):
            assert holder_norm(f, -0.3) <= besov_norm(f, -0.3, math.inf, q) + 1e-12

    def test_vector_field_component_sum(self):
        grid = TorusGrid(1, 9)
        f = random_field(grid, 5)
        doubled = SpectralField(grid, np.concatenate([f.coeffs, f.coeffs]))
        assert abs(holder_norm(doubled, -0.5) - 2 * holder_norm(f, -0.5)) < 1e-12

    def test_batch_matches_scalar_path(self):
        grid = TorusGrid(1, 17)
        fields = [random_field(grid, s) for s in range(4)]
        stack = np.stack([f.coeffs[0] for f in fields])
        batch = holder_norms_batch(stack, grid, -0.5)
        single = [holder_norm(f, -0.5) for f in fields]
        assert np.max(np.abs(batch - np.asarray(single))) < 1e-12

    def test_invalid_exponents(self):
        f = random_field(TorusGrid(1, 9))
        with pytest.raises(ValueError):
            besov_norm(f, 0.0, 0.5, 2.0)


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
                base = holder_norm(f, alpha)
                worst = max(holder_norm(f.heat(t), alpha + gamma) * t ** (gamma / 2)
                            for t in ts)
                consts.append(worst / base)
            fitted[gamma] = consts
        for gamma, consts in fitted.items():
            assert max(consts) <= 1.5 * consts[0], (gamma, consts)

    def test_oversampling_sup_accuracy(self):
        # default dense grid vs a 4x finer one: sup discrepancy <= 2%
        grid = TorusGrid(1, 65)
        f = random_field(grid, 9)
        coarse = block_lp_norms(f, math.inf)
        fine = block_lp_norms(f, math.inf, points=16 * grid.modes_per_axis)
        nz = fine > 0
        assert np.max(np.abs(coarse[nz] / fine[nz] - 1.0)) < 0.02
