"""Spectral core: transforms, mode-wise operators, dealiased products."""

import math

import numpy as np
import pytest
from scipy import fft as sfft

from nlheat.besov import DyadicPartition
from nlheat.correlation import compute_Zt
from nlheat.field import (REALITY_TOL, REAL_PRIMES, SpectralField, TorusGrid, analyze,
                          analyze_values, dealias_points, fast_len,
                          pointwise_product, real_fields, synthesize_coeffs,
                          synthesize_real)
from nlheat.gfsf import read_field, write_field
from nlheat.nonlinearity import NonlinearitySpec, preset
from nlheat.sampling import GfsSpec, VarianceProfile, sample_real_gfs, stream
from nlheat.solver import SolveConfig, nonlinear_rhs_coeffs, solve


def hermitian_field(grid, components=1, seed=0):
    rng = np.random.default_rng(seed)
    shape = (components,) + grid.mode_shape
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    flipped = np.conj(np.flip(c, axis=tuple(range(1, c.ndim))))
    return SpectralField(grid, 0.5 * (c + flipped))


def single_mode(grid, k, components=1):
    """The real field cos(<k, x>) = (e_k + e_{-k})/2."""
    coeffs = np.zeros((components,) + grid.mode_shape, complex)
    K = grid.half_band
    idx = tuple(K + ki for ki in k)
    idx_neg = tuple(K - ki for ki in k)
    coeffs[(0,) + idx] = 0.5
    coeffs[(0,) + idx_neg] += 0.5
    return SpectralField(grid, coeffs)


class TestGrid:
    def test_rejects_even_mode_count(self):
        with pytest.raises(ValueError):
            TorusGrid(1, 8)

    def test_rejects_undersized_physical_grid(self):
        with pytest.raises(ValueError):
            TorusGrid(2, 9, 5)

    def test_default_points_have_quadratic_headroom(self):
        for M in (5, 9, 33, 257):
            grid = TorusGrid(1, M)
            assert grid.quadratic_headroom()
            assert grid.points_per_axis >= math.ceil(3 * M / 2)

    def test_cubic_headroom_option(self):
        M = 9
        assert dealias_points(M, cubic=True) >= 2 * M

    def test_d1_sizes_are_smallest_5_smooth(self):
        def smooth5(n):
            for p in (2, 3, 5):
                while n % p == 0:
                    n //= p
            return n == 1

        for M in range(3, 4098, 2):
            for cubic in (False, True):
                need = 2 * M if cubic else math.ceil(3 * M / 2)
                G = dealias_points(M, cubic, dim=1)
                assert G >= need and smooth5(G), (M, cubic, G)
                assert not any(smooth5(n) for n in range(need, G)), (M, cubic)
        assert [TorusGrid(1, 2 * N + 1).points_per_axis
                for N in (64, 256, 1024)] == [200, 800, 3125]

    @pytest.mark.parametrize("dim", [2, 3])
    def test_higher_dim_sizes_are_complex_fast_sizes(self, dim):
        for M in range(3, 300, 2):
            for cubic in (False, True):
                need = 2 * M if cubic else math.ceil(3 * M / 2)
                assert dealias_points(M, cubic, dim=dim) == sfft.next_fast_len(need)
            assert TorusGrid(dim, M).points_per_axis == dealias_points(M, dim=dim)
        assert TorusGrid(dim, 33).points_per_axis == 50
        assert dealias_points(33, cubic=True, dim=dim) == 66     # 72 at d = 1

    def test_fast_len_is_scipy_next_fast_len(self):
        for n in range(1, 20001):
            assert fast_len(n) == sfft.next_fast_len(n), n
            assert fast_len(n, REAL_PRIMES) == sfft.next_fast_len(n, real=True), n

    def test_grid_size_is_a_free_choice(self):
        """The products are dealiased, so any G with headroom gives the same
        solve up to rounding: the complex fast size 196 and the 5-smooth 200."""
        spec = preset("antisym2", 1)
        prof = VarianceProfile.white(64)
        config = SolveConfig(t_end=50 * 0.5 / 64 ** 2, steps=50)
        trajs = []
        for G in (196, 200):
            grid = TorusGrid(1, 129, G)
            u0 = SpectralField.from_components(
                [sample_real_gfs(prof, grid, stream(9, 0, c)) for c in range(2)])
            trajs.append(solve(u0, spec, config))
        a, b = trajs
        assert a.status == b.status == "completed"
        for x, y in ((a.zero_mode_path, b.zero_mode_path),
                     (a.fields[-1].coeffs, b.fields[-1].coeffs)):
            assert np.max(np.abs(x - y)) <= 1e-12 * np.max(np.abs(y))

    def test_k_squared_center(self):
        grid = TorusGrid(3, 5)
        K = grid.half_band
        assert grid.k_squared[K, K, K] == 0.0
        assert grid.k_squared[K + 1, K, K - 2] == 1 + 4


class TestTransforms:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_round_trip(self, dim):
        grid = TorusGrid(dim, 7)
        f = hermitian_field(grid, components=2, seed=dim)
        vals = synthesize_real(f)
        back = analyze_values(vals, grid)
        assert np.max(np.abs(back - f.coeffs)) < 1e-12

    def test_single_mode_values(self):
        grid = TorusGrid(1, 9, 16)
        f = single_mode(grid, (2,))
        x = 2 * np.pi * np.arange(16) / 16
        vals = synthesize_real(f)
        assert np.max(np.abs(vals[0] - np.cos(2 * x))) < 1e-12

    def test_constant_mass_normalization(self):
        grid = TorusGrid(2, 5)
        f = SpectralField.constant(grid, [3.5])
        vals = synthesize_real(f)
        assert np.max(np.abs(vals - 3.5)) < 1e-13

    def test_synthesize_real_rejects_complex(self):
        grid = TorusGrid(1, 5)
        coeffs = np.zeros((1, 5), complex)
        coeffs[0, 3] = 1.0   # e_1 alone is not a real field
        with pytest.raises(ValueError):
            synthesize_real(SpectralField(grid, coeffs))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_analyze_rejects_complex_values(self, dim):
        grid = TorusGrid(dim, 5)
        vals = np.ones((2,) + (grid.points_per_axis,) * dim, complex)
        with pytest.raises(ValueError, match="real"):
            analyze_values(vals, grid)
        with pytest.raises(ValueError, match="real"):
            analyze(vals, grid)

    def test_analyze_shapes(self):
        grid = TorusGrid(2, 5)
        vals = np.ones((grid.points_per_axis,) * 2)
        f = analyze(vals, grid)
        assert f.components == 1
        assert abs(f.zero_mode()[0] - 1.0) < 1e-13


class TestOperators:
    def test_heat_eigenrelation(self):
        grid = TorusGrid(2, 7)
        K = grid.half_band
        coeffs = np.zeros((1,) + grid.mode_shape, complex)
        coeffs[0, K + 2, K - 1] = 1.0
        f = SpectralField(grid, coeffs)
        t = 0.37
        expected = math.exp(-(4 + 1) * t)
        out = f.heat(t).coeffs[0, K + 2, K - 1]
        assert abs(out - expected) < 1e-12

    def test_heat_semigroup_property(self):
        grid = TorusGrid(1, 9)
        f = hermitian_field(grid)
        a = f.heat(0.2).heat(0.3).coeffs
        b = f.heat(0.5).coeffs
        assert np.max(np.abs(a - b)) < 1e-14

    def test_heat_rejects_negative_time(self):
        f = hermitian_field(TorusGrid(1, 5))
        with pytest.raises(ValueError):
            f.heat(-0.1)

    def test_derivative_single_mode(self):
        grid = TorusGrid(2, 7, 12)
        f = single_mode(grid, (1, -2))
        x = 2 * np.pi * np.arange(12) / 12
        xx, yy = np.meshgrid(x, x, indexing="ij")
        vals = synthesize_real(f.derivative(1))
        assert np.max(np.abs(vals[0] + 2 * -np.sin(xx - 2 * yy))) < 1e-12

    def test_project_band_euclidean(self):
        grid = TorusGrid(2, 9)
        f = hermitian_field(grid)
        p = f.project_band(2.0)
        kept = np.abs(p.coeffs[0]) > 0
        assert kept.sum() == 13      # lattice points with |k| <= 2 in Z^2
        assert np.max(np.abs(p.project_band(2.0).coeffs - p.coeffs)) == 0.0

    def test_zero_mode_and_remove_mean(self):
        grid = TorusGrid(1, 5)
        f = hermitian_field(grid, components=3, seed=5)
        z = f.zero_mode()
        g = f.remove_mean()
        assert np.max(np.abs(g.zero_mode())) == 0.0
        assert np.max(np.abs((g.coeffs - f.coeffs).ravel()[
            np.abs(g.coeffs - f.coeffs).ravel() != 0])) <= np.max(np.abs(z)) + 1e-15

    def test_rotation_moves_only_k1(self):
        grid = TorusGrid(2, 5)
        f = hermitian_field(grid, seed=9)
        r = f.rotate()
        K = grid.half_band
        assert np.max(np.abs(r.coeffs[0, K, :] - f.coeffs[0, K, :])) == 0.0
        assert np.max(np.abs(r.coeffs[0, K + 1, :] - 1j * f.coeffs[0, K + 1, :])) == 0.0
        assert np.max(np.abs(r.coeffs[0, K - 1, :] + 1j * f.coeffs[0, K - 1, :])) == 0.0

    def test_rotation_preserves_reality(self):
        f = hermitian_field(TorusGrid(3, 5), seed=1)
        assert f.rotate().reality_defect() < 1e-14

    def test_reality_defect_detects_asymmetry(self):
        grid = TorusGrid(1, 5)
        coeffs = np.zeros((1, 5), complex)
        coeffs[0, 3] = 1.0
        assert SpectralField(grid, coeffs).reality_defect() == 1.0


class TestProducts:
    def test_cosine_square(self):
        grid = TorusGrid(1, 9)
        f = single_mode(grid, (1,))
        p = pointwise_product(f, f)
        K = grid.half_band
        # cos^2 x = 1/2 + cos(2x)/2
        expect = np.zeros(9, complex)
        expect[K] = 0.5
        expect[K + 2] = 0.25
        expect[K - 2] = 0.25
        assert np.max(np.abs(p.coeffs[0] - expect)) < 1e-14

    def test_matches_convolution_oracle(self):
        grid = TorusGrid(1, 7)
        f = hermitian_field(grid, seed=2)
        g = hermitian_field(grid, seed=3)
        conv = np.convolve(f.coeffs[0], g.coeffs[0])
        K = grid.half_band
        expect = conv[K: K + 7]    # central band of the full product
        p = pointwise_product(f, g)
        assert np.max(np.abs(p.coeffs[0] - expect)) < 1e-12

    @pytest.mark.parametrize("dim", [1, 2])
    def test_rejects_non_real_fields(self, dim):
        grid = TorusGrid(dim, 5)
        f = hermitian_field(grid, seed=6)
        coeffs = np.zeros((1,) + grid.mode_shape, complex)
        coeffs[(0,) + (grid.half_band + 1,) * dim] = 1.0
        g = SpectralField(grid, coeffs)                  # e_k alone is not real
        for a, b in ((f, g), (g, f)):
            with pytest.raises(ValueError, match="not real"):
                pointwise_product(a, b)

    def test_requires_headroom(self):
        grid = TorusGrid(1, 9, 9)
        f = hermitian_field(grid)
        with pytest.raises(ValueError):
            pointwise_product(f, f)

    def test_scaling_linearity(self):
        grid = TorusGrid(2, 5)
        f = hermitian_field(grid, seed=4)
        g = hermitian_field(grid, seed=5)
        lhs = pointwise_product(SpectralField(grid, 2.0 * f.coeffs), g).coeffs
        rhs = 2.0 * pointwise_product(f, g).coeffs
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def full_cube_defect(coeffs, dim):
    """Each field's max |f_{-k} - conj f_k| over every k, not half the cube."""
    axes = tuple(range(-dim - 1, 0))
    return np.abs(coeffs - np.conj(np.flip(coeffs, axis=axes[1:]))).max(axis=axes)


def full_cube_real(coeffs, dim):
    """The reality verdict with the full-cube defect."""
    scale = 1.0 + np.abs(coeffs).max(axis=tuple(range(-dim - 1, 0)), initial=0.0)
    return full_cube_defect(coeffs, dim) <= REALITY_TOL * scale


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("dim, modes", [(1, 33), (2, 9), (3, 5)])
def test_half_cube_reality_check_matches_the_full_cube(dim, modes):
    grid = TorusGrid(dim, modes)
    rng = np.random.default_rng(dim)
    stack = np.stack([hermitian_field(grid, 2, seed=s).coeffs
                      * 10.0 ** rng.integers(-3, 4) for s in range(60)])
    # one coefficient per field moved off its conjugate, anywhere in the cube
    for row, size in zip(stack[1:], [1e-13, 1e-11, 1e-9, np.nan, np.inf] * 12):
        where = (int(rng.integers(2)),) + tuple(rng.integers(modes, size=dim))
        row[where] += size * (1.0 + np.abs(row).max()) * (1.0 if rng.random() < 0.5
                                                          else 1j)
    got = real_fields(stack, dim)
    assert np.array_equal(got, full_cube_real(stack, dim))
    assert got[0] and 0 < got.sum() < len(got)
    defects = [SpectralField(grid, row).reality_defect() for row in stack]
    assert np.array_equal(defects, full_cube_defect(stack, dim), equal_nan=True)
    assert np.isnan(defects).any() and np.isinf(defects).any()


def _zero(modes, components=1, dim=1):
    return SpectralField.zero(TorusGrid(dim, modes), components)


def _read_other_version(tmp_path):
    path = tmp_path / "f.gfsf"
    write_field(path, _zero(5))
    raw = bytearray(path.read_bytes())
    raw[4] += 1                         # the version byte follows the magic
    path.write_bytes(bytes(raw))
    return read_field(path)


@pytest.mark.parametrize("call, message", [
    (lambda _: TorusGrid(0, 5), "dim must be >= 1, got 0"),
    (lambda _: SpectralField(TorusGrid(1, 5), np.zeros((1, 7))),
     r"coeffs shape \(1, 7\) does not match grid"),
    (lambda _: SpectralField.from_components([_zero(5), _zero(7)]),
     "component fields live on different grids"),
    (lambda _: _zero(5, dim=2).derivative(2), "axis 2 out of range for dim 2"),
    (lambda _: _zero(5).project_band(-1.0), "radius must be >= 0"),
    (lambda _: _zero(5) + _zero(7), "grid mismatch"),
    (lambda _: synthesize_coeffs(np.zeros((1, 5, 7)), TorusGrid(2, 5)),
     "coefficients must end in the wavenumber cube"),
    (lambda _: synthesize_coeffs(np.zeros((1, 5)), TorusGrid(1, 5), points=4),
     "points >= M"),
    (lambda _: analyze_values(np.zeros((8, 9)), TorusGrid(2, 5)),
     "physical array is not a uniform cube"),
    (lambda _: analyze_values(np.zeros(3), TorusGrid(1, 5)),
     "physical grid coarser than the wavenumber band"),
    (lambda _: pointwise_product(_zero(5), _zero(7)), "grid mismatch"),
    (lambda _: pointwise_product(_zero(5), _zero(5, 2)), "component count mismatch"),
    (lambda _: nonlinear_rhs_coeffs(np.zeros((6, 5, 5), complex), TorusGrid(2, 5, 8),
                                    preset("dym", 2)),
     r"cubic nonlinearity needs G >= 2M"),
    (lambda _: nonlinear_rhs_coeffs(np.zeros((2, 5), complex), TorusGrid(1, 5, 7),
                                    preset("antisym2", 1)),
     r"quadratic nonlinearity needs G >= ceil\(3M/2\)"),
    (lambda _: NonlinearitySpec.from_parts(1, 2, p0=[np.nan, 0.0]),
     "p0 contains non-finite entries"),
    (lambda _: VarianceProfile.white(-1.0), "cutoff must be >= 0"),
    (lambda _: GfsSpec(TorusGrid(1, 5), VarianceProfile.white(2), 0),
     "need at least one component"),
    (lambda _: compute_Zt(_zero(5, 2), 0.1), "Z_t is defined for scalar fields"),
    (_read_other_version, "unsupported GFSF version 2"),
    (lambda _: DyadicPartition().chi_level(-2, 1.0), "level must be >= -1")],
    ids=["grid-dim-0", "field-shape", "components-on-two-grids", "derivative-axis",
         "band-radius-negative", "add-grid", "synthesize-non-cube",
         "synthesize-few-points", "analyze-non-cube", "analyze-coarse",
         "product-grid", "product-components", "rhs-cubic-headroom",
         "rhs-quadratic-headroom", "spec-non-finite", "profile-cutoff-negative",
         "gfs-no-component", "zt-vector-field", "gfsf-version", "chi-level-below-1"])
def test_each_input_check_raises_its_message(tmp_path, call, message):
    with pytest.raises(ValueError, match=message):
        call(tmp_path)


def test_real_coefficients_are_promoted_to_complex():
    coeffs = np.arange(5.0)[None]
    field = SpectralField(TorusGrid(1, 5), coeffs)
    assert field.coeffs.dtype == complex and np.array_equal(field.coeffs, coeffs)
