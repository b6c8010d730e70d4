"""The batched Besov core against a plain reference.

The references below multiply the coefficients by every chi_l and synthesise
every block of a level in one go, each level on its own grid: the sub-cube
|k_i| <= K_l that holds the support of chi_l, sampled on
``_dense_points(TorusGrid(d, 2 K_l + 1))`` points per axis (the whole cube on
its dense grid where K_l = K, or where chi_l is zero on the whole cube).  The
core skips blocks whose coefficients miss the support of chi_l and
synthesises in chunks of blocks, so its results must equal these bit for bit.
``ref_besov_norm`` weights and sums one field's reference sups on its own.
"""

import math

import numpy as np
import pytest

from nlheat import besov
from nlheat.besov import DyadicPartition, _block_norms, _dense_points, besov_norms
from nlheat.experiments import ExperimentConfig, _besov_trial
from nlheat.field import SpectralField, TorusGrid, synthesize_coeffs
from nlheat.sampling import VarianceProfile, sample_real_gfs, stream


def ref_levels(grid, points=None):
    """Per level: (sub-cube index, its grid, points per axis); with ``points``
    every level is the whole cube on ``points``."""
    K = grid.half_band
    out = []
    for row in DyadicPartition().multipliers(grid):
        support = np.argwhere(row != 0) - K
        k = int(np.abs(support).max()) if len(support) and not points else K
        sub = grid if k == K else TorusGrid(grid.dim, 2 * k + 1)
        out.append(((Ellipsis,) + (slice(K - k, K + k + 1),) * grid.dim, sub,
                    points or _dense_points(sub)))
    return out


def ref_block_values(coeffs, grid, points=None):
    """|Delta_l f| at level l's sample points for a (n, M..) stack, one
    synthesis per level: a list over l of (n, P_l^d) arrays."""
    mult = DyadicPartition().multipliers(grid)
    out = []
    for row, (cube, sub, pts) in zip(mult, ref_levels(grid, points)):
        vals = synthesize_coeffs(coeffs[cube] * row[cube], sub, pts)
        out.append(np.abs(vals.reshape(len(coeffs), -1)))
    return out


def ref_block_sups(field, points=None):
    """sup|Delta_l f| per level and component of one field: (L, nc)."""
    field.require_real()
    return np.stack([v.max(axis=-1) for v in
                     ref_block_values(field.coeffs, field.grid, points)])


def ref_holder_norms(coeff_stack, grid, alpha, points=None):
    """C^alpha norms of a (B, M..) stack of scalar fields."""
    SpectralField(grid, coeff_stack).require_real()
    sup = np.stack([v.max(axis=-1) for v in
                    ref_block_values(coeff_stack, grid, points)], axis=1)
    levels = np.arange(-1, sup.shape[1] - 1)
    return (2.0 ** (alpha * levels)[None, :] * sup).max(axis=1)


def ref_besov_norm(field, alpha, q=math.inf):
    """B^alpha_{inf,q} norm of one field: per component the l^q norm over l
    of its weighted sups, one contiguous row each, then the component sum."""
    sups = ref_block_sups(field)
    rows = (2.0 ** (alpha * np.arange(-1, len(sups) - 1)) * sups.T).copy()
    if math.isinf(q):
        return float(np.sum([row.max() for row in rows]))
    return float(np.sum(np.array([np.sum(row ** q) for row in rows]) ** (1.0 / q)))


def random_field(grid, components=1, seed=0):
    prof = VarianceProfile.white(grid.half_band)
    return SpectralField.from_components(
        [sample_real_gfs(prof, grid, stream(seed, c)) for c in range(components)])


def heat_stack(grid, rows, seed=0):
    """Rows X e^{-t|k|^2} over a geometric t grid, as the moment tables
    build them: the high modes of the late rows underflow to exact zeros."""
    X = random_field(grid, seed=seed).coeffs[0]
    t = np.geomspace(1e-4, 1e-1, rows)
    return X[None] * np.exp(-np.multiply.outer(t, grid.k_squared))


def band_difference(grid, radius, seed=0):
    """X - X^N of the truncation-convergence runs: no modes with |k| <= N."""
    X = random_field(grid, seed=seed)
    return SpectralField(grid, np.where(grid.k_squared > radius * radius + 1e-9,
                                        X.coeffs, 0.0))


def counting_synthesis(monkeypatch):
    """Patch the core's synthesis to record every block it synthesises."""
    blocks = []

    def synth(coeffs, grid, points):
        blocks.extend(coeffs)
        return synthesize_coeffs(coeffs, grid, points)

    monkeypatch.setattr(besov, "synthesize_coeffs", synth)
    return blocks


# -- bit-for-bit equality with the replaced pipelines ---------------------------

def block_sups(field):
    """The core's sup|Delta_l f| of one field: (L, nc)."""
    return _block_norms(field.coeffs[None], field.grid)[0]


def assert_matches_reference(field, alpha, q):
    assert np.array_equal(block_sups(field), ref_block_sups(field))
    assert besov_norms(field.coeffs[None], field.grid, alpha, q)[0] \
        == ref_besov_norm(field, alpha, q)


def test_d1_batch_matches_reference():
    grid = TorusGrid(1, 257)
    stack = heat_stack(grid, 101)
    assert np.array_equal(besov_norms(stack, grid, -0.5),
                          ref_holder_norms(stack, grid, -0.5))
    assert np.array_equal(besov_norms(stack, grid, 0.25),
                          ref_holder_norms(stack, grid, 0.25))


@pytest.mark.parametrize("radius", [16, 1024])
@pytest.mark.parametrize("q", [math.inf, 4.0])
def test_d1_band_difference_matches_reference(radius, q):
    grid = TorusGrid(1, 4097, 4098)
    assert_matches_reference(band_difference(grid, radius, seed=radius), -0.5, q)


@pytest.mark.parametrize("q", [math.inf, 1.0, 3.0])
def test_d2_matches_reference(q):
    grid = TorusGrid(2, 17)
    assert_matches_reference(random_field(grid, components=2, seed=4), 0.25, q)
    assert_matches_reference(band_difference(grid, 5, seed=5), -0.5, q)
    stack = heat_stack(grid, 9, seed=6)
    assert np.array_equal(besov_norms(stack, grid, -0.5),
                          ref_holder_norms(stack, grid, -0.5))


@pytest.mark.parametrize("q", [math.inf, 2.0])
def test_d3_nine_components_matches_reference(q):
    grid = TorusGrid(3, 9, 18)
    assert_matches_reference(random_field(grid, components=9, seed=7), -0.5, q)
    assert_matches_reference(band_difference(grid, 2, seed=8), 0.25, q)


@pytest.mark.parametrize("q", [math.inf, 4.0])
def test_radius_tails_of_a_trial_match_the_per_field_reference(q):
    # _besov_trial takes the tails X - X^N of all its radii in one stack
    cfg = ExperimentConfig.from_dict({
        "kind": "besov", "seed": 5, "profile": {"kind": "powerlog"},
        "experiment": {"radii": [16, 64, 256, 1024], "trials": 1,
                       "reference_radius": 2048, "q": q}})
    grid = TorusGrid(1, 4097, 4098)
    X = sample_real_gfs(cfg.profile_for(2048), grid, stream(5, 0, 0))
    want = {N: ref_besov_norm(SpectralField(grid, np.where(
        grid.k_squared > N * N + 1e-9, X.coeffs, 0.0)), -0.5, q) for N in cfg.radii()}
    assert _besov_trial((cfg, 0))["norms"] == want


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_infinite_coefficient_matches_reference():
    # inf * 0 is NaN in blocks that miss the mode, so nothing may be skipped;
    # NaN coefficients never get here: the reality check rejects them
    grid = TorusGrid(1, 33)
    f = band_difference(grid, 8, seed=9)
    f.coeffs[0, grid.half_band + 12] = np.inf
    np.testing.assert_array_equal(block_sups(f), ref_block_sups(f))
    assert np.isnan(block_sups(f)).any()
    assert np.isnan(besov_norms(f.coeffs, grid, -0.5)).all()
    f.coeffs[0, grid.half_band + 12] = np.nan
    with pytest.raises(ValueError, match="not real"):
        besov_norms(f.coeffs, grid, -0.5)


# -- the one Hoelder path over (B, nc, M..) stacks -------------------------------

def field_stack(grid, rows, components, seed=0):
    """Rows of independent real fields, each damped by its own heat time."""
    decay = np.exp(-np.multiply.outer(np.geomspace(1e-4, 1e-1, rows), grid.k_squared))
    return np.stack([random_field(grid, components, seed + r).coeffs
                     for r in range(rows)]) * decay[:, None]


@pytest.mark.parametrize("dim, modes, components", [
    (1, 257, 2), (1, 195, 2), (3, 9, 9)])
def test_vector_batch_matches_reference_per_component(dim, modes, components):
    grid = TorusGrid(dim, modes)
    if (dim, modes) == (1, 195):    # the top multiplier row rounds to zero
        assert not DyadicPartition().multipliers(grid)[-1].any()
    stack = field_stack(grid, 5, components, seed=13)
    for alpha in (-0.5, 0.25):
        per_comp = [ref_holder_norms(stack[:, c], grid, alpha)
                    for c in range(components)]
        want = np.stack(per_comp, axis=-1).sum(axis=-1)
        assert np.array_equal(besov_norms(stack, grid, alpha), want)
        assert [besov_norms(f[None], grid, alpha)[0] for f in stack] == list(want)


def test_each_field_is_checked_against_its_own_scale():
    # the batch's largest scale would hide the small field's defect
    grid = TorusGrid(1, 33)
    big = 1e6 * random_field(grid, seed=14).coeffs[0]
    small = random_field(grid, seed=15).coeffs[0]
    small[grid.half_band + 3] += 1e-8j
    assert besov_norms(np.stack([big, big]), grid, -0.5).all()
    with pytest.raises(ValueError, match="not real"):
        besov_norms(np.stack([big, small]), grid, -0.5)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_entry_leaves_other_entries_skipped(monkeypatch):
    grid = TorusGrid(1, 257)
    fields = [band_difference(grid, 32, seed=s) for s in range(3)]
    stack = np.stack([f.coeffs for f in fields])
    stack[1, 0, grid.half_band + 40] = np.inf
    mult = DyadicPartition().multipliers(grid)
    blocks = counting_synthesis(monkeypatch)
    got = besov_norms(stack, grid, -0.5)
    # the inf entry synthesises every level, the others only their live ones
    live = [int(np.any(mult * f.coeffs != 0, axis=1).sum()) for f in fields]
    assert len(blocks) == live[0] + len(mult) + live[2] < 3 * len(mult)
    # levels whose sub-cube holds the inf are NaN (inf * 0), and so is its norm
    nan_row = np.stack([v.max(axis=-1) for v in ref_block_values(stack[1], grid)])
    assert np.isnan(nan_row).any()
    np.testing.assert_array_equal(_block_norms(stack, grid)[1], nan_row)
    assert np.isnan(got[1])
    for row in (0, 2):
        assert got[row] == ref_besov_norm(fields[row], -0.5)


# -- skipping ------------------------------------------------------------------

@pytest.mark.parametrize("dim, modes, radius", [(1, 4097, 16), (1, 4097, 1024),
                                                 (2, 17, 5), (3, 9, 2)])
def test_only_overlapping_levels_are_synthesised(monkeypatch, dim, modes, radius):
    grid = TorusGrid(dim, modes)
    diff = band_difference(grid, radius, seed=dim)
    part = DyadicPartition()
    support = np.sqrt(grid.k_squared[diff.coeffs[0] != 0])
    overlapping = [l for l in range(-1, len(part.multipliers(grid)) - 1)
                   if np.any(part.chi_level(l, support) != 0)]
    want = ref_block_sups(diff)
    blocks = counting_synthesis(monkeypatch)
    got = block_sups(diff)
    assert len(blocks) == len(overlapping) < len(want)
    assert all(np.any(b) for b in blocks)
    assert np.array_equal(got, want)
    skipped = np.setdiff1d(np.arange(-1, len(want) - 1), overlapping) + 1
    assert np.all(got[skipped] == 0.0)


def test_zero_field_synthesises_nothing(monkeypatch):
    grid = TorusGrid(2, 9)
    zero = SpectralField.zero(grid, 3)
    blocks = counting_synthesis(monkeypatch)
    assert np.array_equal(besov_norms(zero.coeffs[None], grid, -0.5), [0.0])
    assert np.array_equal(block_sups(zero), np.zeros((len(
        DyadicPartition().multipliers(grid)), 3)))
    assert np.array_equal(besov_norms(zero.coeffs, grid, -0.5), np.zeros(3))
    assert blocks == []


# -- chunking ------------------------------------------------------------------

@pytest.mark.parametrize("dim, modes, components", [(1, 65, 1), (2, 9, 2),
                                                    (3, 5, 9)])
def test_batch_bytes_do_not_change_results(monkeypatch, dim, modes, components):
    grid = TorusGrid(dim, modes)
    f = random_field(grid, components, seed=10)
    stack = heat_stack(grid, 13, seed=11)
    block = 8 * _dense_points(grid) ** dim
    results = []
    for size in (1, block, 3 * block + 1, 64 * 2 ** 10, 2 ** 40):
        monkeypatch.setattr(besov, "BATCH_BYTES", size)
        results.append((besov_norms(f.coeffs[None], grid, -0.5),
                        besov_norms(f.coeffs[None], grid, 0.25, 3.0),
                        besov_norms(stack, grid, -0.5)))
    for got in results[1:]:
        for a, b in zip(got, results[0]):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("dim, modes, components, budget", [
    (1, 65, 1, 20 * 8 * 264),       # 20 top blocks of 264 points
    (2, 17, 2, 32 * 2 ** 10),       # a top block, 70^2 points, is 38 KiB alone
    (3, 9, 9, None)])   # d = 3, N = 4: a top block is 365 KiB, an entry's 1.8 MiB
def test_syntheses_stay_within_batch_bytes(monkeypatch, dim, modes, components,
                                           budget):
    grid = TorusGrid(dim, modes)
    stack = field_stack(grid, 6, components, seed=12)
    want = _block_norms(stack, grid)
    calls = []
    monkeypatch.setattr(besov, "synthesize_coeffs", lambda c, g, pts: calls.append(
        (len(c), 8 * pts ** dim)) or synthesize_coeffs(c, g, pts))
    if budget:
        monkeypatch.setattr(besov, "BATCH_BYTES", budget)
    assert np.array_equal(_block_norms(stack, grid), want)
    assert all(n * size <= besov.BATCH_BYTES or n == 1 for n, size in calls)
    assert any(n > 1 for n, _ in calls)
    # every block whose chi_l meets its entry's coefficients, once
    mult = DyadicPartition().multipliers(grid)
    entries = stack.reshape((-1, 1) + grid.mode_shape)
    live = np.any((entries * mult != 0).reshape(len(entries), len(mult), -1), axis=-1)
    assert sum(n for n, _ in calls) == live.sum() > len(entries)


# -- per-level grids and the certified sup ---------------------------------------

LEVEL_GRIDS = [(1, 257), (1, 195), (1, 4097), (2, 17), (2, 35), (3, 9), (3, 15)]


@pytest.mark.parametrize("dim, modes", LEVEL_GRIDS)
def test_level_grids_hold_each_support_with_margin(dim, modes):
    grid = TorusGrid(dim, modes)
    levels = DyadicPartition().level_grids(grid)
    assert DyadicPartition().level_grids(grid) is levels        # cached
    for (sub, pts), (cube, ref_sub, ref_pts) in zip(levels, ref_levels(grid)):
        assert (sub, pts) == (ref_sub, ref_pts)
        assert 8 * sub.half_band < pts
    assert levels[-1] == (grid, _dense_points(grid))


@pytest.mark.parametrize("dim, modes", [(1, 257), (2, 35), (3, 9)])
def test_top_levels_are_bit_identical_to_whole_grid_sampling(dim, modes):
    grid = TorusGrid(dim, modes)
    f = random_field(grid, components=2, seed=16)
    top = [sub == grid for sub, _ in DyadicPartition().level_grids(grid)]
    assert 1 <= sum(top) < len(top)
    got = block_sups(f)
    whole = ref_block_sups(f, points=_dense_points(grid))
    assert np.array_equal(got[top], whole[top])
    assert not np.array_equal(got, whole)


def sec_factor(k, points, dim):
    """The sampling constant: sup|T| <= sec(pi k / P)^d max_j |T(x_j)| for a
    trigonometric polynomial T of degree k per axis sampled on P^d points."""
    return 1.0 / math.cos(math.pi * k / points) ** dim


# the top multiplier row of (1, 195), (2, 35) and (3, 15) is zero on the cube
@pytest.mark.parametrize("dim, modes", [(1, 195), (1, 4097), (2, 35), (3, 15)])
def test_sampled_sup_certifies_the_brute_force_sup(dim, modes):
    grid = TorusGrid(dim, modes)
    fine = 6 * modes
    f = random_field(grid, components=2, seed=17)
    sampled = block_sups(f)
    brute = ref_block_sups(f, points=fine)
    for l, (sub, pts) in enumerate(DyadicPartition().level_grids(grid)):
        k = sub.half_band
        # s_l <= sup <= brute sec(pi k/fine)^d and brute <= sup <= s_l sec(pi k/P)^d
        assert np.all(sampled[l] <= sec_factor(k, fine, dim) * brute[l])
        assert np.all(brute[l] <= sec_factor(k, pts, dim) * sampled[l])
        assert sec_factor(k, pts, dim) < sec_factor(1, 8, dim)

