"""The batched Besov core against the two pipelines it replaced.

The references below are the pre-merge bodies of ``block_lp_norms`` and
``holder_norms_batch``: multiply the coefficients by every chi_l, synthesise
every (entry, level) block on the dense grid, take the sup or the mean.
The core skips blocks whose coefficients miss the support of chi_l and
synthesises in chunks, so its results must equal these bit for bit.
"""

import math

import numpy as np
import pytest

from nlheat import besov
from nlheat.besov import (DyadicPartition, _block_norms, _dense_points,
                          besov_norm, block_lp_norms, holder_norm,
                          holder_norms_batch)
from nlheat.field import SpectralField, TorusGrid, synthesize_coeffs
from nlheat.sampling import VarianceProfile, sample_real_gfs, stream

REF_BATCH_BYTES = 256 * 2 ** 20


def ref_block_lp_norms(field, p, partition=None, points=None):
    partition = partition or DyadicPartition()
    field.require_real()
    grid = field.grid
    mult = partition.multipliers(grid)              # (L, M..)
    blocks = field.coeffs[None] * mult[:, None]     # (L, nc, M..)
    pts = points or _dense_points(grid)
    vals = synthesize_coeffs(blocks, grid, pts).reshape(len(mult), field.components, -1)
    flat = np.abs(vals, out=vals)
    if math.isinf(p):
        return flat.max(axis=-1)
    return (np.mean(flat ** p, axis=-1)) ** (1.0 / p)


def ref_holder_norms_batch(coeff_stack, grid, alpha, partition=None, points=None):
    partition = partition or DyadicPartition()
    SpectralField(grid, coeff_stack).require_real()
    mult = partition.multipliers(grid)                    # (L, M..)
    pts = points or _dense_points(grid)
    rows = max(1, REF_BATCH_BYTES // (8 * len(mult) * pts ** grid.dim))
    sup = []
    for start in range(0, len(coeff_stack), rows):
        blocks = coeff_stack[start:start + rows, None] * mult    # (b, L, M..)
        vals = synthesize_coeffs(blocks, grid, pts).reshape(len(blocks), len(mult), -1)
        sup.append(np.abs(vals, out=vals).max(axis=-1))
    levels = np.arange(-1, mult.shape[0] - 1)
    return (2.0 ** (alpha * levels)[None, :] * np.concatenate(sup)).max(axis=1)


def ref_besov_norm(monkeypatch, field, alpha, p, q):
    with monkeypatch.context() as m:
        m.setattr(besov, "block_lp_norms", ref_block_lp_norms)
        return besov_norm(field, alpha, p, q)


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

def test_d1_batch_matches_reference():
    grid = TorusGrid(1, 257)
    stack = heat_stack(grid, 101)
    assert np.array_equal(holder_norms_batch(stack, grid, -0.5),
                          ref_holder_norms_batch(stack, grid, -0.5))
    assert np.array_equal(holder_norms_batch(stack, grid, 0.25),
                          ref_holder_norms_batch(stack, grid, 0.25))


@pytest.mark.parametrize("radius", [16, 1024])
@pytest.mark.parametrize("q", [math.inf, 4.0])
def test_d1_band_difference_matches_reference(monkeypatch, radius, q):
    grid = TorusGrid(1, 4097, 4098)
    diff = band_difference(grid, radius, seed=radius)
    assert np.array_equal(block_lp_norms(diff, math.inf),
                          ref_block_lp_norms(diff, math.inf))
    got = besov_norm(diff, -0.5, math.inf, q)
    assert got == ref_besov_norm(monkeypatch, diff, -0.5, math.inf, q)


@pytest.mark.parametrize("p", [math.inf, 1.0, 3.0])
def test_d2_matches_reference(p):
    grid = TorusGrid(2, 17)
    f = random_field(grid, components=2, seed=4)
    assert np.array_equal(block_lp_norms(f, p), ref_block_lp_norms(f, p))
    diff = band_difference(grid, 5, seed=5)
    assert np.array_equal(block_lp_norms(diff, p), ref_block_lp_norms(diff, p))
    stack = heat_stack(grid, 9, seed=6)
    assert np.array_equal(holder_norms_batch(stack, grid, -0.5),
                          ref_holder_norms_batch(stack, grid, -0.5))


@pytest.mark.parametrize("p", [math.inf, 2.0])
def test_d3_nine_components_matches_reference(p):
    grid = TorusGrid(3, 9, 18)
    f = random_field(grid, components=9, seed=7)
    assert np.array_equal(block_lp_norms(f, p), ref_block_lp_norms(f, p))
    diff = band_difference(grid, 2, seed=8)
    assert np.array_equal(block_lp_norms(diff, p), ref_block_lp_norms(diff, p))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_infinite_coefficient_matches_reference():
    # inf * 0 is NaN in blocks that miss the mode, so nothing may be skipped;
    # NaN coefficients never get here: the reality check rejects them
    grid = TorusGrid(1, 33)
    f = band_difference(grid, 8, seed=9)
    f.coeffs[0, grid.half_band + 12] = np.inf
    np.testing.assert_array_equal(block_lp_norms(f, math.inf),
                                  ref_block_lp_norms(f, math.inf))
    assert np.isnan(block_lp_norms(f, math.inf)).any()
    f.coeffs[0, grid.half_band + 12] = np.nan
    with pytest.raises(ValueError, match="not real"):
        block_lp_norms(f, math.inf)


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
        per_comp = [ref_holder_norms_batch(stack[:, c], grid, alpha)
                    for c in range(components)]
        want = np.stack(per_comp, axis=-1).sum(axis=-1)
        assert np.array_equal(holder_norms_batch(stack, grid, alpha), want)
        assert [holder_norm(SpectralField(grid, f), alpha) for f in stack] \
            == list(want)


def test_each_field_is_checked_against_its_own_scale():
    # the batch's largest scale would hide the small field's defect
    grid = TorusGrid(1, 33)
    big = 1e6 * random_field(grid, seed=14).coeffs[0]
    small = random_field(grid, seed=15).coeffs[0]
    small[grid.half_band + 3] += 1e-8j
    assert holder_norms_batch(np.stack([big, big]), grid, -0.5).all()
    with pytest.raises(ValueError, match="not real"):
        holder_norms_batch(np.stack([big, small]), grid, -0.5)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_entry_leaves_other_entries_skipped(monkeypatch):
    grid = TorusGrid(1, 257)
    fields = [band_difference(grid, 32, seed=s) for s in range(3)]
    stack = np.stack([f.coeffs for f in fields])
    stack[1, 0, grid.half_band + 40] = np.nan
    mult = DyadicPartition().multipliers(grid)
    blocks = counting_synthesis(monkeypatch)
    got = _block_norms(stack, grid, math.inf)
    # the NaN entry synthesises every level, the others only their live ones
    live = [int(np.any(mult * f.coeffs != 0, axis=1).sum()) for f in fields]
    assert len(blocks) == live[0] + len(mult) + live[2] < 3 * len(mult)
    assert np.isnan(got[1]).all()
    for row in (0, 2):
        assert np.array_equal(got[row], ref_block_lp_norms(fields[row], math.inf))


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
    want = ref_block_lp_norms(diff, math.inf)
    blocks = counting_synthesis(monkeypatch)
    got = block_lp_norms(diff, math.inf)
    assert len(blocks) == len(overlapping) < len(want)
    assert all(np.any(b) for b in blocks)
    assert np.array_equal(got, want)
    skipped = np.setdiff1d(np.arange(-1, len(want) - 1), overlapping) + 1
    assert np.all(got[skipped] == 0.0)


def test_zero_field_synthesises_nothing(monkeypatch):
    grid = TorusGrid(2, 9)
    zero = SpectralField.zero(grid, 3)
    blocks = counting_synthesis(monkeypatch)
    assert holder_norm(zero, -0.5) == 0.0
    assert np.array_equal(block_lp_norms(zero, 2.0), np.zeros((len(
        DyadicPartition().multipliers(grid)), 3)))
    assert np.array_equal(holder_norms_batch(zero.coeffs, grid, -0.5), np.zeros(3))
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
        results.append((block_lp_norms(f, math.inf), block_lp_norms(f, 3.0),
                        holder_norms_batch(stack, grid, -0.5)))
    for got in results[1:]:
        for a, b in zip(got, results[0]):
            assert np.array_equal(a, b)


def test_chunks_hold_whole_entries_within_batch_bytes(monkeypatch):
    grid = TorusGrid(1, 65)
    stack = heat_stack(grid, 13, seed=12)
    block = 8 * _dense_points(grid)
    sizes = []
    monkeypatch.setattr(besov, "synthesize_coeffs",
                        lambda *a: sizes.append(len(a[0])) or synthesize_coeffs(*a))
    monkeypatch.setattr(besov, "BATCH_BYTES", 20 * block)
    holder_norms_batch(stack, grid, -0.5)
    # every row meets every chi_l that is not zero on the whole cube
    live = int(np.any(DyadicPartition().multipliers(grid) != 0, axis=1).sum())
    assert sizes and all(s % live == 0 and s <= 20 for s in sizes)
    assert sum(sizes) == live * len(stack)
