"""Real-to-complex transforms against the zero-padded complex FFT path.

The reference below is the complex path the spectral core replaced: scatter
the coefficient cube into a zero G^d array, then ``ifftn``/``fftn``.
"""

import numpy as np
import pytest
from scipy import fft as sfft

from nlheat import besov, solver
from nlheat.besov import DyadicPartition, besov_norms
from nlheat.field import (SpectralField, TorusGrid, _mirror, analyze_values,
                          dealias_points, synthesize_coeffs, synthesize_real)
from nlheat.nonlinearity import preset
from nlheat.sampling import VarianceProfile, sample_real_gfs, stream
from test_besov_core import rule_blocks

RTOL = 1e-12


def _scatter_index(grid, points):
    return (Ellipsis,) + np.ix_(*([grid.wavenumbers % points] * grid.dim))


def ref_synthesize(coeffs, grid, points=None):
    G = points or grid.points_per_axis
    full = np.zeros(coeffs.shape[:-grid.dim] + (G,) * grid.dim, complex)
    full[_scatter_index(grid, G)] = coeffs
    return sfft.ifftn(full, axes=tuple(range(-grid.dim, 0))) * G ** grid.dim


def _into(values, out):
    """``values``, copied into ``out`` when given (synthesis's ``out=``)."""
    if out is None:
        return values
    out[...] = values
    return out


def irfftn_synthesize_half(half, grid, G, out=None):
    """Synthesis before band pruning, of k_d >= 0 half cubes: scattered into
    a zero (G,)*(d-1) + (K+1,) array, then one ``irfftn`` (d >= 2)."""
    d, K = grid.dim, grid.half_band
    pad = np.zeros(half.shape[:-d] + (G,) * (d - 1) + (K + 1,), complex)
    band = np.ix_(*[grid.wavenumbers % G] * (d - 1))
    pad[(Ellipsis, *band, slice(None))] = half
    return _into(sfft.irfftn(pad, s=(G,) * d, axes=tuple(range(-d, 0)),
                             norm="forward"), out)


def irfftn_synthesize(coeffs, grid, points=None):
    return irfftn_synthesize_half(coeffs[..., grid.half_band:], grid,
                                  points or grid.points_per_axis)


def counting(calls, name, fn):
    """``fn``, counting its calls in ``calls[name]``."""
    calls[name] = 0

    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return counted


def ref_analyze(values, grid):
    G = values.shape[-1]
    full = sfft.fftn(np.asarray(values, complex),
                     axes=tuple(range(-grid.dim, 0))) / G ** grid.dim
    return full[_scatter_index(grid, G)]


def rel_err(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def random_coeffs(rng, lead, grid):
    shape = lead + grid.mode_shape
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    flip = tuple(range(-grid.dim, 0))
    return 0.5 * (c + np.conj(np.flip(c, axis=flip)))


GRIDS = [(1, 7, 11), (1, 7, 12), (1, 9, 9), (2, 7, 11), (2, 7, 12),
         (3, 5, 7), (3, 5, 8)]


@pytest.mark.parametrize("dim, modes, points", GRIDS)
def test_synthesis_matches_complex_path(dim, modes, points):
    grid = TorusGrid(dim, modes, points)
    coeffs = random_coeffs(np.random.default_rng(modes + points), (2, 3), grid)
    got = synthesize_coeffs(coeffs, grid)
    assert got.dtype == np.float64 and got.shape == (2, 3) + (points,) * dim
    assert rel_err(got, ref_synthesize(coeffs, grid)) <= RTOL


@pytest.mark.parametrize("modes, points", [(7, 11), (7, 12), (9, 9), (129, 200),
                                           (2049, 3125), (257, 1029)])
def test_d1_transforms_are_bit_identical_to_scipy_rfft(modes, points):
    grid = TorusGrid(1, modes, points)
    K = grid.half_band
    coeffs = random_coeffs(np.random.default_rng(points), (2, 3), grid)
    assert np.array_equal(synthesize_coeffs(coeffs, grid),
                          sfft.irfft(coeffs[..., K:], n=points, norm="forward"))
    values = np.random.default_rng(modes).standard_normal((2, 3, points))
    half = sfft.rfft(values, norm="forward")
    got = analyze_values(values, grid)
    assert np.array_equal(got[..., K:], half[..., :K + 1])
    assert np.array_equal(got[..., :K], np.conj(half[..., K:0:-1]))


@pytest.mark.parametrize("dim, modes", [(2, 7), (2, 9), (3, 5), (3, 7)])
@pytest.mark.parametrize("points", ["M", "odd", "even", "dense"])
def test_pruned_synthesis_is_bit_identical_to_irfftn(dim, modes, points):
    grid = TorusGrid(dim, modes, 2 * modes)
    G = {"M": modes, "odd": modes + 2, "even": modes + 3,
         "dense": besov._dense_points(grid)}[points]
    coeffs = random_coeffs(np.random.default_rng(G), (2, 3), grid)
    got = synthesize_coeffs(coeffs, grid, G)
    assert got.shape == (2, 3) + (G,) * dim
    assert np.array_equal(got, irfftn_synthesize(coeffs, grid, G))


@pytest.mark.parametrize("dim, modes", [(2, 7), (2, 9), (3, 5), (3, 7)])
@pytest.mark.parametrize("points", ["M", "odd", "even", "dense"])
def test_pruned_analysis_is_bit_identical_to_rfftn(dim, modes, points):
    grid = TorusGrid(dim, modes, 2 * modes)
    G = {"M": modes, "odd": modes + 2, "even": modes + 3,
         "dense": besov._dense_points(grid)}[points]
    values = np.random.default_rng(G).standard_normal((2, 3) + (G,) * dim)
    K = grid.half_band
    full = sfft.rfftn(values, axes=tuple(range(-dim, 0)), norm="forward")
    want = full[(Ellipsis, *np.ix_(*[grid.wavenumbers % G] * (dim - 1)), slice(K + 1))]
    rev = (slice(None, None, -1),) * (dim - 1)
    want[..., 0] = 0.5 * (want[..., 0] + np.conj(want[(Ellipsis, *rev, 0)]))
    assert np.array_equal(analyze_values(values, TorusGrid(dim, modes, G))[..., K:], want)


def test_dym_solve_is_bit_identical_to_irfftn_and_one_chunk(monkeypatch):
    """A whole d=3 solve, chunked RHS (9 chunks at the default budget) and
    pruned synthesis, against one chunk and the irfftn synthesis.  Exact
    equality of the chunked RHS also relies on BLAS summing each column of a
    matrix product in an order independent of the number of columns (as
    OpenBLAS's dgemm does); see test_plan.py."""
    spec = preset("dym", 3)
    grid = TorusGrid(3, 9, dealias_points(9, cubic=True, dim=3))
    widest = max(cols.shape[1] for cols, *_ in spec.plan.values())
    assert 8 * widest * grid.points_per_axis ** 3 > besov.BATCH_BYTES
    u0 = SpectralField(grid, 0.05 * random_coeffs(np.random.default_rng(9),
                                                  (spec.dim_E,), grid))
    config = solver.SolveConfig(t_end=0.02, steps=6, snapshot_times=(0.01,))
    new = solver.solve(u0, spec, config)
    calls = {}
    monkeypatch.setattr(solver, "_synthesize_half",
                        counting(calls, "synthesis", irfftn_synthesize_half))
    monkeypatch.setattr(besov, "BATCH_BYTES", 2 ** 40)
    old = solver.solve(u0, spec, config)
    assert new.status == old.status == "completed" and new.steps == 6
    # u and its 3 derivatives per right-hand side, 2 per step but the last
    assert calls == {"synthesis": 4 * 2 * new.steps}
    assert np.array_equal(new.zero_mode_path, old.zero_mode_path)
    assert new.sup_max == old.sup_max
    assert new.times == old.times and len(new.fields) == 3
    for a, b in zip(new.fields, old.fields):
        assert np.array_equal(a.coeffs, b.coeffs)


@pytest.mark.parametrize("dim, modes, points", GRIDS)
def test_analysis_matches_complex_path_and_is_hermitian(dim, modes, points):
    grid = TorusGrid(dim, modes, points)
    values = np.random.default_rng(dim).standard_normal((2, 3) + (points,) * dim)
    got = analyze_values(values, grid)
    assert rel_err(got, ref_analyze(values, grid)) <= RTOL
    assert SpectralField(grid, got.reshape((6,) + grid.mode_shape)).reality_defect() == 0


def test_multipliers_are_cached_and_read_only():
    grid = TorusGrid(2, 17)
    first = DyadicPartition().multipliers(grid)
    assert DyadicPartition().multipliers(grid) is first
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0, 0, 0] = 2.0


def _patch_reference(monkeypatch):
    """Swap the complex path in for every transform the solver module calls:
    the whole-cube ones of ``nonlinear_rhs_coeffs`` and the half-cube cores
    of ``_rhs``; returns their call counts."""
    def synthesize_half(half, grid, points, out=None):
        full = _mirror(half, grid)
        return _into(ref_synthesize(full, grid, points).real, out)

    calls = {}
    for name, fn in [("synthesize_coeffs", lambda c, g, points=None, out=None:
                      _into(ref_synthesize(c, g, points).real, out)),
                     ("analyze_values", ref_analyze),
                     ("_synthesize_half", synthesize_half),
                     ("_analyze_half", lambda v, g: ref_analyze(v, g)[..., g.half_band:])]:
        monkeypatch.setattr(solver, name, counting(calls, name, fn))
    return calls


def test_solve_matches_complex_path(monkeypatch):
    spec = preset("antisym2", 1)
    grid = TorusGrid(1, 129, dealias_points(129))
    prof = VarianceProfile.white(64)
    u0 = SpectralField.from_components(
        [sample_real_gfs(prof, grid, stream(5, 0, c)) for c in range(2)])
    config = solver.SolveConfig(t_end=20 * 0.5 / 64 ** 2, steps=20)
    new = solver.solve(u0, spec, config)
    calls = _patch_reference(monkeypatch)
    old = solver.solve(u0, spec, config)
    assert new.status == old.status == "completed"
    # d = 1: u and d_1 u in one synthesis, 2 right-hand sides per step but the last
    assert calls == {"synthesize_coeffs": 0, "analyze_values": 0,
                     "_synthesize_half": 2 * new.steps, "_analyze_half": 2 * new.steps}
    assert rel_err(new.zero_mode_path, old.zero_mode_path) <= RTOL
    assert rel_err(new.fields[-1].coeffs, old.fields[-1].coeffs) <= RTOL


def test_dym_rhs_matches_complex_path(monkeypatch):
    spec = preset("dym", 3)
    grid = TorusGrid(3, 9, dealias_points(9, cubic=True, dim=3))
    coeffs = random_coeffs(np.random.default_rng(3), (spec.dim_E,), grid)
    half, layout = coeffs[..., grid.half_band:], solver._layout(spec, grid, spec.dim_E)
    new, new_sup = solver.nonlinear_rhs_coeffs(coeffs, grid, spec)
    new_half, new_half_sup = solver._rhs(half, grid, *layout)
    calls = _patch_reference(monkeypatch)
    old, old_sup = solver.nonlinear_rhs_coeffs(coeffs, grid, spec)
    old_half, old_half_sup = solver._rhs(half, grid, *layout)
    assert calls == {"synthesize_coeffs": 4, "analyze_values": 1,
                     "_synthesize_half": 4, "_analyze_half": 1}
    assert rel_err(new, old) <= RTOL and rel_err(new_half, old_half) <= RTOL
    assert abs(new_sup - old_sup) <= RTOL * old_sup
    assert abs(new_half_sup - old_half_sup) <= RTOL * old_half_sup
    assert np.array_equal(new[..., grid.half_band:], new_half) and new_sup == new_half_sup


# -- non-real input is rejected -----------------------------------------------

def non_real_field(grid, components=2):
    coeffs = random_coeffs(np.random.default_rng(11), (components,), grid)
    coeffs[(0,) + (grid.half_band + 1,) * grid.dim] += 1e-3j
    return SpectralField(grid, coeffs)


def test_solve_rejects_non_real_data():
    spec = preset("antisym2", 1)
    grid = TorusGrid(1, 17)
    with pytest.raises(ValueError, match="not real"):
        solver.solve(non_real_field(grid), spec,
                     solver.SolveConfig(t_end=0.01, steps=2))


def test_besov_norms_reject_non_real_fields():
    grid = TorusGrid(2, 9)
    f = non_real_field(grid)
    with pytest.raises(ValueError, match="not real"):
        besov_norms(f.coeffs[None], grid, -0.5)
    with pytest.raises(ValueError, match="not real"):
        besov_norms(f.coeffs, grid, -0.5)


def test_synthesize_real_checks_coefficients():
    grid = TorusGrid(1, 9)
    f = non_real_field(grid, components=1)
    with pytest.raises(ValueError, match="not real"):
        synthesize_real(f)
    g = SpectralField(grid, random_coeffs(np.random.default_rng(2), (1,), grid))
    assert np.array_equal(synthesize_real(g), synthesize_coeffs(g.coeffs, grid))


@pytest.mark.parametrize("dim, modes", [(1, 33), (2, 9)])
def test_holder_batch_chunks_match_one_shot(monkeypatch, dim, modes):
    grid = TorusGrid(dim, modes)
    stack = random_coeffs(np.random.default_rng(dim), (7,), grid)
    one_shot = besov_norms(stack, grid, -0.5)
    one_shot_q4 = besov_norms(stack, grid, -0.5, 4.0)
    calls = []
    monkeypatch.setattr(besov, "synthesize_coeffs",
                        lambda *a: calls.append(1) or synthesize_coeffs(*a))
    monkeypatch.setattr(besov, "BATCH_BYTES", 1)    # one block per chunk
    chunked = besov_norms(stack, grid, -0.5)
    # the q = inf skip leaves the blocks its rule predicts
    assert len(calls) == rule_blocks(stack, grid, -0.5)
    assert np.max(np.abs(chunked - one_shot)) <= RTOL * np.max(one_shot)
    # with q < inf every live block is synthesised
    calls.clear()
    chunked = besov_norms(stack, grid, -0.5, 4.0)
    mult = DyadicPartition().multipliers(grid)       # every mode is non-zero
    assert len(calls) == len(stack) * np.any(mult.reshape(len(mult), -1), axis=1).sum()
    assert np.max(np.abs(chunked - one_shot_q4)) <= RTOL * np.max(one_shot_q4)
