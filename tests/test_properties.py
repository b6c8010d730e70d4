"""Property-based invariants on randomly generated band-limited fields."""

import numpy as np
from hypothesis import given, settings, strategies as st

from nlheat.besov import besov_norms
from nlheat.field import SpectralField, TorusGrid, analyze_values, synthesize_real

SETTINGS = dict(max_examples=25, deadline=None)


@st.composite
def real_fields(draw, dim=1, modes=9, components=1):
    grid = TorusGrid(dim, modes)
    seed = draw(st.integers(0, 2 ** 31 - 1))
    rng = np.random.default_rng(seed)
    shape = (components,) + grid.mode_shape
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    flipped = np.conj(np.flip(c, axis=tuple(range(1, c.ndim))))
    return SpectralField(grid, 0.5 * (c + flipped))


@given(real_fields())
@settings(**SETTINGS)
def test_round_trip(f):
    back = analyze_values(synthesize_real(f), f.grid)
    assert np.max(np.abs(back - f.coeffs)) < 1e-11


@given(real_fields(), st.floats(0.0, 2.0))
@settings(**SETTINGS)
def test_heat_is_a_contraction_modewise(f, t):
    out = f.heat(t)
    assert np.all(np.abs(out.coeffs) <= np.abs(f.coeffs) + 1e-15)


@given(real_fields())
@settings(**SETTINGS)
def test_rotation_is_an_isometry(f):
    r = f.rotate()
    assert np.max(np.abs(np.abs(r.coeffs) - np.abs(f.coeffs))) < 1e-14
    assert r.reality_defect() < 1e-12


@given(real_fields(), real_fields(),
       st.floats(-0.9, 0.9), st.floats(-3.0, 3.0))
@settings(**SETTINGS)
def test_besov_norm_axioms(f, g, alpha, lam):
    nf, ng, total, scaled = besov_norms(np.stack([
        f.coeffs, g.coeffs, f.coeffs + g.coeffs, lam * f.coeffs]), f.grid, alpha)
    assert total <= nf + ng + 1e-9 * (1 + nf + ng)
    assert abs(scaled - abs(lam) * nf) < 1e-9 * (1 + nf)


@given(real_fields(), st.floats(-0.9, 0.0), st.sampled_from([1.0, 2.0, 4.0]))
@settings(**SETTINGS)
def test_linf_block_sum_dominates_sup(f, alpha, q):
    assert besov_norms(f.coeffs, f.grid, alpha) <= \
        besov_norms(f.coeffs, f.grid, alpha, q) + 1e-10


@given(real_fields(components=2), st.floats(0.0, 1.0))
@settings(**SETTINGS)
def test_zero_mode_is_heat_invariant(f, t):
    assert np.max(np.abs(f.heat(t).zero_mode() - f.zero_mode())) < 1e-12
