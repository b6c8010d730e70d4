"""The compiled nonlinearity against a dense einsum over the full tensors."""

import numpy as np
import pytest

from nlheat import besov, solver
from nlheat.field import (TorusGrid, analyze_values, dealias_points,
                          synthesize_coeffs)
from nlheat.nonlinearity import NonlinearitySpec, preset
from nlheat.solver import nonlinear_rhs_coeffs

RTOL = 1e-12


def einsum_rhs(coeffs, grid, spec):
    """B(u, Du) + P(u) contracted over every tensor entry, zeros included."""
    u = synthesize_coeffs(coeffs, grid).real
    kmults = np.stack([1j * grid.axis_wavenumbers(i) * np.ones(grid.mode_shape)
                       for i in range(grid.dim)])
    du = synthesize_coeffs(kmults[:, None] * coeffs[None], grid).real
    out = np.einsum("icab,a...,ib...->c...", spec.B, u, du)
    out += spec.p0.reshape((-1,) + (1,) * grid.dim)
    out += np.einsum("ca,a...->c...", spec.p1, u)
    out += np.einsum("cab,a...,b...->c...", spec.p2, u, u)
    out += np.einsum("cabe,a...,b...,e...->c...", spec.p3, u, u, u)
    return analyze_values(out, grid)


def real_coeffs(rng, components, grid):
    shape = (components,) + grid.mode_shape
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    flip = tuple(range(1, grid.dim + 1))
    return 0.5 * (c + np.conj(np.flip(c, axis=flip)))


def grid_for(spec, radius):
    M = 2 * radius + 1
    return TorusGrid(spec.dim, M, dealias_points(M, spec.has_cubic(), spec.dim))


def assert_matches_einsum(spec, radius, seed=0):
    grid = grid_for(spec, radius)
    coeffs = real_coeffs(np.random.default_rng(seed), spec.dim_E, grid)
    got, sup_u = nonlinear_rhs_coeffs(coeffs, grid, spec)
    want = einsum_rhs(coeffs, grid, spec)
    assert np.max(np.abs(got - want)) <= RTOL * np.max(np.abs(want))
    assert sup_u == np.max(np.abs(synthesize_coeffs(coeffs, grid).real))


@pytest.mark.parametrize("name, dim, radius", [
    ("antisym2", 1, 16), ("dym", 2, 4), ("dym", 3, 2), ("dymh", 2, 4)])
def test_presets_match_einsum(name, dim, radius):
    assert_matches_einsum(preset(name, dim), radius)


def random_spec(dim, n, seed):
    rng = np.random.default_rng(seed)
    return NonlinearitySpec.from_parts(
        dim, n, B=rng.standard_normal((dim, n, n, n)),
        p0=rng.standard_normal(n), p1=rng.standard_normal((n, n)),
        p2=rng.standard_normal((n, n, n)), p3=rng.standard_normal((n, n, n, n)))


@pytest.mark.parametrize("dim", [1, 2])
def test_random_spec_all_parts_match_einsum(dim):
    spec = random_spec(dim, 3, seed=dim)
    plan = spec.plan
    assert list(plan) == ["B", "p0", "p1", "p2", "p3"]
    assert plan["B"][0].shape == (3, dim * 9)
    assert plan["p2"][0].shape == (3, 6) and plan["p3"][0].shape == (3, 10)
    assert_matches_einsum(spec, 4, seed=dim)


def test_plan_keeps_only_nonzero_terms():
    spec = preset("dym", 3)
    plan = spec.plan
    assert list(plan) == ["B", "p3"]
    # 90 non-zero (i, a, b) slots of B, each column one entry
    assert plan["B"][0].shape == (9, 90)
    assert np.count_nonzero(spec.B) == 90
    # B's slots are rows (a, (i + 1) dim_E + b) of the stack [u; d_1 u; ...]
    cols, a, row = plan["B"]
    block, b = np.divmod(row, spec.dim_E)
    assert np.all(a < spec.dim_E) and np.all((block >= 1) & (block <= 3))
    assert np.array_equal(cols, spec.B[block - 1, :, a, b].T)
    assert set(zip(block - 1, a, b)) == set(zip(*np.nonzero(spec.B.any(axis=1))))
    cols, a, b, e = plan["p3"]
    assert cols.shape[0] == 9 and np.all(cols.any(axis=0))
    assert np.all(a <= b) and np.all(b <= e)


def test_plan_is_cached_on_the_spec():
    spec = preset("antisym2", 1)
    assert spec.plan is spec.plan


def unsymmetric_p3(n, keep_cubic):
    """p3 built directly (no symmetrisation): the u_0 u_0 u_1 column cancels."""
    p3 = np.zeros((n, n, n, n))
    p3[0, 0, 0, 1] = 1.0
    p3[0, 0, 1, 0] = -1.0
    if keep_cubic:
        p3[1, 1, 1, 0] = 0.5
    return p3


@pytest.mark.parametrize("keep_cubic", [True, False])
def test_cancelling_column_grid_size(keep_cubic):
    n, dim = 2, 1
    B = np.zeros((dim, n, n, n))
    B[0, 0, 0, 1] = 1.0
    zeros = NonlinearitySpec.from_parts(dim, n)
    spec = NonlinearitySpec(dim, n, B, zeros.p0, zeros.p1, zeros.p2,
                            unsymmetric_p3(n, keep_cubic))
    assert spec.has_cubic() is keep_cubic
    assert spec.has_quadratic()
    grid = grid_for(spec, 8)
    assert grid.cubic_headroom() is keep_cubic
    assert_matches_einsum(spec, 8)
    if keep_cubic:
        assert list(zip(*spec.plan["p3"][1:])) == [(0, 1, 1)]
    else:
        assert "p3" not in spec.plan


CHUNK_SPECS = [("antisym2", 1, 16), ("antisym2", 2, 4), ("dym", 2, 4),
               ("dym", 3, 2), ("dymh", 2, 4), ("random", 1, 4), ("random", 2, 4)]


@pytest.mark.parametrize("name, dim, radius", CHUNK_SPECS)
def test_chunked_rhs_is_bit_identical_to_one_chunk(monkeypatch, name, dim,
                                                   radius):
    spec = random_spec(dim, 3, seed=dim) if name == "random" else preset(name, dim)
    M = 2 * radius + 1
    grid = TorusGrid(dim, M, dealias_points(M, spec.has_cubic(), dim))
    coeffs = real_coeffs(np.random.default_rng(radius), spec.dim_E, grid)
    n = grid.points_per_axis ** dim
    width = next(w for w in range(3, n) if n % w)           # does not divide n
    calls = []
    contract = solver._contract
    monkeypatch.setattr(solver, "_contract",
                        lambda *a: calls.append(a[2].shape[1]) or contract(*a))
    results = {}
    widest = max(cols.shape[1] for cols, *_ in spec.plan.values())
    for budget in (2 ** 40, 1, 8 * widest * width):
        monkeypatch.setattr(besov, "BATCH_BYTES", budget)
        calls.clear()
        results[budget] = nonlinear_rhs_coeffs(coeffs, grid, spec)
        assert sum(calls) == n and min(calls) >= 2
        assert len(calls) == {2 ** 40: 1, 1: n // 2}.get(budget, -(-n // width))
    # Exact equality pins a BLAS property as well as the chunking: each output
    # column of cols @ factors is summed over the columns of cols in an order
    # that does not depend on how many factor columns there are (true of
    # OpenBLAS's dgemm).  On a BLAS that dispatches on the product size, a
    # failure here need not mean the chunks are wrong.
    one, *chunked = results.values()
    for rhs, sup_u in chunked:
        assert np.array_equal(rhs, one[0]) and sup_u == one[1]
