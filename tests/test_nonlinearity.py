"""Nonlinearity tensors: presets, witnesses, algebra oracles."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from nlheat.field import SpectralField, TorusGrid, synthesize_real
from nlheat.nonlinearity import (SO3, NonlinearitySpec, asymmetry_witness,
                                 drift_direction, preset)
from nlheat.solver import SolveConfig, solve

from spec_helpers import evaluate_rhs_nonlinear, permuted


def bracket(x, y):
    """so(3) bracket via the structure constants tensor."""
    return np.einsum("abc,a,b->c", SO3, x, y)


class TestStructureConstants:
    def test_so3_is_cross_product(self):
        e = np.eye(3)
        assert np.allclose(bracket(e[0], e[1]), e[2])
        assert np.allclose(bracket(e[1], e[0]), -e[2])
        assert np.allclose(bracket(e[2], e[0]), e[1])

    def test_jacobi_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            x, y, z = rng.standard_normal((3, 3))
            total = bracket(x, bracket(y, z)) + bracket(y, bracket(z, x)) \
                + bracket(z, bracket(x, y))
            assert np.max(np.abs(total)) < 1e-12


class TestWitness:
    def test_antisym2_witness(self):
        spec = preset("antisym2", 1)
        assert asymmetry_witness(spec) == (0, 0, 1)
        assert np.allclose(spec.B[0, :, 0, 1], [1.0, 0.0])
        assert np.allclose(spec.B[0, :, 1, 0], [-1.0, 0.0])

    def test_symmetric_spec_has_no_witness(self):
        # componentwise product: B_1(x, y)_c = x_c y_c, symmetric
        B = np.zeros((1, 2, 2, 2))
        for c in range(2):
            B[0, c, c, c] = 1.0
        spec = NonlinearitySpec.from_parts(1, 2, B=B)
        assert asymmetry_witness(spec) is None

    def test_witness_is_the_first_asymmetric_triple_in_loop_order(self):
        def loop(B):        # the reference: a triple loop over (i, a, b)
            for i in range(B.shape[0]):
                for a in range(B.shape[2]):
                    for b in range(B.shape[2]):
                        if a != b and np.any(B[i, :, a, b] != B[i, :, b, a]):
                            return (i, a, b)
            return None
        rng, found = np.random.default_rng(23), []
        for _ in range(300):
            dim, n = int(rng.integers(1, 4)), int(rng.integers(1, 6))
            shape, density = (dim, n, n, n), rng.choice([0.01, 0.05, 0.2])
            B = np.where(rng.random(shape) < density, rng.integers(-2, 3, shape), 0.0)
            if rng.random() < 0.3:
                B = B + B.transpose(0, 1, 3, 2)             # symmetric in (a, b)
            got = asymmetry_witness(NonlinearitySpec.from_parts(dim, n, B=B))
            assert got == loop(B) and all(type(x) is int for x in got or ())
            found.append(got)
        assert found.count(None) > 50 and len(set(found)) > 10

    def test_dym_witness_every_axis(self):
        spec = preset("dym", 3)
        for i in range(3):
            found = any(
                np.any(spec.B[i, :, a, b] != spec.B[i, :, b, a])
                for a in range(spec.dim_E) for b in range(spec.dim_E))
            assert found, f"axis {i} unexpectedly symmetric"

    def test_drift_direction_antisym2(self):
        spec = preset("antisym2", 1)
        assert np.allclose(drift_direction(spec, 0, 1), [-2.0, 0.0])

    @pytest.mark.parametrize("a, b", [(0, 0), (1, 1), (-1, 0), (0, -1), (0, 2),
                                      (2, 0), (0, 7)])
    def test_drift_direction_rejects_a_pair_outside_E(self, a, b):
        # -1 would index the last component, and 7 past the end of B
        with pytest.raises(ValueError, match=r"\[0, 2\)"):
            drift_direction(preset("antisym2", 1), a, b)

    def test_permutation_equivariance(self):
        spec = preset("dym", 2)
        perm = np.roll(np.arange(spec.dim_E), 1)
        p = permuted(spec, perm)
        i, a, b = asymmetry_witness(spec)
        lhs = spec.B[i, :, a, b]
        # the permuted tensor evaluated on permuted inputs gives permuted output
        pa = int(np.argwhere(perm == a)[0, 0])
        pb = int(np.argwhere(perm == b)[0, 0])
        rhs = p.B[i, :, pa, pb]
        assert np.allclose(lhs[perm], rhs)


class TestPresets:
    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset("navier")

    def test_dymh_extends_dym(self):
        g = preset("dym", 2)
        h = preset("dymh", 2)
        n = g.dim_E
        assert h.dim_E == n + 3
        assert np.array_equal(h.B[:, :n, :n, :n], g.B)

    @pytest.mark.parametrize("name", ["dym", "dymh"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_gauge_tensors_match_bracket_formula(self, name, dim):
        """B_i(X, V) = sum_j 2 [X^i, V^j] dx^j - sum_l [X^l, V^l] dx^i, plus
        2 [X^i, Phi_V] on the Higgs block; P(X)^j = sum_i [X^i, [X^i, X^j]],
        plus sum_i [X^i, [X^i, Phi]] - |Phi|^2 Phi on the Higgs block."""
        spec = preset(name, dim)
        blocks = dim + (name == "dymh")
        assert spec.dim_E == 3 * blocks
        rng = np.random.default_rng(dim)
        X, V = rng.standard_normal((2, blocks, 3))
        fix = sum(bracket(X[l], V[l]) for l in range(dim))
        for i in range(dim):
            expect = np.array([2.0 * bracket(X[i], V[j]) for j in range(blocks)])
            expect[i] -= fix
            got = np.einsum("cab,a,b->c", spec.B[i], X.ravel(), V.ravel())
            assert np.allclose(got, expect.ravel(), rtol=0, atol=1e-12)
        expect = np.array([sum(bracket(X[i], bracket(X[i], X[j]))
                               for i in range(dim)) for j in range(blocks)])
        if name == "dymh":
            expect[dim] -= (X[dim] @ X[dim]) * X[dim]
        x = X.ravel()
        got = np.einsum("cabe,a,b,e->c", spec.p3, x, x, x)
        assert np.allclose(got, expect.ravel(), rtol=0, atol=1e-12)

    def test_symmetrization(self):
        p2 = np.zeros((1, 1, 1))
        p2[0, 0, 0] = 2.0
        spec = NonlinearitySpec.from_parts(1, 1, p2=p2)
        assert np.allclose(spec.p2, np.transpose(spec.p2, (0, 2, 1)))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            NonlinearitySpec(1, 2, np.zeros((1, 2, 2, 3)), np.zeros(2),
                             np.zeros((2, 2)), np.zeros((2, 2, 2)),
                             np.zeros((2, 2, 2, 2)))


class TestRhs:
    def test_constant_antisym2_is_zero(self):
        grid = TorusGrid(1, 9)
        u = SpectralField.constant(grid, [1.0, -2.0])
        out = evaluate_rhs_nonlinear(u, preset("antisym2", 1))
        assert np.max(np.abs(out.coeffs)) < 1e-14

    def test_trig_identity(self):
        # u = (cos x, sin x): B(u, Du) = (cos^2 + sin^2) T^1 = constant T^1
        grid = TorusGrid(1, 9)
        K = grid.half_band
        coeffs = np.zeros((2, 9), complex)
        coeffs[0, K + 1] = coeffs[0, K - 1] = 0.5
        coeffs[1, K + 1] = -0.5j
        coeffs[1, K - 1] = 0.5j
        u = SpectralField(grid, coeffs)
        out = evaluate_rhs_nonlinear(u, preset("antisym2", 1))
        expect = SpectralField.constant(grid, [1.0, 0.0])
        assert np.max(np.abs(out.coeffs - expect.coeffs)) < 1e-12

    def test_bilinearity_second_slot(self):
        grid = TorusGrid(1, 9)
        rng = np.random.default_rng(3)

        def rand_real():
            c = rng.standard_normal((2, 9)) + 1j * rng.standard_normal((2, 9))
            return SpectralField(grid, 0.5 * (c + np.conj(np.flip(c, axis=1))))

        spec = preset("antisym2", 1)
        u, v, w = rand_real(), rand_real(), rand_real()

        def B_of(a, b):
            # evaluate B(a, Db) pointwise on the oversampled grid
            vals_a = synthesize_real(a)
            vals_db = synthesize_real(b.derivative(0))[None]
            return np.einsum("icab,ax,ibx->cx", spec.B, vals_a, vals_db)

        lhs = B_of(u, SpectralField(grid, v.coeffs + w.coeffs))
        rhs = B_of(u, v) + B_of(u, w)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestOdeReduction:
    def test_dym_constant_data_matches_ode(self):
        """Spatially constant data: DX = 0, the flow reduces to the cubic
        ODE dX^j/dt = sum_i [X^i, [X^i, X^j]]; integrate both ways."""
        spec = preset("dym", 2)
        rng = np.random.default_rng(8)
        x0 = 0.4 * rng.standard_normal(spec.dim_E)

        def rhs(_, x):
            X = x.reshape(2, 3)
            out = np.zeros_like(X)
            for j in range(2):
                for i in range(2):
                    out[j] += bracket(X[i], bracket(X[i], X[j]))
            return out.ravel()

        T = 0.5
        ref = solve_ivp(rhs, (0, T), x0, rtol=1e-11, atol=1e-12)
        grid = TorusGrid(2, 5, 10)
        u0 = SpectralField.constant(grid, x0)
        traj = solve(u0, spec, SolveConfig(t_end=T, steps=400))
        assert traj.status == "completed"
        err = np.max(np.abs(traj.zero_mode_path[-1] - ref.y[:, -1]))
        assert err < 1e-5, err

    def test_dymh_higgs_constant_data_matches_ode(self):
        """Constant data with only the Higgs block active: the transport
        coupling vanishes and the flow is dPhi/dt = -|Phi|^2 Phi."""
        spec = preset("dymh", 2)
        phi0 = np.array([0.5, -0.3, 0.2])
        x0 = np.zeros(spec.dim_E)
        x0[-3:] = phi0
        T = 0.4
        # closed form: |Phi(t)|^2 = |Phi_0|^2 / (1 + 2 |Phi_0|^2 t), direction fixed
        grid = TorusGrid(2, 5, 10)
        u0 = SpectralField.constant(grid, x0)
        traj = solve(u0, spec, SolveConfig(t_end=T, steps=400))
        r2 = float(phi0 @ phi0)
        expect = phi0 / np.sqrt(1.0 + 2.0 * r2 * T)
        assert np.max(np.abs(traj.zero_mode_path[-1][-3:] - expect)) < 1e-5
        assert np.max(np.abs(traj.zero_mode_path[-1][:-3])) < 1e-12
