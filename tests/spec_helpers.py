"""Test-only helpers for nonlinearity specs, right-hand sides and Var Z_t."""

import math

import numpy as np

from nlheat.field import SpectralField
from nlheat.nonlinearity import NonlinearitySpec
from nlheat.sampling import VarianceProfile
from nlheat.solver import nonlinear_rhs_coeffs


def permuted(spec: NonlinearitySpec, perm) -> NonlinearitySpec:
    """Relabel the basis of E by the permutation ``perm`` (new <- old)."""
    perm = np.asarray(perm)
    B = spec.B[:, perm][:, :, perm][:, :, :, perm]
    return NonlinearitySpec(
        spec.dim, spec.dim_E, B,
        spec.p0[perm], spec.p1[perm][:, perm],
        spec.p2[perm][:, perm][:, :, perm],
        spec.p3[perm][:, perm][:, :, perm][:, :, :, perm])


def evaluate_rhs_nonlinear(u: SpectralField, spec: NonlinearitySpec) -> SpectralField:
    """B(u, Du) + P(u) as a spectral field."""
    coeffs, _ = nonlinear_rhs_coeffs(u.coeffs, u.grid, spec)
    return SpectralField(u.grid, coeffs)


def picard_nonlinearity(u0: SpectralField, t: float,
                        spec: NonlinearitySpec) -> SpectralField:
    """Quadratic first-iterate term B(P_t u0, D P_t u0) (P excluded)."""
    if t <= 0:
        raise ValueError("t must be positive")
    quad = NonlinearitySpec.from_parts(spec.dim, spec.dim_E, B=spec.B)
    return evaluate_rhs_nonlinear(u0.heat(t), quad)


def Z_variance(profile: VarianceProfile, dim: int, t: float,
               radius: int | None = None) -> float:
    """Var Z_t = sum_{n_1>0} 4 exp(-4 n^2 t) n_1^2 sigma^4(n), exact.

    Uses Var |X_n|^2 = sigma^4(n) for the complex half-space Gaussians.
    Computed by direct lattice enumeration (diagnostic scale only).
    """
    N = int(radius if radius is not None else math.floor(profile.cutoff + 1e-9))
    axes = [np.arange(-N, N + 1)] * dim
    mesh = np.meshgrid(*axes, indexing="ij")
    n1 = mesh[0].ravel().astype(float)
    n2 = sum(m.ravel().astype(float) ** 2 for m in mesh)
    keep = (n1 > 0) & (n2 <= N * N + 1e-9)
    sig2 = profile.sigma2_from_r2(n2[keep])
    return float(np.sum(4.0 * np.exp(-4.0 * n2[keep] * t)
                        * n1[keep] ** 2 * sig2 ** 2))
