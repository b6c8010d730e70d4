"""Test-only helpers for nonlinearity specs and right-hand sides."""

import numpy as np

from nlheat.field import SpectralField
from nlheat.nonlinearity import NonlinearitySpec
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
