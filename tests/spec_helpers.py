"""Test-only helpers for nonlinearity specs."""

import numpy as np

from nlheat.nonlinearity import NonlinearitySpec


def permuted(spec: NonlinearitySpec, perm) -> NonlinearitySpec:
    """Relabel the basis of E by the permutation ``perm`` (new <- old)."""
    perm = np.asarray(perm)
    B = spec.B[:, perm][:, :, perm][:, :, :, perm]
    return NonlinearitySpec(
        spec.dim, spec.dim_E, B,
        spec.p0[perm], spec.p1[perm][:, perm],
        spec.p2[perm][:, perm][:, :, perm],
        spec.p3[perm][:, perm][:, :, perm][:, :, :, perm])
