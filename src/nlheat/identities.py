"""Exact operator identities used as a fast self-test.

Each check evaluates both sides of an algebraic identity on concrete
fields and reports the sup defect together with its tolerance.  These are
the machine-checkable facts the rest of the toolkit relies on: transform
round-trips, semigroup and derivative commutation, dealiased products,
the rotation algebra, and the telescoping partition of unity.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
import math

import numpy as np

from .besov import DyadicPartition
from .correlation import compute_Zt, expected_Zt
from .field import (SpectralField, TorusGrid, analyze, pointwise_product,
                    synthesize_real)
from .sampling import VarianceProfile, sample_real_gfs, stream


@dataclass(frozen=True)
class IdentityResult:
    name: str
    defect: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.defect <= self.tol


def _rand_field(grid: TorusGrid, seed: int, components: int = 1) -> SpectralField:
    prof = VarianceProfile.white(grid.half_band)
    parts = [sample_real_gfs(prof, grid, stream(seed, c))
             for c in range(components)]
    return SpectralField.from_components(parts)


def run_identity_suite(seed: int = 7, dim: int = 2) -> list:
    """All exact identities on random band-limited fields."""
    grid = TorusGrid(dim, 9)
    f = _rand_field(grid, seed)
    g = _rand_field(grid, seed + 1)
    out = []

    def check(name, defect, tol=1e-12):
        out.append(IdentityResult(name, float(defect), tol))

    # transform round trip: analyze(synthesize(f)) == f
    vals = synthesize_real(f)
    back = analyze(vals, grid)
    check("transform round trip", np.max(np.abs(back.coeffs - f.coeffs)))

    # semigroup composition: P_s P_t = P_{s+t}
    lhs = f.heat(0.3).heat(0.2)
    check("heat semigroup composition",
          np.max(np.abs(lhs.coeffs - f.heat(0.5).coeffs)))

    # derivative commutes with the semigroup
    lhs = f.heat(0.1).derivative(0)
    rhs = f.derivative(0).heat(0.1)
    check("derivative/semigroup commutation",
          np.max(np.abs(lhs.coeffs - rhs.coeffs)))

    # Leibniz through the product: d(fg) = (df) g + f (dg), on the last axis
    prod = pointwise_product(f, g)
    lhs = prod.derivative(dim - 1)
    rhs = pointwise_product(f.derivative(dim - 1), g) \
        + pointwise_product(f, g.derivative(dim - 1))
    scale = 1.0 + np.max(np.abs(lhs.coeffs))
    check("Leibniz rule (dealiased)",
          np.max(np.abs(lhs.coeffs - rhs.coeffs)) / scale, 1e-10)

    # rotation squares to -Id on the modes it moves (k_1 != 0)
    k1 = grid.axis_wavenumbers(0) * np.ones(grid.mode_shape)
    moving = SpectralField(grid, np.where(k1 != 0, f.coeffs, 0.0))
    r2 = moving.rotate().rotate()
    check("rotation squares to -1 where k_1 != 0",
          np.max(np.abs(r2.coeffs + moving.coeffs)))

    # rotation preserves reality
    check("rotation preserves reality", f.rotate().reality_defect())

    # mean removal + zero mode reconstruct the field
    recon = f.remove_mean().coeffs.copy()
    recon[grid.zero_mode_index] += f.zero_mode()
    check("mean/fluctuation splitting", np.max(np.abs(recon - f.coeffs)))

    # band projection is idempotent
    p = f.project_band(2.0)
    check("band projection idempotent",
          np.max(np.abs(p.project_band(2.0).coeffs - p.coeffs)))

    # partition of unity telescopes to 1 on the grid frequencies
    part = DyadicPartition()
    mult = part.multipliers(grid)
    check("dyadic partition of unity", np.max(np.abs(mult.sum(axis=0) - 1.0)),
          1e-10)

    # realised Z_t at t=0 equals the plain half-space weighted square sum
    prof = VarianceProfile.white(grid.half_band)
    X = sample_real_gfs(prof, grid, stream(seed, 3))
    k1 = grid.axis_wavenumbers(0) * np.ones(grid.mode_shape)
    direct = float(np.sum(2.0 * np.where(k1 > 0, k1, 0.0)
                          * np.abs(X.coeffs[0]) ** 2))
    check("Z_0 equals the lattice sum",
          abs(compute_Zt(X, 0.0) - direct) / (1.0 + direct), 1e-10)

    # zero mode of (RX) d_1 X equals Z_t under the heat flow
    t = 0.05
    Xa, Xb = X.heat(t).rotate(), X.heat(t).derivative(0)
    z_field = float(pointwise_product(Xa, Xb).zero_mode()[0])
    check("resonant zero-mode identity",
          abs(z_field - compute_Zt(X, t)) / (1.0 + abs(z_field)), 1e-10)

    # bucketed expectation matches direct lattice enumeration
    direct = 0.0
    K = grid.half_band
    for n in product(range(-K, K + 1), repeat=dim):
        n2 = sum(x * x for x in n)
        if n[0] > 0 and n2 <= K * K:
            direct += 2.0 * n[0] * math.exp(-2.0 * n2 * t)
    check("bucketed E Z_t vs direct sum",
          abs(expected_Zt(prof, dim, t, radius=K) - direct) / (1.0 + direct),
          1e-12)

    return out
