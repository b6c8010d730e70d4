"""Littlewood-Paley decomposition and Besov norms for band-limited fields.

The dyadic partition is fixed and built from a smooth step so that the
telescoping identity sum_l chi_l = 1 holds exactly by construction: chi_{-1}
equals 1 on B(3/4), vanishes outside B(4/3), and chi(x) = chi_{-1}(x/2) -
chi_{-1}(x) is supported in the annulus B(8/3) \\ B(3/4).  L^p norms of the
blocks are taken on a dense physical grid (4M points per axis;
``block_lp_norms`` takes a finer one as a reference).

Every Hoelder norm goes through ``holder_norms_batch``, which checks each
field of its stack against the field's own scale (``field.real_fields``) and
shares one weighting with ``besov_norm``.  All block norms come from one
core, ``_block_norms``.  A block whose coefficients miss the support of chi_l
(read off the zero patterns of the coefficients and the cached multipliers)
is 0.0 and is not synthesised, unless its (row, component) entry holds a
non-finite coefficient.  The live blocks of as many entries as fit in
``BATCH_BYTES`` of real values, and at least one, share one synthesis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np
from scipy import fft as sfft

from .field import SpectralField, TorusGrid, real_fields, synthesize_coeffs

#: largest real (block, G^d) array one synthesis makes, unless a single
#: (row, component) entry's live blocks alone are larger
BATCH_BYTES = 512 * 2 ** 10


def _smooth_step(x: np.ndarray) -> np.ndarray:
    """C-infinity step: 1 for x <= 1, 0 for x >= 2, monotone between."""
    x = np.asarray(x, dtype=float)

    def phi(y):
        out = np.zeros_like(y)
        pos = y > 0
        out[pos] = np.exp(-1.0 / y[pos])
        return out

    num = phi(2.0 - x)
    den = num + phi(x - 1.0)
    with np.errstate(invalid="ignore"):
        out = np.where(den > 0, num / np.maximum(den, 1e-300), 0.0)
    out[x <= 1.0] = 1.0
    out[x >= 2.0] = 0.0
    return out


@dataclass(frozen=True)
class DyadicPartition:
    """Smooth radial dyadic partition of unity on frequency space; fixed."""

    INNER = 0.75        # chi_{-1} == 1 inside this radius
    OUTER = 4.0 / 3.0   # chi_{-1} == 0 outside this radius

    def chi_low(self, r) -> np.ndarray:
        """The low-frequency bump chi_{-1} as a function of |xi|."""
        r = np.asarray(r, dtype=float)
        return _smooth_step(1.0 + (r - self.INNER) / (self.OUTER - self.INNER))

    def chi(self, r) -> np.ndarray:
        """The annulus bump chi = chi_{-1}(./2) - chi_{-1}."""
        r = np.asarray(r, dtype=float)
        return self.chi_low(r / 2.0) - self.chi_low(r)

    def chi_level(self, level: int, r) -> np.ndarray:
        """chi_l = chi(2^{-l} .) for l >= 0 and chi_{-1} for l == -1."""
        if level < -1:
            raise ValueError("level must be >= -1")
        if level == -1:
            return self.chi_low(r)
        return self.chi(np.asarray(r, dtype=float) / 2.0 ** level)

    def max_level(self, radius: float) -> int:
        """Largest l with chi_l not identically zero inside |k| <= radius:
        INNER 2^l < radius <= INNER 2^(l+1), as chi_l = 0 on B(INNER 2^l)."""
        if radius <= self.INNER:
            return -1
        return int(math.ceil(math.log2(radius / self.INNER))) - 1

    @lru_cache(maxsize=32)
    def multipliers(self, grid: TorusGrid) -> np.ndarray:
        """Stack chi_l(k) over l = -1..max_level, shape (L+2, M..); cached, read-only."""
        r = np.sqrt(grid.k_squared)
        top = self.max_level(grid.half_band * math.sqrt(grid.dim))
        out = np.stack([self.chi_level(l, r) for l in range(-1, top + 1)])
        out.setflags(write=False)
        return out


def _dense_points(grid: TorusGrid) -> int:
    return sfft.next_fast_len(max(grid.points_per_axis, 4 * grid.modes_per_axis))


def _block_norms(coeff_stack: np.ndarray, grid: TorusGrid, p: float,
                 points: int | None = None) -> np.ndarray:
    """|Delta_l f|_{L^p} of a (B, nc, M..) stack of real fields: (B, L, nc).

    Skips and chunks as the module docstring says.
    """
    mult = DyadicPartition().multipliers(grid)                  # (L, M..)
    B, nc = coeff_stack.shape[:2]
    flat = coeff_stack.reshape((B * nc,) + grid.mode_shape)
    live = (flat != 0).reshape(B * nc, -1) @ (mult != 0).reshape(len(mult), -1).T
    # inf * 0 is NaN: no block of an entry with a non-finite coefficient is zero
    live[~np.isfinite(flat).reshape(B * nc, -1).all(axis=1)] = True
    entry, level = np.nonzero(live)                     # entry-major pairs
    out = np.zeros((B * nc, len(mult)))
    pts = points or _dense_points(grid)
    cap = BATCH_BYTES // (8 * pts ** grid.dim)          # blocks per synthesis
    lo = hi = 0
    for end in [*np.cumsum(live.sum(axis=1)), math.inf]:
        if end - lo > cap and hi > lo:                  # the next entry overflows
            e, l = entry[lo:hi], level[lo:hi]
            vals = synthesize_coeffs(flat[e] * mult[l], grid, pts).reshape(len(e), -1)
            np.abs(vals, out=vals)
            out[e, l] = vals.max(axis=-1) if math.isinf(p) else \
                np.mean(vals ** p, axis=-1) ** (1.0 / p)
            lo = hi
        hi = end
    return out.reshape(B, nc, -1).transpose(0, 2, 1)


def block_lp_norms(field: SpectralField, p: float,
                   points: int | None = None) -> np.ndarray:
    """|Delta_l f|_{L^p} for all levels, per component: shape (L+2, nc), in the
    normalised measure, on the dense grid or on ``points`` per axis."""
    field.require_real()
    return _block_norms(field.coeffs[None], field.grid, p, points)[0]


def _weighted_sum(norms: np.ndarray, alpha: float, q: float) -> np.ndarray:
    """(B, L, nc) block norms to (B,) norms: per component the l^q norm over
    l of 2^(alpha l) |Delta_l f|, then the sum over the components."""
    weighted = 2.0 ** (alpha * np.arange(-1, norms.shape[1] - 1))[:, None] * norms
    per_comp = weighted.max(axis=1) if math.isinf(q) else \
        (weighted ** q).sum(axis=1) ** (1.0 / q)
    return per_comp.sum(axis=1)


def besov_norm(field: SpectralField, alpha: float, p: float, q: float) -> float:
    """Besov norm B^alpha_{p,q}, summed over the components (a finite dyadic
    sum, as the field is band-limited)."""
    if p < 1 or q < 1:
        raise ValueError("p and q must be >= 1")
    return float(_weighted_sum(block_lp_norms(field, p)[None], alpha, q)[0])


def holder_norm(field: SpectralField, alpha: float) -> float:
    """Hoelder-Besov norm C^alpha = B^alpha_{inf,inf}, the component sum."""
    return float(holder_norms_batch(field.coeffs[None], field.grid, alpha)[0])


def holder_norms_batch(coeff_stack: np.ndarray, grid: TorusGrid,
                       alpha: float) -> np.ndarray:
    """C^alpha norms of a (B, nc, M..) stack of real fields, each summed over
    its components: shape (B,).  A (B, M..) stack holds scalar fields."""
    coeff_stack = coeff_stack.reshape((len(coeff_stack), -1) + grid.mode_shape)
    if not real_fields(coeff_stack, grid.dim).all():
        raise ValueError("a field of the stack is not real")
    return _weighted_sum(_block_norms(coeff_stack, grid, math.inf), alpha, math.inf)
