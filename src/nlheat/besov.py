"""Littlewood-Paley decomposition and Besov norms for band-limited fields.

The dyadic partition is built from a smooth step so that the telescoping
identity sum_l chi_l = 1 holds exactly by construction: chi_{-1} equals 1
on B(3/4), vanishes outside B(4/3), and chi(x) = chi_{-1}(x/2) - chi_{-1}(x)
is supported in the annulus B(8/3) \\ B(3/4).  L^p norms of the blocks are
taken on a dense physical grid (default 4M points per axis).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np
from scipy import fft as sfft

from .field import SpectralField, TorusGrid, synthesize_coeffs

#: largest real (batch, level, G^d) array one holder_norms_batch synthesis makes
BATCH_BYTES = 256 * 2 ** 20


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
    """Smooth radial dyadic partition of unity on frequency space."""

    inner: float = 0.75   # chi_{-1} == 1 inside this radius
    outer: float = 4.0 / 3.0  # chi_{-1} == 0 outside this radius

    def chi_low(self, r) -> np.ndarray:
        """The low-frequency bump chi_{-1} as a function of |xi|."""
        r = np.asarray(r, dtype=float)
        return _smooth_step(1.0 + (r - self.inner) / (self.outer - self.inner))

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
        """Largest l with chi_l not identically zero inside |k| <= radius."""
        if radius <= self.inner:
            return -1
        return int(math.ceil(math.log2(radius / self.inner)))

    @lru_cache(maxsize=32)
    def multipliers(self, grid: TorusGrid) -> np.ndarray:
        """Stack chi_l(k) over l = -1..max_level, shape (L+2, M..); cached, read-only."""
        r = np.sqrt(grid.k_squared)
        top = self.max_level(grid.half_band * math.sqrt(grid.dim))
        out = np.stack([self.chi_level(l, r) for l in range(-1, top + 1)])
        out.setflags(write=False)
        return out


def lp_block(field: SpectralField, level: int,
             partition: DyadicPartition | None = None) -> SpectralField:
    """Frequency localisation Delta_l f = sum_k chi_l(k) f_k e_k."""
    partition = partition or DyadicPartition()
    mult = partition.chi_level(level, np.sqrt(field.grid.k_squared))
    return SpectralField(field.grid, field.coeffs * mult)


def _dense_points(grid: TorusGrid) -> int:
    return sfft.next_fast_len(max(grid.points_per_axis, 4 * grid.modes_per_axis))


def block_lp_norms(field: SpectralField, p: float,
                   partition: DyadicPartition | None = None,
                   points: int | None = None) -> np.ndarray:
    """|Delta_l f|_{L^p} for all levels, per component: shape (L+2, nc).

    L^p is with respect to the normalised measure; computed from values on
    the dense physical grid.
    """
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


def besov_norm(field: SpectralField, alpha: float, p: float, q: float,
               partition: DyadicPartition | None = None,
               points: int | None = None) -> float:
    """Besov norm B^alpha_{p,q}; vector fields use the component sum.

    The dyadic sum is finite because the field is band-limited.
    """
    if p < 1 or q < 1:
        raise ValueError("p and q must be >= 1")
    norms = block_lp_norms(field, p, partition, points)   # (L, nc)
    levels = np.arange(-1, norms.shape[0] - 1)
    weighted = 2.0 ** (alpha * levels)[:, None] * norms
    if math.isinf(q):
        per_comp = weighted.max(axis=0)
    else:
        per_comp = (weighted ** q).sum(axis=0) ** (1.0 / q)
    return float(per_comp.sum())


def holder_norm(field: SpectralField, alpha: float,
                partition: DyadicPartition | None = None,
                points: int | None = None) -> float:
    """Hoelder-Besov norm C^alpha = B^alpha_{inf,inf}."""
    return besov_norm(field, alpha, math.inf, math.inf, partition, points)


def holder_norms_batch(coeff_stack: np.ndarray, grid: TorusGrid, alpha: float,
                       partition: DyadicPartition | None = None,
                       points: int | None = None) -> np.ndarray:
    """C^alpha norms of a batch of scalar coefficient cubes, shape (B,).

    ``coeff_stack`` (B, M, ..., M) holds real fields; one synthesis covers
    every (batch, level) pair of a chunk of at most ``BATCH_BYTES`` of values.
    """
    partition = partition or DyadicPartition()
    SpectralField(grid, coeff_stack).require_real()
    mult = partition.multipliers(grid)                    # (L, M..)
    pts = points or _dense_points(grid)
    rows = max(1, BATCH_BYTES // (8 * len(mult) * pts ** grid.dim))
    sup = []
    for start in range(0, len(coeff_stack), rows):
        blocks = coeff_stack[start:start + rows, None] * mult    # (b, L, M..)
        vals = synthesize_coeffs(blocks, grid, pts).reshape(len(blocks), len(mult), -1)
        sup.append(np.abs(vals, out=vals).max(axis=-1))
    levels = np.arange(-1, mult.shape[0] - 1)
    return (2.0 ** (alpha * levels)[None, :] * np.concatenate(sup)).max(axis=1)


def block_table(field: SpectralField, alpha: float, p: float,
                partition: DyadicPartition | None = None) -> list:
    """Rows (level, weighted block norm) plus the C-style aggregate."""
    norms = block_lp_norms(field, p, partition).sum(axis=1)
    rows = []
    for idx, n in enumerate(norms):
        level = idx - 1
        rows.append((level, 2.0 ** (alpha * level) * n))
    return rows
