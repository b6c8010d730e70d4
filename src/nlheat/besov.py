"""Littlewood-Paley decomposition and Besov norms B^alpha_{inf,q} of stacks
of band-limited real fields.

The dyadic partition is fixed and built from a smooth step so that the
telescoping identity sum_l chi_l = 1 holds exactly by construction: chi_{-1}
equals 1 on B(3/4), vanishes outside B(4/3), and chi(x) = chi_{-1}(x/2) -
chi_{-1}(x) is supported in the annulus B(8/3) \\ B(3/4).

``besov_norms`` is the one norm function: per field of a (B, nc, M..) stack,
checked against its own scale (``field.real_fields``), the l^q norm over l of
2^(alpha l) sup|Delta_l f|, summed over the components. Hoelder C^alpha is
B^alpha_{inf,inf}, its default q.

Block Delta_l f has its coefficients in the smallest sub-cube |k_i| <= K_l
that holds the support of chi_l (K_l = K where chi_l is zero on the cube), and
is sampled there on P_l = ``_dense_points`` of that sub-cube per axis (the
whole grid's P where K_l = K). Its sampled max s bounds sup|Delta_l f| within
[s, sec(pi K_l / P_l)^d s] (Ehlich-Zeller), with K_l / P_l < 1/8. A block
whose coefficients miss the support of chi_l (read off the zero patterns of
the coefficients and the cached multipliers) is 0.0 and is not synthesised,
unless its (row, component) entry holds a non-finite coefficient. Level by
level, the live blocks are synthesised in chunks of at most ``BATCH_BYTES`` of
real values, and at least one block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np

from .field import TorusGrid, fast_len, real_fields, synthesize_coeffs

#: largest real array one synthesis makes, unless a single block is larger
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

    @lru_cache(maxsize=32)
    def level_grids(self, grid: TorusGrid) -> tuple:
        """Per level, (the grid of its sub-cube |k_i| <= K_l, P_l); cached."""
        K = grid.half_band
        cheb = np.abs(np.indices(grid.mode_shape) - K).max(axis=0)
        out = []
        for row in self.multipliers(grid):
            k = int(cheb[row != 0].max()) if row.any() else K
            sub = grid if k == K else TorusGrid(grid.dim, 2 * k + 1)
            out.append((sub, _dense_points(sub)))
        return tuple(out)


def _dense_points(grid: TorusGrid) -> int:
    return fast_len(max(grid.points_per_axis, 4 * grid.modes_per_axis))


def _block_norms(coeff_stack: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Sampled sup|Delta_l f| of a (B, nc, M..) stack of real fields:
    (B, L, nc). Samples, skips and chunks as the module docstring says."""
    mult = DyadicPartition().multipliers(grid)                  # (L, M..)
    B, nc = coeff_stack.shape[:2]
    flat = coeff_stack.reshape((B * nc,) + grid.mode_shape)
    live = (flat != 0).reshape(B * nc, -1) @ (mult != 0).reshape(len(mult), -1).T
    # inf * 0 is NaN: no block of an entry with a non-finite coefficient is zero
    live[~np.isfinite(flat).reshape(B * nc, -1).all(axis=1)] = True
    out = np.zeros((B * nc, len(mult)))
    K = grid.half_band
    for l, (sub, pts) in enumerate(DyadicPartition().level_grids(grid)):
        cube = (slice(K - sub.half_band, K + sub.half_band + 1),) * grid.dim
        entries = np.flatnonzero(live[:, l])
        cap = max(1, BATCH_BYTES // (8 * pts ** grid.dim))     # blocks per synthesis
        for start in range(0, len(entries), cap):
            e = entries[start:start + cap]
            vals = synthesize_coeffs(flat[(e, *cube)] * mult[(l, *cube)], sub,
                                     pts).reshape(len(e), -1)
            out[e, l] = np.abs(vals, out=vals).max(axis=-1)
    return out.reshape(B, nc, -1).transpose(0, 2, 1)


def besov_norms(coeff_stack: np.ndarray, grid: TorusGrid, alpha: float,
                q: float = math.inf) -> np.ndarray:
    """B^alpha_{inf,q} norms of a (B, nc, M..) stack of real fields, each summed
    over its components: shape (B,). A (B, M..) stack holds scalar fields."""
    if not q >= 1:
        raise ValueError(f"q must be >= 1, got {q!r}")
    coeff_stack = coeff_stack.reshape((len(coeff_stack), -1) + grid.mode_shape)
    if not real_fields(coeff_stack, grid.dim).all():
        raise ValueError("a field of the stack is not real")
    sups = _block_norms(coeff_stack, grid)
    weighted = 2.0 ** (alpha * np.arange(-1, sups.shape[1] - 1))[:, None] * sups
    per_comp = weighted.max(axis=1) if math.isinf(q) else \
        (weighted ** q).sum(axis=1) ** (1.0 / q)
    return per_comp.sum(axis=1)
