"""Littlewood-Paley decomposition and Besov norms B^alpha_{inf,q} of stacks
of band-limited real fields.

The dyadic partition is fixed and built from a smooth step so that the
telescoping identity sum_l chi_l = 1 holds exactly by construction: chi_{-1}
equals 1 on B(3/4), vanishes outside B(4/3), and chi(x) = chi_{-1}(x/2) -
chi_{-1}(x) is supported in the annulus B(8/3) \\ B(3/4).

``besov_norms`` gives per field of a (B, nc, M..) stack, checked against its own
scale (``field.real_fields``), the l^q norm over l of 2^(alpha l) sup|Delta_l f|
summed over the components (Hoelder C^alpha = B^alpha_{inf,inf}, the default q);
``holder_sup`` gives max_b w_b |f_b|_{C^alpha}, bit for bit max(w * besov_norms).

Block Delta_l f has its coefficients in the smallest sub-cube |k_i| <= K_l
that holds the support of chi_l (K_l = K where chi_l is zero on the cube), and
is sampled there on P_l = ``_dense_points`` of that sub-cube per axis (the
whole grid's P where K_l = K). Its sampled max s bounds sup|Delta_l f| within
[s, sec(pi K_l / P_l)^d s] (Ehlich-Zeller), with K_l / P_l < 1/8.

Only blocks that can change a norm are synthesised. One matrix product gives,
per (row, component) entry e, bound[e, l] = sum_k chi_l(k) |f_k| >=
sup|Delta_l f|, 0 exactly when the block is (inf if e holds a non-finite
coefficient). Levels run upwards; a block is synthesised only if its bound is
> 0 and, for a q = inf norm, 2^(alpha l) bound (1 + 1e-9) is not below the
max of the weighted sups its entry already has (``holder_sup``: w_b times it,
below max w_b 2^(alpha l) sup over the stack). The margin covers rounding in
the bound and the synthesis, so a skipped block (its sup reads 0.0) could not
reach that max: results are bit-identical to sampling all blocks and keep the
sec(pi/8)^d certificate. Equal blocks of a level share one synthesis (radius
tails of one field do above the radius); the rest go in ``BATCH_BYTES`` chunks.
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
    """C-infinity step: 1 for x <= 1, 0 for x >= 2 (and NaN), monotone between,
    where one of exp(-1/(2 - x)), exp(-1/(x - 1)) is >= e^-2, so no 0/0."""
    x = np.asarray(x, dtype=float)
    out = np.where(x <= 1.0, 1.0, 0.0)
    mid = (x > 1.0) & (x < 2.0)
    num = np.exp(-1.0 / (2.0 - x[mid]))
    out[mid] = num / (num + np.exp(-1.0 / (x[mid] - 1.0)))
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


def _level_weights(alpha: float, levels: int) -> np.ndarray:
    """2^(alpha l) for the Littlewood-Paley levels l = -1, ..., levels - 2."""
    return 2.0 ** (alpha * np.arange(-1, levels - 1))


def _block_norms(coeff_stack: np.ndarray, grid: TorusGrid, alpha: float | None = None,
                 weights: np.ndarray | None = None) -> np.ndarray:
    """Sampled sup|Delta_l f|, (B, L, nc), of a (B, nc, M..) real stack; ``alpha`` adds
    the q = inf skip against each entry's max, or the stack's given (B,) ``weights``."""
    mult, K = DyadicPartition().multipliers(grid), grid.half_band    # (L, M..)
    B, nc = coeff_stack.shape[:2]
    flat = coeff_stack.reshape((B * nc,) + grid.mode_shape)
    size = np.abs(flat).reshape(B * nc, -1)
    bound = size @ np.abs(mult).reshape(len(mult), -1).T        # (B nc, L)
    bound[~np.isfinite(size).all(axis=1)] = np.inf              # not inf * 0 = NaN
    weight = _level_weights(alpha or 0.0, len(mult))
    w = np.ones(B * nc) if weights is None else np.repeat(weights, nc)
    top, out = np.zeros(B * nc), np.zeros((B * nc, len(mult)))  # running max, sups
    for l, (sub, pts) in enumerate(DyadicPartition().level_grids(grid)):
        cube = (slice(K - sub.half_band, K + sub.half_band + 1),) * grid.dim
        m, b, f = mult[(l, *cube)], bound[:, l], flat[(slice(None), *cube)]
        entries = np.flatnonzero((b > 0) & ~(w * (weight[l] * (1 + 1e-9) * b) < top))
        if not len(entries):                # out[:, l] stays 0.0, and top as it is
            continue
        # an entry takes the sup of its predecessor in bound order if the bounds
        # agree to the margin (gemm may round equal rows apart) and blocks are equal
        order, same = entries[np.argsort(b[entries])], np.zeros(len(entries), bool)
        for i in np.flatnonzero(b[order][1:] <= b[order][:-1] * (1 + 1e-9)) + 1:
            same[i] = np.array_equal(f[order[i]] * m, f[order[i - 1]] * m)
        todo = order[~same]
        cap = max(1, BATCH_BYTES // (8 * pts ** grid.dim))     # blocks per synthesis
        for start in range(0, len(todo), cap):
            e = todo[start:start + cap]
            vals = synthesize_coeffs(f[e] * m, sub, pts).reshape(len(e), -1)
            out[e, l] = np.abs(vals, out=vals).max(axis=-1)
        for i in np.flatnonzero(same):              # in order, so chains resolve
            out[order[i], l] = out[order[i - 1], l]
        if alpha is not None:       # w_b (2^(alpha l) sup), as holder_sup forms it
            level = w * (weight[l] * out[:, l])
            top = np.maximum(top, level if weights is None else level.max())
    return out.reshape(B, nc, -1).transpose(0, 2, 1)


def _real_stack(coeff_stack: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """A (B, M..) or (B, nc, M..) stack as (B, nc, M..), if its fields are real."""
    coeff_stack = coeff_stack.reshape((len(coeff_stack), -1) + grid.mode_shape)
    if not real_fields(coeff_stack, grid.dim).all():
        raise ValueError("a field of the stack is not real")
    return coeff_stack


def besov_norms(coeff_stack: np.ndarray, grid: TorusGrid, alpha: float,
                q: float = math.inf) -> np.ndarray:
    """B^alpha_{inf,q} norms of a (B, nc, M..) stack of real fields, each summed
    over its components: shape (B,). A (B, M..) stack holds scalar fields."""
    if not q >= 1:
        raise ValueError(f"q must be >= 1, got {q!r}")
    coeff_stack = _real_stack(coeff_stack, grid)
    sups = _block_norms(coeff_stack, grid, alpha if math.isinf(q) else None)
    weighted = _level_weights(alpha, sups.shape[1])[:, None] * sups
    per_comp = weighted.max(axis=1) if math.isinf(q) else \
        (weighted ** q).sum(axis=1) ** (1.0 / q)
    return per_comp.sum(axis=1)


def holder_sup(coeff_stack: np.ndarray, grid: TorusGrid, alpha: float, weights) -> float:
    """max_b weights_b |f_b|_{C^alpha} over a (B, M..) stack of real scalar
    fields, bit for bit max(weights * besov_norms(stack, grid, alpha))."""
    coeff_stack, weights = _real_stack(coeff_stack, grid), np.asarray(weights, float)
    if coeff_stack.shape[1] != 1 or weights.shape != (len(coeff_stack),) \
            or not (np.isfinite(weights) & (weights >= 0)).all():
        raise ValueError("need scalar fields and one finite weight >= 0 per field")
    sups = _block_norms(coeff_stack, grid, alpha, weights)[..., 0]     # (B, L)
    return float(np.max(weights[:, None] * (_level_weights(alpha, sups.shape[1]) * sups)))
