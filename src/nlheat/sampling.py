"""Samplers for real and E-valued Gaussian Fourier series.

A real GFS is determined by a variance profile k -> sigma^2(k): for modes
k in the lexicographic half-space the coefficient is (a + i*b)/sqrt(2)
with a, b independent N(0, sigma^2(k)), the opposite half-space carries
the conjugates, and the zero mode is a real N(0, sigma^2(0)).  The
adversarial pair (X, Y) replaces one component of an independent copy by
the phase rotation of a component of X.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import SpectralField, TorusGrid


@dataclass(frozen=True)
class VarianceProfile:
    """Radial rule |k| -> sigma^2(k) with a hard cutoff at radius N.

    kinds:
        ``white``     sigma^2 = 1 on 0 < |k| <= N
        ``power``     sigma^2 = |k|^gamma
        ``powerlog``  sigma^2 = |k|^gamma (log|k|)^theta (loglog|k|)^eta
                      for |k| >= k0, the floor constant below

    The zero mode always uses the floor constant.  ``powerlog`` keeps the
    floor up to k0 so that log log |k| stays positive on the tail.
    """

    kind: str
    cutoff: float
    gamma: float = 0.0
    log_theta: float = 0.0
    loglog_eta: float = 0.0
    k0: float = 3.0
    floor: float = 1.0

    def __post_init__(self):
        if self.kind not in ("white", "power", "powerlog"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if self.cutoff < 0:
            raise ValueError("cutoff must be >= 0")
        if self.kind == "powerlog" and self.k0 <= np.e:
            raise ValueError("powerlog needs k0 > e so log log |k| > 0")

    @classmethod
    def white(cls, cutoff: float) -> "VarianceProfile":
        return cls("white", cutoff)

    @classmethod
    def power_log(cls, dim: int, cutoff: float, log_theta: float = -1.0,
                  loglog_eta: float = -1.0, k0: float = 3.0,
                  floor: float = 1.0) -> "VarianceProfile":
        """Surface-area-critical profile |k|^(1-d) with log corrections."""
        return cls("powerlog", cutoff, gamma=1.0 - dim, log_theta=log_theta,
                   loglog_eta=loglog_eta, k0=k0, floor=floor)

    def sigma2_from_r2(self, r2: np.ndarray) -> np.ndarray:
        """Vectorised sigma^2 as a function of |k|^2."""
        r2 = np.asarray(r2, dtype=float)
        out = np.zeros_like(r2)
        inside = r2 <= self.cutoff ** 2 + 1e-9
        if self.kind == "white":
            out[inside] = 1.0
            return out
        r = np.sqrt(r2)
        small = inside & (r < max(self.k0, 1.0))
        out[small] = self.floor
        tail = inside & ~small
        rt = r[tail]
        vals = rt ** self.gamma
        if self.kind == "powerlog":
            vals = vals * np.log(rt) ** self.log_theta \
                * np.log(np.log(rt)) ** self.loglog_eta
        out[tail] = vals
        return out


@dataclass(frozen=True)
class GfsSpec:
    """Grid, component count, and per-component variance profiles."""

    grid: TorusGrid
    profiles: tuple

    def __post_init__(self):
        if len(self.profiles) < 1:
            raise ValueError("need at least one component profile")
        K = self.grid.half_band
        for p in self.profiles:
            if p.cutoff > K + 1e-9:
                raise ValueError(
                    f"profile cutoff {p.cutoff} exceeds band radius {K}")

    @classmethod
    def uniform(cls, grid: TorusGrid, profile: VarianceProfile,
                components: int) -> "GfsSpec":
        return cls(grid, (profile,) * components)

    @property
    def components(self) -> int:
        return len(self.profiles)


def half_space_mask(grid: TorusGrid) -> np.ndarray:
    """Lexicographic half-space: first nonzero coordinate positive."""
    mask = np.zeros(grid.mode_shape, dtype=bool)
    prior_zero = np.ones(grid.mode_shape, dtype=bool)
    for axis in range(grid.dim):
        k = grid.axis_wavenumbers(axis)
        mask |= prior_zero & (k > 0)
        prior_zero = prior_zero & (k == 0)
    return mask


def sample_real_gfs(profile: VarianceProfile, grid: TorusGrid,
                    rng: np.random.Generator) -> SpectralField:
    """Draw one real scalar GFS with the given variance profile."""
    shape = grid.mode_shape
    sigma = np.sqrt(profile.sigma2_from_r2(grid.k_squared))
    a = rng.standard_normal(shape)
    b = rng.standard_normal(shape)
    coeffs = sigma * (a + 1j * b) / np.sqrt(2.0)
    centre = (grid.half_band,) * grid.dim
    mask = half_space_mask(grid)
    flipped = np.conj(np.flip(coeffs))
    coeffs = np.where(mask, coeffs, flipped)
    coeffs[centre] = sigma[centre] * a[centre]
    return SpectralField(grid, coeffs[None])


def sample_E_valued(spec: GfsSpec, rngs) -> SpectralField:
    """Independent real GFS per component; ``rngs`` has one stream each."""
    if len(rngs) != spec.components:
        raise ValueError("need one rng stream per component")
    parts = [sample_real_gfs(p, spec.grid, rng)
             for p, rng in zip(spec.profiles, rngs)]
    return SpectralField.from_components(parts)


def build_adversarial_pair(spec: GfsSpec, a: int, b: int, x_rngs, y_rngs):
    """The pair (X, Y) with Y^b the phase rotation of X^a.

    All other Y components are fresh independent draws with the matching
    component law, so Y equals X in law.  ``y_rngs[b]`` is ignored.
    """
    if a == b:
        raise ValueError("components a and b must differ")
    nc = spec.components
    if not (0 <= a < nc and 0 <= b < nc):
        raise ValueError("component index out of range")
    X = sample_E_valued(spec, x_rngs)
    y_parts = []
    for c in range(nc):
        if c == b:
            y_parts.append(X.component(a).rotate())
        else:
            y_parts.append(sample_real_gfs(spec.profiles[c], spec.grid, y_rngs[c]))
    return X, SpectralField.from_components(y_parts)


def stream(master_seed: int, *key: int) -> np.random.Generator:
    """Deterministic counter-based RNG stream derived from the master seed."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.PCG64(ss))
