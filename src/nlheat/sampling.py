"""Samplers for real and E-valued Gaussian Fourier series.

A real GFS is determined by a variance profile k -> sigma^2(k): one
formula, whose exponents and floor each kind in ``PROFILES`` fixes or
defaults (``VarianceProfile.of_kind``, which configs go through too). For
modes k in the lexicographic half-space the coefficient is (a + i*b)/sqrt(2)
with a, b independent N(0, sigma^2(k)), the opposite half-space carries
the conjugates, and the zero mode is a real N(0, sigma^2(0)).  The
adversarial pair (X, Y) replaces one component of an independent copy by
the phase rotation of a component of X; that copy itself is the control.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import SpectralField, TorusGrid
from .nonlinearity import check_pair


#: each profile kind: the keys a config may set, with their defaults, and
#: the fields it fixes; a gamma of None is the surface-area-critical 1 - d
PROFILES = {
    "white": ({}, {}),
    "power": ({"gamma": None}, {}),
    "powerlog": ({"log_theta": -1.0, "loglog_eta": -1.0, "k0": 3.0, "floor": 1.0},
                 {"gamma": None}),
}


@dataclass(frozen=True)
class VarianceProfile:
    """Radial rule |k| -> sigma^2(k) = |k|^gamma (log|k|)^log_theta
    (log log|k|)^loglog_eta on k0 <= |k| <= N, ``floor`` below k0 (k0 > e
    keeps log log|k| > 0), 0 past the cutoff N. ``white`` has all three
    exponents 0 and ``power`` both log exponents; ``kind`` names the rule."""

    kind: str
    cutoff: float
    gamma: float = 0.0
    log_theta: float = 0.0
    loglog_eta: float = 0.0
    k0: float = 3.0
    floor: float = 1.0

    def __post_init__(self):
        if self.kind not in PROFILES:
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if self.cutoff < 0:
            raise ValueError("cutoff must be >= 0")
        if self.k0 <= np.e:
            raise ValueError("k0 must be > e so log log |k| > 0")

    @classmethod
    def white(cls, cutoff: float) -> "VarianceProfile":
        return cls("white", cutoff)

    @classmethod
    def of_kind(cls, kind: str, dim: int, cutoff: float, **keys) -> "VarianceProfile":
        """The ``kind`` profile in dimension ``dim``, by its ``PROFILES`` entry."""
        if not isinstance(kind, str) or kind not in PROFILES:
            raise ValueError(f"unknown profile kind {kind!r}")
        settable, fixed = PROFILES[kind]
        unknown = set(keys) - set(settable)
        if unknown:
            raise ValueError(f"unknown keys in {kind} profile: {sorted(unknown)}")
        values = {**settable, **keys, **fixed}
        if values.get("gamma", 0.0) is None:
            values["gamma"] = 1.0 - dim
        return cls(kind, cutoff, **values)

    def sigma2_from_r2(self, r2: np.ndarray) -> np.ndarray:
        """Vectorised sigma^2 as a function of |k|^2."""
        r2 = np.asarray(r2, dtype=float)
        out = np.zeros_like(r2)
        inside = r2 <= self.cutoff ** 2 + 1e-9
        r = np.sqrt(r2)
        small = inside & (r < self.k0)
        out[small] = self.floor
        tail = inside & ~small
        rt = r[tail]
        out[tail] = rt ** self.gamma * np.log(rt) ** self.log_theta \
            * np.log(np.log(rt)) ** self.loglog_eta
        return out


@dataclass(frozen=True)
class GfsSpec:
    """Grid, variance profile and component count of an E-valued GFS: every
    component is an independent real GFS with the one ``profile``."""

    grid: TorusGrid
    profile: VarianceProfile
    components: int

    def __post_init__(self):
        if self.components < 1:
            raise ValueError("need at least one component")
        if self.profile.cutoff > self.grid.half_band + 1e-9:
            raise ValueError(f"profile cutoff {self.profile.cutoff} exceeds "
                             f"band radius {self.grid.half_band}")

    @classmethod
    def uniform(cls, grid: TorusGrid, profile: VarianceProfile,
                components: int) -> "GfsSpec":
        return cls(grid, profile, components)


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
    return SpectralField.from_components(
        [sample_real_gfs(spec.profile, spec.grid, rng) for rng in rngs])


def rotated_copy(X: SpectralField, Y: SpectralField, a: int, b: int) -> SpectralField:
    """Y with its component b replaced by R X^a, the phase rotation of X^a."""
    check_pair(a, b, Y.components)
    coeffs = Y.coeffs.copy()
    coeffs[b] = X.component(a).rotate().coeffs[0]
    return SpectralField(Y.grid, coeffs)


def build_adversarial_pair(spec: GfsSpec, a: int, b: int, x_rngs, y_rngs):
    """The pair (X, Y) with Y^b the phase rotation of X^a: X and an independent
    copy are drawn whole, one stream per component, and ``rotated_copy`` sets
    the copy's Y^b := R X^a, overwriting the draw of ``y_rngs[b]``."""
    X = sample_E_valued(spec, x_rngs)
    return X, rotated_copy(X, sample_E_valued(spec, y_rngs), a, b)


def stream(master_seed: int, *key: int) -> np.random.Generator:
    """Deterministic counter-based RNG stream derived from the master seed."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.PCG64(ss))
