"""Band-limited Fourier representation of E-valued fields on the d-torus.

Fields live on T^d = R^d / 2*pi*Z^d with normalised Lebesgue measure of
total mass 1, expanded in the basis e_k(x) = exp(i<k, x>).  Coefficients
are stored on the full wavenumber cube {-K, ..., K}^d with K = (M-1)/2,
one complex array per vector component.  All operators here act mode-wise
except the pointwise product, which goes through an oversampled physical
grid (2/3-rule dealiasing) so that products are exact on the retained band.

Fields are real, with Hermitian coefficients f_{-k} = conj(f_k), so the
transforms are real-to-complex: synthesis reads only the k_d >= 0 half of
the cube, and analysis rebuilds the k_d < 0 half as its conjugate mirror.
At d >= 2 synthesis transforms one axis at a time, in ``irfftn``'s order
(c2c on axes -d..-2, then c2r on the last), so each pass runs only over the
lines that can be non-zero: those inside the band on the axes not yet
transformed.  Its values equal ``irfftn`` of the zero-padded cube bit for bit.
Analysis mirrors it: r2c on the last axis keeping the K + 1 columns k_d >= 0,
then c2c on each leading axis keeping the band rows.  The transforms are
``numpy.fft``'s (pocketfft), at the sizes ``fast_len`` gives.
``synthesize_real``, ``analyze_values`` and the product reject non-real input.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
import math

import numpy as np

#: tolerance for validating the reality (Hermitian symmetry) condition
REALITY_TOL = 1e-12
#: prime factors of the fast real (5-smooth) and complex (11-smooth) sizes
REAL_PRIMES, COMPLEX_PRIMES = (2, 3, 5), (2, 3, 5, 7, 11)


def fast_len(target: int, primes: tuple = COMPLEX_PRIMES) -> int:
    """Smallest n >= target whose prime factors all lie in ``primes`` (which
    holds 2): the sizes pocketfft transforms fastest."""
    sizes = [1]                     # every such product below 2 * target
    for p in primes:
        for n in sizes[:]:
            while (n := n * p) < 2 * target:
                sizes.append(n)
    return min(n for n in sizes if n >= target)


def dealias_points(modes_per_axis: int, cubic: bool = False, dim: int = 1) -> int:
    """Smallest FFT-friendly physical grid with dealiasing headroom.

    Quadratic products need G >= ceil(3M/2); cubic contractions need
    G >= 2M; any such G gives the same products up to rounding.  At d = 1
    the transforms are real and G is 5-smooth, where they run fastest (3125,
    not 3080, at M = 2049); at d >= 2 G is the complex fast size.
    """
    need = 2 * modes_per_axis if cubic else math.ceil(3 * modes_per_axis / 2)
    return fast_len(need, REAL_PRIMES if dim == 1 else COMPLEX_PRIMES)


@dataclass(frozen=True)
class TorusGrid:
    """Wavenumber cube and oversampled evaluation grid for one torus.

    Attributes:
        dim: spatial dimension d >= 1.
        modes_per_axis: odd M; wavenumbers run over {-(M-1)/2, ..., (M-1)/2}.
        points_per_axis: G >= M physical points per axis.  Defaults to
            ``dealias_points(M, dim=dim)``, 5-smooth at d = 1 (see there).
    """

    dim: int
    modes_per_axis: int
    points_per_axis: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.modes_per_axis < 1 or self.modes_per_axis % 2 == 0:
            raise ValueError(
                f"modes_per_axis must be odd and positive, got {self.modes_per_axis}")
        if self.points_per_axis == 0:
            object.__setattr__(self, "points_per_axis",
                               dealias_points(self.modes_per_axis, dim=self.dim))
        if self.points_per_axis < self.modes_per_axis:
            raise ValueError("points_per_axis must be >= modes_per_axis")

    @property
    def half_band(self) -> int:
        """Largest representable wavenumber K = (M-1)/2 per axis."""
        return (self.modes_per_axis - 1) // 2

    @cached_property
    def zero_mode_index(self) -> tuple:
        """Index of the k = 0 coefficients of a (components, M, ..., M) stack."""
        return (slice(None),) + (self.half_band,) * self.dim

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """1d integer wavenumbers -K..K (the storage order of each k axis)."""
        return np.arange(-self.half_band, self.half_band + 1)

    def axis_wavenumbers(self, axis: int) -> np.ndarray:
        """Wavenumbers along ``axis`` shaped for broadcasting over the cube."""
        shape = [1] * self.dim
        shape[axis] = self.modes_per_axis
        return self.wavenumbers.reshape(shape)

    @cached_property
    def k_squared(self) -> np.ndarray:
        """|k|^2 on the full cube, shape (M,)*dim."""
        out = np.zeros((self.modes_per_axis,) * self.dim)
        for axis in range(self.dim):
            out = out + self.axis_wavenumbers(axis).astype(float) ** 2
        return out

    @cached_property
    def derivative_multipliers(self) -> tuple:
        """i k_axis for each axis, shaped for broadcasting over the cube."""
        return tuple(1j * self.axis_wavenumbers(axis) for axis in range(self.dim))

    @property
    def mode_shape(self) -> tuple[int, ...]:
        return (self.modes_per_axis,) * self.dim

    def quadratic_headroom(self) -> bool:
        return self.points_per_axis >= math.ceil(3 * self.modes_per_axis / 2)

    def cubic_headroom(self) -> bool:
        return self.points_per_axis >= 2 * self.modes_per_axis


@dataclass(frozen=True)
class SpectralField:
    """E-valued trigonometric polynomial stored as Fourier coefficients.

    ``coeffs`` has shape (components, M, ..., M) with the k axes ordered
    -K..K.  Fields are immutable; every operation returns a new instance.
    """

    grid: TorusGrid
    coeffs: np.ndarray

    def __post_init__(self):
        expect = self.grid.mode_shape
        if self.coeffs.ndim != self.grid.dim + 1 or self.coeffs.shape[1:] != expect:
            raise ValueError(
                f"coeffs shape {self.coeffs.shape} does not match grid "
                f"(components, {expect})")
        if not np.iscomplexobj(self.coeffs):
            object.__setattr__(self, "coeffs", self.coeffs.astype(complex))

    @property
    def components(self) -> int:
        return self.coeffs.shape[0]

    # -- construction helpers ------------------------------------------------

    @classmethod
    def zero(cls, grid: TorusGrid, components: int = 1) -> "SpectralField":
        return cls(grid, np.zeros((components,) + grid.mode_shape, complex))

    @classmethod
    def constant(cls, grid: TorusGrid, values) -> "SpectralField":
        values = np.atleast_1d(np.asarray(values, dtype=complex))
        field = cls.zero(grid, len(values))
        field.coeffs[grid.zero_mode_index] = values
        return field

    @classmethod
    def from_components(cls, parts: "list[SpectralField]") -> "SpectralField":
        grid = parts[0].grid
        if any(p.grid != grid for p in parts):
            raise ValueError("component fields live on different grids")
        return cls(grid, np.concatenate([p.coeffs for p in parts], axis=0))

    def component(self, a: int) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs[a:a + 1])

    # -- reality -------------------------------------------------------------

    def reality_defect(self) -> float:
        """max |f_{-k} - conj(f_k)| over all components and modes."""
        return float(_reality_defects(self.coeffs, self.grid.dim))

    def is_real(self) -> bool:
        return bool(real_fields(self.coeffs, self.grid.dim))

    def require_real(self) -> None:
        """Raise ValueError unless the field is real (see :func:`real_fields`)."""
        if not self.is_real():
            raise ValueError(f"field is not real (defect {self.reality_defect():.2e})")

    # -- linear operators ----------------------------------------------------

    def heat(self, t: float) -> "SpectralField":
        """Heat semigroup: multiply each coefficient by exp(-|k|^2 t)."""
        if t < 0:
            raise ValueError(f"heat semigroup needs t >= 0, got {t}")
        if t == 0:
            return self
        return SpectralField(self.grid, self.coeffs * np.exp(-self.grid.k_squared * t))

    def derivative(self, axis: int) -> "SpectralField":
        """Partial derivative along ``axis`` (0-based): f_k -> i*k_axis*f_k."""
        if not 0 <= axis < self.grid.dim:
            raise ValueError(f"axis {axis} out of range for dim {self.grid.dim}")
        ik = self.grid.derivative_multipliers[axis]
        return SpectralField(self.grid, self.coeffs * ik)

    def project_band(self, radius: float) -> "SpectralField":
        """Zero all coefficients with Euclidean |k| > radius."""
        if radius < 0:
            raise ValueError("radius must be >= 0")
        mask = self.grid.k_squared <= radius * radius + 1e-9
        return SpectralField(self.grid, np.where(mask, self.coeffs, 0.0))

    def zero_mode(self) -> np.ndarray:
        """Spatial mean (f^a_0)_a as a real vector in E."""
        self.require_real()
        return self.coeffs[self.grid.zero_mode_index].real.copy()

    def remove_mean(self) -> "SpectralField":
        """Project onto zero-mean fields (zero the k=0 coefficient)."""
        out = self.coeffs.copy()
        out[self.grid.zero_mode_index] = 0.0
        return SpectralField(self.grid, out)

    def rotate(self) -> "SpectralField":
        """Phase rotation: multiply by +i for k_1 > 0, -i for k_1 < 0.

        Applied per component; preserves the reality condition.
        """
        k1 = self.grid.axis_wavenumbers(0)
        mult = np.where(k1 > 0, 1j, np.where(k1 < 0, -1j, 1.0 + 0j))
        return SpectralField(self.grid, self.coeffs * mult)

    def __add__(self, other: "SpectralField") -> "SpectralField":
        if self.grid != other.grid:
            raise ValueError("grid mismatch")
        return SpectralField(self.grid, self.coeffs + other.coeffs)


def _reality_defects(coeffs: np.ndarray, dim: int) -> np.ndarray:
    """max |f_{-k} - conj(f_k)| per field of a (..., nc, M..) stack, taken over
    the flat half from the centre (-k is the reversed flat index): |a - conj b|
    = |b - conj a| exactly, so it is even in k."""
    c = math.prod(coeffs.shape[-dim:]) // 2
    flat = coeffs.reshape(coeffs.shape[:-dim] + (2 * c + 1,))
    defect = np.abs(flat[..., c:] - np.conj(flat[..., c::-1]))
    return defect.max(axis=(-2, -1), initial=0.0)


def real_fields(coeffs: np.ndarray, dim: int) -> np.ndarray:
    """Which fields of a (..., nc, M..) stack are real, shape (...,): a field
    is real when its reality defect is at most REALITY_TOL (1 + max |f_k|), its
    own scale.  NaN fails the check."""
    scale = 1.0 + np.abs(coeffs).max(axis=tuple(range(-dim - 1, 0)), initial=0.0)
    return _reality_defects(coeffs, dim) <= REALITY_TOL * scale


# -- transforms ---------------------------------------------------------------

@lru_cache(maxsize=64)
def _band_positions(grid: TorusGrid, points: int) -> np.ndarray:
    """Where the wavenumbers -K..K sit on one axis of a G-point grid."""
    pos = grid.wavenumbers % points
    pos.setflags(write=False)       # cached: shared by every caller
    return pos


def synthesize_coeffs(coeffs: np.ndarray, grid: TorusGrid, points: int | None = None,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Real values of a stack of real fields at the grid x_j = 2*pi*j/G,
    written into ``out`` when given (float64, the values' shape).

    ``coeffs`` may have leading axes before the wavenumber cubes; only the
    k_d >= 0 half of each (Hermitian) cube is read.
    """
    G = points or grid.points_per_axis
    d, K = grid.dim, grid.half_band
    if G < grid.modes_per_axis or coeffs.shape[coeffs.ndim - d:] != grid.mode_shape:
        raise ValueError("coefficients must end in the wavenumber cube, points >= M")
    vals = coeffs[..., K:]
    for axis in range(-d, -1):      # irfftn's order: c2c on -d..-2, then c2r
        # transformed axis outermost in memory: numpy.fft's axis -2 pass 2-3x faster
        shape = list(vals.shape)
        shape[axis], shape[0] = shape[0], G
        pad = np.zeros(shape, complex).swapaxes(0, axis)
        pad[(Ellipsis, _band_positions(grid, G)) + (slice(None),) * (-1 - axis)] = vals
        vals = np.fft.ifft(pad, axis=axis, norm="forward", out=pad)
    return np.fft.irfft(vals, n=G, norm="forward", out=out)


def synthesize_real(field: SpectralField) -> np.ndarray:
    """Real values of the field; raises ValueError unless it is real."""
    field.require_real()
    return synthesize_coeffs(field.coeffs, field.grid)


def analyze_values(values: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Forward transform of real values; exact inverse of synthesis on
    band-limited data, with exactly Hermitian coefficients."""
    lead = values.ndim - grid.dim
    G = values.shape[-1]
    if values.shape[lead:] != (G,) * grid.dim:
        raise ValueError("physical array is not a uniform cube")
    if G < grid.modes_per_axis:
        raise ValueError("physical grid coarser than the wavenumber band")
    if np.iscomplexobj(values):
        raise ValueError("physical values must be real")
    d, K = grid.dim, grid.half_band
    rev = (slice(None, None, -1),) * (d - 1)    # k -> -k on the leading axes
    # rfftn's order and scaling: r2c on the last axis times 1/G^d, then c2c
    half = np.fft.rfft(values)[..., :K + 1] * (1.0 / G ** d)
    for axis in range(-d, -1):
        half = np.fft.fft(half, axis=axis).take(_band_positions(grid, G), axis=axis)
    if d > 1:
        zero = half[..., 0]     # make the k_d = 0 plane exactly Hermitian too
        half[..., 0] = 0.5 * (zero + np.conj(zero[(Ellipsis, *rev)]))
    out = np.empty(values.shape[:lead] + grid.mode_shape, complex)
    out[..., K:] = half[..., :K + 1]
    np.conjugate(half[(Ellipsis, *rev, slice(K, 0, -1))], out=out[..., :K])
    return out


def analyze(values: np.ndarray, grid: TorusGrid) -> SpectralField:
    """Build a SpectralField from physical values, shape ([nc,] G, ..., G)."""
    values = np.asarray(values)
    if values.ndim == grid.dim:
        values = values[None]
    return SpectralField(grid, analyze_values(values, grid))


def pointwise_product(f: SpectralField, g: SpectralField) -> SpectralField:
    """Dealiased componentwise product of two band-limited fields.

    Exact Fourier coefficients on the retained band; requires quadratic
    oversampling headroom on the shared grid and real fields.
    """
    if f.grid != g.grid:
        raise ValueError("grid mismatch")
    if f.components != g.components:
        raise ValueError("component count mismatch")
    if not f.grid.quadratic_headroom():
        raise ValueError(
            "insufficient oversampling for a dealiased product: need "
            f"G >= ceil(3M/2), have G = {f.grid.points_per_axis}")
    vals = synthesize_real(f) * synthesize_real(g)
    return SpectralField(f.grid, analyze_values(vals, f.grid))
