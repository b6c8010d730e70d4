"""Zero-mode drift quantities and their statistical verification harnesses.

The central scalar is

    Z_t = sum_{n_1 > 0} 2 exp(-2 n^2 t) n_1 |X_n|^2

for a real scalar field X: it equals the spatial mean of
(P_t RX) d_1 (P_t X), with R the phase rotation.  Its expectation and the
time integral of the induced drift are exact finite sums over the mode
lattice, compressed here by bucketing modes on the integer values of n^2
(at d >= 2 with lattice-point counts from one ``numpy.fft`` spectrum power).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache
import math

import numpy as np

from .besov import holder_sup
from .field import (REAL_PRIMES, SpectralField, TorusGrid, analyze_values, fast_len,
                    synthesize_coeffs)
from .sampling import VarianceProfile, sample_real_gfs, stream

#: largest max/min spread across radii of a passing envelope (integral) ratio
SPREAD_MAX, INTEGRAL_SPREAD_MAX = 2.0, 3.0
#: (a, b, p) of the weighted drift integrals that ``verify_It_bounds`` checks
INTEGRAL_EXPONENTS = ((-0.5, -0.5, 1), (0.0, -0.75, 3))
#: time grid of the moment experiments: 1e-5 to 1, 20 points per decade
MOMENT_T_MIN, MOMENT_PER_DECADE = 1e-5, 20


@dataclass(frozen=True)
class ParameterSet:
    """Regularity exponents for the weighted-supremum statistics."""

    delta: float = 0.875
    beta: float = -0.5
    eta: float = -0.55

    def __post_init__(self):
        if not -1.0 < self.beta < 0.0:
            raise ValueError("beta must lie in (-1, 0)")
        if not -0.5 < self.beta_hat < 0.0:
            raise ValueError("beta + 2(1 - delta) must lie in (-1/2, 0)")
        if not -2.0 / 3.0 < self.eta < -0.5:
            raise ValueError("eta must lie in (-2/3, -1/2)")
        if self.eta + self.beta_hat <= -1.0:
            raise ValueError("need eta + beta_hat > -1")

    @property
    def beta_hat(self) -> float:
        return self.beta + 2.0 * (1.0 - self.delta)

    def check_dim(self, dim: int) -> "ParameterSet":
        """This set, if delta suits dimension ``dim``."""
        if not 1.0 - dim / 4.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (1 - d/4, 1) for d = {dim}")
        return self


def geometric_grid(t_max: float, t_min: float,
                   per_decade: int = 40) -> np.ndarray:
    """Geometric time grid from t_max down to ~t_min, ascending order."""
    if not 0 < t_min < t_max:
        raise ValueError("need 0 < t_min < t_max")
    decades = math.log10(t_max / t_min)
    n = max(2, int(math.ceil(decades * per_decade)) + 1)
    return np.geomspace(t_min, t_max, n)


# -- exact lattice sums --------------------------------------------------------

@lru_cache(maxsize=64)
def _perp_square_counts(dim_perp: int, max_r2: int) -> np.ndarray:
    """counts[j] = #{m in Z^dim_perp : |m|^2 = j} for j <= max_r2, dim_perp >= 1:
    the dim_perp-th power of 1 + 2 sum_a x^(a^2), by an FFT too long to wrap."""
    one = np.zeros(max_r2 + 1)
    one[0] = 1.0
    one[np.arange(1, math.isqrt(max_r2) + 1) ** 2] = 2.0
    n = fast_len(dim_perp * max_r2 + 1, REAL_PRIMES)
    return np.rint(np.fft.irfft(np.fft.rfft(one, n) ** dim_perp, n)[: max_r2 + 1])


@lru_cache(maxsize=64)
def mode_weight_table(profile: VarianceProfile, dim: int,
                      radius: int) -> tuple[np.ndarray, np.ndarray]:
    """Bucketed sums (n2_values, weights) with
    weights[j] = sum over {|n| <= radius, n_1 > 0, n^2 = n2_values[j]}
    of 2 n_1 sigma^2(n).

    Valid for radial profiles; exact because both the half-space weight
    2 n_1 and sigma^2 depend on n only through n_1 and |n|^2.
    """
    if dim == 1:
        n1 = np.arange(1, radius + 1)
        s, weights = n1 * n1, 2.0 * n1
    else:
        r2max = radius * radius
        perp = _perp_square_counts(dim - 1, r2max)
        weights = np.zeros(r2max + 1)
        for n1 in range(1, radius + 1):
            top = r2max - n1 * n1
            weights[n1 * n1: n1 * n1 + top + 1] += 2.0 * n1 * perp[: top + 1]
        s = np.arange(r2max + 1)
    wsig = weights * profile.sigma2_from_r2(s.astype(float))
    keep = wsig != 0.0
    return s[keep].astype(float), wsig[keep]


def _lattice_sum(profile: VarianceProfile, dim: int, t, radius,
                 kernel) -> np.ndarray | float:
    """``kernel(t n^2, n^2, weights)`` over the weight table: one sum per t >= 0."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t_arr < 0):
        raise ValueError("t must be >= 0")
    N = int(radius if radius is not None else math.floor(profile.cutoff + 1e-9))
    s, w = mode_weight_table(profile, dim, N)
    out = kernel(np.multiply.outer(t_arr, s), s, w)
    return out if np.ndim(t) else float(out[0])


def expected_Zt(profile: VarianceProfile, dim: int, t,
                radius: int | None = None) -> np.ndarray | float:
    """E Z_t = sum_{n_1>0, |n|<=N} 2 exp(-2 n^2 t) n_1 sigma^2(n), exact."""
    return _lattice_sum(profile, dim, t, radius,
                        lambda ts, s, w: np.exp(-2.0 * ts) @ w)


def drift_scalar(profile: VarianceProfile, dim: int, t,
                 radius: int | None = None) -> np.ndarray | float:
    """Exact per-mode time integral of E Z:
    sum 2 n_1 sigma^2(n) (1 - exp(-2 n^2 t)) / (2 n^2)."""
    return _lattice_sum(profile, dim, t, radius,
                        lambda ts, s, w: -np.expm1(-2.0 * ts) @ (w / (2.0 * s)))


def compute_Zt(field: SpectralField, t) -> np.ndarray | float:
    """Realised Z_t from the coefficients of a real scalar field."""
    if field.components != 1:
        raise ValueError("Z_t is defined for scalar fields")
    grid = field.grid
    k1 = (grid.axis_wavenumbers(0) * np.ones(grid.mode_shape)).ravel()
    pos = k1 > 0
    mags = np.abs(field.coeffs[0]).ravel()[pos] ** 2
    n2 = grid.k_squared.ravel()[pos]
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.exp(-2.0 * np.multiply.outer(t_arr, n2)) @ (2.0 * k1[pos] * mags)
    return out if np.ndim(t) else float(out[0])


# -- bound reports -------------------------------------------------------------

@dataclass
class BoundReport:
    """Per-radius extremal ratios for one two-sided envelope check."""

    radii: list
    upper_ratio: dict      # N -> max_t ratio against the upper envelope
    lower_ratio: dict      # N -> min_t ratio against the lower envelope
    upper_spread: float    # max/min of upper_ratio over N
    lower_spread: float
    passed: bool = True
    integral_ratio: dict = dc_field(default_factory=dict)   # (a, b, p) -> N -> ratio

    def rows(self):
        for N in self.radii:
            yield (N, self.upper_ratio.get(N), self.lower_ratio.get(N))


def _spread(values) -> float:
    vals = [v for v in values if v is not None]
    if not vals or min(vals) <= 0:
        return math.inf
    return max(vals) / min(vals)


def verify_EZt_bounds(profile_for_N, dim: int, radii, t_grid,
                      log_corrected: bool = True) -> BoundReport:
    """Envelope check for E Z_t.

    Upper: E Z_t / (N^2 min t^{-1}) bounded across the grid.  Lower (for
    the log-corrected profile): E Z_t * t * |log t| * log|log t| bounded
    away from zero on the admissible region t > N^{-2}.  For a pure power
    profile the lower envelope is just t^{-1}.  Passes on ``SPREAD_MAX``.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    upper, lower = {}, {}
    for N in radii:
        prof = profile_for_N(N)
        ez = expected_Zt(prof, dim, t_grid, radius=N)
        env_up = np.minimum(float(N) ** 2, 1.0 / t_grid)
        upper[N] = float(np.max(ez / env_up))
        adm = t_grid > 1.0 / N ** 2
        if np.any(adm):
            ta = t_grid[adm]
            if log_corrected:
                env_low = 1.0 / (ta * np.abs(np.log(ta))
                                 * np.log(np.abs(np.log(ta))))
            else:
                env_low = 1.0 / ta
            lower[N] = float(np.min(ez[adm] / env_low))
        else:
            lower[N] = None
    us, ls = _spread(upper.values()), _spread(lower.values())
    passed = us <= SPREAD_MAX and ls <= SPREAD_MAX \
        and all(v is None or v > 0 for v in lower.values())
    return BoundReport(list(radii), upper, lower, us, ls, passed)


def graded_quadrature_nodes(t: float, n: int = 1000):
    """Midpoint nodes on (0, t) clustered at both endpoints.

    The substitution s = t * u^2 (3 - 2u) has a vanishing derivative at
    both ends, which tames integrable endpoint singularities s^b and
    (t - s)^a for a, b > -1.
    """
    u = (np.arange(n) + 0.5) / n
    s = t * u * u * (3.0 - 2.0 * u)
    w = t * 6.0 * u * (1.0 - u) / n
    return s, w


def weighted_drift_integral(profile: VarianceProfile, dim: int, N: int,
                            direction: np.ndarray, t: float, a: float,
                            b: float, p: float, nodes: int = 1000) -> float:
    """integral_0^t (t - s)^a |I_s|^p s^b ds by graded quadrature, |I| exact."""
    if a <= -1 or b <= -1:
        raise ValueError("exponents a, b must be > -1")
    s, w = graded_quadrature_nodes(t, nodes)
    mag = np.abs(drift_scalar(profile, dim, s, radius=N)) \
        * np.linalg.norm(direction)
    return float(np.sum(w * (t - s) ** a * mag ** p * s ** b))


def verify_It_bounds(profile_for_N, dim: int, direction, radii,
                     t_grid) -> BoundReport:
    """Envelope check for |I_t| plus the weighted-integral bound.

    Upper: |I_t| / [(N^2 t) min 1 + log((N^2 t) max 1)].  Lower: on
    t > N^{-2}, |I_t| against log log log N - log log log(1/t).  The
    integral check compares integral (t-s)^a |I_s|^p s^b ds with
    t^{a+b+1} (log N)^p at t = max(t_grid) for each ``INTEGRAL_EXPONENTS``
    (a, b, p).  Passes on ``SPREAD_MAX`` and ``INTEGRAL_SPREAD_MAX``.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    direction = np.asarray(direction, dtype=float)
    mag_dir = np.linalg.norm(direction)
    upper, lower = {}, {}
    integral_ratio = {abp: {} for abp in INTEGRAL_EXPONENTS}
    for N in radii:
        prof = profile_for_N(N)
        mag = np.abs(drift_scalar(prof, dim, t_grid, radius=N)) * mag_dir
        x = float(N) ** 2 * t_grid
        env_up = np.minimum(x, 1.0) + np.log(np.maximum(x, 1.0))
        upper[N] = float(np.max(mag / env_up))
        adm = (t_grid > 1.0 / N ** 2) & (t_grid < 1.0)
        lll = math.log(math.log(math.log(N))) if math.log(math.log(N)) > 1 else None
        low_vals = []
        for idx in np.flatnonzero(adm):
            inner = math.log(math.log(1.0 / t_grid[idx]))
            if lll is None or inner <= 1.0:
                continue
            env = lll - math.log(inner)
            if env > 0.05:
                low_vals.append(mag[idx] / env)
        lower[N] = min(low_vals) if low_vals else None
        t_top = float(t_grid.max())
        for (a, b, p) in INTEGRAL_EXPONENTS:
            val = weighted_drift_integral(prof, dim, N, direction, t_top,
                                          a, b, p)
            integral_ratio[(a, b, p)][N] = \
                val / (t_top ** (a + b + 1.0) * math.log(N) ** p)
    us = _spread(upper.values())
    ls = _spread(lower.values())
    int_ok = all(_spread(d.values()) <= INTEGRAL_SPREAD_MAX
                 for d in integral_ratio.values())
    passed = us <= SPREAD_MAX and int_ok
    return BoundReport(list(radii), upper, lower, us, ls, passed, integral_ratio)


# -- moment experiments --------------------------------------------------------

def decorrelated_statistic(X: SpectralField, Y: SpectralField, axis: int,
                           delta: float, beta: float, t_grid,
                           remove_mean: bool = True, decay=None) -> float:
    """sup over the grid of t^delta |pi_0(P_t X d_axis P_t Y)|_{C^beta}.

    With ``remove_mean`` False the zero mode is kept (only meaningful for
    independent pairs, or as a positive control for the resonant mean).
    ``decay`` is exp(-t|k|^2) over t_grid and X's grid, if the caller has it.
    """
    grid = X.grid
    t_grid = np.asarray(t_grid, dtype=float)
    decay = np.exp(-np.multiply.outer(t_grid, grid.k_squared)) if decay is None else decay
    xa = X.coeffs[0][None] * decay
    yb = (Y.derivative(axis).coeffs[0])[None] * decay
    prod = synthesize_coeffs(xa, grid) * synthesize_coeffs(yb, grid)
    coeffs = analyze_values(prod, grid)                          # (T, M..)
    if remove_mean:
        coeffs[grid.zero_mode_index] = 0.0
    return holder_sup(coeffs, grid, beta, t_grid ** delta)


def _quantile(values, q: float) -> float:
    """np.quantile's linear value without its numpy.ma import; NaN if a value is."""
    v = np.sort(values)
    if np.isnan(v[-1]):             # NaN sorts last
        return math.nan
    h = (len(v) - 1) * q
    lo = math.floor(h)
    hi, g = min(lo + 1, len(v) - 1), h - lo
    d = v[hi] - v[lo]
    return float(v[hi] - d * (1 - g) if g >= 0.5 else v[lo] + d * g)


def trend_slope(radii, means) -> float:
    """Slope of log(mean statistic) against log N."""
    return float(np.polyfit(np.log(np.asarray(radii, float)),
                            np.log(np.asarray(means, float)), 1)[0])


@dataclass
class TrendReport:
    radii: list
    samples: dict          # N -> np.ndarray of per-trial statistics
    means: dict
    q90: dict
    slope: float

    @classmethod
    def from_samples(cls, samples: dict) -> "TrendReport":
        radii = sorted(samples)
        means = {N: float(np.mean(samples[N])) for N in radii}
        q90 = {N: _quantile(samples[N], 0.9) for N in radii}
        slope = trend_slope(radii, [means[N] for N in radii])
        return cls(radii, samples, means, q90, slope)


def _coupled_trend(profile_for_N, dim: int, params: ParameterSet, trials: int,
                   radii, master_seed: int, statistic) -> TrendReport:
    """Per-trial ``stat(X^N, N)`` for each cutoff N in ``radii``, where
    ``stat = statistic(t_grid, grid)`` is built once from the moment time grid
    (``MOMENT_T_MIN`` to 1) and the largest cutoff's grid, which X lives on.

    Per trial, one X is sampled at the largest cutoff and the smaller
    cutoffs are its band truncations X^N = Pi_N X, exactly as the finite
    series is defined; the coupling keeps the per-N laws exact while
    cancelling most of the Monte Carlo noise in the trend.
    """
    params.check_dim(dim)
    radii = sorted(int(N) for N in radii)
    grid, prof = TorusGrid(dim, 2 * radii[-1] + 1), profile_for_N(radii[-1])
    stat = statistic(geometric_grid(1.0, MOMENT_T_MIN, MOMENT_PER_DECADE), grid)
    samples = {N: np.empty(trials) for N in radii}
    for trial in range(trials):
        X = sample_real_gfs(prof, grid, stream(master_seed, trial, 0))
        for N in radii:
            samples[N][trial] = stat(X.project_band(N), N)
    return TrendReport.from_samples(samples)


def moment_experiment_decorrelated(profile_for_N, dim: int, params: ParameterSet,
                                   trials: int, radii, master_seed: int,
                                   remove_mean: bool = True) -> TrendReport:
    """Trend of sup_t t^delta |pi_0(P_t X d_1 P_t RX)|_{C^beta} across N, for
    the adversarial pair Y = RX, coupled as in ``_coupled_trend``."""
    def statistic(t_grid, grid):
        decay = np.exp(-np.multiply.outer(t_grid, grid.k_squared))
        return lambda X, N: decorrelated_statistic(
            X, X.rotate(), 0, params.delta, params.beta, t_grid, remove_mean, decay)
    return _coupled_trend(profile_for_N, dim, params, trials, radii, master_seed,
                          statistic)


def moment_experiment_Z(profile_for_N, dim: int, params: ParameterSet,
                        trials: int, radii, master_seed: int) -> TrendReport:
    """Trend of sup_t t^delta (Z_t - E Z_t) across N (expected flat), coupled
    as in ``_coupled_trend``."""
    def statistic(t_grid, grid):
        mean = {N: expected_Zt(profile_for_N(N), dim, t_grid, radius=N)
                for N in map(int, radii)}
        return lambda X, N: float(np.max(t_grid ** params.delta
                                         * (compute_Zt(X, t_grid) - mean[N])))
    return _coupled_trend(profile_for_N, dim, params, trials, radii, master_seed,
                          statistic)
