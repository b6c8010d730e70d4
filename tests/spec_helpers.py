"""Test-only helpers for nonlinearity specs, right-hand sides, a whole-cube
reference solve and Var Z_t."""

import math

import numpy as np

from nlheat.field import SpectralField
from nlheat.nonlinearity import NonlinearitySpec
from nlheat.sampling import VarianceProfile
from nlheat.solver import START_FRACTION, Trajectory, nonlinear_rhs_coeffs


def permuted(spec: NonlinearitySpec, perm) -> NonlinearitySpec:
    """Relabel the basis of E by the permutation ``perm`` (new <- old)."""
    perm = np.asarray(perm)
    B = spec.B[:, perm][:, :, perm][:, :, :, perm]
    return NonlinearitySpec(
        spec.dim, spec.dim_E, B,
        spec.p0[perm], spec.p1[perm][:, perm],
        spec.p2[perm][:, perm][:, :, perm],
        spec.p3[perm][:, perm][:, :, perm][:, :, :, perm])


def evaluate_rhs_nonlinear(u: SpectralField, spec: NonlinearitySpec) -> SpectralField:
    """B(u, Du) + P(u) as a spectral field."""
    coeffs, _ = nonlinear_rhs_coeffs(u.coeffs, u.grid, spec)
    return SpectralField(u.grid, coeffs)


def picard_nonlinearity(u0: SpectralField, t: float,
                        spec: NonlinearitySpec) -> SpectralField:
    """Quadratic first-iterate term B(P_t u0, D P_t u0) (P excluded)."""
    if t <= 0:
        raise ValueError("t must be positive")
    quad = NonlinearitySpec.from_parts(spec.dim, spec.dim_E, B=spec.B)
    return evaluate_rhs_nonlinear(u0.heat(t), quad)


def phi1_reference(z: np.ndarray) -> np.ndarray:
    """(e^z - 1)/z, 1 at z = 0, one masked expm1."""
    out = np.ones_like(z)
    nz = z != 0
    out[nz] = np.expm1(z[nz]) / z[nz]
    return out


def phi2_reference(z: np.ndarray) -> np.ndarray:
    """(e^z - 1 - z)/z^2, 1/2 at z = 0 and its Taylor polynomial for
    0 < |z| <= 1e-6, one masked expm1."""
    out = np.full_like(z, 0.5)
    nz = np.abs(z) > 1e-6
    out[nz] = (np.expm1(z[nz]) - z[nz]) / z[nz] ** 2
    small = ~nz & (z != 0)
    out[small] = 0.5 + z[small] / 6.0 + z[small] ** 2 / 24.0
    return out


@np.errstate(over="ignore", invalid="ignore")
def full_cube_solve(u0: SpectralField, spec: NonlinearitySpec, config) -> Trajectory:
    """``solver.solve``'s ETD-RK2 loop and step control with every array on
    the whole coefficient cube: u, N(u), the stage, the correction, the
    multipliers (per-phi masked expm1s), the error max and the finiteness
    check; each snapshot is the cube itself."""
    grid = u0.grid
    u0.require_real()
    t_end, tol, k2 = config.t_end, config.tol, grid.k_squared
    h = t_end / config.steps * (1.0 if tol is None else START_FRACTION)
    pending = sorted(min(max(s, 0.0), t_end) for s in (*config.snapshot_times, t_end))
    u = u0.coeffs.copy()
    times, fields = [0.0], [SpectralField(grid, u)]
    zt, zpath = [0.0], [u[grid.zero_mode_index].real.copy()]
    n0, sup_u = nonlinear_rhs_coeffs(u, grid, spec)
    status, sups, rejected, h_min = "completed", [sup_u], 0, h
    t, h_phi, last = 0.0, None, False
    while not last:
        if not np.isfinite(sup_u) or sup_u > config.blowup_threshold or t + h == t:
            status = "blewup"
            break
        if tol is None:
            last = len(zt) == config.steps
        else:
            left = t_end - t
            last = left <= h
            h = left if last else min(h, left / 2)
        if h != h_phi:
            h_phi, z = h, -k2 * h
            decay, hphi1, hphi2 = np.exp(z), h * phi1_reference(z), h * phi2_reference(z)
        h_min = min(h_min, h)
        stage = decay * u + hphi1 * n0
        n1, sup_stage = nonlinear_rhs_coeffs(stage, grid, spec)
        sups.append(sup_stage)
        correction = hphi2 * (n1 - n0)
        if tol is not None:
            err = float(np.abs(correction).max())
            scale = 0.9 * math.sqrt(tol / err) if 0 < err < math.inf \
                else 0.0 if err else math.inf
            if not err <= tol:
                rejected, last, h = rejected + 1, False, h * max(0.2, scale)
                continue
        u_prev, t_prev, u = u, t, stage + correction
        t = len(zt) * h if tol is None else (t_end if last else t + h)
        if tol is not None:
            h *= min(2.0, max(0.5, scale))
        if not np.all(np.isfinite(u)):
            status = "blewup"
            break
        zt.append(t)
        zpath.append(u[grid.zero_mode_index].real.copy())
        while pending and (pending[0] <= t or last):
            s = pending.pop(0)
            t_s, u_s = (t_prev, u_prev) if s - t_prev <= t - s else (t, u)
            if t_s != times[-1]:
                times.append(t_s)
                fields.append(SpectralField(grid, u_s))
        if not last:
            n0, sup_u = nonlinear_rhs_coeffs(u, grid, spec)
            sups.append(sup_u)
    return Trajectory(times, fields, np.asarray(zt), np.asarray(zpath), status,
                      t if status == "blewup" else None,
                      max((s for s in sups if np.isfinite(s)), default=0.0),
                      rejected, h_min)


def Z_variance(profile: VarianceProfile, dim: int, t: float,
               radius: int | None = None) -> float:
    """Var Z_t = sum_{n_1>0} 4 exp(-4 n^2 t) n_1^2 sigma^4(n), exact.

    Uses Var |X_n|^2 = sigma^4(n) for the complex half-space Gaussians.
    Computed by direct lattice enumeration (diagnostic scale only).
    """
    N = int(radius if radius is not None else math.floor(profile.cutoff + 1e-9))
    axes = [np.arange(-N, N + 1)] * dim
    mesh = np.meshgrid(*axes, indexing="ij")
    n1 = mesh[0].ravel().astype(float)
    n2 = sum(m.ravel().astype(float) ** 2 for m in mesh)
    keep = (n1 > 0) & (n2 <= N * N + 1e-9)
    sig2 = profile.sigma2_from_r2(n2[keep])
    return float(np.sum(4.0 * np.exp(-4.0 * n2[keep] * t)
                        * n1[keep] ** 2 * sig2 ** 2))
