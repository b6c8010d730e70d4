"""Mild-solution integrator for the nonlinear heat equation.

The heat semigroup is applied exactly in Fourier space and only the
nonlinearity N(u) = B(u, Du) + P(u) is treated explicitly, by the two-stage
ETD-RK2 scheme of Cox & Matthews (2002) at z = -|k|^2 h:

    a = e^z u_t + h phi1(z) N(u_t),   u_{t+h} = a + h phi2(z) (N(a) - N(u_t))

with phi1(z) = (e^z - 1)/z and phi2(z) = (e^z - 1 - z)/z^2.  The stage a is
an exponential-Euler step, and h phi2 (N(a) - N(u_t)) estimates its error.

N(u) is evaluated on the oversampled grid as matrix products over point
chunks, each chunk's factor arrays within ``besov.BATCH_BYTES`` so that they
stay in cache.  The result does not depend on the chunk width as long as
BLAS sums each output column of a matrix product in an order that does not
depend on the number of columns (OpenBLAS's dgemm does).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import besov
from .besov import holder_norm
from .field import SpectralField, TorusGrid, analyze_values, synthesize_coeffs
from .nonlinearity import NonlinearitySpec


@dataclass(frozen=True)
class SolveConfig:
    """Time grid and safeguards for one solve."""

    t_end: float
    steps: int
    blowup_threshold: float = 1e8
    snapshot_times: tuple = ()

    def __post_init__(self):
        if self.t_end <= 0:
            raise ValueError("t_end must be positive")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.blowup_threshold <= 0:
            raise ValueError("blowup_threshold must be positive")


@dataclass
class Trajectory:
    """Snapshots, densely recorded zero-mode path, blow-up status, and the
    largest finite sup|u| that any right-hand side evaluation saw (an
    overflowing blow-up's inf or NaN sup is left out, so it stays finite)."""

    times: list
    fields: list
    zero_mode_times: np.ndarray
    zero_mode_path: np.ndarray           # (n_recorded, dim_E)
    status: str = "completed"            # "completed" | "blewup"
    blowup_time: float | None = None
    sup_max: float = 0.0

    @property
    def steps(self) -> int:
        """Steps completed: the blow-up step, if any, is not counted."""
        return len(self.zero_mode_times) - 1

    def zero_mode_sup(self) -> float:
        return float(np.max(np.linalg.norm(self.zero_mode_path, axis=1)))

    def zero_mode_shift(self) -> float:
        """max_t |z(t) - z(0)|: the drift, whatever the data's own zero mode."""
        path = self.zero_mode_path
        return float(np.max(np.linalg.norm(path - path[0], axis=1)))


def nonlinear_rhs_coeffs(coeffs: np.ndarray, grid: TorusGrid,
                         spec: NonlinearitySpec) -> tuple[np.ndarray, float]:
    """Fourier coefficients of B(u, Du) + P(u) and the physical sup of u.

    On the flattened oversampled grid, each non-zero term of ``spec.plan``
    is one matrix product: its columns times u_a d_i u_b over the B slots,
    or times the distinct monomials u_a u_b ... of p0..p3.  The products
    run over equal point chunks, as many as leave the widest factor array
    within ``besov.BATCH_BYTES``, each added into its slice of one output.
    The result is analysed back onto the working band (dealiased for the
    polynomial degrees actually present).
    """
    if spec.dim != grid.dim:
        raise ValueError("nonlinearity and field dimension mismatch")
    if spec.dim_E != coeffs.shape[0]:
        raise ValueError("nonlinearity and field component mismatch")
    if spec.has_cubic() and not grid.cubic_headroom():
        raise ValueError("cubic nonlinearity needs G >= 2M oversampling")
    if spec.has_quadratic() and not grid.quadratic_headroom():
        raise ValueError("quadratic nonlinearity needs G >= ceil(3M/2)")
    u_phys = synthesize_coeffs(coeffs, grid)            # (nE, G..)
    sup_u = float(np.abs(u_phys).max()) if u_phys.size else 0.0
    u = u_phys.reshape(len(u_phys), -1)
    values = [u]                                    # then du, if B is present
    if "B" in spec.plan:
        du = grid.derivative_multipliers[:, None] * coeffs[None]
        values.append(synthesize_coeffs(du, grid).reshape(grid.dim, len(u), -1))
    out = np.zeros(u.shape, u.dtype)
    widest = max([cols.shape[1] for cols, *_ in spec.plan.values()], default=1)
    n, width = u.shape[1], max(1, besov.BATCH_BYTES // (8 * widest))
    # one chunk (every d = 1 grid): whole arrays, since the loop's views are
    # a measurable share of a small RHS call
    if n <= width:
        _contract(spec.plan, out, *values)
    else:
        # no one-point chunk: BLAS takes it as a matrix-vector product, which
        # sums in another order, so the result would depend on the chunking
        chunks = min(-(-n // width), n // 2)
        for j in range(chunks):
            part = slice(j * n // chunks, (j + 1) * n // chunks)
            _contract(spec.plan, out[:, part], *[v[..., part] for v in values])
    return analyze_values(out.reshape(u_phys.shape), grid), sup_u


def _contract(plan: dict, out: np.ndarray, u: np.ndarray, du=None) -> None:
    """out += each plan term's columns times its factor rows on these points."""
    for name, (cols, *slots) in plan.items():
        if name == "B":
            factors = u[slots[1]] * du[slots[0], slots[2]]
        else:
            factors = np.ones((1, u.shape[1]))
            for slot in slots:
                factors = factors * u[slot]
        out += cols @ factors


def _phi1(z: np.ndarray) -> np.ndarray:
    out = np.ones_like(z)
    nz = z != 0
    out[nz] = np.expm1(z[nz]) / z[nz]
    return out


def _phi2(z: np.ndarray) -> np.ndarray:
    out = np.full_like(z, 0.5)
    nz = np.abs(z) > 1e-6
    out[nz] = (np.expm1(z[nz]) - z[nz]) / z[nz] ** 2
    small = ~nz & (z != 0)
    out[small] = 0.5 + z[small] / 6.0 + z[small] ** 2 / 24.0
    return out


def solve(u0: SpectralField, spec: NonlinearitySpec,
          config: SolveConfig) -> Trajectory:
    """Integrate the flow from u0 over [0, t_end].

    The zero-mode vector is recorded at every step; spectral snapshots are
    taken at the step boundaries closest to the requested snapshot times
    (t = 0 and t = t_end are always included).  u0 must be real.
    """
    grid = u0.grid
    u0.require_real()
    h = config.t_end / config.steps
    centre = grid.zero_mode_index
    k2 = grid.k_squared
    decay = np.exp(-k2 * h)
    z = -k2 * h
    hphi1, hphi2 = h * _phi1(z), h * _phi2(z)       # loop invariants

    snap_steps = {0, config.steps}
    for t in config.snapshot_times:
        snap_steps.add(int(round(min(max(t, 0.0), config.t_end) / h)))

    u = u0.coeffs.copy()
    times, fields = [], []
    zt = [0.0]
    zpath = [u[centre].real.copy()]
    status, blowup_time = "completed", None
    sups = []

    def record_snapshot(step):
        if step in snap_steps:
            times.append(step * h)
            fields.append(SpectralField(grid, u.copy()))

    record_snapshot(0)
    for step in range(1, config.steps + 1):
        n0, sup_u = nonlinear_rhs_coeffs(u, grid, spec)
        sups.append(sup_u)
        if not np.isfinite(sup_u) or sup_u > config.blowup_threshold:
            status, blowup_time = "blewup", (step - 1) * h
            break
        stage = decay * u + hphi1 * n0
        n1, sup_stage = nonlinear_rhs_coeffs(stage, grid, spec)
        sups.append(sup_stage)
        u = stage + hphi2 * (n1 - n0)
        if not np.all(np.isfinite(u)):
            status, blowup_time = "blewup", step * h
            break
        zt.append(step * h)
        zpath.append(u[centre].real.copy())
        record_snapshot(step)

    return Trajectory(times, fields, np.asarray(zt), np.asarray(zpath),
                      status, blowup_time,
                      max((s for s in sups if np.isfinite(s)), default=0.0))


def remainder_norms(trajectory: Trajectory, u0: SpectralField, drift,
                    alpha: float) -> np.ndarray:
    """Hoelder C^alpha norms of the remainder R_t = u_t - P_t u0 - I_t at the
    snapshot times; ``drift`` maps t to the constant-in-space vector I_t in E."""
    grid, norms = u0.grid, []
    for t, f in zip(trajectory.times, trajectory.fields):
        coeffs = f.coeffs - u0.heat(t).coeffs
        coeffs[grid.zero_mode_index] -= np.asarray(drift(t), dtype=complex)
        norms.append(holder_norm(SpectralField(grid, coeffs), alpha))
    return np.asarray(norms)
