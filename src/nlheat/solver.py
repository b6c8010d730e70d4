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
import math

import numpy as np

from . import besov
from .besov import besov_norms
from .field import SpectralField, TorusGrid, analyze_values, synthesize_coeffs
from .nonlinearity import NonlinearitySpec


@dataclass(frozen=True)
class SolveConfig:
    """Time grid and safeguards for one solve; ``tol`` None: fixed steps."""

    t_end: float
    steps: int
    blowup_threshold: float = 1e8
    snapshot_times: tuple = ()
    tol: float | None = None

    def __post_init__(self):
        if self.t_end <= 0:
            raise ValueError("t_end must be positive")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.blowup_threshold <= 0:
            raise ValueError("blowup_threshold must be positive")
        if self.tol is not None and not self.tol > 0:
            raise ValueError("tol must be positive or None")


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
    rejected: int = 0                    # steps the controller refused
    h_min: float = 0.0                   # smallest step size tried

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
    is one matrix product: its columns times the products of its slot rows
    of the factor stack F = [u; d_1 u; ...; d_d u].  The products run over
    equal point chunks, as many as leave the widest factor array within
    ``besov.BATCH_BYTES``, each added into its slice of one output.  The
    result is analysed back onto the working band (dealiased for the
    polynomial degrees actually present).
    """
    return _rhs(coeffs, grid, *_layout(spec, grid, len(coeffs)))


def _layout(spec: NonlinearitySpec, grid: TorusGrid, components: int) -> tuple:
    """Check ``spec`` against the grid and the field's component count, then
    lay out its plan: the point slices of the contraction and the arrays
    that every call reuses, the factor stack F (u, and d_i u when B is
    present, dim_E rows per block) and the output."""
    if spec.dim != grid.dim:
        raise ValueError("nonlinearity and field dimension mismatch")
    if spec.dim_E != components:
        raise ValueError("nonlinearity and field component mismatch")
    if spec.has_cubic() and not grid.cubic_headroom():
        raise ValueError("cubic nonlinearity needs G >= 2M oversampling")
    if spec.has_quadratic() and not grid.quadratic_headroom():
        raise ValueError("quadratic nonlinearity needs G >= ceil(3M/2)")
    plan = spec.plan
    rows = max([cols.shape[1] for cols, *_ in plan.values()], default=1)
    n, width = grid.points_per_axis ** grid.dim, max(1, besov.BATCH_BYTES // (8 * rows))
    # no one-point chunk: BLAS takes it as a matrix-vector product, which
    # sums in another order, so the result would depend on the chunking
    count = max(1, min(-(-n // width), n // 2))
    blocks = 1 + grid.dim * ("B" in plan)
    return (plan, [slice(j * n // count, (j + 1) * n // count) for j in range(count)],
            np.empty((2, rows, -(-n // count))),
            np.empty((blocks * components, n)), np.empty((components, n)))


def _rhs(coeffs: np.ndarray, grid: TorusGrid, plan: dict, chunks: list,
         work: np.ndarray, factors: np.ndarray,
         out: np.ndarray) -> tuple[np.ndarray, float]:
    """``nonlinear_rhs_coeffs`` once the spec is checked and laid out."""
    blocks = factors.reshape((-1, len(coeffs)) + (grid.points_per_axis,) * grid.dim)
    u = synthesize_coeffs(coeffs, grid, out=blocks[0])  # (nE, G..)
    sup_u = float(max(u.max(), -u.min())) if u.size else 0.0
    # per axis: one stack of 3 nE fields is twice as slow
    for block, ik in zip(blocks[1:], grid.derivative_multipliers):
        synthesize_coeffs(ik * coeffs, grid, out=block)
    out.fill(0.0)
    for part in chunks:
        _contract(plan, out[:, part], factors[:, part], work)
    return analyze_values(out.reshape(u.shape), grid), sup_u


def _contract(plan: dict, out: np.ndarray, factors: np.ndarray,
              work: np.ndarray) -> None:
    """out += each plan term's columns times the product of its slot rows
    of ``factors``, built in work (the empty product of p0: ones)."""
    n = factors.shape[1]
    for cols, *slots in plan.values():
        rows, other = work[0, :cols.shape[1], :n], work[1, :cols.shape[1], :n]
        if slots:
            np.take(factors, slots[0], axis=0, out=rows, mode="clip")  # "raise" copies
        else:
            rows.fill(1.0)
        for slot in slots[1:]:
            np.take(factors, slot, axis=0, out=other, mode="clip")
            np.multiply(rows, other, out=rows)
        out += cols @ rows


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


#: first controlled step over t_end / steps: at the default tol no first step
#: of the d = 1 acceptance or the d = 3 gauge benchmark runs is refused
START_FRACTION = 0.125


@np.errstate(over="ignore", invalid="ignore")
def solve(u0: SpectralField, spec: NonlinearitySpec,
          config: SolveConfig) -> Trajectory:
    """Integrate the flow from u0 (real) over [0, t_end].

    With ``config.tol`` None every step is t_end / steps.  Otherwise the
    first is ``START_FRACTION`` of that, and a step whose error
    err = max_k |h phi2 (N(a) - N(u_t))| is <= tol is accepted, h then scaled
    by min(2, max(0.5, 0.9 sqrt(tol/err))); a refused step keeps u_t and
    N(u_t) and scales h by max(0.2, 0.9 sqrt(tol/err)).  Less than two steps
    from t_end the rest is split in two, or taken whole if it fits in one; a
    step that no longer moves t is a blow-up.  The zero mode is recorded at
    every accepted step, each snapshot at the accepted boundary nearest its
    requested time (the earlier on a tie), with t = 0 and t_end, once each.
    Overflow and invalid-value warnings are silenced: a non-finite sup|u| or
    step is recorded as a blow-up.
    """
    grid = u0.grid
    u0.require_real()
    layout = _layout(spec, grid, len(u0.coeffs))
    t_end, tol, k2 = config.t_end, config.tol, grid.k_squared
    h = t_end / config.steps * (1.0 if tol is None else START_FRACTION)
    pending = sorted(min(max(s, 0.0), t_end) for s in (*config.snapshot_times, t_end))
    u = u0.coeffs.copy()                # never written in place from here
    times, fields = [0.0], [SpectralField(grid, u)]
    zt, zpath = [0.0], [u[grid.zero_mode_index].real.copy()]
    n0, sup_u = _rhs(u, grid, *layout)
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
            decay, hphi1, hphi2 = np.exp(z), h * _phi1(z), h * _phi2(z)
        h_min = min(h_min, h)
        stage = decay * u + hphi1 * n0
        n1, sup_stage = _rhs(stage, grid, *layout)
        sups.append(sup_stage)
        correction = hphi2 * (n1 - n0)
        if tol is not None:
            err = float(np.abs(correction).max())
            scale = 0.9 * math.sqrt(tol / err) if 0 < err < math.inf \
                else 0.0 if err else math.inf           # NaN and inf: 0
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
            n0, sup_u = _rhs(u, grid, *layout)
            sups.append(sup_u)

    return Trajectory(times, fields, np.asarray(zt), np.asarray(zpath), status,
                      t if status == "blewup" else None,
                      max((s for s in sups if np.isfinite(s)), default=0.0),
                      rejected, h_min)


def remainder_norms(trajectory: Trajectory, u0: SpectralField, drift,
                    alpha: float) -> np.ndarray:
    """Hoelder C^alpha norms of the remainder R_t = u_t - P_t u0 - I_t at the
    snapshot times, one stack; ``drift`` maps t to the constant vector I_t in E."""
    grid, times = u0.grid, trajectory.times
    stack = np.stack([f.coeffs - u0.heat(t).coeffs
                      for t, f in zip(times, trajectory.fields)])
    stack[(slice(None), *grid.zero_mode_index)] -= np.array(
        [drift(t) for t in times], dtype=complex)
    return besov_norms(stack, grid, alpha)
