"""Mild-solution integrator for the nonlinear heat equation.

The heat semigroup is applied exactly in Fourier space and only the
nonlinearity N(u) = B(u, Du) + P(u) is treated explicitly, by the two-stage
ETD-RK2 scheme of Cox & Matthews (2002) at z = -|k|^2 h:

    a = e^z u_t + h phi1(z) N(u_t),   u_{t+h} = a + h phi2(z) (N(a) - N(u_t))

with phi1(z) = (e^z - 1)/z and phi2(z) = (e^z - 1 - z)/z^2.  The stage a is
an exponential-Euler step, and h phi2 (N(a) - N(u_t)) estimates its error.
As u is real, every array of the step lives on the k_d >= 0 half cube; a
snapshot is mirrored into the whole cube.

N(u) is evaluated as matrix products over point chunks within ``besov.BATCH_BYTES``;
the result does not depend on the chunk width as long as BLAS sums each output
column in an order independent of the number of columns (OpenBLAS's dgemm does).
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from . import besov
from .besov import besov_norms
from .field import (SpectralField, TorusGrid, _analyze_half, _mirror,
                    _synthesize_half, analyze_values, synthesize_coeffs)
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
    """Fourier coefficients of B(u, Du) + P(u) and the physical sup of u, from
    whole cubes through the public transforms: ``_rhs``'s values, bit for bit."""
    plan, chunks, work, blocks, out, _ = _layout(spec, grid, len(coeffs))
    for block, ik in zip(blocks, (None, *grid.derivative_multipliers)):
        synthesize_coeffs(coeffs if ik is None else ik * coeffs, grid, out=block)
    values, sup_u = _contract_all(plan, chunks, work, blocks, out)
    return analyze_values(values, grid), sup_u


def _layout(spec: NonlinearitySpec, grid: TorusGrid, components: int) -> tuple:
    """Check ``spec`` against the grid and the field's component count, then lay
    out its plan: the contraction's point slices and the arrays every call reuses,
    the factor stack F (u, and d_i u when B is present), the output, F's halves."""
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
    blocks = (1 + grid.dim * ("B" in plan), components)
    return (plan, [slice(j * n // count, (j + 1) * n // count) for j in range(count)],
            np.empty((2, rows, -(-n // count))),
            np.empty(blocks + (grid.points_per_axis,) * grid.dim), np.empty((components, n)),
            np.empty(blocks + grid.mode_shape[:-1] + (grid.half_band + 1,), complex))


def _rhs(half: np.ndarray, grid: TorusGrid, plan: dict, chunks: list, work: np.ndarray,
         blocks: np.ndarray, out: np.ndarray, stack: np.ndarray) -> tuple:
    """``nonlinear_rhs_coeffs`` on k_d >= 0 half cubes, in and out, once the
    spec is checked and laid out: ``solve``'s right-hand side."""
    stack[0] = half
    for part, ik in zip(stack[1:], grid.derivative_multipliers):
        np.multiply(ik[..., -half.shape[-1]:], half, out=part)
    # d = 1: u and every d_i u in one c2r call; d >= 2: per block (2x faster)
    for part, block in [(stack, blocks)] if grid.dim == 1 else zip(stack, blocks):
        _synthesize_half(part, grid, grid.points_per_axis, out=block)
    values, sup_u = _contract_all(plan, chunks, work, blocks, out)
    return _analyze_half(values, grid), sup_u


def _contract_all(plan: dict, chunks: list, work: np.ndarray, blocks: np.ndarray,
                  out: np.ndarray) -> tuple[np.ndarray, float]:
    """N(u)'s values from the blocks of the factor stack F = [u; d_1 u; ...; d_d u],
    chunk by chunk into ``out``, and sup|u|."""
    u, factors = blocks[0], blocks.reshape(-1, out.shape[1])
    sup_u = float(max(u.max(), -u.min())) if u.size else 0.0
    out.fill(0.0)
    for part in chunks:
        _contract(plan, out[:, part], factors[:, part], work)
    return out.reshape(u.shape), sup_u


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


def _phi(z: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """h phi1(z) and h phi2(z), phi1 = (e^z - 1)/z and phi2 = (e^z - 1 - z)/z^2,
    from one expm1: 1 and 1/2 at z = 0, phi2 its Taylor polynomial at |z| <= 1e-6."""
    em1 = np.expm1(z)
    phi1 = np.divide(em1, z, out=np.ones_like(z), where=z != 0)
    phi2 = 0.5 + z / 6.0 + z ** 2 / 24.0
    np.divide(em1 - z, z ** 2, out=phi2, where=np.abs(z) > 1e-6)
    return h * phi1, h * phi2


#: first controlled step over t_end / steps: at the default tol no first step
#: of the d = 1 acceptance or the d = 3 gauge benchmark runs is refused
START_FRACTION = 0.125


@np.errstate(over="ignore", invalid="ignore")
def solve(u0: SpectralField, spec: NonlinearitySpec,
          config: SolveConfig) -> Trajectory:
    """Integrate the flow from u0 (real) over [0, t_end].

    With ``config.tol`` None every step is t_end / steps.  Otherwise the first
    is ``START_FRACTION`` of that, and a step whose error err = max_k |h phi2
    (N(a) - N(u_t))| is <= tol is accepted, h then scaled by min(2, max(0.5,
    0.9 sqrt(tol/err))); a refused step keeps u_t and N(u_t) and scales h by
    max(0.2, 0.9 sqrt(tol/err)).  Less than two steps from t_end the rest is
    split in two, or taken whole if it fits in one; a step that no longer moves
    t is a blow-up.  The zero mode is recorded at every accepted step, each
    snapshot at the accepted boundary nearest its requested time (the earlier
    on a tie), with t = 0 and t_end, once each.  Overflow and invalid-value
    warnings are silenced: a non-finite sup|u| or step is a blow-up.
    """
    grid = u0.grid
    u0.require_real()
    layout = _layout(spec, grid, len(u0.coeffs))
    t_end, tol, K = config.t_end, config.tol, grid.half_band
    k2, zero = grid.k_squared[..., K:], grid.zero_mode_index[:-1] + (0,)
    h = t_end / config.steps * (1.0 if tol is None else START_FRACTION)
    pending = sorted(min(max(s, 0.0), t_end) for s in (*config.snapshot_times, t_end))
    u = u0.coeffs[..., K:]              # k_d >= 0 half; never written in place
    times, fields = [0.0], [SpectralField(grid, u0.coeffs.copy())]
    zt, zpath = [0.0], [u[zero].real.copy()]
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
            decay, (hphi1, hphi2) = np.exp(z), _phi(z, h)
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
        zpath.append(u[zero].real.copy())
        while pending and (pending[0] <= t or last):
            s = pending.pop(0)
            t_s, u_s = (t_prev, u_prev) if s - t_prev <= t - s else (t, u)
            if t_s != times[-1]:
                times.append(t_s)
                fields.append(SpectralField(grid, _mirror(u_s, grid)))
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
