"""Independent oracles and the correctness pass of the benchmark.

Every oracle here recomputes a quantity from its definition (direct
lattice sums, direct evaluation of a trigonometric polynomial and of the
nonlinearity tensors at off-grid points) instead of calling the code path
it checks, and no check compares against a stored copy of an earlier
output.  A check returns the number of operations it found failed.
"""

from __future__ import annotations

import csv
import math

import numpy as np

INFLATE_TOP = 1024          # radius at which the inflation verdict is checked
DRIFT_RTOL = 1e-12
EZ_RTOL = 1e-10             # ez_bounds.csv keeps 12 significant digits
RHS_RTOL = 1e-10
FLAT_SPREAD = 1.3


# -- oracles -------------------------------------------------------------------

def horizon(radius: int, log_exponent: float = 4.0) -> float:
    """T(N) = (log N)^{-log_exponent}, the experiment horizon."""
    return math.log(radius) ** (-log_exponent)


def direct_drift_final(radius: int, t: float) -> float:
    """|I_t| for antisym2, d = 1, white noise: 2 sum_{n<=N} (1 - e^{-2n^2 t})/n.

    The drift direction B_1(T^2, T^1) - B_1(T^1, T^2) of antisym2 has norm 2.
    """
    return 2.0 * math.fsum(-math.expm1(-2.0 * n * n * t) / n
                           for n in range(1, radius + 1))


def direct_expected_Zt(radius: int, t: float) -> float:
    """E Z_t for d = 1 white noise: sum_{n=1}^{N} 2 n e^{-2 n^2 t}."""
    return math.fsum(2.0 * n * math.exp(-2.0 * n * n * t)
                     for n in range(1, radius + 1))


def direct_ez_upper_ratio(radius: int, t_grid) -> float:
    """max over the grid of E Z_t / min(N^2, 1/t), by direct enumeration."""
    return max(direct_expected_Zt(radius, t) / min(radius * radius, 1.0 / t)
               for t in t_grid)


def tables_t_grid() -> np.ndarray:
    """The default time grid of the tables run: 1e-4..1e-1, 40 per decade."""
    n = int(math.ceil(math.log10(1e-1 / 1e-4) * 40)) + 1
    return np.geomspace(1e-4, 1e-1, n)


def low_mode_coeffs(rng: np.random.Generator, components: int, dim: int,
                    half_band: int) -> np.ndarray:
    """Real field with modes in {-1, 0, 1}^dim, on the cube of half-width K.

    Hermitian symmetry c_{-k} = conj(c_k) is imposed directly, so the
    field is real without going through the package's sampler.
    """
    low = rng.standard_normal((components,) + (3,) * dim) \
        + 1j * rng.standard_normal((components,) + (3,) * dim)
    flip = tuple(range(1, dim + 1))
    low = 0.5 * (low + np.conj(np.flip(low, axis=flip)))
    M = 2 * half_band + 1
    out = np.zeros((components,) + (M,) * dim, complex)
    centre = slice(half_band - 1, half_band + 2)
    out[(slice(None),) + (centre,) * dim] = low
    return out


def eval_trig(coeffs: np.ndarray, points: np.ndarray,
              deriv_axis: int | None = None) -> np.ndarray:
    """Direct sum f(x) = sum_k c_k e^{i k.x} (or its d/dx_axis) at points.

    ``coeffs`` is (components, M, ..., M) with k axes ordered -K..K,
    ``points`` is (P, dim).  Returns (components, P), real part.
    """
    comps, *cube = coeffs.shape
    dim = len(cube)
    K = (cube[0] - 1) // 2
    ks = np.stack(np.meshgrid(*([np.arange(-K, K + 1)] * dim),
                              indexing="ij"), axis=-1).reshape(-1, dim)
    flat = coeffs.reshape(comps, -1)
    if deriv_axis is not None:
        flat = flat * (1j * ks[:, deriv_axis])[None]
    phase = np.exp(1j * points @ ks.T)             # (P, modes)
    return (flat @ phase.T).real


def direct_nonlinearity(spec, coeffs: np.ndarray,
                        points: np.ndarray) -> np.ndarray:
    """sum_i B_i(u, d_i u) + P(u) at points, from the tensors entry by entry.

    Loops over the nonzero entries of B and of p0..p3 of the spec.
    """
    u = eval_trig(coeffs, points)                          # (n, P)
    du = [eval_trig(coeffs, points, i) for i in range(spec.dim)]
    out = np.zeros_like(u)
    for i, c, a, b in zip(*np.nonzero(spec.B)):
        out[c] += spec.B[i, c, a, b] * u[a] * du[i][b]
    for (c,) in zip(*np.nonzero(spec.p0)):
        out[c] += spec.p0[c]
    for c, a in zip(*np.nonzero(spec.p1)):
        out[c] += spec.p1[c, a] * u[a]
    for c, a, b in zip(*np.nonzero(spec.p2)):
        out[c] += spec.p2[c, a, b] * u[a] * u[b]
    for c, a, b, e in zip(*np.nonzero(spec.p3)):
        out[c] += spec.p3[c, a, b, e] * u[a] * u[b] * u[e]
    return out


def rhs_defect(spec, rhs_coeffs: np.ndarray, field_coeffs: np.ndarray,
               points: np.ndarray) -> float:
    """Relative sup defect between a computed RHS and the direct evaluation."""
    direct = direct_nonlinearity(spec, field_coeffs, points)
    computed = eval_trig(rhs_coeffs, points)
    return float(np.max(np.abs(computed - direct))
                 / (1.0 + np.max(np.abs(direct))))


# -- per-round checks (run in the workload process, after timing) -------------

def finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v)
               for v in values)


def solve_failures(records) -> int:
    """Solves that blew up or produced a non-finite output."""
    failed = 0
    for rec in records:
        for arm in ("adversarial", "control"):
            r = rec[arm]
            ok = r["status"] == "completed" \
                and finite(*(v for k, v in r.items() if k != "status"))
            if arm == "adversarial":
                ok = ok and finite(r.get("remainder_sup"),
                                    r.get("drift_final"))
            failed += not ok
    return failed


def drift_failures(records, log_exponent: float = 4.0) -> int:
    """Adversarial solves whose drift_final misses the direct sum."""
    failed = 0
    for rec in records:
        got = rec["adversarial"].get("drift_final")
        want = direct_drift_final(rec["radius"],
                                  horizon(rec["radius"], log_exponent))
        failed += got is None or abs(got - want) > DRIFT_RTOL * want
    return failed


def ez_table_defect(path, t_grid) -> float:
    """Largest relative gap between ez_bounds.csv and the direct enumeration."""
    worst = 0.0
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            want = direct_ez_upper_ratio(int(row["radius"]), t_grid)
            worst = max(worst, abs(float(row["upper_ratio"]) - want) / want)
    return worst


# -- checks over all rounds of a run (made by run.py) -------------------------

def inflation_verdict_ok(adversarial, control, drift_final) -> bool:
    """At the top radius: adversarial median > 2x control median and within
    a factor of 2 of |I_T|."""
    adv = float(np.median(adversarial))
    ctl = float(np.median(control))
    return adv > 2.0 * ctl and drift_final / 2.0 <= adv <= 2.0 * drift_final


def besov_medians(norm_rows) -> list:
    """Per-radius medians of per-trial Cauchy norms (rows are trials)."""
    return [float(v) for v in np.median(np.asarray(norm_rows), axis=0)]


def decreasing(values) -> bool:
    return all(b < a for a, b in zip(values, values[1:]))


def flat(values) -> bool:
    return max(values) / min(values) < FLAT_SPREAD
