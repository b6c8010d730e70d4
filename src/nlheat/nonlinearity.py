"""Bilinear and polynomial nonlinearity tensors for the heat equation.

The right-hand side of the evolution is Delta u + B(u, Du) + P(u) with
B(u, Du) = sum_i B_i(u, d_i u) bilinear and P polynomial of degree <= 3.
Tensors are stored output-first:

    B[i, c, a, b]      coefficient of T^c in B_i(T^a, T^b)
    p0[c], p1[c, a], p2[c, a, b], p3[c, a, b, e]

with p2, p3 symmetrised over their input slots.  The presets are
``antisym2`` and the gauge flows ``dym`` (DeTurck-Yang-Mills) and ``dymh``
(with an adjoint Higgs field), whose tensors one private function builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement, permutations
from math import factorial

import numpy as np

#: structure constants of so(3): [e_i, e_j] = eps_{ijk} e_k
SO3 = np.zeros((3, 3, 3))
for _i, _j, _k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
    SO3[_i, _j, _k] = 1.0
    SO3[_j, _i, _k] = -1.0


def _symmetrize(tensor: np.ndarray, slots: int) -> np.ndarray:
    """Symmetrise a p-tensor over its last ``slots`` input axes."""
    axes_in = list(range(1, slots + 1))
    out = np.zeros_like(tensor)
    for perm in permutations(axes_in):
        out += np.transpose(tensor, (0, *perm))
    return out / factorial(slots)


@dataclass(frozen=True)
class NonlinearitySpec:
    """Tensor data for B and P on a fixed basis of E."""

    dim: int
    dim_E: int
    B: np.ndarray          # (dim, dim_E, dim_E, dim_E)
    p0: np.ndarray         # (dim_E,)
    p1: np.ndarray         # (dim_E, dim_E)
    p2: np.ndarray         # (dim_E, dim_E, dim_E), symmetric in slots
    p3: np.ndarray         # (dim_E, dim_E, dim_E, dim_E), symmetric in slots

    def __post_init__(self):
        n = self.dim_E
        shapes = {
            "B": (self.dim, n, n, n), "p0": (n,), "p1": (n, n),
            "p2": (n, n, n), "p3": (n, n, n, n),
        }
        for name, shape in shapes.items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")

    @classmethod
    def from_parts(cls, dim: int, dim_E: int, B=None, p0=None, p1=None,
                   p2=None, p3=None) -> "NonlinearitySpec":
        n = dim_E
        B = np.zeros((dim, n, n, n)) if B is None else np.asarray(B, float)
        p0 = np.zeros(n) if p0 is None else np.asarray(p0, float)
        p1 = np.zeros((n, n)) if p1 is None else np.asarray(p1, float)
        p2 = np.zeros((n, n, n)) if p2 is None else _symmetrize(np.asarray(p2, float), 2)
        p3 = np.zeros((n, n, n, n)) if p3 is None else _symmetrize(np.asarray(p3, float), 3)
        return cls(dim, n, B, p0, p1, p2, p3)

    @cached_property
    def plan(self) -> dict:
        """Non-zero terms as name -> (columns, *slots), built once.

        Every term has one form over the factor stack F = [u; d_1 u; ...;
        d_dim u], dim_E rows per block: it adds columns @ (F[slots[0]] *
        F[slots[1]] * ...), each slot array giving one row of F per column.
        ``B`` has the slots (a, (i + 1) dim_E + b), so its column
        B[i, :, a, b] multiplies u_a d_i u_b, over the (i, a, b) with a
        non-zero column; the monomials of ``p0``..``p3`` (see
        ``_monomials``) read u only, and p0's empty product is 1.
        """
        i, a, b = np.nonzero(np.any(self.B != 0, axis=1))
        terms = {"B": (self.B[i, :, a, b].T, a, (i + 1) * self.dim_E + b)}
        terms.update((f"p{k}", _monomials(getattr(self, f"p{k}"), k))
                     for k in range(4))
        return {name: term for name, term in terms.items() if term[0].size}

    def has_quadratic(self) -> bool:
        return "B" in self.plan or "p2" in self.plan

    def has_cubic(self) -> bool:
        return "p3" in self.plan


def _monomials(tensor: np.ndarray, degree: int) -> tuple:
    """(columns, *slots) over the monomials u_a u_b ..., a <= b <= ..., with a
    non-zero column: the sum of the entries over the distinct orderings of
    the slots (the symmetric entry times the multiplicity)."""
    keys, cols = [], []
    for idx in combinations_with_replacement(range(tensor.shape[0]), degree):
        col = sum(tensor[(slice(None),) + p] for p in dict.fromkeys(permutations(idx)))
        if np.any(col):
            keys.append(idx)
            cols.append(col)
    return (np.array(cols).reshape(len(keys), len(tensor)).T, *np.array(keys, int).T)


def asymmetry_witness(spec: NonlinearitySpec):
    """First (i, a, b), 0-based, with B_i(T^a, T^b) != B_i(T^b, T^a).

    Returns None when every B_i is symmetric, i.e. B is a total derivative.
    Exact tensor comparison, no tolerance.
    """
    for i in range(spec.dim):
        for a in range(spec.dim_E):
            for b in range(spec.dim_E):
                if a != b and np.any(spec.B[i, :, a, b] != spec.B[i, :, b, a]):
                    return (i, a, b)
    return None


def check_pair(a: int, b: int, dim_E: int) -> None:
    """Raise unless (a, b) are two distinct component indices in [0, dim_E)."""
    if a == b or not (0 <= a < dim_E and 0 <= b < dim_E):
        raise ValueError(f"({a}, {b}) is no pair of components in [0, {dim_E})")


def drift_direction(spec: NonlinearitySpec, a: int, b: int) -> np.ndarray:
    """Coefficient of E[Z_t] in the mean zero-mode velocity of the flow.

    For the adversarial pair with Y^b the rotation of X^a, the resonant
    zero-mode terms contribute  -Z_t * B_1(T^a,T^b) + Z_t * B_1(T^b,T^a),
    so the mean drift of the spatial mean points along
    B_1(T^b, T^a) - B_1(T^a, T^b).
    """
    check_pair(a, b, spec.dim_E)
    return spec.B[0, :, b, a] - spec.B[0, :, a, b]


# -- presets -------------------------------------------------------------------

def _structure_constants(algebra) -> np.ndarray:
    if isinstance(algebra, str):
        if algebra == "so3":
            return SO3.copy()
        raise ValueError(f"unknown Lie algebra {algebra!r}")
    f = np.asarray(algebra, float)
    if f.ndim != 3 or f.shape[0] != f.shape[1] or f.shape[1] != f.shape[2]:
        raise ValueError("structure constants must form a cubic tensor")
    return f


def preset_antisym2(dim: int = 1) -> NonlinearitySpec:
    """Minimal asymmetric instance: dim_E = 2, B_1(x, y) = (x1 y2 - x2 y1) T^1."""
    B = np.zeros((dim, 2, 2, 2))
    B[0, 0, 0, 1] = 1.0
    B[0, 0, 1, 0] = -1.0
    return NonlinearitySpec.from_parts(dim, 2, B=B)


def _gauge_flow(dim: int, algebra, higgs: bool) -> NonlinearitySpec:
    """Tensors of the gauge flow, with an adjoint Higgs block if ``higgs``.

    E is indexed as (block, alpha): blocks dx^0..dx^(dim-1), then the Higgs
    block, flattened as block * dim(g) + alpha.  B holds the transport
    2 [X^i, V^j] into every block j and the gauge fixing -[X^j, V^j] dx^i
    over the gauge blocks; p3 holds sum_i [X^i, [X^i, X^j]] for every block
    j and, with the Higgs block Phi, -|Phi|^2 Phi.
    """
    f = _structure_constants(algebra)
    if not np.any(f):
        raise ValueError("abelian Lie algebra gives a symmetric B; no witness")
    ng, nb = f.shape[0], dim + higgs
    f_out = f.transpose(2, 0, 1)                     # [e_a, e_b] -> (c, a, b)
    # [e_a, [e_b, e_c]] = sum_d ff[d, a, b, c] e_d
    ff = np.einsum("bcm,amd->dabc", f, f)
    B = np.zeros((dim, nb, ng, nb, ng, nb, ng))
    p3 = np.zeros((nb, ng) * 4)
    for i in range(dim):
        for j in range(nb):
            B[i, j, :, i, :, j, :] += 2.0 * f_out
            p3[j, :, i, :, i, :, j, :] += ff
        for l in range(dim):
            B[i, i, :, l, :, l, :] -= f_out
    if higgs:
        eye = np.eye(ng)
        p3[dim, :, dim, :, dim, :, dim, :] -= np.einsum("ad,bc->abcd", eye, eye)
    n = nb * ng
    return NonlinearitySpec.from_parts(dim, n, B=B.reshape(dim, n, n, n),
                                       p3=p3.reshape(n, n, n, n))


def preset_dym(dim: int = 3, algebra="so3") -> NonlinearitySpec:
    """Gauge heat flow with the divergence gauge-fixing term.

    E = g^dim with basis T^(j, alpha) = e_alpha dx^j.  The quadratic part
        B_i(X, V) = sum_j 2 [X^i, V^j] dx^j - sum_l [X^l, V^l] dx^i
    makes sum_i B_i(u, d_i u) the commutator transport and gauge-fixing
    terms, and the cubic part is P(X)^j = sum_i [X^i,[X^i,X^j]].
    """
    return _gauge_flow(dim, algebra, higgs=False)


def preset_dymh(dim: int = 3, algebra="so3") -> NonlinearitySpec:
    """Gauge flow coupled to an adjoint Higgs component.

    E = g^dim + g; the Higgs block Phi gets the transport coupling
    2 [X^i, d_i Phi] and the cubic terms sum_i [X^i, [X^i, Phi]] - |Phi|^2 Phi.
    """
    return _gauge_flow(dim, algebra, higgs=True)


def preset(name: str, dim: int | None = None, algebra="so3") -> NonlinearitySpec:
    """Named nonlinearity presets: ``antisym2``, ``dym``, ``dymh``."""
    if name == "antisym2":
        return preset_antisym2(dim or 1)
    if name == "dym":
        return preset_dym(dim or 3, algebra)
    if name == "dymh":
        return preset_dymh(dim or 3, algebra)
    raise ValueError(f"unknown preset {name!r}")
