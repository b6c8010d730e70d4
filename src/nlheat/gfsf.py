"""Binary snapshot format for spectral fields.

Layout: magic ``GFSF``, one version byte, little-endian u32 triple
(d, M, dim_E), then the coefficients as little-endian f64 (re, im) pairs
in row-major (component, k_1, ..., k_d) order with each k axis ordered
-K..K.  A JSON sidecar duplicates the header for tooling.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .field import SpectralField, TorusGrid

MAGIC = b"GFSF"
VERSION = 1


def write_field(path, field: SpectralField) -> None:
    path = Path(path)
    grid = field.grid
    header = MAGIC + struct.pack("<BIII", VERSION, grid.dim,
                                 grid.modes_per_axis, field.components)
    flat = np.ascontiguousarray(field.coeffs, dtype=np.complex128)
    body = flat.astype("<c16").tobytes()
    path.write_bytes(header + body)
    meta = {"magic": "GFSF", "version": VERSION, "dim": grid.dim,
            "modes_per_axis": grid.modes_per_axis,
            "components": field.components}
    path.with_suffix(path.suffix + ".json").write_text(
        json.dumps(meta, indent=2) + "\n")


def read_field(path) -> SpectralField:
    raw = Path(path).read_bytes()
    if raw[:4] != MAGIC:
        raise ValueError("not a GFSF file")
    version, dim, modes, components = struct.unpack("<BIII", raw[4:17])
    if version != VERSION:
        raise ValueError(f"unsupported GFSF version {version}")
    count = components * modes ** dim
    if len(raw) != 17 + 16 * count:
        raise ValueError(f"GFSF file has {len(raw)} bytes, expected {17 + 16 * count}")
    coeffs = np.frombuffer(raw[17:], dtype="<c16", count=count).astype(complex)
    grid = TorusGrid(dim, modes)
    return SpectralField(grid, coeffs.reshape((components,) + grid.mode_shape))
