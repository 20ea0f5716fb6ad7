"""Binary snapshot files: magic 'NSLB', little-endian header, float64 payload.

Layout:  magic (4 bytes) | version u32 | n u32 | N u32 | ncomp u32 |
         time f64 | payload ncomp * N^n f64 row-major.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .spectral import PhysicalField, TorusGrid

__all__ = ["write_snapshot", "read_snapshot", "SnapshotError", "MAGIC", "VERSION"]

MAGIC = b"NSLB"
VERSION = 1
_HEADER = struct.Struct("<4sIIIId")


class SnapshotError(ValueError):
    """Malformed snapshot file."""


def write_snapshot(path, field: PhysicalField, time):
    grid = field.grid
    header = _HEADER.pack(MAGIC, VERSION, grid.n, grid.N, field.ncomp, float(time))
    payload = np.ascontiguousarray(field.values, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def read_snapshot(path):
    """Returns (PhysicalField, time); rejects bad magic, version, grid,
    component count, or payload length.  The header is checked before the
    payload is read, and the payload is read once, into the returned array."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise SnapshotError(f"truncated header: {len(head)} bytes, need {_HEADER.size}")
        magic, version, n, big_n, ncomp, time = _HEADER.unpack(head)
        if magic != MAGIC:
            raise SnapshotError(f"bad magic {magic!r}, expected {MAGIC!r}")
        if version != VERSION:
            raise SnapshotError(f"unsupported version {version}, reader supports {VERSION}")
        try:
            grid = TorusGrid(n=int(n), N=int(big_n))
        except ValueError as exc:
            raise SnapshotError(f"bad grid in header: {exc}") from exc
        if ncomp == 0:
            raise SnapshotError("header declares no field components")
        expected = ncomp * big_n**n * 8
        got = os.fstat(fh.fileno()).st_size - _HEADER.size
        if got == expected:
            values = np.empty((ncomp,) + grid.shape, dtype="<f8")
            got = fh.readinto(values)
        if got != expected:
            raise SnapshotError(
                f"payload length mismatch at byte offset {_HEADER.size + got}: got {got} bytes, need {expected}"
            )
    return PhysicalField(grid, values), float(time)
