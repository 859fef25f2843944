"""CSV import/export shared by all modules.

All floats are serialized with 17 significant digits so that identical
runs produce byte-identical files.
"""

from __future__ import annotations

import numpy as np

__all__ = ["fmt", "write_rows", "write_matrix", "read_coefficient",
           "write_kernel", "write_manifest"]

FLOAT_FMT = ".17g"


def fmt(x) -> str:
    """Format a real number with 17 significant digits."""
    return format(float(x), FLOAT_FMT)


def write_rows(path, header: str, rows) -> None:
    """Write rows (iterables of already-formatted strings) under a header line."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def write_matrix(path, mat: np.ndarray) -> None:
    """Dump a dense complex matrix as ``i,j,re,im`` triplets, 0-based indices."""
    rows = (
        (str(i), str(j), fmt(v.real), fmt(v.imag))
        for i, row in enumerate(np.asarray(mat).tolist())
        for j, v in enumerate(row)
    )
    write_rows(path, "i,j,re,im", rows)


def read_coefficient(path):
    """Read an ``x,re,im`` coefficient table; returns (x, complex values)."""
    xs, vals = [], []
    with open(path, encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != "x,re,im":
            raise ValueError(f"unexpected coefficient CSV header: {header!r}")
        for line in fh:
            if not line.strip():
                continue
            a, b, c = line.split(",")
            xs.append(float(a))
            vals.append(complex(float(b), float(c)))
    return np.asarray(xs), np.asarray(vals, dtype=complex)


def write_kernel(path, grid: np.ndarray, values: np.ndarray) -> None:
    """Dump a two-point kernel table as ``x,xp,re,im`` rows."""
    xs = [fmt(x) for x in grid]
    rows = (
        (xs[i], xs[j], fmt(v.real), fmt(v.imag))
        for i, row in enumerate(np.asarray(values, dtype=complex).tolist())
        for j, v in enumerate(row)
    )
    write_rows(path, "x,xp,re,im", rows)


def write_manifest(path, entries: dict) -> None:
    """Write a ``key = value`` manifest; floats get the shared format."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for key, value in entries.items():
            if isinstance(value, float):
                value = fmt(value)
            fh.write(f"{key} = {value}\n")
