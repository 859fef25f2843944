"""CSV import/export shared by all modules; the one owner of the output format.

Every cell of a table and every manifest value is written by one rule,
``_fmt``: a float with 17 significant digits, a list or tuple as its cells
joined by commas, anything else with ``str``.  Callers pass values, so
identical runs produce byte-identical files.
"""

from __future__ import annotations

import numpy as np

__all__ = ["write_rows", "write_matrix", "read_coefficient", "write_kernel",
           "write_manifest"]


def _fmt(value) -> str:
    """The one cell rule: 17 significant digits for a float, the cells of a
    list or tuple joined by commas, ``str`` for anything else."""
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, (list, tuple)):
        return ",".join(map(_fmt, value))
    return str(value)


def write_rows(path, header: str, rows) -> None:
    """Write rows (iterables of values) under a header line."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(map(_fmt, row)) + "\n")


def _write_table(path, header: str, row_labels, col_labels, values) -> None:
    """Write a 2-D table as one ``row,col,re,im`` line per entry.

    The labels come as text; each line is one ``%.17g`` template, which
    writes a float as ``_fmt`` does, so no entry costs a call of its own.
    """
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(header + "\n")
        for a, row in zip(row_labels,
                          np.asarray(values, dtype=complex).tolist()):
            fh.write("".join(["%s,%s,%.17g,%.17g\n" % (a, b, v.real, v.imag)
                              for b, v in zip(col_labels, row)]))


def write_matrix(path, mat: np.ndarray) -> None:
    """Dump a dense complex matrix as ``i,j,re,im`` triplets, 0-based indices."""
    rows, cols = np.shape(mat)
    _write_table(path, "i,j,re,im", list(map(str, range(rows))),
                 list(map(str, range(cols))), mat)


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
    xs = [_fmt(x) for x in grid]
    _write_table(path, "x,xp,re,im", xs, xs, values)


def write_manifest(path, entries: dict) -> None:
    """Write a ``key = value`` manifest, each value by the cell rule."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for key, value in entries.items():
            fh.write(f"{key} = {_fmt(value)}\n")
