"""The two CSV table helpers only the tests need: reading back a matrix that
``assemble`` dumped, and writing a coefficient file for ``--coeff-*``."""

import numpy as np

from sqrtdom import csvio


def read_matrix(path) -> np.ndarray:
    """Read an ``i,j,re,im`` triplet file back into a dense complex matrix."""
    ii, jj, re, im = [], [], [], []
    with open(path, encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != "i,j,re,im":
            raise ValueError(f"unexpected matrix CSV header: {header!r}")
        for line in fh:
            if not line.strip():
                continue
            a, b, c, d = line.split(",")
            ii.append(int(a))
            jj.append(int(b))
            re.append(float(c))
            im.append(float(d))
    n = max(ii) + 1 if ii else 0
    m = max(jj) + 1 if jj else 0
    out = np.zeros((n, m), dtype=complex)
    out[ii, jj] = np.asarray(re) + 1j * np.asarray(im)
    return out


def write_coefficient(path, x: np.ndarray, values: np.ndarray) -> None:
    """Dump one sampled coefficient as ``x,re,im`` rows."""
    values = np.asarray(values, dtype=complex)
    csvio.write_rows(path, "x,re,im",
                     ((xi, v.real, v.imag)
                      for xi, v in zip(np.asarray(x), values)))
