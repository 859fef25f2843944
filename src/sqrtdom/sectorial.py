"""Numerical-range and resolvent diagnostics for accretivity and sectoriality.

``check_m_accretive`` and ``safe_shift`` take an operator only as its
diagonals ``(lo, d, up)``; ``numerical_range_hull`` takes a dense matrix,
which its caller forms (``assembly.orthonormalize(prob.forms)``): a
``Problem`` holds none.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .matfun import _band_storage, resolvent

__all__ = [
    "SectorReport",
    "numerical_range_hull",
    "check_m_accretive",
    "safe_shift",
]


@dataclass
class SectorReport:
    """Fitted sector of the numerical range's support points: vertex
    ``gamma`` and semi-angle ``theta``.  ``boundary`` holds the support point
    of each angle of ``angles``; every one lies inside the reported sector
    by construction of the fit.
    """

    gamma: float
    theta: float
    angles: np.ndarray = field(repr=False)
    boundary: np.ndarray = field(repr=False)


def _hermitian_part(H: np.ndarray) -> np.ndarray:
    return 0.5 * (H + H.conj().T)


def numerical_range_hull(H: np.ndarray) -> SectorReport:
    """Fit a sector around the support points of the numerical range.

    The support points come from the support-function sweep: extreme
    eigenvectors of the Hermitian part of ``e^{i phi} H`` over 64 equally
    spaced angles.  They lie on the boundary of the numerical range, so
    their hull is an inner approximation of the range.  The fitted vertex
    is the leftmost support point's real part, retreated by the imaginary
    spread of the leftmost face when that face is not real (the tightest
    shift-covariant choice that still yields a proper sector).
    """
    H = np.asarray(H, dtype=complex)
    pts = []
    phis = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    for phi in phis:
        Hp = _hermitian_part(np.exp(1j * phi) * H)
        _, vecs = np.linalg.eigh(Hp)
        v = vecs[:, -1]
        pts.append(np.vdot(v, H @ v) / np.vdot(v, v))
    pts = np.asarray(pts)

    scale = max(float(np.abs(pts).max()), 1e-300)
    tol = 1e-12 * scale
    leftmost = float(pts.real.min())
    rel = pts.real - leftmost
    degenerate = (rel <= tol) & (np.abs(pts.imag) > tol)
    if np.any(degenerate):
        # the leftmost face carries imaginary mass: no proper sector has its
        # vertex there, so retreat by that spread (a shift-covariant amount)
        gamma = leftmost - float(np.abs(pts.imag[degenerate]).max())
    else:
        gamma = leftmost
    rel = pts.real - gamma
    ok = rel > tol
    theta = float(np.max(np.arctan2(np.abs(pts.imag[ok]), rel[ok]))) if np.any(ok) else 0.0
    return SectorReport(gamma=gamma, theta=theta, angles=phis, boundary=pts)


def check_m_accretive(band: tuple, zeta_grid) -> tuple[bool, float]:
    """Verify the resolvent bound ``||(H + z)^{-1}|| <= 1 / Re z``.

    ``band`` holds the diagonals ``(lo, d, up)`` of the tridiagonal H, as
    ``resolvent`` takes them.  Returns the verdict together with the worst
    observed value of ``||(H + z)^{-1}|| * Re z`` over the grid (at most 1
    for an m-accretive matrix, up to roundoff).
    """
    worst = 0.0
    for zeta in zeta_grid:
        zeta = complex(zeta)
        if zeta.real <= 0:
            raise ValueError("grid points need Re(zeta) > 0")
        R = resolvent(band, -zeta)
        worst = max(worst, np.linalg.norm(R, 2) * zeta.real)
    return bool(worst <= 1.0 + 1e-10), float(worst)


def safe_shift(band: tuple) -> float:
    """Shift pushing the numerical range into the open right half-plane.

    Uses the vertex of the Hermitian part, its lowest eigenvalue, plus a
    unit margin, so ``H + E`` is strictly accretive and principal square
    roots stay off the cut.  ``band`` holds the diagonals ``(lo, d, up)``
    of the tridiagonal H, and the Hermitian part shares its (1, 1) band.
    The eigenvalue comes from the lower band storage through LAPACK's
    banded Hermitian eigensolver, in O(n).
    """
    band = tuple(np.asarray(x, dtype=complex) for x in band)
    # lower band storage of the Hermitian part (H + H^H)/2; the transpose
    # of diagonals (lo, d, up) has the diagonals (up, d, lo)
    lower = 0.5 * (_band_storage(band, 1, 0)
                   + _band_storage(band[::-1], 1, 0).conj())
    gamma = float(sla.eigvals_banded(lower, lower=True, select="i",
                                     select_range=(0, 0))[0])
    return max(0.0, -gamma) + 1.0
