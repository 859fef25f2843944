"""Numerical-range and resolvent diagnostics for accretivity and sectoriality."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matfun import _require_off_cut, resolvent

__all__ = [
    "SectorReport",
    "numerical_range_hull",
    "check_m_accretive",
    "sector_diagnostics",
    "safe_shift",
]

_HALF_PI = np.pi / 2


@dataclass
class SectorReport:
    """Fitted sector of the sampled numerical range.

    ``accretive`` is True when the samples fit a proper sector in the closed
    right half-plane: vertex ``gamma >= 0`` (within roundoff) and semi-angle
    strictly below pi/2.  Points are guaranteed to lie inside the reported
    sector by construction of the fit.
    """

    gamma: float
    theta: float
    accretive: bool
    points: np.ndarray = field(repr=False, default=None)
    angles: np.ndarray = field(repr=False, default=None)
    boundary: np.ndarray = field(repr=False, default=None)


def _hermitian_part(H: np.ndarray) -> np.ndarray:
    return 0.5 * (H + H.conj().T)


def numerical_range_hull(H: np.ndarray, n_samples: int = 256,
                         seed: int = 0) -> SectorReport:
    """Sample the numerical range and fit a containing sector.

    Boundary points come from the support-function sweep (extreme
    eigenvectors of the Hermitian part of ``e^{i phi} H`` over 64 equally
    spaced angles); interior points from seeded random unit states.  The
    sampled range is an inner approximation of the true one; the fitted
    vertex is the leftmost sampled real part, retreated by the imaginary
    spread of the leftmost face when that face is not real (the tightest
    shift-covariant choice that still yields a proper sector).
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    H = np.asarray(H, dtype=complex)
    n = H.shape[0]
    pts = []
    phis = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    for phi in phis:
        Hp = _hermitian_part(np.exp(1j * phi) * H)
        _, vecs = np.linalg.eigh(Hp)
        v = vecs[:, -1]
        pts.append(np.vdot(v, H @ v) / np.vdot(v, v))
    boundary = np.asarray(pts)
    rng = np.random.default_rng(seed)
    states = rng.standard_normal((n_samples, n)) + 1j * rng.standard_normal((n_samples, n))
    for k in range(n_samples):
        v = states[k]
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
    accretive = gamma >= -tol and theta < _HALF_PI - 1e-12
    return SectorReport(gamma=gamma, theta=theta, accretive=accretive,
                        points=pts, angles=phis, boundary=boundary)


def check_m_accretive(H: np.ndarray, zeta_grid) -> tuple[bool, float]:
    """Verify the resolvent bound ``||(H + z)^{-1}|| <= 1 / Re z``.

    Returns the verdict together with the worst observed value of
    ``||(H + z)^{-1}|| * Re z`` over the grid (at most 1 for an m-accretive
    matrix, up to roundoff).
    """
    H = np.asarray(H, dtype=complex)
    worst = 0.0
    for zeta in zeta_grid:
        zeta = complex(zeta)
        if zeta.real <= 0:
            raise ValueError("grid points need Re(zeta) > 0")
        R = resolvent(H, -zeta)
        worst = max(worst, np.linalg.norm(R, 2) * zeta.real)
    return bool(worst <= 1.0 + 1e-10), float(worst)


def sector_diagnostics(H: np.ndarray, t_grid, omega_prime,
                       z_samples) -> tuple[float, dict]:
    """Positive-type and sector-angle constants sampled on grids.

    ``M_A`` approximates ``sup_t (1 + t) ||(H + t)^{-1}||`` over ``t_grid``;
    for each requested angle the second constant approximates
    ``sup ||z (H - z)^{-1}||`` over the samples lying outside the closed
    sector of that angle.  The spectrum must avoid (-inf, 0] and stay inside
    each sector tested, otherwise the blow-up is reported by raising.
    """
    H = np.asarray(H, dtype=complex)
    evals = np.linalg.eigvals(H)
    _require_off_cut(evals)

    M_A = 0.0
    for t in t_grid:
        t = float(t)
        if t < 0:
            raise ValueError("t grid must be nonnegative")
        M_A = max(M_A, (1.0 + t) * np.linalg.norm(resolvent(H, -t), 2))

    angles = np.atleast_1d(np.asarray(omega_prime, dtype=float))
    spec_angle = float(np.max(np.abs(np.angle(evals))))
    M_angle = {}
    for om in angles:
        if not 0.0 < om < np.pi:
            raise ValueError("omega' must lie in (0, pi)")
        if spec_angle > om:
            raise ValueError(
                f"spectrum leaves the sector of angle {om:.4f} "
                f"(spectral angle {spec_angle:.4f}); resolvent blow-up")
        sup = 0.0
        for z in z_samples:
            z = complex(z)
            if z == 0 or abs(np.angle(z)) <= om:
                continue
            sup = max(sup, abs(z) * np.linalg.norm(resolvent(H, z), 2))
        M_angle[float(om)] = float(sup)
    return float(M_A), M_angle


def safe_shift(H: np.ndarray) -> float:
    """Shift pushing the numerical range into the open right half-plane.

    Uses the vertex of the Hermitian part plus a unit margin, so ``H + E``
    is strictly accretive and principal square roots stay off the cut.
    """
    gamma = float(np.linalg.eigvalsh(_hermitian_part(np.asarray(H, dtype=complex)))[0])
    return max(0.0, -gamma) + 1.0
