"""Dense complex matrix functions: resolvents, square roots, fractional powers
and the power iteration for operator norms.

Verdicts take their powers from ``domains.matrix_power`` and their inverse
half powers from ``kato._InvSqrtShifted``; on dense non-Hermitian input both
take one complex Schur form and root its triangular factor with
``_principal_sqrt``.  Every computed square root passes the one residual
rule ``_require_root``.  The Denman-Beavers ``sqrt_db`` is left only to the
determinant-trace identity and to the tests, as an independent root.
``frac_power_quad`` is the independent reference that criterion 3 and the
tests compare against.  It uses the classical integral representation

    H^alpha = sin(pi alpha)/pi * int_0^inf t^(alpha-1) H (H + t)^(-1) dt

evaluated with a split Gauss-Legendre rule: the axis is split at t = 1, the
upper half mapped back to (0, 1) by t -> 1/t, a further square-root
substitution applied on both halves to soften the endpoint power, and each
half covered by geometrically graded composite panels.  Square roots are
always taken on the principal branch with cut (-inf, 0]; operators get
shifted into the right half-plane before rooting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from numpy.polynomial.legendre import leggauss

__all__ = [
    "QuadratureSpec",
    "SpectrumOnCutError",
    "resolvent",
    "sqrt_db",
    "frac_power_quad",
    "check_power_laws",
    "trace_det_check",
    "spectral_norm",
    "power_norms",
    "power_start",
    "gauss_panels",
    "is_hermitian",
]


class SpectrumOnCutError(ValueError):
    """Raised when an eigenvalue sits on the branch cut (-inf, 0]."""


class ResolventError(np.linalg.LinAlgError):
    """Raised when a shifted matrix is (numerically) singular."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Split-Gauss rule parameters: composite panels per half-axis.

    ``panels`` Gauss-Legendre panels of ``panel_nodes`` points each cover
    (0, 1], graded geometrically toward 0 by a factor of 10 per panel so
    that the substituted endpoint powers are resolved.  ``n_nodes`` is the
    per-half total.
    """

    panel_nodes: int = 25
    panels: int = 8

    def __post_init__(self):
        if self.n_nodes < 8:
            raise ValueError("need at least 8 quadrature nodes")
        if self.panels < 1:
            raise ValueError("invalid panel layout")

    @property
    def n_nodes(self) -> int:
        return self.panel_nodes * self.panels

    def unit_edges(self) -> np.ndarray:
        """Panel edges on [0, 1], geometric toward 0."""
        edges = 10.0 ** (-np.arange(self.panels - 1, -1, -1.0))
        return np.concatenate(([0.0], edges))


def gauss_panels(edges: np.ndarray, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes/weights over consecutive panels."""
    x, w = leggauss(n_nodes)
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        nodes.append(0.5 * (hi - lo) * x + 0.5 * (hi + lo))
        weights.append(0.5 * (hi - lo) * w)
    return np.concatenate(nodes), np.concatenate(weights)


def is_hermitian(H: np.ndarray) -> bool:
    """Hermitian to 1e-12 relative in the Frobenius norm."""
    return np.linalg.norm(H - H.conj().T) <= 1e-12 * max(1.0, np.linalg.norm(H))


def resolvent(H: np.ndarray, z: complex) -> np.ndarray:
    """Solve ``(H - z) R = I`` densely and verify the residual.

    Raises ``ResolventError`` if the shifted matrix is singular, reporting
    ``z`` as (numerically) in the spectrum, or if the residual is not finite.
    """
    H = np.asarray(H, dtype=complex)
    n = H.shape[0]
    A = H - z * np.eye(n)
    try:
        R = np.linalg.solve(A, np.eye(n, dtype=complex))
    except np.linalg.LinAlgError as exc:
        raise ResolventError(f"z = {z} lies in the spectrum") from exc
    cond_est = np.linalg.norm(A) * np.linalg.norm(R)
    residual = np.linalg.norm(A @ R - np.eye(n))
    if not residual <= 1e-10 * max(1.0, cond_est):  # NaN fails too
        raise ResolventError(
            f"resolvent residual {residual:.2e} exceeds tolerance at z = {z}")
    return R


def _require_off_cut(evals: np.ndarray) -> None:
    """Raise ``SpectrumOnCutError`` if any of ``evals`` lies on (-inf, 0]
    or is not finite."""
    evals = np.asarray(evals)
    tol = 1e-12 * (np.abs(evals) + 1.0)
    on_cut = ~np.isfinite(evals) | ((evals.real <= tol)
                                    & (np.abs(evals.imag) <= tol))
    if np.any(on_cut):
        raise SpectrumOnCutError(
            f"eigenvalue(s) on (-inf, 0]: {evals[on_cut][:3]}")


def _require_root(R: np.ndarray, T: np.ndarray) -> None:
    """Raise ``SpectrumOnCutError`` unless ``||R^2 - T||_F <= 1e-10 ||T||_F``
    for the matrix, or for each matrix of a stack along the leading axis
    (a NaN residual fails)."""
    res = np.linalg.norm(R @ R - T, axis=(-2, -1))
    if not np.all(res <= 1e-10 * np.maximum(np.linalg.norm(T, axis=(-2, -1)),
                                            1e-300)):
        raise SpectrumOnCutError("square-root residual above tolerance")


def _principal_sqrt(T: np.ndarray) -> np.ndarray:
    """Principal square root of a matrix, or of a stack of matrices, by the
    Schur method of ``scipy.linalg.sqrtm`` (Bjorck-Hammarling; Deadman,
    Higham & Ralha 2013), checked by ``_require_root``.

    On upper-triangular input no Schur step is taken.  The caller guards
    the cut: ``sqrtm`` returns a root of a matrix with eigenvalues on
    (-inf, 0] without complaint.
    """
    R = sla.sqrtm(T)
    _require_root(R, T)
    return R


def sqrt_db(X: np.ndarray) -> np.ndarray:
    """Principal matrix square root by the scaled Denman-Beavers iteration.

    Used by the determinant-trace identity (``trace_det_check``) and by the
    tests as a root independent of the Schur method.  The iterate pair is
    rescaled each step by the determinant magnitude, which keeps convergence
    uniform across badly scaled inputs.  The result passes
    ``_require_root`` or an exception is raised.
    """
    X = np.asarray(X, dtype=complex)
    n = X.shape[0]
    _require_off_cut(np.linalg.eigvals(X))
    Y = X.copy()
    Z = np.eye(n, dtype=complex)
    for _ in range(100):
        # determinant-magnitude scaling; slogdet avoids overflow
        ld = np.linalg.slogdet(Y)[1] + np.linalg.slogdet(Z)[1]
        mu = np.exp(-ld / (2 * n))
        Yn = 0.5 * (mu * Y + np.linalg.inv(Z) / mu)
        Zn = 0.5 * (mu * Z + np.linalg.inv(Y) / mu)
        delta = np.linalg.norm(Yn - Y)
        Y, Z = Yn, Zn
        if delta <= 1e-13 * max(1.0, np.linalg.norm(Y)):
            break
    else:
        raise SpectrumOnCutError("square-root iteration did not converge")
    _require_root(Y, X)
    return Y


def frac_power_quad(H: np.ndarray, alpha: float,
                    quad: QuadratureSpec | None = None) -> np.ndarray:
    """Fractional power ``H^alpha`` for ``alpha`` in (0, 1) by quadrature.

    ``H`` must be accretive enough that ``H + t`` is nonsingular for every
    positive node; nodes are solved independently and accumulated in a fixed
    order so results are reproducible bit-for-bit for a given spec.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    quad = quad or QuadratureSpec()
    H = np.asarray(H, dtype=complex)
    n = H.shape[0]
    I = np.eye(n, dtype=complex)
    u, w = gauss_panels(quad.unit_edges(), quad.panel_nodes)
    acc = np.zeros((n, n), dtype=complex)
    for ui, wi in zip(u, w):
        # lower half after t = u^2
        try:
            acc += wi * 2.0 * ui ** (2 * alpha - 1) * np.linalg.solve(
                H + ui * ui * I, H)
            # upper half after t = 1/u^2
            acc += wi * 2.0 * ui ** (1 - 2 * alpha) * np.linalg.solve(
                ui * ui * H + I, H)
        except np.linalg.LinAlgError as exc:
            raise ResolventError(
                f"resolvent failure at quadrature node u = {ui}") from exc
    return np.sin(np.pi * alpha) / np.pi * acc


def check_power_laws(H: np.ndarray, alpha: float, beta: float,
                     quad: QuadratureSpec | None = None) -> tuple[float, float]:
    """Relative residuals of the adjoint and semigroup power identities.

    Returns ``(||(H^a)* - (H*)^a|| / ||H^a||,
    ||H^a H^b - H^(a+b)|| / ||H^(a+b)||)``; both should sit at quadrature
    accuracy for an accretive input.
    """
    if not 0.0 < alpha + beta < 1.0:
        raise ValueError("alpha + beta must lie in (0, 1)")
    Ha = frac_power_quad(H, alpha, quad)
    Hb = frac_power_quad(H, beta, quad) if beta != alpha else Ha
    Hab = frac_power_quad(H, alpha + beta, quad)
    Hstar_a = frac_power_quad(H.conj().T, alpha, quad)
    adj = np.linalg.norm(Ha.conj().T - Hstar_a) / np.linalg.norm(Ha)
    semi = np.linalg.norm(Ha @ Hb - Hab) / np.linalg.norm(Hab)
    return adj, semi


def _log_sym_det(A: np.ndarray, A0: np.ndarray, z: complex) -> complex:
    """log det of the symmetrized quotient at z, principal determination."""
    n = A.shape[0]
    I = np.eye(n, dtype=complex)
    SA = sqrt_db(A - z * I)
    X = SA @ np.linalg.solve(A0 - z * I, SA)
    # branch crossing guard for the determinant log
    _require_off_cut(np.linalg.eigvals(X))
    sign, logabs = np.linalg.slogdet(X)
    return logabs + np.log(sign)


def trace_det_check(A: np.ndarray, A0: np.ndarray, z: complex,
                    h: float) -> float:
    """Residual of the determinant/trace derivative identity at ``z``.

    Approximates ``-d/dz log det((A-z)^{1/2} (A0-z)^{-1} (A-z)^{1/2})`` by a
    central difference with step ``h`` and compares it against
    ``tr((A-z)^{-1} - (A0-z)^{-1})``; the return value decays like O(h^2).
    """
    A = np.asarray(A, dtype=complex)
    A0 = np.asarray(A0, dtype=complex)
    lp = _log_sym_det(A, A0, z + h)
    lm = _log_sym_det(A, A0, z - h)
    # principal-log difference; the imaginary parts are branch-matched
    # because the guard in _log_sym_det keeps both spectra off the cut
    dlog = (lp - lm) / (2.0 * h)
    lhs = -dlog
    rhs = np.trace(resolvent(A, z) - resolvent(A0, z))
    return abs(lhs - rhs)


def power_start(d: int) -> np.ndarray:
    """The seeded unit start vector in ``C^d`` of every power iteration."""
    rng = np.random.default_rng(7)
    x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return x / np.linalg.norm(x)


def power_norms(gram, start: np.ndarray) -> np.ndarray:
    """Largest singular values of many operators by one blocked power iteration.

    This is the package's one power iteration.  Row j of ``start`` is the
    state of operator j: a linear image of its unit start iterate.
    ``gram(X, idx)`` takes the states ``X`` of the operators ``idx`` through
    one step ``x -> M^H M x`` and returns the new states and the norms of the
    new iterates.  Each operator stops on its own once the estimate
    ``sqrt(norm)`` changes by at most 1e-10 relative, after at most 50 steps,
    or at an exact zero.
    """
    count = start.shape[0]
    out = np.zeros(count)
    prev = np.zeros(count)
    active = np.arange(count)
    X = start
    for _ in range(50):
        Y, nrm = gram(X, active)
        est = np.sqrt(nrm)
        stop = (nrm == 0.0) | (np.abs(est - prev)
                               <= 1e-10 * np.maximum(est, 1e-300))
        out[active[stop]] = est[stop]
        go = ~stop
        active, prev = active[go], est[go]
        if not active.size:
            return out
        X = Y[go] / nrm[go, None]
    out[active] = prev
    return out


def spectral_norm(A: np.ndarray) -> float:
    """Largest singular value of one matrix by the package's one power
    iteration, ``power_norms``: the ``power_start`` vector, a 1e-10
    relative stop and at most 50 steps.

    The estimate approaches the norm from below (an inner approximation).
    """
    A = np.asarray(A, dtype=complex)
    if min(A.shape) == 0:
        return 0.0
    def gram(X, idx):
        # rows: (A^H y)^T = conj(conj(y)^T A), so no conjugate of A is formed
        Y = ((X @ A.T).conj() @ A).conj()
        return Y, np.linalg.norm(Y, axis=1)

    return float(power_norms(gram, power_start(A.shape[1])[None, :])[0])
