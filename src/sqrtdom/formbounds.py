"""Explicit relative form-bound constants and pointwise bound verification.

The derived constants follow the chain: sliding unit-window norms of the
lower-order coefficients feed a uniform constant ``C0``, which in turn gives
the cubic-in-1/eps bound

    |q_j(f, f)| <= eps * Re q0(f, f) + M eps^-3 ||f||^2,   0 < eps < eps0,

with ``M = 128 C0^2 (lam^-1 + lam^-3)`` and
``eps0 = min(1, 4 lam^-1 eps_qrs)``.  Both checks return worst-case ratios
over all f, left side over right side, from the Grams of the two sides;
``checks.form_bound_suite`` reads the verdict from them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .assembly import (CoefficientSet, FormMatrices, IntervalSpec, Mesh,
                       _cell_sum, _dense)

__all__ = [
    "FormBoundConstants",
    "locunif_norms",
    "check_form_bound",
    "check_trudinger",
]


@dataclass(frozen=True)
class FormBoundConstants:
    """Window norms and the derived bound constants for one coefficient set."""

    C_q: float
    C_r: float
    C_s: float
    C_0: float
    eps_qrs: float
    M: float
    eps_0: float

    @classmethod
    def from_window_norms(cls, C_q: float, C_r: float, C_s: float,
                          lam: float) -> "FormBoundConstants":
        C_0 = np.sqrt(2.0) * max(1.0, C_r, C_s, np.sqrt(2.0) * C_q ** 2)
        # zero coefficients impose no eps restriction of their own
        candidates = [v for v in (np.sqrt(C_r), np.sqrt(C_s), C_q) if v > 0]
        eps_qrs = min(candidates) if candidates else np.inf
        M = 128.0 * C_0 ** 2 * (1.0 / lam + 1.0 / lam ** 3)
        eps_0 = min(1.0, 4.0 / lam * eps_qrs)
        return cls(C_q=C_q, C_r=C_r, C_s=C_s, C_0=float(C_0),
                   eps_qrs=float(eps_qrs), M=float(M), eps_0=float(eps_0))


def _window_sup(mesh: Mesh, values: np.ndarray, width: float) -> float:
    """Sliding-window supremum of the per-cell integral, window starts on nodes.

    Evaluated at mesh-node window starts, so the result is a lower bound of
    the true supremum; falls back to the whole-domain integral if the window
    does not fit.
    """
    h = mesh.h
    cell = values * h  # per-cell contributions, midpoint rule
    if width >= mesh.b - mesh.a:
        return float(np.sum(cell))
    per_window = max(1, int(round(width / h)))
    csum = np.concatenate(([0.0], np.cumsum(cell)))
    n = mesh.n_cells
    sums = csum[per_window:] - csum[: n - per_window + 1]
    return float(np.max(sums))


def locunif_norms(coeffs: CoefficientSet, interval: IntervalSpec,
                  mesh: Mesh) -> FormBoundConstants:
    """Unit-window norms of ``|q|``, ``|r|^2``, ``|s|^2`` and derived constants.

    On the (truncated) line the supremum slides a unit window across the
    mesh; on a finite interval the whole-domain norms are used instead.
    """
    width = 1.0 if interval.kind != "finite" else np.inf
    C_q = _window_sup(mesh, np.abs(coeffs.q), width)
    C_r = _window_sup(mesh, np.abs(coeffs.r) ** 2, width)
    C_s = _window_sup(mesh, np.abs(coeffs.s) ** 2, width)
    return FormBoundConstants.from_window_norms(C_q, C_r, C_s, coeffs.lam)


def check_form_bound(forms: FormMatrices, constants: FormBoundConstants,
                     eps_grid) -> np.ndarray:
    """Upper estimates, shape (n_eps, 3), of the relative bound's worst ratio
    ``sup_f |q_j(f, f)| / (eps Re q0(f, f) + M eps^-3 ||f||^2)``, j = 1, 2, 3.

    One generalized eigendecomposition ``V^H M V = I``, ``V^H Re K0 V =
    diag(mu)`` turns the right side into ``diag(eps mu + M eps^-3)`` at every
    eps; with ``D = diag(d)``, ``d^2`` its inverse, and ``S_j = V^H K_j V``,
    the ratio is the numerical radius of ``D S_j D``, and its Frobenius norm
    ``sqrt((d^2)^T |S_j|^2 d^2)`` bounds that from above, so the estimate
    can only lean toward FAIL.
    """
    eps = np.asarray(eps_grid, dtype=float)
    if not np.all((eps > 0.0) & (eps < constants.eps_0)):
        raise ValueError(f"eps must lie in (0, {constants.eps_0})")
    # K0 is complex symmetric, so its Hermitian part is its real part
    mu, V = sla.eigh(*(_dense(tuple(x.real for x in S))
                       for S in (forms.K0, forms.M)))
    d2 = 1.0 / (eps[:, None] * mu + constants.M * eps[:, None] ** -3)
    # dense products: V is dense, and a sparse one would sum in another order
    squares = [np.sum(d2 @ np.abs(V.T @ _dense(K) @ V) ** 2 * d2, axis=1)
               for K in (forms.K1, forms.K2, forms.K3)]
    return np.sqrt(np.stack(squares, axis=1))


def _trace_gram(mesh: Mesh, eps: float) -> tuple:
    """The Gram on all nodes of the pointwise bound's right side, ``eps K +
    ((b-a)^-1 + eps^-1) M`` with the unit stiffness K and the consistent
    mass M, the exact integrals of the nodal interpolant, as its
    diagonals."""
    h, c = mesh.h, 1.0 / (mesh.b - mesh.a) + 1.0 / eps
    diag, off = (np.full(mesh.n_cells, v)
                 for v in (eps / h + c * h / 3.0, c * h / 6.0 - eps / h))
    return _cell_sum(diag, off, off, diag)


def check_trudinger(w: np.ndarray, mesh: Mesh, eps: float) -> dict:
    """Worst ratios of the pointwise bound ``|f(x)|^2 <= eps ||f'||^2 +
    ((b-a)^-1 + eps^-1) ||f||^2`` and of its variant weighted by ``w``,
    ``||w f||^2 <= N_w (...)`` with ``N_w = ||w||^2``, over all nodal f.

    ``point_ratio`` is exact: ``f = Q^-1 e_i`` attains ``(Q^-1)_ii`` for
    the right side's Gram ``Q``, and ``|f|^2`` of a piecewise-linear f peaks
    at a node.  ``weighted_ratio`` is ``lambda_max(W, Q) / N_w`` for the
    cell-midpoint Gram ``W`` of ``||w f||^2``, and 0 when ``w`` vanishes.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    Qinv = np.linalg.inv(_dense(_trace_gram(mesh, eps)))
    weight = np.abs(np.asarray(w)) * np.sqrt(mesh.h)  # N_w = ||weight||^2
    N_w = float(weight @ weight)
    # lambda_max(W, Q) is that of B Q^-1 B^T for W = B^T B, where B scales
    # the midpoint average A by the weight
    mid = 0.25 * (Qinv[:-1, :-1] + Qinv[1:, :-1] + Qinv[:-1, 1:]
                  + Qinv[1:, 1:])  # A Q^-1 A^T
    weighted = (np.linalg.eigvalsh(weight[:, None] * mid * weight)[-1] / N_w
                if N_w > 0 else 0.0)
    return {"point_ratio": float(np.max(np.diag(Qinv))),
            "weighted_ratio": float(weighted)}
