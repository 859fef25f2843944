"""Explicit relative form-bound constants and pointwise bound verification.

The derived constants follow the chain: sliding unit-window norms of the
lower-order coefficients feed a uniform constant ``C0``, which in turn gives
the cubic-in-1/eps bound

    |q_j(f, f)| <= eps * Re q0(f, f) + M eps^-3 ||f||^2,   0 < eps < eps0,

with ``M = 128 C0^2 (lam^-1 + lam^-3)`` and
``eps0 = min(1, 4 lam^-1 eps_qrs)``.  Both checks take a block of vectors,
one per column; ``checks.form_bound_suite`` reads the verdict from them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import CoefficientSet, FormMatrices, IntervalSpec, Mesh

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


def check_form_bound(F: np.ndarray, forms: FormMatrices,
                     constants: FormBoundConstants, eps_grid):
    """Evaluate both sides of the relative bound for each column of an
    ``n_dof x k`` block of nodal vectors over a grid of ``eps``.

    Returns ``lhs`` (k, 3), the absolute values of the lower-order forms
    j = 1, 2, 3; ``bound`` (k, n_eps), ``eps Re q0 + M eps^-3 ||f||^2``; and
    ``slack`` (k, n_eps, 3), bound minus form value (nonnegative up to
    roundoff whenever the constants come from the same discrete data).  The
    forms are evaluated once, whatever the grid size.
    """
    eps = np.asarray(eps_grid, dtype=float)
    if not np.all((eps > 0.0) & (eps < constants.eps_0)):
        raise ValueError(f"eps must lie in (0, {constants.eps_0})")
    F = np.asarray(F, dtype=complex)
    q0, norm2, *q = (np.einsum("ij,ij->j", F.conj(), K @ F) for K in
                     (forms.K0, forms.M, forms.K1, forms.K2, forms.K3))
    lhs = np.abs(np.stack(q, axis=1))
    bound = (eps * q0.real[:, None]
             + constants.M * eps ** -3 * norm2.real[:, None])
    return lhs, bound, bound[:, :, None] - lhs[:, None, :]


def check_trudinger(G: np.ndarray, w: np.ndarray, mesh: Mesh,
                    eps: float) -> dict:
    """Pointwise and weighted Trudinger-type bounds on a finite interval,
    one value per column of an ``n_nodes x k`` block of nodal values.

    Checks ``|f(x)|^2 <= eps ||f'||^2 + ((b-a)^-1 + eps^-1) ||f||^2`` at
    every node and the weighted variant with ``N_w = ||w||^2``; uses exact
    interpolant integrals so the inequality carries over verbatim.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    G = np.asarray(G, dtype=complex)
    h, length = mesh.h, mesh.b - mesh.a
    grad2 = np.sum(np.abs(np.diff(G, axis=0) / h) ** 2, axis=0) * h
    gl, gr = G[:-1], G[1:]
    # exact cellwise integral of |linear|^2: h/3 (|a|^2 + Re(conj(a) b) + |b|^2)
    norm2 = h / 3.0 * np.sum(np.abs(gl) ** 2 + (np.conj(gl) * gr).real
                             + np.abs(gr) ** 2, axis=0)
    point_bound = eps * grad2 + (1.0 / length + 1.0 / eps) * norm2
    max_f2 = np.max(np.abs(G) ** 2, axis=0)

    w = np.asarray(w, dtype=complex)
    N_w = float(np.sum(np.abs(w) ** 2) * h)  # cell-midpoint samples
    wf2 = np.sum(np.abs(w[:, None] * (0.5 * (gl + gr))) ** 2, axis=0) * h
    return {"max_f2": max_f2, "point_bound": point_bound,
            "point_slack": point_bound - max_f2,
            "weighted_slack": point_bound * N_w - wf2}
