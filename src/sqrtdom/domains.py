"""Square-root-domain equivalence ratios, the critical-power dichotomy and
the shift decay of multipliers against the inverse half power.

Domain equality statements are rendered finitely as two-sided norm
equivalence: the ratio ``kappa = max/min`` of ``||(H + E)^alpha f||`` against
``||(H_ref + E)^alpha f||`` with ``H_ref`` the problem's self-adjoint
reference operator; at alpha = 1/2 the reference norm is the E-scaled
W^{1,2} norm.  ``refinement_study`` takes the operator at each mesh level:
any ``Problem``, or the upwind first-derivative control, which is referred
to its adjoint.  ``_kappa_row`` builds the Gram matrices of the two norms,
and ``sqrt_domain_kappa`` maximizes the ratio exactly through their
generalized Hermitian eigenproblem.  A problem passes when ``kappa`` stays
bounded under mesh refinement; the control's critical-power ratio keeps
growing.

Every fractional power goes through ``matrix_power``, whose three routes are
all exact to roundoff: eigendecomposition for Hermitian input, the
terminating binomial series for the negative control (a lower-bidiagonal
Toeplitz matrix), and one complex Schur form for any other input, whose
triangular factor is rooted k times at alpha = 2^-k and raised by Schur-Pade
otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .kato import _InvSqrtShifted
from .matfun import _principal_sqrt, _require_off_cut, is_hermitian
from .problems import lions_operator

__all__ = [
    "DomainEquivalenceReport",
    "matrix_power",
    "sqrt_domain_kappa",
    "refinement_study",
    "thmA1_decay",
]


def _bidiagonal_toeplitz(H: np.ndarray) -> tuple[complex, complex] | None:
    """(diagonal, subdiagonal) values of a lower-bidiagonal Toeplitz matrix,
    or None for any other input."""
    if H.shape[0] < 2:
        return None
    diag, sub = np.diag(H), np.diag(H, -1)
    if (np.any(diag != diag[0]) or np.any(sub != sub[0])
            or np.count_nonzero(H) != np.count_nonzero(diag)
            + np.count_nonzero(sub)):
        return None
    return complex(diag[0]), complex(sub[0])


def _toeplitz_power(lam: complex, mu: complex, n: int,
                    alpha: float) -> np.ndarray:
    """``(lam I + mu S)^alpha`` for the n x n down-shift S, exactly.

    ``mu S`` is nilpotent, so the binomial series of the single Jordan
    block terminates (Higham, Functions of Matrices, 2008, sec. 1.2): the
    power is lower-triangular Toeplitz with first column
    ``c_k = binom(alpha, k) lam^(alpha - k) mu^k``, built by the recurrence
    ``c_k = c_{k-1} (alpha - k + 1) / k * (mu / lam)``.
    """
    _require_off_cut([lam])
    k = np.arange(1, n)
    steps = np.concatenate(([lam ** alpha], (alpha - k + 1) / k * (mu / lam)))
    return sla.toeplitz(np.cumprod(steps), np.zeros(n))


def matrix_power(H: np.ndarray, alpha: float) -> np.ndarray:
    """Fractional power ``H^alpha``; the one place a route is chosen.

    Non-Hermitian, non-Toeplitz input is factored once as ``Q U Q^H``
    (complex Schur) and ``diag(U)`` is checked to avoid the cut (-inf, 0].
    At ``alpha = 2^-k`` the triangular ``U`` is rooted k times
    (``matfun._principal_sqrt``, each root residual-checked); any other
    alpha raises ``U`` by the Schur-Pade algorithm (Higham & Lin, SIAM J.
    Matrix Anal. Appl. 32, 2011), which takes no second Schur step on
    triangular input.  The triangular power ``R`` returns as ``Q R Q^H``.
    """
    H = np.asarray(H, dtype=complex)
    n = H.shape[0]
    if is_hermitian(H):
        evals, evecs = np.linalg.eigh(0.5 * (H + H.conj().T))
        if evals.min() < -1e-10 * max(1.0, abs(evals.max())):
            raise ValueError("Hermitian power path needs a nonnegative matrix")
        evals = np.clip(evals, 0.0, None)
        return (evecs * evals[None, :] ** alpha) @ evecs.conj().T
    if (band := _bidiagonal_toeplitz(H)) is not None:
        return _toeplitz_power(*band, n, alpha)
    U, Q = sla.schur(H, output="complex")
    _require_off_cut(np.diag(U))
    roots = -np.log2(alpha)
    if roots == int(roots):
        for _ in range(int(roots)):
            U = _principal_sqrt(U)
    else:
        U = sla.fractional_matrix_power(U, alpha)
    return Q @ U @ Q.conj().T


def _power_gram(H: np.ndarray, E: float, alpha: float) -> np.ndarray:
    """``X^H X`` for ``X = (H + E)^alpha``.

    For Hermitian input at the critical power the Gram is the shifted
    matrix itself, exactly; no root is formed.
    """
    shifted = H + E * np.eye(H.shape[0])
    if alpha == 0.5 and is_hermitian(shifted):
        return shifted
    X = matrix_power(shifted, alpha)
    return X.conj().T @ X


def sqrt_domain_kappa(P: np.ndarray, Q: np.ndarray) -> dict:
    """Equivalence ratio of the power norm against a reference norm.

    ``P`` and ``Q`` are the Gram matrices of the two norms in orthonormal
    coordinates; only their Hermitian parts are read.  The extremal ratios
    over all vectors are exact: the square roots of the extreme generalized
    eigenvalues of the pencil.
    """
    P = 0.5 * (P + P.conj().T)
    Q = 0.5 * (Q + Q.conj().T)
    # equilibrated pencil through the difference P - Q: a diagonal
    # congruence leaves the generalized eigenvalues unchanged, and the
    # difference form keeps coincident Grams at ratio exactly one instead
    # of cond(Q)-scaled roundoff
    d = 1.0 / np.sqrt(np.abs(np.diag(Q)))
    Pe = d[:, None] * P * d[None, :]
    Qe = d[:, None] * Q * d[None, :]
    try:
        L = np.linalg.cholesky(Qe)
    except np.linalg.LinAlgError as exc:
        raise ValueError("reference Gram is not positive definite") from exc
    S = sla.solve_triangular(L, Pe - Qe, lower=True)
    S = sla.solve_triangular(L, S.conj().T, lower=True).conj().T
    evals = 1.0 + np.linalg.eigvalsh(0.5 * (S + S.conj().T))
    if evals[0] <= 0:
        raise ValueError("power Gram lost positivity (shift too small?)")
    min_ratio, max_ratio = float(np.sqrt(evals[0])), float(np.sqrt(evals[-1]))
    return {"min_ratio": min_ratio, "max_ratio": max_ratio,
            "kappa": max_ratio / min_ratio}


@dataclass
class DomainEquivalenceReport:
    """Refinement table of equivalence ratios with a boundedness verdict."""

    rows: list
    growth: float
    threshold: float
    verdict: str
    calibration: dict


def _kappa_row(operator_at, n: int, E: float, alpha: float) -> dict:
    """Level ``n`` of a study: the power Gram ``P`` of ``operator_at(n)``
    against the reference Gram ``Q``, compared by ``sqrt_domain_kappa``.

    The lions control (its matrix freed before the power is taken) is
    referred to its adjoint, whose power is the power's adjoint; a
    ``Problem`` to the same power of its self-adjoint reference operator,
    whose Gram at the critical power is ``H_ref + E``, the E-scaled Sobolev
    Gram in orthonormal coordinates."""
    if operator_at is lions_operator:
        X = matrix_power(lions_operator(n) + E * np.eye(n), alpha)
        P, Q = X.conj().T @ X, X @ X.conj().T
    else:
        prob = operator_at(n)
        P = _power_gram(prob.H, E, alpha)
        Q = _power_gram(prob.reference_operator(), E, alpha)
    return {"n": n, "E": float(E), "alpha": float(alpha),
            **sqrt_domain_kappa(P, Q)}


def _growth(rows: list) -> float:
    """Last ratio over the smallest: a drop on coarse meshes cannot hide
    later growth."""
    return rows[-1]["kappa"] / min(row["kappa"] for row in rows)


def refinement_study(operator_at, n_list, E: float, alpha: float,
                     growth_threshold: float | None
                     ) -> DomainEquivalenceReport:
    """Track the equivalence ratio under refinement and judge boundedness.

    ``operator_at(n)`` is the ``Problem`` at mesh level ``n``, or
    ``operator_at`` is ``lions_operator`` itself for the control.  With no
    explicit threshold the run calibrates itself: the control is evaluated
    at the critical power and at 1/4 on the same mesh ladder, and the
    ceiling is the geometric mean of the two growth ratios, which cleanly
    separates convergent ratios from critical-power growth.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    n_list = sorted(int(n) for n in n_list)
    if len(n_list) < 2:
        raise ValueError("need at least two refinement levels")
    rows = [_kappa_row(operator_at, n, E, alpha) for n in n_list]
    growth = _growth(rows)

    calibration = {}
    if growth_threshold is None:
        # the control's own sweep at a calibration power is not repeated
        ref = {alpha: rows} if operator_at is lions_operator else {}
        for al in (0.25, 0.5):
            if al not in ref:
                ref[al] = [_kappa_row(lions_operator, n, E, al)
                           for n in n_list]
        g_low, g_high = _growth(ref[0.25]), _growth(ref[0.5])
        growth_threshold = float(np.sqrt(g_low * g_high))
        calibration = {"lions_growth_quarter": float(g_low),
                       "lions_growth_half": float(g_high)}

    verdict = "bounded" if growth <= growth_threshold else "divergent"
    return DomainEquivalenceReport(rows=rows, growth=float(growth),
                                   threshold=float(growth_threshold),
                                   verdict=verdict, calibration=calibration)


def thmA1_decay(phi: np.ndarray, halver: _InvSqrtShifted, E_grid) -> dict:
    """Shift decay of a diagonal multiplier against the inverse half power.

    ``halver`` is ``_InvSqrtShifted(L)`` of the operator ``L``, one
    factorization that the multipliers of a study share, and ``phi`` holds
    the multiplier samples on its degrees of freedom.  The profile
    ``||diag(phi) (L + E)^{-1/2}||`` is recorded over the grid with its
    fitted log-log slope (the continuum envelope decays at least like the
    quarter power for admissible multipliers).
    """
    phi = np.asarray(phi, dtype=complex)
    if phi.shape[0] != halver.basis.shape[0]:
        raise ValueError("multiplier samples must match the DOF count")
    E_arr = np.asarray(list(E_grid), dtype=float)
    norms = halver.norms(E_arr, np.diag(phi))[0]
    if np.all(norms == 0.0):
        slope = 0.0
    else:
        slope = float(np.polyfit(np.log(E_arr), np.log(norms), 1)[0])
    return {"E": E_arr, "norms": norms, "slope": slope}
