"""Square-root-domain equivalence ratios, the critical-power dichotomy and
uniform half-power bounds.

Domain equality statements are rendered finitely as two-sided norm
equivalence: the ratio ``kappa = max/min`` of ``||(H + E)^alpha f||`` against
a reference norm, maximized exactly through the generalized Hermitian
eigenproblem of the two Gram matrices.  A problem passes when ``kappa`` stays
bounded under mesh refinement; the upwind first-derivative operator is the
negative control whose critical-power ratio keeps growing.

Every fractional power goes through ``matrix_power``, whose three routes are
all exact to roundoff: eigendecomposition for Hermitian input, the
terminating binomial series for the negative control (a bidiagonal Toeplitz
matrix), and one complex Schur form for any other input, whose triangular
factor is rooted k times at alpha = 2^-k and raised by Schur-Pade otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .assembly import BoundaryCondition, DiscreteOperator
from .kato import _InvSqrtShifted
from .matfun import _principal_sqrt, _require_off_cut, is_hermitian
from .problems import lions_operator, make_problem

__all__ = [
    "DomainEquivalenceReport",
    "matrix_power",
    "sqrt_domain_kappa",
    "refinement_study",
    "lemma24_bounds",
    "thmA1_decay",
    "KAPPA_PROBLEMS",
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
    if (band := _bidiagonal_toeplitz(H.T)) is not None:
        return _toeplitz_power(*band, n, alpha).T
    U, Q = sla.schur(H, output="complex")
    _require_off_cut(np.diag(U))
    roots = -np.log2(alpha)
    if roots == int(roots):
        for _ in range(int(roots)):
            U = _principal_sqrt(U)
    else:
        U = sla.fractional_matrix_power(U, alpha)
    return Q @ U @ Q.conj().T


def _power_gram(H: np.ndarray, E: float,
                alpha: float) -> tuple[np.ndarray | None, np.ndarray]:
    """(X, X^H X) for ``X = (H + E)^alpha``.

    For Hermitian input at the critical power the Gram is the shifted
    matrix itself, exactly; no root is formed (X is then None).
    """
    shifted = H + E * np.eye(H.shape[0])
    if alpha == 0.5 and is_hermitian(shifted):
        return None, shifted
    X = matrix_power(shifted, alpha)
    return X, X.conj().T @ X


def _kappa_grams(H: DiscreteOperator | np.ndarray, E: float,
                 G_E: np.ndarray | None,
                 H_ref: DiscreteOperator | np.ndarray | None,
                 alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """(P, Q): the Hermitian Grams of the power norm and of the reference
    norm that ``sqrt_domain_kappa`` compares, in orthonormal coordinates."""
    op = H if isinstance(H, DiscreteOperator) else None
    Hm = H.H if op is not None else np.asarray(H, dtype=complex)
    X, P = _power_gram(Hm, E, alpha)

    if G_E is not None:
        if op is None:
            raise ValueError("nodal reference Gram needs a DiscreteOperator")
        winv = 1.0 / np.sqrt(op.forms.lumped_weights)
        Q = winv[:, None] * np.asarray(G_E, dtype=complex) * winv[None, :]
    elif H_ref is not None:
        Hr = H_ref.H if isinstance(H_ref, DiscreteOperator) else np.asarray(H_ref, dtype=complex)
        if np.array_equal(Hr, Hm.conj().T) and X is not None:
            # the adjoint's power is the power's adjoint: reuse X
            Q = X @ X.conj().T
        else:
            _, Q = _power_gram(Hr, E, alpha)
    else:
        raise ValueError("need a reference: G_E or H_ref")
    return 0.5 * (P + P.conj().T), 0.5 * (Q + Q.conj().T)


def sqrt_domain_kappa(H: DiscreteOperator | np.ndarray, E: float,
                      G_E: np.ndarray | None = None,
                      H_ref: DiscreteOperator | np.ndarray | None = None,
                      alpha: float = 0.5) -> dict:
    """Equivalence ratio of the shifted power norm against a reference norm.

    The reference is either the E-scaled first-order Sobolev Gram ``G_E``
    (given in nodal coordinates; the natural choice at the critical power)
    or the matching power of a reference operator ``H_ref``.  The extremal
    ratios over all vectors are exact: the square roots of the extreme
    generalized eigenvalues of the two Grams.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    P, Q = _kappa_grams(H, E, G_E, H_ref, alpha)

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
    return {"E": float(E), "alpha": float(alpha),
            "min_ratio": min_ratio, "max_ratio": max_ratio,
            "kappa": max_ratio / min_ratio, "n_dof": P.shape[0]}


@dataclass
class DomainEquivalenceReport:
    """Refinement table of equivalence ratios with a boundedness verdict."""

    problem: str
    alpha: float
    E: float
    rows: list = field(default_factory=list)
    growth: float = 1.0
    threshold: float = 3.0
    verdict: str = "bounded"
    calibration: dict = field(default_factory=dict)


# each kappa problem but the lions control: its family and left condition
_KAPPA_FAMILIES = {"baseline": ("free", None),
                   "complex_p": ("complex_p", None),
                   "complex_full": ("complex_constant", None),
                   "robin_complex": ("mixed_sign", BoundaryCondition(1 + 0.5j))}
KAPPA_PROBLEMS = (*_KAPPA_FAMILIES, "lions")


def _kappa_row(problem: str, n: int, E: float, alpha: float) -> dict:
    if problem == "lions":
        T = lions_operator(n)
        row = sqrt_domain_kappa(T, E, H_ref=T.conj().T, alpha=alpha)
    else:
        if problem not in _KAPPA_FAMILIES:
            raise ValueError(f"unknown kappa problem {problem!r}")
        family, bc_left = _KAPPA_FAMILIES[problem]
        prob = make_problem(family, n=n, bc_left=bc_left)
        if alpha == 0.5:
            row = sqrt_domain_kappa(prob.operator, E,
                                    G_E=prob.sobolev_gram(E), alpha=alpha)
        else:
            row = sqrt_domain_kappa(prob.operator, E,
                                    H_ref=prob.reference_operator(),
                                    alpha=alpha)
    row["n"] = n
    return row


def _growth(rows: list) -> float:
    """Last ratio over the smallest: a drop on coarse meshes cannot hide
    later growth."""
    return rows[-1]["kappa"] / min(row["kappa"] for row in rows)


def refinement_study(problem: str, n_list, E: float = 1.0,
                     alpha: float = 0.5, growth_threshold: float | None = None
                     ) -> DomainEquivalenceReport:
    """Track the equivalence ratio under refinement and judge boundedness.

    With no explicit threshold the run calibrates itself: the negative
    control is evaluated at the critical power and at 1/4 on the same mesh
    ladder, and the ceiling is the geometric mean of the two growth ratios,
    which cleanly separates convergent ratios from critical-power growth.
    """
    n_list = sorted(int(n) for n in n_list)
    if len(n_list) < 2:
        raise ValueError("need at least two refinement levels")
    rows = [_kappa_row(problem, n, E, alpha) for n in n_list]
    growth = _growth(rows)

    calibration = {}
    if growth_threshold is None:
        if problem == "lions" and alpha in (0.25, 0.5):
            # reuse this very sweep for its half of the calibration
            ref = {alpha: rows}
        else:
            ref = {}
        for al in (0.25, 0.5):
            if al not in ref:
                ref[al] = [_kappa_row("lions", n, E, al) for n in n_list]
        g_low, g_high = _growth(ref[0.25]), _growth(ref[0.5])
        growth_threshold = float(np.sqrt(g_low * g_high))
        calibration = {"lions_growth_quarter": float(g_low),
                       "lions_growth_half": float(g_high)}

    verdict = "bounded" if growth <= growth_threshold else "divergent"
    for row in rows:
        row["verdict"] = verdict
    return DomainEquivalenceReport(problem=problem, alpha=alpha, E=E,
                                   rows=rows, growth=float(growth),
                                   threshold=float(growth_threshold),
                                   verdict=verdict, calibration=calibration)


def lemma24_bounds(S: DiscreteOperator | np.ndarray,
                   T: DiscreteOperator | np.ndarray, E_grid) -> dict:
    """Suprema of the two half-power quotients over a shift grid.

    Returns ``sup ||S^{1/2} (T + E)^{-1/2}||`` and
    ``sup ||(S + E)^{1/2} (T + E)^{-1/2}||`` over ``E_grid`` intersected
    with [1, inf), along with the maximizing shifts.
    """
    Sm = S.H if isinstance(S, DiscreteOperator) else np.asarray(S, dtype=complex)
    Tm = T.H if isinstance(T, DiscreteOperator) else np.asarray(T, dtype=complex)
    halver = _InvSqrtShifted(Tm)
    S_half = matrix_power(Sm, 0.5)
    E_use = [float(E) for E in E_grid if float(E) >= 1.0]
    shiftless = halver.norms(E_use, right=S_half)[0]
    sup1, arg1, sup2, arg2 = 0.0, None, 0.0, None
    for E, v1 in zip(E_use, shiftless):
        SE_half = matrix_power(Sm + E * np.eye(Sm.shape[0]), 0.5)
        v2 = halver.norms([E], right=SE_half)[0][0]
        if v1 > sup1:
            sup1, arg1 = v1, E
        if v2 > sup2:
            sup2, arg2 = v2, E
    return {"sup_shiftless": float(sup1), "argmax_shiftless": arg1,
            "sup_shifted": float(sup2), "argmax_shifted": arg2}


def thmA1_decay(phi: np.ndarray, L: DiscreteOperator | np.ndarray,
                E_grid) -> dict:
    """Shift decay of a diagonal multiplier against the inverse half power.

    ``phi`` holds the multiplier samples on the operator's degrees of
    freedom; the profile ``||diag(phi) (L + E)^{-1/2}||`` is recorded over
    the grid with its fitted log-log slope (the continuum envelope decays
    at least like the quarter power for admissible multipliers).
    """
    Lm = L.H if isinstance(L, DiscreteOperator) else np.asarray(L, dtype=complex)
    phi = np.asarray(phi, dtype=complex)
    if phi.shape[0] != Lm.shape[0]:
        raise ValueError("multiplier samples must match the DOF count")
    halver = _InvSqrtShifted(Lm)
    Phi = np.diag(phi)
    E_arr = np.asarray(list(E_grid), dtype=float)
    norms = halver.norms(E_arr, right=Phi)[0]
    if np.all(norms == 0.0):
        slope = 0.0
    else:
        slope = float(np.polyfit(np.log(E_arr), np.log(norms), 1)[0])
    return {"E": E_arr, "norms": norms, "slope": slope}
