"""Square-root-domain equivalence ratios, the critical-power dichotomy and
the shift decay of multipliers against the inverse half power.

Domain equality statements are rendered finitely as two-sided norm
equivalence: the ratio ``kappa = max/min`` of ``||(H + E)^alpha f||`` against
``||(H_ref + E)^alpha f||`` with ``H_ref`` the problem's self-adjoint
reference operator; at alpha = 1/2 the reference norm is the E-scaled
W^{1,2} norm.  ``refinement_study`` takes the operator at each mesh level:
any ``Problem``, or the upwind first-derivative control, which is referred
to its adjoint.  The two norms are ``||X f||`` for the power X and ``||Y f||``
for any factor Y of the reference Gram, so kappa is exactly
``cond_2(X Y^-1)``, ``cond_2((H + E)^alpha (H_ref + E)^-alpha)`` whichever
factor is taken; ``sqrt_domain_kappa`` reads it from the extreme eigenvalues
of ``Z^H Z``.  A problem's operator and reference reach
``_power_over_reference`` and ``_band_cholesky`` only as their diagonals
``(lo, d, up)``, with E added to the main diagonal.  ``_kappa_row`` takes
each level's cheapest exact factor: at the critical power the bidiagonal
Cholesky factor of the tridiagonal ``H_ref + E``, applied by banded
substitution (a Hermitian ``H + E`` is its own bidiagonal X); at any other
power the gauge route's ``(H_ref + E)^-alpha``; for the control
``Z = T^alpha (T^-alpha)^H``, both powers closed-form.  A problem passes when ``kappa`` stays bounded under
mesh refinement; the control's critical-power ratio keeps growing.

Every fractional power goes through ``matrix_power``, which takes the
diagonals ``(lo, d, up)`` of a tridiagonal matrix, and whose three routes
are all exact to roundoff: the terminating binomial series for a
tridiagonal Toeplitz matrix with a zero superdiagonal (the negative
control, lower bidiagonal); the discrete Liouville gauge
(``matfun._gauge``) for a tridiagonal matrix that a diagonal similarity D
takes to a shifted and scaled real symmetric one (Hermitian input, real
coefficients with real ends, and every constant-coefficient family with
Dirichlet ends), or to one with a single complex boundary corner, a
rank-one update whose eigenpairs come from its secular equation (one
complex Robin end with real coefficients; one Neumann or Robin end with
constant coefficients); and one complex Schur form of the dense matrix for
any other band, whose triangular factor is rooted k times at
alpha = 2^-k and raised by Schur-Pade otherwise.  Real input stays real on
the first two routes.  A shift that leaves an eigenvalue of negative real
part (on every route, by the one guard ``matfun._require_shifted``), a
Hermitian ``H + E`` or a ``Z^H Z`` that is not positive definite raises
``ShiftBelowSpectrumError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .assembly import _dense
from .kato import _InvSqrtShifted, _loglog_slope
from .matfun import (ShiftBelowSpectrumError, SpectrumOnCutError,
                     _band_storage, _gauge, _principal_sqrt, _require_root,
                     _require_shifted, _residual_fails, is_hermitian)
from .problems import lions_operator

__all__ = [
    "DomainEquivalenceReport",
    "ShiftBelowSpectrumError",
    "matrix_power",
    "sqrt_domain_kappa",
    "refinement_study",
    "thmA1_decay",
]


# Ehrlich-Aberth steps that ``_secular_offsets`` may take; a solve that has
# not converged by then leaves the input to Schur.
_SECULAR_STEPS = 16


def _dyadic_roots(alpha: float) -> int:
    """``k`` when ``alpha = 2^-k`` for an integer ``k >= 1``, else 0."""
    if alpha <= 0:
        return 0
    k = -np.log2(alpha)
    return int(k) if k >= 1 and k == int(k) else 0


def _tridiagonal_toeplitz(band: tuple) -> tuple | None:
    """(subdiagonal, diagonal, superdiagonal) entries of the tridiagonal
    matrix with diagonals ``band`` when it is Toeplitz, as scalars of its
    own dtype, else None."""
    if any(np.any(x != x[0]) for x in band):
        return None
    return tuple(x[0] for x in band)


def _toeplitz_power(lam: complex, mu: complex, n: int,
                    alpha: float) -> np.ndarray:
    """``(lam I + mu S)^alpha`` for the n x n down-shift S, exactly.

    ``mu S`` is nilpotent, so the binomial series of the single Jordan
    block terminates (Higham, Functions of Matrices, 2008, sec. 1.2): the
    power is lower-triangular Toeplitz with first column
    ``c_k = binom(alpha, k) lam^(alpha - k) mu^k``, built by the recurrence
    ``c_k = c_{k-1} (alpha - k + 1) / k * (mu / lam)``.
    """
    _require_shifted([lam])
    k = np.arange(1, n)
    steps = np.concatenate(([lam ** alpha], (alpha - k + 1) / k * (mu / lam)))
    return sla.toeplitz(np.cumprod(steps), np.zeros(n))


def _secular_offsets(mu: np.ndarray, u: np.ndarray,
                     beta: float) -> np.ndarray | None:
    """Offsets ``delta`` of the eigenvalues ``mu + delta`` of
    ``diag(mu) + i beta u u^T``, or None unless the solve converges within
    ``_SECULAR_STEPS`` steps.

    The eigenvalues are the roots of the secular equation
    ``1 + i beta sum_j u_j^2 / (mu_j - lam) = 0`` (Golub, SIAM Rev. 15,
    1973), found all at once by Ehrlich-Aberth steps (Bini, Gemignani &
    Tisseur, SIAM J. Matrix Anal. Appl. 27, 2005) from
    ``mu_j + i beta u_j^2``.  They run on the offsets, so that
    ``mu_i - lam_j = (mu_i - mu_j) - delta_j`` keeps its digits, and stop
    once every step is within the residual rule of its offset.  A mode
    with ``u_j^2 = 0`` has no secular root, and the solve returns None.
    """
    u2 = u * u
    if not np.all(u2):
        return None
    gap = mu[:, None] - mu
    delta = 1j * beta * u2
    # two n x n work arrays, overwritten in place at every step
    inv, root = np.empty((2, mu.size, mu.size), dtype=complex)
    for _ in range(_SECULAR_STEPS):
        np.subtract(gap, delta, out=inv)     # mu_i - lam_j
        np.add(inv, delta[:, None], out=root)  # lam_i - lam_j
        np.fill_diagonal(root, np.inf)
        np.reciprocal(inv, out=inv)
        # 1 / (p'/p - sum_{i != j} 1/(lam_j - lam_i)) for p(lam) =
        # prod_i (mu_i - lam) f(lam), f = 1 + i beta sum_i u_i^2 inv_ij,
        # the sums over the poles and the other roots merged term by term;
        # written as f / (f' + f q), it is 0 at an exact root
        f = 1.0 + 1j * beta * (u2 @ inv)
        q = 1.0 / delta - delta @ np.divide(inv, root, out=root)
        step = f / (1j * beta * (u2 @ np.square(inv, out=inv)) + f * q)
        delta = delta - step
        if not _residual_fails(np.abs(step), np.abs(delta)):
            return delta
    return None


def _corner_eigenpairs(mu: np.ndarray, V: np.ndarray, k: int,
                       beta: float) -> tuple:
    """Eigenpairs ``(mu + delta, V W)`` of ``S_r + i beta e_k e_k^T`` from
    ``(mu, V) = eigh_tridiagonal(S_r)``, or ``(None, None)`` when
    ``_secular_offsets`` has not converged.

    In the basis V the matrix is ``diag(mu) + i beta u u^T``, ``u = V[k]``,
    complex symmetric, with eigenvectors ``W_ij = u_i / (mu_i - lam_j)``
    scaled to ``w_j^T w_j = 1``, so that ``W^-1 = W^T``.  A
    ``||W^T W - I||_F`` off the residual rule raises ``SpectrumOnCutError``.
    """
    u = V[k]
    if (delta := _secular_offsets(mu, u, beta)) is None:
        return None, None
    W = mu[:, None] - mu - delta
    np.reciprocal(W, out=W)
    W *= u[:, None]
    W /= np.sqrt(np.einsum("ij,ij->j", W, W))
    gram = W.T @ W
    gram[np.diag_indices(mu.size)] -= 1.0
    if _residual_fails(np.linalg.norm(gram), np.sqrt(mu.size)):
        raise SpectrumOnCutError("secular eigenvectors not orthonormal")
    del gram  # V W below takes two real n x n products
    W.real, W.imag = V @ W.real, V @ W.imag  # V W, in W's memory
    return mu + delta, W


def _gauge_power(band: tuple, alpha: float) -> np.ndarray | None:
    """``H^alpha`` by the discrete Liouville gauge (``matfun._gauge``) for
    the tridiagonal H with diagonals ``band``, or None unless the gauge
    applies.

    With S real the power is ``D V diag((d_ref + c mu)^alpha) V^T D^-1``
    (the Toeplitz case is the sine diagonalization of Noschese, Pasquini &
    Reichel, Numer. Linear Algebra Appl. 20, 2013), in real arithmetic for
    real values.  With one complex corner (a complex Robin end, or a
    Neumann or Robin end with complex coefficients) S is a rank-one update
    of the real ``S_r``, and ``_corner_eigenpairs`` turns the eigenpairs of
    ``S_r`` into those of S, with V complex orthogonal (``V^-1 = V^T``), so
    the power keeps its form.  An unconverged secular solve takes Schur.  At
    ``alpha = 2^-k`` the power is raised back k times and checked against
    the band by ``_require_root``, which subtracts the three diagonals in
    place: no dense H is formed.
    """
    dtype = np.result_type(*band)
    if real := not any(np.any(x.imag) for x in band):
        band = tuple(x.real for x in band)
    if (gauge := _gauge(band)) is None:
        return None
    g, d_ref, c, mu, V, corner = gauge
    del gauge  # so that ``del V`` below frees the eigenvectors
    if corner is not None:
        mu, V = _corner_eigenpairs(mu, V, *corner)
        if V is None:
            return None
    lam = d_ref + c * mu
    _require_shifted(lam)
    f = lam ** alpha
    if np.iscomplexobj(V):
        P = (V * f) @ V.T
    else:  # two real products, not a complex one
        P = (V * f.real) @ V.T
        if np.iscomplexobj(f):
            P = P + 1j * ((V * f.imag) @ V.T)
    del V  # the root check below holds three n x n products
    np.multiply(g[:, None], P, out=P)
    P /= g
    X = P.real if real else P
    if roots := _dyadic_roots(alpha):
        _require_root(np.linalg.matrix_power(X, 2 ** (roots - 1)), band)
    return X.astype(dtype, copy=False)


def matrix_power(band: tuple, alpha: float) -> np.ndarray:
    """Fractional power ``H^alpha`` of the tridiagonal H with diagonals
    ``band = (lo, d, up)``; the one place a route is chosen.

    The Toeplitz and gauge tests read only the three diagonals.  A
    tridiagonal Toeplitz matrix with a zero superdiagonal takes
    ``_toeplitz_power``, and a tridiagonal matrix that a diagonal
    similarity symmetrizes, up to one complex boundary corner, takes
    ``_gauge_power`` (Hermitian input among them, with ``|g_k| = 1``).
    These two routes return a real power for real input.  Any other band,
    and one of a single row, is formed into the dense H (``_dense``) and
    factored once as ``Q U Q^H`` (complex Schur).  At ``alpha = 2^-k`` the
    triangular ``U`` is rooted k times (``matfun._principal_sqrt``, each
    root residual-checked); any other alpha raises ``U`` by the Schur-Pade
    algorithm (Higham & Lin, SIAM J. Matrix Anal. Appl. 32, 2011), which
    takes no second Schur step on triangular input.  The triangular power
    ``R`` returns as ``Q R Q^H``.

    Every route passes the eigenvalues it has (the binomial series' one
    diagonal value, the gauge's ``d_ref + c mu`` or ``diag(U)``) once
    through ``matfun._require_shifted``, so the error class follows the
    eigenvalues, not the route.  A negative ``alpha`` takes the same
    routes.
    """
    if band[1].size >= 2:
        if (toeplitz := _tridiagonal_toeplitz(band)) and toeplitz[2] == 0:
            return _toeplitz_power(toeplitz[1], toeplitz[0], band[1].size,
                                   alpha)
        if (X := _gauge_power(band, alpha)) is not None:
            return X
    U, Q = sla.schur(_dense(band), output="complex")
    _require_shifted(np.diag(U))
    if roots := _dyadic_roots(alpha):
        for _ in range(roots):
            U = _principal_sqrt(U)
    else:
        U = sla.fractional_matrix_power(U, alpha)
    return Q @ U @ Q.conj().T


def _band_cholesky(band: tuple) -> np.ndarray:
    """Upper Cholesky factor ``R`` of the Hermitian tridiagonal matrix with
    diagonals ``band = (lo, d, up)``, ``A = R^H R``, in LAPACK upper band
    storage: ``R`` is upper bidiagonal, and a real-valued ``A`` is factored
    in real arithmetic.  Raises ``LinAlgError`` unless ``A`` is positive
    definite.
    """
    ab = _band_storage(band, 0, 1)
    if not np.any(ab.imag):
        ab = ab.real
    return sla.cholesky_banded(ab, lower=False, check_finite=False)


def _right_solve(X: np.ndarray, R: np.ndarray) -> np.ndarray:
    """``X R^-1`` for ``R`` upper triangular in band storage, by LAPACK's
    banded triangular substitution (``?tbtrs``) on ``R^H Z^H = X^H``."""
    tbtrs, = sla.get_lapack_funcs(("tbtrs",), (X, R))
    ZH, info = tbtrs(R.astype(tbtrs.dtype, copy=False), X.conj().T,
                     uplo="U", trans="C")
    if info != 0:
        raise ValueError("reference Gram is not positive definite")
    return ZH.conj().T


def _power_over_reference(band: tuple, ref_band: tuple, E: float,
                          alpha: float) -> np.ndarray:
    """``Z = (H + E)^alpha Y^-1`` for a factor ``Y`` of the reference Gram,
    ``Y^H Y = (H_ref + E)^(2 alpha)``.

    ``band`` and ``ref_band`` are the diagonals ``(lo, d, up)`` of the
    tridiagonal H and H_ref, and E is added to each main diagonal, so both
    operators are shifted, factored and powered without a dense ``H + E``.
    The singular values of ``Z`` do not depend on which factor is taken, so
    each case takes its cheapest exact one.  At the critical power ``Y`` is
    the bidiagonal Cholesky factor of the tridiagonal ``H_ref + E``, applied
    by substitution, and a Hermitian ``H + E`` is its own bidiagonal factor
    ``X``, which no root is formed for (a real-valued one factored in real
    arithmetic, so the self-adjoint baseline reads ``Z = I`` exactly); any
    other ``H + E`` takes its root as ``X``.  At any other power
    ``Y^-1 = (H_ref + E)^-alpha`` is the gauge route's power.
    """
    (lo, d, up), (ref_lo, ref_d, ref_up) = band, ref_band
    shifted, ref = (lo, d + E, up), (ref_lo, ref_d + E, ref_up)
    if alpha != 0.5:
        return matrix_power(shifted, alpha) @ matrix_power(ref, -alpha)
    try:
        R = _band_cholesky(ref)
    except np.linalg.LinAlgError as exc:
        raise ValueError("reference Gram is not positive definite") from exc
    if not is_hermitian(shifted):
        return _right_solve(matrix_power(shifted, alpha), R)
    try:
        X = _band_cholesky(shifted)
    except np.linalg.LinAlgError as exc:
        raise ShiftBelowSpectrumError(
            "Hermitian H + E is not positive definite") from exc
    # X in upper band storage: row 0 the superdiagonal, row 1 the diagonal
    return _right_solve(_dense((np.zeros_like(X[0, 1:]), X[1], X[0, 1:])),
                        R)


def sqrt_domain_kappa(Z: np.ndarray) -> dict:
    """Equivalence ratio of the power norm against a reference norm.

    ``Z = X Y^-1`` carries the power ``X`` over a factor ``Y`` of the
    reference Gram, ``Y^H Y``, so ``||X f|| / ||Y f||`` ranges exactly over
    the singular values of ``Z``: the square roots of the extreme
    eigenvalues of ``Z^H Z``.  A nonpositive one raises
    ``ShiftBelowSpectrumError``.
    """
    evals = np.linalg.eigvalsh(Z.conj().T @ Z)
    if evals[0] <= 0:
        raise ShiftBelowSpectrumError(
            f"power Gram lost positivity; smallest eigenvalue of Z^H Z "
            f"{evals[0]:.6g}")
    min_ratio, max_ratio = float(np.sqrt(evals[0])), float(np.sqrt(evals[-1]))
    return {"min_ratio": min_ratio, "max_ratio": max_ratio,
            "kappa": max_ratio / min_ratio}


@dataclass
class DomainEquivalenceReport:
    """Refinement table of equivalence ratios with a boundedness verdict."""

    rows: list
    growth: float
    increment_ratio: float
    kappa_extrapolated: float
    threshold: float
    verdict: str
    calibration: dict


def _kappa_row(operator_at, n: int, E: float, alpha: float) -> dict:
    """Level ``n`` of a study: ``sqrt_domain_kappa`` of the power of
    ``operator_at(n)`` carried over a factor of its reference Gram.

    The lions control is referred to its adjoint, whose power is the
    power's adjoint, so ``Y = (T^alpha)^H`` for ``T = lions + E`` and
    ``Z = T^alpha (T^-alpha)^H``: both powers are the terminating binomial
    series of one Jordan block, and no factorization is taken.  A
    ``Problem`` is referred to the same power of its self-adjoint
    reference operator (``_power_over_reference``), whose Gram at the
    critical power is ``H_ref + E``, the E-scaled Sobolev Gram in
    orthonormal coordinates.  Every operator arrives as its diagonals,
    with E added to the main one, so the row forms no dense operator; its
    dense arrays are the power, its root check and ``Z``."""
    if operator_at is lions_operator:
        lo, d, up = lions_operator(n)
        T = (lo, d + E, up)
        Z = matrix_power(T, alpha) @ matrix_power(T, -alpha).conj().T
    else:
        prob = operator_at(n)
        Z = _power_over_reference(prob.diagonals(),
                                  prob.reference_diagonals(), E, alpha)
    return {"n": n, "E": float(E), "alpha": float(alpha),
            **sqrt_domain_kappa(Z)}


def _growth(rows: list) -> float:
    """Last ratio over the smallest: a drop on coarse meshes cannot hide
    later growth."""
    return rows[-1]["kappa"] / min(row["kappa"] for row in rows)


def _last_increments(rows: list) -> tuple[float, float]:
    """``(d1, d2)``, the last two increments ``kappa_k - kappa_{k-1}`` and
    ``kappa_{k+1} - kappa_k`` of a ladder; ``nan`` on a two-level one."""
    if len(rows) < 3:
        return float("nan"), float("nan")
    k0, k1, k2 = (row["kappa"] for row in rows[-3:])
    return k1 - k0, k2 - k1


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

    A ladder whose last two increments ``d1``, ``d2`` grow (``d1 > 0`` and
    ``d2 >= d1``) is divergent whatever its growth: a kappa that rises by a
    steady factor per refinement stays under the ceiling for a while.  The
    report's ``increment_ratio`` is ``d2 / d1``, ``nan`` when ``d1 = 0`` or
    the ladder has two levels, which the growth rule alone judges.  Its
    ``kappa_extrapolated`` is the Aitken limit
    ``kappa_last + d2 rho / (1 - rho)`` of a ladder whose increments shrink
    geometrically, ``rho = d2 / d1`` in (0, 1), and ``nan`` otherwise; it
    is reported and judges nothing.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    n_list = sorted(int(n) for n in n_list)
    if len(n_list) < 2 or len(set(n_list)) < len(n_list):
        raise ValueError("need at least two distinct refinement levels")
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

    d1, d2 = _last_increments(rows)
    rising = d1 > 0 and d2 >= d1  # False on a two-level ladder (nan)
    verdict = ("bounded" if growth <= growth_threshold and not rising
               else "divergent")
    rho = d2 / d1 if d1 != 0 else float("nan")
    limit = (rows[-1]["kappa"] + d2 * rho / (1.0 - rho) if 0.0 < rho < 1.0
             else float("nan"))
    return DomainEquivalenceReport(rows=rows, growth=float(growth),
                                   increment_ratio=rho,
                                   kappa_extrapolated=float(limit),
                                   threshold=float(growth_threshold),
                                   verdict=verdict, calibration=calibration)


def thmA1_decay(phi: np.ndarray, halver: _InvSqrtShifted, E_grid) -> dict:
    """Shift decay of a diagonal multiplier against the inverse half power.

    ``halver`` is ``_InvSqrtShifted(L)`` of the operator ``L``, one
    factorization that the multipliers of a study share, and ``phi`` holds
    the multiplier samples on its degrees of freedom.  The profile
    ``||diag(phi) (L + E)^{-1/2}||`` is recorded over the grid with its
    log-log slope, fitted as ``decay_profile`` fits its own (``nan`` unless
    every norm is positive; the continuum envelope decays at least like the
    quarter power for admissible multipliers).
    """
    phi = np.asarray(phi, dtype=complex)
    if phi.shape[0] != halver.basis.shape[0]:
        raise ValueError("multiplier samples must match the DOF count")
    E = np.asarray(list(E_grid), dtype=float)
    norms = halver.norms(E, phi)[0]  # diag(phi), as its diagonal
    return {"E": E, "norms": norms, "slope": _loglog_slope(E, norms)}
