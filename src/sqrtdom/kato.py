"""Factored perturbations, the associated resolvent identity and decay profiles.

A lower-order perturbation of the base operator is written as ``B* A`` over an
auxiliary space built from cell-midpoint sampling blocks, so that the factored
resolvent

    R(z) = R0(z) - R0(z) B* [I - K(z)]^{-1} A R0(z),   K(z) = -A R0(z) B*,

reproduces the one-shot discretization exactly at the matrix level (LU
roundoff only).  That exactness is the primary oracle of this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .assembly import (BoundaryCondition, CoefficientSet, DiscreteOperator,
                       Mesh, _dof_nodes)
from .matfun import (ResolventError, _principal_sqrt, _require_off_cut,
                     is_hermitian, power_norms, power_start, resolvent,
                     spectral_norm)

__all__ = [
    "FactoredPerturbation",
    "AdmissibilityError",
    "build_factorization",
    "kato_K",
    "perturbed_resolvent",
    "verify_identity",
    "TwoStepResolvent",
    "decay_profile",
    "kato_K_norms",
]

VARIANTS = ("qr_pair", "s_pair", "full_triple")


class AdmissibilityError(RuntimeError):
    """Raised when 1 lies in the spectrum of K(z) at the requested point."""


@dataclass
class FactoredPerturbation:
    """The pair (A, B) with ``B^H A`` equal to the perturbation form matrix."""

    A: np.ndarray
    B: np.ndarray

    def product(self) -> np.ndarray:
        return self.B.conj().T @ self.A


def _sampling_blocks(mesh: Mesh, bc_left: BoundaryCondition,
                     bc_right: BoundaryCondition):
    """Midpoint value/derivative blocks in L2-orthonormal coordinates.

    ``V`` maps an orthonormal vector to sqrt(h)-weighted midpoint values of
    its nodal interpolant and ``G`` to the weighted cell slopes, so that
    plain matrix adjoints implement the L2 pairings exactly.
    """
    n = mesh.n_cells
    h = mesh.h
    N = n + 1
    keep = _dof_nodes(N, bc_left, bc_right)
    w = np.full(N, h)
    w[0] = w[-1] = h / 2
    wk = w[keep]

    V = np.zeros((n, N))
    G = np.zeros((n, N))
    rows = np.arange(n)
    V[rows, rows] = np.sqrt(h) / 2
    V[rows, rows + 1] = np.sqrt(h) / 2
    G[rows, rows] = -1.0 / np.sqrt(h)
    G[rows, rows + 1] = 1.0 / np.sqrt(h)
    winv = 1.0 / np.sqrt(wk)
    return V[:, keep] * winv[None, :], G[:, keep] * winv[None, :], keep, wk


def _nodal_potential(mesh: Mesh, q: np.ndarray, keep: np.ndarray,
                     wk: np.ndarray) -> np.ndarray:
    """Weighted nodal average of the midpoint potential samples.

    Matches the lumped potential matrix: the diagonal of the assembled
    potential in orthonormal coordinates is exactly this vector.
    """
    h = mesh.h
    N = mesh.n_cells + 1
    acc = np.zeros(N, dtype=complex)
    np.add.at(acc, np.arange(mesh.n_cells), q * h / 2)
    np.add.at(acc, np.arange(1, N), q * h / 2)
    return acc[keep] / wk


def build_factorization(mesh: Mesh, coeffs: CoefficientSet,
                        bc_left: BoundaryCondition,
                        bc_right: BoundaryCondition,
                        variant: str = "full_triple") -> FactoredPerturbation:
    """Build the (A, B) pair for the requested perturbation split.

    ``qr_pair`` factors the convection-by-r plus potential terms (A stacks
    the derivative block over the unimodular-phase square-rooted potential,
    B the conjugated-r multiplication over the plain square root);
    ``s_pair`` factors the divergence-form convection with A the negated
    s-multiplication; ``full_triple`` stacks all three blocks.  In every
    case ``B^H A`` equals the corresponding form matrix exactly.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    V, G, keep, wk = _sampling_blocks(mesh, bc_left, bc_right)
    qt = _nodal_potential(mesh, coeffs.q, keep, wk)
    absq = np.abs(qt)
    # principal argument with Arg(0) := 0, so vanishing samples give zero rows
    phase = np.where(absq > 0, qt / np.where(absq > 0, absq, 1.0), 1.0)
    rootq = np.sqrt(absq)
    n_dof = V.shape[1]

    qa_block = np.diag(phase * rootq)
    qb_block = np.diag(rootq).astype(complex)
    r_block = np.conj(coeffs.r)[:, None] * V
    # the derivative enters the s-side negated: the finite-dimensional
    # adjoint supplies no integration-by-parts sign of its own
    sa_block = -(coeffs.s[:, None] * V)
    sb_block = -G

    if variant == "qr_pair":
        A = np.vstack([G.astype(complex), qa_block])
        B = np.vstack([r_block, qb_block])
    elif variant == "s_pair":
        A = sa_block
        B = sb_block.astype(complex)
    else:
        A = np.vstack([G.astype(complex), sa_block, qa_block])
        B = np.vstack([r_block, sb_block.astype(complex), qb_block])
    if A.shape[1] != n_dof:
        raise ValueError("factor blocks and DOF count out of step")
    return FactoredPerturbation(A=A, B=B)


def kato_K(T0: DiscreteOperator, fact: FactoredPerturbation,
           z: complex) -> np.ndarray:
    """The compressed resolvent ``K(z) = -A (T0 - z)^{-1} B^H``."""
    n = T0.n
    X = np.linalg.solve(T0.H - z * np.eye(n), fact.B.conj().T)
    return -fact.A @ X


def kato_K_norms(T0: DiscreteOperator, fact: FactoredPerturbation,
                 E_list) -> np.ndarray:
    """``||K(-E)||`` for each shift ``E``, from one factorization of ``T0``
    and without forming ``K``; ``decay_profile`` computes it the same way."""
    halver = _InvSqrtShifted(T0.H)
    return halver.inverse_norms(E_list, halver.gram(fact.A),
                                halver.gram(fact.B))

def _invert_core(K: np.ndarray, z: complex, stage: str) -> np.ndarray:
    """(I - K)^{-1} with an explicit conditioning guard.

    Backward-stable solves do not flag near-singularity on their own, so the
    admissibility boundary (1 in the spectrum of K) is detected through the
    condition number of I - K.
    """
    label = f"{stage} " if stage else ""
    try:
        core = resolvent(K, 1.0)  # (K - 1)^{-1}
    except ResolventError as exc:
        raise AdmissibilityError(f"{label}1 in spectrum of K(z) at z = {z}") from exc
    ImK = np.eye(K.shape[0], dtype=complex) - K
    if spectral_norm(core) * spectral_norm(ImK) > 1e13:
        raise AdmissibilityError(
            f"{label}1 within roundoff of the spectrum of K(z) at z = {z}")
    return -core


def _woodbury(R: np.ndarray, fact: FactoredPerturbation, z: complex,
              stage: str) -> np.ndarray:
    """Adjoin ``B^H A`` to the resolvent ``R``:
    ``R - R B^H (I - K)^{-1} A R`` with ``K = -A R B^H``."""
    RB = R @ fact.B.conj().T
    inv_ImK = _invert_core(-fact.A @ RB, z, stage)
    return R - RB @ inv_ImK @ (fact.A @ R)


def perturbed_resolvent(T0: DiscreteOperator, fact: FactoredPerturbation,
                        z: complex) -> np.ndarray:
    """Resolvent of the perturbed operator through the factored identity."""
    return _woodbury(resolvent(T0.H, z), fact, z, "")


def verify_identity(direct: DiscreteOperator, T0: DiscreteOperator,
                    fact: FactoredPerturbation, z_list) -> dict:
    """Compare the factored resolvent against the one-shot discretization.

    Returns the maximum relative error over admissible shifts plus per-shift
    records; inadmissible points are excluded and reported.
    """
    records, excluded = [], []
    max_err = 0.0
    for z in z_list:
        z = complex(z)
        try:
            R_fact = perturbed_resolvent(T0, fact, z)
        except AdmissibilityError:
            excluded.append(z)
            continue
        R_direct = resolvent(direct.H, z)
        err = (np.linalg.norm(R_fact - R_direct)
               / np.linalg.norm(R_direct))
        records.append({"z": z, "rel_error": float(err)})
        max_err = max(max_err, float(err))
    return {"max_rel_error": max_err, "records": records,
            "excluded": excluded}


class TwoStepResolvent:
    """Composed resolvent: first adjoin the r/q terms, then the s term.

    Matches the one-shot discretization stage by stage.
    """

    def __init__(self, T0: DiscreteOperator, coeffs: CoefficientSet):
        mesh = T0.mesh
        bl, br = T0.forms.bc_left, T0.forms.bc_right
        stage1 = CoefficientSet(p=coeffs.p, q=coeffs.q, r=coeffs.r,
                                s=np.zeros_like(coeffs.s),
                                lam=coeffs.lam, Lam=coeffs.Lam)
        self.T0 = T0
        self.fact_qr = build_factorization(mesh, stage1, bl, br, "qr_pair")
        self.fact_s = build_factorization(mesh, coeffs, bl, br, "s_pair")

    def __call__(self, z: complex) -> np.ndarray:
        z = complex(z)
        try:
            R1 = perturbed_resolvent(self.T0, self.fact_qr, z)
        except AdmissibilityError as exc:
            raise AdmissibilityError(f"stage 1 (r, q) inadmissible at z = {z}") from exc
        return _woodbury(R1, self.fact_s, z, "stage 2 (s):")


# per-block cap on stacked n x n entries of the Schur path's shift factors
_BLOCK_ENTRIES = 2 ** 16


class _InvSqrtShifted:
    """Norms of products with ``(T0 + c)^{-1/2}`` and ``(T0 + c)^{-1}`` over
    many shifts ``c``, from one factorization of ``T0``.

    Hermitian ``T0`` is diagonalized once (``eigh``), so each shift's factor
    is diagonal.  Otherwise the complex Schur form ``T0 = Q U Q^H`` is taken
    once, and each shift's factor is the inverse of ``U + c`` or of its
    triangular principal root (``matfun._principal_sqrt``, batched over
    shifts and residual-checked).
    For the half power the eigenvalues plus ``c`` (``diag(U) + c`` on the
    Schur path) pass the branch-cut guard first.  Schur-path factors are
    stacked in blocks of at most ``2**16 // n**2`` shifts.  A factor ``X``
    enters only through ``X Q`` (or ``X V``) and its Gram, formed once by
    ``gram``, and all shifts of a block run in one ``power_norms``.  Each
    norm equals, in exact arithmetic, ``spectral_norm`` of the explicit
    product, since the start vector is carried into the basis coordinates.
    """

    def __init__(self, H: np.ndarray):
        H = np.asarray(H, dtype=complex)
        self.hermitian = is_hermitian(H)
        if self.hermitian:
            self.diag, self.basis = np.linalg.eigh(H)
        else:
            self.U, self.basis = sla.schur(H, output="complex")
            self.diag = np.diag(self.U)

    def _factors(self, shifts: np.ndarray, power: float):
        """``(block, F)`` pairs: ``F[j]`` is ``(T0 + c_j)^power`` in the
        basis, as the diagonal on the Hermitian path."""
        if power == -0.5:
            _require_off_cut(self.diag[None, :] + shifts[:, None])
        if self.hermitian:
            yield slice(None), (self.diag[None, :] + shifts[:, None]) ** power
            return
        n = self.U.shape[0]
        step = max(1, _BLOCK_ENTRIES // n ** 2)
        for lo in range(0, shifts.size, step):
            block = slice(lo, lo + step)
            T = self.U + shifts[block, None, None] * np.eye(n)
            if power == -0.5:
                T = _principal_sqrt(T)
            yield block, np.linalg.inv(T)

    def _apply(self, F: np.ndarray, X: np.ndarray,
               adjoint: bool = False) -> np.ndarray:
        """Row j of ``X`` through ``F[j]`` (``F[j]^H`` with ``adjoint``)."""
        if self.hermitian:
            return F * X  # real diagonal
        if adjoint:  # F^H x = conj(x^H F)
            return np.matmul(X.conj()[:, None, :], F)[:, 0, :].conj()
        return np.matmul(F, X[:, :, None])[:, :, 0]

    def _run(self, shifts, power, start, inner=None, outer=None):
        """``power_norms`` over the shifts, from the basis-coordinate state
        ``start`` of the unit start iterate.

        One step takes the state ``u`` to ``v = F^H inner F u`` and the new
        state ``outer v``; the new iterate's norm is ``sqrt(v^H outer v)``.
        A missing ``inner`` or ``outer`` is the identity.
        """
        shifts = np.asarray(shifts, dtype=float)
        out = np.empty(shifts.size)
        for block, F in self._factors(shifts, power):
            def step(X, idx, F=F):
                Fi = F[idx]
                V = self._apply(Fi, X)
                if inner is not None:
                    V = V @ inner.T
                V = self._apply(Fi, V, adjoint=True)
                Y = V if outer is None else V @ outer.T
                sq = np.einsum("ij,ij->i", V.conj(), Y).real
                return Y, np.sqrt(np.maximum(sq, 0.0))
            out[block] = power_norms(step, np.tile(start, (F.shape[0], 1)))
        return out

    def gram(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A factor ``X`` in the basis, ``X V``, with its Gram
        ``(X V)^H X V``: all that the norms below use of ``X``."""
        XB = np.asarray(X, dtype=complex) @ self.basis
        return XB, XB.conj().T @ XB

    def half_norms(self, shifts, right=None, left=None
                   ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """``norms`` for factors already passed through ``gram``."""
        x0 = power_start(self.basis.shape[0])
        start = x0 if self.hermitian else self.basis.conj().T @ x0
        out_r = out_l = None
        if right is not None:
            out_r = self._run(shifts, -0.5, start, inner=right[1])
        if left is not None and self.hermitian:
            out_l = self._run(shifts, -0.5, start, inner=left[1])
        elif left is not None:
            XB, W = left
            start_m = XB.conj().T @ power_start(XB.shape[0])
            out_l = self._run(shifts, -0.5, start_m, outer=W)
        return out_r, out_l

    def norms(self, shifts, right: np.ndarray | None = None,
              left: np.ndarray | None = None
              ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Per shift c, ``|| right (T0 + c)^{-1/2} ||`` and
        ``|| (T0 + c)^{-1/2} left^H || = || left (T0^H + c)^{-1/2} ||``.

        Returns the two arrays of norms, None for an omitted factor.  The
        right product starts in ``C^n``; the left one starts in ``C^m``
        (``m`` rows of ``left``) on the Schur path and, as ``left V D_c``,
        in ``C^n`` on the Hermitian path.
        """
        return self.half_norms(shifts, *(None if X is None else self.gram(X)
                                         for X in (right, left)))

    def inverse_norms(self, shifts, A, B) -> np.ndarray:
        """Per shift c, ``|| A (T0 + c)^{-1} B^H || = || K(-c) ||`` for
        factors passed through ``gram``; the start lies in ``C^m``."""
        BB, WB = B
        start = BB.conj().T @ power_start(BB.shape[0])
        return self._run(shifts, -1.0, start, inner=A[1], outer=WB)


def decay_profile(T0: DiscreteOperator | _InvSqrtShifted,
                  fact: FactoredPerturbation, E_list,
                  d9_points: int = 25) -> dict:
    """Shift-decay diagnostics of the factored pieces over a geometric grid.

    ``T0`` is the base operator or, to share one factorization among
    several factor pairs, its ``_InvSqrtShifted(T0.H)``.

    For each E the profile records ``||K(-E)||``, the two half-power norms
    ``||A (T0+E)^{-1/2}||`` and ``||(T0+E)^{-1/2} B^H||``, and a truncated
    log-weighted integral of their product over ``d9_points`` shifts in
    ``[1, 1e6]``.  The fitted log-log slope of ``||K(-E)||`` quantifies the
    decay; the ratio min/max of the B-norm exposes a plateau when the factor
    contains a derivative block.
    """
    E_arr = np.asarray(list(E_list), dtype=float)
    if np.any(np.diff(E_arr) <= 0) or np.any(E_arr <= 0):
        raise ValueError("E grid must be positive and increasing")
    halver = (T0 if isinstance(T0, _InvSqrtShifted)
              else _InvSqrtShifted(T0.H))
    lam_grid = np.geomspace(1.0, 1e6, d9_points)
    # row i holds the shifts E_i and lam + E_i for lam on the grid
    shifts = E_arr[:, None] + np.concatenate(([0.0], lam_grid))[None, :]
    gA, gB = halver.gram(fact.A), halver.gram(fact.B)
    normsA, normsB = halver.half_norms(shifts.ravel(), gA, gB)
    normsA = normsA.reshape(shifts.shape)
    normsB = normsB.reshape(shifts.shape)
    normsK = halver.inverse_norms(E_arr, gA, gB)

    rows = []
    for E, normK, nA, nB in zip(E_arr, normsK, normsA, normsB):
        vals = nA[1:] * nB[1:]
        integral = float(np.trapezoid(vals / lam_grid, lam_grid))
        rows.append({"E": float(E), "normK": float(normK),
                     "normA": float(nA[0]), "normB": float(nB[0]),
                     "integral_d9": integral})

    normKs = np.array([r["normK"] for r in rows])
    if len(rows) > 1 and np.all(normKs > 0):
        slope = float(np.polyfit(np.log(E_arr), np.log(normKs), 1)[0])
    else:
        slope = 0.0
    bvals = np.array([r["normB"] for r in rows])
    return {"rows": rows, "slope": slope,
            "monotone": bool(np.all(np.diff(normKs) <= 0)),
            "plateau_ratio": float(bvals.min() / bvals.max()) if bvals.max() > 0 else 0.0}
