"""Factored perturbations, the associated resolvent identity and the shift
decay of the factored pieces.

A lower-order perturbation of the base operator is written as ``B* A`` over an
auxiliary space built from cell-midpoint sampling blocks, so that the factored
resolvent

    R(z) = R0(z) - R0(z) B* [I - K(z)]^{-1} A R0(z),   K(z) = -A R0(z) B*,

reproduces the one-shot discretization exactly at the matrix level (LU
roundoff only).  That exactness is the primary oracle of this module:
``verify_identity`` checks it for a ``Problem``, with all three lower-order
terms adjoined at once and in two steps (r/q, then s), at shifts it derives
from the problem.  Each row of ``A`` and ``B`` has at most two nonzeros, so
``build_factorization`` returns the pair as CSR arrays and every product
with it is sparse.  Each adjoined pair obtains the block
``(I - K)^{-1} A R0`` that the formula uses from one n x n inverse, by the
push-through identity ``(I_m + A W)^{-1} A = A (I_n + W A)^{-1}`` with
``W = R0 B^H`` (``_solve_core``), and checks it by the residual of the m x m
system applied exactly.  A shift where ``X = I_n + W A`` is singular, or
within roundoff of it by a conditioning guard on ``X``, is inadmissible
(``AdmissibilityError``): ``X`` and ``I - K`` are singular at the same z, and
each inverse bounds the other.  The decay norms are computed at the
shifts a verdict reads and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .matfun import (_principal_sqrt, _require_off_cut, _require_shifted,
                     _residual_fails, is_hermitian, power_norms, power_start,
                     resolvent, spectral_norm)
from .problems import Problem
from .sectorial import safe_shift

__all__ = [
    "FactoredPerturbation",
    "AdmissibilityError",
    "build_factorization",
    "kato_K",
    "perturbed_resolvent",
    "verify_identity",
    "TwoStepResolvent",
    "decay_profile",
]

VARIANTS = ("qr_pair", "s_pair", "full_triple")
PATHS = ("full_triple", "two_step")  # verify_identity's two factored paths


class AdmissibilityError(RuntimeError):
    """Raised when 1 lies in the spectrum of K(z) at the requested point."""


@dataclass
class FactoredPerturbation:
    """The pair (A, B) with ``B^H A`` equal to the perturbation form matrix.
    ``build_factorization`` returns it as CSR arrays, and every path
    multiplies by the pair as it is given."""

    A: sp.csr_array
    B: sp.csr_array


def _sampling_blocks(prob: Problem):
    """Midpoint value/derivative blocks in L2-orthonormal coordinates.

    ``V`` maps an orthonormal vector to sqrt(h)-weighted midpoint values of
    its nodal interpolant and ``G`` to the weighted cell slopes, so that
    plain matrix adjoints implement the L2 pairings exactly.
    """
    n, h = prob.mesh.n_cells, prob.mesh.h
    V = np.zeros((n, n + 1))
    G = np.zeros((n, n + 1))
    rows = np.arange(n)
    V[rows, rows] = np.sqrt(h) / 2
    V[rows, rows + 1] = np.sqrt(h) / 2
    G[rows, rows] = -1.0 / np.sqrt(h)
    G[rows, rows + 1] = 1.0 / np.sqrt(h)
    keep = prob.forms.dof_nodes
    winv = prob.forms.orthonormal_scaling
    return V[:, keep] * winv[None, :], G[:, keep] * winv[None, :]


def build_factorization(prob: Problem, variant: str) -> FactoredPerturbation:
    """Build the (A, B) pair of ``prob`` for the requested perturbation split.

    ``qr_pair`` factors the convection-by-r plus potential terms (A stacks
    the derivative block over the unimodular-phase square-rooted potential,
    B the conjugated-r multiplication over the plain square root);
    ``s_pair`` factors the divergence-form convection with A the negated
    s-multiplication; ``full_triple`` stacks all three blocks.  The blocks
    live on the retained nodes of ``prob.forms``, the potential is the
    lumped nodal average ``prob.lumped_average(q)``, and in every case
    ``B^H A`` equals the corresponding form matrix exactly.  Each row of
    ``A`` and ``B`` holds at most two nonzeros, so both are returned as CSR
    arrays.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    coeffs = prob.coeffs
    V, G = _sampling_blocks(prob)
    qt = prob.lumped_average(coeffs.q)
    absq = np.abs(qt)
    # principal argument with Arg(0) := 0, so vanishing samples give zero rows
    phase = np.where(absq > 0, qt / np.where(absq > 0, absq, 1.0), 1.0)
    rootq = np.sqrt(absq)

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
    return FactoredPerturbation(A=sp.csr_array(A), B=sp.csr_array(B))


def kato_K(H0: np.ndarray, fact: FactoredPerturbation,
           z: complex) -> np.ndarray:
    """The compressed resolvent ``K(z) = -A (R0 B^H)`` with
    ``R0 = (H0 - z)^{-1}``, through the sparse products of ``_woodbury``."""
    RB = (fact.B @ resolvent(H0, z).conj().T).conj().T
    return -(fact.A @ RB)


def _solve_core(ImK: np.ndarray, A, RB: np.ndarray, R: np.ndarray,
                z: complex, stage: str) -> np.ndarray:
    """``R B^H (I - K)^{-1} A R`` from ``ImK = I - K = I + A (R B^H)``, with
    a residual check and a conditioning guard.

    The block comes from one n x n inverse (``A`` is m x n): with
    ``W = R B^H`` and ``X = I_n + W A``, the push-through identity
    ``(I_m + A W)^{-1} A = A (I_n + W A)^{-1}`` (both sides are the
    solution of ``(I_m + A W) Y = A``, since ``A X = (I_m + A W) A``) gives
    ``Y = (I - K)^{-1} A R = A (X^{-1} R)``.  No system with m right-hand
    sides is solved and no m x m array is formed.  By Sylvester's identity
    ``det(I_m + A W) = det(I_n + W A)``, so ``X`` and ``I - K`` are singular
    at the same z.

    The returned ``R B^H Y`` also gives the residual of the m x m system
    applied exactly through the factor ``A``:
    ``||Y + A (R B^H Y) - A R||_F`` must stay within
    ``matfun._RESIDUAL_TOL ||I - K||_F ||Y||_F``, which proves that ``Y``
    solves it whatever produced it; a singular ``X`` or a failed (or NaN)
    residual means 1 is in the spectrum of K.
    Backward-stable solves do not flag near-singularity on their own, so the
    admissibility boundary is also detected on the matrix that is factored,
    through ``spectral_norm(X^{-1}) ||X||_F > 1e13``:

    - ``||X||_F`` is an upper estimate of ``||X||_2``, at most ``sqrt(n)``
      too high.  Near singularity the top singular value of ``X^{-1}``,
      ``1 / sigma_min``, stands alone, so the power iteration converges
      within a few steps and the product reads about cond_2(X) or more.
    - The two inverses bound each other:
      ``(I - K)^{-1} = I_m - A X^{-1} W`` and
      ``X^{-1} = I_n - W (I - K)^{-1} A`` give
      ``||(I - K)^{-1}|| <= 1 + ||A|| ||W|| ||X^{-1}||`` and
      ``||X^{-1}|| <= 1 + ||W|| ||A|| ||(I - K)^{-1}||``, so one blows up
      exactly when the other does.
    - The guard can only exclude a shift, and ``cmd_verify_kato`` fails any
      run with an excluded shift.  A shift it admits is still judged by the
      exact relative error of the factored resolvent against the direct
      one and ``TOL_KATO``, so an under-read guard cannot turn a FAIL into
      a PASS.
    - Away from singularity the product sits orders of magnitude below the
      threshold: the 135 cores of perfbench's 15 ``verify-kato`` runs
      (n = 150) have cond_2(X) between 1.03 and 10.7, and the guard reads
      12.2 to 38.1 on them.
    """
    label = f"{stage} " if stage else ""
    X = (A.T @ RB.T).T  # W A through the sparse A
    X[np.diag_indices_from(X)] += 1.0
    try:
        Xinv = np.linalg.inv(X)
    except np.linalg.LinAlgError as exc:
        raise AdmissibilityError(
            f"{label}1 in spectrum of K(z) at z = {z}") from exc
    Y = A @ (Xinv @ R)
    RBY = RB @ Y
    residual = np.linalg.norm(Y + A @ RBY - A @ R)
    if _residual_fails(residual, np.linalg.norm(ImK) * np.linalg.norm(Y)):
        raise AdmissibilityError(f"{label}1 in spectrum of K(z) at z = {z}")
    if spectral_norm(Xinv) * np.linalg.norm(X) > 1e13:
        raise AdmissibilityError(
            f"{label}1 within roundoff of the spectrum of K(z) at z = {z}")
    return RBY


def _woodbury(R: np.ndarray, fact: FactoredPerturbation, z: complex,
              stage: str) -> np.ndarray:
    """Adjoin ``B^H A`` to the resolvent ``R``:
    ``R - R B^H (I - K)^{-1} A R`` with ``K = -A R B^H``.

    The products with ``R`` take the pair as given, sparse from
    ``build_factorization``; ``R B^H`` is formed as ``(B R^H)^H``."""
    RB = (fact.B @ R.conj().T).conj().T
    ImK = fact.A @ RB
    ImK[np.diag_indices_from(ImK)] += 1.0
    return R - _solve_core(ImK, fact.A, RB, R, z, stage)


def perturbed_resolvent(R0: np.ndarray, fact: FactoredPerturbation,
                        z: complex) -> np.ndarray:
    """Resolvent of ``H0 + B^H A`` through the factored identity, from the
    base resolvent ``R0 = (H0 - z)^{-1}``."""
    return _woodbury(R0, fact, z, "")


def verify_identity(prob: Problem) -> dict:
    """Check both factored paths to the resolvent of ``prob.H``.

    From the base operator ``H0``, the one-shot path adjoins the full triple
    and the two-step path (``TwoStepResolvent``) the r/q terms and then the
    s term, both to the one base resolvent of a shift, and each is compared
    with one direct resolvent.  The shifts are ``z = -E, -2E, -E + iE`` with
    ``E = safe_shift(H) + safe_shift(H0) + 10``.  A shift where either path
    is inadmissible is excluded and reported.  ``records`` holds per shift
    ``z`` the relative Frobenius error of each path, keyed by its name in
    ``PATHS``, and ``max_error`` the maximum per path.
    """
    closure = TwoStepResolvent(prob)
    fact = build_factorization(prob, "full_triple")
    E = safe_shift(prob.H) + safe_shift(closure.H0) + 10.0
    records, excluded = [], []
    for z in (complex(-E), complex(-2 * E), complex(-E, E)):
        R0 = resolvent(closure.H0, z)
        try:
            paths = {"full_triple": perturbed_resolvent(R0, fact, z),
                     "two_step": closure(z, R0)}
        except AdmissibilityError:
            excluded.append(z)
            continue
        R = resolvent(prob.H, z)
        scale = np.linalg.norm(R)
        records.append({"z": z, **{path: float(np.linalg.norm(Rp - R) / scale)
                                   for path, Rp in paths.items()}})
    return {"max_error": {path: max((r[path] for r in records), default=0.0)
                          for path in PATHS},
            "records": records, "excluded": excluded}


class TwoStepResolvent:
    """Composed resolvent of ``prob.H``: to the resolvent of the base
    operator ``H0``, assembled once here, first adjoin the r/q terms
    (``qr_pair``), then the s term (``s_pair``), both pairs built once here
    for all shifts; ``verify_identity`` reuses ``H0``."""

    def __init__(self, prob: Problem):
        self.H0 = prob.base_operator()
        self.fact_qr = build_factorization(prob, "qr_pair")
        self.fact_s = build_factorization(prob, "s_pair")

    def __call__(self, z: complex, R0: np.ndarray) -> np.ndarray:
        """The resolvent at ``z`` from ``R0 = (H0 - z)^{-1}``."""
        R1 = _woodbury(R0, self.fact_qr, z, "stage 1 (r, q):")
        return _woodbury(R1, self.fact_s, z, "stage 2 (s):")


# per-block cap on stacked n x n entries of the Schur path's shift factors
_BLOCK_ENTRIES = 2 ** 16


class _InvSqrtShifted:
    """Norms of products with ``F_c = (T0 + c)^{-1/2}`` and ``(T0 + c)^{-1}``
    over many shifts ``c``, from one factorization of ``T0``.

    Hermitian ``T0`` is diagonalized once (``eigh``), so each shift's factors
    are diagonal.  Otherwise the complex Schur form ``T0 = Q U Q^H`` is taken
    once, and each shift's factors are the inverses of ``U + c`` and of its
    triangular principal root (``matfun._principal_sqrt``, batched over
    shifts and residual-checked), stacked in blocks of at most
    ``2**16 // n**2`` shifts.  The eigenvalues plus ``c`` (``diag(U) + c`` on
    the Schur path) pass the branch-cut guard and then the shift rule
    (``matfun._require_shifted``) first.  A factor ``X`` enters
    only through ``X Q`` (or ``X V``) and its Gram, each formed once per
    ``norms`` call, and all shifts of a block run in one ``power_norms`` per
    norm.  Each norm equals, in exact arithmetic, ``spectral_norm`` of the
    explicit product, since the start vector is carried into the basis
    coordinates.
    """

    def __init__(self, H: np.ndarray):
        H = np.asarray(H, dtype=complex)
        self.hermitian = is_hermitian(H)
        if self.hermitian:
            self.diag, self.basis = np.linalg.eigh(H)
        else:
            self.U, self.basis = sla.schur(H, output="complex")
            self.diag = np.diag(self.U)

    def _factors(self, shifts: np.ndarray):
        """``(half, inv)`` per block of shifts: ``(T0 + c)^{-1/2}`` and
        ``(T0 + c)^{-1}`` in the basis for each shift c of the block, as
        diagonals on the Hermitian path, which has one block."""
        if self.hermitian:
            shifted = self.diag[None, :] + shifts[:, None]
            yield shifted ** -0.5, shifted ** -1.0
            return
        n = self.U.shape[0]
        step = max(1, _BLOCK_ENTRIES // n ** 2)
        for lo in range(0, shifts.size, step):
            T = self.U + shifts[lo:lo + step, None, None] * np.eye(n)
            yield np.linalg.inv(_principal_sqrt(T)), np.linalg.inv(T)

    def _apply(self, F: np.ndarray, X: np.ndarray,
               adjoint: bool = False) -> np.ndarray:
        """Row j of ``X`` through ``F[j]`` (``F[j]^H`` with ``adjoint``)."""
        if self.hermitian:
            return F * X  # real diagonal
        if adjoint:  # F^H x = conj(x^H F)
            return np.matmul(X.conj()[:, None, :], F)[:, 0, :].conj()
        return np.matmul(F, X[:, :, None])[:, :, 0]

    def _run(self, F, start, inner=None, outer=None) -> np.ndarray:
        """``power_norms`` over the factors ``F`` of one block, from the
        basis-coordinate state ``start`` of the unit start iterate.  A step
        takes the state ``u`` to ``v = F^H inner F u`` and the new state
        ``outer v``, whose iterate has norm ``sqrt(v^H outer v)``; a missing
        ``inner`` or ``outer`` is the identity."""
        def step(X, idx):
            Fi = F[idx]
            V = self._apply(Fi, X)
            if inner is not None:
                V = V @ inner.T
            V = self._apply(Fi, V, adjoint=True)
            Y = V if outer is None else V @ outer.T
            sq = np.einsum("ij,ij->i", V.conj(), Y).real
            return Y, np.sqrt(np.maximum(sq, 0.0))
        return power_norms(step, np.tile(start, (F.shape[0], 1)))

    def norms(self, shifts, A: np.ndarray,
              B: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
        """Per shift c, ``||A F_c||`` and, given ``B``, also ``||F_c B^H||``
        and ``||A (T0 + c)^{-1} B^H|| = ||K(-c)||``, in this order.

        The A product starts in ``C^n``.  The K product starts in ``C^m``
        (``m`` rows of ``B``), and so does the B product on the Schur path;
        on the Hermitian path the B product, as ``B V D_c``, starts in
        ``C^n``.
        """
        shifts = np.asarray(shifts, dtype=float)
        shifted = self.diag[None, :] + shifts[:, None]
        _require_off_cut(shifted)
        _require_shifted(shifted)
        AV = A @ self.basis
        WA = AV.conj().T @ AV
        x0 = power_start(self.basis.shape[0])
        start = x0 if self.hermitian else self.basis.conj().T @ x0
        if B is not None:
            BV = B @ self.basis
            WB = BV.conj().T @ BV
            start_m = BV.conj().T @ power_start(BV.shape[0])
        blocks = []
        for half, inv in self._factors(shifts):
            block = [self._run(half, start, inner=WA)]
            if B is not None:
                block += [self._run(half, start, inner=WB) if self.hermitian
                          else self._run(half, start_m, outer=WB),
                          self._run(inv, start_m, inner=WA, outer=WB)]
            blocks.append(block)
        return tuple(np.concatenate(norm) for norm in zip(*blocks))


def _loglog_slope(E: np.ndarray, norms: np.ndarray) -> float:
    """Least-squares slope of ``log norms`` against ``log E``: the one decay
    rate of a shift study.  ``E`` must hold at least two positive, strictly
    increasing shifts; the slope is ``nan`` unless every norm is positive."""
    if E.size < 2 or np.any(E <= 0) or np.any(np.diff(E) <= 0):
        raise ValueError("E grid needs at least two positive, strictly "
                         "increasing shifts")
    if not np.all(norms > 0):
        return float("nan")
    return float(np.polyfit(np.log(E), np.log(norms), 1)[0])


def decay_profile(halver: _InvSqrtShifted, fact: FactoredPerturbation,
                  E_list) -> dict:
    """Shift-decay diagnostics of the factored pieces over a shift grid.

    ``halver`` is ``_InvSqrtShifted(T0)`` of the base operator ``T0``, one
    factorization that the factor pairs of a study share.

    The arrays ``normK``, ``normA`` and ``normB`` hold, per shift of ``E``,
    ``||K(-E)||`` and the two half-power norms ``||A (T0+E)^{-1/2}||`` and
    ``||(T0+E)^{-1/2} B^H||``.  ``slope``, the log-log slope of
    ``||K(-E)||`` (``nan`` unless every K-norm is positive), quantifies the
    decay; the ratio min/max of the B-norm exposes a plateau when the
    factor contains a derivative block.
    """
    E = np.asarray(list(E_list), dtype=float)
    normA, normB, normK = halver.norms(E, fact.A, fact.B)
    return {"E": E, "normK": normK, "normA": normA, "normB": normB,
            "slope": _loglog_slope(E, normK),
            "monotone": bool(np.all(np.diff(normK) <= 0)),
            "plateau_ratio": (float(normB.min() / normB.max())
                              if normB.max() > 0 else 0.0)}
