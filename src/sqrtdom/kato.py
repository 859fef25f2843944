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
from the problem, whose operators arrive as their diagonals ``(lo, d, up)``,
the band layer's one format.  ``build_factorization`` holds the pair in the
P1 cell layout of the forms (``FactoredPerturbation``): per cell block, the
values at each cell's two nodes, and per node block, one value per retained
node.
A product with a factor (``_times``) reads its operand in node layout by
two slices per cell block, and the pair's n x n products ``B^H A``,
``A^H A`` and ``B^H B`` are cell sums (``assembly._cell_sum``), kept as
their diagonals.  Each adjoined pair obtains the block
``(I - K)^{-1} A R0`` that the formula uses from one n x n inverse, by the
push-through identity ``(I_m + A W)^{-1} A = A (I_n + W A)^{-1}`` with
``W = R0 B^H`` (``_solve_core``), and checks it by the residual of the m x m
system applied exactly.  Everything m-dimensional that the check reads,
``||I - K||_F`` included, comes from the three products, and the residual's
two norms from the blocks of the cell layout one at a time, each on one
column block of its operand (``_times_norm``), so no array with m rows is
formed, no m x m array and no m x n factor.  Each core takes its trace term
first, while its input resolvent is its only n x n array, and holds at
most ``X``, ``X^{-1}`` and ``Z`` beside it.  A shift where
``X = I_n + W A`` is singular, or within roundoff of it by a conditioning
guard on ``X``, is inadmissible (``AdmissibilityError``): ``X`` and
``I - K`` are singular at the same z, and each inverse bounds the other.
The decay norms are computed at the shifts a verdict reads and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .assembly import _cell_sum, _dense, _trim
from .matfun import (_band_matmul, _blocks, _gauge,
                     _principal_sqrt, _require_shifted, _residual_fails,
                     _squared_norm, is_hermitian, power_norms, power_start,
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


def _times(F, X: np.ndarray) -> np.ndarray:
    """``F X`` for a factor ``F``: a matrix, a vector that stands for the
    diagonal matrix it holds, or a factor ``(cells, nodes, keep)`` of a
    ``FactoredPerturbation``.

    Each cell block reads ``X`` in node layout by two slices, ``[:-1]`` at
    the cells' left nodes and ``[1:]`` at their right ones, where a node
    that a Dirichlet end removes reads a zero row; each node block scales
    the rows of ``X``.  A row of a cell block sums its left term and then
    its right one.
    """
    if not isinstance(F, tuple):
        return F[:, None] * X if F.ndim == 1 else F @ X
    cells, nodes, keep = F
    k, n = cells.shape[:2]
    Xn = X
    if keep.size < n + 1:
        Xn = np.zeros((n + 1, X.shape[1]), dtype=X.dtype)
        Xn[keep[0]:keep[-1] + 1] = X
    out = np.empty((k * n + nodes.size, X.shape[1]),
                   dtype=np.result_type(cells, X))
    # block by block, each product written in place: a 3-D broadcast or a
    # sum of fresh temporaries reads several times slower
    for rows, (left, right) in zip(out[:k * n].reshape(k, n, X.shape[1]),
                                   cells.transpose(0, 2, 1)):
        np.multiply(left[:, None], Xn[:-1], out=rows)
        rows += right[:, None] * Xn[1:]
    for rows, values in zip(out[k * n:].reshape(-1, *X.shape), nodes):
        np.multiply(values[:, None], X, out=rows)
    return out


def _times_norm(F: tuple, X: np.ndarray) -> float:
    """``||F X||_F`` for a factor ``(cells, nodes, keep)`` of a pair, from
    the blocks of ``_times`` taken on one column block of ``X`` at a time
    (``matfun._blocks``), so that no array with the m rows of ``F`` is
    formed and the padded copy of ``X`` and each product are one column
    block.  The squared norms add column block by column block, and within
    one in block order."""
    cells, nodes, keep = F
    n = cells.shape[1]
    total = 0.0
    for cols in _blocks(X.shape[1], n + 1):
        Xc = Xn = X[:, cols]
        if keep.size < n + 1:
            Xn = np.zeros((n + 1, Xc.shape[1]), dtype=X.dtype)
            Xn[keep[0]:keep[-1] + 1] = Xc
        for left, right in cells.transpose(0, 2, 1):
            rows = left[:, None] * Xn[:-1]
            rows += right[:, None] * Xn[1:]
            total += _squared_norm(rows)
        for values in nodes:
            total += _squared_norm(values[:, None] * Xc)
    return float(np.sqrt(total))


def _gram(F: tuple, G: tuple) -> tuple:
    """``F^H G`` for two factors of one pair, as its diagonals
    ``(lo, d, up)``: each cell's 2 x 2 element ``conj(f_s) g_t``, summed
    over the cell blocks, is summed onto the cell's nodes
    (``assembly._cell_sum``) and sliced to the retained ones (``_trim``), as
    the forms are, and the node blocks' ``conj(f) g`` is added to the main
    diagonal."""
    (Fc, Fn, keep), (Gc, Gn, _) = F, G
    Fc = Fc.conj()
    lo, d, up = _trim(_cell_sum(*((Fc[..., s] * Gc[..., t]).sum(axis=0)
                                  for s in (0, 1) for t in (0, 1))), keep)
    return lo, d + (Fn.conj() * Gn).sum(axis=0), up


@dataclass
class FactoredPerturbation:
    """The pair (A, B) with ``B^H A`` equal to the perturbation form matrix.

    Each factor is ``(cells, nodes, keep)`` in the P1 cell layout:
    ``cells[b, i]`` holds cell block b's values at cell i's nodes i and
    i + 1, ``nodes[b]`` node block b's value at each retained node, and
    ``keep`` the retained nodes, a contiguous range.  The rows of a factor
    are its cell blocks' rows, block by block and cell by cell, then its
    node blocks'.  Every path multiplies by the pair through ``_times``.
    """

    A: tuple
    B: tuple

    @cached_property
    def products(self) -> tuple:
        """``(B^H A, A^H A, B^H B)``, the n x n products every factored core
        of this pair reads, as diagonals (``_gram``), formed on the first
        core and kept for the pair's other shifts; the decay norms never
        read them."""
        return (_gram(self.B, self.A), _gram(self.A, self.A),
                _gram(self.B, self.B))


def _sampling_blocks(prob: Problem):
    """Midpoint value/derivative blocks in L2-orthonormal coordinates, in
    the cell layout.

    Row i of ``V`` maps an orthonormal vector to the sqrt(h)-weighted
    midpoint value of its nodal interpolant on cell i and row i of ``G`` to
    the weighted slope there, so that plain matrix adjoints implement the L2
    pairings exactly.  Returns ``(V, G)``, each n x 2: the values at cell
    i's nodes i and i + 1, zero at a node that a Dirichlet end removes.
    """
    n, h = prob.mesh.n_cells, prob.mesh.h
    winv = np.zeros(n + 1)
    winv[prob.forms.dof_nodes] = prob.forms.orthonormal_scaling
    winv = np.stack([winv[:-1], winv[1:]], axis=1)
    return ((np.sqrt(h) / 2) * winv,
            (np.array([-1.0, 1.0]) / np.sqrt(h)) * winv)


def build_factorization(prob: Problem, variant: str) -> FactoredPerturbation:
    """Build the (A, B) pair of ``prob`` for the requested perturbation split.

    ``qr_pair`` factors the convection-by-r plus potential terms (A stacks
    the derivative block over the unimodular-phase square-rooted potential,
    B the conjugated-r multiplication over the plain square root);
    ``s_pair`` factors the divergence-form convection with A the negated
    s-multiplication; ``full_triple`` stacks all three blocks.  The blocks
    live on the retained nodes of ``prob.forms``, the potential is the
    lumped nodal average ``prob.lumped_average(q)``, and in every case
    ``B^H A`` equals the corresponding form matrix exactly.  The derivative
    and convection blocks are cell blocks of ``_sampling_blocks``, the
    potential blocks node blocks (see ``FactoredPerturbation``), and no
    dense block is formed.
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

    r_block = np.conj(coeffs.r)[:, None] * V
    # the derivative enters the s-side negated: the finite-dimensional
    # adjoint supplies no integration-by-parts sign of its own
    sa_block, sb_block = -(coeffs.s[:, None] * V), -G
    if variant == "qr_pair":
        A, B = ([G], [phase * rootq]), ([r_block], [rootq])
    elif variant == "s_pair":
        A, B = ([sa_block], []), ([sb_block], [])
    else:
        A = ([G, sa_block], [phase * rootq])
        B = ([r_block, sb_block], [rootq])
    keep = prob.forms.dof_nodes

    def factor(cells, nodes):
        return (np.array(cells, dtype=complex),
                np.array(nodes, dtype=complex).reshape(len(nodes), keep.size),
                keep)

    return FactoredPerturbation(A=factor(*A), B=factor(*B))


def kato_K(H0: tuple, fact: FactoredPerturbation,
           z: complex) -> np.ndarray:
    """The compressed resolvent ``K(z) = -A (R0 B^H)`` with
    ``R0 = (H0 - z)^{-1}``, ``H0`` the diagonals ``(lo, d, up)`` of the base
    operator, with ``R0 B^H`` formed as ``(B R0^H)^H`` through the cell
    layout of ``B``."""
    RB = _times(fact.B, resolvent(H0, z).conj().T).conj().T
    return -_times(fact.A, RB)


def _inverse(X: np.ndarray) -> np.ndarray | None:
    """``X^{-1}``, LAPACK's ``getri`` on the ``getrf`` factors, which it
    overwrites; None at a zero pivot."""
    getrf, getri, getri_lwork = sla.get_lapack_funcs(
        ("getrf", "getri", "getri_lwork"), (X,))
    lu, piv, info = getrf(X)
    if info == 0:
        lu, info = getri(lu, piv, lwork=int(getri_lwork(X.shape[0])[0].real),
                         overwrite_lu=True)
    return lu if info == 0 else None


def _solve_core(R: np.ndarray, fact: FactoredPerturbation, z: complex,
                stage: str) -> np.ndarray:
    """Adjoin ``B^H A`` to the resolvent ``R``:
    ``R - R B^H (I - K)^{-1} A R`` with ``K = -A R B^H``, from n x n work
    only, with a residual check and a conditioning guard.

    ``A`` and ``B`` are m x n.  With ``W = R B^H``, the n x n products
    ``V = B^H A``, ``G_A = A^H A`` and ``G_B = B^H B`` (``fact.products``,
    tridiagonal for the pair of ``build_factorization``, kept as diagonals
    and formed once per pair) carry everything m-dimensional that the check
    reads; ``R V`` and ``G_A R G_B`` are band products
    (``matfun._band_matmul``):

    - ``X = I_n + R V`` equals ``I_n + W A``, and the push-through identity
      ``A X = (I_m + A W) A`` gives ``(I - K)^{-1} A R = A Z`` with
      ``Z = X^{-1} R``.  By Sylvester's identity
      ``det(I_m + A W) = det(I_n + W A)``, so ``X`` and ``I - K`` are
      singular at the same z.  ``X^{-1}`` is LAPACK's ``getri`` on the
      ``getrf`` factors, and a zero pivot is inadmissible.
    - The adjoined resolvent is ``R - W A Z = R - (X - I) Z = Z - D`` with
      ``D = X Z - R``.
    - The residual of the m x m system applied exactly is
      ``(I - K) A Z - A R = A D``.  ``||A D||_F`` must stay within
      ``matfun._RESIDUAL_TOL ||I - K||_F ||A Z||_F``, which proves that
      ``A Z`` solves it whatever produced it; a singular ``X`` or a failed
      (or NaN) residual means 1 is in the spectrum of K.
    - ``||I - K||_F^2 = m + 2 Re tr(X - I_n) + tr(R^H G_A R G_B)`` exactly,
      from ``tr(A W) = tr(W A)`` and ``||A W||_F^2 = tr(W^H G_A W)``.

    So the check compares the same quantities as the explicit m x m system
    in exact arithmetic, while no array with m rows or columns and no
    dense product with inner dimension m is formed: ``||A D||_F`` and
    ``||A Z||_F`` are taken block by block in the cell layout, one column
    block of ``D`` or ``Z`` at a time (``_times_norm``).

    The order bounds the working set.  The trace term comes first, while
    ``R`` is the only n x n array: ``R G_B`` whole, then ``G_A R G_B`` by
    column blocks (``matfun._blocks``), each reduced against the same
    columns of ``R``.  The guard's value below is read next, before ``Z``
    is formed, so that ``X^{-1}`` goes once ``Z`` is and ``D`` never meets
    it; the residual check still raises before the guard.

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
    A = fact.A
    V, GA, GB = fact.products
    n = R.shape[0]
    # tr(R^H G_A R G_B), with R G_B = (G_B^T R^T)^T
    RGB = _band_matmul(GB[::-1], R.T).T
    gram = sum(np.vdot(R[:, cols], _band_matmul(GA, RGB[:, cols])).real
               for cols in _blocks(n, n))
    del RGB
    X = _band_matmul(V[::-1], R.T).T  # R V = (V^T R^T)^T
    X[np.diag_indices_from(X)] += 1.0
    Xinv = _inverse(X)
    if Xinv is None:
        raise AdmissibilityError(f"{label}1 in spectrum of K(z) at z = {z}")
    # the guard's value, read before Z is formed so that X^{-1} goes once Z
    # is; a non-finite core reads nan, and fails the residual check first
    with np.errstate(invalid="ignore"):
        guard = spectral_norm(Xinv) * np.linalg.norm(X)
    Z = Xinv @ R
    del Xinv
    trace_X = np.trace(X).real
    D = X @ Z
    del X
    D -= R
    m = A[0].shape[0] * A[0].shape[1] + A[1].size  # the rows of A
    norm_ImK = np.sqrt(m + 2.0 * (trace_X - n) + gram)
    if _residual_fails(_times_norm(A, D), norm_ImK * _times_norm(A, Z)):
        raise AdmissibilityError(f"{label}1 in spectrum of K(z) at z = {z}")
    if guard > 1e13:
        raise AdmissibilityError(
            f"{label}1 within roundoff of the spectrum of K(z) at z = {z}")
    Z -= D
    return Z


def perturbed_resolvent(R0: np.ndarray, fact: FactoredPerturbation,
                        z: complex) -> np.ndarray:
    """Resolvent of ``H0 + B^H A`` through the factored identity, from the
    base resolvent ``R0 = (H0 - z)^{-1}``."""
    return _solve_core(R0, fact, z, "")


def verify_identity(prob: Problem) -> dict:
    """Check both factored paths to the resolvent of the operator of
    ``prob``.

    From the base operator ``H0``, the one-shot path adjoins the full triple
    and the two-step path (``TwoStepResolvent``) the r/q terms and then the
    s term, both to the one base resolvent of a shift, and each is compared
    with one direct resolvent.  The shifts are ``z = -E, -2E, -E + iE`` with
    ``E = safe_shift(H) + safe_shift(H0) + 10``.  Both operators are taken
    as their diagonals (``prob.diagonals()``, ``prob.base_diagonals()``),
    so no dense operator is formed.  A shift where either path is
    inadmissible is excluded and reported.  ``records`` holds per shift
    ``z`` the relative Frobenius error of each path, keyed by its name in
    ``PATHS``, and ``max_error`` the maximum per path.
    """
    closure = TwoStepResolvent(prob)
    fact = build_factorization(prob, "full_triple")
    H = prob.diagonals()
    E = safe_shift(H) + safe_shift(closure.H0) + 10.0
    records, excluded = [], []
    for z in (complex(-E), complex(-2 * E), complex(-E, E)):
        try:
            records.append({"z": z, **_path_errors(H, closure, fact, z)})
        except AdmissibilityError:
            excluded.append(z)
    return {"max_error": {path: max((r[path] for r in records), default=0.0)
                          for path in PATHS},
            "records": records, "excluded": excluded}


def _path_errors(H: tuple, closure: TwoStepResolvent,
                 fact: FactoredPerturbation, z: complex) -> dict:
    """The relative Frobenius error of each path of ``verify_identity`` at
    ``z``, keyed by its name in ``PATHS``, against the direct resolvent of
    the diagonals ``H``.  The two-step path runs first, so that its two
    cores see no resolvent of the other path; each error overwrites its
    path's resolvent, and the shift's arrays go on return."""
    R0 = resolvent(closure.H0, z)
    two_step = closure(z, R0)
    paths = {"full_triple": perturbed_resolvent(R0, fact, z),
             "two_step": two_step}
    del R0, two_step
    R = resolvent(H, z)
    scale = np.linalg.norm(R)
    for Rp in paths.values():
        Rp -= R
    return {path: float(np.linalg.norm(Rp) / scale)
            for path, Rp in paths.items()}


class TwoStepResolvent:
    """Composed resolvent of the operator of ``prob``: to the resolvent of
    the base operator ``H0``, kept as its diagonals
    (``prob.base_diagonals()``), first adjoin the r/q terms (``qr_pair``),
    then the s term (``s_pair``), both pairs built once here for all
    shifts; ``verify_identity`` reuses ``H0``."""

    def __init__(self, prob: Problem):
        self.H0 = prob.base_diagonals()
        self.fact_qr = build_factorization(prob, "qr_pair")
        self.fact_s = build_factorization(prob, "s_pair")

    def __call__(self, z: complex, R0: np.ndarray) -> np.ndarray:
        """The resolvent at ``z`` from ``R0 = (H0 - z)^{-1}``."""
        R1 = _solve_core(R0, self.fact_qr, z, "stage 1 (r, q):")
        return _solve_core(R1, self.fact_s, z, "stage 2 (s):")


def _unitary_gauge(band: tuple) -> tuple | None:
    """``(d_ref + c mu, D V)`` when the gauge of the tridiagonal H with
    diagonals ``band`` (``matfun._gauge``) has S real and every
    ``|g_k| = 1`` within the residual rule, so that ``D V`` is unitary and
    ``H = (D V) diag(d_ref + c mu) (D V)^H``; else None."""
    if (gauge := _gauge(band)) is None:
        return None
    g, d_ref, c, mu, V, corner = gauge
    if corner is not None or _residual_fails(np.abs(np.abs(g) - 1.0), 1.0):
        return None
    return d_ref + c * mu, g[:, None] * V


# per-block cap on stacked n x n entries of the Schur path's shift factors
_BLOCK_ENTRIES = 2 ** 16


class _InvSqrtShifted:
    """Norms of products with ``F_c = (T0 + c)^{-1/2}`` and ``(T0 + c)^{-1}``
    over many shifts ``c``, from one factorization of ``T0``, by one of
    three paths, named in ``path``.  ``T0`` arrives as its diagonals
    ``(lo, d, up)``, cast to complex, and is formed densely only for
    ``eigh`` and the Schur form.

    - ``hermitian``: ``T0`` is diagonalized once (``eigh``).
    - ``normal``: the discrete Liouville gauge (``matfun._gauge``) takes
      ``T0`` to ``D (d_ref I + c S) D^-1`` with S real and
      ``|g_k| = 1`` (constant complex p with Dirichlet or Neumann ends), so
      the basis ``D V`` of ``eigh_tridiagonal(S)`` is unitary.
    - ``schur``: any other ``T0`` (a complex Robin end, varying complex p)
      takes the complex Schur form ``T0 = Q U Q^H`` once, and each shift's
      factors are the inverses of ``U + c`` and of its triangular principal
      root (``matfun._principal_sqrt``, batched over shifts and
      residual-checked), stacked in blocks of at most ``2**16 // n**2``
      shifts.

    On the first two paths each shift's factors are diagonal, complex on
    the normal path and conjugated on the adjoint side.  The eigenvalues
    plus ``c`` (``diag(U) + c`` on the Schur path) first pass the one
    eigenvalue guard (``matfun._require_shifted``), all shifts at once.  A
    factor ``X`` enters only through ``X Q`` (or ``X V``) and its Gram, each
    formed once per ``norms`` call, and all shifts of a block run in one
    ``power_norms`` per norm.  Outside the Hermitian path each norm equals,
    in exact arithmetic, ``spectral_norm`` of the explicit product, since
    the start vector is carried into the basis coordinates.
    """

    def __init__(self, band: tuple):
        band = tuple(np.asarray(x, dtype=complex) for x in band)
        if is_hermitian(band):
            self.path = "hermitian"
            self.diag, self.basis = np.linalg.eigh(_dense(band))
        elif (normal := _unitary_gauge(band)) is not None:
            self.path = "normal"
            self.diag, self.basis = normal
        else:
            self.path = "schur"
            self.U, self.basis = sla.schur(_dense(band), output="complex")
            self.diag = np.diag(self.U)

    def _factors(self, shifts: np.ndarray):
        """``(half, inv)`` per block of shifts: ``(T0 + c)^{-1/2}`` and
        ``(T0 + c)^{-1}`` in the basis for each shift c of the block, as
        diagonals in one block outside the Schur path."""
        if self.path != "schur":
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
        if self.path != "schur":  # a diagonal
            return (F.conj() if adjoint else F) * X
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

    def norms(self, shifts, A, B=None) -> tuple[np.ndarray, ...]:
        """Per shift c, ``||A F_c||`` and, given ``B``, also ``||F_c B^H||``
        and ``||A (T0 + c)^{-1} B^H|| = ||K(-c)||``, in this order.  ``A``
        and ``B`` are factors as ``_times`` takes them: matrices, a
        multiplier's diagonal or a pair's factors in the cell layout.

        The A product starts in ``C^n``.  The K product starts in ``C^m``
        (``m`` rows of ``B``), and so does the B product outside the
        Hermitian path; on that path the B product, as ``B V D_c``, starts in
        ``C^n``, from the start vector itself.
        """
        shifts = np.asarray(shifts, dtype=float)
        shifted = self.diag[None, :] + shifts[:, None]
        _require_shifted(shifted)
        AV = _times(A, self.basis)
        WA = AV.conj().T @ AV
        x0 = power_start(self.basis.shape[0])
        hermitian = self.path == "hermitian"
        start = x0 if hermitian else self.basis.conj().T @ x0
        if B is not None:
            BV = _times(B, self.basis)
            WB = BV.conj().T @ BV
            start_m = BV.conj().T @ power_start(BV.shape[0])
        blocks = []
        for half, inv in self._factors(shifts):
            block = [self._run(half, start, inner=WA)]
            if B is not None:
                block += [self._run(half, start, inner=WB) if hermitian
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
