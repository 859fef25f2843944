"""Complex matrix functions: resolvents, square roots, fractional powers and
the power iteration for operator norms.

Resolvents are solved in the band of their input: every operator the
package assembles is tridiagonal, and ``resolvent`` takes it as its three
diagonals ``(lo, d, up)`` or reads the bandwidths off a matrix's nonzero
pattern, so a dense input is simply its own full band, laid
out by the one band builder ``_band_storage`` and multiplied by the one
band product ``_band_matmul``, which the factored cores of ``kato`` share.
The roots and powers return
dense matrices; a tridiagonal input may also arrive as its three diagonals
``(lo, d, up)``, which ``_diagonals`` passes through as it reads them off a
matrix, so that its power is taken and root-checked with no dense input.

Verdicts take their powers from ``domains.matrix_power`` and their inverse
half powers from ``kato._InvSqrtShifted``.  Both read a tridiagonal input
through the one discrete Liouville gauge ``_gauge``: a diagonal similarity
that symmetrizes it, up to one complex boundary corner, and diagonalizes
the symmetric part with ``eigh_tridiagonal``.  ``matrix_power`` takes any
such input; ``_InvSqrtShifted`` takes the normal ones, whose similarity is
unitary, and diagonalizes Hermitian input by a dense ``eigh``.  Other
input takes one complex Schur form, whose triangular factor
``_principal_sqrt`` roots.  Their eigenvalues pass the one guard
``_require_shifted``, and every computed square root the one residual rule
``_require_root``.  The Denman-Beavers ``sqrt_db`` is left only to the
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
from functools import lru_cache

import numpy as np
import scipy.linalg as sla
from numpy.polynomial.legendre import leggauss

__all__ = [
    "QuadratureSpec",
    "SpectrumOnCutError",
    "ShiftBelowSpectrumError",
    "resolvent",
    "sqrt_db",
    "frac_power_quad",
    "trace_det_check",
    "spectral_norm",
    "power_norms",
    "power_start",
    "gauss_panels",
    "is_hermitian",
]


class SpectrumOnCutError(ValueError):
    """Raised when an eigenvalue sits on the branch cut (-inf, 0]."""


class ShiftBelowSpectrumError(ValueError):
    """Raised when a matrix that a positive shift should make accretive has
    an eigenvalue of negative real part: the shift lies below the
    spectrum's bottom."""


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


@lru_cache(maxsize=None)
def _legendre_rule(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed on the first
    use of each node count and shared read-only after."""
    x, w = leggauss(n_nodes)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_panels(edges: np.ndarray, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes/weights over consecutive panels."""
    x, w = _legendre_rule(n_nodes)
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        nodes.append(0.5 * (hi - lo) * x + 0.5 * (hi + lo))
        weights.append(0.5 * (hi - lo) * w)
    return np.concatenate(nodes), np.concatenate(weights)


def is_hermitian(H: np.ndarray | tuple) -> bool:
    """Hermitian to 1e-12 relative in the Frobenius norm.

    ``H`` is a matrix, or the diagonals ``(lo, d, up)`` of a tridiagonal
    one, whose norms are read off its 3n - 2 entries: ``H - H^H`` holds
    ``d - conj(d)`` and, twice up to sign and conjugation, ``lo - conj(up)``.
    A matrix whose norm overflows is not judged Hermitian, since any defect
    would pass against it; it takes the general routes, whose residual
    checks then fail (``_residual_fails``).
    """
    if isinstance(H, tuple):
        lo, d, up = H
        skew = lo - up.conj()
        defect, H = np.r_[d - d.conj(), skew, skew], np.r_[lo, d, up]
    else:
        defect = H - H.conj().T
    with np.errstate(over="ignore"):  # an overflowing norm fails below
        scale = np.linalg.norm(H)
    return bool(np.isfinite(scale)
                and np.linalg.norm(defect) <= 1e-12 * max(1.0, scale))


# The relative tolerance of every residual check: a computed inverse, root
# or solve stands when its residual is at most this times its scale.
_RESIDUAL_TOL = 1e-10


def _residual_fails(residual, scale) -> bool:
    """True unless every ``residual <= _RESIDUAL_TOL * scale``, elementwise
    for arrays.  A NaN residual fails, and so does a scale that is not
    finite: a quantity too large to represent has no scale to check
    against, and ``inf <= inf`` would pass any residual."""
    return not (np.all(np.isfinite(scale))
                and np.all(residual <= _RESIDUAL_TOL * scale))


def _bandwidths(H: np.ndarray) -> tuple[int, int]:
    """Lower and upper bandwidths ``(l, u)`` of the nonzero pattern of ``H``:
    ``H[i, j] = 0`` unless ``-l <= j - i <= u``.  A dense matrix is its own
    full band, and a zero matrix has ``(0, 0)``."""
    rows, cols = np.nonzero(H)
    if not rows.size:
        return 0, 0
    offsets = cols - rows
    return max(0, -int(offsets.min())), max(0, int(offsets.max()))


def _band_storage(H: np.ndarray | tuple, l: int, u: int) -> np.ndarray:
    """Diagonals ``-l..u`` of ``H``, in its dtype, in LAPACK band storage:
    ``ab[u - k, j] = H[j - k, j]``, zero elsewhere; ``u = 0`` is lower,
    ``l = 0`` upper.
    ``H`` is a matrix, or the diagonals ``(lo, d, up)`` of a tridiagonal
    one (``l, u <= 1``)."""
    band = isinstance(H, tuple)
    n = H[1].size if band else H.shape[0]
    ab = np.zeros((l + u + 1, n), dtype=np.result_type(*H) if band
                  else H.dtype)
    for k in range(-l, u + 1):
        ab[u - k, max(0, k):n + min(0, k)] = (H[k + 1] if band
                                              else np.diagonal(H, k))
    return ab


def _band_matmul(H: np.ndarray | tuple, l: int, u: int,
                 X: np.ndarray) -> np.ndarray:
    """``H X`` for the banded H with bandwidths ``(l, u)``, given in LAPACK
    band storage (``_band_storage``) or as the diagonals ``(lo, d, up)`` of
    a tridiagonal one (``l = u = 1``): one slice product per diagonal, the
    main diagonal's first, then the upper ones', then the lower ones'.  The
    result takes the memory layout of ``X``, so a transposed ``X`` gives
    ``X^T H^T`` transposed at no copy: ``(X H)^T = H^T X^T``, and ``H^T``
    has the diagonals ``(up, d, lo)``."""
    ab = _band_storage(H, l, u) if isinstance(H, tuple) else H
    n = X.shape[0]
    out = ab[u, :, None] * X
    for k in range(1, u + 1):  # H[i, i + k] = ab[u - k, i + k]
        out[:n - k] += ab[u - k, k:, None] * X[k:]
    for k in range(1, l + 1):  # H[i + k, i] = ab[u + k, i]
        out[k:] += ab[u + k, :n - k, None] * X[:n - k]
    return out


def _diagonals(H: np.ndarray | tuple) -> tuple | None:
    """``(lo, d, up)``, the three diagonals of a tridiagonal H.

    A tuple of them is returned unchanged, so a tridiagonal matrix and its
    diagonals take the same route; a matrix gives its diagonals when one
    read of its nonzero pattern (``_bandwidths``) finds it tridiagonal with
    n >= 2, and None otherwise."""
    if isinstance(H, tuple):
        return H
    if H.shape[0] < 2 or max(_bandwidths(H)) > 1:
        return None
    return np.diag(H, -1), np.diag(H), np.diag(H, 1)


# Largest cond(D) that ``_gauge`` accepts: roundoff grows with it, so worse
# input takes Schur, a complex corner included.  complex_constant,
# Dirichlet: <= 1.65 to n = 1024.
_MAX_SIMILARITY_COND = 1e2


def _gauge(band: tuple) -> tuple | None:
    """The discrete Liouville gauge of the tridiagonal H with diagonals
    ``band = (lo, d, up)``: ``(g, d_ref, c, mu, V, corner)``, or None unless
    every ``lo_k up_k != 0`` and the gauge applies.  Real diagonals are
    worked in real arithmetic.

    With ``e_k = sqrt(lo_k up_k)`` (principal branch) and ``D = diag(g)``,
    ``g_{k+1} / g_k = e_k / up_k``, ``D^-1 H D`` is symmetric tridiagonal
    with off-diagonal e.  The gauge applies when cond(D) is within
    ``_MAX_SIMILARITY_COND`` and that is ``d_ref I + c S``, ``d_ref = d_0``
    and ``c = e_0``, with S real (the one Hermitian test: S is symmetric);
    then ``corner`` is None and ``(mu, V) = eigh_tridiagonal(S)``, so that
    ``H = D V diag(d_ref + c mu) V^T D^-1``.  With ``|g_k| = 1`` the basis
    ``D V`` is unitary, and H normal.

    A boundary term that is no real multiple of c makes one corner ``S_kk``
    complex.  With ``d_ref`` the diagonal at the other end, the rest of S
    must be real; then ``corner = (k, beta)`` with
    ``S = S_r + i beta e_k e_k^T`` and ``(mu, V) = eigh_tridiagonal(S_r)``.
    Complex corners at both ends give None.
    """
    lo, d, up = band
    if not np.all(lo * up):
        return None
    e = np.emath.sqrt(lo * up)
    g = np.r_[1.0, e / up]
    if np.ptp(np.cumsum(np.log(np.abs(g)))) > np.log(_MAX_SIMILARITY_COND):
        return None  # cond(D) too large
    n, b = d.size, e / e[0]
    # S = tridiag(b, a, b), a = (d - d_ref) / c: real, or real but for one
    # corner a_k with d_ref the far end's diagonal.  Its entries give
    # is_hermitian the Frobenius norms of S and S - S^H, with no dense S
    for k, ref in ((None, 0), (n - 1, 0), (0, n - 1)):
        a = (d - d[ref]) / e[0]
        if is_hermitian(np.r_[a if k is None else np.delete(a, k), b, b]):
            break
    else:
        return None
    mu, V = sla.eigh_tridiagonal(a.real, b.real)
    corner = None if k is None else (k, a[k].imag)
    return np.cumprod(g), d[ref], e[0], mu, V, corner


# Entries of one block of a product that is only reduced to a norm: its
# transient arrays stay a small share of an n x n one.
_NORM_BLOCK_ENTRIES = 2 ** 11


def _blocks(count: int, length: int):
    """Slices that cover ``range(count)`` in order, each of at most
    ``_NORM_BLOCK_ENTRIES // length`` indices and at least one: the column
    blocks of an array whose columns hold ``length`` entries each, or its
    row blocks."""
    step = max(1, _NORM_BLOCK_ENTRIES // length)
    return (slice(j, min(j + step, count)) for j in range(0, count, step))


def _squared_norm(X: np.ndarray) -> float:
    """``||X||_F^2``, read in memory order: no copy of a contiguous block
    of either layout."""
    flat = X.ravel(order="K")
    return np.vdot(flat, flat).real


def _operator_band(H: np.ndarray | tuple) -> tuple:
    """``(H, l, u)``: ``H`` in complex with its bandwidths, read off a
    matrix's nonzero pattern (``_bandwidths``).  The diagonals
    ``(lo, d, up)`` of a tridiagonal matrix are its (1, 1) band with no
    scan, so both give the same band storage."""
    if isinstance(H, tuple):
        return tuple(np.asarray(x, dtype=complex) for x in H), 1, 1
    H = np.asarray(H, dtype=complex)
    return (H, *_bandwidths(H))


def resolvent(H: np.ndarray | tuple, z: complex) -> np.ndarray:
    """Solve ``(H - z) R = I`` in the band of ``H`` and verify the residual.

    ``H`` is a matrix, or the diagonals ``(lo, d, up)`` of a tridiagonal
    one, which go straight to its (1, 1) band (``_operator_band``), so no
    dense operator is read.  A matrix's bandwidths ``(l, u)`` come from its
    nonzero pattern (``_bandwidths``).  LAPACK's banded LU solves the
    system in place of its identity right-hand side: ``gtsv`` for the
    tridiagonal operators of the package, ``gbsv`` otherwise, in
    O((l + u) n^2) against the O(n^3) of a dense solve.  The residual
    ``||(H - z) R - I||_F`` goes through the same bands, one slice product
    per diagonal (``_band_matmul``), by column blocks of ``R``
    (``_blocks``), whose squared norms add in column order, so that ``R``
    is the only n x n array.  It must stay within
    ``_RESIDUAL_TOL max(1, ||H - z||_F ||R||_F)``.

    Raises ``ResolventError`` if the shifted matrix is singular, reporting
    ``z`` as (numerically) in the spectrum, or if the residual or that
    condition estimate is not finite (``_residual_fails``): a resolvent too
    large or too small to represent has no scale to check against.
    """
    H, l, u = _operator_band(H)
    ab = _band_storage(H, l, u)
    ab[u] -= z
    n = ab.shape[1]
    try:
        # a 1 x 1 system is a division, which flags a zero pivot this way
        with np.errstate(divide="raise"):
            # LAPACK's column-major identity, which the solve overwrites
            R = sla.solve_banded((l, u), ab,
                                 np.eye(n, dtype=complex, order="F"),
                                 overwrite_b=True, check_finite=False)
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        raise ResolventError(f"z = {z} lies in the spectrum") from exc
    # the residual by column blocks: R is the only n x n array
    squares = 0.0
    for cols in _blocks(n, n):
        block = _band_matmul(ab, l, u, R[:, cols])
        k = np.arange(block.shape[1])
        block[cols.start + k, k] -= 1.0
        squares += _squared_norm(block)
    residual = np.sqrt(squares)
    # an estimate that overflows, or reads inf * 0 = nan, fails below
    with np.errstate(over="ignore", invalid="ignore"):
        cond_est = np.linalg.norm(ab) * np.linalg.norm(R)
    if _residual_fails(residual, np.maximum(1.0, cond_est)):
        raise ResolventError(
            f"resolvent residual {residual:.2e} fails against the condition "
            f"estimate {cond_est:.2e} at z = {z}")
    return R


def _require_off_cut(evals: np.ndarray) -> None:
    """Raise ``SpectrumOnCutError`` if any of ``evals`` lies on (-inf, 0]
    or is not finite; the whole guard only of unshifted roots."""
    evals = np.asarray(evals)
    tol = 1e-12 * (np.abs(evals) + 1.0)
    on_cut = ~np.isfinite(evals) | ((evals.real <= tol)
                                    & (np.abs(evals.imag) <= tol))
    if np.any(on_cut):
        raise SpectrumOnCutError(
            f"eigenvalue(s) on (-inf, 0]: {evals[on_cut][:3]}")


# An eigenvalue counts as shifted into the closed right half-plane while its
# real part stays above -_SHIFT_TOL max(1, max |eigenvalue|).
_SHIFT_TOL = 1e-10


def _require_shifted(evals: np.ndarray) -> None:
    """The one eigenvalue guard of every power and shifted root, for one
    spectrum or each row of a stack, so the error class follows the
    eigenvalues, not the route.  A non-finite one raises
    ``SpectrumOnCutError``; a smallest real part below
    ``-_SHIFT_TOL max(1, max |evals|)``, left of where an accretive operator
    has spectrum, ``ShiftBelowSpectrumError``; one still on (-inf, 0]
    ``SpectrumOnCutError`` (``_require_off_cut``)."""
    evals = np.asarray(evals)
    if np.all(np.isfinite(evals)):
        lowest = evals.real.min(axis=-1)
        scale = np.maximum(1.0, np.abs(evals).max(axis=-1))
        if np.any(lowest < -_SHIFT_TOL * scale):
            raise ShiftBelowSpectrumError(
                f"smallest real part of an eigenvalue {lowest.min():.6g} "
                f"lies below zero")
    _require_off_cut(evals)


def _require_root(R: np.ndarray, T: np.ndarray | tuple) -> None:
    """Raise ``SpectrumOnCutError`` unless ``||R^2 - T||_F`` is within
    ``_RESIDUAL_TOL ||T||_F`` for the matrix, or for each matrix of a stack
    along the leading axis (``_residual_fails``: a NaN residual or a norm
    that overflows fails).

    ``T`` may also be the diagonals ``(lo, d, up)`` of a tridiagonal matrix,
    which are subtracted from ``R^2`` in place, with ``||T||_F`` read off
    its 3n - 2 entries, so that no dense ``T`` is formed.
    """
    if isinstance(T, tuple):
        res, n = R @ R, R.shape[0]
        flat = res.reshape(-1)
        for k, x in zip((-1, 0, 1), T):
            # diagonal k starts at [max(0, -k), max(0, k)], steps by n + 1
            flat[max(k, -k * n)::n + 1] -= x
        # flat, whose norm takes no n x n temporary
        res, T = flat, np.concatenate(T)
    else:
        res = R @ R - T
    axes = (-2, -1) if res.ndim > 1 else None
    with np.errstate(over="ignore"):  # an overflowing norm fails below
        res = np.linalg.norm(res, axis=axes)
        scale = np.linalg.norm(T, axis=axes)
    if _residual_fails(res, np.maximum(scale, 1e-300)):
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
        if stop.any():  # the block shrinks only on a step where one stops
            out[active[stop]] = est[stop]
            go = ~stop
            active, est, Y, nrm = active[go], est[go], Y[go], nrm[go]
            if not active.size:
                return out
        prev = est
        X = Y / nrm[:, None]
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
    A_conj = A.conj()

    def gram(X, idx):
        # rows: (A^H A x)^T = (x^T A^T) conj(A)
        Y = (X @ A.T) @ A_conj
        return Y, np.linalg.norm(Y, axis=1)

    return float(power_norms(gram, power_start(A.shape[1])[None, :])[0])
