"""Closed-form machinery for the unit-diffusion operator on a finite interval.

Everything here concerns ``-d^2/dx^2`` on ``(a, b)`` with a Dirichlet
condition at ``b`` and a (possibly complex) separated condition at ``a``:
the explicit boundary solution, the scalar denominator coupling the two
realizations, the rank-one resolvent correction, sampled Green and
square-root kernels, and the Bessel-type envelope of the square-root
correction.  The boundary solution ``u2`` and the denominator ``d`` are
each written once, from the root ``sqrt(-z)``, and every Krein kernel is
the rank-one term ``u2(x) u2(x') / d``.  On a resolvent table that term
is guarded once (``_coupling``) and subtracted in place, one row block at
a time (``_subtract_coupling``), by ``krein_resolvent`` and by the
refinement ladder of ``checks.krein_suite`` alike.  Expressions are
evaluated in exponential-ratio form so large shifts never overflow.  The
square-root integrals run over real spectral arguments ``tau > 0``, where
``sqrt(tau)`` is real: their Green kernels and boundary solutions are
evaluated in real arithmetic, and only the coupling denominator at each
``tau`` is complex.
"""

from __future__ import annotations

import numpy as np

from .assembly import BoundaryCondition, Mesh
from .matfun import QuadratureSpec, _blocks, gauss_panels

__all__ = [
    "u2_closed_form",
    "d_theta",
    "green_kernel_dirichlet",
    "krein_resolvent",
    "SharedSpectrumError",
    "sqrt_kernel",
    "bessel_bound_check",
    "bessel_k0_quad",
]


class SharedSpectrumError(ZeroDivisionError):
    """Raised when the coupling denominator vanishes: ``z`` lies in the
    spectra of both realizations."""


# the split-Gauss rule both square-root integrals use
_RULE = QuadratureSpec()


def _sqrt_nodes(cutoff: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [0, cutoff], panels geometric toward 0."""
    return gauss_panels(cutoff * _RULE.unit_edges(), _RULE.panel_nodes)


def _expm1_ratio(st, d):
    """The ``1 - exp(-2 st d)`` term of every Krein kernel, by ``expm1``:
    bounded for large ``|st|``, and its digits kept as ``st d -> 0``."""
    return -np.expm1(-2.0 * st * d)


def _boundary_solution(st, x, a: float, b: float):
    """``u2`` at ``z = -st**2`` from the root ``st = sqrt(-z)``:
    ``exp(-st (x - a))`` times the bounded ratio of two ``_expm1_ratio``
    terms, finite at any shift.  Broadcasts over ``st`` and ``x``."""
    return (np.exp(-st * (x - a)) * _expm1_ratio(st, b - x)
            / _expm1_ratio(st, b - a))


def _denominator(st, cot_a, a: float, b: float):
    """``cot(theta_a) + u2'(a) = cot(theta_a) - st coth(st (b - a))`` at
    ``z = -st**2``; broadcasts.  With ``r = _expm1_ratio(st, b - a)`` the
    coth is ``(2 - r) / r``, so ``st / r`` keeps its digits as ``z -> 0``,
    where the denominator tends to ``cot(theta_a) - 1 / (b - a)``."""
    r = _expm1_ratio(st, b - a)
    return cot_a - st * (2.0 - r) / r


def u2_closed_form(z: complex, x, a: float, b: float):
    """Boundary solution with unit value at ``a`` and zero at ``b``.

    ``sin(sqrt(z)(b - x)) / sin(sqrt(z)(b - a))``, ``_boundary_solution``
    at ``st = sqrt(-z)``, so it stays finite at any shift; at ``z = 0`` its
    limit ``(b - x) / (b - a)``.  Raises when ``z`` hits a Dirichlet
    eigenvalue, ``sqrt(z) (b - a) = m pi`` with ``m >= 1``.
    """
    z = complex(z)
    st, ell = np.sqrt(-z), b - a
    if st == 0:
        return (b - np.asarray(x)) / ell + 0j
    den = _expm1_ratio(st, ell)
    # |den| = 2 |exp(-st ell) sinh(st ell)|: the guard on sinh(w) / w,
    # w = st ell, which is scale-free and vanishes only at w = i m pi,
    # m >= 1, so shifts near 0 pass
    if (abs(den) < 2e-12 * abs(st) * ell * (1.0 + abs(st) * ell)
            * abs(np.exp(-st * ell))):
        raise ZeroDivisionError(f"z = {z} is a Dirichlet eigenvalue")
    return _boundary_solution(st, np.asarray(x), a, b)


def d_theta(z: complex, theta_a: BoundaryCondition, a: float, b: float) -> complex:
    """Coupling denominator ``cot(theta_a) + u2'(z, a)`` (``_denominator``).

    Nonzero whenever ``z`` lies in both resolvent sets; a (near) zero marks
    shared spectrum between the two realizations and is surfaced by the
    caller.
    """
    if theta_a.is_dirichlet:
        raise ValueError("the coupling denominator needs theta_a != 0")
    return _denominator(np.sqrt(-complex(z)), theta_a.cot(), a, b)


def _green_from_root(st, x, xp, a: float, b: float):
    """Green kernel of the Dirichlet realization at ``z = -st**2``, from the
    root ``st = sqrt(-z)``: ``exp(-st |x - x'|)`` times bounded hyperbolic
    ratios.  Real ``st`` keeps the evaluation in real arithmetic."""
    X = np.asarray(x, dtype=float)
    Xp = np.asarray(xp, dtype=float)
    xl = np.minimum(X, Xp)
    xg = np.maximum(X, Xp)
    num = np.exp(-st * (xg - xl)) * _expm1_ratio(st, xl - a) * _expm1_ratio(st, b - xg)
    return num / (2.0 * st * _expm1_ratio(st, b - a))


def green_kernel_dirichlet(z: complex, x, xp, a: float, b: float):
    """Green kernel of the Dirichlet realization at spectral point ``z``.

    Written as ``exp(-sqrt(-z) |x - x'|)`` times bounded hyperbolic ratios,
    so evaluation is stable arbitrarily deep on the negative real axis.
    Raises ``FloatingPointError`` if an entry is not finite: the
    denominator ``2 sqrt(-z) (1 - exp(-2 sqrt(-z) (b - a)))`` underflows to
    zero once ``-z`` and ``b - a`` are small enough.
    """
    # principal root of -z; positive for z = -E
    st = np.sqrt(-complex(z))
    with np.errstate(divide="ignore", invalid="ignore"):  # refused below
        table = _green_from_root(st, x, xp, a, b)
    if not np.all(finite := np.isfinite(table)):
        raise FloatingPointError(
            f"the Dirichlet Green kernel at z = {z} has "
            f"{np.size(finite) - np.count_nonzero(finite)} entries that "
            f"are not finite")
    return table


def _t_kernel(tau, x, xp, cot_a: complex, a: float, b: float):
    """Square-root correction integrand at real arguments ``tau`` (> 0),
    elementwise over broadcast arrays of ``tau``, ``x`` and ``x'``.

    Krein's rank-one term ``u2(x) u2(x') / d`` at ``z = -tau``; decays like
    ``exp(-sqrt(tau) (x + x' - 2a))``.  Only the coupling denominator is
    complex.
    """
    st = np.sqrt(tau)
    return (_boundary_solution(st, x, a, b) * _boundary_solution(st, xp, a, b)
            / _denominator(st, cot_a, a, b))


def krein_resolvent(R_dir: np.ndarray, z: complex,
                    theta_a: BoundaryCondition, mesh: Mesh) -> np.ndarray:
    """Rank-one boundary correction of a Dirichlet resolvent kernel table.

    ``R_dir`` is the kernel table of the Dirichlet resolvent on the full
    node grid; the return value is the kernel of the realization with the
    ``theta_a`` condition at the left endpoint (Dirichlet kept at the
    right), Krein's term subtracted in place of a copy of ``R_dir`` by
    ``_subtract_coupling``.  Aborts, before the copy is touched, when the
    coupling denominator is not finite or numerically zero (``_coupling``).
    """
    coupling = _coupling(z, theta_a, mesh)
    return _subtract_coupling(np.array(R_dir, dtype=complex), 0, coupling)


def _coupling(z: complex, theta_a: BoundaryCondition, mesh: Mesh) -> tuple:
    """Krein's rank-one term ``u2(x) conj(u2_bar(x')) / d`` at ``z`` on the
    nodes of ``mesh``, as ``(u2, conj(u2_bar), d)``, ``u2_bar`` the boundary
    solution at ``conj(z)``.

    Raises ``FloatingPointError`` when ``d`` is not finite, which happens
    once ``sqrt(-z) (b - a)`` is below double precision, and
    ``SharedSpectrumError`` when ``|d|`` is below ``1e-12`` times
    ``1 + |u2'(a)|``, ``|u2'(a)| = |d - cot(theta_a)|``.
    """
    a, b = mesh.a, mesh.b
    d = d_theta(z, theta_a, a, b)
    if not np.isfinite(d):
        raise FloatingPointError(
            f"the coupling denominator at z = {z} is not finite: "
            f"sqrt(-z) (b - a) = {abs(np.sqrt(-complex(z))) * (b - a):.3g} "
            f"is below double precision")
    if not abs(d) >= 1e-12 * (1.0 + abs(d - theta_a.cot())):
        raise SharedSpectrumError(
            "shared spectrum: coupling denominator vanishes")
    return (u2_closed_form(z, mesh.nodes, a, b),
            np.conj(u2_closed_form(np.conj(complex(z)), mesh.nodes, a, b)), d)


def _subtract_coupling(table: np.ndarray, first: int,
                       coupling: tuple) -> np.ndarray:
    """Subtract Krein's rank-one term ``coupling`` (``_coupling``) in place
    from ``table``, whose rows are the nodes ``first``, ``first + 1``, ...
    of a kernel table, one row block at a time (``matfun._blocks``): each
    entry is ``table - (u2(x) conj(u2_bar(x'))) / d``.  Returns ``table``."""
    u2, conj_u2_bar, d = coupling
    for rows in _blocks(table.shape[0], table.shape[1]):
        term = np.multiply.outer(u2[first + rows.start:first + rows.stop],
                                 conj_u2_bar)
        term /= d
        table[rows] -= term
    return table


def sqrt_kernel(E: float, theta_a: BoundaryCondition,
                mesh: Mesh) -> np.ndarray:
    """Kernel table of the inverse square root at shift ``E`` on the nodes.

    The Dirichlet part integrates the closed-form Green kernel over the
    spectral parameter; the boundary-condition correction subtracts the
    integrated coupling kernel, which is rank one in ``(x, x')`` at each
    node, so that its integral is one matrix product over the nodes.  Both
    use the shared composite Gauss rule after the square-root
    substitution, truncated at pi / h, the finest scale the grid can carry
    (the on-diagonal values grow logarithmically with this cutoff, all
    off-diagonal entries converge).  Rows at the
    Dirichlet end vanish identically.  Every node ``tau = u**2 + E`` is
    real, so both kernels are evaluated from the real root ``sqrt(tau)``
    in real arithmetic; the coupling denominator is the one complex
    factor, a scalar per node.
    """
    a, b = mesh.a, mesh.b
    if E <= 0:
        raise ValueError("E must be positive")
    d0 = d_theta(-E, theta_a, a, b)
    if abs(d0) < 1e-12 * (1.0 + np.sqrt(E)):
        raise ValueError("E below the safe shift: coupling denominator vanishes")
    x = mesh.nodes
    u, w = _sqrt_nodes(np.pi / mesh.h)
    # the nodes increase, so min(x, x') and max(x, x') are the nodes at the
    # smaller and larger index: each hyperbolic factor of the Green kernel
    # (``_green_from_root``) is one vector per quadrature node, picked at
    # those indices, entry for entry the grid evaluation
    k = np.arange(x.size)
    near, far = np.minimum.outer(k, k), np.maximum.outer(k, k)
    gap = x[far] - x[near]
    green = np.zeros((x.size, x.size))
    for ui, wi in zip(u, w):
        st = np.sqrt(ui * ui + E)
        num = (np.exp(-st * gap) * _expm1_ratio(st, x - a)[near]
               * _expm1_ratio(st, b - x)[far])
        green += wi * (num / (2.0 * st * _expm1_ratio(st, b - a)))
    # the coupling kernel is Krein's rank-one term u2(x) u2(x') / d at each
    # node (_t_kernel), so all nodes together are the one product
    # U^T diag(w / d) U, a row of U per node
    st = np.sqrt(u * u + E)
    U = _boundary_solution(st[:, None], x, a, b)
    coupling = (U.T * (w / _denominator(st, theta_a.cot(), a, b))) @ U
    values = (2.0 / np.pi) * (green - coupling)
    if not np.all(np.isfinite(values)):
        raise FloatingPointError("square-root kernel quadrature overflowed")
    return values


def bessel_k0_quad(y: float) -> float:
    """Macdonald function of order zero by quadrature of its cosh form.

    Integrates ``exp(-y cosh(u))`` with 8 Gauss panels of 24 nodes over a
    range long enough that the tail is below double precision; independent
    of the library implementation used as cross-check.
    """
    if y <= 0:
        raise ValueError("argument must be positive")
    # truncate once y cosh(u) pushes the integrand below double precision
    upper = float(np.arccosh(max(50.0 / y, 2.0))) + 1.0
    u, w = gauss_panels(np.linspace(0.0, upper, 9), 24)
    return float(np.sum(w * np.exp(-y * np.cosh(u))))


def _k0(y):
    """The library's Macdonald function K0, the one reference both the
    envelope and the two-method check read.  ``scipy.special`` loads on the
    first call, so only a run that evaluates K0 pays for the import."""
    from scipy import special
    return special.k0(y)


def bessel_bound_check(E: float, x: float, xp: float,
                       theta_a: BoundaryCondition, mesh: Mesh) -> dict:
    """Envelope check of the square-root correction by Macdonald functions.

    The left side is the integrated coupling kernel at ``(x, x')``; the
    right side the four-term Macdonald envelope with prefactor ``C`` fitted
    as the supremum of the pointwise ratio over 96 log-spaced spectral
    arguments in ``[E, 1e6 E]``, inflated by a small relative margin since
    a sampled supremum underestimates the true one.  The supremum's 96
    arguments and the integral's nodes each go through one array
    evaluation of the integrand.  Degenerate corner arguments are rejected.
    """
    a, b = mesh.a, mesh.b
    args = np.array([x + xp - 2 * a, 2 * b + x - xp - 2 * a,
                     2 * b + xp - x - 2 * a, 4 * b - x - xp - 2 * a])
    if np.any(args <= 0):
        raise ValueError("Macdonald arguments must be positive (corner pair)")
    cot_a = theta_a.cot()

    # fit C = sup |T(t, x, x')| sqrt(t) / (sum of four exponentials)
    taus = np.geomspace(E, E * 1e6, 96)
    st = np.sqrt(taus)
    envelope = np.sum(np.exp(-st[:, None] * args[None, :]), axis=1)
    tval = np.abs(_t_kernel(taus, x, xp, cot_a, a, b))
    seen = envelope > 0
    C = float(np.max(tval[seen] * st[seen] / envelope[seen], initial=0.0))
    C *= 1.0 + 1e-6

    u, w = _sqrt_nodes(np.pi / mesh.h)
    # the substitution absorbs the inverse square root
    lhs = abs(2.0 * np.sum(w * _t_kernel(u * u + E, x, xp, cot_a, a, b)))
    sqE = np.sqrt(E)
    rhs = 2.0 * C * float(sum(_k0(sqE * d) for d in args))
    return {"lhs": float(lhs), "rhs": float(rhs), "slack": float(rhs - lhs),
            "C": float(C)}
