"""Meshes, boundary conditions and finite-element form matrices.

Second-order operators with convection and potential terms are realized
through their sesquilinear forms on piecewise-linear elements over uniform
meshes.  Coefficients are sampled once per cell at the midpoint, which keeps
every matrix exact for piecewise-constant data and first-order accurate
otherwise.  The convention throughout: the full form matrix ``S`` satisfies
``q(g, f) = g^H S f`` for nodal vectors, conjugate-linear in the first slot.
Every form is tridiagonal and is held as its three diagonals
``(lo, d, up)``, from the cell sums through the scaling: a matrix is formed
only where a consumer reads one, by ``_dense``.  ``orthonormalize`` scales
the forms' sum into the operator matrix in L2-orthonormal coordinates and
forms it densely, for the two readers of a dense operator;
``problems.Problem`` keeps only its inputs and forms, and hands out the
scaled diagonals themselves (``FormMatrices.congruence``, diagonals to
diagonals), the one operator format every band function takes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

__all__ = [
    "IntervalSpec",
    "Mesh",
    "MeshError",
    "BoundaryCondition",
    "CoefficientSet",
    "FormMatrices",
    "build_mesh",
    "assemble_forms",
    "orthonormalize",
    "w12_norm_matrix",
]


@dataclass(frozen=True)
class IntervalSpec:
    """A finite interval or a truncated half/full line.

    ``half_line`` computes on ``[a, a + truncation_radius]`` and ``full_line``
    on ``[-truncation_radius, truncation_radius]``; the artificial far
    boundary carries a Dirichlet condition by default, documented as an
    approximation of the unbounded problem.
    """

    kind: str = "finite"
    a: float = 0.0
    b: float = 1.0
    truncation_radius: float = 20.0

    def __post_init__(self):
        if self.kind not in ("finite", "half_line", "full_line"):
            raise ValueError(f"unknown interval kind {self.kind!r}")
        if self.kind == "finite" and not self.a < self.b:
            raise ValueError("degenerate interval: need a < b")
        if self.kind != "finite" and not self.truncation_radius > 0:
            raise ValueError("truncation radius must be positive")

    def endpoints(self) -> tuple[float, float]:
        if self.kind == "finite":
            return self.a, self.b
        if self.kind == "half_line":
            return self.a, self.a + self.truncation_radius
        return -self.truncation_radius, self.truncation_radius


class MeshError(ValueError):
    """Raised for a mesh that cannot be built: fewer than 2 cells, or nodes
    that double precision does not keep strictly increasing."""


@dataclass(frozen=True)
class Mesh:
    """Uniform partition of an interval into ``n_cells`` cells."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or len(nodes) < 3:
            raise MeshError("mesh needs at least 2 cells")
        if not np.all(np.diff(nodes) > 0):
            raise MeshError("mesh nodes must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)

    @property
    def h(self) -> float:
        return (self.nodes[-1] - self.nodes[0]) / self.n_cells

    @property
    def n_cells(self) -> int:
        return len(self.nodes) - 1

    @property
    def midpoints(self) -> np.ndarray:
        return 0.5 * (self.nodes[:-1] + self.nodes[1:])

    @property
    def a(self) -> float:
        return float(self.nodes[0])

    @property
    def b(self) -> float:
        return float(self.nodes[-1])


def build_mesh(interval: IntervalSpec, n: int) -> Mesh:
    """Uniform mesh with ``n`` cells over the (truncated) interval."""
    if n < 2:
        raise MeshError("need at least 2 cells")
    lo, hi = interval.endpoints()
    return Mesh(nodes=np.linspace(lo, hi, n + 1))


_THETA_NEUMANN = np.pi / 2


def _stable_cot(w: complex) -> complex:
    """Complex cotangent via one-sided exponentials, overflow-free: the one
    cotangent of a boundary parameter, finite at any ``|Im w|``."""
    if w.imag >= 0:
        t = np.exp(2j * w)
        return 1j * (t + 1.0) / (t - 1.0)
    t = np.exp(-2j * w)
    return -1j * (1.0 + t) / (t - 1.0)


@dataclass(frozen=True)
class BoundaryCondition:
    """Separated boundary condition encoded by a strip parameter.

    ``theta = 0`` is Dirichlet (the boundary degree of freedom is removed),
    ``theta = pi/2`` is Neumann (the free natural condition), any other value
    in the strip ``0 <= Re theta < pi`` contributes ``-cot(theta)`` times the
    boundary trace to the base form.
    """

    theta: complex = 0.0

    def __post_init__(self):
        th = complex(self.theta)
        if not (0.0 <= th.real < np.pi):
            raise ValueError("boundary parameter must satisfy 0 <= Re(theta) < pi")
        object.__setattr__(self, "theta", th)

    @classmethod
    def dirichlet(cls) -> "BoundaryCondition":
        return cls(0.0)

    @classmethod
    def neumann(cls) -> "BoundaryCondition":
        return cls(_THETA_NEUMANN)

    @property
    def is_dirichlet(self) -> bool:
        return self.theta == 0

    def cot(self) -> complex:
        # theta = 0 must route to the Dirichlet branch, never through here
        if self.is_dirichlet:
            raise ZeroDivisionError("cot(theta) pole at theta = 0 (Dirichlet)")
        if self.theta == _THETA_NEUMANN:
            return 0.0 + 0.0j
        cot = _stable_cot(self.theta)
        # a real theta has a real cotangent: drop the exponentials' roundoff
        return complex(cot.real) if self.theta.imag == 0 else cot


@dataclass(frozen=True)
class CoefficientSet:
    """Finite cell-midpoint samples of the four coefficients, ``Re p > 0``."""

    p: np.ndarray
    q: np.ndarray
    r: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        arrs = {}
        n = None
        for name in ("p", "q", "r", "s"):
            arr = np.asarray(getattr(self, name), dtype=complex)
            if n is None:
                n = len(arr)
            elif len(arr) != n:
                raise ValueError("coefficient samples must share one length")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"coefficient {name} has non-finite samples")
            arrs[name] = arr
        if arrs["p"].real.min() <= 0:
            raise ValueError("need Re(p) > 0 at every sample")
        for name, arr in arrs.items():
            object.__setattr__(self, name, arr)

    @property
    def lam(self) -> float:
        """Ellipticity constant: the smallest sampled ``Re p``."""
        return float(self.p.real.min())

    @classmethod
    def from_callables(cls, mesh: Mesh, p=None, q=None, r=None,
                       s=None) -> "CoefficientSet":
        """Sample callables (or constants) at the cell midpoints."""
        mids = mesh.midpoints

        def sample(f, default):
            if f is None:
                return np.full(len(mids), default, dtype=complex)
            if np.isscalar(f):
                return np.full(len(mids), complex(f))
            return np.asarray(f(mids), dtype=complex)

        return cls(p=sample(p, 1.0), q=sample(q, 0.0), r=sample(r, 0.0),
                   s=sample(s, 0.0))

    def digest(self) -> str:
        h = hashlib.sha256()
        for arr in (self.p, self.q, self.r, self.s):
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()[:12]


@dataclass
class FormMatrices:
    """Assembled form matrices on the retained degrees of freedom.

    ``M`` is the consistent mass; ``K0`` carries the second-order part,
    ``K1``/``K2`` the two convective terms, ``K3`` the (lumped, diagonal)
    potential and ``Bdry`` the rank <= 2 boundary contribution, a diagonal.
    Each is a tuple of its diagonals ``(lo, d, up)`` (``Bdry``'s off
    diagonals are zero), and ``_dense`` forms it where a matrix is read.
    ``dof_nodes`` indexes the retained mesh nodes, a contiguous range, and
    ``lumped_weights`` holds their full-mesh mass row sums, so interior
    nodes next to a removed Dirichlet node keep their full weight.
    """

    M: tuple
    K0: tuple
    K1: tuple
    K2: tuple
    K3: tuple
    Bdry: tuple
    dof_nodes: np.ndarray
    lumped_weights: np.ndarray

    @property
    def n_dof(self) -> int:
        return self.M[1].size

    @property
    def orthonormal_scaling(self) -> np.ndarray:
        """``1/sqrt(lumped_weights)``, the diagonal of ``M^{-1/2}`` that
        takes nodal coordinates to L2-orthonormal ones."""
        w = self.lumped_weights
        if np.any(w <= 0):
            raise ValueError("lumped mass is not positive definite")
        return 1.0 / np.sqrt(w)

    def congruence(self, S: tuple) -> tuple:
        """``D S D``, ``D = diag(orthonormal_scaling)``: the tridiagonal
        form with diagonals ``S = (lo, d, up)`` as an orthonormal-coordinate
        operator, as its diagonals, each entry scaled as ``(w_i S_ij) w_j``.
        """
        winv = self.orthonormal_scaling
        lo, d, up = S
        return ((winv[1:] * lo) * winv[:-1], (winv * d) * winv,
                (winv[:-1] * up) * winv[1:])

    def plus_boundary(self, *forms: tuple) -> tuple:
        """The sum of the tridiagonal ``forms``, left to right, and ``Bdry``,
        as diagonals: the forms add diagonal by diagonal, entry by entry,
        and ``Bdry`` adds onto the main diagonal last."""
        total = [x.copy() for x in forms[0]]
        for S in forms[1:]:
            for acc, x in zip(total, S):
                acc += x
        total[1] += self.Bdry[1]
        return tuple(total)

    def total(self) -> tuple:
        return self.plus_boundary(self.K0, self.K1, self.K2, self.K3)


def _cell_sum(ll, lr, rl, rr) -> tuple:
    """Sum the element blocks ``[[ll, lr], [rl, rr]]``, one entry per cell,
    onto the nodes ``(k, k + 1)`` of cell ``k``: the diagonals
    ``(lo, d, up)`` of the tridiagonal sum, in one dtype.

    Each entry is accumulated from zero as a dense scatter accumulates it, a
    diagonal entry taking its right cell's term, then its left cell's, so
    the dense matrix is the scatter's bit for bit."""
    dtype = np.result_type(ll, lr, rl, rr)
    lo, d, up = (np.zeros(m, dtype=dtype)
                 for m in (len(ll), len(ll) + 1, len(ll)))
    lo += rl
    d[:-1] += ll
    d[1:] += rr
    up += lr
    return lo, d, up


def _dense(band: tuple) -> np.ndarray:
    """The dense matrix with diagonals ``band = (lo, d, up)``, each written
    in place."""
    lo, d, up = band
    n = d.size
    out = np.zeros((n, n), dtype=np.result_type(*band))
    flat = out.reshape(-1)
    # diagonals -1, 0 and 1 start at [1, 0], [0, 0] and [0, 1]; each
    # steps by n + 1 in the flat matrix
    flat[n::n + 1] = lo
    flat[::n + 1] = d
    flat[1::n + 1] = up
    return out


def _trim(band: tuple, keep: np.ndarray) -> tuple:
    """The block on the contiguous node range ``keep`` of the tridiagonal
    form with diagonals ``band``, as its diagonals: each is sliced to the
    range."""
    lo, hi = int(keep[0]), int(keep[-1]) + 1
    return band[0][lo:hi - 1], band[1][lo:hi], band[2][lo:hi - 1]


def _unit_stiffness(mesh: Mesh) -> tuple:
    """The diagonals of the real Gram of ``||f'||^2`` on all nodes: unit
    diffusion."""
    return _cell_sum(*(np.full(mesh.n_cells, sign / mesh.h)
                       for sign in (1, -1, -1, 1)))


def _retained_nodes(mesh: Mesh, bc_left: BoundaryCondition,
                    bc_right: BoundaryCondition):
    """The nodes no Dirichlet end removes, a contiguous range, and their
    full-mesh lumped-mass row sums (trapezoid weights)."""
    keep = np.arange(int(bc_left.is_dirichlet),
                     mesh.n_cells + 1 - int(bc_right.is_dirichlet))
    weights = np.full(mesh.n_cells + 1, mesh.h)
    weights[[0, -1]] = mesh.h / 2
    return keep, weights[keep]


def assemble_forms(mesh: Mesh, coeffs: CoefficientSet,
                   bc_left: BoundaryCondition,
                   bc_right: BoundaryCondition) -> FormMatrices:
    """Assemble the form matrices of the full operator on the mesh, each
    the diagonals of its block on the retained nodes (see
    ``FormMatrices``).

    Parameters
    ----------
    mesh : Mesh
    coeffs : CoefficientSet
        Samples aligned with ``mesh.midpoints``.
    bc_left, bc_right : BoundaryCondition
        Dirichlet ends drop the corresponding node from the DOF set; any
        other ``theta`` adds ``-cot(theta)`` times the boundary trace pair.
    """
    n = mesh.n_cells
    if len(coeffs.p) != n:
        raise ValueError("coefficient samples are not aligned with the mesh")
    h = mesh.h
    p, q, r, s = coeffs.p, coeffs.q, coeffs.r, coeffs.s

    # mass: exact hat integrals per cell (h/3 diagonal, h/6 off-diagonal)
    M = _cell_sum(*(np.full(n, w, dtype=complex)
                    for w in (h / 3, h / 6, h / 6, h / 3)))
    # second-order part: p(mid) * grad(hat) products, +-1/h
    K0 = _cell_sum(*(sign * p / h for sign in (1, -1, -1, 1)))
    # convection <f, r g'>: midpoint value 1/2 against slope +-1/h
    K1 = _cell_sum(*(sign * r / 2 for sign in (-1, 1, -1, 1)))
    # convection <f', s g>: transpose sparsity of K1
    K2 = _cell_sum(*(sign * s / 2 for sign in (-1, -1, 1, 1)))
    # potential: lumped quadrature, diagonal
    K3 = _cell_sum(q * h / 2, *np.zeros((2, n), dtype=complex), q * h / 2)

    # accumulated from zero as the cell sums are, so a Neumann end's
    # -cot = -0 leaves a positive zero
    Bdry = tuple(np.zeros(m, dtype=complex) for m in (n, n + 1, n))
    if not bc_left.is_dirichlet:
        Bdry[1][0] += -bc_left.cot()
    if not bc_right.is_dirichlet:
        Bdry[1][-1] += -bc_right.cot()

    keep, weights = _retained_nodes(mesh, bc_left, bc_right)
    M, K0, K1, K2, K3, Bdry = (_trim(band, keep)
                               for band in (M, K0, K1, K2, K3, Bdry))
    return FormMatrices(M=M, K0=K0, K1=K1, K2=K2, K3=K3, Bdry=Bdry,
                        dof_nodes=keep, lumped_weights=weights)


def orthonormalize(forms: FormMatrices) -> np.ndarray:
    """The operator matrix ``H = M^{-1/2} S M^{-1/2}`` of assembled forms.

    ``S`` is the full form matrix and ``M`` the lumped (diagonal row-sum)
    mass, which makes ``M^{-1/2}`` exact.  Nodal vectors ``f`` and
    orthonormal vectors ``u`` are related by ``u = M^{1/2} f``.  The sum
    and its scaling stay diagonals; only ``H`` is formed densely.
    """
    return _dense(forms.congruence(forms.total()))


def w12_norm_matrix(mesh: Mesh, bc_left: BoundaryCondition,
                    bc_right: BoundaryCondition, E: float) -> np.ndarray:
    """Gram matrix of the E-scaled first-order Sobolev norm on interpolants.

    ``f^H G_E f = ||f'||^2 + E ||f||^2`` with unit diffusion stiffness and
    the lumped mass, Dirichlet DOFs removed per the boundary conditions.
    """
    if E <= 0:
        raise ValueError("E must be positive")
    keep, weights = _retained_nodes(mesh, bc_left, bc_right)
    lo, d, up = _trim(_unit_stiffness(mesh), keep)
    return _dense((lo, d + E * weights, up)).astype(complex)
