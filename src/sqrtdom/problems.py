"""Named coefficient families and the record of one assembled operator.

The families exercise the admissible coefficient classes: bounded complex
constants, sign-changing sawtooth profiles, and locally integrable spikes
whose singularity is truncated at grid scale.  A ``Problem`` holds its five
inputs (interval, mesh, coefficients, two boundary conditions) and builds
its form matrices from them, and every operator from those, so they cannot
disagree.  The forms are the diagonals ``(lo, d, up)`` of tridiagonal
matrices, and so are the operator and its reference, scaled from them.  The
operator matrix ``H`` is the one dense matrix it keeps, formed on its first
read; the base and reference operators are also diagonals, formed densely
only when asked for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .assembly import (BoundaryCondition, CoefficientSet, FormMatrices,
                       IntervalSpec, Mesh, _dense, _trim, _unit_stiffness,
                       assemble_forms, build_mesh, orthonormalize)

__all__ = [
    "FAMILY_NAMES",
    "build_coefficients",
    "Problem",
    "make_problem",
    "lions_operator",
]

FAMILY_NAMES = (
    "free",
    "complex_p",
    "constant_qrs",
    "complex_constant",
    "mixed_sign",
    "sawtooth",
    "spike",
)


def _sawtooth(amplitude: float, period: float):
    """Sign-changing sawtooth of the given amplitude and period."""
    return lambda x: amplitude * (2.0 * np.mod(x / period, 1.0) - 1.0)


def _spike(center: float, exponent: float, cap: float, phase: complex):
    """Locally integrable singular profile ``phase |x - center|^(-exponent)``,
    its modulus truncated at ``cap``."""
    def f(x):
        d = np.abs(x - center)
        with np.errstate(divide="ignore"):
            v = np.where(d > 0, d ** (-exponent), np.inf)
        return phase * np.minimum(v, cap)

    return f


def build_coefficients(name: str, mesh: Mesh) -> CoefficientSet:
    """Sample one named family on the mesh; spikes are capped at grid scale."""
    if name == "free":
        return CoefficientSet.from_callables(mesh)
    if name == "complex_p":
        return CoefficientSet.from_callables(mesh, p=1.0 + 0.5j)
    if name == "constant_qrs":
        return CoefficientSet.from_callables(mesh, q=1.0, r=1.0, s=1.0)
    if name == "complex_constant":
        return CoefficientSet.from_callables(
            mesh, p=1.0 + 0.5j, q=2.0 - 1.0j, r=1.0 + 1.0j, s=0.5j)
    if name == "mixed_sign":
        return CoefficientSet.from_callables(
            mesh, q=_sawtooth(3.0, 0.37), r=_sawtooth(2.0, 0.53), s=-1.0)
    if name == "sawtooth":
        return CoefficientSet.from_callables(
            mesh, p=lambda x: 1.0 + 0.25j * np.ones_like(x),
            q=_sawtooth(4.0, 0.29), r=_sawtooth(1.5, 0.41),
            s=_sawtooth(1.0, 0.61))
    if name == "spike":
        center = mesh.a + 0.5 * (mesh.b - mesh.a)
        return CoefficientSet.from_callables(
            mesh,
            q=_spike(center, 0.5, (mesh.h / 2.0) ** -0.5,
                     np.exp(1j * np.pi / 3)),
            r=_spike(center, 0.25, (mesh.h / 2.0) ** -0.25, 1.0),
            s=_spike(center, 0.25, (mesh.h / 2.0) ** -0.25, -1.0))
    raise ValueError(f"unknown coefficient family {name!r}; "
                     f"choose one of {FAMILY_NAMES}")


@dataclass(frozen=True)
class Problem:
    """One assembled operator: its inputs, form matrices ``forms`` (each
    its diagonals) and the operator ``H = M^{-1/2} S M^{-1/2}`` in
    L2-orthonormal coordinates.

    The operator, its base and its self-adjoint reference are also given
    as diagonals (``diagonals``, ``base_diagonals``,
    ``reference_diagonals``): the scaled forms themselves.  The dense ``H``
    is formed on its first read and then kept, the one dense matrix a
    problem holds; a caller that works in the band never forms it: a kappa
    row, ``verify-kato`` (``kato.verify_identity``) and ``verify-krein``'s
    refinement ladder (``checks.krein_suite``).
    """

    interval: IntervalSpec
    mesh: Mesh
    coeffs: CoefficientSet
    bc_left: BoundaryCondition
    bc_right: BoundaryCondition
    forms: FormMatrices = field(init=False, repr=False)

    def __post_init__(self):
        forms = assemble_forms(self.mesh, self.coeffs, self.bc_left,
                               self.bc_right)
        object.__setattr__(self, "forms", forms)

    @cached_property
    def H(self) -> np.ndarray:
        """The operator matrix (``orthonormalize``), formed densely on the
        first read and kept."""
        return orthonormalize(self.forms)

    def diagonals(self) -> tuple:
        """``(lo, d, up)``, the three diagonals of ``H``: the scaled form
        sum that ``orthonormalize`` forms, so equal to those of ``H`` bit
        for bit."""
        return self.forms.congruence(self.forms.total())

    def base_diagonals(self) -> tuple:
        """``(lo, d, up)``, the three diagonals of ``base_operator()``,
        which it forms: the same second-order part and boundary conditions,
        no lower-order terms, ``forms.K0 + forms.Bdry`` scaled as
        ``orthonormalize`` scales the total."""
        return self.forms.congruence(self.forms.plus_boundary(self.forms.K0))

    def base_operator(self) -> np.ndarray:
        """The base operator (``base_diagonals``), formed densely."""
        return _dense(self.base_diagonals())

    def reference_operator(self) -> np.ndarray:
        """Self-adjoint unit-diffusion reference with the same form domain,
        as a real (float64, C-contiguous) matrix.

        Non-Dirichlet ends become Neumann, since the form domain only sees
        whether a boundary parameter vanishes: the unit stiffness on the
        retained nodes, scaled as ``orthonormalize`` scales the total.
        """
        return _dense(self.reference_diagonals())

    def reference_diagonals(self) -> tuple:
        """``(lo, d, up)``, the three real diagonals of
        ``reference_operator()``, which it forms: the unit stiffness on the
        retained nodes, scaled as ``orthonormalize`` scales the total."""
        return self.forms.congruence(
            _trim(_unit_stiffness(self.mesh), self.forms.dof_nodes))

    def lumped_average(self, cells: np.ndarray) -> np.ndarray:
        """Cell samples averaged onto the retained nodes with the lumped
        mass: a node weighs the half cells it touches, so an interior node
        takes the mean of its two cells and an end node its one cell."""
        h = self.mesh.h
        acc = np.zeros(self.mesh.n_cells + 1, dtype=complex)
        acc[:-1] += cells * h / 2
        acc[1:] += cells * h / 2
        return acc[self.forms.dof_nodes] / self.forms.lumped_weights

    def kernel_block(self, R_ortho: np.ndarray) -> np.ndarray:
        """Two-point kernel samples at the retained nodes of an operator
        given in orthonormal coordinates, scaled in place of ``R_ortho`` as
        ``forms.congruence`` scales, ``(w_i R_ij) w_j``."""
        winv = self.forms.orthonormal_scaling
        np.multiply(winv[:, None], R_ortho, out=R_ortho)
        R_ortho *= winv[None, :]
        return R_ortho

    def kernel_table(self, R_ortho: np.ndarray) -> np.ndarray:
        """Two-point kernel samples of an operator given in orthonormal
        coordinates on all nodes: ``kernel_block``, which overwrites
        ``R_ortho``, extended by zero onto removed Dirichlet nodes."""
        n_nodes = len(self.mesh.nodes)
        table = np.zeros((n_nodes, n_nodes), dtype=complex)
        # the retained nodes are a contiguous range
        keep = self.forms.dof_nodes
        table[keep[0]:keep[-1] + 1, keep[0]:keep[-1] + 1] = (
            self.kernel_block(R_ortho))
        return table


def make_problem(family: str, interval: IntervalSpec | None = None,
                 n: int = 64,
                 bc_left: BoundaryCondition | None = None,
                 bc_right: BoundaryCondition | None = None) -> Problem:
    """Assemble a named family on an interval with the given conditions.

    Truncated-line intervals default to Dirichlet at the artificial far
    boundary; the finite interval defaults to Dirichlet at both ends.
    """
    interval = interval or IntervalSpec()
    mesh = build_mesh(interval, n)
    dirichlet = BoundaryCondition.dirichlet()
    return Problem(interval, mesh, build_coefficients(family, mesh),
                   bc_left if bc_left is not None else dirichlet,
                   bc_right if bc_right is not None else dirichlet)


def lions_operator(n: int) -> np.ndarray:
    """Upwind first-derivative matrix with a Dirichlet condition at 0.

    Forward differences on ``(0, 1)`` with ``n`` cells in L2-orthonormal
    coordinates give the lower-bidiagonal Toeplitz matrix with ``1/h`` on
    the diagonal: accretive, heavily nonnormal, and the canonical negative
    control for square-root domain questions at the critical power.  The
    matrix is real (float64), so its powers are taken in real arithmetic.
    """
    h = 1.0 / n
    T = np.zeros((n, n))
    np.fill_diagonal(T, 1.0 / h)
    T[np.arange(1, n), np.arange(0, n - 1)] = -1.0 / h
    return T
