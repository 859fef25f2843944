"""The operator class's own symmetries as oracles: adjoint and reflection.

The class is closed under the adjoint, ``L* = L_{p̄, q̄, s̄, r̄}`` with both
boundary parameters conjugated, and under the reflection ``x -> a + b - x``,
which maps ``L_{p, q, r, s}`` to ``L_{p∘ρ, q∘ρ, -r∘ρ, -s∘ρ}`` with the ends
swapped.  Both hold for the discretization: the adjoint problem's matrix is
``Hᴴ`` to roundoff, and the reflected problem's is ``J H J`` entry for
entry, with ``J`` the reversal.  The Krein layer keeps the adjoint relation:
the rank-one corrected kernel at ``(z̄, θ̄)`` and the square-root kernel at
``θ̄`` are the conjugate transposes of their values at ``(z, θ)`` and ``θ``.
No identity of the package sees a left/right or a conjugation defect, so
each relation must fail on one planted here.
"""

import dataclasses

import numpy as np
import pytest

from sqrtdom import krein, problems
from sqrtdom.assembly import (BoundaryCondition, CoefficientSet, IntervalSpec,
                              build_mesh, orthonormalize)
from sqrtdom.krein import krein_resolvent, sqrt_kernel
from sqrtdom.matfun import resolvent
from sqrtdom.problems import FAMILY_NAMES, Problem, make_problem

DIR = BoundaryCondition.dirichlet()
NEU = BoundaryCondition.neumann()
ROBIN = BoundaryCondition(1 + 0.5j)
ENDS = (DIR, NEU, ROBIN, BoundaryCondition(0.7))
INTERVALS = {"finite": IntervalSpec(),
             "half_line": IntervalSpec("half_line", truncation_radius=4.0),
             "full_line": IntervalSpec("full_line", truncation_radius=3.0)}
N = 64
# measured at most 3.0e-16 over every family, interval and end pair
ADJOINT_TOL = 1e-15


def adjoint_problem(prob):
    """The formal adjoint: p̄ and q̄, r and s conjugated and swapped, and
    both boundary parameters conjugated."""
    c = prob.coeffs
    return Problem(prob.interval, prob.mesh,
                   CoefficientSet(p=c.p.conj(), q=c.q.conj(), r=c.s.conj(),
                                  s=c.r.conj()),
                   BoundaryCondition(np.conj(prob.bc_left.theta)),
                   BoundaryCondition(np.conj(prob.bc_right.theta)))


def reflected_problem(prob):
    """The reflection ``x -> a + b - x``: the samples reversed, r and s
    negated, the ends swapped.  The uniform mesh maps onto itself."""
    c = prob.coeffs
    return Problem(prob.interval, prob.mesh,
                   CoefficientSet(p=c.p[::-1], q=c.q[::-1], r=-c.r[::-1],
                                  s=-c.s[::-1]),
                   prob.bc_right, prob.bc_left)


def dense_operator(prob):
    """The problem's operator matrix, formed from its forms."""
    return orthonormalize(prob.forms)


def adjoint_gap(prob, adjoint=adjoint_problem):
    H = dense_operator(prob)
    return (np.max(np.abs(dense_operator(adjoint(prob)) - H.conj().T))
            / np.max(np.abs(H)))


def reflects(prob):
    return np.array_equal(dense_operator(reflected_problem(prob)),
                          dense_operator(prob)[::-1, ::-1])


def end_pairs():
    return [(left, right) for left in ENDS for right in ENDS]


@pytest.mark.parametrize("interval", sorted(INTERVALS))
@pytest.mark.parametrize("family", FAMILY_NAMES)
class TestMatrixRelations:
    def test_adjoint_problem_is_the_conjugate_transpose(self, family,
                                                        interval):
        gaps = [adjoint_gap(make_problem(family, INTERVALS[interval], N,
                                         left, right))
                for left, right in end_pairs()]
        assert max(gaps) <= ADJOINT_TOL, gaps

    def test_reflected_problem_is_the_reversal(self, family, interval):
        for left, right in end_pairs():
            prob = make_problem(family, INTERVALS[interval], N, left, right)
            assert reflects(prob), (left, right)


def plant(monkeypatch, defect):
    """Assemble every problem with ``defect`` applied to its forms."""
    assemble = problems.assemble_forms

    def planted(mesh, coeffs, bc_left, bc_right):
        return defect(assemble(mesh, coeffs, bc_left, bc_right), bc_right)

    monkeypatch.setattr(problems, "assemble_forms", planted)


def transposed_k1(forms, bc_right):
    return dataclasses.replace(forms, K1=forms.K1[::-1])


def right_end_at_left_node(forms, bc_right):
    # the right end's -cot(theta) added at the first retained node
    if not bc_right.is_dirichlet:
        forms.Bdry[1][-1] -= -bc_right.cot()
        forms.Bdry[1][0] += -bc_right.cot()
    return forms


def unconjugated_ends(prob):
    return dataclasses.replace(adjoint_problem(prob), bc_left=prob.bc_left,
                               bc_right=prob.bc_right)


class TestPlantedMatrixDefects:
    def test_transposed_convection_breaks_the_adjoint(self, monkeypatch):
        plant(monkeypatch, transposed_k1)
        prob = make_problem("constant_qrs", INTERVALS["finite"], N, NEU, DIR)
        assert adjoint_gap(prob) > 1e3 * ADJOINT_TOL

    def test_unconjugated_robin_end_breaks_the_adjoint(self):
        prob = make_problem("constant_qrs", INTERVALS["finite"], N, ROBIN,
                            DIR)
        assert adjoint_gap(prob, unconjugated_ends) > 1e3 * ADJOINT_TOL

    def test_right_end_at_the_left_node_breaks_the_reflection(
            self, monkeypatch):
        plant(monkeypatch, right_end_at_left_node)
        prob = make_problem("mixed_sign", INTERVALS["finite"], N, NEU,
                            BoundaryCondition(0.7))
        assert not reflects(prob)


def dirichlet_table(n, z):
    """The finite-element Dirichlet resolvent's kernel table on [0, 1]."""
    interval = IntervalSpec()
    mesh = build_mesh(interval, n)
    op = Problem(interval, mesh, CoefficientSet.from_callables(mesh), DIR,
                 DIR)
    return mesh, op.kernel_table(resolvent(op.diagonals(), z))


def krein_gap(z, theta, theta_adjoint=None):
    """``max|K(z̄, θ̄) − K(z, θ)ᴴ| / max|K|`` of the rank-one corrected
    kernel, with the Dirichlet table at z̄ taken as the one at z,
    conjugated and transposed, so that only the Krein layer is judged."""
    mesh, R = dirichlet_table(48, z)
    K = krein_resolvent(R, z, theta, mesh)
    K_adj = krein_resolvent(R.conj().T, np.conj(z),
                            theta_adjoint or BoundaryCondition(
                                np.conj(theta.theta)), mesh)
    return np.max(np.abs(K_adj - K.conj().T)) / np.max(np.abs(K))


def sqrt_gap(theta, theta_adjoint=None):
    """``max|S(θ̄) − S(θ)ᴴ| / max|S|`` of the square-root kernel."""
    mesh = build_mesh(IntervalSpec(), 48)
    S = sqrt_kernel(25.0, theta, mesh)
    S_adj = sqrt_kernel(25.0, theta_adjoint or BoundaryCondition(
        np.conj(theta.theta)), mesh)
    return np.max(np.abs(S_adj - S.conj().T)) / np.max(np.abs(S))


def complex_denominator(monkeypatch):
    # a phase error of the one coupling denominator
    denominator = krein._denominator
    monkeypatch.setattr(krein, "_denominator",
                        lambda *args: denominator(*args) * (1 + 1e-3j))


class TestKreinAdjoint:
    @pytest.mark.parametrize("z", [3 + 2j, -25 + 10j, -5.0])
    @pytest.mark.parametrize("theta", [ROBIN, NEU, BoundaryCondition(0.7)],
                             ids=["robin", "neumann", "real"])
    def test_rank_one_kernel_at_the_conjugates(self, z, theta):
        gap = krein_gap(z, theta)
        # at a real z every factor is conjugated exactly
        assert gap == 0.0 if np.imag(z) == 0 else gap <= ADJOINT_TOL

    @pytest.mark.parametrize("theta", [ROBIN, NEU, BoundaryCondition(0.7)],
                             ids=["robin", "neumann", "real"])
    def test_sqrt_kernel_at_the_conjugate(self, theta):
        assert sqrt_gap(theta) <= ADJOINT_TOL

    def test_unconjugated_theta_breaks_both(self):
        assert krein_gap(3 + 2j, ROBIN, ROBIN) > 1e3 * ADJOINT_TOL
        assert sqrt_gap(ROBIN, ROBIN) > 1e3 * ADJOINT_TOL

    def test_complex_denominator_defect_breaks_both(self, monkeypatch):
        complex_denominator(monkeypatch)
        assert krein_gap(3 + 2j, ROBIN) > 1e3 * ADJOINT_TOL
        assert sqrt_gap(ROBIN) > 1e3 * ADJOINT_TOL
