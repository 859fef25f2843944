"""Cross-cutting stress tests: complex boundary parameters, varying complex
diffusion, reflection symmetry, and nonnormal fractional powers."""

import numpy as np
import pytest

from sqrtdom.assembly import (BoundaryCondition, CoefficientSet, IntervalSpec,
                              _dense, assemble_forms, build_mesh,
                              orthonormalize)
from sqrtdom.kato import verify_identity
from sqrtdom.krein import bessel_bound_check, sqrt_kernel
from sqrtdom.matfun import QuadratureSpec, frac_power_quad, resolvent, sqrt_db
from sqrtdom.problems import Problem

DIR = BoundaryCondition.dirichlet()
NEU = BoundaryCondition.neumann()


class TestRightEndpointBoundary:
    def test_reflection_maps_robin_sides(self):
        # x -> a + b - x swaps the endpoints; for even coefficients the
        # operator with the parameter at b is the reversal conjugate of the
        # one with the parameter at a
        n = 40
        mesh = build_mesh(IntervalSpec(), n)
        even = CoefficientSet.from_callables(
            mesh, p=lambda x: 1 + 0.5 * np.cos(2 * np.pi * (x - 0.5)),
            q=lambda x: np.cos(4 * np.pi * (x - 0.5)))
        th = BoundaryCondition(0.8 + 0.3j)
        H_left = orthonormalize(assemble_forms(mesh, even, th, DIR))
        H_right = orthonormalize(assemble_forms(mesh, even, DIR, th))
        np.testing.assert_allclose(H_right, H_left[::-1, ::-1], atol=1e-12)

    def test_both_ends_robin_rank_two(self):
        mesh = build_mesh(IntervalSpec(), 16)
        coeffs = CoefficientSet.from_callables(mesh)
        forms = assemble_forms(mesh, coeffs, BoundaryCondition(0.5),
                               BoundaryCondition(1.2 + 0.1j))
        assert np.linalg.matrix_rank(_dense(forms.Bdry)) == 2


class TestKatoWithRobinBase:
    @pytest.mark.parametrize("theta", [np.pi / 2, 0.7, 1 + 0.5j])
    def test_identity_holds_for_any_boundary_parameter(self, theta):
        # the boundary term lives in the base operator; the factored
        # identities are insensitive to it
        th = BoundaryCondition(theta)
        mesh = build_mesh(IntervalSpec(), 48)
        coeffs = CoefficientSet.from_callables(
            mesh, p=lambda x: 1 + 0.4 * np.sin(3 * x) + 0.3j * np.cos(x),
            q=lambda x: 2 * np.sign(np.sin(7 * x)),
            r=lambda x: (1 + 1j) * np.cos(2 * x), s=0.5 - 0.25j)
        rep = verify_identity(Problem(IntervalSpec(), mesh, coeffs, th, DIR))
        assert not rep["excluded"]
        assert max(rep["max_error"].values()) <= 1e-9

    def test_two_step_with_varying_complex_diffusion(self):
        mesh = build_mesh(IntervalSpec(), 48)
        coeffs = CoefficientSet.from_callables(
            mesh, p=lambda x: 1.2 + 0.5j * np.sin(np.pi * x),
            q=lambda x: np.where(x < 0.5, -3.0, 2.0).astype(complex),
            r=1j, s=lambda x: np.sin(5 * x))
        rep = verify_identity(Problem(IntervalSpec(), mesh, coeffs, NEU, DIR))
        assert not rep["excluded"]
        assert rep["max_error"]["two_step"] <= 1e-9


class TestKreinAtComplexSpectralPoints:
    @pytest.mark.parametrize("z", [-5.0 + 2.0j, -3.0 - 7.0j, 1.5 + 4.0j])
    def test_rank_one_correction_off_the_real_axis(self, z):
        from sqrtdom.krein import krein_resolvent

        th = BoundaryCondition(0.9 + 0.2j)
        n = 128
        mesh = build_mesh(IntervalSpec(), n)
        coeffs = CoefficientSet.from_callables(mesh, p=1.0)
        op_dir = Problem(IntervalSpec(), mesh, coeffs, DIR, DIR)
        dir_tab = op_dir.kernel_table(resolvent(op_dir.H, z))
        krein_tab = krein_resolvent(dir_tab, z, th, mesh)
        op_rob = Problem(IntervalSpec(), mesh, coeffs, th, DIR)
        rob_tab = op_rob.kernel_table(resolvent(op_rob.H, z))
        scale = np.max(np.abs(rob_tab))
        assert np.max(np.abs(krein_tab - rob_tab)) <= 5e-3 * scale


class TestComplexRobinSqrtKernel:
    @pytest.mark.parametrize("theta", [np.pi / 4, 1 + 0.5j])
    def test_matches_matrix_square_root(self, theta):
        th = BoundaryCondition(theta)
        E, n = 25.0, 64
        mesh = build_mesh(IntervalSpec(), n)
        table = sqrt_kernel(E, th, mesh)
        assert np.all(np.isfinite(table))
        assert np.max(np.abs(table[-1, :])) == 0.0
        coeffs = CoefficientSet.from_callables(mesh, p=1.0)
        op = Problem(IntervalSpec(), mesh, coeffs, th, DIR)
        S = sqrt_db(resolvent(op.H + E * np.eye(op.H.shape[0]), 0.0))
        disc = op.kernel_table(S)
        band = np.abs(np.subtract.outer(np.arange(n + 1),
                                        np.arange(n + 1))) >= 4
        err = np.max(np.abs((disc - table)[band]))
        assert err <= 0.02 * np.max(np.abs(disc[band]))

    def test_envelope_slack_with_complex_parameter(self):
        mesh = build_mesh(IntervalSpec(), 40)
        th = BoundaryCondition(1 + 0.5j)
        for E in (25.0, 100.0):
            rec = bessel_bound_check(E, 0.35, 0.6, th, mesh)
            assert rec["slack"] >= 0.0


class TestNonnormalFractionalPowers:
    def test_half_power_on_stiff_nonnormal_matrix(self):
        rng = np.random.default_rng(3)
        N = np.triu(rng.standard_normal((25, 25)), 1) * 3.0
        H = N + np.diag(np.geomspace(0.5, 50.0, 25)).astype(complex)
        Y = sqrt_db(H)
        P = frac_power_quad(H, 0.5, QuadratureSpec(panels=12))
        assert np.linalg.norm(P - Y) / np.linalg.norm(Y) <= 1e-6

    def test_semigroup_property_nonnormal(self):
        rng = np.random.default_rng(5)
        N = np.triu(rng.standard_normal((20, 20)), 1)
        H = N + 2.0 * np.eye(20, dtype=complex)
        quad = QuadratureSpec(panels=16)
        q13 = frac_power_quad(H, 1.0 / 3.0, quad)
        q23 = frac_power_quad(H, 2.0 / 3.0, quad)
        resid = np.linalg.norm(q13 @ q13 - q23) / np.linalg.norm(q23)
        assert resid <= 1e-7

    def test_minimal_mesh_pipeline(self):
        # the 2-cell problem runs the whole factored path on one unknown
        mesh = build_mesh(IntervalSpec(), 2)
        coeffs = CoefficientSet.from_callables(mesh, q=1.0, r=1.0, s=1.0)
        rep = verify_identity(Problem(IntervalSpec(), mesh, coeffs, DIR, DIR))
        assert max(rep["max_error"].values()) <= 1e-12
