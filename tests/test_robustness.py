"""Cross-cutting stress tests: complex boundary parameters, varying complex
diffusion, reflection symmetry, nonnormal fractional powers and the guards
on input from outside."""

import numpy as np
import pytest

from sqrtdom.assembly import (BoundaryCondition, CoefficientSet, IntervalSpec,
                              Mesh, _dense, assemble_forms, build_mesh,
                              orthonormalize)
from sqrtdom.cli import main
from sqrtdom.domains import thmA1_decay
from sqrtdom.kato import _InvSqrtShifted, verify_identity
from sqrtdom.krein import (bessel_bound_check, bessel_k0_quad, d_theta,
                           krein_resolvent, sqrt_kernel)
from sqrtdom.matfun import (QuadratureSpec, ResolventError, frac_power_quad,
                            gauss_panels, resolvent, spectral_norm, sqrt_db)
from sqrtdom.problems import Problem, build_coefficients, make_problem

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


def cli_exit(*args, file_text=None):
    """A CLI run in a temporary directory; ``{file}`` in ``args`` names a
    file holding ``file_text``."""
    def run(tmp_path):
        path = tmp_path / "input.txt"
        if file_text is not None:
            path.write_text(file_text)
        return main([*(arg.format(file=path) for arg in args),
                     "--outdir", str(tmp_path / "o")])
    return run


# cot(theta) = 2 coth(2): z = -4 is an eigenvalue of the Robin realization
# on [0, 1], so the coupling denominator vanishes there
SHARED = BoundaryCondition(np.arctan(np.tanh(2.0) / 2.0))
UNIT = build_mesh(IntervalSpec(), 8)


def free_halver():
    return _InvSqrtShifted(make_problem("free", n=8).H)


def kernel_on_a_tiny_interval(tmp_path):
    # the quadrature's cutoff pi / h squared overflows
    with np.errstate(all="ignore"):
        return sqrt_kernel(25.0, NEU, build_mesh(
            IntervalSpec("finite", 0.0, 1e-300), 8))


def power_at_a_node_pole(tmp_path):
    # H + u^2 vanishes at the rule's first node u
    quad = QuadratureSpec()
    u, _ = gauss_panels(quad.unit_edges(), quad.panel_nodes)
    return frac_power_quad(np.array([[-u[0] ** 2]]), 0.5, quad)


@pytest.mark.parametrize("call,expected", [
    (cli_exit("assemble", "--interval", "ray"), (2, "unknown interval")),
    (cli_exit("assemble", "--config", "{file}", file_text="problem free\n"),
     (2, "expected 'key = value'")),
    (cli_exit("kappa-study", "--alpha", "1.5"), (2, "alpha must lie")),
    (cli_exit("assemble", "--n", "8", "--coeff-q", "{file}",
              file_text="x,value\n0,1\n"), (2, "unexpected coefficient")),
    (lambda tmp_path: Mesh(np.array([0.0, 1.0])),
     (ValueError, "at least 2 cells")),
    (lambda tmp_path: Mesh(np.array([0.0, 2.0, 1.0])),
     (ValueError, "strictly increasing")),
    (lambda tmp_path: CoefficientSet(p=np.ones(3), q=np.zeros(2),
                                     r=np.zeros(3), s=np.zeros(3)),
     (ValueError, "share one length")),
    (lambda tmp_path: thmA1_decay(np.ones(3), free_halver(), [1e2, 1e3]),
     (ValueError, "DOF count")),
    (lambda tmp_path: d_theta(-1.0, DIR, 0.0, 1.0),
     (ValueError, "theta_a != 0")),
    (lambda tmp_path: krein_resolvent(np.zeros((9, 9)), -4.0, SHARED, UNIT),
     (ZeroDivisionError, "shared spectrum")),
    (lambda tmp_path: sqrt_kernel(4.0, SHARED, UNIT),
     (ValueError, "safe shift")),
    (kernel_on_a_tiny_interval, (FloatingPointError, "overflowed")),
    (power_at_a_node_pole, (ResolventError, "quadrature node")),
    (lambda tmp_path: bessel_k0_quad(0.0), (ValueError, "positive")),
    (lambda tmp_path: QuadratureSpec(panels=0), (ValueError, "at least 8")),
    (lambda tmp_path: QuadratureSpec(panel_nodes=-8, panels=-1),
     (ValueError, "panel layout")),
    (lambda tmp_path: build_coefficients("nope", UNIT),
     (ValueError, "unknown coefficient family")),
    (lambda tmp_path: spectral_norm(np.zeros((0, 3))), 0.0)],
    ids=["interval_kind", "config_line", "alpha", "coefficient_header",
         "mesh_size", "mesh_order", "sample_lengths", "multiplier_samples",
         "dirichlet_denominator", "shared_spectrum", "safe_shift",
         "kernel_overflow", "quadrature_pole", "k0_argument", "quadrature_nodes", "panel_layout", "family",
         "empty_norm"])
def test_outside_input_guard(tmp_path, capsys, call, expected):
    # each guard on input from outside used to be reached by no test: a
    # configuration error exits 2 with its own message, a bad argument
    # raises its class with its own message, and the empty norm is 0
    if not isinstance(expected, tuple):
        assert call(tmp_path) == expected
    elif isinstance(expected[0], int):
        assert call(tmp_path) == expected[0]
        assert expected[1] in capsys.readouterr().err
    else:
        with pytest.raises(expected[0], match=expected[1]):
            call(tmp_path)
