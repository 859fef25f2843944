import numpy as np
import pytest
from scipy import special

from sqrtdom import checks, krein
from sqrtdom.assembly import (BoundaryCondition, CoefficientSet, IntervalSpec,
                              build_mesh)
from sqrtdom.krein import (bessel_bound_check, bessel_k0_quad, d_theta,
                           green_kernel_dirichlet, krein_resolvent,
                           sqrt_kernel, u2_closed_form)
from sqrtdom.matfun import resolvent, sqrt_db
from sqrtdom.problems import Problem

DIR = BoundaryCondition.dirichlet()
NEU = BoundaryCondition.neumann()
ROBIN = BoundaryCondition(1 + 0.5j)
A, B = 0.0, 1.0


def complex_t_kernel(tau, x, xp, theta):
    """The coupling integrand at one ``tau`` in complex arithmetic, as one
    expression: the reference for ``krein``'s real-arithmetic kernels."""
    st = np.sqrt(complex(tau))
    em = np.exp(-2.0 * st * (B - A))
    dval = theta.cot() - st * (1.0 + em) / (1.0 - em)
    num = (np.exp(-st * ((x - A) + (xp - A)))
           * -np.expm1(-2.0 * st * (B - x)) * -np.expm1(-2.0 * st * (B - xp)))
    return num / (dval * np.expm1(-2.0 * st * (B - A)) ** 2)


def reject_complex_array_exp(monkeypatch):
    """Make ``np.exp`` and ``np.expm1`` raise on complex arrays; complex
    scalars (``d_theta``) still pass."""
    for name in ("exp", "expm1"):
        def real_only(x, *args, _f=getattr(np, name), **kwargs):
            if np.ndim(x) and np.iscomplexobj(x):
                raise AssertionError("complex array exponential")
            return _f(x, *args, **kwargs)
        monkeypatch.setattr(np, name, real_only)


def discrete_kernel(n, z, bc_left, bc_right=DIR):
    """Resolvent kernel table of the assembled unit-diffusion operator."""
    interval = IntervalSpec("finite", A, B)
    mesh = build_mesh(interval, n)
    coeffs = CoefficientSet.from_callables(mesh, p=1.0)
    op = Problem(interval, mesh, coeffs, bc_left, bc_right)
    R = resolvent(op.H, z)
    return mesh, op, op.kernel_table(R)


class TestU2ClosedForm:
    def test_boundary_values(self):
        for z in (-1.0, -25.0, 2.0 + 3.0j):
            assert u2_closed_form(z, A, A, B) == pytest.approx(1.0)
            assert abs(u2_closed_form(z, B, A, B)) < 1e-14

    def test_hyperbolic_ratio_at_negative_energy(self):
        got = u2_closed_form(-1.0, 0.5, A, B)
        assert got == pytest.approx(np.sinh(0.5) / np.sinh(1.0), rel=1e-14)
        assert abs(got.imag) < 1e-15

    @pytest.mark.parametrize("z,tol", [(-1.0, 1e-8), (-7.0 + 2.0j, 1e-6)])
    def test_satisfies_the_ode(self, z, tol):
        # fourth-order five-point second derivative: residual of u'' + z u
        h = 1e-2
        x = np.linspace(A + 5 * h, B - 5 * h, 41)
        stencil = (-u2_closed_form(z, x - 2 * h, A, B)
                   + 16 * u2_closed_form(z, x - h, A, B)
                   - 30 * u2_closed_form(z, x, A, B)
                   + 16 * u2_closed_form(z, x + h, A, B)
                   - u2_closed_form(z, x + 2 * h, A, B)) / (12 * h * h)
        residual = np.max(np.abs(-stencil - z * u2_closed_form(z, x, A, B)))
        assert residual <= tol

    def test_dirichlet_eigenvalue_rejected(self):
        with pytest.raises(ZeroDivisionError):
            u2_closed_form(np.pi ** 2, 0.5, A, B)

    @pytest.mark.parametrize("z", [np.pi ** 2, 4 * np.pi ** 2,
                                   np.pi ** 2 * (1 + 1e-13),
                                   9 * np.pi ** 2 * (1 - 1e-13)])
    def test_eigenvalues_within_roundoff_rejected(self, z):
        with pytest.raises(ZeroDivisionError, match="Dirichlet eigenvalue"):
            u2_closed_form(z, 0.5, A, B)

    @pytest.mark.parametrize("z", [-1e-26, 1e-26, -1e-30, 1e-30j, 1e-300])
    def test_shift_near_zero_reads_the_linear_limit(self, z):
        # the guard compared |1 - exp(-2 sqrt(-z))|, about 2 sqrt(|z|) near
        # 0, with an absolute 2e-12, and raised here, though the lowest
        # Dirichlet eigenvalue is pi^2
        x = np.linspace(A, B, 11)
        got = u2_closed_form(z, x, A, B)
        assert np.max(np.abs(got - (B - x) / (B - A))) <= 4e-16

    def test_zero_shift_is_the_limit(self):
        x = np.linspace(-1.0, 2.0, 7)
        got = u2_closed_form(0.0, x, -1.0, 2.0)
        assert got.dtype == complex
        np.testing.assert_array_equal(got, (2.0 - x) / 3.0)
        assert u2_closed_form(0.0, 0.25, A, B) == 0.75


class TestDTheta:
    def test_neumann_closed_form(self):
        for E in (1.0, 9.0, 100.0):
            got = d_theta(-E, NEU, A, B)
            want = -np.sqrt(E) / np.tanh(np.sqrt(E) * (B - A))
            assert got == pytest.approx(want, rel=1e-13)

    def test_quarter_pi_closed_form(self):
        E = 4.0
        got = d_theta(-E, BoundaryCondition(np.pi / 4), A, B)
        assert got == pytest.approx(1.0 - 2.0 / np.tanh(2.0), rel=1e-13)

    def test_against_finite_difference_slope(self):
        z = -3.0 + 1.0j
        th = BoundaryCondition(0.6 + 0.2j)
        h = 1e-6
        slope = (u2_closed_form(z, A + h, A, B)
                 - u2_closed_form(z, A - h, A, B)) / (2 * h)
        got = d_theta(z, th, A, B)
        assert got == pytest.approx(th.cot() + slope, rel=1e-8)

    def test_large_shift_asymptote(self):
        # d ~ -sqrt(E), uniformly in the boundary parameter
        for th in (NEU, BoundaryCondition(np.pi / 4), BoundaryCondition(1 + 0.5j)):
            E = 1e8
            ratio = d_theta(-E, th, A, B) / -np.sqrt(E)
            assert ratio == pytest.approx(1.0, rel=1e-3)


class TestGreenKernel:
    def test_matches_discrete_resolvent(self):
        errs = []
        for n in (32, 64):
            mesh, op, table = discrete_kernel(n, -5.0, DIR)
            X, Xp = np.meshgrid(mesh.nodes, mesh.nodes, indexing="ij")
            closed = green_kernel_dirichlet(-5.0, X, Xp, A, B)
            errs.append(np.max(np.abs(closed - table)))
        assert errs[0] / errs[1] >= 3.0  # second order

    def test_pde_residual_off_diagonal(self):
        # (-d^2/dx^2 - z) applied to kernel columns vanishes away from x'
        z = -4.0
        n = 200
        x = np.linspace(A, B, n + 1)
        h = x[1] - x[0]
        col = green_kernel_dirichlet(z, x, 0.3, A, B)
        lap = (col[:-2] - 2 * col[1:-1] + col[2:]) / h**2
        resid = -lap - z * col[1:-1]
        mask = np.abs(x[1:-1] - 0.3) > 0.05
        assert np.max(np.abs(resid[mask])) <= 1e-4 * np.max(np.abs(col))

    def test_deep_shift_stable(self):
        val = green_kernel_dirichlet(-1e12, 0.5, 0.5, A, B)
        assert np.isfinite(val)
        assert val == pytest.approx(1.0 / (2e6), rel=1e-6)

    def test_discrete_delta_residual(self):
        # assembled operator applied to sampled kernel columns reproduces
        # the identity; observed decay is second order, bound asserted at h
        z = -5.0
        for n in (32, 64):
            mesh, op, _ = discrete_kernel(n, z, DIR)
            X, Xp = np.meshgrid(mesh.nodes, mesh.nodes, indexing="ij")
            table = green_kernel_dirichlet(z, X, Xp, A, B)
            w = np.sqrt(op.forms.lumped_weights)
            sub = np.ix_(op.forms.dof_nodes, op.forms.dof_nodes)
            R_orth = w[:, None] * table[sub] * w[None, :]
            n_dof = op.H.shape[0]
            D = (op.H - z * np.eye(n_dof)) @ R_orth - np.eye(n_dof)
            assert np.abs(D).max() <= mesh.h


class TestKreinResolvent:
    def test_dirichlet_limit(self):
        mesh, op, table = discrete_kernel(64, -5.0, DIR)
        got = krein_resolvent(table, -5.0, BoundaryCondition(1e-9), mesh)
        assert np.max(np.abs(got - table)) <= 1e-7

    @pytest.mark.parametrize("theta", [np.pi / 2, np.pi / 4, 1 + 0.5j])
    def test_convergence_to_direct_assembly(self, theta):
        th = BoundaryCondition(theta)
        z = -5.0
        errs = {}
        for n in (64, 128, 256):
            mesh, _, dir_table = discrete_kernel(n, z, DIR)
            krein_table = krein_resolvent(dir_table, z, th, mesh)
            _, _, robin_table = discrete_kernel(n, z, th)
            errs[n] = np.max(np.abs(krein_table - robin_table))
        order1 = np.log2(errs[64] / errs[128])
        order2 = np.log2(errs[128] / errs[256])
        assert order1 >= 1.8 and order2 >= 1.8

    def test_real_parameter_symmetry(self):
        mesh, op, table = discrete_kernel(48, -3.0, DIR)
        got = krein_resolvent(table, -3.0, BoundaryCondition(0.9), mesh)
        assert np.max(np.abs(got - got.T)) <= 1e-10


    @pytest.mark.parametrize("z", [-5.0, 3.0 + 2.0j])
    @pytest.mark.parametrize("theta", [np.pi / 2, 0.9, 1 + 0.5j])
    def test_in_place_correction_is_the_outer_product_bitwise(self, z,
                                                              theta):
        # the row blocks subtract in place what the whole outer product
        # subtracted, entry for entry
        th = BoundaryCondition(theta)
        mesh, _, table = discrete_kernel(160, z, DIR)
        u2 = u2_closed_form(z, mesh.nodes, A, B)
        u2_bar = u2_closed_form(np.conj(z), mesh.nodes, A, B)
        term = np.outer(u2, np.conj(u2_bar))
        term /= d_theta(z, th, A, B)
        got = krein_resolvent(table, z, th, mesh)
        assert np.array_equal(got, table - term)
        assert len(list(krein._blocks(161, 161))) > 1

    def test_ladder_errors_are_the_whole_tables_bitwise(self):
        # krein_suite's level holds two tables and takes its error by row
        # blocks: the same maxima as the whole corrected and finite-element
        # tables give
        z, m = -5.0, 96
        got = dict(checks._krein_level(IntervalSpec("finite", A, B), m, z))
        for label, th in checks.KREIN_THETAS:
            mesh, _, dir_table = discrete_kernel(m, z, DIR)
            _, _, fe_table = discrete_kernel(m, z, th)
            expected = np.max(np.abs(krein_resolvent(dir_table, z, th, mesh)
                                     - fe_table))
            assert got[label] == expected, label

    def test_ladder_error_keeps_a_nan_row_block(self, monkeypatch):
        # the error is a maximum over row blocks: one nan entry makes the
        # level's error nan, as the whole table's maximum was, so the
        # convergence check cannot read a finite order past it
        subtract = checks._subtract_coupling

        def planted(table, first, coupling):
            out = subtract(table, first, coupling)
            if first == 0:
                out[0, 1] = np.nan
            return out

        monkeypatch.setattr(checks, "_subtract_coupling", planted)
        got = checks._krein_level(IntervalSpec("finite", A, B), 64, -5.0)
        assert all(np.isnan(err) for _, err in got)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("b, z", [(1e-300, -25.0), (1e-200, -25.0),
                                      (1.0, -1e-40)])
    def test_non_finite_denominator_rejected_before_the_table(self, b, z):
        # sqrt(-z) (b - a) below double precision makes 1 - exp(-2 sqrt(-z)
        # (b - a)) zero and d = -inf + nan i, which |d| < 1e-12 (1 + |u2'|)
        # let through: the table came back full of nan
        mesh = build_mesh(IntervalSpec("finite", A, b), 8)
        table = np.eye(9, dtype=complex)
        with pytest.raises(FloatingPointError, match="not finite"):
            krein_resolvent(table, z, NEU, mesh)
        with pytest.raises(FloatingPointError, match="not finite"):
            krein._coupling(z, NEU, mesh)
        assert np.array_equal(table, np.eye(9))

    def test_shared_spectrum_is_its_own_error(self):
        # cot(theta) = 1 and sqrt(E) coth(sqrt(E) 53) = 1 at E = 1
        mesh = build_mesh(IntervalSpec("finite", -3.0, 50.0), 8)
        with pytest.raises(krein.SharedSpectrumError, match="shared"):
            krein_resolvent(np.zeros((9, 9)), -1.0,
                            BoundaryCondition(np.pi / 4), mesh)


class TestSqrtKernel:
    def test_dirichlet_row_vanishes(self):
        mesh = build_mesh(IntervalSpec("finite", A, B), 48)
        table = sqrt_kernel(25.0, NEU, mesh)
        assert np.max(np.abs(table[-1, :])) == 0.0
        assert np.all(np.isfinite(table))

    def test_composition_reproduces_resolvent_kernel(self):
        E = 25.0
        rels = []
        for n in (32, 64):
            mesh = build_mesh(IntervalSpec("finite", A, B), n)
            table = sqrt_kernel(E, NEU, mesh)
            w = np.full(n + 1, mesh.h)
            w[0] = w[-1] = mesh.h / 2
            composed = (table * w[None, :]) @ table
            X, Xp = np.meshgrid(mesh.nodes, mesh.nodes, indexing="ij")
            ref = (green_kernel_dirichlet(-E, X, Xp, A, B)
                   - np.outer(u2_closed_form(-E, mesh.nodes, A, B),
                              u2_closed_form(-E, mesh.nodes, A, B))
                   / d_theta(-E, NEU, A, B))
            rels.append(np.max(np.abs(composed - ref)) / np.max(np.abs(ref)))
        assert rels[0] <= 0.08
        assert rels[1] <= 0.7 * rels[0]  # first-order-with-log decay

    def test_matches_matrix_square_root_off_diagonal(self):
        E = 25.0
        n = 64
        interval = IntervalSpec("finite", A, B)
        mesh = build_mesh(interval, n)
        coeffs = CoefficientSet.from_callables(mesh, p=1.0)
        op = Problem(interval, mesh, coeffs, NEU, DIR)
        S = sqrt_db(resolvent(op.H + E * np.eye(op.H.shape[0]), 0.0))
        disc = op.kernel_table(S)
        cont = sqrt_kernel(E, NEU, mesh)
        band = np.abs(np.subtract.outer(np.arange(n + 1), np.arange(n + 1))) >= 4
        err = np.max(np.abs((disc - cont)[band]))
        assert err <= 0.02 * np.max(np.abs(disc[band]))

    def test_shift_below_safe_threshold_rejected(self):
        mesh = build_mesh(IntervalSpec("finite", A, B), 16)
        with pytest.raises(ValueError):
            sqrt_kernel(-1.0, NEU, mesh)

    @pytest.mark.parametrize("theta", [NEU, ROBIN], ids=["neumann", "robin"])
    def test_matches_complex_node_loop(self, theta):
        # one node at a time in complex arithmetic, as the kernel once ran
        E, n = 25.0, 24
        mesh = build_mesh(IntervalSpec("finite", A, B), n)
        X, Xp = np.meshgrid(mesh.nodes, mesh.nodes, indexing="ij")
        u, w = krein._sqrt_nodes(np.pi / mesh.h)
        ref = np.zeros_like(X, dtype=complex)
        for ui, wi in zip(u, w):
            tau = ui * ui + E
            ref += wi * (green_kernel_dirichlet(-tau, X, Xp, A, B)
                         - complex_t_kernel(tau, X, Xp, theta))
        ref *= 2.0 / np.pi
        got = sqrt_kernel(E, theta, mesh)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("interval", [
        IntervalSpec("finite", A, B),
        IntervalSpec("half_line", truncation_radius=4.0)],
        ids=["finite", "half_line"])
    @pytest.mark.parametrize("n", [64, 96])
    def test_equals_the_per_entry_green_sum_bitwise(self, n, interval):
        # each hyperbolic factor of the Green kernel is computed once per
        # quadrature node as a vector over the nodes and picked at the
        # min and max index; the kernel equals the sum that evaluated
        # _green_from_root on the whole grid at every node, bit for bit; the
        # coupling is Krein's term from the one boundary solution and the
        # one denominator
        E, theta = 25.0, ROBIN
        mesh = build_mesh(interval, n)
        a, b, x = mesh.a, mesh.b, mesh.nodes
        u, w = krein._sqrt_nodes(np.pi / mesh.h)
        green = np.zeros((x.size, x.size))
        for ui, wi in zip(u, w):
            green += wi * krein._green_from_root(
                np.sqrt(ui * ui + E), x[:, None], x[None, :], a, b)
        st = np.sqrt(u * u + E)
        U = krein._boundary_solution(st[:, None], x, a, b)
        coupling = (U.T * (w / krein._denominator(st, theta.cot(), a, b))) @ U
        want = (2.0 / np.pi) * (green - coupling)
        assert np.array_equal(sqrt_kernel(E, theta, mesh), want)

    def test_real_arithmetic_exponentials(self, monkeypatch):
        mesh = build_mesh(IntervalSpec("finite", A, B), 16)
        reject_complex_array_exp(monkeypatch)
        for theta in (NEU, ROBIN):
            assert np.all(np.isfinite(sqrt_kernel(25.0, theta, mesh)))


class TestBesselBound:
    def test_k0_two_methods_agree(self):
        # quadrature of the integral form vs library series/asymptotics
        for y in (0.2, 1.0, 3.7, 12.0):
            assert abs(bessel_k0_quad(y) - special.k0(y)) <= 1e-8
        assert bessel_k0_quad(1.0) == pytest.approx(0.42102443824070834,
                                                    abs=1e-8)

    def test_k0_reference_is_the_library_function(self):
        # the one deferred-import owner returns scipy.special.k0 unchanged
        for y in checks.K0_POINTS:
            got, want = krein._k0(y), special.k0(y)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), y

    def test_midpoint_slack_nonnegative(self):
        mesh = build_mesh(IntervalSpec("finite", A, B), 40)
        rec = bessel_bound_check(25.0, 0.5, 0.5, NEU, mesh)
        assert rec["slack"] >= 0.0
        assert rec["C"] > 0.0

    def test_correction_decays_in_shift(self):
        mesh = build_mesh(IntervalSpec("finite", A, B), 40)
        l1 = bessel_bound_check(25.0, 0.4, 0.6, NEU, mesh)["lhs"]
        l2 = bessel_bound_check(100.0, 0.4, 0.6, NEU, mesh)["lhs"]
        assert l2 < l1

    def test_corner_arguments_rejected(self):
        mesh = build_mesh(IntervalSpec("finite", A, B), 16)
        with pytest.raises(ValueError):
            bessel_bound_check(25.0, A, A, NEU, mesh)

    @pytest.mark.parametrize("theta", [NEU, ROBIN], ids=["neumann", "robin"])
    def test_matches_complex_scalar_loop(self, theta):
        # the supremum and the integral one tau at a time in complex
        # arithmetic, as the check once ran
        E, x, xp = 25.0, 0.35, 0.6
        mesh = build_mesh(IntervalSpec("finite", A, B), 40)
        args = np.array([x + xp - 2 * A, 2 * B + x - xp - 2 * A,
                         2 * B + xp - x - 2 * A, 4 * B - x - xp - 2 * A])
        C = 0.0
        for t in np.geomspace(E, E * 1e6, 96):
            envelope = np.sum(np.exp(-np.sqrt(t) * args))
            if envelope > 0:
                C = max(C, abs(complex_t_kernel(t, x, xp, theta))
                        * np.sqrt(t) / envelope)
        C *= 1.0 + 1e-6
        u, w = krein._sqrt_nodes(np.pi / mesh.h)
        lhs = abs(2.0 * sum(wi * complex_t_kernel(ui * ui + E, x, xp, theta)
                            for ui, wi in zip(u, w)))
        rec = bessel_bound_check(E, x, xp, theta, mesh)
        assert rec["C"] == pytest.approx(C, rel=1e-13)
        assert rec["lhs"] == pytest.approx(lhs, rel=1e-13)

    def test_one_array_kernel_call_per_sweep(self, monkeypatch):
        # the supremum's 96 points and the integral's nodes each go through
        # one array call, in real arithmetic
        calls = []
        t_kernel = krein._t_kernel

        def counting(tau, *args):
            calls.append(np.shape(tau))
            return t_kernel(tau, *args)

        monkeypatch.setattr(krein, "_t_kernel", counting)
        reject_complex_array_exp(monkeypatch)
        mesh = build_mesh(IntervalSpec("finite", A, B), 40)
        for theta in (NEU, ROBIN):
            rec = bessel_bound_check(25.0, 0.35, 0.6, theta, mesh)
            assert rec["slack"] >= 0.0
        assert calls == [(96,), (krein._RULE.n_nodes,)] * 2
