import numpy as np
import pytest

from sqrtdom.assembly import (BoundaryCondition, CoefficientSet, IntervalSpec,
                              assemble_forms, build_mesh)
from sqrtdom.formbounds import (FormBoundConstants, check_form_bound,
                                check_trudinger, locunif_norms)

NEU = BoundaryCondition.neumann()


class TestLocunifNorms:
    def test_unit_potential_has_unit_window_norm(self):
        iv = IntervalSpec("full_line", truncation_radius=5.0)
        mesh = build_mesh(iv, 400)
        coeffs = CoefficientSet.from_callables(mesh, q=1.0)
        consts = locunif_norms(coeffs, iv, mesh)
        assert consts.C_q == pytest.approx(1.0, rel=1e-12)

    def test_linear_r_on_unit_interval(self):
        iv = IntervalSpec("finite", 0.0, 1.0)
        mesh = build_mesh(iv, 64)
        coeffs = CoefficientSet.from_callables(mesh, r=lambda x: x)
        consts = locunif_norms(coeffs, iv, mesh)
        assert consts.C_r == pytest.approx(1.0 / 3.0, abs=1e-4)

    def test_derived_constants_arithmetic(self):
        consts = FormBoundConstants.from_window_norms(1.0, 1.0, 1.0, lam=1.0)
        assert consts.C_0 == pytest.approx(2.0)
        assert consts.M == pytest.approx(1024.0)
        assert consts.eps_qrs == pytest.approx(1.0)
        assert consts.eps_0 == pytest.approx(1.0)

    def test_zero_coefficients_relax_eps_range(self):
        consts = FormBoundConstants.from_window_norms(0.0, 0.0, 0.0, lam=1.0)
        assert consts.eps_0 == 1.0

    def test_scaling_covariance(self):
        iv = IntervalSpec("full_line", truncation_radius=4.0)
        mesh = build_mesh(iv, 256)
        base = CoefficientSet.from_callables(mesh, q=lambda x: np.abs(np.sin(3 * x)))
        scaled = CoefficientSet.from_callables(
            mesh, q=lambda x: -2.5 * np.abs(np.sin(3 * x)))
        c1 = locunif_norms(base, iv, mesh)
        c2 = locunif_norms(scaled, iv, mesh)
        assert c2.C_q == pytest.approx(2.5 * c1.C_q, rel=1e-12)

    def test_window_fallback_flag(self):
        iv = IntervalSpec("half_line", a=0.0, truncation_radius=0.5)
        mesh = build_mesh(iv, 32)
        coeffs = CoefficientSet.from_callables(mesh, q=1.0)
        consts = locunif_norms(coeffs, iv, mesh)
        assert consts.C_q == pytest.approx(0.5, rel=1e-12)

    def test_halfline_constants_reduce_to_whole_interval(self):
        # when the window covers the domain the sliding sup equals the
        # whole-domain integral
        iv_line = IntervalSpec("half_line", a=0.0, truncation_radius=1.0)
        mesh = build_mesh(iv_line, 128)
        coeffs = CoefficientSet.from_callables(mesh, q=lambda x: 1 + x)
        c_line = locunif_norms(coeffs, iv_line, mesh)
        iv_fin = IntervalSpec("finite", 0.0, 1.0)
        c_fin = locunif_norms(coeffs, iv_fin, build_mesh(iv_fin, 128))
        assert c_line.C_q == pytest.approx(c_fin.C_q, rel=1e-12)


class TestCheckFormBound:
    def build(self, n=200):
        iv = IntervalSpec("full_line", truncation_radius=10.0)
        mesh = build_mesh(iv, n)
        coeffs = CoefficientSet.from_callables(mesh, q=1.0, r=1.0, s=1.0)
        forms = assemble_forms(mesh, coeffs, NEU, NEU)
        consts = locunif_norms(coeffs, iv, mesh)
        return forms, consts

    def test_zero_vector_zero_slack_sides(self):
        forms, consts = self.build()
        lhs, bound, slack = check_form_bound(np.zeros((forms.n_dof, 1)),
                                             forms, consts, [0.5])
        assert np.all(lhs == 0.0) and np.all(bound == 0.0)
        assert np.all(slack == 0.0)

    def test_zero_coefficients_trivial_bound(self):
        iv = IntervalSpec("full_line", truncation_radius=10.0)
        mesh = build_mesh(iv, 100)
        coeffs = CoefficientSet.from_callables(mesh)
        forms = assemble_forms(mesh, coeffs, NEU, NEU)
        consts = locunif_norms(coeffs, iv, mesh)
        rng = np.random.default_rng(0)
        f = rng.standard_normal(forms.n_dof)
        lhs, _, slack = check_form_bound(f[:, None], forms, consts, [0.5])
        assert np.all(lhs == 0.0)
        assert np.all(slack >= 0.0)

    def test_random_battery_nonnegative_slack(self):
        forms, consts = self.build()
        rng = np.random.default_rng(42)
        eps_grid = np.geomspace(0.01, 0.99 * consts.eps_0, 8)
        F = np.stack([rng.standard_normal(forms.n_dof)
                      + 1j * rng.standard_normal(forms.n_dof)
                      for _ in range(50)], axis=1)
        _, _, slack = check_form_bound(F, forms, consts, eps_grid)
        assert np.all(slack >= -1e-10)

    def test_block_matches_each_column_alone(self):
        forms, consts = self.build()
        rng = np.random.default_rng(7)
        F = (rng.standard_normal((forms.n_dof, 5))
             + 1j * rng.standard_normal((forms.n_dof, 5)))
        eps_grid = np.geomspace(0.01, 0.99, 6) * consts.eps_0
        block = check_form_bound(F, forms, consts, eps_grid)
        for k in range(5):
            alone = check_form_bound(F[:, k:k + 1], forms, consts, eps_grid)
            for got, want in zip(block, alone):
                np.testing.assert_allclose(got[k:k + 1], want, rtol=1e-13)

    def test_eps_outside_range_rejected(self):
        forms, consts = self.build(50)
        with pytest.raises(ValueError):
            check_form_bound(np.zeros((forms.n_dof, 1)), forms, consts,
                             [consts.eps_0 * 1.01])


class TestCheckTrudinger:
    def test_constant_function(self):
        mesh = build_mesh(IntervalSpec(), 32)
        f = np.ones((33, 1))
        w = np.zeros(32)
        for eps in (0.1, 1.0, 10.0):
            rec = check_trudinger(f, w, mesh, eps)
            assert np.all(rec["point_slack"] >= 0.0)

    def test_linear_function_hand_values(self):
        # max |f|^2 = 1 <= eps * 1 + (1 + 1/eps) * 1/3 at eps = 1
        mesh = build_mesh(IntervalSpec(), 64)
        f = mesh.nodes.astype(complex)[:, None]
        rec = check_trudinger(f, np.zeros(64), mesh, 1.0)
        assert rec["max_f2"] == pytest.approx(1.0)
        assert rec["point_bound"] == pytest.approx(1.0 + 2.0 / 3.0, rel=1e-12)
        assert np.all(rec["point_slack"] >= 0.0)

    def test_random_trig_battery(self):
        mesh = build_mesh(IntervalSpec(), 128)
        rng = np.random.default_rng(3)
        x = mesh.nodes
        for _ in range(25):
            coef = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            f = sum(c * np.sin((k + 1) * np.pi * x) for k, c in enumerate(coef))
            w = rng.standard_normal(128)
            for eps in (0.1, 1.0, 10.0):
                rec = check_trudinger(f[:, None], w, mesh, eps)
                assert np.all(rec["point_slack"] >= -1e-12)
                assert np.all(rec["weighted_slack"] >= -1e-12)

    def test_block_matches_each_column_alone(self):
        mesh = build_mesh(IntervalSpec("half_line", a=0.0,
                                       truncation_radius=4.0), 40)
        rng = np.random.default_rng(11)
        G = rng.standard_normal((41, 5)) + 1j * rng.standard_normal((41, 5))
        w = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        for eps in (0.1, 1.0, 10.0):
            block = check_trudinger(G, w, mesh, eps)
            for k in range(5):
                alone = check_trudinger(G[:, k:k + 1], w, mesh, eps)
                for key, want in alone.items():
                    np.testing.assert_allclose(block[key][k:k + 1], want,
                                               rtol=1e-13)

    def test_rejects_nonpositive_eps(self):
        mesh = build_mesh(IntervalSpec(), 8)
        with pytest.raises(ValueError):
            check_trudinger(np.ones((9, 1)), np.zeros(8), mesh, 0.0)
