import numpy as np
import pytest
import scipy.linalg as sla

from sqrtdom import formbounds

from sqrtdom.assembly import (BoundaryCondition, CoefficientSet, IntervalSpec,
                              _dense, assemble_forms, build_mesh)
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


def form_quotients(f, forms, consts, eps):
    """``|q_j(f, f)| / (eps Re q0(f, f) + M eps^-3 ||f||^2)`` of one dof
    vector, j = 1, 2, 3, from its forms."""
    q0, norm2, *q = (f.conj() @ _dense(K) @ f for K in
                     (forms.K0, forms.M, forms.K1, forms.K2, forms.K3))
    return np.abs(q) / (eps * q0.real + consts.M * eps ** -3 * norm2.real)


def trace_quotients(f, w, mesh, eps):
    """``max |f|^2`` and ``||w f||^2 / N_w`` of one nodal vector over the
    pointwise bound's right side, from the exact cellwise integrals of its
    interpolant and the midpoint rule for the weight."""
    h, fl, fr = mesh.h, f[:-1], f[1:]
    grad2 = np.sum(np.abs(np.diff(f) / h) ** 2) * h
    norm2 = h / 3.0 * np.sum(np.abs(fl) ** 2 + (np.conj(fl) * fr).real
                             + np.abs(fr) ** 2)
    bound = eps * grad2 + (1.0 / (mesh.b - mesh.a) + 1.0 / eps) * norm2
    N_w = np.sum(np.abs(w) ** 2) * h
    wf2 = np.sum(np.abs(w * 0.5 * (fl + fr)) ** 2) * h
    return np.max(np.abs(f) ** 2) / bound, wf2 / (N_w * bound)


class TestCheckFormBound:
    def build(self, n=200):
        iv = IntervalSpec("full_line", truncation_radius=10.0)
        mesh = build_mesh(iv, n)
        coeffs = CoefficientSet.from_callables(mesh, q=1.0, r=1.0, s=1.0)
        forms = assemble_forms(mesh, coeffs, NEU, NEU)
        consts = locunif_norms(coeffs, iv, mesh)
        return forms, consts

    def test_zero_coefficients_zero_ratio(self):
        iv = IntervalSpec("full_line", truncation_radius=10.0)
        mesh = build_mesh(iv, 100)
        coeffs = CoefficientSet.from_callables(mesh)
        forms = assemble_forms(mesh, coeffs, NEU, NEU)
        consts = locunif_norms(coeffs, iv, mesh)
        ratio = check_form_bound(forms, consts, [0.5])
        assert ratio.shape == (1, 3) and np.all(ratio == 0.0)

    def test_ratio_dominates_random_battery(self):
        # the ratio bounds the quotient of every vector, not of a sample
        forms, consts = self.build()
        rng = np.random.default_rng(42)
        eps_grid = np.geomspace(0.01, 0.99 * consts.eps_0, 8)
        ratio = check_form_bound(forms, consts, eps_grid)
        assert ratio.shape == (8, 3) and np.all(ratio < 1.0)
        for _ in range(50):
            f = (rng.standard_normal(forms.n_dof)
                 + 1j * rng.standard_normal(forms.n_dof))
            for e, eps in enumerate(eps_grid):
                assert np.all(form_quotients(f, forms, consts, eps)
                              <= ratio[e] * (1 + 1e-12))

    def test_frobenius_estimate_bounds_the_exact_norm(self):
        # the Frobenius estimate lies above the exact 2-norm of the weighted
        # form, which lies above the supremum of the quotient
        forms, consts = self.build(40)
        eps = 0.3 * consts.eps_0
        ratio = check_form_bound(forms, consts, [eps])[0]
        R = (eps * _dense(forms.K0).real
             + consts.M * eps ** -3 * _dense(forms.M).real)
        Rinv_half = np.linalg.inv(np.linalg.cholesky(R))
        for j, K in enumerate((forms.K1, forms.K2, forms.K3)):
            exact = np.linalg.norm(Rinv_half @ _dense(K) @ Rinv_half.T, 2)
            assert exact <= ratio[j] * (1 + 1e-12)

    def test_eps_outside_range_rejected(self):
        forms, consts = self.build(50)
        with pytest.raises(ValueError):
            check_form_bound(forms, consts, [consts.eps_0 * 1.01])


class TestCheckTrudinger:
    def test_constant_and_linear_functions_below_the_ratio(self):
        # a constant attains |f|^2 / ((1 + 1/eps) ||f||^2) = eps / (1 + eps);
        # f = x at eps = 1 reads 1 / (1 + 2/3)
        mesh = build_mesh(IntervalSpec(), 64)
        for eps in (0.1, 1.0, 10.0):
            rec = check_trudinger(np.zeros(64), mesh, eps)
            const, _ = trace_quotients(np.ones(65), np.ones(64), mesh, eps)
            assert const == pytest.approx(eps / (1.0 + eps), rel=1e-12)
            assert const <= rec["point_ratio"] <= 1.0
            assert rec["weighted_ratio"] == 0.0
        linear, _ = trace_quotients(mesh.nodes, np.ones(64), mesh, 1.0)
        assert linear == pytest.approx(0.6, rel=1e-12)
        rec = check_trudinger(np.zeros(64), mesh, 1.0)
        assert linear <= rec["point_ratio"]

    def test_ratios_dominate_random_trig_battery(self):
        mesh = build_mesh(IntervalSpec(), 128)
        rng = np.random.default_rng(3)
        x = mesh.nodes
        for _ in range(25):
            coef = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            f = sum(c * np.sin((k + 1) * np.pi * x) for k, c in enumerate(coef))
            w = rng.standard_normal(128)
            for eps in (0.1, 1.0, 10.0):
                rec = check_trudinger(w, mesh, eps)
                point, weighted = trace_quotients(f, w, mesh, eps)
                assert point <= rec["point_ratio"] * (1 + 1e-12)
                assert weighted <= rec["weighted_ratio"] * (1 + 1e-12)
                assert max(rec.values()) <= 1.0

    @pytest.mark.parametrize("interval", [
        IntervalSpec(),
        IntervalSpec("half_line", a=0.0, truncation_radius=4.0),
        IntervalSpec("full_line", truncation_radius=6.0)])
    def test_ratios_are_attained(self, interval):
        # f = Q^-1 e_i attains the pointwise ratio at the node i where it
        # peaks, and the top generalized eigenvector the weighted one
        mesh = build_mesh(interval, 40)
        w = np.random.default_rng(11).standard_normal(40) + 0.5j
        for eps in (0.1, 1.0, 10.0):
            rec = check_trudinger(w, mesh, eps)
            Q = _dense(formbounds._trace_gram(mesh, eps))
            Qinv = np.linalg.inv(Q)
            f = Qinv[:, np.argmax(np.diag(Qinv))]
            point, _ = trace_quotients(f, w, mesh, eps)
            assert point == pytest.approx(rec["point_ratio"], rel=1e-10)
            A = 0.5 * (np.eye(40, 41) + np.eye(40, 41, 1))
            W = A.T @ ((np.abs(w) ** 2 * mesh.h)[:, None] * A)
            f = sla.eigh(W, Q)[1][:, -1]
            _, weighted = trace_quotients(f, w, mesh, eps)
            assert weighted == pytest.approx(rec["weighted_ratio"], rel=1e-10)

    def test_rejects_nonpositive_eps(self):
        mesh = build_mesh(IntervalSpec(), 8)
        with pytest.raises(ValueError):
            check_trudinger(np.zeros(8), mesh, 0.0)

    @pytest.mark.parametrize("interval", [
        IntervalSpec(), IntervalSpec("half_line", truncation_radius=10.0),
        IntervalSpec("full_line", truncation_radius=10.0)],
        ids=["finite", "half_line", "full_line"])
    def test_trace_gram_equals_hand_stencil_bitwise(self, interval):
        # the Gram is one cell sum of the element eps K_e + c M_e; the
        # tridiagonal stencil it replaced must give the same bits
        for n in (2, 3, 37, 150):
            mesh = build_mesh(interval, n)
            for eps in (1e-3, 0.1, 1.0, 10.0):
                h, c = mesh.h, 1.0 / (mesh.b - mesh.a) + 1.0 / eps
                diag = np.full(n + 1, 2.0 * (eps / h + c * h / 3.0))
                diag[[0, -1]] /= 2.0
                off = np.full(n, c * h / 6.0 - eps / h)
                want = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
                got = _dense(formbounds._trace_gram(mesh, eps))
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), (n, eps)
