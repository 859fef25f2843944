import numpy as np
import pytest
import scipy.linalg as sla

from sqrtdom import domains, matfun
from sqrtdom.assembly import BoundaryCondition
from sqrtdom.domains import (_kappa_grams, _power_gram, lemma24_bounds,
                             matrix_power, refinement_study, sqrt_domain_kappa,
                             thmA1_decay)
from sqrtdom.matfun import (QuadratureSpec, SpectrumOnCutError,
                            frac_power_quad, sqrt_db)
from sqrtdom.problems import lions_operator, make_problem


def robin_complex(n):
    """The shifted operator of the robin_complex kappa problem."""
    prob = make_problem("mixed_sign", n=n, bc_left=BoundaryCondition(1 + 0.5j))
    return prob.operator.H + np.eye(prob.operator.H.shape[0])


class TestMatrixPower:
    def test_hermitian_path_matches_quadrature(self):
        rng = np.random.default_rng(0)
        B = rng.standard_normal((15, 15))
        H = (B @ B.T + np.eye(15)).astype(complex)
        P1 = matrix_power(H, 0.3)
        P2 = frac_power_quad(H, 0.3, QuadratureSpec(panels=16))
        np.testing.assert_allclose(P1, P2, atol=1e-8 * np.linalg.norm(P1))

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("upper", [False, True])
    def test_toeplitz_path_matches_schur_pade(self, alpha, upper):
        T = lions_operator(64)
        if upper:
            T = T.conj().T
        X, _ = _power_gram(T, 1.0, alpha)
        ref = sla.fractional_matrix_power(T + np.eye(64), alpha)
        assert np.linalg.norm(X - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("alpha", [0.25, 0.75])
    def test_toeplitz_path_matches_quadrature(self, alpha):
        T = lions_operator(24)
        X, _ = _power_gram(T, 1.0, alpha)
        Xq = frac_power_quad(T + np.eye(24), alpha, QuadratureSpec(panels=16))
        assert np.linalg.norm(X - Xq) <= 1e-8 * np.linalg.norm(Xq)

    @pytest.mark.parametrize("lam", [0.0, -1.0])
    def test_toeplitz_path_rejects_cut(self, lam):
        T = lions_operator(16)
        E = lam - T[0, 0].real
        with pytest.raises(SpectrumOnCutError):
            _power_gram(T, E, 0.25)

    def test_dense_path_rejects_cut(self):
        rng = np.random.default_rng(5)
        V = rng.standard_normal((12, 12))
        evals = np.concatenate(([-1.0], np.linspace(1.0, 3.0, 11)))
        H = V @ np.diag(evals) @ np.linalg.inv(V)
        for alpha in (0.25, 0.5):
            with pytest.raises(SpectrumOnCutError):
                matrix_power(H, alpha)

    def test_dense_path_exact(self):
        H = robin_complex(64)
        for k in (4, 8):
            Xk = np.linalg.matrix_power(matrix_power(H, 1 / k), k)
            assert np.linalg.norm(Xk - H) <= 1e-12 * np.linalg.norm(H)

    def test_dense_half_power_matches_denman_beavers(self):
        prob = make_problem("complex_constant", n=48)
        H = prob.operator.H + np.eye(prob.operator.H.shape[0])
        Y = sqrt_db(H)
        assert np.linalg.norm(matrix_power(H, 0.5) - Y) \
            <= 1e-12 * np.linalg.norm(Y)

    @pytest.mark.parametrize("alpha", [0.5, 0.25])
    def test_dense_path_takes_one_schur_form(self, alpha, monkeypatch):
        schur = sla.schur
        schur_calls = []

        def counting_schur(*args, **kwargs):
            schur_calls.append(kwargs.get("output"))
            return schur(*args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("second factorization on the dense route")

        monkeypatch.setattr(sla, "schur", counting_schur)
        monkeypatch.setattr(np.linalg, "eigvals", forbidden)
        monkeypatch.setattr(sla, "fractional_matrix_power", forbidden)
        monkeypatch.setattr(matfun, "sqrt_db", forbidden)
        matrix_power(robin_complex(32), alpha)
        assert schur_calls == ["complex"]

    def test_dense_path_matches_quadrature(self):
        prob = make_problem("complex_constant", n=24)
        H = prob.operator.H + np.eye(prob.operator.H.shape[0])
        X = matrix_power(H, 0.3)
        Xq = frac_power_quad(H, 0.3, QuadratureSpec(panels=16))
        assert np.linalg.norm(X - Xq) <= 1e-8 * np.linalg.norm(Xq)


class TestSqrtDomainKappa:
    def test_selfadjoint_baseline_is_exactly_one(self):
        prob = make_problem("free", n=48)
        row = sqrt_domain_kappa(prob.operator, 1.0, G_E=prob.sobolev_gram(1.0))
        assert abs(row["kappa"] - 1.0) <= 1e-12
        assert abs(row["min_ratio"] - 1.0) <= 1e-12

    def test_identical_reference_any_alpha(self):
        prob = make_problem("complex_constant", n=24)
        row = sqrt_domain_kappa(prob.operator, 2.0, H_ref=prob.operator,
                                alpha=0.375)
        assert abs(row["kappa"] - 1.0) <= 1e-9

    def test_extremal_pair_dominates_samples(self):
        prob = make_problem("complex_constant", n=40)
        G_E = prob.sobolev_gram(1.0)
        row = sqrt_domain_kappa(prob.operator, 1.0, G_E=G_E)
        P, Q = _kappa_grams(prob.operator, 1.0, G_E, None, 0.5)
        rng = np.random.default_rng(0)
        u = (rng.standard_normal((200, P.shape[0]))
             + 1j * rng.standard_normal((200, P.shape[0])))
        samples = np.sqrt(np.einsum("ij,jk,ik->i", u.conj(), P, u).real
                          / np.einsum("ij,jk,ik->i", u.conj(), Q, u).real)
        assert samples.max() <= row["max_ratio"] + 1e-10
        assert samples.min() >= row["min_ratio"] - 1e-10
        assert row["kappa"] >= 1.0

    def test_alpha_validated(self):
        prob = make_problem("free", n=16)
        with pytest.raises(ValueError):
            sqrt_domain_kappa(prob.operator, 1.0,
                              G_E=prob.sobolev_gram(1.0), alpha=1.5)


class TestLionsDichotomy:
    def test_quarter_power_stable_half_power_growing(self):
        halves, quarters = [], []
        for n in (32, 64, 128, 256):
            T = lions_operator(n)
            halves.append(sqrt_domain_kappa(
                T, 1.0, H_ref=T.conj().T, alpha=0.5)["kappa"])
            quarters.append(sqrt_domain_kappa(
                T, 1.0, H_ref=T.conj().T, alpha=0.25)["kappa"])
        assert all(a < b for a, b in zip(halves, halves[1:]))
        growth_half = halves[-1] / halves[0]
        growth_quarter = quarters[-1] / quarters[0]
        assert growth_half > growth_quarter


class TestRefinementStudy:
    def test_complex_diffusion_bounded(self):
        report = refinement_study("complex_p", [32, 64, 128], E=1.0)
        assert report.verdict == "bounded"
        assert report.calibration["lions_growth_half"] > \
            report.calibration["lions_growth_quarter"]

    def test_lions_critical_power_divergent(self):
        report = refinement_study("lions", [32, 64, 128], E=1.0, alpha=0.5)
        assert report.verdict == "divergent"

    def test_lions_quarter_power_bounded(self):
        report = refinement_study("lions", [32, 64, 128], E=1.0, alpha=0.25)
        assert report.verdict == "bounded"

    def test_early_drop_cannot_hide_growth(self, monkeypatch):
        ladder = {16: 3.0, 32: 1.0, 64: 2.5}
        monkeypatch.setattr(domains, "_kappa_row",
                            lambda problem, n, E, alpha: {"n": n,
                                                          "kappa": ladder[n]})
        report = refinement_study("baseline", list(ladder), E=1.0,
                                  growth_threshold=2.0)
        assert report.growth == 2.5
        assert report.verdict == "divergent"

    def test_explicit_threshold_respected(self):
        report = refinement_study("baseline", [16, 32], E=1.0,
                                  growth_threshold=3.0)
        assert report.verdict == "bounded"
        assert report.calibration == {}


class TestLemma24Bounds:
    def test_equal_hermitian_pair(self):
        prob = make_problem("free", n=32)
        H = prob.operator.H
        rec = lemma24_bounds(H, H, [1.0, 4.0, 16.0, 64.0])
        assert rec["sup_shiftless"] <= 1.0 + 1e-9
        assert rec["sup_shifted"] == pytest.approx(1.0, rel=1e-9)

    def test_doubled_operator_sqrt_two(self):
        prob = make_problem("free", n=32)
        H = prob.operator.H
        rec = lemma24_bounds(2.0 * H, H, np.geomspace(1.0, 1e4, 9))
        assert rec["sup_shifted"] <= np.sqrt(2.0) + 1e-9
        assert rec["sup_shifted"] >= 1.0

    def test_assembled_pair_finite_and_stable(self):
        prob = make_problem("complex_constant", n=32)
        ref = prob.reference_operator()
        rec = lemma24_bounds(prob.operator, ref, [1.0, 10.0, 100.0])
        assert np.isfinite(rec["sup_shiftless"])
        assert np.isfinite(rec["sup_shifted"])


class TestThmA1Decay:
    def test_constant_multiplier_closed_form(self):
        prob = make_problem("free", n=64)
        L = prob.operator.H
        lam_min = np.linalg.eigvalsh(L.real)[0]
        c = 3.0
        E_grid = np.geomspace(1e2, 1e6, 9)
        rec = thmA1_decay(np.full(L.shape[0], c), prob.operator, E_grid)
        # power-iteration norms are inner approximations; sub-percent here
        np.testing.assert_allclose(rec["norms"], c / np.sqrt(lam_min + E_grid),
                                   rtol=5e-3)
        assert rec["slope"] <= -0.45
        # exact oracle at one well-separated shift
        evals, evecs = np.linalg.eigh(L.real)
        Y = c * (evecs * (evals + 100.0) ** -0.5) @ evecs.T
        assert np.linalg.norm(Y, 2) == pytest.approx(
            c / np.sqrt(lam_min + 100.0), rel=1e-12)

    def test_zero_multiplier(self):
        prob = make_problem("free", n=32)
        rec = thmA1_decay(np.zeros(31), prob.operator, [10.0, 100.0])
        assert np.all(rec["norms"] == 0.0)

    def test_spike_multiplier_decays(self):
        prob = make_problem("spike", n=128)
        phi = np.sqrt(np.abs(prob.coeffs.q))
        # multiplier samples at the retained nodes: average adjacent cells
        nodal = np.zeros(129)
        nodal[:-1] += 0.5 * phi
        nodal[1:] += 0.5 * phi
        ref = prob.reference_operator()
        rec = thmA1_decay(nodal[ref.dof_nodes], ref, np.geomspace(1e2, 1e6, 9))
        assert rec["slope"] <= -0.2
