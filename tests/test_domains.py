import numpy as np
import pytest
import scipy.linalg as sla

from sqrtdom import domains, matfun
from sqrtdom.assembly import BoundaryCondition, IntervalSpec, w12_norm_matrix
from sqrtdom.domains import (_kappa_row, _power_gram, matrix_power,
                             refinement_study, sqrt_domain_kappa, thmA1_decay)
from sqrtdom.kato import _InvSqrtShifted
from sqrtdom.matfun import (QuadratureSpec, SpectrumOnCutError,
                            frac_power_quad, sqrt_db)
from sqrtdom.problems import FAMILY_NAMES, lions_operator, make_problem

DIR, NEU = BoundaryCondition.dirichlet(), BoundaryCondition.neumann()


def family_at(family, interval=None, bc_left=None):
    """A refinement study's operator function for one family."""
    return lambda n: make_problem(family, interval, n, bc_left)


def robin_complex(n):
    """The shifted operator of the robin_complex kappa problem."""
    prob = make_problem("mixed_sign", n=n, bc_left=BoundaryCondition(1 + 0.5j))
    return prob.H + np.eye(prob.H.shape[0])


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
        X = matrix_power(T + np.eye(64), alpha)
        ref = sla.fractional_matrix_power(T + np.eye(64), alpha)
        assert np.linalg.norm(X - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("alpha", [0.25, 0.75])
    def test_toeplitz_path_matches_quadrature(self, alpha):
        T = lions_operator(24)
        X = matrix_power(T + np.eye(24), alpha)
        Xq = frac_power_quad(T + np.eye(24), alpha, QuadratureSpec(panels=16))
        assert np.linalg.norm(X - Xq) <= 1e-8 * np.linalg.norm(Xq)

    @pytest.mark.parametrize("lam", [0.0, -1.0])
    def test_toeplitz_path_rejects_cut(self, lam):
        T = lions_operator(16)
        E = lam - T[0, 0].real
        with pytest.raises(SpectrumOnCutError):
            matrix_power(T + E * np.eye(16), 0.25)

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
        H = prob.H + np.eye(prob.H.shape[0])
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
        H = prob.H + np.eye(prob.H.shape[0])
        X = matrix_power(H, 0.3)
        Xq = frac_power_quad(H, 0.3, QuadratureSpec(panels=16))
        assert np.linalg.norm(X - Xq) <= 1e-8 * np.linalg.norm(Xq)


class TestSqrtDomainKappa:
    def test_selfadjoint_baseline_is_exactly_one(self):
        row = _kappa_row(family_at("free"), 48, 1.0, 0.5)
        assert abs(row["kappa"] - 1.0) <= 1e-12
        assert abs(row["min_ratio"] - 1.0) <= 1e-12

    def test_critical_reference_gram_is_w12_gram(self):
        # at the critical power the reference Gram H_ref + E is the E-scaled
        # Sobolev Gram taken to orthonormal coordinates, whatever the left end
        for theta in (0.0, np.pi / 2, 1 + 0.5j):
            prob = make_problem("mixed_sign", n=64,
                                bc_left=BoundaryCondition(theta))
            H_ref = prob.reference_operator()
            winv = 1.0 / np.sqrt(prob.forms.lumped_weights)
            for E in (0.3, 1.0, 1e3):
                G = w12_norm_matrix(prob.mesh, prob.bc_left, prob.bc_right, E)
                Q = H_ref + E * np.eye(H_ref.shape[0])
                assert np.array_equal(_power_gram(H_ref, E, 0.5), Q)
                assert np.linalg.norm(winv[:, None] * G * winv[None, :] - Q) \
                    <= 1e-14 * np.linalg.norm(Q)
        # both Grams of the self-adjoint baseline are now the same matrix
        assert _kappa_row(family_at("free"), 100, 0.3, 0.5)["kappa"] == 1.0

    def test_identical_reference_any_alpha(self):
        prob = make_problem("complex_constant", n=24)
        P = _power_gram(prob.H, 2.0, 0.375)
        row = sqrt_domain_kappa(P, P)
        assert abs(row["kappa"] - 1.0) <= 1e-9

    def test_extremal_pair_dominates_samples(self):
        prob = make_problem("complex_constant", n=40)
        P = _power_gram(prob.H, 1.0, 0.5)
        winv = 1.0 / np.sqrt(prob.forms.lumped_weights)
        G = w12_norm_matrix(prob.mesh, prob.bc_left, prob.bc_right, 1.0)
        Q = winv[:, None] * G * winv[None, :]
        row = sqrt_domain_kappa(P, Q)
        rng = np.random.default_rng(0)
        u = (rng.standard_normal((200, P.shape[0]))
             + 1j * rng.standard_normal((200, P.shape[0])))
        samples = np.sqrt(np.einsum("ij,jk,ik->i", u.conj(), P, u).real
                          / np.einsum("ij,jk,ik->i", u.conj(), Q, u).real)
        assert samples.max() <= row["max_ratio"] + 1e-10
        assert samples.min() >= row["min_ratio"] - 1e-10
        assert row["kappa"] >= 1.0

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            refinement_study(family_at("free"), [16, 32], 1.0, 1.5, 3.0)


class TestLionsDichotomy:
    def test_quarter_power_stable_half_power_growing(self):
        halves, quarters = [], []
        for n in (32, 64, 128, 256):
            halves.append(_kappa_row(lions_operator, n, 1.0, 0.5)["kappa"])
            quarters.append(_kappa_row(lions_operator, n, 1.0, 0.25)["kappa"])
        assert all(a < b for a, b in zip(halves, halves[1:]))
        growth_half = halves[-1] / halves[0]
        growth_quarter = quarters[-1] / quarters[0]
        assert growth_half > growth_quarter


class TestRefinementStudy:
    def test_complex_diffusion_bounded(self):
        report = refinement_study(family_at("complex_p"), [32, 64, 128], 1.0,
                                  0.5, None)
        assert report.verdict == "bounded"
        assert report.calibration["lions_growth_half"] > \
            report.calibration["lions_growth_quarter"]

    def test_lions_critical_power_divergent(self):
        report = refinement_study(lions_operator, [32, 64, 128], 1.0, 0.5,
                                  None)
        assert report.verdict == "divergent"

    def test_lions_quarter_power_bounded(self):
        report = refinement_study(lions_operator, [32, 64, 128], 1.0, 0.25,
                                  None)
        assert report.verdict == "bounded"

    def test_early_drop_cannot_hide_growth(self, monkeypatch):
        ladder = {16: 3.0, 32: 1.0, 64: 2.5}
        monkeypatch.setattr(domains, "_kappa_row",
                            lambda operator_at, n, E, alpha: {
                                "n": n, "kappa": ladder[n]})
        report = refinement_study(family_at("free"), list(ladder), 1.0, 0.5,
                                  2.0)
        assert report.growth == 2.5
        assert report.verdict == "divergent"

    def test_explicit_threshold_respected(self):
        report = refinement_study(family_at("free"), [16, 32], 1.0, 0.5, 3.0)
        assert report.verdict == "bounded"
        assert report.calibration == {}


# the settings of the paper's square-root-domain results: a finite interval
# with a Dirichlet, Neumann or complex Robin left end, the half-line with a
# Dirichlet or Neumann end, and the line, each truncated at radius 4
KAPPA_LADDER = [32, 64, 128]
HALF_LINE = IntervalSpec("half_line", truncation_radius=4.0)
SETTINGS = {"finite-dirichlet": (None, DIR), "finite-neumann": (None, NEU),
            "finite-robin": (None, BoundaryCondition(1 + 0.5j)),
            "half-line-dirichlet": (HALF_LINE, DIR),
            "half-line-neumann": (HALF_LINE, NEU),
            "line": (IntervalSpec("full_line", truncation_radius=4.0), None)}


@pytest.fixture(scope="module")
def ceiling():
    """The control's self-calibrated ceiling on the case table's ladder."""
    return refinement_study(lions_operator, KAPPA_LADDER, 1.0, 0.5,
                            None).threshold


class TestKappaCases:
    @pytest.mark.parametrize("setting", sorted(SETTINGS))
    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_every_family_and_setting_bounded(self, family, setting,
                                              ceiling):
        report = refinement_study(family_at(family, *SETTINGS[setting]),
                                  KAPPA_LADDER, 1.0, 0.5, ceiling)
        assert report.verdict == "bounded", report.growth

    @pytest.mark.parametrize("kind,bc", [("half_line", DIR),
                                         ("half_line", NEU),
                                         ("full_line", DIR)],
                             ids=["half-line-dirichlet", "half-line-neumann",
                                  "line"])
    @pytest.mark.parametrize("family", ["constant_qrs", "complex_constant",
                                        "spike"])
    def test_truncation_radius_ladder(self, family, kind, bc, ceiling):
        # the levels are the radii R = 5, 10, 20 at h = 1/8: kappa converges
        # in R.  The sawtooth families need h well below their periods
        # (0.29 to 0.61) before truncation, not resolution, moves kappa
        per_radius = 8 if kind == "half_line" else 16
        report = refinement_study(
            lambda R: make_problem(family, IntervalSpec(kind,
                                                        truncation_radius=R),
                                   per_radius * R, bc),
            [5, 10, 20], 1.0, 0.5, ceiling)
        assert report.verdict == "bounded", report.growth


class TestThmA1Decay:
    def test_constant_multiplier_closed_form(self):
        prob = make_problem("free", n=64)
        L = prob.H
        lam_min = np.linalg.eigvalsh(L.real)[0]
        c = 3.0
        E_grid = np.geomspace(1e2, 1e6, 9)
        rec = thmA1_decay(np.full(L.shape[0], c), _InvSqrtShifted(L), E_grid)
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
        rec = thmA1_decay(np.zeros(31), _InvSqrtShifted(prob.H), [10.0, 100.0])
        assert np.all(rec["norms"] == 0.0)

    def test_spike_multiplier_decays(self):
        prob = make_problem("spike", n=128)
        phi = np.sqrt(np.abs(prob.coeffs.q))
        # multiplier samples at the retained nodes: average adjacent cells
        nodal = np.zeros(129)
        nodal[:-1] += 0.5 * phi
        nodal[1:] += 0.5 * phi
        rec = thmA1_decay(nodal[prob.forms.dof_nodes],
                          _InvSqrtShifted(prob.reference_operator()),
                          np.geomspace(1e2, 1e6, 9))
        assert rec["slope"] <= -0.2
