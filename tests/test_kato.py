import numpy as np
import pytest
import scipy.linalg as sla

from sqrtdom.assembly import (BoundaryCondition, CoefficientSet, IntervalSpec,
                              assemble_forms, build_mesh, orthonormalize)
from sqrtdom import kato
from sqrtdom.checks import decay_profiles
from sqrtdom.kato import (AdmissibilityError, TwoStepResolvent,
                          _InvSqrtShifted, build_factorization, decay_profile,
                          kato_K, kato_K_norms, perturbed_resolvent,
                          verify_identity)
from sqrtdom.matfun import SpectrumOnCutError, resolvent, spectral_norm
from sqrtdom.problems import build_coefficients, make_problem
from sqrtdom.sectorial import safe_shift

DIR = BoundaryCondition.dirichlet()
NEU = BoundaryCondition.neumann()


def setup_pair(family="constant_qrs", n=40, interval=None, bl=DIR, br=DIR):
    """(direct operator, base operator, coeffs, mesh) for one family."""
    prob = make_problem(family, interval=interval, n=n, bc_left=bl, bc_right=br)
    return prob.operator, prob.base_operator(), prob.coeffs, prob.mesh


def ortho_perturbation(prob_forms, T0):
    w = T0.forms.lumped_weights
    winv = 1.0 / np.sqrt(w)
    S = prob_forms.K1 + prob_forms.K2 + prob_forms.K3
    return winv[:, None] * S * winv[None, :]


class TestBuildFactorization:
    def test_zero_qr_gives_zero_product(self):
        mesh = build_mesh(IntervalSpec(), 12)
        coeffs = CoefficientSet.from_callables(mesh, s=1.0)
        fact = build_factorization(mesh, coeffs, DIR, DIR, "qr_pair")
        # the derivative block survives, but B's r-block is zero
        np.testing.assert_allclose(fact.product(), 0.0, atol=1e-15)

    def test_s_pair_reproduces_convection_matrix(self):
        mesh = build_mesh(IntervalSpec(), 16)
        coeffs = CoefficientSet.from_callables(mesh, s=2.0 - 1.0j)
        forms = assemble_forms(mesh, coeffs, DIR, NEU)
        T0 = orthonormalize(forms)
        fact = build_factorization(mesh, coeffs, DIR, NEU, "s_pair")
        np.testing.assert_allclose(fact.product(),
                                   ortho_perturbation(forms, T0), atol=1e-14)

    def test_unit_potential_gives_identity_block(self):
        # q = 1: the factored product is the orthonormalized lumped potential,
        # i.e. the identity away from boundary weight effects
        mesh = build_mesh(IntervalSpec(), 10)
        coeffs = CoefficientSet.from_callables(mesh, q=1.0)
        fact = build_factorization(mesh, coeffs, DIR, DIR, "qr_pair")
        np.testing.assert_allclose(fact.product(), np.eye(9), atol=1e-14)

    @pytest.mark.parametrize("family", ["constant_qrs", "complex_constant",
                                        "mixed_sign", "sawtooth", "spike"])
    def test_full_triple_exact_product(self, family):
        mesh = build_mesh(IntervalSpec(), 32)
        coeffs = build_coefficients(family, mesh)
        forms = assemble_forms(mesh, coeffs, DIR, DIR)
        T0 = orthonormalize(forms)
        fact = build_factorization(mesh, coeffs, DIR, DIR, "full_triple")
        pert = ortho_perturbation(forms, T0)
        np.testing.assert_allclose(fact.product(), pert,
                                   atol=1e-13 * max(1, np.abs(pert).max()))

    def test_unknown_variant_rejected(self):
        mesh = build_mesh(IntervalSpec(), 8)
        with pytest.raises(ValueError):
            build_factorization(mesh, CoefficientSet.from_callables(mesh),
                                DIR, DIR, "bogus")


class TestKatoK:
    def test_zero_factorization(self):
        # vanishing s gives a zero A-block, hence identically zero K
        direct, T0, coeffs, mesh = setup_pair("free", n=12)
        fact = build_factorization(mesh, coeffs, DIR, DIR, "s_pair")
        np.testing.assert_allclose(kato_K(T0, fact, -1.0), 0.0, atol=1e-15)

    def test_scalar_toy(self):
        from sqrtdom.assembly import DiscreteOperator, FormMatrices, Mesh

        # hand-built 1x1 operator: T0 = [1], A = B = [1], z = 0 -> K = -1
        mesh = Mesh(nodes=np.array([0.0, 0.5, 1.0]))
        one = np.eye(1, dtype=complex)
        forms = FormMatrices(M=one, K0=one, K1=0 * one, K2=0 * one,
                             K3=0 * one, Bdry=0 * one, mesh=mesh,
                             bc_left=DIR, bc_right=DIR,
                             coeffs=CoefficientSet.from_callables(mesh),
                             dof_nodes=np.array([1]), _lumped=np.array([1.0]))
        T0 = DiscreteOperator(H=one.copy(), forms=forms)
        from sqrtdom.kato import FactoredPerturbation

        fact = FactoredPerturbation(A=one.copy(), B=one.copy())
        np.testing.assert_allclose(kato_K(T0, fact, 0.0), [[-1.0]])
        R = perturbed_resolvent(T0, fact, 0.0)
        np.testing.assert_allclose(R, [[0.5]])  # (T0 + B*A)^{-1} = 1/2

    def test_norm_decreasing_in_shift(self):
        direct, T0, coeffs, mesh = setup_pair("constant_qrs", n=30)
        fact = build_factorization(mesh, coeffs, DIR, DIR, "qr_pair")
        norms = [spectral_norm(kato_K(T0, fact, -E))
                 for E in (1e1, 1e2, 1e3, 1e4)]
        assert all(a > b for a, b in zip(norms, norms[1:]))


class TestPerturbedResolvent:
    def test_zero_factorization_recovers_base(self):
        direct, T0, coeffs, mesh = setup_pair("free", n=12)
        fact = build_factorization(mesh, coeffs, DIR, DIR, "full_triple")
        np.testing.assert_allclose(perturbed_resolvent(T0, fact, -2.0),
                                   resolvent(T0.H, -2.0), atol=1e-13)

    @pytest.mark.parametrize("family,bl,br", [
        ("constant_qrs", DIR, DIR),
        ("complex_constant", DIR, NEU),
        ("mixed_sign", NEU, DIR),
        ("sawtooth", NEU, NEU),
        ("spike", DIR, DIR),
    ])
    def test_matches_direct_assembly(self, family, bl, br):
        direct, T0, coeffs, mesh = setup_pair(family, n=40, bl=bl, br=br)
        fact = build_factorization(mesh, coeffs, bl, br, "full_triple")
        E = safe_shift(direct.H) + safe_shift(T0.H) + 20.0
        report = verify_identity(direct, T0, fact,
                                 [-E, -2 * E, -E + 1j * E])
        assert not report["excluded"]
        assert report["max_rel_error"] <= 1e-9

    def test_second_resolvent_identity(self):
        direct, T0, coeffs, mesh = setup_pair("constant_qrs", n=25)
        fact = build_factorization(mesh, coeffs, DIR, DIR, "full_triple")
        z1, z2 = -30.0, -55.0 + 3j
        R1 = perturbed_resolvent(T0, fact, z1)
        R2 = perturbed_resolvent(T0, fact, z2)
        rhs = (z1 - z2) * R1 @ R2
        assert np.linalg.norm(R1 - R2 - rhs) / np.linalg.norm(rhs) < 1e-9

    def test_inadmissible_point_reported(self):
        direct, T0, coeffs, mesh = setup_pair("constant_qrs", n=20)
        fact = build_factorization(mesh, coeffs, DIR, DIR, "full_triple")
        # an eigenvalue of the perturbed operator is not admissible
        lam = np.linalg.eigvals(direct.H)
        z = lam[np.argmin(np.abs(lam))]
        with pytest.raises((AdmissibilityError, np.linalg.LinAlgError)):
            perturbed_resolvent(T0, fact, complex(z))


class TestTwoStep:
    def test_zero_s_second_stage_is_identity(self):
        direct, T0, coeffs, mesh = setup_pair("free", n=15)
        closure = TwoStepResolvent(T0, coeffs)
        z = -3.0
        np.testing.assert_allclose(closure(z), resolvent(T0.H, z), atol=1e-12)

    @pytest.mark.parametrize("family", ["constant_qrs", "complex_constant",
                                        "sawtooth"])
    def test_matches_one_shot_assembly(self, family):
        direct, T0, coeffs, mesh = setup_pair(family, n=40)
        closure = TwoStepResolvent(T0, coeffs)
        E = safe_shift(direct.H) + 30.0
        R_direct = resolvent(direct.H, -E)
        err = np.linalg.norm(closure(-E) - R_direct) / np.linalg.norm(R_direct)
        assert err <= 1e-9

    def test_half_line_variant(self):
        iv = IntervalSpec("half_line", a=0.0, truncation_radius=8.0)
        direct, T0, coeffs, mesh = setup_pair("mixed_sign", n=64, interval=iv,
                                              bl=NEU, br=DIR)
        closure = TwoStepResolvent(T0, coeffs)
        E = safe_shift(direct.H) + 25.0
        R_direct = resolvent(direct.H, -E)
        err = np.linalg.norm(closure(-E) - R_direct) / np.linalg.norm(R_direct)
        assert err <= 1e-9

    def test_full_line_variant(self):
        iv = IntervalSpec("full_line", truncation_radius=6.0)
        direct, T0, coeffs, mesh = setup_pair("spike", n=64, interval=iv)
        closure = TwoStepResolvent(T0, coeffs)
        E = safe_shift(direct.H) + 25.0
        R_direct = resolvent(direct.H, -E)
        err = np.linalg.norm(closure(-E) - R_direct) / np.linalg.norm(R_direct)
        assert err <= 1e-9


class TestDecayProfile:
    def test_zero_factorization_all_zero(self):
        direct, T0, coeffs, mesh = setup_pair("free", n=12)
        fact = build_factorization(mesh, coeffs, DIR, DIR, "s_pair")
        prof = decay_profile(T0, fact, np.geomspace(1.0, 100.0, 4),
                             d9_points=5)
        assert all(r["normK"] == 0.0 for r in prof["rows"])
        assert all(r["normA"] == 0.0 for r in prof["rows"])

    def test_qr_pair_norm_decays(self):
        direct, T0, coeffs, mesh = setup_pair("constant_qrs", n=120)
        fact = build_factorization(mesh, coeffs, DIR, DIR, "qr_pair")
        prof = decay_profile(T0, fact, np.geomspace(1e2, 1e6, 7), d9_points=7)
        assert prof["slope"] <= -0.2
        assert prof["monotone"]

    def test_full_triple_plateau_on_fine_mesh(self):
        direct, T0, coeffs, mesh = setup_pair("constant_qrs", n=400)
        fact = build_factorization(mesh, coeffs, DIR, DIR, "full_triple")
        prof = decay_profile(T0, fact, np.geomspace(1e2, 1e5, 6), d9_points=5)
        assert prof["plateau_ratio"] >= 0.5

    def test_nonmonotone_grid_rejected(self):
        direct, T0, coeffs, mesh = setup_pair("free", n=12)
        fact = build_factorization(mesh, coeffs, DIR, DIR, "s_pair")
        with pytest.raises(ValueError):
            decay_profile(T0, fact, [10.0, 5.0, 20.0])

    @pytest.mark.parametrize("family", ["constant_qrs", "sawtooth"])
    def test_variants_share_one_factorization(self, family, monkeypatch):
        prob = make_problem(family, n=24)
        E_grid = np.geomspace(1e2, 1e4, 3)
        built = []
        init = _InvSqrtShifted.__init__

        def counting_init(self, H):
            built.append(H.shape)
            init(self, H)

        monkeypatch.setattr(_InvSqrtShifted, "__init__", counting_init)
        shared = decay_profiles(prob, E_grid, d9_points=3)
        assert len(built) == 1
        # the same numbers as one factorization per variant
        T0 = prob.base_operator()
        for variant, prof in shared.items():
            fact = build_factorization(prob.mesh, prob.coeffs, prob.bc_left,
                                       prob.bc_right, variant)
            assert prof == decay_profile(T0, fact, E_grid, d9_points=3)


class TestInvSqrtShifted:
    def test_fresh_factor_not_served_a_stale_projection(self):
        # a new array of the same size often takes a freed array's id, so
        # a long-lived instance must not key anything on id(X)
        H = make_problem("free", n=48).operator.H
        halver = _InvSqrtShifted(H)
        rng = np.random.default_rng(3)
        for _ in range(200):
            X = rng.standard_normal((5, H.shape[0])) + 0j
            got = halver.norms([2.0], right=X)[0][0]
            assert got == _InvSqrtShifted(H).norms([2.0], right=X)[0][0]
            del X

    @pytest.mark.parametrize("hermitian", [True, False])
    def test_norms_match_explicit_inverse_root(self, hermitian):
        H = make_problem("free", n=24).operator.H
        if not hermitian:
            H = H + 1j * np.diag(np.linspace(0.0, 5.0, H.shape[0]))
        rng = np.random.default_rng(4)
        A = rng.standard_normal((3, H.shape[0])) + 0j
        B = rng.standard_normal((2, H.shape[0])) + 0j
        shifts = [1.0, 10.0, 100.0]
        right, left = _InvSqrtShifted(H).norms(shifts, right=A, left=B)
        for c, r, l in zip(shifts, right, left):
            R = np.linalg.inv(sla.sqrtm(H + c * np.eye(H.shape[0])))
            assert r == pytest.approx(np.linalg.norm(A @ R, 2), rel=1e-6)
            assert l == pytest.approx(np.linalg.norm(R @ B.conj().T, 2),
                                      rel=1e-6)
        assert _InvSqrtShifted(H).norms(shifts, left=B)[0] is None

    @pytest.mark.parametrize("family", ["constant_qrs", "sawtooth"])
    def test_batched_norms_match_explicit_products(self, family):
        # sawtooth has complex p, so its T0 takes the Schur path; more
        # shifts than one Schur block holds, so blocks are crossed
        direct, T0, coeffs, mesh = setup_pair(family, n=64)
        fact = build_factorization(mesh, coeffs, DIR, DIR, "full_triple")
        halver = _InvSqrtShifted(T0.H)
        n = T0.H.shape[0]
        assert halver.hermitian == (family == "constant_qrs")
        shifts = np.geomspace(1.0, 1e4, 20)
        assert shifts.size > kato._BLOCK_ENTRIES // n ** 2
        right, left = halver.norms(shifts, right=fact.A, left=fact.B)
        normK = kato_K_norms(T0, fact, shifts)
        for c, r, l, k in zip(shifts, right, left, normK):
            if halver.hermitian:
                # the eigen coordinates the Hermitian path iterates in
                d = (halver.diag + c) ** -0.5
                M_right = (fact.A @ halver.basis) * d
                M_left = (fact.B @ halver.basis) * d
            else:
                R = np.linalg.inv(sla.sqrtm(T0.H + c * np.eye(n)))
                M_right = fact.A @ R
                M_left = R @ fact.B.conj().T
            assert r == pytest.approx(spectral_norm(M_right), rel=1e-12)
            assert l == pytest.approx(spectral_norm(M_left), rel=1e-12)
            assert k == pytest.approx(spectral_norm(kato_K(T0, fact, -c)),
                                      rel=1e-12)

    def test_schur_path_guards_the_cut(self):
        # non-Hermitian with the real eigenvalues 1..n: the shift -1 puts
        # one at 0 and -3 puts three on (-inf, 0]
        n = 12
        rng = np.random.default_rng(5)
        H = np.diag(np.arange(1.0, n + 1)) + np.triu(
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1)
        halver = _InvSqrtShifted(H)
        assert not halver.hermitian
        X = np.ones((2, n), dtype=complex)
        for c in (-1.0, -3.0):
            with pytest.raises(SpectrumOnCutError):
                halver.norms([1.0, c], right=X)
            with pytest.raises(SpectrumOnCutError):
                halver.norms([c], left=X)
