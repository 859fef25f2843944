import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from sqrtdom.assembly import (BoundaryCondition, CoefficientSet, IntervalSpec,
                              build_mesh)
from sqrtdom import kato
from sqrtdom.checks import decay_suite
from sqrtdom.domains import thmA1_decay
from sqrtdom.kato import (AdmissibilityError, FactoredPerturbation,
                          TwoStepResolvent, _InvSqrtShifted,
                          build_factorization, decay_profile, kato_K,
                          perturbed_resolvent, verify_identity)
from sqrtdom.matfun import (ShiftBelowSpectrumError, SpectrumOnCutError,
                            resolvent, spectral_norm)
from sqrtdom.problems import Problem, make_problem

DIR = BoundaryCondition.dirichlet()
NEU = BoundaryCondition.neumann()


def setup_pair(family, n):
    """(problem, base operator) for one family on [0, 1]."""
    prob = make_problem(family, n=n)
    return prob, prob.base_operator()


def with_coeffs(n, bl=DIR, br=DIR, **coeffs):
    """Problem on [0, 1] with the given constant or callable coefficients."""
    mesh = build_mesh(IntervalSpec(), n)
    return Problem(IntervalSpec(), mesh,
                   CoefficientSet.from_callables(mesh, **coeffs), bl, br)


def ortho_perturbation(prob_forms):
    w = prob_forms.lumped_weights
    winv = 1.0 / np.sqrt(w)
    S = prob_forms.K1 + prob_forms.K2 + prob_forms.K3
    return winv[:, None] * S * winv[None, :]


class TestBuildFactorization:
    def test_zero_qr_gives_zero_product(self):
        fact = build_factorization(with_coeffs(12, s=1.0), "qr_pair")
        # the derivative block survives, but B's r-block is zero
        np.testing.assert_allclose((fact.B.conj().T @ fact.A).toarray(), 0.0,
                                   atol=1e-15)

    def test_s_pair_reproduces_convection_matrix(self):
        prob = with_coeffs(16, DIR, NEU, s=2.0 - 1.0j)
        fact = build_factorization(prob, "s_pair")
        np.testing.assert_allclose((fact.B.conj().T @ fact.A).toarray(),
                                   ortho_perturbation(prob.forms), atol=1e-14)

    def test_unit_potential_gives_identity_block(self):
        # q = 1: the factored product is the orthonormalized lumped potential,
        # i.e. the identity away from boundary weight effects
        fact = build_factorization(with_coeffs(10, q=1.0), "qr_pair")
        np.testing.assert_allclose((fact.B.conj().T @ fact.A).toarray(),
                                   np.eye(9), atol=1e-14)

    @pytest.mark.parametrize("family", ["constant_qrs", "complex_constant",
                                        "mixed_sign", "sawtooth", "spike"])
    def test_full_triple_exact_product(self, family):
        prob = make_problem(family, n=32)
        fact = build_factorization(prob, "full_triple")
        pert = ortho_perturbation(prob.forms)
        np.testing.assert_allclose((fact.B.conj().T @ fact.A).toarray(), pert,
                                   atol=1e-13 * max(1, np.abs(pert).max()))

    @pytest.mark.parametrize("family", ["constant_qrs", "sawtooth", "spike"])
    def test_every_variant_is_a_csr_pair(self, family):
        # the pair is built sparse once; every path multiplies by it as
        # built, with at most two nonzeros in each row of A and B
        prob = make_problem(family, n=32)
        f = prob.forms
        forms = {"qr_pair": f.K1 + f.K3, "s_pair": f.K2,
                 "full_triple": f.K1 + f.K2 + f.K3}
        winv = 1.0 / np.sqrt(f.lumped_weights)
        for variant in kato.VARIANTS:
            fact = build_factorization(prob, variant)
            for X in (fact.A, fact.B):
                assert isinstance(X, sp.csr_array)
                assert np.diff(X.indptr).max() <= 2
            pert = winv[:, None] * forms[variant] * winv[None, :]
            np.testing.assert_allclose(
                (fact.B.conj().T @ fact.A).toarray(), pert,
                atol=1e-13 * max(1, np.abs(pert).max()))

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            build_factorization(with_coeffs(8), "bogus")


class TestKatoK:
    def test_zero_factorization(self):
        # vanishing s gives a zero A-block, hence identically zero K
        prob, T0 = setup_pair("free", n=12)
        fact = build_factorization(prob, "s_pair")
        np.testing.assert_allclose(kato_K(T0, fact, -1.0), 0.0, atol=1e-15)

    def test_scalar_toy(self):
        # hand-built 1x1 operator: T0 = [1], A = B = [1], z = 0 -> K = -1
        one = np.eye(1, dtype=complex)
        T0 = one.copy()
        fact = FactoredPerturbation(A=one.copy(), B=one.copy())
        np.testing.assert_allclose(kato_K(T0, fact, 0.0), [[-1.0]])
        R = perturbed_resolvent(resolvent(T0, 0.0), fact, 0.0)
        np.testing.assert_allclose(R, [[0.5]])  # (T0 + B*A)^{-1} = 1/2

    def test_norm_decreasing_in_shift(self):
        prob, T0 = setup_pair("constant_qrs", n=30)
        fact = build_factorization(prob, "qr_pair")
        norms = [spectral_norm(kato_K(T0, fact, -E))
                 for E in (1e1, 1e2, 1e3, 1e4)]
        assert all(a > b for a, b in zip(norms, norms[1:]))


def checked(prob, path):
    """``verify_identity``'s maximum error of one path; every shift must be
    admissible."""
    report = verify_identity(prob)
    assert len(report["records"]) == 3 and not report["excluded"]
    return report["max_error"][path]


class TestPerturbedResolvent:
    def test_zero_factorization_recovers_base(self):
        prob, T0 = setup_pair("free", n=12)
        fact = build_factorization(prob, "full_triple")
        R0 = resolvent(T0, -2.0)
        np.testing.assert_allclose(perturbed_resolvent(R0, fact, -2.0), R0,
                                   atol=1e-13)

    @pytest.mark.parametrize("family,bl,br", [
        ("constant_qrs", DIR, DIR),
        ("complex_constant", DIR, NEU),
        ("mixed_sign", NEU, DIR),
        ("sawtooth", NEU, NEU),
        ("spike", DIR, DIR),
    ])
    def test_matches_direct_assembly(self, family, bl, br):
        prob = make_problem(family, n=40, bc_left=bl, bc_right=br)
        assert checked(prob, "full_triple") <= 1e-9

    def test_second_resolvent_identity(self):
        prob, T0 = setup_pair("constant_qrs", n=25)
        fact = build_factorization(prob, "full_triple")
        z1, z2 = -30.0, -55.0 + 3j
        R1 = perturbed_resolvent(resolvent(T0, z1), fact, z1)
        R2 = perturbed_resolvent(resolvent(T0, z2), fact, z2)
        rhs = (z1 - z2) * R1 @ R2
        assert np.linalg.norm(R1 - R2 - rhs) / np.linalg.norm(rhs) < 1e-9

    def test_dense_random_pair(self):
        # no two-band structure: every entry of A and B is nonzero
        rng = np.random.default_rng(5)
        n, m, z = 20, 40, -1.0 + 0.5j
        cplx = lambda *shape: (rng.standard_normal(shape)
                               + 1j * rng.standard_normal(shape))
        H0 = cplx(n, n) / np.sqrt(n) + 3.0 * np.eye(n)
        A, B = cplx(m, n), cplx(m, n)
        # ||K|| = 1/2 keeps 1 out of the spectrum of K
        scale = np.sqrt(0.5 / spectral_norm(kato_K(
            H0, FactoredPerturbation(A=A, B=B), z)))
        fact = FactoredPerturbation(A=scale * A, B=scale * B)
        R = perturbed_resolvent(resolvent(H0, z), fact, z)
        R_direct = resolvent(H0 + fact.B.conj().T @ fact.A, z)
        assert (np.linalg.norm(R - R_direct) / np.linalg.norm(R_direct)
                <= 1e-12)

    def test_verify_identity_converts_each_pair_once(self, monkeypatch):
        # the full triple and the two step pairs go to CSR once for all
        # three shifts; each call of _woodbury used to convert its pair
        csr_array, converted = kato.sp.csr_array, []

        def counting(arg):
            if isinstance(arg, np.ndarray):
                converted.append(arg.shape)
            return csr_array(arg)

        monkeypatch.setattr(kato.sp, "csr_array", counting)
        prob = make_problem("sawtooth", n=24, bc_left=NEU)
        assert len(verify_identity(prob)["records"]) == 3
        assert len(converted) == 6

    def test_inadmissible_point_reported(self):
        prob, T0 = setup_pair("constant_qrs", n=20)
        fact = build_factorization(prob, "full_triple")
        # an eigenvalue of the perturbed operator is not admissible
        lam = np.linalg.eigvals(prob.H)
        z = lam[np.argmin(np.abs(lam))]
        with pytest.raises((AdmissibilityError, np.linalg.LinAlgError)):
            perturbed_resolvent(resolvent(T0, complex(z)), fact, complex(z))


def solve_core(ImK):
    """``_solve_core`` on the core ``ImK`` alone: the factors ``A = I`` and
    ``R B^H = ImK - I`` give ``I + A (R B^H) = ImK``, and ``A R = I``."""
    I = np.eye(ImK.shape[0], dtype=complex)
    return kato._solve_core(ImK, I, ImK - I, I, -1.0, "")


def tall_factor(rng, n):
    """A random CSR ``A`` with ``m = 3n`` rows, two nonzeros per row, as in
    ``build_factorization``; its top n x n block is a random circulant
    bidiagonal, so ``A`` has full column rank."""
    rows = np.repeat(np.arange(3 * n), 2)
    cols = np.concatenate([[i, (i + 1 + k) % n]
                           for k in range(3) for i in range(n)])
    vals = rng.standard_normal(6 * n) + 1j * rng.standard_normal(6 * n)
    return sp.csr_array((vals, (rows, cols)), shape=(3 * n, n))


class TestSolveCore:
    def test_tall_factor_matches_explicit_inverse(self, monkeypatch):
        # m = 3n: only the n x n matrix of the push-through identity is
        # inverted
        rng = np.random.default_rng(5)
        n = 20
        A = tall_factor(rng, n)
        RB = (rng.standard_normal((n, 3 * n))
              + 1j * rng.standard_normal((n, 3 * n))) / n
        R = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        ImK = np.eye(3 * n) + A @ RB
        expected = RB @ np.linalg.inv(ImK) @ (A @ R)
        inv = np.linalg.inv

        def no_wide_inverse(M):
            if M.shape[0] > n:
                raise AssertionError("_solve_core inverted an m x m matrix")
            return inv(M)

        monkeypatch.setattr(np.linalg, "inv", no_wide_inverse)
        np.testing.assert_allclose(
            kato._solve_core(ImK, A, RB, R, -1.0, ""), expected, rtol=1e-12)

    def test_tall_factor_near_singular_core_rejected(self):
        # W = (M - I) A^+ gives I_n + W A = M with cond_2(M) = 1.002e13:
        # the guard reads M itself, spectral_norm(M^{-1}) ||M||_F ~ 6e13
        rng = np.random.default_rng(3)
        n = 60
        A = tall_factor(rng, n)
        U, V = (np.linalg.qr(rng.standard_normal((n, n))
                             + 1j * rng.standard_normal((n, n)))[0]
                for _ in range(2))
        s = np.append(np.linspace(1.0, 0.5, n - 1), 1 / 1.002e13)
        M = U @ np.diag(s) @ V.conj().T
        W = (M - np.eye(n)) @ np.linalg.pinv(A.toarray())
        ImK = np.eye(3 * n) + A @ W
        with pytest.raises(AdmissibilityError):
            kato._solve_core(ImK, A, W, np.eye(n), -1.0, "")

    def test_near_singular_core_rejected(self):
        # cond_2 = 1.002e13: two inner power-iteration estimates read the
        # product as 9.97e12 and admitted the shift
        rng = np.random.default_rng(3)
        n = 60
        U, V = (np.linalg.qr(rng.standard_normal((n, n))
                             + 1j * rng.standard_normal((n, n)))[0]
                for _ in range(2))
        s = np.append(np.linspace(1.0, 0.5, n - 1), 1 / 1.002e13)
        ImK = U @ np.diag(s) @ V.conj().T
        with pytest.raises(AdmissibilityError, match="within roundoff"):
            solve_core(ImK)

    def test_non_finite_core_rejected(self):
        # a NaN residual compared false against the tolerance
        ImK = np.eye(4, dtype=complex)
        ImK[1, 2] = np.nan
        with pytest.raises(AdmissibilityError, match="in spectrum"):
            solve_core(ImK)


class TestTwoStep:
    def test_zero_s_second_stage_is_identity(self):
        prob = make_problem("free", n=15)
        closure = TwoStepResolvent(prob)
        R0 = resolvent(closure.H0, -3.0)
        np.testing.assert_allclose(closure(-3.0, R0), R0, atol=1e-12)

    @pytest.mark.parametrize("family", ["constant_qrs", "complex_constant",
                                        "sawtooth"])
    def test_matches_one_shot_assembly(self, family):
        assert checked(make_problem(family, n=40), "two_step") <= 1e-9

    def test_half_line_variant(self):
        iv = IntervalSpec("half_line", a=0.0, truncation_radius=8.0)
        prob = make_problem("mixed_sign", interval=iv, n=64, bc_left=NEU,
                            bc_right=DIR)
        assert checked(prob, "two_step") <= 1e-9

    def test_full_line_variant(self):
        iv = IntervalSpec("full_line", truncation_radius=6.0)
        prob = make_problem("spike", interval=iv, n=64)
        assert checked(prob, "two_step") <= 1e-9


class TestDecayProfile:
    def test_zero_factorization_all_zero(self):
        prob, T0 = setup_pair("free", n=12)
        fact = build_factorization(prob, "s_pair")
        prof = decay_profile(_InvSqrtShifted(T0), fact,
                             np.geomspace(1.0, 100.0, 4))
        assert np.all(prof["normK"] == 0.0)
        assert np.all(prof["normA"] == 0.0)
        # vanishing norms have no log-log slope
        assert np.isnan(prof["slope"])

    def test_qr_pair_norm_decays(self):
        prob, T0 = setup_pair("constant_qrs", n=120)
        fact = build_factorization(prob, "qr_pair")
        prof = decay_profile(_InvSqrtShifted(T0), fact,
                             np.geomspace(1e2, 1e6, 7))
        assert prof["slope"] <= -0.2
        assert prof["monotone"]

    def test_full_triple_plateau_on_fine_mesh(self):
        prob, T0 = setup_pair("constant_qrs", n=400)
        fact = build_factorization(prob, "full_triple")
        prof = decay_profile(_InvSqrtShifted(T0), fact,
                             np.geomspace(1e2, 1e5, 6))
        assert prof["plateau_ratio"] >= 0.5

    def test_nonmonotone_grid_rejected(self):
        prob, T0 = setup_pair("free", n=12)
        fact = build_factorization(prob, "s_pair")
        with pytest.raises(ValueError):
            decay_profile(_InvSqrtShifted(T0), fact, [10.0, 5.0, 20.0])

    def test_one_shift_grid_rejected(self):
        # one shift used to get a slope fitted through a single point
        prob, T0 = setup_pair("constant_qrs", n=12)
        fact = build_factorization(prob, "qr_pair")
        with pytest.raises(ValueError):
            decay_profile(_InvSqrtShifted(T0), fact, [100.0])

    @pytest.mark.parametrize("family", ["constant_qrs", "sawtooth"])
    def test_variants_share_one_factorization(self, family, monkeypatch):
        prob = make_problem(family, n=24)
        E_grid = np.geomspace(1e2, 1e4, 3)
        built = []
        init = _InvSqrtShifted.__init__

        def counting_init(self, H):
            built.append(H.shape)
            init(self, H)

        references = []
        reference_operator = Problem.reference_operator

        def counting_reference(self):
            references.append(self)
            return reference_operator(self)

        monkeypatch.setattr(_InvSqrtShifted, "__init__", counting_init)
        monkeypatch.setattr(Problem, "reference_operator", counting_reference)
        suite = decay_suite(prob, E_grid)
        assert len(built) == 2 and len(references) == 1
        # the same numbers as one factorization per variant and multiplier
        T0 = prob.base_operator()
        for variant, prof in suite["profiles"].items():
            fact = build_factorization(prob, variant)
            alone = decay_profile(_InvSqrtShifted(T0), fact, E_grid)
            assert prof.keys() == alone.keys()
            assert all(np.array_equal(prof[key], alone[key]) for key in prof)
        multipliers = {"abs_r": np.abs(prob.coeffs.r),
                       "abs_s": np.abs(prob.coeffs.s),
                       "sqrt_abs_q": np.sqrt(np.abs(prob.coeffs.q))}
        assert suite["multipliers"].keys() == multipliers.keys()
        for name, samples in multipliers.items():
            alone = thmA1_decay(prob.lumped_average(samples),
                                _InvSqrtShifted(prob.reference_operator()),
                                E_grid)
            shared = suite["multipliers"][name]
            assert np.array_equal(shared["norms"], alone["norms"])
            assert shared["slope"] == alone["slope"]


class TestMultiplierDecay:
    def test_unit_multiplier_is_exact_at_a_neumann_end(self):
        # phi = |r| = 1 gives ||(H_ref + E)^{-1/2}|| = (lambda_min + E)^{-1/2}
        # exactly; the end node must carry phi = 1 too, not half of it
        prob = with_coeffs(32, bl=NEU, r=1.0)
        E_grid = [1.0, 10.0, 100.0]
        rec = decay_suite(prob, E_grid)["multipliers"]["abs_r"]
        lam = np.linalg.eigvalsh(prob.reference_operator())[0]
        np.testing.assert_allclose(rec["norms"],
                                   (lam + np.array(E_grid)) ** -0.5,
                                   rtol=1e-8)


class TestDecaySuite:
    def test_non_decaying_pair_fails(self, monkeypatch):
        # a K-norm that grows along the grid reads as a failed verdict;
        # the grid stops at 1/h^2, where the derivative block plateaus
        prob = make_problem("constant_qrs", n=24)
        E_grid = np.geomspace(1e2, 24.0 ** 2, 3)
        assert decay_suite(prob, E_grid)["ok"]
        norms = _InvSqrtShifted.norms

        def growing(self, shifts, A, B=None):
            out = norms(self, shifts, A, B)
            if B is None:
                return out
            return out[0], out[1], np.asarray(shifts, dtype=float)

        monkeypatch.setattr(_InvSqrtShifted, "norms", growing)
        assert not decay_suite(prob, E_grid)["ok"]


class TestInvSqrtShifted:
    def test_fresh_factor_not_served_a_stale_projection(self):
        # a new array of the same size often takes a freed array's id, so
        # a long-lived instance must not key anything on id(X)
        H = make_problem("free", n=48).H
        halver = _InvSqrtShifted(H)
        rng = np.random.default_rng(3)
        for _ in range(200):
            X = rng.standard_normal((5, H.shape[0])) + 0j
            got = halver.norms([2.0], X)[0][0]
            assert got == _InvSqrtShifted(H).norms([2.0], X)[0][0]
            del X

    @pytest.mark.parametrize("hermitian", [True, False])
    def test_norms_match_explicit_inverse_root(self, hermitian):
        H = make_problem("free", n=24).H
        if not hermitian:
            H = H + 1j * np.diag(np.linspace(0.0, 5.0, H.shape[0]))
        rng = np.random.default_rng(4)
        A = rng.standard_normal((3, H.shape[0])) + 0j
        B = rng.standard_normal((2, H.shape[0])) + 0j
        shifts = [1.0, 10.0, 100.0]
        right, left, _ = _InvSqrtShifted(H).norms(shifts, A, B)
        for c, r, l in zip(shifts, right, left):
            R = np.linalg.inv(sla.sqrtm(H + c * np.eye(H.shape[0])))
            assert r == pytest.approx(np.linalg.norm(A @ R, 2), rel=1e-6)
            assert l == pytest.approx(np.linalg.norm(R @ B.conj().T, 2),
                                      rel=1e-6)
        assert len(_InvSqrtShifted(H).norms(shifts, A)) == 1

    @pytest.mark.parametrize("family", ["constant_qrs", "sawtooth"])
    def test_batched_norms_match_explicit_products(self, family):
        # sawtooth has complex p, so its T0 takes the Schur path; more
        # shifts than one Schur block holds, so blocks are crossed
        prob, T0 = setup_pair(family, n=64)
        fact = build_factorization(prob, "full_triple")
        halver = _InvSqrtShifted(T0)
        n = T0.shape[0]
        assert halver.hermitian == (family == "constant_qrs")
        shifts = np.geomspace(1.0, 1e4, 20)
        assert shifts.size > kato._BLOCK_ENTRIES // n ** 2
        right, left, normK = halver.norms(shifts, fact.A, fact.B)
        # a fresh factorization in decay_profile gives the same K-norms
        prof = decay_profile(_InvSqrtShifted(T0), fact, shifts)
        assert np.array_equal(normK, prof["normK"])
        for c, r, l, k in zip(shifts, right, left, normK):
            if halver.hermitian:
                # the eigen coordinates the Hermitian path iterates in
                d = (halver.diag + c) ** -0.5
                M_right = (fact.A @ halver.basis) * d
                M_left = (fact.B @ halver.basis) * d
            else:
                R = np.linalg.inv(sla.sqrtm(T0 + c * np.eye(n)))
                M_right = fact.A @ R
                M_left = R @ fact.B.conj().T
            assert r == pytest.approx(spectral_norm(M_right), rel=1e-12)
            assert l == pytest.approx(spectral_norm(M_left), rel=1e-12)
            assert k == pytest.approx(spectral_norm(kato_K(T0, fact, -c)),
                                      rel=1e-12)

    def test_shift_below_spectrum_rejected(self):
        # the eigenvalue -20 + 3i lies off the cut at every real shift, but
        # the shift 10 leaves it at real part -10: the shift rule fires
        # after the cut guard, and used to be skipped
        n = 12
        rng = np.random.default_rng(6)
        H = np.diag(np.append(-20.0 + 3.0j, np.arange(1.0, n))) + np.triu(
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1)
        halver = _InvSqrtShifted(H)
        X = np.ones((2, n), dtype=complex)
        for args in ((X,), (X, X)):
            with pytest.raises(ShiftBelowSpectrumError):
                halver.norms([100.0, 10.0], *args)
            assert all(np.all(norm > 0)
                       for norm in halver.norms([30.0, 100.0], *args))

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
                halver.norms([1.0, c], X)
            with pytest.raises(SpectrumOnCutError):
                halver.norms([c], X, X)
