import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

from sqrtdom.assembly import (BoundaryCondition, CoefficientSet, IntervalSpec,
                              _dense, build_mesh)
from sqrtdom import kato, matfun
from sqrtdom.checks import decay_suite, failed, krein_suite
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
    S = (_dense(prob_forms.K1) + _dense(prob_forms.K2)
         + _dense(prob_forms.K3))
    return winv[:, None] * S * winv[None, :]


def dense(F):
    """The m x n matrix of a factor ``(cells, nodes, keep)`` in the cell
    layout, its rows in the order ``kato._times`` writes them: each cell
    block cell by cell, then each node block."""
    cells, nodes, keep = F
    k, n = cells.shape[:2]
    rows = np.arange(n)
    M = np.zeros((k, n, n + 1), dtype=complex)
    M[:, rows, rows] = cells[..., 0]
    M[:, rows, rows + 1] = cells[..., 1]
    return np.vstack([M.reshape(k * n, n + 1)[:, keep],
                      *(np.diag(v) for v in nodes)])


def dense_pair(fact):
    """The dense ``(A, B)`` of a pair."""
    return dense(fact.A), dense(fact.B)


def perturbation(fact):
    """``B^H A``, formed from the dense pair."""
    A, B = dense_pair(fact)
    return B.conj().T @ A


def scaled(F, c):
    """The factor ``c F``."""
    cells, nodes, keep = F
    return c * cells, c * nodes, keep


def identity_factor(n):
    """``I_n`` as a factor: one node block of ones and no cell block."""
    return (np.zeros((0, n - 1, 2), dtype=complex),
            np.ones((1, n), dtype=complex), np.arange(n))


class TestBuildFactorization:
    def test_zero_qr_gives_zero_product(self):
        fact = build_factorization(with_coeffs(12, s=1.0), "qr_pair")
        # the derivative block survives, but B's r-block is zero
        np.testing.assert_allclose(perturbation(fact), 0.0, atol=1e-15)

    def test_s_pair_reproduces_convection_matrix(self):
        prob = with_coeffs(16, DIR, NEU, s=2.0 - 1.0j)
        fact = build_factorization(prob, "s_pair")
        np.testing.assert_allclose(perturbation(fact),
                                   ortho_perturbation(prob.forms), atol=1e-14)

    def test_unit_potential_gives_identity_block(self):
        # q = 1: the factored product is the orthonormalized lumped potential,
        # i.e. the identity away from boundary weight effects
        fact = build_factorization(with_coeffs(10, q=1.0), "qr_pair")
        np.testing.assert_allclose(perturbation(fact), np.eye(9),
                                   atol=1e-14)

    @pytest.mark.parametrize("family", ["constant_qrs", "complex_constant",
                                        "mixed_sign", "sawtooth", "spike"])
    def test_full_triple_exact_product(self, family):
        prob = make_problem(family, n=32)
        fact = build_factorization(prob, "full_triple")
        pert = ortho_perturbation(prob.forms)
        np.testing.assert_allclose(perturbation(fact), pert,
                                   atol=1e-13 * max(1, np.abs(pert).max()))

    @pytest.mark.parametrize("family", ["constant_qrs", "sawtooth", "spike"])
    def test_every_variant_is_a_cell_pair(self, family):
        # the pair is built in the cell layout once; every path multiplies
        # by it as built, with at most two nonzeros in each row of A and B,
        # and its products are the cell sums of the dense ones
        prob = make_problem(family, n=32)
        f = prob.forms
        K1, K2, K3 = (_dense(K) for K in (f.K1, f.K2, f.K3))
        forms = {"qr_pair": K1 + K3, "s_pair": K2, "full_triple": K1 + K2 + K3}
        winv = 1.0 / np.sqrt(f.lumped_weights)
        for variant in kato.VARIANTS:
            fact = build_factorization(prob, variant)
            for X in (fact.A, fact.B):
                cells, nodes, keep = X
                assert cells.shape[1:] == (prob.mesh.n_cells, 2)
                assert nodes.shape[1:] == (f.n_dof,)
                assert np.array_equal(keep, f.dof_nodes)
                assert np.count_nonzero(dense(X), axis=1).max() <= 2
            pert = winv[:, None] * forms[variant] * winv[None, :]
            atol = 1e-13 * max(1, np.abs(pert).max())
            np.testing.assert_allclose(perturbation(fact), pert, atol=atol)
            A, B = dense_pair(fact)
            for band, want in zip(fact.products, (
                    pert, A.conj().T @ A, B.conj().T @ B)):
                np.testing.assert_allclose(
                    _dense(band), want,
                    atol=1e-13 * max(1, np.abs(want).max()))

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            build_factorization(with_coeffs(8), "bogus")

    @pytest.mark.parametrize("theta_a",
                             [DIR, NEU, BoundaryCondition(1 + 0.5j)],
                             ids=["dirichlet", "neumann", "robin"])
    @pytest.mark.parametrize("interval", [
        IntervalSpec(), IntervalSpec("half_line", truncation_radius=10.0),
        IntervalSpec("full_line", truncation_radius=10.0)],
        ids=["finite", "half_line", "full_line"])
    @pytest.mark.parametrize("family", ["free", "constant_qrs",
                                        "complex_constant", "mixed_sign",
                                        "sawtooth", "spike"])
    def test_pair_equals_dense_construction_bitwise(self, family, interval,
                                                    theta_a):
        # the cell-layout pair, formed densely, is the dense stack bit for
        # bit: the same entries, a zero's sign aside
        prob = make_problem(family, interval, n=37, bc_left=theta_a)
        for variant in kato.VARIANTS:
            fact = build_factorization(prob, variant)
            for got, want in zip(dense_pair(fact),
                                 dense_factorization(prob, variant)):
                assert got.shape == want.shape and got.dtype == want.dtype
                assert (got + 0.0).tobytes() == (want + 0.0).tobytes(), (
                    variant)


def dense_factorization(prob, variant):
    """The dense (A, B) blocks of ``build_factorization``, built as full
    n x (n + 1) sampling matrices restricted to the retained nodes and
    stacked: the reference the cell-layout pair must reproduce."""
    n, h = prob.mesh.n_cells, prob.mesh.h
    V = np.zeros((n, n + 1))
    G = np.zeros((n, n + 1))
    rows = np.arange(n)
    V[rows, rows] = np.sqrt(h) / 2
    V[rows, rows + 1] = np.sqrt(h) / 2
    G[rows, rows] = -1.0 / np.sqrt(h)
    G[rows, rows + 1] = 1.0 / np.sqrt(h)
    keep = prob.forms.dof_nodes
    winv = prob.forms.orthonormal_scaling
    V, G = V[:, keep] * winv[None, :], G[:, keep] * winv[None, :]
    coeffs = prob.coeffs
    qt = prob.lumped_average(coeffs.q)
    absq = np.abs(qt)
    phase = np.where(absq > 0, qt / np.where(absq > 0, absq, 1.0), 1.0)
    rootq = np.sqrt(absq)
    qa_block = np.diag(phase * rootq)
    qb_block = np.diag(rootq).astype(complex)
    r_block = np.conj(coeffs.r)[:, None] * V
    sa_block = -(coeffs.s[:, None] * V)
    sb_block = -G
    if variant == "qr_pair":
        return (np.vstack([G.astype(complex), qa_block]),
                np.vstack([r_block, qb_block]))
    if variant == "s_pair":
        return sa_block, sb_block.astype(complex)
    return (np.vstack([G.astype(complex), sa_block, qa_block]),
            np.vstack([r_block, sb_block.astype(complex), qb_block]))


class TestKatoK:
    def test_zero_factorization(self):
        # vanishing s gives a zero A-block, hence identically zero K
        prob, T0 = setup_pair("free", n=12)
        fact = build_factorization(prob, "s_pair")
        np.testing.assert_allclose(kato_K(T0, fact, -1.0), 0.0, atol=1e-15)

    def test_scalar_toy(self):
        # hand-built 1x1 operator: T0 = [1], A = B = [1], z = 0 -> K = -1
        T0 = np.eye(1, dtype=complex)
        fact = FactoredPerturbation(A=identity_factor(1),
                                    B=identity_factor(1))
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

    def test_random_pair(self):
        # a dense H0 and a random pair: every value of A and B in its cell
        # and node blocks is nonzero
        rng = np.random.default_rng(5)
        n, z = 20, -1.0 + 0.5j
        H0 = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
              ) / np.sqrt(n) + 3.0 * np.eye(n)
        A, B = tall_factor(rng, n, 2), tall_factor(rng, n, 2)
        # ||K|| = 1/2 keeps 1 out of the spectrum of K
        scale = np.sqrt(0.5 / spectral_norm(kato_K(
            H0, FactoredPerturbation(A=A, B=B), z)))
        fact = FactoredPerturbation(A=scaled(A, scale), B=scaled(B, scale))
        R = perturbed_resolvent(resolvent(H0, z), fact, z)
        R_direct = resolvent(H0 + perturbation(fact), z)
        assert (np.linalg.norm(R - R_direct) / np.linalg.norm(R_direct)
                <= 1e-12)

    def test_verify_identity_forms_each_pair_products_once(self,
                                                           monkeypatch):
        # the full triple and the two step pairs are built once for all
        # three shifts, and each pair's three products are formed on its
        # first core only
        gram, formed = kato._gram, []

        def counting(F, G):
            formed.append(F[0].shape)
            return gram(F, G)

        monkeypatch.setattr(kato, "_gram", counting)
        prob = make_problem("sawtooth", n=24, bc_left=NEU)
        assert len(verify_identity(prob)["records"]) == 3
        assert len(formed) == 9

    def test_inadmissible_point_reported(self):
        prob, T0 = setup_pair("constant_qrs", n=20)
        fact = build_factorization(prob, "full_triple")
        # an eigenvalue of the perturbed operator is not admissible
        lam = np.linalg.eigvals(prob.H)
        z = lam[np.argmin(np.abs(lam))]
        with pytest.raises((AdmissibilityError, np.linalg.LinAlgError)):
            perturbed_resolvent(resolvent(T0, complex(z)), fact, complex(z))


def solve_core(ImK):
    """``_solve_core`` on the core ``ImK`` alone: the factors ``A = B = I``
    and ``R = ImK - I`` give ``I_n + R B^H A = ImK``."""
    I = identity_factor(ImK.shape[0])
    fact = FactoredPerturbation(A=I, B=I)
    return kato._solve_core(ImK - np.eye(ImK.shape[0]), fact, -1.0, "")


def tall_factor(rng, n, blocks=3):
    """A random factor on n nodes, all retained: ``blocks`` cell blocks on
    n - 1 cells, two nonzeros per row as in ``build_factorization``, over
    one node block, so ``m = blocks (n - 1) + n``.  Every value is
    nonzero, and the node block gives ``A`` full column rank."""
    cplx = lambda *shape: (rng.standard_normal(shape)
                           + 1j * rng.standard_normal(shape))
    return cplx(blocks, n - 1, 2), cplx(1, n), np.arange(n)


def explicit_core(R, fact):
    """The m x m ``I - K = I_m + A (R B^H)``, formed explicitly."""
    A, B = dense_pair(fact)
    RB = R @ B.conj().T
    return np.eye(A.shape[0]) + A @ RB, RB


class TestSolveCore:
    def test_tall_factor_matches_explicit_inverse(self, monkeypatch):
        # m = 3n: only n x n matrices are inverted
        rng = np.random.default_rng(5)
        n = 20
        fact = FactoredPerturbation(A=tall_factor(rng, n),
                                    B=scaled(tall_factor(rng, n), 1 / n))
        R = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        ImK, RB = explicit_core(R, fact)
        expected = R - RB @ np.linalg.inv(ImK) @ (dense(fact.A) @ R)
        get_lapack_funcs = sla.get_lapack_funcs

        def no_wide_inverse(names, arrays=(), *args, **kwargs):
            if any(M.shape[0] > n for M in arrays):
                raise AssertionError("_solve_core inverted an m x m matrix")
            return get_lapack_funcs(names, arrays, *args, **kwargs)

        monkeypatch.setattr(sla, "get_lapack_funcs", no_wide_inverse)
        np.testing.assert_allclose(kato._solve_core(R, fact, -1.0, ""),
                                   expected, rtol=1e-12)

    def test_tall_factor_near_singular_core_rejected(self):
        # R = (M - I) V^-1 for the tall pair B = A, V = A^H A, gives
        # I_n + R V = M with cond_2(M) = 1.002e13: the guard reads M itself,
        # spectral_norm(M^{-1}) ||M||_F ~ 6e13
        rng = np.random.default_rng(3)
        n = 60
        A = tall_factor(rng, n)
        fact = FactoredPerturbation(A=A, B=A)
        U, V = (np.linalg.qr(rng.standard_normal((n, n))
                             + 1j * rng.standard_normal((n, n)))[0]
                for _ in range(2))
        s = np.append(np.linspace(1.0, 0.5, n - 1), 1 / 1.002e13)
        M = U @ np.diag(s) @ V.conj().T
        R = np.linalg.solve(_dense(fact.products[1]).T,
                            (M - np.eye(n)).T).T
        with pytest.raises(AdmissibilityError, match="within roundoff"):
            kato._solve_core(R, fact, -1.0, "")

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

    def test_zero_pivot_rejected(self):
        # an exactly singular X stops at getrf's zero pivot, before getri
        ImK = np.eye(4, dtype=complex)
        ImK[2, 2] = 0.0
        with pytest.raises(AdmissibilityError, match="in spectrum"):
            solve_core(ImK)

    def test_core_norm_matches_explicit_array(self, monkeypatch):
        # ||I - K||_F from n x n products: the residual check's scale is
        # ||I - K||_F ||A Z||_F, against the explicit m x m array and the
        # explicit solution of the m x m system
        scales = []

        def spy(residual, scale):
            scales.append(scale)
            return residual_fails(residual, scale)

        residual_fails = kato._residual_fails
        monkeypatch.setattr(kato, "_residual_fails", spy)
        rng = np.random.default_rng(7)
        n = 20
        prob, T0 = setup_pair("sawtooth", n=40)
        R0 = resolvent(T0, -30.0 + 5.0j)
        cases = [(rng.standard_normal((n, n))
                  + 1j * rng.standard_normal((n, n)),
                  FactoredPerturbation(A=tall_factor(rng, n),
                                       B=scaled(tall_factor(rng, n), 1 / n)))]
        cases += [(R0, build_factorization(prob, variant))
                  for variant in kato.VARIANTS]
        for R, fact in cases:
            kato._solve_core(R, fact, -1.0, "")
            ImK, _ = explicit_core(R, fact)
            Y = np.linalg.solve(ImK, dense(fact.A) @ R)
            np.testing.assert_allclose(
                scales.pop(), np.linalg.norm(ImK) * np.linalg.norm(Y),
                rtol=1e-12)

    @pytest.mark.parametrize("bc_left", [DIR, NEU])
    def test_residual_norms_form_no_m_row_product(self, bc_left,
                                                  monkeypatch):
        # ||A D||_F and ||A Z||_F add the blocks' squared norms, a Dirichlet
        # end's removed node read as zero, with no product of all m rows
        rng = np.random.default_rng(13)
        prob = make_problem("sawtooth", n=30, bc_left=bc_left)
        n = prob.forms.n_dof
        X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for variant in kato.VARIANTS:
            fact = build_factorization(prob, variant)
            for F in (fact.A, fact.B):
                np.testing.assert_allclose(
                    kato._times_norm(F, X),
                    np.linalg.norm(kato._times(F, X)), rtol=1e-14)

        def no_stacked_product(F, X):
            raise AssertionError("a product with m rows formed")

        monkeypatch.setattr(kato, "_times", no_stacked_product)
        R0 = resolvent(prob.base_diagonals(), -40.0)
        R = kato._solve_core(R0, build_factorization(prob, "full_triple"),
                             -40.0, "")
        assert np.all(np.isfinite(R))

    def test_tall_pair_forms_no_m_by_m_array(self):
        # m = 6n: the core's peak allocation stays below one m x m complex
        # array (the parent formed I - K and read 1.92 times that)
        rng = np.random.default_rng(11)
        n, blocks, z = 40, 6, -1.0 + 0.5j
        H0 = (rng.standard_normal((n, n))
              + 1j * rng.standard_normal((n, n))) / np.sqrt(n) + 3 * np.eye(n)
        A, B = tall_factor(rng, n, blocks), tall_factor(rng, n, blocks)
        # ||K|| = 1/2 keeps 1 out of the spectrum of K
        scale = np.sqrt(0.5 / spectral_norm(kato_K(
            H0, FactoredPerturbation(A=A, B=B), z)))
        fact = FactoredPerturbation(A=scaled(A, scale), B=scaled(B, scale))
        R0 = resolvent(H0, z)
        tracemalloc.start()
        try:
            R = perturbed_resolvent(R0, fact, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        m = dense(fact.A).shape[0]
        assert peak < m * m * np.dtype(complex).itemsize
        R_direct = resolvent(H0 + perturbation(fact), z)
        assert (np.linalg.norm(R - R_direct) / np.linalg.norm(R_direct)
                <= 1e-12)


def test_verdicts_form_no_dense_operator(monkeypatch):
    # verify-kato and verify-krein's ladder solve from the diagonals of the
    # operator and of its base: a read of the dense H fails
    def no_dense(prob):
        raise AssertionError("Problem.H formed")

    monkeypatch.setattr(Problem, "H", property(no_dense))
    prob = make_problem("sawtooth", n=24, bc_left=NEU)
    rep = verify_identity(prob)
    assert not rep["excluded"] and max(rep["max_error"].values()) <= 1e-9
    closure = TwoStepResolvent(prob)
    R = closure(-40.0, resolvent(closure.H0, -40.0))
    assert np.all(np.isfinite(R))
    suite = krein_suite(0.0, 1.0, -5.0, (16, 32), 16, 25.0, [25.0])
    assert suite["min_order"] >= 1.8


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
        assert failed(decay_suite(prob, E_grid)["checks"]) == []
        norms = _InvSqrtShifted.norms

        def growing(self, shifts, A, B=None):
            out = norms(self, shifts, A, B)
            if B is None:
                return out
            return out[0], out[1], np.asarray(shifts, dtype=float)

        monkeypatch.setattr(_InvSqrtShifted, "norms", growing)
        # the multipliers and the derivative block do not read K
        assert failed(decay_suite(prob, E_grid)["checks"]) == [
            "factored-norm-decay"]


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
        # sawtooth has complex p, and with a complex Robin end its T0 is not
        # normal, so it takes the Schur path; more shifts than one Schur
        # block holds, so blocks are crossed
        prob = make_problem(family, n=64, bc_left=(
            BoundaryCondition(1 + 0.5j) if family == "sawtooth" else None))
        T0 = prob.base_operator()
        fact = build_factorization(prob, "full_triple")
        halver = _InvSqrtShifted(T0)
        n = T0.shape[0]
        assert halver.path == ("hermitian" if family == "constant_qrs"
                               else "schur")
        shifts = np.geomspace(1.0, 1e4, 20)
        assert shifts.size > kato._BLOCK_ENTRIES // n ** 2
        right, left, normK = halver.norms(shifts, fact.A, fact.B)
        A, B = dense_pair(fact)
        # a fresh factorization in decay_profile gives the same K-norms
        prof = decay_profile(_InvSqrtShifted(T0), fact, shifts)
        assert np.array_equal(normK, prof["normK"])
        for c, r, l, k in zip(shifts, right, left, normK):
            if halver.path == "hermitian":
                # the eigen coordinates the Hermitian path iterates in
                d = (halver.diag + c) ** -0.5
                M_right = (A @ halver.basis) * d
                M_left = (B @ halver.basis) * d
            else:
                R = np.linalg.inv(sla.sqrtm(T0 + c * np.eye(n)))
                M_right = A @ R
                M_left = R @ B.conj().T
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
        # one at 0, on the cut, and -3 puts two below zero and one at 0,
        # which the one guard reports by the shift rule first
        n = 12
        rng = np.random.default_rng(5)
        H = np.diag(np.arange(1.0, n + 1)) + np.triu(
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1)
        halver = _InvSqrtShifted(H)
        assert halver.path == "schur"
        X = np.ones((2, n), dtype=complex)
        for c, error in ((-1.0, SpectrumOnCutError),
                         (-3.0, ShiftBelowSpectrumError)):
            with pytest.raises(error):
                halver.norms([1.0, c], X)
            with pytest.raises(error):
                halver.norms([c], X, X)

    @pytest.mark.parametrize("bc", [DIR, NEU], ids=["dirichlet", "neumann"])
    @pytest.mark.parametrize("family",
                             ["sawtooth", "complex_p", "complex_constant"])
    def test_normal_base_operator_takes_no_schur_form(self, family, bc,
                                                      monkeypatch):
        # constant complex p with Dirichlet or Neumann ends: T0 is p times a
        # real symmetric matrix, so the gauge basis D V is unitary and each
        # shift's factors are diagonal; the norms match the explicit
        # products of a Schur-method root, taken before sla.schur and
        # sla.sqrtm are forbidden
        prob = make_problem(family, n=48, bc_left=bc, bc_right=bc)
        T0 = prob.base_operator()
        fact = build_factorization(prob, "full_triple")
        shifts = np.geomspace(1e2, 1e6, 5)
        A, B = dense_pair(fact)
        oracle = []
        for c in shifts:
            R = np.linalg.inv(sla.sqrtm(T0 + c * np.eye(T0.shape[0])))
            oracle.append([spectral_norm(A @ R),
                           spectral_norm(R @ B.conj().T),
                           spectral_norm(kato_K(T0, fact, -c))])

        def forbidden(*args, **kwargs):
            raise AssertionError("Schur form or sqrtm taken")

        monkeypatch.setattr(sla, "schur", forbidden)
        monkeypatch.setattr(sla, "sqrtm", forbidden)
        halver = _InvSqrtShifted(T0)
        assert halver.path == "normal"
        got = np.array(halver.norms(shifts, fact.A, fact.B)).T
        np.testing.assert_allclose(got, oracle, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("case", ["complex_robin", "varying_complex_p"])
    def test_non_normal_base_operator_takes_one_schur_form(self, case,
                                                           monkeypatch):
        # a complex Robin end puts a complex corner into the gauge's S, and
        # a complex p of varying phase makes all of S complex: neither T0
        # is normal
        if case == "complex_robin":
            prob = make_problem("sawtooth", n=32,
                                bc_left=BoundaryCondition(1 + 0.5j))
        else:
            prob = with_coeffs(32, p=lambda x: 1.0 + 0.5j * x)
        schur, calls = sla.schur, []

        def counting(*args, **kwargs):
            calls.append(kwargs.get("output"))
            return schur(*args, **kwargs)

        monkeypatch.setattr(sla, "schur", counting)
        fact = build_factorization(prob, "full_triple")
        halver = _InvSqrtShifted(prob.base_operator())
        assert halver.path == "schur"
        assert all(np.all(norm > 0)
                   for norm in halver.norms([1e2, 1e3], fact.A, fact.B))
        assert calls == ["complex"]

    def test_gauge_off_the_unit_circle_stays_on_schur(self):
        # one subdiagonal entry of sawtooth's normal T0 scaled by 1 + 1e-6:
        # S stays real, but |g_k| leaves 1 by 5e-7 from k on, so D V is no
        # longer unitary and the basis would not be orthonormal
        T0 = make_problem("sawtooth", n=32).base_operator()
        assert _InvSqrtShifted(T0).path == "normal"
        T0[11, 10] *= 1 + 1e-6
        g, *_, corner = matfun._gauge(matfun._diagonals(T0))
        assert corner is None
        assert np.abs(np.abs(g) - 1).max() > 1e-7
        assert _InvSqrtShifted(T0).path == "schur"
