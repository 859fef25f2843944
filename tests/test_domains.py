import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg as sla

from continuum import continuum_kappa
from sqrtdom import domains, matfun
from sqrtdom.assembly import (BoundaryCondition, CoefficientSet, IntervalSpec,
                              build_mesh, w12_norm_matrix)
from sqrtdom.domains import (_kappa_row, _power_over_reference, matrix_power,
                             refinement_study, sqrt_domain_kappa, thmA1_decay)
from sqrtdom.kato import _InvSqrtShifted
from sqrtdom.matfun import (QuadratureSpec, SpectrumOnCutError,
                            frac_power_quad, sqrt_db)
from sqrtdom.problems import (FAMILY_NAMES, Problem, lions_operator,
                              make_problem)

DIR, NEU = BoundaryCondition.dirichlet(), BoundaryCondition.neumann()


def family_at(family, interval=None, bc_left=None):
    """A refinement study's operator function for one family."""
    return lambda n: make_problem(family, interval, n, bc_left)


def robin_complex(n, bc_right=None):
    """The shifted operator of the robin_complex kappa problem, or with
    ``bc_right`` in place of its Dirichlet right end."""
    prob = make_problem("mixed_sign", n=n, bc_left=BoundaryCondition(1 + 0.5j),
                        bc_right=bc_right)
    return prob.H + np.eye(prob.H.shape[0])


def two_robin_ends(n):
    """robin_complex with a complex Robin right end as well: two complex
    corners, a rank-two update of the gauge, so the Schur route."""
    return robin_complex(n, BoundaryCondition(2 - 1j))


def schur_power(H, alpha):
    """``H^alpha`` for alpha in {1/2, 1/4, 3/8} from one Schur form, by
    ``sqrtm`` or Schur-Pade on its triangular factor."""
    T, Z = sla.schur(H, output="complex")
    if alpha == 0.375:
        R = sla.fractional_matrix_power(T, alpha)
    else:
        R = sla.sqrtm(T) if alpha == 0.5 else sla.sqrtm(sla.sqrtm(T))
    return Z @ R @ Z.conj().T


def count_schur_forms(monkeypatch):
    """The outputs asked of ``sla.schur`` from here on, one per call."""
    schur, calls = sla.schur, []

    def counting_schur(*args, **kwargs):
        calls.append(kwargs.get("output"))
        return schur(*args, **kwargs)

    monkeypatch.setattr(sla, "schur", counting_schur)
    return calls


def forbid_schur(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("Schur form taken")

    monkeypatch.setattr(sla, "schur", forbidden)


def count_secular_solves(monkeypatch):
    """The ``beta`` of every ``domains._secular_offsets`` call from here on."""
    solve, calls = domains._secular_offsets, []

    def counting(mu, u, beta):
        calls.append(beta)
        return solve(mu, u, beta)

    monkeypatch.setattr(domains, "_secular_offsets", counting)
    return calls


def eigh_power(H, alpha):
    """``H^alpha`` of a Hermitian positive definite H from a dense ``eigh``
    of its Hermitian part: an oracle independent of every route of
    ``matrix_power``."""
    evals, evecs = np.linalg.eigh(0.5 * (H + H.conj().T))
    return (evecs * evals ** alpha) @ evecs.conj().T


def hermitian_tridiagonal(n):
    """A complex Hermitian tridiagonal matrix, positive definite by
    diagonal dominance: the gauge's ``g_k`` are of modulus one."""
    rng = np.random.default_rng(3)
    off = rng.uniform(0.2, 1.0, n - 1) * np.exp(2j * np.pi * rng.random(n - 1))
    return np.diag(off, -1) + np.diag(4.0 + rng.random(n)) \
        + np.diag(off.conj(), 1)


def neumann_reference(n):
    """mixed_sign's self-adjoint reference with a Neumann left end, plus
    the shift E = 1: a real symmetric tridiagonal ``H_ref + E``."""
    H = make_problem("mixed_sign", n=n, bc_left=NEU).reference_operator()
    return H + np.eye(H.shape[0])


def free_real_robin(n):
    """free with the real Robin end theta_a = 0.7, plus the shift E = 1."""
    H = make_problem("free", n=n, bc_left=BoundaryCondition(0.7)).H
    return H + np.eye(H.shape[0])


class TestMatrixPower:
    @pytest.mark.parametrize("alpha", [0.3, 0.5])
    def test_dense_hermitian_input_takes_one_schur_form(self, alpha,
                                                        monkeypatch):
        rng = np.random.default_rng(0)
        B = rng.standard_normal((15, 15))
        H = (B @ B.T + np.eye(15)).astype(complex)
        schur_calls = count_schur_forms(monkeypatch)
        P1 = matrix_power(H, alpha)
        assert schur_calls == ["complex"]
        P2 = frac_power_quad(H, alpha, QuadratureSpec(panels=16))
        np.testing.assert_allclose(P1, P2, atol=1e-8 * np.linalg.norm(P1))

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("upper", [False, True])
    def test_toeplitz_path_matches_schur_pade(self, alpha, upper):
        L = lions_operator(64)
        if upper:
            # the upper bidiagonal transpose has a zero subdiagonal, so it
            # takes the Schur route; its power is the transpose of the lower
            # one's, which the binomial series gives in closed form
            band = domains._diagonals(L.T)
            assert domains._tridiagonal_toeplitz(band)[0] == 0
            X = matrix_power(L.T + np.eye(64), alpha)
            ref = matrix_power(L + np.eye(64), alpha).T
        else:
            X = matrix_power(L + np.eye(64), alpha)
            ref = sla.fractional_matrix_power(L + np.eye(64), alpha)
        assert np.linalg.norm(X - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("alpha", [0.25, 0.75])
    def test_toeplitz_path_matches_quadrature(self, alpha):
        T = lions_operator(24)
        X = matrix_power(T + np.eye(24), alpha)
        Xq = frac_power_quad(T + np.eye(24), alpha, QuadratureSpec(panels=16))
        assert np.linalg.norm(X - Xq) <= 1e-8 * np.linalg.norm(Xq)

    @pytest.mark.parametrize("lam", [0.0, -1.0])
    def test_toeplitz_path_rejects_cut(self, lam):
        # an eigenvalue at 0 is on the cut; one at -1 lies below the shift
        # rule, which the one guard applies first
        T = lions_operator(16)
        E = lam - T[0, 0].real
        error = (SpectrumOnCutError if lam == 0
                 else domains.ShiftBelowSpectrumError)
        with pytest.raises(error):
            matrix_power(T + E * np.eye(16), 0.25)

    @pytest.mark.parametrize("alpha", [0.25, 0.5])
    @pytest.mark.parametrize("route", ["hermitian_gauge", "toeplitz"])
    def test_real_input_stays_real(self, route, alpha):
        # the reference operator and the lions control are real themselves
        if route == "hermitian_gauge":
            H = make_problem("free", n=65).reference_operator() + np.eye(64)
        else:
            H = lions_operator(64) + np.eye(64)
        assert H.dtype == np.float64
        X = matrix_power(H, alpha)
        Xc = matrix_power(H.astype(complex), alpha)
        assert X.dtype == np.float64 and np.iscomplexobj(Xc)
        assert np.linalg.norm(X - Xc) <= 1e-13 * np.linalg.norm(Xc)

    def test_dense_path_rejects_cut(self):
        # an eigenvalue at 0 is on the cut; one at -1 lies below the shift
        # rule, which the one guard applies first
        rng = np.random.default_rng(5)
        V = rng.standard_normal((12, 12))
        for lowest, error in ((0.0, SpectrumOnCutError),
                              (-1.0, domains.ShiftBelowSpectrumError)):
            evals = np.concatenate(([lowest], np.linspace(1.0, 3.0, 11)))
            H = V @ np.diag(evals) @ np.linalg.inv(V)
            for alpha in (0.25, 0.5):
                with pytest.raises(error):
                    matrix_power(H, alpha)

    def test_dense_path_exact(self):
        H = two_robin_ends(64)
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
        def forbidden(*args, **kwargs):
            raise AssertionError("second factorization on the dense route")

        schur_calls = count_schur_forms(monkeypatch)
        monkeypatch.setattr(np.linalg, "eigvals", forbidden)
        monkeypatch.setattr(sla, "fractional_matrix_power", forbidden)
        monkeypatch.setattr(matfun, "sqrt_db", forbidden)
        matrix_power(two_robin_ends(32), alpha)
        assert schur_calls == ["complex"]

    def test_dense_path_matches_quadrature(self):
        prob = make_problem("complex_constant", n=24)
        H = prob.H + np.eye(prob.H.shape[0])
        X = matrix_power(H, 0.3)
        Xq = frac_power_quad(H, 0.3, QuadratureSpec(panels=16))
        assert np.linalg.norm(X - Xq) <= 1e-8 * np.linalg.norm(Xq)

    def test_schur_half_power_matches_denman_beavers(self):
        # the twin of the test above on input that is not Toeplitz, so the
        # Schur route keeps an independent root to agree with
        prob = make_problem("sawtooth", n=48)
        H = prob.H + np.eye(prob.H.shape[0])
        assert domains._tridiagonal_toeplitz(domains._diagonals(H)) is None
        Y = sqrt_db(H)
        assert np.linalg.norm(matrix_power(H, 0.5) - Y) \
            <= 1e-12 * np.linalg.norm(Y)

    def test_schur_path_matches_quadrature(self):
        prob = make_problem("sawtooth", n=24)
        H = prob.H + np.eye(prob.H.shape[0])
        assert domains._tridiagonal_toeplitz(domains._diagonals(H)) is None
        X = matrix_power(H, 0.3)
        Xq = frac_power_quad(H, 0.3, QuadratureSpec(panels=16))
        assert np.linalg.norm(X - Xq) <= 1e-8 * np.linalg.norm(Xq)

    @pytest.mark.parametrize("alpha", [0.5, 0.25, 0.375])
    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("family,end", [
        ("complex_constant", "dirichlet"), ("mixed_sign", "dirichlet"),
        ("mixed_sign", "neumann"), ("mixed_sign", "robin"),
        ("complex_p", "neumann"), ("mixed_sign", "complex_robin"),
        ("complex_constant", "neumann"), ("complex_p", "robin"),
        ("mixed_sign", "right_complex_robin")])
    def test_tridiagonal_toeplitz_takes_no_schur_form(self, family, end, n,
                                                      alpha, monkeypatch):
        # the Toeplitz sine case and the variable-coefficient gauge: real
        # coefficients with Dirichlet, Neumann or real Robin ends, and
        # complex p with a Neumann end.  One end whose boundary term is no
        # real multiple of the interior scale is a complex corner, solved by
        # its secular equation: a complex Robin end with real coefficients,
        # a Neumann end of complex_constant, a real Robin end with complex
        # p, and the complex Robin end in the last row
        left, right = {"dirichlet": (0.0, 0.0), "neumann": (np.pi / 2, 0.0),
                       "robin": (0.7, 0.0), "complex_robin": (1 + 0.5j, 0.0),
                       "right_complex_robin": (0.0, 1 + 0.5j)}[end]
        corner = (family, end) in {
            ("mixed_sign", "complex_robin"), ("complex_constant", "neumann"),
            ("complex_p", "robin"), ("mixed_sign", "right_complex_robin")}
        prob = make_problem(family, n=n, bc_left=BoundaryCondition(left),
                            bc_right=BoundaryCondition(right))
        H = prob.H + np.eye(prob.H.shape[0])
        ref = schur_power(H, alpha)
        forbid_schur(monkeypatch)
        betas = count_secular_solves(monkeypatch)
        X = matrix_power(H, alpha)
        assert len(betas) == (1 if corner else 0) and all(betas)
        assert np.linalg.norm(X - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("alpha", [0.25, 0.375])
    def test_perturbed_secular_solve_raises(self, alpha, monkeypatch):
        # offsets off by 1e-6 relative leave W^T W off the identity: the
        # route must raise, at a root and at a Schur-Pade power alike, and
        # not fall back to Schur
        solve = domains._secular_offsets

        def perturbed(*args):
            return solve(*args) * (1 + 1e-6)

        monkeypatch.setattr(domains, "_secular_offsets", perturbed)
        forbid_schur(monkeypatch)
        with pytest.raises(SpectrumOnCutError):
            matrix_power(robin_complex(64), alpha)

    def test_unconverged_secular_solve_takes_schur(self, monkeypatch):
        # the corner's solve takes three steps; one leaves it unconverged
        H = robin_complex(64)
        ref = schur_power(H, 0.375)
        monkeypatch.setattr(domains, "_SECULAR_STEPS", 1)
        betas = count_secular_solves(monkeypatch)
        schur_calls = count_schur_forms(monkeypatch)
        X = matrix_power(H, 0.375)
        assert len(betas) == 1 and schur_calls == ["complex"]
        assert np.linalg.norm(X - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("family,bc_left", [
        ("complex_constant", None), ("constant_qrs", None),
        ("mixed_sign", BoundaryCondition(1 + 0.5j))])
    def test_tridiagonal_input_is_read_once(self, family, bc_left,
                                            monkeypatch):
        # one scan of the nonzero pattern; every later test reads the band
        bandwidths, scans = matfun._bandwidths, []
        hermitian, tested = matfun.is_hermitian, []

        def counting(H):
            scans.append(H.shape)
            return bandwidths(H)

        def band_only(H):
            tested.append(isinstance(H, tuple) or H.ndim == 1)
            return hermitian(H)

        monkeypatch.setattr(matfun, "_bandwidths", counting)
        monkeypatch.setattr(matfun, "is_hermitian", band_only)
        H = make_problem(family, n=64, bc_left=bc_left).H
        matrix_power(H + np.eye(H.shape[0]), 0.5)
        assert scans == [H.shape]
        assert tested and all(tested)

    @pytest.mark.parametrize("case", ["neumann", "sawtooth", "large_r",
                                      "large_gauge", "complex_robin"])
    def test_other_input_takes_one_schur_form(self, case, monkeypatch):
        if case == "neumann":
            # a Neumann corner of complex_constant at each end: rank two
            prob = make_problem("complex_constant", n=32, bc_left=NEU,
                                bc_right=NEU)
        elif case == "sawtooth":
            prob = make_problem("sawtooth", n=32)
        elif case == "large_gauge":
            # real coefficients, but cond(D) is about 2.3e4 on [0, 20]
            prob = make_problem("mixed_sign", IntervalSpec("half_line"), 64,
                                NEU)
            lo, up = np.diag(prob.H, -1), np.diag(prob.H, 1)
            log_g = np.cumsum(np.log(np.abs(np.sqrt(lo * up) / up)))
            assert np.ptp(log_g) > np.log(1e4)
        elif case == "complex_robin":
            # a complex Robin corner at each end: rank two
            prob = make_problem("mixed_sign", n=32,
                                bc_left=BoundaryCondition(1 + 0.5j),
                                bc_right=BoundaryCondition(2 - 1j))
        else:
            # tridiagonal Toeplitz, but |b/c|^((n-1)/2) is about 4.6e13
            mesh = build_mesh(IntervalSpec(), 32)
            prob = Problem(IntervalSpec(), mesh,
                           CoefficientSet.from_callables(mesh, r=50.0),
                           DIR, DIR)
            b, a, c = domains._tridiagonal_toeplitz(
                domains._diagonals(prob.H))
            assert b * c != 0
        schur_calls = count_schur_forms(monkeypatch)
        matrix_power(prob.H + np.eye(prob.H.shape[0]), 0.5)
        assert schur_calls == ["complex"]

    @pytest.mark.parametrize("route", ["hermitian_gauge", "real_gauge",
                                       "bidiagonal", "gauge", "schur"])
    def test_shift_below_spectrum_rejected_on_every_route(self, route):
        # eigenvalues of real part near -90 and imaginary part 1 (real on
        # the two real gauge cases): off the cut, below the shift rule.
        # Real eigenvalues on the gauge route used to reach the cut guard
        # first and raise SpectrumOnCutError
        if route == "hermitian_gauge":
            H = make_problem("free", n=32).H - 100 * np.eye(31)
        elif route == "real_gauge":
            # r = 1: real, not Hermitian, lo up > 0, so the spectrum is real
            mesh = build_mesh(IntervalSpec(), 32)
            prob = Problem(IntervalSpec(), mesh,
                           CoefficientSet.from_callables(mesh, r=1.0),
                           DIR, DIR)
            assert not matfun.is_hermitian(prob.H)
            H = prob.H.real - 100 * np.eye(31)
        elif route == "bidiagonal":
            H = lions_operator(16) - (16 + 90 - 1j) * np.eye(16)
        else:
            family = "free" if route == "gauge" else "sawtooth"
            H = make_problem(family, n=32).H - (100 - 1j) * np.eye(31)
        for alpha in (0.5, 0.25, 0.375):
            with pytest.raises(domains.ShiftBelowSpectrumError):
                matrix_power(H, alpha)

    @pytest.mark.parametrize("route", ["hermitian_gauge", "binomial",
                                       "gauge", "schur"])
    def test_negative_half_power_inverts_the_half_power(self, route):
        # alpha <= 0 is no dyadic root: it used to reach log2 with a
        # RuntimeWarning off the Hermitian and binomial routes
        if route == "hermitian_gauge":
            H = make_problem("mixed_sign", n=65).reference_operator()
        elif route == "binomial":
            H = lions_operator(64)
        else:
            family = "complex_constant" if route == "gauge" else "sawtooth"
            H = make_problem(family, n=65).H
        H = H + np.eye(64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            P = matrix_power(H, -0.5) @ matrix_power(H, 0.5)
        assert np.linalg.norm(P - np.eye(64)) <= 1e-12 * np.sqrt(64)

    @pytest.mark.parametrize("lowest", [0.0, -1e-17])
    def test_negative_power_of_singular_hermitian_rejected(self, lowest):
        # the eigenvalue passes the shift rule and sits on the cut, where a
        # negative power used to come back as inf.  A diagonal matrix has
        # lo up = 0, so it takes the Schur route
        H = np.diag([lowest, 1.0, 2.0, 3.0, 4.0, 5.0])
        with pytest.raises(SpectrumOnCutError):
            matrix_power(H, -0.25)

    @pytest.mark.parametrize("alpha", [0.5, 0.25, 0.375, -0.25])
    @pytest.mark.parametrize("case,n", [("complex_hermitian", 200),
                                        ("neumann_reference", 256),
                                        ("free_real_robin", 256)])
    def test_hermitian_tridiagonal_takes_the_gauge(self, case, n, alpha,
                                                   monkeypatch):
        # the dense eigh route these inputs took is the oracle; at
        # alpha = -1/4 the smallest eigenvalue dominates, and both carry
        # about eps ||A|| / lambda_min (gaps measured: 2.3e-14 and 5.5e-12)
        H = {"complex_hermitian": hermitian_tridiagonal,
             "neumann_reference": neumann_reference,
             "free_real_robin": free_real_robin}[case](n)
        assert matfun.is_hermitian(H)
        ref = eigh_power(H, alpha)
        forbid_schur(monkeypatch)
        monkeypatch.delattr(np.linalg, "eigh")
        X = matrix_power(H, alpha)
        tol = 1e-13 if alpha > 0 else 5e-11
        assert np.linalg.norm(X - ref) <= tol * np.linalg.norm(ref)

    @pytest.mark.parametrize("alpha", [0.5, 0.25])
    def test_gauge_root_residual_failure_raises(self, alpha, monkeypatch):
        # eigenvalues off by 1e-6 relative: the root raised back must fail
        # the residual rule, not return and not fall back to Schur
        eigh_tridiagonal = sla.eigh_tridiagonal

        def perturbed(*args, **kwargs):
            mu, V = eigh_tridiagonal(*args, **kwargs)
            return mu * (1 + 1e-6), V

        monkeypatch.setattr(sla, "eigh_tridiagonal", perturbed)
        forbid_schur(monkeypatch)
        prob = make_problem("mixed_sign", n=64, bc_left=NEU)
        with pytest.raises(SpectrumOnCutError):
            matrix_power(prob.H + np.eye(64), alpha)

    def test_power_above_one_is_not_a_root(self):
        # alpha = 2 is a dyadic exponent, but not a root to be taken
        for family in ("complex_constant", "sawtooth"):
            H = make_problem(family, n=24).H + np.eye(23)
            X = matrix_power(H, 2.0)
            assert np.linalg.norm(X - H @ H) <= 1e-12 * np.linalg.norm(H @ H)

    @pytest.mark.parametrize("ratio", [1.21, -1.21])
    def test_real_toeplitz_stays_real(self, ratio):
        # a real nonsymmetric tridiagonal Toeplitz matrix: rho is real for
        # b/c > 0 and imaginary for b/c < 0; the power is real either way
        n = 12
        H = sla.toeplitz(np.r_[4.0, ratio, np.zeros(n - 2)],
                         np.r_[4.0, 1.0, np.zeros(n - 2)])
        X = matrix_power(H, 0.5)
        ref = sla.sqrtm(H)
        assert X.dtype == np.float64
        assert np.linalg.norm(X - ref) <= 1e-13 * np.linalg.norm(ref)


class TestSqrtDomainKappa:
    def test_selfadjoint_baseline_is_exactly_one(self):
        row = _kappa_row(family_at("free"), 48, 1.0, 0.5)
        assert abs(row["kappa"] - 1.0) <= 1e-12
        assert abs(row["min_ratio"] - 1.0) <= 1e-12

    def test_critical_reference_gram_is_w12_gram(self):
        # at the critical power the reference factor R is the Cholesky
        # factor of H_ref + E, the E-scaled Sobolev Gram taken to orthonormal
        # coordinates, whatever the left end
        for theta in (0.0, np.pi / 2, 1 + 0.5j):
            prob = make_problem("mixed_sign", n=64,
                                bc_left=BoundaryCondition(theta))
            H_ref = prob.reference_operator()
            winv = 1.0 / np.sqrt(prob.forms.lumped_weights)
            for E in (0.3, 1.0, 1e3):
                G = w12_norm_matrix(prob.mesh, prob.bc_left, prob.bc_right, E)
                Q = H_ref + E * np.eye(H_ref.shape[0])
                band = domains._band_cholesky(Q)
                assert band.shape == (2, Q.shape[0])
                assert band.dtype == np.float64
                R = np.diag(band[1]) + np.diag(band[0, 1:], 1)
                assert np.linalg.norm(R.T @ R - Q) \
                    <= 1e-14 * np.linalg.norm(Q)
                assert np.linalg.norm(winv[:, None] * G * winv[None, :] - Q) \
                    <= 1e-14 * np.linalg.norm(Q)
        # the self-adjoint baseline's two factors are now the same matrix
        assert _kappa_row(family_at("free"), 100, 0.3, 0.5)["kappa"] == 1.0

    def test_identical_reference_any_alpha(self):
        # the operator as its own reference: its power against its own
        # inverse power, both on the gauge route
        prob = make_problem("complex_constant", n=24)
        Z = _power_over_reference(prob.H, prob.H, 2.0, 0.375)
        row = sqrt_domain_kappa(Z)
        assert abs(row["kappa"] - 1.0) <= 1e-9

    def test_extremal_pair_dominates_samples(self):
        prob = make_problem("complex_constant", n=40)
        row = sqrt_domain_kappa(_power_over_reference(
            prob.H, prob.reference_operator(), 1.0, 0.5))
        # the two norms from their own Grams: the power's, and the Sobolev
        # Gram assembled on the mesh
        X = matrix_power(prob.H + np.eye(prob.H.shape[0]), 0.5)
        P = X.conj().T @ X
        winv = 1.0 / np.sqrt(prob.forms.lumped_weights)
        G = w12_norm_matrix(prob.mesh, prob.bc_left, prob.bc_right, 1.0)
        Q = winv[:, None] * G * winv[None, :]
        rng = np.random.default_rng(0)
        u = (rng.standard_normal((200, P.shape[0]))
             + 1j * rng.standard_normal((200, P.shape[0])))
        samples = np.sqrt(np.einsum("ij,jk,ik->i", u.conj(), P, u).real
                          / np.einsum("ij,jk,ik->i", u.conj(), Q, u).real)
        assert samples.max() <= row["max_ratio"] + 1e-10
        assert samples.min() >= row["min_ratio"] - 1e-10
        assert row["kappa"] >= 1.0

    def test_nonpositive_gram_rejected(self):
        with pytest.raises(domains.ShiftBelowSpectrumError):
            sqrt_domain_kappa(np.diag([1.0, 0.0, 2.0]))

    def test_indefinite_reference_rejected(self):
        prob = make_problem("free", n=16)
        with pytest.raises(ValueError,
                           match="reference Gram is not positive definite"):
            _power_over_reference(prob.H, prob.reference_operator() - 100.0
                                  * np.eye(15), 1.0, 0.5)

    def test_indefinite_hermitian_operator_rejected(self):
        prob = make_problem("free", n=16)
        with pytest.raises(domains.ShiftBelowSpectrumError):
            _power_over_reference(prob.H - 100.0 * np.eye(15),
                                  prob.reference_operator(), 1.0, 0.5)

    @pytest.mark.parametrize("c", [0.3, 0.3j], ids=["real", "complex"])
    def test_wider_hermitian_operator_takes_its_root(self, c):
        # a Hermitian H + E with entries two off the diagonal is not its
        # own bidiagonal factor; its root is a factor, and kappa is the
        # condition number of the roots' quotient
        H_ref = make_problem("free", n=21).reference_operator()
        n, E = H_ref.shape[0], 5.0
        H = (H_ref + np.diag(np.full(n - 2, c), 2)
             + np.diag(np.full(n - 2, np.conj(c)), -2))
        kappa = sqrt_domain_kappa(
            _power_over_reference(H, H_ref, E, 0.5))["kappa"]
        shift = E * np.eye(n)
        want = np.linalg.cond(sla.sqrtm(H + shift)
                              @ np.linalg.inv(sla.sqrtm(H_ref + shift)))
        assert kappa == pytest.approx(want, rel=1e-12)

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            refinement_study(family_at("free"), [16, 32], 1.0, 1.5, 3.0)

    @pytest.mark.parametrize("n_list", [[32, 32], [8, 8, 8], [16, 32, 32]])
    def test_repeated_levels_rejected(self, n_list):
        # a repeated level is no refinement: [32, 32] used to read growth 1,
        # bounded, and [16, 32, 32] fed the increment rule a zero increment
        with pytest.raises(ValueError, match="distinct"):
            refinement_study(family_at("free"), n_list, 1.0, 0.5, 3.0)


class TestKappaRowInTheBand:
    """A kappa row takes its problem's operator and reference as diagonals
    and shifts them on the main diagonal, so the dense ``H``, reference,
    identity and shifted copies are never formed."""

    @pytest.mark.parametrize("family,bc_left", [
        ("complex_constant", None), ("free", None), ("sawtooth", None),
        ("mixed_sign", BoundaryCondition(1 + 0.5j))],
        ids=["gauge", "hermitian", "schur", "corner"])
    def test_problem_forms_no_dense_operator(self, family, bc_left):
        built = []

        def operator_at(n):
            built.append(make_problem(family, n=n, bc_left=bc_left))
            return built[-1]

        for alpha in (0.5, 0.25, 0.375):
            _kappa_row(operator_at, 24, 1.0, alpha)
        assert len(built) == 3
        assert not any("H" in vars(prob) for prob in built)

    @pytest.mark.parametrize("family,bc_left,alpha", [
        ("complex_constant", None, 0.5),
        ("mixed_sign", BoundaryCondition(1 + 0.5j), 0.25)],
        ids=["complex_full", "robin_complex"])
    def test_peak_within_four_dense_matrices(self, family, bc_left, alpha):
        # the Problem's build included; from dense H, a dense reference and
        # two dense shifted copies this row peaked at 6.56 (complex_full)
        # and 7.61 (robin_complex) dense complex n x n matrices
        n = 256
        operator_at = family_at(family, bc_left=bc_left)
        _kappa_row(operator_at, 16, 1.0, alpha)  # one-time first-call work
        tracemalloc.start()
        try:
            _kappa_row(operator_at, n, 1.0, alpha)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.0 * 16 * n * n


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

    @pytest.mark.parametrize("alpha", [0.25, 0.5])
    @pytest.mark.parametrize("n", [32, 256])
    def test_real_row_matches_complex_arithmetic(self, n, alpha):
        row = _kappa_row(lions_operator, n, 1.0, alpha)
        T = (lions_operator(n) + np.eye(n)).astype(complex)
        Z = matrix_power(T, alpha) @ matrix_power(T, -alpha).conj().T
        assert np.iscomplexobj(Z)
        ref = sqrt_domain_kappa(Z)
        for key in ("min_ratio", "max_ratio", "kappa"):
            assert abs(row[key] - ref[key]) <= 1e-13 * ref[key], key


def pencil_power_gram(H, E, alpha):
    """``X^H X`` for ``X = (H + E)^alpha``, one side of the Gram pencil
    that the factor route must match.  A Hermitian ``H + E`` at the
    critical power is its own Gram."""
    shifted = H + E * np.eye(H.shape[0])
    if alpha == 0.5 and matfun.is_hermitian(shifted):
        return shifted
    X = domains.matrix_power(shifted, alpha)
    return X.conj().T @ X


def pencil_kappa(P, Q):
    """The extreme ratios of two Grams through their equilibrated
    difference pencil, a dense Cholesky of Q and two triangular solves."""
    P = 0.5 * (P + P.conj().T)
    Q = 0.5 * (Q + Q.conj().T)
    d = 1.0 / np.sqrt(np.abs(np.diag(Q)))
    Pe = d[:, None] * P * d[None, :]
    Qe = d[:, None] * Q * d[None, :]
    try:
        L = np.linalg.cholesky(Qe)
    except np.linalg.LinAlgError as exc:
        raise ValueError("reference Gram is not positive definite") from exc
    S = sla.solve_triangular(L, Pe - Qe, lower=True)
    S = sla.solve_triangular(L, S.conj().T, lower=True).conj().T
    evals = 1.0 + np.linalg.eigvalsh(0.5 * (S + S.conj().T))
    if evals[0] <= 0:
        raise domains.ShiftBelowSpectrumError("power Gram lost positivity")
    lo, hi = float(np.sqrt(evals[0])), float(np.sqrt(evals[-1]))
    return {"min_ratio": lo, "max_ratio": hi, "kappa": hi / lo}


def pencil_kappa_row(operator_at, n, E, alpha):
    """One kappa level by the Gram pencil: the lions control's ``X^H X``
    against ``X X^H``, a ``Problem``'s power Gram against its reference's."""
    if operator_at is lions_operator:
        X = domains.matrix_power(lions_operator(n) + E * np.eye(n), alpha)
        return pencil_kappa(X.conj().T @ X, X @ X.conj().T)
    prob = operator_at(n)
    return pencil_kappa(pencil_power_gram(prob.H, E, alpha),
                        pencil_power_gram(prob.reference_operator(), E, alpha))


@pytest.fixture
def shared_powers(monkeypatch):
    """``domains.matrix_power`` memoized on its input's bytes, so that a
    row and its pencil reference take one power between them.  A row
    passes the diagonals of a tridiagonal input and the pencil the dense
    matrix, so either is keyed on its diagonals."""
    power, memo = domains.matrix_power, {}

    def memoized(H, alpha):
        band = domains._diagonals(H)
        key = (alpha, *((x.dtype.str, x.shape, x.tobytes())
                        for x in (band if band is not None else (H,))))
        if key not in memo:
            memo[key] = power(H, alpha)
        return memo[key]

    monkeypatch.setattr(domains, "matrix_power", memoized)


PIN_INTERVALS = {"finite": None,
                 "half_line": IntervalSpec("half_line", truncation_radius=4.0),
                 "full_line": IntervalSpec("full_line", truncation_radius=4.0)}
PIN_LEFT_ENDS = (DIR, NEU, BoundaryCondition(1 + 0.5j))
PIN_ALPHAS = (0.25, 0.375, 0.5)


class TestFactorRouteMatchesGramPencil:
    """Kappa as the condition number of ``X Y^-1`` against the Gram pencil
    it replaced, to 1e-11 relative (the largest gap measured is 9.6e-13);
    an input the pencil rejects is rejected with the same exception."""

    @staticmethod
    def assert_rows_agree(operator_at, n, alpha):
        try:
            ref = pencil_kappa_row(operator_at, n, 1.0, alpha)
        except ValueError as exc:
            with pytest.raises(type(exc)):
                _kappa_row(operator_at, n, 1.0, alpha)
            return
        row = _kappa_row(operator_at, n, 1.0, alpha)
        for key in ("min_ratio", "max_ratio", "kappa"):
            assert abs(row[key] - ref[key]) <= 1e-11 * ref[key], (n, alpha,
                                                                  key)

    @pytest.mark.parametrize("interval", sorted(PIN_INTERVALS))
    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_problem_rows(self, family, interval, shared_powers):
        # n = 128 only at the critical power, where the factor route is new
        # and the gap grows with n (9.6e-13, against at most 1.0e-13 for
        # the other powers there); Schur-Pade at n = 128 dominates the cost
        for bc, alpha, n in itertools.product(PIN_LEFT_ENDS, PIN_ALPHAS,
                                              (16, 64, 128)):
            if n < 128 or alpha == 0.5:
                self.assert_rows_agree(
                    family_at(family, PIN_INTERVALS[interval], bc), n, alpha)

    def test_lions_rows(self, shared_powers):
        for alpha, n in itertools.product(PIN_ALPHAS, (16, 64, 128, 256)):
            self.assert_rows_agree(lions_operator, n, alpha)


class TestContinuumOracle:
    """The finite-element kappa against the constant-coefficient continuum
    (``continuum.continuum_kappa``): second-order convergence on [0, 1]
    with Dirichlet ends."""

    @pytest.mark.parametrize("alpha", [0.5, 0.25])
    def test_complex_full_ladder_converges_at_second_order(self, alpha):
        # complex_constant: the gauge is e^(x/2); W_512 is within 1e-7 of
        # W_2048.  Errors at alpha = 1/2: 3.1e-4, 8.6e-5, 2.3e-5, 5.7e-6
        kappa_inf = continuum_kappa(1 + 0.5j, 2 - 1j, 1 + 1j, 0.5j, 1.0,
                                    alpha, 512)
        errors = [abs(_kappa_row(family_at("complex_constant"), n, 1.0,
                                 alpha)["kappa"] - kappa_inf)
                  for n in (64, 128, 256, 512)]
        ratios = [a / b for a, b in zip(errors, errors[1:])]
        assert all(3.3 <= r <= 4.5 for r in ratios), ratios
        assert errors[-1] <= 1e-5

    @pytest.mark.parametrize("family,coeffs", [
        ("constant_qrs", (1, 1, 1, 1)), ("complex_p", (1 + 0.5j, 0, 0, 0))])
    def test_scalar_forms(self, family, coeffs):
        # r = s, so the gauge is trivial and kappa is a scalar extreme over
        # mu_k = (k pi)^2.  constant_qrs: (mu + 2)/(mu + 1) falls from
        # k = 1 to 1.  complex_p: |p mu + 1|^2/(mu + 1)^2 = 1 + mu^2/(4
        # (mu + 1)^2) rises from k = 1 to |p|^2.  Gaps 1.5e-6, 3.7e-7 and
        # 2.9e-7, 7.1e-8 at n = 256, 512
        mu, p = np.pi ** 2, coeffs[0]
        if family == "constant_qrs":
            kappa_inf = np.sqrt((mu + 2) / (mu + 1))
        else:
            kappa_inf = (abs(p) / (abs(p * mu + 1) / (mu + 1))) ** 0.5
        assert abs(continuum_kappa(*coeffs, 1.0, 0.5, 512) - kappa_inf) \
            <= 1e-6
        errors = [abs(_kappa_row(family_at(family), n, 1.0, 0.5)["kappa"]
                      - kappa_inf) for n in (256, 512)]
        assert 3.3 <= errors[0] / errors[1] <= 4.5, errors
        assert errors[1] <= 1e-6

    def test_extrapolated_kappa_nears_the_continuum(self):
        # complex_full, kappa-study's name for complex_constant, on its
        # default ladder: kappa(256) = 1.0770544, its Aitken limit
        # 1.0770793 and kappa_inf = 1.0770771
        kappa_inf = continuum_kappa(1 + 0.5j, 2 - 1j, 1 + 1j, 0.5j, 1.0,
                                    0.5, 512)
        report = refinement_study(family_at("complex_constant"),
                                  [32, 64, 128, 256], 1.0, 0.5, 2.0)
        gap = abs(report.rows[-1]["kappa"] - kappa_inf)
        assert abs(report.kappa_extrapolated - kappa_inf) < gap


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
        # two levels have no increment ratio; the growth rule alone judges
        assert np.isnan(report.increment_ratio)

    def test_rising_increments_divergent(self, monkeypatch):
        # growth 1.2 stays under the ceiling, but each increment is larger
        # than the last
        ladder = {16: 1.0, 32: 1.05, 64: 1.2}
        monkeypatch.setattr(domains, "_kappa_row",
                            lambda operator_at, n, E, alpha: {
                                "n": n, "kappa": ladder[n]})
        report = refinement_study(family_at("free"), list(ladder), 1.0, 0.5,
                                  2.0)
        assert report.increment_ratio == pytest.approx(3.0)
        assert report.verdict == "divergent"

    @pytest.mark.parametrize("kappas,limit", [
        ((1.0, 1.5, 1.75), 2.0),       # rho = 1/2
        ((1.0, 1.25, 2.0), np.nan),    # rho = 3: rising
        ((1.0, 1.5, 1.25), np.nan),    # rho = -1/2: alternating
        ((1.0, 1.5, 2.0), np.nan),     # rho = 1: no limit
        ((1.0, 1.0, 1.0), np.nan),     # d1 = 0
        ((1.0, 1.5), np.nan)])         # two levels
    def test_extrapolated_kappa(self, monkeypatch, kappas, limit):
        ladder = dict(zip((16, 32, 64), kappas))
        monkeypatch.setattr(domains, "_kappa_row",
                            lambda operator_at, n, E, alpha: {
                                "n": n, "kappa": ladder[n]})
        report = refinement_study(family_at("free"), list(ladder), 1.0, 0.5,
                                  2.0)
        np.testing.assert_allclose(report.kappa_extrapolated, limit,
                                   rtol=1e-12)

    def test_degenerate_diffusion_divergent(self):
        # p = |x - 1/2|^(1/4) vanishes inside (0, 1): the square root's
        # domain is the weighted form domain, strictly larger than W^{1,2}.
        # kappa rises by a steady factor per doubling, with growth under
        # the self-calibrated ceiling; its increments grow
        interval = IntervalSpec()

        def degenerate(n):
            mesh = build_mesh(interval, n)
            coeffs = CoefficientSet.from_callables(
                mesh, p=lambda x: np.abs(x - 0.5) ** 0.25)
            return Problem(interval, mesh, coeffs, DIR, DIR)

        report = refinement_study(degenerate, [32, 64, 128, 256], 1.0, 0.5,
                                  None)
        assert report.growth <= report.threshold
        assert report.verdict == "divergent"
        assert report.increment_ratio >= 1.0


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


# alpha != 1/2 on [0, 1] with a Dirichlet right end.  For a second-order
# operator dom(A^alpha) is H^(2 alpha) with no boundary condition while
# 2 alpha < 3/2, and carries the condition above (Fujiwara 1967; Grisvard
# 1967; Seeley 1972): a Robin end against the Neumann reference, and a jump
# in s, part the domains above alpha = 3/4, and a constant s does not.  Only
# powers well away from 3/4 are judged; no finite ladder decides alpha near
# it.  Growth over 32..128 (ceiling 1.204): free 1.0165 at 0.6, 2.29 at
# 0.9; mixed_sign Robin 1.0183, 1.84; sawtooth 1.0083, 1.585; mixed_sign
# Dirichlet 1.0131 at 0.9.  The divergent ladders' last increments grow by
# 1.51, 1.51 and 1.40
THREE_QUARTER_CASES = {
    "free-robin": ("free", BoundaryCondition(0.7)),
    "mixed-sign-complex-robin": ("mixed_sign", BoundaryCondition(1 + 0.5j)),
    "sawtooth-dirichlet": ("sawtooth", DIR),
    "mixed-sign-dirichlet": ("mixed_sign", DIR)}


class TestThreeQuarterPower:
    @pytest.mark.parametrize("case,alpha,verdict", [
        ("free-robin", 0.6, "bounded"), ("free-robin", 0.9, "divergent"),
        ("mixed-sign-complex-robin", 0.6, "bounded"),
        ("mixed-sign-complex-robin", 0.9, "divergent"),
        ("sawtooth-dirichlet", 0.6, "bounded"),
        ("sawtooth-dirichlet", 0.9, "divergent"),
        ("mixed-sign-dirichlet", 0.9, "bounded")])
    def test_ladder_verdict(self, case, alpha, verdict, ceiling):
        family, bc = THREE_QUARTER_CASES[case]
        report = refinement_study(family_at(family, None, bc),
                                  KAPPA_LADDER, 1.0, alpha, ceiling)
        assert report.verdict == verdict, (report.growth,
                                           report.increment_ratio)


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
        # vanishing norms have no log-log slope (it used to read 0.0)
        assert np.isnan(rec["slope"])

    def test_one_shift_grid_rejected(self):
        # one shift used to get a slope fitted through a single point
        prob = make_problem("constant_qrs", n=16)
        with pytest.raises(ValueError):
            thmA1_decay(np.ones(15), _InvSqrtShifted(prob.H), [100.0])

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
