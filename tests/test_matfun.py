import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from power_laws import check_power_laws
from sqrtdom import matfun
from sqrtdom.matfun import (QuadratureSpec, ResolventError,
                            SpectrumOnCutError, _principal_sqrt,
                            _require_off_cut, frac_power_quad, is_hermitian,
                            power_norms, power_start, resolvent,
                            spectral_norm, sqrt_db, trace_det_check)
from sqrtdom.assembly import IntervalSpec
from sqrtdom.cli import parse_theta
from sqrtdom.problems import FAMILY_NAMES, make_problem
from sqrtdom.sectorial import check_m_accretive, safe_shift


def random_accretive(n, seed, shift=1.0):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    A = A / np.sqrt(n)
    # push the Hermitian part into the right half-plane
    herm = 0.5 * (A + A.conj().T)
    lo = np.linalg.eigvalsh(herm)[0]
    return A + (max(0.0, -lo) + shift) * np.eye(n)


class TestResolvent:
    def test_zero_matrix(self):
        np.testing.assert_allclose(resolvent(np.zeros((3, 3)), -1.0), np.eye(3))

    def test_diagonal(self):
        np.testing.assert_allclose(resolvent(np.diag([1.0, 2.0]), 0.0),
                                   np.diag([1.0, 0.5]))

    def test_multiply_back(self):
        H = random_accretive(30, 0)
        z = -2.0 + 1.5j
        R = resolvent(H, z)
        np.testing.assert_allclose((H - z * np.eye(30)) @ R, np.eye(30),
                                   atol=1e-11)

    def test_singular_shift_reported(self):
        with pytest.raises(ResolventError):
            resolvent(np.diag([1.0, 2.0]), 1.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("H", [np.array([[np.inf]]),
                                   np.array([[1.0, np.nan], [0.0, 2.0]])])
    def test_non_finite_result_reported(self, H):
        # a NaN residual compared false against the tolerance, so [[inf]]
        # came back as [[0]] and a NaN entry as a NaN resolvent
        with pytest.raises(ResolventError):
            resolvent(H, 0.0)

    def test_unrepresentable_resolvent_reported(self):
        # at z = -1e300 the condition estimate ||H - z||_F ||R||_F reads
        # inf * 0 = nan, and max(1, nan) = 1 used to pass the residual
        with pytest.raises(ResolventError, match="residual"):
            resolvent(np.array([[2.0, -1.0], [-1.0, 2.0]]), -1e300)

    def test_first_resolvent_identity(self):
        H = random_accretive(25, 3)
        for z1, z2 in [(-1.0, -3.0 + 1j), (2j, -0.5 - 2j)]:
            R1, R2 = resolvent(H, z1), resolvent(H, z2)
            lhs = R1 - R2
            rhs = (z1 - z2) * R1 @ R2
            assert (np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs)) < 1e-9


class TestBandedResolvent:
    @staticmethod
    def sawtooth():
        from sqrtdom.assembly import BoundaryCondition, IntervalSpec
        from sqrtdom.problems import make_problem
        return make_problem("sawtooth", IntervalSpec(
            "half_line", truncation_radius=10.0), n=150,
            bc_left=BoundaryCondition.neumann()).H

    @staticmethod
    def pentadiagonal(n=40, seed=6):
        rng = np.random.default_rng(seed)
        H = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return np.triu(np.tril(H, 2), -2)

    @pytest.mark.parametrize("name", ["sawtooth", "pentadiagonal", "dense"])
    def test_matches_dense_inverse(self, name):
        H = {"sawtooth": self.sawtooth, "pentadiagonal": self.pentadiagonal,
             "dense": lambda: random_accretive(6, 9)}[name]()
        z = -2.0 + 0.5j
        expected = np.linalg.inv(H - z * np.eye(H.shape[0]))
        R = resolvent(H, z)
        assert (np.linalg.norm(R - expected)
                <= 1e-13 * np.linalg.norm(expected))

    @pytest.mark.parametrize("l,u", [(0, 0), (1, 0), (0, 1), (1, 1), (2, 2),
                                     (5, 5)])
    def test_band_product_matches_dense(self, l, u):
        # the residual product, one slice per diagonal, from band storage;
        # a transposed operand gives the product's transpose in its layout
        rng = np.random.default_rng(l + 3 * u)
        n = 6
        H = np.triu(np.tril(rng.standard_normal((n, n))
                            + 1j * rng.standard_normal((n, n)), u), -l)
        X = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
        ab = matfun._band_storage(H, l, u)
        for operand in (X, np.asfortranarray(X)):
            got = matfun._band_matmul(ab, l, u, operand)
            np.testing.assert_allclose(got, H @ X, rtol=0,
                                       atol=1e-14 * np.abs(H @ X).max())
        R = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if (l, u) == (1, 1):  # (lo, d, up), and R H as (H^T R^T)^T
            band = matfun._diagonals(H)
            got = matfun._band_matmul(band[::-1], 1, 1, R.T).T
            assert got.flags.c_contiguous
            np.testing.assert_allclose(got, R @ H, rtol=0,
                                       atol=1e-14 * np.abs(R @ H).max())

    def test_singular_diagonal_lies_in_spectrum(self):
        with pytest.raises(ResolventError, match="lies in the spectrum"):
            resolvent(np.diag([1.0, 0.0, 2.0]), 0.0)
        with pytest.raises(ResolventError, match="lies in the spectrum"):
            resolvent(np.array([[3.0 + 1.0j]]), 3.0 + 1.0j)

    def test_needs_no_dense_solve(self, monkeypatch):
        # the operators are tridiagonal, so no dense LU or inverse is taken
        H = self.sawtooth()
        expected = np.linalg.inv(H + 4.0 * np.eye(H.shape[0]))

        def dense(*args, **kwargs):
            raise AssertionError("dense solve")

        monkeypatch.setattr(np.linalg, "solve", dense)
        monkeypatch.setattr(np.linalg, "inv", dense)
        R = resolvent(H, -4.0)
        assert (np.linalg.norm(R - expected)
                <= 1e-13 * np.linalg.norm(expected))


BAND_INTERVALS = {"finite": None,
                  "half_line": ("half_line", 10.0),
                  "full_line": ("full_line", 10.0)}
BAND_ENDS = {"dirichlet": ("dirichlet", "dirichlet"),
             "neumann": ("neumann", "dirichlet"),
             "robin_neumann": ("1+0.5i", "neumann")}


def band_problem(family, interval, ends, n=32):
    spec = BAND_INTERVALS[interval]
    left, right = BAND_ENDS[ends]
    return make_problem(family, spec and IntervalSpec(
        spec[0], truncation_radius=spec[1]), n=n, bc_left=parse_theta(left),
                        bc_right=parse_theta(right))


class TestBandInput:
    """An operator given as its diagonals ``(lo, d, up)`` reaches the same
    band storage, and so the same LAPACK calls, as its dense matrix."""

    @pytest.mark.parametrize("ends", sorted(BAND_ENDS))
    @pytest.mark.parametrize("interval", sorted(BAND_INTERVALS))
    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_matches_dense_input_bit_for_bit(self, family, interval, ends):
        prob = band_problem(family, interval, ends)
        for band, dense in ((prob.diagonals(), prob.H),
                            (prob.base_diagonals(), prob.base_operator()),
                            (prob.reference_diagonals(),
                             prob.reference_operator())):
            E = safe_shift(band)
            assert E == safe_shift(dense)
            for z in (-E, -2 * E + 3j * E):
                got, want = resolvent(band, z), resolvent(dense, z)
                assert got.tobytes() == want.tobytes()
        assert (check_m_accretive(prob.diagonals(), [E, 1 + 2j * E])
                == check_m_accretive(prob.H, [E, 1 + 2j * E]))

    def test_one_unknown_matches_dense_input(self):
        prob = make_problem("complex_constant", n=2)
        assert prob.H.shape == (1, 1)
        got, want = resolvent(prob.diagonals(), -3.0), resolvent(prob.H, -3.0)
        assert got.tobytes() == want.tobytes()
        assert safe_shift(prob.diagonals()) == safe_shift(prob.H)

    def test_diagonals_take_no_pattern_scan(self, monkeypatch):
        def no_scan(H):
            raise AssertionError("nonzero pattern read")

        monkeypatch.setattr(matfun, "_bandwidths", no_scan)
        prob = band_problem("sawtooth", "half_line", "neumann")
        band = prob.diagonals()
        assert np.all(np.isfinite(resolvent(band, -safe_shift(band))))


class TestSqrtDb:
    def test_scalar_four(self):
        np.testing.assert_allclose(sqrt_db(np.array([[4.0]])), [[2.0]])

    def test_identity(self):
        np.testing.assert_allclose(sqrt_db(np.eye(5)), np.eye(5), atol=1e-14)

    def test_hermitian_pd_against_eigendecomposition(self):
        rng = np.random.default_rng(2)
        B = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
        A = B @ B.conj().T + np.eye(20)
        Y = sqrt_db(A)
        assert np.linalg.norm(Y @ Y - A) <= 1e-10 * np.linalg.norm(A)
        evals, evecs = np.linalg.eigh(A)
        Yref = (evecs * np.sqrt(evals)[None, :]) @ evecs.conj().T
        np.testing.assert_allclose(Y, Yref, atol=1e-9 * np.linalg.norm(A))

    def test_idempotent_on_right_halfplane_squares(self):
        Y = random_accretive(15, 4, shift=0.5)
        np.testing.assert_allclose(sqrt_db(Y @ Y), Y,
                                   atol=1e-9 * np.linalg.norm(Y))

    def test_rejects_spectrum_on_cut(self):
        with pytest.raises(SpectrumOnCutError):
            sqrt_db(np.diag([1.0, -3.0]))
        with pytest.raises(SpectrumOnCutError):
            sqrt_db(np.diag([1.0, 0.0]))


class TestNonFiniteGuards:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_root_rejected(self):
        # a NaN residual compared false against the tolerance, so the root
        # came back with a NaN entry
        with pytest.raises(SpectrumOnCutError):
            _principal_sqrt(np.array([[4.0, np.nan], [0.0, 9.0]]))

    @pytest.mark.parametrize("ev", [np.nan, complex(1.0, np.nan)])
    def test_nan_eigenvalue_on_cut(self, ev):
        # NaN compared false against the cut's bounds and passed
        with pytest.raises(SpectrumOnCutError):
            _require_off_cut(np.array([ev, 1.0]))


class TestFracPowerQuad:
    def test_scalar_square_root(self):
        got = frac_power_quad(np.array([[4.0 + 0j]]), 0.5)
        np.testing.assert_allclose(got, [[2.0]], rtol=1e-12)

    def test_scalar_cube_root(self):
        got = frac_power_quad(np.array([[8.0 + 0j]]), 1.0 / 3.0)
        np.testing.assert_allclose(got, [[2.0]], rtol=1e-6)

    def test_half_power_matches_iteration_oracle(self):
        H = random_accretive(50, 7)
        quad = QuadratureSpec(panel_nodes=25, panels=8)
        assert quad.n_nodes * 2 == 400
        P = frac_power_quad(H, 0.5, quad)
        Y = sqrt_db(H)
        assert np.linalg.norm(P - Y) / np.linalg.norm(Y) <= 1e-6

    def test_node_doubling_convergence(self):
        # coarse rules expose the asymptotic regime; each doubling gains >= 4x
        H = random_accretive(12, 9)
        Y = sqrt_db(H)
        errs = []
        for nodes in (4, 8, 16):
            P = frac_power_quad(H, 0.5, QuadratureSpec(panel_nodes=nodes,
                                                       panels=4))
            errs.append(np.linalg.norm(P - Y) / np.linalg.norm(Y))
        assert errs[0] / errs[1] >= 4.0
        assert errs[1] / errs[2] >= 4.0

    def test_alpha_range_validated(self):
        with pytest.raises(ValueError):
            frac_power_quad(np.eye(2), 1.5)


class TestGaussPanels:
    def test_rule_computed_once_per_node_count(self, monkeypatch):
        calls = []

        def counted(n):
            calls.append(n)
            return leggauss(n)

        monkeypatch.setattr(matfun, "leggauss", counted)
        matfun._legendre_rule.cache_clear()
        edges = np.array([0.0, 0.25, 1.0])
        first = matfun.gauss_panels(edges, 13)
        for _ in range(3):
            again = matfun.gauss_panels(edges, 13)
            for a, b in zip(first, again):
                assert a.tobytes() == b.tobytes()
        matfun.gauss_panels(edges, 14)
        assert calls == [13, 14]

    def test_panels_unchanged_and_rule_read_only(self):
        # the shared rule cannot be written through, and composing it gives
        # the bytes of a freshly computed rule
        x, w = matfun._legendre_rule(25)
        assert not x.flags.writeable and not w.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 0.0
        edges = 3.0 * QuadratureSpec().unit_edges()
        xf, wf = leggauss(25)
        want = (np.concatenate([0.5 * (hi - lo) * xf + 0.5 * (hi + lo)
                                for lo, hi in zip(edges[:-1], edges[1:])]),
                np.concatenate([0.5 * (hi - lo) * wf
                                for lo, hi in zip(edges[:-1], edges[1:])]))
        for got, ref in zip(matfun.gauss_panels(edges, 25), want):
            assert got.tobytes() == ref.tobytes()


class TestPowerLaws:
    def test_diagonal_residuals_at_roundoff(self):
        # the scalar identities are exact; a fine rule drives the residual
        # down to quadrature roundoff
        H = np.diag([1.0 + 0j, 3.0, 7.0])
        adj, semi = check_power_laws(H, 0.25, 0.25,
                                     QuadratureSpec(panels=24))
        assert adj < 1e-12
        assert semi < 1e-9

    def test_quarter_powers_compose(self):
        H = random_accretive(40, 11)
        quad = QuadratureSpec(panel_nodes=25, panels=16)
        adj, semi = check_power_laws(H, 0.25, 0.25, quad)
        assert semi <= 1e-5
        assert adj <= 1e-8

    def test_hermitian_adjoint_residual(self):
        rng = np.random.default_rng(13)
        B = rng.standard_normal((12, 12))
        H = (B @ B.T + np.eye(12)).astype(complex)
        adj, _ = check_power_laws(H, 0.3, 0.3)
        assert adj < 1e-11


class TestTraceDetCheck:
    def test_equal_operators_zero(self):
        A = random_accretive(8, 17)
        assert trace_det_check(A, A, -1.0, h=1e-5) < 1e-10

    def test_diagonal_rank_one_closed_form(self):
        # both sides equal 1/(1.1 - z) - 1/(1 - z) for this commuting pair
        A0 = np.diag([1.0 + 0j, 2.0])
        A = A0 + 0.1 * np.outer([1.0, 0.0], [1.0, 0.0])
        z = -1.0
        residual = trace_det_check(A, A0, z, h=1e-5)
        assert residual <= 1e-6
        lhs = 1 / (1.1 - z) - 1 / (1 - z)
        rhs = np.trace(resolvent(A, z) - resolvent(A0, z))
        assert abs(lhs - rhs) < 1e-13

    def test_richardson_second_order(self):
        rng = np.random.default_rng(23)
        A0 = random_accretive(6, 29, shift=2.0)
        A = A0 + 0.05 * (rng.standard_normal((6, 6))
                         + 1j * rng.standard_normal((6, 6)))
        z = -2.5
        r1 = trace_det_check(A, A0, z, h=2e-3)
        r2 = trace_det_check(A, A0, z, h=1e-3)
        assert r1 / r2 == pytest.approx(4.0, rel=0.25)


class TestSpectralNorm:
    def test_matches_svd(self):
        rng = np.random.default_rng(31)
        A = rng.standard_normal((17, 9)) + 1j * rng.standard_normal((17, 9))
        assert spectral_norm(A) == pytest.approx(np.linalg.norm(A, 2), rel=1e-8)

    def test_zero(self):
        assert spectral_norm(np.zeros((4, 4))) == 0.0

    def test_blocked_iteration_keeps_the_one_matrix_rule(self):
        # early stop, the 50-step cap (clustered top singular values) and
        # an exact zero, all in one block, against the rule written out for
        # one matrix: seed-7 complex Gaussian start, 1e-10 relative stop
        def reference(M):
            rng = np.random.default_rng(7)
            x = rng.standard_normal(9) + 1j * rng.standard_normal(9)
            x /= np.linalg.norm(x)
            prev = 0.0
            for _ in range(50):
                x = M.conj().T @ (M @ x)
                nrm = np.linalg.norm(x)
                if nrm == 0.0:
                    return 0.0
                x /= nrm
                est = np.sqrt(nrm)
                if abs(est - prev) <= 1e-10 * est:
                    return est
                prev = est
            return prev

        rng = np.random.default_rng(32)
        Q1 = np.linalg.qr(rng.standard_normal((9, 9))
                          + 1j * rng.standard_normal((9, 9)))[0]
        Q2 = np.linalg.qr(rng.standard_normal((9, 9))
                          + 1j * rng.standard_normal((9, 9)))[0]
        mats = [Q1 @ np.diag(np.linspace(3.0, 0.1, 9)) @ Q2,
                Q1 @ np.diag(np.linspace(1.0, 0.99, 9)) @ Q2,
                np.zeros((9, 9), dtype=complex)]

        def gram(X, idx):
            Y = np.stack([mats[i].conj().T @ (mats[i] @ x)
                          for i, x in zip(idx, X)])
            return Y, np.linalg.norm(Y, axis=1)

        got = power_norms(gram, np.tile(power_start(9), (3, 1)))
        want = [reference(M) for M in mats]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose([spectral_norm(M) for M in mats], want,
                                   rtol=1e-12, atol=0.0)
        assert got[2] == 0.0
        # the capped estimate is an inner approximation
        assert got[1] < np.linalg.norm(mats[1], 2)


class TestIsHermitian:
    @pytest.mark.parametrize("defect", [0.0, 1e-14, 1e-11, 1.0])
    @pytest.mark.parametrize("where", ["diagonal", "lower", "upper"])
    def test_band_test_agrees_with_dense(self, defect, where):
        # a complex Hermitian tridiagonal matrix with one entry moved off
        # Hermitian by ``defect``: its diagonals must get the dense verdict
        rng = np.random.default_rng(11)
        n = 40
        lo = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
        bands = {"lower": lo, "diagonal": rng.standard_normal(n) + 0j,
                 "upper": lo.conj()}
        bands[where][3] += 1j * defect
        lo, d, up = bands["lower"], bands["diagonal"], bands["upper"]
        H = np.diag(d) + np.diag(lo, -1) + np.diag(up, 1)
        assert is_hermitian((lo, d, up)) == is_hermitian(H)
        assert is_hermitian(H) == (defect < 1e-12)
