import numpy as np
import pytest

from sqrtdom.assembly import (BoundaryCondition, CoefficientSet, IntervalSpec,
                              _dense, assemble_forms, build_mesh,
                              orthonormalize)
from sqrtdom.problems import lions_operator, make_problem
from sqrtdom.sectorial import (check_m_accretive, numerical_range_hull,
                               safe_shift)


def hermitian_psd(n, seed, floor=0.0):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return B @ B.conj().T / n + floor * np.eye(n)


def exact_sector_angle(H):
    """Half-angle of the sector with vertex ``lambda_min(Re H) - 1`` that
    holds the numerical range of ``H``, by bisection to 1e-12: the smallest
    psi with ``lambda_max(Im(e^{-i psi} S)) <= 0`` and
    ``lambda_min(Im(e^{i psi} S)) >= 0`` for ``S = H - vertex``.  The
    bracket's upper end is returned, an outer estimate."""
    H = np.asarray(H, dtype=complex)
    gamma = np.linalg.eigvalsh(0.5 * (H + H.conj().T))[0] - 1.0
    S = H - gamma * np.eye(H.shape[0])

    def imag_part(M):
        return (M - M.conj().T) / 2j

    def inside(psi):
        return (np.linalg.eigvalsh(imag_part(np.exp(-1j * psi) * S))[-1] <= 0
                and np.linalg.eigvalsh(imag_part(np.exp(1j * psi) * S))[0]
                >= 0)

    lo, hi = 0.0, np.pi / 2
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if inside(mid) else (mid, hi)
    return hi


class TestNumericalRangeHull:
    def test_hermitian_psd_vertex_and_angle(self):
        H = hermitian_psd(12, 0, floor=0.3)
        rep = numerical_range_hull(H)
        assert rep.theta == pytest.approx(0.0, abs=1e-7)
        assert rep.gamma == pytest.approx(np.linalg.eigvalsh(H)[0], rel=1e-10)
        # a proper sector in the closed right half-plane
        assert rep.gamma >= 0 and rep.theta < np.pi / 2

    def test_rotated_psd_not_sectorial(self):
        H = 1j * hermitian_psd(10, 1, floor=0.1)
        rep = numerical_range_hull(H)
        # the range lies on the imaginary axis: the vertex retreats left of it
        assert rep.gamma < 0

    def test_sector_contains_every_sample(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((15, 15)) + 1j * rng.standard_normal((15, 15))
        H = A + 6 * np.eye(15)
        rep = numerical_range_hull(H)
        rel = rep.boundary.real - rep.gamma
        assert np.all(rel >= -1e-10 * np.abs(rep.boundary).max())
        inside = np.abs(rep.boundary.imag) <= np.tan(rep.theta) * rel + 1e-9
        assert np.all(inside | (rel <= 1e-12))

    def test_shift_covariance(self):
        H = hermitian_psd(9, 3) + 1j * np.diag(np.linspace(0, 0.5, 9))
        r0 = numerical_range_hull(H)
        r1 = numerical_range_hull(H + 2.5 * np.eye(9))
        assert r1.gamma == pytest.approx(r0.gamma + 2.5, abs=1e-9)
        assert r1.theta <= r0.theta + 1e-9

    def test_complex_diffusion_angle_bound(self):
        mesh = build_mesh(IntervalSpec(), 24)
        coeffs = CoefficientSet.from_callables(mesh, p=1 + 0.5j)
        H = orthonormalize(assemble_forms(
            mesh, coeffs, BoundaryCondition.dirichlet(),
            BoundaryCondition.dirichlet()))
        rep = numerical_range_hull(H)
        assert np.tan(rep.theta) <= np.abs(coeffs.p).max() / coeffs.lam + 1e-9


def hermitian_psd_band(n, seed):
    """The diagonals of a random diagonally dominant Hermitian tridiagonal
    matrix, so positive semidefinite, with complex off-diagonals."""
    rng = np.random.default_rng(seed)
    up = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
    d = np.r_[np.abs(up), 0.0] + np.r_[0.0, np.abs(up)]
    return up.conj(), d, up


class TestCheckMAccretive:
    def test_zero_matrix(self):
        ok, worst = check_m_accretive((np.zeros(3), np.zeros(4), np.zeros(3)),
                                      [1.0, 1 + 1j, 0.5 - 2j])
        assert ok and worst <= 1.0 + 1e-12

    def test_hermitian_psd_real_shifts(self):
        band = hermitian_psd_band(10, 5)
        ok, worst = check_m_accretive(band, [0.5, 1.0, 10.0])
        assert ok and worst <= 1.0 + 1e-10

    def test_lions_operator_accretive_but_not_sectorial(self):
        ok, worst = check_m_accretive(lions_operator(96),
                                      [0.5, 1.0, 4.0, 1 + 3j])
        assert ok
        # no n-uniform proper sector: the fitted angle creeps toward pi/2
        angles = [numerical_range_hull(_dense(lions_operator(n))).theta
                  for n in (16, 64, 256)]
        assert angles[0] < angles[1] < angles[2]
        assert angles[2] > 0.45 * np.pi

    def test_lions_exact_sector_angle_grows(self):
        # the fitted angles above differ only in the last ulps, all at the
        # 64-direction sweep's limit pi/2 - pi/64; the exact angle shows the
        # growth itself: tan theta reads 2.76, 5.63 and 11.30
        tans = [np.tan(exact_sector_angle(_dense(lions_operator(n))))
                for n in (16, 64, 256)]
        assert all(t2 >= 1.8 * t1 for t1, t2 in zip(tans, tans[1:]))
        # a sectorial control on the same ladder: with p = 1 + 0.5i the
        # exact tan theta stays uniform (4.919, 4.934 and 4.935)
        control = []
        for n in (16, 64, 256):
            mesh = build_mesh(IntervalSpec(), n)
            H = orthonormalize(assemble_forms(
                mesh, CoefficientSet.from_callables(mesh, p=1 + 0.5j),
                BoundaryCondition.dirichlet(), BoundaryCondition.dirichlet()))
            control.append(np.tan(exact_sector_angle(H)))
        assert max(control) <= 1.01 * min(control)

    def test_eigenvalue_just_left_of_axis_fails(self):
        # Re z = 0.5 against the eigenvalue -1e-4: the exact worst ratio is
        # 0.5 / 0.4999 = 1.0002.  The spectrum, c (2 - 2 cos(k pi / 201))
        # shifted to start at -1e-4, spans 1e-2 with its lowest modes 2e-6
        # apart, where 50 power-iteration steps read 0.997
        n, c = 200, 2.5e-3
        phase = np.exp(1j * np.linspace(0.0, 3.0, n - 1))
        bottom = c * (2.0 - 2.0 * np.cos(np.pi / (n + 1)))
        band = (-c * phase.conj(), np.full(n, 2.0 * c - bottom - 1e-4),
                -c * phase)
        ok, worst = check_m_accretive(band, (0.5, 1.0, 4.0, 1 + 2j))
        assert not ok
        assert worst == pytest.approx(0.5 / (0.5 - 1e-4), rel=1e-9)

    def test_rejects_left_halfplane_grid(self):
        with pytest.raises(ValueError):
            check_m_accretive((np.zeros(2), np.ones(3), np.zeros(2)), [-1.0])


class TestSafeShift:
    def test_accretive_input_needs_only_margin(self):
        assert safe_shift((np.zeros(2), np.ones(3), np.zeros(2))) == (
            pytest.approx(1.0))

    def test_shifted_operator_is_accretive(self):
        rng = np.random.default_rng(8)
        lo, d, up = (rng.standard_normal(m) for m in (11, 12, 11))
        band = (lo, d - 2.0, up)
        E = safe_shift(band)
        A = _dense(band)
        lowest = np.linalg.eigvalsh(0.5 * (A + A.conj().T))[0]
        assert lowest + E >= 1.0 - 1e-12


def sawtooth_operator():
    """The diagonals of the n = 150 sawtooth operator on the half-line with
    a Neumann end: tridiagonal and complex, as every operator the package
    assembles."""
    return make_problem("sawtooth", IntervalSpec("half_line",
                                                 truncation_radius=10.0),
                        n=150, bc_left=BoundaryCondition.neumann()).diagonals()


def eigvalsh_shift(band):
    """The margin rule of ``safe_shift`` on a dense eigendecomposition, the
    test-local reference."""
    H = _dense(band)
    lowest = np.linalg.eigvalsh(0.5 * (H + H.conj().T))[0]
    return max(0.0, -lowest) + 1.0


class TestBandedSafeShift:
    @pytest.mark.parametrize("name", ["tridiagonal", "random", "scalar"])
    def test_matches_dense_eigenvalue(self, name):
        rng = np.random.default_rng(4)
        band = {"tridiagonal": sawtooth_operator,
                "random": lambda: tuple(
                    rng.standard_normal(m) + 1j * rng.standard_normal(m)
                    - 3.0 * (m == 7) for m in (6, 7, 6)),
                "scalar": lambda: (np.zeros(0), np.array([-2.5 + 4.0j]),
                                   np.zeros(0))}[name]()
        assert safe_shift(band) == pytest.approx(eigvalsh_shift(band),
                                                 rel=1e-12)

    def test_needs_no_dense_eigendecomposition(self, monkeypatch):
        # the Hermitian part shares the band of H, so its lowest eigenvalue
        # comes from the banded solver, not from a dense one
        band = sawtooth_operator()
        expected = eigvalsh_shift(band)
        eigvalsh = np.linalg.eigvalsh

        def small_only(M, *args, **kwargs):
            if np.shape(M)[0] > 8:
                raise AssertionError("dense eigendecomposition")
            return eigvalsh(M, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", small_only)
        assert safe_shift(band) == pytest.approx(expected, rel=1e-12)
