import itertools
import tracemalloc

import numpy as np
import pytest

from csv_tables import read_matrix, write_coefficient
from sqrtdom.assembly import (BoundaryCondition, CoefficientSet, IntervalSpec,
                              _dense, assemble_forms, build_mesh,
                              orthonormalize, w12_norm_matrix)
from sqrtdom import assembly, csvio, problems
from sqrtdom.matfun import _diagonals
from sqrtdom.problems import FAMILY_NAMES, _spike, make_problem

DIR = BoundaryCondition.dirichlet()
NEU = BoundaryCondition.neumann()


def coeffs_for(mesh, **kw):
    return CoefficientSet.from_callables(mesh, **kw)


def scatter_assembly(mesh, coeffs, bc_left, bc_right):
    """The forms as 20 ``np.add.at`` scatters, four per form matrix, and the
    operator matrix scaled by hand: the construction the one cell sum must
    reproduce bit for bit.  Returns ``(dict of matrices, keep, weights)``."""
    n, h = mesh.n_cells, mesh.h
    N = n + 1
    p, q, r, s = coeffs.p, coeffs.q, coeffs.r, coeffs.s
    M, K0, K1, K2, K3 = (np.zeros((N, N), dtype=complex) for _ in range(5))
    left, right = np.arange(n), np.arange(n) + 1
    for ii, jj, w in ((left, left, h / 3), (right, right, h / 3),
                      (left, right, h / 6), (right, left, h / 6)):
        np.add.at(M, (ii, jj), np.full(n, w, dtype=complex))
    for ii, jj, sign in ((left, left, 1), (right, right, 1),
                         (left, right, -1), (right, left, -1)):
        np.add.at(K0, (ii, jj), sign * p / h)
    for ii, jj, sign in ((left, left, -1), (left, right, 1),
                         (right, left, -1), (right, right, 1)):
        np.add.at(K1, (ii, jj), sign * r / 2)
    for ii, jj, sign in ((left, left, -1), (right, left, 1),
                         (left, right, -1), (right, right, 1)):
        np.add.at(K2, (ii, jj), sign * s / 2)
    np.add.at(K3, (left, left), q * h / 2)
    np.add.at(K3, (right, right), q * h / 2)
    # accumulated from zero like the scatters: a Neumann end's -cot = -0
    # leaves a positive zero
    Bdry = np.zeros((N, N), dtype=complex)
    if not bc_left.is_dirichlet:
        Bdry[0, 0] += -bc_left.cot()
    if not bc_right.is_dirichlet:
        Bdry[-1, -1] += -bc_right.cot()
    keep = np.arange(int(bc_left.is_dirichlet),
                     N - int(bc_right.is_dirichlet))
    weights = np.full(N, h)
    weights[[0, -1]] = h / 2
    sub = np.ix_(keep, keep)
    mats = {name: mat[sub] for name, mat in
            zip(("M", "K0", "K1", "K2", "K3", "Bdry"),
                (M, K0, K1, K2, K3, Bdry))}
    winv = 1.0 / np.sqrt(weights[keep])
    total = (mats["K0"] + mats["K1"] + mats["K2"] + mats["K3"]
             + mats["Bdry"])
    mats["H"] = winv[:, None] * total * winv[None, :]
    return mats, keep, weights[keep]


def scatter_reference(mesh, bc_left, bc_right):
    """The reference operator as it was built: a second scatter assembly
    with p = 1 and non-Dirichlet ends made Neumann, its real part."""
    ends = [bc if bc.is_dirichlet else NEU for bc in (bc_left, bc_right)]
    mats, _, _ = scatter_assembly(mesh, coeffs_for(mesh, p=1.0), *ends)
    return np.ascontiguousarray(mats["H"].real)


def scatter_w12(mesh, bc_left, bc_right, E):
    """``w12_norm_matrix`` as it was built, from a scatter assembly."""
    mats, _, weights = scatter_assembly(mesh, coeffs_for(mesh, p=1.0),
                                        bc_left, bc_right)
    return mats["K0"] + E * np.diag(weights).astype(complex)


def assert_bitwise(got, want, *where):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape, where
    assert got.tobytes() == want.tobytes(), where


# the families x intervals x left ends of the bit-for-bit pins
PIN_INTERVALS = pytest.mark.parametrize("interval", [
    IntervalSpec(), IntervalSpec("half_line", truncation_radius=10.0),
    IntervalSpec("full_line", truncation_radius=10.0)],
    ids=["finite", "half_line", "full_line"])
PIN_LEFT = pytest.mark.parametrize(
    "bc_left", [DIR, NEU, BoundaryCondition(1 + 0.5j)],
    ids=["dirichlet", "neumann", "robin"])
PIN_FAMILY = pytest.mark.parametrize("family", FAMILY_NAMES)


class TestBuildMesh:
    def test_finite_unit_interval(self):
        mesh = build_mesh(IntervalSpec("finite", 0.0, 1.0), 4)
        np.testing.assert_allclose(mesh.nodes, [0, 0.25, 0.5, 0.75, 1.0])
        assert mesh.h == 0.25

    def test_half_line_truncation(self):
        mesh = build_mesh(IntervalSpec("half_line", a=0.0, truncation_radius=10.0), 100)
        assert mesh.nodes[0] == 0.0 and mesh.nodes[-1] == 10.0
        assert mesh.h == pytest.approx(0.1)

    def test_full_line_truncation(self):
        mesh = build_mesh(IntervalSpec("full_line", truncation_radius=5.0), 10)
        assert mesh.nodes[0] == -5.0 and mesh.nodes[-1] == 5.0
        assert mesh.h == pytest.approx(1.0)

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            build_mesh(IntervalSpec(), 1)

    def test_rejects_degenerate_interval(self):
        with pytest.raises(ValueError):
            IntervalSpec("finite", 1.0, 1.0)


class TestAssembleForms:
    def test_hand_assembled_interior_hat(self):
        # one interior hat on (0,1) with h = 1/2: stiffness 2/h per side
        mesh = build_mesh(IntervalSpec(), 2)
        forms = assemble_forms(mesh, coeffs_for(mesh), DIR, DIR)
        np.testing.assert_allclose(_dense(forms.K0), [[4.0]])
        np.testing.assert_allclose(forms.lumped_weights, [0.5])

    def test_constant_potential_is_lumped_mass_multiple(self):
        mesh = build_mesh(IntervalSpec(), 16)
        c = 2.5 - 0.75j
        forms = assemble_forms(mesh, coeffs_for(mesh, q=c), NEU, NEU)
        np.testing.assert_allclose(_dense(forms.K3),
                                   c * np.diag(forms.lumped_weights),
                                   atol=1e-15)

    def test_neumann_boundary_term_vanishes(self):
        mesh = build_mesh(IntervalSpec(), 8)
        forms = assemble_forms(mesh, coeffs_for(mesh), NEU, NEU)
        assert np.all(_dense(forms.Bdry) == 0)

    @pytest.mark.parametrize("theta", [0.3 + 0.2j, 1 - 0.5j, 0.05 + 0.01j,
                                       np.pi / 4, 3.0 + 20j])
    def test_robin_boundary_rank_and_placement(self, theta):
        mesh = build_mesh(IntervalSpec(), 8)
        th = BoundaryCondition(theta)
        forms = assemble_forms(mesh, coeffs_for(mesh), th, NEU)
        Bdry = _dense(forms.Bdry)
        assert np.linalg.matrix_rank(Bdry) == 1
        assert Bdry[0, 0] == pytest.approx(
            -np.cos(theta) / np.sin(theta), rel=1e-13)

    def test_dirichlet_pole_never_evaluated(self):
        with pytest.raises(ZeroDivisionError):
            DIR.cot()

    @pytest.mark.parametrize("theta, cot", [(1 + 800j, -1j), (1 - 800j, 1j),
                                            (2.5 + 3e5j, -1j)])
    def test_cot_far_from_the_real_axis(self, theta, cot):
        # cot(theta) is -i (+i below the axis) to within e^(-2 |Im theta|);
        # cos / sin overflowed to nan past |Im theta| ~ 710
        assert BoundaryCondition(theta).cot() == cot

    @pytest.mark.parametrize("theta", [0.7, np.pi / 4, 2.5])
    def test_real_theta_has_real_cot(self, theta):
        # the exponential form left an imaginary part of about 6e-17, so a
        # real Robin end gave a real operator a complex one
        cot = BoundaryCondition(theta).cot()
        assert cot.imag == 0.0
        assert cot.real == assembly._stable_cot(complex(theta)).real
        H = make_problem("free", n=64, bc_left=BoundaryCondition(theta)).H
        assert not np.any(H.imag)
        assert BoundaryCondition(theta + 0.1j).cot().imag != 0.0

    def test_form_consistency_against_fine_quadrature(self):
        # assembled bilinear value vs midpoint-rule integral of interpolants
        rng = np.random.default_rng(5)
        mesh = build_mesh(IntervalSpec(), 64)
        coeffs = coeffs_for(
            mesh, p=lambda x: 1 + 0.5 * np.sin(3 * x) + 0.2j * np.cos(x),
            q=lambda x: np.cos(5 * x) + 1j * x, r=lambda x: np.sin(2 * x),
            s=lambda x: 0.3 - 0.1j * x)
        forms = assemble_forms(mesh, coeffs, NEU, NEU)
        f = rng.standard_normal(forms.n_dof) + 1j * rng.standard_normal(forms.n_dof)
        g = rng.standard_normal(forms.n_dof) + 1j * rng.standard_normal(forms.n_dof)

        mid = mesh.midpoints
        h = mesh.h
        fm, gm = 0.5 * (f[:-1] + f[1:]), 0.5 * (g[:-1] + g[1:])
        fd, gd = np.diff(f) / h, np.diff(g) / h
        integral = h * np.sum(
            np.conj(gd) * coeffs.p * fd + np.conj(gm) * coeffs.r * fd
            + np.conj(gd) * coeffs.s * fm + np.conj(gm) * coeffs.q * fm)
        assembled = np.vdot(g, _dense(forms.total()) @ f)
        # identical midpoint data except the lumped potential: O(h) agreement
        assert abs(assembled - integral) <= 10 * mesh.h * abs(integral)

    def test_misaligned_coefficients_rejected(self):
        mesh = build_mesh(IntervalSpec(), 8)
        other = build_mesh(IntervalSpec(), 16)
        with pytest.raises(ValueError):
            assemble_forms(mesh, coeffs_for(other), DIR, DIR)


class TestCellSum:
    @PIN_LEFT
    @PIN_INTERVALS
    @PIN_FAMILY
    def test_forms_equal_scatter_assembly_bitwise(self, family, interval,
                                                  bc_left):
        # each form matrix is one cell sum; the 20 scatters it replaced
        # must give the same bits, signed zeros included
        for bc_right in (DIR, NEU):
            for n in (2, 37):
                prob = make_problem(family, interval, n, bc_left, bc_right)
                want, keep, weights = scatter_assembly(
                    prob.mesh, prob.coeffs, bc_left, bc_right)
                where = (bc_right, n)
                for name in ("M", "K0", "K1", "K2", "K3", "Bdry"):
                    assert_bitwise(_dense(getattr(prob.forms, name)),
                                   want[name], name, *where)
                assert_bitwise(prob.H, want["H"], "H", *where)
                assert_bitwise(prob.forms.dof_nodes, keep, *where)
                assert_bitwise(prob.forms.lumped_weights, weights, *where)


class TestBandStorage:
    def test_problem_keeps_one_dense_matrix(self):
        # the six forms stay diagonals and H, formed on its first read,
        # is the one dense matrix a problem keeps; held densely, they
        # retained 7 and peaked at 12 dense matrices here
        n = 512
        dense = 16 * n * n
        tracemalloc.start()
        try:
            prob = make_problem("sawtooth", n=n, bc_left=NEU)
            prob.H
            prob.base_operator()
            prob.reference_operator()
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained <= 1.5 * dense
        assert peak <= 4 * dense
        for name in ("M", "K0", "K1", "K2", "K3", "Bdry"):
            assert sum(x.size for x in getattr(prob.forms, name)) \
                <= 3 * prob.forms.n_dof


class TestProblemDiagonals:
    @PIN_INTERVALS
    @PIN_FAMILY
    def test_equal_the_dense_diagonals_bitwise(self, family, interval):
        # the operator and its reference are the scaled form diagonals,
        # with no dense matrix formed, and equal the diagonals of the dense
        # H and reference_operator() bit for bit, at every pair of ends
        ends = (DIR, NEU, BoundaryCondition(1 + 0.5j))
        for bc_left, bc_right in itertools.product(ends, ends):
            prob = make_problem(family, interval, 16, bc_left, bc_right)
            got, ref = prob.diagonals(), prob.reference_diagonals()
            assert "H" not in vars(prob)
            for k, (g, want) in enumerate(zip(got, _diagonals(prob.H))):
                assert_bitwise(g, want, bc_left, bc_right, "H", k)
            for k, (g, want) in enumerate(zip(
                    ref, _diagonals(prob.reference_operator()))):
                assert_bitwise(g, want, bc_left, bc_right, "reference", k)

    def test_dense_operator_formed_on_first_read_and_kept(self):
        prob = make_problem("sawtooth", n=16, bc_left=NEU)
        assert "H" not in vars(prob)
        H = prob.H
        assert prob.H is H
        assert_bitwise(H, orthonormalize(prob.forms))


class TestOrthonormalize:
    def test_dirichlet_laplacian_eigenvalues(self):
        # classical tridiagonal spectrum (4/h^2) sin^2(k h / 2) on (0, pi)
        n = 24
        mesh = build_mesh(IntervalSpec("finite", 0.0, np.pi), n)
        H = orthonormalize(assemble_forms(mesh, coeffs_for(mesh), DIR, DIR))
        got = np.sort(np.linalg.eigvalsh(H.real))
        h = mesh.h
        expected = np.sort(4 / h**2 * np.sin(np.arange(1, n) * h / 2) ** 2)
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_real_coefficients_give_hermitian(self):
        mesh = build_mesh(IntervalSpec(), 12)
        th = BoundaryCondition(0.7)
        forms = assemble_forms(mesh, coeffs_for(mesh, p=2.0), th, NEU)
        H = orthonormalize(forms)
        np.testing.assert_allclose(H, H.conj().T, atol=1e-14)

    def test_complex_diffusion_sector(self):
        # constant p: numerical range slope is exactly Im(p)/Re(p) <= max|p|/lam
        mesh = build_mesh(IntervalSpec(), 32)
        coeffs = coeffs_for(mesh, p=1 + 0.5j)
        H = orthonormalize(assemble_forms(mesh, coeffs, DIR, DIR))
        bound = np.abs(coeffs.p).max() / coeffs.lam
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.standard_normal(H.shape[0]) + 1j * rng.standard_normal(H.shape[0])
            val = np.vdot(v, H @ v)
            assert abs(val.imag) <= bound * val.real + 1e-12

    def test_adjoint_symmetry(self):
        # conjugating p, q and swapping conjugated r and s gives the adjoint
        mesh = build_mesh(IntervalSpec(), 20)
        th = 0.4 + 0.3j
        coeffs = coeffs_for(mesh, p=1 + 0.5j, q=lambda x: x + 1j,
                            r=lambda x: np.sin(x) + 2j, s=0.7 - 0.2j)
        adjoint = CoefficientSet(p=coeffs.p.conj(), q=coeffs.q.conj(),
                                 r=coeffs.s.conj(), s=coeffs.r.conj())
        H = orthonormalize(assemble_forms(
            mesh, coeffs, BoundaryCondition(th), DIR))
        Hadj = orthonormalize(assemble_forms(
            mesh, adjoint, BoundaryCondition(np.conj(th)), DIR))
        np.testing.assert_allclose(Hadj, H.conj().T, atol=1e-13)

    def test_hermitian_reduction_s_equals_r(self):
        # real p, q with s = r (real) makes the convection pair symmetric
        mesh = build_mesh(IntervalSpec(), 20)
        r = lambda x: np.cos(2 * x)
        coeffs = coeffs_for(mesh, p=1.5, q=lambda x: x, r=r, s=r)
        H = orthonormalize(assemble_forms(mesh, coeffs, NEU, DIR))
        np.testing.assert_allclose(H, H.conj().T, atol=1e-13)

    def test_dirichlet_monotonicity(self):
        # removing a boundary DOF can only raise the real-part lower bound
        mesh = build_mesh(IntervalSpec(), 16)
        coeffs = coeffs_for(mesh, p=1 + 0.3j, q=lambda x: np.sin(7 * x))
        H_neu = orthonormalize(assemble_forms(mesh, coeffs, NEU, NEU))
        H_dir = orthonormalize(assemble_forms(mesh, coeffs, DIR, NEU))
        lo = lambda A: np.linalg.eigvalsh(0.5 * (A + A.conj().T))[0]
        assert lo(H_dir) >= lo(H_neu) - 1e-12


class TestBaseOperator:
    INTERVALS = (IntervalSpec("finite", 0.0, 1.0),
                 IntervalSpec("half_line", a=0.0, truncation_radius=4.0),
                 IntervalSpec("full_line", truncation_radius=3.0))
    LEFT = (DIR, NEU, BoundaryCondition(0.7), BoundaryCondition(1 + 0.5j))
    RIGHT = (DIR, NEU, BoundaryCondition(0.4 - 0.2j))

    def test_equals_zero_coefficient_assembly_bitwise(self):
        # the base operator is read off the problem's own forms; it used to
        # be assembled a second time with q, r and s zeroed
        for family in FAMILY_NAMES:
            for interval in self.INTERVALS:
                for bl in self.LEFT:
                    for br in self.RIGHT:
                        for n in (2, 3, 17, 64):
                            prob = make_problem(family, interval, n, bl, br)
                            c = prob.coeffs
                            zero = np.zeros_like(c.q)
                            base = CoefficientSet(p=c.p, q=zero, r=zero,
                                                  s=zero)
                            H0 = orthonormalize(assemble_forms(
                                prob.mesh, base, bl, br))
                            got = prob.base_operator()
                            assert got.dtype == H0.dtype
                            assert got.tobytes() == H0.tobytes(), (
                                family, interval.kind, bl, br, n)

    def test_assembles_nothing(self, monkeypatch):
        prob = make_problem("sawtooth", n=16, bc_left=NEU)
        calls = []
        monkeypatch.setattr(problems, "assemble_forms",
                            lambda *args: calls.append(args))
        prob.base_operator()
        assert not calls


class TestReferenceOperator:
    @pytest.mark.parametrize("bl", [DIR, NEU, BoundaryCondition(1 + 0.5j)],
                             ids=["dirichlet", "neumann", "robin"])
    def test_real_copy_of_the_complex_assembly(self, bl):
        # p = 1 with no lower-order terms and Dirichlet or Neumann ends has
        # an exactly real matrix; a Robin end is referred to Neumann
        prob = make_problem("sawtooth", n=48, bc_left=bl, bc_right=NEU)
        ref = prob.reference_operator()
        assert ref.dtype == np.float64 and ref.flags.c_contiguous
        ends = [bc if bc.is_dirichlet else NEU for bc in (bl, NEU)]
        H = orthonormalize(assemble_forms(
            prob.mesh, coeffs_for(prob.mesh, p=1.0), *ends))
        assert np.iscomplexobj(H) and not np.any(H.imag)
        assert np.array_equal(ref, H.real)


    @PIN_LEFT
    @PIN_INTERVALS
    @PIN_FAMILY
    def test_equals_neumannized_reassembly_bitwise(self, family, interval,
                                                   bc_left):
        # the reference is the unit stiffness on the retained nodes; it
        # used to be a second five-form assembly with p = 1
        for bc_right in (DIR, NEU, BoundaryCondition(0.4 - 0.2j)):
            for n in (2, 37):
                prob = make_problem(family, interval, n, bc_left, bc_right)
                got = prob.reference_operator()
                assert got.flags.c_contiguous
                assert_bitwise(got, scatter_reference(prob.mesh, bc_left,
                                                      bc_right), bc_right, n)

    def test_reference_and_w12_assemble_nothing(self, monkeypatch):
        prob = make_problem("sawtooth", n=16, bc_left=NEU)
        calls = []
        for module in (assembly, problems):
            monkeypatch.setattr(module, "assemble_forms",
                                lambda *args: calls.append(args))
        prob.reference_operator()
        w12_norm_matrix(prob.mesh, prob.bc_left, prob.bc_right, 4.0)
        assert not calls


class TestW12NormMatrix:
    @PIN_LEFT
    @PIN_INTERVALS
    def test_equals_reassembled_stiffness_bitwise(self, interval, bc_left):
        for bc_right in (DIR, NEU, BoundaryCondition(0.4 - 0.2j)):
            for n in (2, 37):
                mesh = build_mesh(interval, n)
                for E in (1e-3, 1.0, 25.0):
                    assert_bitwise(
                        w12_norm_matrix(mesh, bc_left, bc_right, E),
                        scatter_w12(mesh, bc_left, bc_right, E),
                        bc_right, n, E)

    def test_matches_unit_stiffness_plus_mass(self):
        mesh = build_mesh(IntervalSpec(), 8)
        forms = assemble_forms(mesh, coeffs_for(mesh), NEU, NEU)
        G1 = w12_norm_matrix(mesh, NEU, NEU, 1.0)
        np.testing.assert_allclose(
            G1, _dense(forms.K0) + np.diag(forms.lumped_weights), atol=1e-15)

    def test_constant_function_sees_only_mass(self):
        mesh = build_mesh(IntervalSpec(), 8)
        G1 = w12_norm_matrix(mesh, NEU, NEU, 1.0)
        ones = np.ones(9)
        assert np.vdot(ones, G1 @ ones).real == pytest.approx(1.0)

    def test_hat_function_energy(self):
        # same hand integration as the stiffness oracle: int |phi'|^2 = 4
        mesh = build_mesh(IntervalSpec(), 2)
        GE = w12_norm_matrix(mesh, DIR, DIR, 1e-12)
        assert np.vdot([1.0], GE @ [1.0]).real == pytest.approx(4.0, abs=1e-9)

    def test_rejects_nonpositive_E(self):
        mesh = build_mesh(IntervalSpec(), 4)
        with pytest.raises(ValueError):
            w12_norm_matrix(mesh, DIR, DIR, 0.0)


class TestCoefficientSet:
    def test_ellipticity_bounds_enforced(self):
        mesh = build_mesh(IntervalSpec(), 4)
        with pytest.raises(ValueError):
            CoefficientSet.from_callables(mesh, p=lambda x: -np.ones_like(x))

    def test_default_bounds_from_samples(self):
        mesh = build_mesh(IntervalSpec(), 4)
        coeffs = CoefficientSet.from_callables(mesh, p=2.0 + 1.0j)
        assert coeffs.lam == pytest.approx(2.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_samples_rejected(self, bad):
        mesh = build_mesh(IntervalSpec(), 4)
        q = np.zeros(4, dtype=complex)
        q[2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            CoefficientSet.from_callables(mesh, q=lambda x: q)

    def test_spike_family_capped_at_grid_scale(self):
        mesh = build_mesh(IntervalSpec(), 64)
        f = _spike(0.5, 0.5, (mesh.h / 2) ** -0.5, 1.0)
        vals = f(mesh.midpoints)
        assert np.all(np.isfinite(vals))
        assert np.max(np.abs(vals)) <= (mesh.h / 2) ** -0.5 + 1e-12


class TestCsvRoundtrip:
    def test_matrix(self, tmp_path):
        rng = np.random.default_rng(1)
        mat = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        path = tmp_path / "m.csv"
        csvio.write_matrix(path, mat)
        np.testing.assert_array_equal(read_matrix(path), mat)

    # signed zero, the smallest subnormal, a huge value, an integral value
    # and NaN, as the dumps spell them
    RE = np.array([[-0.0, 5e-324, 1e300], [2.0, np.nan, -2.5]])
    IM = np.array([[5e-324, -0.0, np.nan], [1e300, 2.0, -0.0]])
    TINY, HUGE = "4.9406564584124654e-324", "1.0000000000000001e+300"

    @staticmethod
    def cplx(re, im):
        z = np.empty(re.shape, dtype=complex)
        z.real, z.imag = re, im  # re + 1j * im would lose -0.0 and NaN parts
        return z

    def test_matrix_text(self, tmp_path):
        T, H = self.TINY, self.HUGE
        expected = {
            "complex": [f"0,0,-0,{T}", f"0,1,{T},-0", f"0,2,{H},nan",
                        f"1,0,2,{H}", "1,1,nan,2", "1,2,-2.5,-0"],
            "real": ["0,0,-0,0", f"0,1,{T},0", f"0,2,{H},0", "1,0,2,0",
                     "1,1,nan,0", "1,2,-2.5,0"],
        }
        for name, mat in (("complex", self.cplx(self.RE, self.IM)),
                          ("real", self.RE)):
            path = tmp_path / f"{name}.csv"
            csvio.write_matrix(path, mat)
            assert path.read_text(encoding="ascii").splitlines() == [
                "i,j,re,im", *expected[name]], name

    def test_kernel_text(self, tmp_path):
        T, H = self.TINY, self.HUGE
        grid = np.array([-0.0, 2.0])
        re = np.array([[-0.0, 5e-324], [1e300, np.nan]])
        im = np.array([[2.0, -0.0], [np.nan, 5e-324]])
        expected = {
            "complex": ["-0,-0,-0,2", f"-0,2,{T},-0", f"2,-0,{H},nan",
                        f"2,2,nan,{T}"],
            "real": ["-0,-0,-0,0", f"-0,2,{T},0", f"2,-0,{H},0",
                     "2,2,nan,0"],
        }
        for name, vals in (("complex", self.cplx(re, im)), ("real", re)):
            path = tmp_path / f"{name}.csv"
            csvio.write_kernel(path, grid, vals)
            assert path.read_text(encoding="ascii").splitlines() == [
                "x,xp,re,im", *expected[name]], name

    def test_coefficient(self, tmp_path):
        x = np.linspace(0, 1, 7)
        v = np.sin(x) + 1j * x
        path = tmp_path / "c.csv"
        write_coefficient(path, x, v)
        x2, v2 = csvio.read_coefficient(path)
        np.testing.assert_array_equal(x2, x)
        np.testing.assert_array_equal(v2, v)
