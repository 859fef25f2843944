"""Property-based checks of structural invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from sqrtdom.assembly import (BoundaryCondition, CoefficientSet, IntervalSpec,
                              _dense, assemble_forms, build_mesh,
                              orthonormalize)
from sqrtdom.formbounds import check_form_bound, locunif_norms
from sqrtdom.matfun import resolvent, sqrt_db

NEU = BoundaryCondition.neumann()
DIR = BoundaryCondition.dirichlet()

finite_c = st.complex_numbers(min_magnitude=0.0, max_magnitude=5.0,
                              allow_nan=False, allow_infinity=False)
shifts = st.complex_numbers(min_magnitude=0.1, max_magnitude=50.0,
                            allow_nan=False, allow_infinity=False)


def operator_for(q, r, s, n=12):
    mesh = build_mesh(IntervalSpec(), n)
    coeffs = CoefficientSet.from_callables(mesh, p=1.0, q=q, r=r, s=s)
    return mesh, coeffs, orthonormalize(assemble_forms(mesh, coeffs, NEU, DIR))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(q=finite_c, r=finite_c, s=finite_c)
def test_adjoint_operator_is_conjugate_swap(q, r, s):
    mesh, coeffs, H = operator_for(q, r, s)
    _, _, H_adj = operator_for(np.conj(q), np.conj(s), np.conj(r))
    np.testing.assert_allclose(H_adj, H.conj().T, atol=1e-12)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(z1=shifts, z2=shifts)
def test_first_resolvent_identity(z1, z2):
    mesh, coeffs, H = operator_for(1.0, 1.0 + 1.0j, -0.5)
    # keep both points safely in the resolvent set
    z1, z2 = -1.0 - abs(z1) - 1j * z1.imag, -1.0 - abs(z2) + 1j * z2.imag
    if abs(z1 - z2) < 1e-9:
        return
    band = np.diag(H, -1), np.diag(H), np.diag(H, 1)
    R1, R2 = resolvent(band, z1), resolvent(band, z2)
    rhs = (z1 - z2) * R1 @ R2
    assert np.linalg.norm(R1 - R2 - rhs) <= 1e-9 * max(np.linalg.norm(rhs), 1.0)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_sqrt_multiply_back(seed):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    A = B @ B.conj().T + np.eye(8)
    Y = sqrt_db(A)
    assert np.linalg.norm(Y @ Y - A) <= 1e-10 * np.linalg.norm(A)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(eps_frac=st.floats(min_value=1e-3, max_value=0.999),
       seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_form_bound_slack_everywhere_in_range(eps_frac, seed):
    iv = IntervalSpec("full_line", truncation_radius=6.0)
    mesh = build_mesh(iv, 96)
    coeffs = CoefficientSet.from_callables(
        mesh, q=lambda x: np.sign(np.sin(5 * x)) * 2.0,
        r=1.0 - 1.0j, s=lambda x: np.cos(3 * x))
    forms = assemble_forms(mesh, coeffs, DIR, DIR)
    consts = locunif_norms(coeffs, iv, mesh)
    eps = eps_frac * consts.eps_0
    ratio = check_form_bound(forms, consts, [eps])[0]
    assert np.all(1.0 - ratio >= -1e-10)
    # the ratio dominates the quotient of any vector
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(forms.n_dof) + 1j * rng.standard_normal(forms.n_dof)
    q0, norm2, *q = (f.conj() @ _dense(K) @ f for K in
                     (forms.K0, forms.M, forms.K1, forms.K2, forms.K3))
    bound = eps * q0.real + consts.M * eps ** -3 * norm2.real
    assert np.all(np.abs(q) <= ratio * bound * (1 + 1e-12))


@settings(max_examples=25, derandomize=True, deadline=None)
@given(c=st.floats(min_value=-20.0, max_value=20.0))
def test_numerical_range_shift_covariance(c):
    from sqrtdom.sectorial import numerical_range_hull

    mesh, coeffs, H = operator_for(0.5j, 2.0, 0.0)
    base = numerical_range_hull(H)
    shifted = numerical_range_hull(H + c * np.eye(H.shape[0]))
    scale = 1.0 + abs(base.gamma) + abs(c)
    assert abs(shifted.gamma - (base.gamma + c)) <= 1e-9 * scale
    assert abs(shifted.theta - base.theta) <= 1e-9
