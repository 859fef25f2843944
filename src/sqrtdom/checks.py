"""The pinned tolerances, each defined once, and the checks that the command
line and the acceptance criteria share.  A suite returns its measured values
and its PASS/FAIL verdict; a subcommand only writes them out, so it cannot
drift from the acceptance criterion that calls the same suite."""

from __future__ import annotations

import numpy as np
from scipy import special

from .assembly import (BoundaryCondition, CoefficientSet, IntervalSpec,
                       assemble_forms, build_mesh, orthonormalize)
from .domains import thmA1_decay
from .kato import (TwoStepResolvent, _InvSqrtShifted, build_factorization,
                   decay_profile)
from .krein import (bessel_bound_check, bessel_k0_quad, krein_resolvent,
                    sqrt_kernel)
from .matfun import resolvent, trace_det_check

__all__ = ["TOL_KATO", "TOL_ORDER", "TOL_SLOPE", "TOL_PLATEAU", "TOL_SLACK",
           "TOL_TRACE", "TOL_K0", "two_step_errors", "krein_suite",
           "trace_suite", "decay_profiles", "multiplier_decay", "decay_ok"]

TOL_KATO = 1e-9       # relative resolvent error of the factored identities
TOL_ORDER = 1.8       # observed convergence order of the rank-one correction
TOL_SLOPE = -0.2      # log-log shift-decay slope ceiling
TOL_PLATEAU = 0.5     # min/max floor of the derivative-block norm
TOL_SLACK = -1e-10    # form-bound and pointwise-bound slack floor
TOL_TRACE = 1e-6      # closed-form determinant-trace residual
TOL_K0 = 1e-8         # Macdonald K0: quadrature against the library

KREIN_THETAS = (("neumann", BoundaryCondition.neumann()),
                ("quarter_pi", BoundaryCondition(np.pi / 4)),
                ("complex", BoundaryCondition(1 + 0.5j)))
K0_POINTS = (0.3, 0.5, 1.0, 2.0, 2.5, 5.0, 6.0)
TRACE_STEPS = (4e-3, 2e-3, 1e-3)


def two_step_errors(direct, T0, coeffs, z_list) -> list[float]:
    """Relative Frobenius errors of the two-step composed resolvent against
    the one-shot discretization ``direct``, one per shift."""
    closure = TwoStepResolvent(T0, coeffs)
    pairs = ((closure(z), resolvent(direct.H, z)) for z in z_list)
    return [float(np.linalg.norm(C - R) / np.linalg.norm(R)) for C, R in pairs]


def krein_suite(a: float, b: float, z: float, n_list, n: int, E: float,
                E_grid) -> dict:
    """Rank-one resolvent convergence, the square-root kernel's Dirichlet
    row, its Macdonald envelope, and the two-method K0 agreement.

    ``errors`` holds ``(theta label, n, max kernel error)`` rows, ``bessel``
    ``(E, record)`` pairs from ``bessel_bound_check``.
    """
    interval = IntervalSpec("finite", a, b)
    dirichlet = BoundaryCondition.dirichlet()
    errs = {label: [] for label, _ in KREIN_THETAS}
    for m in n_list:
        mesh = build_mesh(interval, m)
        coeffs = CoefficientSet.from_callables(mesh, p=1.0)

        def kernel(left):
            op = orthonormalize(assemble_forms(mesh, coeffs, left, dirichlet))
            return op.kernel_table(resolvent(op.H, z))

        dir_table = kernel(dirichlet)
        for label, th in KREIN_THETAS:
            errs[label].append(float(np.max(np.abs(
                krein_resolvent(dir_table, z, th, mesh) - kernel(th)))))
    min_order = min(float(np.log2(e1 / e2)) for e in errs.values()
                    for e1, e2 in zip(e, e[1:]))
    errors = [(label, m, err) for label, e in errs.items()
              for m, err in zip(n_list, e)]

    neumann = BoundaryCondition.neumann()
    mesh = build_mesh(interval, n)
    table = sqrt_kernel(E, neumann, mesh)
    boundary_row = float(np.max(np.abs(table[-1, :])))

    xs = np.linspace(a, b, 7)[1:-1][:5]
    bessel = [(E_b, bessel_bound_check(E_b, float(x), float(xp), neumann,
                                       mesh))
              for E_b in E_grid for x in xs for xp in xs]
    min_slack = min(rec["slack"] for _, rec in bessel)

    k0_diff = max(abs(bessel_k0_quad(y) - float(special.k0(y)))
                  for y in K0_POINTS)
    ok = (min_order >= TOL_ORDER and boundary_row == 0.0 and min_slack >= 0.0
          and k0_diff <= TOL_K0)
    return {"errors": errors, "min_order": min_order,
            "boundary_row": boundary_row, "bessel": bessel,
            "min_slack": min_slack, "k0_diff": k0_diff, "ok": ok}


def trace_suite(seed: int) -> dict:
    """The determinant-trace identity: a closed-form 2x2 case, and the
    step-halving ratios (near 4 at second order) of a seeded 6x6 case.

    ``residuals`` pairs each step ``h`` with its residual.
    """
    rng = np.random.default_rng(seed)
    A0 = np.diag([1.0 + 0j, 2.0])
    A = A0 + 0.1 * np.outer([1.0, 0.0], [1.0, 0.0])
    closed = trace_det_check(A, A0, -1.0, h=1e-5)

    B = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    shift = abs(np.linalg.eigvalsh(0.5 * (B + B.conj().T))[0]) + 2.0
    A0r = B + shift * np.eye(6)
    Ar = A0r + 0.05 * (rng.standard_normal((6, 6))
                       + 1j * rng.standard_normal((6, 6)))
    residuals = [(h, trace_det_check(Ar, A0r, -2.0, h=h))
                 for h in TRACE_STEPS]
    ratios = [r1 / r2 for (_, r1), (_, r2) in zip(residuals, residuals[1:])]
    ok = closed <= TOL_TRACE and all(2.5 <= r <= 6.5 for r in ratios)
    return {"closed_residual": closed, "residuals": residuals,
            "ratios": ratios, "ok": ok}


def decay_profiles(prob, E_grid, **kwargs) -> dict:
    """``decay_profile`` of each factorization variant of ``prob``, all from
    one factorization of the base operator."""
    halver = _InvSqrtShifted(prob.base_operator().H)
    return {v: decay_profile(halver, build_factorization(
                prob.mesh, prob.coeffs, prob.bc_left, prob.bc_right, v),
                E_grid, **kwargs)
            for v in ("qr_pair", "s_pair", "full_triple")}


def multiplier_decay(ref, cell_samples, E_grid) -> dict:
    """``thmA1_decay`` of a multiplier sampled per cell, averaged onto the
    nodes of the reference operator ``ref``."""
    nodal = np.zeros(len(ref.mesh.nodes))
    nodal[:-1] += 0.5 * cell_samples
    nodal[1:] += 0.5 * cell_samples
    return thmA1_decay(nodal[ref.dof_nodes], ref, E_grid)


def decay_ok(profiles: dict, multiplier_slopes) -> bool:
    """Shift-decay pass rule over ``decay_profile`` results by variant.

    The qr and s pairs must decay (slope at most ``TOL_SLOPE``, monotone
    K-norms), the full triple's derivative block must plateau (ratio at
    least ``TOL_PLATEAU``), and every multiplier slope must decay.
    """
    return (all(profiles[v]["slope"] <= TOL_SLOPE and profiles[v]["monotone"]
                for v in ("qr_pair", "s_pair"))
            and profiles["full_triple"]["plateau_ratio"] >= TOL_PLATEAU
            and all(s <= TOL_SLOPE for s in multiplier_slopes))
