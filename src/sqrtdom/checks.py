"""The pinned tolerances, each defined once, and the checks that the command
line and the acceptance criteria share.  A suite returns its measured values
and ``checks``, an ordered mapping from each check's manifest name to
whether it passed; a subcommand only writes them out, so it cannot drift
from the acceptance criterion that calls the same suite (criteria 4, 5, 6
and 8); ``decay_suite`` is the one shift-decay verdict.  ``kato_checks``
judges ``kato.verify_identity``'s report against ``TOL_KATO`` for
``verify-kato`` and criteria 1 and 2.  ``failed`` names the checks of a
mapping that failed; a check mapped to ``None`` is reported, never judged.
"""

from __future__ import annotations

import numpy as np

from .assembly import (BoundaryCondition, CoefficientSet, IntervalSpec,
                       build_mesh)
from .domains import thmA1_decay
from .formbounds import check_form_bound, check_trudinger, locunif_norms
from .kato import (VARIANTS, _InvSqrtShifted, build_factorization,
                   decay_profile)
from .krein import (_coupling, _k0, _subtract_coupling, bessel_bound_check,
                    bessel_k0_quad, sqrt_kernel)
from .matfun import _blocks, resolvent, trace_det_check
from .problems import Problem

__all__ = ["TOL_KATO", "TOL_ORDER", "TOL_SLOPE", "TOL_PLATEAU", "TOL_SLACK",
           "TOL_TRACE", "TOL_K0", "failed", "kato_checks", "krein_suite",
           "trace_suite", "form_bound_suite", "decay_suite"]

TOL_KATO = 1e-9       # relative resolvent error of the factored identities
TOL_ORDER = 1.8       # observed convergence order of the rank-one correction
TOL_SLOPE = -0.2      # log-log shift-decay slope ceiling
TOL_PLATEAU = 0.5     # min/max floor of the derivative-block norm
TOL_SLACK = -1e-10    # floor of 1 - ratio, form and pointwise bounds
TOL_TRACE = 1e-6      # closed-form determinant-trace residual
TOL_K0 = 1e-8         # Macdonald K0: quadrature against the library

KREIN_THETAS = (("neumann", BoundaryCondition.neumann()),
                ("quarter_pi", BoundaryCondition(np.pi / 4)),
                ("complex", BoundaryCondition(1 + 0.5j)))
K0_POINTS = (0.3, 0.5, 1.0, 2.0, 2.5, 5.0, 6.0)
TRACE_STEPS = (4e-3, 2e-3, 1e-3)
FORM_EPS = np.geomspace(0.01, 0.99, 16)  # in units of eps_0
TRUDINGER_EPS = (0.1, 1.0, 10.0)


def failed(checks: dict) -> list[str]:
    """The names in ``checks`` that failed: a check mapped to ``None`` is
    reported only, and any other value fails unless it is true."""
    return [name for name, ok in checks.items() if ok is not None and not ok]


def kato_checks(rep: dict) -> dict:
    """``verify_identity``'s two identities: each path's largest relative
    error within ``TOL_KATO``, and no shift excluded, since an excluded shift
    is one where neither identity was checked."""
    return {name: not rep["excluded"] and rep["max_error"][path] <= TOL_KATO
            for name, path in (("factored-resolvent-identity", "full_triple"),
                               ("two-step-composition", "two_step"))}


def krein_suite(a: float, b: float, z: float, n_list, n: int, E: float,
                E_grid) -> dict:
    """Rank-one resolvent convergence, the square-root kernel's Dirichlet
    row, its Macdonald envelope, and the two-method K0 agreement.

    The ladder ``n_list`` is judged coarse to fine, whatever its order, one
    level at a time (``_krein_level``), so that no level's tables outlive
    it.  ``errors`` holds ``(theta label, n, max kernel error)`` rows,
    ``bessel`` ``(E, record)`` pairs from ``bessel_bound_check``.
    """
    n_list = sorted(n_list)
    interval = IntervalSpec("finite", a, b)
    errs = {label: [] for label, _ in KREIN_THETAS}
    for m in n_list:
        for label, err in _krein_level(interval, m, z):
            errs[label].append(err)
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

    k0_diff = max(abs(bessel_k0_quad(y) - float(_k0(y)))
                  for y in K0_POINTS)
    return {"errors": errors, "min_order": min_order,
            "boundary_row": boundary_row, "bessel": bessel,
            "min_slack": min_slack, "k0_diff": k0_diff,
            "checks": {"rank-one-resolvent-convergence": min_order >= TOL_ORDER,
                       "sqrt-kernel-boundary-row": boundary_row == 0.0,
                       "macdonald-envelope": min_slack >= 0.0,
                       "macdonald-two-method": k0_diff <= TOL_K0}}


def _krein_level(interval: IntervalSpec, m: int, z: float) -> list:
    """``(theta label, max kernel error)`` of each of ``KREIN_THETAS`` on
    ``m`` cells of ``interval``: the finite-element kernel table against
    Krein's correction of the Dirichlet one.

    The resolvents are solved from each operator's diagonals, so no dense
    operator is formed, and at most two kernel tables are held: the
    Dirichlet one, and per theta the finite-element resolvent, scaled in
    place into its table's retained block (``Problem.kernel_block``).
    Every theta keeps the node a, so that block leads the table.  The error
    is taken one row block at a time (``matfun._blocks``): Krein's term
    (``krein._coupling``) is subtracted in place from a copy of the
    Dirichlet rows (``krein._subtract_coupling``, as ``krein_resolvent``
    subtracts it), then the finite-element rows.
    """
    mesh = build_mesh(interval, m)
    coeffs = CoefficientSet.from_callables(mesh, p=1.0)
    dirichlet = BoundaryCondition.dirichlet()

    def problem(left):
        return Problem(interval, mesh, coeffs, left, dirichlet)

    def max_error(th):
        # the finite-element block and the shift's coupling go on return
        coupling = _coupling(z, th, mesh)
        prob = problem(th)
        fe = prob.kernel_block(resolvent(prob.diagonals(), z))
        worst = 0.0
        for rows in _blocks(m + 1, m + 1):
            err = _subtract_coupling(dir_table[rows].copy(), rows.start,
                                     coupling)
            fe_rows = fe[rows]
            err[:len(fe_rows), :fe.shape[1]] -= fe_rows
            # np.maximum keeps a nan, which max() would drop
            worst = np.maximum(worst, np.max(np.abs(err)))
        return float(worst)

    prob = problem(dirichlet)
    dir_table = prob.kernel_table(resolvent(prob.diagonals(), z))
    return [(label, max_error(th)) for label, th in KREIN_THETAS]


def trace_suite(seed: int) -> dict:
    """The determinant-trace identity: a closed-form 2x2 case, and the
    step-halving ratios (near 4 at second order) of a seeded 6x6 case.

    ``residuals`` pairs each step ``h`` with its residual.
    """
    rng = np.random.default_rng(seed)
    A0 = np.diag([1.0 + 0j, 2.0])
    A = A0 + np.diag([0.1, 0.0])  # the rank-one 0.1 e1 e1^T
    closed = trace_det_check(A, A0, -1.0, h=1e-5)

    B = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    shift = abs(np.linalg.eigvalsh(0.5 * (B + B.conj().T))[0]) + 2.0
    A0r = B + shift * np.eye(6)
    Ar = A0r + 0.05 * (rng.standard_normal((6, 6))
                       + 1j * rng.standard_normal((6, 6)))
    residuals = [(h, trace_det_check(Ar, A0r, -2.0, h=h))
                 for h in TRACE_STEPS]
    ratios = [r1 / r2 for (_, r1), (_, r2) in zip(residuals, residuals[1:])]
    return {"closed_residual": closed, "residuals": residuals,
            "ratios": ratios,
            "checks": {"determinant-trace-derivative": closed <= TOL_TRACE,
                       "step-halving-order": all(2.5 <= r <= 6.5
                                                 for r in ratios)}}


def form_bound_suite(prob: Problem) -> dict:
    """``check_form_bound``'s ratios over ``FORM_EPS`` and the pointwise
    trace bound's, plain and weighted by ``r``, at each ``TRUDINGER_EPS``;
    each slack is one minus the largest ratio."""
    consts = locunif_norms(prob.coeffs, prob.interval, prob.mesh)
    eps_grid = FORM_EPS * consts.eps_0
    ratio = check_form_bound(prob.forms, consts, eps_grid)
    min_slack = 1.0 - float(np.max(ratio))
    min_pointwise = 1.0 - float(np.max(
        [list(check_trudinger(prob.coeffs.r, prob.mesh, eps).values())
         for eps in TRUDINGER_EPS]))
    return {"constants": consts, "eps_grid": eps_grid, "ratio": ratio,
            "min_slack": min_slack, "min_pointwise_slack": min_pointwise,
            "checks": {"relative-form-bound": min_slack >= TOL_SLACK,
                       "pointwise-trace-bound": min_pointwise >= TOL_SLACK}}


def decay_suite(prob: Problem, E_grid) -> dict:
    """Shift decay of ``prob`` over ``E_grid``: ``profiles`` holds
    ``decay_profile`` of each factor pair, all from one factorization of the
    base operator, whose path ``base_path`` names, and ``multipliers``
    ``thmA1_decay`` of ``abs_r``, ``abs_s`` and ``sqrt_abs_q``, sampled per
    cell and averaged onto the retained nodes as the potential is
    (``prob.lumped_average``), all from one factorization of the reference
    operator.

    The qr and s pairs must decay (K-norm slope at most ``TOL_SLOPE``,
    monotone K-norms), the full triple's derivative block must plateau
    (B-norm ratio at least ``TOL_PLATEAU``), and every multiplier must decay
    (slope at most ``TOL_SLOPE``).  A pair or multiplier whose norms all
    vanish has nothing to decay and is exempt; any other ``nan`` slope
    fails.
    """
    base = _InvSqrtShifted(prob.base_operator())
    profiles = {v: decay_profile(base, build_factorization(prob, v), E_grid)
                for v in VARIANTS}
    c = prob.coeffs
    halver = _InvSqrtShifted(prob.reference_operator())
    multipliers = {name: thmA1_decay(prob.lumped_average(cells), halver,
                                     E_grid)
                   for name, cells in (("abs_r", np.abs(c.r)),
                                       ("abs_s", np.abs(c.s)),
                                       ("sqrt_abs_q", np.sqrt(np.abs(c.q))))}
    pairs = [profiles["qr_pair"], profiles["s_pair"]]
    return {"profiles": profiles, "multipliers": multipliers,
            "base_path": base.path, "checks": {
        "factored-norm-decay": all(
            not np.any(p["normK"]) or (p["slope"] <= TOL_SLOPE
                                       and p["monotone"]) for p in pairs),
        "derivative-block-plateau":
            profiles["full_triple"]["plateau_ratio"] >= TOL_PLATEAU,
        "multiplier-decay": all(not np.any(m["norms"])
                                or m["slope"] <= TOL_SLOPE
                                for m in multipliers.values())}}
