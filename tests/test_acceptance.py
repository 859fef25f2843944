"""Acceptance suite: every release criterion at its pinned tolerance.

Each test prints one ``[criterion N] PASS/FAIL`` line (run with ``-s`` to see
them inline).  Tolerances are fixed, in ``sqrtdom.checks`` where the command
line applies them too, and not calibrated at run time, except where a
criterion itself defines a calibration procedure (the dichotomy ceiling, which
is the geometric mean of the two negative-control growth rates).
"""

import filecmp
import time

import numpy as np
import pytest

from sqrtdom.assembly import BoundaryCondition, IntervalSpec
from sqrtdom.checks import (TOL_K0, TOL_KATO, TOL_ORDER, TOL_PLATEAU,
                            TOL_SLACK, TOL_SLOPE, TOL_TRACE, decay_ok,
                            decay_profiles, krein_suite, multiplier_decay,
                            trace_suite)
from sqrtdom.cli import main as cli_main
from sqrtdom.domains import refinement_study
from sqrtdom.formbounds import check_trudinger, locunif_norms
from sqrtdom.kato import verify_identity
from sqrtdom.matfun import (QuadratureSpec, check_power_laws, frac_power_quad,
                            sqrt_db)
from sqrtdom.problems import lions_operator, make_problem

DIR = BoundaryCondition.dirichlet()
NEU = BoundaryCondition.neumann()

FAMILIES = ("constant_qrs", "complex_constant", "mixed_sign", "sawtooth",
            "spike")
INTERVALS = (
    IntervalSpec("finite", 0.0, 1.0),
    IntervalSpec("half_line", a=0.0, truncation_radius=8.0),
    IntervalSpec("full_line", truncation_radius=6.0),
)
BC_CYCLE = ((DIR, DIR), (NEU, DIR), (DIR, NEU))


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status}: {detail}")
    assert ok, detail


def setup_runs(n):
    runs = []
    for i, family in enumerate(FAMILIES):
        for j, interval in enumerate(INTERVALS):
            bl, br = BC_CYCLE[(i + j) % len(BC_CYCLE)]
            if interval.kind == "full_line":
                bl = DIR  # artificial boundaries stay Dirichlet
            prob = make_problem(family, interval=interval, n=n,
                                bc_left=bl, bc_right=br)
            runs.append(prob)
    return runs


@pytest.fixture(scope="module")
def identity_pass():
    """One ``verify_identity`` pass over the 15 problems at n = 200, which
    criteria 1 and 2 share, and its wall time (assembly excluded)."""
    runs = setup_runs(n=200)
    t0 = time.perf_counter()
    reports = [verify_identity(prob) for prob in runs]
    return reports, time.perf_counter() - t0


def identity_criterion(criterion, path, label, identity_pass):
    reports, elapsed = identity_pass
    worst = max(rep["max_error"][path] for rep in reports)
    n_excluded = sum(len(rep["excluded"]) for rep in reports)
    ok = worst <= TOL_KATO and n_excluded == 0 and elapsed < 30.0
    report(criterion, ok, f"{label}: max rel err {worst:.3e} (tol "
                          f"{TOL_KATO:g}) over {len(reports)} problems, "
                          f"{n_excluded} shifts excluded, shared pass "
                          f"{elapsed:.1f}s at n=200")


def test_criterion_1_kato_identity_oracle(identity_pass):
    identity_criterion(1, "full_triple", "factored-resolvent identity",
                       identity_pass)


def test_criterion_2_two_step_composition(identity_pass):
    identity_criterion(2, "two_step", "two-step composition", identity_pass)


def test_criterion_3_fractional_power_suite():
    rng = np.random.default_rng(101)
    A = rng.standard_normal((50, 50)) + 1j * rng.standard_normal((50, 50))
    A /= np.sqrt(50)
    lo = np.linalg.eigvalsh(0.5 * (A + A.conj().T))[0]
    H = A + (abs(lo) + 1.0) * np.eye(50)

    quad400 = QuadratureSpec(panel_nodes=25, panels=8)
    assert 2 * quad400.n_nodes == 400
    Y = sqrt_db(H)
    half_err = np.linalg.norm(frac_power_quad(H, 0.5, quad400) - Y) \
        / np.linalg.norm(Y)

    adj, semi = check_power_laws(H, 0.25, 0.25, QuadratureSpec(panels=16))

    errs = []
    for nodes in (4, 8, 16):
        P = frac_power_quad(H, 0.5, QuadratureSpec(panel_nodes=nodes, panels=4))
        errs.append(np.linalg.norm(P - Y) / np.linalg.norm(Y))
    factors = [errs[i] / errs[i + 1] for i in range(2)]

    ok = (half_err <= 1e-6 and adj <= 1e-5 and semi <= 1e-5
          and min(factors) >= 4.0)
    report(3, ok, f"fractional powers: half-power gap {half_err:.2e} "
                  f"(tol 1e-6, 400 nodes), power-law residuals "
                  f"{adj:.2e}/{semi:.2e} (tol 1e-5), doubling factors "
                  f"{factors[0]:.1f}x/{factors[1]:.1f}x (need >= 4)")


def test_criterion_4_krein_suite():
    # verify-krein's default run
    suite = krein_suite(0.0, 1.0, -5.0, (64, 128, 256), 64, 25.0,
                        (25.0, 100.0))
    report(4, suite["ok"], f"boundary-kernel suite: min observed order "
                           f"{suite['min_order']:.2f} (need {TOL_ORDER}), "
                           f"boundary row {suite['boundary_row']:.1e}, min "
                           f"envelope slack {suite['min_slack']:.2e} (need "
                           f">= 0), K0 two-method {suite['k0_diff']:.1e} "
                           f"(tol {TOL_K0:g})")


def test_criterion_5_form_bound_suite():
    problems = [
        make_problem("constant_qrs",
                     IntervalSpec("full_line", truncation_radius=8.0),
                     n=320, bc_left=DIR, bc_right=DIR),
        make_problem("spike",
                     IntervalSpec("half_line", a=0.0, truncation_radius=8.0),
                     n=320, bc_left=NEU, bc_right=DIR),
        make_problem("mixed_sign", IntervalSpec("finite", 0.0, 1.0), n=200,
                     bc_left=DIR, bc_right=DIR),
    ]
    rng = np.random.default_rng(314)
    min_slack = np.inf
    min_trud = np.inf
    for prob in problems:
        consts = locunif_norms(prob.coeffs, prob.interval, prob.mesh)
        n_dof = prob.forms.n_dof
        F = (rng.standard_normal((n_dof, 1000))
             + 1j * rng.standard_normal((n_dof, 1000)))
        re_q0 = np.einsum("ij,ij->j", F.conj(), prob.forms.K0 @ F).real
        norm2 = np.einsum("ij,ij->j", F.conj(), prob.forms.M @ F).real
        eps_grid = np.geomspace(0.01, 0.99, 16) * consts.eps_0
        for K in (prob.forms.K1, prob.forms.K2, prob.forms.K3):
            lhs = np.abs(np.einsum("ij,ij->j", F.conj(), K @ F))
            for eps in eps_grid:
                slack = eps * re_q0 + consts.M * eps**-3 * norm2 - lhs
                min_slack = min(min_slack, float(slack.min()))
        # pointwise bound on the same battery, nodewise
        n_nodes = len(prob.mesh.nodes)
        G = (rng.standard_normal((n_nodes, 50))
             + 1j * rng.standard_normal((n_nodes, 50)))
        for k in range(50):
            for eps in (0.1, 1.0, 10.0):
                rec = check_trudinger(G[:, k], prob.coeffs.r, prob.mesh, eps)
                min_trud = min(min_trud, rec["point_slack"],
                               rec["weighted_slack"])
    ok = min_slack >= TOL_SLACK and min_trud >= TOL_SLACK
    report(5, ok, f"relative form bounds: min slack {min_slack:.3e} over "
                  f"1000 vectors x 16 eps x 3 problems (tol {TOL_SLACK:g}), "
                  f"pointwise-bound min slack {min_trud:.3e}")


def test_criterion_6_decay_suite():
    prob = make_problem("constant_qrs", IntervalSpec("finite", 0.0, 1.0),
                        n=800, bc_left=DIR, bc_right=DIR)
    E_grid = np.geomspace(1e2, 1e6, 7)
    profiles = decay_profiles(prob, E_grid)

    # |r| = |s| = |q|^{1/2} = 1 for this family: one multiplier covers all
    slope_phi = multiplier_decay(prob, {"abs_r": np.abs(prob.coeffs.r)},
                                 E_grid)["abs_r"]["slope"]

    spike = make_problem("spike", IntervalSpec("finite", 0.0, 1.0), n=800,
                         bc_left=DIR, bc_right=DIR)
    slope_spike = multiplier_decay(
        spike, {"sqrt_abs_q": np.sqrt(np.abs(spike.coeffs.q))},
        E_grid)["sqrt_abs_q"]["slope"]

    qr, s = profiles["qr_pair"], profiles["s_pair"]
    ok = decay_ok(profiles, [slope_phi, slope_spike])
    report(6, ok, f"shift decay: K-norm slopes {qr['slope']:.2f}/"
                  f"{s['slope']:.2f} (need <= {TOL_SLOPE}, monotone "
                  f"{qr['monotone']}/{s['monotone']}), derivative-block "
                  f"plateau {profiles['full_triple']['plateau_ratio']:.2f} "
                  f"(need >= {TOL_PLATEAU}), multiplier slopes "
                  f"{slope_phi:.2f}/{slope_spike:.2f}")


def test_criterion_7_domain_dichotomy():
    ns = [32, 64, 128, 256, 512, 1024]

    # the negative control calibrates its own ceiling on this ladder, by the
    # growth rule the verdict itself applies
    control = refinement_study(lions_operator, ns, 1.0, 0.5, None)
    growth_quarter = control.calibration["lions_growth_quarter"]
    growth_half = control.calibration["lions_growth_half"]
    ceiling = control.threshold

    baseline = refinement_study(lambda n: make_problem("free", n=n), ns, 1.0,
                                0.5, ceiling)
    baseline_worst = max(abs(row["kappa"] - 1.0) for row in baseline.rows)
    kappas = [row["kappa"] for row in control.rows]
    monotone_half = all(a < b for a, b in zip(kappas, kappas[1:]))

    # admissible-coefficient problems under the same calibrated ceiling
    # (shorter ladder: their ratios are flat in n, so this is conservative)
    verdicts = {}
    for name, bc_left in (("complex_p", DIR), ("complex_constant", DIR),
                          ("mixed_sign", BoundaryCondition(1 + 0.5j))):
        rep = refinement_study(
            lambda n: make_problem(name, n=n, bc_left=bc_left),
            [32, 64, 128, 256, 512], 1.0, 0.5, ceiling)
        verdicts[name] = rep.verdict

    ok = (baseline_worst <= 1e-12
          and growth_half > growth_quarter
          and growth_quarter < ceiling < growth_half
          and monotone_half
          and control.verdict == "divergent"
          and all(v == "bounded" for v in verdicts.values()))
    report(7, ok, f"dichotomy: baseline |kappa-1| {baseline_worst:.1e} "
                  f"(tol 1e-12), control growth {growth_half:.2f} (critical) "
                  f"vs {growth_quarter:.2f} (quarter), ceiling {ceiling:.2f}, "
                  f"admissible verdicts {sorted(verdicts.values())}")


def test_criterion_8_trace_formula():
    suite = trace_suite(55)
    ratios = suite["ratios"]
    report(8, suite["ok"], f"determinant-trace identity: closed-form "
                           f"residual {suite['closed_residual']:.2e} (tol "
                           f"{TOL_TRACE:g}), step-halving ratios "
                           f"{ratios[0]:.2f}/{ratios[1]:.2f} (second order)")


def test_criterion_9_determinism(tmp_path):
    mismatched = []
    for cmd in (["verify-kato", "--n", "32"],
                ["hypothesis-check", "--n", "24", "--interval", "full_line",
                 "--radius", "4"]):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{cmd[0]}_{tag}"
            code = cli_main([*cmd, "--seed", "2024", "--outdir", str(out)])
            assert code == 0
            outs.append(out)
        for path in sorted(outs[0].iterdir()):
            if path.name == "manifest.txt":
                continue  # echoes the differing outdir
            if not filecmp.cmp(path, outs[1] / path.name, shallow=False):
                mismatched.append(path.name)
    ok = not mismatched
    report(9, ok, "byte-identical CSV outputs across repeated runs"
           + (f" (mismatch: {mismatched})" if mismatched else ""))
